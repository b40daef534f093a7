"""The dataflow engine over the SSA IR: one dense and one sparse solver.

Every fixpoint in the tree is reached through one of these two
worklists — the lint checkers (:mod:`repro.sanalysis`, which re-exports
these names) and the abstract interpreter (:mod:`repro.analysis.absint`),
the one values analysis, whose facts drive ``rangeopt``:

* :class:`DenseAnalysis` / :func:`solve_dense` — classic block-level
  dataflow.  States attach to basic-block boundaries, the direction is
  forward (states flow entry -> exits) or backward, and the meet
  combines states over CFG edges.  Initialization is *optimistic*
  (every block starts at the analysis' top element) so loops converge
  to the meet-over-all-paths solution, seeded in reverse postorder
  (forward) or postorder (backward) from :mod:`repro.analysis.cfg` so
  acyclic code converges in one sweep.

* :class:`SparseAnalysis` / :func:`solve_sparse` — Wegman–Zadeck sparse
  propagation directly over the def-use graph.  Each SSA value carries
  one lattice element; when a value's element changes, exactly its
  users are revisited.  Only the entry block starts out executable: a
  block is swept when an executable edge first reaches it, its
  terminator makes every successor edge executable, and a phi merges
  only what arrives over executable edges — so nothing from a block
  that is not reached (yet, or ever) enters a merge.  This is the
  "compact def-use graph that simplifies many dataflow optimizations"
  the paper credits SSA with: no per-block state is ever materialized.

Termination requires what it classically requires: a finite-height
lattice and monotone transfer functions.  The checkers use small
three-point, four-point or power-set lattices; absint makes its
intervals finite-height by widening.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Dict

from ..core.basicblock import BasicBlock
from ..core.instructions import Instruction, PhiNode
from ..core.module import Function
from ..core.values import Value
from .cfg import postorder, reachable_blocks, reverse_postorder
from .loops import LoopInfo
from .manager import function_analysis

FORWARD = "forward"
BACKWARD = "backward"


class DenseAnalysis:
    """Subclass-and-override description of a block-level dataflow problem."""

    #: :data:`FORWARD` or :data:`BACKWARD`.
    direction = FORWARD

    def boundary(self, function: Function):
        """The state at the entry (forward) or at every exit (backward)."""
        raise NotImplementedError

    def top(self, function: Function):
        """The optimistic initial state for every other block."""
        raise NotImplementedError

    def meet(self, a, b):
        """Combine two states where CFG paths join."""
        raise NotImplementedError

    def transfer(self, block: BasicBlock, state):
        """Push a state through ``block`` (in program order for forward
        analyses, reverse program order for backward ones)."""
        raise NotImplementedError


class DenseResult:
    """Fixpoint states at both boundaries of every reachable block."""

    def __init__(self, block_in: Dict[BasicBlock, object],
                 block_out: Dict[BasicBlock, object], iterations: int):
        #: State at block entry (forward: before the first instruction).
        self.block_in = block_in
        #: State at block exit (forward: after the terminator).
        self.block_out = block_out
        #: Number of block transfers executed before the fixpoint.
        self.iterations = iterations


def solve_dense(analysis: DenseAnalysis, function: Function) -> DenseResult:
    """Run ``analysis`` to a fixpoint over ``function``'s reachable CFG."""
    forward = analysis.direction == FORWARD
    order = reverse_postorder(function) if forward else postorder(function)
    reachable = set(reachable_blocks(function))

    boundary = analysis.boundary(function)
    top = analysis.top(function)
    block_in: Dict[BasicBlock, object] = {b: top for b in order}
    block_out: Dict[BasicBlock, object] = {b: top for b in order}

    def inputs(block: BasicBlock) -> list[BasicBlock]:
        if forward:
            return [p for p in block.unique_predecessors() if p in reachable]
        return [s for s in block.successors() if s in reachable]

    def outputs(block: BasicBlock) -> list[BasicBlock]:
        if forward:
            return [s for s in block.successors() if s in reachable]
        return [p for p in block.unique_predecessors() if p in reachable]

    worklist = deque(order)
    queued = set(order)
    iterations = 0
    while worklist:
        block = worklist.popleft()
        queued.discard(block)
        iterations += 1

        sources = inputs(block)
        if not sources:
            state = boundary
        else:
            state = block_out[sources[0]] if forward else block_in[sources[0]]
            for source in sources[1:]:
                other = block_out[source] if forward else block_in[source]
                state = analysis.meet(state, other)

        result = analysis.transfer(block, state)
        if forward:
            block_in[block] = state
            changed = result != block_out[block]
            block_out[block] = result
        else:
            block_out[block] = state
            changed = result != block_in[block]
            block_in[block] = result
        if changed:
            for target in outputs(block):
                if target not in queued:
                    queued.add(target)
                    worklist.append(target)
    return DenseResult(block_in, block_out, iterations)


class SparseAnalysis:
    """Subclass-and-override description of a sparse SSA-value problem.

    Sparse analyses are forward by nature: information flows from a
    definition to its uses along def-use edges.
    """

    def top(self):
        """The optimistic element every instruction starts at: "no
        execution defines this yet", the identity of :meth:`meet`."""
        raise NotImplementedError

    def initial(self, value: Value):
        """The element of a non-instruction value (argument, constant,
        global); called once per value and cached."""
        raise NotImplementedError

    def transfer(self, inst: Instruction, get: Callable[[Value], object]):
        """The element of ``inst`` given its operands' elements.

        For a phi, ``get`` answers :meth:`top` for a value that arrives
        only over edges not (yet) executable, so a merge written as a
        meet over ``inst.incoming`` ignores them without knowing why.
        """
        raise NotImplementedError

    def meet(self, a, b):
        raise NotImplementedError

    def tracks(self, inst: Instruction) -> bool:
        """Whether ``inst``'s element depends on its operands (default:
        yes).  One that does not — :meth:`transfer` answers the same
        whatever ``get`` says — is visited once, when its block is
        swept, and never again."""
        return True


class SparseResult:
    """The per-value fixpoint of a sparse analysis."""

    def __init__(self, values: Dict[Value, object], iterations: int,
                 executable_blocks: set[BasicBlock],
                 view: Callable[[Instruction], Callable[[Value], object]]):
        #: Elements of every instruction in an executable block, plus
        #: every other value the solve looked up.
        self.values = values
        self.iterations = iterations
        #: Blocks some executable edge reaches (the entry included).
        self.executable_blocks = executable_blocks
        #: ``view(inst)`` is the ``get`` the solver hands ``inst``'s
        #: transfer: ``values`` with :meth:`SparseAnalysis.initial`
        #: (cached) behind it and, for a phi, non-executable edges masked.
        self.view = view

    def __getitem__(self, value: Value):
        return self.values[value]

    def get(self, value: Value, default=None):
        return self.values.get(value, default)


def loop_nested_order(function: Function) -> list[BasicBlock]:
    """Reachable blocks in reverse postorder, except that each natural
    loop's blocks come right after its header and what its exits reach
    comes after the whole loop.  Only a back edge goes against it."""
    blocks = reverse_postorder(function)
    position = {block: index for index, block in enumerate(blocks)}
    loops = function_analysis(function, LoopInfo)

    def key(block: BasicBlock) -> list[int]:
        # The positions of the headers of the loops around ``block``,
        # outermost first, then its own.
        path, loop = [position[block]], loops.loop_for(block)
        while loop is not None:
            path.append(position[loop.header])
            loop = loop.parent
        return path[::-1]

    return sorted(blocks, key=key)


def solve_sparse(analysis: SparseAnalysis, function: Function) -> SparseResult:
    """Propagate lattice elements along def-use edges, and executability
    along CFG edges, to a fixpoint.

    Newly reached blocks are swept whole, in :func:`loop_nested_order`,
    before any queued instruction is revisited — so acyclic code
    converges in one sweep and a loop body is seen before its header's
    phis merge the back edge, which keeps widening analyses from
    counting the visiting order as growth.  Revisits go lowest position
    first, so the code after a loop is revisited once the loop settles.
    """
    elements: Dict[Value, object] = {}
    top = analysis.top()
    blocks = loop_nested_order(function)
    position = {block: index for index, block in enumerate(blocks)}
    flat = [inst for block in blocks for inst in block.instructions]
    rank = {id(inst): index for index, inst in enumerate(flat)}
    executable_blocks: set[BasicBlock] = set()
    executable_edges: set[tuple[int, int]] = set()
    reached: list[int] = []  # heap of positions of blocks not yet swept
    worklist: list[int] = []  # heap of ranks of instructions to revisit
    queued: set[int] = set()

    def get(value: Value):
        existing = elements.get(value)
        if existing is not None or value in elements:
            return existing
        element = analysis.initial(value)
        elements[value] = element
        return element

    def enqueue(inst: Instruction) -> None:
        if id(inst) not in queued:
            queued.add(id(inst))
            heappush(worklist, rank[id(inst)])

    def mark_executable(source, block: BasicBlock) -> None:
        edge = (id(source), id(block))
        if edge in executable_edges:
            return
        executable_edges.add(edge)
        if block in executable_blocks:
            # A new way into a visited block: its phis must re-merge.
            for phi in block.phis():
                enqueue(phi)
            return
        executable_blocks.add(block)
        heappush(reached, position[block])
        for inst in block.instructions:
            elements[inst] = top
            queued.add(id(inst))  # by the sweep, not the worklist

    def view(inst: Instruction) -> Callable[[Value], object]:
        if not isinstance(inst, PhiNode):
            return get
        target = id(inst.parent)
        for _, source in inst.incoming:
            if (id(source), target) not in executable_edges:
                break
        else:
            return get
        live = {id(value) for value, source in inst.incoming
                if (id(source), target) in executable_edges}
        dead = {id(value) for value, _ in inst.incoming} - live
        return lambda value: top if id(value) in dead else get(value)

    mark_executable(None, function.entry_block)
    iterations = 0
    while reached or worklist:
        batch = blocks[heappop(reached)].instructions if reached \
            else (flat[heappop(worklist)],)
        for inst in batch:
            if analysis.tracks(inst):  # else it stays queued for good
                queued.discard(id(inst))
            iterations += 1
            new = analysis.transfer(inst, view(inst))
            if new != elements[inst]:
                elements[inst] = new
                for user in inst.users():
                    if isinstance(user, Instruction) \
                            and user.parent in executable_blocks:
                        enqueue(user)
        # A terminator ends its block, so it can only be a batch's last.
        last = batch[-1] if batch else None
        if last is not None and last.is_terminator:
            for successor in last.successors:
                mark_executable(last.parent, successor)
    return SparseResult(elements, iterations, executable_blocks, view)
