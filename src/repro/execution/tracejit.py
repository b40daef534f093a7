"""The trace-compiling JIT tier (paper sections 3.4-3.5).

"Once hot paths are identified, we duplicate the original code into a
trace, perform optimizations on it, and then regenerate native code
into a software-managed trace cache.  We then insert branches between
the original code and the new native code."

This module is that loop, with Python as the "native code": block-entry
counters promote a hot block to *recording mode*, the next completed
cycle through it becomes a trace, and the trace is compiled with
``compile()``/``exec`` into one specialized Python closure, the hot path
with the interpreter's dispatch, operand lookup and constant evaluation
burned away.  A side exit taken ``hot_threshold`` times records the path
from its target back to the header, and the header is recompiled with
that path as an inline branch: a trace is a *tree* (Gal & Franz), one
compiled function per loop header.  An exit whose target has a trace of
its own runs that trace next (Dynamo's fragment linking).  Trees live in
the software trace cache :attr:`TraceManager.traces`, keyed by header
block, until reoptimization rewrites the IR under them.  The same block
event is the lifelong profile (section 3.6): the manager counts every
interpreted entry into its :class:`~repro.profile.ProfileData`, and each
trace run credits the blocks it entered.

Every speculative assumption is a *guard*: a conditional branch goes the
recorded way, a switch selector routes to the recorded case, an indirect
call still resolves to an external, a live-in register carries the
representation (``int``/``bool``/``float``) the code was specialized
for, and a ``getelementptr`` base is not null (the interpreter's trap).
A failed guard *side-exits*: a branch guard first takes its edge (the
target's phi moves and the branch's step), any other stops before its
instruction; then it breaks out of the loop into the one tail every exit
shares, which points the frame at the instruction to resume at, syncs
the step counter and writes back each register that the exit's path or a
completed iteration assigned.  The interpreter continues as if it had
run every instruction itself, which the differential jit-gate checks.

Arithmetic is derived, not restated: a binary operator, shift or cast
is its row of :mod:`repro.core.constfold`'s table — the same expression
text the interpreter's evaluators are compiled from — inlined over the
trace's locals, with ``constfold.NAMESPACE`` (the helpers a row may
call: the division traps, the NaN rules, the float32 re-round) in the
closure's globals.  The recorder likewise borrows the interpreter's
``gep_layout``, ``constant_value`` and ``Memory.scalar_format`` rather
than keep a layout walk, an undef rule or a format table of its own.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Optional

from ..core import constfold
from ..core.basicblock import BasicBlock
from ..core.instructions import (
    AllocaInst, BinaryOperator, BranchInst, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, LoadInst, MallocInst, PhiNode,
    ShiftInst, StoreInst, SwitchInst,
)
from ..core.module import Function, GlobalVariable
from ..core.values import (
    Argument, ConstantBool, ConstantExpr, ConstantInt, Value,
)
from ..profile.collector import ProfileData
from .memory import OFFSET_BITS, OFFSET_MASK


class Untraceable(Exception):
    """The recorded path contains something the compiler cannot
    specialize (a call into compiled IR, an invoke, arithmetic the
    table has no row for); the header is blacklisted and stays
    interpreted."""


class TraceJITStats:
    """Counters surfaced through ``-stats`` as the ``jit`` source."""

    name = "jit"

    def __init__(self):
        self.traces_compiled = 0
        self.branches_grown = 0
        self.tree_recompiles = 0
        self.trace_entries = 0
        self.entries_from_interpreter = 0
        self.linked_entries = 0
        self.trace_iterations = 0
        self.guard_exits = 0
        self.budget_exits = 0
        self.steps_saved = 0
        self.entry_fallbacks = 0
        self.recordings_aborted = 0
        self.invalidations = 0
        #: reason -> recordings aborted for it, and anchors (a block, or
        #: an exit a branch would grow from) given up for it.
        self.aborted: dict[str, int] = {}
        self.blacklisted: dict[str, int] = {}

    def abort(self, reason: str) -> None:
        self.recordings_aborted += 1
        self.aborted[reason] = self.aborted.get(reason, 0) + 1

    def blacklist(self, reason: str) -> None:
        self.blacklisted[reason] = self.blacklisted.get(reason, 0) + 1

    def statistics(self) -> dict[str, int]:
        """The ``-stats`` rows: every counter above, hyphenated, then
        one ``aborted.<reason>`` / ``blacklisted.<reason>`` row each."""
        rows = {name.replace("_", "-"): value
                for name, value in vars(self).items()
                if isinstance(value, int)}
        for table in ("aborted", "blacklisted"):
            for reason, count in getattr(self, table).items():
                rows[f"{table}.{reason}"] = count
        return rows


@dataclass(eq=False, slots=True)
class _Segment:
    """One recorded path of a trace tree: the trunk, from the header, or
    a branch, from an exit's target; either ends by an edge back to the
    header.  Per exit edge ``(block index, target)``: the branch grown
    from it, how often it was taken, its failed branch recordings."""

    blocks: list[BasicBlock]
    branches: dict[tuple[int, BasicBlock], _Segment] = field(
        default_factory=dict)
    heat: dict[tuple[int, BasicBlock], int] = field(default_factory=dict)
    aborts: dict[tuple[int, BasicBlock], int] = field(default_factory=dict)


@dataclass(eq=False, slots=True)
class CompiledTrace:
    """One compiled tree: the closure plus the IR it was built from (the
    header block keys :attr:`TraceManager.traces`), its block count, its
    side exits' rows (see :meth:`_TraceCompiler._exit`) and, per leaf,
    the blocks one iteration through it enters."""

    fn: object
    function_name: str
    tree: _Segment
    size: int
    exits: tuple
    leaf_paths: list[list[BasicBlock]]
    source: str

    @property
    def path(self) -> list[BasicBlock]:
        """The trunk: the recorded cycle from the header."""
        return self.tree.blocks

    @property
    def header(self) -> BasicBlock:
        return self.tree.blocks[0]

    @property
    def key(self) -> tuple[str, str]:
        """A reporting label; the trace cache keys by the header block."""
        return (self.function_name, self.header.name)


@dataclass(eq=False, slots=True)
class _Recording:
    frame: object
    anchor: BasicBlock
    site: Optional[tuple]   # (segment, edge) for a branch, else None
    path: list[BasicBlock]


class TraceManager:
    """Drives the record -> compile -> dispatch loop from the
    interpreter's block-entry events.

    One manager (and its trace cache) may outlive many
    :class:`Interpreter` instances over the same module — the compiled
    closures resolve memory, globals, and externals through the
    interpreter they are handed at each entry, which is what lets a
    :class:`~repro.driver.lifelong.LifelongSession` keep its trace
    cache warm across end-user runs.  :attr:`profile` counts every
    interpreted block entry, and each trace run credits it with the
    blocks the trace entered (the closure returns its full iterations
    per leaf and the exit it left by).
    """

    name = "jit"

    #: A recording longer than this many blocks is aborted, a tree grows
    #: branches while they hold fewer, and a header or exit whose
    #: recordings abort this often is blacklisted.
    max_blocks = 32
    max_aborts = 3

    def __init__(self, hot_threshold: int = 50):
        self.hot_threshold = hot_threshold
        self.stats = TraceJITStats()
        #: The software trace cache: one tree per header block, kept
        #: until :meth:`invalidate_all`.  Every table here is keyed by
        #: the block object itself (block names repeat after inlining).
        self.traces: dict[BasicBlock, CompiledTrace] = {}
        self._counts: dict[BasicBlock, int] = {}
        self._aborts: dict[BasicBlock, int] = {}
        self._blacklist: set[BasicBlock] = set()
        self._recording: Optional[_Recording] = None
        #: Every block entry of every run, interpreted or traced.
        self.profile = ProfileData()

    def attach(self, interpreter) -> None:
        """Hook this manager into one interpreter's block events."""
        self._recording = None
        interpreter.block_hook = self

    def statistics(self) -> dict[str, int]:
        return self.stats.statistics()

    def invalidate_all(self) -> int:
        """Reoptimization rewrote the IR: every compiled closure and
        every hotness counter refers to dead blocks.  The profile is
        the reoptimizer's input and stays."""
        dropped = len(self.traces)
        self.traces.clear()
        self._counts.clear()
        self._aborts.clear()
        self._blacklist.clear()
        self._recording = None
        self.stats.invalidations += dropped
        return dropped

    # -- the block-entry event --------------------------------------------

    def on_block(self, interpreter, frame, block: BasicBlock) -> None:
        self.profile.count(block)
        recording = self._recording
        if recording is not None:
            if frame is not recording.frame:
                # The program left the recording frame (a call, a
                # return, an unwind): the cycle did not close.  Abort,
                # then treat this entry as an ordinary event.
                self._abort_recording("left-frame")
            elif block is recording.anchor:
                self._finish_recording(interpreter, frame)
                return
            elif recording.site is None and block in self.traces:
                # A cycle through a tree's header is a rotation of a
                # path that tree grows as a branch: never try it again.
                self._abort_recording("reached-tree", self.max_aborts)
            else:
                recording.path.append(block)
                if len(recording.path) > self.max_blocks:
                    self._abort_recording("too-long")
                return
        trace = self.traces.get(block)
        if trace is not None:
            self.stats.entries_from_interpreter += 1
            self._run_trace(interpreter, frame, trace)
        else:
            self._heat(frame, block)

    def _heat(self, frame, block: BasicBlock) -> None:
        count = self._counts.get(block, 0) + 1
        self._counts[block] = count
        if count >= self.hot_threshold and block not in self._blacklist:
            if block is frame.function.blocks[0]:
                # Nothing branches back to an entry block: a recording
                # anchored there could never close.
                self.stats.abort("entry-block")
                self.stats.blacklist("entry-block")
                self._blacklist.add(block)
            else:
                self._recording = _Recording(frame, block, None, [block])

    def _run_trace(self, interpreter, frame, trace: CompiledTrace) -> None:
        """Run ``trace``; while it leaves by an edge into a block with a
        trace of its own, run that one next (linking).  The landing
        block's event is :meth:`on_block`'s, with no recording active;
        an exit edge taken ``hot_threshold`` times records a branch."""
        stats, profile = self.stats, self.profile
        while True:
            stats.trace_entries += 1
            left = trace.fn(frame, interpreter, stats)
            if left is None:
                stats.entry_fallbacks += 1
                return
            profile.credit_trace(trace, *left)
            site = trace.exits[left[1]][4]
            if site is None:    # resume where the exit stopped
                return
            block = frame.block
            profile.count(block)
            linked = self.traces.get(block)
            if linked is None:
                # A hot exit grows a branch while the tree's branches
                # hold fewer than max_blocks blocks.
                segment, edge = site
                heat = segment.heat[edge] = segment.heat.get(edge, 0) + 1
                if (heat >= self.hot_threshold
                        and trace.size - len(trace.path) < self.max_blocks
                        and segment.aborts.get(edge, 0) < self.max_aborts):
                    self._recording = _Recording(frame, trace.header, site,
                                                 [block])
                else:
                    self._heat(frame, block)
                return
            stats.linked_entries += 1
            trace = linked

    # -- recording lifecycle ----------------------------------------------

    def _abort_recording(self, reason: str, weight: int = 1) -> None:
        recording = self._recording
        self._recording = None
        self.stats.abort(reason)
        if recording.site is None:
            key, heat, aborts = recording.anchor, self._counts, self._aborts
        else:
            segment, key = recording.site
            heat, aborts = segment.heat, segment.aborts
        aborts[key] = aborts.get(key, 0) + weight
        heat[key] = 0  # must get hot again before the next try
        if aborts[key] >= self.max_aborts:
            self.stats.blacklist(reason)
            if recording.site is None:
                self._blacklist.add(key)

    def _finish_recording(self, interpreter, frame) -> None:
        recording, self._recording = self._recording, None
        header, site = recording.anchor, recording.site
        tree = _Segment(recording.path)
        if site is not None:
            segment, edge = site
            segment.branches[edge] = tree
            tree = self.traces[header].tree
            self.stats.tree_recompiles += 1
        try:
            trace = compile_trace(interpreter, frame.function, tree)
        except Untraceable as error:
            # Deterministic: the anchor is never tried again.
            self.stats.abort(str(error))
            self.stats.blacklist(str(error))
            if site is None:
                self._blacklist.add(header)
            else:
                del segment.branches[edge]
                segment.aborts[edge] = self.max_aborts
        else:
            self.traces[header] = trace
            if site is None:
                self.stats.traces_compiled += 1
            else:
                self.stats.branches_grown += 1
                # Fold the replaced tree's tallies in, so it can be freed.
                self.profile.counts
            # Re-arm the hotness counters of every block the tree enters
            # or exits to: such a block must earn a full threshold of
            # *interpreted* entries, which the tree now absorbs, before
            # anchoring a trace of its own; a hot exit grows a branch.
            for blocks in (*trace.leaf_paths, [row[0] for row in trace.exits]):
                for block in blocks:
                    self._counts[block] = 0
        # The frame sits at the header just re-entered: enter its tree.
        trace = self.traces.get(header)
        if trace is not None:
            self.stats.entries_from_interpreter += 1
            self._run_trace(interpreter, frame, trace)


# ===========================================================================
# The trace compiler
# ===========================================================================


def compile_trace(interpreter, function: Function, tree) -> CompiledTrace:
    """Compile one recorded cycle (a list of blocks from the header), or
    a tree of them, into a guarded Python closure."""
    if not isinstance(tree, _Segment):
        tree = _Segment(list(tree))
    return _TraceCompiler(interpreter, function, tree).compile()


def _literal(value) -> str:
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class _TraceCompiler:
    def __init__(self, interpreter, function: Function, tree: _Segment):
        self.interpreter = interpreter
        self.function = function
        self.tree = tree
        self.header = header = tree.blocks[0]
        self.layout = function.parent.data_layout
        #: id(value) -> local variable name.
        self.names: dict[int, str] = {}
        #: ids read where the path being emitted has not assigned them:
        #: loaded from the frame in the prologue (a miss or a type
        #: mismatch falls back), so bound at every exit.
        self.live_ins: dict[int, Value] = {}
        #: ids the path being emitted has assigned since the header.
        self.assigned: set[int] = set()
        #: ids the tree assigns anywhere, first assigned first.
        self.defined: dict[int, None] = {}
        #: exec-globals for the closure: what a row of constfold's table
        #: may call, then blocks, types, IR constants...
        self.env: dict[str, object] = dict(constfold.NAMESPACE)
        self._env_ids: dict[int, str] = {}
        #: symbolic constants resolved per entry (globals, functions,
        #: constant expressions: their addresses are per-interpreter).
        self.sym_consts: dict[int, str] = {}
        #: direct external callees: external name -> var name.
        self.externals: dict[str, str] = {}
        self.body: list[str] = []
        self.indent = " " * 8
        #: Steps charged and blocks entered since the header, on the
        #: path being emitted.
        self.steps = 0
        self.entered: list[BasicBlock] = []
        #: The side exits' rows (see :meth:`_exit`), by exit number; exit
        #: 0 is the budget check at the top of the loop; and the ids
        #: assigned on each exit's path.
        self.exits: list[tuple] = [(header, header.first_non_phi_index(),
                                    0, "budget_exits", None, ())]
        self.exit_assigned: list[frozenset] = [frozenset()]
        #: Per leaf (an edge back to the header): the blocks and the
        #: ids one iteration through it enters and assigns.
        self.leaf_paths: list[list[BasicBlock]] = []
        self.leaf_assigned: list[frozenset] = []
        self.longest = self.size = 0
        self.uses_memory: set[str] = set()
        #: The inline load/store fast path binds ``_mem.allocations``.
        self.uses_allocs = False
        self.uses_indirect = False
        self.uses_alloca = False
        self.uses_call = False

    # -- naming -----------------------------------------------------------

    def _env_ref(self, prefix: str, obj) -> str:
        name = self._env_ids.get(id(obj))
        if name is None:
            name = f"_{prefix}{len(self._env_ids)}"
            self._env_ids[id(obj)] = name
            self.env[name] = obj
        return name

    def _name(self, vid: int) -> str:
        name = self.names.get(vid)
        if name is None:
            name = self.names[vid] = f"v{len(self.names)}"
        return name

    def ref(self, value: Value) -> str:
        """Render a read of ``value`` on the path being emitted."""
        if isinstance(value, (Instruction, Argument)):
            vid = id(value)
            if vid not in self.assigned:
                self.live_ins[vid] = value
            return self._name(vid)
        return self.const_ref(value)

    def define(self, value: Value) -> str:
        vid = id(value)
        self.assigned.add(vid)
        self.defined[vid] = None
        return self._name(vid)

    def const_ref(self, constant) -> str:
        # Globals, functions and constant expressions over them have
        # per-interpreter addresses and a trace outlives its
        # interpreter: they are symbols resolved at each entry.
        # Everything else is a value the interpreter states once.
        if isinstance(constant, (Function, GlobalVariable, ConstantExpr)):
            return self._sym_const(constant)
        value = self.interpreter.constant_value(constant)
        if isinstance(value, float) and not math.isfinite(value):
            return self._sym_const(constant)  # nan/inf have no literal
        return _literal(value)

    def _sym_const(self, constant) -> str:
        entry = self.sym_consts.get(id(constant))
        if entry is None:
            name = f"g{len(self.sym_consts)}"
            self.sym_consts[id(constant)] = (name, constant)
            self.env[f"_K{name}"] = constant
            return name
        return entry[0]

    # -- compilation ------------------------------------------------------

    def compile(self) -> CompiledTrace:
        self._emit_path(self.tree, None)
        source = self._render()
        env = dict(self.env)
        env["_EXITS"] = exits = tuple(self.exits)
        code = compile(source, f"<trace {self.function.name}:"
                               f"{self.header.name}>", "exec")
        exec(code, env)
        return CompiledTrace(env["__lc_trace"], self.function.name,
                             self.tree, self.size, exits, self.leaf_paths,
                             source)

    def _emit_path(self, segment: _Segment, previous) -> None:
        """Emit ``segment`` from the edge ``previous`` -> its first block
        (the trunk starts at the header, already entered) to its edge
        back to the header, nesting under each exit edge the branch
        grown from it."""
        blocks = segment.blocks
        self.size += len(blocks)
        for index, block in enumerate(blocks):
            if previous is not None:
                self._emit_phi_moves(previous, block)
                self.entered.append(block)
            self._emit_block_body(block)
            successor = (blocks[index + 1] if index + 1 < len(blocks)
                         else self.header)
            self._emit_terminator(segment, index, block, successor)
            previous = block
        # Close the cycle: the back edge re-enters the header's phis.
        self._emit_phi_moves(previous, self.header)
        leaf = len(self.leaf_paths)
        self.leaf_paths.append(self.entered + [self.header])
        self.leaf_assigned.append(frozenset(self.assigned))
        self.longest = max(self.longest, self.steps)
        self._emit(f"steps += {self.steps}")
        self._emit(f"n{leaf} += 1")
        if segment is not self.tree:
            self._emit("continue")

    def _emit_edge(self, segment: _Segment, index: int, block: BasicBlock,
                   target: BasicBlock) -> None:
        """The body of an ``if`` that leaves ``segment`` by the edge
        ``block`` -> ``target``: straight back to the header, into the
        branch grown from this edge, or out by a side exit that lands
        on ``target`` past its phis."""
        saved = set(self.assigned), list(self.entered), self.steps, self.indent
        self.indent += "    "
        edge = (index, target)
        if target is self.header:
            self._emit_path(_Segment([]), block)
        elif edge in segment.branches:
            self._emit_path(segment.branches[edge], block)
        else:
            self._emit_phi_moves(block, target)
            self._exit(target, target.first_non_phi_index(), (segment, edge))
        self.assigned, self.entered, self.steps, self.indent = saved

    def _render(self) -> str:
        lines = ["def __lc_trace(frame, interp, stats):",
                 "    R = frame.registers"]
        live = [(vid, self.names[vid]) for vid in self.live_ins]
        # Global addresses are one dict lookup each; resolve them under
        # the same KeyError fallback as the live-in registers.  Other
        # symbolic constants (functions, constant expressions) go
        # through the interpreter's full resolver.
        global_loads = []
        slow_consts = []
        for name, constant in self.sym_consts.values():
            if isinstance(constant, GlobalVariable):
                global_loads.append(f"{name} = _GA[{id(constant)}]")
            else:
                slow_consts.append(name)
        if global_loads:
            lines.append("    _GA = interp.global_addresses")
        if live or global_loads:
            lines.append("    try:")
            for vid, name in live:
                lines.append(f"        {name} = R[{vid}]")
            for load in global_loads:
                lines.append(f"        {load}")
            lines.append("    except KeyError:")
            lines.append("        return None")
        guards = []
        for vid, value in self.live_ins.items():
            check = self._type_check(value.type, self.names[vid])
            if check is not None:
                guards.append(check)
        if guards:
            lines.append(f"    if {' or '.join(guards)}:")
            lines.append("        return None")
        for external_name, var in self.externals.items():
            lines.append(f"    {var} = interp.externals.get("
                         f"{external_name!r})")
            lines.append(f"    if {var} is None:")
            lines.append("        return None")
        for name in slow_consts:
            lines.append(f"    {name} = interp.constant_value(_K{name})")
        if self.uses_memory or self.uses_indirect:
            lines.append("    _mem = interp.memory")
        for method in sorted(self.uses_memory):
            lines.append(f"    _{method} = _mem.{method}")
        if self.uses_allocs:
            lines.append("    _allocs = _mem.allocations")
        if self.uses_indirect:
            lines.append("    _fnat = _mem.function_at")
            lines.append("    _X = interp.externals")
            lines.append("    _LL = interp.lazy_loader")
        if self.uses_alloca:
            lines.append("    _aap = frame.allocas.append")
        if self.uses_call:
            lines.append("    _VA = frame.va_area")
        lines.append("    steps = interp.steps")
        lines.append("    _s0 = steps")
        lines.append("    _limit = interp.step_limit")
        lines.append("    " + " = ".join(self._leaves()) + " = 0")
        lines.append("    while True:")
        lines.append(f"        if steps + {self.longest} > _limit:")
        lines.append("            _x = 0")
        lines.append("            break")
        lines.extend(self.body)
        lines.extend(self._tail_lines())
        return "\n".join(lines) + "\n"

    def _leaves(self) -> list[str]:
        return [f"n{leaf}" for leaf in range(len(self.leaf_paths))]

    def _type_check(self, ty, name: str) -> Optional[str]:
        if ty.is_bool:
            return f"type({name}) is not bool"
        if ty.is_integer or ty.is_pointer:
            return f"type({name}) is not int"
        if ty.is_floating:
            return f"type({name}) is not float"
        return None

    def _tail_lines(self) -> list[str]:
        """The one exit every guard breaks to: sync steps, point the
        frame at the instruction to resume at, write back registers,
        hand control back with ``(full iterations per leaf, exit
        number)``."""
        return [
            "    _b, _i, _c, _k, _, _ = _EXITS[_x]",
            "    steps += _c",
            "    interp.steps = steps",
            "    frame.block = _b",
            "    frame.index = _i",
            "    setattr(stats, _k, getattr(stats, _k) + 1)",
            f"    iters = ({', '.join(self._leaves())},)",
            "    stats.trace_iterations += sum(iters)",
            "    stats.steps_saved += steps - _s0",
            *self._writeback_lines(),
            "    return iters, _x",
        ]

    def _writeback_lines(self) -> list[str]:
        """Restore every register the tree may have assigned: a live-in
        always; any other value once it was assigned, on the path of
        the exit taken (``_x``) or in a full iteration through a leaf
        whose path assigns it (docs/EXECUTION.md).  Names sharing a
        condition share one test."""
        groups: dict[Optional[str], list[str]] = {}
        for vid in self.defined:
            condition = None
            if vid not in self.live_ins:
                at = [x for x, assigned in enumerate(self.exit_assigned)
                      if vid in assigned]
                tests = [f"n{leaf}" for leaf, assigned
                         in enumerate(self.leaf_assigned) if vid in assigned]
                if at:   # a set display of constants compiles to one
                    tests.insert(0, f"_x in {set(at)}")
                condition = " or ".join(tests)
            groups.setdefault(condition, []).append(
                f"R[{vid}] = {self.names[vid]}")
        lines = []
        for condition, writes in groups.items():
            if condition is None:
                lines.extend("    " + write for write in writes)
            else:
                lines.append(f"    if {condition}:")
                lines.extend("        " + write for write in writes)
        return lines

    def _exit(self, block: BasicBlock, index: int, site=None) -> None:
        """Leave the loop by a new side exit that resumes the
        interpreter at ``block[index]``.  Its row: ``(block, index,
        steps, counter, site, entered)``, where ``site`` is the
        ``(segment, edge)`` a branch would grow from (None unless the
        exit took an edge) and ``entered`` the blocks entered since the
        header."""
        self.exits.append((block, index, self.steps, "guard_exits", site,
                           tuple(self.entered)))
        self.exit_assigned.append(frozenset(self.assigned))
        self._emit(f"_x = {len(self.exits) - 1}")
        self._emit("break")

    def _guard(self, condition: str, block: BasicBlock, index: int) -> None:
        """Emit ``if condition:`` leaving by a side exit that resumes the
        interpreter at ``block[index]``."""
        self._emit(f"if {condition}:")
        self.indent += "    "
        self._exit(block, index)
        self.indent = self.indent[:-4]

    # -- per-block emission ------------------------------------------------

    def _emit_phi_moves(self, predecessor: BasicBlock,
                        block: BasicBlock) -> None:
        phis = []
        for inst in block.instructions:
            if not isinstance(inst, PhiNode):
                break
            incoming = inst.incoming_for_block(predecessor)
            if incoming is None:
                raise Untraceable(f"phi {inst.name!r} missing edge")
            phis.append((inst, incoming))
        if not phis:
            return
        # Phis read their incoming values simultaneously; a tuple
        # assignment packs all the reads before any write lands.
        sources = [self.ref(incoming) for _, incoming in phis]
        targets = [self.define(phi) for phi, _ in phis]
        self._emit(f"{', '.join(targets)} = {', '.join(sources)}")

    def _emit_block_body(self, block: BasicBlock) -> None:
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, PhiNode):
                continue
            if inst is block.instructions[-1]:
                break  # terminator handled by _emit_terminator
            self._emit_instruction(block, index, inst)

    def _emit_terminator(self, segment: _Segment, index: int,
                         block: BasicBlock, successor: BasicBlock) -> None:
        term = block.instructions[-1]
        if isinstance(term, SwitchInst):
            self._emit_switch_guard(term, block, len(block.instructions) - 1,
                                    successor)
        elif not isinstance(term, BranchInst):
            # return / invoke / unwind end the cycle some other way.
            raise Untraceable(f"terminator {type(term).__name__}")
        elif successor not in term.operands[-2 if term.is_conditional
                                            else -1:]:
            raise Untraceable("recorded successor is not a branch target")
        self.steps += 1  # the taken terminator
        if isinstance(term, BranchInst) and term.is_conditional:
            true_dest, false_dest = term.operands[1], term.operands[2]
            if true_dest is not false_dest:
                condition = self.ref(term.condition)
                taken = successor is true_dest
                self._emit(f"if {'not ' if taken else ''}{condition}:")
                self._emit_edge(segment, index, block,
                                false_dest if taken else true_dest)

    def _emit_switch_guard(self, term: SwitchInst, block: BasicBlock,
                           index: int, successor: BasicBlock) -> None:
        selector = self.ref(term.value)
        first_match: dict[object, BasicBlock] = {}
        for case_value, case_dest in term.cases:
            if not isinstance(case_value, (ConstantInt, ConstantBool)):
                raise Untraceable("non-literal switch case")
            first_match.setdefault(case_value.value, case_dest)
        to_successor = frozenset(
            v for v, d in first_match.items() if d is successor)
        elsewhere = frozenset(
            v for v, d in first_match.items() if d is not successor)
        if successor is term.default_dest:
            if elsewhere:
                guard_set = self._env_ref("S", elsewhere)
                self._guard(f"{selector} in {guard_set}", block, index)
        elif to_successor:
            guard_set = self._env_ref("S", to_successor)
            self._guard(f"{selector} not in {guard_set}", block, index)
        else:
            raise Untraceable("recorded successor is not a switch target")

    # -- per-instruction emission -----------------------------------------

    def _emit(self, line: str) -> None:
        self.body.append(self.indent + line)

    def _emit_instruction(self, block: BasicBlock, index: int,
                          inst: Instruction) -> None:
        if isinstance(inst, BinaryOperator):
            self._emit_table(inst, constfold.binary_expression,
                             inst.opcode, inst.operands[0].type)
        elif isinstance(inst, ShiftInst):
            self._emit_table(inst, constfold.shift_expression,
                             inst.opcode, inst.type)
        elif isinstance(inst, CastInst):
            self._emit_table(inst, constfold.cast_expression,
                             inst.value.type, inst.type)
        elif isinstance(inst, LoadInst):
            self._emit_load(inst)
        elif isinstance(inst, StoreInst):
            self._emit_store(inst)
        elif isinstance(inst, GetElementPtrInst):
            self._emit_gep(block, index, inst)
        elif isinstance(inst, CallInst):
            self._emit_call(block, index, inst)
        elif isinstance(inst, (MallocInst, AllocaInst)):
            self.uses_memory.add("allocate")
            size = self.layout.size_of(inst.allocated_type)
            if inst.array_size is not None:
                count = self.ref(inst.array_size)
                expression = f"{size} * {count}"
            else:
                expression = str(size)
            kind = "heap" if isinstance(inst, MallocInst) else "stack"
            name = self.define(inst)
            self._emit(f"{name} = _allocate({expression}, {kind!r})")
            if kind == "stack":
                self.uses_alloca = True
                self._emit(f"_aap({name})")
        elif isinstance(inst, FreeInst):
            self.uses_memory.add("free")
            self._emit(f"_free({self.ref(inst.pointer)})")
        else:
            # invoke, unwind, vaarg, phi-out-of-position, return...
            raise Untraceable(f"instruction {type(inst).__name__}")
        self.steps += 1

    def _mem_fmt(self, ty, verb: str) -> Optional[str]:
        """struct format char for an inline memory access; None for a
        bool, which memory keeps as a byte it tests."""
        if ty.is_bool:
            return None
        return self.interpreter.memory.scalar_format(ty, verb)

    def _struct_helper(self, kind: str, fmt: str) -> str:
        name = f"_{kind}_{fmt}"
        if name not in self.env:
            packed = struct.Struct("<" + fmt)
            self.env[name] = (packed.unpack_from if kind == "up"
                              else packed.pack_into)
        if kind == "pk":
            self.env["_SE"] = struct.error
        self.uses_allocs = True
        return name

    def _emit_load(self, inst: LoadInst) -> None:
        self.uses_memory.add("load")
        pointer = self.ref(inst.pointer)
        ty = self._env_ref("T", inst.type)
        dest = self.define(inst)
        fmt = self._mem_fmt(inst.type, "load")
        slow = f"{dest} = _load({pointer}, {ty})"
        if fmt is None:
            self._emit(slow)
        else:
            unpack = self._struct_helper("up", fmt)
            self._emit_access(pointer, fmt, f"{dest} = {unpack}(_d, _o)[0]",
                              slow)

    def _emit_store(self, inst: StoreInst) -> None:
        self.uses_memory.add("store")
        value = self.ref(inst.value)
        pointer = self.ref(inst.pointer)
        value_type = inst.value.type
        ty = self._env_ref("T", value_type)
        fmt = self._mem_fmt(value_type, "store")
        if fmt is None:
            self._emit(f"_store({pointer}, {ty}, {value})")
            return
        if value_type.is_pointer:
            # Pointer arithmetic can carry past 2**64 (Memory.store
            # masks); mask here so pack_into never sees it.
            value = f"{value} & {(1 << (struct.calcsize('<' + fmt) * 8)) - 1}"
        pack = self._struct_helper("pk", fmt)
        self._emit_access(pointer, fmt, f"{pack}(_d, _o, {value})",
                          f"_store({pointer}, {ty}, {value})", store=True)

    def _emit_access(self, pointer: str, fmt: str, fast: str, slow: str,
                     store: bool = False) -> None:
        # Fast path: straight into the allocation's bytearray.  Anything
        # irregular — null, unmapped, a function address, an
        # out-of-bounds offset, a frozen store target, a value that does
        # not pack — takes ``slow``, Memory's path and its exact fault.
        # A "code" allocation holds one byte, so the bounds check
        # rejects it for multi-byte widths; only single-byte accesses
        # test the kind explicitly.
        size = struct.calcsize("<" + fmt)
        test = " _al.kind != 'code' and" if size == 1 else ""
        test += " not _al.frozen and" if store else ""
        self._emit("try:")
        self._emit(f"    _al = _allocs[{pointer} >> {OFFSET_BITS}]")
        self._emit(f"    _o = {pointer} & {OFFSET_MASK}")
        self._emit(f"    if{test} _o + {size} <= len(_d := _al.data):")
        self._emit(f"        {fast}")
        self._emit("    else:")
        self._emit(f"        {slow}")
        self._emit(f"except {'(KeyError, _SE)' if store else 'KeyError'}:")
        self._emit(f"    {slow}")

    def _emit_table(self, inst: Instruction, expression, *key) -> None:
        """A binary operator, shift or cast is its row of constfold's
        table, inlined over the operands."""
        try:
            text = expression(*key)
        except (ValueError, TypeError) as error:
            raise Untraceable(str(error)) from None
        operands = [self.ref(operand) for operand in inst.operands]
        self._emit(f"{self.define(inst)} = "
                   + text.format(**dict(zip("ab", operands))))

    def _emit_gep(self, block: BasicBlock, index: int,
                  inst: GetElementPtrInst) -> None:
        base = self.ref(inst.pointer)
        # The interpreter traps on a null base before computing the
        # offset; keep that by side-exiting to re-execute the gep.
        self._guard(f"not {base}", block, index)
        offset, scaled = self.interpreter.gep_layout(
            inst.pointer.type, inst.indices)
        expression = base
        if offset:
            expression += f" + {_literal(offset)}"
        for operand, scale in scaled:
            expression += f" + {self.ref(operand)}"
            if scale != 1:
                expression += f" * {scale}"
        self._emit(f"{self.define(inst)} = {expression}")

    def _emit_call(self, block: BasicBlock, index: int,
                   inst: CallInst) -> None:
        callee = inst.operands[0]
        arguments = [self.ref(argument) for argument in inst.operands[1:]]
        argument_list = ", ".join(arguments)
        self.uses_call = True
        # The call instruction itself is counted before the external
        # body runs, exactly like the interpreter's step accounting.
        cum = self.steps + 1
        if isinstance(callee, Function):
            lazy = self.interpreter.lazy_loader
            if callee.is_declaration and lazy is not None:
                lazy(callee)
            if not callee.is_declaration:
                raise Untraceable("call into compiled IR")
            target = self.externals.setdefault(
                callee.name, f"_x{len(self.externals)}")
            self._emit("interp.current_va_area = _VA")
            self._emit(f"interp.steps = steps + {cum}")
        else:
            # Indirect call: guard that the pointer still resolves to a
            # runtime-library function; anything else side-exits to the
            # interpreter (which knows how to push a frame or trap).
            self.uses_indirect = True
            pointer = self.ref(callee)
            self._emit(f"_cf = _fnat({pointer})")
            self._emit("if _LL is not None and _cf.is_declaration:")
            self._emit("    _LL(_cf)")
            self._guard("not _cf.is_declaration", block, index)
            self._emit("_ci = _X.get(_cf.name)")
            self._guard("_ci is None", block, index)
            self._emit("interp.current_va_area = _VA")
            self._emit(f"interp.steps = steps + {cum}")
            target = "_ci"
        if inst.type.is_void:
            self._emit(f"{target}(interp, [{argument_list}])")
        else:
            self._emit(f"{self.define(inst)} = {target}(interp, "
                       f"[{argument_list}])")
