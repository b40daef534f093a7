"""Natural loop detection: back edges, loop bodies, and the nesting forest.

Used by LICM, the profiling instrumenter (the paper's code generator
inserts light-weight instrumentation to detect frequently executed
*loop regions*), and the trace-formation runtime optimizer.
"""

from __future__ import annotations

from typing import Optional

from ..core.basicblock import BasicBlock
from ..core.module import Function
from .dominators import DominatorTree
from .manager import function_analysis


class Loop:
    """One natural loop: a header plus the blocks of all its back edges."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: list[BasicBlock] = [header]
        self._block_ids: set[int] = {id(header)}
        self.parent: Optional[Loop] = None
        self.children: list[Loop] = []
        #: Source blocks of back edges (latches).
        self.latches: list[BasicBlock] = []

    def contains(self, block: BasicBlock) -> bool:
        return id(block) in self._block_ids

    def add_block(self, block: BasicBlock) -> None:
        if id(block) not in self._block_ids:
            self._block_ids.add(id(block))
            self.blocks.append(block)

    @property
    def depth(self) -> int:
        depth = 1
        current = self.parent
        while current is not None:
            depth += 1
            current = current.parent
        return depth

    def exit_edges(self) -> list[tuple[BasicBlock, BasicBlock]]:
        """Edges leaving the loop: (inside block, outside successor)."""
        result = []
        for block in self.blocks:
            for succ in block.successors():
                if not self.contains(succ):
                    result.append((block, succ))
        return result

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header whose only
        successor is the header, if one exists."""
        outside = [p for p in self.header.unique_predecessors() if not self.contains(p)]
        if len(outside) == 1 and outside[0].successors() == [self.header]:
            return outside[0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Loop header={self.header.name!r} blocks={len(self.blocks)}>"


class LoopInfo:
    """The loop nesting forest of a function."""

    def __init__(self, function: Function):
        self.domtree = function_analysis(function, DominatorTree)
        self.top_level: list[Loop] = []
        self._loop_of: dict[int, Loop] = {}  # innermost loop per block
        self._discover()

    def _discover(self) -> None:
        domtree = self.domtree
        headers: dict[int, Loop] = {}
        # Find back edges: an edge a->h where h dominates a.
        for block in domtree.preorder():
            for succ in block.successors():
                if domtree.dominates_block(succ, block):
                    loop = headers.get(id(succ))
                    if loop is None:
                        loop = Loop(succ)
                        headers[id(succ)] = loop
                    loop.latches.append(block)
        # Fill loop bodies: walk backwards from each latch to the header.
        for loop in headers.values():
            worklist = [l for l in loop.latches if l is not loop.header]
            while worklist:
                block = worklist.pop()
                if loop.contains(block):
                    continue
                loop.add_block(block)
                for pred in block.unique_predecessors():
                    if domtree.is_reachable(pred) and pred is not loop.header:
                        worklist.append(pred)
        # Build the nesting forest (smaller loops nest inside larger).
        loops = sorted(headers.values(), key=lambda l: len(l.blocks))
        for loop in loops:
            for block in loop.blocks:
                if id(block) not in self._loop_of:
                    self._loop_of[id(block)] = loop
        for loop in loops:
            # The innermost loop of the header is this loop itself; the
            # parent is the innermost *other* loop containing the header.
            candidates = [
                other for other in loops
                if other is not loop and other.contains(loop.header)
            ]
            if candidates:
                parent = min(candidates, key=lambda l: len(l.blocks))
                loop.parent = parent
                parent.children.append(loop)
            else:
                self.top_level.append(loop)

    def loop_for(self, block: BasicBlock) -> Optional[Loop]:
        """The innermost loop containing ``block``, if any."""
        return self._loop_of.get(id(block))

    def all_loops(self) -> list[Loop]:
        result = []
        worklist = list(self.top_level)
        while worklist:
            loop = worklist.pop()
            result.append(loop)
            worklist.extend(loop.children)
        return result

    def depth_of(self, block: BasicBlock) -> int:
        loop = self.loop_for(block)
        return loop.depth if loop is not None else 0
