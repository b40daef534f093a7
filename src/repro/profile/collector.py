"""Profile collection: block-entry counts taken by the execution engine.

The paper's native code generator inserts light-weight counters so the
preserved IR stays clean (sections 3.4/3.5); here the execution engine
stands for it: a :class:`ProfileData` attached to an interpreter counts
every block entry through the interpreter's one block event, and the
IR is never rewritten to be profiled.  The counts represent *end-user*
runs (section 3.6): gathered while the application runs in the field,
persisted, and consumed later by the offline reoptimizer — possibly
accumulated over several runs with different usage patterns.
"""

from __future__ import annotations

import json

from ..analysis.loops import LoopInfo
from ..analysis.manager import function_analysis
from ..core.basicblock import BasicBlock
from ..core.module import Module


class ProfileData:
    """How often each block was entered.

    Counts are keyed by the block object (a block's function is its
    ``parent``): block names are not unique within a function, and
    nothing renames them to make them so.
    """

    def __init__(self):
        self.counts: dict[BasicBlock, int] = {}
        #: The trace manager found in the block-event slot at attach.
        self._tier = None

    # -- collection --------------------------------------------------------

    def attach(self, interpreter) -> None:
        """Count every block ``interpreter`` enters from now on.

        The profile takes the interpreter's block-event slot.  A trace
        manager already in it (attach the trace tier first) keeps
        receiving every event through :meth:`on_block`, and credits
        this profile with the blocks its compiled traces run, so the
        counts are exactly a plain interpreted run's.
        """
        self._tier = interpreter.block_hook
        if self._tier is not None:
            self._tier.profile = self
        interpreter.block_hook = self

    def on_block(self, interpreter, frame, block: BasicBlock) -> None:
        counts = self.counts
        counts[block] = counts.get(block, 0) + 1
        if self._tier is not None:
            self._tier.on_block(interpreter, frame, block)

    def credit_trace(self, path: list[BasicBlock], iterations: int,
                     last: int) -> None:
        """A compiled trace over ``path`` ran ``iterations`` full cycles
        (each enters ``path[1:]`` and re-enters the header), then left
        in ``path[last]`` having entered ``path[1:last + 1]``."""
        counts = self.counts
        for position, block in enumerate(path):
            entries = iterations + (0 < position <= last)
            if entries:
                counts[block] = counts.get(block, 0) + entries

    # -- accumulation across runs ------------------------------------------

    def merge(self, other: "ProfileData") -> None:
        for block, count in other.counts.items():
            self.counts[block] = self.counts.get(block, 0) + count

    # -- queries -----------------------------------------------------------

    def _functions(self) -> list:
        """Functions with a counted block still in them, first entered
        first."""
        return list(dict.fromkeys(block.parent for block in self.counts
                                  if block.parent is not None))

    def function_entry_counts(self) -> dict[str, int]:
        return {function.name: self.counts.get(function.blocks[0], 0)
                for function in self._functions()}

    def hot_loops(self, threshold: int) -> list[tuple[str, BasicBlock, int]]:
        """(function, loop header, entries) over the threshold, hottest
        first."""
        result = []
        for function in self._functions():
            headers = {loop.header for loop
                       in function_analysis(function, LoopInfo).all_loops()}
            for block in function.blocks:
                count = self.counts.get(block, 0)
                if block in headers and count >= threshold:
                    result.append((function.name, block, count))
        result.sort(key=lambda item: -item[2])
        return result

    # -- persistence (the "profile info" shipped between runs) -------------

    def to_json(self) -> str:
        """Counts by function name, one per position in its blocks."""
        return json.dumps({
            function.name: [self.counts.get(block, 0)
                            for block in function.blocks]
            for function in self._functions()})

    @classmethod
    def from_json(cls, text: str, module: Module) -> "ProfileData":
        """The counts of :meth:`to_json`, keyed by ``module``'s blocks."""
        data = cls()
        for name, counts in json.loads(text).items():
            blocks = module.functions[name].blocks
            for block, count in zip(blocks, counts):
                if count:
                    data.counts[block] = count
        return data
