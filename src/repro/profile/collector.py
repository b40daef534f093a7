"""Profile collection: block-entry counts taken by the execution engine.

The paper's native code generator inserts light-weight counters so the
preserved IR stays clean (sections 3.4/3.5); here the execution engine
stands for it: the trace tier's
:class:`~repro.execution.tracejit.TraceManager`, the interpreter's one
block-event listener, counts every block entry into the
:class:`ProfileData` it owns, and the IR is never rewritten to be
profiled.  The counts represent *end-user*
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
        self._counts: dict[BasicBlock, int] = {}
        #: Trace runs not yet in the counts: trace -> (full iterations
        #: per leaf, runs that left by each exit).
        self._runs: dict = {}

    def count(self, block: BasicBlock) -> None:
        """The interpreter entered ``block``."""
        self._counts[block] = self._counts.get(block, 0) + 1

    def credit_trace(self, trace, iters, exit: int) -> None:
        """A run of compiled ``trace`` made ``iters[leaf]`` full
        iterations through each leaf, each entering
        ``trace.leaf_paths[leaf]`` (the header last), then left by side
        exit ``exit`` having entered the blocks its row ends with.  A
        run is one tally; :attr:`counts` adds the tallies up when read."""
        runs = self._runs.get(trace)
        if runs is None:
            runs = self._runs[trace] = ([0] * len(iters),
                                        [0] * len(trace.exits))
        cycles, left = runs
        for leaf, n in enumerate(iters):
            cycles[leaf] += n
        left[exit] += 1

    @property
    def counts(self) -> dict[BasicBlock, int]:
        """Entries per block, interpreted or traced."""
        counts = self._counts
        for trace, runs in self._runs.items():
            exit_paths = [row[-1] for row in trace.exits]
            for paths, tallies in zip((trace.leaf_paths, exit_paths), runs):
                for blocks, n in zip(paths, tallies):
                    for block in blocks if n else ():
                        counts[block] = counts.get(block, 0) + n
        self._runs.clear()
        return counts

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
        counts = self.counts
        result = []
        for function in self._functions():
            headers = {loop.header for loop
                       in function_analysis(function, LoopInfo).all_loops()}
            for block in function.blocks:
                count = counts.get(block, 0)
                if block in headers and count >= threshold:
                    result.append((function.name, block, count))
        result.sort(key=lambda item: -item[2])
        return result

    # -- persistence (the "profile info" shipped between runs) -------------

    def to_json(self) -> str:
        """Counts by function name, one per position in its blocks."""
        counts = self.counts
        return json.dumps({
            function.name: [counts.get(block, 0) for block in function.blocks]
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
