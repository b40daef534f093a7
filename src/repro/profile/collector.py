"""Profile collection: block-entry counts and hot cycles, taken by the
execution engine.

The paper's native code generator inserts light-weight counters so the
preserved IR stays clean (sections 3.4/3.5); here the execution engine
stands for it: the trace tier's
:class:`~repro.execution.tracejit.TraceManager`, the interpreter's one
block-event listener, counts every block entry into the
:class:`ProfileData` it owns, and the IR is never rewritten to be
profiled.  The same tier keeps the cycles it compiled into traces and
how often each ran: they are the hot paths the offline reoptimizer
turns into superblocks, so one rule decides what is hot.  The profile
represents *end-user* runs (section 3.6): gathered while the
application runs in the field, persisted, and consumed later by the
offline reoptimizer — possibly accumulated over several runs with
different usage patterns.
"""

from __future__ import annotations

import json

from ..core.basicblock import BasicBlock
from ..core.module import Module


class ProfileData:
    """How often each block was entered, and how many full iterations
    each cycle the trace tier compiled ran.

    Counts are keyed by the block object (a block's function is its
    ``parent``): block names are not unique within a function, and
    nothing renames them to make them so.
    """

    def __init__(self):
        self._counts: dict[BasicBlock, int] = {}
        self._paths: dict[tuple[BasicBlock, ...], int] = {}
        #: Trace runs not yet in the tables: trace -> (full iterations
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

    def _fold(self) -> None:
        counts, paths = self._counts, self._paths
        for trace, runs in self._runs.items():
            exit_paths = [row[-1] for row in trace.exits]
            for leaves, tallies in zip((trace.leaf_paths, exit_paths), runs):
                for blocks, n in zip(leaves, tallies):
                    for block in blocks if n else ():
                        counts[block] = counts.get(block, 0) + n
            for blocks, n in zip(trace.leaf_paths, runs[0]):
                if n:
                    cycle = (blocks[-1], *blocks[:-1])
                    paths[cycle] = paths.get(cycle, 0) + n
        self._runs.clear()

    @property
    def counts(self) -> dict[BasicBlock, int]:
        """Entries per block, interpreted or traced."""
        self._fold()
        return self._counts

    @property
    def paths(self) -> dict[tuple[BasicBlock, ...], int]:
        """Full iterations per compiled cycle, keyed by its blocks from
        the loop header on (the edge back to the header closes it)."""
        self._fold()
        return self._paths

    # -- accumulation across runs ------------------------------------------

    def merge(self, other: "ProfileData") -> None:
        for mine, theirs in ((self.counts, other.counts),
                             (self.paths, other.paths)):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count

    # -- queries -----------------------------------------------------------

    def _functions(self) -> list:
        """Functions with a counted block still in them, first entered
        first."""
        return list(dict.fromkeys(block.parent for block in self.counts
                                  if block.parent is not None))

    def function_entry_counts(self) -> dict[str, int]:
        return {function.name: self.counts.get(function.blocks[0], 0)
                for function in self._functions()}

    # -- persistence (the "profile info" shipped between runs) -------------

    def to_json(self) -> str:
        """Counts by function name, one per position in its blocks, and
        each cycle as (function name, block positions, iterations)."""
        counts, functions = self.counts, self._functions()
        position = {block: index for function in functions
                    for index, block in enumerate(function.blocks)}
        return json.dumps({
            "counts": {function.name: [counts.get(block, 0)
                                       for block in function.blocks]
                       for function in functions},
            "paths": [[cycle[0].parent.name,
                       [position[block] for block in cycle], n]
                      for cycle, n in self.paths.items()
                      if all(block in position for block in cycle)]})

    @classmethod
    def from_json(cls, text: str, module: Module) -> "ProfileData":
        """The tables of :meth:`to_json`, keyed by ``module``'s blocks."""
        data, saved = cls(), json.loads(text)
        for name, counts in saved["counts"].items():
            data.counts.update(
                (block, count) for block, count
                in zip(module.functions[name].blocks, counts) if count)
        for name, positions, n in saved["paths"]:
            blocks = module.functions[name].blocks
            data.paths[tuple(blocks[index] for index in positions)] = n
        return data
