"""Workload `edit-rebuild`: the developer's inner loop.

A generated 13-TU program (gen_program.py) is built cold into a fresh
on-disk `BytecodeCache` during set-up.  One unit of work is then: one
constant of one library TU changes, the program is rebuilt through the
cache, and the rebuilt program runs.  Twelve TUs come out of the cache,
one goes through the front end and the -O2 passes, and the linker and
link-time IPO redo all of their work every time, so incremental link /
LTO caching shows here and must show nothing on `suite-cold-build`.

Edits accumulate and never repeat, so every rebuild sees the same mix
of 12 hits and 1 miss however long the timed region runs; which TU
changes follows seeded permutations of the 12 library TUs.
"""

from __future__ import annotations

import gc
import os
import time
from collections import Counter

import common
import staged
from common import Samples
from gen_program import Program

NAME = "edit"
TRACED_EDITS = 3


class EditRebuild(common.Workload):
    name = "edit-rebuild"
    unit = "one single-TU edit, rebuilt through the cache and run"

    def setup(self) -> None:
        from repro.bitcode import write_bytecode
        from repro.driver import BytecodeCache, compile_and_link

        self.program = Program(self.seed)
        self.edits = iter(self.program.edit_order(1200))
        self.cache = BytecodeCache(os.path.join(self.workdir, "cache"))
        # Lazy initialisation is set-up's cost, not the cold build's.
        compile_and_link(["int main() { return 0; }"], "warmup", level=2)
        start = time.perf_counter()
        module = compile_and_link(self.program.sources(), NAME, level=2,
                                  lto=True, cache=self.cache)
        self.cold_s = time.perf_counter() - start
        self.cold_bytes = len(write_bytecode(module))
        exit_value, output, self.cold_steps, _ = common.execute(module)
        self._expect_model(exit_value, output, "the cold build")

    def _expect_model(self, exit_value, output: str, what: str) -> None:
        want_exit, want_output = self.program.expected()
        self.expect(exit_value == want_exit and output == want_output,
                    f"{what}: exit {exit_value} / output {output!r}, the "
                    f"model says {want_exit} / {want_output!r}")

    def measure(self, seconds: float) -> dict:
        from repro.driver import compile_and_link

        units, rebuilds = Samples(), Samples()
        before = self.cache.statistics()
        outcomes = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self.program.edit(next(self.edits))
            sources = self.program.sources()
            gc.collect()    # off the clock: the same start for every unit
            start = time.perf_counter()
            module = compile_and_link(sources, NAME, level=2, lto=True,
                                      cache=self.cache)
            rebuilt = time.perf_counter()
            exit_value, output, _, _ = common.execute(module)
            units.add(time.perf_counter() - start)
            rebuilds.add(rebuilt - start)
            outcomes.append((exit_value, output, self.program.expected()))
        after = self.cache.statistics()
        self.hits = after["cache-hits"] - before["cache-hits"]
        self.misses = after["cache-misses"] - before["cache-misses"]
        for index, (exit_value, output, want) in enumerate(outcomes):
            self.expect((exit_value, output) == want,
                        f"rebuild {index}: exit {exit_value} / output "
                        f"{output!r}, the model says {want}")
        return {
            "work_s": units, "cold_s": self.cold_s, "warm_s": rebuilds,
            "ops_per_s": len(outcomes) / sum(units.values),
            "peak_rss_mb": common.peak_rss_mb(),
            "bytecode_bytes": self.cold_bytes,
        }

    def check(self) -> dict:
        return {"run_steps": self.cold_steps}

    def trace(self, tracer: common.Tracer, untraced: dict) -> dict:
        """A few more edits, each rebuilt stage by stage (12 hits, one
        miss, one store) and then by the driver itself (13 hits), whose
        output the replay must reproduce."""
        from repro.bitcode import write_bytecode
        from repro.driver import compile_and_link

        counts: Counter = Counter()
        for _ in range(TRACED_EDITS):
            self.program.edit(next(self.edits))
            sources = self.program.sources()
            gc.collect()
            with tracer.span("driver.compile", NAME):
                module = staged.staged_compile(tracer, sources, NAME, counts,
                                               cache=self.cache)
            driver = compile_and_link(sources, NAME, level=2, lto=True,
                                      cache=self.cache)
            self.expect(write_bytecode(module) == write_bytecode(driver),
                        "the staged rebuild does not reproduce the driver's")
            exit_value, output, _, _ = common.execute(module)
            self._expect_model(exit_value, output, "a staged rebuild")
        # Seconds and counts below are totals over the traced rebuilds.
        layers = staged.compile_layers(tracer, counts)
        untraced_s = untraced["warm_s"].median * TRACED_EDITS
        layers["trace.overhead_ratio"] = (
            tracer.seconds("driver.compile") - tracer.seconds("frontend.lex")
        ) / untraced_s
        layers["driver.unattributed_s"] = (
            untraced_s - staged.attributed_seconds(tracer))
        layers["driver.cache_hits"] = self.hits
        layers["driver.cache_misses"] = self.misses
        layers["driver.cache_hit_ratio"] = self.hits / (self.hits
                                                        + self.misses)
        return layers
