"""Workload `run-suite`: six optimized programs under each engine.

Three loop-heavy programs where traces win (bzip2, gzip, mesa) and
three call-heavy ones where recording mostly aborts (parser, perlbmk,
twolf), compiled at -O2 with link-time IPO during set-up.  One unit of
work runs each program under the plain interpreter, then twice under
one fresh `TraceManager(hot_threshold=50)`: cold (record and compile
traces) and warm (steady state).  Execution does all the work and the
compiler none; an optimizer change that saves compile time by emitting
worse code shows up here, as `run_steps`.
"""

from __future__ import annotations

import gc
import random
import time

import common
from common import SumOfMedians

PROGRAMS = ("bzip2", "gzip", "mesa", "parser", "perlbmk", "twolf")
ENGINES = ("interp", "jit_cold", "jit_warm")
#: The lifelong loop (instrument, run, reoptimize) is timed on these.
PROFILED = ("mesa", "parser")
HOT_THRESHOLD = 50


class RunSuite(common.Workload):
    name = "run-suite"
    unit = "the six programs under the plain interpreter"

    def setup(self) -> None:
        from repro.bitcode import write_bytecode
        from repro.driver import compile_and_link

        programs = common.load_programs()
        self.sources = {name: programs[name] for name in PROGRAMS}
        self.expected = common.load_expected()
        self.order = list(PROGRAMS)
        random.Random(self.seed).shuffle(self.order)
        self.modules = {
            name: compile_and_link(self.sources[name], name, level=2,
                                   lto=True)
            for name in self.order}
        self.bytecode_bytes = sum(len(write_bytecode(module))
                                  for module in self.modules.values())

    def _round(self, tracer=None) -> dict:
        """Every program under every engine: engine -> {program: seconds}.
        Outputs are kept and compared once the clock has stopped."""
        from repro.execution import TraceManager

        seconds = {engine: {} for engine in ENGINES}
        self.managers = {}
        for name in self.order:
            manager = self.managers[name] = TraceManager(
                hot_threshold=HOT_THRESHOLD)
            for engine in ENGINES:
                jit = None if engine == "interp" else manager
                gc.collect()    # off the clock: the same start for every run
                if tracer is None:
                    outcome = common.execute(self.modules[name], jit)
                else:
                    with tracer.span(f"execution.{engine}", name):
                        outcome = common.execute(self.modules[name], jit)
                if engine == "jit_cold":
                    self.cold_saved[name] = manager.stats.steps_saved
                seconds[engine][name] = outcome[3]
                self.outcomes.append((name, engine) + outcome[:3])
        return seconds

    def _expect_outcomes(self) -> None:
        for name, engine, exit_value, output, steps in self.outcomes:
            self.steps.setdefault(name, steps)
            self.expect(
                common.matches(self.expected[name], exit_value, output)
                and steps == self.steps[name],
                f"{name} under {engine}: exit {exit_value} / output "
                f"{output!r} / {steps} steps differ from the reference")
        self.outcomes = []

    def measure(self, seconds: float) -> dict:
        self.outcomes: list[tuple] = []
        self.steps: dict[str, int] = {}
        self.cold_saved: dict[str, int] = {}
        samples = {engine: SumOfMedians(self.order) for engine in ENGINES}
        busy = 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for engine, by_program in self._round().items():
                for name, run_s in by_program.items():
                    samples[engine].add(name, run_s)
                    busy += run_s
        runs = len(self.outcomes)
        self._expect_outcomes()
        return {
            "work_s": samples["interp"], "cold_s": samples["jit_cold"],
            "warm_s": samples["jit_warm"],
            "ops_per_s": runs / busy,
            "peak_rss_mb": common.peak_rss_mb(),
            "bytecode_bytes": self.bytecode_bytes,
        }

    def check(self) -> dict:
        return {"run_steps": sum(self.steps.values())}

    def trace(self, tracer: common.Tracer, untraced: dict) -> dict:
        seconds = self._round(tracer)
        self._expect_outcomes()
        layers = {}
        for name in PROGRAMS:
            layers[f"execution.interp_s.{name}"] = seconds["interp"][name]
            layers[f"execution.jit_warm_s.{name}"] = seconds["jit_warm"][name]
        interp_s = sum(seconds["interp"].values())
        cold_s = sum(seconds["jit_cold"].values())
        warm_s = sum(seconds["jit_warm"].values())
        total_steps = sum(self.steps.values())
        stats = [manager.statistics() for manager in self.managers.values()]
        warm_saved = sum(manager.stats.steps_saved - self.cold_saved[name]
                         for name, manager in self.managers.items())
        layers.update({
            "execution.interp_steps_per_s": total_steps / interp_s,
            "execution.jit_compile_s": cold_s - warm_s,
            "execution.jit_traces_compiled": sum(
                s["traces-compiled"] for s in stats),
            "execution.jit_recordings_aborted": sum(
                s["recordings-aborted"] for s in stats),
            "execution.jit_guard_exits": sum(s["guard-exits"] for s in stats),
            "execution.jit_steps_saved_ratio": warm_saved / total_steps,
            "trace.overhead_ratio": (interp_s + cold_s + warm_s) / sum(
                untraced[key].median
                for key in ("work_s", "cold_s", "warm_s")),
        })
        layers.update(self._lifelong_loop(tracer, seconds["interp"]))
        return layers

    def _lifelong_loop(self, tracer, interp_seconds: dict) -> dict:
        """Paper section 2.4 on two programs: an instrumented run, the
        offline reoptimizer, and a run of what it produced."""
        from repro.driver import LifelongSession

        inlined = 0
        for name in PROFILED:
            session = LifelongSession(self.sources[name], name, level=2)
            with tracer.span("profile.instrumented_run", name):
                first = session.run()
            with tracer.span("profile.reoptimize", name):
                inlined += session.reoptimize().inlined_calls
            second = session.run()
            for label, result in (("instrumented", first),
                                  ("reoptimized", second)):
                self.expect(
                    common.matches(self.expected[name], result.exit_value,
                                   result.output),
                    f"{name}, {label}: exit {result.exit_value} / output "
                    f"{result.output!r} differ from expected.json")
        return {
            "profile.instrument_overhead_ratio":
                tracer.seconds("profile.instrumented_run")
                / sum(interp_seconds[name] for name in PROFILED),
            "profile.reoptimize_s": tracer.seconds("profile.reoptimize"),
            "profile.inlined_calls": inlined,
        }
