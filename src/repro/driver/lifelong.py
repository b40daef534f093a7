"""The lifelong compilation session: the full Figure 4 loop.

Ties the stages together the way the paper's system diagram does:

1. front-ends compile translation units to IR;
2. the linker + interprocedural optimizer produce the linked program,
   and bytecode is "saved with the native code";
3. the execution engine's trace tier counts block entries as end-user
   runs go, standing for the code generator's light-weight
   instrumentation (the shipped IR is never rewritten to be profiled),
   and compiles the hot cycles it finds;
4. the counts and the compiled cycles' iterations accumulate across
   runs into one profile;
5. the offline, idle-time reoptimizer consumes the profile, turning
   those same cycles into superblocks, and rewrites the preserved IR,
   ready for the next run.

Because the representation is preserved across all stages, step 5 can
repeat forever — optimize differently as usage patterns drift.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bitcode import read_bytecode, write_bytecode
from ..core.module import Module
from ..execution import Interpreter, TraceManager
from ..profile import OfflineReoptimizer, ProfileData, ReoptimizationReport
from ..transforms import ModulePassAdaptor, PassManager
from .cache import BytecodeCache
from .passmanager import FaultPolicy
from .pipelines import compile_to_bytecode


class RunResult:
    def __init__(self, exit_value, output: str, steps: int):
        self.exit_value = exit_value
        self.output = output
        self.steps = steps


class LifelongSession:
    """Owns one program through compile, run, profile, reoptimize cycles."""

    def __init__(self, sources: Sequence[str], name: str = "program",
                 level: int = 2, cache: Optional[BytecodeCache] = None,
                 fault_policy: Optional[FaultPolicy] = None):
        self.cache = cache
        self._sources = list(sources)
        self._name = name
        self._level = level
        #: Fault-tolerant execution policy for every compile in this
        #: session (initial build and reoptimizations alike): a session
        #: that lives forever must outlive its own components' bugs.
        #: Crash reports accumulate on ``fault_policy.crash_reports``.
        self.fault_policy = fault_policy
        #: The static build — from the cache's whole-program entry when
        #: these sources have been built before.
        self.module = read_bytecode(compile_to_bytecode(
            self._sources, name, level, cache=cache, policy=fault_policy))
        #: The persistent representation shipped with the executable.
        self.bytecode = write_bytecode(self.module)
        self.reopt_reports: list[ReoptimizationReport] = []
        #: The trace-compiling tier, shared by every run of this
        #: session: traces compiled during one end-user run keep paying
        #: off in the next (the software trace cache is as lifelong as
        #: the IR), until :meth:`reoptimize` rewrites the IR underneath
        #: them and invalidates the lot.  Its profile is the session's.
        self.trace_manager = TraceManager()

    @property
    def profile(self) -> ProfileData:
        """Block-entry counts of every end-user run of :attr:`module`."""
        return self.trace_manager.profile

    def statistics(self) -> dict[str, int]:
        """One merged ``-stats`` view of the whole session: fault-policy
        counters and cache counters under one roof.  This is what
        lc-serverd reports per reoptimize request — a daemon hosting
        many sessions aggregates these into its ``serverd.*`` totals.
        """
        stats: dict[str, int] = {}
        if self.fault_policy is not None:
            stats.update(self.fault_policy.statistics())
        if self.cache is not None:
            stats.update(self.cache.statistics())
        stats["reopt.reports"] = len(self.reopt_reports)
        return stats

    def run(self, function: str = "main", args: Sequence = (),
            step_limit: int = 50_000_000) -> RunResult:
        """One end-user run of the shipped code; its block entries
        accumulate in :attr:`profile`."""
        interp = Interpreter(self.module, step_limit=step_limit)
        self.trace_manager.attach(interp)
        exit_value = interp.run(function, args)
        return RunResult(exit_value, "".join(interp.output), interp.steps)

    def lint(self, checks: Optional[Sequence[str]] = None):
        """Whole-program lint over the session's sources (lint-wp).

        Rides the same bytecode cache as compilation: analysis
        summaries persist next to the per-TU bytecode, so repeated
        lints of an unchanged program summarize nothing and only rerun
        the composition + checking sweep.  Returns a
        :class:`repro.sanalysis.WholeProgramResult`.
        """
        from .pipelines import lint_whole_program

        return lint_whole_program(self._sources, name=self._name,
                                  level=self._level, checks=checks,
                                  cache=self.cache)

    def reoptimize(self, **kwargs) -> ReoptimizationReport:
        """The idle-time pass: consume the accumulated profile.

        The rewritten IR lives in this session (:attr:`module`,
        :attr:`bytecode`) only.  Cache entries, per-TU and whole-program
        alike, are functions of the sources and stay what they were: a
        later compile of the same sources gets the static build, not
        one shaped by this session's profile.

        The reoptimizer runs as one module pass through the pass
        manager every other transform uses.  Under a
        :attr:`fault_policy`, a crashing reoptimizer is therefore a
        contained event like any crashing pass: the module rolls back
        to its pre-reoptimization state (the program keeps running
        exactly as before), a crash report is recorded, and an empty
        report is returned — a daemon doing this at idle time must
        never lose the program to its own bug.

        Either way the software trace cache is invalidated: compiled
        traces are closures over specific block objects, and both a
        successful rewrite and a snapshot rollback replace those
        objects under them.  A rollback's fresh blocks take over the
        profile's counts and cycles by position.  A successful rewrite
        drops the cycles it consumed: the next runs record the new
        code's.
        """
        self.trace_manager.invalidate_all()
        saved = self.profile.to_json()
        reports = []

        def reoptimizer(module: Module) -> bool:
            reports.append(OfflineReoptimizer(**kwargs).run(module,
                                                            self.profile))
            return True

        manager = PassManager(policy=self.fault_policy)
        manager.add(ModulePassAdaptor(reoptimizer))
        if manager.run(self.module):
            report = reports[0]
            self.profile.paths.clear()
            self.bytecode = write_bytecode(self.module)
        else:
            # Contained — or skipped, poisoned by an earlier crash.
            self.trace_manager.profile = ProfileData.from_json(
                saved, self.module)
            report = ReoptimizationReport()
        self.reopt_reports.append(report)
        return report
