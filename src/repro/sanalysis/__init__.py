"""Static analysis: the `lc-lint` checker suite over the dataflow engine.

The paper's claim is that a typed, SSA-based IR supports "lifelong
program analysis", not just optimization.  This package is the analysis
half of that claim: the shared dataflow engine
(:mod:`repro.analysis.dataflow`, re-exported here) driving a catalogue
of correctness checkers (:mod:`.checkers`) that emit structured,
source-located diagnostics (:mod:`.diagnostics`).

Entry points:

* :func:`run_checkers` — run some or all checkers over a module and get
  the diagnostics back.
* :class:`StaticCheckSuite` — the same suite packaged as a pass-manager
  pass (registered as ``lint`` in ``lc-opt``), so analysis can be
  scheduled inside any pipeline; it never mutates the IR.
* ``lc-lint`` (in :mod:`repro.tools`) — the command-line driver.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..analysis.dataflow import (
    BACKWARD, DenseAnalysis, DenseResult, FORWARD, SparseAnalysis,
    SparseResult, solve_dense, solve_sparse,
)
from ..core.module import Module
from .checkers import ALL_CHECKERS, CHECKERS, CallSignatureChecker
from .diagnostics import Diagnostic, Reporter, Severity, dedupe, stable_order


def run_checkers(module: Module, checks: Optional[Iterable[str]] = None,
                 reporter: Optional[Reporter] = None) -> list[Diagnostic]:
    """Run the named checkers (default: all) over ``module``.

    Returns the diagnostics sorted by function and source line.  Raises
    ``ValueError`` for an unknown checker name.
    """
    if reporter is None:
        reporter = Reporter()
    selected = []
    for name in checks if checks is not None else CHECKERS:
        factory = CHECKERS.get(name)
        if factory is None:
            known = ", ".join(sorted(CHECKERS))
            raise ValueError(f"unknown checker {name!r} (known: {known})")
        selected.append(factory)
    ssa_view: Optional[Module] = None
    for factory in selected:
        target = module
        if getattr(factory, "wants_ssa", False):
            if ssa_view is None:
                ssa_view = _promoted_view(module)
            target = ssa_view
        factory().check_module(target, reporter)
    return reporter.sorted()


def _promoted_view(module: Module) -> Module:
    """A stack-promoted (mem2reg) clone for checkers that need SSA
    def-use chains; the original module is never mutated."""
    from ..linker import link_modules
    from ..transforms import PassManager, PromoteMem2Reg

    clone = link_modules([module], module.name)
    PassManager().add(PromoteMem2Reg()).run(clone)
    return clone


class WholeProgramResult:
    """Everything the whole-program lint sweep produced."""

    def __init__(self, diagnostics, program, tables, computed_scopes):
        #: Deduplicated diagnostics in (file, line, checker) order.
        self.diagnostics = diagnostics
        #: The composed :class:`~repro.sanalysis.interproc.ProgramSummaries`.
        self.program = program
        #: Per-unit summary tables, parallel to the input units (cached
        #: entries are passed through, fresh ones are newly computed).
        self.tables = tables
        #: Indices of units whose summaries were computed this run.
        self.computed_scopes = computed_scopes

    def statistics(self) -> dict:
        stats = dict(self.program.statistics())
        stats["ipa-summaries-computed"] = len(self.computed_scopes)
        stats["ipa-summaries-cached"] = (
            len(self.tables) - len(self.computed_scopes))
        for diag in self.diagnostics:
            stats[diag.checker] = stats.get(diag.checker, 0) + 1
        stats["errors"] = sum(1 for d in self.diagnostics if d.is_error)
        return stats


def run_whole_program(units, checks: Optional[Iterable[str]] = None,
                      reporter: Optional[Reporter] = None,
                      tables=None) -> WholeProgramResult:
    """Link-time lint: summarize, compose, and check across all units.

    ``units`` is a sequence of ``(filename, module)`` translation units.
    ``tables`` optionally supplies a parallel list of cached
    :class:`~repro.sanalysis.interproc.ModuleAnalysisSummaries` (None
    entries are computed fresh) — the driver's incremental path.
    Checking always sweeps every unit; only summarization is skipped on
    a cache hit, which is the paper's compile-time/link-time division.
    """
    from .interproc import ModuleAnalysisSummaries, ProgramSummaries
    from .ipa_checkers import ALL_IPA_CHECKERS, IPA_CHECKERS

    if reporter is None:
        reporter = Reporter()
    selected = []
    for name in checks if checks is not None else IPA_CHECKERS:
        factory = IPA_CHECKERS.get(name)
        if factory is None:
            known = ", ".join(sorted(IPA_CHECKERS))
            raise ValueError(f"unknown checker {name!r} (known: {known})")
        selected.append(factory)

    units = list(units)
    views = [(filename, _promoted_view(module))
             for filename, module in units]
    result_tables = []
    computed_scopes = []
    for scope, (filename, view) in enumerate(views):
        cached = tables[scope] if tables is not None else None
        if cached is not None:
            result_tables.append(cached)
        else:
            result_tables.append(ModuleAnalysisSummaries.compute(view))
            computed_scopes.append(scope)
    program = ProgramSummaries(
        [(filename, table)
         for (filename, _), table in zip(units, result_tables)])

    for scope, (filename, view) in enumerate(views):
        before = len(reporter.diagnostics)
        for factory in selected:
            factory(program, scope).check_module(view, reporter)
        for diag in reporter.diagnostics[before:]:
            if diag.file is not None:
                continue
            # Inside an already-linked module, functions carry the name
            # of the unit that defined them (stamped by the linker);
            # prefer it over the merged module's own name.
            origin = None
            if diag.instruction is not None \
                    and diag.instruction.function is not None:
                origin = diag.instruction.function.source_module
            diag.file = origin if origin and origin != view.name \
                else filename
    diagnostics = stable_order(dedupe(reporter.diagnostics))
    return WholeProgramResult(diagnostics, program, result_tables,
                              computed_scopes)


def check_cross_module(modules: Sequence[Module],
                       reporter: Optional[Reporter] = None) -> list[Diagnostic]:
    """Pre-link prototype consistency check across translation units."""
    if reporter is None:
        reporter = Reporter()
    CallSignatureChecker().check_modules(modules, reporter)
    return reporter.sorted()


class StaticCheckSuite:
    """The checker suite as a schedulable (read-only) module pass.

    ``run_on_module`` appends to :attr:`diagnostics` and always returns
    False — linting never changes the IR — so it can sit anywhere in a
    pipeline, including between transformation passes under
    ``--verify-each``.
    """

    name = "lint"

    def __init__(self, checks: Optional[Sequence[str]] = None):
        self.checks = list(checks) if checks is not None else None
        self.reporter = Reporter()
        #: Findings per checker, and ``errors`` (the ``-stats`` rows).
        self.counters: dict[str, int] = {}

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return self.reporter.sorted()

    @property
    def errors(self) -> list[Diagnostic]:
        return self.reporter.errors

    def run_on_module(self, module: Module) -> bool:
        run_checkers(module, self.checks, self.reporter)
        counters = self.counters
        counters.clear()
        for diag in self.reporter.diagnostics:
            counters[diag.checker] = counters.get(diag.checker, 0) + 1
        counters["errors"] = len(self.reporter.errors)
        return False


__all__ = [
    "ALL_CHECKERS", "BACKWARD", "CHECKERS", "DenseAnalysis", "DenseResult",
    "Diagnostic", "FORWARD", "Reporter", "Severity", "SparseAnalysis",
    "SparseResult", "StaticCheckSuite", "WholeProgramResult",
    "check_cross_module", "dedupe", "run_checkers", "run_whole_program",
    "solve_dense", "solve_sparse", "stable_order",
]
