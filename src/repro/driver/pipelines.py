"""Standard optimization pipelines (the ``-O`` levels).

Mirrors the paper's architecture: per-translation-unit optimization at
compile time (section 3.2: stack promotion and scalar expansion build
SSA, then module-level cleanups), and aggressive interprocedural
optimization at link time (section 3.3).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from ..bitcode import write_bytecode
from ..core.instructions import Instruction
from ..core.module import Function, Module
from ..core.values import ConstantExpr
from ..frontend import compile_source
from ..linker import link_modules
from .cache import BytecodeCache
from .passmanager import FaultPolicy
from ..stats import Stats
from ..transforms import (
    AggressiveDCE, DeadCodeElimination, GVN, InstCombine, LICM, PassManager,
    PromoteMem2Reg, RangeOpt, Reassociate, ScalarReplAggregates, SimplifyCFG,
    TailRecursionElimination,
)
from ..transforms.passmanager import restore_module, snapshot_module
from ..transforms.ipo import (
    DeadArgumentElimination, DeadGlobalElimination, Devirtualize,
    FunctionInlining, HeapToStackPromotion, Internalize,
    IPConstantPropagation, PruneExceptionHandlers,
)


def standard_pipeline(level: int = 2, verify_each: bool = False,
                      policy: Optional[FaultPolicy] = None,
                      stats: Optional[Stats] = None) -> PassManager:
    """The per-module pipeline for an optimization level (0-3).

    With a :class:`FaultPolicy` a failing pass is contained — rolled
    back, poisoned and reported (docs/ROBUSTNESS.md) — instead of
    aborting the build.  ``stats`` may supply a shared record so one
    ``-stats`` / ``-time-passes`` report covers every manager a driver
    invocation creates (each pass execution is recorded exactly once,
    by the manager that ran it).
    """
    manager = PassManager(verify_each, stats, policy)
    if level <= 0:
        return manager
    # SSA construction as the paper prescribes: scalar expansion, then
    # stack promotion, then cleanups over real SSA.
    manager.add(SimplifyCFG())
    manager.add(ScalarReplAggregates())
    manager.add(PromoteMem2Reg())
    combiner = InstCombine()
    if policy is not None:
        policy.stats.gauge(policy.name, "synth.rules-loaded",
                           len(combiner.generated_rules))
    manager.add(combiner)
    manager.add(SimplifyCFG())
    manager.add(DeadCodeElimination())
    if level >= 2:
        manager.add(SimplifyCFG())
        manager.add(Reassociate())
        manager.add(GVN())
        manager.add(LICM())
        manager.add(RangeOpt())
        manager.add(InstCombine())
        manager.add(AggressiveDCE())
        manager.add(SimplifyCFG())
    if level >= 3:
        manager.add(TailRecursionElimination())
        manager.add(PromoteMem2Reg())
        manager.add(GVN())
        manager.add(AggressiveDCE())
        manager.add(SimplifyCFG())
    return manager


#: The ``-stats`` source and counters of :func:`run_ladder` itself.
OPTIMIZE_SOURCE = "optimize"
OPTIMIZE_COUNTERS = ("functions-optimized", "functions-skipped-unchanged")


def stale_functions(module: Module, level: int) -> list[Function]:
    """The defined functions an ``-O<level>`` run over ``module`` visits.

    A function is skipped when its body has not moved (its ``epoch``)
    since a run at ``level`` or above finished over it; every other
    function is visited, and so is every function that calls one of
    those, transitively, since what a pass knows of a callee (purity,
    mod/ref) may have moved with it.
    """
    stale = {f for f in module.defined_functions()
             if f.optimized is None or f.optimized[0] < level
             or f.optimized[1] != f.epoch}
    pending = list(stale)
    while pending:
        for caller in _callers(pending.pop()):
            if caller not in stale:
                stale.add(caller)
                pending.append(caller)
    return [f for f in module.defined_functions() if f in stale]


def mark_optimized(module: Module, names: Iterable[str], level: int) -> None:
    """Record that an ``-O<level>`` run finished over the functions
    named in ``names``, as their bodies stand now."""
    for name in names:
        function = module.functions[name]
        function.optimized = (level, function.epoch)


def _callers(value) -> Iterator[Function]:
    """The functions whose instructions use ``value``, directly or
    through a constant expression (a cast of a function)."""
    for use in value.uses:
        user = use.user
        if isinstance(user, Instruction):
            if user.function is not None:
                yield user.function
        elif isinstance(user, ConstantExpr):
            yield from _callers(user)


def run_ladder(module: Module, level: int = 2, verify_each: bool = False,
               policy: Optional[FaultPolicy] = None,
               stats: Optional[Stats] = None) -> PassManager:
    """Run the standard pipeline in place over the functions that need
    it, degrading on too many failures; returns the manager whose
    attempt stood.

    Only :func:`stale_functions` are optimized; the standing attempt
    records its level and each function's closing epoch on every
    function it finished (not one it rolled back or skipped as
    poisoned), so a second run over an unchanged module runs no pass.
    ``stats`` counts ``functions-optimized`` and
    ``functions-skipped-unchanged``.

    When an attempt poisons more passes than
    ``policy.max_poisoned_passes`` the module is restored to its
    pre-optimization state and the next lower level is tried
    (``-O2 -> -O1 -> -O0``), counting ``fallbacks.taken``.  ``-O0``,
    the empty pipeline, is the floor: the unoptimized module is always
    correct.  Without a policy nothing is ever poisoned — a failure
    propagates — so the ladder is its first attempt.
    """
    names: set[str] = set()
    skipped = 0
    if level > 0:
        names = {f.name for f in stale_functions(module, level)}
        skipped = len(list(module.defined_functions())) - len(names)
    if stats is not None:
        for counter, value in zip(OPTIMIZE_COUNTERS, (len(names), skipped)):
            stats.count(OPTIMIZE_SOURCE, counter, value)
    if names:
        pristine = snapshot_module(module) if policy is not None else None
        for attempt in range(level, 0, -1):
            manager = standard_pipeline(attempt, verify_each, policy, stats)
            manager.run(module, names)
            if policy is None \
                    or manager.poisoned_in_run <= policy.max_poisoned_passes:
                mark_optimized(module, names - manager.incomplete, attempt)
                return manager
            restore_module(module, pristine)
            policy.count("fallbacks.taken")
    return standard_pipeline(0, verify_each, policy, stats)


def optimize_module(module: Module, level: int = 2,
                    verify_each: bool = False,
                    policy: Optional[FaultPolicy] = None,
                    stats: Optional[Stats] = None) -> Module:
    """Run the standard pipeline in place over the functions that moved
    since they were last optimized, and their callers (see
    :func:`run_ladder`); returns the module."""
    run_ladder(module, level, verify_each, policy, stats)
    return module


def lto_pipeline(preserved: Sequence[str] = ("main",),
                 verify_each: bool = False,
                 policy: Optional[FaultPolicy] = None,
                 stats: Optional[Stats] = None) -> PassManager:
    """The interprocedural pass sequence of the link-time optimizer."""
    manager = PassManager(verify_each, stats, policy)
    manager.add(Internalize(preserved))
    manager.add(Devirtualize())
    manager.add(IPConstantPropagation())
    manager.add(FunctionInlining())
    manager.add(DeadArgumentElimination())
    manager.add(DeadGlobalElimination())
    manager.add(PruneExceptionHandlers())
    manager.add(HeapToStackPromotion())
    return manager


def link_time_optimize(module: Module, level: int = 2,
                       preserved: Sequence[str] = ("main",),
                       verify_each: bool = False,
                       policy: Optional[FaultPolicy] = None,
                       stats: Optional[Stats] = None) -> Module:
    """The link-time interprocedural optimizer (paper section 3.3)."""
    manager = lto_pipeline(preserved, verify_each, policy, stats)
    manager.run(module)
    if level > 0:
        # A scalar cleanup round over the post-IPO bodies, then one more
        # IPO round to exploit what the cleanup exposed.  The second
        # cleanup visits only what that round moved (and its callers).
        optimize_module(module, level, verify_each, policy, stats)
        manager.run(module)
        optimize_module(module, min(level, 2), verify_each, policy, stats)
    return module


def lint_whole_program(sources: Sequence[str],
                       filenames: Optional[Sequence[str]] = None,
                       name: str = "program", level: int = 2,
                       checks: Optional[Sequence[str]] = None,
                       cache: Optional[BytecodeCache] = None):
    """The ``lint-wp`` stage: interprocedural lint across all TUs.

    Compiles every translation unit (through the bytecode cache when
    one is given), then runs the summary-based whole-program checkers
    (:func:`repro.sanalysis.run_whole_program`).  Per-function analysis
    summaries are serialized next to the cached bytecode under the same
    content hash, so a warm run recomputes summaries only for changed
    TUs and re-runs just the cheap composition + checking sweep —
    diagnostics are byte-identical either way.

    Returns a :class:`repro.sanalysis.WholeProgramResult`.
    """
    from ..sanalysis import run_whole_program
    from ..sanalysis.interproc import ModuleAnalysisSummaries

    sources = list(sources)
    if filenames is None:
        filenames = [f"{name}.tu{index}" for index in range(len(sources))]
    modules = compile_translation_units(sources, name, level, False, cache)
    tables: list[Optional[ModuleAnalysisSummaries]] = [None] * len(sources)
    keys: list[Optional[str]] = [None] * len(sources)
    if cache is not None:
        for index, source in enumerate(sources):
            keys[index] = cache.key(source, level, tag="ipa-summary")
            text = cache.load_summary(keys[index])
            if text is not None:
                try:
                    tables[index] = ModuleAnalysisSummaries.from_json(text)
                except Exception:
                    # Intact but in another summary format: a miss,
                    # recomputed below and stored over.
                    pass
    result = run_whole_program(list(zip(filenames, modules)), checks,
                               tables=tables)
    if cache is not None:
        for scope in result.computed_scopes:
            cache.store_summary(keys[scope],
                                result.tables[scope].to_json())
    return result


#: Fault-policy counters that stay put through a clean build.  A build
#: that moved any of them was answered correctly but is not *the*
#: answer for its key, and is not stored under it: a transient fault
#: must never become the cached one.
_UNCLEAN = ("passes.rolled_back", "passes.poisoned", "passes.skipped",
            "fallbacks.taken", "link.retries")


def unclean(policy: Optional[FaultPolicy]) -> list:
    """The ``_UNCLEAN`` counters of ``policy`` now: a build was clean iff
    they read the same after it as before it (all zero, for a policy
    made for that one build)."""
    rows = policy.statistics() if policy is not None else {}
    return [rows.get(name, 0) for name in _UNCLEAN]


def _compile_translation_unit(source: str, tu_name: str, level: int,
                              verify_each: bool,
                              cache: Optional[BytecodeCache],
                              policy: Optional[FaultPolicy] = None,
                              stats: Optional[Stats] = None) -> Module:
    """One TU through front-end + per-module optimization, or the cache.

    A hit deserializes the stored bytecode instead of running the
    front-end and the -O pipeline; the module name is restamped because
    it encodes the TU's *position* in this batch, which is not part of
    the content-addressed key.  A miss is stored only if its build was
    clean (see ``_UNCLEAN``).
    """
    if cache is not None:
        key = cache.key(source, level)
        module = cache.load(key)
        if module is not None:
            module.name = tu_name
            return module
    before = unclean(policy)
    module = compile_source(source, tu_name)
    optimize_module(module, level, verify_each, policy, stats)
    if cache is not None and unclean(policy) == before:
        cache.store(key, module)
    return module


def compile_translation_units(sources: Sequence[str], name: str = "program",
                              level: int = 2, verify_each: bool = False,
                              cache: Optional[BytecodeCache] = None,
                              policy: Optional[FaultPolicy] = None,
                              stats: Optional[Stats] = None,
                              ) -> list[Module]:
    """The batch front of the driver: every TU to optimized IR, in
    input order (which is the link order)."""
    return [
        _compile_translation_unit(source, f"{name}.tu{index}", level,
                                  verify_each, cache, policy, stats)
        for index, source in enumerate(sources)
    ]


def _link_with_retry(modules: Sequence[Module], name: str,
                     policy: Optional[FaultPolicy]) -> Module:
    """Link, retrying once under a fault policy.

    A transient link failure (an injected symbol clash, a racing writer
    of some input) is containable by simply linking again from the
    unchanged input modules; a *persistent* conflict fails both
    attempts and propagates — that is a program error, not a toolchain
    fault.
    """
    try:
        return link_modules(modules, name)
    except Exception:
        if policy is None:
            raise
        policy.count("link.retries")
        return link_modules(modules, name)


def compile_and_link(sources: Iterable[str], name: str = "program",
                     level: int = 2, lto: bool = True,
                     verify_each: bool = False,
                     cache: Optional[BytecodeCache] = None,
                     policy: Optional[FaultPolicy] = None,
                     stats: Optional[Stats] = None) -> Module:
    """Front-end + per-module optimization + link (+ link-time IPO).

    ``sources`` are LC translation units.  This is the paper's Figure 4
    static path: front-ends emit IR, the linker combines it, and the
    interprocedural optimizer runs over the whole program.

    ``cache`` makes the front of the pipeline incremental: unchanged
    TUs (by content hash) skip the front-end and per-module optimizer
    and are deserialized from stored bytecode instead; the linked
    module is identical with or without it.

    ``policy`` turns on fault-tolerant execution end to end: a failing
    pass is rolled back and reported instead of aborting the build, too
    many failures step the level down (-O2 -> -O1 -> -O0), and a
    transiently failing link is retried once.  See docs/ROBUSTNESS.md.

    ``stats`` receives the seconds, runs and counters of every pass
    that runs, at compile time and at link time (``lc-cc -stats``).
    """
    sources = list(sources)
    modules = compile_translation_units(sources, name, level, verify_each,
                                        cache, policy, stats)
    linked = _link_with_retry(modules, name, policy)
    if lto:
        link_time_optimize(linked, level, verify_each=verify_each,
                           policy=policy, stats=stats)
    return linked


def compile_to_bytecode(sources: Iterable[str], name: str = "program",
                        level: int = 2, lto: bool = True,
                        cache: Optional[BytecodeCache] = None,
                        policy: Optional[FaultPolicy] = None,
                        stats: Optional[Stats] = None) -> bytes:
    """:func:`compile_and_link` to shippable bytecode (names kept): the
    only reader and writer of the cache's whole-program entries.

    The entry is keyed on everything the build is a function of:
    toolchain, ``level``, ``lto``, ``name`` and every source.  A hit is
    one cache read — the bytes come back undecoded, no TU is looked up,
    no pass runs.  A miss is stored only if its build was clean (see
    ``_UNCLEAN``), and nothing ever overwrites an entry with other IR.
    """
    sources = list(sources)
    if cache is not None:
        # Length-prefixed, so no choice of name and sources collides
        # with another.
        text = "".join(f"{len(part)}:{part}" for part in (name, *sources))
        key = cache.key(text, level, tag="program-lto" if lto else "program")
        data = cache.load_program(key)
        if data is not None:
            return data
    before = unclean(policy)
    module = compile_and_link(sources, name, level, lto, cache=cache,
                              policy=policy, stats=stats)
    data = write_bytecode(module, strip_names=False)
    if cache is not None and unclean(policy) == before:
        cache.store_program(key, data)
    return data
