"""Containment: crash isolation for the optimizer.

The paper's lifelong story (sections 2.4, 4.1.2) has the optimizer
running forever — at link time, at install time, in the idle-time
reoptimizer.  A component that runs forever *will* eventually meet a
pass bug, a corrupted artifact, or a pathological input; this module
makes that an isolable, reportable event instead of a process abort.

There is one pass manager (:class:`repro.transforms.PassManager`) and
it runs every pass as a sequence of per-unit transactions — one
function of a function pass, the whole module of a module pass — as
described in its module docstring.  Given a :class:`FaultPolicy` it
calls back here for everything that makes a failure survivable:

* the **watchdog** that preempts a runaway pass from inside, by
  interval timer, under a time budget capped by the build's deadline;
* **translation validation** of every function a function pass changed
  (``translation_validate``), co-executed against its record in a
  carrier module that shares the live module's globals and other
  functions.  A refinement violation is a failure like any other,
  except the report also carries the concrete counterexample input.
  Module (interprocedural) passes are exempt: their rewrites may be
  justified by call-site context that per-function refinement cannot
  see (docs/ANALYSIS.md);
* **rollback** of the failed unit from its checkpoint, in place — an
  epoch-stamped structural record (``repro.transforms.passmanager``):
  a function's body is rebuilt from its record through
  ``instructions.build`` into the live function object, a module's
  symbols go back into the module object and only the bodies whose
  epoch moved are rebuilt — so one bad function costs only itself its
  optimization.  Bytecode is written only on the failure path, after
  the rollback, for bisection and reduction;
* **containment**, once per pass: the guilty functions of a function
  pass are *poisoned* for that pass; a failing module pass is bisected
  to name the function that kills it and poisoned module-wide; a
  structured :class:`CrashReport` (with a bugpoint-reduced IR
  testcase) is recorded; and the pipeline continues — semantics
  preserved, just less optimized.

The :class:`FaultPolicy` also owns the knobs and the ``-stats``
counters (``passes.rolled_back``, ``crashes.reported``,
``fallbacks.taken``).

Rollback itself is trusted machinery: like taking a checkpoint, a
failure *inside* restore still raises, by design — it would mean the
pre-pass state cannot be reproduced, which no amount of containment can
paper over.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Optional

from ..bitcode import read_bytecode, write_bytecode
from ..core.module import Function, Module
from ..core.record import rebuild_body
from ..core.verifier import verify_module
from ..stats import Stats
from ..transforms.passmanager import (
    PassManager, restore_function, restore_module,
)
from ..tvalid.validate import (
    FAILED as _VALIDATION_FAILED, TranslationValidationError,
    TranslationValidator, ValidationConfig,
)


class PassBudgetExceeded(Exception):
    """A pass ran past its wall-clock budget."""


#: The shortest budget a watchdog arms.  ``setitimer(..., 0)`` disarms
#: instead of firing, and a pass past the build's deadline must still
#: *start* (and trip the watchdog, rolling back cleanly).  It is also
#: the interval at which an expired watchdog fires again.
_MIN_BUDGET = 0.05


class _Watchdog:
    """Preempt a runaway pass from inside, by interval timer.

    ``__enter__`` arms ``ITIMER_REAL`` for the budget, re-firing every
    ``_MIN_BUDGET`` after it until ``__exit__``; the ``SIGALRM``
    handler raises :class:`PassBudgetExceeded` in whatever frame the
    pass is executing (main thread only: see
    :meth:`FaultPolicy.watchdog`), which unwinds into the surrounding
    transaction.  Nothing runs per call, and a pass that makes no call
    or sleeps in one is preempted too; only a single C call that never
    returns to the bytecode loop is not (docs/ROBUSTNESS.md).
    """

    def __init__(self, budget: float):
        self.budget = max(_MIN_BUDGET, budget)
        self._armed = False
        self._previous = None
        #: Latched before the alarm raises, so that an expiry something
        #: swallowed (an ``except Exception``, a gc callback) is raised
        #: again by ``__exit__``.
        self.expired = False

    def _expired(self, signum, frame):
        # An alarm delivered inside __exit__ (pending when it disarms,
        # or at its first bytecode) is too late to count.
        if self._armed and frame.f_code is not _Watchdog.__exit__.__code__:
            self.expired = True
            raise PassBudgetExceeded(
                f"time budget {self.budget:.2f}s exhausted")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._expired)
        self._armed = True
        # The re-fire delivers an expiry again after something (an
        # ``except Exception``, a gc callback) swallowed it, so a unit
        # that then keeps running is still preempted.
        signal.setitimer(signal.ITIMER_REAL, self.budget, _MIN_BUDGET)
        return self

    def __exit__(self, exc_type, *exc_info):
        self._armed = False
        # Disarm before restoring: a stray alarm under the default
        # disposition would kill the process.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.expired and exc_type is None:
            raise PassBudgetExceeded(
                f"time budget {self.budget:.2f}s exhausted (swallowed)")
        return False


#: Budget for one bisection/reduction probe: far below a real pass
#: run's, because probes are many and their inputs shrink.
_PROBE_TIME_BUDGET = 2.0


@dataclass
class CrashReport:
    """Everything a human (or the fuzzer) needs to triage one crash."""

    pass_name: str
    module: str
    function: Optional[str]          # guilty function, when identified
    error_type: str
    error_message: str
    traceback: str
    reduced_ir: Optional[str] = None  # bugpoint-reduced testcase (.ll)
    reduced_instructions: Optional[int] = None
    path: Optional[str] = None       # where the report was written

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "module": self.module,
            "function": self.function,
            "error_type": self.error_type,
            "error_message": self.error_message,
            "traceback": self.traceback,
            "reduced_instructions": self.reduced_instructions,
        }

    def describe(self) -> str:
        where = f" in function @{self.function}" if self.function else ""
        return (f"pass {self.pass_name} crashed{where}: "
                f"{self.error_type}: {self.error_message}")


@dataclass
class FaultPolicy:
    """Knobs + shared counters for fault-tolerant pipeline execution.

    One policy instance is threaded through a whole driver invocation
    (all TUs, all pipeline runs), so poisoning decisions and counters
    aggregate across the build.
    """

    crash_dir: Optional[str] = None
    #: Passes newly poisoned in one pipeline attempt beyond which the
    #: driver falls back a level (the -O2 -> -O1 -> -O0 ladder).
    max_poisoned_passes: int = 2
    pass_time_budget: float = 10.0
    reduce_testcases: bool = True
    #: check refinement of every function a function pass changes
    #: (--translation-validate); violations roll back like crashes
    translation_validate: bool = False
    validation_config: Optional[ValidationConfig] = None
    #: Absolute ``time.monotonic()`` deadline for the whole build this
    #: policy governs (lc-serverd threads each request's deadline in
    #: here).  Per-pass watchdog time budgets are capped to the time
    #: remaining, so a deadline-pressed compile sheds optimization —
    #: budget-exceeded passes roll back and the ladder degrades —
    #: instead of having to be killed from outside.
    deadline: Optional[float] = None

    crash_reports: list = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()
        #: (pass, module, function-or-None) triples banned from running.
        self._poisoned: set = set()
        self._validator: Optional[TranslationValidator] = None
        #: The policy's ``-stats`` rows, under :attr:`name`.
        self.stats = Stats()
        self.stats.declare(
            self.name, "passes.rolled_back", "crashes.reported",
            "fallbacks.taken", "passes.poisoned", "passes.skipped",
            "retries.function", "link.retries", "validations.run",
            "validations.passed", "validations.failed",
            "validations.skipped-by-size", "validations.skipped-unsupported")

    def count(self, name: str, delta: int = 1) -> None:
        self.stats.count(self.name, name, delta)

    def statistics(self) -> dict[str, int]:
        # The level is written by the first pipeline built under this
        # policy.  Until then the record has no such row — merged into
        # a daemon's totals, a build answered from the cache must not
        # reset what the builds before it measured.
        return {"synth.rules-loaded": 0, **self.stats.view(self.name)}

    name = "fault-policy"  # the -stats source label

    def time_budget(self, budget: float) -> float:
        """A watchdog time budget, capped by the remaining deadline.

        With no :attr:`deadline` this is just ``budget``; past the
        deadline the watchdog's floor (``_MIN_BUDGET``) applies.
        """
        if self.deadline is None:
            return budget
        return min(budget, self.deadline - time.monotonic())

    # -- translation validation ---------------------------------------------

    def validator(self) -> TranslationValidator:
        """The (lazily built, shared) refinement checker."""
        with self._lock:
            if self._validator is None:
                self._validator = TranslationValidator(self.validation_config)
            return self._validator

    # -- poisoning ----------------------------------------------------------

    def poison(self, pass_name: str, module: str,
               function: Optional[str] = None) -> None:
        with self._lock:
            self._poisoned.add((pass_name, module, function))
        self.count("passes.poisoned")

    def is_poisoned(self, pass_name: str, module: str,
                    function: Optional[str] = None) -> bool:
        with self._lock:
            if (pass_name, module, None) in self._poisoned:
                return True
            return (function is not None
                    and (pass_name, module, function) in self._poisoned)

    # -- crash reports ------------------------------------------------------

    def record(self, report: CrashReport) -> None:
        with self._lock:
            self.crash_reports.append(report)
            ordinal = len(self.crash_reports)
        self.count("crashes.reported")
        if self.crash_dir is not None:
            try:
                os.makedirs(self.crash_dir, exist_ok=True)
                stem = f"crash-{ordinal:03d}-{report.pass_name}"
                path = os.path.join(self.crash_dir, stem + ".json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(report.to_dict(), handle, indent=2,
                              sort_keys=True)
                    handle.write("\n")
                if report.reduced_ir is not None:
                    with open(os.path.join(self.crash_dir, stem + ".ll"),
                              "w", encoding="utf-8") as handle:
                        handle.write(report.reduced_ir)
                report.path = path
            except OSError:
                pass  # reporting must never become a second crash

    # -- the pass manager's collaborator interface --------------------------

    def watchdog(self) -> _Watchdog:
        """The budget one unit of one pass runs under.  Signals reach
        the main thread only, so anywhere else this raises — *outside*
        the unit's transaction, where ``signal.signal``'s ``ValueError``
        would be contained as if the pass had failed."""
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(
                "a FaultPolicy-governed pass must run on the main "
                "thread: its watchdog preempts by SIGALRM")
        return _Watchdog(self.time_budget(self.pass_time_budget))

    def injected_fault(self, name: str) -> Optional[Exception]:
        """Fire the ``pass:<name>`` injection site.  An armed fault is
        returned, counted as a rollback, instead of raised."""
        from ..fuzz import faultinject

        try:
            faultinject.check(f"pass:{name}")
        except faultinject.InjectedFault as fault:
            self.count("passes.rolled_back")
            return fault
        return None

    def validate_function(self, name: str, module: Module, function,
                          record) -> None:
        """Under ``translation_validate``, refinement-check one changed
        function against its record; count verdicts; raise on a
        violation.

        The "before" side is the record rebuilt into a fresh function
        over the live module's symbols, co-executed in a carrier module
        sharing the live globals and every *other* function — so callee
        differences cancel and the check isolates this function's
        change (modular refinement: callees are validated separately).
        """
        if not self.translation_validate:
            return
        before_fn = Function(function.function_type, function.name,
                             function.linkage)
        rebuild_body(record, before_fn)
        carrier = Module(module.name, module.data_layout)
        carrier.globals = module.globals
        carrier.named_types = module.named_types
        carrier.functions = dict(module.functions)
        carrier.functions[function.name] = before_fn
        before_fn.parent = carrier
        failure = None
        for result in self.validator().validate(carrier, module,
                                                function.name):
            if result.status in (_VALIDATION_FAILED, "passed"):
                self.count("validations.run")
            self.count(f"validations.{result.status}")
            if result.status == _VALIDATION_FAILED and failure is None:
                failure = result
        if failure is not None:
            raise TranslationValidationError(name, failure)

    def rollback(self, module: Module, function, record) -> None:
        """Undo a failed unit: ``function`` (or, when None, the whole
        module) goes back to ``record``, in place."""
        if function is None:
            restore_module(module, record)
        else:
            restore_function(function, record)
        self.count("passes.rolled_back")

    def contain(self, pass_obj, name: str, module: Module,
                failures: list) -> int:
        """Containment for one pass's failed units, already rolled
        back: poison, attribute, report once per (pass, run).  Returns
        how many units were poisoned.  ``failures`` holds ``(unit,
        error)`` in sweep order; the unit of an injected fault, which
        fires before any unit runs, is None."""
        _, error = failures[0]
        # Budget blowouts and one-shot injected faults do not reproduce
        # on a re-run, so bisecting/reducing them is wasted work (and
        # the reduction predicate would never hold).
        from ..fuzz.faultinject import InjectedFault

        reproducible = self.reduce_testcases and not isinstance(
            error, (PassBudgetExceeded, InjectedFault))
        # Every failed unit is rolled back, so the module is in a
        # reproducing state: its bytecode is what the probes start from.
        pristine = (write_bytecode(module, strip_names=False)
                    if reproducible else None)
        if hasattr(pass_obj, "run_on_module"):
            # Module granularity: bisect for attribution only — the
            # pass is poisoned module-wide either way.
            guilty = [None]
            culprit = (self._bisect_module_pass(pass_obj, pristine)
                       if reproducible else None)
        else:
            # Function granularity: the sweep already retried every
            # other function; only the guilty ones lose this pass.
            self.count("retries.function")
            guilty = [unit for unit, _ in failures if unit is not None]
            culprit = guilty[0] if guilty else None
        for unit in guilty:
            self.poison(name, module.name, unit)
        report = CrashReport(
            pass_name=name, module=module.name, function=culprit,
            error_type=type(error).__name__, error_message=str(error),
            traceback="".join(_traceback.format_exception(
                type(error), error, error.__traceback__)),
        )
        if reproducible:
            reduced = self._reduce_testcase(
                pass_obj, pristine,
                validate=isinstance(error, TranslationValidationError))
            if reduced is not None:
                from ..core import print_module

                report.reduced_ir = print_module(reduced)
                report.reduced_instructions = sum(
                    f.instruction_count()
                    for f in reduced.defined_functions())
        self.record(report)
        return len(guilty)

    def _probe(self, pass_obj, candidate: Module) -> None:
        """Run a fresh instance of the pass over ``candidate`` exactly
        as the real run would — through a :class:`PassManager`, with no
        policy so a failure propagates — under the (small) probe
        budget, then verify the result."""
        with _Watchdog(self.time_budget(_PROBE_TIME_BUDGET)):
            PassManager().add(_fresh_pass(pass_obj)).run(candidate)
        verify_module(candidate)

    def _bisect_module_pass(self, pass_obj, snapshot: bytes) -> Optional[str]:
        """Name the function that kills a module-level pass: probe
        one-function-at-a-time skeletons of the snapshot (every other
        body dropped) and report the first that still crashes it."""
        names = [f.name for f in read_bytecode(snapshot).defined_functions()]
        for function_name in names:
            try:
                probe = read_bytecode(snapshot)
                for other in list(probe.defined_functions()):
                    if other.name != function_name:
                        other.delete_body()
                self._probe(pass_obj, probe)
            except PassBudgetExceeded:
                continue
            except Exception:
                return function_name
        return None

    def _reduce_testcase(self, pass_obj, snapshot: bytes,
                         validate: bool = False) -> Optional[Module]:
        """Shrink the snapshot to a minimal module that still crashes
        the pass (reusing bugpoint's delta reduction).  For a
        validation failure the interestingness predicate is "the pass
        still miscompiles this", so the reduced testcase ships with a
        replayable refinement violation, not just a crash."""
        from ..fuzz.bugpoint import reduce_module

        def crashes(candidate: Module) -> bool:
            try:
                pre_pass = (write_bytecode(candidate, strip_names=False)
                            if validate else None)
                self._probe(pass_obj, candidate)
            except PassBudgetExceeded:
                return False
            except Exception:
                return True
            if validate:
                try:
                    results = self.validator().validate(
                        read_bytecode(pre_pass), candidate)
                except Exception:
                    return False
                return any(r.status == _VALIDATION_FAILED for r in results)
            return False

        try:
            return reduce_module(read_bytecode(snapshot), crashes)
        except Exception:
            return None


def _fresh_pass(pass_obj):
    """A clean instance for probing: passes carry only counters and
    configuration (analyses come from :mod:`repro.analysis.manager`).

    A pass with construction-time configuration (e.g. InstCombine's
    rule set) exposes ``fresh()`` so the probe reproduces the *same*
    behaviour, not the default one.
    """
    fresh = getattr(pass_obj, "fresh", None)
    if callable(fresh):
        try:
            return fresh()
        except Exception:
            pass
    try:
        return type(pass_obj)()
    except Exception:
        return pass_obj
