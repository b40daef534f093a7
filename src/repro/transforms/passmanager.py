"""Pass management: scheduling function and module passes over a module.

The optimizations are "built into libraries, making it easy for
front-ends to use them" (paper section 3.2); the pass manager is that
library interface, and :meth:`PassManager.run` is the only code that
executes a transform pass — compile time, link time, the idle-time
reoptimizer, bugpoint's probes and crash reduction all go through it.

Every pass runs as a sequence of **units**: one function of a function
pass, or the whole module of a module pass.  The per-unit step is

    skip if poisoned -> lazily snapshot -> run (under the watchdog's
    time budget when a policy is present) -> if tracking, compare the
    unit's digest -> ChangedFlagLie if it moved unclaimed -> verify the
    unit -> translation-validate -> commit the new digest;
    on an exception: re-raise with no policy, else roll the unit back
    and hand it to containment.

*Tracking* is on when ``verify_each`` or a ``policy`` is given.  With
neither, a pass run is exactly the ``run_on_*`` calls — nothing is
printed or serialized.  A unit's digest is its snapshot: a function's
printed text, or the module's bytecode (bytecode rather than text for
module passes, because it carries flags the printer does not — function
purity — and only module passes set those).  Digests are cached across
passes, so an untouched function is printed once, not once per pass.

The changed flag each pass returns is load-bearing: fixpoint drivers
stop iterating on it, and with a policy alone an honest ``False`` costs
nothing at all (no post-pass print).  ``verify_each`` therefore
*audits* the flag: the digest is compared after every unit, a unit that
moved while its pass reported "no change" raises :class:`ChangedFlagLie`
at the pass's own site, and a pass that over-reports (claims a change
but moved nothing) skips the redundant re-verify.  Under ``verify_each``
the same comparison audits the function's mutation epoch
(``Function.epoch``, what the driver's ``-O`` runs trust to skip an
unchanged function): a function whose text moved while its epoch did
not was edited behind the IR's mutation API, and raises
:class:`UntrackedMutation`.

``run(module, functions)`` restricts the function passes to those
functions (the driver's skip rule); module passes still see the module.

The ``policy`` is the containment collaborator
(:class:`repro.driver.passmanager.FaultPolicy`; this package never
imports the driver).  The manager calls it for poison lookups, the
watchdog, translation validation, rollback, and — once per pass, with
every unit that failed — containment (poison, bisect, reduce, report).
"""

from __future__ import annotations

import time
from typing import Callable, Collection, Optional, Protocol

from ..bitcode import write_bytecode
from ..core.module import Function, Module
from ..core.printer import print_function
from ..core.verifier import verify_function, verify_module
from ..stats import Stats


class ChangedFlagLie(Exception):
    """A pass mutated the module while reporting "no change"."""

    def __init__(self, pass_name: str):
        super().__init__(
            f"pass {pass_name!r} changed the module but reported no change")
        self.pass_name = pass_name


class UntrackedMutation(Exception):
    """A pass changed a function without moving its epoch."""

    def __init__(self, pass_name: str, function: str):
        super().__init__(
            f"pass {pass_name!r} changed @{function} behind the mutation "
            "API: its text moved, its epoch did not")
        self.pass_name = pass_name


def snapshot_module(module: Module) -> bytes:
    """A module unit's snapshot and digest: deterministic bytecode."""
    return write_bytecode(module, strip_names=False)


def snapshot_function(function: Function) -> str:
    """A function unit's snapshot and digest: the function's text.

    Text rather than a structural clone because it is what the digest
    comparison needs anyway, it costs nothing to keep across passes,
    and the print -> parse round trip is byte-exact (pinned by the
    differential fuzzer), so it can faithfully rebuild the function on
    the rare rollback path.
    """
    return print_function(function)


def pass_name(pass_obj) -> str:
    return getattr(pass_obj, "name", type(pass_obj).__name__)


class FunctionPass(Protocol):
    """A transformation over one function; returns True if it changed IR."""

    name: str

    def run_on_function(self, function: Function) -> bool: ...


class ModulePass(Protocol):
    """A transformation over a whole module; returns True if changed."""

    name: str

    def run_on_module(self, module: Module) -> bool: ...


class PassManager:
    """Runs a sequence of module/function passes over a module.

    A pass takes part in ``-stats`` by carrying ``counters``, a dict of
    integers it bumps as it works (and ``levels``, a dict of integers
    that are set, not added: InstCombine's loaded-rule count).
    """

    def __init__(self, verify_each: bool = False,
                 stats: Optional[Stats] = None, policy=None):
        self.passes: list[object] = []
        self.verify_each = verify_each
        #: Seconds, runs and counters of every pass this manager ran.
        #: A caller may pass a shared record so one ``-stats`` /
        #: ``-time-passes`` report covers every manager a driver
        #: invocation creates.
        self.stats = stats if stats is not None else Stats()
        #: The containment collaborator, or None: failures propagate.
        self.policy = policy
        #: Units poisoned during this manager's run() calls — what the
        #: degradation ladder consults.
        self.poisoned_in_run = 0
        #: Names of the functions some function pass skipped as poisoned
        #: or rolled back: not fully optimized, whatever the level.
        self.incomplete: set[str] = set()
        #: Snapshots describing the module's *current* state, by unit
        #: (function name; None for the module): the change-detection
        #: digest and the rollback source in one.
        self._digests: dict = {}

    def add(self, pass_obj) -> "PassManager":
        if not hasattr(pass_obj, "run_on_function") and not hasattr(pass_obj, "run_on_module"):
            raise TypeError(f"{pass_obj!r} is not a pass")
        self.passes.append(pass_obj)
        return self

    def run(self, module: Module,
            only: Optional[Collection[str]] = None) -> bool:
        """Run every pass; a function pass over the defined functions
        named in ``only`` (default: all of them)."""
        policy = self.policy
        # The digests only describe mutations made through this manager;
        # between run() calls other components may touch the module.
        self._digests.clear()
        changed = False
        for pass_obj in self.passes:
            name = pass_name(pass_obj)
            module_pass = hasattr(pass_obj, "run_on_module")
            if policy is not None and policy.is_poisoned(name, module.name):
                policy.count("passes.skipped")
                if not module_pass:
                    self.incomplete.update(
                        f.name for f in module.defined_functions())
                continue
            start = time.perf_counter()
            counters = getattr(pass_obj, "counters", {})
            before = dict(counters)
            units = [None] if module_pass else [
                f for f in module.defined_functions()
                if only is None or f.name in only]
            #: (unit, error, snapshot) of every unit that failed.
            failures: list = []
            # The pass's fault-injection site fires before any unit is
            # touched, so there is nothing to roll back.  A function
            # pass carries on: its sweep doubles as the retry.  A
            # module pass has no smaller unit to retry.
            fault = policy.injected_fault(name) if policy is not None else None
            if fault is not None:
                failures.append((None, fault, None))
                if module_pass:
                    units = []
            for unit in units:
                changed |= self._run_unit(pass_obj, name, module, unit,
                                          failures)
            if failures:
                self.poisoned_in_run += policy.contain(pass_obj, name,
                                                       module, failures)
            # Tracking and containment work (rollback, bisection,
            # reduction) bills to the pass that caused it.
            self.stats.time(name, time.perf_counter() - start)
            for key, value in counters.items():
                self.stats.count(name, key, value - before.get(key, 0))
            for key, value in getattr(pass_obj, "levels", {}).items():
                self.stats.gauge(name, key, value)
        return changed

    def _run_unit(self, pass_obj, name: str, module: Module,
                  function: Optional[Function], failures: list) -> bool:
        """One unit of one pass (see the module docstring); returns the
        pass's changed claim, or False for a unit that was rolled back."""
        policy = self.policy
        if function is not None:
            unit, target = function.name, function
            run, snapshot, verify = (pass_obj.run_on_function,
                                     snapshot_function, verify_function)
            if policy is not None and policy.is_poisoned(name, module.name,
                                                         unit):
                self.incomplete.add(unit)
                return False
            epoch = function.epoch
        else:
            unit, target = None, module
            run, snapshot, verify = (pass_obj.run_on_module,
                                     snapshot_module, verify_module)
        tracking = self.verify_each or policy is not None
        before = None
        if tracking:
            before = self._digests.get(unit)
            if before is None:
                before = self._digests[unit] = snapshot(target)
        # Not part of the transaction: a policy that cannot arm its
        # watchdog here (off the main thread) raises to the caller.
        watchdog = policy.watchdog() if policy is not None else None
        try:
            if watchdog is not None:
                with watchdog:
                    claimed = bool(run(target))
            else:
                claimed = bool(run(target))
            # Without verify_each an honest "no change" costs nothing:
            # the flag is kept honest project-wide by the verify_each
            # audit below and by the fuzzer.
            if not tracking or not (claimed or self.verify_each):
                return claimed
            after = snapshot(target)
            if after == before:
                return claimed  # over-reported: skip re-verify and tvalid
            if not claimed:
                raise ChangedFlagLie(name)
            if self.verify_each and function is not None \
                    and function.epoch == epoch:
                raise UntrackedMutation(name, unit)
            verify(target)
            if function is None:
                self._digests.clear()  # function bodies may have moved
            else:
                if policy is not None:
                    policy.validate_function(name, module, function, before)
                self._digests.pop(None, None)
            self._digests[unit] = after
            return True
        except Exception as error:
            if policy is None:
                raise
            policy.rollback(module, function, before)
            failures.append((unit, error, before))
            if unit is not None:
                self.incomplete.add(unit)
            return False

    def statistics(self) -> dict[str, dict[str, int]]:
        """Per-pass counters (the ``lc-opt -stats`` rows) of everything
        that ran into this manager's record: counters from repeated runs
        of a pass with the same name are summed, levels are not — two
        InstCombine instances load the same 52 rules."""
        return self.stats.views()

    def run_until_fixpoint(self, module: Module, max_iterations: int = 8) -> int:
        """Re-run the whole pipeline until nothing changes; returns iterations."""
        for iteration in range(max_iterations):
            if not self.run(module):
                return iteration + 1
        return max_iterations


class FunctionPassAdaptor:
    """Wrap a bare ``Callable[[Function], bool]`` as a function pass."""

    def __init__(self, fn: Callable[[Function], bool], name: Optional[str] = None):
        self._fn = fn
        self.name = name or fn.__name__

    def run_on_function(self, function: Function) -> bool:
        return self._fn(function)


class ModulePassAdaptor:
    """Wrap a bare ``Callable[[Module], bool]`` as a module pass."""

    def __init__(self, fn: Callable[[Module], bool], name: Optional[str] = None):
        self._fn = fn
        self.name = name or fn.__name__

    def run_on_module(self, module: Module) -> bool:
        return self._fn(module)
