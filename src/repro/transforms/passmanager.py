"""Pass management: scheduling function and module passes over a module.

The optimizations are "built into libraries, making it easy for
front-ends to use them" (paper section 3.2); the pass manager is that
library interface, and :meth:`PassManager.run` is the only code that
executes a transform pass — compile time, link time, the idle-time
reoptimizer, bugpoint's probes and crash reduction all go through it.

Every pass runs as a sequence of **units**: one function of a function
pass, or the whole module of a module pass.  The per-unit step is

    skip if poisoned -> lazily checkpoint -> run (under the watchdog's
    time budget when a policy is present) -> if tracking, ask whether
    the unit moved -> verify what moved -> translation-validate;
    on an exception: re-raise with no policy, else roll the unit back
    and hand it to containment.

*Tracking* is on when ``verify_each`` or a ``policy`` is given.  With
neither, a pass run is exactly the ``run_on_*`` calls.  Tracked, a
unit's checkpoint is a structural record stamped with the mutation
epoch (``Function.epoch``): a function's
:class:`repro.core.record.FunctionRecord`, or a :class:`ModuleRecord`
(the symbol table, names included, plus every function's record).  The
epoch is right by construction — a body's block and instruction lists
and its local names move it on every edit — so a record stays valid
while its function's epoch does: an untouched function is recorded once
per manager, and a module record reuses every record whose epoch has
not moved.  Nothing is printed or serialized: a function unit moved iff
its epoch did, a module unit iff its symbol table or any epoch did, and
rollback rebuilds from the record (:func:`restore_function`,
:func:`restore_module`) with :func:`repro.core.record.rebuild_body`,
the builder every clone and every decoded body goes through too.

The changed flag each pass returns is load-bearing: fixpoint drivers
stop iterating on it.  Under a policy an unclaimed epoch move is
verified and validated like a claimed one; an unclaimed module pass
costs nothing.  ``verify_each`` *audits* the flag against the same
record: a unit that moved while its pass reported "no change" raises
:class:`ChangedFlagLie` at the pass's own site (a module unit is
checked even when unclaimed), and a pass that over-reports (claims a
change but moved nothing) skips the redundant re-verify.

``run(module, functions)`` restricts the function passes to those
functions (the driver's skip rule); module passes still see the module.
A pass's units share the module analyses they ask for
(:func:`repro.analysis.manager.pass_sweep`) until a unit is rolled back.

The ``policy`` is the containment collaborator
(:class:`repro.driver.passmanager.FaultPolicy`; this package never
imports the driver).  The manager calls it for poison lookups, the
watchdog, translation validation, rollback, and — once per pass, with
every unit that failed — containment (poison, bisect, reduce, report).
"""

from __future__ import annotations

import time
from typing import Callable, Collection, NamedTuple, Optional, Protocol

from ..analysis.manager import pass_sweep
from ..core.module import Function, Module
from ..core.record import FunctionRecord, rebuild_body, snapshot_function
from ..core.verifier import verify_function, verify_module
from ..stats import Stats


class ChangedFlagLie(Exception):
    """A pass mutated the module while reporting "no change"."""

    def __init__(self, pass_name: str):
        super().__init__(
            f"pass {pass_name!r} changed the module but reported no change")
        self.pass_name = pass_name


class ModuleRecord(NamedTuple):
    """A module's checkpoint: ``symbols`` is the symbol table —
    ``(global, name, linkage, is_constant, initializer)`` per global,
    ``(function, name, linkage, is_pure, source_module)`` per function,
    each in module order, and the named types — and ``bodies`` maps
    every function to its :class:`FunctionRecord`."""

    symbols: tuple
    bodies: dict


def _module_symbols(module: Module) -> tuple:
    """:attr:`ModuleRecord.symbols` of ``module`` as it stands."""
    return (
        tuple([(g, g.name, g.linkage, g.is_constant, g.initializer)
               for g in module.globals.values()]),
        tuple([(f, f.name, f.linkage, f.is_pure, f.source_module)
               for f in module.functions.values()]),
        tuple(module.named_types.items()))


def snapshot_module(module: Module,
                    records: Optional[dict] = None) -> ModuleRecord:
    """A module unit's checkpoint.  ``records`` caches function records
    by function: one whose epoch has not moved is reused, any other is
    taken afresh and stored there."""
    records = {} if records is None else records
    bodies = {}
    for function in module.functions.values():
        record = records.get(function)
        if record is None or record.epoch != function.epoch:
            record = records[function] = snapshot_function(function)
        bodies[function] = record
    return ModuleRecord(_module_symbols(module), bodies)


def _moved_functions(module: Module, record: ModuleRecord) -> list:
    """The defined functions of ``module`` that ``record`` does not
    describe: created since, or moved since (by epoch)."""
    bodies = record.bodies
    return [f for f in module.defined_functions()
            if f not in bodies or bodies[f].epoch != f.epoch]


def _unit_moved(module: Module, function: Optional[Function], record,
                check: bool) -> bool:
    """Whether a tracked unit changed since ``record``.  A function
    changed iff its epoch moved; a module unit is looked at only when
    ``check`` (its pass claimed a change, or ``verify_each`` audits the
    claim) — an unclaimed module pass under a policy costs nothing."""
    if function is not None:
        return function.epoch != record.epoch
    return check and (
        _module_symbols(module) != record.symbols
        or any(f.epoch != body.epoch for f, body in record.bodies.items()))


def restore_function(function: Function, record: FunctionRecord) -> None:
    """Roll one function back to ``record``, in place: the live
    function object (and its arguments) keeps its identity, so every
    call site and vtable entry referencing it stays valid."""
    function.delete_body()
    rebuild_body(record, function)


def restore_module(module: Module, record: ModuleRecord) -> None:
    """Roll ``module`` back to ``record``, in place.

    The recorded globals and functions go back into the module object
    with their recorded names and attributes, in their recorded order; a
    symbol created since is unlinked and its references dropped.  Only a
    body whose epoch moved is rebuilt.
    """
    globals_, functions, named_types = record.symbols
    recorded = {g for g, _, _, _, _ in globals_}
    for global_var in module.globals.values():
        if global_var not in recorded:
            global_var.set_initializer(None)
            global_var.parent = None
    for function in module.functions.values():
        if function not in record.bodies:
            function.delete_body()
            function.parent = None
    module.globals.clear()
    module.functions.clear()
    module.named_types.clear()
    module.named_types.update(named_types)
    for global_var, name, linkage, is_constant, initializer in globals_:
        global_var.name = name
        module.globals[name] = global_var
        global_var.parent = module
        global_var.linkage = linkage
        global_var.is_constant = is_constant
        if global_var.initializer is not initializer:
            global_var.set_initializer(initializer)
    for function, name, linkage, is_pure, source_module in functions:
        function.name = name
        module.functions[name] = function
        function.parent = module
        function.linkage = linkage
        function.is_pure = is_pure
        function.source_module = source_module
        body = record.bodies[function]
        if function.epoch != body.epoch:
            restore_function(function, body)


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
        #: Function records by function (see :func:`snapshot_module`),
        #: each valid while its epoch is the function's.
        self._records: dict = {}

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
            #: (unit, error) of every unit that failed.
            failures: list = []
            # The pass's fault-injection site fires before any unit is
            # touched, so there is nothing to roll back.  A function
            # pass carries on: its sweep doubles as the retry.  A
            # module pass has no smaller unit to retry.
            fault = policy.injected_fault(name) if policy is not None else None
            if fault is not None:
                failures.append((None, fault))
                if module_pass:
                    units = []
            with pass_sweep() as analyses:
                for unit in units:
                    changed |= self._run_unit(pass_obj, name, module, unit,
                                              failures, analyses)
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
                  function: Optional[Function], failures: list,
                  analyses: dict) -> bool:
        """One unit of one pass (see the module docstring); returns the
        pass's changed claim, or False for a unit that was rolled back."""
        policy = self.policy
        if function is not None:
            unit, target = function.name, function
            run = pass_obj.run_on_function
            if policy is not None and policy.is_poisoned(name, module.name,
                                                         unit):
                self.incomplete.add(unit)
                return False
        else:
            unit, target, run = None, module, pass_obj.run_on_module
        record = (self._checkpoint(module, function)
                  if policy is not None or self.verify_each else None)
        # Not part of the transaction: a policy that cannot arm its
        # watchdog here (off the main thread) raises to the caller.
        watchdog = policy.watchdog() if policy is not None else None
        try:
            if watchdog is not None:
                with watchdog:
                    claimed = bool(run(target))
            else:
                claimed = bool(run(target))
            if record is None or not _unit_moved(
                    module, function, record, claimed or self.verify_each):
                return claimed  # untracked, or nothing moved
            if self.verify_each and not claimed:
                raise ChangedFlagLie(name)
            if function is not None:
                verify_function(function)
                if policy is not None:
                    policy.validate_function(name, module, function, record)
            else:
                verify_module(module, _moved_functions(module, record))
            return claimed
        except Exception as error:
            if policy is None:
                raise
            policy.rollback(module, function, record)
            # No memoized module analysis has seen the rebuilt body.
            analyses.clear()
            failures.append((unit, error))
            if unit is not None:
                self.incomplete.add(unit)
            return False

    def _checkpoint(self, module: Module, function: Optional[Function]):
        """The tracked unit's record: what tells whether it moved, its
        rollback source, and tvalid's "before" side."""
        if function is None:
            return snapshot_module(module, self._records)
        record = self._records.get(function)
        if record is None or record.epoch != function.epoch:
            record = self._records[function] = snapshot_function(function)
        return record

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
