"""Tests for fault-tolerant compilation (docs/ROBUSTNESS.md).

The contract under test: a lifelong compiler must outlive its own
bugs.  A crashing pass is a rolled-back transaction with a crash
report, not an abort; corrupted artifacts (bytecode, cache entries,
summary sidecars) cost recompilation, never correctness; and every
registered fault-injection site, armed one at a time, still yields a
program with the clean ``-O0`` behaviour.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time

import pytest

from repro.bitcode import (
    BytecodeError, read_bytecode, write_bytecode,
)
from repro.core import parse_module, print_module, verify_module
from repro.driver import (
    BytecodeCache, CrashReport, FaultPolicy, LifelongSession,
    compile_and_link, optimize_module,
    restore_module, snapshot_module,
)
from repro.driver.passmanager import PassBudgetExceeded
from repro.driver.pipelines import lint_whole_program
from repro.frontend import compile_source
from repro.fuzz import (
    InjectedFault, generate_program, registered_sites, run_fault_matrix,
    run_interpreter,
)
from repro.fuzz import faultinject
from repro.transforms import PassManager, PromoteMem2Reg, SimplifyCFG

SRC = """
extern int print_int(int x);
int add(int x, int y) { return x + y; }
int victim(int n) {
  int total;
  int i;
  total = 0;
  for (i = 0; i < n; i = i + 1) { total = add(total, i); }
  return total;
}
int main() { print_int(victim(7)); return victim(3); }
"""

STEP_LIMIT = 1_000_000


def fresh_module(name="m"):
    return compile_source(SRC, name)


def reference_outcome():
    return run_interpreter(fresh_module("ref"), STEP_LIMIT)


class EvilFunctionPass:
    """Raises on exactly one function; optimizes nothing."""

    name = "evil"

    def __init__(self, target: str = "main"):
        self.target = target

    def run_on_function(self, function):
        if function.name == self.target:
            raise RuntimeError("planted bug")
        return False


class EvilModulePass:
    name = "evil-module"

    def run_on_module(self, module):
        for function in module.defined_functions():
            if function.name == "victim":
                raise RuntimeError("module pass planted bug")
        return False


class CorruptingPass:
    """Breaks the IR without raising: drops a terminator."""

    name = "corrupting"

    def run_on_function(self, function):
        if function.name == "victim":
            function.blocks[0].instructions[-1].erase_from_parent()
            return True
        return False


class SpinPass:
    """Loops forever, making Python-level calls."""

    name = "spin"

    def run_on_function(self, function):
        def poke():
            return 0

        while True:
            poke()


class TightLoopPass:
    """Loops forever without a single call: invisible to a per-call
    hook, so this hangs the build unless the watchdog is a timer."""

    name = "tight-loop"

    def run_on_function(self, function):
        while True:
            pass


class SleepPass:
    """Sits in one long blocking call."""

    name = "sleep"

    def run_on_function(self, function):
        time.sleep(60)
        return False


class SwallowingPass:
    """Renames a block, then spins under an ``except Exception`` that
    swallows the budget expiry, and reports a change."""

    name = "swallowing"

    def run_on_function(self, function):
        function.blocks[0].name = "swallowed"
        try:
            while True:
                pass
        except Exception:
            pass
        return True


class SwallowOncePass:
    """Swallows the first budget expiry, then spins for up to five
    seconds of wall time and reports a change."""

    name = "swallow-once"

    def __init__(self):
        self.ran_out = False

    def run_on_function(self, function):
        try:
            while True:
                pass
        except PassBudgetExceeded:
            pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            pass
        self.ran_out = True
        return True


def alarm_state():
    """What a watchdog must leave exactly as it found it."""
    return (signal.getitimer(signal.ITIMER_REAL),
            signal.getsignal(signal.SIGALRM))


# ----------------------------------------------------------------------
# The transactional pass manager (tentpole part 1)
# ----------------------------------------------------------------------

class TestContainedPassManager:
    def test_throwing_pass_rolls_back_and_pipeline_continues(self, tmp_path):
        """The golden crash-containment test of ISSUE 5."""
        policy = FaultPolicy(crash_dir=str(tmp_path))
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(SimplifyCFG())
        manager.add(EvilFunctionPass("main"))
        manager.add(PromoteMem2Reg())
        manager.run(module)

        verify_module(module)
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        stats = policy.statistics()
        assert stats["passes.rolled_back"] >= 1
        assert stats["crashes.reported"] == 1

        (report,) = policy.crash_reports
        assert report.pass_name == "evil"
        assert report.function == "main"
        assert report.error_type == "RuntimeError"
        assert "planted bug" in report.traceback
        # The reduced testcase: verifier-clean and tiny.
        assert report.reduced_instructions is not None
        assert report.reduced_instructions <= 15
        reduced = parse_module(report.reduced_ir)
        verify_module(reduced)
        # ... and it still crashes the pass.
        with pytest.raises(RuntimeError):
            for function in reduced.defined_functions():
                EvilFunctionPass("main").run_on_function(function)

    def test_crash_report_written_to_crash_dir(self, tmp_path):
        policy = FaultPolicy(crash_dir=str(tmp_path))
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(EvilFunctionPass("main"))
        manager.run(module)

        names = sorted(os.listdir(tmp_path))
        assert names == ["crash-001-evil.json", "crash-001-evil.ll"]
        with open(tmp_path / "crash-001-evil.json") as handle:
            record = json.load(handle)
        assert record["pass"] == "evil"
        assert record["function"] == "main"
        assert record["error_type"] == "RuntimeError"
        reduced = parse_module((tmp_path / "crash-001-evil.ll").read_text())
        verify_module(reduced)

    def test_function_granularity_retry_spares_innocents(self):
        """Other functions keep their optimization; only the guilty
        function is poisoned for the failing pass."""
        policy = FaultPolicy(reduce_testcases=False)
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(EvilFunctionPass("victim"))
        manager.run(module)

        assert policy.is_poisoned("evil", "m", "victim")
        assert not policy.is_poisoned("evil", "m", "main")
        assert not policy.is_poisoned("evil", "m")  # not module-wide
        assert policy.statistics()["retries.function"] == 1

    def test_poisoned_function_is_skipped_on_rerun(self):
        policy = FaultPolicy(reduce_testcases=False)
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(EvilFunctionPass("victim"))
        manager.run(module)
        manager.run(module)  # the second run must not crash again
        assert policy.statistics()["crashes.reported"] == 1

    def test_module_pass_bisection_names_guilty_function(self):
        policy = FaultPolicy()
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(EvilModulePass())
        manager.run(module)

        (report,) = policy.crash_reports
        assert report.pass_name == "evil-module"
        assert report.function == "victim"
        assert policy.is_poisoned("evil-module", "m")  # module-wide

    def test_verifier_failure_rolls_back(self):
        """A pass that silently corrupts the IR is caught by the
        per-transaction verify and undone."""
        policy = FaultPolicy(reduce_testcases=False)
        module = fresh_module()
        before = print_module(module)
        manager = PassManager(policy=policy)
        manager.add(CorruptingPass())
        manager.run(module)

        verify_module(module)
        assert policy.statistics()["passes.rolled_back"] >= 1
        # Rollback + failed per-function retry: the module is pristine.
        assert print_module(module) == before

    def test_budget_exhaustion_preempts_runaway_pass(self):
        self.assert_preempted(SpinPass)

    @pytest.mark.parametrize("runaway", [TightLoopPass, SleepPass])
    def test_runaway_pass_that_makes_no_calls_is_preempted(self, runaway):
        self.assert_preempted(runaway)

    @staticmethod
    def assert_preempted(runaway):
        policy = FaultPolicy(pass_time_budget=0.2, reduce_testcases=False)
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(runaway())
        before = alarm_state()
        started = time.monotonic()
        manager.run(module)
        # Three functions, each preempted at its budget.
        assert time.monotonic() - started < 5.0
        assert alarm_state() == before

        verify_module(module)
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        assert any(r.error_type == "PassBudgetExceeded"
                   for r in policy.crash_reports)
        # Budget blowouts are not reproducible probes: no reduction.
        assert all(r.reduced_ir is None for r in policy.crash_reports)

    @pytest.mark.parametrize("passes", [
        [SimplifyCFG(), PromoteMem2Reg()],          # clean
        [SimplifyCFG(), EvilFunctionPass("main")],  # failing, then probed
        [EvilModulePass()],                         # bisected and reduced
    ], ids=["clean", "failing", "bisected"])
    def test_watchdog_leaves_no_timer_and_no_handler(self, passes):
        """After any contained run the interval timer is disarmed and
        SIGALRM's handler is whatever it was before — here a sentinel,
        so a watchdog that restored the default would show."""
        def sentinel(signum, frame):  # pragma: no cover - never armed
            raise AssertionError("stray SIGALRM")

        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            manager = PassManager(policy=FaultPolicy())
            for pass_obj in passes:
                manager.add(pass_obj)
            manager.run(fresh_module())
            assert alarm_state() == ((0.0, 0.0), sentinel)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_a_swallowed_expiry_still_rolls_the_unit_back(self):
        """The alarm latches before it raises: an expiry the pass's own
        ``except Exception`` ate is raised again when the watchdog
        exits, and the unit is rolled back."""
        policy = FaultPolicy(pass_time_budget=0.05, reduce_testcases=False)
        module = fresh_module()
        before = print_module(module)
        PassManager(policy=policy).add(SwallowingPass()).run(module)
        assert print_module(module) == before
        assert policy.statistics()["passes.rolled_back"] >= 1
        assert alarm_state()[0] == (0.0, 0.0)

    def test_a_swallowed_expiry_fires_again(self):
        """After the first expiry the timer re-fires: a unit that ate
        it and kept running is preempted again, well before its own
        five-second bound, and rolled back."""
        policy = FaultPolicy(pass_time_budget=0.05, reduce_testcases=False)
        module = fresh_module()
        before = print_module(module)
        unit = SwallowOncePass()
        PassManager(policy=policy).add(unit).run(module)
        assert not unit.ran_out
        assert print_module(module) == before
        assert policy.statistics()["passes.rolled_back"] >= 1
        assert alarm_state()[0] == (0.0, 0.0)

    def test_an_expiry_during_the_rule_load_loses_no_rule(self,
                                                          monkeypatch):
        """The generated-rule load catches only a missing module: an
        expiry inside it propagates, and a later load gets every rule."""
        from repro.driver.passmanager import _Watchdog
        from repro.transforms import instcombine, peephole

        load = peephole.load_generated_rules

        def slow_load():
            time.sleep(5.0)
            return load()

        monkeypatch.setattr(instcombine, "_DEFAULT_RULES", None)
        monkeypatch.setattr(peephole, "load_generated_rules", slow_load)
        with pytest.raises(PassBudgetExceeded):
            with _Watchdog(0.05):
                instcombine._default_rules()
        monkeypatch.setattr(peephole, "load_generated_rules", load)
        assert len(instcombine._default_rules()) == 52

    def test_nonpositive_budget_still_arms(self):
        """``setitimer(..., 0)`` would disarm: a budget the deadline has
        already eaten is clamped to the floor, so the pass still starts
        and a runaway is still preempted."""
        policy = FaultPolicy(reduce_testcases=False,
                             deadline=time.monotonic() - 1.0)
        module = fresh_module()
        PassManager(policy=policy).add(TightLoopPass()).run(module)
        assert policy.time_budget(10.0) < 0
        assert all(r.error_type == "PassBudgetExceeded"
                   for r in policy.crash_reports)
        assert policy.crash_reports and alarm_state()[0] == (0.0, 0.0)

    def test_policy_off_the_main_thread_is_refused(self):
        """Signals reach the main thread only.  The refusal must come
        out of ``run`` itself: swallowed by a unit's transaction it
        would read as a failed, rolled-back, poisoned pass."""
        policy = FaultPolicy(reduce_testcases=False)
        module = fresh_module()
        before = print_module(module)
        raised: list = []

        def run():
            try:
                PassManager(policy=policy).add(SimplifyCFG()).run(module)
            except BaseException as error:
                raised.append(error)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        (error,) = raised
        assert isinstance(error, RuntimeError)
        assert "main thread" in str(error)
        stats = policy.statistics()
        assert stats["passes.rolled_back"] == 0
        assert stats["passes.poisoned"] == 0
        assert policy.crash_reports == []
        assert print_module(module) == before

    def test_rollback_restores_module_in_place(self):
        module = fresh_module()
        snapshot = snapshot_module(module)
        before = print_module(module)
        module.functions["main"].delete_body()
        assert print_module(module) != before
        restore_module(module, snapshot)
        assert print_module(module) == before
        verify_module(module)
        for function in module.functions.values():
            assert function.parent is module

    SYMBOLS_SRC = """
int g;
int helper(int x) { return x + g; }
int main() { g = 2; return helper(3); }
"""

    @staticmethod
    def _rename_symbols(module):
        module.globals["g"].name = "renamed"
        module.functions["helper"].name = "helper2"

    def test_module_rollback_undoes_symbol_renames(self):
        """The rollback once re-keyed the symbol table under the new
        names: the module came back as ``@renamed`` / ``@helper2``."""
        from repro.transforms import ModulePassAdaptor

        def rename_then_fail(module):
            self._rename_symbols(module)
            raise RuntimeError("renamed, then failed")

        module = compile_source(self.SYMBOLS_SRC, "m")
        before = print_module(module)
        manager = PassManager(policy=FaultPolicy(reduce_testcases=False))
        manager.add(ModulePassAdaptor(rename_then_fail, "renamer"))
        assert manager.run(module) is False
        assert print_module(module) == before
        assert list(module.globals) == ["g"]
        assert module.functions["helper"].name == "helper"

    def test_verify_each_sees_an_unclaimed_symbol_rename(self):
        from repro.transforms import ModulePassAdaptor
        from repro.transforms.passmanager import ChangedFlagLie

        manager = PassManager(verify_each=True)
        manager.add(ModulePassAdaptor(
            lambda module: self._rename_symbols(module) or False, "renamer"))
        with pytest.raises(ChangedFlagLie, match="renamer"):
            manager.run(compile_source(self.SYMBOLS_SRC, "m"))


class TestPerFunctionTransactions:
    """The per-function snapshot machinery of ISSUE 7: function passes
    checkpoint (and roll back) one function's record, never the module."""

    def test_function_rollback_restores_in_place(self):
        from repro.core.record import snapshot_function
        from repro.transforms.passmanager import restore_function

        module = fresh_module()
        victim = module.functions["victim"]
        before = print_module(module)
        snapshot = snapshot_function(victim)
        victim.blocks[0].instructions[-1].erase_from_parent()
        assert print_module(module) != before
        restore_function(victim, snapshot)
        assert print_module(module) == before
        verify_module(module)
        # Restoration happens *inside* the existing function object, so
        # every call site (main calls victim) stays valid.
        assert module.functions["victim"] is victim
        for block in victim.blocks:
            assert block.parent is victim
        for arg in victim.args:
            assert arg.parent is victim
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()

    def test_partial_mutation_rolled_back_others_kept(self):
        """A pass that mutates the guilty function *before* raising must
        have that partial work undone, while functions it already
        processed cleanly keep their changes."""

        class MutateThenThrow:
            name = "mutate-then-throw"

            def run_on_function(self, function):
                if function.name == "victim":
                    # Real damage first, then the crash.
                    function.blocks[0].instructions[-1].erase_from_parent()
                    raise RuntimeError("planted mid-mutation bug")
                # Touch every other function observably but validly.
                function.blocks[0].name = f"{function.blocks[0].name}.t"
                return True

        policy = FaultPolicy(reduce_testcases=False,
                             translation_validate=False)
        module = fresh_module()
        victim_before = print_module(module).split("\n\n")
        manager = PassManager(policy=policy)
        manager.add(MutateThenThrow())
        manager.run(module)

        verify_module(module)
        text = print_module(module)
        # The guilty function is byte-identical to its pre-pass self...
        victim_text = next(p for p in victim_before if "victim" in p
                           and "int %victim" in p)
        assert victim_text in text
        # ...while the innocents kept the renames the pass made.
        assert ".t:" in text
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        assert policy.statistics()["passes.rolled_back"] == 1

    def test_rollback_keeps_an_unclaimed_change(self):
        """Pass A edits @victim but reports no change; pass B then
        raises on @victim.  B's rollback must restore what A left: a
        record is valid only while its function's epoch is, so A's move
        retires the one taken before it."""
        from repro.core import print_function, types
        from repro.core.instructions import BinaryOperator, Opcode
        from repro.core.values import ConstantInt
        from repro.transforms import FunctionPassAdaptor

        def unclaimed(function):
            if function.name == "victim":
                one = ConstantInt(types.INT, 1)
                function.entry_block.insert(
                    0, BinaryOperator(Opcode.ADD, one, one, "planted"))
            return False

        left_by_a = []

        def crash(function):
            if function.name == "victim":
                left_by_a.append(print_function(function))
                raise RuntimeError("planted bug")
            return False

        policy = FaultPolicy(reduce_testcases=False)
        module = fresh_module()
        manager = PassManager(policy=policy)
        manager.add(FunctionPassAdaptor(unclaimed, "unclaimed"))
        manager.add(FunctionPassAdaptor(crash, "crash"))
        manager.run(module)

        victim = module.functions["victim"]
        assert policy.statistics()["passes.rolled_back"] == 1
        assert "%planted" in left_by_a[0]
        assert print_function(victim) == left_by_a[0]
        verify_module(module)

    def test_fault_tolerant_timings_count_each_pass_once(self):
        """-time-passes audit: one transactional run records every pass
        exactly once, and containment time bills to the causing pass."""
        from repro.stats import Stats

        policy = FaultPolicy(reduce_testcases=False)
        sink = Stats()
        module = fresh_module()
        manager = PassManager(policy=policy, stats=sink)
        manager.add(SimplifyCFG())
        manager.add(EvilFunctionPass("victim"))
        manager.add(PromoteMem2Reg())
        manager.run(module)

        assert sink.runs == {"simplifycfg": 1, "evil": 1, "mem2reg": 1}
        # The crashing pass's containment overhead is its own bill.
        assert sink.seconds["evil"] > 0.0


class TestOneManager:
    """ISSUE 12: one PassManager, containment as a collaborator.  Each
    of the first three tests fails on the plain/transactional fork."""

    LIAR_IR = """
int %f() {
entry:
  %dead = add int 1, 2
  ret int 0
}
"""

    def test_verify_each_composes_with_policy(self):
        """A pass that mutates while claiming "no change" used to ship
        unverified IR under a policy (only the other manager audited
        the flag).  Now it is rolled back, poisoned and reported."""
        from repro.transforms import FunctionPassAdaptor

        def liar(function):
            function.entry_block.instructions[0].erase_from_parent()
            return False  # the lie

        policy = FaultPolicy(reduce_testcases=False)
        module = parse_module(self.LIAR_IR)
        before = write_bytecode(module, strip_names=False)
        manager = PassManager(verify_each=True, policy=policy)
        manager.add(FunctionPassAdaptor(liar, "liar"))
        assert manager.run(module) is False

        assert write_bytecode(module, strip_names=False) == before
        assert policy.is_poisoned("liar", module.name, "f")
        (report,) = policy.crash_reports
        assert report.error_type == "ChangedFlagLie"
        assert report.pass_name == "liar" and report.function == "f"
        assert policy.statistics()["passes.rolled_back"] == 1

    def _opt(self, tmp_path, capsys, *flags):
        from repro.tools import lc_cc, lc_opt

        source = tmp_path / "gzip.lc"
        if not source.exists():
            from repro.benchsuite import load_source

            source.write_text(load_source("gzip"))
            assert lc_cc([str(source), "-c",
                          "-o", str(tmp_path / "in.bc")]) == 0
        out = tmp_path / "out.bc"
        assert lc_opt([str(tmp_path / "in.bc"), "-O", "2", "-c",
                       "-o", str(out), *flags]) == 0
        return out.read_bytes(), capsys.readouterr().err

    def test_fault_tolerant_stats_keep_the_per_pass_rows(self, tmp_path,
                                                         capsys):
        """`lc-opt -O2 --fault-tolerant -stats` used to lose every
        per-pass counter: the ladder kept its managers to itself."""
        _, plain = self._opt(tmp_path, capsys, "-stats")
        _, contained = self._opt(tmp_path, capsys, "-stats",
                                 "--fault-tolerant")

        def rows(err):
            return [line for line in err.splitlines()
                    if line[:8].strip().isdigit()
                    and "fault-policy" not in line]

        assert rows(plain) == rows(contained)
        sources = {line.split()[1] for line in rows(plain)}
        assert {"instcombine", "gvn", "licm", "rangeopt"} <= sources
        assert any("fault-policy" in line for line in contained.splitlines())
        # A level, not a counter: -O2's two InstCombine instances load
        # the same rules (this row once read twice the rule count).
        from repro.transforms.peephole import load_generated_rules

        (loaded,) = [line for line in rows(plain)
                     if "generated_rules_loaded" in line]
        assert int(loaded.split()[0]) == len(load_generated_rules())

    def test_verify_each_and_fault_tolerant_emit_the_same_bytes(
            self, tmp_path, capsys):
        """--verify-each was silently ignored next to any fault flag."""
        audited, _ = self._opt(tmp_path, capsys, "--verify-each")
        both, err = self._opt(tmp_path, capsys, "--verify-each",
                              "--fault-tolerant", "-stats")
        assert audited == both
        assert "contained" not in err
        assert self._opt(tmp_path, capsys)[0] == audited


class _CallCounter:
    """Counts calls through one attribute of a module or a class: a
    name of the pass manager's namespace, or a method every caller
    goes through."""

    def __init__(self, monkeypatch, name, owner=None):
        from repro.transforms import passmanager

        owner = passmanager if owner is None else owner
        self.calls = 0
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def _serializations(monkeypatch):
    """Counts every bytecode serialization, whoever asks for it."""
    from repro.bitcode.writer import BytecodeWriter

    return _CallCounter(monkeypatch, "write", BytecodeWriter)


def _printings(monkeypatch):
    """Counts every use of the IR printer (``repro.core.printer``),
    whoever asks for it."""
    from repro.core.printer import ModulePrinter

    return _CallCounter(monkeypatch, "__init__", ModulePrinter)


class TestTrackingCostPins:
    """Operation-count pins (in the style of the O(uses) pins): what the
    manager prints, serializes and records on each path, so the plain
    path's cost cannot drift and the contained path stays structural."""

    @staticmethod
    def _noop(name):
        from repro.transforms import FunctionPassAdaptor

        return FunctionPassAdaptor(lambda function: False, name)

    def test_plain_path_never_prints_or_serializes(self, monkeypatch):
        prints = _printings(monkeypatch)
        records = _CallCounter(monkeypatch, "snapshot_function")
        writes = _serializations(monkeypatch)
        module = fresh_module()
        optimize_module(module, 2)
        assert (prints.calls, writes.calls, records.calls) == (0, 0, 0)
        assert "alloca" not in print_module(module)  # it did run

    def test_policy_records_once_per_function_then_once_per_move(
            self, monkeypatch):
        from repro.transforms import FunctionPassAdaptor, ModulePassAdaptor

        def move_victim(function):
            """Takes the first instruction out and puts it back: the
            epoch moves, the text does not."""
            if function.name != "victim":
                return False
            entry = function.blocks[0]
            first = entry.instructions[0]
            first.remove_from_parent()
            entry.insert(0, first)
            return True

        def rename_victim(function):
            if function.name != "victim":
                return False
            function.blocks[0].name = f"{function.blocks[0].name}.t"
            return True

        prints = _printings(monkeypatch)
        records = _CallCounter(monkeypatch, "snapshot_function")
        writes = _serializations(monkeypatch)
        module = fresh_module()
        functions = len(module.functions)  # declarations are recorded too
        after_pass = []  # records so far, sampled after each real pass

        def sample(module):
            after_pass.append(records.calls)
            return False

        manager = PassManager(policy=FaultPolicy(reduce_testcases=False))
        for pass_obj in (self._noop("first"),
                         FunctionPassAdaptor(move_victim, "move"),
                         FunctionPassAdaptor(rename_victim, "rename"),
                         self._noop("last")):
            manager.add(pass_obj)
            manager.add(ModulePassAdaptor(sample, f"after-{pass_obj.name}"))
        manager.run(module)
        # One record of every function; after that one per move of the
        # victim's epoch: the reinsertion, then the rename.  The
        # sampling module passes reuse every record that is still valid.
        assert after_pass == [functions, functions + 1,
                              functions + 2, functions + 2]
        assert (prints.calls, writes.calls) == (0, 0)
        # A second run() keeps the records (the epoch is right by
        # construction) and takes only the same two moves.
        manager.run(module)
        assert records.calls == functions + 4

    def test_verify_each_never_prints(self, monkeypatch):
        prints = _printings(monkeypatch)
        module = fresh_module()
        optimize_module(module, 2, verify_each=True)
        assert prints.calls == 0
        assert "alloca" not in print_module(module)  # it did run

    def test_verify_each_never_serializes(self, monkeypatch):
        from repro.transforms import ModulePassAdaptor

        writes = _serializations(monkeypatch)
        manager = PassManager(verify_each=True)
        manager.add(SimplifyCFG())
        manager.add(PromoteMem2Reg())
        manager.add(ModulePassAdaptor(lambda module: False, "ipo-noop"))
        manager.add(SimplifyCFG())
        manager.run(fresh_module())
        assert writes.calls == 0

    @pytest.mark.parametrize("contained", [False, True],
                             ids=["plain", "policy"])
    def test_one_dominator_tree_per_function_epoch(self, monkeypatch,
                                                   contained):
        """Passes and the verifier share one tree per body: none is
        built twice for a (function, epoch)."""
        from repro.analysis.dominators import DominatorTree

        built = {}
        real = DominatorTree.__init__

        def counted(tree, function):
            key = (function, function.epoch)
            built[key] = built.get(key, 0) + 1
            real(tree, function)

        monkeypatch.setattr(DominatorTree, "__init__", counted)
        policy = FaultPolicy(reduce_testcases=False) if contained else None
        optimize_module(fresh_module(), 2, policy=policy)
        assert built and max(built.values()) == 1

    MEMORY_SRC = """
int g;
int table[16];
int fill(int* out, int n) {
  int i;
  int first;
  first = g;
  out[0] = 1;
  for (i = 0; i < n; i = i + 1) { out[i] = g + table[3]; }
  return first + g;
}
int scale(int* out, int n) {
  int i;
  int first;
  first = table[2];
  out[1] = 2;
  for (i = 0; i < n; i = i + 1) { out[i] = out[i] * table[2]; }
  return first + table[2];
}
int main() {
  int buf[8];
  g = 3;
  return fill(buf, 8) + scale(buf, 8);
}
"""

    @pytest.mark.parametrize("contained", [False, True],
                             ids=["plain", "policy"])
    def test_gvn_and_licm_build_one_dsa_per_sweep(self, monkeypatch,
                                                  contained):
        """Both passes ask for the module's DSA in more than one
        function; the pass sweep's memo builds it once."""
        import contextlib

        from repro.analysis.dsa import DataStructureAnalysis
        from repro.transforms import gvn, licm, passmanager

        fetches = {"gvn": _CallCounter(monkeypatch, "module_analysis", gvn),
                   "licm": _CallCounter(monkeypatch, "module_analysis",
                                        licm)}
        builds = []  # DSA constructions per sweep
        real_sweep, real_init = (passmanager.pass_sweep,
                                 DataStructureAnalysis.__init__)

        @contextlib.contextmanager
        def sweep():
            builds.append(0)
            with real_sweep() as memo:
                yield memo

        def init(analysis, module):
            builds[-1] += 1
            real_init(analysis, module)

        monkeypatch.setattr(passmanager, "pass_sweep", sweep)
        monkeypatch.setattr(DataStructureAnalysis, "__init__", init)
        policy = FaultPolicy(reduce_testcases=False) if contained else None
        optimize_module(compile_source(self.MEMORY_SRC, "m"), 2,
                        policy=policy)
        assert fetches["gvn"].calls >= 2 and fetches["licm"].calls >= 2
        assert sum(builds) == 2 and max(builds) == 1


# ----------------------------------------------------------------------
# The degradation ladder (tentpole part 2)
# ----------------------------------------------------------------------

class TestDegradationLadder:
    def test_falls_back_to_level_without_the_bad_pass(self, monkeypatch):
        """GVN (an -O2 pass) always crashing: -O2 is abandoned, -O1
        succeeds, and the output is still correct."""
        from repro.transforms import gvn as gvn_module

        def boom(self, function):
            raise RuntimeError("gvn is broken today")

        monkeypatch.setattr(gvn_module.GVN, "run_on_function", boom)
        policy = FaultPolicy(max_poisoned_passes=0, reduce_testcases=False)
        module = fresh_module()
        optimize_module(module, 2, policy=policy)

        verify_module(module)
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        assert policy.statistics()["fallbacks.taken"] >= 1

    def test_retry_after_fallback_skips_poisoned_work(self, monkeypatch):
        """SimplifyCFG (present at every level >= 1) always crashing:
        the first attempt is abandoned, and the retry succeeds because
        the poison marks persist — the broken pass is skipped, every
        healthy pass still runs.  Strictly better than dropping to -O0."""
        from repro.transforms import simplifycfg as cfg_module

        def boom(self, function):
            raise RuntimeError("simplifycfg is broken today")

        monkeypatch.setattr(cfg_module.SimplifyCFG, "run_on_function", boom)
        policy = FaultPolicy(max_poisoned_passes=0, reduce_testcases=False)
        module = fresh_module()
        optimize_module(module, 2, policy=policy)

        assert policy.statistics()["fallbacks.taken"] >= 1
        assert policy.statistics()["crashes.reported"] >= 1
        verify_module(module)
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        # The healthy passes did run on the retry: SSA got built.
        assert "alloca" not in print_module(module)

    def test_policy_threads_through_compile_and_link(self, monkeypatch):
        from repro.transforms import gvn as gvn_module

        def boom(self, function):
            raise RuntimeError("gvn is broken today")

        monkeypatch.setattr(gvn_module.GVN, "run_on_function", boom)
        policy = FaultPolicy(reduce_testcases=False)
        module = compile_and_link([SRC], "program", 2, policy=policy)
        verify_module(module)
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        assert policy.statistics()["passes.rolled_back"] >= 1


@pytest.mark.parametrize("program", ["art", "equake", "twolf"])
def test_every_mode_emits_identical_bytecode(program):
    """Tracking only observes: -O2 + LTO plain, audited (verify_each),
    contained (a FaultPolicy) and both produce the same bytes, and
    nothing is rolled back on the way."""
    from repro.benchsuite import load_source

    source = load_source(program)

    def build(verify_each, contained):
        policy = FaultPolicy(reduce_testcases=False) if contained else None
        module = compile_and_link([source], program, 2, lto=True,
                                  verify_each=verify_each, policy=policy)
        if policy is not None:
            stats = policy.statistics()
            assert stats["passes.rolled_back"] == 0
            assert stats["crashes.reported"] == 0
        return write_bytecode(module, strip_names=False)

    plain = build(False, False)
    assert build(True, False) == plain
    assert build(False, True) == plain
    assert build(True, True) == plain


# ----------------------------------------------------------------------
# Bytecode reader hardening (satellite)
# ----------------------------------------------------------------------

class TestBytecodeHardening:
    def _blob(self):
        return write_bytecode(fresh_module(), strip_names=False)

    def test_thousand_byte_flips_raise_only_bytecode_error(self):
        """The ISSUE 5 acceptance criterion: 1000 fixed-seed single
        byte-flip mutations — nothing but BytecodeError ever escapes."""
        blob = self._blob()
        rng = random.Random(0xC0FFEE)
        rejected = decoded = 0
        for _ in range(1000):
            mutant = bytearray(blob)
            mutant[rng.randrange(len(mutant))] ^= 1 << rng.randrange(8)
            try:
                read_bytecode(bytes(mutant))
                decoded += 1
            except BytecodeError:
                rejected += 1
            # Any other exception type propagates and fails the test.
        assert rejected + decoded == 1000
        assert rejected > 100  # the magic/header/counts actually bite

    def test_every_truncation_raises_bytecode_error(self):
        blob = self._blob()
        for cut in range(len(blob)):
            with pytest.raises(BytecodeError):
                read_bytecode(blob[:cut])

    def test_error_carries_offset_and_section(self):
        blob = self._blob()
        with pytest.raises(BytecodeError) as info:
            read_bytecode(blob[: len(blob) // 2])
        assert info.value.offset is not None
        assert info.value.section is not None
        rendered = str(info.value)
        assert "byte offset" in rendered and "section" in rendered

    def test_newer_version_is_structured_error(self):
        blob = bytearray(self._blob())
        blob[4] = 99  # the version byte, right after the magic
        with pytest.raises(BytecodeError, match="version"):
            read_bytecode(bytes(blob))

    def test_garbage_is_structured_error(self):
        for garbage in (b"", b"ll", b"not bytecode at all", b"llvm"):
            with pytest.raises(BytecodeError):
                read_bytecode(garbage)

    def test_body_longer_than_it_decodes_is_rejected(self):
        """A body's declared length is checked, not just skipped by the
        lazy reader: one input must not decode two ways."""
        from repro.bitcode.reader import read_bytecode_lazy

        # @g's signature puts ``void`` (the type of ``ret``) in the
        # type table, so with @f declared only the bodies section
        # differs: an empty body is a zero length.
        tail = "declare void %g()\n"
        blob = write_bytecode(parse_module(
            "int %f(int %x) {\nentry:\n  ret int %x\n}\n" + tail))
        header = write_bytecode(parse_module(
            "declare int %f(int %x)\n" + tail))[:-2]
        length, body = blob[len(header)], blob[len(header) + 1:-1]
        assert blob == header + bytes([length]) + body + b"\x00"
        assert length == len(body) + 1 < 0x7F  # a one-byte uleb
        # The first forgery runs @f's declared span over @g's length,
        # the second gives @g one more zero byte to read as its own.
        forged = header + bytes([length + 1]) + body + b"\x00"
        for data in (forged, forged + b"\x00"):
            with pytest.raises(BytecodeError, match="length"):
                read_bytecode(data)
        # The lazy reader skips by the declared length, so it finds the
        # mismatch when the body is materialized.
        module, decoder = read_bytecode_lazy(forged + b"\x00")
        with pytest.raises(BytecodeError, match="length"):
            decoder.materialize(module.functions["f"])

    # Record positions: %x 0; blocks entry 1, next 2; add 3, call 4,
    # br 5, ret 6; so 7 is past the body.  Operand ids: the symbols %g
    # and %f, the pool's ``int 1``, then position p is id 3 + p.
    FORGE_SOURCE = ("declare void %g()\n"
                    "int %f(int %x) {\nentry:\n  %y = add int %x, 1\n"
                    "  call void %g()\n  br label %next\nnext:\n"
                    "  ret int %y\n}\n")

    @pytest.mark.parametrize("opcode, original, forged", [
        ("br", 2, 0), ("br", 2, 3), ("br", 2, 7),
        ("add", 0, 1), ("add", 0, 4), ("ret", 3, 2), ("ret", 3, 4),
        ("ret", 3, 7),
    ], ids=["br-argument", "br-instruction", "br-past-the-body",
            "add-block", "add-void-instruction", "ret-block",
            "ret-void-instruction", "ret-past-the-body"])
    def test_forged_operand_is_rejected(self, opcode, original, forged):
        """A local operand of the wrong kind is refused by the reader,
        not left for the verifier: a label must name a block, any other
        local an argument or a value-producing instruction."""
        import struct

        from repro.bitcode.writer import _OPCODE_INDEX
        from repro.core import Opcode

        blob = write_bytecode(parse_module(self.FORGE_SOURCE))
        read_bytecode(blob)
        # The packed word of ``opcode``: opcode, type, then operand A
        # (stored plus one).
        number = _OPCODE_INDEX[Opcode(opcode)] + 1
        words = [i for i in range(len(blob) - 3)
                 if struct.unpack_from("<I", blob, i)[0] >> 26 == number
                 and (struct.unpack_from("<I", blob, i)[0] >> 9) & 0x1FF
                 == 3 + original + 1]
        assert len(words) == 1
        word = struct.unpack_from("<I", blob, words[0])[0]
        mutant = bytearray(blob)
        struct.pack_into("<I", mutant, words[0],
                         word + ((forged - original) << 9))
        with pytest.raises(BytecodeError, match="names no"):
            read_bytecode(bytes(mutant))

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(BytecodeError, match="last body"):
            read_bytecode(self._blob() + b"\x00\x01\x02junk")


# ----------------------------------------------------------------------
# Cache robustness (satellite)
# ----------------------------------------------------------------------

class TestCacheRobustness:
    def _warm(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        key = cache.key(SRC, 1)
        cache.store(key, fresh_module())
        return cache, key

    def _entry_path(self, tmp_path, key):
        return os.path.join(str(tmp_path), f"{key}.bc")

    def test_flipped_byte_is_miss_and_eviction(self, tmp_path):
        cache, key = self._warm(tmp_path)
        path = self._entry_path(tmp_path, key)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x10
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        assert cache.load(key) is None
        assert cache.statistics()["cache-misses"] == 1
        assert cache.statistics()["cache-evictions"] == 1
        assert not os.path.exists(path)  # evicted, next store re-creates

    def test_truncated_entry_is_miss_and_eviction(self, tmp_path):
        cache, key = self._warm(tmp_path)
        path = self._entry_path(tmp_path, key)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 3])
        assert cache.load(key) is None
        assert cache.statistics()["cache-evictions"] == 1

    def test_newer_toolchain_entry_is_miss_not_raise(self, tmp_path):
        """An entry whose *payload* was written by a newer bytecode
        format passes the integrity frame but fails the decoder with a
        version error — still a miss + eviction, never a raise."""
        cache, key = self._warm(tmp_path)
        payload = bytearray(write_bytecode(fresh_module(),
                                           strip_names=False))
        payload[4] = 99  # future version byte
        cache.store_bytes(key, bytes(payload))  # correctly framed
        assert cache.load(key) is None
        assert cache.statistics()["cache-evictions"] == 1

    def test_foreign_file_is_miss(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        key = cache.key(SRC, 1)
        with open(self._entry_path(tmp_path, key), "wb") as handle:
            handle.write(b"this was never a cache entry")
        assert cache.load(key) is None

    def test_concurrent_writer_and_reader_share_one_directory(self, tmp_path):
        """Two cache handles (as two compiler processes would hold) on
        one directory: racing store/load never raises and never yields
        a wrong module — only a hit with the right content or a miss."""
        writer_cache = BytecodeCache(str(tmp_path))
        reader_cache = BytecodeCache(str(tmp_path))
        module = fresh_module()
        expected = print_module(module)
        key = writer_cache.key(SRC, 1)
        errors: list = []

        def writer():
            try:
                for _ in range(150):
                    writer_cache.store(key, module)
                    writer_cache.invalidate(key)
            except Exception as error:  # pragma: no cover - the assert
                errors.append(error)

        def reader():
            try:
                for _ in range(300):
                    loaded = reader_cache.load(key)
                    if loaded is not None:
                        assert print_module(loaded) == expected
            except Exception as error:  # pragma: no cover - the assert
                errors.append(error)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


# ----------------------------------------------------------------------
# Summary-sidecar robustness (satellite)
# ----------------------------------------------------------------------

class TestSidecarRobustness:
    def test_corrupt_sidecar_degrades_to_recompute(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        clean = lint_whole_program([SRC], level=2, cache=cache)
        clean_rendered = [d.render() for d in clean.diagnostics]
        key = cache.key(SRC, 2, tag="ipa-summary")
        assert cache.load_summary(key), \
            "warm lint should have stored summary sidecars"
        with open(os.path.join(str(tmp_path), f"{key}.bc"), "w") as handle:
            handle.write("\x00 this is not json {")

        relint = lint_whole_program([SRC], level=2, cache=cache)
        assert [d.render() for d in relint.diagnostics] == clean_rendered
        assert cache.statistics()["summary-evictions"] == 1


# ----------------------------------------------------------------------
# Fault injection (tentpole part 3)
# ----------------------------------------------------------------------

class TestFaultInjection:
    def test_site_catalogue_tracks_the_real_pipelines(self):
        sites = registered_sites()
        for static in ("cache.read", "bytecode.truncate", "bytecode.corrupt",
                       "sidecar.corrupt", "linker.symbol-clash"):
            assert static in sites
        for pass_site in ("pass:gvn", "pass:simplifycfg", "pass:inline",
                          "pass:internalize"):
            assert pass_site in sites

    def test_arming_an_unknown_site_is_an_error(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faultinject.arm("pass:not-a-pass")
        faultinject.disarm()

    def test_plans_are_single_shot(self):
        with faultinject.injected("pass:gvn", 3) as plan:
            with pytest.raises(InjectedFault):
                faultinject.check("pass:gvn")
            faultinject.check("pass:gvn")  # second hit: disarmed
            assert plan.fired
        faultinject.check("pass:gvn")  # context exited: nothing armed

    def test_mangling_is_deterministic(self):
        data = bytes(range(64))
        with faultinject.injected("cache.read", 7):
            first = faultinject.mangle("cache.read", data)
        with faultinject.injected("cache.read", 7):
            second = faultinject.mangle("cache.read", data)
        assert first == second != data

    def test_injected_pass_fault_is_transient_not_poisonous(self):
        """A single-shot fault fails one transaction; the per-function
        retry succeeds, so nothing gets poisoned and nothing degrades."""
        policy = FaultPolicy(reduce_testcases=False)
        with faultinject.injected("pass:gvn", 1):
            module = compile_and_link([SRC], "program", 2, policy=policy)
        verify_module(module)
        assert run_interpreter(module, STEP_LIMIT) == reference_outcome()
        stats = policy.statistics()
        assert stats["passes.rolled_back"] == 1
        assert stats["passes.poisoned"] == 0

    def test_matrix_subset_is_clean(self):
        report = run_fault_matrix(
            program_seeds=(401,), size=1,
            sites=("pass:instcombine", "cache.read", "bytecode.truncate",
                   "sidecar.corrupt", "linker.symbol-clash"),
            step_limit=STEP_LIMIT)
        assert report.clean, "\n".join(o.describe()
                                       for o in report.failures)
        assert len(report.outcomes) == 5


# ----------------------------------------------------------------------
# Lifelong session fault tolerance
# ----------------------------------------------------------------------

class TestLifelongFaultTolerance:
    def test_reoptimizer_crash_is_contained(self, monkeypatch):
        policy = FaultPolicy(reduce_testcases=False)
        session = LifelongSession([SRC], level=1, fault_policy=policy)
        before = session.run().exit_value

        from repro.profile import OfflineReoptimizer

        def boom(self, module, profile, **kwargs):
            module.functions["main"].delete_body()  # half-done rewrite
            raise RuntimeError("reoptimizer bug")

        monkeypatch.setattr(OfflineReoptimizer, "run", boom)
        report = session.reoptimize()
        assert report.hot_functions == []
        assert session.run().exit_value == before  # rolled back, still runs
        assert any(r.pass_name == "reoptimizer"
                   for r in policy.crash_reports)

    def test_reoptimizer_crash_report_is_a_real_one(self, monkeypatch):
        """The reoptimizer is a module-pass transaction of the one
        manager: its crash report carries the traceback (the hand-rolled
        containment it replaces shipped an empty one) and the module is
        byte-identical to its pre-reoptimization self."""
        policy = FaultPolicy(reduce_testcases=False)
        session = LifelongSession([SRC], level=1, fault_policy=policy)
        session.run()
        before = write_bytecode(session.module, strip_names=False)
        shipped = session.bytecode

        from repro.profile import OfflineReoptimizer

        def boom(self, module, profile, **kwargs):
            module.functions["main"].delete_body()  # half-done rewrite
            raise RuntimeError("reoptimizer bug")

        monkeypatch.setattr(OfflineReoptimizer, "run", boom)
        session.reoptimize()
        (report,) = policy.crash_reports
        assert report.pass_name == "reoptimizer"
        assert report.error_type == "RuntimeError"
        assert "reoptimizer bug" in report.traceback
        assert "boom" in report.traceback
        assert write_bytecode(session.module, strip_names=False) == before
        assert session.bytecode == shipped
        stats = policy.statistics()
        assert stats["passes.rolled_back"] == 1
        assert stats["crashes.reported"] == 1

    def test_profile_follows_the_rollback(self, monkeypatch):
        """A rollback rebuilds every block; the profile's counts move
        onto the rebuilt blocks by position, so the next reoptimize
        still sees what the runs so far measured."""
        policy = FaultPolicy(reduce_testcases=False)
        session = LifelongSession([SRC], level=1, fault_policy=policy)
        session.run()
        measured = session.profile.to_json()

        from repro.profile import OfflineReoptimizer

        def boom(self, module, profile, **kwargs):
            module.functions["main"].delete_body()  # half-done rewrite
            raise RuntimeError("reoptimizer bug")

        monkeypatch.setattr(OfflineReoptimizer, "run", boom)
        session.reoptimize()
        assert session.profile.to_json() == measured
        live = {id(block) for function in session.module.functions.values()
                for block in function.blocks}
        assert {id(block) for block in session.profile.counts} <= live

    def test_without_policy_reoptimizer_crash_propagates(self, monkeypatch):
        session = LifelongSession([SRC], level=1)
        from repro.profile import OfflineReoptimizer

        def boom(self, module, profile, **kwargs):
            raise RuntimeError("reoptimizer bug")

        monkeypatch.setattr(OfflineReoptimizer, "run", boom)
        with pytest.raises(RuntimeError):
            session.reoptimize()


# ----------------------------------------------------------------------
# Tool flags
# ----------------------------------------------------------------------

class TestToolFlags:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "prog.lc"
        path.write_text(SRC)
        return str(path)

    def test_lc_cc_fault_inject_and_stats(self, source_file, tmp_path,
                                          capsys):
        from repro.tools import lc_cc

        out = tmp_path / "prog.ll"
        code = lc_cc([source_file, "-O", "2", "-o", str(out),
                      "--fault-inject", "pass:gvn", "-stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "passes.rolled_back" in captured.err
        assert "contained" in captured.err
        assert "%main" in out.read_text()

    def test_lc_opt_crash_dir(self, source_file, tmp_path, capsys):
        from repro.tools import lc_cc, lc_opt

        bc = tmp_path / "prog.bc"
        assert lc_cc([source_file, "-c", "-o", str(bc)]) == 0
        crashes = tmp_path / "crashes"
        code = lc_opt([str(bc), "-O", "2", "-o", os.devnull,
                       "--fault-inject", "pass:instcombine:5",
                       "--crash-dir", str(crashes)])
        capsys.readouterr()
        assert code == 0
        assert any(n.endswith(".json") for n in os.listdir(crashes))

    def test_lc_opt_rejects_unknown_site(self, source_file, tmp_path,
                                         capsys):
        from repro.tools import lc_cc, lc_opt

        bc = tmp_path / "prog.bc"
        assert lc_cc([source_file, "-c", "-o", str(bc)]) == 0
        with pytest.raises(SystemExit):
            lc_opt([str(bc), "-O", "1", "--fault-inject", "no.such.site"])
        capsys.readouterr()

    def test_lc_fuzz_lists_sites(self, capsys):
        from repro.tools import lc_fuzz

        assert lc_fuzz(["--list-fault-sites"]) == 0
        out = capsys.readouterr().out
        assert "cache.read" in out and "pass:gvn" in out

    def test_lc_fuzz_single_cell_matrix(self, capsys):
        from repro.tools import lc_fuzz

        code = lc_fuzz(["--fault-inject", "linker.symbol-clash",
                        "--size", "1", "-q"])
        err = capsys.readouterr().err
        assert code == 0
        assert "0 failing" in err
