"""Tests for the lc-bench harness, the baseline gate, and the use-list
complexity pin (ISSUE 7; docs/BENCH.md).

Three contracts:

* the harness is *structurally deterministic* — two runs over the same
  inputs emit the same schema-valid report shape (phase and pass name
  sets), so a committed baseline stays comparable field by field;
* the gate catches both regression kinds (structural: a phase dropped
  out; temporal: a phase got slower than the calibrated tolerance) and
  ignores sub-floor noise;
* ``replace_all_uses_with`` / ``drop_all_references`` on a high-fanout
  value are O(uses) — pinned by counting list operations, not by
  wall-clock, so the pin cannot flake on a loaded CI machine.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import (
    BenchConfig, SCHEMA, compare_runs, default_report_name, run_bench,
    validate_schema, write_report,
)
from repro.bench.compare import load_report

#: One tiny program, minimal repetitions: the harness machinery is what
#: is under test, not the numbers it produces.
FAST = dict(programs=["equake"], warmup=0, repeat=1, rauw_fanout=200,
            jit_programs=["vortex"])


@pytest.fixture(scope="module")
def report():
    return run_bench(BenchConfig(**FAST))


class TestHarness:
    def test_report_is_schema_valid(self, report):
        assert validate_schema(report) == []
        assert report["schema"] == SCHEMA

    def test_expected_phase_coverage(self, report):
        expected = {
            "frontend.lex", "frontend.parse", "frontend.codegen",
            "pipeline.O2", "transact.O2", "verify",
            "bytecode.write", "bytecode.read",
            "cache.store", "cache.lookup", "link", "rauw.highfanout",
        }
        assert expected <= set(report["phases"])
        # The per-pass table read from the pipeline's statistics record.
        assert "mem2reg" in report["passes"]
        assert report["passes"]["mem2reg"]["runs"] >= 1

    def test_structural_determinism(self, report):
        again = run_bench(BenchConfig(**FAST))
        assert set(again["phases"]) == set(report["phases"])
        assert set(again["passes"]) == set(report["passes"])
        assert again["programs"] == report["programs"]
        assert again["schema"] == report["schema"]
        for phase, entry in report["phases"].items():
            assert set(again["phases"][phase]["per_program"]) == set(
                entry["per_program"])

    def test_write_and_reload_round_trip(self, report, tmp_path):
        path = write_report(report, str(tmp_path / "BENCH_test.json"))
        assert load_report(path) == json.loads(json.dumps(report))

    def test_default_report_name(self):
        import datetime

        name = default_report_name(datetime.date(2026, 8, 8))
        assert name == "BENCH_2026-08-08.json"

    def test_validate_schema_rejects_damage(self, report):
        broken = copy.deepcopy(report)
        del broken["phases"]
        assert any("phases" in p for p in validate_schema(broken))
        broken = copy.deepcopy(report)
        broken["schema"] = "lc-bench/999"
        assert validate_schema(broken)
        broken = copy.deepcopy(report)
        broken["calibration_seconds"] = 0
        assert validate_schema(broken)
        assert validate_schema({"schema": SCHEMA})  # everything missing


class TestGate:
    def _baseline(self, report):
        base = copy.deepcopy(report)
        # Lift every phase above the gating floor so the comparisons
        # below actually gate (the FAST config times are tiny).
        for entry in base["phases"].values():
            entry["seconds"] = 1.0
        return base

    def test_identical_runs_pass(self, report):
        base = self._baseline(report)
        regressions, notes = compare_runs(copy.deepcopy(base), base)
        assert regressions == []
        assert any("machine-speed scale" in n for n in notes)

    def test_temporal_regression_caught(self, report):
        base = self._baseline(report)
        current = copy.deepcopy(base)
        current["phases"]["verify"]["seconds"] = 10.0  # 10x the baseline
        regressions, _ = compare_runs(current, base)
        assert any("verify" in r and "regressed" in r for r in regressions)

    def test_structural_regression_caught(self, report):
        base = self._baseline(report)
        current = copy.deepcopy(base)
        del current["phases"]["link"]
        del current["passes"]["mem2reg"]
        regressions, _ = compare_runs(current, base)
        assert any("'link'" in r and "missing" in r for r in regressions)
        assert any("'mem2reg'" in r and "missing" in r for r in regressions)

    def test_sub_floor_phases_not_gated(self, report):
        base = self._baseline(report)
        base["phases"]["verify"]["seconds"] = 0.001  # below the floor
        current = copy.deepcopy(base)
        current["phases"]["verify"]["seconds"] = 5.0  # 5000x "slower"
        regressions, notes = compare_runs(current, base)
        assert regressions == []
        assert any("below gating floor" in n for n in notes)

    def test_calibration_scales_tolerance(self, report):
        """A slower machine (larger calibration time) gets a wider
        band: the same wall-clock 'regression' passes there."""
        base = self._baseline(report)
        current = copy.deepcopy(base)
        current["phases"]["verify"]["seconds"] = 3.0  # > 2x baseline
        regressions, _ = compare_runs(copy.deepcopy(current), base)
        assert regressions  # same-speed machine: a real regression
        current["calibration_seconds"] = (
            base["calibration_seconds"] * 2.0)  # host is 2x slower
        regressions, _ = compare_runs(current, base)
        assert regressions == []  # 3.0 <= 1.0 x 2(scale) x 2(tolerance)

    def test_invalid_report_fails_gate(self, report):
        base = self._baseline(report)
        regressions, _ = compare_runs({"schema": SCHEMA}, base)
        assert any("invalid" in r for r in regressions)


# ---------------------------------------------------------------------------
# use-list complexity pin
# ---------------------------------------------------------------------------

class _CountingList(list):
    """A list that bills every operation to a shared cost meter.

    Constant-time operations cost 1; scanning operations bill their
    worst case, so a linear-scan unlink (the old ``list.remove``-style
    implementation) is charged O(len) per call and blows the budget.
    """

    __slots__ = ("meter",)

    def __init__(self, iterable, meter):
        super().__init__(iterable)
        self.meter = meter

    def append(self, item):
        self.meter["cost"] += 1
        super().append(item)

    def pop(self, *args):
        self.meter["cost"] += 1
        return super().pop(*args)

    def __getitem__(self, index):
        self.meter["cost"] += 1
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.meter["cost"] += 1
        super().__setitem__(index, value)

    def remove(self, item):
        self.meter["cost"] += len(self)
        super().remove(item)

    def index(self, *args):
        self.meter["cost"] += len(self)
        return super().index(*args)

    def insert(self, index, item):
        self.meter["cost"] += len(self)
        super().insert(index, item)


class TestUseListComplexity:
    FANOUT = 10_000
    #: Generous linear budget: the O(1) unlink needs ~4 ops per edge
    #: (read last, write slot, pop, append to the new list); a linear
    #: scan would bill ~FANOUT**2/2 = 50M.
    BUDGET_PER_USE = 16

    def _hub_and_users(self, meter):
        from repro.core import types
        from repro.core.values import User, Value

        hub = Value(types.INT, "hub")
        hub.uses = _CountingList(hub.uses, meter)
        users = [User(types.INT, (hub,)) for _ in range(self.FANOUT)]
        return hub, users

    def test_rauw_is_linear_in_uses(self):
        from repro.core import types
        from repro.core.values import Value

        meter = {"cost": 0}
        hub, users = self._hub_and_users(meter)
        assert len(hub.uses) == self.FANOUT
        replacement = Value(types.INT, "replacement")
        replacement.uses = _CountingList(replacement.uses, meter)
        meter["cost"] = 0  # only bill the RAUW itself
        hub.replace_all_uses_with(replacement)
        assert meter["cost"] <= self.FANOUT * self.BUDGET_PER_USE
        assert not hub.uses
        assert len(replacement.uses) == self.FANOUT
        assert all(u.operands[0] is replacement for u in users)

    def test_drop_all_references_is_linear(self):
        meter = {"cost": 0}
        hub, users = self._hub_and_users(meter)
        meter["cost"] = 0
        for user in users:
            user.drop_all_references()
        assert meter["cost"] <= self.FANOUT * self.BUDGET_PER_USE
        assert not hub.uses

    def test_use_list_integrity_after_churn(self):
        """The swap-remove keeps (use.position, uses[position]) in sync
        through interleaved unlink/relink traffic."""
        from repro.core import types
        from repro.core.values import User, Value

        hub = Value(types.INT, "hub")
        other = Value(types.INT, "other")
        users = [User(types.INT, (hub, hub)) for _ in range(50)]
        # Rewire every other edge away and back again.
        for i, user in enumerate(users):
            if i % 2 == 0:
                user.set_operand(0, other)
        for i, user in enumerate(users):
            if i % 2 == 0:
                user.set_operand(0, hub)
        for value in (hub, other):
            for position, use in enumerate(value.uses):
                assert use.position == position
                assert use.user.operands[use.index] is value
        assert len(hub.uses) == 100
        assert not other.uses
