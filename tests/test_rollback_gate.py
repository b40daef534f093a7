"""The rollback-exactness gate (``benchmarks/rollback_gate.py``) over
two programs of its corpus: a single-TU input and a 13-TU generated
program, so both per-TU and linked-module round trips are exercised."""

from __future__ import annotations

import importlib.util
import os

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")


def _gate_module():
    spec = importlib.util.spec_from_file_location(
        "rollback_gate", os.path.join(BENCHMARKS, "rollback_gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_restore_is_exact_on_two_programs():
    gate_module = _gate_module()
    programs = gate_module.corpus()
    gate = gate_module.Gate()
    for name in ("mcf", "generated-1"):
        gate.check_program(name, programs[name])
    assert gate.failures == []
    assert gate.function_trips > 500
    # Internalize .. heap2stack, in both IPO rounds, on both programs.
    assert gate.module_trips == 2 * 2 * 8
