"""Experiment E7 — sections 3.5/3.6: runtime profiling feeds an offline
(idle-time) reoptimizer that improves the program for its observed use.

The lifelong loop: compile+link with IPO → end-user runs, whose block
entries and hot cycles the execution engine's trace tier records → the
offline reoptimizer inlines hot call paths, forms a superblock along
each cycle the trace tier compiled, and re-lays-out hot code → the
bytecode it ships executes fewer interpreter steps with identical
output.

Interpreter steps are the deterministic stand-in for run time.  Both
sides are measured the way a user would run them: a plain interpreter
over the static build, and over the reoptimized bytecode.
"""

from __future__ import annotations

from repro.bitcode import read_bytecode
from repro.benchsuite import load_source
from repro.driver import LifelongSession
from repro.execution import Interpreter

from conftest import report

#: Programs with hot loops, where trace formation and profile-guided
#: inlining have something to gain.
CANDIDATES = ("gzip", "mcf", "parser", "vortex")
STEP_LIMIT = 200_000_000


def _execute(bytecode: bytes) -> tuple:
    """(exit, output, steps) of ``main`` under a plain interpreter."""
    interp = Interpreter(read_bytecode(bytecode), step_limit=STEP_LIMIT)
    value = interp.run("main")
    return value, "".join(interp.output), interp.steps


def _run_cycle(name: str) -> tuple[int, int, int, int]:
    session = LifelongSession([load_source(name)], name)
    before = _execute(session.bytecode)                 # the static build
    profiled = session.run(step_limit=STEP_LIMIT)       # the end-user run
    assert profiled.steps == before[2], f"{name}: profiling cost steps"
    report = session.reoptimize(hot_call_threshold=5)
    after = _execute(session.bytecode)                  # what ships
    assert after[:2] == before[:2], f"{name}: result or output changed"
    return before[2], after[2], report.traces_formed, report.inlined_calls


def test_lifelong_reoptimization(benchmark):
    def run_all():
        return {name: _run_cycle(name) for name in CANDIDATES}

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    header = (f"{'Benchmark':<10} {'steps before':>13} {'steps after':>12} "
              f"{'change':>8} {'traces':>7} {'inlined':>8}")
    report()
    report("Lifelong reoptimization (interpreter steps; output preserved)")
    report(header)
    report("-" * len(header))
    improved = 0
    for name in CANDIDATES:
        before, after, traces, inlined = rows[name]
        change = (after - before) / before
        improved += int(after < before)
        report(f"{name:<10} {before:>13} {after:>12} {change:>7.1%} "
              f"{traces:>7} {inlined:>8}")
    assert improved >= len(CANDIDATES) // 2, (
        "reoptimization should speed up at least half the candidates"
    )
    total_traces = sum(rows[name][2] for name in CANDIDATES)
    assert total_traces >= 1, "trace formation should fire somewhere"


def test_profile_persistence_roundtrip():
    """Section 3.6: profile data is gathered in the field and shipped to
    the idle-time optimizer; it must survive serialization."""
    from repro.profile import ProfileData

    session = LifelongSession([load_source("mcf")], "mcf")
    session.run()
    text = session.profile.to_json()
    restored = ProfileData.from_json(text, session.module)
    assert restored.counts == session.profile.counts
    assert restored.paths == session.profile.paths


def test_profile_accumulates_across_runs():
    """Multiple end-user runs accumulate into one profile (the paper's
    usage-pattern adaptation story)."""
    session = LifelongSession([load_source("mcf")], "mcf")
    session.run()
    first = dict(session.profile.counts)
    session.run()
    assert session.profile.counts == {block: 2 * count
                                      for block, count in first.items()}
