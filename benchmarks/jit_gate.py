"""CI gate for the trace-compiling JIT tier: zero divergence, real speed.

Every benchsuite program compiles at -O2 + LTO and runs twice: once
under the plain IR interpreter (the reference) and once with the trace
tier armed — hot loop headers promote to recording, each recorded path
compiles to a guarded Python closure, and guard failures side-exit back
to the interpreter with fully reconstructed state.  The gate holds the
tier to five promises:

* **correctness** — exit value, printed output, and total interpreter
  steps match the reference exactly on every program, cold and warm
  (a side exit that rebuilt the interpreter's state wrongly shows up
  here);
* **derivation** — every trace inlines its arithmetic from
  ``core/constfold.py``'s table; none calls back into ``eval_binary`` /
  ``eval_cast`` (``_eb(`` / ``_ec(``) per execution;
* **coverage** — the suite compiles at least ``MIN_TRACES`` traces (the
  hot-path detector is finding real loops, not idling) and at most
  ``MAX_TRACES_COMPILED``, a tree recompiled to grow a branch counting
  as one more (a header whose trace is recorded and compiled again
  and again is recompile thrash; the count is deterministic, so the
  ceiling is exact);
* **trees** — vpr's warm run, whose hot loop is one tree, enters
  traces from the interpreter's block event at most
  ``MAX_VPR_ENTRIES_FROM_INTERPRETER`` times (each other entry is a
  side exit linked straight into a trace, or no exit at all);
* **speed** — the interpreter-steps ratio (reference steps over steps
  actually interpreted, i.e. steps not absorbed by traces) reaches
  ``MIN_STEPS_RATIO`` on at least ``MIN_FAST_PROGRAMS`` of the
  designated hot-loop programs, and on at least ``MIN_FAST_SUITE`` of
  the whole suite.  Steps are deterministic, so this gate is
  machine-independent; wall-clock speedup is measured warm (the
  trace cache persists into a second run, the lifelong steady state)
  and recorded in the report, but never gated on.

The per-program table is written as JSON next to the lc-bench reports
so CI can archive the speedup trajectory.

Usage:  PYTHONPATH=src python benchmarks/jit_gate.py [-o report.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.benchsuite import benchmark_names, compile_benchmark
from repro.execution import Interpreter, TraceManager

#: The whole suite must compile at least this many traces...
MIN_TRACES = 10
#: ...and at most this many, cold and warm runs together, counting
#: each tree recompile.
MAX_TRACES_COMPILED = 400
#: vpr's warm run re-enters its traces from the interpreter at most
#: this often (49 156 times before trees: every exit fell back).
MAX_VPR_ENTRIES_FROM_INTERPRETER = 5000
#: Required interpreter-steps ratio (reference / interpreted-under-JIT)
#: on the designated programs...
MIN_STEPS_RATIO = 5.0
#: ...for at least this many of them.
MIN_FAST_PROGRAMS = 3
#: Hot-loop programs the speed half of the gate is allowed to count.
DESIGNATED = ("gzip", "mesa", "equake", "ammp", "bzip2")
#: The same ratio on at least this many programs of the whole suite.
MIN_FAST_SUITE = 8

HOT_THRESHOLD = 50
STEP_LIMIT = 200_000_000


def _run(module, manager=None):
    """(exit code, output, steps, seconds) of one interpreter run."""
    interp = Interpreter(module, step_limit=STEP_LIMIT)
    if manager is not None:
        manager.attach(interp)
    started = time.perf_counter()
    value = interp.run("main", [])
    code = value if isinstance(value, int) else 0
    seconds = time.perf_counter() - started
    return code, "".join(interp.output), interp.steps, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", default="jit_gate_report.json",
                        help="per-program JSON report path ('-' skips)")
    args = parser.parse_args(argv)

    failures: list[str] = []
    rows = []
    aborted: dict[str, int] = {}
    total_traces = 0
    fast_programs = []
    fast_suite = 0
    started = time.perf_counter()
    for name in benchmark_names():
        module = compile_benchmark(name, level=2, lto=True)
        ref_code, ref_out, ref_steps, ref_seconds = _run(module)

        manager = TraceManager(hot_threshold=HOT_THRESHOLD)
        jit_code, jit_out, jit_steps, _ = _run(module, manager)
        cold_saved = manager.stats.steps_saved
        cold_entries = manager.stats.entries_from_interpreter
        # Warm run: same trace cache, fresh interpreter — the lifelong
        # steady state, where compile cost is already paid.
        warm_code, warm_out, warm_steps, warm_seconds = _run(module, manager)

        for label, code, out, steps in (("cold", jit_code, jit_out,
                                         jit_steps),
                                        ("warm", warm_code, warm_out,
                                         warm_steps)):
            if (code, out, steps) != (ref_code, ref_out, ref_steps):
                failures.append(
                    f"{name}: {label} trace run diverged — "
                    f"exit {code} vs {ref_code}, steps {steps} vs "
                    f"{ref_steps}, output "
                    f"{'matches' if out == ref_out else 'DIFFERS'}")

        # Arithmetic is inlined from constfold's table; a call back into
        # eval_binary/eval_cast per execution must not quietly return.
        delegating = [trace.key for trace in manager.traces.values()
                      if "_eb(" in trace.source or "_ec(" in trace.source]
        if delegating:
            failures.append(f"{name}: {len(delegating)} trace(s) delegate "
                            f"arithmetic (_eb/_ec), first {delegating[0]}")

        for reason, count in manager.stats.aborted.items():
            aborted[reason] = aborted.get(reason, 0) + count
        stats = manager.statistics()
        compiled = stats["traces-compiled"] + stats["tree-recompiles"]
        total_traces += compiled
        warm_entries = stats["entries-from-interpreter"] - cold_entries
        if (name == "vpr"
                and warm_entries > MAX_VPR_ENTRIES_FROM_INTERPRETER):
            failures.append(
                f"vpr: warm run entered traces {warm_entries} times from "
                f"the interpreter (ceiling "
                f"{MAX_VPR_ENTRIES_FROM_INTERPRETER}): exits fall back")
        # Steps-saved accumulates across both runs; the gate's ratio is
        # the warm (steady-state) run's alone.
        warm_saved = stats["steps-saved"] - cold_saved
        interpreted = ref_steps - warm_saved
        steps_ratio = (ref_steps / interpreted) if interpreted > 0 else 1.0
        wall_ratio = (ref_seconds / warm_seconds) if warm_seconds > 0 else 1.0
        if steps_ratio >= MIN_STEPS_RATIO:
            fast_suite += 1
            if name in DESIGNATED:
                fast_programs.append(name)
        rows.append({
            "program": name,
            "ref_steps": ref_steps,
            "steps_ratio": round(steps_ratio, 2),
            "warm_wall_ratio": round(wall_ratio, 2),
            "traces_compiled": compiled,
            "tree_branches": stats["branches-grown"],
            "warm_entries_from_interpreter": warm_entries,
            "linked_entries": stats["linked-entries"],
            "guard_exits": stats["guard-exits"],
            "recordings_aborted": stats["recordings-aborted"],
            "aborted": manager.stats.aborted,
            "blacklisted": manager.stats.blacklisted,
            "steps_saved": warm_saved,
        })
        print(f"jit-gate: {name:10s} steps x{steps_ratio:7.2f}  "
              f"warm wall x{wall_ratio:5.2f}  "
              f"compiles {compiled:3d}  "
              f"branches {stats['branches-grown']:3d}  "
              f"warm entries from interpreter {warm_entries:5d}")

    if total_traces < MIN_TRACES:
        failures.append(f"only {total_traces} trace(s) compiled across the "
                        f"suite (floor {MIN_TRACES})")
    if total_traces > MAX_TRACES_COMPILED:
        failures.append(f"{total_traces} traces and tree recompiles across "
                        f"the suite (ceiling {MAX_TRACES_COMPILED}): "
                        f"recompile thrash")
    if len(fast_programs) < MIN_FAST_PROGRAMS:
        failures.append(
            f"steps ratio >= {MIN_STEPS_RATIO} on only "
            f"{len(fast_programs)} designated program(s) "
            f"({', '.join(fast_programs) or 'none'}); "
            f"need {MIN_FAST_PROGRAMS} of {', '.join(DESIGNATED)}")
    if fast_suite < MIN_FAST_SUITE:
        failures.append(
            f"steps ratio >= {MIN_STEPS_RATIO} on only {fast_suite} of "
            f"{len(rows)} programs; need {MIN_FAST_SUITE}")

    print("jit-gate: recordings aborted by reason: " + ", ".join(
        f"{reason} {count}" for reason, count
        in sorted(aborted.items(), key=lambda item: -item[1])))
    report = {
        "schema": "jit-gate/1",
        "programs": rows,
        "traces_compiled": total_traces,
        "aborted": aborted,
        "fast_programs": fast_programs,
        "fast_suite": fast_suite,
        "total_seconds": round(time.perf_counter() - started, 3),
    }
    if args.o != "-":
        with open(args.o, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"jit-gate: wrote {args.o}")

    for failure in failures:
        print(f"jit-gate: FAIL: {failure}", file=sys.stderr)
    verdict = "FAIL" if failures else "PASS"
    print(f"jit-gate: {verdict} — {total_traces} compiles, "
          f"steps ratio >= {MIN_STEPS_RATIO} on "
          f"{len(fast_programs)}/{MIN_FAST_PROGRAMS} needed designated "
          f"programs and {fast_suite}/{MIN_FAST_SUITE} needed of the "
          f"suite, {len(failures)} failure(s), "
          f"{report['total_seconds']:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
