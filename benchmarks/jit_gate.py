"""CI gate for the trace-compiling JIT tier: zero divergence, real speed.

Every benchsuite program compiles at -O2 + LTO and runs twice: once
under the plain IR interpreter (the reference) and once with the trace
tier armed — hot loop headers promote to recording, each recorded path
compiles to a guarded Python closure, and guard failures side-exit back
to the interpreter with fully reconstructed state.  The gate holds the
tier to four promises:

* **correctness** — exit value, printed output, and total interpreter
  steps match the reference exactly on every program, and no side exit
  ever fires with un-reconstructed state (``unreconstructed-exits`` is
  zero across the suite);
* **derivation** — every trace inlines its arithmetic from
  ``core/constfold.py``'s table; none calls back into ``eval_binary`` /
  ``eval_cast`` (``_eb(`` / ``_ec(``) per execution;
* **coverage** — the suite compiles at least ``MIN_TRACES`` traces (the
  hot-path detector is finding real loops, not idling);
* **speed** — the interpreter-steps ratio (reference steps over steps
  actually interpreted, i.e. steps not absorbed by traces) reaches
  ``MIN_STEPS_RATIO`` on at least ``MIN_FAST_PROGRAMS`` of the
  designated hot-loop programs.  Steps are deterministic, so this gate
  is machine-independent; wall-clock speedup is measured warm (the
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

#: The whole suite must compile at least this many traces.
MIN_TRACES = 10
#: Required interpreter-steps ratio (reference / interpreted-under-JIT)
#: on the designated programs...
MIN_STEPS_RATIO = 5.0
#: ...for at least this many of them.
MIN_FAST_PROGRAMS = 3
#: Hot-loop programs the speed half of the gate is allowed to count.
DESIGNATED = ("gzip", "mesa", "equake", "ammp", "bzip2")

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
    total_traces = 0
    total_unreconstructed = 0
    fast_programs = []
    started = time.perf_counter()
    for name in benchmark_names():
        module = compile_benchmark(name, level=2, lto=True)
        ref_code, ref_out, ref_steps, ref_seconds = _run(module)

        manager = TraceManager(hot_threshold=HOT_THRESHOLD)
        jit_code, jit_out, jit_steps, _ = _run(module, manager)
        cold_saved = manager.stats.steps_saved
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
        delegating = [trace.key for trace in manager.cache.traces()
                      if "_eb(" in trace.source or "_ec(" in trace.source]
        if delegating:
            failures.append(f"{name}: {len(delegating)} trace(s) delegate "
                            f"arithmetic (_eb/_ec), first {delegating[0]}")

        stats = manager.statistics()
        total_traces += stats["traces-compiled"]
        total_unreconstructed += stats["unreconstructed-exits"]
        # Steps-saved accumulates across both runs; the gate's ratio is
        # the warm (steady-state) run's alone.
        warm_saved = stats["steps-saved"] - cold_saved
        interpreted = ref_steps - warm_saved
        steps_ratio = (ref_steps / interpreted) if interpreted > 0 else 1.0
        wall_ratio = (ref_seconds / warm_seconds) if warm_seconds > 0 else 1.0
        if name in DESIGNATED and steps_ratio >= MIN_STEPS_RATIO:
            fast_programs.append(name)
        rows.append({
            "program": name,
            "ref_steps": ref_steps,
            "steps_ratio": round(steps_ratio, 2),
            "warm_wall_ratio": round(wall_ratio, 2),
            "traces_compiled": stats["traces-compiled"],
            "guard_exits": stats["guard-exits"],
            "steps_saved": warm_saved,
            "unreconstructed_exits": stats["unreconstructed-exits"],
        })
        print(f"jit-gate: {name:10s} steps x{steps_ratio:6.2f}  "
              f"warm wall x{wall_ratio:5.2f}  "
              f"traces {stats['traces-compiled']:4d}  "
              f"saved {warm_saved}")

    if total_unreconstructed:
        failures.append(f"{total_unreconstructed} side exit(s) fired with "
                        "un-reconstructed state")
    if total_traces < MIN_TRACES:
        failures.append(f"only {total_traces} trace(s) compiled across the "
                        f"suite (floor {MIN_TRACES})")
    if len(fast_programs) < MIN_FAST_PROGRAMS:
        failures.append(
            f"steps ratio >= {MIN_STEPS_RATIO} on only "
            f"{len(fast_programs)} designated program(s) "
            f"({', '.join(fast_programs) or 'none'}); "
            f"need {MIN_FAST_PROGRAMS} of {', '.join(DESIGNATED)}")

    report = {
        "schema": "jit-gate/1",
        "programs": rows,
        "traces_compiled": total_traces,
        "fast_programs": fast_programs,
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
    print(f"jit-gate: {verdict} — {total_traces} traces, "
          f"steps ratio >= {MIN_STEPS_RATIO} on "
          f"{len(fast_programs)}/{MIN_FAST_PROGRAMS} needed designated "
          f"programs, {total_unreconstructed} unreconstructed exits, "
          f"{len(failures)} failure(s), "
          f"{report['total_seconds']:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
