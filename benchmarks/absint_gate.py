"""CI gate for the abstract interpreter: verified transfers, real folds.

Two halves.  First, the transformer soundness ladder (`lc-absint
--self-check`): every interval and known-bits transfer function is
exhaustively checked against the concrete ``constfold`` semantics at
4 bits, on singletons at 8 bits, and on boundary/seeded samples at the
production widths — any violation means a transfer claims something
some execution contradicts.  Second, the benchsuite compiles at -O2
with --translation-validate: the range-driven ``rangeopt`` pass must
fire exactly the pinned number of rewrites across the suite (a change
to the analysis or to the order its solver visits things in that costs
a fold, or invents one, has to be looked at and re-pinned) while
causing zero validation failures and zero rollbacks (every rewrite it
makes is machine-checked refinement), and the analyses behind them
must stay under a pinned ceiling of transfer-function calls (solver
effort is a count, so a convergence regression fails deterministically).
A second ceiling counts the same calls over the suite built with -O2 and
link-time optimization, where the cost is: the link-time clean-up over
each inlined ``main``.
See docs/ANALYSIS.md, "Value-range abstract interpretation".

Usage:  PYTHONPATH=src python benchmarks/absint_gate.py
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.absint import run_self_check
from repro.benchsuite import benchmark_names, load_source
from repro.driver import FaultPolicy, compile_and_link
from repro.driver.pipelines import standard_pipeline
from repro.frontend import compile_source
from repro.stats import Stats
from repro.transforms import RangeOpt

#: The suite yields exactly this many range-driven rewrites.  Fewer
#: means the analysis lost precision (or rangeopt lost its wiring); more
#: means it found some — either way the per-program table says where.
EXPECTED_FOLDS = 15

#: Ceiling on the transfer-function calls rangeopt's analyses make over
#: the suite.  The count repeats exactly: 9 085 now, 13 289 before a
#: basic induction variable widened at its first grow and the solver
#: revisited a loop's exits only after the loop settled, 41 221 before
#: the widening operator covered the known bits.  A convergence
#: regression — an ascent that gives up one bit per round trip again —
#: multiplies it and fails here by count, not inside a timing bound; the
#: slack is for front-end or pass changes that move a few instructions.
MAX_ABSINT_TRANSFERS = 10_000

#: The same ceiling over the suite built with -O2 and link-time
#: optimization, compile time and link time together: 19 702 now,
#: 29 005 before the two changes above.
MAX_LTO_ABSINT_TRANSFERS = 21_000

LEVEL = 2


def lto_transfers() -> int:
    """rangeopt's transfer calls over the suite at -O2 + LTO."""
    transfers = 0
    for name in benchmark_names():
        stats = Stats()
        compile_and_link([load_source(name)], name, LEVEL, True, stats=stats)
        transfers += stats.view("rangeopt").get("absint-transfers", 0)
    return transfers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="abbreviated self-check ladder (local runs)")
    parser.add_argument("--skip-self-check", action="store_true",
                        help="benchsuite half only (for local iteration)")
    args = parser.parse_args(argv)

    if not args.skip_self_check:
        check_started = time.perf_counter()
        problems = run_self_check(full=not args.fast)
        for problem in problems:
            print(f"absint-gate: UNSOUND: {problem}", file=sys.stderr)
        print(f"absint-gate: transformer self-check: {len(problems)} "
              f"violation(s), {time.perf_counter() - check_started:.1f}s")
        if problems:
            print("absint-gate: FAIL — a transfer function is unsound",
                  file=sys.stderr)
            return 1

    policy = FaultPolicy(translation_validate=True, reduce_testcases=False)
    started = time.perf_counter()
    folds_by_program = {}
    transfers = 0
    failed_programs = []
    for name in benchmark_names():
        program_started = time.perf_counter()
        module = compile_source(load_source(name), name)
        manager = standard_pipeline(LEVEL, policy=policy)
        manager.run(module)
        stats = policy.statistics()
        rangeopt = manager.statistics().get("rangeopt", {})
        folds = folds_by_program[name] = sum(rangeopt.get(key, 0)
                                             for key in RangeOpt.REWRITES)
        transfers += rangeopt.get("absint-transfers", 0)
        print(f"absint-gate: {name:10s} "
              f"{time.perf_counter() - program_started:6.1f}s  "
              f"rangeopt-rewrites={folds} "
              f"failed={stats['validations.failed']} "
              f"rolled_back={stats['passes.rolled_back']}")
        if stats["validations.failed"] or stats["passes.rolled_back"]:
            failed_programs.append(name)
            for report in policy.crash_reports:
                print(f"absint-gate:   {report.describe()}", file=sys.stderr)

    stats = policy.statistics()
    total_folds = sum(folds_by_program.values())
    print(f"absint-gate: suite at -O{LEVEL}: {total_folds} rangeopt "
          f"rewrites, {transfers} absint transfers, "
          f"{stats['validations.run']} validations "
          f"({stats['validations.failed']} failed), "
          f"{stats['passes.rolled_back']} rollbacks, "
          f"{time.perf_counter() - started:.1f}s")
    if failed_programs:
        print(f"absint-gate: FAIL — rollbacks on: "
              f"{', '.join(failed_programs)}", file=sys.stderr)
        return 1
    if stats["validations.run"] == 0:
        print("absint-gate: FAIL — the validator never ran "
              "(wiring regression)", file=sys.stderr)
        return 1
    if total_folds != EXPECTED_FOLDS:
        table = ", ".join(f"{name}={folds}"
                          for name, folds in folds_by_program.items())
        print(f"absint-gate: FAIL — {total_folds} rangeopt rewrites, "
              f"pinned at {EXPECTED_FOLDS}; per program: {table}",
              file=sys.stderr)
        return 1

    linked = lto_transfers()
    print(f"absint-gate: suite at -O{LEVEL} + LTO: {linked} absint "
          f"transfers")
    for label, count, ceiling in (
            (f"-O{LEVEL}", transfers, MAX_ABSINT_TRANSFERS),
            (f"-O{LEVEL} + LTO", linked, MAX_LTO_ABSINT_TRANSFERS)):
        if count > ceiling:
            print(f"absint-gate: FAIL — {count} absint transfers at "
                  f"{label}, ceiling {ceiling}: the solver converges more "
                  f"slowly", file=sys.stderr)
            return 1

    print("absint-gate: ok — transfers verified, range folds land, "
          "zero rollbacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
