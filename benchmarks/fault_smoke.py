"""CI gate for fault-tolerant compilation: the single-fault matrix.

Enumerates every registered fault-injection site (the catalogue is
derived from the real pipelines, so new passes join automatically) and
runs each one, armed exactly once, against three fixed-seed fuzz
programs under the fault-tolerant driver — the sites that corrupt a
stored cache entry a second time, against a whole-program entry
(``<site>@program``).  A cell fails if an unhandled exception escapes,
if the fault never fired (the hook fell out of the production code
path), or if the program's behaviour diverges from the clean -O0
interpreter reference.  Any failing cell exits non-zero, failing the CI
job.  See docs/ROBUSTNESS.md.

Usage:  PYTHONPATH=src python benchmarks/fault_smoke.py [--seeds 401 402 403]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.bitcode import read_bytecode
from repro.driver import (
    BytecodeCache, FaultPolicy, compile_and_link, compile_to_bytecode,
)
from repro.fuzz import faultinject, generate_program, run_interpreter
from repro.fuzz.faultinject import FaultOutcome

#: The sites that corrupt a stored cache entry, aimed once more at a
#: whole-program entry instead of a per-TU one.
PROGRAM_ENTRY_SITES = ("cache.read", "bytecode.corrupt")


def program_entry_cell(site: str, program_seed: int, args) -> FaultOutcome:
    """``<site>@program``: a stored whole-program entry is corrupted
    under a repeat request.  The entry must be evicted and the program
    rebuilt to the same bytes and the reference behaviour."""
    cell = f"{site}@program"
    source = generate_program(program_seed, args.size)
    reference = run_interpreter(
        compile_and_link([source], "ref", level=0, lto=False),
        args.step_limit)
    with tempfile.TemporaryDirectory(prefix="lc-faultmatrix-") as tmp:
        policy = FaultPolicy(crash_dir=f"{tmp}/crashes",
                             reduce_testcases=False)
        cache = BytecodeCache(f"{tmp}/cache")
        try:
            stored = compile_to_bytecode([source], "fault", args.level,
                                         cache=cache, policy=policy)
            with faultinject.injected(site, args.fault_seed) as plan:
                data = compile_to_bytecode([source], "fault", args.level,
                                           cache=cache, policy=policy)
                outcome = run_interpreter(read_bytecode(data),
                                          args.step_limit)
        except Exception as error:  # the exact thing containment forbids
            return FaultOutcome(cell, program_seed, False, True,
                                f"unhandled {type(error).__name__}: {error}")
        evictions = cache.statistics()["program-evictions"]
        ok = outcome == reference and data == stored and evictions == 1
        detail = "" if ok else (
            f"expected {reference.describe()}, got {outcome.describe()} "
            f"({evictions} program evictions, bytes "
            f"{'equal' if data == stored else 'differ'})")
        return FaultOutcome(cell, program_seed, ok, plan.fired, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[401, 402, 403],
                        help="fuzz-program seeds (default: 401 402 403)")
    parser.add_argument("--size", type=int, default=2,
                        help="helper functions per program")
    parser.add_argument("--level", type=int, default=2,
                        help="optimization level under fault")
    parser.add_argument("--fault-seed", type=int, default=12345)
    parser.add_argument("--step-limit", type=int, default=500_000)
    args = parser.parse_args(argv)

    sites = sorted(faultinject.registered_sites(args.level))
    print(f"fault-smoke: ({len(sites)} sites + {len(PROGRAM_ENTRY_SITES)} "
          f"program-entry cells) x {len(args.seeds)} programs")
    started = time.perf_counter()
    report = faultinject.run_fault_matrix(
        program_seeds=args.seeds, size=args.size, sites=sites,
        fault_seed=args.fault_seed, level=args.level,
        step_limit=args.step_limit)
    report.outcomes += [program_entry_cell(site, seed, args)
                        for seed in args.seeds
                        for site in PROGRAM_ENTRY_SITES]
    elapsed = time.perf_counter() - started

    for outcome in report.outcomes:
        print(outcome.describe())
    expected = (len(sites) + len(PROGRAM_ENTRY_SITES)) * len(args.seeds)
    print(f"fault-smoke: {len(report.outcomes)}/{expected} cells, "
          f"{len(report.failures)} failing, {elapsed:.1f}s")
    if len(report.outcomes) != expected:
        print("fault-smoke: FAIL — matrix did not cover every site",
              file=sys.stderr)
        return 1
    if not report.clean:
        print("fault-smoke: FAIL — containment broken at the cells above",
              file=sys.stderr)
        return 1
    print("fault-smoke: ok — every single-fault scenario contained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
