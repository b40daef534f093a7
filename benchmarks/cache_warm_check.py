"""CI gate for the incremental driver: cold vs warm cache over the suite.

Compiles every benchmark program twice against one on-disk cache
directory.  The cold pass populates the cache (front-end + per-module
-O2 per program); the warm pass must (a) serve every program from the
cache, (b) produce byte-identical bytecode, and (c) be meaningfully
faster.  Any violation exits non-zero, failing the CI job.

Usage:  PYTHONPATH=src python benchmarks/cache_warm_check.py [--min-speedup X]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.benchsuite import benchmark_names, load_source
from repro.bitcode import write_bytecode
from repro.driver import BytecodeCache, compile_and_link


def run_pass(names: list[str], cache: BytecodeCache) -> tuple[dict, float]:
    """Compile every program once; returns {name: bytecode} and seconds."""
    artifacts = {}
    started = time.perf_counter()
    for name in names:
        module = compile_and_link([load_source(name)], name, level=2,
                                  lto=False, cache=cache)
        artifacts[name] = write_bytecode(module, strip_names=False)
    return artifacts, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required cold/warm wall-time ratio")
    args = parser.parse_args(argv)

    names = benchmark_names()
    failures = []
    with tempfile.TemporaryDirectory(prefix="lc-cache-") as directory:
        cache = BytecodeCache(directory)
        cold, cold_elapsed = run_pass(names, cache)
        cold_stats = cache.statistics()
        if cold_stats["cache-hits"]:
            failures.append(f"cold pass unexpectedly hit the cache "
                            f"({cold_stats['cache-hits']} hits)")
        warm_cache = BytecodeCache(directory)  # fresh counters, same entries
        warm, warm_elapsed = run_pass(names, warm_cache)
        warm_stats = warm_cache.statistics()

        print(f"programs:     {len(names)}")
        print(f"cold pass:    {cold_elapsed:.3f}s "
              f"({cold_stats['cache-misses']} misses, "
              f"{cold_stats['cache-stores']} stores)")
        print(f"warm pass:    {warm_elapsed:.3f}s "
              f"({warm_stats['cache-hits']} hits, "
              f"{warm_stats['cache-misses']} misses)")
        speedup = cold_elapsed / warm_elapsed if warm_elapsed else float("inf")
        print(f"speedup:      {speedup:.2f}x (required: "
              f">= {args.min_speedup:.2f}x)")

        if warm_stats["cache-misses"]:
            failures.append(f"warm pass missed {warm_stats['cache-misses']} "
                            "time(s); "
                            "cache keys are unstable")
        for name in names:
            if warm[name] != cold[name]:
                failures.append(f"{name}: warm bytecode differs from cold")
        if speedup < args.min_speedup:
            failures.append(f"warm pass only {speedup:.2f}x faster "
                            f"(required {args.min_speedup:.2f}x)")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: warm cache is byte-identical and faster")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
