"""Fixtures shared by the whole tier-1 session.

Most of tier-1's wall time is the interpreter executing the benchmark
suite, so the suite is built and run once per session, the runs in
worker processes beside the tests, instead of once per test.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import pytest

from repro.benchsuite import benchmark_names, compile_benchmark, load_source
from repro.execution import Interpreter
from repro.frontend import compile_source

#: A couple of the heavier suite programs need this many steps at -O0.
SUITE_STEP_LIMIT = 100_000_000


def _run_suite_program(name: str, level: int):
    """(exit value, output, steps) of ``main``: raw front-end output at
    level 0, otherwise the standard ``-O<level>`` + LTO build."""
    module = (compile_source(load_source(name), name) if level == 0
              else compile_benchmark(name, level))
    interp = Interpreter(module, step_limit=SUITE_STEP_LIMIT)
    return interp.run("main"), interp.output, interp.steps


@pytest.fixture(scope="session")
def suite_o2():
    """``suite_o2(name)``: the suite program at ``-O2`` + LTO, compiled
    once per session however many tests ask for it."""
    return lru_cache(maxsize=None)(compile_benchmark)


@pytest.fixture(scope="session")
def suite_runs():
    """``suite_runs(name, level)``: what :func:`_run_suite_program`
    returns.  The first request queues every program at -O0 and -O2,
    in the order the tests ask, on one worker process per core."""
    pool = ProcessPoolExecutor(mp_context=multiprocessing.get_context("spawn"))
    futures: dict = {}

    def result(name: str, level: int):
        if not futures:
            for queued in benchmark_names():
                for queued_level in (0, 2):
                    futures[queued, queued_level] = pool.submit(
                        _run_suite_program, queued, queued_level)
        return futures[name, level].result()

    yield result
    pool.shutdown(wait=False, cancel_futures=True)
