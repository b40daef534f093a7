"""Tests over the synthetic SPEC-like benchmark suite: every program
compiles, runs deterministically, and optimization preserves its output.

(The Table 1 / Table 2 / Figure 5 *measurements* live under
``benchmarks/``; these are correctness gates.)
"""

import pytest

from repro.benchsuite import (
    BENCHMARKS, benchmark_info, benchmark_names, load_source,
)
from repro.bitcode import write_bytecode
from repro.core import parse_module, print_module, verify_module
from repro.execution import Interpreter
from repro.frontend import compile_source

#: A couple of heavier programs get a higher step allowance.
STEP_LIMIT = 100_000_000


@pytest.mark.parametrize("name", benchmark_names())
def test_compiles_and_verifies(name):
    module = compile_source(load_source(name), name)
    verify_module(module)
    assert module.instruction_count() > 100, "suite programs are not toys"


@pytest.mark.parametrize("name", benchmark_names())
def test_optimization_preserves_output(name, suite_o2, suite_runs):
    expected, raw_output, raw_steps = suite_runs(name, 0)

    verify_module(suite_o2(name))
    value, output, steps = suite_runs(name, 2)
    assert value == expected
    assert output == raw_output
    assert steps < raw_steps, "optimization should reduce work"


@pytest.mark.parametrize("name", benchmark_names())
def test_deterministic(name, suite_o2, suite_runs):
    value, output, _ = suite_runs(name, 2)
    again = Interpreter(suite_o2(name), step_limit=STEP_LIMIT)
    assert again.run("main") == value
    assert again.output == output


@pytest.mark.parametrize("name", benchmark_names())
def test_text_round_trip(name, suite_o2):
    """Section 2.5: printing a module and parsing the text back loses
    nothing, at -O0 and at -O2 + LTO (stripped bytecode compares the
    structure; the printer uniquifies duplicate local names)."""
    for module in (compile_source(load_source(name), name), suite_o2(name)):
        again = parse_module(print_module(module))
        assert write_bytecode(again) == write_bytecode(module)


def test_suite_covers_table1():
    """Fifteen programs, one per SPEC CPU2000 C benchmark, in table order."""
    assert len(BENCHMARKS) == 15
    assert benchmark_names()[0] == "gzip"
    assert benchmark_names()[-1] == "twolf"
    info = benchmark_info("parser")
    assert info.spec_name == "197.parser"
    assert info.paper_typed_percent == 36.4


def test_sources_are_substantial():
    total_lines = sum(
        len(load_source(name).splitlines()) for name in benchmark_names()
    )
    assert total_lines > 2000, "the suite should be a real corpus"
