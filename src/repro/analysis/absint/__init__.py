"""Verified numeric abstract interpretation over the SSA IR.

Two domains — signed/unsigned intervals and known-bits tri-state
bitvectors — with per-opcode transfer functions whose soundness is
machine-checked against the concrete semantics in
:mod:`repro.core.constfold` (``lc-absint --self-check``), solved
sparsely with widening/narrowing at loop heads by
:func:`analyze_function`.

Consumers: the ``rangeopt`` transform pass, the range-driven lint
checkers, the interprocedural return-range summaries, and the fuzz
oracle that cross-checks every interpreted value against its computed
fact.
"""

from .domains import (
    BOOL_SHAPE,
    Interval,
    KnownBits,
    Shape,
    exact_binary_range,
    from_pattern,
    interval_binary,
    interval_cast,
    interval_from_kb,
    interval_shift,
    kb_binary,
    kb_cast,
    kb_from_interval,
    kb_shift,
    reduce_pair,
    shape_bounds,
    shape_of,
    to_pattern,
)
from .engine import (
    AbsValue,
    RangeDumpPass,
    ValueFacts,
    abstract_of_constant,
    analyze_function,
    analyze_module,
)
from .selfcheck import run_self_check

__all__ = [
    "AbsValue",
    "RangeDumpPass",
    "BOOL_SHAPE",
    "Interval",
    "KnownBits",
    "Shape",
    "ValueFacts",
    "abstract_of_constant",
    "analyze_function",
    "analyze_module",
    "exact_binary_range",
    "from_pattern",
    "interval_binary",
    "interval_cast",
    "interval_from_kb",
    "interval_shift",
    "kb_binary",
    "kb_cast",
    "kb_from_interval",
    "kb_shift",
    "reduce_pair",
    "run_self_check",
    "shape_bounds",
    "shape_of",
    "to_pattern",
]
