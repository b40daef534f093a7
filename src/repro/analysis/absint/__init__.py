"""Verified numeric abstract interpretation over the SSA IR.

Two domains — signed/unsigned intervals and known-bits tri-state
bitvectors — and one transfer table, :data:`TRANSFERS`, whose every
row's soundness is machine-checked against the concrete semantics in
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
    TRANSFERS,
    Interval,
    KnownBits,
    Shape,
    exact_binary_range,
    from_pattern,
    interval_from_kb,
    kb_from_interval,
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
    "TRANSFERS",
    "ValueFacts",
    "abstract_of_constant",
    "analyze_function",
    "analyze_module",
    "exact_binary_range",
    "from_pattern",
    "interval_from_kb",
    "kb_from_interval",
    "reduce_pair",
    "run_self_check",
    "shape_bounds",
    "shape_of",
    "to_pattern",
]
