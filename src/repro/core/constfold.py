"""Exact evaluation semantics for the instruction set, plus constant folding.

This module is the single source of truth for what each opcode *means*
on concrete values, stated once as a table of evaluators:
:func:`binary_evaluator`, :func:`shift_evaluator` and
:func:`cast_evaluator` return the callable for one (opcode, type),
chosen once and memoised on the interned type.  Every engine consumes
that table and none restates it: the interpreter binds the callables
when it decodes a block; ``eval_binary`` / ``eval_shift`` /
``eval_cast`` are a lookup plus a call, which is what the machine
simulator, tvalid's evaluator, SCCP, the peephole verifier and the
absint self-check call; ``fold_*`` wrap those for ``Constant``
operands.  So the optimizer and the execution engines can never
disagree.  (``tests/test_constfold.py`` keeps the if-chains the table
replaced as the reference it is checked against.)

Conventions for the evaluators:

* integers are Python ints already wrapped into their type's range;
* pointers are Python ints (addresses in the flat memory model);
* floats are Python floats, re-rounded through single precision after
  every operation on ``float``-typed values;
* division/remainder follow C semantics (truncation toward zero, the
  remainder takes the dividend's sign); division by zero raises
  :class:`ArithmeticFault`.
"""

from __future__ import annotations

import functools
import math
import operator
import struct as _struct
from typing import Optional

from . import types
from .instructions import Opcode
from .types import Type
from .values import (
    Constant, ConstantBool, ConstantFP, ConstantInt, ConstantPointerNull,
    UndefValue, Value,
)


class ArithmeticFault(Exception):
    """Raised for division or remainder by zero."""


_SINGLE = _struct.Struct("<f")


def _round32(value: float) -> float:
    """Re-round through single precision (``float``-typed results)."""
    return _SINGLE.unpack(_SINGLE.pack(value))[0]


def _float_div(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        if lhs == 0.0:
            return math.nan
        return math.copysign(math.inf, lhs) * math.copysign(1.0, rhs)
    return lhs / rhs


def _float_rem(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return math.nan
    return math.fmod(lhs, rhs)


# ---------------------------------------------------------------------------
# The evaluator table: one callable per (opcode, type)
# ---------------------------------------------------------------------------

#: Ints arrive signed-corrected and pointers as non-negative addresses,
#: so plain Python comparison is right for every first-class type.
_COMPARISONS = {
    Opcode.SETEQ: operator.eq, Opcode.SETNE: operator.ne,
    Opcode.SETLT: operator.lt, Opcode.SETGT: operator.gt,
    Opcode.SETLE: operator.le, Opcode.SETGE: operator.ge,
}
_DOUBLE = {
    Opcode.ADD: operator.add, Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul, Opcode.DIV: _float_div, Opcode.REM: _float_rem,
}
_BOOL = {
    Opcode.AND: lambda lhs, rhs: bool(lhs & rhs),
    Opcode.OR: lambda lhs, rhs: bool(lhs | rhs),
    Opcode.XOR: lambda lhs, rhs: bool(lhs ^ rhs),
}


def _single(evaluate):
    return lambda lhs, rhs: _round32(evaluate(lhs, rhs))


_SINGLE_PRECISION = {opcode: _single(evaluate)
                     for opcode, evaluate in _DOUBLE.items()}


def _wrap_constants(ty: types.IntegerType) -> tuple[int, int]:
    """``(mask, half)`` such that ``((v + half) & mask) - half`` is
    ``ty.wrap(v)``: two's complement for a signed type, and with
    ``half == 0`` plain truncation for an unsigned one."""
    return (1 << ty.bits) - 1, (1 << (ty.bits - 1)) if ty.signed else 0


@functools.cache
def _integer_evaluators(ty: types.IntegerType) -> dict:
    mask, half = _wrap_constants(ty)

    def div(lhs, rhs):
        if rhs == 0:
            raise ArithmeticFault("integer division by zero")
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return ((quotient + half) & mask) - half

    def rem(lhs, rhs):
        if rhs == 0:
            raise ArithmeticFault("integer remainder by zero")
        remainder = abs(lhs) % abs(rhs)
        if lhs < 0:
            remainder = -remainder
        return ((remainder + half) & mask) - half

    # The bitwise three wrap their result rather than trusting their
    # inputs: ``&``, ``|`` and ``^`` commute with truncation, so this is
    # the two's-complement answer for operands outside the range too.
    return {
        Opcode.ADD: lambda lhs, rhs: ((lhs + rhs + half) & mask) - half,
        Opcode.SUB: lambda lhs, rhs: ((lhs - rhs + half) & mask) - half,
        Opcode.MUL: lambda lhs, rhs: ((lhs * rhs + half) & mask) - half,
        Opcode.DIV: div,
        Opcode.REM: rem,
        Opcode.AND: lambda lhs, rhs: (((lhs & rhs) + half) & mask) - half,
        Opcode.OR: lambda lhs, rhs: (((lhs | rhs) + half) & mask) - half,
        Opcode.XOR: lambda lhs, rhs: (((lhs ^ rhs) + half) & mask) - half,
    }


@functools.cache
def binary_evaluator(opcode: Opcode, ty: Type):
    """The callable ``(lhs, rhs) -> result`` for one binary opcode on
    operands of type ``ty``, chosen once per (opcode, interned type).

    For comparisons the result is a Python bool; otherwise a value of
    ``ty``'s representation.
    """
    if opcode in _COMPARISONS:
        return _COMPARISONS[opcode]
    if ty.is_integer:
        table = _integer_evaluators(ty)
    elif ty.is_floating:
        table = _DOUBLE if ty.bits == 64 else _SINGLE_PRECISION  # type: ignore[attr-defined]
    elif ty.is_bool:
        table = _BOOL
    else:
        table = {}
    if opcode not in table:
        raise ValueError(f"no binary opcode {opcode} on {ty}")
    return table[opcode]


@functools.cache
def shift_evaluator(opcode: Opcode, ty: types.IntegerType):
    """The callable ``(value, amount) -> result`` for ``shl``/``shr`` on
    ``ty``.  Over-wide shifts saturate deterministically."""
    bits = ty.bits
    mask, half = _wrap_constants(ty)
    if opcode == Opcode.SHL:
        def shift(value, amount):
            if amount >= bits:
                return 0
            return (((value << amount) + half) & mask) - half
    elif opcode != Opcode.SHR:
        raise ValueError(f"not a shift opcode: {opcode}")
    elif ty.signed:
        def shift(value, amount):
            if amount >= bits:
                return -1 if value < 0 else 0
            # Python >> is arithmetic
            return (((value >> amount) + half) & mask) - half
    else:
        def shift(value, amount):
            if amount >= bits:
                return 0
            return (value & mask) >> amount
    return shift


@functools.cache
def cast_evaluator(src_ty: Type, dst_ty: Type):
    """The callable ``value -> result`` for ``cast`` from ``src_ty`` to
    ``dst_ty`` (first-class types).

    Integer widening extends according to the *source* signedness (the
    LLVM 1.x rule); narrowing truncates bits and reinterprets by the
    destination signedness.
    """
    if src_ty is dst_ty:
        return lambda value: value
    if dst_ty.is_bool:
        return lambda value: value != 0
    if dst_ty.is_integer:
        mask, half = _wrap_constants(dst_ty)  # type: ignore[arg-type]
        if src_ty.is_floating:
            def to_int(value):
                if math.isnan(value) or math.isinf(value):
                    return 0
                return ((int(value) + half) & mask) - half
            return to_int
        # bool, int or pointer source: reinterpret the bit pattern.
        return lambda value: ((int(value) + half) & mask) - half
    if dst_ty.is_floating and not src_ty.is_pointer:
        if dst_ty.bits == 64:  # type: ignore[attr-defined]
            return float
        return lambda value: _round32(float(value))
    if dst_ty.is_pointer:
        if src_ty.is_pointer:
            return lambda value: value
        if src_ty.is_integer or src_ty.is_bool:
            return lambda value: int(value) & ((1 << 64) - 1)
    raise TypeError(f"cannot cast {src_ty} to {dst_ty}")


def eval_binary(opcode: Opcode, ty: Type, lhs, rhs):
    """Evaluate a binary opcode on concrete operand values of type ``ty``."""
    return binary_evaluator(opcode, ty)(lhs, rhs)


def eval_shift(opcode: Opcode, ty: types.IntegerType, value: int, amount: int) -> int:
    """Evaluate ``shl``/``shr`` on a value of type ``ty``."""
    return shift_evaluator(opcode, ty)(value, amount)


def eval_cast(src_ty: Type, dst_ty: Type, value):
    """Evaluate ``cast`` between first-class types."""
    return cast_evaluator(src_ty, dst_ty)(value)


# ---------------------------------------------------------------------------
# Constant folding over Constant objects
# ---------------------------------------------------------------------------

def _constant_scalar(constant: Constant):
    if isinstance(constant, ConstantInt):
        return constant.value
    if isinstance(constant, ConstantBool):
        return constant.value
    if isinstance(constant, ConstantFP):
        return constant.value
    if isinstance(constant, ConstantPointerNull):
        return 0
    return None


def make_constant(ty: Type, value) -> Constant:
    """Wrap a raw evaluated value back into a Constant of type ``ty``."""
    if ty.is_bool:
        return ConstantBool(bool(value))
    if ty.is_integer:
        return ConstantInt(ty, int(value))  # type: ignore[arg-type]
    if ty.is_floating:
        return ConstantFP(ty, float(value))  # type: ignore[arg-type]
    if ty.is_pointer and value == 0:
        return ConstantPointerNull(ty)  # type: ignore[arg-type]
    raise TypeError(f"cannot materialise constant of type {ty} from {value!r}")


def fold_binary(opcode: Opcode, lhs: Constant, rhs: Constant) -> Optional[Constant]:
    """Fold a binary operation over constants; None if not foldable."""
    if isinstance(lhs, UndefValue) or isinstance(rhs, UndefValue):
        return None
    a = _constant_scalar(lhs)
    b = _constant_scalar(rhs)
    if a is None or b is None:
        return None
    ty = lhs.type
    try:
        result = eval_binary(opcode, ty, a, b)
    except ArithmeticFault:
        return None
    from .instructions import COMPARISON_OPCODES

    if opcode in COMPARISON_OPCODES:
        return ConstantBool(bool(result))
    return make_constant(ty, result)


def fold_shift(opcode: Opcode, value: Constant, amount: Constant) -> Optional[Constant]:
    if not isinstance(value, ConstantInt) or not isinstance(amount, ConstantInt):
        return None
    result = eval_shift(opcode, value.type, value.value, amount.value)  # type: ignore[arg-type]
    return ConstantInt(value.type, result)  # type: ignore[arg-type]


def fold_cast(value: Constant, dest_type: Type) -> Optional[Constant]:
    if value.type is dest_type:
        return value
    if isinstance(value, UndefValue):
        return UndefValue(dest_type)
    scalar = _constant_scalar(value)
    if scalar is None:
        return None
    if value.type.is_pointer and not isinstance(value, ConstantPointerNull):
        return None
    result = eval_cast(value.type, dest_type, scalar)
    if dest_type.is_pointer and result != 0:
        return None  # non-null pointer constants are symbolic (globals)
    return make_constant(dest_type, result)
