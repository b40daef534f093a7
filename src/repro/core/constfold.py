"""Exact evaluation semantics for the instruction set, plus constant folding.

This module is the single source of truth for what each opcode *means*
on concrete values, stated once as a table of Python **expression
text**: :func:`binary_expression`, :func:`shift_expression` and
:func:`cast_expression` return, for one (opcode, type), an expression
over ``{a}``/``{b}`` with the type's mask, half and width baked in as
literals.  Everything that executes is a rendering of that text and
none restates it:

* :func:`binary_evaluator`, :func:`shift_evaluator` and
  :func:`cast_evaluator` compile a row into a callable, memoised on the
  interned type.  The interpreter binds these when it decodes a block;
  ``eval_binary`` / ``eval_shift`` / ``eval_cast`` are a lookup plus a
  call, which is what the machine simulator, tvalid's evaluator, the
  peephole verifier and the absint self-check call; ``fold_*`` wrap
  those for ``Constant`` operands.
* the trace JIT substitutes its locals into the same row and inlines
  the result in the closure it compiles.

So the optimizer and the execution engines can never disagree.  What
does not fit an expression (the division traps, the NaN rules, the
float32 re-round) is a named helper the text calls; :data:`NAMESPACE`
is the complete list of names a row may use, and both renderings are
given exactly it.  (``tests/test_constfold.py`` keeps the if-chains
the table replaced as the reference every row is checked against.)

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
import struct as _struct
from typing import Optional

from . import types
from .instructions import CastInst, Instruction, Opcode, ShiftInst
from .types import Type
from .values import (
    Constant, ConstantBool, ConstantFP, ConstantInt, ConstantPointerNull,
    UndefValue, Value,
)


class ArithmeticFault(Exception):
    """Raised for division or remainder by zero."""


# ---------------------------------------------------------------------------
# The statement-shaped cases: helpers the expression text calls
# ---------------------------------------------------------------------------

_SINGLE = _struct.Struct("<f")


def _round32(value: float) -> float:
    """Re-round through single precision (``float``-typed results)."""
    return _SINGLE.unpack(_SINGLE.pack(value))[0]


def _int_div(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise ArithmeticFault("integer division by zero")
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


def _int_rem(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise ArithmeticFault("integer remainder by zero")
    remainder = abs(lhs) % abs(rhs)
    return -remainder if lhs < 0 else remainder


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


def _float_to_int(value: float) -> int:
    if math.isnan(value) or math.isinf(value):
        return 0
    return int(value)


#: Every name a row of the table may use.  Whoever executes a row's text
#: — :func:`_compile` here, the trace JIT in its closures' globals —
#: supplies exactly these.
NAMESPACE = {
    "bool": bool, "float": float, "_round32": _round32,
    "_int_div": _int_div, "_int_rem": _int_rem,
    "_float_div": _float_div, "_float_rem": _float_rem,
    "_float_to_int": _float_to_int,
}


# ---------------------------------------------------------------------------
# The table: one expression text per (opcode, type)
# ---------------------------------------------------------------------------

#: Ints arrive signed-corrected and pointers as non-negative addresses,
#: so plain Python comparison is right for every first-class type.
_COMPARE = {
    Opcode.SETEQ: "{a} == {b}", Opcode.SETNE: "{a} != {b}",
    Opcode.SETLT: "{a} < {b}", Opcode.SETGT: "{a} > {b}",
    Opcode.SETLE: "{a} <= {b}", Opcode.SETGE: "{a} >= {b}",
}
_ARITHMETIC = {
    Opcode.ADD: "{a} + {b}", Opcode.SUB: "{a} - {b}", Opcode.MUL: "{a} * {b}",
}
_LOGIC = {
    Opcode.AND: "{a} & {b}", Opcode.OR: "{a} | {b}", Opcode.XOR: "{a} ^ {b}",
}
_INTEGER = _ARITHMETIC | _LOGIC | {
    Opcode.DIV: "_int_div({a}, {b})", Opcode.REM: "_int_rem({a}, {b})",
}
_FLOATING = _ARITHMETIC | {
    Opcode.DIV: "_float_div({a}, {b})", Opcode.REM: "_float_rem({a}, {b})",
}


def _wrap(ty: types.IntegerType, text: str) -> str:
    """``text`` wrapped into ``ty``'s range, as ``ty.wrap`` would: two's
    complement for a signed type, plain truncation for an unsigned one."""
    mask = (1 << ty.bits) - 1
    if not ty.signed:
        return f"({text}) & {mask}"
    half = 1 << (ty.bits - 1)
    return f"((({text}) + {half}) & {mask}) - {half}"


def binary_expression(opcode: Opcode, ty: Type) -> str:
    """The text over ``{a}``/``{b}`` of one binary opcode on operands of
    type ``ty``.  A comparison yields a Python bool; anything else a
    value of ``ty``'s representation."""
    if opcode in _COMPARE:
        return _COMPARE[opcode]
    # The bitwise three wrap their result rather than trusting their
    # inputs: ``&``, ``|`` and ``^`` commute with truncation, so this is
    # the two's-complement answer for operands outside the range too.
    if ty.is_integer and opcode in _INTEGER:
        return _wrap(ty, _INTEGER[opcode])  # type: ignore[arg-type]
    if ty.is_floating and opcode in _FLOATING:
        text = _FLOATING[opcode]
        return text if ty.bits == 64 else f"_round32({text})"  # type: ignore[attr-defined]
    if ty.is_bool and opcode in _LOGIC:
        return f"bool({_LOGIC[opcode]})"
    raise ValueError(f"no binary opcode {opcode} on {ty}")


def shift_expression(opcode: Opcode, ty: types.IntegerType) -> str:
    """The text over ``{a}`` (value) and ``{b}`` (amount) of ``shl``/
    ``shr`` on ``ty``.  Over-wide shifts saturate deterministically."""
    if opcode == Opcode.SHL:
        shifted, over_wide = _wrap(ty, "{a} << {b}"), "0"
    elif opcode != Opcode.SHR:
        raise ValueError(f"not a shift opcode: {opcode}")
    elif ty.signed:
        # Python >> is arithmetic
        shifted, over_wide = _wrap(ty, "{a} >> {b}"), "(-1 if {a} < 0 else 0)"
    else:
        shifted, over_wide = "(" + _wrap(ty, "{a}") + ") >> {b}", "0"
    return f"({shifted}) if {{b}} < {ty.bits} else {over_wide}"


def cast_expression(src_ty: Type, dst_ty: Type) -> str:
    """The text over ``{a}`` of ``cast`` from ``src_ty`` to ``dst_ty``
    (first-class types).

    Integer widening extends according to the *source* signedness (the
    LLVM 1.x rule); narrowing truncates bits and reinterprets by the
    destination signedness.
    """
    if src_ty is dst_ty:
        return "{a}"
    if dst_ty.is_bool:
        return "{a} != 0"
    if dst_ty.is_integer:
        # A bool, int or pointer source reinterprets its bit pattern.
        source = "_float_to_int({a})" if src_ty.is_floating else "{a}"
        return _wrap(dst_ty, source)  # type: ignore[arg-type]
    if dst_ty.is_floating and not src_ty.is_pointer:
        return ("float({a})" if dst_ty.bits == 64  # type: ignore[attr-defined]
                else "_round32(float({a}))")
    if dst_ty.is_pointer:
        if src_ty.is_pointer:
            return "{a}"
        if src_ty.is_integer or src_ty.is_bool:
            return "{a} & %d" % ((1 << 64) - 1)
    raise TypeError(f"cannot cast {src_ty} to {dst_ty}")


_GLOBALS = {"__builtins__": {}, **NAMESPACE}


def _compile(parameters: str, text: str):
    """The callable rendering of a row: its text as a lambda's body,
    with nothing in scope but :data:`NAMESPACE`."""
    return eval(f"lambda {parameters}: " + text.format(a="a", b="b"), _GLOBALS)


@functools.cache
def binary_evaluator(opcode: Opcode, ty: Type):
    """The callable ``(lhs, rhs) -> result`` of :func:`binary_expression`,
    compiled once per (opcode, interned type)."""
    return _compile("a, b", binary_expression(opcode, ty))


@functools.cache
def shift_evaluator(opcode: Opcode, ty: types.IntegerType):
    """The callable ``(value, amount) -> result`` of
    :func:`shift_expression`."""
    return _compile("a, b", shift_expression(opcode, ty))


@functools.cache
def cast_evaluator(src_ty: Type, dst_ty: Type):
    """The callable ``value -> result`` of :func:`cast_expression`."""
    return _compile("a", cast_expression(src_ty, dst_ty))


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


def fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Try to evaluate ``inst`` to a constant from constant operands."""
    if inst.is_binary_op:
        lhs, rhs = inst.operands
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            return fold_binary(inst.opcode, lhs, rhs)
        return None
    if isinstance(inst, ShiftInst):
        value, amount = inst.operands
        if isinstance(value, Constant) and isinstance(amount, Constant):
            return fold_shift(inst.opcode, value, amount)
        return None
    if isinstance(inst, CastInst):
        value = inst.value
        if isinstance(value, Constant):
            return fold_cast(value, inst.type)
        return None
    return None


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
