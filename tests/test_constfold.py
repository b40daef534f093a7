"""Unit + property tests for the shared evaluation semantics.

:mod:`repro.core.constfold` is the single source of truth for opcode
semantics (the interpreter and the optimizer both use it), so these
tests pin down the C-like rules: two's-complement wrap, truncating
division, sign-of-dividend remainder, source-signedness extension.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import constfold, types
from repro.core.constfold import ArithmeticFault, eval_binary, eval_cast, eval_shift
from repro.core.instructions import Opcode
from repro.core.values import ConstantBool, ConstantFP, ConstantInt


class TestIntegerArithmetic:
    def test_add_wraps(self):
        assert eval_binary(Opcode.ADD, types.SBYTE, 127, 1) == -128
        assert eval_binary(Opcode.ADD, types.UBYTE, 255, 1) == 0

    def test_sub_wraps(self):
        assert eval_binary(Opcode.SUB, types.INT, -(2**31), 1) == 2**31 - 1

    def test_mul_wraps(self):
        assert eval_binary(Opcode.MUL, types.UBYTE, 16, 16) == 0

    def test_div_truncates_toward_zero(self):
        assert eval_binary(Opcode.DIV, types.INT, 7, 2) == 3
        assert eval_binary(Opcode.DIV, types.INT, -7, 2) == -3
        assert eval_binary(Opcode.DIV, types.INT, 7, -2) == -3
        assert eval_binary(Opcode.DIV, types.INT, -7, -2) == 3

    def test_rem_takes_dividend_sign(self):
        assert eval_binary(Opcode.REM, types.INT, 7, 3) == 1
        assert eval_binary(Opcode.REM, types.INT, -7, 3) == -1
        assert eval_binary(Opcode.REM, types.INT, 7, -3) == 1
        assert eval_binary(Opcode.REM, types.INT, -7, -3) == -1

    def test_div_rem_identity(self):
        for a in (-17, -3, 0, 5, 23):
            for b in (-7, -1, 2, 9):
                q = eval_binary(Opcode.DIV, types.INT, a, b)
                r = eval_binary(Opcode.REM, types.INT, a, b)
                assert q * b + r == a

    def test_division_by_zero_faults(self):
        with pytest.raises(ArithmeticFault):
            eval_binary(Opcode.DIV, types.INT, 1, 0)
        with pytest.raises(ArithmeticFault):
            eval_binary(Opcode.REM, types.INT, 1, 0)

    def test_bitwise_on_negative(self):
        assert eval_binary(Opcode.AND, types.SBYTE, -1, 0x0F) == 15
        assert eval_binary(Opcode.OR, types.SBYTE, -128, 1) == -127
        assert eval_binary(Opcode.XOR, types.INT, -1, 0) == -1

    def test_bool_logic(self):
        assert eval_binary(Opcode.AND, types.BOOL, True, False) is False
        assert eval_binary(Opcode.OR, types.BOOL, True, False) is True
        assert eval_binary(Opcode.XOR, types.BOOL, True, True) is False

    def test_comparisons(self):
        assert eval_binary(Opcode.SETLT, types.INT, -1, 0) is True
        assert eval_binary(Opcode.SETGE, types.UINT, 0, 0) is True
        assert eval_binary(Opcode.SETNE, types.INT, 3, 3) is False


class TestFloatArithmetic:
    def test_float32_rounds_each_op(self):
        result = eval_binary(Opcode.ADD, types.FLOAT, 0.1, 0.2)
        import struct

        expected = struct.unpack("<f", struct.pack("<f", 0.1 + 0.2))[0]
        assert result == expected

    def test_fp_division_by_zero_is_inf(self):
        assert math.isinf(eval_binary(Opcode.DIV, types.DOUBLE, 1.0, 0.0))
        assert math.isnan(eval_binary(Opcode.DIV, types.DOUBLE, 0.0, 0.0))

    def test_fp_rem(self):
        assert eval_binary(Opcode.REM, types.DOUBLE, 7.5, 2.0) == 1.5


class TestShifts:
    def test_shl(self):
        assert eval_shift(Opcode.SHL, types.INT, 1, 4) == 16
        assert eval_shift(Opcode.SHL, types.SBYTE, 1, 7) == -128

    def test_shr_arithmetic_for_signed(self):
        assert eval_shift(Opcode.SHR, types.INT, -8, 1) == -4

    def test_shr_logical_for_unsigned(self):
        assert eval_shift(Opcode.SHR, types.UINT, types.UINT.wrap(2**31), 31) == 1

    def test_overwide_shifts_saturate(self):
        assert eval_shift(Opcode.SHL, types.INT, 5, 40) == 0
        assert eval_shift(Opcode.SHR, types.UINT, 5, 40) == 0
        assert eval_shift(Opcode.SHR, types.INT, -5, 40) == -1
        assert eval_shift(Opcode.SHR, types.INT, 5, 40) == 0


class TestCasts:
    def test_narrowing_reinterprets(self):
        assert eval_cast(types.INT, types.SBYTE, 257) == 1
        assert eval_cast(types.INT, types.UBYTE, -1) == 255

    def test_widening_follows_source_signedness(self):
        # LLVM 1.x rule: extension is driven by the *source* type.
        assert eval_cast(types.SBYTE, types.ULONG, -1) == 2**64 - 1
        assert eval_cast(types.UBYTE, types.LONG, 255) == 255

    def test_int_to_bool(self):
        assert eval_cast(types.INT, types.BOOL, 0) is False
        assert eval_cast(types.INT, types.BOOL, -5) is True

    def test_fp_to_int_truncates(self):
        assert eval_cast(types.DOUBLE, types.INT, 2.9) == 2
        assert eval_cast(types.DOUBLE, types.INT, -2.9) == -2

    def test_fp_nan_inf_to_int(self):
        assert eval_cast(types.DOUBLE, types.INT, math.nan) == 0
        assert eval_cast(types.DOUBLE, types.INT, math.inf) == 0

    def test_double_to_float_rounds(self):
        import struct

        rounded = eval_cast(types.DOUBLE, types.FLOAT, 0.1)
        assert rounded == struct.unpack("<f", struct.pack("<f", 0.1))[0]

    def test_pointer_int_round_trip(self):
        address = 0x123456789A
        as_int = eval_cast(types.pointer(types.INT), types.ULONG, address)
        back = eval_cast(types.ULONG, types.pointer(types.INT), as_int)
        assert back == address

    def test_bool_to_fp(self):
        assert eval_cast(types.BOOL, types.DOUBLE, True) == 1.0


class TestConstantFolding:
    def test_fold_binary(self):
        folded = constfold.fold_binary(
            Opcode.ADD, ConstantInt(types.INT, 2), ConstantInt(types.INT, 3)
        )
        assert folded.value == 5

    def test_fold_comparison_gives_bool(self):
        folded = constfold.fold_binary(
            Opcode.SETLT, ConstantInt(types.INT, 1), ConstantInt(types.INT, 2)
        )
        assert isinstance(folded, ConstantBool) and folded.value is True

    def test_fold_division_by_zero_refused(self):
        folded = constfold.fold_binary(
            Opcode.DIV, ConstantInt(types.INT, 1), ConstantInt(types.INT, 0)
        )
        assert folded is None

    def test_fold_undef_refused(self):
        from repro.core.values import UndefValue

        folded = constfold.fold_binary(
            Opcode.ADD, ConstantInt(types.INT, 1), UndefValue(types.INT)
        )
        assert folded is None

    def test_fold_cast(self):
        folded = constfold.fold_cast(ConstantInt(types.INT, 300), types.SBYTE)
        assert folded.value == types.SBYTE.wrap(300)

    def test_fold_cast_null_pointer(self):
        from repro.core.values import ConstantPointerNull

        null = ConstantPointerNull(types.pointer(types.INT))
        folded = constfold.fold_cast(null, types.LONG)
        assert folded.value == 0

    def test_fold_shift(self):
        folded = constfold.fold_shift(
            Opcode.SHL, ConstantInt(types.INT, 3),
            ConstantInt(types.UBYTE, 2),
        )
        assert folded.value == 12


# ---------------------------------------------------------------------------
# Property tests: the evaluator is total and in-range over its domain.
# ---------------------------------------------------------------------------

_INT_TYPES = [types.SBYTE, types.UBYTE, types.SHORT, types.USHORT,
              types.INT, types.UINT, types.LONG, types.ULONG]
_ARITH = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR]


@given(
    st.sampled_from(_INT_TYPES),
    st.sampled_from(_ARITH),
    st.integers(), st.integers(),
)
def test_binary_results_stay_in_range(ty, opcode, raw_a, raw_b):
    a, b = ty.wrap(raw_a), ty.wrap(raw_b)
    result = eval_binary(opcode, ty, a, b)
    assert ty.min_value <= result <= ty.max_value


@given(st.sampled_from(_INT_TYPES), st.integers(),
       st.integers(min_value=0, max_value=255))
def test_shift_results_stay_in_range(ty, raw, amount):
    value = ty.wrap(raw)
    for opcode in (Opcode.SHL, Opcode.SHR):
        result = eval_shift(opcode, ty, value, amount)
        assert ty.min_value <= result <= ty.max_value


@given(st.sampled_from(_INT_TYPES), st.sampled_from(_INT_TYPES), st.integers())
def test_cast_results_stay_in_range(src, dst, raw):
    value = src.wrap(raw)
    result = eval_cast(src, dst, value)
    assert dst.min_value <= result <= dst.max_value


@given(st.sampled_from(_INT_TYPES), st.integers())
def test_cast_to_same_width_is_bijective(ty, raw):
    value = ty.wrap(raw)
    other = types.integer(ty.bits, not ty.signed)
    there = eval_cast(ty, other, value)
    back = eval_cast(other, ty, there)
    assert back == value


@given(st.sampled_from(_INT_TYPES), st.integers(), st.integers())
def test_fold_matches_eval(ty, raw_a, raw_b):
    """Constant folding must agree with direct evaluation (the property
    that keeps the optimizer and the interpreter in sync)."""
    a, b = ty.wrap(raw_a), ty.wrap(raw_b)
    for opcode in (Opcode.ADD, Opcode.MUL, Opcode.SETLT, Opcode.SETEQ):
        folded = constfold.fold_binary(
            opcode, ConstantInt(ty, a), ConstantInt(ty, b)
        )
        direct = eval_binary(opcode, ty, a, b)
        assert folded.value == direct


# ---------------------------------------------------------------------------
# The evaluator table against the if-chains it replaced.
#
# ``binary_evaluator`` / ``shift_evaluator`` / ``cast_evaluator`` choose
# one callable per (opcode, type); the interpreter binds them at decode
# and ``eval_*`` are a lookup plus a call.  The chains below are the
# previous ``eval_binary`` / ``eval_shift`` / ``eval_cast`` bodies, kept
# here as the reference every table entry is checked against.
# ---------------------------------------------------------------------------

import random
import struct


def _reference_round_fp(ty, value):
    if ty.is_floating and ty.bits == 32:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    return value


def _reference_to_unsigned(ty, value):
    return value & ((1 << ty.bits) - 1)


def _reference_eval_binary(opcode, ty, lhs, rhs):
    if opcode == Opcode.ADD:
        if ty.is_floating:
            return _reference_round_fp(ty, lhs + rhs)
        return ty.wrap(lhs + rhs)
    if opcode == Opcode.SUB:
        if ty.is_floating:
            return _reference_round_fp(ty, lhs - rhs)
        return ty.wrap(lhs - rhs)
    if opcode == Opcode.MUL:
        if ty.is_floating:
            return _reference_round_fp(ty, lhs * rhs)
        return ty.wrap(lhs * rhs)
    if opcode == Opcode.DIV:
        if ty.is_floating:
            if rhs == 0.0:
                if lhs == 0.0:
                    return _reference_round_fp(ty, math.nan)
                return _reference_round_fp(
                    ty, math.copysign(math.inf, lhs) * math.copysign(1.0, rhs))
            return _reference_round_fp(ty, lhs / rhs)
        if rhs == 0:
            raise ArithmeticFault("integer division by zero")
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return ty.wrap(quotient)
    if opcode == Opcode.REM:
        if ty.is_floating:
            if rhs == 0.0:
                return _reference_round_fp(ty, math.nan)
            return _reference_round_fp(ty, math.fmod(lhs, rhs))
        if rhs == 0:
            raise ArithmeticFault("integer remainder by zero")
        remainder = abs(lhs) % abs(rhs)
        if lhs < 0:
            remainder = -remainder
        return ty.wrap(remainder)
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
        if ty.is_bool:
            a, b = int(lhs), int(rhs)
            if opcode == Opcode.AND:
                return bool(a & b)
            if opcode == Opcode.OR:
                return bool(a | b)
            return bool(a ^ b)
        bits_lhs = _reference_to_unsigned(ty, lhs)
        bits_rhs = _reference_to_unsigned(ty, rhs)
        if opcode == Opcode.AND:
            result = bits_lhs & bits_rhs
        elif opcode == Opcode.OR:
            result = bits_lhs | bits_rhs
        else:
            result = bits_lhs ^ bits_rhs
        return ty.wrap(result)
    if opcode == Opcode.SETEQ:
        return lhs == rhs
    if opcode == Opcode.SETNE:
        return lhs != rhs
    if opcode == Opcode.SETLT:
        return lhs < rhs
    if opcode == Opcode.SETGT:
        return lhs > rhs
    if opcode == Opcode.SETLE:
        return lhs <= rhs
    if opcode == Opcode.SETGE:
        return lhs >= rhs
    raise ValueError(f"not a binary opcode: {opcode}")


def _reference_eval_shift(opcode, ty, value, amount):
    if opcode == Opcode.SHL:
        if amount >= ty.bits:
            return 0
        return ty.wrap(value << amount)
    if opcode == Opcode.SHR:
        if ty.signed:
            if amount >= ty.bits:
                return -1 if value < 0 else 0
            return ty.wrap(value >> amount)
        if amount >= ty.bits:
            return 0
        return ty.wrap(_reference_to_unsigned(ty, value) >> amount)
    raise ValueError(f"not a shift opcode: {opcode}")


def _reference_eval_cast(src_ty, dst_ty, value):
    if src_ty is dst_ty:
        return value
    if dst_ty.is_bool:
        return value != 0 if not src_ty.is_floating else value != 0.0
    if dst_ty.is_integer:
        if src_ty.is_floating:
            if math.isnan(value) or math.isinf(value):
                return 0
            return dst_ty.wrap(int(value))
        if src_ty.is_bool:
            return dst_ty.wrap(int(value))
        return dst_ty.wrap(int(value))
    if dst_ty.is_floating:
        if src_ty.is_bool:
            return _reference_round_fp(dst_ty, float(int(value)))
        if src_ty.is_integer or src_ty.is_floating:
            return _reference_round_fp(dst_ty, float(value))
        raise TypeError(f"cannot cast {src_ty} to {dst_ty}")
    if dst_ty.is_pointer:
        if src_ty.is_pointer:
            return value
        if src_ty.is_integer or src_ty.is_bool:
            return int(value) & ((1 << 64) - 1)
        raise TypeError(f"cannot cast {src_ty} to {dst_ty}")
    raise TypeError(f"cannot cast {src_ty} to {dst_ty}")


def _outcome(function, *args):
    """What a call did, comparably: the result with its Python type
    (``True`` is not ``1``) and its repr (``-0.0`` is not ``0.0``, nan
    is nan), or the exception's type and text."""
    try:
        result = function(*args)
    except Exception as error:  # compared, not handled
        return ("raised", type(error), str(error))
    return (type(result), repr(result))


_BINARY = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SETEQ, Opcode.SETNE, Opcode.SETLT, Opcode.SETGT,
    Opcode.SETLE, Opcode.SETGE,
]
_SHIFTS = [Opcode.SHL, Opcode.SHR]
_WIDE_TYPES = [ty for ty in _INT_TYPES if ty.bits > 8]
_FLOATS = [0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, math.nan, 5e-324,
           1e-45, 1e38]
_POINTER = types.pointer(types.INT)


def _all_values(ty):
    return range(ty.min_value, ty.max_value + 1)


def _boundary_values(ty):
    """min..min+8, -4..4 and max-8..max, as far as they are in range."""
    window = (list(range(ty.min_value, ty.min_value + 9))
              + list(range(-4, 5))
              + list(range(ty.max_value - 8, ty.max_value + 1)))
    return sorted({v for v in window if ty.min_value <= v <= ty.max_value})


def _seeded_pairs(ty, count=2000):
    rng = random.Random(f"constfold-{ty}")
    return [(rng.randint(ty.min_value, ty.max_value),
             rng.randint(ty.min_value, ty.max_value)) for _ in range(count)]


class TestEvaluatorTableMatchesReference:
    def test_the_binary_list_is_the_whole_opcode_class(self):
        from repro.core.instructions import BINARY_OPCODES

        assert set(_BINARY) == BINARY_OPCODES and len(_BINARY) == 14

    @pytest.mark.parametrize("ty", [types.SBYTE, types.UBYTE], ids=str)
    @pytest.mark.parametrize("opcode", _BINARY, ids=lambda op: op.value)
    def test_binary_exhaustive_at_8_bits(self, opcode, ty):
        evaluate = constfold.binary_evaluator(opcode, ty)
        for lhs in _all_values(ty):
            for rhs in _all_values(ty):
                try:
                    expected = _reference_eval_binary(opcode, ty, lhs, rhs)
                except ArithmeticFault:
                    assert rhs == 0
                    continue        # compared in test_zero_divisors_fault
                result = evaluate(lhs, rhs)
                assert result == expected and type(result) is type(expected), \
                    (opcode, ty, lhs, rhs, result, expected)

    @pytest.mark.parametrize("ty", [types.SBYTE, types.UBYTE], ids=str)
    def test_shifts_exhaustive_at_8_bits(self, ty):
        for opcode in _SHIFTS:
            evaluate = constfold.shift_evaluator(opcode, ty)
            for value in _all_values(ty):
                for amount in range(256):
                    assert evaluate(value, amount) == _reference_eval_shift(
                        opcode, ty, value, amount), (opcode, ty, value, amount)

    @pytest.mark.parametrize("ty", _WIDE_TYPES, ids=str)
    def test_binary_boundaries_and_seeded_pairs(self, ty):
        edge = _boundary_values(ty)
        pairs = [(a, b) for a in edge for b in edge] + _seeded_pairs(ty)
        for opcode in _BINARY:
            evaluate = constfold.binary_evaluator(opcode, ty)
            for lhs, rhs in pairs:
                assert _outcome(evaluate, lhs, rhs) == _outcome(
                    _reference_eval_binary, opcode, ty, lhs, rhs), \
                    (opcode, ty, lhs, rhs)

    @pytest.mark.parametrize("ty", _WIDE_TYPES, ids=str)
    def test_shift_boundaries_and_seeded_values(self, ty):
        values = _boundary_values(ty) + [a for a, _ in _seeded_pairs(ty, 200)]
        amounts = list(range(0, 70)) + [127, 128, 255]
        for opcode in _SHIFTS:
            evaluate = constfold.shift_evaluator(opcode, ty)
            for value in values:
                for amount in amounts:
                    assert evaluate(value, amount) == _reference_eval_shift(
                        opcode, ty, value, amount), (opcode, ty, value, amount)

    @pytest.mark.parametrize("ty", _INT_TYPES, ids=str)
    def test_zero_divisors_fault_exactly_like_the_chain(self, ty):
        for opcode in (Opcode.DIV, Opcode.REM):
            evaluate = constfold.binary_evaluator(opcode, ty)
            for lhs in _boundary_values(ty):
                got = _outcome(evaluate, lhs, 0)
                assert got[:2] == ("raised", ArithmeticFault)
                assert got == _outcome(_reference_eval_binary,
                                       opcode, ty, lhs, 0)

    def test_bool_logic(self):
        for opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
            evaluate = constfold.binary_evaluator(opcode, types.BOOL)
            for lhs in (False, True):
                for rhs in (False, True):
                    assert _outcome(evaluate, lhs, rhs) == _outcome(
                        _reference_eval_binary, opcode, types.BOOL, lhs, rhs)

    @pytest.mark.parametrize("ty", [types.FLOAT, types.DOUBLE], ids=str)
    def test_floating_point_including_the_float32_re_round(self, ty):
        # 1e38 * 1e38 does not fit single precision: the re-round
        # raises, and must raise the same thing from both.
        for opcode in _BINARY[:5] + _BINARY[8:]:    # no bitwise logic
            evaluate = constfold.binary_evaluator(opcode, ty)
            for lhs in _FLOATS:
                for rhs in _FLOATS:
                    assert _outcome(evaluate, lhs, rhs) == _outcome(
                        _reference_eval_binary, opcode, ty, lhs, rhs), \
                        (opcode, ty, lhs, rhs)

    def test_comparisons_on_pointers_and_bools(self):
        addresses = [0, 1, 1 << 30, (1 << 30) + 8, (1 << 64) - 1]
        for opcode in _BINARY[8:]:
            for ty, values in ((_POINTER, addresses),
                               (types.BOOL, [False, True])):
                evaluate = constfold.binary_evaluator(opcode, ty)
                for lhs in values:
                    for rhs in values:
                        assert _outcome(evaluate, lhs, rhs) == _outcome(
                            _reference_eval_binary, opcode, ty, lhs, rhs)

    def test_every_cast_pair(self):
        scalars = _INT_TYPES + [types.FLOAT, types.DOUBLE, types.BOOL,
                                _POINTER]

        def samples(ty):
            if ty.is_integer:
                return _boundary_values(ty) + [
                    a for a, _ in _seeded_pairs(ty, 50)]
            if ty.is_floating:
                return _FLOATS + [2.9, -2.9, 3e9, -3e9, 1e19, 255.5]
            if ty.is_bool:
                return [False, True]
            return [0, 8, 1 << 30, 0x123456789A, (1 << 64) - 1]

        for src in scalars:
            for dst in scalars:
                reference = [_outcome(_reference_eval_cast, src, dst, value)
                             for value in samples(src)]
                if all(r[:2] == ("raised", TypeError) for r in reference):
                    # pointer <-> floating: refused, here at the lookup
                    with pytest.raises(TypeError) as refused:
                        constfold.cast_evaluator(src, dst)
                    assert str(refused.value) == reference[0][2]
                    continue
                evaluate = constfold.cast_evaluator(src, dst)
                for value, expected in zip(samples(src), reference):
                    assert _outcome(evaluate, value) == expected, \
                        (src, dst, value)

    def test_eval_functions_are_views_of_the_table(self):
        assert eval_binary(Opcode.ADD, types.INT, 2**31 - 1, 1) == \
            constfold.binary_evaluator(Opcode.ADD, types.INT)(2**31 - 1, 1)
        assert constfold.binary_evaluator(Opcode.ADD, types.INT) is \
            constfold.binary_evaluator(Opcode.ADD, types.INT)
        assert eval_shift(Opcode.SHR, types.INT, -8, 1) == \
            constfold.shift_evaluator(Opcode.SHR, types.INT)(-8, 1)
        assert eval_cast(types.INT, types.UBYTE, -1) == \
            constfold.cast_evaluator(types.INT, types.UBYTE)(-1)
        with pytest.raises(ValueError):
            constfold.binary_evaluator(Opcode.SHL, types.INT)
        with pytest.raises(ValueError):
            constfold.shift_evaluator(Opcode.ADD, types.INT)
