"""The two numeric abstract domains and the transfer table over them.

Everything here is *parametric in the width*: a value's "shape" is the
pair ``(bits, signed)``, with ``bool`` treated as a 1-bit unsigned
integer.  That is what makes the soundness story machine-checkable —
the same transformer code path that runs on ``int``/``long`` values in
the compiler runs on 3- and 4-bit shapes in the self-check, where
enumerating *every* abstract element and *every* concrete member of its
concretization is tractable (the lc-synth narrow-width discipline,
applied to transfer functions instead of rewrite rules).

Domains:

* :class:`Interval` — a non-empty, inclusive range ``[lo, hi]`` in the
  shape's *numeric* space (signed shapes use signed values, unsigned
  shapes non-negative ones).  Wrapping semantics are handled at the
  transformer level: an operation whose exact result range does not fit
  the shape goes to the full range rather than guessing how the wrap
  folds.
* :class:`KnownBits` — a tri-state bitvector ``(zeros, ones)`` over the
  shape's bit pattern: bit *i* of ``zeros`` set means bit *i* of the
  value is proven 0, and likewise for ``ones``; both clear means
  unknown.  ``zeros & ones == 0`` is an invariant.

:data:`TRANSFERS` is the only statement of what an opcode means
abstractly: one :class:`Transfer` row per integral opcode (the eight
arithmetic and bitwise ones, the six comparisons, ``shl``, ``shr`` and
``cast``), holding its interval and its known-bits transformer.  The
engine transfers every integral instruction through it, and the
self-check checks every row.  The concrete semantics the rows must
over-approximate are exactly :mod:`repro.core.constfold`'s (the
interpreter's and constant folder's single source of truth); the
self-check evaluates its tables with constfold's evaluators directly.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ...core import types
from ...core.instructions import Opcode

#: A value's numeric shape: (bits, signed).  Bool is (1, False).
Shape = Tuple[int, bool]

#: The shape of comparison results and other booleans.
BOOL_SHAPE: Shape = (1, False)

#: The shape of shift amounts (``ubyte`` by the IR's typing rule).
SHIFT_AMOUNT_SHAPE: Shape = (8, False)


def shape_of(ty: types.Type) -> Optional[Shape]:
    """The shape of an integral first-class type, or None for
    pointers/floats/aggregates (values the domains do not track)."""
    if ty.is_bool:
        return BOOL_SHAPE
    if ty.is_integer:
        return (ty.bits, ty.signed)  # type: ignore[attr-defined]
    return None


@functools.cache
def shape_bounds(shape: Shape) -> Tuple[int, int]:
    bits, signed = shape
    if signed:
        return (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
    return (0, (1 << bits) - 1)


def to_pattern(shape: Shape, value: int) -> int:
    """The raw bit pattern of a numeric value of this shape."""
    return int(value) & ((1 << shape[0]) - 1)


def from_pattern(shape: Shape, pattern: int) -> int:
    """The numeric value whose bit pattern is ``pattern``."""
    bits, signed = shape
    if signed and pattern >= (1 << (bits - 1)):
        return pattern - (1 << bits)
    return pattern


# ---------------------------------------------------------------------------
# Interval
# ---------------------------------------------------------------------------

class Interval:
    """A non-empty inclusive numeric range of one shape."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        assert lo <= hi, (lo, hi)
        self.lo = lo
        self.hi = hi

    @staticmethod
    def top(shape: Shape) -> "Interval":
        lo, hi = shape_bounds(shape)
        return Interval(lo, hi)

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    def is_top(self, shape: Shape) -> bool:
        lo, hi = shape_bounds(shape)
        return self.lo <= lo and self.hi >= hi

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# ---------------------------------------------------------------------------
# KnownBits
# ---------------------------------------------------------------------------

class KnownBits:
    """Tri-state bit knowledge over one shape's bit pattern."""

    __slots__ = ("bits", "zeros", "ones")

    def __init__(self, bits: int, zeros: int, ones: int):
        assert zeros & ones == 0, (bin(zeros), bin(ones))
        self.bits = bits
        self.zeros = zeros
        self.ones = ones

    @staticmethod
    def top(bits: int) -> "KnownBits":
        return KnownBits(bits, 0, 0)

    @staticmethod
    def const(shape: Shape, value: int) -> "KnownBits":
        bits = shape[0]
        pattern = to_pattern(shape, value)
        mask = (1 << bits) - 1
        return KnownBits(bits, mask & ~pattern, pattern)

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    @property
    def is_fully_known(self) -> bool:
        return (self.zeros | self.ones) == self.mask

    @property
    def known_pattern(self) -> int:
        """The single pattern, valid only when ``is_fully_known``."""
        return self.ones

    def is_top(self) -> bool:
        return self.zeros == 0 and self.ones == 0

    def contains_pattern(self, pattern: int) -> bool:
        return (pattern & self.zeros) == 0 and \
            (pattern & self.ones) == self.ones

    def contains(self, shape: Shape, value: int) -> bool:
        return self.contains_pattern(to_pattern(shape, value))

    def join(self, other: "KnownBits") -> "KnownBits":
        """Union of concretizations: keep only commonly-known bits."""
        return KnownBits(self.bits, self.zeros & other.zeros,
                         self.ones & other.ones)

    def intersect(self, other: "KnownBits") -> Optional["KnownBits"]:
        """Conjunction of constraints; None when contradictory."""
        zeros = self.zeros | other.zeros
        ones = self.ones | other.ones
        if zeros & ones:
            return None
        return KnownBits(self.bits, zeros, ones)

    def trailing_known_zeros(self) -> int:
        count = 0
        while count < self.bits and (self.zeros >> count) & 1:
            count += 1
        return count

    def __eq__(self, other) -> bool:
        return (isinstance(other, KnownBits) and self.bits == other.bits
                and self.zeros == other.zeros and self.ones == other.ones)

    def __hash__(self) -> int:
        return hash((self.bits, self.zeros, self.ones))

    def __repr__(self) -> str:
        digits = []
        for i in reversed(range(self.bits)):
            if (self.zeros >> i) & 1:
                digits.append("0")
            elif (self.ones >> i) & 1:
                digits.append("1")
            else:
                digits.append("?")
        return "0b" + "".join(digits)


# ---------------------------------------------------------------------------
# Conversions between the domains (the reduced-product operators).  They
# work on plain ints, ``(zeros, ones)`` and ``(lo, hi)``: ``reduce_pair``
# runs on every transfer and usually changes nothing.
# ---------------------------------------------------------------------------

def _common_bits(shape: Shape, lo: int, hi: int) -> Tuple[int, int]:
    """``(zeros, ones)``: the bits every member of ``[lo, hi]`` agrees on.

    When all members share a sign, their patterns form one contiguous
    pattern range, so the common leading prefix of the endpoint patterns
    is known; mixed-sign intervals fix nothing.
    """
    if shape[1] and lo < 0 <= hi:
        return 0, 0
    mask = (1 << shape[0]) - 1
    pa = lo & mask
    prefix = mask ^ ((1 << (pa ^ (hi & mask)).bit_length()) - 1)
    return prefix & ~pa, prefix & pa


def _hull(shape: Shape, zeros: int, ones: int) -> Tuple[int, int]:
    """``(lo, hi)``: the numeric hull of a known-bits pattern set."""
    bits, signed = shape
    mask = (1 << bits) - 1
    if not signed:
        return ones, mask & ~zeros
    sign = 1 << (bits - 1)
    # Minimum: the sign bit set unless proven 0, every other unknown bit
    # 0.  Maximum: the sign bit clear unless proven 1, every other 1.
    if zeros & sign:
        return ones, mask & ~zeros
    if ones & sign:
        return ones - (1 << bits), (mask & ~zeros) - (1 << bits)
    return (ones | sign) - (1 << bits), mask & ~zeros & ~sign


def kb_from_interval(shape: Shape, interval: Interval) -> KnownBits:
    """Bits every member of the interval agrees on."""
    return KnownBits(shape[0], *_common_bits(shape, interval.lo, interval.hi))


def interval_from_kb(shape: Shape, kb: KnownBits) -> Interval:
    """The numeric hull of a known-bits pattern set."""
    return Interval(*_hull(shape, kb.zeros, kb.ones))


def reduce_pair(shape: Shape,
                interval: Interval,
                kb: KnownBits) -> Tuple[Interval, KnownBits]:
    """Mutually refine the two domains (sound reduced product):
    the result concretizations each contain the intersection of the
    inputs' concretizations.  A side that did not change is returned
    as it came in."""
    lo, hi = interval.lo, interval.hi
    klo, khi = _hull(shape, kb.zeros, kb.ones)
    if klo <= hi and lo <= khi:
        lo, hi = max(lo, klo), min(hi, khi)
    zeros, ones = _common_bits(shape, lo, hi)
    zeros |= kb.zeros
    ones |= kb.ones
    if zeros & ones:  # contradictory: keep the known bits as they were
        zeros, ones = kb.zeros, kb.ones
    if lo != interval.lo or hi != interval.hi:
        interval = Interval(lo, hi)
    if zeros != kb.zeros or ones != kb.ones:
        kb = KnownBits(kb.bits, zeros, ones)
    return interval, kb


# ---------------------------------------------------------------------------
# The transformers.  Every one takes ``(src, dst, *operands)``: ``src``
# is the first operand's shape, ``dst`` the result's (``bool`` for a
# comparison, the target for a cast, ``src`` otherwise), and the
# operands are elements of one domain.
# ---------------------------------------------------------------------------

class Transfer(NamedTuple):
    """One opcode's abstract meaning: its transformer in each domain,
    both called as ``(src, dst, *operands)``."""

    interval: Callable[..., Interval]
    kb: Callable[..., KnownBits]


def _fit(shape: Shape, lo: int, hi: int) -> Interval:
    """The interval when the exact result range fits the shape, else the
    full range (the wrap may fold the range arbitrarily)."""
    smin, smax = shape_bounds(shape)
    if smin <= lo and hi <= smax:
        return Interval(lo, hi)
    return Interval(smin, smax)


def _tdiv(n: int, d: int) -> int:
    """C division: truncation toward zero."""
    q = abs(n) // abs(d)
    return -q if (n < 0) != (d < 0) else q


def _product_range(a: Interval, b: Interval) -> Tuple[int, int]:
    corners = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return (min(corners), max(corners))


_EXACT = {
    Opcode.ADD: lambda a, b: (a.lo + b.lo, a.hi + b.hi),
    Opcode.SUB: lambda a, b: (a.lo - b.hi, a.hi - b.lo),
    Opcode.MUL: _product_range,
}


def exact_binary_range(opcode: Opcode, a: Interval,
                       b: Interval) -> Optional[Tuple[int, int]]:
    """The exact mathematical (pre-wrap) result range of add/sub/mul.

    Used by the ``definite-overflow`` checker: when this entire range
    falls outside the shape's representable values, *every* execution
    of the instruction wraps.
    """
    return _EXACT[opcode](a, b) if opcode in _EXACT else None


def _interval_divide(src: Shape, dst: Shape, a: Interval,
                     b: Interval) -> Interval:
    # Executions with a zero divisor trap and produce no value, so the
    # candidate divisors exclude 0.  Truncating division is monotone in
    # the numerator for a fixed divisor and monotone in the divisor on
    # each sign side, so endpoint/near-zero corners bound the result.
    divisors = {d for d in (b.lo, b.hi, 1, -1)
                if b.lo <= d <= b.hi and d != 0}
    if not divisors:
        return Interval.top(dst)  # every execution traps
    quotients = [_tdiv(n, d) for n in (a.lo, a.hi) for d in divisors]
    return _fit(dst, min(quotients), max(quotients))


def _interval_remainder(src: Shape, dst: Shape, a: Interval,
                        b: Interval) -> Interval:
    if b.lo == 0 and b.hi == 0:
        return Interval.top(dst)  # every execution traps
    magnitude = max(abs(b.lo), abs(b.hi)) - 1
    # The remainder takes the dividend's sign and |r| <= min(|n|, |d|-1).
    lo = max(-magnitude, min(a.lo, 0))
    hi = min(magnitude, max(a.hi, 0))
    result = Interval(lo, hi)
    # x % d == x whenever 0 <= x < d on every execution.
    if a.lo >= 0 and b.lo > a.hi:
        result = a
    return result


def _interval_bitwise(opcode: Opcode, shape: Shape, a: Interval,
                      b: Interval) -> Interval:
    # Primary bound through the bit domain; sharpen the common
    # both-non-negative case with the classic magnitude bounds.
    kb = TRANSFERS[opcode].kb(shape, shape, kb_from_interval(shape, a),
                              kb_from_interval(shape, b))
    result = interval_from_kb(shape, kb)
    if a.lo >= 0 and b.lo >= 0:
        if opcode == Opcode.AND:
            bound = Interval(0, min(a.hi, b.hi))
        else:
            width = max(a.hi.bit_length(), b.hi.bit_length())
            upper = (1 << width) - 1
            lo = max(a.lo, b.lo) if opcode == Opcode.OR else 0
            bound = Interval(lo, upper)
        sharpened = result.intersect(bound)
        if sharpened is not None:
            result = sharpened
    return result


def _same_singleton(a: Interval, b: Interval) -> bool:
    return a.is_singleton and b.is_singleton and a.lo == b.lo


def _disjoint(a: Interval, b: Interval) -> bool:
    return a.hi < b.lo or b.hi < a.lo


def _compare(holds: Callable[[int, int], bool], true_when: Callable,
             false_when: Callable, on_conflict: Optional[bool] = None):
    """A comparison's row.  The interval verdict is true (false) when
    ``true_when`` (``false_when``) holds of the operand intervals.  Fully
    known bits fold through ``holds``; when some bit is known to differ,
    an equality test has the verdict ``on_conflict``."""
    def interval(src: Shape, dst: Shape, a: Interval, b: Interval):
        if true_when(a, b):
            return Interval(1, 1)
        if false_when(a, b):
            return Interval(0, 0)
        return Interval(0, 1)

    def kb(src: Shape, dst: Shape, a: KnownBits, b: KnownBits):
        if a.is_fully_known and b.is_fully_known:
            return KnownBits.const(BOOL_SHAPE, int(holds(
                from_pattern(src, a.known_pattern),
                from_pattern(src, b.known_pattern))))
        if on_conflict is not None \
                and (a.ones & b.zeros) | (a.zeros & b.ones):
            return KnownBits.const(BOOL_SHAPE, int(on_conflict))
        return KnownBits.top(1)
    return Transfer(interval, kb)


def _interval_shl(src: Shape, dst: Shape, a: Interval,
                  amount: Interval) -> Interval:
    bits = src[0]
    if amount.lo >= bits:
        return Interval.const(0)  # deterministic saturation
    if amount.hi >= bits:
        return Interval.top(dst)
    corners = [v << k for v in (a.lo, a.hi)
               for k in (amount.lo, amount.hi)]
    return _fit(dst, min(corners), max(corners))


def _interval_shr(src: Shape, dst: Shape, a: Interval,
                  amount: Interval) -> Interval:
    # Python's ``>>`` is an arithmetic shift with natural saturation
    # at large amounts (floor toward -1/0), which matches eval_shift
    # for signed shapes exactly and for unsigned shapes too (their
    # values are non-negative).  Monotone in each argument, so the
    # corners bound the result.
    bits = src[0]
    corners = [v >> min(k, bits) for v in (a.lo, a.hi)
               for k in (amount.lo, amount.hi)]
    return Interval(min(corners), max(corners))


def _interval_conversion(src: Shape, dst: Shape, a: Interval) -> Interval:
    if dst == BOOL_SHAPE and src != BOOL_SHAPE:
        if not a.contains(0):
            return Interval(1, 1)
        if a.is_singleton:
            return Interval(0, 0)
        return Interval(0, 1)
    # eval_cast wraps the numeric value into the destination; when every
    # member is already representable the wrap is the identity.
    dmin, dmax = shape_bounds(dst)
    if dmin <= a.lo and a.hi <= dmax:
        return Interval(a.lo, a.hi)
    return Interval.top(dst)


def _kb_add(bits: int, a: KnownBits, b: KnownBits,
            carry_in: int) -> KnownBits:
    """Exact bitwise carry propagation for addition, in closed form.

    The sum of the operands' largest members has a one wherever some
    execution's sum bit can be one given a possible carry, and the sum
    of their smallest members a zero wherever it can be zero; xor-ing
    the operand bits back out of each leaves the carry into every
    position that is known zero / known one.  A result bit is known
    where both operand bits and the incoming carry are.  ``carry_in``
    is 1 for subtraction encoded as ``a + ~b + 1``.
    """
    mask = (1 << bits) - 1
    largest = (mask & ~a.zeros) + (mask & ~b.zeros) + carry_in
    smallest = a.ones + b.ones + carry_in
    carry_zeros = ~(largest ^ a.zeros ^ b.zeros)
    carry_ones = smallest ^ a.ones ^ b.ones
    known = (a.zeros | a.ones) & (b.zeros | b.ones) \
        & (carry_zeros | carry_ones) & mask
    return KnownBits(bits, ~largest & known, smallest & known)


def _kb_not(kb: KnownBits) -> KnownBits:
    return KnownBits(kb.bits, kb.ones, kb.zeros)


def _kb_mul(bits: int, a: KnownBits, b: KnownBits) -> KnownBits:
    if a.is_fully_known and b.is_fully_known:
        mask = (1 << bits) - 1
        product = (a.known_pattern * b.known_pattern) & mask
        return KnownBits(bits, mask & ~product, product)
    # a = a' * 2^i and b = b' * 2^j force i+j trailing zeros in the
    # product; when a' and b' are both odd, the bit above them is 1.
    tza = a.trailing_known_zeros()
    tzb = b.trailing_known_zeros()
    low = min(tza + tzb, bits)
    zeros = (1 << low) - 1
    ones = 0
    if low < bits and (a.ones >> tza) & 1 and (b.ones >> tzb) & 1:
        ones = 1 << low
    return KnownBits(bits, zeros, ones)


def _kb_divrem(opcode: Opcode, shape: Shape, a: KnownBits,
               b: KnownBits) -> KnownBits:
    bits = shape[0]
    if a.is_fully_known and b.is_fully_known:
        divisor = from_pattern(shape, b.known_pattern)
        if divisor != 0:
            lhs = from_pattern(shape, a.known_pattern)
            result = _tdiv(lhs, divisor) if opcode == Opcode.DIV \
                else lhs - _tdiv(lhs, divisor) * divisor
            return KnownBits.const(shape, result)  # const wraps
        return KnownBits.top(bits)  # every execution traps
    if opcode == Opcode.REM and b.is_fully_known:
        divisor_pattern = b.known_pattern
        divisor = from_pattern(shape, divisor_pattern)
        sign_bit = 1 << (bits - 1)
        non_negative = (not shape[1]) or bool(a.zeros & sign_bit)
        if divisor > 0 and divisor & (divisor - 1) == 0 and non_negative:
            # Non-negative x % 2^k == x & (2^k - 1).
            low = divisor - 1
            mask = (1 << bits) - 1
            return KnownBits(bits, (mask & ~low) | (a.zeros & low),
                             a.ones & low)
    return KnownBits.top(bits)


def _kb_shl(src: Shape, dst: Shape, a: KnownBits,
            amount: KnownBits) -> KnownBits:
    bits = src[0]
    if not amount.is_fully_known:
        return KnownBits.top(bits)
    k = amount.known_pattern  # the amount is unsigned (ubyte)
    mask = (1 << bits) - 1
    if k >= bits:
        return KnownBits(bits, mask, 0)  # saturates to 0
    return KnownBits(bits, ((a.zeros << k) | ((1 << k) - 1)) & mask,
                     (a.ones << k) & mask)


def _kb_shr(src: Shape, dst: Shape, a: KnownBits,
            amount: KnownBits) -> KnownBits:
    bits = src[0]
    if not amount.is_fully_known:
        return KnownBits.top(bits)
    k = amount.known_pattern
    if not src[1]:
        mask = (1 << bits) - 1
        if k >= bits:
            return KnownBits(bits, mask, 0)
        return KnownBits(bits, (a.zeros >> k) | (mask ^ (mask >> k)),
                         a.ones >> k)
    # Arithmetic: vacated bits copy the sign bit.
    k = min(k, bits)  # >= bits saturates to all-sign
    zeros = 0
    ones = 0
    for i in range(bits):
        source = min(i + k, bits - 1)
        if a.zeros & (1 << source):
            zeros |= 1 << i
        elif a.ones & (1 << source):
            ones |= 1 << i
    return KnownBits(bits, zeros, ones)


def _kb_conversion(src: Shape, dst: Shape, a: KnownBits) -> KnownBits:
    src_bits, src_signed = src
    dst_bits = dst[0]
    dst_mask = (1 << dst_bits) - 1
    if dst == BOOL_SHAPE and src != BOOL_SHAPE:
        if a.ones:
            return KnownBits.const(BOOL_SHAPE, 1)  # some bit is set
        if a.zeros == a.mask:
            return KnownBits.const(BOOL_SHAPE, 0)
        return KnownBits.top(1)
    if dst_bits <= src_bits:
        return KnownBits(dst_bits, a.zeros & dst_mask, a.ones & dst_mask)
    # Widening extends by the *source* signedness.
    high = dst_mask & ~a.mask
    zeros = a.zeros
    ones = a.ones
    if not src_signed:
        zeros |= high
    else:
        sign_bit = 1 << (src_bits - 1)
        if a.zeros & sign_bit:
            zeros |= high
        elif a.ones & sign_bit:
            ones |= high
    return KnownBits(dst_bits, zeros, ones)


# ---------------------------------------------------------------------------
# The transfer table
# ---------------------------------------------------------------------------

#: Every integral opcode's abstract meaning, one row each.  The engine
#: transfers through it and ``lc-absint --self-check`` checks every row.
TRANSFERS: Dict[Opcode, Transfer] = {
    Opcode.ADD: Transfer(
        lambda src, dst, a, b: _fit(dst, *exact_binary_range(Opcode.ADD, a, b)),
        lambda src, dst, a, b: _kb_add(src[0], a, b, 0)),
    Opcode.SUB: Transfer(
        lambda src, dst, a, b: _fit(dst, *exact_binary_range(Opcode.SUB, a, b)),
        lambda src, dst, a, b: _kb_add(src[0], a, _kb_not(b), 1)),
    Opcode.MUL: Transfer(
        lambda src, dst, a, b: _fit(dst, *exact_binary_range(Opcode.MUL, a, b)),
        lambda src, dst, a, b: _kb_mul(src[0], a, b)),
    Opcode.DIV: Transfer(
        _interval_divide,
        lambda src, dst, a, b: _kb_divrem(Opcode.DIV, src, a, b)),
    Opcode.REM: Transfer(
        _interval_remainder,
        lambda src, dst, a, b: _kb_divrem(Opcode.REM, src, a, b)),
    Opcode.AND: Transfer(
        lambda src, dst, a, b: _interval_bitwise(Opcode.AND, src, a, b),
        lambda src, dst, a, b: KnownBits(src[0], a.zeros | b.zeros,
                                         a.ones & b.ones)),
    Opcode.OR: Transfer(
        lambda src, dst, a, b: _interval_bitwise(Opcode.OR, src, a, b),
        lambda src, dst, a, b: KnownBits(src[0], a.zeros & b.zeros,
                                         a.ones | b.ones)),
    Opcode.XOR: Transfer(
        lambda src, dst, a, b: _interval_bitwise(Opcode.XOR, src, a, b),
        lambda src, dst, a, b: KnownBits(
            src[0], (a.zeros & b.zeros) | (a.ones & b.ones),
            (a.zeros & b.ones) | (a.ones & b.zeros))),
    Opcode.SETEQ: _compare(operator.eq, _same_singleton, _disjoint,
                           on_conflict=False),
    Opcode.SETNE: _compare(operator.ne, _disjoint, _same_singleton,
                           on_conflict=True),
    Opcode.SETLT: _compare(operator.lt, lambda a, b: a.hi < b.lo,
                           lambda a, b: a.lo >= b.hi),
    Opcode.SETLE: _compare(operator.le, lambda a, b: a.hi <= b.lo,
                           lambda a, b: a.lo > b.hi),
    Opcode.SETGT: _compare(operator.gt, lambda a, b: a.lo > b.hi,
                           lambda a, b: a.hi <= b.lo),
    Opcode.SETGE: _compare(operator.ge, lambda a, b: a.lo >= b.hi,
                           lambda a, b: a.hi < b.lo),
    Opcode.SHL: Transfer(_interval_shl, _kb_shl),
    Opcode.SHR: Transfer(_interval_shr, _kb_shr),
    Opcode.CAST: Transfer(_interval_conversion, _kb_conversion),
}
