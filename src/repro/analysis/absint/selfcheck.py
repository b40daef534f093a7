"""Machine-checked soundness of every abstract transformer.

The check enumerates *abstract* inputs and, for each, every *concrete*
member of their concretizations, runs the real concrete semantics
(:mod:`repro.core.constfold` — the same code the interpreter and the
constant folder execute), and asserts the concrete result is admitted
by the transformer's output.  Trapping executions (division/remainder
by zero) produce no value and are exempt.

The escalation ladder follows lc-synth's narrow-width discipline:

* **4-bit, exhaustive**: every interval (136) and every known-bits
  element (81) on both sides, every opcode, both signednesses — plus
  3- and 6-bit shapes for casts, and the 1-bit bool shape.  Interval
  containment is convex, so checking the min and max of the concrete
  results over the operand box is checking every member.
* **8-bit, exhaustive singletons**: all 65 536 concrete operand pairs
  per opcode/signedness through singleton abstract values (the case
  constant folding and rangeopt rely on), plus seeded non-singleton
  samples.
* **16/32/64-bit, boundary + seeded sampling**: abstract inputs built
  from :func:`repro.tvalid.evaluate.argument_domain`'s boundary window
  (the tvalid input discipline), concrete probes at interval endpoints
  plus seeded interior members.

``lc-absint --self-check`` runs the full ladder and is gated in CI; the
fast mode keeps the unit suite quick.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ...core import types
from ...core.constfold import (
    ArithmeticFault,
    eval_binary,
    eval_cast,
    eval_shift,
)
from ...core.instructions import COMPARISON_OPCODES, Opcode
from ...tvalid.evaluate import argument_domain
from .engine import WIDEN_AFTER, AbsValue, widen
from .domains import (
    BOOL_SHAPE,
    Interval,
    KnownBits,
    Shape,
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
    to_pattern,
)

#: Binary opcodes with an integral result of the operand shape.
ARITH_OPCODES = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
                 Opcode.AND, Opcode.OR, Opcode.XOR)
CMP_OPCODES = tuple(sorted(COMPARISON_OPCODES, key=lambda op: op.value))
ALL_BINARY = ARITH_OPCODES + CMP_OPCODES
SHIFT_OPCODES = (Opcode.SHL, Opcode.SHR)

def _concrete(shape: Shape, numeric: int):
    """The representation constfold expects for a numeric value."""
    return bool(numeric) if shape == BOOL_SHAPE else numeric


def all_intervals(shape: Shape) -> List[Interval]:
    lo, hi = shape_bounds(shape)
    return [Interval(a, b)
            for a in range(lo, hi + 1) for b in range(a, hi + 1)]


def all_knownbits(bits: int) -> List[KnownBits]:
    size = 1 << bits
    return [KnownBits(bits, zeros, ones)
            for zeros in range(size) for ones in range(size)
            if not zeros & ones]


def kb_members(shape: Shape, kb: KnownBits) -> List[int]:
    return [from_pattern(shape, p) for p in range(1 << kb.bits)
            if kb.contains_pattern(p)]


# ---------------------------------------------------------------------------
# Binary opcodes
# ---------------------------------------------------------------------------

def _binary_table(opcode: Opcode, shape: Shape):
    """``table[x - lo][y - lo]`` = numeric result, or None on a trap."""
    ty = types.integral(*shape)
    lo, hi = shape_bounds(shape)
    table = []
    for x in range(lo, hi + 1):
        cx = _concrete(shape, x)
        row = []
        for y in range(lo, hi + 1):
            try:
                row.append(int(eval_binary(opcode, ty, cx,
                                           _concrete(shape, y))))
            except ArithmeticFault:
                row.append(None)
        table.append(row)
    return table


def _box_extremes(table, lo0: int, a: Interval, b: Interval):
    """Min/max concrete result over the operand box, or None when every
    execution in the box traps."""
    cmin = cmax = None
    left = b.lo - lo0
    right = b.hi - lo0 + 1
    for xi in range(a.lo - lo0, a.hi - lo0 + 1):
        segment = [v for v in table[xi][left:right] if v is not None]
        if not segment:
            continue
        low, high = min(segment), max(segment)
        if cmin is None or low < cmin:
            cmin = low
        if cmax is None or high > cmax:
            cmax = high
    if cmin is None:
        return None
    return cmin, cmax


def check_interval_binary_exhaustive(opcode: Opcode, shape: Shape,
                                     problems: List[str],
                                     intervals: Optional[list] = None) -> None:
    table = _binary_table(opcode, shape)
    lo0 = shape_bounds(shape)[0]
    intervals = intervals if intervals is not None else all_intervals(shape)
    for a in intervals:
        for b in intervals:
            result = interval_binary(opcode, shape, a, b)
            extremes = _box_extremes(table, lo0, a, b)
            if extremes is None:
                continue
            cmin, cmax = extremes
            if not (result.lo <= cmin and cmax <= result.hi):
                problems.append(
                    f"interval {opcode.value} {shape}: {a} x {b} -> "
                    f"{result} misses concrete [{cmin}, {cmax}]")
                return  # one witness per transformer keeps reports short


def check_kb_binary_exhaustive(opcode: Opcode, shape: Shape,
                               problems: List[str],
                               kbs: Optional[list] = None) -> None:
    table = _binary_table(opcode, shape)
    lo0 = shape_bounds(shape)[0]
    result_shape = BOOL_SHAPE if opcode in COMPARISON_OPCODES else shape
    kbs = kbs if kbs is not None else all_knownbits(shape[0])
    members = [kb_members(shape, kb) for kb in kbs]
    for a, xs in zip(kbs, members):
        for b, ys in zip(kbs, members):
            result = kb_binary(opcode, shape, a, b)
            for x in xs:
                row = table[x - lo0]
                for y in ys:
                    value = row[y - lo0]
                    if value is None:
                        continue
                    if not result.contains_pattern(
                            to_pattern(result_shape, value)):
                        problems.append(
                            f"knownbits {opcode.value} {shape}: {a} x {b} "
                            f"-> {result} misses {value} (from {x}, {y})")
                        return


def check_binary_singletons(opcode: Opcode, shape: Shape,
                            problems: List[str], stride: int = 1) -> None:
    """Exhaustive concrete pairs through singleton abstract values."""
    ty = types.integral(*shape)
    lo, hi = shape_bounds(shape)
    result_shape = BOOL_SHAPE if opcode in COMPARISON_OPCODES else shape
    for x in range(lo, hi + 1, stride):
        cx = _concrete(shape, x)
        a_iv = Interval.const(x)
        a_kb = KnownBits.const(shape, x)
        for y in range(lo, hi + 1, stride):
            try:
                value = int(eval_binary(opcode, ty, cx, _concrete(shape, y)))
            except ArithmeticFault:
                continue
            b_iv = Interval.const(y)
            b_kb = KnownBits.const(shape, y)
            iv = interval_binary(opcode, shape, a_iv, b_iv)
            if not iv.contains(value):
                problems.append(
                    f"interval {opcode.value} {shape} singleton: "
                    f"{x} op {y} = {value} not in {iv}")
                return
            kb = kb_binary(opcode, shape, a_kb, b_kb)
            if not kb.contains_pattern(to_pattern(result_shape, value)):
                problems.append(
                    f"knownbits {opcode.value} {shape} singleton: "
                    f"{x} op {y} = {value} not in {kb}")
                return


def check_binary_sampled(opcode: Opcode, shape: Shape, problems: List[str],
                         rng: random.Random, rounds: int,
                         probes: int = 8) -> None:
    """Boundary + seeded sampling for wide shapes: abstract inputs from
    the tvalid argument window, concrete probes at endpoints + seeded
    interior members."""
    ty = types.integral(*shape)
    result_shape = BOOL_SHAPE if opcode in COMPARISON_OPCODES else shape
    domain = argument_domain(ty) or []
    lo, hi = shape_bounds(shape)

    def random_interval() -> Interval:
        kind = rng.randrange(3)
        if kind == 0:
            v = rng.choice(domain)
            return Interval(v, v)
        a, b = rng.choice(domain), rng.choice(domain)
        if kind == 1:
            a, b = rng.randrange(lo, hi + 1), rng.randrange(lo, hi + 1)
        return Interval(min(a, b), max(a, b))

    def probes_of(interval: Interval) -> list:
        values = {interval.lo, interval.hi}
        for _ in range(probes):
            values.add(rng.randrange(interval.lo, interval.hi + 1))
        return sorted(values)

    for _ in range(rounds):
        a, b = random_interval(), random_interval()
        iv = interval_binary(opcode, shape, a, b)
        a_kb, b_kb = kb_from_interval(shape, a), kb_from_interval(shape, b)
        kb = kb_binary(opcode, shape, a_kb, b_kb)
        for x in probes_of(a):
            for y in probes_of(b):
                try:
                    value = int(eval_binary(opcode, ty, _concrete(shape, x),
                                            _concrete(shape, y)))
                except ArithmeticFault:
                    continue
                if not iv.contains(value):
                    problems.append(
                        f"interval {opcode.value} {shape} sampled: "
                        f"{a} x {b} -> {iv} misses {value} ({x}, {y})")
                    return
                if not kb.contains_pattern(to_pattern(result_shape, value)):
                    problems.append(
                        f"knownbits {opcode.value} {shape} sampled: "
                        f"{a_kb} x {b_kb} -> {kb} misses {value} ({x}, {y})")
                    return


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def _shift_table(opcode: Opcode, shape: Shape):
    """``table[x - lo][k]`` over every ubyte amount ``k``."""
    ty = types.integral(*shape)
    lo, hi = shape_bounds(shape)
    return [[int(eval_shift(opcode, ty, x, k)) for k in range(256)]
            for x in range(lo, hi + 1)]


def _amount_intervals(bits: int) -> List[Interval]:
    marks = sorted(set(list(range(bits + 2)) + [63, 64, 255]))
    return [Interval(a, b) for a in marks for b in marks if a <= b]


def check_shift_exhaustive(opcode: Opcode, shape: Shape,
                           problems: List[str],
                           intervals: Optional[list] = None) -> None:
    table = _shift_table(opcode, shape)
    lo0 = shape_bounds(shape)[0]
    bits = shape[0]
    intervals = intervals if intervals is not None else all_intervals(shape)
    amounts = _amount_intervals(bits)
    for a in intervals:
        rows = table[a.lo - lo0:a.hi - lo0 + 1]
        for amt in amounts:
            result = interval_shift(opcode, shape, a, amt)
            cmin = min(min(row[amt.lo:amt.hi + 1]) for row in rows)
            cmax = max(max(row[amt.lo:amt.hi + 1]) for row in rows)
            if not (result.lo <= cmin and cmax <= result.hi):
                problems.append(
                    f"interval {opcode.value} {shape}: {a} by {amt} -> "
                    f"{result} misses concrete [{cmin}, {cmax}]")
                return
    # Known-bits: every value element against every fully-known amount
    # (the transformer returns top for partially-known amounts, checked
    # by construction) plus the top amount.
    known_amounts = [KnownBits.const(SHIFT_SHAPE, k)
                     for k in sorted({0, 1, 2, bits - 1, bits, bits + 1, 255})]
    kbs = all_knownbits(bits)
    for a in kbs:
        xs = kb_members(shape, a)
        for amt_kb in known_amounts + [KnownBits.top(8)]:
            result = kb_shift(opcode, shape, a, amt_kb)
            amounts_concrete = [amt_kb.known_pattern] \
                if amt_kb.is_fully_known else [0, 1, bits, 255]
            for x in xs:
                for k in amounts_concrete:
                    value = table[x - lo0][k]
                    if not result.contains_pattern(to_pattern(shape, value)):
                        problems.append(
                            f"knownbits {opcode.value} {shape}: {a} by "
                            f"{amt_kb} -> {result} misses {value} "
                            f"({x} by {k})")
                        return


SHIFT_SHAPE: Shape = (8, False)


# ---------------------------------------------------------------------------
# Casts
# ---------------------------------------------------------------------------

def check_cast_exhaustive(src: Shape, dst: Shape,
                          problems: List[str]) -> None:
    src_ty = types.integral(*src)
    dst_ty = types.integral(*dst)
    lo, hi = shape_bounds(src)
    table = [int(eval_cast(src_ty, dst_ty, _concrete(src, v)))
             for v in range(lo, hi + 1)]
    for a in all_intervals(src):
        result = interval_cast(src, dst, a)
        segment = table[a.lo - lo:a.hi - lo + 1]
        cmin, cmax = min(segment), max(segment)
        if not (result.lo <= cmin and cmax <= result.hi):
            problems.append(
                f"interval cast {src}->{dst}: {a} -> {result} misses "
                f"concrete [{cmin}, {cmax}]")
            return
    for a in all_knownbits(src[0]):
        result = kb_cast(src, dst, a)
        for x in kb_members(src, a):
            value = table[x - lo]
            if not result.contains_pattern(to_pattern(dst, value)):
                problems.append(
                    f"knownbits cast {src}->{dst}: {a} -> {result} "
                    f"misses {value} (from {x})")
                return


# ---------------------------------------------------------------------------
# The reduction operator
# ---------------------------------------------------------------------------

def check_reduction(shape: Shape, problems: List[str]) -> None:
    """``reduce_pair`` must keep every value admitted by *both* inputs,
    and the domain conversions must individually over-approximate."""
    lo, hi = shape_bounds(shape)
    kbs = all_knownbits(shape[0])
    for interval in all_intervals(shape):
        kb_view = kb_from_interval(shape, interval)
        for v in range(interval.lo, interval.hi + 1):
            if not kb_view.contains(shape, v):
                problems.append(
                    f"kb_from_interval {shape}: {interval} -> {kb_view} "
                    f"misses {v}")
                return
    for kb in kbs:
        iv_view = interval_from_kb(shape, kb)
        for v in kb_members(shape, kb):
            if not iv_view.contains(v):
                problems.append(
                    f"interval_from_kb {shape}: {kb} -> {iv_view} "
                    f"misses {v}")
                return
    for interval in all_intervals(shape):
        for kb in kbs:
            new_iv, new_kb = reduce_pair(shape, interval, kb)
            for v in range(interval.lo, interval.hi + 1):
                if kb.contains(shape, v) and not (
                        new_iv.contains(v) and new_kb.contains(shape, v)):
                    problems.append(
                        f"reduce_pair {shape}: ({interval}, {kb}) -> "
                        f"({new_iv}, {new_kb}) drops {v}")
                    return


# ---------------------------------------------------------------------------
# The widening operator
# ---------------------------------------------------------------------------

def all_abs_values(shape: Shape) -> List[AbsValue]:
    """Every element the engine can hold: the distinct results of
    ``AbsValue.make`` over the satisfiable (interval, known-bits) pairs."""
    seen = {}
    for kb in all_knownbits(shape[0]):
        admitted = kb_members(shape, kb)
        for interval in all_intervals(shape):
            if any(interval.contains(v) for v in admitted):
                seen[AbsValue.make(shape, interval, kb)] = None
    return list(seen)


def check_widening_extensive(shape: Shape, problems: List[str]) -> None:
    """``widen(previous, joined)`` must admit every value either argument
    admits: covering ``joined`` is what keeps the phi's fact sound,
    covering ``previous`` is what makes the ascent monotone."""
    lo = shape_bounds(shape)[0]

    def members(value: AbsValue) -> int:
        """The concretization as a bit set over the shape's values."""
        return sum(1 << (v - lo) for v in kb_members(shape, value.kb)
                   if value.interval.contains(v))

    values = [(value, members(value)) for value in all_abs_values(shape)]
    results = {}  # widen lands on few distinct elements
    for previous, before in values:
        for joined, incoming in values:
            result = widen(previous, joined)
            key = (result.interval.lo, result.interval.hi,
                   result.kb.zeros, result.kb.ones)
            admitted = results.get(key)
            if admitted is None:
                admitted = results[key] = members(result)
            lost = (before | incoming) & ~admitted
            if lost:
                problems.append(
                    f"widen {shape}: ({previous}) with ({joined}) -> "
                    f"({result}) drops {lost.bit_length() - 1 + lo}")
                return


def _phi_settles(start: AbsValue, body: Callable[[AbsValue], AbsValue],
                 limit: int, allowed: int) -> bool:
    """Whether the loop phi ``x = phi(start, body(x))`` is stable after
    at most ``allowed`` changes under the engine's rule: plain joins
    until the ``limit``-th change, :func:`widen` from then on."""
    state = start
    for change in range(1, allowed + 2):
        joined = start.join(body(state))
        if change >= limit:
            joined = widen(state, joined)
        if joined == state:
            return True
        state = joined
    return False


def check_widening_chains(shape: Shape, problems: List[str],
                          starts: list, steps: list, limit: int) -> None:
    """Every one-phi loop ``x = phi(c, x op k)`` / ``phi(c, k op x)``
    settles within two changes of the one that first widens.  An
    operator that leaves the two domains inconsistent — keeping the
    join's known bits beside the widened interval — ascends one bit per
    round trip instead and fails this at every width."""
    allowed = limit + 2
    for opcode in ARITH_OPCODES:
        for k in steps:
            step = AbsValue.const(shape, k)
            for swapped in (False, True):

                def body(x: AbsValue) -> AbsValue:
                    a, b = (step, x) if swapped else (x, step)
                    return AbsValue.make(
                        shape,
                        interval_binary(opcode, shape, a.interval, b.interval),
                        kb_binary(opcode, shape, a.kb, b.kb))

                for c in starts:
                    if not _phi_settles(AbsValue.const(shape, c), body,
                                        limit, allowed):
                        loop = f"{k} {opcode.value} x" if swapped \
                            else f"x {opcode.value} {k}"
                        problems.append(
                            f"widen {shape}: x = phi({c}, {loop}) still "
                            f"moving after {allowed} changes "
                            f"(widening from change {limit})")
                        return


# ---------------------------------------------------------------------------
# The ladder
# ---------------------------------------------------------------------------

def run_self_check(full: bool = True, seed: int = 0x5eed,
                   log: Optional[Callable[[str], None]] = None) -> List[str]:
    """Run the soundness ladder; returns the list of violations (empty
    means every transformer proved sound at every probed width)."""
    problems: List[str] = []
    rng = random.Random(seed)

    def say(message: str) -> None:
        if log is not None:
            log(message)

    narrow_bits = 4 if full else 3
    narrow_shapes = [(narrow_bits, False), (narrow_bits, True)]

    say(f"[1/5] {narrow_bits}-bit exhaustive: binary opcodes over both "
        f"domains, both signednesses")
    for shape in narrow_shapes:
        for opcode in ALL_BINARY:
            check_interval_binary_exhaustive(opcode, shape, problems)
            check_kb_binary_exhaustive(opcode, shape, problems)
    for opcode in (Opcode.AND, Opcode.OR, Opcode.XOR) + CMP_OPCODES:
        check_interval_binary_exhaustive(opcode, BOOL_SHAPE, problems)
        check_kb_binary_exhaustive(opcode, BOOL_SHAPE, problems)

    say(f"[2/5] {narrow_bits}-bit exhaustive: shifts (saturating "
        f"amounts included)")
    for shape in narrow_shapes:
        for opcode in SHIFT_OPCODES:
            check_shift_exhaustive(opcode, shape, problems)

    say("[3/5] cast matrix over narrow shapes + bool")
    cast_shapes = [(3, False), (3, True), (narrow_bits, False),
                   (narrow_bits, True), (6, False), (6, True), BOOL_SHAPE] \
        if full else [(3, False), (3, True), BOOL_SHAPE]
    for src in cast_shapes:
        for dst in cast_shapes:
            check_cast_exhaustive(src, dst, problems)

    say("[4/5] reduced product: conversions, reduce_pair and the "
        "widening operator")
    for shape in narrow_shapes:
        check_reduction(shape, problems)
        check_widening_extensive(shape, problems)
        # Too narrow to keep a known bit through WIDEN_AFTER changes, so
        # widen from the first one.
        lo, hi = shape_bounds(shape)
        everything = list(range(lo, hi + 1))
        check_widening_chains(shape, problems, everything, everything,
                              limit=1)
    for shape in ((32, True), (64, True), (64, False)) if full \
            else ((32, True),):
        ty = types.integral(*shape)
        check_widening_chains(shape, problems,
                              argument_domain(ty, core_only=True),
                              argument_domain(ty), limit=WIDEN_AFTER)

    if full:
        say("[5/5] 8-bit exhaustive singletons; 16/32/64-bit boundary "
            "+ seeded sampling")
        for shape in ((8, False), (8, True)):
            for opcode in ALL_BINARY:
                check_binary_singletons(opcode, shape, problems)
        for bits in (16, 32, 64):
            for signed in (False, True):
                for opcode in ALL_BINARY:
                    check_binary_sampled(opcode, (bits, signed), problems,
                                         rng, rounds=40)
    else:
        say("[5/5] 8-bit strided singletons (fast mode)")
        for shape in ((8, False), (8, True)):
            for opcode in ALL_BINARY:
                check_binary_singletons(opcode, shape, problems, stride=7)
        for opcode in ALL_BINARY:
            check_binary_sampled(opcode, (32, True), problems, rng,
                                 rounds=6, probes=4)

    return problems
