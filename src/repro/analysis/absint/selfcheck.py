"""Machine-checked soundness, and a measured precision, of every row of
the transfer table.

:func:`check_row` checks one row of :data:`~.domains.TRANSFERS` over the
product of its operands' :class:`Space` s, against the concrete results
:mod:`repro.core.constfold` (the interpreter's and the folder's code)
gives for the executions each tuple of abstract operands admits.  The
row's result must cover their best abstraction — their ``[min, max]``,
the bits they all agree on — and is *exact* when it equals it.
Trapping executions (division/remainder by zero) produce no value, and
a tuple that admits only those is not counted.  Exact / counted is a
row's precision score per domain and shape, after "Nice to Meet You"
(PAPERS.md).

The ladder follows lc-synth's narrow-width discipline; rungs 1, 3 and 4
each check every row: (1) every element of both domains at 4 bits (3 in
fast mode), with the precision scores; (2) the reduced product's
conversions, ``reduce_pair`` and the widening operator; (3) 8-bit
singletons, every shift amount and casts to every production width; (4)
seeded boundary samples at 16/32/64 bits.  docs/ANALYSIS.md has the
details.  ``lc-absint --self-check`` runs the full ladder and prints the
precision table; CI gates it.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ...core import types
from ...core.constfold import (
    ArithmeticFault,
    binary_evaluator,
    cast_evaluator,
    shift_evaluator,
)
from ...core.instructions import COMPARISON_OPCODES, Opcode
from ...tvalid.evaluate import argument_domain
from .engine import WIDEN_AFTER, AbsValue, widen
from .domains import (
    BOOL_SHAPE,
    SHIFT_AMOUNT_SHAPE,
    TRANSFERS,
    Interval,
    KnownBits,
    Shape,
    from_pattern,
    interval_from_kb,
    kb_from_interval,
    reduce_pair,
    shape_bounds,
)

#: Rows with a result of the operand shape, whose loops the widening
#: checks close.
ARITH_OPCODES = (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
                 Opcode.AND, Opcode.OR, Opcode.XOR)
SHIFT_OPCODES = (Opcode.SHL, Opcode.SHR)

#: Rows the IR also types at ``bool``.
_BOOL_ROWS = COMPARISON_OPCODES | {Opcode.AND, Opcode.OR, Opcode.XOR}

#: The shapes of the IR's integral types.
PRODUCTION_SHAPES = [(bits, signed) for bits in (8, 16, 32, 64)
                     for signed in (False, True)] + [BOOL_SHAPE]

#: ``(row label, domain) -> (exact, counted)`` abstract operand tuples.
Scores = Dict[Tuple[str, str], Tuple[int, int]]


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
# Operand spaces
# ---------------------------------------------------------------------------

class Space(NamedTuple):
    """What one operand ranges over: its concrete ``values``, and each
    element of each domain with the positions in ``values`` it admits (a
    ``range`` for an interval)."""

    shape: Shape
    values: Sequence[int]
    intervals: Sequence[Tuple[Interval, range]]
    kbs: Sequence[Tuple[KnownBits, Sequence[int]]]


@functools.cache
def every(shape: Shape) -> Space:
    """Every value, interval and known-bits element of a narrow shape."""
    lo, hi = shape_bounds(shape)
    return Space(shape, range(lo, hi + 1),
                 tuple((iv, range(iv.lo - lo, iv.hi - lo + 1))
                       for iv in all_intervals(shape)),
                 tuple((kb, tuple(v - lo for v in kb_members(shape, kb)))
                       for kb in all_knownbits(shape[0])))


@functools.cache
def singletons(shape: Shape, stride: int = 1) -> Space:
    """Every ``stride``-th value of a shape, each as its own element."""
    lo, hi = shape_bounds(shape)
    values = range(lo, hi + 1, stride)
    return Space(shape, values,
                 tuple((Interval.const(v), range(i, i + 1))
                       for i, v in enumerate(values)),
                 tuple((KnownBits.const(shape, v), range(i, i + 1))
                       for i, v in enumerate(values)))


@functools.cache
def amounts(bits: int) -> Space:
    """Shift amounts for a ``bits``-wide value: every ubyte amount, the
    intervals between the marks around the width, and each mark as a
    known amount plus the unknown one (a partially known amount gives
    top by construction)."""
    marks = sorted({*range(bits + 2), 63, 64, 255})
    return Space(SHIFT_AMOUNT_SHAPE, range(256),
                 tuple((Interval(a, b), range(a, b + 1))
                       for a in marks for b in marks if a <= b),
                 tuple((KnownBits.const(SHIFT_AMOUNT_SHAPE, k), (k,))
                       for k in marks) + ((KnownBits.top(8), range(256)),))


def sampled(shape: Shape, window: Sequence[int], rng: random.Random,
            probes: int) -> Space:
    """One seeded interval of a wide shape — a point of ``window``, a
    span between two, or a span between random values — with its known
    bits, probed at its endpoints and ``probes`` seeded members."""
    lo, hi = shape_bounds(shape)
    kind = rng.randrange(3)
    a, b = rng.choice(window), rng.choice(window)
    if kind == 0:
        b = a
    elif kind == 1:
        a, b = rng.randrange(lo, hi + 1), rng.randrange(lo, hi + 1)
    iv = Interval(min(a, b), max(a, b))
    values = sorted({iv.lo, iv.hi, *(rng.randrange(iv.lo, iv.hi + 1)
                                     for _ in range(probes))})
    everywhere = range(len(values))
    return Space(shape, values, ((iv, everywhere),),
                 ((kb_from_interval(shape, iv), everywhere),))


def _cases(opcode: Opcode, shapes: List[Shape],
           casts: List[Tuple[Shape, Shape]], value: Callable,
           amount: Callable) -> List[Tuple[Shape, Shape, tuple]]:
    """``(src, dst, spaces)`` for each signature a rung checks a row at:
    ``casts`` for a cast, else each of ``shapes`` the IR types the row
    at.  ``value(shape)`` is a value operand's space, ``amount(bits)`` a
    shift amount's."""
    if opcode == Opcode.CAST:
        return [(src, dst, (value(src),)) for src, dst in casts]
    cases = []
    for src in shapes:
        if src != BOOL_SHAPE or opcode in _BOOL_ROWS:
            dst = BOOL_SHAPE if opcode in COMPARISON_OPCODES else src
            second = amount(src[0]) if opcode in SHIFT_OPCODES \
                else value(src)
            cases.append((src, dst, (value(src), second)))
    return cases


def _evaluator(opcode: Opcode, src: Shape, dst: Shape) -> Callable:
    """constfold's concrete meaning of a row at these shapes."""
    ty = types.integral(*src)
    if opcode == Opcode.CAST:
        return cast_evaluator(ty, types.integral(*dst))
    if opcode in SHIFT_OPCODES:
        return shift_evaluator(opcode, ty)
    return binary_evaluator(opcode, ty)


def _row_label(opcode: Opcode, src: Shape, dst: Shape) -> str:
    """``"add s4"``, or ``"cast s3>u4"`` for a cast."""
    text = [f"{'us'[signed]}{bits}" if (bits, signed) != BOOL_SHAPE
            else "bool" for bits, signed in (src, dst)]
    return f"cast {text[0]}>{text[1]}" if opcode == Opcode.CAST \
        else f"{opcode.value} {text[0]}"


# ---------------------------------------------------------------------------
# One row
# ---------------------------------------------------------------------------

def _result(evaluate: Callable, *operands) -> Optional[int]:
    try:
        return int(evaluate(*operands))
    except ArithmeticFault:
        return None  # the execution traps


def check_row(opcode: Opcode, src: Shape, dst: Shape,
              spaces: Sequence[Space], problems: List[str],
              scores: Optional[Scores] = None) -> None:
    """Check one row at ``src`` -> ``dst`` over the product of
    ``spaces``, one per operand.  Each domain reports at most one
    witness into ``problems``; with ``scores``, a domain that passed
    records its (exact, counted) tuples."""
    row = TRANSFERS[opcode]
    label = _row_label(opcode, src, dst)
    evaluate = _evaluator(opcode, src, dst)
    first, rest = spaces[0], spaces[1:]
    operands = [[bool(v) if space.shape == BOOL_SHAPE else v
                 for v in space.values] for space in spaces]
    # ``table[i][j]``: the result on the i-th value of the first operand
    # and the j-th of the second; a cast has one column.
    table = [[_result(evaluate, x, *ys)
              for ys in itertools.product(*operands[1:])]
             for x in operands[0]]
    mask = (1 << dst[0]) - 1
    patterns = [[v if v is None else v & mask for v in line]
                for line in table]

    def interval_image(at: range) -> Callable:
        # Each row's extremes over the column; a box folds its rows'.
        extremes = [(min(live), max(live)) if live else None
                    for live in ([v for v in line[at.start:at.stop]
                                  if v is not None] for line in table)]

        def image(rows: range) -> Optional[Interval]:
            low = high = None
            for pair in extremes[rows.start:rows.stop]:
                if pair is not None:
                    if low is None or pair[0] < low:
                        low = pair[0]
                    if high is None or pair[1] > high:
                        high = pair[1]
            return None if low is None else Interval(low, high)
        return image

    def kb_image(at: Sequence[int]) -> Callable:
        def image(rows: Sequence[int]) -> Optional[KnownBits]:
            zeros = ones = mask
            live = False
            for i in rows:
                line = patterns[i]
                for j in at:
                    if line[j] is not None:
                        zeros &= ~line[j]
                        ones &= line[j]
                        live = True
            return KnownBits(dst[0], zeros, ones) if live else None
        return image

    for domain, transfer, elements, seconds, image_of in (
            ("interval", row.interval, first.intervals,
             rest[0].intervals if rest else None, interval_image),
            ("knownbits", row.kb, first.kbs,
             rest[0].kbs if rest else None, kb_image)):
        columns = [((b,), at) for b, at in seconds] if rest \
            else [((), range(1))]
        tally = _check_domain(f"{domain} {label}",
                              functools.partial(transfer, src, dst),
                              elements, columns, image_of, problems)
        if tally is not None and scores is not None:
            scores[(label, domain)] = tally


def _check_domain(what: str, transfer: Callable, elements: Sequence,
                  columns: list, image_of: Callable,
                  problems: List[str]) -> Optional[Tuple[int, int]]:
    """One domain of :func:`check_row`: (exact, counted), or None after
    reporting the first unsound tuple."""
    exact = counted = 0
    for extra, at in columns:
        image = image_of(at)
        for a, rows in elements:
            best = image(rows)
            if best is None:
                continue  # every execution the tuple admits traps
            result = transfer(a, *extra)
            if result == best:
                exact += 1
            elif result.join(best) != result:
                operands = " x ".join(map(str, (a,) + extra))
                problems.append(f"{what}: {operands} -> {result} misses "
                                f"the concrete results' {best}")
                return None
            counted += 1
    return exact, counted


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
        row = TRANSFERS[opcode]
        for k in steps:
            step = AbsValue.const(shape, k)
            for swapped in (False, True):

                def body(x: AbsValue) -> AbsValue:
                    a, b = (step, x) if swapped else (x, step)
                    return AbsValue.make(
                        shape,
                        row.interval(shape, shape, a.interval, b.interval),
                        row.kb(shape, shape, a.kb, b.kb))

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

def check_exhaustive(full: bool, problems: List[str],
                     scores: Optional[Scores] = None) -> None:
    """Rung 1: every row over every element of the narrow shapes."""
    bits = 4 if full else 3
    shapes = [(bits, False), (bits, True), BOOL_SHAPE]
    cast_shapes = [(bits, signed) for bits in ((3, 4, 6) if full else (3,))
                   for signed in (False, True)] + [BOOL_SHAPE]
    casts = [(src, dst) for src in cast_shapes for dst in cast_shapes]
    for opcode in TRANSFERS:
        for src, dst, spaces in _cases(opcode, shapes, casts, every, amounts):
            check_row(opcode, src, dst, spaces, problems, scores)


def run_self_check(full: bool = True, seed: int = 0x5eed,
                   log: Optional[Callable[[str], None]] = None) -> List[str]:
    """Run the soundness ladder; returns the list of violations (empty
    means every row proved sound at every probed width)."""
    problems: List[str] = []
    rng = random.Random(seed)

    def say(message: str) -> None:
        if log is not None:
            log(message)

    narrow_bits = 4 if full else 3
    say(f"[1/4] {narrow_bits}-bit exhaustive: every row over both domains, "
        f"both signednesses and bool; casts over narrow shapes + bool")
    scores: Scores = {}
    check_exhaustive(full, problems, scores)
    say("precision: exact / counted abstract operand tuples, per row")
    for (label, domain), (exact, counted) in scores.items():
        if domain == "interval":
            kb_exact, kb_counted = scores.get((label, "knownbits"), (0, 1))
            say(f"  {label:<14} interval {exact / counted:.2f} "
                f"({exact}/{counted})  knownbits {kb_exact / kb_counted:.2f} "
                f"({kb_exact}/{kb_counted})")

    say("[2/4] reduced product: conversions, reduce_pair and the "
        "widening operator")
    for shape in ((narrow_bits, False), (narrow_bits, True)):
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
        # The engine's two schedules: a basic induction variable widens
        # at its first grow, any other loop-header phi at WIDEN_AFTER.
        for limit in (1, WIDEN_AFTER):
            check_widening_chains(shape, problems,
                                  argument_domain(ty, core_only=True),
                                  argument_domain(ty), limit=limit)

    stride = 1 if full else 7
    say(f"[3/4] 8-bit {'exhaustive' if full else 'strided'} singletons: "
        f"every row; shifts by every amount, casts to every production "
        f"width")
    shapes = [(8, False), (8, True)]
    casts = [(src, dst) for src in shapes + [BOOL_SHAPE]
             for dst in PRODUCTION_SHAPES]
    for opcode in TRANSFERS:
        for src, dst, spaces in _cases(
                opcode, shapes, casts, lambda shape: singletons(shape, stride),
                lambda bits: singletons(SHIFT_AMOUNT_SHAPE)):
            check_row(opcode, src, dst, spaces, problems)

    say(f"[4/4] {'16/32/64' if full else '32'}-bit boundary + seeded "
        f"sampling: every row; casts between production widths")
    wide = [(bits, signed) for bits in (16, 32, 64)
            for signed in (False, True)] if full else [(32, True)]
    casts = [(src, dst) for src in PRODUCTION_SHAPES
             for dst in PRODUCTION_SHAPES] if full \
        else [((32, True), dst) for dst in PRODUCTION_SHAPES]
    rounds, probes = (40, 8) if full else (6, 4)

    def value(shape: Shape) -> Space:
        window = argument_domain(types.integral(*shape))
        return sampled(shape, [int(v) for v in window], rng, probes)

    def amount(bits: int) -> Space:
        window = argument_domain(types.UBYTE) + [bits - 1, bits, bits + 1]
        return sampled(SHIFT_AMOUNT_SHAPE, window, rng, probes)

    for opcode in TRANSFERS:
        reported = len(problems)
        for _ in range(rounds):
            if len(problems) > reported:
                break  # one witness per row is enough
            for src, dst, spaces in _cases(opcode, wide, casts, value, amount):
                check_row(opcode, src, dst, spaces, problems)

    return problems
