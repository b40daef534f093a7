"""Tests for the abstract interpreter (analysis/absint), the rangeopt
pass it feeds, and the range-driven lint checkers."""

import io
import random

import pytest

from repro.analysis.absint import (
    BOOL_SHAPE, TRANSFERS, AbsValue, Interval, KnownBits, analyze_function,
    analyze_module, exact_binary_range, interval_from_kb, kb_from_interval,
    reduce_pair, run_self_check, shape_of,
)
from repro.analysis.absint.domains import _kb_add
from repro.core import parse_function, parse_module, types, verify_function
from repro.core.constfold import ArithmeticFault, eval_binary
from repro.core.instructions import BINARY_OPCODES, Opcode
from repro.execution import ExecutionError, Interpreter
from repro.frontend import compile_source
from repro.sanalysis import run_checkers
from repro.transforms import PromoteMem2Reg, RangeOpt


INT = (32, True)
UINT = (32, False)


class TestDomains:
    def test_interval_join_and_intersect(self):
        a, b = Interval(0, 5), Interval(3, 9)
        assert a.join(b) == Interval(0, 9)
        assert a.intersect(b) == Interval(3, 5)
        assert Interval(0, 1).intersect(Interval(5, 6)) is None

    def test_knownbits_membership(self):
        kb = KnownBits(8, zeros=0b1, ones=0b100)  # xxxxx10x
        assert kb.contains((8, False), 0b0100)
        assert kb.contains((8, False), 0b1100)
        assert not kb.contains((8, False), 0b0101)  # bit0 must be 0
        assert not kb.contains((8, False), 0b0000)  # bit2 must be 1

    def test_reduction_is_sound_and_sharpening(self):
        # [4, 5] pins the common high bits: 000001xx -> 0000010x.
        iv = Interval(4, 5)
        kb = kb_from_interval(INT, iv)
        assert kb.contains(INT, 4) and kb.contains(INT, 5)
        assert not kb.contains(INT, 6)
        back = interval_from_kb(INT, kb)
        assert back.contains_interval(iv)
        riv, rkb = reduce_pair(INT, Interval(0, 100), KnownBits.const(INT, 7))
        assert riv == Interval(7, 7)

    def test_interval_binary_matches_concrete(self):
        a, b = Interval(-3, 4), Interval(2, 5)
        for opcode in (Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV):
            result = TRANSFERS[opcode].interval(INT, INT, a, b)
            for x in range(a.lo, a.hi + 1):
                for y in range(b.lo, b.hi + 1):
                    concrete = eval_binary(opcode, types.INT, x, y)
                    assert result.contains(concrete), (opcode, x, y)

    def test_kb_and_tracks_masks(self):
        kb = TRANSFERS[Opcode.AND].kb(UINT, UINT, KnownBits.top(32),
                                      KnownBits.const(UINT, 0xFF))
        assert kb.zeros & 0xFFFFFF00 == 0xFFFFFF00  # high bits known zero

    def test_exact_binary_range_prewrap(self):
        big = Interval(2_000_000_000, 2_000_000_000)
        assert exact_binary_range(Opcode.ADD, big, big) == \
            (4_000_000_000, 4_000_000_000)
        assert exact_binary_range(Opcode.DIV, big, big) is None

    def test_shape_of(self):
        assert shape_of(types.INT) == INT
        assert shape_of(types.BOOL) == BOOL_SHAPE
        assert shape_of(types.FLOAT) is None


def _ripple_kb_add(bits, a, b, carry_in):
    """The reference `_kb_add` is checked against: walk the ripple adder
    tracking the set of possible carries; a result bit is known when
    every (a-bit, b-bit, carry) combination produces the same sum bit."""
    def possible(kb, i):
        if kb.zeros >> i & 1:
            return (0,)
        if kb.ones >> i & 1:
            return (1,)
        return (0, 1)

    zeros = ones = 0
    carries = {carry_in}
    for i in range(bits):
        totals = {x + y + c for x in possible(a, i) for y in possible(b, i)
                  for c in carries}
        sums = {total & 1 for total in totals}
        if sums == {0}:
            zeros |= 1 << i
        elif sums == {1}:
            ones |= 1 << i
        carries = {total >> 1 for total in totals}
    return KnownBits(bits, zeros, ones)


def _all_knownbits(bits):
    for zeros in range(1 << bits):
        for ones in range(1 << bits):
            if not zeros & ones:
                yield KnownBits(bits, zeros, ones)


class TestKnownBitsAdd:
    """The closed-form carry computation equals the ripple adder."""

    def test_exhaustive_at_five_bits(self):
        patterns = list(_all_knownbits(5))
        assert len(patterns) == 3 ** 5
        for a in patterns:
            for b in patterns:
                for carry_in in (0, 1):
                    assert _kb_add(5, a, b, carry_in) == \
                        _ripple_kb_add(5, a, b, carry_in), (a, b, carry_in)

    @pytest.mark.parametrize("bits", [32, 64])
    def test_seeded_samples_at_production_widths(self, bits):
        rng = random.Random(bits)
        mask = (1 << bits) - 1

        def sample():
            known = rng.getrandbits(bits) & rng.getrandbits(bits)
            ones = rng.getrandbits(bits) & known
            return KnownBits(bits, known & ~ones & mask, ones)

        for _ in range(2000):
            a, b, carry_in = sample(), sample(), rng.getrandbits(1)
            assert _kb_add(bits, a, b, carry_in) == \
                _ripple_kb_add(bits, a, b, carry_in), (a, b, carry_in)


def _setlt_off_by_one(src, dst, a, b):
    if a.hi <= b.lo:  # should be a.hi < b.lo
        return Interval(1, 1)
    if a.lo >= b.hi:
        return Interval(0, 0)
    return Interval(0, 1)


#: One unsound row per kind; the fast ladder must name exactly its row.
PLANTED_ROWS = {
    "binary-interval": (Opcode.ADD, "interval",  # no wrap
                        lambda src, dst, a, b: Interval(a.lo + b.lo,
                                                        a.hi + b.hi)),
    "binary-knownbits": (Opcode.ADD, "kb",  # drops the carries
                         lambda src, dst, a, b: KnownBits(
                             src[0], (a.zeros & b.zeros) | (a.ones & b.ones),
                             (a.zeros & b.ones) | (a.ones & b.zeros))),
    "shift-knownbits": (Opcode.SHR, "kb",  # ignores the amount
                        lambda src, dst, a, amount: a),
    "cast-interval": (Opcode.CAST, "interval",  # never wraps
                      lambda src, dst, a: a),
    "comparison-interval": (Opcode.SETLT, "interval", _setlt_off_by_one),
}

#: Precision floors at the fast ladder's 3-bit shapes: per row label,
#: the (interval, known-bits) share of abstract operand tuples on which
#: the row returns the best abstract value, truncated to 4 places.  A
#: drop fails; a rise is re-pinned here.
PRECISION_FLOORS = {
    "add u3":         (0.8379, 1.0),
    "add s3":         (0.9614, 1.0),
    "sub u3":         (0.8379, 1.0),
    "sub s3":         (0.9614, 1.0),
    "mul u3":         (0.6203, 0.8038),
    "mul s3":         (0.6929, 0.8038),
    "div u3":         (1.0, 0.1866),
    "div s3":         (0.9841, 0.527),
    "rem u3":         (0.8896, 0.3048),
    "rem s3":         (0.9, 0.4458),
    "and u3":         (0.912, 1.0),
    "and s3":         (0.5848, 1.0),
    "and bool":       (1.0, 1.0),
    "or u3":          (0.912, 1.0),
    "or s3":          (0.5848, 1.0),
    "or bool":        (1.0, 1.0),
    "xor u3":         (0.7777, 1.0),
    "xor s3":         (0.7422, 1.0),
    "xor bool":       (1.0, 1.0),
    "seteq u3":       (1.0, 1.0),
    "seteq s3":       (1.0, 1.0),
    "seteq bool":     (1.0, 1.0),
    "setne u3":       (1.0, 1.0),
    "setne s3":       (1.0, 1.0),
    "setne bool":     (1.0, 1.0),
    "setlt u3":       (1.0, 0.6351),
    "setlt s3":       (1.0, 0.6351),
    "setlt bool":     (1.0, 0.7777),
    "setle u3":       (1.0, 0.6351),
    "setle s3":       (1.0, 0.6351),
    "setle bool":     (1.0, 0.7777),
    "setgt u3":       (1.0, 0.6351),
    "setgt s3":       (1.0, 0.6351),
    "setgt bool":     (1.0, 0.7777),
    "setge u3":       (1.0, 0.6351),
    "setge s3":       (1.0, 0.6351),
    "setge bool":     (1.0, 0.7777),
    "shl u3":         (0.5069, 0.9629),
    "shl s3":         (0.5092, 0.9629),
    "shr u3":         (1.0, 0.9629),
    "shr s3":         (1.0, 0.9259),
    "cast u3>u3":     (1.0, 1.0),
    "cast u3>s3":     (0.7222, 1.0),
    "cast u3>bool":   (1.0, 1.0),
    "cast s3>u3":     (0.7222, 1.0),
    "cast s3>s3":     (1.0, 1.0),
    "cast s3>bool":   (1.0, 1.0),
    "cast bool>u3":   (1.0, 1.0),
    "cast bool>s3":   (1.0, 1.0),
    "cast bool>bool": (1.0, 1.0),
}


class TestSelfCheck:
    def test_fast_ladder_is_clean(self):
        assert run_self_check(full=False) == []

    @pytest.mark.parametrize("kind", sorted(PLANTED_ROWS))
    def test_ladder_reports_a_planted_unsound_row(self, monkeypatch, kind):
        opcode, domain, unsound = PLANTED_ROWS[kind]
        monkeypatch.setitem(TRANSFERS, opcode,
                            TRANSFERS[opcode]._replace(**{domain: unsound}))
        problems = run_self_check(full=False)
        assert problems
        reported = {tuple(problem.split()[:2]) for problem in problems}
        named = "interval" if domain == "interval" else "knownbits"
        assert reported == {(named, opcode.value)}, problems

    @pytest.mark.parametrize("full", [False, True], ids=["fast", "full"])
    def test_every_row_is_checked(self, monkeypatch, full):
        from repro.analysis.absint import selfcheck

        assert set(TRANSFERS) == \
            BINARY_OPCODES | {Opcode.SHL, Opcode.SHR, Opcode.CAST}
        rung = [None]
        checked = {}

        def record(opcode, *args, **kwargs):
            checked.setdefault(rung[0], set()).add(opcode)

        def log(message):
            if message.startswith("["):
                rung[0] = message.split()[0]

        monkeypatch.setattr(selfcheck, "check_row", record)
        for name in ("check_reduction", "check_widening_extensive",
                     "check_widening_chains"):
            monkeypatch.setattr(selfcheck, name, lambda *args, **kw: None)
        assert run_self_check(full=full, log=log) == []
        assert checked == {rung: set(TRANSFERS)
                           for rung in ("[1/4]", "[3/4]", "[4/4]")}

    def test_precision_does_not_drop(self):
        from repro.analysis.absint.selfcheck import check_exhaustive

        problems, scores = [], {}
        check_exhaustive(False, problems, scores)
        assert problems == []
        measured = {}
        for (label, domain), (exact, counted) in scores.items():
            measured.setdefault(label, {})[domain] = exact / counted
        assert set(measured) == set(PRECISION_FLOORS)
        drops = {label: (measured[label], floors)
                 for label, floors in PRECISION_FLOORS.items()
                 if measured[label]["interval"] < floors[0]
                 or measured[label]["knownbits"] < floors[1]}
        assert not drops

    def test_ladder_rejects_a_widening_that_leaves_the_pair_unreduced(
            self, monkeypatch):
        """The mutation the widening checks exist for: the interval
        jumps, the join's known bits are kept beside it unreduced."""
        from repro.analysis.absint import AbsValue, selfcheck, shape_bounds

        def unreduced(previous, joined):
            smin, smax = shape_bounds(previous.shape)
            lo, hi = previous.interval.lo, previous.interval.hi
            if joined.interval.lo < lo:
                lo = smin
            if joined.interval.hi > hi:
                hi = smax
            return AbsValue(previous.shape, Interval(lo, hi),
                            previous.kb.join(joined.kb))

        monkeypatch.setattr(selfcheck, "widen", unreduced)
        problems = run_self_check(full=False)
        assert problems and all(p.startswith("widen") for p in problems)


class TestEngine:
    def _facts(self, text):
        fn = parse_function(text)
        return fn, analyze_function(fn)

    def test_mask_and_compare(self):
        fn, facts = self._facts("""
int %f(int %x) {
entry:
  %masked = and int %x, 15
  %big = setgt int %masked, 100
  ret int %masked
}
""")
        masked = next(i for i in fn.instructions() if i.name == "masked")
        big = next(i for i in fn.instructions() if i.name == "big")
        assert facts.interval_of(masked) == Interval(0, 15)
        assert facts.interval_of(big) == Interval(0, 0)  # proven false

    def test_loop_phi_widens_soundly(self):
        fn, facts = self._facts("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %i
}
""")
        phi = next(i for i in fn.instructions() if i.name == "i")
        interval = facts.interval_of(phi)
        # Sound (admits every iteration count) even if imprecise.
        for count in (0, 1, 100, 2**31 - 1):
            assert interval.contains(count)

    _COUNTING_LOOP = """
{ty} %f({ty} %n) {{
entry:
  br label %loop
loop:
  %i = phi {ty} [ 0, %entry ], [ %next, %loop ]
  %next = add {ty} %i, {step}
  %c = setlt {ty} %next, %n
  br bool %c, label %loop, label %out
out:
  ret {ty} %i
}}
"""

    def test_widening_keeps_the_stable_trailing_bits(self):
        """``phi(0, x + 2)``: the interval is given up, "still even" is
        not — and both settle together, not one bit per round trip."""
        fn, facts = self._facts(self._COUNTING_LOOP.format(ty="long", step=2))
        phi = next(i for i in fn.instructions() if i.name == "i")
        assert facts.knownbits_of(phi) == KnownBits(64, zeros=1, ones=0)
        assert facts.interval_of(phi) == Interval(-2**63, 2**63 - 2)
        assert facts.phis_widened == 1
        assert facts.transfers <= 12 * len(list(fn.instructions()))

    def test_counting_loop_reaches_its_fact_in_a_handful_of_visits(self):
        """``phi(0, x + 1)`` ends where it always did — nothing known —
        but the phi used to be visited 37 times (71 for ``long``), one
        known bit given up per trip: 155 transfers for six instructions."""
        fn, facts = self._facts(self._COUNTING_LOOP.format(ty="int", step=1))
        phi = next(i for i in fn.instructions() if i.name == "i")
        assert facts.abs_of(phi).is_top()
        assert facts.transfers <= 12 * len(list(fn.instructions()))

    def test_nested_long_loops_converge(self):
        """``f2`` of fuzz seed 3095, two nested counted loops over a
        ``long``, did not finish in a minute: after a widen the stale
        known bits pulled the interval back in and the phis traded states
        for ever.  Pinned by count, not by wall time."""
        from repro.fuzz.generator import generate_program

        module = compile_source(generate_program(3095), "seed3095")
        fn = module.functions["f2"]
        PromoteMem2Reg().run_on_function(fn)
        facts = analyze_function(fn)
        assert facts.transfers <= 12 * len(list(fn.instructions()))

    _INDUCTION = """
{ty} %f({ty} %n) {{
entry:
  br label %loop
loop:
  %i = phi {ty} [ {start}, %entry ], [ %next, %loop ]
  %next = {op} {ty} %i, {step}
  %c = setlt {ty} %next, %n
  br bool %c, label %loop, label %out
out:
  %r = xor {ty} %i, {start}
  ret {ty} %r
}}
"""

    @pytest.mark.parametrize("ty, bits, signed", [
        ("sbyte", 8, True), ("ubyte", 8, False),
        ("int", 32, True), ("uint", 32, False)])
    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_basic_induction_variable_widens_at_its_first_grow(
            self, ty, bits, signed, op, monkeypatch):
        """``phi(c, x ± k)`` widens at its first grow and ends on the
        fact the eight-grow delay gave it, whatever the step — one that
        overflows within two trips included."""
        from repro.analysis.absint import engine

        overflow = 100 if bits == 8 else 1_500_000_000
        for start in (0, 5):
            for step in (1, -1, 2, -2, 8, -8, overflow):
                text = self._INDUCTION.format(
                    ty=ty, op=op, start=start,
                    step=step if signed else step % (1 << bits))
                fn, facts = self._facts(text)
                phi = next(i for i in fn.instructions() if i.name == "i")
                assert engine._steps_by_constant(phi)
                with monkeypatch.context() as delay:
                    delay.setattr(engine, "_steps_by_constant",
                                  lambda phi: False)
                    delayed = self._facts(text)[1]
                assert facts.dump() == delayed.dump(), (start, step)

    def test_a_phi_fed_by_an_earlier_loop_keeps_its_bound(self):
        """``%k`` only copies ``%i & 255`` around its loop.  While ``%i``
        climbed one step per trip, ``%k`` grew with it, widened too and
        went to top, which no narrowing sweep brings back on a pure
        copy cycle."""
        fn, facts = self._facts("""
int %f(int %n) {
entry:
  br label %first
first:
  %i = phi int [ 0, %entry ], [ %i.next, %first ]
  %i.next = add int %i, 1
  %c1 = setlt int %i.next, %n
  br bool %c1, label %first, label %between
between:
  %m = and int %i, 255
  br label %second
second:
  %k = phi int [ %m, %between ], [ %k, %second ]
  %c2 = setlt int %k, %n
  br bool %c2, label %second, label %out
out:
  ret int %k
}
""")
        k = next(i for i in fn.instructions() if i.name == "k")
        assert facts.interval_of(k) == Interval(0, 255)

    def test_code_after_a_loop_is_revisited_after_the_loop_settles(self):
        """The solver drains a loop's queue before it looks at the code
        the loop exits to again: one sweep and one revisit, not one
        revisit per trip around the loop."""
        from repro.analysis.absint.engine import _RangeAnalysis
        from repro.analysis.dataflow import solve_sparse

        fn = parse_function("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %i.next, %loop ]
  %s = phi int [ 0, %entry ], [ %s.next, %loop ]
  %s.next = add int %s, %i
  %i.next = add int %i, 1
  %c = setlt int %i.next, %n
  br bool %c, label %loop, label %out
out:
  %low = and int %s, 1023
  %r = add int %low, %i
  ret int %r
}
""")
        analysis = _RangeAnalysis(fn, None)
        transfer, visits = analysis.transfer, {}

        def counting(inst, get):
            visits[inst] = visits.get(inst, 0) + 1
            return transfer(inst, get)

        analysis.transfer = counting
        solve_sparse(analysis, fn)
        s = next(i for i in fn.instructions() if i.name == "s")
        assert visits[s] > 2, "the loop takes several trips to settle"
        assert all(visits[inst] <= 2 for inst in fn.blocks[-1].instructions)

    def test_unreachable_code_is_undef(self):
        fn, facts = self._facts("""
int %f() {
entry:
  ret int 1
dead:
  %v = add int 1, 2
  ret int %v
}
""")
        dead = next(i for i in fn.instructions() if i.name == "v")
        assert facts.is_unreached(dead)

    def test_call_range_hook_feeds_results(self):
        fn = parse_function("""
int %f() {
entry:
  %v = call int %mystery()
  ret int %v
}

declare int %mystery()
""")
        facts = analyze_function(fn, call_range=lambda inst: (0, 9))
        call = next(i for i in fn.instructions() if i.name == "v")
        assert facts.interval_of(call) == Interval(0, 9)


class TestRangeOpt:
    def _run(self, text):
        fn = parse_function(text)
        opt = RangeOpt()
        changed = opt.run_on_function(fn)
        verify_function(fn)
        return fn, opt, changed

    def test_rem_identity(self):
        fn, opt, changed = self._run("""
int %f(int %x) {
entry:
  %small = and int %x, 7
  %r = rem int %small, 100
  ret int %r
}
""")
        assert changed and opt.counters["rem-identities"] == 1
        assert not any(i.opcode == Opcode.REM for i in fn.instructions())

    def test_div_by_power_of_two_becomes_shift(self):
        fn, opt, changed = self._run("""
int %f(int %x) {
entry:
  %nonneg = and int %x, 1023
  %q = div int %nonneg, 16
  ret int %q
}
""")
        assert changed and opt.counters["divrem-strength-reduced"] == 1
        assert any(i.opcode == Opcode.SHR for i in fn.instructions())
        assert not any(i.opcode == Opcode.DIV for i in fn.instructions())

    def test_possibly_negative_dividend_not_reduced(self):
        fn, opt, changed = self._run("""
int %f(int %x) {
entry:
  %q = div int %x, 16
  ret int %q
}
""")
        assert opt.counters["divrem-strength-reduced"] == 0
        assert any(i.opcode == Opcode.DIV for i in fn.instructions())

    def test_possible_trap_not_folded(self):
        # 10 div (x & 1): divisor may be zero, so no rewrite may erase
        # the instruction even though x&1 in {0,1} makes results tiny.
        fn, opt, changed = self._run("""
int %f(int %x) {
entry:
  %d = and int %x, 1
  %q = div int 10, %d
  ret int %q
}
""")
        assert any(i.opcode == Opcode.DIV for i in fn.instructions())

    def test_comparison_and_branch_fold(self):
        fn, opt, changed = self._run("""
int %f(int %x) {
entry:
  %masked = and int %x, 15
  %c = setlt int %masked, 100
  br bool %c, label %yes, label %no
yes:
  ret int 1
no:
  ret int 0
}
""")
        assert opt.counters["cmps-folded"] == 1 \
            and opt.counters["branches-folded"] == 1
        assert Interpreter(fn.parent).run("f", [12345]) == 1

    def test_redundant_and_simplified(self):
        fn, opt, changed = self._run("""
int %f(int %x) {
entry:
  %low = and int %x, 15
  %again = and int %low, 255
  ret int %again
}
""")
        assert opt.counters["bitops-simplified"] == 1
        assert Interpreter(fn.parent).run("f", [0xABC]) == 0xC

    def test_semantics_preserved_end_to_end(self):
        source = """
int work(int x) {
  int nonneg = x & 2047;
  int q = nonneg / 32;
  int r = nonneg % 8;
  int keep = (q & 63) | 0;
  return q + r + keep;
}

int main() {
  int acc = 0;
  for (int i = 0; i < 50; i = i + 1)
    acc = acc + work(i * 37);
  return acc;
}
"""
        module = compile_source(source, "rangeopt_e2e")
        expected = Interpreter(module).run("main", [])
        PromoteMem2Reg().run_on_function(module.functions["work"])
        PromoteMem2Reg().run_on_function(module.functions["main"])
        opt = RangeOpt()
        for fn in module.defined_functions():
            opt.run_on_function(fn)
            verify_function(fn)
        assert Interpreter(module).run("main", []) == expected


class _BlockValues:
    """A block-event listener that reads a run's concrete SSA values:
    when a frame leaves a block, the registers that block's body wrote,
    and at each entry, the phis the edge just moved.  A frame's first
    event is its function's entry block, which nothing branches back
    to, so a new frame never inherits a dead frame's block by ``id``."""

    def __init__(self):
        #: (instruction, concrete value), in the order they were read.
        self.values = []
        self._block = {}

    def on_block(self, interpreter, frame, block):
        registers = frame.registers
        phis = block.first_non_phi_index()
        left = self._block.get(id(frame))
        if left is not None and block is not frame.function.blocks[0]:
            self._read(registers,
                       left.instructions[left.first_non_phi_index():])
        self._read(registers, block.instructions[:phis])
        self._block[id(frame)] = block

    def _read(self, registers, instructions):
        for inst in instructions:
            value = registers.get(id(inst))
            if isinstance(value, int):
                self.values.append((inst, value))


def _fuzz_values(seed):
    """(absint facts by function, concrete values) of generated program
    ``seed`` under the -O0 interpreter."""
    from repro.fuzz.generator import generate_program

    module = compile_source(generate_program(seed), f"fuzz{seed}")
    listener = _BlockValues()
    interp = Interpreter(module, step_limit=2_000_000)
    interp.block_hook = listener
    try:
        interp.run("main", [])
    except (ArithmeticFault, ExecutionError):
        pass  # a trapping program still had its values read
    return analyze_module(module), listener.values


def _unsound(facts_by_fn, values):
    """The values their instruction's fact does not admit."""
    violations = []
    for inst, value in values:
        facts = facts_by_fn[inst.parent.parent.name]
        if not facts.contains(inst, value):
            violations.append((inst.parent.parent.name, inst.name, value,
                               facts.abs_of(inst)))
    return violations


class TestFuzzOracle:
    def test_interpreter_values_within_computed_facts(self):
        """Every concrete SSA value the -O0 interpreter produces must be
        admitted by the corresponding abstract fact — a violation is a
        soundness bug in a transfer function or the solver."""
        checked = 0
        for seed in range(1, 9):
            facts_by_fn, values = _fuzz_values(seed)
            violations = _unsound(facts_by_fn, values)
            assert not violations, violations[:5]
            checked += len(values)
        assert checked >= 7000

    def test_a_planted_unsound_fact_is_reported(self):
        facts_by_fn, values = _fuzz_values(1)
        inst, value = next((inst, value) for inst, value in values
                           if shape_of(inst.type) is not None)
        facts = facts_by_fn[inst.parent.parent.name]
        facts._elements[inst] = AbsValue.const(shape_of(inst.type), value ^ 1)
        violations = _unsound(facts_by_fn, values)
        assert violations[0][1:3] == (inst.name, value)


class TestRangeCheckers:
    def test_div_by_zero_range(self):
        module = compile_source("""
int bad(int x) {
  int n = x & 0;
  return 10 / n;
}
""", "m")
        found = run_checkers(module, checks=["div-by-zero-range"])
        assert any(d.checker == "div-by-zero-range" for d in found)

    def test_shift_out_of_range(self):
        module = compile_source("""
int bad(int x) {
  int k = 40;
  return x << k;
}
""", "m")
        found = run_checkers(module, checks=["shift-out-of-range"])
        assert any(d.checker == "shift-out-of-range" for d in found)

    def test_definite_overflow(self):
        module = compile_source("""
int bad() {
  int big = 2000000000;
  return big + big;
}
""", "m")
        found = run_checkers(module, checks=["definite-overflow"])
        assert any(d.checker == "definite-overflow" for d in found)

    def test_unsigned_wraparound_not_flagged(self):
        module = compile_source("""
uint fine() {
  uint big = 4000000000u;
  return big + big;
}
""", "m")
        found = run_checkers(module, checks=["definite-overflow"])
        assert not found

    def test_gep_bounds_range_precise(self):
        module = compile_source("""
int bad() {
  int table[8];
  int i = 9;
  int j = i + 2;
  table[0] = 1;
  return table[j];
}

int fine(int x) {
  int table[8];
  int i = x & 7;
  table[0] = 1;
  return table[i];
}
""", "m")
        found = run_checkers(module, checks=["gep-bounds"])
        assert len([d for d in found if d.checker == "gep-bounds"
                    and str(d.severity) == "error"]) == 1

    def test_clean_code_stays_clean(self):
        module = compile_source("""
int fine(int x) {
  int d = (x & 7) + 1;
  int q = 100 / d;
  return (q << 2) + (x >> 31);
}
""", "m")
        found = run_checkers(module, checks=[
            "div-by-zero-range", "shift-out-of-range", "definite-overflow"])
        assert not found


class TestInterprocRanges:
    def test_return_range_sharpened_by_absint(self):
        from repro.sanalysis.interproc import summarize_function_ipa

        module = parse_module("""
int %narrow(int %x) {
entry:
  %v = shr int %x, ubyte 28
  ret int %v
}
""")
        summary = summarize_function_ipa(module.functions["narrow"])
        # The syntactic folder cannot bound a shift; absint can: a
        # signed 32-bit value >> 28 lands in [-8, 7].
        assert summary.return_range == [["const", -8, 7]]


class TestDumpTooling:
    def test_range_dump_pass_prints_facts(self):
        from repro.analysis.absint import RangeDumpPass

        fn = parse_function("""
int %f(int %x) {
entry:
  %masked = and int %x, 15
  ret int %masked
}
""")
        stream = io.StringIO()
        RangeDumpPass(stream=stream).run_on_function(fn)
        text = stream.getvalue()
        assert "value facts" in text and "%masked" in text
        assert "[0, 15]" in text

    def test_lc_absint_self_check_cli(self, capsys):
        from repro.tools import lc_absint

        assert lc_absint(["--self-check", "--fast"]) == 0
        err = capsys.readouterr().err
        assert "self-check ok" in err and "precision" in err
        # Per-value facts are lc-opt -analyze ranges' job: a bare
        # lc-absint prints usage, and takes no module.
        assert lc_absint([]) == 2
        assert "usage: lc-absint" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            lc_absint(["in.ll"])

    def test_lc_opt_analyze_ranges(self, tmp_path, capsys):
        from repro.tools import lc_opt

        source = tmp_path / "in.ll"
        source.write_text("""
int %f(int %x) {
entry:
  %masked = and int %x, 15
  ret int %masked
}
""")
        assert lc_opt(["-analyze", "ranges", str(source)]) == 0
        out = capsys.readouterr().out
        assert "value facts" in out and "[0, 15]" in out
