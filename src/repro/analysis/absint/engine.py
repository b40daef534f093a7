"""The abstract interpretation engine: a sparse SSA solver over the
reduced product of the interval and known-bits domains.

``analyze_function`` runs an optimistic fixpoint on the
shared sparse dataflow engine (:mod:`repro.analysis.dataflow`): every
instruction starts *undefined* and information flows along def-use
edges only.  Ascent through loop-carried phis is accelerated by
widening (after a few grow events, one for a basic induction variable,
:func:`widen` gives up the moving interval bound and known bits) and then
sharpened by two narrowing sweeps that intersect each fact a widened
phi reaches with its freshly recomputed transfer — the intersection of
two sound over-approximations is sound.

The result is a :class:`ValueFacts` oracle, the tree's one values
analysis: per-SSA-value intervals and known bits that rangeopt, the
lint checkers, the interprocedural summaries, and the fuzz oracle all
query.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ...core.instructions import (
    BinaryOperator,
    CallInst,
    Instruction,
    InvokeInst,
    Opcode,
    PhiNode,
)
from ...core.values import (
    ConstantBool,
    ConstantInt,
    Value,
)
from ..cfg import reverse_postorder
from ..dataflow import SparseAnalysis, solve_sparse
from ..loops import LoopInfo
from ..manager import function_analysis
from .domains import (
    BOOL_SHAPE,
    TRANSFERS,
    Interval,
    KnownBits,
    Shape,
    from_pattern,
    reduce_pair,
    shape_bounds,
    shape_of,
)


class _Sentinel:
    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


#: Solver-top: "no execution reaches this definition yet".  A distinct
#: object (never ``None`` — the sparse solver's cache treats ``None`` as
#: a miss).
UNDEF = _Sentinel("<undef>")

#: Values the domains do not track (pointers, floats, aggregates).
NOINFO = _Sentinel("<noinfo>")

#: Loop-header phis tolerate this many grow events before widening
#: (a basic induction variable, see :func:`_steps_by_constant`, one).
WIDEN_AFTER = 8

#: Any phi (irreducible-CFG backstop) widens after this many.
WIDEN_BACKSTOP = 32


class AbsValue:
    """One SSA value's fact: an interval and known bits of one shape,
    kept mutually reduced."""

    __slots__ = ("shape", "interval", "kb")

    def __init__(self, shape: Shape, interval: Interval, kb: KnownBits):
        self.shape = shape
        self.interval = interval
        self.kb = kb

    @staticmethod
    def make(shape: Shape, interval: Interval, kb: KnownBits) -> "AbsValue":
        interval, kb = reduce_pair(shape, interval, kb)
        return AbsValue(shape, interval, kb)

    @staticmethod
    def top(shape: Shape) -> "AbsValue":
        return AbsValue(shape, Interval.top(shape), KnownBits.top(shape[0]))

    @staticmethod
    def const(shape: Shape, value: int) -> "AbsValue":
        return AbsValue(shape, Interval.const(value),
                        KnownBits.const(shape, value))

    def is_top(self) -> bool:
        return self.interval.is_top(self.shape) and self.kb.is_top()

    def join(self, other: "AbsValue") -> "AbsValue":
        return AbsValue.make(self.shape, self.interval.join(other.interval),
                             self.kb.join(other.kb))

    def intersect(self, other: "AbsValue") -> Optional["AbsValue"]:
        interval = self.interval.intersect(other.interval)
        kb = self.kb.intersect(other.kb)
        if interval is None or kb is None:
            return None
        return AbsValue.make(self.shape, interval, kb)

    def singleton(self) -> Optional[int]:
        """The single concrete value, when there is exactly one."""
        if self.interval.is_singleton:
            return self.interval.lo
        if self.kb.is_fully_known:
            return from_pattern(self.shape, self.kb.known_pattern)
        return None

    def contains(self, value: int) -> bool:
        return self.interval.contains(value) and \
            self.kb.contains(self.shape, value)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbsValue) and self.shape == other.shape
                and self.interval == other.interval and self.kb == other.kb)

    def __hash__(self) -> int:
        return hash((self.shape, self.interval, self.kb))

    def __repr__(self) -> str:
        return f"{self.interval} {self.kb}"


def widen(previous: AbsValue, joined: AbsValue) -> AbsValue:
    """The widening operator of the reduced product: an upper bound of
    ``previous`` and ``joined`` that gives up, in *both* domains at once,
    whatever moved between them.

    An interval bound that moved jumps to the shape's extreme.  Of the
    known bits, everything at or above the lowest bit that changed is
    dropped: a growing value carries upward only, so the trailing bits
    that held still ("even", "a multiple of 8") are the ones a loop
    really preserves, while a leading bit that is still known merely has
    not been reached yet.  Building the result through
    :meth:`AbsValue.make` keeps the pair reduced, so no stale bit can
    pull the interval back in on the next round trip and make the
    ascent give up one bit at a time.
    """
    shape = previous.shape
    smin, smax = shape_bounds(shape)
    lo, hi = previous.interval.lo, previous.interval.hi
    if joined.interval.lo < lo:
        lo = smin
    if joined.interval.hi > hi:
        hi = smax
    kb = previous.kb.join(joined.kb)
    moved = (kb.zeros ^ previous.kb.zeros) | (kb.ones ^ previous.kb.ones)
    if moved:
        stable = (moved & -moved) - 1  # the bits below the lowest moved one
        kb = KnownBits(kb.bits, kb.zeros & stable, kb.ones & stable)
    return AbsValue.make(shape, Interval(lo, hi), kb)


def _steps_by_constant(phi: PhiNode) -> bool:
    """Whether ``phi`` is a basic induction variable: each incoming value
    an integer constant or ``phi ± constant``, one at least the latter.
    :func:`widen` gives it the same fact at any grow (docs/ANALYSIS.md)."""
    stepped = False
    for value, _block in phi.incoming:
        if isinstance(value, BinaryOperator) and value.operands[0] is phi \
                and value.opcode in (Opcode.ADD, Opcode.SUB) \
                and isinstance(value.operands[1], ConstantInt):
            stepped = True  # instcombine keeps the constant on the right
        elif not isinstance(value, ConstantInt):
            return False
    return stepped


#: Optional hook giving call results an interval: maps a call/invoke
#: instruction to ``(lo, hi)`` (either end may be None for unbounded)
#: or None for no information.
CallRangeHook = Callable[[Instruction], Optional[tuple]]


def _clamp_hook_range(shape: Shape, rng: Optional[tuple]) -> Interval:
    top = Interval.top(shape)
    if rng is None:
        return top
    lo = top.lo if rng[0] is None else max(int(rng[0]), top.lo)
    hi = top.hi if rng[1] is None else min(int(rng[1]), top.hi)
    if lo > hi:  # contradictory summary — fall back to top
        return top
    return Interval(lo, hi)


class _RangeAnalysis(SparseAnalysis):
    """The transfer functions, bridged onto the sparse solver."""

    def __init__(self, function, call_range: Optional[CallRangeHook]):
        self.function = function
        self.call_range = call_range
        self._phi_state: Dict[int, AbsValue] = {}
        self._phi_grows: Dict[int, int] = {}
        #: Phis whose state the widening operator pushed past their join.
        self.widened: set = set()
        #: Calls of :meth:`transfer`: the analysis' unit of work.
        self.transfers = 0
        #: When False (narrowing sweeps), phi transfers are plain joins.
        self.widening_enabled = True

    # -- solver interface ---------------------------------------------------

    def top(self):
        return UNDEF

    def initial(self, value: Value):
        return abstract_of_constant(value) or self._initial_opaque(value)

    def _initial_opaque(self, value: Value):
        shape = shape_of(value.type)
        if shape is None:
            return NOINFO
        return AbsValue.top(shape)

    # -- transfer -----------------------------------------------------------

    def tracks(self, inst: Instruction) -> bool:
        return shape_of(inst.type) is not None

    def transfer(self, inst: Instruction, get):
        self.transfers += 1
        result_shape = shape_of(inst.type)
        if result_shape is None:
            return NOINFO

        if isinstance(inst, PhiNode):
            return self._transfer_phi(inst, get, result_shape)
        row = TRANSFERS.get(inst.opcode)
        if row is not None:
            return self._transfer_row(row, inst, get, result_shape)
        if isinstance(inst, (CallInst, InvokeInst)) \
                and self.call_range is not None:
            interval = _clamp_hook_range(result_shape, self.call_range(inst))
            return AbsValue(result_shape, interval,
                            KnownBits.top(result_shape[0]))
        return AbsValue.top(result_shape)  # loads, vaarg, opaque calls

    def _operand(self, value: Value, get, shape: Shape):
        """The operand's fact: an AbsValue of ``shape``, or UNDEF when
        the operand is still optimistically undefined."""
        element = get(value)
        if element is UNDEF:
            return UNDEF
        if element is NOINFO or element.shape != shape:
            return AbsValue.top(shape)
        return element

    def _transfer_row(self, row, inst, get, result_shape):
        src = shape_of(inst.operands[0].type)
        if src is None:
            # A pointer/float comparison or cast: all we know is the shape.
            return AbsValue.top(result_shape)
        # Every operand is read before any UNDEF returns: reading one
        # records its initial fact.
        facts = [self._operand(value, get, shape_of(value.type))
                 for value in inst.operands]
        if any(fact is UNDEF for fact in facts):
            return UNDEF
        interval = row.interval(src, result_shape,
                                *[fact.interval for fact in facts])
        kb = row.kb(src, result_shape, *[fact.kb for fact in facts])
        return AbsValue.make(result_shape, interval, kb)

    def _transfer_phi(self, inst, get, result_shape):
        joined = None
        for value, _block in inst.incoming:
            element = self._operand(value, get, result_shape)
            if element is UNDEF:
                continue  # optimistic: undefined edges contribute nothing
            joined = element if joined is None else joined.join(element)
        if joined is None:
            return UNDEF
        if not self.widening_enabled:
            return joined
        previous = self._phi_state.get(id(inst))
        if previous is not None and joined != previous:
            grows = self._phi_grows.get(id(inst), 0) + 1
            self._phi_grows[id(inst)] = grows
            if grows >= self._widen_limit(inst):
                widened = widen(previous, joined)
                if widened != joined:
                    self.widened.add(inst)
                    joined = widened
        self._phi_state[id(inst)] = joined
        return joined

    def _widen_limit(self, phi: PhiNode) -> int:
        # A loop header is a header of the cached loop forest, the one
        # the solver orders its blocks by.
        loop = function_analysis(self.function, LoopInfo).loop_for(phi.parent)
        if loop is None or loop.header is not phi.parent:
            return WIDEN_BACKSTOP
        return 1 if _steps_by_constant(phi) else WIDEN_AFTER


def abstract_of_constant(value: Value) -> Optional[AbsValue]:
    """The exact fact of an integral constant, else None."""
    if isinstance(value, ConstantInt):
        shape = shape_of(value.type)
        if shape is not None:
            return AbsValue.const(shape, value.value)
    if isinstance(value, ConstantBool):
        return AbsValue.const(BOOL_SHAPE, int(value.value))
    return None


class ValueFacts:
    """The queryable result of analyzing one function."""

    def __init__(self, function, elements: Dict[Value, object],
                 transfers: int, phis_widened: int):
        self.function = function
        self._elements = elements
        #: What the facts cost: transfer-function calls (solve plus
        #: narrowing) and phis the widening operator had to push.
        self.transfers = transfers
        self.phis_widened = phis_widened

    def abs_of(self, value: Value) -> Optional[AbsValue]:
        """The fact for ``value``, or None when nothing is known (not
        integral, untracked, or never reached by the solver)."""
        constant = abstract_of_constant(value)
        if constant is not None:
            return constant
        element = self._elements.get(value)
        if isinstance(element, AbsValue):
            return element
        return None

    def interval_of(self, value: Value) -> Optional[Interval]:
        fact = self.abs_of(value)
        return fact.interval if fact is not None else None

    def knownbits_of(self, value: Value) -> Optional[KnownBits]:
        fact = self.abs_of(value)
        return fact.kb if fact is not None else None

    def is_unreached(self, value: Value) -> bool:
        """True when the solver proved no execution defines ``value``."""
        element = self._elements.get(value)
        if element is UNDEF:
            return True
        # The sparse solver only visits blocks an executable edge
        # reaches; an instruction it never saw sits in dead code.
        return element is None and isinstance(value, Instruction)

    def contains(self, value: Value, concrete) -> bool:
        """Whether an observed concrete value is admitted by the fact.

        True when nothing is known.  Used by the fuzz oracle: a False
        here is a soundness bug in a transfer function or the solver.
        """
        fact = self.abs_of(value)
        if fact is None:
            return True
        return fact.contains(int(concrete))

    def dump(self) -> list:
        """Human-readable per-value lines, in program order."""
        lines = []
        for block in self.function.blocks:
            for inst in block.instructions:
                fact = self.abs_of(inst)
                if fact is None and not self.is_unreached(inst):
                    continue
                name = inst.name or f"<{inst.opcode.value}>"
                loc = f"  (line {inst.loc})" if inst.loc is not None else ""
                body = "unreached" if self.is_unreached(inst) else (
                    f"{fact.interval} bits={fact.kb}")
                lines.append(f"  %{name}: {body}{loc}")
        return lines


#: Narrowing sweeps after the widened fixpoint (see below).
_NARROWING_SWEEPS = 2


def analyze_function(function,
                     call_range: Optional[CallRangeHook] = None) -> ValueFacts:
    """Run the engine over one function and return its facts."""
    analysis = _RangeAnalysis(function, call_range)
    result = solve_sparse(analysis, function)
    elements = result.values

    # Narrowing: recompute transfers against the (post-widening) fixpoint
    # and keep the intersection.  Each sweep is sound on its own, so a
    # fixed small number of sweeps needs no convergence check.  Only what
    # a widened phi reaches along def-use edges can sit above its transfer;
    # everywhere else the solver stopped on exactly what the transfer
    # returns, and intersecting a fact with itself is wasted work.
    if analysis.widened:
        analysis.widening_enabled = False
        reached = set(analysis.widened)
        pending = list(reached)
        while pending:
            for user in pending.pop().users():
                if user not in reached \
                        and isinstance(elements.get(user), AbsValue):
                    reached.add(user)
                    pending.append(user)
        order = [inst for block in reverse_postorder(function)
                 for inst in block.instructions if inst in reached]
        for _ in range(_NARROWING_SWEEPS):
            for inst in order:
                new = analysis.transfer(inst, result.view(inst))
                if isinstance(new, AbsValue):
                    refined = elements[inst].intersect(new)
                    elements[inst] = refined if refined is not None else new

    return ValueFacts(function, elements, analysis.transfers,
                      len(analysis.widened))


class RangeDumpPass:
    """An analysis "pass" (``lc-opt -p ranges`` / ``-analyze ranges``)
    printing every value's interval and known bits with source locs, so
    lint findings and rangeopt folds are debuggable."""

    name = "ranges"

    def __init__(self, stream=None):
        self.stream = stream

    def run_on_function(self, function) -> bool:
        import sys

        stream = self.stream if self.stream is not None else sys.stderr
        facts = analyze_function(function)
        print(f"; value facts for {function.name!r}", file=stream)
        for line in facts.dump():
            print(line, file=stream)
        return False


def analyze_module(module, call_range_for=None) -> Dict[str, ValueFacts]:
    """Facts for every function with a body.

    ``call_range_for(function)`` may supply a per-function
    :data:`CallRangeHook` (e.g. from interprocedural summaries).
    """
    facts = {}
    for function in module.defined_functions():
        hook = call_range_for(function) if call_range_for is not None else None
        facts[function.name] = analyze_function(function, call_range=hook)
    return facts
