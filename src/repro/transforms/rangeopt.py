"""Range-driven optimization (correlated-value-propagation style).

Consumes the verified abstract interpretation facts from
:mod:`repro.analysis.absint` — per-SSA-value intervals and known bits —
and performs rewrites those facts *prove*:

* **value folding** — an instruction whose fact admits exactly one
  concrete value becomes that constant (comparisons fold to ``bool``,
  which in turn folds conditional branches);
* **remainder identity** — ``x rem y`` is ``x`` when the dividend's
  interval lies entirely below the divisor's (``0 <= x < y``);
* **strength reduction** — ``x div 2^k`` becomes ``x shr k`` and
  ``x rem 2^k`` becomes ``x and (2^k - 1)`` when the dividend is
  provably non-negative;
* **bit-identity simplification** — ``x and y`` is ``x`` when every
  bit ``y`` might clear is already known zero in ``x``; dually for
  ``x or y`` when every bit ``y`` might set is known one.

Every rewrite is justified by facts whose transformers are
machine-checked (``lc-absint --self-check``), and the pass runs under
translation validation in CI, so an unsound fold cannot ship silently.

Division/remainder instructions are only folded or erased when the
divisor's interval excludes zero — otherwise a trapping execution
would be removed, which, while technically licensed by refinement,
would change observable faulting behaviour the test suite pins.
"""

from __future__ import annotations

from ..analysis.absint import ValueFacts, analyze_function, shape_of
from ..core import types
from ..core.constfold import make_constant
from ..core.instructions import (
    BinaryOperator,
    CastInst,
    Opcode,
    PhiNode,
    ShiftInst,
)
from ..core.module import Function
from ..core.values import ConstantInt
from .utils import constant_fold_terminator, replace_and_erase


class RangeOpt:
    """The pass object (see module docstring)."""

    name = "rangeopt"

    #: The counters that count rewrites; the other two are what the
    #: facts behind them cost (see :class:`ValueFacts`).
    REWRITES = ("values-folded", "cmps-folded", "branches-folded",
                "divrem-strength-reduced", "rem-identities",
                "bitops-simplified")

    def __init__(self):
        self.counters = dict.fromkeys(
            self.REWRITES + ("absint-transfers", "phis-widened"), 0)

    def run_on_function(self, function: Function) -> bool:
        if function.is_declaration:
            return False
        facts = analyze_function(function)
        self.counters["absint-transfers"] += facts.transfers
        self.counters["phis-widened"] += facts.phis_widened
        changed = False
        for block in list(function.blocks):
            for inst in list(block.instructions):
                if inst.parent is None:
                    continue  # erased by an earlier rewrite
                changed |= self._simplify(inst, facts)
        for block in list(function.blocks):
            if block.parent is not None and constant_fold_terminator(block):
                self.counters["branches-folded"] += 1
                changed = True
        return changed

    # -- rewrites -----------------------------------------------------------

    def _simplify(self, inst, facts: ValueFacts) -> bool:
        if not isinstance(inst, (BinaryOperator, ShiftInst, CastInst,
                                 PhiNode)):
            return False
        fact = facts.abs_of(inst)
        if fact is None:
            return False
        if self._fold_singleton(inst, fact, facts):
            return True
        if isinstance(inst, BinaryOperator):
            if inst.opcode in (Opcode.DIV, Opcode.REM):
                return self._simplify_divrem(inst, facts)
            if inst.opcode in (Opcode.AND, Opcode.OR):
                return self._simplify_bitop(inst, facts)
        return False

    def _fold_singleton(self, inst, fact, facts: ValueFacts) -> bool:
        value = fact.singleton()
        if value is None:
            return False
        if isinstance(inst, BinaryOperator) and \
                inst.opcode in (Opcode.DIV, Opcode.REM):
            divisor = facts.interval_of(inst.rhs)
            if divisor is None or divisor.contains(0):
                return False  # folding would erase a possible trap
        replacement = make_constant(inst.type, value)
        if inst.is_comparison:
            self.counters["cmps-folded"] += 1
        else:
            self.counters["values-folded"] += 1
        replace_and_erase(inst, replacement)
        return True

    def _simplify_divrem(self, inst, facts: ValueFacts) -> bool:
        dividend = facts.interval_of(inst.lhs)
        divisor = facts.interval_of(inst.rhs)
        if dividend is None or divisor is None:
            return False
        # x rem y == x when every execution has 0 <= x < y.
        if inst.opcode == Opcode.REM and dividend.lo >= 0 \
                and divisor.lo > dividend.hi:
            self.counters["rem-identities"] += 1
            replace_and_erase(inst, inst.lhs)
            return True
        # x div/rem 2^k with x provably non-negative: shift/mask.
        if not isinstance(inst.rhs, ConstantInt):
            return False
        power = inst.rhs.value
        if power <= 1 or power & (power - 1) or dividend.lo < 0:
            return False
        block = inst.parent
        index = block.instructions.index(inst)
        if inst.opcode == Opcode.DIV:
            shift = power.bit_length() - 1
            replacement = ShiftInst(Opcode.SHR, inst.lhs,
                                    ConstantInt(types.UBYTE, shift),
                                    inst.name)
        else:
            replacement = BinaryOperator(Opcode.AND, inst.lhs,
                                         ConstantInt(inst.type, power - 1),
                                         inst.name)
        replacement.loc = inst.loc
        block.insert(index, replacement)
        self.counters["divrem-strength-reduced"] += 1
        replace_and_erase(inst, replacement)
        return True

    def _simplify_bitop(self, inst, facts: ValueFacts) -> bool:
        shape = shape_of(inst.type)
        if shape is None:
            return False
        mask = (1 << shape[0]) - 1
        for kept, other in ((inst.lhs, inst.rhs), (inst.rhs, inst.lhs)):
            kept_kb = facts.knownbits_of(kept)
            other_kb = facts.knownbits_of(other)
            if kept_kb is None or other_kb is None:
                continue
            if inst.opcode == Opcode.AND:
                # Bits the other side might clear are already zero.
                may_clear = mask & ~other_kb.ones
                redundant = may_clear & kept_kb.zeros == may_clear
            else:
                # Bits the other side might set are already one.
                may_set = mask & ~other_kb.zeros
                redundant = may_set & kept_kb.ones == may_set
            if redundant:
                self.counters["bitops-simplified"] += 1
                replace_and_erase(inst, kept)
                return True
        return False
