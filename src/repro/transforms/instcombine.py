"""Instruction combining: algebraic peephole simplification.

A worklist pass that canonicalizes and simplifies individual
instructions using algebraic identities (``x+0``, ``x^x``, casts that
lose nothing, multiplies by powers of two, ...).  Works uniformly on
the typed low-level representation, so the same rules serve every
source language.

Two rule populations drive the worklist: the hand-written folds below,
and the **generated** rules of ``instcombine_generated.py`` — rewrites
discovered by ``lc-synth`` and admitted only after exhaustive
narrow-bitwidth verification (docs/ANALYSIS.md).  The generated set
loads by default; pass ``generated_rules=[]`` to run bare.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import types
from ..core.instructions import (
    BinaryOperator, CastInst, GetElementPtrInst, Instruction, Opcode,
    ShiftInst,
)
from ..core.module import Function
from ..core.values import (
    Constant, ConstantBool, ConstantInt, Value, null_value,
)
from .peephole import Rule, try_apply
from .utils import fold_instruction, is_trivially_dead, replace_and_erase


class InstCombine:
    """The pass object (see module docstring).

    ``unsafe_cast_fold`` resurrects the pre-fix double-cast fold (the
    PR-4 miscompile: ``(long)(uint)x -> (long)x``) for the translation
    validator's regression tests.  It exists so the *real* bug can be
    planted through the *real* pipeline; never enable it outside a
    test.
    """

    name = "instcombine"

    def __init__(self, generated_rules: Optional[Sequence[Rule]] = None,
                 unsafe_cast_fold: bool = False):
        if generated_rules is None:
            generated_rules = _default_rules()
        self.generated_rules = list(generated_rules)
        self.unsafe_cast_fold = unsafe_cast_fold
        self.counters = {"generated_rules_fired": 0}
        self.levels = {"generated_rules_loaded": len(self.generated_rules)}
        #: generated rules bucketed by LHS root opcode name for O(1)
        #: candidate lookup in the worklist loop
        self._rules_by_root: dict[str, list[Rule]] = {}
        for rule in self.generated_rules:
            self._rules_by_root.setdefault(rule.root_op, []).append(rule)

    def fresh(self) -> "InstCombine":
        """Same configuration, clean run state (for crash probing)."""
        return InstCombine(generated_rules=self.generated_rules,
                           unsafe_cast_fold=self.unsafe_cast_fold)

    def run_on_function(self, function: Function) -> bool:
        changed = False
        worklist = [inst for block in function.blocks for inst in block.instructions]
        while worklist:
            inst = worklist.pop()
            if inst.parent is None:
                continue
            if is_trivially_dead(inst):
                inst.erase_from_parent()
                changed = True
                continue
            folded = fold_instruction(inst)
            if folded is not None:
                worklist.extend(u for u in inst.users() if u is not inst)
                replace_and_erase(inst, folded)
                changed = True
                continue
            if _canonicalize(inst):
                changed = True
                worklist.append(inst)
                continue
            simplified = _simplify(inst, self.unsafe_cast_fold)
            if simplified is None:
                simplified = self._apply_generated(inst)
            if simplified is not None:
                worklist.extend(u for u in inst.users() if u is not inst)
                replace_and_erase(inst, simplified)
                changed = True
        return changed

    def _apply_generated(self, inst: Instruction) -> Optional[Value]:
        rules = self._rules_by_root.get(_root_op_name(inst))
        if not rules:
            return None
        for rule in rules:
            replacement = try_apply(rule, inst)
            if replacement is not None:
                self.counters["generated_rules_fired"] += 1
                return replacement
        return None


def _root_op_name(inst: Instruction) -> str:
    return inst.opcode.value


_DEFAULT_RULES: Optional[list] = None


def _default_rules() -> list:
    """The checked-in lc-synth rule set, loaded once per process."""
    global _DEFAULT_RULES
    if _DEFAULT_RULES is None:
        try:
            from .peephole import load_generated_rules

            _DEFAULT_RULES = load_generated_rules()
        except ImportError:
            _DEFAULT_RULES = []  # no generated file: run bare
    return _DEFAULT_RULES


def _canonicalize(inst: Instruction) -> bool:
    """Move constants to the right of commutative operators."""
    if isinstance(inst, BinaryOperator) and inst.is_commutative:
        lhs, rhs = inst.operands
        if isinstance(lhs, Constant) and not isinstance(rhs, Constant):
            inst.set_operand(0, rhs)
            inst.set_operand(1, lhs)
            return True
    return False


def _int_constant(value: Value, expected: int) -> bool:
    return isinstance(value, ConstantInt) and value.value == expected


def _all_ones(value: Value) -> bool:
    if not isinstance(value, ConstantInt):
        return False
    ty = value.type
    return value.value == ty.wrap(-1)  # type: ignore[attr-defined]


def _is_zero(value: Value) -> bool:
    return isinstance(value, Constant) and value.is_null_value() and not value.type.is_floating


def _simplify(inst: Instruction,
              unsafe_cast_fold: bool = False) -> Optional[Value]:
    if isinstance(inst, BinaryOperator):
        return _simplify_binary(inst)
    if isinstance(inst, ShiftInst):
        if _int_constant(inst.amount, 0):
            return inst.value
        if _is_zero(inst.value):
            return inst.value
        return None
    if isinstance(inst, CastInst):
        return _simplify_cast(inst, unsafe_cast_fold)
    if isinstance(inst, GetElementPtrInst):
        if inst.has_all_zero_indices() and inst.type is inst.pointer.type:
            return inst.pointer
        return None
    return None


def _simplify_binary(inst: BinaryOperator) -> Optional[Value]:
    opcode = inst.opcode
    lhs, rhs = inst.operands
    ty = lhs.type
    is_fp = ty.is_floating

    if opcode == Opcode.ADD:
        if _is_zero(rhs):
            return lhs
        return None
    if opcode == Opcode.SUB:
        if _is_zero(rhs):
            return lhs
        if lhs is rhs and not is_fp:
            return null_value(ty)
        return None
    if opcode == Opcode.MUL:
        if _int_constant(rhs, 1) or (is_fp and _fp_constant(rhs, 1.0)):
            return lhs
        if _is_zero(rhs):
            return rhs  # x * 0 == 0 for integers
        return None
    if opcode == Opcode.DIV:
        if _int_constant(rhs, 1) or (is_fp and _fp_constant(rhs, 1.0)):
            return lhs
        return None
    if opcode == Opcode.AND:
        if _is_zero(rhs):
            return rhs
        if _all_ones(rhs) or (ty.is_bool and _bool_constant(rhs, True)):
            return lhs
        if lhs is rhs:
            return lhs
        return None
    if opcode == Opcode.OR:
        if _is_zero(rhs) or (ty.is_bool and _bool_constant(rhs, False)):
            return lhs
        if _all_ones(rhs):
            return rhs
        if lhs is rhs:
            return lhs
        return None
    if opcode == Opcode.XOR:
        if _is_zero(rhs) or (ty.is_bool and _bool_constant(rhs, False)):
            return lhs
        if lhs is rhs:
            return null_value(ty)
        return None
    if opcode in (Opcode.SETEQ, Opcode.SETLE, Opcode.SETGE):
        if lhs is rhs and not is_fp:  # NaN != NaN, so skip floats
            return ConstantBool(True)
        return None
    if opcode in (Opcode.SETNE, Opcode.SETLT, Opcode.SETGT):
        if lhs is rhs and not is_fp:
            return ConstantBool(False)
        return None
    return None


def _fp_constant(value: Value, expected: float) -> bool:
    from ..core.values import ConstantFP

    return isinstance(value, ConstantFP) and value.value == expected


def _bool_constant(value: Value, expected: bool) -> bool:
    return isinstance(value, ConstantBool) and value.value is expected


def _cast_pair_foldable(src: types.Type, mid: types.Type,
                        dst: types.Type) -> bool:
    """Is ``cast (cast X: src to mid) to dst`` == ``cast X to dst``?

    Losslessness of src->mid is necessary but not sufficient: a
    same-width integer cast keeps every bit yet flips the signedness
    the outer cast *reinterprets*.  ``(long)(uint)x`` zero-extends; if
    x is ``int``, folding to ``(long)x`` sign-extends — a miscompile
    (found by lc-fuzz, reduced by lc-bugpoint).  The outer cast only
    ignores the reinterpretation when it never widens past the middle
    type's width.
    """
    if not types.is_losslessly_convertible(src, mid):
        return False
    if src is mid:
        return True
    if src.is_pointer and mid.is_pointer:
        # Pointer casts are pure reinterpretation; the representation
        # is a bare address either way.
        return True
    # Remaining lossless pairs are same-width integers of opposite
    # signedness.  The middle cast matters exactly when the outer cast
    # widens (the extension picks sign by the middle type) — anything
    # that stays within mid's bits sees the same low bits.
    if dst.is_bool:
        return True
    return dst.is_integer and dst.bits <= mid.bits


def _simplify_cast(inst: CastInst,
                   unsafe_cast_fold: bool = False) -> Optional[Value]:
    source = inst.value
    if source.type is inst.type:
        return source
    if isinstance(source, CastInst):
        # cast (cast X to B) to C == cast X to C when the middle step
        # loses nothing and C does not reinterpret what B changed.
        inner = source.value
        foldable = (types.is_losslessly_convertible(inner.type, source.type)
                    if unsafe_cast_fold  # the resurrected PR-4 bug
                    else _cast_pair_foldable(inner.type, source.type,
                                             inst.type))
        if foldable:
            if inner.type is inst.type:
                return inner
            builder_parent = inst.parent
            if builder_parent is not None:
                replacement = CastInst(inner, inst.type)
                index = builder_parent.instructions.index(inst)
                builder_parent.insert(index, replacement)
                return replacement
    return None
