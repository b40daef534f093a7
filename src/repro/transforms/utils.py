"""Shared rewriting utilities used across transformation passes."""

from __future__ import annotations

from typing import Optional

from ..core.basicblock import BasicBlock
from ..core.constfold import fold_instruction  # noqa: F401  (re-export)
from ..core.instructions import BranchInst, Instruction, PhiNode, SwitchInst
from ..core.module import Function
from ..core.values import (
    ConstantBool, ConstantFP, ConstantInt, ConstantPointerNull, Value,
)


def is_trivially_dead(inst: Instruction) -> bool:
    """Unused and side-effect free: safe to delete."""
    return not inst.is_used and not inst.has_side_effects() and not inst.type.is_void


def delete_dead_instructions(function: Function) -> bool:
    """Iteratively delete trivially dead instructions; True if any died."""
    changed = False
    worklist = [inst for block in function.blocks for inst in block.instructions]
    while worklist:
        inst = worklist.pop()
        if inst.parent is None or not is_trivially_dead(inst):
            continue
        operands = [op for op in inst.operands if isinstance(op, Instruction)]
        inst.erase_from_parent()
        changed = True
        worklist.extend(operands)
    return changed


def replace_and_erase(inst: Instruction, replacement: Value) -> None:
    """RAUW then remove ``inst`` from its block."""
    inst.replace_all_uses_with(replacement)
    inst.erase_from_parent()


def remove_block_with_phis(block: BasicBlock) -> None:
    """Delete ``block``, fixing up phi nodes in its successors."""
    for succ in block.successors():
        for phi in succ.phis():
            phi.remove_incoming(block)
    # Any remaining uses of this block's instructions are in other dead
    # blocks; drop references bottom-up to avoid dangling uses.
    for inst in reversed(list(block.instructions)):
        if inst.is_used:
            from ..core.values import UndefValue

            if not inst.type.is_void:
                inst.replace_all_uses_with(UndefValue(inst.type))
        inst.erase_from_parent()
    block.remove_from_parent()


def constant_fold_terminator(block: BasicBlock) -> bool:
    """Turn branches on constants into unconditional branches.

    Handles ``br bool true/false`` and ``switch`` on a constant.
    """
    term = block.terminator
    if isinstance(term, BranchInst) and term.is_conditional:
        cond = term.condition
        if isinstance(cond, ConstantBool):
            taken = term.operands[1] if cond.value else term.operands[2]
            not_taken = term.operands[2] if cond.value else term.operands[1]
            if not_taken is not taken:
                for phi in not_taken.phis():
                    phi.remove_incoming(block)
            term.erase_from_parent()
            block.append(BranchInst(taken))
            return True
        if term.operands[1] is term.operands[2]:
            # Both arms identical: drop the condition.
            dest = term.operands[1]
            term.erase_from_parent()
            block.append(BranchInst(dest))
            return True
        return False
    if isinstance(term, SwitchInst) \
            and isinstance(term.value, (ConstantInt, ConstantBool)):
        selected = term.default_dest
        for case_value, dest in term.cases:
            if case_value.value == term.value.value:  # type: ignore[attr-defined]
                selected = dest
                break
        removed: set[int] = set()
        for succ in term.successors:
            if succ is not selected and id(succ) not in removed:
                removed.add(id(succ))
                for phi in succ.phis():
                    phi.remove_incoming(block)
        term.erase_from_parent()
        block.append(BranchInst(selected))
        return True
    return False


_SCALAR_CONSTANTS = (ConstantInt, ConstantBool, ConstantFP,
                     ConstantPointerNull)


def _same_value(a: Value, b: Value) -> bool:
    """One object, or two scalar constants of one type that print alike
    (the parser and the folders make a fresh constant per literal).  The
    printed form tells -0.0 from 0.0 and equates NaN with NaN."""
    if a is b:
        return True
    return isinstance(a, _SCALAR_CONSTANTS) \
        and isinstance(b, _SCALAR_CONSTANTS) \
        and a.type is b.type and str(a) == str(b)


def phi_single_value(phi: PhiNode) -> Optional[Value]:
    """If a phi merges one distinct value (ignoring itself), return it."""
    distinct: Optional[Value] = None
    for value, _ in phi.incoming:
        if value is phi:
            continue
        if distinct is None:
            distinct = value
        elif not _same_value(distinct, value):
            return None
    return distinct
