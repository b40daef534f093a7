"""CFG simplification: the janitor pass run between other optimizations.

Performs, to a fixpoint per function:

* unreachable block deletion;
* constant-folding of conditional branches and switches;
* merging a block into its unique predecessor when that predecessor
  has it as unique successor;
* removal of trivial phi nodes (single predecessor / single value);
* skipping of empty forwarding blocks (a lone unconditional branch).
"""

from __future__ import annotations

from ..analysis.cfg import unreachable_blocks
from ..core.basicblock import BasicBlock
from ..core.instructions import BranchInst, PhiNode
from ..core.module import Function
from .utils import constant_fold_terminator, phi_single_value, remove_block_with_phis


class SimplifyCFG:
    """The pass object (see module docstring)."""

    name = "simplifycfg"

    def run_on_function(self, function: Function) -> bool:
        changed = False
        while self._run_once(function):
            changed = True
        return changed

    def _run_once(self, function: Function) -> bool:
        changed = False
        for block in list(function.blocks):
            if block.parent is None:
                continue
            changed |= constant_fold_terminator(block)
        changed |= _remove_unreachable(function)
        for block in list(function.blocks):
            if block.parent is None:
                continue
            changed |= _simplify_phis(block)
        for block in list(function.blocks):
            if block.parent is None or block is function.entry_block:
                continue
            if _merge_into_predecessor(block):
                changed = True
                continue
            if _forward_empty_block(block):
                changed = True
        return changed


def _remove_unreachable(function: Function) -> bool:
    dead = unreachable_blocks(function)
    for block in dead:
        remove_block_with_phis(block)
    return bool(dead)


def _simplify_phis(block: BasicBlock) -> bool:
    changed = False
    for phi in list(block.phis()):
        value = phi_single_value(phi)
        if value is not None:
            phi.replace_all_uses_with(value)
            phi.erase_from_parent()
            changed = True
        elif not phi.is_used:
            phi.erase_from_parent()
            changed = True
    return changed


def _merge_into_predecessor(block: BasicBlock) -> bool:
    """Fold ``block`` into its single predecessor ``pred`` when ``pred``
    unconditionally branches to it."""
    preds = block.unique_predecessors()
    if len(preds) != 1:
        return False
    pred = preds[0]
    if pred is block:
        return False
    term = pred.terminator
    if not isinstance(term, BranchInst) or term.is_conditional:
        return False
    if term.operands[0] is not block:
        return False  # invoke or switch edge; leave it
    # Phis with a single predecessor fold to their value.
    for phi in list(block.phis()):
        incoming = phi.incoming_for_block(pred)
        phi.replace_all_uses_with(incoming)
        phi.erase_from_parent()
    term.erase_from_parent()
    for inst in list(block.instructions):
        inst.remove_from_parent()
        pred.append(inst)
    # Successors' phis must now name pred instead of block.
    for succ in pred.successors():
        for phi in succ.phis():
            phi.replace_incoming_block(block, pred)
    if block.is_used:
        # Stragglers (e.g. phis in not-yet-cleaned unreachable blocks).
        block.replace_all_uses_with(pred)
    block.remove_from_parent()
    return True


def _forward_empty_block(block: BasicBlock) -> bool:
    """Remove a block containing only ``br label %dest``, retargeting
    predecessors straight to the destination."""
    if len(block.instructions) != 1:
        return False
    term = block.terminator
    if not isinstance(term, BranchInst) or term.is_conditional:
        return False
    dest = term.operands[0]
    if dest is block:
        return False
    # If the destination has phis, forwarding is only safe when no
    # predecessor of ``block`` is already a predecessor of ``dest``
    # (otherwise that phi would need two different entries per pred).
    dest_preds = {id(p) for p in dest.unique_predecessors()}
    preds = block.unique_predecessors()
    has_phis = any(True for _ in dest.phis())
    if has_phis:
        for pred in preds:
            if id(pred) in dest_preds:
                return False
    if not preds:
        return False
    for phi in dest.phis():
        value = phi.incoming_for_block(block)
        phi.remove_incoming(block)
        for pred in preds:
            phi.add_incoming(value, pred)
    for pred in preds:
        pred_term = pred.terminator
        for index, operand in enumerate(pred_term.operands):
            if operand is block:
                pred_term.set_operand(index, dest)
    term.erase_from_parent()
    block.remove_from_parent()
    return True
