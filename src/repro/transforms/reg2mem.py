"""Demote SSA registers to stack slots (the inverse of ``mem2reg``).

After this pass no value is used outside its defining block and no phi
nodes remain, so blocks can be freely duplicated or rewired (the trace
former uses exactly this before tail-duplicating a hot path); a
follow-up ``mem2reg`` rebuilds pristine SSA form afterwards.
"""

from __future__ import annotations

from ..analysis.cfg import split_critical_edge
from ..core.instructions import (
    AllocaInst, Instruction, InvokeInst, LoadInst, StoreInst,
)
from ..core.module import Function
from ..core.values import Value


class DemoteRegisters:
    """The pass object (see module docstring)."""

    name = "reg2mem"

    def run_on_function(self, function: Function) -> bool:
        changed = False
        entry = function.entry_block
        # 0. Hoist fixed-size allocas to the entry block so later block
        #    duplication cannot re-execute an allocation.
        for block in function.blocks:
            if block is entry:
                continue
            for inst in list(block.instructions):
                if isinstance(inst, AllocaInst) and inst.array_size is None:
                    inst.remove_from_parent()
                    entry.insert(0, inst)
                    changed = True
        # 0b. An invoke's value exists only on its normal edge: give that
        #     edge a block of its own to hold the stores of the value.
        for block in list(function.blocks):
            invoke = block.terminator
            if isinstance(invoke, InvokeInst) and invoke.is_used:
                split_critical_edge(block, invoke.normal_dest)
                changed = True
        # 1. Demote phi nodes: stores in predecessors, load at the phi.
        for block in list(function.blocks):
            for phi in list(block.phis()):
                slot = AllocaInst(phi.type, None, f"{phi.name or 'phi'}.slot")
                entry.insert(0, slot)
                for value, pred in phi.incoming:
                    store = StoreInst(value, slot)
                    pred.insert_before_terminator(store)
                load = LoadInst(slot, phi.name)
                index = block.instructions.index(phi)
                block.insert(index, load)
                phi.replace_all_uses_with(load)
                phi.erase_from_parent()
                changed = True
        # 2. Demote values with cross-block uses.
        for block in list(function.blocks):
            for inst in list(block.instructions):
                if inst.type.is_void or isinstance(inst, AllocaInst):
                    continue
                cross_uses = [
                    use for use in list(inst.uses)
                    if isinstance(use.user, Instruction)
                    and use.user.parent is not block
                ]
                if not cross_uses:
                    continue
                slot = AllocaInst(inst.type, None, f"{inst.name or 'reg'}.slot")
                entry.insert(0, slot)
                if isinstance(inst, InvokeInst):
                    inst.normal_dest.insert(0, StoreInst(inst, slot))
                else:
                    index = block.instructions.index(inst)
                    block.insert(index + 1, StoreInst(inst, slot))
                for use in cross_uses:
                    user = use.user
                    reload = LoadInst(slot, inst.name)
                    user_block = user.parent
                    user_index = user_block.instructions.index(user)
                    user_block.insert(user_index, reload)
                    user.set_operand(use.index, reload)
                changed = True
        return changed
