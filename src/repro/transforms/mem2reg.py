"""Stack promotion (``mem2reg``): SSA construction from allocas.

Front-ends do not construct SSA form (paper section 3.2): they allocate
source-level variables on the stack with ``alloca`` and use loads and
stores.  This pass promotes stack-allocated scalars whose address does
not escape into SSA registers, inserting phi nodes at the iterated
dominance frontier of the stores (the standard Cytron et al.
construction), exactly the division of labour the paper prescribes.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.dominators import DominanceFrontiers
from ..analysis.manager import function_analysis
from ..core.basicblock import BasicBlock
from ..core.instructions import (
    AllocaInst, Instruction, LoadInst, Opcode, PhiNode, StoreInst,
)
from ..core.module import Function
from ..core.values import UndefValue, Value


def is_promotable(alloca: AllocaInst) -> bool:
    """A promotable alloca is a scalar whose address never escapes:
    every use is a load, or a store *to* it (not of it)."""
    if alloca.array_size is not None:
        return False
    if not alloca.allocated_type.is_first_class:
        return False
    for use in alloca.uses:
        user = use.user
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca and user.value is not alloca:
            continue
        return False
    return True


class PromoteMem2Reg:
    """The pass object; promotes every promotable alloca in a function."""

    name = "mem2reg"

    def run_on_function(self, function: Function) -> bool:
        allocas = [
            inst
            for block in function.blocks
            for inst in block.instructions
            if isinstance(inst, AllocaInst) and is_promotable(inst)
        ]
        if not allocas:
            return False
        _Promoter(function, allocas).run()
        return True


class _Promoter:
    def __init__(self, function: Function, allocas: list[AllocaInst]):
        self.function = function
        self.allocas = allocas
        self.alloca_index = {id(a): i for i, a in enumerate(allocas)}
        self.frontiers = function_analysis(function, DominanceFrontiers)
        self.domtree = self.frontiers.domtree
        #: phi -> alloca index, for phis this pass inserts.
        self.phi_slot: dict[int, int] = {}
        self.inserted_phis: list[PhiNode] = []

    def run(self) -> None:
        for index, alloca in enumerate(self.allocas):
            self._insert_phis(index, alloca)
        self._rename()
        for alloca in self.allocas:
            for use in list(alloca.uses):
                # Only accesses in unreachable code remain.
                user = use.user
                if not user.type.is_void and user.is_used:
                    user.replace_all_uses_with(UndefValue(user.type))
                user.erase_from_parent()
            alloca.erase_from_parent()
        self._fill_missing_incoming()
        self._prune_dead_phis()

    # -- phi placement ----------------------------------------------------

    def _insert_phis(self, index: int, alloca: AllocaInst) -> None:
        def_blocks = []
        for use in alloca.uses:
            user = use.user
            if isinstance(user, StoreInst) and self.domtree.is_reachable(user.parent):
                def_blocks.append(user.parent)
        placed: set[int] = set()
        worklist = list({id(b): b for b in def_blocks}.values())
        while worklist:
            block = worklist.pop()
            for frontier_block in self.frontiers.frontier(block):
                if id(frontier_block) in placed:
                    continue
                placed.add(id(frontier_block))
                phi = PhiNode(alloca.allocated_type, alloca.name or "promoted")
                frontier_block.insert(0, phi)
                self.phi_slot[id(phi)] = index
                self.inserted_phis.append(phi)
                worklist.append(frontier_block)

    # -- renaming ----------------------------------------------------------------

    def _rename(self) -> None:
        undef = [UndefValue(a.allocated_type) for a in self.allocas]
        entry_values: list[Value] = list(undef)
        visited: set[int] = set()
        stack: list[tuple[BasicBlock, list[Value]]] = [
            (self.function.entry_block, entry_values)
        ]
        while stack:
            block, incoming = stack.pop()
            if id(block) in visited:
                continue
            visited.add(id(block))
            values = list(incoming)
            for inst in list(block.instructions):
                slot = self._slot_of(inst)
                if slot is not None:
                    if isinstance(inst, PhiNode):
                        values[slot] = inst
                    elif isinstance(inst, LoadInst):
                        inst.replace_all_uses_with(values[slot])
                        inst.erase_from_parent()
                    elif isinstance(inst, StoreInst):
                        values[slot] = inst.value
                        inst.erase_from_parent()
            filled: set[int] = set()
            for succ in block.successors():
                if id(succ) not in filled:
                    filled.add(id(succ))
                    for phi in succ.phis():
                        slot = self.phi_slot.get(id(phi))
                        if slot is not None:
                            phi.add_incoming(values[slot], block)
                if id(succ) not in visited:
                    stack.append((succ, values))

    def _slot_of(self, inst: Instruction) -> Optional[int]:
        if isinstance(inst, PhiNode):
            return self.phi_slot.get(id(inst))
        if isinstance(inst, LoadInst):
            return self.alloca_index.get(id(inst.pointer))
        if isinstance(inst, StoreInst):
            slot = self.alloca_index.get(id(inst.pointer))
            # A store *of* an alloca pointer isn't promotable and was
            # filtered earlier; here pointer identity is enough.
            return slot
        return None

    def _fill_missing_incoming(self) -> None:
        """Give inserted phis an undef entry for predecessors the rename
        walk never reached (edges from unreachable code)."""
        for phi in self.inserted_phis:
            if phi.parent is None:
                continue
            covered = {id(b) for _, b in phi.incoming}
            for pred in phi.parent.unique_predecessors():
                if id(pred) not in covered:
                    phi.add_incoming(UndefValue(phi.type), pred)

    def _prune_dead_phis(self) -> None:
        """Delete inserted phis not transitively used by real code.

        A phi inserted by this pass is *live* if some non-inserted user
        consumes it, directly or through other inserted phis; dead
        cycles of phis feeding only each other are removed together.
        """
        inserted = {id(p) for p in self.inserted_phis}
        live: set[int] = set()
        worklist = []
        for phi in self.inserted_phis:
            for user in phi.users():
                if id(user) not in inserted:
                    worklist.append(phi)
                    break
        while worklist:
            phi = worklist.pop()
            if id(phi) in live:
                continue
            live.add(id(phi))
            for value, _ in phi.incoming:
                if isinstance(value, PhiNode) and id(value) in inserted and id(value) not in live:
                    worklist.append(value)
        for phi in self.inserted_phis:
            if id(phi) not in live and phi.parent is not None:
                # Break cycles first, then erase.
                if phi.is_used:
                    phi.replace_all_uses_with(UndefValue(phi.type))
                phi.erase_from_parent()
