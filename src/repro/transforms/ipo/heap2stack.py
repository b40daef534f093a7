"""Heap-to-stack promotion: a DSA-client optimization.

The paper positions DSA as the enabler of "aggressive transformations
that would traditionally be attempted only on type-safe languages"
(section 4.1.1/4.2.1, with Automatic Pool Allocation as the flagship).
This pass is the simplest member of that family: a ``malloc`` whose
object provably never escapes the allocating function — no store of its
pointer into memory, no pass to an unknown callee, no return — is
turned into an ``alloca``, and its ``free`` calls are deleted (stack
storage dies with the frame).

Escape is judged structurally over the SSA graph (the use-closure of
the allocation through GEPs, casts, and phis), which is sound without a
full DSA solve; the DSA-backed version would catch more cases, this one
is deliberately conservative.
"""

from __future__ import annotations

from ...core.instructions import (
    AllocaInst, CastInst, FreeInst, GetElementPtrInst, Instruction,
    LoadInst, MallocInst, Opcode, PhiNode, StoreInst,
)
from ...core.module import Function, Module
from ...core.values import Value


class HeapToStackPromotion:
    """The pass object (see module docstring)."""

    name = "heap2stack"

    def __init__(self, max_bytes: int = 4096):
        #: Objects bigger than this stay on the heap (stack frames are
        #: not the place for megabyte buffers).
        self.max_bytes = max_bytes
        self.counters = {"mallocs_promoted": 0, "frees_deleted": 0}

    def run_on_module(self, module: Module) -> bool:
        changed = False
        for function in module.defined_functions():
            changed |= self.run_on_function(function, module)
        return changed

    def run_on_function(self, function: Function, module: Module) -> bool:
        changed = False
        layout = module.data_layout
        for block in function.blocks:
            for inst in list(block.instructions):
                if not isinstance(inst, MallocInst):
                    continue
                if inst.array_size is not None:
                    continue  # dynamic sizes stay on the heap
                if layout.size_of(inst.allocated_type) > self.max_bytes:
                    continue
                escapes, frees = _escape_analysis(inst)
                if escapes:
                    continue
                # Rewrite: alloca in place, frees deleted.
                replacement = AllocaInst(inst.allocated_type, None,
                                         inst.name or "stackified")
                index = block.instructions.index(inst)
                block.insert(index, replacement)
                inst.replace_all_uses_with(replacement)
                inst.erase_from_parent()
                for free in frees:
                    free.erase_from_parent()
                self.counters["mallocs_promoted"] += 1
                self.counters["frees_deleted"] += len(frees)
                changed = True
        return changed


def _escape_analysis(malloc: MallocInst) -> tuple[bool, list[FreeInst]]:
    """Does any alias of the allocation escape the function?

    Returns (escapes, the free instructions that release it).
    """
    frees: list[FreeInst] = []
    seen: set[int] = set()
    worklist: list[Value] = [malloc]
    while worklist:
        pointer = worklist.pop()
        if id(pointer) in seen:
            continue
        seen.add(id(pointer))
        for use in pointer.uses:
            user = use.user
            if isinstance(user, LoadInst):
                continue  # reading through it is fine
            if isinstance(user, StoreInst):
                if user.value is pointer:
                    return True, []  # the pointer itself is stored away
                continue
            if isinstance(user, FreeInst):
                if isinstance(pointer, MallocInst):
                    frees.append(user)
                    continue
                return True, []  # freeing a derived pointer: leave alone
            if isinstance(user, (GetElementPtrInst, CastInst, PhiNode)):
                if user.type.is_pointer:
                    worklist.append(user)
                    continue
                return True, []  # cast to integer: address escapes
            if isinstance(user, Instruction) and user.is_comparison:
                continue  # null checks don't capture
            if isinstance(user, Instruction) and user.opcode == Opcode.RET:
                return True, []
            # Calls, invokes, switches on the address, anything else:
            # treat as escaping.
            return True, []
    return False, frees
