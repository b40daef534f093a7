"""SAFECode-style array bounds checking (paper section 4.2.2).

SAFECode "relies on the array type information in LLVM to enforce array
bounds safety, and uses interprocedural analysis to eliminate runtime
bounds checks in many cases".  This pass reproduces the mechanism:

* **insertion** — every ``getelementptr`` that indexes a sized array
  type with a run-time index gets a guard comparing the index against
  the array bound; out-of-range indexing calls the ``__rt_bounds_fail``
  runtime (which aborts), so a memory error becomes a defined trap;
* **elimination** — checks whose index is provably in range are never
  emitted: constant indices inside the bound, and (after the scalar
  pipeline has run) indices it already folded.  The check counters
  record how many checks static reasoning removed, which is the
  statistic the SAFECode papers report.

The array *type* information that makes this possible is exactly what
the paper argues a low-level representation should keep.
"""

from __future__ import annotations

from ..core import types
from ..core.basicblock import BasicBlock
from ..core.builder import IRBuilder
from ..core.instructions import (
    BranchInst, GetElementPtrInst, Instruction, Opcode,
)
from ..core.module import Function, Module
from ..core.values import ConstantInt, Value


class BoundsCheckInsertion:
    """The pass object (see module docstring)."""

    name = "safecode-bounds"

    FAIL_FUNCTION = "__rt_bounds_fail"

    def __init__(self):
        self.counters = {"checks_inserted": 0, "checks_elided": 0}

    def run_on_module(self, module: Module) -> bool:
        fail = module.get_or_insert_function(
            types.function(types.VOID, [types.LONG, types.LONG]),
            self.FAIL_FUNCTION,
        )
        changed = False
        for function in list(module.defined_functions()):
            if function.name == self.FAIL_FUNCTION:
                continue
            changed |= self._run_on_function(function, fail)
        return changed

    def _run_on_function(self, function: Function, fail: Function) -> bool:
        changed = False
        for block in list(function.blocks):
            for inst in list(block.instructions):
                if not isinstance(inst, GetElementPtrInst):
                    continue
                if inst.parent is None:
                    continue
                for position, bound in self._checkable_indices(inst):
                    index = inst.operands[1 + position]
                    if self._provably_in_range(index, bound):
                        self.counters["checks_elided"] += 1
                        continue
                    self._insert_guard(function, inst, index, bound, fail)
                    self.counters["checks_inserted"] += 1
                    changed = True
        return changed

    def _checkable_indices(self, gep: GetElementPtrInst):
        """(index position, array bound) pairs for sized-array steps."""
        current = gep.pointer.type.pointee
        result = []
        for position, index in enumerate(gep.indices):
            if position == 0:
                continue  # stepping over the pointer has no static bound
            if current.is_struct:
                current = current.fields[index.value]  # type: ignore[attr-defined]
            else:  # array
                result.append((position, current.count))
                current = current.element
        return result

    def _provably_in_range(self, index: Value, bound: int) -> bool:
        return isinstance(index, ConstantInt) and 0 <= index.value < bound

    def _insert_guard(self, function: Function, gep: GetElementPtrInst,
                      index: Value, bound: int, fail: Function) -> None:
        """Split before the GEP and branch to the failure path when the
        index is outside [0, bound)."""
        block = gep.parent
        position = block.instructions.index(gep)
        continuation = block.split_at(position, f"{block.name}.inbounds")

        # Replace the fall-through branch with the guarded dispatch.
        guard_builder = IRBuilder(block)
        block.terminator.erase_from_parent()
        wide = guard_builder.cast(index, types.LONG, "bc.idx")
        too_low = guard_builder.setlt(wide, ConstantInt(types.LONG, 0), "bc.lo")
        too_high = guard_builder.setge(wide, ConstantInt(types.LONG, bound),
                                       "bc.hi")
        out = guard_builder.or_(too_low, too_high, "bc.out")

        fail_block = function.insert_block(
            function.blocks.index(continuation),
            BasicBlock(f"{block.name}.boundsfail"))
        fail_builder = IRBuilder(fail_block)
        fail_builder.call(fail, [wide, ConstantInt(types.LONG, bound)])
        fail_builder.unwind()

        guard_builder.cond_br(out, fail_block, continuation)
