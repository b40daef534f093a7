"""Virtual method call resolution (paper section 4.1.2).

"A virtual function table is represented as a global, constant array of
typed function pointers ... With this representation, virtual method
call resolution can be performed by the optimizer as effectively as by
a typical source compiler."

Two cooperating rewrites:

* loads at constant offsets into *constant* globals (the vtables) fold
  to the corresponding initializer element — this turns a loaded
  function pointer into a known function;
* indirect calls whose callee is a known function (possibly behind a
  pointer cast) become direct calls, which the inliner can then see.

The load folder works on byte offsets, so chains of GEPs (the natural
shape of ``load (gep (gep vtable, 0, 1, 0), slot)`` after store-load
forwarding) fold without needing GEP canonicalisation first.
"""

from __future__ import annotations

from typing import Optional

from ...analysis.callgraph import signature_compatible
from ...core import types
from ...core.datalayout import DataLayout
from ...core.instructions import (
    CallInst, CastInst, GetElementPtrInst, InvokeInst, LoadInst,
)
from ...core.module import Function, GlobalVariable, Module
from ...core.values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantExpr,
    ConstantInt, ConstantStruct, null_value,
)
from ..utils import replace_and_erase


class Devirtualize:
    """The pass object (see module docstring)."""

    name = "devirtualize"

    def __init__(self):
        self.counters = {"loads_folded": 0, "calls_devirtualized": 0}

    def run_on_module(self, module: Module) -> bool:
        layout = module.data_layout
        changed = False
        for function in module.defined_functions():
            for block in function.blocks:
                for inst in list(block.instructions):
                    if isinstance(inst, LoadInst):
                        folded = _fold_constant_load(inst, layout)
                        if folded is not None:
                            replace_and_erase(inst, folded)
                            self.counters["loads_folded"] += 1
                            changed = True
                    elif isinstance(inst, (CallInst, InvokeInst)):
                        if self._devirtualize_call(inst):
                            changed = True
        return changed

    def _devirtualize_call(self, call) -> bool:
        callee = call.operands[0]
        target = _strip_pointer_casts(callee)
        if target is callee or not isinstance(target, Function):
            return False
        if target.type is not callee.type:
            # Signature mismatch after stripping casts: calling through
            # a mismatched type is not safely rewritable.
            if not signature_compatible(call, target) \
                    or target.function_type.return_type is not call.type:
                return False
        call.set_operand(0, target)
        self.counters["calls_devirtualized"] += 1
        return True


def _strip_pointer_casts(value):
    while True:
        if isinstance(value, CastInst) and value.type.is_pointer:
            value = value.value
        elif isinstance(value, ConstantExpr) and value.opcode == "cast":
            value = value.operands[0]
        else:
            return value


def _fold_constant_load(load: LoadInst, layout: DataLayout) -> Optional[Constant]:
    resolved = _resolve_address(load.pointer, layout)
    if resolved is None:
        return None
    global_var, offset = resolved
    if not global_var.is_constant or global_var.initializer is None:
        return None
    return _element_at_offset(global_var.initializer, offset, load.type, layout)


def _resolve_address(pointer, layout: DataLayout) -> Optional[tuple[GlobalVariable, int]]:
    """Walk constant-index GEP chains down to (global, byte offset)."""
    offset = 0
    depth = 0
    while depth < 16:
        depth += 1
        if isinstance(pointer, GlobalVariable):
            return pointer, offset
        if isinstance(pointer, (GetElementPtrInst, ConstantExpr)):
            if isinstance(pointer, ConstantExpr):
                if pointer.opcode != "getelementptr":
                    return None
                base, indices = pointer.operands[0], pointer.operands[1:]
            else:
                base, indices = pointer.pointer, pointer.indices
            if not all(isinstance(i, ConstantInt) for i in indices):
                return None
            current = base.type.pointee
            for position, index in enumerate(indices):
                if position == 0:
                    offset += index.value * layout.size_of(current)
                elif current.is_struct:
                    offset += layout.field_offset(current, index.value)
                    current = current.fields[index.value]
                else:
                    offset += index.value * layout.size_of(current.element)
                    current = current.element
            pointer = base
            continue
        return None
    return None


def _element_at_offset(constant: Constant, offset: int,
                       want: types.Type, layout: DataLayout) -> Optional[Constant]:
    """The scalar constant at a byte offset within an initializer."""
    current = constant
    while True:
        ty = current.type
        if isinstance(current, ConstantAggregateZero):
            inner = _type_at_offset(ty, offset, layout)
            if inner is want and want.is_first_class:
                return null_value(want)
            return None
        if isinstance(current, ConstantArray):
            element_size = layout.size_of(ty.element)  # type: ignore[attr-defined]
            index = offset // element_size if element_size else 0
            if not 0 <= index < len(current.elements):
                return None
            offset -= index * element_size
            current = current.elements[index]  # type: ignore[assignment]
            continue
        if isinstance(current, ConstantStruct):
            fields = current.fields_values
            chosen = None
            for field_index in range(len(fields)):
                field_offset = layout.field_offset(ty, field_index)
                field_size = layout.size_of(ty.fields[field_index])  # type: ignore[attr-defined]
                if field_offset <= offset < field_offset + max(field_size, 1):
                    chosen = field_index
                    break
            if chosen is None:
                return None
            offset -= layout.field_offset(ty, chosen)
            current = fields[chosen]  # type: ignore[assignment]
            continue
        if offset == 0 and current.type is want:
            return current
        # A function pointer stored behind a cast still resolves when
        # the load wants the cast-to type.
        if (offset == 0 and isinstance(current, ConstantExpr)
                and current.opcode == "cast" and current.type is want):
            return current
        return None


def _type_at_offset(ty: types.Type, offset: int, layout: DataLayout):
    while True:
        if ty.is_array:
            element_size = layout.size_of(ty.element)  # type: ignore[attr-defined]
            if element_size == 0:
                return None
            offset %= element_size
            ty = ty.element  # type: ignore[attr-defined]
            continue
        if ty.is_struct:
            for index in range(len(ty.fields)):  # type: ignore[attr-defined]
                field_offset = layout.field_offset(ty, index)
                field = ty.fields[index]  # type: ignore[attr-defined]
                if field_offset <= offset < field_offset + max(layout.size_of(field), 1):
                    offset -= field_offset
                    ty = field
                    break
            else:
                return None
            continue
        return ty if offset == 0 else None
