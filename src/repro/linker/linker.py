"""Module linking (paper section 3.1/3.3).

"Static compiler front-ends emit code in the LLVM representation, which
is combined together by the LLVM linker" — this module is that linker.
It merges translation units into one module: named types are unified
structurally, declarations are resolved against definitions, internal
symbols are renamed to avoid collisions, and ``appending`` arrays are
concatenated.  The resulting module is what the link-time
interprocedural optimizer runs on.

A body is copied by recording it
(:func:`repro.core.record.snapshot_function`) and rebuilding the record
into the output function (:func:`repro.core.record.rebuild_body`), which
maps each symbol, constant and type into the output module as it is
first met.  Putting one function back into the module it came from
(the pass manager's rollback) needs no link: its record already holds
the live module's objects
(``repro.transforms.passmanager.restore_function``).
"""

from __future__ import annotations

from functools import cache, partial
from typing import Optional, Sequence

from ..core import types
from ..core.module import Function, GlobalVariable, Linkage, Module
from ..core.record import rebuild_body, snapshot_function
from ..core.values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantExpr,
    ConstantPointerNull, ConstantString, ConstantStruct, Value,
)


class LinkError(Exception):
    """Symbol or type conflicts that prevent linking."""


def link_modules(modules: Sequence[Module], name: str = "linked") -> Module:
    """Link ``modules`` into a fresh combined module.

    The inputs are not mutated; everything is cloned into the output.
    """
    if not modules:
        raise LinkError("nothing to link")
    from ..fuzz import faultinject

    faultinject.check("linker.symbol-clash")
    linked = Module(name, modules[0].data_layout)
    linker = _Linker(linked)
    for module in modules:
        linker.add(module)
    linker.finish()
    return linked


class _Linker:
    def __init__(self, output: Module):
        self.output = output
        #: Per-input-module map from source value -> output value.
        self.type_map: dict[int, types.StructType] = {}
        self.pending_appending: dict[str, list[Constant]] = {}

    # -- types ----------------------------------------------------------------

    def _map_type(self, ty: types.Type) -> types.Type:
        """Translate a type from an input module into the output module,
        unifying named structs by name (structural check on collision)."""
        if ty.is_pointer:
            return types.pointer(self._map_type(ty.pointee))
        if ty.is_array:
            return types.array(self._map_type(ty.element), ty.count)
        if ty.is_function:
            return types.function(
                self._map_type(ty.return_type),
                [self._map_type(p) for p in ty.params],
                ty.is_vararg,
            )
        if ty.is_struct and ty.name is not None:
            mapped = self.type_map.get(id(ty))
            if mapped is not None:
                return mapped
            existing = self.output.named_types.get(ty.name)
            if existing is not None:
                # Unify: both must agree structurally (checked lazily by
                # field count; deep equality would need recursion care).
                self.type_map[id(ty)] = existing
                if not ty.is_opaque and not existing.is_opaque:
                    if len(ty.fields) != len(existing.fields):
                        raise LinkError(
                            f"type %{ty.name} disagrees between modules"
                        )
                return existing
            created = types.named_struct(ty.name)
            self.output.add_named_type(created)
            self.type_map[id(ty)] = created
            if not ty.is_opaque:
                created.set_body([self._map_type(f) for f in ty.fields])
            return created
        if ty.is_struct:
            return types.struct(self._map_type(f) for f in ty.fields)
        return ty

    # -- symbols -----------------------------------------------------------------

    def add(self, module: Module) -> None:
        value_map: dict[int, Value] = {}
        # Pass 1: create/merge symbol table entries.
        for global_var in module.globals.values():
            value_map[id(global_var)] = self._merge_global(global_var)
        for function in module.functions.values():
            merged = self._merge_function(function)
            if not function.is_declaration and not merged.blocks:
                # Whichever unit supplies the body supplies the
                # provenance whole-program diagnostics report.
                merged.source_module = function.source_module or module.name
            value_map[id(function)] = merged
        # Pass 2: copy initializers and bodies through the value map.
        for global_var in module.globals.values():
            target: GlobalVariable = value_map[id(global_var)]  # type: ignore[assignment]
            if global_var.initializer is not None:
                if global_var.linkage == Linkage.APPENDING:
                    self.pending_appending.setdefault(target.name, []).append(
                        self._map_constant(global_var.initializer, value_map)
                    )
                elif target.initializer is None:
                    target.set_initializer(
                        self._map_constant(global_var.initializer, value_map)
                    )
        for function in module.functions.values():
            target: Function = value_map[id(function)]  # type: ignore[assignment]
            if not function.is_declaration and not target.blocks:
                # Constants embed symbol references and named types; map
                # each once per body so cloned instructions point into
                # the output module (scalar constants map to themselves).
                remap = cache(partial(self._map_constant, value_map=value_map))
                rebuild_body(snapshot_function(function), target,
                             target.args, remap, self._map_type)

    def _merge_global(self, global_var: GlobalVariable) -> GlobalVariable:
        value_type = self._map_type(global_var.value_type)
        if global_var.is_internal:
            name = self.output.unique_symbol(global_var.name)
            return self.output.new_global(
                value_type, name, None, Linkage.INTERNAL, global_var.is_constant
            )
        existing = self.output.get_symbol(global_var.name)
        if existing is None:
            return self.output.new_global(
                value_type, global_var.name, None, global_var.linkage,
                global_var.is_constant,
            )
        if not isinstance(existing, GlobalVariable):
            raise LinkError(
                f"symbol {global_var.name!r} is a global in one module "
                "and a function in another"
            )
        if existing.value_type is not value_type:
            if global_var.linkage != Linkage.APPENDING:
                raise LinkError(
                    f"global {global_var.name!r} has conflicting types"
                )
        if (existing.initializer is not None
                and global_var.initializer is not None
                and global_var.linkage != Linkage.APPENDING):
            raise LinkError(f"global {global_var.name!r} defined twice")
        return existing

    def _merge_function(self, function: Function) -> Function:
        fn_type = self._map_type(function.function_type)
        if function.is_internal:
            name = self.output.unique_symbol(function.name)
            clone = Function(fn_type, name, Linkage.INTERNAL,
                             [a.name for a in function.args])
            clone.is_pure = function.is_pure
            return self.output.add_function(clone)
        existing = self.output.get_symbol(function.name)
        if existing is None:
            clone = Function(fn_type, function.name, function.linkage,
                             [a.name for a in function.args])
            clone.is_pure = function.is_pure
            return self.output.add_function(clone)
        if not isinstance(existing, Function):
            raise LinkError(
                f"symbol {function.name!r} is a function in one module "
                "and a global in another"
            )
        if existing.function_type is not fn_type:
            raise LinkError(
                f"function {function.name!r} has conflicting signatures: "
                f"{existing.function_type} vs {fn_type}"
            )
        if not function.is_declaration and existing.blocks:
            raise LinkError(f"function {function.name!r} defined twice")
        return existing

    def _map_constant(self, constant: Constant, value_map: dict[int, Value]) -> Constant:
        mapped = value_map.get(id(constant))
        if mapped is not None:
            return mapped  # type: ignore[return-value]
        if isinstance(constant, (Function, GlobalVariable)):
            raise LinkError(f"unmapped symbol {constant.name!r} in initializer")
        if isinstance(constant, ConstantPointerNull):
            return ConstantPointerNull(self._map_type(constant.type))  # type: ignore[arg-type]
        if isinstance(constant, ConstantAggregateZero):
            return ConstantAggregateZero(self._map_type(constant.type))
        if isinstance(constant, ConstantString):
            return constant  # no embedded types
        if isinstance(constant, ConstantArray):
            return ConstantArray(self._map_type(constant.type),  # type: ignore[arg-type]
                                 [self._map_constant(e, value_map)
                                  for e in constant.elements])
        if isinstance(constant, ConstantStruct):
            return ConstantStruct(self._map_type(constant.type),  # type: ignore[arg-type]
                                  [self._map_constant(f, value_map)
                                   for f in constant.fields_values])
        if isinstance(constant, ConstantExpr):
            return ConstantExpr(constant.opcode, self._map_type(constant.type),
                                [self._map_constant(op, value_map)
                                 for op in constant.operands])
        return constant  # scalar constants carry only primitive types

    # -- appending linkage ---------------------------------------------------------

    def finish(self) -> None:
        for name, pieces in self.pending_appending.items():
            target = self.output.globals[name]
            elements: list[Constant] = []
            element_ty: Optional[types.Type] = None
            for piece in pieces:
                if not isinstance(piece, ConstantArray):
                    raise LinkError("appending linkage requires array initializers")
                element_ty = piece.type.element  # type: ignore[attr-defined]
                elements.extend(piece.elements)  # type: ignore[arg-type]
            if element_ty is None:
                continue
            array_ty = types.array(element_ty, len(elements))
            combined = ConstantArray(array_ty, elements)  # type: ignore[arg-type]
            # The slot type grows to fit the concatenation.
            replacement = GlobalVariable(array_ty, target.name, combined,
                                         Linkage.APPENDING, target.is_constant)
            self.output._remove_global(target)
            target.replace_all_uses_with(replacement)
            self.output.add_global(replacement)
