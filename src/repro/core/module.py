"""Modules, functions, and global variables.

A module is a translation unit: global variables, functions, and named
types.  Global variable and function definitions define a *symbol
providing the address* of the object, not the object itself — this is
the unified memory model of paper section 2.3 in which every memory
operation, including calls, happens through a typed pointer and there
are no implicit memory accesses (so no address-of operator is needed).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from . import types
from .basicblock import BasicBlock
from .datalayout import DataLayout, DEFAULT
from .values import Argument, BodyList, Constant, Value


class Linkage:
    """Symbol linkage kinds."""

    EXTERNAL = "external"   #: visible to other modules; participates in linking
    INTERNAL = "internal"   #: private to this module (C ``static``)
    APPENDING = "appending" #: arrays concatenated at link time (e.g. ctor lists)

    ALL = (EXTERNAL, INTERNAL, APPENDING)


class GlobalValue(Constant):
    """Base of functions and global variables: a constant *address*."""

    __slots__ = ("linkage", "parent")

    def __init__(self, ty: types.PointerType, name: str, linkage: str):
        if linkage not in Linkage.ALL:
            raise ValueError(f"bad linkage: {linkage}")
        super().__init__(ty, (), name)
        self.linkage = linkage
        self.parent: Optional[Module] = None

    @property
    def is_internal(self) -> bool:
        return self.linkage == Linkage.INTERNAL

    @property
    def is_declaration(self) -> bool:
        raise NotImplementedError


class GlobalVariable(GlobalValue):
    """A module-level variable; its value is a pointer to the storage."""

    __slots__ = ("is_constant",)

    def __init__(self, value_type: types.Type, name: str,
                 initializer: Optional[Constant] = None,
                 linkage: str = Linkage.EXTERNAL,
                 is_constant: bool = False):
        super().__init__(types.pointer(value_type), name, linkage)
        self.is_constant = is_constant
        if initializer is not None:
            self.set_initializer(initializer)

    @property
    def value_type(self) -> types.Type:
        return self.type.pointee

    @property
    def initializer(self) -> Optional[Constant]:
        return self.operands[0] if self.operands else None  # type: ignore[return-value]

    def set_initializer(self, initializer: Optional[Constant]) -> None:
        if self.operands:
            self._pop_operands(0)
        if initializer is not None:
            if not _init_matches(initializer.type, self.value_type):
                raise TypeError(
                    f"initializer type {initializer.type} does not match {self.value_type}"
                )
            self._append_operand(initializer)

    @property
    def is_declaration(self) -> bool:
        return self.initializer is None

    def erase_from_parent(self) -> None:
        if self.parent is not None:
            self.parent._remove_global(self)
        self.drop_all_references()


def _init_matches(init_ty: types.Type, slot_ty: types.Type) -> bool:
    if init_ty is slot_ty:
        return True
    # A ConstantString of N bytes may initialise [N x sbyte].
    if init_ty.is_array and slot_ty.is_array:
        return (init_ty.count == slot_ty.count
                and init_ty.element is slot_ty.element)
    return False


class Function(GlobalValue):
    """A function: arguments plus a CFG of basic blocks (or a declaration).

    The function value itself has type *pointer to function*, so it can
    be called, stored in vtables, or passed around like any constant.
    """

    __slots__ = ("args", "blocks", "is_pure", "source_module", "epoch",
                 "optimized", "analyses")

    def __init__(self, fn_type: types.FunctionType, name: str,
                 linkage: str = Linkage.EXTERNAL,
                 arg_names: Optional[Sequence[str]] = None):
        super().__init__(types.pointer(fn_type), name, linkage)
        self.args: list[Argument] = []
        self.blocks: BodyList = BodyList(self)
        #: Marked by front-ends/analyses for calls safe to delete if unused.
        self.is_pure = False
        #: Name of the translation unit that defined this function; the
        #: linker preserves it across merging so whole-program
        #: diagnostics can point at the original file.
        self.source_module: Optional[str] = None
        #: The mutation epoch: moves on every edit of the body — an
        #: operand of one of its instructions, an edit of ``blocks`` or
        #: of a block's ``instructions`` (each a
        #: :class:`~repro.core.values.BodyList`), a rename of an
        #: argument, a block or an instruction.  The containers move it,
        #: so no edit can go around it.  Equal epochs mean an unchanged
        #: body; the value itself means nothing.
        self.epoch = 0
        #: ``(level, epoch)`` of the last ``-O<level>`` run that finished
        #: over this body (see ``repro.driver.pipelines.run_ladder``),
        #: or None.
        self.optimized: Optional[tuple[int, int]] = None
        #: ``(epoch, {kind: analysis})``: the analyses built over this
        #: body at that epoch (see ``repro.analysis.manager``), or None.
        self.analyses: Optional[tuple[int, dict]] = None
        for index, param_ty in enumerate(fn_type.params):
            arg_name = arg_names[index] if arg_names else f"arg{index}"
            self.args.append(Argument(param_ty, arg_name, self, index))

    @property
    def function_type(self) -> types.FunctionType:
        return self.type.pointee  # type: ignore[return-value]

    @property
    def return_type(self) -> types.Type:
        return self.function_type.return_type

    @property
    def is_vararg(self) -> bool:
        return self.function_type.is_vararg

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no body")
        return self.blocks[0]

    def append_block(self, name: str = "") -> BasicBlock:
        return BasicBlock(name, parent=self)

    def _moved(self) -> None:
        """The body changed: the one place the epoch moves."""
        self.epoch += 1

    def insert_block(self, index: int, block: BasicBlock) -> BasicBlock:
        """Place a detached ``block`` at position ``index``."""
        block.parent = self
        self.blocks.insert(index, block)
        return block

    def take_body(self, donor: "Function") -> None:
        """Move every block of ``donor`` into this bodiless function."""
        blocks = donor.blocks[:]
        donor.blocks.clear()
        for block in blocks:
            block.parent = self
        self.blocks.extend(blocks)

    def instructions(self) -> Iterator:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    def delete_body(self) -> None:
        """Turn a definition back into a declaration.

        Instructions are dropped in two phases (references first) so
        mutual references between dying instructions cause no errors.
        """
        for block in self.blocks:
            for inst in block.instructions:
                inst.drop_all_references()
        for block in list(self.blocks):
            block.instructions.clear()
            block.remove_from_parent()
        self.blocks.clear()

    def erase_from_parent(self) -> None:
        self.delete_body()
        if self.parent is not None:
            self.parent._remove_function(self)
        self.drop_all_references()

    def verify(self) -> None:
        """Convenience wrapper over :mod:`repro.core.verifier`."""
        from .verifier import verify_function

        verify_function(self)


class Module:
    """A translation unit: named types, global variables, and functions."""

    def __init__(self, name: str = "module", data_layout: DataLayout = DEFAULT):
        self.name = name
        self.data_layout = data_layout
        self.globals: dict[str, GlobalVariable] = {}
        self.functions: dict[str, Function] = {}
        self.named_types: dict[str, types.StructType] = {}

    # -- named types ---------------------------------------------------------

    def add_named_type(self, struct_ty: types.StructType) -> types.StructType:
        if struct_ty.name is None:
            raise ValueError("only named structs go in the module type table")
        existing = self.named_types.get(struct_ty.name)
        if existing is not None and existing is not struct_ty:
            raise ValueError(f"type name {struct_ty.name!r} already defined")
        self.named_types[struct_ty.name] = struct_ty
        return struct_ty

    # -- globals -------------------------------------------------------------

    def add_global(self, global_var: GlobalVariable) -> GlobalVariable:
        self._claim_symbol(global_var.name)
        global_var.parent = self
        self.globals[global_var.name] = global_var
        return global_var

    def new_global(self, value_type: types.Type, name: str,
                   initializer: Optional[Constant] = None,
                   linkage: str = Linkage.EXTERNAL,
                   is_constant: bool = False) -> GlobalVariable:
        return self.add_global(
            GlobalVariable(value_type, name, initializer, linkage, is_constant)
        )

    def _remove_global(self, global_var: GlobalVariable) -> None:
        if self.globals.get(global_var.name) is global_var:
            del self.globals[global_var.name]
        global_var.parent = None

    # -- functions -----------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        self._claim_symbol(function.name)
        function.parent = self
        self.functions[function.name] = function
        return function

    def new_function(self, fn_type: types.FunctionType, name: str,
                     linkage: str = Linkage.EXTERNAL,
                     arg_names: Optional[Sequence[str]] = None) -> Function:
        return self.add_function(Function(fn_type, name, linkage, arg_names))

    def get_or_insert_function(self, fn_type: types.FunctionType, name: str) -> Function:
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type is not fn_type:
                raise TypeError(
                    f"function {name!r} redeclared with different type: "
                    f"{existing.function_type} vs {fn_type}"
                )
            return existing
        return self.new_function(fn_type, name)

    def _remove_function(self, function: Function) -> None:
        if self.functions.get(function.name) is function:
            del self.functions[function.name]
        function.parent = None

    # -- symbols ----------------------------------------------------------------

    def _claim_symbol(self, name: str) -> None:
        if not name:
            raise ValueError("module-level symbols must be named")
        if name in self.globals or name in self.functions:
            raise ValueError(f"symbol {name!r} already defined in module")

    def get_symbol(self, name: str) -> Optional[GlobalValue]:
        return self.functions.get(name) or self.globals.get(name)

    def unique_symbol(self, base: str) -> str:
        """A symbol name not yet used in this module, derived from ``base``."""
        if base not in self.globals and base not in self.functions:
            return base
        counter = 1
        while f"{base}.{counter}" in self.globals or f"{base}.{counter}" in self.functions:
            counter += 1
        return f"{base}.{counter}"

    # -- iteration ----------------------------------------------------------------

    def defined_functions(self) -> Iterator[Function]:
        for function in self.functions.values():
            if not function.is_declaration:
                yield function

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions.values())

    def verify(self) -> None:
        from .verifier import verify_module

        verify_module(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Module {self.name!r}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")
