"""Bytecode writer: the compact binary representation (section 4.1.3).

"The flat, three-address form of LLVM is well suited for a simple
linear layout, with most instructions requiring only a single 32-bit
word each."  This writer reproduces that design:

* each instruction first tries a packed one-word form —
  ``[opcode:6][type:8][opA:9][opB:9]`` — usable whenever the type index
  and the (at most two) operand ids fit their fields;
* otherwise it falls back on an escape form of 64 bits or larger (an
  escape word, a header word, then one varint per operand).  As in the
  paper,
  "large programs are encoded less efficiently than smaller ones
  because they have a larger set of register values available at any
  point, making it harder to fit instructions into a 32-bit encoding",
  and "though it would be possible to make the fall back case more
  efficient, we have not attempted to do so".

Sections: magic, type table, global variables (with initializers),
function headers, function bodies (constant pool + blocks +
instructions + a sparse source-location table since version 2), and an
optional symbol table of local value names (omitted when
``strip_names`` — the configuration used for size measurements, like a
stripped native executable).

The writer is deterministic: two calls over the same module — or over
two modules built by identical compilations — produce byte-identical
output, which is what lets the incremental driver use bytecode as a
content-addressed cache artifact (see :mod:`repro.driver.cache`).
"""

from __future__ import annotations

from typing import Optional

from ..core import types
from ..core.basicblock import BasicBlock
from ..core.instructions import Instruction, Opcode
from ..core.module import Function, GlobalVariable, Linkage, Module
from ..core.values import (
    Argument, Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue, Value,
)
from .stream import Writer

MAGIC = b"llvm"
#: Version 2 added the per-body source-location section; version-1
#: bytecode (no locations) is still readable.
VERSION = 2
OLDEST_READABLE_VERSION = 1

_OPCODE_INDEX = {op: i for i, op in enumerate(Opcode)}
_LINKAGE_INDEX = {Linkage.EXTERNAL: 0, Linkage.INTERNAL: 1, Linkage.APPENDING: 2}

# Type table kind tags.
_TY_PRIMITIVE = 0    # payload: primitive index
_TY_POINTER = 1      # payload: pointee type index
_TY_ARRAY = 2        # payload: element type index, count
_TY_STRUCT = 3       # payload: field count, field type indices
_TY_NAMED = 4        # payload: name, opaque flag, fields
_TY_FUNCTION = 5     # payload: return, param count, params, vararg

_PRIMITIVE_ORDER = [
    types.VOID, types.BOOL, types.SBYTE, types.UBYTE, types.SHORT,
    types.USHORT, types.INT, types.UINT, types.LONG, types.ULONG,
    types.FLOAT, types.DOUBLE, types.LABEL,
]

# Constant pool entry tags.
_CONST_INT = 0
_CONST_FP = 1
_CONST_BOOL = 2
_CONST_NULL = 3
_CONST_UNDEF = 4
_CONST_ZERO = 5
_CONST_STRING = 6
_CONST_ARRAY = 7
_CONST_STRUCT = 8
_CONST_EXPR_CAST = 9
_CONST_EXPR_GEP = 10
_CONST_SYMBOL = 11   # reference to a module-level symbol by index


class _TypeTable:
    def __init__(self):
        self.index: dict[int, int] = {}
        self.entries: list[types.Type] = []

    def id_of(self, ty: types.Type) -> int:
        existing = self.index.get(id(ty))
        if existing is not None:
            return existing
        # Reserve the slot first so recursive named structs terminate.
        slot = len(self.entries)
        self.index[id(ty)] = slot
        self.entries.append(ty)
        if ty.is_pointer:
            self.id_of(ty.pointee)
        elif ty.is_array:
            self.id_of(ty.element)
        elif ty.is_struct and not ty.is_opaque:
            for field in ty.fields:
                self.id_of(field)
        elif ty.is_function:
            self.id_of(ty.return_type)
            for param in ty.params:
                self.id_of(param)
        return slot


class BytecodeWriter:
    def __init__(self, strip_names: bool = True, version: int = VERSION):
        if not OLDEST_READABLE_VERSION <= version <= VERSION:
            raise ValueError(f"cannot write bytecode version {version}")
        self.strip_names = strip_names
        self.version = version
        #: Encoding census: how many instructions fit the packed single
        #: 32-bit word vs needing the escape form (the paper's
        #: "most instructions requiring only a single 32-bit word").
        self.packed_count = 0
        self.escaped_count = 0

    def write(self, module: Module) -> bytes:
        out = Writer()
        out._chunks += MAGIC
        out.u8(self.version)
        out.string(module.name)

        type_table = _TypeTable()
        symbol_ids: dict[int, int] = {}
        symbols = list(module.globals.values()) + list(module.functions.values())
        for index, symbol in enumerate(symbols):
            symbol_ids[id(symbol)] = index
            type_table.id_of(symbol.type.pointee)

        # Pre-encode payloads so the type table is complete before the
        # header sections (which embed type indices) are emitted.
        initializer_sections: list[bytes] = []
        for global_var in module.globals.values():
            if global_var.initializer is not None:
                section = Writer()
                self._encode_constant(section, global_var.initializer,
                                      type_table, symbol_ids)
                initializer_sections.append(section.getvalue())
        function_bodies: list[Optional[bytes]] = []
        for function in module.functions.values():
            if function.is_declaration:
                function_bodies.append(None)
            else:
                function_bodies.append(
                    self._encode_body(function, type_table, symbol_ids)
                )

        self._emit_type_table(out, type_table)

        # Section: global headers.
        out.uleb(len(module.globals))
        for global_var in module.globals.values():
            out.string(global_var.name)
            out.uleb(type_table.index[id(global_var.value_type)])
            flags = _LINKAGE_INDEX[global_var.linkage]
            if global_var.is_constant:
                flags |= 0x80
            if global_var.initializer is not None:
                flags |= 0x40
            out.u8(flags)
        # Section: function headers.
        out.uleb(len(module.functions))
        for function in module.functions.values():
            out.string(function.name)
            out.uleb(type_table.index[id(function.function_type)])
            flags = _LINKAGE_INDEX[function.linkage]
            if function.is_pure:
                flags |= 0x80
            if not self.strip_names:
                flags |= 0x40
            out.u8(flags)
            if not self.strip_names:
                for arg in function.args:
                    out.string(arg.name)
        # Section: global initializers (in global order).
        for section in initializer_sections:
            out._chunks += section
        # Section: function bodies (in function order; 0 = declaration).
        for body in function_bodies:
            if body is None:
                out.uleb(0)
            else:
                out.uleb(len(body) + 1)
                out._chunks += body
        return out.getvalue()

    # -- type table ----------------------------------------------------------

    def _emit_type_table(self, out: Writer, table: _TypeTable) -> None:
        out.uleb(len(table.entries))
        # Pass 1: headers (so named structs exist before bodies).
        for ty in table.entries:
            if ty.is_struct and ty.name is not None:
                out.u8(_TY_NAMED)
                out.string(ty.name)
            elif ty.is_struct:
                out.u8(_TY_STRUCT)
            elif ty.is_pointer:
                out.u8(_TY_POINTER)
            elif ty.is_array:
                out.u8(_TY_ARRAY)
            elif ty.is_function:
                out.u8(_TY_FUNCTION)
            else:
                out.u8(_TY_PRIMITIVE)
                out.uleb(_PRIMITIVE_ORDER.index(ty))
        # Pass 2: payloads referencing type ids.
        for ty in table.entries:
            if ty.is_pointer:
                out.uleb(table.index[id(ty.pointee)])
            elif ty.is_array:
                out.uleb(table.index[id(ty.element)])
                out.uleb(ty.count)
            elif ty.is_struct:
                if ty.is_opaque:
                    out.u8(0)
                else:
                    out.u8(1)
                    out.uleb(len(ty.fields))
                    for field in ty.fields:
                        out.uleb(table.index[id(field)])
            elif ty.is_function:
                out.uleb(table.index[id(ty.return_type)])
                out.uleb(len(ty.params))
                for param in ty.params:
                    out.uleb(table.index[id(param)])
                out.u8(1 if ty.is_vararg else 0)

    # -- constants --------------------------------------------------------------

    def _encode_constant(self, out: Writer, constant: Constant,
                         table: _TypeTable, symbol_ids: dict[int, int]) -> None:
        """Self-delimiting recursive constant encoding."""
        if isinstance(constant, (Function, GlobalVariable)):
            out.u8(_CONST_SYMBOL)
            out.uleb(symbol_ids[id(constant)])
            return
        if isinstance(constant, ConstantInt):
            out.u8(_CONST_INT)
            out.uleb(table.id_of(constant.type))
            out.sleb(constant.value)
            return
        if isinstance(constant, ConstantFP):
            out.u8(_CONST_FP)
            out.uleb(table.id_of(constant.type))
            if constant.type.bits == 32:  # type: ignore[attr-defined]
                out.f32(constant.value)
            else:
                out.f64(constant.value)
            return
        if isinstance(constant, ConstantBool):
            out.u8(_CONST_BOOL)
            out.u8(1 if constant.value else 0)
            return
        if isinstance(constant, ConstantPointerNull):
            out.u8(_CONST_NULL)
            out.uleb(table.id_of(constant.type))
            return
        if isinstance(constant, UndefValue):
            out.u8(_CONST_UNDEF)
            out.uleb(table.id_of(constant.type))
            return
        if isinstance(constant, ConstantAggregateZero):
            out.u8(_CONST_ZERO)
            out.uleb(table.id_of(constant.type))
            return
        if isinstance(constant, ConstantString):
            out.u8(_CONST_STRING)
            out.raw(constant.data)
            return
        if isinstance(constant, ConstantArray):
            out.u8(_CONST_ARRAY)
            out.uleb(table.id_of(constant.type))
            for element in constant.elements:
                self._encode_constant(out, element, table, symbol_ids)
            return
        if isinstance(constant, ConstantStruct):
            out.u8(_CONST_STRUCT)
            out.uleb(table.id_of(constant.type))
            for field in constant.fields_values:
                self._encode_constant(out, field, table, symbol_ids)
            return
        if isinstance(constant, ConstantExpr):
            out.u8(_CONST_EXPR_CAST if constant.opcode == "cast" else _CONST_EXPR_GEP)
            out.uleb(table.id_of(constant.type))
            out.uleb(len(constant.operands))
            for operand in constant.operands:
                self._encode_constant(out, operand, table, symbol_ids)
            return
        raise TypeError(f"cannot encode constant {constant!r}")

    # -- function bodies ------------------------------------------------------------

    def _encode_body(self, function: Function, table: _TypeTable,
                     symbol_ids: dict[int, int]) -> bytes:
        out = Writer()
        # Value numbering: module symbols, constant pool, args, instructions.
        base = len(symbol_ids)
        pool: list[Constant] = []
        pool_ids: dict[int, int] = {}

        def pool_id(constant: Constant) -> int:
            existing = pool_ids.get(id(constant))
            if existing is None:
                existing = base + len(pool)
                pool_ids[id(constant)] = existing
                pool.append(constant)
            return existing

        # Collect pooled constants in a deterministic order.
        for inst in function.instructions():
            for operand in inst.operands:
                if isinstance(operand, (Function, GlobalVariable)):
                    continue
                if isinstance(operand, Constant):
                    pool_id(operand)

        value_ids: dict[int, int] = {}
        cursor = base + len(pool)
        for arg in function.args:
            value_ids[id(arg)] = cursor
            cursor += 1
        block_ids: dict[int, int] = {}
        for block_number, block in enumerate(function.blocks):
            block_ids[id(block)] = block_number
            for inst in block.instructions:
                if not inst.type.is_void:
                    value_ids[id(inst)] = cursor
                    cursor += 1

        def operand_id(value: Value) -> int:
            if isinstance(value, BasicBlock):
                return block_ids[id(value)]
            if isinstance(value, (Function, GlobalVariable)):
                return symbol_ids[id(value)]
            if isinstance(value, (Instruction, Argument)):
                return value_ids[id(value)]
            return pool_ids[id(value)]

        # Constant pool section.
        out.uleb(len(pool))
        for constant in pool:
            self._encode_constant(out, constant, table, symbol_ids)

        # Blocks and instructions.
        out.uleb(len(function.blocks))
        for block in function.blocks:
            out.uleb(len(block.instructions))
            for inst in block.instructions:
                self._encode_instruction(out, inst, table, operand_id)

        # Source-location section (version >= 2): sparse records of
        # (instruction ordinal in layout order, line), so instructions
        # without a location cost nothing.
        if self.version >= 2:
            located: list[tuple[int, int]] = []
            ordinal = 0
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.loc is not None:
                        located.append((ordinal, inst.loc))
                    ordinal += 1
            out.uleb(len(located))
            for ordinal, line in located:
                out.uleb(ordinal)
                out.uleb(line)

        # Symbol table of local names (optional, like -g vs stripped).
        if self.strip_names:
            out.uleb(0)
        else:
            named: list[tuple[int, str, int]] = []  # (kind, name, id)
            for arg in function.args:
                if arg.name:
                    named.append((0, arg.name, value_ids[id(arg)]))
            for block in function.blocks:
                if block.name:
                    named.append((1, block.name, block_ids[id(block)]))
                for inst in block.instructions:
                    if inst.name and not inst.type.is_void:
                        named.append((0, inst.name, value_ids[id(inst)]))
            out.uleb(len(named))
            for kind, name, value_id in named:
                out.u8(kind)
                out.string(name)
                out.uleb(value_id)
        return out.getvalue()

    def _encode_instruction(self, out: Writer, inst: Instruction,
                            table: _TypeTable, operand_id) -> None:
        opcode_number = _OPCODE_INDEX[inst.opcode] + 1  # 0 = escape

        # The "type" field is the carried type (the result type; the
        # allocated type for alloca/malloc): what the reader's record
        # needs to type a use that precedes its definition, and to
        # rebuild the instruction with ``build``.
        type_id = table.id_of(inst.carried_type)

        operands = [operand_id(op) for op in inst.operands]
        if (len(operands) <= 2 and type_id < 0xFF
                and all(op < 0x1FF for op in operands)):
            # Packed single 32-bit word:
            # [opcode:6][type:8][opA:9][opB:9] (operand+1; 0 = absent).
            a = operands[0] + 1 if len(operands) >= 1 else 0
            b = operands[1] + 1 if len(operands) >= 2 else 0
            word = (opcode_number << 26) | (type_id << 18) | (a << 9) | b
            out.u32(word)
            self.packed_count += 1
            return
        # Escape form, 64 bits or larger: a second header word carrying
        # [opcode:6][type:14][count:12], then one uleb per operand.
        out.u32(0)
        if type_id >= (1 << 14) or len(operands) >= (1 << 12):
            raise ValueError("module too large for the bytecode format")
        out.u32((opcode_number << 26) | (type_id << 12) | len(operands))
        for op in operands:
            out.uleb(op)
        self.escaped_count += 1


def write_bytecode(module: Module, strip_names: bool = True) -> bytes:
    """Serialize a module to the binary bytecode format."""
    return BytecodeWriter(strip_names).write(module)
