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

Sections: magic, version, module name, type table, global headers,
function headers (with the argument names unless ``strip_names``),
global initializers, then one body per defined function.  A body is
its :class:`repro.core.record.FunctionRecord`: a constant pool, the
blocks of instruction words, a sparse source-location section, and a
name table (empty when ``strip_names`` — the configuration used for
size measurements, like a stripped native executable).

One numbering: in a body, operand ids run over the module's symbols
``[0, S)`` (globals, then functions), the body's constant pool
``[S, S+P)``, then ``S+P+p`` for the local at record position ``p`` —
arguments, then blocks, then every instruction in layout order, void
ones included.  A block operand is an ordinary position.  The pool
holds one entry per encoding: it is keyed by the bytes
``_encode_constant`` writes, so equal constants share one entry, a
``ConstantFP`` is told apart by its f32/f64 bits (``0.0`` and ``-0.0``,
two NaN payloads), and aggregates and constant expressions by their
full encoding.  The name table holds ``(record position, name)`` per
named block and value-producing instruction.

The writer is deterministic: two calls over the same module — or over
two modules built by identical compilations — produce byte-identical
output, which is what lets the incremental driver use bytecode as a
content-addressed cache artifact (see :mod:`repro.driver.cache`).
"""

from __future__ import annotations

from typing import Optional

from ..core import types
from ..core.instructions import Opcode
from ..core.module import Function, GlobalVariable, Linkage, Module
from ..core.record import snapshot_function
from ..core.values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue,
)
from .stream import Writer

MAGIC = b"llvm"
#: The format version, and the only one the reader reads.
VERSION = 3

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
    def __init__(self, strip_names: bool = True):
        self.strip_names = strip_names
        #: Encoding census: how many instructions fit the packed single
        #: 32-bit word vs needing the escape form (the paper's
        #: "most instructions requiring only a single 32-bit word").
        self.packed_count = 0
        self.escaped_count = 0

    def write(self, module: Module) -> bytes:
        out = Writer()
        out._chunks += MAGIC
        out.u8(VERSION)
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
        """The function's :class:`FunctionRecord`: constant pool, blocks
        of instruction words, loc section, name table."""
        out = Writer()
        record = snapshot_function(function)
        insts = [inst for _, block in record.blocks for inst in block]
        pool: dict[bytes, int] = {}
        entry = Writer()

        def constant_id(constant: Constant) -> int:
            symbol = symbol_ids.get(id(constant))
            if symbol is not None:
                return symbol
            entry._chunks.clear()
            self._encode_constant(entry, constant, table, symbol_ids)
            return pool.setdefault(bytes(entry._chunks),
                                   len(symbol_ids) + len(pool))

        # A local operand is kept as ``~position`` until the pool is
        # complete and the first local id, ``S + P``, is known.
        operand_lists = [[~op if type(op) is int else constant_id(op)
                          for op in inst[3]] for inst in insts]
        local = len(symbol_ids) + len(pool)
        out.uleb(len(pool))
        for entry in pool:
            out._chunks += entry

        operands = iter(operand_lists)
        out.uleb(len(record.blocks))
        for _, block in record.blocks:
            out.uleb(len(block))
            for opcode, carried, *_ in block:
                self._encode_instruction(
                    out, opcode, table.id_of(carried),
                    [local + ~op if op < 0 else op
                     for op in next(operands)])

        # Source-location section: sparse records of (instruction
        # ordinal in layout order, line), so instructions without a
        # location cost nothing.
        located = [(ordinal, inst[5]) for ordinal, inst in enumerate(insts)
                   if inst[5] is not None]
        out.uleb(len(located))
        for ordinal, line in located:
            out.uleb(ordinal)
            out.uleb(line)

        # Name table (optional, like -g vs stripped): (record position,
        # name) per named block and value-producing instruction; the
        # argument names are in the function header.
        if self.strip_names:
            out.uleb(0)
            return out.getvalue()
        first = len(record.args) + len(record.blocks)
        named = [(len(record.args) + index, name)
                 for index, (name, _) in enumerate(record.blocks) if name]
        named += [(first + ordinal, inst[4])
                  for ordinal, inst in enumerate(insts)
                  if inst[4] and not inst[2].is_void]
        out.uleb(len(named))
        for position, name in named:
            out.uleb(position)
            out.string(name)
        return out.getvalue()

    def _encode_instruction(self, out: Writer, opcode: Opcode, type_id: int,
                            operands: list[int]) -> None:
        # The type id is the carried type's (the result type; the
        # allocated type for alloca/malloc): what the reader's record
        # needs to type a use that precedes its definition, and to
        # rebuild the instruction with ``build``.
        opcode_number = _OPCODE_INDEX[opcode] + 1  # 0 = escape
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
