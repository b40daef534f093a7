"""Bytecode reader: decodes the binary representation back to IR.

A function body decodes to a :class:`repro.core.record.FunctionRecord`
— its instruction words, its source-location section and its name table
— and is built by :func:`repro.core.record.rebuild_body`, the builder
the pass manager's rollback and every clone use too.  The file numbers
a body as the record does (see :mod:`repro.bitcode.writer`): an id
past the symbols and the constant pool is a record position, and so is
a name-table entry, so nothing is translated, and a use that precedes
its definition is resolved by the builder.

Only :data:`~repro.bitcode.writer.VERSION` is read.  Before a body is
built, each operand is checked against ``_LABELS``: a label must name
a block, and any other operand a value — a constant, an argument or a
value-producing instruction.  A branch to an argument, a ``ret`` of a
block or a position past the body is a :class:`BytecodeError`, not IR
left for the verifier to reject.
"""

from __future__ import annotations

from typing import Optional

from ..core import types
from ..core.instructions import Opcode
from ..core.module import Function, Linkage, Module
from ..core.record import FunctionRecord, rebuild_body
from ..core.values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue,
)
from .errors import BytecodeError
from .stream import Reader
from .writer import (
    MAGIC, VERSION, _CONST_ARRAY, _CONST_BOOL, _CONST_EXPR_CAST,
    _CONST_EXPR_GEP, _CONST_FP, _CONST_INT, _CONST_NULL, _CONST_STRING,
    _CONST_STRUCT, _CONST_SYMBOL, _CONST_UNDEF, _CONST_ZERO,
    _PRIMITIVE_ORDER, _TY_ARRAY, _TY_FUNCTION, _TY_NAMED, _TY_POINTER,
    _TY_PRIMITIVE, _TY_STRUCT,
)

_OPCODES = list(Opcode)
_ALLOCATIONS = (Opcode.MALLOC, Opcode.ALLOCA)
_LINKAGES = [Linkage.EXTERNAL, Linkage.INTERNAL, Linkage.APPENDING]

#: The operand positions that are labels, and so must name a block: the
#: targets of ``br``/``invoke`` (the last one or two operands) and the
#: odd positions of ``switch`` (default, case targets) and ``phi``.
_LABELS = {
    Opcode.BR: lambda position, count: position >= count - 2,
    Opcode.INVOKE: lambda position, count: position >= count - 2,
    Opcode.SWITCH: lambda position, count: position % 2 == 1,
    Opcode.PHI: lambda position, count: position % 2 == 1,
}


def read_bytecode(data: bytes) -> Module:
    """Deserialize bytecode produced by :func:`write_bytecode`."""
    return _Decoder(data).decode()


def read_bytecode_lazy(data: bytes) -> tuple[Module, "_Decoder"]:
    """Deserialize headers only; function bodies decode on demand.

    Returns the module (all functions present as declarations-with-
    pending-bodies) and the decoder, whose :meth:`_Decoder.materialize`
    decodes one function's body — the mechanism behind the paper's
    function-at-a-time JIT (section 3.4).
    """
    decoder = _Decoder(data)
    module = decoder.decode(lazy=True)
    return module, decoder


class _Decoder:
    def __init__(self, data: bytes):
        self.reader = Reader(data)
        self.types: list[types.Type] = []
        self.symbols: list = []
        self.module: Optional[Module] = None
        #: The part of the format currently being decoded, for error
        #: reports (see :class:`BytecodeError`).
        self.section = "header"
        #: function name -> byte offsets of its (not yet decoded) body:
        #: where it starts and where its length says it ends.
        self.pending_bodies: dict[str, tuple[int, int]] = {}

    def _guard(self, work):
        """Run one decoding step under the robustness contract: only
        :class:`BytecodeError` may escape.  Any other exception —
        ``IndexError`` from a forged table index, ``KeyError``,
        ``RecursionError`` from a constant cycle, an arity error from a
        mis-built instruction — is corruption observed late, and is
        re-raised as a :class:`BytecodeError` stamped with the current
        byte offset and section."""
        try:
            return work()
        except BytecodeError as error:
            if error.section is None:
                error.section = self.section
            if error.offset is None:
                error.offset = self.reader.position
            raise
        except Exception as error:
            raise BytecodeError(
                f"{type(error).__name__}: {error}",
                offset=self.reader.position, section=self.section,
            ) from error

    def decode(self, lazy: bool = False) -> Module:
        return self._guard(lambda: self._decode(lazy))

    def _decode(self, lazy: bool = False) -> Module:
        reader = self.reader
        self.section = "header"
        if reader.data[:4] != MAGIC:
            raise BytecodeError("bad magic", offset=0)
        reader.position = 4
        version = reader.u8()
        if version != VERSION:
            raise BytecodeError(f"unsupported bytecode version {version}",
                                offset=4)
        self.module = Module(reader.string())
        self.section = "type-table"
        self._read_type_table()

        self.section = "globals"
        global_count = reader.count()
        has_initializer: list[bool] = []
        for _ in range(global_count):
            name = reader.string()
            value_type = self.types[reader.uleb()]
            flags = reader.u8()
            global_var = self.module.new_global(
                value_type, name, None, _LINKAGES[flags & 0x3F],
                bool(flags & 0x80),
            )
            has_initializer.append(bool(flags & 0x40))
            self.symbols.append(global_var)
        self.section = "functions"
        function_count = reader.count()
        functions: list[Function] = []
        for _ in range(function_count):
            name = reader.string()
            fn_type = self.types[reader.uleb()]
            flags = reader.u8()
            function = self.module.new_function(fn_type, name,
                                                _LINKAGES[flags & 0x3F])
            function.is_pure = bool(flags & 0x80)
            if flags & 0x40:
                for arg in function.args:
                    arg.name = reader.string()
            functions.append(function)
            self.symbols.append(function)
        self.section = "global-initializers"
        for global_var, with_init in zip(self.module.globals.values(),
                                         has_initializer):
            if with_init:
                global_var.set_initializer(self._read_constant())
        for function in functions:
            self.section = f"body:{function.name}"
            body_length = reader.uleb()
            if not body_length:
                continue
            end = reader.position + body_length - 1
            if lazy:
                self.pending_bodies[function.name] = (reader.position, end)
                reader.position = end
            else:
                self._read_body(function, end)
        if reader.position != len(reader.data):
            raise BytecodeError(f"the last body ends at {reader.position}, "
                                f"the data at {len(reader.data)}")
        return self.module

    def materialize(self, function: Function) -> bool:
        """Decode one pending function body; False if already decoded
        (or a true declaration)."""
        span = self.pending_bodies.pop(function.name, None)
        if span is None:
            return False
        saved = self.reader.position
        self.reader.position = span[0]
        self.section = f"body:{function.name}"
        try:
            self._guard(lambda: self._read_body(function, span[1]))
        finally:
            self.reader.position = saved
        return True

    # -- type table ----------------------------------------------------------

    def _read_type_table(self) -> None:
        reader = self.reader
        count = reader.count()
        kinds: list[int] = []
        for _ in range(count):
            kind = reader.u8()
            kinds.append(kind)
            if kind == _TY_PRIMITIVE:
                self.types.append(_PRIMITIVE_ORDER[reader.uleb()])
            elif kind == _TY_NAMED:
                name = reader.string()
                named = self.module.named_types.get(name)
                if named is None:
                    named = types.named_struct(name)
                    self.module.add_named_type(named)
                self.types.append(named)
            else:
                self.types.append(None)  # type: ignore[arg-type]
        # Payload pass.  Compound types may reference any index; named
        # structs already exist, and anonymous compounds are resolved
        # recursively on demand.
        payloads: list[Optional[tuple]] = [None] * count
        for index, kind in enumerate(kinds):
            if kind == _TY_POINTER:
                payloads[index] = ("ptr", reader.uleb())
            elif kind == _TY_ARRAY:
                element = reader.uleb()
                length = reader.uleb()
                payloads[index] = ("arr", element, length)
            elif kind in (_TY_STRUCT, _TY_NAMED):
                if kind == _TY_NAMED:
                    opaque = reader.u8() == 0
                    if opaque:
                        payloads[index] = ("named", None)
                        continue
                    field_count = reader.count()
                    payloads[index] = (
                        "named", [reader.uleb() for _ in range(field_count)]
                    )
                else:
                    marker = reader.u8()
                    if marker != 1:
                        raise BytecodeError("anonymous struct marked opaque")
                    field_count = reader.count()
                    payloads[index] = (
                        "struct", [reader.uleb() for _ in range(field_count)]
                    )
            elif kind == _TY_FUNCTION:
                return_index = reader.uleb()
                param_count = reader.count()
                params = [reader.uleb() for _ in range(param_count)]
                vararg = reader.u8() == 1
                payloads[index] = ("fn", return_index, params, vararg)

        resolving: set[int] = set()

        def resolve(index: int) -> types.Type:
            if self.types[index] is not None:
                return self.types[index]
            if index in resolving:
                raise BytecodeError("type table cycle through anonymous types")
            resolving.add(index)
            payload = payloads[index]
            if payload[0] == "ptr":
                result = types.pointer(resolve(payload[1]))
            elif payload[0] == "arr":
                result = types.array(resolve(payload[1]), payload[2])
            elif payload[0] == "struct":
                result = types.struct(resolve(f) for f in payload[1])
            elif payload[0] == "fn":
                result = types.function(
                    resolve(payload[1]), [resolve(p) for p in payload[2]],
                    payload[3],
                )
            else:  # pragma: no cover - named handled below
                raise BytecodeError("unresolvable type entry")
            resolving.discard(index)
            self.types[index] = result
            return result

        for index in range(count):
            if self.types[index] is None:
                resolve(index)
        # Named struct bodies last (they may reference anything).
        for index, kind in enumerate(kinds):
            if kind == _TY_NAMED:
                payload = payloads[index]
                struct_ty = self.types[index]
                if payload[1] is not None and struct_ty.is_opaque:
                    struct_ty.set_body([self.types[f] for f in payload[1]])

    # -- constants --------------------------------------------------------------

    def _read_constant(self) -> Constant:
        reader = self.reader
        tag = reader.u8()
        if tag == _CONST_SYMBOL:
            return self.symbols[reader.uleb()]
        if tag == _CONST_INT:
            ty = self.types[reader.uleb()]
            return ConstantInt(ty, reader.sleb())  # type: ignore[arg-type]
        if tag == _CONST_FP:
            ty = self.types[reader.uleb()]
            value = reader.f32() if ty.bits == 32 else reader.f64()  # type: ignore[attr-defined]
            return ConstantFP(ty, value)  # type: ignore[arg-type]
        if tag == _CONST_BOOL:
            return ConstantBool(reader.u8() == 1)
        if tag == _CONST_NULL:
            return ConstantPointerNull(self.types[reader.uleb()])  # type: ignore[arg-type]
        if tag == _CONST_UNDEF:
            return UndefValue(self.types[reader.uleb()])
        if tag == _CONST_ZERO:
            return ConstantAggregateZero(self.types[reader.uleb()])
        if tag == _CONST_STRING:
            return ConstantString(reader.raw())
        if tag == _CONST_ARRAY:
            ty = self.types[reader.uleb()]
            elements = [self._read_constant() for _ in range(ty.count)]  # type: ignore[attr-defined]
            return ConstantArray(ty, elements)  # type: ignore[arg-type]
        if tag == _CONST_STRUCT:
            ty = self.types[reader.uleb()]
            fields = [self._read_constant() for _ in range(len(ty.fields))]  # type: ignore[attr-defined]
            return ConstantStruct(ty, fields)  # type: ignore[arg-type]
        if tag in (_CONST_EXPR_CAST, _CONST_EXPR_GEP):
            ty = self.types[reader.uleb()]
            count = reader.uleb()
            operands = [self._read_constant() for _ in range(count)]
            opcode = "cast" if tag == _CONST_EXPR_CAST else "getelementptr"
            return ConstantExpr(opcode, ty, operands)
        raise BytecodeError(f"bad constant tag {tag}")

    # -- function bodies ------------------------------------------------------------

    def _read_body(self, function: Function, end: int) -> None:
        """Decode one body, which must end at byte ``end``, into a
        :class:`FunctionRecord` — words, then the loc section, then the
        name table — and build it with :func:`rebuild_body`."""
        reader = self.reader
        # Ids below ``local`` are the module's symbols and the body's
        # constant pool; id ``local + p`` is record position ``p``.
        constants = self.symbols + [self._read_constant()
                                    for _ in range(reader.count())]
        local = len(constants)
        arg_count = len(function.args)
        block_count = reader.count()
        first = arg_count + block_count
        layout: list[list] = []
        blocks: list[list] = []
        for _ in range(block_count):
            start = len(layout)
            for _ in range(reader.count()):
                word = reader.u32()
                opcode_number = word >> 26
                if opcode_number:
                    type_id = (word >> 18) & 0xFF
                    # Operands A and B are stored plus one; 0 = absent.
                    ids = [field - 1 for field in
                           ((word >> 9) & 0x1FF, word & 0x1FF) if field]
                else:
                    header = reader.u32()
                    opcode_number = header >> 26
                    type_id = (header >> 12) & 0x3FFF
                    count = header & 0xFFF
                    ids = [reader.uleb() for _ in range(count)]
                if not opcode_number or opcode_number > len(_OPCODES):
                    raise BytecodeError(
                        f"bad opcode number {opcode_number}",
                        offset=reader.position)
                opcode = _OPCODES[opcode_number - 1]
                carried = self.types[type_id]
                result_type = (types.pointer(carried)
                               if opcode in _ALLOCATIONS else carried)
                layout.append([opcode, carried, result_type,
                               [constants[i] if i < local else i - local
                                for i in ids], "", None])
            blocks.append(layout[start:])

        def kind(op) -> str:
            """What a record operand names: a block, a value (a constant,
            an argument or a value-producing instruction), or nothing."""
            if type(op) is not int or op < arg_count:
                return "value"
            if op < first:
                return "block"
            if op < first + len(layout) and not layout[op - first][2].is_void:
                return "value"
            return "nothing"

        # A label must name a block, and every other operand a value.
        for opcode, _, _, operands, _, _ in layout:
            is_label = _LABELS.get(opcode)
            for index, op in enumerate(operands):
                want = ("block" if is_label is not None
                        and is_label(index, len(operands)) else "value")
                if kind(op) != want:
                    raise BytecodeError(f"operand {index} of "
                                        f"{opcode.value} names no {want}")

        # Source-location section.
        for _ in range(reader.count()):
            ordinal = reader.uleb()
            line = reader.uleb()
            if ordinal >= len(layout):
                raise BytecodeError("loc record past end of function")
            layout[ordinal][5] = line

        # Optional name table: (record position, name) per named block
        # and value-producing instruction.
        block_names = [""] * block_count
        for _ in range(reader.count()):
            position = reader.uleb()
            name = reader.string()
            if position < arg_count or kind(position) == "nothing":
                raise BytecodeError(f"name {name!r} for position "
                                    f"{position}")
            if position < first:
                block_names[position - arg_count] = name
            else:
                layout[position - first][4] = name
        if reader.position != end:
            raise BytecodeError(f"body ends at {reader.position}, its "
                                f"length says {end}")
        arg_names = tuple(arg.name for arg in function.args)
        rebuild_body(FunctionRecord(0, arg_names,
                                    tuple(zip(block_names, blocks))),
                     function)
