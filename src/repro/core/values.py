"""Values, uses, and constants: the SSA dataflow substrate.

Everything computed or referenced by the IR is a :class:`Value` with a
type.  Values that reference other values (instructions, constant
expressions, global initializers) are :class:`User`\\ s; every operand
slot is tracked by a :class:`Use`, giving the explicit def-use graph the
paper relies on ("SSA form provides a compact def-use graph that
simplifies many dataflow optimizations").
"""

from __future__ import annotations

import struct as _struct
from typing import Iterator, Optional, Sequence

from . import types
from .types import Type


class Use:
    """One operand slot of a user: the edge ``user.operands[index] -> value``.

    ``position`` is the back-link into ``value.uses`` that makes unlink
    O(1): removal swaps the last use into this slot instead of scanning
    (and shifting) the list, so ``replace_all_uses_with`` and
    ``drop_all_references`` stay O(uses) even on high-fanout values.
    The position is maintained exclusively by :class:`User`; nothing
    else may mutate a use list.
    """

    __slots__ = ("user", "index", "position")

    def __init__(self, user: "User", index: int):
        self.user = user
        self.index = index
        self.position = -1  # set when registered on a value's use list

    @property
    def value(self) -> "Value":
        return self.user.operands[self.index]


class Value:
    """Base of the IR value hierarchy: a typed, optionally named entity."""

    __slots__ = ("type", "name", "uses", "__weakref__")

    def __init__(self, ty: Type, name: str = ""):
        self.type = ty
        _set_name(self, name)  # a value under construction moves nothing
        #: Uses of this value, maintained by :class:`User`.
        self.uses: list[Use] = []

    # -- use-list queries ---------------------------------------------------

    @property
    def is_used(self) -> bool:
        return bool(self.uses)

    def users(self) -> Iterator["User"]:
        """Iterate the users of this value (a user may appear repeatedly)."""
        for use in self.uses:
            yield use.user

    def replace_all_uses_with(self, new: "Value") -> None:
        """Rewrite every use of ``self`` to refer to ``new`` instead."""
        if new is self:
            raise ValueError("cannot replace a value with itself")
        for use in list(self.uses):
            use.user.set_operand(use.index, new)

    # -- presentation ---------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "<unnamed>"
        return f"<{type(self).__name__} {self.type} {label}>"


_set_name = Value.name.__set__


def _rename(value, name: str) -> None:
    _set_name(value, name)
    value._moved()


#: ``name`` of a value local to a function (an instruction, an argument,
#: a block): reads are slot reads, and a rename moves the epoch.
LOCAL_NAME = property(Value.name.__get__, _rename)


class BodyList(list):
    """A function's block list or a block's instruction list.  Every
    edit calls ``owner._moved()``, which moves the containing function's
    epoch, so no caller can change a body behind it; reads are list
    reads."""

    __slots__ = ("owner",)

    def __init__(self, owner):
        self.owner = owner


def _tracked(edit):
    def tracked(self, *args, **kwargs):
        result = edit(self, *args, **kwargs)
        self.owner._moved()
        return result
    return tracked


for _edit in ("append", "insert", "remove", "pop", "clear", "extend",
              "sort", "reverse", "__setitem__", "__delitem__", "__iadd__",
              "__imul__"):
    setattr(BodyList, _edit, _tracked(getattr(list, _edit)))


class User(Value):
    """A value that references other values through operand slots.

    ``operand_uses`` mirrors ``operands`` slot for slot, holding the
    :class:`Use` edge registered on each operand's use list; it is what
    lets :meth:`_unlink_use` find the edge without scanning.

    Every operand edit after construction goes through
    :meth:`_append_operand`, :meth:`_pop_operands`, :meth:`set_operand`
    or :meth:`drop_all_references`, and each calls :meth:`_moved` — how
    an instruction bumps its function's mutation epoch
    (:attr:`repro.core.module.Function.epoch`).
    """

    __slots__ = ("operands", "operand_uses")

    def __init__(self, ty: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(ty, name)
        self.operands: list[Value] = []
        self.operand_uses: list[Use] = []
        for operand in operands:
            self._link(operand)

    def _moved(self) -> None:
        """This user's operands changed.  A constant belongs to no
        function, so nothing happens; an instruction overrides this."""

    def _link(self, value: Value) -> None:
        use = Use(self, len(self.operands))
        self.operands.append(value)
        self.operand_uses.append(use)
        use.position = len(value.uses)
        value.uses.append(use)

    def _append_operand(self, value: Value) -> None:
        self._link(value)
        self._moved()

    def _pop_operands(self, start: int) -> None:
        """Drop operand slots from ``start`` to the end."""
        while len(self.operands) > start:
            index = len(self.operands) - 1
            self._unlink_use(index)
            self.operands.pop()
            self.operand_uses.pop()
        self._moved()

    def _unlink_use(self, index: int) -> None:
        """Unregister the use of operand ``index``: O(1) swap-remove.

        The last use on the list moves into the vacated position (and
        has its back-link patched), so no scan and no shifting happen
        regardless of where on a high-fanout use list this edge sits.
        """
        old = self.operands[index]
        use = self.operand_uses[index]
        last = old.uses[-1]
        old.uses[use.position] = last
        last.position = use.position
        old.uses.pop()
        use.position = -1

    def set_operand(self, index: int, value: Value) -> None:
        """Replace operand ``index``, keeping use-lists consistent."""
        self._unlink_use(index)
        use = self.operand_uses[index]
        self.operands[index] = value
        use.position = len(value.uses)
        value.uses.append(use)
        self._moved()

    def drop_all_references(self) -> None:
        """Detach this user from all of its operands (before deletion)."""
        for index in range(len(self.operands)):
            self._unlink_use(index)
        self.operands.clear()
        self.operand_uses.clear()
        self._moved()


class Argument(Value):
    """A formal parameter of a function."""

    __slots__ = ("parent", "index")

    name = LOCAL_NAME

    def __init__(self, ty: Type, name: str, parent, index: int):
        super().__init__(ty, name)
        self.parent = parent
        self.index = index

    def _moved(self) -> None:
        if self.parent is not None:
            self.parent._moved()


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

class Constant(User):
    """Base class for immutable, use-tracked constant values."""

    __slots__ = ()

    def is_null_value(self) -> bool:
        """Whether this constant is the all-zero value of its type."""
        return False


class ConstantInt(Constant):
    """An integer constant, stored wrapped to its type's range."""

    __slots__ = ("value",)

    def __init__(self, ty: types.IntegerType, value: int):
        if not ty.is_integer:
            raise TypeError(f"ConstantInt requires an integer type, got {ty}")
        super().__init__(ty, ())
        self.value = ty.wrap(value)

    def is_null_value(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        return str(self.value)


class ConstantBool(Constant):
    """The ``true`` / ``false`` constants."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        super().__init__(types.BOOL, ())
        self.value = bool(value)

    def is_null_value(self) -> bool:
        return not self.value

    def __str__(self) -> str:
        return "true" if self.value else "false"


class ConstantFP(Constant):
    """A floating-point constant (stored at the precision of its type)."""

    __slots__ = ("value",)

    def __init__(self, ty: types.FloatingType, value: float):
        if not ty.is_floating:
            raise TypeError(f"ConstantFP requires a floating type, got {ty}")
        super().__init__(ty, ())
        if ty.bits == 32:
            # Round-trip through single precision so semantics match storage.
            value = _struct.unpack("<f", _struct.pack("<f", value))[0]
        self.value = float(value)

    def is_null_value(self) -> bool:
        return self.value == 0.0

    def __str__(self) -> str:
        return repr(self.value)


class ConstantPointerNull(Constant):
    """The ``null`` pointer of a given pointer type."""

    __slots__ = ()

    def __init__(self, ty: types.PointerType):
        if not ty.is_pointer:
            raise TypeError(f"null requires a pointer type, got {ty}")
        super().__init__(ty, ())

    def is_null_value(self) -> bool:
        return True

    def __str__(self) -> str:
        return "null"


class UndefValue(Constant):
    """An unspecified value of a first-class type."""

    __slots__ = ()

    def __init__(self, ty: Type):
        super().__init__(ty, ())

    def __str__(self) -> str:
        return "undef"


class ConstantAggregateZero(Constant):
    """``zeroinitializer``: the all-zero value of an aggregate type."""

    __slots__ = ()

    def __init__(self, ty: Type):
        if not (ty.is_array or ty.is_struct):
            raise TypeError(f"zeroinitializer requires an aggregate type, got {ty}")
        super().__init__(ty, ())

    def is_null_value(self) -> bool:
        return True

    def __str__(self) -> str:
        return "zeroinitializer"


class ConstantArray(Constant):
    """A constant array; elements are the operands."""

    __slots__ = ()

    def __init__(self, ty: types.ArrayType, elements: Sequence[Constant]):
        if not ty.is_array:
            raise TypeError(f"ConstantArray requires an array type, got {ty}")
        if len(elements) != ty.count:
            raise ValueError(f"array type {ty} requires {ty.count} elements, got {len(elements)}")
        for element in elements:
            if element.type is not ty.element:
                raise TypeError(f"element type {element.type} does not match {ty.element}")
        super().__init__(ty, elements)

    @property
    def elements(self) -> list[Value]:
        return self.operands


class ConstantStruct(Constant):
    """A constant structure; fields are the operands."""

    __slots__ = ()

    def __init__(self, ty: types.StructType, fields: Sequence[Constant]):
        if not ty.is_struct:
            raise TypeError(f"ConstantStruct requires a struct type, got {ty}")
        if len(fields) != len(ty.fields):
            raise ValueError(f"struct type {ty} requires {len(ty.fields)} fields")
        for field, field_ty in zip(fields, ty.fields):
            if field.type is not field_ty:
                raise TypeError(f"field type {field.type} does not match {field_ty}")
        super().__init__(ty, fields)

    @property
    def fields_values(self) -> list[Value]:
        return self.operands


class ConstantString(Constant):
    """A constant byte-array initializer written as ``c"..."``.

    Semantically an array of ``sbyte``; kept distinct so the printer can
    emit readable string syntax for string literals.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        super().__init__(types.array(types.SBYTE, len(data)), ())
        self.data = bytes(data)

    def is_null_value(self) -> bool:
        return all(b == 0 for b in self.data)


class ConstantExpr(Constant):
    """A constant expression: ``cast`` or ``getelementptr`` over constants.

    Needed so global initializers can reference addresses derived from
    other globals (e.g. a vtable slot holding a cast function pointer, or
    the address of a string literal's first character).
    """

    __slots__ = ("opcode",)

    def __init__(self, opcode: str, ty: Type, operands: Sequence[Constant]):
        if opcode not in ("cast", "getelementptr"):
            raise ValueError(f"unsupported constant expression opcode: {opcode}")
        super().__init__(ty, operands)
        self.opcode = opcode


def null_value(ty: Type) -> Constant:
    """The zero/null constant of any first-class or aggregate type."""
    if ty.is_integer:
        return ConstantInt(ty, 0)  # type: ignore[arg-type]
    if ty.is_bool:
        return ConstantBool(False)
    if ty.is_floating:
        return ConstantFP(ty, 0.0)  # type: ignore[arg-type]
    if ty.is_pointer:
        return ConstantPointerNull(ty)  # type: ignore[arg-type]
    if ty.is_array or ty.is_struct:
        return ConstantAggregateZero(ty)
    raise TypeError(f"type {ty} has no null value")
