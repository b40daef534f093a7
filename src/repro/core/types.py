"""The language-independent type system (paper section 2.2).

The representation exposes a small set of source-language-independent
primitive types with predefined sizes, plus exactly four derived types:
pointers, arrays, structures, and functions.  Every SSA register and
every explicit memory object has an associated type, and all operations
obey strict type rules.  Declared types are *not* guaranteed reliable
(the representation supports weakly-typed languages); reliability is
established separately by pointer analysis (see ``repro.analysis.dsa``).

Primitive types and anonymous derived types are uniqued: constructing
the "same" type twice yields the identical object, so types compare with
``is`` / ``==`` interchangeably.  Named structure types (used for
recursive types such as ``%list = type { int, %list* }``) are identified
by name and may have their body set exactly once.
"""

from __future__ import annotations

import threading as _threading
from typing import Iterable, Optional, Sequence


class Type:
    """Base class for all IR types."""

    __slots__ = ()

    #: Subclasses override these classification flags.
    is_void = False
    is_bool = False
    is_integer = False
    is_floating = False
    is_pointer = False
    is_array = False
    is_struct = False
    is_function = False
    is_label = False
    is_opaque = False

    @property
    def is_first_class(self) -> bool:
        """First-class types may live in SSA registers.

        Everything except void, label, functions, and bare aggregates:
        aggregates live in memory and are manipulated through pointers.
        """
        return self.is_bool or self.is_integer or self.is_floating or self.is_pointer

    @property
    def is_integral(self) -> bool:
        """Types valid for bitwise logic: bool or any integer."""
        return self.is_bool or self.is_integer

    @property
    def is_arithmetic(self) -> bool:
        """Types valid for add/sub/mul/div/rem."""
        return self.is_integer or self.is_floating

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self}>"


class VoidType(Type):
    """The type of functions returning nothing; not a value type."""

    __slots__ = ()
    is_void = True

    def __str__(self) -> str:
        return "void"


class LabelType(Type):
    """The type of basic blocks (branch targets)."""

    __slots__ = ()
    is_label = True

    def __str__(self) -> str:
        return "label"


class BoolType(Type):
    """A one-byte boolean: the result type of the set-condition opcodes."""

    __slots__ = ()
    is_bool = True

    def __str__(self) -> str:
        return "bool"


class IntegerType(Type):
    """A signed or unsigned integer of 8, 16, 32, or 64 bits.

    The instruction set follows LLVM 1.x in carrying signedness in the
    type (``sbyte``/``ubyte``/.../``long``/``ulong``) rather than in the
    opcode; the opcode plus the operand type determines exact semantics.
    Narrower widths exist only for exhaustive checking (:func:`integral`)
    and never appear in IR.
    """

    __slots__ = ("bits", "signed")

    is_integer = True
    _NAMES = {
        (8, True): "sbyte",
        (8, False): "ubyte",
        (16, True): "short",
        (16, False): "ushort",
        (32, True): "int",
        (32, False): "uint",
        (64, True): "long",
        (64, False): "ulong",
    }

    def __init__(self, bits: int, signed: bool):
        self.bits = bits
        self.signed = signed

    def __str__(self) -> str:
        return (self._NAMES.get((self.bits, self.signed))
                or f"{'i' if self.signed else 'u'}{self.bits}")

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        if self.signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    def wrap(self, value: int) -> int:
        """Reduce ``value`` to this type's range with two's-complement wrap."""
        value &= (1 << self.bits) - 1
        if self.signed and value >= 1 << (self.bits - 1):
            value -= 1 << self.bits
        return value


class FloatingType(Type):
    """IEEE single (``float``) or double (``double``) precision."""

    __slots__ = ("bits",)
    is_floating = True

    def __init__(self, bits: int):
        if bits not in (32, 64):
            raise ValueError(f"unsupported floating type: {bits} bits")
        self.bits = bits

    def __str__(self) -> str:
        return "float" if self.bits == 32 else "double"


class PointerType(Type):
    """A typed pointer to an object in memory."""

    __slots__ = ("pointee",)
    is_pointer = True

    def __init__(self, pointee: Type):
        if pointee.is_void or pointee.is_label:
            raise ValueError(f"cannot form pointer to {pointee}")
        self.pointee = pointee

    def __str__(self) -> str:
        return f"{self.pointee}*"


class ArrayType(Type):
    """A fixed-size array: ``[N x T]``."""

    __slots__ = ("element", "count")
    is_array = True

    def __init__(self, element: Type, count: int):
        if count < 0:
            raise ValueError("array count must be non-negative")
        if not (element.is_first_class or element.is_array or element.is_struct):
            raise ValueError(f"invalid array element type: {element}")
        self.element = element
        self.count = count

    def __str__(self) -> str:
        return f"[{self.count} x {self.element}]"


class StructType(Type):
    """A structure: ``{ T0, T1, ... }``, possibly named for recursion.

    Anonymous structs are uniqued structurally.  Named structs are
    created with :func:`named_struct` and their body set exactly once
    with :meth:`set_body`; until then they are *opaque* and may only be
    used behind a pointer.
    """

    __slots__ = ("name", "_fields")
    is_struct = True

    def __init__(self, fields: Optional[Sequence[Type]], name: Optional[str] = None):
        self.name = name
        self._fields: Optional[tuple[Type, ...]] = None
        if fields is not None:
            self.set_body(fields)

    @property
    def is_opaque(self) -> bool:  # type: ignore[override]
        return self._fields is None

    @property
    def fields(self) -> tuple[Type, ...]:
        if self._fields is None:
            raise ValueError(f"opaque struct {self.name!r} has no body")
        return self._fields

    def set_body(self, fields: Sequence[Type]) -> None:
        if self._fields is not None:
            raise ValueError(f"struct {self.name!r} body already set")
        for field in fields:
            if not (field.is_first_class or field.is_array or field.is_struct):
                raise ValueError(f"invalid struct field type: {field}")
        self._fields = tuple(fields)

    def __str__(self) -> str:
        if self.name is not None:
            return f"%{self.name}"
        return "{ " + ", ".join(str(f) for f in self.fields) + " }" if self.fields else "{ }"

    def body_str(self) -> str:
        """The literal body, even for named structs (used by ``type`` decls)."""
        if self._fields is None:
            return "opaque"
        if not self._fields:
            return "{ }"
        return "{ " + ", ".join(str(f) for f in self._fields) + " }"


class FunctionType(Type):
    """A function signature: return type, parameter types, varargs flag."""

    __slots__ = ("return_type", "params", "is_vararg")
    is_function = True

    def __init__(self, return_type: Type, params: Sequence[Type], is_vararg: bool = False):
        if not (return_type.is_first_class or return_type.is_void):
            raise ValueError(f"invalid return type: {return_type}")
        for param in params:
            if not param.is_first_class:
                raise ValueError(f"invalid parameter type: {param}")
        self.return_type = return_type
        self.params = tuple(params)
        self.is_vararg = is_vararg

    def __str__(self) -> str:
        parts = [str(p) for p in self.params]
        if self.is_vararg:
            parts.append("...")
        return f"{self.return_type} ({', '.join(parts)})"


# ---------------------------------------------------------------------------
# Uniquing
# ---------------------------------------------------------------------------

VOID = VoidType()
LABEL = LabelType()
BOOL = BoolType()
SBYTE = IntegerType(8, True)
UBYTE = IntegerType(8, False)
SHORT = IntegerType(16, True)
USHORT = IntegerType(16, False)
INT = IntegerType(32, True)
UINT = IntegerType(32, False)
LONG = IntegerType(64, True)
ULONG = IntegerType(64, False)
FLOAT = FloatingType(32)
DOUBLE = FloatingType(64)

#: The primitive types, by their textual keyword.
PRIMITIVES: dict[str, Type] = {
    "void": VOID,
    "bool": BOOL,
    "sbyte": SBYTE,
    "ubyte": UBYTE,
    "short": SHORT,
    "ushort": USHORT,
    "int": INT,
    "uint": UINT,
    "long": LONG,
    "ulong": ULONG,
    "float": FLOAT,
    "double": DOUBLE,
    "label": LABEL,
}

_pointer_cache: dict[int, PointerType] = {}
_array_cache: dict[tuple[int, int], ArrayType] = {}
_struct_cache: dict[tuple[int, ...], StructType] = {}
_function_cache: dict[tuple, FunctionType] = {}
_narrow_cache: dict[tuple[int, bool], IntegerType] = {}

# Derived-type identity relies on "same structure => same object"; a
# check-then-insert race between two compiler threads (the parallel
# batch driver) would mint two objects for one type and break every
# ``is`` comparison between their modules, so interning takes a lock.
_intern_lock = _threading.Lock()


def integer(bits: int, signed: bool) -> IntegerType:
    """Return the uniqued integer type with the given width and signedness."""
    for candidate in (SBYTE, UBYTE, SHORT, USHORT, INT, UINT, LONG, ULONG):
        if candidate.bits == bits and candidate.signed == signed:
            return candidate
    raise ValueError(f"unsupported integer type: {bits} bits")


def integral(bits: int, signed: bool) -> Type:
    """The integral type of a width and signedness, at any width: ``bool``
    for one unsigned bit, :func:`integer` where LC has the type, and
    otherwise a uniqued narrow :class:`IntegerType` — the
    enumeration-tractable widths lc-synth and the absint self-check
    verify at, which never appear in IR."""
    if (bits, signed) == (1, False):
        return BOOL
    if (bits, signed) in IntegerType._NAMES:
        return integer(bits, signed)
    with _intern_lock:
        return _narrow_cache.setdefault((bits, signed), IntegerType(bits, signed))


def pointer(pointee: Type) -> PointerType:
    """Return the uniqued pointer type ``pointee*``."""
    cached = _pointer_cache.get(id(pointee))
    if cached is None:
        with _intern_lock:
            cached = _pointer_cache.get(id(pointee))
            if cached is None:
                cached = PointerType(pointee)
                _pointer_cache[id(pointee)] = cached
    return cached


def array(element: Type, count: int) -> ArrayType:
    """Return the uniqued array type ``[count x element]``."""
    key = (id(element), count)
    cached = _array_cache.get(key)
    if cached is None:
        with _intern_lock:
            cached = _array_cache.get(key)
            if cached is None:
                cached = ArrayType(element, count)
                _array_cache[key] = cached
    return cached


def struct(fields: Iterable[Type]) -> StructType:
    """Return the uniqued anonymous struct type ``{ fields... }``."""
    field_tuple = tuple(fields)
    key = tuple(id(f) for f in field_tuple)
    cached = _struct_cache.get(key)
    if cached is None:
        with _intern_lock:
            cached = _struct_cache.get(key)
            if cached is None:
                cached = StructType(field_tuple)
                _struct_cache[key] = cached
    return cached


def named_struct(name: str, fields: Optional[Sequence[Type]] = None) -> StructType:
    """Create a fresh *named* struct type (not uniqued; identity is the name).

    Named structs support recursion: create with ``fields=None`` (opaque),
    take pointers to it, then call :meth:`StructType.set_body`.
    """
    return StructType(fields, name=name)


def function(return_type: Type, params: Iterable[Type], is_vararg: bool = False) -> FunctionType:
    """Return the uniqued function type."""
    param_tuple = tuple(params)
    key = (id(return_type), tuple(id(p) for p in param_tuple), is_vararg)
    cached = _function_cache.get(key)
    if cached is None:
        with _intern_lock:
            cached = _function_cache.get(key)
            if cached is None:
                cached = FunctionType(return_type, param_tuple, is_vararg)
                _function_cache[key] = cached
    return cached


def element_at(aggregate: Type, index: int) -> Type:
    """The type of field/element ``index`` within an aggregate type."""
    if aggregate.is_struct:
        fields = aggregate.fields  # type: ignore[attr-defined]
        if not 0 <= index < len(fields):
            raise IndexError(f"struct index {index} out of range for {aggregate}")
        return fields[index]
    if aggregate.is_array:
        return aggregate.element  # type: ignore[attr-defined]
    raise TypeError(f"{aggregate} is not an aggregate type")


def is_losslessly_convertible(src: Type, dst: Type) -> bool:
    """Whether a cast from ``src`` to ``dst`` is a pure bit-preserving no-op."""
    if src is dst:
        return True
    if src.is_integer and dst.is_integer:
        return src.bits == dst.bits  # type: ignore[attr-defined]
    if src.is_pointer and dst.is_pointer:
        return True
    return False
