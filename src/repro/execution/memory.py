"""The execution engine's memory: a flat, byte-addressed address space.

Pointers at runtime are plain integers, so every pointer trick the
representation permits — casting to ``long`` and back, ``char*``
arithmetic through custom allocators, storing pointers in integer
fields — behaves like it would on a real machine.  Addresses encode an
allocation id in the high bits and a byte offset in the low bits;
arithmetic within an allocation stays inside the low bits, and any
access outside an allocation's bounds faults (like a segfault, but
deterministic and catchable by tests).
"""

from __future__ import annotations

import struct as _struct
from typing import Callable, Optional

from ..core.datalayout import DataLayout
from ..core.types import Type

#: Bits reserved for the byte offset within one allocation (1 GiB max).
OFFSET_BITS = 30
OFFSET_MASK = (1 << OFFSET_BITS) - 1


#: ``struct`` format characters for integers, keyed by (bits, signed).
#: A signed format sign-extends exactly like ``IntegerType.wrap``; an
#: unsigned one stays in [0, 2**bits).
INT_FORMATS = {
    (8, True): "b", (8, False): "B", (16, True): "h", (16, False): "H",
    (32, True): "i", (32, False): "I", (64, True): "q", (64, False): "Q",
}


class MemoryFault(Exception):
    """An out-of-bounds, unmapped, or misused memory access."""


class Allocation:
    __slots__ = ("data", "frozen", "kind")

    def __init__(self, size: int, kind: str):
        self.data = bytearray(size)
        self.frozen = False  # constants become read-only after init
        self.kind = kind     # 'global' | 'heap' | 'stack' | 'code'


class Memory:
    """The address space: allocations, loads/stores, function addresses."""

    def __init__(self, data_layout: DataLayout):
        self.layout = data_layout
        self.allocations: dict[int, Allocation] = {}
        self._next_id = 1  # id 0 => the null "allocation"
        #: function address -> Function (code is not byte-addressable).
        self.functions_by_address: dict[int, object] = {}
        self._function_addresses: dict[str, int] = {}
        self._loaders: dict[Type, Callable] = {}
        self._storers: dict[Type, Callable] = {}

    # -- allocation -----------------------------------------------------------

    def allocate(self, size: int, kind: str = "heap") -> int:
        if size < 0 or size > OFFSET_MASK:
            raise MemoryFault(f"allocation of {size} bytes is out of range")
        alloc_id = self._next_id
        self._next_id += 1
        self.allocations[alloc_id] = Allocation(max(size, 1), kind)
        return alloc_id << OFFSET_BITS

    def free(self, address: int) -> None:
        alloc_id, offset = self._split(address)
        allocation = self.allocations.get(alloc_id)
        if allocation is None:
            raise MemoryFault(f"free of unmapped address {address:#x}")
        if offset != 0:
            raise MemoryFault("free of an interior pointer")
        if allocation.kind != "heap":
            raise MemoryFault(f"free of non-heap memory ({allocation.kind})")
        del self.allocations[alloc_id]

    def release(self, address: int) -> None:
        """Free a stack allocation on function return."""
        alloc_id = address >> OFFSET_BITS
        self.allocations.pop(alloc_id, None)

    def function_address(self, function) -> int:
        """A stable, fake "code address" for a function value."""
        address = self._function_addresses.get(function.name)
        if address is None:
            address = self.allocate(1, kind="code")
            self._function_addresses[function.name] = address
            self.functions_by_address[address] = function
        return address

    def function_at(self, address: int):
        function = self.functions_by_address.get(address)
        if function is None:
            raise MemoryFault(f"call through bad function pointer {address:#x}")
        return function

    # -- access ------------------------------------------------------------------

    def _split(self, address: int) -> tuple[int, int]:
        return address >> OFFSET_BITS, address & OFFSET_MASK

    def _chunk(self, address: int, size: int, writing: bool) -> tuple[Allocation, int]:
        if address == 0:
            raise MemoryFault("null pointer dereference")
        allocation = self.allocations.get(address >> OFFSET_BITS)
        if allocation is None:
            raise MemoryFault(f"access to unmapped address {address:#x}")
        if allocation.kind == "code":
            raise MemoryFault("data access to a function address")
        if writing and allocation.frozen:
            raise MemoryFault("write to constant memory")
        offset = address & OFFSET_MASK
        if offset + size > len(allocation.data):
            raise MemoryFault(
                f"access of {size} bytes at offset {offset} overruns "
                f"{len(allocation.data)}-byte allocation"
            )
        return allocation, offset

    def read_bytes(self, address: int, size: int) -> bytes:
        allocation, offset = self._chunk(address, size, writing=False)
        return bytes(allocation.data[offset:offset + size])

    def write_bytes(self, address: int, data: bytes) -> None:
        allocation, offset = self._chunk(address, len(data), writing=True)
        allocation.data[offset:offset + len(data)] = data

    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated byte string (for printf-style externals)."""
        result = bytearray()
        while len(result) < limit:
            byte = self.read_bytes(address + len(result), 1)[0]
            if byte == 0:
                return bytes(result)
            result.append(byte)
        raise MemoryFault("unterminated string")

    # -- typed access ----------------------------------------------------------------

    def load(self, address: int, ty: Type):
        return self.loader(ty)(address)

    def store(self, address: int, ty: Type, value) -> None:
        self.storer(ty)(address, value)

    def loader(self, ty: Type):
        """The callable ``address -> value`` that loads one ``ty``.

        Chosen once per type, so a caller that knows the type ahead of
        the access (the interpreter, at decode) pays for the choice
        once; every access still goes through :meth:`_chunk`.
        """
        load = self._loaders.get(ty)
        if load is None:
            load = self._loaders[ty] = self._make_loader(ty)
        return load

    def storer(self, ty: Type):
        """The callable ``(address, value) -> None`` storing one ``ty``."""
        store = self._storers.get(ty)
        if store is None:
            store = self._storers[ty] = self._make_storer(ty)
        return store

    def scalar_format(self, ty: Type, verb: str) -> str:
        """The ``struct`` format character of a non-bool scalar."""
        if ty.is_integer:
            return INT_FORMATS[ty.bits, ty.signed]  # type: ignore[attr-defined]
        if ty.is_floating:
            return "f" if ty.bits == 32 else "d"  # type: ignore[attr-defined]
        if ty.is_pointer:
            return INT_FORMATS[8 * self.layout.pointer_size, False]
        raise MemoryFault(f"cannot {verb} a value of type {ty}")

    def _make_loader(self, ty: Type) -> Callable:
        chunk = self._chunk
        if ty.is_bool:
            def load(address):
                allocation, offset = chunk(address, 1, False)
                return allocation.data[offset] != 0
            return load
        layout = _struct.Struct("<" + self.scalar_format(ty, "load"))
        size, unpack_from = layout.size, layout.unpack_from

        def load(address):
            allocation, offset = chunk(address, size, False)
            return unpack_from(allocation.data, offset)[0]
        return load

    def _make_storer(self, ty: Type) -> Callable:
        chunk = self._chunk
        if ty.is_bool:
            def store(address, value):
                allocation, offset = chunk(address, 1, True)
                allocation.data[offset] = 1 if value else 0
            return store
        code = self.scalar_format(ty, "store")
        if not ty.is_floating:
            code = code.upper()     # see the mask below
        layout = _struct.Struct("<" + code)
        size, pack_into = layout.size, layout.pack_into
        if ty.is_floating:
            def store(address, value):
                allocation, offset = chunk(address, size, True)
                pack_into(allocation.data, offset, value)
            return store
        # Integers and pointers store their low bytes whatever the sign
        # (pointer arithmetic can carry past the pointer width).
        mask = (1 << (8 * size)) - 1

        def store(address, value):
            allocation, offset = chunk(address, size, True)
            pack_into(allocation.data, offset, value & mask)
        return store

    # -- statistics ------------------------------------------------------------------

    def live_allocations(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.allocations)
        return sum(1 for a in self.allocations.values() if a.kind == kind)

    def heap_bytes(self) -> int:
        return sum(len(a.data) for a in self.allocations.values() if a.kind == "heap")
