"""Byte/word-level primitives for the bytecode format.

The :class:`Reader` is bounds-checked: every primitive read verifies
the bytes it needs are actually present and raises
:class:`~repro.bitcode.errors.TruncatedBytecode` (a
:class:`~repro.bitcode.errors.BytecodeError`) otherwise, so truncated
input fails with a structured, offset-carrying error instead of a bare
``IndexError``/``struct.error`` from deep inside the decoder.
"""

from __future__ import annotations

import struct as _struct

from .errors import BytecodeError, TruncatedBytecode

#: uleb/sleb values are at most 64 bits wide in this format; anything
#: longer is corruption (and, unchecked, a way to make the reader build
#: astronomically large integers from a few flipped continuation bits).
_MAX_VARINT_SHIFT = 70


class Writer:
    def __init__(self):
        self._chunks = bytearray()

    def u8(self, value: int) -> None:
        self._chunks.append(value & 0xFF)

    def u32(self, value: int) -> None:
        self._chunks += _struct.pack("<I", value & 0xFFFFFFFF)

    def f64(self, value: float) -> None:
        self._chunks += _struct.pack("<d", value)

    def f32(self, value: float) -> None:
        self._chunks += _struct.pack("<f", value)

    def uleb(self, value: int) -> None:
        if 0 <= value < 0x80:  # most ids and counts: one byte
            self._chunks.append(value)
            return
        if value < 0:
            raise ValueError("uleb encodes non-negative integers")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self.u8(byte | 0x80)
            else:
                self.u8(byte)
                return

    def sleb(self, value: int) -> None:
        while True:
            byte = value & 0x7F
            value >>= 7
            done = (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40)
            if done:
                self.u8(byte)
                return
            self.u8(byte | 0x80)

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.uleb(len(data))
        self._chunks += data

    def raw(self, data: bytes) -> None:
        self.uleb(len(data))
        self._chunks += data

    def getvalue(self) -> bytes:
        return bytes(self._chunks)

    def __len__(self) -> int:
        return len(self._chunks)


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.position = 0

    def _need(self, count: int) -> None:
        if self.position + count > len(self.data):
            raise TruncatedBytecode(
                f"need {count} byte(s), {len(self.data) - self.position} left",
                offset=self.position,
            )

    def u8(self) -> int:
        self._need(1)
        value = self.data[self.position]
        self.position += 1
        return value

    def u32(self) -> int:
        self._need(4)
        value = _struct.unpack_from("<I", self.data, self.position)[0]
        self.position += 4
        return value

    def f64(self) -> float:
        self._need(8)
        value = _struct.unpack_from("<d", self.data, self.position)[0]
        self.position += 8
        return value

    def f32(self) -> float:
        self._need(4)
        value = _struct.unpack_from("<f", self.data, self.position)[0]
        self.position += 4
        return value

    def uleb(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.u8()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > _MAX_VARINT_SHIFT:
                raise BytecodeError("uleb varint too long",
                                    offset=self.position)

    def sleb(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.u8()
            result |= (byte & 0x7F) << shift
            shift += 7
            if not byte & 0x80:
                if byte & 0x40:
                    result -= 1 << shift
                return result
            if shift > _MAX_VARINT_SHIFT:
                raise BytecodeError("sleb varint too long",
                                    offset=self.position)

    def count(self, minimum_bytes: int = 1) -> int:
        """Read a uleb element count and sanity-check it against the
        bytes remaining: every element costs at least ``minimum_bytes``,
        so a count the input cannot possibly back is corruption — and,
        unchecked, a way to make the decoder allocate or loop on a
        number limited only by 64 bits."""
        value = self.uleb()
        remaining = len(self.data) - self.position
        if value * minimum_bytes > remaining:
            raise BytecodeError(
                f"implausible element count {value} "
                f"({remaining} byte(s) left)",
                offset=self.position,
            )
        return value

    def string(self) -> str:
        length = self.count()
        try:
            text = self.data[self.position:self.position + length].decode("utf-8")
        except UnicodeDecodeError as error:
            raise BytecodeError(f"bad utf-8 in string: {error}",
                                offset=self.position) from error
        self.position += length
        return text

    def raw(self) -> bytes:
        length = self.count()
        data = self.data[self.position:self.position + length]
        self.position += length
        return data
