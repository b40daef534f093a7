"""Target descriptions and byte-accurate instruction encoders.

Two simulated targets, mirroring the paper's evaluation machines
(section 4.1.3 / Figure 5):

* **x86-like** — a CISC with a dense, variable-width encoding
  (two-address ALU operations, 1-byte ret, short immediate forms) and a
  small register file (8 registers, 6 allocatable);
* **sparc-like** — a classic 32-bit-fixed-width RISC with a large
  register file (24 allocatable) where wide immediates take a
  ``sethi``/``or`` pair, memory offsets beyond 13 bits need address
  arithmetic, and control transfers expose a delay slot (filled with a
  ``nop`` by this simple code generator).

The encoders produce deterministic byte sequences whose *lengths* model
the real ISAs; they are consumed by the Figure 5 size benchmark and the
object-file writer, not executed.
"""

from __future__ import annotations

from ..backend.machine import (
    MachineFunction, MachineInstr, MOp, is_phys, phys_number,
)
from .regalloc import FRAME_REG

_EAX = -1  # phys(0): the return-value register

_CC_CODES = {"eq": 0, "ne": 1, "lt": 2, "gt": 3, "le": 4, "ge": 5,
             # Unsigned flavours (x86 jb/ja/jbe/jae, sparc bcs/bgu/...).
             "ult": 6, "ugt": 7, "ule": 8, "uge": 9,
             # Floating-point flavours (compare in the FP unit).
             "flt": 10, "fgt": 11, "fle": 12, "fge": 13}
_ALU_CODES = {"add": 0, "sub": 1, "mul": 2, "div": 3, "rem": 4,
              "and": 5, "or": 6, "xor": 7, "shl": 8, "shr": 9}


def _reg(reg: int) -> int:
    """Physical register number for encoding (frame pointer = 7/30)."""
    if reg == FRAME_REG:
        return 0x1E
    if is_phys(reg):
        return phys_number(reg)
    raise ValueError(f"unallocated virtual register v{reg} reached encoding")


class Target:
    """Base target interface."""

    name: str
    num_registers: int

    def encode_function(self, machine_fn: MachineFunction) -> bytes:
        body = bytearray(self.prologue(machine_fn))
        # Both encoders use fixed displacement widths, so each
        # instruction is encoded once and only those with a block target
        # again, with their displacement, at the same size.  A jump to
        # the block laid out immediately after it is a fallthrough and
        # costs nothing.
        offsets: dict[int, int] = {}
        branches: list[tuple[MachineInstr, int, int]] = []
        blocks = machine_fn.blocks
        for position, block in enumerate(blocks):
            offsets[id(block)] = len(body)
            fallthrough = None
            if block.instructions and position + 1 < len(blocks):
                last = block.instructions[-1]
                if last.op == MOp.JMP and last.block is blocks[position + 1]:
                    fallthrough = last
            for instr in block.instructions:
                if instr is fallthrough:
                    continue
                start = len(body)
                body += self.encode_instr(instr, 0)
                if instr.block is not None:
                    branches.append((instr, start, len(body)))
        for instr, start, end in branches:
            encoded = self.encode_instr(instr, offsets[id(instr.block)] - end)
            assert len(encoded) == end - start, "unstable encoding size"
            body[start:end] = encoded
        body += self.epilogue(machine_fn)
        return bytes(body)

    def prologue(self, machine_fn: MachineFunction) -> bytes:
        raise NotImplementedError

    def epilogue(self, machine_fn: MachineFunction) -> bytes:
        raise NotImplementedError

    def encode_instr(self, instr: MachineInstr, displacement: int) -> bytes:
        raise NotImplementedError


def _fits(value: int, bits: int) -> bool:
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


class X86LikeTarget(Target):
    """Variable-width CISC encoding (sizes modelled on IA-32)."""

    name = "x86"
    num_registers = 8  # 5 allocatable + 3 scratch; FP/SP live outside
    #: Reg-mem instruction forms: spilled operands fold into the
    #: consuming instruction (see LinearScanAllocator).
    folds_memory = True

    # Encoding helpers: the byte *contents* are synthetic, the *lengths*
    # follow IA-32 conventions.

    def prologue(self, machine_fn: MachineFunction) -> bytes:
        # push ebp; mov ebp, esp; sub esp, frame
        out = b"\x55" + b"\x89\xe5"
        if machine_fn.frame_size:
            if _fits(machine_fn.frame_size, 8):
                out += b"\x83\xec" + bytes([machine_fn.frame_size & 0xFF])
            else:
                out += b"\x81\xec" + machine_fn.frame_size.to_bytes(4, "little", signed=True)
        return out

    def epilogue(self, machine_fn: MachineFunction) -> bytes:
        return b"\xc9\xc3"  # leave; ret

    def encode_instr(self, instr: MachineInstr, displacement: int) -> bytes:
        encoded = self._encode_core(instr, displacement)
        if instr.mem_src is not None:
            # A folded memory operand turns a reg-reg form into reg-mem:
            # same opcode/modrm, plus the frame displacement bytes.
            disp = instr.mem_src[1]
            encoded += b"\x00" if _fits(disp, 8) else b"\x00\x00\x00\x00"
        return encoded

    def _encode_core(self, instr: MachineInstr, displacement: int) -> bytes:
        op = instr.op
        if op == MOp.MOV:
            return bytes([0x89, _modrm(instr.dst, instr.srcs[0])])
        if op == MOp.LI:
            if _fits(instr.imm, 32):
                return bytes([0xB8 + (_reg(instr.dst) & 7)]) + _imm32(instr.imm)
            return b"\x48" + bytes([0xB8 + (_reg(instr.dst) & 7)]) + _imm64(instr.imm)
        if op == MOp.LF:
            # movsd xmm, [rip+disp32]: 8 bytes + pool entry accounted in data
            return b"\xf2\x0f\x10" + b"\x05" + b"\x00\x00\x00\x00"
        if op == MOp.LA:
            return bytes([0xB8 + (_reg(instr.dst) & 7)]) + b"\x00\x00\x00\x00"
        if op == MOp.ALU:
            # Two-address machine: mov dst, a (2 bytes) when dst != a,
            # then op dst, b (2 bytes; mul/div are longer).
            base = b"" if instr.dst == instr.srcs[0] else bytes(
                [0x89, _modrm(instr.dst, instr.srcs[0])]
            )
            if instr.sub in ("mul", "div", "rem"):
                return base + bytes([0x0F, 0xAF, _modrm(instr.dst, instr.srcs[1])])
            if instr.sub in ("shl", "shr"):
                return base + bytes([0xD3, _modrm(instr.dst, instr.srcs[1])])
            return base + bytes([0x01 + _ALU_CODES[instr.sub],
                                 _modrm(instr.dst, instr.srcs[1])])
        if op == MOp.ALUI:
            base = b"" if instr.dst == instr.srcs[0] else bytes(
                [0x89, _modrm(instr.dst, instr.srcs[0])]
            )
            if _fits(instr.imm, 8):
                return base + bytes([0x83, _modrm(instr.dst, instr.dst),
                                     instr.imm & 0xFF])
            return base + bytes([0x81, _modrm(instr.dst, instr.dst)]) + _imm32(instr.imm)
        if op == MOp.CVT:
            src_desc, dst_desc = instr.sub.split(":")
            if "f" in (src_desc[0], dst_desc[0]):
                # cvtsi2sd/cvttsd2si/cvtss2sd family: prefix + 0F escape
                # + opcode + modrm (+ REX.W for 64-bit integer halves).
                return b"\x48\xf2\x0f\x2a" + bytes(
                    [_modrm(instr.dst, instr.srcs[0])])
            if int(dst_desc[1]) > int(src_desc[1]):
                # movsx/movzx r64, r/m: REX.W + 0F BE/B6 + modrm.
                widen = 0xBE if src_desc[0] == "s" else 0xB6
                return b"\x48\x0f" + bytes(
                    [widen, _modrm(instr.dst, instr.srcs[0])])
            # Narrowing / same-width resign: movzx/movsx from the
            # subregister (no REX needed below 64 bits).
            widen = 0xBE if dst_desc[0] == "s" else 0xB6
            return bytes([0x0F, widen, _modrm(instr.dst, instr.srcs[0])])
        if op == MOp.LOAD:
            return self._memory(0x8B, instr.dst, instr.srcs[0], instr.imm)
        if op == MOp.STORE:
            return self._memory(0x89, instr.srcs[0], instr.srcs[1], instr.imm)
        if op == MOp.LOADG:
            # mov reg, [disp32]: opcode + modrm + abs32
            return bytes([0x8B, (_reg(instr.dst) & 7) << 3 | 0x05]) + _imm32(instr.imm)
        if op == MOp.STOREG:
            return bytes([0x89, (_reg(instr.srcs[0]) & 7) << 3 | 0x05]) + _imm32(instr.imm)
        if op == MOp.LOADX:
            return self._sib_memory(0x8B, instr.dst, instr.srcs[0],
                                    instr.srcs[1], int(instr.sub), instr.imm)
        if op == MOp.STOREX:
            return self._sib_memory(0x89, instr.srcs[0], instr.srcs[1],
                                    instr.srcs[2], int(instr.sub), instr.imm)
        if op == MOp.SETCC:
            # cmp a, b (2) + setcc dst (3) + movzx (3)
            return (bytes([0x39, _modrm(instr.srcs[0], instr.srcs[1])])
                    + bytes([0x0F, 0x90 + _CC_CODES[instr.sub], 0xC0])
                    + bytes([0x0F, 0xB6, 0xC0]))
        if op == MOp.CMPBR:
            # cmp a, b (2) + jcc rel32 (6)
            return (bytes([0x39, _modrm(instr.srcs[0], instr.srcs[1])])
                    + bytes([0x0F, 0x80 + _CC_CODES[instr.sub]])
                    + _imm32(displacement))
        if op == MOp.JMP:
            return b"\xE9" + _imm32(displacement)
        if op == MOp.ARG:
            return bytes([0x50 + (_reg(instr.srcs[0]) & 7)])  # push reg
        if op == MOp.GETARG:
            # mov reg, [ebp + 8 + 8*i]
            return self._memory(0x8B, instr.dst, FRAME_REG, 8 + 8 * instr.imm)
        if op == MOp.CALL:
            return b"\xE8\x00\x00\x00\x00"
        if op == MOp.CALLR:
            return bytes([0xFF, 0xD0 + (_reg(instr.srcs[0]) & 7)])
        if op == MOp.GETRET:
            return bytes([0x89, _modrm(instr.dst, _EAX)])  # mov dst, eax
        if op == MOp.SETRET:
            return bytes([0x89, _modrm(_EAX, instr.srcs[0])])  # mov eax, src
        if op == MOp.RET:
            return b"\xc9\xc3"  # leave; ret
        if op == MOp.UNWIND:
            return b"\xE8\x00\x00\x00\x00"
        raise ValueError(f"cannot encode {instr!r}")

    def _memory(self, opcode: int, reg: int, base: int, disp: int) -> bytes:
        head = bytes([opcode, _modrm(reg, base)])
        if disp == 0:
            return head
        if _fits(disp, 8):
            return head + bytes([disp & 0xFF])
        return head + _imm32(disp)

    def _sib_memory(self, opcode: int, reg: int, base: int, index: int,
                    scale: int, disp: int) -> bytes:
        scale_bits = {1: 0, 2: 1, 4: 2, 8: 3}[scale]
        sib = (scale_bits << 6) | ((_reg(index) & 7) << 3) | (_reg(base) & 7)
        head = bytes([opcode, ((_reg(reg) & 7) << 3) | 0x04, sib])
        if disp == 0:
            return head
        if _fits(disp, 8):
            return head + bytes([disp & 0xFF])
        return head + _imm32(disp)


def _modrm(a, b) -> int:
    return 0xC0 | ((_reg(a) & 7) << 3) | (_reg(b) & 7)


def _imm32(value: int) -> bytes:
    return (value & 0xFFFFFFFF).to_bytes(4, "little")


def _imm64(value: int) -> bytes:
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


class SparcLikeTarget(Target):
    """Fixed 32-bit-word RISC encoding with delay slots."""

    name = "sparc"
    num_registers = 26  # 24 allocatable + 2 scratch

    _WORD = 4

    def _word(self, *fields: int) -> bytes:
        value = 0
        for field in fields:
            value = (value << 8) ^ (field & 0xFF)
        return (value & 0xFFFFFFFF).to_bytes(4, "big")

    def _words(self, count: int, tag: int) -> bytes:
        return b"".join(self._word(tag, i, 0, 0) for i in range(count))

    def prologue(self, machine_fn: MachineFunction) -> bytes:
        # save %sp, -frame, %sp — plus an extra add when the frame is
        # too large for the 13-bit immediate.
        if machine_fn.frame_size and not _fits(-machine_fn.frame_size - 96, 13):
            return self._words(3, 0x9D)
        return self._word(0x9D, 0xE3, 0xBF, 0x98)

    def epilogue(self, machine_fn: MachineFunction) -> bytes:
        return b""  # ret/restore emitted by RET

    def encode_instr(self, instr: MachineInstr, displacement: int) -> bytes:
        op = instr.op
        if op == MOp.MOV:
            return self._word(0x01, _reg(instr.dst), _reg(instr.srcs[0]), 0)
        if op == MOp.LI:
            if _fits(instr.imm, 13):
                return self._word(0x02, _reg(instr.dst), instr.imm & 0xFF,
                                  (instr.imm >> 8) & 0xFF)
            if _fits(instr.imm, 32):
                return self._words(2, 0x03)  # sethi + or
            return self._words(6, 0x04)      # full 64-bit materialisation
        if op == MOp.LF:
            # sethi+or address, then load: 3 words.
            return self._words(3, 0x05)
        if op == MOp.LA:
            return self._words(2, 0x06)  # sethi + or against relocation
        if op == MOp.ALU:
            code = _ALU_CODES[instr.sub]
            if instr.sub in ("div", "rem"):
                # wr %y + divide + (rem: extra mul/sub): 3-4 words.
                return self._words(4 if instr.sub == "rem" else 3, 0x10 + code)
            return self._word(0x10 + code, _reg(instr.dst),
                              _reg(instr.srcs[0]), _reg(instr.srcs[1]))
        if op == MOp.ALUI:
            code = _ALU_CODES[instr.sub]
            if instr.sub in ("div", "rem"):
                extra = 4 if instr.sub == "rem" else 3
                if not _fits(instr.imm, 13):
                    extra += 2
                return self._words(extra, 0x20 + code)
            if _fits(instr.imm, 13):
                return self._word(0x20 + code, _reg(instr.dst),
                                  _reg(instr.srcs[0]), instr.imm & 0xFF)
            if instr.sub == "mul":
                return self._words(3, 0x20 + code)  # sethi+or+mul
            return self._words(3, 0x20 + code)
        if op == MOp.CVT:
            # Integer resize: shift-pair (sll+sra/srl); FP converts go
            # through the FP unit (move + fitod/fdtoi): 2 words either way.
            tag = 0x71 if "f" in instr.sub else 0x70
            return self._words(2, tag)
        if op == MOp.LOAD:
            if _fits(instr.imm, 13):
                return self._word(0x30, _reg(instr.dst), _reg(instr.srcs[0]),
                                  instr.imm & 0xFF)
            return self._words(3, 0x31)  # sethi/or/ld
        if op == MOp.STORE:
            if _fits(instr.imm, 13):
                return self._word(0x32, _reg(instr.srcs[0]),
                                  _reg(instr.srcs[1]), instr.imm & 0xFF)
            return self._words(3, 0x33)
        if op in (MOp.LOADG, MOp.STOREG):
            # sethi %hi(sym), r; ld/st [r + %lo(sym+disp)]: 2 words.
            return self._words(2, 0x34)
        if op in (MOp.LOADX, MOp.STOREX):
            # scale shift (unless x1) + optional disp add + ld/st [r+r].
            words = 2 if instr.sub != "1" else 1
            if instr.imm:
                words += 1
            return self._words(words, 0x35)
        if op == MOp.SETCC:
            # subcc + two conditional moves: 3 words.
            return self._words(3, 0x40 + _CC_CODES[instr.sub])
        if op == MOp.CMPBR:
            # subcc + bcc + delay-slot nop: 3 words.
            return self._words(3, 0x50 + _CC_CODES[instr.sub])
        if op == MOp.JMP:
            # ba + delay slot: 2 words.
            return self._words(2, 0x60)
        if op == MOp.ARG:
            return self._word(0x61, _reg(instr.srcs[0]), instr.imm & 0xFF, 0)
        if op == MOp.GETARG:
            return self._word(0x62, _reg(instr.dst), instr.imm & 0xFF, 0)
        if op == MOp.CALL:
            return self._words(2, 0x63)  # call + delay slot
        if op == MOp.CALLR:
            return self._words(2, 0x64)  # jmpl + delay slot
        if op == MOp.GETRET:
            return self._word(0x65, _reg(instr.dst), 0, 0)
        if op == MOp.SETRET:
            return self._word(0x66, _reg(instr.srcs[0]), 0, 0)
        if op == MOp.RET:
            return self._words(2, 0x67)  # ret + restore
        if op == MOp.UNWIND:
            return self._words(2, 0x68)
        raise ValueError(f"cannot encode {instr!r}")


X86 = X86LikeTarget()
SPARC = SparcLikeTarget()
