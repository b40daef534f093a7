"""The native code generator driver (paper section 3.4).

Runs instruction selection, linear-scan register allocation, and target
encoding over every defined function, and lays out an executable image:
header, code section, initialised-data section (zero-initialised
globals go to a bss size field, as in real executables), and a symbol
table of external names.  The total image size is what Figure 5
compares against the bytecode representation.
"""

from __future__ import annotations

from typing import Optional

from ..core import types
from ..core.module import Function, GlobalVariable, Module
from ..core.values import (
    Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue,
)
from .isel import InstructionSelector
from .machine import MachineFunction, MOp
from .regalloc import LinearScanAllocator
from .targets import Target, X86, SPARC


class CompiledFunction:
    def __init__(self, name: str, code: bytes, machine_fn: MachineFunction):
        self.name = name
        self.code = code
        self.machine_fn = machine_fn

    @property
    def size(self) -> int:
        return len(self.code)


class ExecutableImage:
    """The laid-out native artifact for one module and target."""

    HEADER_SIZE = 64

    def __init__(self, target_name: str):
        self.target_name = target_name
        self.functions: list[CompiledFunction] = []
        self.data: bytes = b""
        self.bss_size: int = 0
        self.symbols: list[str] = []

    @property
    def code_size(self) -> int:
        return sum(f.size for f in self.functions)

    @property
    def symtab_size(self) -> int:
        # name bytes + 8-byte entry per symbol (address + info).
        return sum(len(s) + 1 + 8 for s in self.symbols)

    @property
    def total_size(self) -> int:
        return self.HEADER_SIZE + self.code_size + len(self.data) + self.symtab_size

    def to_bytes(self) -> bytes:
        header = (b"EXEC" + self.target_name.encode().ljust(12, b"\0")
                  + self.code_size.to_bytes(8, "little")
                  + len(self.data).to_bytes(8, "little")
                  + self.bss_size.to_bytes(8, "little"))
        header = header.ljust(self.HEADER_SIZE, b"\0")
        body = bytearray(header)
        for function in self.functions:
            body += function.code
        body += self.data
        for symbol in self.symbols:
            body += symbol.encode() + b"\0" + bytes(8)
        return bytes(body)


class CodeGenerator:
    """Compiles a module for one target."""

    def __init__(self, target: Target):
        self.target = target

    def compile_module(self, module: Module) -> ExecutableImage:
        image = ExecutableImage(self.target.name)
        selector = InstructionSelector(module)
        allocator = LinearScanAllocator(
            self.target.num_registers,
            fold_memory_operands=getattr(self.target, "folds_memory", False),
        )
        for function in module.functions.values():
            image.symbols.append(function.name)
            if function.is_declaration:
                continue
            machine_fn = selector.select_function(function)
            allocator.run(machine_fn)
            code = self.target.encode_function(machine_fn)
            image.functions.append(CompiledFunction(function.name, code, machine_fn))
        data = bytearray()
        for global_var in module.globals.values():
            image.symbols.append(global_var.name)
            initializer = global_var.initializer
            size = module.data_layout.size_of(global_var.value_type)
            if initializer is None or initializer.is_null_value():
                image.bss_size += size
            else:
                data += _serialize(initializer, module.data_layout, size)
        image.data = bytes(data)
        return image


def _serialize(constant: Constant, layout, size: int) -> bytes:
    """Flatten a constant initializer to its in-memory bytes (pointers
    to symbols become zero-filled relocation slots)."""
    buffer = bytearray(size)
    _serialize_into(buffer, 0, constant, layout)
    return bytes(buffer)


def _serialize_into(buffer: bytearray, offset: int, constant: Constant, layout) -> None:
    ty = constant.type
    if isinstance(constant, ConstantString):
        buffer[offset:offset + len(constant.data)] = constant.data
        return
    if isinstance(constant, (ConstantAggregateZero, UndefValue, ConstantPointerNull)):
        return
    if isinstance(constant, ConstantArray):
        element_size = layout.size_of(ty.element)  # type: ignore[attr-defined]
        for index, element in enumerate(constant.elements):
            _serialize_into(buffer, offset + index * element_size, element, layout)
        return
    if isinstance(constant, ConstantStruct):
        for index, field in enumerate(constant.fields_values):
            _serialize_into(buffer, offset + layout.field_offset(ty, index),
                            field, layout)
        return
    if isinstance(constant, ConstantInt):
        width = ty.bits // 8  # type: ignore[attr-defined]
        raw = constant.value & ((1 << ty.bits) - 1)  # type: ignore[attr-defined]
        buffer[offset:offset + width] = raw.to_bytes(width, "little")
        return
    if isinstance(constant, ConstantBool):
        buffer[offset] = 1 if constant.value else 0
        return
    if isinstance(constant, ConstantFP):
        import struct as _struct

        if ty.bits == 32:  # type: ignore[attr-defined]
            buffer[offset:offset + 4] = _struct.pack("<f", constant.value)
        else:
            buffer[offset:offset + 8] = _struct.pack("<d", constant.value)
        return
    # Symbol addresses and constant expressions: relocation slots.
    return


def compile_for_size(module: Module, target: Target) -> ExecutableImage:
    """Convenience wrapper used by the Figure 5 benchmark."""
    return CodeGenerator(target).compile_module(module)


def print_machine_function(machine_fn: MachineFunction) -> str:
    """Textual assembly listing (inspection/debugging aid)."""
    lines = [f"{machine_fn.name}:  ; frame={machine_fn.frame_size}"]
    for block in machine_fn.blocks:
        lines.append(f".{block.name}:")
        for instr in block.instructions:
            parts = [instr.op.value]
            if instr.sub:
                parts[0] += "." + instr.sub
            if instr.dst is not None:
                parts.append(_pretty_reg(instr.dst))
            srcs = [_pretty_reg(s) for s in instr.srcs]
            if instr.mem_src is not None:
                # A folded spill: that source is read from its frame slot.
                position, disp = instr.mem_src
                srcs[position] = f"[%fp+{disp}]"
            parts.extend(srcs)
            if instr.imm is not None:
                parts.append(f"#{instr.imm}")
            if instr.symbol:
                parts.append(instr.symbol)
            if instr.block is not None:
                parts.append(f"-> .{instr.block.name}")
            lines.append("    " + " ".join(str(p) for p in parts))
    return "\n".join(lines) + "\n"


def _pretty_reg(reg: int) -> str:
    from .machine import is_phys, phys_number
    from .regalloc import FRAME_REG

    if reg == FRAME_REG:
        return "%fp"
    if is_phys(reg):
        return f"%r{phys_number(reg)}"
    return f"%v{reg}"
