"""Instruction selection: lower IR functions to machine IR.

A straightforward one-to-many lowering of each IR instruction, with
phis lowered on the way: copies into a group register before each
predecessor's branch, in a machine block of its own on a critical edge.
The IR is only read, so a function's selection is kept per epoch and
shared by both targets.  Typed
``getelementptr`` is where the lowering earns its keep: the machine has
no notion of struct fields, so field offsets become literal address
arithmetic here — and only here, everything above this level kept the
type information (paper section 2.2).
"""

from __future__ import annotations

from typing import Optional

from ..analysis.manager import function_analysis
from ..core import types
from ..core.instructions import (
    AllocaInst, BinaryOperator, BranchInst, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, InvokeInst, LoadInst, MallocInst,
    Opcode, PhiNode, ReturnInst, ShiftInst, StoreInst, SwitchInst,
    UnwindInst, VAArgInst,
)
from ..core.module import Function, GlobalVariable, Module
from ..core.values import (
    Argument, ConstantBool, ConstantExpr, ConstantFP,
    ConstantInt, ConstantPointerNull, UndefValue, Value,
)
from .machine import MachineBlock, MachineFunction, MachineInstr, MOp

_ALU_FROM_OPCODE = {
    Opcode.ADD: "add", Opcode.SUB: "sub", Opcode.MUL: "mul",
    Opcode.DIV: "div", Opcode.REM: "rem", Opcode.AND: "and",
    Opcode.OR: "or", Opcode.XOR: "xor", Opcode.SHL: "shl",
    Opcode.SHR: "shr",
}
_CC_FROM_OPCODE = {
    Opcode.SETEQ: "eq", Opcode.SETNE: "ne", Opcode.SETLT: "lt",
    Opcode.SETGT: "gt", Opcode.SETLE: "le", Opcode.SETGE: "ge",
}
_NEGATED_CC = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
               "gt": "le", "le": "gt",
               "ult": "uge", "uge": "ult", "ugt": "ule", "ule": "ugt",
               "flt": "fge", "fge": "flt", "fgt": "fle", "fle": "fgt"}


def _cc_for(opcode: Opcode, operand_type: types.Type) -> str:
    """Condition code for a comparison, honouring operand signedness.

    Equality is representation-agnostic, but the ordered compares must
    pick the signed, unsigned, or floating flavour from the *type* —
    the machine's compare instruction cannot see signedness on its own
    (the IR keeps it in the type, paper section 2.1).
    """
    cc = _CC_FROM_OPCODE[opcode]
    if cc in ("eq", "ne"):
        return cc
    if operand_type.is_floating:
        return "f" + cc
    if (operand_type.is_pointer or operand_type.is_bool
            or not operand_type.signed):  # type: ignore[attr-defined]
        return "u" + cc
    return cc


def _type_desc(ty: types.Type) -> str:
    """Compact value descriptor (kind + byte width) for CVT subs."""
    if ty.is_bool:
        return "b1"
    if ty.is_pointer:
        return "p8"
    if ty.is_floating:
        return "f4" if ty.bits == 32 else "f8"  # type: ignore[attr-defined]
    sign = "s" if ty.signed else "u"  # type: ignore[attr-defined]
    return sign + str(ty.bits // 8)  # type: ignore[attr-defined]


def _value_tags(ty: types.Type) -> tuple[str, int]:
    """(kind, size) pair describing how a register value of ``ty`` is
    interpreted by the executing backend."""
    if ty.is_bool:
        return "b", 1
    if ty.is_pointer:
        return "u", 8
    if ty.is_floating:
        return "f", ty.bits // 8  # type: ignore[attr-defined]
    sign = "s" if ty.signed else "u"  # type: ignore[attr-defined]
    return sign, ty.bits // 8  # type: ignore[attr-defined]


def _raw_compatible(src_ty: types.Type, dst_ty: types.Type) -> bool:
    """True when a cast is a register-width no-op (same 64-bit pattern):
    pointer<->pointer and 64-bit-integer<->pointer reinterpretations."""
    return _type_desc(src_ty) in ("s8", "u8", "p8") and \
        _type_desc(dst_ty) in ("s8", "u8", "p8")


class InstructionSelector:
    """Hands out the machine IR of a module's functions."""

    def __init__(self, module: Module):
        self.module = module

    def select_function(self, function: Function) -> MachineFunction:
        """A copy of ``function``'s machine IR for the caller to rewrite.
        The selection is built once per epoch and kept with the
        function's analyses; it names its globals at each copy, since
        renaming a global moves no user's epoch."""
        return _copy(function_analysis(function, _select), function.name)


def _select(function: Function) -> MachineFunction:
    return _Lowering().run(function)


def _copy(kept: MachineFunction, name: str) -> MachineFunction:
    machine_fn = MachineFunction(name)
    machine_fn.next_vreg = kept.next_vreg
    blocks = {id(block): machine_fn.new_block(block.name)
              for block in kept.blocks}
    for block in kept.blocks:
        instructions = blocks[id(block)].instructions
        for instr in block.instructions:
            symbol, target = instr.symbol, instr.block
            instructions.append(MachineInstr(
                instr.op, instr.sub, instr.dst, instr.srcs, instr.imm,
                symbol if symbol is None or isinstance(symbol, str)
                else symbol.name,
                None if target is None else blocks[id(target)],
                instr.size, instr.kind))
    return machine_fn


class _Lowering:
    """Lowers one function; reads the IR and never edits it."""

    def run(self, function: Function) -> MachineFunction:
        self.layout = function.parent.data_layout
        machine_fn = MachineFunction(function.name)
        self._vreg_of: dict[int, int] = {}
        self._group_vregs: dict[int, int] = {}
        self._machine_fn = machine_fn
        # A phi becomes a copy into its group register at the end of
        # each predecessor, read back where the phi was.  An edge from
        # a branching block into a merging one (a critical edge) gets a
        # block of its own for its copies, right after the predecessor.
        self._block_map: dict[int, MachineBlock] = {}
        self._edges: dict[tuple[int, int], MachineBlock] = {}
        position = {id(block): index
                    for index, block in enumerate(function.blocks)}
        successors = {}
        for block in function.blocks:
            self._block_map[id(block)] = machine_fn.new_block(block.name or "bb")
            successors[id(block)] = with_phis = _phi_successors(block, position)
            for succ in reversed(with_phis):
                if (len(block.successors()) > 1
                        and len(succ.unique_predecessors()) > 1):
                    self._edges[id(block), id(succ)] = machine_fn.new_block(
                        f"{block.name}.{succ.name}.crit")
        entry = self._block_map[id(function.entry_block)]
        for index, arg in enumerate(function.args):
            entry.append(MachineInstr(MOp.GETARG, dst=self._vreg(arg), imm=index))
        for block in function.blocks:
            self._source = block
            self._current = self._block_map[id(block)]
            phis = list(block.phis())
            for phi in reversed(phis):
                self._emit(MOp.MOV, dst=self._vreg(phi),
                           srcs=(self._group_vreg(phi),))
            for inst in block.instructions[len(phis):-1]:
                self._select(inst)
            for succ in successors[id(block)]:
                if (id(block), id(succ)) not in self._edges:
                    self._phi_copies(block, succ)
            self._select(block.instructions[-1])
            for succ in reversed(successors[id(block)]):
                edge = self._edges.get((id(block), id(succ)))
                if edge is not None:
                    self._current = edge
                    self._phi_copies(block, succ)
                    self._emit(MOp.JMP, block=self._block_map[id(succ)])
        return machine_fn

    def _phi_copies(self, pred, succ) -> None:
        for phi in succ.phis():
            self._emit(MOp.MOV, dst=self._group_vreg(phi),
                       srcs=(self._operand(phi.incoming_for_block(pred)),))

    def _target(self, block) -> MachineBlock:
        """Where a branch of the block being lowered to ``block`` goes."""
        return (self._edges.get((id(self._source), id(block)))
                or self._block_map[id(block)])

    # -- helpers -----------------------------------------------------------

    def _vreg(self, value: Value) -> int:
        reg = self._vreg_of.get(id(value))
        if reg is None:
            reg = self._machine_fn.new_vreg()
            self._vreg_of[id(value)] = reg
        return reg

    def _group_vreg(self, phi: PhiNode) -> int:
        reg = self._group_vregs.get(id(phi))
        if reg is None:
            reg = self._machine_fn.new_vreg()
            self._group_vregs[id(phi)] = reg
        return reg

    def _emit(self, *args, **kwargs) -> MachineInstr:
        return self._current.append(MachineInstr(*args, **kwargs))

    def _operand(self, value: Value) -> int:
        """Materialise an operand into a vreg."""
        if isinstance(value, (Instruction, Argument)):
            return self._vreg(value)
        reg = self._machine_fn.new_vreg()
        if isinstance(value, ConstantInt):
            self._emit(MOp.LI, dst=reg, imm=value.value)
        elif isinstance(value, ConstantBool):
            self._emit(MOp.LI, dst=reg, imm=int(value.value))
        elif isinstance(value, ConstantFP):
            self._emit(MOp.LF, dst=reg, imm=value.value)
        elif isinstance(value, ConstantPointerNull):
            self._emit(MOp.LI, dst=reg, imm=0)
        elif isinstance(value, UndefValue):
            self._emit(MOp.LI, dst=reg, imm=0)
        elif isinstance(value, (GlobalVariable, Function)):
            self._emit(MOp.LA, dst=reg, symbol=value)
        elif isinstance(value, ConstantExpr):
            self._materialize_constexpr(value, reg)
        else:
            raise TypeError(f"cannot materialise operand {value!r}")
        return reg

    def _materialize_constexpr(self, expr: ConstantExpr, reg: int) -> None:
        if expr.opcode == "cast":
            inner = self._operand(expr.operands[0])
            src_ty = expr.operands[0].type
            if _raw_compatible(src_ty, expr.type):
                self._emit(MOp.MOV, dst=reg, srcs=(inner,))
            else:
                self._emit(MOp.CVT,
                           sub=f"{_type_desc(src_ty)}:{_type_desc(expr.type)}",
                           dst=reg, srcs=(inner,))
            return
        base = self._operand(expr.operands[0])
        offset = 0
        current = expr.operands[0].type.pointee
        for position, index in enumerate(expr.operands[1:]):
            value = index.value  # type: ignore[attr-defined]
            if position == 0:
                offset += value * self.layout.size_of(current)
            elif current.is_struct:
                offset += self.layout.field_offset(current, value)
                current = current.fields[value]
            else:
                offset += value * self.layout.size_of(current.element)
                current = current.element
        self._emit(MOp.ALUI, sub="add", dst=reg, srcs=(base,), imm=offset)

    # -- per-instruction lowering --------------------------------------------------

    def _select(self, inst: Instruction) -> None:
        opcode = inst.opcode
        if isinstance(inst, BinaryOperator):
            if opcode in _CC_FROM_OPCODE:
                if _fuses_into_branch(inst):
                    return  # materialised by the branch (CMPBR)
                self._emit(MOp.SETCC,
                           sub=_cc_for(opcode, inst.operands[0].type),
                           dst=self._vreg(inst),
                           srcs=(self._operand(inst.operands[0]),
                                 self._operand(inst.operands[1])))
                return
            self._select_alu(inst, _ALU_FROM_OPCODE[opcode])
            return
        if isinstance(inst, ShiftInst):
            self._select_alu(inst, _ALU_FROM_OPCODE[opcode])
            return
        if isinstance(inst, LoadInst):
            self._select_memory(inst, self._vreg(inst), None,
                                self.layout.size_of(inst.type),
                                _value_tags(inst.type)[0])
            return
        if isinstance(inst, StoreInst):
            self._select_memory(inst, None, self._operand(inst.value),
                                self.layout.size_of(inst.value.type),
                                _value_tags(inst.value.type)[0])
            return
        if isinstance(inst, GetElementPtrInst):
            if self._gep_is_foldable(inst) and _only_memory_uses(inst):
                return  # folded into the addressing mode of each access
            self._select_gep(inst)
            return
        if isinstance(inst, CastInst):
            src_ty = inst.value.type
            if _raw_compatible(src_ty, inst.type):
                # Full-register reinterpretation: a plain move.
                self._emit(MOp.MOV, dst=self._vreg(inst),
                           srcs=(self._operand(inst.value),))
            else:
                # Width or representation change: the machine must
                # truncate / sign- or zero-extend / convert, so the
                # conversion survives as an instruction of its own.
                self._emit(MOp.CVT,
                           sub=f"{_type_desc(src_ty)}:{_type_desc(inst.type)}",
                           dst=self._vreg(inst),
                           srcs=(self._operand(inst.value),))
            return
        if isinstance(inst, (CallInst, InvokeInst)):
            self._select_call(inst)
            return
        if isinstance(inst, ReturnInst):
            if inst.return_value is not None:
                self._emit(MOp.SETRET, srcs=(self._operand(inst.return_value),))
            self._emit(MOp.RET)
            return
        if isinstance(inst, BranchInst):
            if inst.is_conditional:
                condition = inst.condition
                # Compare-and-branch fusion: a single-use comparison
                # feeding the branch folds into one conditional jump.
                if (isinstance(condition, BinaryOperator)
                        and _fuses_into_branch(condition)):
                    self._emit(MOp.CMPBR,
                               sub=_cc_for(condition.opcode,
                                           condition.operands[0].type),
                               srcs=(self._operand(condition.operands[0]),
                                     self._operand(condition.operands[1])),
                               block=self._target(inst.operands[1]))
                else:
                    cond = self._operand(condition)
                    zero = self._machine_fn.new_vreg()
                    self._emit(MOp.LI, dst=zero, imm=0)
                    self._emit(MOp.CMPBR, sub="ne", srcs=(cond, zero),
                               block=self._target(inst.operands[1]))
                self._emit(MOp.JMP, block=self._target(inst.operands[2]))
            else:
                self._emit(MOp.JMP, block=self._target(inst.operands[0]))
            return
        if isinstance(inst, SwitchInst):
            selector = self._operand(inst.value)
            for case_value, dest in inst.cases:
                case_reg = self._operand(case_value)
                self._emit(MOp.CMPBR, sub="eq", srcs=(selector, case_reg),
                           block=self._target(dest))
            self._emit(MOp.JMP, block=self._target(inst.default_dest))
            return
        if isinstance(inst, (MallocInst, AllocaInst)):
            size = self.layout.size_of(inst.allocated_type)
            size_reg = self._machine_fn.new_vreg()
            if inst.array_size is not None:
                count = self._operand(inst.array_size)
                self._emit(MOp.ALUI, sub="mul", dst=size_reg, srcs=(count,),
                           imm=size)
            else:
                self._emit(MOp.LI, dst=size_reg, imm=size)
            self._emit(MOp.ARG, srcs=(size_reg,), imm=0)
            runtime = "malloc" if isinstance(inst, MallocInst) else "alloca"
            self._emit(MOp.CALL, symbol=f"__rt_{runtime}", imm=1)
            self._emit(MOp.GETRET, dst=self._vreg(inst))
            return
        if isinstance(inst, FreeInst):
            self._emit(MOp.ARG, srcs=(self._operand(inst.pointer),), imm=0)
            self._emit(MOp.CALL, symbol="__rt_free", imm=1)
            return
        if isinstance(inst, UnwindInst):
            self._emit(MOp.CALL, symbol="__rt_unwind", imm=0)
            return
        if isinstance(inst, VAArgInst):
            base = self._operand(inst.valist)
            offset = 0
            cursor = self._machine_fn.new_vreg()
            self._emit(MOp.LOAD, dst=cursor, srcs=(base,), imm=offset, size=8)
            self._emit(MOp.LOAD, dst=self._vreg(inst), srcs=(cursor,), imm=0,
                       size=self.layout.size_of(inst.type),
                       kind=_value_tags(inst.type)[0])
            advanced = self._machine_fn.new_vreg()
            self._emit(MOp.ALUI, sub="add", dst=advanced, srcs=(cursor,), imm=8)
            self._emit(MOp.STORE, srcs=(advanced, base), imm=offset, size=8)
            return
        raise TypeError(f"cannot select {inst!r}")

    def _select_alu(self, inst: Instruction, operation: str) -> None:
        lhs, rhs = inst.operands
        kind, size = _value_tags(inst.type)
        if isinstance(rhs, ConstantInt) and -(1 << 31) <= rhs.value < (1 << 31):
            self._emit(MOp.ALUI, sub=operation, dst=self._vreg(inst),
                       srcs=(self._operand(lhs),), imm=rhs.value,
                       kind=kind, size=size)
            return
        self._emit(MOp.ALU, sub=operation, dst=self._vreg(inst),
                   srcs=(self._operand(lhs), self._operand(rhs)),
                   kind=kind, size=size)

    def _select_memory(self, inst: Instruction, dst: Optional[int],
                       src: Optional[int], size: int,
                       kind: str = "u") -> None:
        """Emit a load or store, folding the pointer's GEP into the
        richest addressing mode the machine has:

        * ``[symbol + disp]`` for constant-indexed global accesses;
        * ``[base + index*scale + disp]`` for single-variable-index GEPs
          (the x86 SIB form; the RISC encoder pays extra instructions);
        * ``[base + disp]`` otherwise.
        """
        pointer = inst.operands[-1] if src is not None else inst.operands[0]
        mode = self._addressing_mode(pointer)
        if mode[0] == "global":
            _, symbol, disp = mode
            if src is None:
                self._emit(MOp.LOADG, dst=dst, symbol=symbol, imm=disp,
                           size=size, kind=kind)
            else:
                self._emit(MOp.STOREG, srcs=(src,), symbol=symbol, imm=disp,
                           size=size, kind=kind)
            return
        if mode[0] == "indexed":
            _, base, index, scale, disp = mode
            if src is None:
                self._emit(MOp.LOADX, sub=str(scale), dst=dst,
                           srcs=(base, index), imm=disp, size=size, kind=kind)
            else:
                self._emit(MOp.STOREX, sub=str(scale), srcs=(src, base, index),
                           imm=disp, size=size, kind=kind)
            return
        _, base, disp = mode
        if src is None:
            self._emit(MOp.LOAD, dst=dst, srcs=(base,), imm=disp, size=size,
                       kind=kind)
        else:
            self._emit(MOp.STORE, srcs=(src, base), imm=disp, size=size,
                       kind=kind)

    def _addressing_mode(self, pointer: Value):
        if (isinstance(pointer, GetElementPtrInst) and pointer.parent is not None
                and self._gep_is_foldable(pointer)):
            base_pointer = pointer.pointer
            if pointer.has_all_constant_indices():
                offset = self._static_gep_offset(pointer)
                if isinstance(base_pointer, (GlobalVariable, Function)):
                    return ("global", base_pointer, offset)
                return ("plain", self._operand(base_pointer), offset)
            return self._match_indexed(pointer)
        if isinstance(pointer, (GlobalVariable, Function)):
            return ("global", pointer, 0)
        return ("plain", self._operand(pointer), 0)

    def _gep_is_foldable(self, gep: GetElementPtrInst) -> bool:
        """Structural check matching what _addressing_mode can fold."""
        if gep.has_all_constant_indices():
            offset = self._static_gep_offset(gep)
            return offset is not None and -(1 << 31) <= offset < (1 << 31)
        variable_scale = None
        current = gep.pointer.type.pointee
        for position, index in enumerate(gep.indices):
            if position == 0:
                step = self.layout.size_of(current)
            elif current.is_struct:
                if not isinstance(index, ConstantInt):
                    return False
                current = current.fields[index.value]
                continue
            else:
                current = current.element
                step = self.layout.size_of(current)
            if isinstance(index, ConstantInt):
                continue
            if variable_scale is not None or step not in (1, 2, 4, 8):
                return False
            variable_scale = step
        return variable_scale is not None

    def _match_indexed(self, gep: GetElementPtrInst):
        """Match GEPs with exactly one variable index into base+idx*scale."""
        disp = 0
        scale = None
        variable = None
        current = gep.pointer.type.pointee
        for position, index in enumerate(gep.indices):
            if position == 0:
                step = self.layout.size_of(current)
            elif current.is_struct:
                if not isinstance(index, ConstantInt):
                    return None
                disp += self.layout.field_offset(current, index.value)
                current = current.fields[index.value]
                continue
            else:
                current = current.element
                step = self.layout.size_of(current)
            if isinstance(index, ConstantInt):
                disp += index.value * step
                continue
            if variable is not None:
                return None  # two variable indices: give up
            if step not in (1, 2, 4, 8):
                return None
            variable = index
            scale = step
        if variable is None:
            return None
        base = self._operand(gep.pointer)
        index_reg = self._operand(variable)
        return ("indexed", base, index_reg, scale, disp)

    def _static_gep_offset(self, gep: GetElementPtrInst) -> Optional[int]:
        offset = 0
        current = gep.pointer.type.pointee
        for position, index in enumerate(gep.indices):
            value = index.value  # type: ignore[attr-defined]
            if position == 0:
                offset += value * self.layout.size_of(current)
            elif current.is_struct:
                offset += self.layout.field_offset(current, value)
                current = current.fields[value]
            else:
                offset += value * self.layout.size_of(current.element)
                current = current.element
        return offset

    def _select_gep(self, inst: GetElementPtrInst) -> None:
        static = (self._static_gep_offset(inst)
                  if inst.has_all_constant_indices() else None)
        base = self._operand(inst.pointer)
        if static is not None:
            self._emit(MOp.ALUI, sub="add", dst=self._vreg(inst),
                       srcs=(base,), imm=static)
            return
        # Dynamic indices: scale-and-accumulate.
        current = inst.pointer.type.pointee
        accumulator = base
        for position, index in enumerate(inst.indices):
            if position == 0:
                scale = self.layout.size_of(current)
            elif current.is_struct:
                field = index.value  # type: ignore[attr-defined]
                fixed = self.layout.field_offset(current, field)
                current = current.fields[field]
                next_acc = self._machine_fn.new_vreg()
                self._emit(MOp.ALUI, sub="add", dst=next_acc,
                           srcs=(accumulator,), imm=fixed)
                accumulator = next_acc
                continue
            else:
                scale = self.layout.size_of(current.element)
                current = current.element
            if isinstance(index, ConstantInt):
                if index.value:
                    next_acc = self._machine_fn.new_vreg()
                    self._emit(MOp.ALUI, sub="add", dst=next_acc,
                               srcs=(accumulator,), imm=index.value * scale)
                    accumulator = next_acc
                continue
            index_reg = self._operand(index)
            scaled = self._machine_fn.new_vreg()
            self._emit(MOp.ALUI, sub="mul", dst=scaled, srcs=(index_reg,),
                       imm=scale)
            next_acc = self._machine_fn.new_vreg()
            self._emit(MOp.ALU, sub="add", dst=next_acc,
                       srcs=(accumulator, scaled))
            accumulator = next_acc
        if accumulator == base:
            self._emit(MOp.MOV, dst=self._vreg(inst), srcs=(base,))
        else:
            self._emit(MOp.MOV, dst=self._vreg(inst), srcs=(accumulator,))

    def _select_call(self, inst: Instruction) -> None:
        args = (inst.operands[1:-2] if isinstance(inst, InvokeInst)
                else inst.operands[1:])
        for index, arg in enumerate(args):
            self._emit(MOp.ARG, srcs=(self._operand(arg),), imm=index)
        callee = inst.operands[0]
        if isinstance(callee, Function):
            self._emit(MOp.CALL, symbol=callee, imm=len(args))
        else:
            self._emit(MOp.CALLR, srcs=(self._operand(callee),), imm=len(args))
        if not inst.type.is_void:
            self._emit(MOp.GETRET, dst=self._vreg(inst))
        if isinstance(inst, InvokeInst):
            # The invoke's handler registration is a runtime-call pair in
            # real codegen; model the normal-path branch only.
            self._emit(MOp.JMP, block=self._target(inst.normal_dest))


def _only_memory_uses(gep: GetElementPtrInst) -> bool:
    """Every use is as the *pointer* of a load/store (so every consumer
    folds the GEP into its addressing mode)."""
    for use in gep.uses:
        user = use.user
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is gep and user.value is not gep:
            continue
        return False
    return True


def _fuses_into_branch(comparison: BinaryOperator) -> bool:
    """True when a comparison's only consumer is the conditional branch
    directly following it in the same block (so it can be a CMPBR)."""
    if not comparison.is_comparison or len(comparison.uses) != 1:
        return False
    user = comparison.uses[0].user
    return (isinstance(user, BranchInst) and user.is_conditional
            and user.operands[0] is comparison
            and user.parent is comparison.parent)


def _phi_successors(block, position: dict[int, int]) -> list:
    """The distinct successors of ``block`` that start with a phi, in
    layout order."""
    found = {id(succ): succ for succ in block.successors()
             if next(succ.phis(), None) is not None}
    return sorted(found.values(), key=lambda succ: position[id(succ)])
