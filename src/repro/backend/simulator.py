"""An executing backend: runs post-regalloc machine code.

The byte encoders in :mod:`repro.backend.targets` model code *size*
(Figure 5); this module *runs* the machine functions they encoded, so
the whole native path — instruction selection with its phi lowering,
addressing-mode folding, linear-scan allocation, spilling, CISC
memory-operand folding — can be differentially tested against the IR
interpreter (``lc-fuzz``'s backend oracle).

Semantics deliberately mirror a 64-bit machine rather than the IR:

* every register holds a raw 64-bit pattern (Python floats stand in
  for FP-register contents), canonically the two's-complement encoding
  of the typed value that produced it;
* instructions carry only the width/signedness tags instruction
  selection gave them (``MachineInstr.kind``/``size``/``sub``) — if
  isel drops a semantic distinction the IR had, this simulator
  faithfully executes the wrong program, which is exactly the point;
* arithmetic is delegated to :mod:`repro.core.constfold`, the single
  source of truth shared with the interpreter and the folder, so a
  divergence always means a *lowering* bug, never a disagreement about
  what ``div`` means.

Memory, globals, externals, and function addresses are shared with the
execution engine: the simulator owns an :class:`Interpreter` purely as
the runtime context (its memory image and runtime library), and
executes machine code instead of IR.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import constfold, types
from ..core.instructions import Opcode
from ..core.module import Function, Module
from ..execution.interpreter import (
    ExecutionError, ExitCalled, Interpreter, StepLimitExceeded,
    UndefinedFunction, UnhandledUnwind,
)
from .codegen import CodeGenerator
from .machine import MachineBlock, MachineFunction, MachineInstr, MOp
from .regalloc import FRAME_REG
from .targets import Target

_MASK64 = (1 << 64) - 1

_OPCODE_FROM_SUB = {
    "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL,
    "div": Opcode.DIV, "rem": Opcode.REM, "and": Opcode.AND,
    "or": Opcode.OR, "xor": Opcode.XOR, "shl": Opcode.SHL,
    "shr": Opcode.SHR,
}

_TYPE_FROM_TAGS = {
    ("s", 1): types.SBYTE, ("s", 2): types.SHORT,
    ("s", 4): types.INT, ("s", 8): types.LONG,
    ("u", 1): types.UBYTE, ("u", 2): types.USHORT,
    ("u", 4): types.UINT, ("u", 8): types.ULONG,
    ("f", 4): types.FLOAT, ("f", 8): types.DOUBLE,
    ("b", 1): types.BOOL,
}

_TYPE_FROM_DESC = {
    "s1": types.SBYTE, "s2": types.SHORT, "s4": types.INT, "s8": types.LONG,
    "u1": types.UBYTE, "u2": types.USHORT, "u4": types.UINT, "u8": types.ULONG,
    "f4": types.FLOAT, "f8": types.DOUBLE, "b1": types.BOOL,
    "p8": types.pointer(types.SBYTE),
}


def _signed64(pattern: int) -> int:
    return pattern - (1 << 64) if pattern >= (1 << 63) else pattern


def _decode(raw, ty: types.Type):
    """Raw register content -> typed value (the constfold domain)."""
    if ty.is_floating:
        return float(raw)
    if ty.is_bool:
        return bool(raw)
    if ty.is_pointer:
        return int(raw) & _MASK64
    return ty.wrap(int(raw))  # type: ignore[attr-defined]


def _encode(value, ty: types.Type):
    """Typed value -> raw register content (canonical 64-bit pattern)."""
    if ty.is_floating:
        return float(value)
    if ty.is_bool:
        return 1 if value else 0
    return int(value) & _MASK64


class MachineProgram:
    """A module's machine functions for one target: the ones
    ``CodeGenerator(target).compile_module`` selected, allocated and
    encoded."""

    def __init__(self, module: Module, target: Target):
        self.module = module
        self.target = target
        self.machine_fns: dict[str, MachineFunction] = {
            compiled.name: compiled.machine_fn for compiled in
            CodeGenerator(target).compile_module(module).functions}


class _Activation:
    __slots__ = ("machine_fn", "function", "block", "index", "regs",
                 "frame", "out_args", "args", "retval", "retval_out",
                 "allocas", "va_area")

    def __init__(self, machine_fn: MachineFunction, function: Function,
                 args: list):
        self.machine_fn = machine_fn
        self.function = function
        self.block: MachineBlock = machine_fn.blocks[0]
        self.index = 0
        #: Physical register file (keyed by the encoded register id).
        self.regs: dict[int, object] = {}
        #: Spill slots: frame displacement -> register content, verbatim.
        self.frame: dict[int, object] = {}
        self.out_args: dict[int, object] = {}
        self.args = args
        self.retval = None       # set by a completed call, read by GETRET
        self.retval_out = None   # set by SETRET, delivered on RET
        self.allocas: list[int] = []
        self.va_area = 0


class MachineSimulator:
    """Executes one target's machine code for a module.

    Shares its memory image, globals, externals, and function-address
    table with an embedded :class:`Interpreter` (never used to run IR),
    so pointer-identity across representations is exact and the runtime
    library needs no porting.
    """

    def __init__(self, module: Module, target: Target,
                 step_limit: int = 100_000_000,
                 extra_externals: Optional[dict] = None):
        self.module = module
        self.target = target
        self.program = MachineProgram(module, target)
        self.step_limit = step_limit
        self.steps = 0
        #: The runtime context: memory, initialized globals, externals.
        self.context = Interpreter(module, extra_externals=extra_externals)
        self.memory = self.context.memory
        self.output = self.context.output
        self.externals = self.context.externals
        #: Externals see the simulator as "the interpreter": it carries
        #: every attribute the runtime library touches.
        self.current_va_area = 0
        self.eh_state = None
        self._global_address = {
            gv.name: self.context.global_addresses[id(gv)]
            for gv in module.globals.values()
        }

    # -- entry point ---------------------------------------------------------

    def run(self, function_name: str = "main", args: Sequence = ()):
        function = self.module.functions.get(function_name)
        machine_fn = self.program.machine_fns.get(function_name)
        if function is None or machine_fn is None:
            raise ExecutionError(f"no compiled function {function_name!r}")
        params = function.function_type.params
        raw_args = [
            _encode(value, params[i]) if i < len(params) else value
            for i, value in enumerate(args)
        ]
        try:
            raw = self._run(function, machine_fn, raw_args)
        except ExitCalled as exit_call:
            return exit_call.code
        ret_ty = function.return_type
        if ret_ty.is_void or raw is None:
            return None
        return _decode(raw, ret_ty)

    # -- the machine loop ------------------------------------------------------

    def _run(self, function: Function, machine_fn: MachineFunction,
             raw_args: list):
        stack: list[_Activation] = [self._activate(function, machine_fn,
                                                   raw_args)]
        final = None
        while stack:
            act = stack[-1]
            if act.index >= len(act.block.instructions):
                raise ExecutionError(
                    f"fell off machine block {act.block.name!r} "
                    f"in {act.machine_fn.name}"
                )
            instr = act.block.instructions[act.index]
            self.steps += 1
            if self.steps > self.step_limit:
                raise StepLimitExceeded(
                    f"exceeded {self.step_limit} simulated instructions"
                )
            final = self._step(stack, act, instr)
        return final

    def _activate(self, function: Function, machine_fn: MachineFunction,
                  raw_args: list) -> _Activation:
        act = _Activation(machine_fn, function, raw_args)
        fixed = len(function.args)
        if function.is_vararg:
            extra = raw_args[fixed:]
            area = self.memory.allocate(max(8 * len(extra), 8), kind="stack")
            act.va_area = area
            for slot, raw in enumerate(extra):
                if isinstance(raw, float):
                    self.memory.store(area + 8 * slot, types.DOUBLE, raw)
                else:
                    self.memory.store(area + 8 * slot, types.ULONG,
                                      int(raw) & _MASK64)
            act.allocas.append(area)
        return act

    # -- operand plumbing --------------------------------------------------------

    def _src(self, act: _Activation, instr: MachineInstr, position: int):
        if instr.mem_src is not None and position == instr.mem_src[0]:
            return self._frame_read(act, instr.mem_src[1])
        reg = instr.srcs[position]
        try:
            return act.regs[reg]
        except KeyError:
            raise ExecutionError(
                f"read of unset register {reg} in {act.machine_fn.name} "
                f"at {instr!r}"
            ) from None

    def _frame_read(self, act: _Activation, disp: int):
        try:
            return act.frame[disp]
        except KeyError:
            raise ExecutionError(
                f"read of unset spill slot +{disp} in {act.machine_fn.name}"
            ) from None

    def _jump(self, act: _Activation, block: MachineBlock) -> None:
        act.block = block
        act.index = 0

    # -- instruction dispatch --------------------------------------------------

    def _step(self, stack: list[_Activation], act: _Activation,
              instr: MachineInstr):
        op = instr.op
        if op == MOp.MOV:
            act.regs[instr.dst] = self._src(act, instr, 0)
        elif op == MOp.LI:
            act.regs[instr.dst] = int(instr.imm) & _MASK64
        elif op == MOp.LF:
            act.regs[instr.dst] = float(instr.imm)
        elif op == MOp.LA:
            act.regs[instr.dst] = self._symbol_address(instr.symbol)
        elif op in (MOp.ALU, MOp.ALUI):
            act.regs[instr.dst] = self._alu(act, instr)
        elif op == MOp.CVT:
            src_desc, dst_desc = instr.sub.split(":")
            src_ty = _TYPE_FROM_DESC[src_desc]
            dst_ty = _TYPE_FROM_DESC[dst_desc]
            value = _decode(self._src(act, instr, 0), src_ty)
            act.regs[instr.dst] = _encode(
                constfold.eval_cast(src_ty, dst_ty, value), dst_ty
            )
        elif op == MOp.LOAD:
            if instr.srcs[0] == FRAME_REG:
                act.regs[instr.dst] = self._frame_read(act, instr.imm)
            else:
                base = int(self._src(act, instr, 0))
                act.regs[instr.dst] = self._load(
                    (base + instr.imm) & _MASK64, instr)
        elif op == MOp.STORE:
            value = self._src(act, instr, 0)
            if instr.srcs[1] == FRAME_REG:
                act.frame[instr.imm] = value
            else:
                base = int(self._src(act, instr, 1))
                self._store((base + instr.imm) & _MASK64, instr, value)
        elif op == MOp.LOADG:
            address = self._symbol_address(instr.symbol) + instr.imm
            act.regs[instr.dst] = self._load(address & _MASK64, instr)
        elif op == MOp.STOREG:
            address = self._symbol_address(instr.symbol) + instr.imm
            self._store(address & _MASK64, instr, self._src(act, instr, 0))
        elif op == MOp.LOADX:
            base = int(self._src(act, instr, 0))
            index = int(self._src(act, instr, 1))
            address = (base + index * int(instr.sub) + instr.imm) & _MASK64
            act.regs[instr.dst] = self._load(address, instr)
        elif op == MOp.STOREX:
            base = int(self._src(act, instr, 1))
            index = int(self._src(act, instr, 2))
            address = (base + index * int(instr.sub) + instr.imm) & _MASK64
            self._store(address, instr, self._src(act, instr, 0))
        elif op == MOp.SETCC:
            taken = self._compare(instr.sub, self._src(act, instr, 0),
                                  self._src(act, instr, 1))
            act.regs[instr.dst] = 1 if taken else 0
        elif op == MOp.CMPBR:
            if self._compare(instr.sub, self._src(act, instr, 0),
                             self._src(act, instr, 1)):
                self._jump(act, instr.block)
                return None
        elif op == MOp.JMP:
            self._jump(act, instr.block)
            return None
        elif op == MOp.ARG:
            act.out_args[instr.imm] = self._src(act, instr, 0)
        elif op == MOp.GETARG:
            act.regs[instr.dst] = act.args[instr.imm]
        elif op == MOp.CALL:
            return self._call(stack, act, instr.symbol, instr.imm)
        elif op == MOp.CALLR:
            address = int(self._src(act, instr, 0))
            callee = self.memory.function_at(address)
            return self._call(stack, act, callee.name, instr.imm)
        elif op == MOp.GETRET:
            act.regs[instr.dst] = act.retval
        elif op == MOp.SETRET:
            act.retval_out = self._src(act, instr, 0)
        elif op == MOp.RET:
            return self._return(stack)
        else:
            raise ExecutionError(f"cannot simulate {instr!r}")
        act.index += 1
        return None

    # -- arithmetic ----------------------------------------------------------------

    def _alu(self, act: _Activation, instr: MachineInstr):
        ty = _TYPE_FROM_TAGS[(instr.kind or "u", instr.size)]
        opcode = _OPCODE_FROM_SUB[instr.sub]
        lhs_raw = self._src(act, instr, 0)
        if instr.op == MOp.ALUI:
            rhs_value = instr.imm
        else:
            rhs_raw = self._src(act, instr, 1)
            rhs_value = None
        if opcode in (Opcode.SHL, Opcode.SHR):
            amount = (rhs_value if rhs_value is not None
                      else int(rhs_raw) & 0xFF)
            result = constfold.eval_shift(opcode, ty,
                                          _decode(lhs_raw, ty), amount)
            return _encode(result, ty)
        lhs = _decode(lhs_raw, ty)
        rhs = rhs_value if rhs_value is not None else _decode(rhs_raw, ty)
        result = constfold.eval_binary(opcode, ty, lhs, rhs)
        return _encode(result, ty)

    def _compare(self, cc: str, a, b) -> bool:
        if cc == "eq":
            return a == b
        if cc == "ne":
            return a != b
        if cc[0] == "u" or cc[0] == "f":
            base = cc[1:]
        else:
            # Signed: reinterpret the 64-bit patterns.
            a, b = _signed64(int(a)), _signed64(int(b))
            base = cc
        if base == "lt":
            return a < b
        if base == "gt":
            return a > b
        if base == "le":
            return a <= b
        if base == "ge":
            return a >= b
        raise ExecutionError(f"bad condition code {cc!r}")

    # -- memory ------------------------------------------------------------------

    def _access_type(self, instr: MachineInstr) -> types.Type:
        return _TYPE_FROM_TAGS[(instr.kind or "u", instr.size)]

    def _load(self, address: int, instr: MachineInstr):
        ty = self._access_type(instr)
        return _encode(self.memory.load(address, ty), ty)

    def _store(self, address: int, instr: MachineInstr, raw) -> None:
        ty = self._access_type(instr)
        self.memory.store(address, ty, _decode(raw, ty))

    def _symbol_address(self, symbol: str) -> int:
        address = self._global_address.get(symbol)
        if address is not None:
            return address
        function = self.module.functions.get(symbol)
        if function is not None:
            return self.memory.function_address(function)
        raise ExecutionError(f"unresolved symbol {symbol!r}")

    # -- calls --------------------------------------------------------------------

    def _call(self, stack: list[_Activation], act: _Activation,
              symbol: str, nargs: int):
        raw_args = [act.out_args.get(i) for i in range(nargs)]
        act.out_args.clear()
        if symbol.startswith("__rt_"):
            self._runtime_call(act, symbol, raw_args)
            act.index += 1
            return None
        machine_fn = self.program.machine_fns.get(symbol)
        function = self.module.functions.get(symbol)
        if machine_fn is not None and function is not None:
            stack.append(self._activate(function, machine_fn, raw_args))
            return None
        if function is None:
            raise ExecutionError(f"call to unknown symbol {symbol!r}")
        # External: cross back into the typed runtime-library domain.
        external = self.externals.get(symbol)
        if external is None:
            raise UndefinedFunction(
                f"call to undefined external {symbol!r}"
            )
        params = function.function_type.params
        decoded = [
            _decode(raw, params[i]) if i < len(params)
            else (raw if isinstance(raw, float) else _signed64(int(raw)))
            for i, raw in enumerate(raw_args)
        ]
        self.current_va_area = act.va_area
        result = external(self, decoded)
        ret_ty = function.return_type
        if not ret_ty.is_void and result is not None:
            act.retval = _encode(result, ret_ty)
        act.index += 1
        return None

    def _runtime_call(self, act: _Activation, symbol: str,
                      raw_args: list) -> None:
        if symbol == "__rt_malloc":
            size = int(raw_args[0])
            act.retval = self.memory.allocate(size, kind="heap")
            return
        if symbol == "__rt_alloca":
            size = int(raw_args[0])
            address = self.memory.allocate(size, kind="stack")
            act.allocas.append(address)
            act.retval = address
            return
        if symbol == "__rt_free":
            self.memory.free(int(raw_args[0]))
            return
        if symbol == "__rt_unwind":
            raise UnhandledUnwind(
                "unwind executed in machine code (no invoke handler model)"
            )
        raise ExecutionError(f"unknown runtime call {symbol!r}")

    def _return(self, stack: list[_Activation]):
        act = stack.pop()
        for address in act.allocas:
            self.memory.release(address)
        if not stack:
            return act.retval_out
        caller = stack[-1]
        caller.retval = act.retval_out
        caller.index += 1
        return None
