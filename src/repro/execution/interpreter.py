"""The Execution Engine: an interpreter for the IR (paper section 3.4).

Stands in for the JIT: it executes one function at a time over the
in-memory representation, with a flat byte-addressed memory, external
(runtime library) functions, and full ``invoke``/``unwind`` stack
unwinding semantics — "when the program executes an unwind instruction,
it logically unwinds the stack until it removes an activation record
created by an invoke, then transfers control to the basic block
specified by the invoke".

The interpreter shares its arithmetic with the constant folder: the
per-(opcode, type) evaluators of :mod:`repro.core.constfold` are bound
into each instruction's closure when its block is decoded, so
optimization can never change what a program computes.  See
docs/EXECUTION.md, "How the interpreter executes".
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core import constfold, types
from ..core.basicblock import BasicBlock
from ..core.instructions import (
    AllocaInst, BinaryOperator, BranchInst, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, InvokeInst, LoadInst, MallocInst,
    PhiNode, ReturnInst, ShiftInst, StoreInst, SwitchInst,
    UnwindInst, VAArgInst,
)
from ..core.module import Function, GlobalVariable, Module
from ..core.values import (
    Argument, Constant, ConstantAggregateZero, ConstantArray, ConstantBool,
    ConstantExpr, ConstantFP, ConstantInt, ConstantPointerNull,
    ConstantString, ConstantStruct, UndefValue, Value,
)
from .memory import Memory, MemoryFault


class ExecutionError(Exception):
    """Base for runtime faults the interpreter raises."""


class UnhandledUnwind(ExecutionError):
    """``unwind`` executed with no dynamically-enclosing ``invoke``."""


class StepLimitExceeded(ExecutionError):
    """The configured instruction budget ran out."""


class UndefinedFunction(ExecutionError):
    """Call to a declaration with no registered external implementation."""


class ExitCalled(Exception):
    """Raised by the ``exit`` external to stop the program."""

    def __init__(self, code: int):
        super().__init__(f"exit({code})")
        self.code = code


class _Frame:
    __slots__ = ("function", "block", "index", "ops", "registers", "allocas",
                 "pending_call", "va_area")

    def __init__(self, function: Function, registers: dict[int, object]):
        self.function = function
        self.block: BasicBlock = function.blocks[0]
        self.index = 0
        #: The decoded form of ``block``: one closure per instruction.
        self.ops: list[Callable] = []
        self.registers = registers
        self.allocas: list[int] = []
        #: The decoded call site this frame is suspended at:
        #: ``(deliver, unwind_edge)`` — see :meth:`Interpreter._decode_call`.
        self.pending_call: Optional[tuple] = None
        #: Address of the varargs area for vararg functions.
        self.va_area: int = 0


#: What an op that pushed or popped a frame, other than a ``ret``,
#: hands the run loop.
_SWITCHED = (None,)

#: How an instruction operand is read, decided once at decode: a
#: register key, a value bound now, or a constant whose evaluation
#: allocates and is therefore left to execution.
_REG, _CONST, _LAZY = "reg", "const", "lazy"


def _allocates(constant: Value) -> bool:
    """Evaluating ``constant`` may allocate: a function's code address is
    handed out on first use, and allocation order is observable."""
    if isinstance(constant, Function):
        return True
    if isinstance(constant, ConstantExpr):
        return any(_allocates(operand) for operand in constant.operands)
    return False


def _unset_register(regs: dict, *values: Value) -> ExecutionError:
    """The fault for the first of ``values`` that is a register missing
    from ``regs`` (operands in the order the instruction reads them)."""
    for value in values:
        if (isinstance(value, (Instruction, Argument))
                and id(value) not in regs):
            return ExecutionError(
                f"read of unset register {value.name!r} "
                f"(undefined behaviour made loud)"
            )
    raise AssertionError("every register operand is set")


class Interpreter:
    """Executes functions of one module.

    A basic block is *decoded* the first time it is entered: each
    instruction becomes one closure ``op(stack, frame)`` with its
    operands resolved, its evaluator from :mod:`repro.core.constfold`
    bound, and its layout arithmetic folded, and the run loop is
    ``frame.ops[frame.index](stack, frame)``.  The decoder
    (:meth:`_decode` and the ``_decode_*`` helpers) is the only code
    that asks what kind of instruction it is looking at.  Decoded
    blocks are cached on the interpreter, so the module must not be
    rewritten under a live one — every caller builds a fresh
    interpreter per run.
    """

    def __init__(self, module: Module, step_limit: int = 50_000_000,
                 extra_externals: Optional[dict[str, Callable]] = None):
        self.module = module
        self.memory = Memory(module.data_layout)
        self.steps = 0
        self.step_limit = step_limit
        self.output: list[str] = []
        self.global_addresses: dict[int, int] = {}
        #: Set by the JIT engine: called with a declaration about to be
        #: executed, to materialise its body from bytecode on demand.
        self.lazy_loader: Optional[Callable] = None
        #: The one listener of the block-entry event, called as
        #: ``on_block(interp, frame, block)``: the trace JIT's
        #: :class:`repro.execution.tracejit.TraceManager`, which counts
        #: every entry into its profile, records hot paths and runs
        #: compiled traces in place of the dispatch loop.
        self.block_hook = None
        from .externals import default_externals

        self.externals: dict[str, Callable] = default_externals()
        if extra_externals:
            self.externals.update(extra_externals)
        #: Thread-local exception state for the cxxeh runtime externals.
        self.eh_state = None
        #: The active frame's varargs area, visible to ``llvm.va_start``.
        self.current_va_area = 0
        #: id(block) -> (block, ops); holding the block pins its id.
        self._decoded: dict[int, tuple[BasicBlock, list[Callable]]] = {}
        self._initialize_globals()

    # ==================================================================
    # Globals
    # ==================================================================

    def _initialize_globals(self) -> None:
        layout = self.module.data_layout
        for global_var in self.module.globals.values():
            size = layout.size_of(global_var.value_type)
            address = self.memory.allocate(size, kind="global")
            self.global_addresses[id(global_var)] = address
        for global_var in self.module.globals.values():
            initializer = global_var.initializer
            if initializer is not None:
                address = self.global_addresses[id(global_var)]
                self._write_constant(address, initializer)
                if global_var.is_constant:
                    alloc_id = address >> 30
                    self.memory.allocations[alloc_id].frozen = True

    def _write_constant(self, address: int, constant: Constant) -> None:
        layout = self.module.data_layout
        ty = constant.type
        if isinstance(constant, ConstantString):
            self.memory.write_bytes(address, constant.data)
            return
        if isinstance(constant, ConstantAggregateZero):
            return  # memory is already zeroed
        if isinstance(constant, ConstantArray):
            element_size = layout.size_of(ty.element)  # type: ignore[attr-defined]
            for index, element in enumerate(constant.elements):
                self._write_constant(address + index * element_size, element)
            return
        if isinstance(constant, ConstantStruct):
            for index, field in enumerate(constant.fields_values):
                offset = layout.field_offset(ty, index)
                self._write_constant(address + offset, field)
            return
        self.memory.store(address, ty, self.constant_value(constant))

    # ==================================================================
    # Constant evaluation
    # ==================================================================

    def constant_value(self, constant: Constant):
        if isinstance(constant, ConstantInt):
            return constant.value
        if isinstance(constant, ConstantBool):
            return constant.value
        if isinstance(constant, ConstantFP):
            return constant.value
        if isinstance(constant, ConstantPointerNull):
            return 0
        if isinstance(constant, UndefValue):
            ty = constant.type
            if ty.is_floating:
                return 0.0
            if ty.is_bool:
                return False
            return 0
        if isinstance(constant, Function):
            return self.memory.function_address(constant)
        if isinstance(constant, GlobalVariable):
            return self.global_addresses[id(constant)]
        if isinstance(constant, ConstantExpr):
            if constant.opcode == "cast":
                inner = self.constant_value(constant.operands[0])
                return constfold.eval_cast(
                    constant.operands[0].type, constant.type, inner
                )
            base = self.constant_value(constant.operands[0])
            offset, scaled = self.gep_layout(
                constant.operands[0].type, constant.operands[1:]
            )
            for index, scale in scaled:
                offset += self.constant_value(index) * scale
            return base + offset
        raise ExecutionError(f"cannot evaluate constant {constant!r}")

    def gep_layout(self, pointer_type, indices: Sequence[Value]
                   ) -> tuple[int, list[tuple[Value, int]]]:
        """Fold a ``getelementptr`` index list with the data layout: the
        byte offset contributed by the literal indices, and an
        ``(index operand, scale)`` pair for every other one.  Structure
        field indices are literals by construction."""
        layout = self.module.data_layout
        offset = 0
        scaled = []
        current = pointer_type.pointee
        for position, index in enumerate(indices):
            if position and current.is_struct:
                offset += layout.field_offset(current, index.value)
                current = current.fields[index.value]
                continue
            if position:
                current = current.element
            scale = layout.size_of(current)
            if isinstance(index, ConstantInt):
                offset += index.value * scale
            else:
                scaled.append((index, scale))
        return offset, scaled

    # ==================================================================
    # Running
    # ==================================================================

    def run(self, function_name: str = "main", args: Sequence = ()) :
        """Run a function by name with Python-level argument values."""
        function = self.module.functions.get(function_name)
        if function is None or function.is_declaration:
            raise ExecutionError(f"no defined function {function_name!r}")
        try:
            return self._run_function(function, list(args))
        except ExitCalled as exit_call:
            return exit_call.code

    def _run_function(self, function: Function, args: list):
        stack: list[_Frame] = []
        self._push_frame(stack, function, args)
        limit = self.step_limit
        frame = stack[-1]
        while True:
            self.steps = steps = self.steps + 1
            if steps > limit:
                raise StepLimitExceeded(
                    f"exceeded {limit} interpreted instructions"
                )
            # An op returns None unless it pushed or popped a frame;
            # then a 1-tuple, holding the value when it was a ``ret``.
            switched = frame.ops[frame.index](stack, frame)
            if switched is not None:
                if not stack:
                    return switched[0]
                frame = stack[-1]

    def _push_frame(self, stack: list[_Frame], function: Function,
                    args: list) -> None:
        frame = _Frame(function, dict(zip(map(id, function.args), args)))
        if function.type.pointee.is_vararg:
            extra = args[len(function.args):]
            area = self.memory.allocate(max(8 * len(extra), 8), kind="stack")
            frame.va_area = area
            for slot, value in enumerate(extra):
                self._store_va_slot(area + 8 * slot, value)
            frame.allocas.append(area)
        frame.ops = self._block_ops(frame.block)
        if self.block_hook is not None:
            self._block_event(frame)
        stack.append(frame)

    def _store_va_slot(self, address: int, value) -> None:
        if isinstance(value, float):
            self.memory.store(address, types.DOUBLE, value)
        elif isinstance(value, bool):
            self.memory.store(address, types.ULONG, int(value))
        else:
            self.memory.store(address, types.ULONG, value & ((1 << 64) - 1))

    def _pop_frame(self, stack: list[_Frame]) -> None:
        for address in stack.pop().allocas:
            self.memory.release(address)

    def _block_event(self, frame: _Frame) -> None:
        """Tell the block hook ``frame`` has just entered ``frame.block``
        (phi moves done).  A compiled trace may run here and leave the
        frame in the middle of any block: execution resumes from
        whatever ``(frame.block, frame.index)`` it left."""
        self.block_hook.on_block(self, frame, frame.block)
        frame.ops = self._block_ops(frame.block)

    def _unwind(self, stack: list[_Frame], frame: _Frame) -> None:
        # Pop the unwinding frame, then keep popping until a frame
        # suspended at an invoke is found; control resumes at its
        # unwind destination.
        self._pop_frame(stack)
        while stack:
            frame = stack[-1]
            unwind_edge = frame.pending_call[1]
            if unwind_edge is not None:
                unwind_edge(stack, frame)
                return _SWITCHED
            self._pop_frame(stack)
        raise UnhandledUnwind("unwind reached the top of the stack")

    # ==================================================================
    # Decoding: the one place that asks what an instruction is
    # ==================================================================

    def _block_ops(self, block: BasicBlock) -> list[Callable]:
        decoded = self._decoded.get(id(block))
        if decoded is None:
            ops = [self._decode(block, index, inst)
                   for index, inst in enumerate(block.instructions)]
            decoded = self._decoded[id(block)] = (block, ops)
        return decoded[1]

    def _operand(self, value: Value) -> tuple[str, object]:
        if isinstance(value, (Instruction, Argument)):
            return _REG, id(value)
        if _allocates(value):
            return _LAZY, value
        return _CONST, self.constant_value(value)  # type: ignore[arg-type]

    def _getter(self, value: Value) -> Callable:
        """``get(regs) -> value`` for an operand of any kind."""
        kind, payload = self._operand(value)
        if kind is _REG:
            def get(regs):
                try:
                    return regs[payload]
                except KeyError:
                    raise _unset_register(regs, value) from None
            return get
        if kind is _CONST:
            return lambda regs: payload
        return lambda regs: self.constant_value(value)

    def _edge(self, source: BasicBlock, dest: BasicBlock) -> Callable:
        """The op that moves a frame along the CFG edge ``source`` ->
        ``dest``: the phi moves for this predecessor (read
        *simultaneously*), then the block-entry event.  ``dest`` is
        decoded when the edge is first taken."""
        ops = None
        moves: list[tuple[int, Callable]] = []

        def enter(stack, frame):
            nonlocal ops, moves
            if ops is None:
                moves = self._phi_moves(source, dest)
                ops = self._block_ops(dest)
            if moves:
                regs = frame.registers
                values = [get(regs) for _, get in moves]
                for (key, _), value in zip(moves, values):
                    regs[key] = value
            frame.block = dest
            frame.ops = ops
            frame.index = len(moves)
            if self.block_hook is not None:
                self._block_event(frame)
        return enter

    def _phi_moves(self, source: BasicBlock,
                   dest: BasicBlock) -> list[tuple[int, Callable]]:
        moves = []
        for inst in dest.instructions:
            if not isinstance(inst, PhiNode):
                break
            incoming = inst.incoming_for_block(source)
            if incoming is None:
                raise ExecutionError(
                    f"phi {inst.name!r} has no entry for predecessor "
                    f"{source.name!r}"
                )
            moves.append((id(inst), self._getter(incoming)))
        return moves

    def _decode(self, block: BasicBlock, index: int,
                inst: Instruction) -> Callable:
        following = index + 1
        if isinstance(inst, BinaryOperator):
            evaluate = constfold.binary_evaluator(inst.opcode,
                                                  inst.operands[0].type)
            return self._decode_binary(inst, following, evaluate)
        if isinstance(inst, ShiftInst):
            evaluate = constfold.shift_evaluator(inst.opcode, inst.type)
            return self._decode_binary(inst, following, evaluate)
        if isinstance(inst, CastInst):
            evaluate = constfold.cast_evaluator(inst.value.type, inst.type)
            return self._decode_unary(inst, following, evaluate)
        if isinstance(inst, LoadInst):
            return self._decode_unary(inst, following,
                                      self.memory.loader(inst.type))
        if isinstance(inst, StoreInst):
            return self._decode_store(inst, following)
        if isinstance(inst, GetElementPtrInst):
            return self._decode_gep(inst, following)
        if isinstance(inst, BranchInst):
            return self._decode_branch(block, inst)
        if isinstance(inst, SwitchInst):
            return self._decode_switch(block, inst)
        if isinstance(inst, (CallInst, InvokeInst)):
            return self._decode_call(block, inst, following)
        if isinstance(inst, ReturnInst):
            return self._decode_return(inst)
        if isinstance(inst, UnwindInst):
            return self._unwind
        if isinstance(inst, (MallocInst, AllocaInst)):
            return self._decode_allocation(inst, following)
        if isinstance(inst, FreeInst):
            return self._decode_free(inst, following)
        if isinstance(inst, VAArgInst):
            return self._decode_vaarg(inst, following)
        if isinstance(inst, PhiNode):
            # Phis are moved by the edge into their block; reaching one
            # here means the function was entered at a block with phis
            # (impossible for verified IR).
            message = "phi executed outside block entry"
        else:
            message = f"cannot execute {inst!r}"

        def op(stack, frame):
            raise ExecutionError(message)
        return op

    def _decode_binary(self, inst: Instruction, following: int,
                       evaluate: Callable) -> Callable:
        """A two-operand register write: binary operators and shifts."""
        key = id(inst)
        first, second = inst.operands
        (first_kind, x), (second_kind, y) = (self._operand(first),
                                             self._operand(second))
        if first_kind is _REG and second_kind is _REG:
            def op(stack, frame):
                regs = frame.registers
                try:
                    lhs = regs[x]
                    rhs = regs[y]
                except KeyError:
                    raise _unset_register(regs, first, second) from None
                regs[key] = evaluate(lhs, rhs)
                frame.index = following
        elif first_kind is _REG and second_kind is _CONST:
            def op(stack, frame):
                regs = frame.registers
                try:
                    lhs = regs[x]
                except KeyError:
                    raise _unset_register(regs, first) from None
                regs[key] = evaluate(lhs, y)
                frame.index = following
        else:
            get_first, get_second = self._getter(first), self._getter(second)

            def op(stack, frame):
                regs = frame.registers
                regs[key] = evaluate(get_first(regs), get_second(regs))
                frame.index = following
        return op

    def _decode_unary(self, inst: Instruction, following: int,
                      evaluate: Callable) -> Callable:
        """A one-operand register write: ``evaluate`` is a cast's
        evaluator, or a load's per-type memory reader."""
        key = id(inst)
        operand = inst.operands[0]
        kind, x = self._operand(operand)
        if kind is _REG:
            def op(stack, frame):
                regs = frame.registers
                try:
                    value = regs[x]
                except KeyError:
                    raise _unset_register(regs, operand) from None
                regs[key] = evaluate(value)
                frame.index = following
        else:
            get = self._getter(operand)

            def op(stack, frame):
                regs = frame.registers
                regs[key] = evaluate(get(regs))
                frame.index = following
        return op

    def _decode_store(self, inst: StoreInst, following: int) -> Callable:
        store = self.memory.storer(inst.value.type)
        (pointer_kind, p), (value_kind, v) = (self._operand(inst.pointer),
                                              self._operand(inst.value))
        if pointer_kind is _REG and value_kind is _REG:
            def op(stack, frame):
                regs = frame.registers
                try:
                    address = regs[p]
                    value = regs[v]
                except KeyError:
                    raise _unset_register(regs, inst.pointer,
                                          inst.value) from None
                store(address, value)
                frame.index = following
        else:
            get_pointer = self._getter(inst.pointer)
            get_value = self._getter(inst.value)

            def op(stack, frame):
                regs = frame.registers
                store(get_pointer(regs), get_value(regs))
                frame.index = following
        return op

    def _decode_gep(self, inst: GetElementPtrInst,
                    following: int) -> Callable:
        key = id(inst)
        pointer = inst.pointer
        offset, scaled = self.gep_layout(pointer.type, inst.indices)
        kind, b = self._operand(pointer)
        if kind is _REG and not scaled:
            def op(stack, frame):
                regs = frame.registers
                try:
                    base = regs[b]
                except KeyError:
                    raise _unset_register(regs, pointer) from None
                if base == 0:
                    raise MemoryFault("getelementptr on a null pointer")
                regs[key] = base + offset
                frame.index = following
            return op
        if (kind is _CONST and b != 0 and len(scaled) == 1
                and isinstance(scaled[0][0], (Instruction, Argument))):
            # ``&global[i]``: the base and every literal index fold.
            index, scale = scaled[0]
            i = id(index)
            start = b + offset

            def op(stack, frame):
                regs = frame.registers
                try:
                    regs[key] = start + regs[i] * scale
                except KeyError:
                    raise _unset_register(regs, index) from None
                frame.index = following
            return op
        get_base = self._getter(pointer)
        terms = [(self._getter(index), scale) for index, scale in scaled]

        def op(stack, frame):
            regs = frame.registers
            base = get_base(regs)
            if base == 0:
                raise MemoryFault("getelementptr on a null pointer")
            address = base + offset
            for get, scale in terms:
                address += get(regs) * scale
            regs[key] = address
            frame.index = following
        return op

    def _decode_branch(self, block: BasicBlock, inst: BranchInst) -> Callable:
        if not inst.is_conditional:
            return self._edge(block, inst.operands[0])
        condition = inst.condition
        kind, c = self._operand(condition)
        if kind is not _REG:    # a literal condition: one edge, always
            return self._edge(block, inst.operands[1 if c else 2])
        if_true = self._edge(block, inst.operands[1])
        if_false = self._edge(block, inst.operands[2])

        def op(stack, frame):
            try:
                taken = frame.registers[c]
            except KeyError:
                raise _unset_register(frame.registers, condition) from None
            if taken:
                if_true(stack, frame)
            else:
                if_false(stack, frame)
        return op

    def _decode_switch(self, block: BasicBlock, inst: SwitchInst) -> Callable:
        get = self._getter(inst.value)
        default = self._edge(block, inst.default_dest)
        # Case values are literals by construction; the first case
        # that matches wins.
        cases: dict[object, Callable] = {}
        for case_value, case_dest in inst.cases:
            cases.setdefault(self.constant_value(case_value),
                             self._edge(block, case_dest))

        def op(stack, frame):
            cases.get(get(frame.registers), default)(stack, frame)
        return op

    def _decode_call(self, block: BasicBlock, inst: Instruction,
                     following: int) -> Callable:
        """``call`` and ``invoke``.  Bound here: the argument getters,
        the callee when it is named directly, and the *call site*
        ``(deliver, unwind_edge)`` that a suspended frame keeps in
        ``pending_call`` — ``deliver(stack, frame, value)`` is how a
        result arrives (from an external, or from the callee's
        ``ret``) and how control moves on.  Left to execution: whether
        the callee has a body yet (``lazy_loader`` may give it one)."""
        key = None if inst.type.is_void else id(inst)
        callee_value = inst.operands[0]
        if isinstance(inst, InvokeInst):
            arguments = inst.operands[1:-2]
            normal_edge = self._edge(block, inst.normal_dest)
            unwind_edge = self._edge(block, inst.unwind_dest)
        else:
            arguments = inst.operands[1:]
            normal_edge = unwind_edge = None
        getters = [self._getter(argument) for argument in arguments]
        direct = callee_value if isinstance(callee_value, Function) else None
        get_callee = None if direct is not None else self._getter(callee_value)

        def deliver(stack, frame, value):
            if key is not None:
                frame.registers[key] = value
            if normal_edge is not None:
                normal_edge(stack, frame)
            else:
                frame.index = following
        site = (deliver, unwind_edge)

        def op(stack, frame):
            regs = frame.registers
            values = [get(regs) for get in getters]
            callee = direct
            if callee is None:
                callee = self.memory.function_at(get_callee(regs))
            if not callee.blocks and self.lazy_loader is not None:
                self.lazy_loader(callee)
            if callee.blocks:
                frame.pending_call = site
                self._push_frame(stack, callee, values)
                return _SWITCHED
            external = self.externals.get(callee.name)
            if external is None:
                raise UndefinedFunction(
                    f"call to undefined external {callee.name!r}"
                )
            self.current_va_area = frame.va_area
            deliver(stack, frame, external(self, values))
        return op

    def _decode_return(self, inst: ReturnInst) -> Callable:
        operand = inst.return_value
        get = self._getter(operand) if operand is not None else None

        def op(stack, frame):
            value = get(frame.registers) if get is not None else None
            self._pop_frame(stack)
            if stack:
                caller = stack[-1]
                caller.pending_call[0](stack, caller, value)
            return (value,)
        return op

    def _decode_allocation(self, inst: Instruction,
                           following: int) -> Callable:
        key = id(inst)
        size = self.module.data_layout.size_of(inst.allocated_type)
        get_count = (self._getter(inst.array_size)
                     if inst.array_size is not None else None)
        on_stack = isinstance(inst, AllocaInst)
        kind = "stack" if on_stack else "heap"

        def op(stack, frame):
            count = get_count(frame.registers) if get_count is not None else 1
            address = self.memory.allocate(size * count, kind=kind)
            if on_stack:
                frame.allocas.append(address)
            frame.registers[key] = address
            frame.index = following
        return op

    def _decode_free(self, inst: FreeInst, following: int) -> Callable:
        get = self._getter(inst.pointer)

        def op(stack, frame):
            self.memory.free(get(frame.registers))
            frame.index = following
        return op

    def _decode_vaarg(self, inst: VAArgInst, following: int) -> Callable:
        key = id(inst)
        get = self._getter(inst.valist)
        cursor_type = types.pointer(types.SBYTE)
        load_cursor = self.memory.loader(cursor_type)
        store_cursor = self.memory.storer(cursor_type)
        load = self.memory.loader(inst.type)

        def op(stack, frame):
            slot = get(frame.registers)
            cursor = load_cursor(slot)
            value = load(cursor)
            store_cursor(slot, cursor + 8)
            frame.registers[key] = value
            frame.index = following
        return op
