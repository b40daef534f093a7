"""The virtual instruction set: exactly 31 opcodes (paper section 2.1).

The instruction set captures the key operations of ordinary processors
while avoiding machine-specific constraints.  It is small because (a)
there is one opcode per operation (``not``/``neg`` are spelled with
``xor``/``sub``) and (b) opcodes are overloaded over operand types: the
opcode plus the operand type determines exact semantics (e.g. ``add``
on ``int`` vs ``double``).

Instruction layout conventions:

* all operands (including branch targets, which are basic blocks of
  ``label`` type) live in the uniform operand list, so the def-use
  machinery covers control flow too;
* every basic block ends in exactly one *terminator* (``ret``, ``br``,
  ``switch``, ``invoke``, ``unwind``), and each terminator explicitly
  names its successor blocks, making the CFG explicit.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional, Sequence

from . import types
from .types import Type
from .values import LOCAL_NAME, ConstantInt, User, Value


class Opcode(enum.Enum):
    """The complete 31-opcode instruction set."""

    # Terminators (5)
    RET = "ret"
    BR = "br"
    SWITCH = "switch"
    INVOKE = "invoke"
    UNWIND = "unwind"
    # Binary arithmetic / logic / comparison (14)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SETEQ = "seteq"
    SETNE = "setne"
    SETLT = "setlt"
    SETGT = "setgt"
    SETLE = "setle"
    SETGE = "setge"
    # Memory (6)
    MALLOC = "malloc"
    FREE = "free"
    ALLOCA = "alloca"
    LOAD = "load"
    STORE = "store"
    GETELEMENTPTR = "getelementptr"
    # Other (6)
    PHI = "phi"
    CAST = "cast"
    CALL = "call"
    SHL = "shl"
    SHR = "shr"
    VAARG = "vaarg"

    # Members are singletons and ``==`` is identity, so hash by identity
    # too: ``Enum``'s own hash re-hashes the member's name on every
    # ``op in TERMINATOR_OPCODES``.
    __hash__ = object.__hash__


TERMINATOR_OPCODES = frozenset(
    {Opcode.RET, Opcode.BR, Opcode.SWITCH, Opcode.INVOKE, Opcode.UNWIND}
)
BINARY_OPCODES = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
        Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SETEQ, Opcode.SETNE, Opcode.SETLT, Opcode.SETGT,
        Opcode.SETLE, Opcode.SETGE,
    }
)
COMPARISON_OPCODES = frozenset(
    {Opcode.SETEQ, Opcode.SETNE, Opcode.SETLT, Opcode.SETGT, Opcode.SETLE, Opcode.SETGE}
)
COMMUTATIVE_OPCODES = frozenset(
    {Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SETEQ, Opcode.SETNE}
)

assert len(Opcode) == 31, "the paper's instruction set has exactly 31 opcodes"


class Instruction(User):
    """Base class for all instructions."""

    __slots__ = ("opcode", "parent", "loc")

    name = LOCAL_NAME

    def __init__(self, opcode: Opcode, ty: Type, operands: Sequence[Value], name: str = ""):
        super().__init__(ty, operands, name)
        self.opcode = opcode
        #: The basic block containing this instruction, set on insertion.
        self.parent = None  # type: ignore[assignment]
        #: Source line this instruction was generated from (None when the
        #: instruction did not come from a front-end, e.g. parsed IR).
        #: Threaded from the LC front-end so diagnostics can point at
        #: source even after optimization moves code around.
        self.loc: Optional[int] = None

    # -- classification -----------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    @property
    def is_binary_op(self) -> bool:
        return self.opcode in BINARY_OPCODES

    @property
    def is_comparison(self) -> bool:
        return self.opcode in COMPARISON_OPCODES

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPCODES

    @property
    def carried_type(self) -> Type:
        """The type :func:`build` needs besides the operands: the result
        type (an allocation carries its allocated type instead)."""
        return self.type

    def may_write_memory(self) -> bool:
        return self.opcode in (Opcode.STORE, Opcode.CALL, Opcode.INVOKE,
                               Opcode.FREE, Opcode.VAARG)

    def has_side_effects(self) -> bool:
        """Whether deleting this (unused) instruction could change behaviour.

        An unused ``malloc``/``alloca``/``load`` is deletable; calls are
        conservatively kept unless the callee is known side-effect free.
        """
        if self.is_terminator:
            return True
        if self.opcode in (Opcode.STORE, Opcode.FREE, Opcode.VAARG):
            return True
        if self.opcode in (Opcode.CALL, Opcode.INVOKE):
            callee = self.operands[0]
            known_pure = getattr(callee, "is_pure", False)
            return not known_pure
        return False

    # -- placement ------------------------------------------------------------

    def _moved(self) -> None:
        if self.parent is not None:
            self.parent._moved()

    def remove_from_parent(self) -> None:
        """Unlink from the containing block, keeping the operands (to
        re-insert the instruction elsewhere)."""
        block = self.parent
        if block is not None:
            block.instructions.remove(self)
            self.parent = None

    def erase_from_parent(self) -> None:
        """Unlink from the containing block and drop operand references."""
        self.remove_from_parent()
        self.drop_all_references()

    @property
    def function(self):
        """The function containing this instruction (via its block)."""
        return self.parent.parent if self.parent is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "<unnamed>"
        return f"<{self.opcode.value} {self.type} {label}>"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------

class ReturnInst(Instruction):
    """``ret void`` or ``ret <ty> <value>``."""

    __slots__ = ()

    def __init__(self, value: Optional[Value] = None):
        operands = () if value is None else (value,)
        super().__init__(Opcode.RET, types.VOID, operands)

    @property
    def return_value(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None

    @property
    def successors(self) -> list:
        return []


class BranchInst(Instruction):
    """Unconditional ``br label %dest`` or conditional
    ``br bool %cond, label %iftrue, label %iffalse``."""

    __slots__ = ()

    def __init__(self, dest, cond: Optional[Value] = None, false_dest=None):
        if cond is None:
            if false_dest is not None:
                raise ValueError("unconditional branch takes a single destination")
            operands = (dest,)
        else:
            if false_dest is None:
                raise ValueError("conditional branch requires two destinations")
            if not cond.type.is_bool:
                raise TypeError(f"branch condition must be bool, got {cond.type}")
            operands = (cond, dest, false_dest)
        super().__init__(Opcode.BR, types.VOID, operands)

    @property
    def is_conditional(self) -> bool:
        return len(self.operands) == 3

    @property
    def condition(self) -> Value:
        if not self.is_conditional:
            raise ValueError("unconditional branch has no condition")
        return self.operands[0]

    @property
    def successors(self) -> list:
        if self.is_conditional:
            return [self.operands[1], self.operands[2]]
        return [self.operands[0]]


class SwitchInst(Instruction):
    """``switch <ty> <value>, label %default [ <ty> <c>, label %dest ... ]``.

    Operand layout: ``[value, default, case0_val, case0_dest, ...]``.
    """

    __slots__ = ()

    def __init__(self, value: Value, default, cases: Iterable[tuple[ConstantInt, object]] = ()):
        if not value.type.is_integral:
            raise TypeError(f"switch value must be integral, got {value.type}")
        operands: list = [value, default]
        for case_value, dest in cases:
            operands.append(case_value)
            operands.append(dest)
        super().__init__(Opcode.SWITCH, types.VOID, operands)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def default_dest(self):
        return self.operands[1]

    def add_case(self, case_value: ConstantInt, dest) -> None:
        if case_value.type is not self.value.type:
            raise TypeError("switch case type must match the switched value")
        self._append_operand(case_value)
        self._append_operand(dest)

    @property
    def cases(self) -> list[tuple[Value, object]]:
        pairs = []
        for index in range(2, len(self.operands), 2):
            pairs.append((self.operands[index], self.operands[index + 1]))
        return pairs

    @property
    def successors(self) -> list:
        return [self.operands[1]] + [self.operands[i] for i in range(3, len(self.operands), 2)]


class InvokeInst(Instruction):
    """A call that names an unwind handler (paper section 2.4).

    ``invoke`` works like ``call`` but specifies an extra basic block
    that starts the unwind handler.  When a callee executes ``unwind``,
    the stack unwinds to the most recent invoke activation and control
    transfers to that block, exposing exceptional control flow in the
    CFG.  Operand layout: ``[callee, args..., normal_dest, unwind_dest]``.
    """

    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value], normal_dest, unwind_dest, name: str = ""):
        fn_ty = _callee_function_type(callee)
        _check_call_args(fn_ty, args)
        operands = (callee, *args, normal_dest, unwind_dest)
        super().__init__(Opcode.INVOKE, fn_ty.return_type, operands, name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> list[Value]:
        return self.operands[1:-2]

    @property
    def normal_dest(self):
        return self.operands[-2]

    @property
    def unwind_dest(self):
        return self.operands[-1]

    @property
    def successors(self) -> list:
        return [self.operands[-2], self.operands[-1]]


class UnwindInst(Instruction):
    """Unwind the stack to the nearest dynamically-enclosing ``invoke``."""

    __slots__ = ()

    def __init__(self):
        super().__init__(Opcode.UNWIND, types.VOID, ())

    @property
    def successors(self) -> list:
        return []


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------

class BinaryOperator(Instruction):
    """Arithmetic, logical, and set-condition instructions.

    Both operands must have the same first-class type.  Arithmetic
    requires an arithmetic type, logic an integral type; the ``set*``
    comparisons accept any first-class type and produce ``bool``.
    """

    __slots__ = ()

    def __init__(self, opcode: Opcode, lhs: Value, rhs: Value, name: str = ""):
        if opcode not in BINARY_OPCODES:
            raise ValueError(f"{opcode} is not a binary opcode")
        if lhs.type is not rhs.type:
            raise TypeError(f"operand type mismatch: {lhs.type} vs {rhs.type}")
        ty = lhs.type
        if opcode in COMPARISON_OPCODES:
            if not ty.is_first_class:
                raise TypeError(f"cannot compare values of type {ty}")
            result = types.BOOL
        elif opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
            if not ty.is_integral:
                raise TypeError(f"logical op requires an integral type, got {ty}")
            result = ty
        else:
            if not ty.is_arithmetic:
                raise TypeError(f"arithmetic requires int or float type, got {ty}")
            result = ty
        super().__init__(opcode, result, (lhs, rhs), name)

    @property
    def lhs(self) -> Value:
        return self.operands[0]

    @property
    def rhs(self) -> Value:
        return self.operands[1]


class ShiftInst(Instruction):
    """``shl``/``shr``: shift by a ``ubyte`` amount.

    ``shr`` is arithmetic when the operand type is signed and logical
    when unsigned — signedness lives in the type, not the opcode.
    """

    __slots__ = ()

    def __init__(self, opcode: Opcode, value: Value, amount: Value, name: str = ""):
        if opcode not in (Opcode.SHL, Opcode.SHR):
            raise ValueError(f"{opcode} is not a shift opcode")
        if not value.type.is_integer:
            raise TypeError(f"shift requires an integer type, got {value.type}")
        if amount.type is not types.UBYTE:
            raise TypeError(f"shift amount must be ubyte, got {amount.type}")
        super().__init__(opcode, value.type, (value, amount), name)

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def amount(self) -> Value:
        return self.operands[1]


# ---------------------------------------------------------------------------
# Memory instructions (section 2.3: explicit allocation, unified model)
# ---------------------------------------------------------------------------

class AllocationInst(Instruction):
    """Common base of ``malloc`` (heap) and ``alloca`` (stack frame)."""

    __slots__ = ("allocated_type",)

    def __init__(self, opcode: Opcode, allocated_type: Type,
                 array_size: Optional[Value], name: str):
        if not (allocated_type.is_first_class or allocated_type.is_array
                or allocated_type.is_struct):
            raise TypeError(f"cannot allocate type {allocated_type}")
        operands: tuple[Value, ...] = ()
        if array_size is not None:
            if array_size.type is not types.UINT:
                raise TypeError(f"allocation count must be uint, got {array_size.type}")
            operands = (array_size,)
        super().__init__(opcode, types.pointer(allocated_type), operands, name)
        self.allocated_type = allocated_type

    @property
    def carried_type(self) -> Type:
        return self.allocated_type

    @property
    def array_size(self) -> Optional[Value]:
        return self.operands[0] if self.operands else None


class MallocInst(AllocationInst):
    """Typed heap allocation; lowered to the native allocator at codegen."""

    __slots__ = ()

    def __init__(self, allocated_type: Type, array_size: Optional[Value] = None, name: str = ""):
        super().__init__(Opcode.MALLOC, allocated_type, array_size, name)


class AllocaInst(AllocationInst):
    """Typed stack allocation, automatically freed on function return.

    All stack-resident data, including source-level automatic variables,
    is allocated explicitly with ``alloca``; front-ends need not build
    SSA form themselves (the ``mem2reg`` stack-promotion pass does it).
    """

    __slots__ = ()

    def __init__(self, allocated_type: Type, array_size: Optional[Value] = None, name: str = ""):
        super().__init__(Opcode.ALLOCA, allocated_type, array_size, name)


class FreeInst(Instruction):
    """Release memory obtained from ``malloc``."""

    __slots__ = ()

    def __init__(self, ptr: Value):
        if not ptr.type.is_pointer:
            raise TypeError(f"free requires a pointer, got {ptr.type}")
        super().__init__(Opcode.FREE, types.VOID, (ptr,))

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class LoadInst(Instruction):
    """Load a first-class value through a typed pointer (no indexing)."""

    __slots__ = ()

    def __init__(self, ptr: Value, name: str = ""):
        if not ptr.type.is_pointer:
            raise TypeError(f"load requires a pointer, got {ptr.type}")
        pointee = ptr.type.pointee
        if not pointee.is_first_class:
            raise TypeError(f"cannot load a value of type {pointee}")
        super().__init__(Opcode.LOAD, pointee, (ptr,), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]


class StoreInst(Instruction):
    """Store a first-class value through a typed pointer (no indexing)."""

    __slots__ = ()

    def __init__(self, value: Value, ptr: Value):
        if not ptr.type.is_pointer:
            raise TypeError(f"store requires a pointer, got {ptr.type}")
        if ptr.type.pointee is not value.type:
            raise TypeError(
                f"store type mismatch: storing {value.type} through {ptr.type}"
            )
        super().__init__(Opcode.STORE, types.VOID, (value, ptr))

    @property
    def value(self) -> Value:
        return self.operands[0]

    @property
    def pointer(self) -> Value:
        return self.operands[1]


def gep_result_type(pointer_type: Type, indices: Sequence[Value]) -> Type:
    """Compute the result type of a ``getelementptr``.

    The first index steps *over* the pointer (array-of-objects view) and
    does not change the type; each later index steps *into* the current
    aggregate.  Structure field indices must be ``uint`` constants so
    the selected field type is statically known; array indices are
    ``long`` values.
    """
    if not pointer_type.is_pointer:
        raise TypeError(f"getelementptr requires a pointer, got {pointer_type}")
    if not indices:
        raise ValueError("getelementptr requires at least one index")
    first = indices[0]
    if first.type is not types.LONG and first.type is not types.UINT:
        raise TypeError(f"first GEP index must be long, got {first.type}")
    current = pointer_type.pointee
    for index in indices[1:]:
        if current.is_struct:
            if not isinstance(index, ConstantInt) or index.type is not types.UINT:
                raise TypeError("struct field index must be a constant uint")
            current = types.element_at(current, index.value)
        elif current.is_array:
            if not index.type.is_integer:
                raise TypeError(f"array index must be an integer, got {index.type}")
            current = current.element
        else:
            raise TypeError(f"cannot index into type {current}")
    return types.pointer(current)


class GetElementPtrInst(Instruction):
    """Typed, machine-independent address arithmetic (paper section 2.2).

    Given a typed pointer to an aggregate object, computes the address
    of a sub-element in a type-preserving manner — effectively a
    combined ``.`` and ``[]`` operator.  Making all address arithmetic
    explicit exposes it to reassociation and redundancy elimination
    without obscuring type information.
    """

    __slots__ = ()

    def __init__(self, ptr: Value, indices: Sequence[Value], name: str = ""):
        result = gep_result_type(ptr.type, indices)
        super().__init__(Opcode.GETELEMENTPTR, result, (ptr, *indices), name)

    @property
    def pointer(self) -> Value:
        return self.operands[0]

    @property
    def indices(self) -> list[Value]:
        return self.operands[1:]

    def has_all_zero_indices(self) -> bool:
        return all(isinstance(i, ConstantInt) and i.value == 0 for i in self.indices)

    def has_all_constant_indices(self) -> bool:
        return all(isinstance(i, ConstantInt) for i in self.indices)


# ---------------------------------------------------------------------------
# Other instructions
# ---------------------------------------------------------------------------

class PhiNode(Instruction):
    """The standard (non-gated) SSA φ function.

    Operand layout: ``[value0, block0, value1, block1, ...]``.
    """

    __slots__ = ()

    def __init__(self, ty: Type, name: str = ""):
        if not ty.is_first_class:
            raise TypeError(f"phi requires a first-class type, got {ty}")
        super().__init__(Opcode.PHI, ty, (), name)

    def add_incoming(self, value: Value, block) -> None:
        if value.type is not self.type:
            raise TypeError(f"phi incoming type {value.type} does not match {self.type}")
        self._append_operand(value)
        self._append_operand(block)

    @property
    def incoming(self) -> list[tuple[Value, object]]:
        return [
            (self.operands[i], self.operands[i + 1])
            for i in range(0, len(self.operands), 2)
        ]

    def incoming_for_block(self, block) -> Optional[Value]:
        for value, pred in self.incoming:
            if pred is block:
                return value
        return None

    def remove_incoming(self, block) -> None:
        """Remove the incoming entry for ``block`` (rebuilding operands)."""
        pairs = [(v, b) for v, b in self.incoming if b is not block]
        self._pop_operands(0)
        for value, pred in pairs:
            self._append_operand(value)
            self._append_operand(pred)

    def replace_incoming_block(self, old, new) -> None:
        for index in range(1, len(self.operands), 2):
            if self.operands[index] is old:
                self.set_operand(index, new)


class CastInst(Instruction):
    """Convert a value to an arbitrary first-class type (section 2.2).

    ``cast`` is the *only* way to convert between types; a program
    without casts is necessarily type-safe (absent memory errors).
    """

    __slots__ = ()

    def __init__(self, value: Value, dest_type: Type, name: str = ""):
        if not value.type.is_first_class:
            raise TypeError(f"cannot cast from type {value.type}")
        if not dest_type.is_first_class:
            raise TypeError(f"cannot cast to type {dest_type}")
        if value.type.is_floating and dest_type.is_pointer:
            raise TypeError("cannot cast floating point to pointer directly")
        if value.type.is_pointer and dest_type.is_floating:
            raise TypeError("cannot cast pointer to floating point directly")
        super().__init__(Opcode.CAST, dest_type, (value,), name)

    @property
    def value(self) -> Value:
        return self.operands[0]


def _callee_function_type(callee: Value) -> types.FunctionType:
    ty = callee.type
    if ty.is_pointer and ty.pointee.is_function:
        return ty.pointee  # type: ignore[return-value]
    raise TypeError(f"callee must be a function pointer, got {ty}")


def _check_call_args(fn_ty: types.FunctionType, args: Sequence[Value]) -> None:
    required = len(fn_ty.params)
    if fn_ty.is_vararg:
        if len(args) < required:
            raise TypeError(f"call needs at least {required} args, got {len(args)}")
    elif len(args) != required:
        raise TypeError(f"call needs {required} args, got {len(args)}")
    for arg, param_ty in zip(args, fn_ty.params):
        if arg.type is not param_ty:
            raise TypeError(f"argument type {arg.type} does not match parameter {param_ty}")


class CallInst(Instruction):
    """Call through a typed function pointer (abstracts calling conventions)."""

    __slots__ = ()

    def __init__(self, callee: Value, args: Sequence[Value], name: str = ""):
        fn_ty = _callee_function_type(callee)
        _check_call_args(fn_ty, args)
        super().__init__(Opcode.CALL, fn_ty.return_type, (callee, *args), name)

    @property
    def callee(self) -> Value:
        return self.operands[0]

    @property
    def args(self) -> list[Value]:
        return self.operands[1:]


class VAArgInst(Instruction):
    """Fetch the next variadic argument of a given type from a va_list.

    The va_list is represented as an ``sbyte**`` slot; the instruction
    reads the current argument and advances the slot (so it both reads
    and writes memory).
    """

    __slots__ = ()

    def __init__(self, valist: Value, result_type: Type, name: str = ""):
        if not (valist.type.is_pointer and valist.type.pointee.is_pointer):
            raise TypeError(f"vaarg requires an sbyte** va_list, got {valist.type}")
        if not result_type.is_first_class:
            raise TypeError(f"vaarg cannot produce type {result_type}")
        super().__init__(Opcode.VAARG, result_type, (valist,), name)

    @property
    def valist(self) -> Value:
        return self.operands[0]


def _branch(ty: Type, ops: Sequence[Value], name: str) -> Instruction:
    return BranchInst(ops[0]) if len(ops) == 1 else BranchInst(ops[1], ops[0], ops[2])


def _phi(ty: Type, ops: Sequence[Value], name: str) -> Instruction:
    phi = PhiNode(ty, name)
    for index in range(0, len(ops), 2):
        phi.add_incoming(ops[index], ops[index + 1])
    return phi


#: opcode -> (carried type, operands, name) -> instruction, for every
#: opcode but the binary and shift ones (see :func:`build`).
_MAKERS = {
    Opcode.RET: lambda ty, ops, name: ReturnInst(*ops),
    Opcode.BR: _branch,
    Opcode.SWITCH: lambda ty, ops, name: SwitchInst(
        ops[0], ops[1], zip(ops[2::2], ops[3::2])),
    Opcode.INVOKE: lambda ty, ops, name: InvokeInst(
        ops[0], ops[1:-2], ops[-2], ops[-1], name),
    Opcode.UNWIND: lambda ty, ops, name: UnwindInst(),
    Opcode.MALLOC: lambda ty, ops, name: MallocInst(ty, *ops, name=name),
    Opcode.ALLOCA: lambda ty, ops, name: AllocaInst(ty, *ops, name=name),
    Opcode.FREE: lambda ty, ops, name: FreeInst(ops[0]),
    Opcode.LOAD: lambda ty, ops, name: LoadInst(ops[0], name),
    Opcode.STORE: lambda ty, ops, name: StoreInst(ops[0], ops[1]),
    Opcode.GETELEMENTPTR: lambda ty, ops, name: GetElementPtrInst(
        ops[0], ops[1:], name),
    Opcode.PHI: _phi,
    Opcode.CAST: lambda ty, ops, name: CastInst(ops[0], ty, name),
    Opcode.CALL: lambda ty, ops, name: CallInst(ops[0], ops[1:], name),
    Opcode.VAARG: lambda ty, ops, name: VAArgInst(ops[0], ty, name),
}


def build(opcode: Opcode, carried_type: Type, operands: Sequence[Value],
          name: str = "") -> Instruction:
    """Make an instruction from its opcode and its operand list, in
    ``inst.operands`` order (branch targets and phi predecessors are
    blocks in that list).

    The one place an instruction is rebuilt rather than written by a
    front-end: :func:`repro.core.record.rebuild_body` calls it for the
    bytecode reader, the text parser and the cloner, and
    ``profile/tracer.py`` calls it directly.
    ``carried_type`` is :attr:`Instruction.carried_type`, the one type
    the operands cannot imply (read by alloca/malloc, cast, phi and
    vaarg).
    """
    make = _MAKERS.get(opcode)
    if make is not None:
        return make(carried_type, operands, name)
    cls = ShiftInst if opcode in (Opcode.SHL, Opcode.SHR) else BinaryOperator
    return cls(opcode, operands[0], operands[1], name)
