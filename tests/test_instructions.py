"""Unit tests for the 31-opcode instruction set."""

import pytest

from repro.core import types
from repro.core.basicblock import BasicBlock
from repro.core.instructions import (
    AllocaInst, BinaryOperator, BranchInst, CallInst, CastInst, FreeInst,
    GetElementPtrInst, InvokeInst, LoadInst, MallocInst, Opcode, PhiNode,
    ReturnInst, ShiftInst, StoreInst, SwitchInst, UnwindInst, VAArgInst,
    gep_result_type,
)
from repro.core.module import Function, Module
from repro.core.values import ConstantBool, ConstantInt, UndefValue


INT = types.INT
I1 = ConstantInt(INT, 1)
I2 = ConstantInt(INT, 2)


def _block():
    return BasicBlock("b")


class TestOpcodeSet:
    def test_exactly_31(self):
        assert len(Opcode) == 31

    def test_categories(self):
        from repro.core.instructions import (
            BINARY_OPCODES, COMPARISON_OPCODES, TERMINATOR_OPCODES,
        )

        assert len(TERMINATOR_OPCODES) == 5
        assert len(BINARY_OPCODES) == 14
        assert COMPARISON_OPCODES <= BINARY_OPCODES

    def test_hash_is_identity(self):
        """Members are singletons, so set lookups need not hash names."""
        assert all(hash(op) == object.__hash__(op) for op in Opcode)


class TestBinaryOperators:
    def test_arithmetic_result_type(self):
        inst = BinaryOperator(Opcode.ADD, I1, I2)
        assert inst.type is INT

    def test_comparison_produces_bool(self):
        inst = BinaryOperator(Opcode.SETLT, I1, I2)
        assert inst.type is types.BOOL

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            BinaryOperator(Opcode.ADD, I1, ConstantInt(types.LONG, 1))

    def test_logic_requires_integral(self):
        f = ConstantInt(INT, 0)
        BinaryOperator(Opcode.AND, f, f)  # fine
        from repro.core.values import ConstantFP

        pi = ConstantFP(types.DOUBLE, 3.14)
        with pytest.raises(TypeError):
            BinaryOperator(Opcode.XOR, pi, pi)

    def test_arithmetic_rejects_bool(self):
        t = ConstantBool(True)
        with pytest.raises(TypeError):
            BinaryOperator(Opcode.ADD, t, t)

    def test_commutativity_flags(self):
        assert BinaryOperator(Opcode.ADD, I1, I2).is_commutative
        assert not BinaryOperator(Opcode.SUB, I1, I2).is_commutative
        assert BinaryOperator(Opcode.SETEQ, I1, I2).is_commutative
        assert not BinaryOperator(Opcode.SETLT, I1, I2).is_commutative


class TestShifts:
    def test_amount_must_be_ubyte(self):
        amount = ConstantInt(types.UBYTE, 3)
        inst = ShiftInst(Opcode.SHL, I1, amount)
        assert inst.type is INT
        with pytest.raises(TypeError):
            ShiftInst(Opcode.SHL, I1, I2)

    def test_value_must_be_integer(self):
        amount = ConstantInt(types.UBYTE, 1)
        with pytest.raises(TypeError):
            ShiftInst(Opcode.SHR, ConstantBool(True), amount)


class TestTerminators:
    def test_return_successors_empty(self):
        assert ReturnInst(I1).successors == []
        assert ReturnInst(None).return_value is None

    def test_unconditional_branch(self):
        dest = _block()
        br = BranchInst(dest)
        assert not br.is_conditional
        assert br.successors == [dest]
        with pytest.raises(ValueError):
            br.condition

    def test_conditional_branch(self):
        t, f = _block(), _block()
        cond = ConstantBool(True)
        br = BranchInst(t, cond, f)
        assert br.is_conditional
        assert br.successors == [t, f]
        assert br.condition is cond

    def test_conditional_branch_type_check(self):
        with pytest.raises(TypeError):
            BranchInst(_block(), I1, _block())

    def test_switch(self):
        default, one = _block(), _block()
        sw = SwitchInst(I1, default, [(ConstantInt(INT, 1), one)])
        assert sw.default_dest is default
        assert sw.successors == [default, one]
        assert sw.cases[0][1] is one

    def test_switch_case_type_check(self):
        sw = SwitchInst(I1, _block())
        with pytest.raises(TypeError):
            sw.add_case(ConstantInt(types.LONG, 1), _block())

    def test_unwind_has_no_successors(self):
        assert UnwindInst().successors == []

    def test_invoke_structure(self):
        fn = Function(types.function(INT, [INT]), "callee")
        normal, unwind = _block(), _block()
        invoke = InvokeInst(fn, [I1], normal, unwind)
        assert invoke.callee is fn
        assert invoke.args == [I1]
        assert invoke.normal_dest is normal
        assert invoke.unwind_dest is unwind
        assert invoke.successors == [normal, unwind]
        assert invoke.is_terminator


class TestMemoryInstructions:
    def test_alloca_and_malloc_types(self):
        alloca = AllocaInst(INT)
        assert alloca.type is types.pointer(INT)
        malloc = MallocInst(types.struct([INT, INT]))
        assert malloc.type.pointee.is_struct

    def test_allocation_count_type(self):
        count = ConstantInt(types.UINT, 8)
        inst = MallocInst(INT, count)
        assert inst.array_size is count
        with pytest.raises(TypeError):
            AllocaInst(INT, I1)  # int, not uint

    def test_load_store_type_checks(self):
        slot = AllocaInst(INT)
        load = LoadInst(slot)
        assert load.type is INT
        StoreInst(I1, slot)  # ok
        with pytest.raises(TypeError):
            StoreInst(ConstantInt(types.LONG, 1), slot)
        with pytest.raises(TypeError):
            LoadInst(I1)

    def test_free_requires_pointer(self):
        with pytest.raises(TypeError):
            FreeInst(I1)

    def test_load_of_aggregate_rejected(self):
        slot = AllocaInst(types.struct([INT]))
        with pytest.raises(TypeError):
            LoadInst(slot)


class TestGetElementPtr:
    def setup_method(self):
        self.node = types.named_struct("gep_node", [INT, types.array(INT, 4)])
        self.ptr = AllocaInst(self.node)
        self.zero = ConstantInt(types.LONG, 0)

    def test_struct_field(self):
        gep = GetElementPtrInst(
            self.ptr, [self.zero, ConstantInt(types.UINT, 0)]
        )
        assert gep.type is types.pointer(INT)

    def test_into_array_field(self):
        gep = GetElementPtrInst(
            self.ptr,
            [self.zero, ConstantInt(types.UINT, 1), ConstantInt(types.LONG, 2)],
        )
        assert gep.type is types.pointer(INT)

    def test_struct_index_must_be_constant_uint(self):
        with pytest.raises(TypeError):
            gep_result_type(self.ptr.type, [self.zero, self.zero])

    def test_first_index_steps_over(self):
        gep = GetElementPtrInst(self.ptr, [ConstantInt(types.LONG, 3)])
        assert gep.type is self.ptr.type

    def test_no_indices_rejected(self):
        with pytest.raises(ValueError):
            gep_result_type(self.ptr.type, [])

    def test_scalar_indexing_rejected(self):
        scalar = AllocaInst(INT)
        with pytest.raises(TypeError):
            gep_result_type(scalar.type, [self.zero, self.zero])

    def test_zero_index_helpers(self):
        field0 = GetElementPtrInst(
            self.ptr, [self.zero, ConstantInt(types.UINT, 0)]
        )
        assert field0.has_all_constant_indices()
        assert field0.has_all_zero_indices()
        field1 = GetElementPtrInst(
            self.ptr, [self.zero, ConstantInt(types.UINT, 1)]
        )
        assert not field1.has_all_zero_indices()


class TestPhiAndCalls:
    def test_phi_incoming(self):
        phi = PhiNode(INT)
        b1, b2 = _block(), _block()
        phi.add_incoming(I1, b1)
        phi.add_incoming(I2, b2)
        assert phi.incoming == [(I1, b1), (I2, b2)]
        assert phi.incoming_for_block(b2) is I2
        assert phi.incoming_for_block(_block()) is None

    def test_phi_remove_incoming(self):
        phi = PhiNode(INT)
        b1, b2 = _block(), _block()
        phi.add_incoming(I1, b1)
        phi.add_incoming(I2, b2)
        phi.remove_incoming(b1)
        assert phi.incoming == [(I2, b2)]

    def test_phi_replace_incoming_block(self):
        phi = PhiNode(INT)
        old, new = _block(), _block()
        phi.add_incoming(I1, old)
        phi.replace_incoming_block(old, new)
        assert phi.incoming == [(I1, new)]

    def test_phi_type_check(self):
        phi = PhiNode(INT)
        with pytest.raises(TypeError):
            phi.add_incoming(ConstantInt(types.LONG, 0), _block())
        with pytest.raises(TypeError):
            PhiNode(types.VOID)

    def test_call_arity_and_types(self):
        fn = Function(types.function(INT, [INT, INT]), "f")
        call = CallInst(fn, [I1, I2])
        assert call.callee is fn
        assert call.type is INT
        with pytest.raises(TypeError):
            CallInst(fn, [I1])
        with pytest.raises(TypeError):
            CallInst(fn, [I1, ConstantBool(True)])

    def test_vararg_call(self):
        fn = Function(types.function(INT, [INT], is_vararg=True), "v")
        CallInst(fn, [I1, I2, I1])  # extra args allowed
        with pytest.raises(TypeError):
            CallInst(fn, [])

    def test_call_requires_function_pointer(self):
        with pytest.raises(TypeError):
            CallInst(I1, [])

    def test_cast_restrictions(self):
        from repro.core.values import ConstantFP

        CastInst(I1, types.LONG)
        CastInst(AllocaInst(INT), types.LONG)
        pi = ConstantFP(types.DOUBLE, 3.0)
        with pytest.raises(TypeError):
            CastInst(pi, types.pointer(INT))
        with pytest.raises(TypeError):
            CastInst(AllocaInst(INT), types.DOUBLE)

    def test_vaarg_valist_shape(self):
        valist = AllocaInst(types.pointer(types.SBYTE))
        inst = VAArgInst(valist, INT)
        assert inst.type is INT
        with pytest.raises(TypeError):
            VAArgInst(AllocaInst(INT), INT)


class TestSideEffects:
    def test_pure_ops_removable(self):
        assert not BinaryOperator(Opcode.ADD, I1, I2).has_side_effects()
        assert not LoadInst(AllocaInst(INT)).has_side_effects()
        assert not MallocInst(INT).has_side_effects()

    def test_effectful_ops(self):
        slot = AllocaInst(INT)
        assert StoreInst(I1, slot).has_side_effects()
        assert FreeInst(slot).has_side_effects()
        assert ReturnInst(None).has_side_effects()

    def test_call_purity_flag(self):
        fn = Function(types.function(INT, []), "f")
        call = CallInst(fn, [])
        assert call.has_side_effects()
        fn.is_pure = True
        assert not CallInst(fn, []).has_side_effects()

    def test_erase_from_parent(self):
        module = Module("m")
        fn = module.new_function(types.function(types.VOID, []), "f")
        block = fn.append_block("entry")
        inst = block.append(BinaryOperator(Opcode.ADD, I1, I2))
        block.append(ReturnInst(None))
        inst.erase_from_parent()
        assert inst.parent is None
        assert len(block.instructions) == 1
