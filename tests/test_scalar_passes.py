"""Tests for the scalar optimization passes: SimplifyCFG, DCE/ADCE,
constant propagation through the -O pipelines, GVN, InstCombine,
Reassociate, LICM, SROA, tail recursion elimination, and reg2mem."""

import pytest

from repro.core import (
    parse_function, parse_module, print_function, types, verify_function,
    verify_module,
)
from repro.core.instructions import (
    AllocaInst, BinaryOperator, CallInst, LoadInst, Opcode, PhiNode,
)
from repro.core.record import snapshot_function
from repro.core.values import ConstantInt
from repro.driver.pipelines import standard_pipeline
from repro.execution import Interpreter
from repro.frontend import compile_source
from repro.transforms import (
    AggressiveDCE, DeadCodeElimination, GVN, InstCombine, LICM,
    PromoteMem2Reg, Reassociate, ScalarReplAggregates, SimplifyCFG,
    TailRecursionElimination,
)
from repro.transforms.passmanager import restore_function
from repro.transforms.reg2mem import DemoteRegisters


def _ops(fn, opcode):
    return [i for i in fn.instructions() if i.opcode == opcode]


class TestSimplifyCFG:
    def test_removes_unreachable(self):
        fn = parse_function("""
int %f() {
entry:
  ret int 1
dead:
  ret int 2
}
""")
        assert SimplifyCFG().run_on_function(fn)
        assert len(fn.blocks) == 1

    def test_folds_constant_branch(self):
        fn = parse_function("""
int %f() {
entry:
  br bool true, label %yes, label %no
yes:
  ret int 1
no:
  ret int 2
}
""")
        SimplifyCFG().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f") == 1
        assert len(fn.blocks) == 1  # merged and pruned

    def test_merges_chain(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  br label %middle
middle:
  %y = add int %x, 1
  br label %end
end:
  ret int %y
}
""")
        SimplifyCFG().run_on_function(fn)
        verify_function(fn)
        assert len(fn.blocks) == 1

    def test_single_incoming_phi_folded(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  br label %next
next:
  %p = phi int [ %x, %entry ]
  ret int %p
}
""")
        SimplifyCFG().run_on_function(fn)
        verify_function(fn)
        assert not list(fn.entry_block.phis())

    def test_phi_of_equal_scalar_constants_folded(self):
        """The parser makes a fresh constant per literal: two ``7``s are
        one value, ``0.0`` and ``-0.0`` are two."""
        fn = parse_function("""
double %f(bool %c) {
entry:
  br bool %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  %i = phi int [ 7, %l ], [ 7, %r ]
  %z = phi double [ 0.0, %l ], [ -0.0, %r ]
  %d = cast int %i to double
  %s = add double %z, %d
  ret double %s
}
""")
        assert SimplifyCFG().run_on_function(fn)
        verify_function(fn)
        assert [phi.name for block in fn.blocks
                for phi in block.phis()] == ["z"]
        assert [Interpreter(fn.parent).run("f", [c]) for c in (1, 0)] \
            == [7.0, 7.0]

    def test_constant_switch_folded(self):
        fn = parse_function("""
int %f() {
entry:
  switch int 2, label %d [ int 1, label %one int 2, label %two ]
one:
  ret int 10
two:
  ret int 20
d:
  ret int 0
}
""")
        SimplifyCFG().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f") == 20

    def test_preserves_semantics_on_diamond(self):
        source = """
int %f(int %x) {
entry:
  %c = setlt int %x, 10
  br bool %c, label %small, label %big
small:
  %a = add int %x, 100
  br label %join
big:
  %b = mul int %x, 2
  br label %join
join:
  %r = phi int [ %a, %small ], [ %b, %big ]
  ret int %r
}
"""
        fn = parse_function(source)
        before_small = Interpreter(fn.parent).run("f", [3])
        before_big = Interpreter(fn.parent).run("f", [30])
        SimplifyCFG().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f", [3]) == before_small == 103
        assert Interpreter(fn.parent).run("f", [30]) == before_big == 60


class TestDCE:
    def test_unused_arithmetic_removed(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %dead = mul int %x, 10
  %dead2 = add int %dead, 1
  ret int %x
}
""")
        assert DeadCodeElimination().run_on_function(fn)
        assert fn.instruction_count() == 1

    def test_stores_kept(self):
        fn = parse_function("""
void %f(int* %p) {
entry:
  store int 1, int* %p
  ret void
}
""")
        assert not DeadCodeElimination().run_on_function(fn)

    def test_unused_malloc_removed(self):
        fn = parse_function("""
void %f() {
entry:
  %leak = malloc int
  ret void
}
""")
        assert DeadCodeElimination().run_on_function(fn)

    def test_adce_kills_dead_phi_cycle(self):
        fn = parse_function("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %dead = phi int [ 0, %entry ], [ %dead.next, %loop ]
  %live = phi int [ 0, %entry ], [ %live.next, %loop ]
  %dead.next = add int %dead, 3
  %live.next = add int %live, 1
  %c = setlt int %live.next, %n
  br bool %c, label %loop, label %out
out:
  ret int %live.next
}
""")
        assert AggressiveDCE().run_on_function(fn)
        verify_function(fn)
        names = [i.name for i in fn.instructions()]
        assert "dead.next" not in names and "live.next" in names
        assert Interpreter(fn.parent).run("f", [5]) == 5


#: Constant-propagation programs and what the -O pipelines leave of
#: each: a constant (the whole body is ``ret`` of it) or the phis that
#: survive.  No pass of its own folds them: simplifycfg merges a phi of
#: equal constants and folds constant branches, instcombine folds the
#: arithmetic, and the unreachable arm is swept before anything merges
#: it.  Two globals and two signed zeros are different values.  Each
#: program runs to the same answers before and after.
_SWITCH_ON_BOOL = """
int %f() {{
entry:
  %sel = xor bool {}, false
  switch bool %sel, label %d [ bool true, label %t ]
d:
  br label %join
t:
  br label %join
join:
  %p = phi int [ 1, %d ], [ 2, %t ]
  ret int %p
}}
"""
PIPELINE_FOLDS = {
    "chain": ("""
int %f() {
entry:
  %a = add int 2, 3
  %b = mul int %a, 4
  %c = sub int %b, 1
  ret int %c
}
""", [((), 19)], 19),
    "through-branches": ("""
int %f() {
entry:
  %c = setlt int 3, 10
  br bool %c, label %yes, label %no
yes:
  ret int 1
no:
  ret int 2
}
""", [((), 1)], 1),
    "equal-constant-phi": ("""
int %f(bool %c) {
entry:
  br bool %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi int [ 7, %a ], [ 7, %b ]
  %r = add int %p, 1
  ret int %r
}
""", [((1,), 8), ((0,), 8)], 8),
    "unreachable-arm": ("""
int %f(int %x) {
entry:
  br bool true, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi int [ 5, %a ], [ %x, %b ]
  ret int %p
}
""", [((9,), 5)], 5),
    "no-fold": ("""
int %f(int %x) {
entry:
  %double = add int %x, %x
  ret int %double
}
""", [((21,), 42)], []),
    # The back edge only ever carries the same constant, so the phi
    # folds to it; the counter beside it does not.
    "loop-carried-constant": ("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %k = phi int [ 4, %entry ], [ %k2, %loop ]
  %i = phi int [ 0, %entry ], [ %i2, %loop ]
  %k2 = mul int %k, 1
  %i2 = add int %i, 1
  %done = setge int %i2, %n
  br bool %done, label %exit, label %loop
exit:
  %r = add int %k, %i
  ret int %r
}
""", [((3,), 6)], ["i"]),
    "constant-switch": ("""
int %f(int %x) {
entry:
  %sel = add int 1, 1
  switch int %sel, label %other [ int 1, label %one  int 2, label %two ]
one:
  br label %join
two:
  br label %join
other:
  br label %join
join:
  %p = phi int [ %x, %one ], [ 20, %two ], [ %x, %other ]
  ret int %p
}
""", [((5,), 20)], 20),
    # A switch may select on a bool; its operands are not a branch's
    # (default first, then case value / destination).
    "switch-on-true": (_SWITCH_ON_BOOL.format("true"), [((), 2)], 2),
    "switch-on-false": (_SWITCH_ON_BOOL.format("false"), [((), 1)], 1),
    "distinct-globals": ("""
%a = global int 1
%b = global int 2

int %f(bool %c) {
entry:
  br bool %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  %p = phi int* [ %a, %l ], [ %b, %r ]
  %v = load int* %p
  ret int %v
}
""", [((1,), 1), ((0,), 2)], ["p"]),
    "signed-zeros": ("""
double %f(bool %c) {
entry:
  br bool %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  %p = phi double [ 0.0, %l ], [ -0.0, %r ]
  %q = phi double [ 1.5, %l ], [ 1.5, %r ]
  %s = add double %p, %q
  ret double %s
}
""", [((1,), 1.5), ((0,), 1.5)], ["p"]),
}


class TestPipelineFolds:
    @pytest.mark.parametrize("level", [2, 1], ids=["O2", "O1"])
    @pytest.mark.parametrize("name", list(PIPELINE_FOLDS))
    def test_folds(self, name, level):
        source, runs, folded = PIPELINE_FOLDS[name]
        module = parse_module(source)
        answers = [answer for _, answer in runs]
        assert [Interpreter(module).run("f", list(args))
                for args, _ in runs] == answers
        standard_pipeline(level).run(module)
        verify_module(module)
        fn = module.functions["f"]
        if isinstance(folded, list):
            assert [phi.name for block in fn.blocks
                    for phi in block.phis()] == folded
        else:
            assert fn.instruction_count() == 1
            assert fn.entry_block.terminator.return_value.value == folded
        assert [Interpreter(module).run("f", list(args))
                for args, _ in runs] == answers


class TestGVN:
    def test_redundant_expression(self):
        fn = parse_function("""
int %f(int %a, int %b) {
entry:
  %x = add int %a, %b
  %y = add int %a, %b
  %z = add int %x, %y
  ret int %z
}
""")
        assert GVN().run_on_function(fn)
        adds = _ops(fn, Opcode.ADD)
        assert len(adds) == 2  # one a+b, one x+x

    def test_commutative_match(self):
        fn = parse_function("""
int %f(int %a, int %b) {
entry:
  %x = add int %a, %b
  %y = add int %b, %a
  %z = sub int %x, %y
  ret int %z
}
""")
        GVN().run_on_function(fn)
        assert Interpreter(fn.parent).run("f", [10, 5]) == 0
        assert len(_ops(fn, Opcode.ADD)) == 1

    def test_noncommutative_not_matched(self):
        fn = parse_function("""
int %f(int %a, int %b) {
entry:
  %x = sub int %a, %b
  %y = sub int %b, %a
  %z = add int %x, %y
  ret int %z
}
""")
        GVN().run_on_function(fn)
        assert len(_ops(fn, Opcode.SUB)) == 2

    def test_across_dominating_block(self):
        fn = parse_function("""
int %f(int %a, bool %c) {
entry:
  %x = mul int %a, 3
  br bool %c, label %then, label %exit
then:
  %y = mul int %a, 3
  ret int %y
exit:
  ret int %x
}
""")
        GVN().run_on_function(fn)
        assert len(_ops(fn, Opcode.MUL)) == 1

    def test_store_load_forwarding(self):
        fn = parse_function("""
int %f(int* %p, int %v) {
entry:
  store int %v, int* %p
  %r = load int* %p
  ret int %r
}
""")
        GVN().run_on_function(fn)
        assert not _ops(fn, Opcode.LOAD)
        assert fn.entry_block.terminator.return_value is fn.args[1]

    def test_load_past_nonaliasing_store(self):
        fn = parse_function("""
int %f(int %v) {
entry:
  %a = alloca int
  %b = alloca int
  store int %v, int* %a
  store int 9, int* %b
  %r = load int* %a
  ret int %r
}
""")
        GVN().run_on_function(fn)
        assert not _ops(fn, Opcode.LOAD)

    def test_load_not_forwarded_past_call(self):
        fn = parse_function("""
declare void %mystery()
int %f(int* %p, int %v) {
entry:
  store int %v, int* %p
  call void %mystery()
  %r = load int* %p
  ret int %r
}
""")
        GVN().run_on_function(fn)
        assert len(_ops(fn, Opcode.LOAD)) == 1

    def test_redundant_gep(self):
        fn = parse_function("""
int %f({ int, int }* %p) {
entry:
  %g1 = getelementptr { int, int }* %p, long 0, uint 1
  %g2 = getelementptr { int, int }* %p, long 0, uint 1
  %a = load int* %g1
  %b = load int* %g2
  %s = add int %a, %b
  ret int %s
}
""")
        GVN().run_on_function(fn)
        assert len(_ops(fn, Opcode.GETELEMENTPTR)) == 1
        # And the second load collapses onto the first.
        assert len(_ops(fn, Opcode.LOAD)) == 1


class TestInstCombine:
    @pytest.mark.parametrize("expr,expected", [
        ("add int %x, 0", "%x"),
        ("sub int %x, 0", "%x"),
        ("mul int %x, 1", "%x"),
        ("div int %x, 1", "%x"),
        ("and int %x, -1", "%x"),
        ("or int %x, 0", "%x"),
        ("xor int %x, 0", "%x"),
    ])
    def test_identities(self, expr, expected):
        fn = parse_function(f"""
int %f(int %x) {{
entry:
  %r = {expr}
  ret int %r
}}
""")
        InstCombine().run_on_function(fn)
        ret = fn.entry_block.terminator
        assert ret.return_value is fn.args[0]

    def test_x_minus_x(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %r = sub int %x, %x
  ret int %r
}
""")
        InstCombine().run_on_function(fn)
        assert fn.entry_block.terminator.return_value.value == 0

    def test_xor_self(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %r = xor int %x, %x
  ret int %r
}
""")
        InstCombine().run_on_function(fn)
        assert fn.entry_block.terminator.return_value.value == 0

    def test_constant_moves_right(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %r = add int 5, %x
  %r2 = add int %r, 2
  ret int %r2
}
""")
        InstCombine().run_on_function(fn)
        verify_function(fn)
        first = fn.entry_block.instructions[0]
        assert isinstance(first.operands[1], ConstantInt)

    def test_compare_self(self):
        fn = parse_function("""
bool %f(int %x) {
entry:
  %r = seteq int %x, %x
  ret bool %r
}
""")
        InstCombine().run_on_function(fn)
        from repro.core.values import ConstantBool

        assert isinstance(fn.entry_block.terminator.return_value, ConstantBool)

    def test_fp_compare_self_kept(self):
        """NaN != NaN: x == x is *not* always true for floats."""
        fn = parse_function("""
bool %f(double %x) {
entry:
  %r = seteq double %x, %x
  ret bool %r
}
""")
        InstCombine().run_on_function(fn)
        assert fn.instruction_count() == 2  # compare survives

    def test_gep_zero_folds(self):
        fn = parse_function("""
int %f(int* %p) {
entry:
  %g = getelementptr int* %p, long 0
  %v = load int* %g
  ret int %v
}
""")
        InstCombine().run_on_function(fn)
        assert not _ops(fn, Opcode.GETELEMENTPTR)

    def test_shift_zero(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %r = shl int %x, ubyte 0
  ret int %r
}
""")
        InstCombine().run_on_function(fn)
        assert fn.entry_block.terminator.return_value is fn.args[0]


class TestReassociate:
    def test_constants_gather(self):
        fn = parse_function("""
int %f(int %a, int %b) {
entry:
  %t1 = add int %a, 4
  %t2 = add int %b, 3
  %t3 = add int %t1, %t2
  ret int %t3
}
""")
        Reassociate().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f", [10, 20]) == 37
        # The two constants fold into one add of 7.
        constants = [
            op.value for i in fn.instructions()
            for op in i.operands if isinstance(op, ConstantInt)
        ]
        assert 7 in constants

    def test_idempotent(self):
        fn = parse_function("""
int %f(int %a, int %b) {
entry:
  %t1 = add int %a, 4
  %t2 = add int %b, 3
  %t3 = add int %t1, %t2
  ret int %t3
}
""")
        Reassociate().run_on_function(fn)
        assert not Reassociate().run_on_function(fn)

    def test_fp_untouched(self):
        fn = parse_function("""
double %f(double %a, double %b) {
entry:
  %t1 = add double %a, 4.0
  %t2 = add double %b, 3.0
  %t3 = add double %t1, %t2
  ret double %t3
}
""")
        assert not Reassociate().run_on_function(fn)


class TestLICM:
    def test_invariant_hoisted(self):
        fn = parse_function("""
int %f(int %n, int %k) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %acc = phi int [ 0, %entry ], [ %acc2, %loop ]
  %inv = mul int %k, 7
  %acc2 = add int %acc, %inv
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %acc2
}
""")
        expected = Interpreter(fn.parent).run("f", [5, 3])
        assert LICM().run_on_function(fn)
        verify_function(fn)
        loop_block = next(b for b in fn.blocks if b.name == "loop")
        assert not any(i.opcode == Opcode.MUL for i in loop_block.instructions)
        assert Interpreter(fn.parent).run("f", [5, 3]) == expected == 105

    def test_variant_not_hoisted(self):
        fn = parse_function("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %sq = mul int %i, %i
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %sq
}
""")
        LICM().run_on_function(fn)
        loop_block = next(b for b in fn.blocks if b.name == "loop")
        assert any(i.opcode == Opcode.MUL for i in loop_block.instructions)

    def test_division_not_speculated(self):
        """Hoisting a division above its zero-guard would inject a trap."""
        fn = parse_function("""
int %f(int %n, int %d) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %skip ]
  %safe = setne int %d, 0
  br bool %safe, label %divide, label %skip
divide:
  %q = div int 100, %d
  br label %skip
skip:
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %next
}
""")
        LICM().run_on_function(fn)
        verify_function(fn)
        # d == 0 must still run without a fault.
        assert Interpreter(fn.parent).run("f", [3, 0]) == 3

    def test_preheader_creation_reports_change(self):
        """Regression: LICM used to create a preheader (new block, phi
        and branch rewiring) yet return False when nothing hoisted —
        a changed-flag lie that verify_each now catches.  The CFG edit
        alone must count as a change, and a second run must quiesce."""
        fn = parse_function("""
int %f(int %n, bool %p) {
entry:
  br bool %p, label %a, label %b
a:
  br label %loop
b:
  br label %loop
loop:
  %i = phi int [ 0, %a ], [ 1, %b ], [ %next, %loop ]
  %sq = mul int %i, %i
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %sq
}
""")
        expected = Interpreter(fn.parent).run("f", [5, 1])
        before = len(fn.blocks)
        assert LICM().run_on_function(fn) is True
        verify_function(fn)
        assert len(fn.blocks) == before + 1  # the preheader
        assert Interpreter(fn.parent).run("f", [5, 1]) == expected
        # Quiescent now: the preheader exists, nothing hoists.
        assert LICM().run_on_function(fn) is False

    def test_created_preheader_joins_enclosing_loops(self):
        """Regression: the preheader LICM creates for the inner loop was
        not a block of the outer loop, so %t, hoisted into it, looked
        defined outside the outer loop and its user %u was hoisted into
        entry, above its definition."""
        fn = parse_function("""
int %f(int %n, int %m) {
entry:
  br label %outer
outer:
  %i = phi int [ 0, %entry ], [ %i2, %latch ]
  %acc = phi int [ 0, %entry ], [ %acc2, %latch ]
  %c = setlt int %i, %n
  br bool %c, label %inner, label %exit
inner:
  %j = phi int [ 0, %outer ], [ %j2, %inner ]
  %t = add int %i, 7
  %j2 = add int %j, 1
  %d = setlt int %j2, %m
  br bool %d, label %inner, label %latch
latch:
  %u = mul int %t, 2
  %acc2 = add int %acc, %u
  %i2 = add int %i, 1
  br label %outer
exit:
  ret int %acc
}
""")
        expected = Interpreter(fn.parent).run("f", [3, 2])
        assert LICM().run_on_function(fn)
        verify_function(fn)
        entry = fn.blocks[0]
        assert not any(i.name == "u" for i in entry.instructions)
        assert Interpreter(fn.parent).run("f", [3, 2]) == expected == 48


class TestSROA:
    def test_struct_split_then_promoted(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %pair = alloca { int, int }
  %a = getelementptr { int, int }* %pair, long 0, uint 0
  %b = getelementptr { int, int }* %pair, long 0, uint 1
  store int %x, int* %a
  store int 10, int* %b
  %va = load int* %a
  %vb = load int* %b
  %sum = add int %va, %vb
  ret int %sum
}
""")
        assert ScalarReplAggregates().run_on_function(fn)
        verify_function(fn)
        allocas = [i for i in fn.instructions() if isinstance(i, AllocaInst)]
        assert all(a.allocated_type is types.INT for a in allocas)
        PromoteMem2Reg().run_on_function(fn)
        assert not [i for i in fn.instructions() if isinstance(i, AllocaInst)]
        assert Interpreter(fn.parent).run("f", [5]) == 15

    def test_small_array_split(self):
        fn = parse_function("""
int %f() {
entry:
  %arr = alloca [3 x int]
  %p0 = getelementptr [3 x int]* %arr, long 0, long 0
  store int 7, int* %p0
  %v = load int* %p0
  ret int %v
}
""")
        assert ScalarReplAggregates().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f") == 7

    def test_variable_index_blocks_split(self):
        fn = parse_function("""
int %f(long %i) {
entry:
  %arr = alloca [3 x int]
  %p = getelementptr [3 x int]* %arr, long 0, long %i
  %v = load int* %p
  ret int %v
}
""")
        assert not ScalarReplAggregates().run_on_function(fn)

    def test_escaping_aggregate_kept(self):
        fn = parse_function("""
declare void %take({ int, int }* %p)
void %f() {
entry:
  %pair = alloca { int, int }
  call void %take({ int, int }* %pair)
  ret void
}
""")
        assert not ScalarReplAggregates().run_on_function(fn)

    def test_nested_struct_iterates(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %nested = alloca { { int, int }, int }
  %inner = getelementptr { { int, int }, int }* %nested, long 0, uint 0, uint 1
  store int %x, int* %inner
  %v = load int* %inner
  ret int %v
}
""")
        assert ScalarReplAggregates().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f", [9]) == 9


class TestTailRecursion:
    def test_accumulator_style(self):
        fn = parse_function("""
int %sum(int %n, int %acc) {
entry:
  %done = seteq int %n, 0
  br bool %done, label %base, label %rec
base:
  ret int %acc
rec:
  %n1 = sub int %n, 1
  %acc1 = add int %acc, %n
  %r = call int %sum(int %n1, int %acc1)
  ret int %r
}
""")
        expected = Interpreter(fn.parent).run("sum", [10, 0])
        assert TailRecursionElimination().run_on_function(fn)
        verify_function(fn)
        assert not [i for i in fn.instructions() if isinstance(i, CallInst)]
        assert Interpreter(fn.parent).run("sum", [10, 0]) == expected == 55

    def test_deep_recursion_flattened(self):
        """After the transform the function iterates, so depths far past
        any recursion budget work."""
        fn = parse_function("""
int %count(int %n, int %acc) {
entry:
  %done = seteq int %n, 0
  br bool %done, label %base, label %rec
base:
  ret int %acc
rec:
  %n1 = sub int %n, 1
  %acc1 = add int %acc, 1
  %r = call int %count(int %n1, int %acc1)
  ret int %r
}
""")
        TailRecursionElimination().run_on_function(fn)
        assert Interpreter(fn.parent).run("count", [100000, 0]) == 100000

    def test_non_tail_call_untouched(self):
        fn = parse_function("""
int %fib(int %n) {
entry:
  %small = setlt int %n, 2
  br bool %small, label %base, label %rec
base:
  ret int %n
rec:
  %n1 = sub int %n, 1
  %a = call int %fib(int %n1)
  %n2 = sub int %n, 2
  %b = call int %fib(int %n2)
  %s = add int %a, %b
  ret int %s
}
""")
        assert not TailRecursionElimination().run_on_function(fn)


class TestReg2Mem:
    def test_round_trip_with_mem2reg(self):
        fn = parse_function("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %i
}
""")
        expected = Interpreter(fn.parent).run("f", [7])
        assert DemoteRegisters().run_on_function(fn)
        verify_function(fn)
        assert not [i for i in fn.instructions() if isinstance(i, PhiNode)]
        assert Interpreter(fn.parent).run("f", [7]) == expected
        PromoteMem2Reg().run_on_function(fn)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f", [7]) == expected

    def test_no_cross_block_values_remain(self):
        fn = parse_function("""
int %f(bool %c, int %x) {
entry:
  %v = mul int %x, 3
  br bool %c, label %a, label %b
a:
  %r1 = add int %v, 1
  ret int %r1
b:
  %r2 = add int %v, 2
  ret int %r2
}
""")
        DemoteRegisters().run_on_function(fn)
        verify_function(fn)
        for block in fn.blocks:
            for inst in block.instructions:
                for use in inst.uses:
                    user_parent = use.user.parent
                    if not isinstance(inst, AllocaInst):
                        assert user_parent is block


class TestLICMModRef:
    """Load hoisting past loop writes the alias analyses disambiguate."""

    def test_load_hoisted_past_disjoint_store(self):
        fn = parse_function("""
int %f(int %n) {
entry:
  %a = alloca int
  %b = alloca int
  store int 5, int* %a
  store int 0, int* %b
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %v = load int* %a
  %acc = add int %i, %v
  store int %acc, int* %b
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %acc
}
""")
        expected = Interpreter(fn.parent).run("f", [4])
        licm = LICM()
        assert licm.run_on_function(fn)
        verify_function(fn)
        loop_block = next(b for b in fn.blocks if b.name == "loop")
        assert not any(isinstance(i, LoadInst)
                       for i in loop_block.instructions)
        assert licm.counters["loads-hoisted-past-writes"] == 1
        assert Interpreter(fn.parent).run("f", [4]) == expected == 8

    def test_load_not_hoisted_past_clobbering_store(self):
        fn = parse_function("""
int %f(int %n) {
entry:
  %a = alloca int
  store int 5, int* %a
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %v = load int* %a
  %acc = add int %i, %v
  store int %acc, int* %a
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %out
out:
  ret int %acc
}
""")
        LICM().run_on_function(fn)
        verify_function(fn)
        loop_block = next(b for b in fn.blocks if b.name == "loop")
        assert any(isinstance(i, LoadInst) for i in loop_block.instructions)

    def test_load_hoisted_past_call_via_modref(self):
        module = compile_source("""
static int counter = 0;
static int source = 41;

static void bump() { counter = counter + 1; }

int f(int n) {
  int acc = 0;
  int i = 0;
  do {
    acc = acc + source;
    bump();
    i = i + 1;
  } while (i < n);
  return acc + counter;
}
""", "m")
        fn = module.functions["f"]
        PromoteMem2Reg().run_on_function(fn)
        expected = Interpreter(module).run("f", [3])
        licm = LICM()
        licm.run_on_function(fn)
        verify_function(fn)
        # The load of %source moves out (bump only writes %counter);
        # the load of %counter stays in place.
        hoisted = licm.counters["loads-hoisted-past-writes"]
        assert hoisted >= 1
        assert Interpreter(module).run("f", [3]) == expected == 126

    def test_load_not_hoisted_past_call_that_writes_it(self):
        module = compile_source("""
static int cell = 41;

static void poke() { cell = cell + 1; }

int f(int n) {
  int acc = 0;
  int i = 0;
  do {
    acc = acc + cell;
    poke();
    i = i + 1;
  } while (i < n);
  return acc;
}
""", "m")
        fn = module.functions["f"]
        PromoteMem2Reg().run_on_function(fn)
        expected = Interpreter(module).run("f", [3])
        licm = LICM()
        licm.run_on_function(fn)
        verify_function(fn)
        assert licm.counters["loads-hoisted-past-writes"] == 0
        assert Interpreter(module).run("f", [3]) == expected == 126


class TestGVNDSA:
    """Redundant-load elimination across stores only DSA can refute."""

    def test_load_survives_store_through_phi_pointer(self):
        # The second load of %slot is redundant: the intervening store
        # goes through a phi of %other, which the syntactic alias walker
        # cannot resolve (MAY_ALIAS) but DSA proves disjoint.
        fn = parse_function("""
int %f(bool %c) {
entry:
  %slot = alloca int
  %other = alloca int
  store int 7, int* %slot
  store int 1, int* %other
  br bool %c, label %left, label %right
left:
  br label %body
right:
  br label %body
body:
  %q = phi int* [ %other, %left ], [ %other, %right ]
  %v1 = load int* %slot
  store int 9, int* %q
  %v2 = load int* %slot
  %sum = add int %v1, %v2
  ret int %sum
}
""")
        expected = Interpreter(fn.parent).run("f", [1])
        gvn = GVN()
        assert gvn.run_on_function(fn)
        verify_function(fn)
        body = next(b for b in fn.blocks if b.name == "body")
        assert sum(isinstance(i, LoadInst)
                   for i in body.instructions) == 1
        assert gvn.counters["loads-eliminated-via-dsa"] == 1
        assert Interpreter(fn.parent).run("f", [1]) == expected == 14

    # The phi carries %slot itself: DSA unifies the store target with
    # the loaded slot and the fact must die.
    MAY_CLOBBER = """
int %f(bool %c) {
entry:
  %slot = alloca int
  store int 7, int* %slot
  br bool %c, label %left, label %right
left:
  br label %body
right:
  br label %body
body:
  %q = phi int* [ %slot, %left ], [ %slot, %right ]
  %v1 = load int* %slot
  store int 9, int* %q
  %v2 = load int* %slot
  %sum = add int %v1, %v2
  ret int %sum
}
"""

    def test_load_evicted_when_store_may_clobber(self):
        fn = parse_function(self.MAY_CLOBBER)
        expected = Interpreter(fn.parent).run("f", [1])
        gvn = GVN()
        gvn.run_on_function(fn)
        verify_function(fn)
        body = next(b for b in fn.blocks if b.name == "body")
        assert sum(isinstance(i, LoadInst)
                   for i in body.instructions) == 2
        assert gvn.counters["loads-eliminated-via-dsa"] == 0
        assert Interpreter(fn.parent).run("f", [1]) == expected == 16

    def test_rolled_back_body_sees_fresh_dsa(self):
        """Regression: GVN kept its module's DSA across runs, so after a
        rollback rebuilt the body the same pass object judged values its
        DSA had never seen, gave them fresh nodes that look disjoint,
        and forwarded the load across the store that clobbers it."""
        fn = parse_function(self.MAY_CLOBBER)
        record = snapshot_function(fn)
        gvn = GVN()
        gvn.run_on_function(fn)
        first_body = list(fn.instructions())  # no id is reused
        restore_function(fn, record)
        gvn.run_on_function(fn)
        verify_function(fn)
        assert first_body
        assert Interpreter(fn.parent).run("f", [1]) == 16
