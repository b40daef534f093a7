"""Tests for the execution engine: memory model, control flow,
exceptions, varargs, externals, and fault behaviour."""

import pytest

from repro.core import parse_module, types
from repro.execution import (
    ExecutionError, Interpreter, MemoryFault, StepLimitExceeded,
    UndefinedFunction, UnhandledUnwind,
)
from repro.execution.memory import Memory
from repro.core.datalayout import DEFAULT


def _run(source: str, fn: str = "main", args=()):
    module = parse_module(source)
    interp = Interpreter(module)
    return interp.run(fn, args), interp


class TestArithmetic:
    def test_wrapping(self):
        result, _ = _run("""
int %main() {
entry:
  %big = mul int 2000000000, 2
  ret int %big
}
""")
        assert result == types.INT.wrap(4000000000)

    def test_signed_division(self):
        result, _ = _run("""
int %main() {
entry:
  %q = div int -7, 2
  ret int %q
}
""")
        assert result == -3

    def test_division_by_zero_faults(self):
        module = parse_module("""
int %main(int %d) {
entry:
  %q = div int 10, %d
  ret int %q
}
""")
        from repro.core.constfold import ArithmeticFault

        with pytest.raises(ArithmeticFault):
            Interpreter(module).run("main", [0])

    def test_float_math(self):
        result, _ = _run("""
double %main() {
entry:
  %x = mul double 1.5, 4.0
  %y = add double %x, 0.25
  ret double %y
}
""")
        assert result == 6.25


class TestMemory:
    def test_alloca_store_load(self):
        result, _ = _run("""
int %main() {
entry:
  %slot = alloca int
  store int 77, int* %slot
  %v = load int* %slot
  ret int %v
}
""")
        assert result == 77

    def test_malloc_free(self):
        result, interp = _run("""
int %main() {
entry:
  %p = malloc int
  store int 5, int* %p
  %v = load int* %p
  free int* %p
  ret int %v
}
""")
        assert result == 5
        assert interp.memory.live_allocations("heap") == 0

    def test_null_dereference_faults(self):
        module = parse_module("""
int %main(int* %p) {
entry:
  %v = load int* %p
  ret int %v
}
""")
        with pytest.raises(MemoryFault, match="null"):
            Interpreter(module).run("main", [0])

    def test_out_of_bounds_faults(self):
        module = parse_module("""
int %main() {
entry:
  %arr = alloca [2 x int]
  %p = getelementptr [2 x int]* %arr, long 0, long 5
  %v = load int* %p
  ret int %v
}
""")
        with pytest.raises(MemoryFault, match="overruns"):
            Interpreter(module).run("main")

    def test_use_after_free_faults(self):
        module = parse_module("""
int %main() {
entry:
  %p = malloc int
  free int* %p
  %v = load int* %p
  ret int %v
}
""")
        with pytest.raises(MemoryFault, match="unmapped"):
            Interpreter(module).run("main")

    def test_double_free_faults(self):
        module = parse_module("""
void %main() {
entry:
  %p = malloc int
  free int* %p
  free int* %p
  ret void
}
""")
        with pytest.raises(MemoryFault):
            Interpreter(module).run("main")

    def test_stack_freed_on_return(self):
        _, interp = _run("""
internal void %frame() {
entry:
  %local = alloca [16 x int]
  ret void
}
void %main() {
entry:
  call void %frame()
  call void %frame()
  ret void
}
""")
        assert interp.memory.live_allocations("stack") == 0

    def test_write_to_constant_faults(self):
        module = parse_module("""
%table = internal constant [2 x int] [ int 1, int 2 ]
void %main() {
entry:
  %p = getelementptr [2 x int]* %table, long 0, long 0
  store int 9, int* %p
  ret void
}
""")
        with pytest.raises(MemoryFault, match="constant"):
            Interpreter(module).run("main")

    def test_pointer_int_round_trip(self):
        result, _ = _run("""
int %main() {
entry:
  %p = malloc int
  store int 31, int* %p
  %as_long = cast int* %p to long
  %back = cast long %as_long to int*
  %v = load int* %back
  ret int %v
}
""")
        assert result == 31

    def test_byte_punning(self):
        """Store an int, read its low byte through a char view —
        little-endian, like the flat memory model promises."""
        result, _ = _run("""
int %main() {
entry:
  %slot = alloca int
  store int 258, int* %slot
  %raw = cast int* %slot to sbyte*
  %low = load sbyte* %raw
  %v = cast sbyte %low to int
  ret int %v
}
""")
        assert result == 2

    def test_struct_field_layout(self):
        result, _ = _run("""
%pair = type { sbyte, int }
int %main() {
entry:
  %p = malloc %pair
  %f1 = getelementptr %pair* %p, long 0, uint 1
  store int 12, int* %f1
  %v = load int* %f1
  ret int %v
}
""")
        assert result == 12


class TestGlobals:
    def test_initialized_global(self):
        result, _ = _run("""
%counter = global int 41
int %main() {
entry:
  %v = load int* %counter
  %v1 = add int %v, 1
  store int %v1, int* %counter
  %w = load int* %counter
  ret int %w
}
""")
        assert result == 42

    def test_global_array_and_string(self):
        result, _ = _run("""
%text = internal constant [3 x sbyte] c"ab\\00"
int %main() {
entry:
  %p = getelementptr [3 x sbyte]* %text, long 0, long 1
  %c = load sbyte* %p
  %v = cast sbyte %c to int
  ret int %v
}
""")
        assert result == ord("b")

    def test_global_pointing_to_global(self):
        result, _ = _run("""
%target = global int 99
%indirect = global int* getelementptr (int* %target, long 0)
int %main() {
entry:
  %p = load int** %indirect
  %v = load int* %p
  ret int %v
}
""")
        assert result == 99


class TestControlFlow:
    def test_switch_dispatch(self):
        module = parse_module("""
int %main(int %x) {
entry:
  switch int %x, label %other [ int 1, label %one int 5, label %five ]
one:
  ret int 100
five:
  ret int 500
other:
  ret int -1
}
""")
        interp = Interpreter(module)
        assert interp.run("main", [1]) == 100
        assert Interpreter(module).run("main", [5]) == 500
        assert Interpreter(module).run("main", [9]) == -1

    def test_phi_swap(self):
        """Phis read their inputs simultaneously: the classic swap."""
        result, _ = _run("""
int %main() {
entry:
  br label %loop
loop:
  %a = phi int [ 1, %entry ], [ %b, %loop ]
  %b = phi int [ 2, %entry ], [ %a, %loop ]
  %i = phi int [ 0, %entry ], [ %i1, %loop ]
  %i1 = add int %i, 1
  %go = setlt int %i1, 3
  br bool %go, label %loop, label %done
done:
  %r = mul int %a, 10
  %r2 = add int %r, %b
  ret int %r2
}
""")
        # Two swaps happen on the two back edges: a=1, b=2 -> 12.  A
        # (buggy) sequential phi evaluation would give a=b and 22.
        assert result == 12

    def test_indirect_call(self):
        result, _ = _run("""
internal int %double(int %x) {
entry:
  %r = mul int %x, 2
  ret int %r
}
%fp = global int (int)* %double
int %main() {
entry:
  %f = load int (int)** %fp
  %v = call int (int)* %f(int 8)
  ret int %v
}
""")
        assert result == 16

    def test_bad_function_pointer_faults(self):
        module = parse_module("""
int %main() {
entry:
  %p = cast long 12345 to int ()*
  %v = call int ()* %p()
  ret int %v
}
""")
        with pytest.raises(MemoryFault):
            Interpreter(module).run("main")

    def test_step_limit(self):
        module = parse_module("""
void %main() {
entry:
  br label %forever
forever:
  br label %forever
}
""")
        with pytest.raises(StepLimitExceeded):
            Interpreter(module, step_limit=1000).run("main")


class TestExceptions:
    SOURCE = """
internal void %thrower(int %x) {
entry:
  %bad = setgt int %x, 0
  br bool %bad, label %boom, label %calm
boom:
  unwind
calm:
  ret void
}
int %main(int %x) {
entry:
  invoke void %thrower(int %x) to label %ok unwind to label %caught
ok:
  ret int 0
caught:
  ret int 1
}
"""

    def test_invoke_normal_path(self):
        module = parse_module(self.SOURCE)
        assert Interpreter(module).run("main", [0]) == 0

    def test_invoke_unwind_path(self):
        module = parse_module(self.SOURCE)
        assert Interpreter(module).run("main", [5]) == 1

    def test_unwind_skips_frames(self):
        result, _ = _run("""
internal void %level3() {
entry:
  unwind
}
internal void %level2() {
entry:
  call void %level3()
  ret void
}
internal void %level1() {
entry:
  call void %level2()
  ret void
}
int %main() {
entry:
  invoke void %level1() to label %ok unwind to label %caught
ok:
  ret int 0
caught:
  ret int 7
}
""")
        assert result == 7

    def test_unhandled_unwind_raises(self):
        module = parse_module("""
void %main() {
entry:
  unwind
}
""")
        with pytest.raises(UnhandledUnwind):
            Interpreter(module).run("main")

    def test_stack_released_during_unwind(self):
        _, interp = _run("""
internal void %deep(int %n) {
entry:
  %buf = alloca [8 x int]
  %zero = seteq int %n, 0
  br bool %zero, label %boom, label %go
boom:
  unwind
go:
  %n1 = sub int %n, 1
  call void %deep(int %n1)
  ret void
}
int %main() {
entry:
  invoke void %deep(int 10) to label %ok unwind to label %caught
ok:
  ret int 0
caught:
  ret int 1
}
""")
        assert interp.memory.live_allocations("stack") == 0


class TestExternals:
    def test_printf(self):
        _, interp = _run(r"""
%fmt = internal constant [15 x sbyte] c"x=%d s=%s c=%c\00"
%msg = internal constant [3 x sbyte] c"hi\00"
declare int %printf(sbyte* %f, ...)
void %main() {
entry:
  %f = getelementptr [15 x sbyte]* %fmt, long 0, long 0
  %m = getelementptr [3 x sbyte]* %msg, long 0, long 0
  %c = cast int 33 to sbyte
  %n = call int (sbyte*, ...)* %printf(sbyte* %f, int 42, sbyte* %m, sbyte %c)
  ret void
}
""")
        assert "".join(interp.output) == "x=42 s=hi c=!"

    def test_undefined_external_raises(self):
        module = parse_module("""
declare void %no_such_function()
void %main() {
entry:
  call void %no_such_function()
  ret void
}
""")
        with pytest.raises(UndefinedFunction):
            Interpreter(module).run("main")

    def test_exit(self):
        result, _ = _run("""
declare void %exit(int %code)
int %main() {
entry:
  call void %exit(int 3)
  ret int 0
}
""")
        assert result == 3

    def test_strlen_strcmp(self):
        result, _ = _run(r"""
%a = internal constant [4 x sbyte] c"abc\00"
declare long %strlen(sbyte* %s)
int %main() {
entry:
  %p = getelementptr [4 x sbyte]* %a, long 0, long 0
  %n = call long %strlen(sbyte* %p)
  %v = cast long %n to int
  ret int %v
}
""")
        assert result == 3

    def test_memset_memcpy(self):
        result, _ = _run("""
declare sbyte* %memset(sbyte* %d, int %c, long %n)
declare sbyte* %memcpy(sbyte* %d, sbyte* %s, long %n)
int %main() {
entry:
  %a = malloc sbyte, uint 8
  %b = malloc sbyte, uint 8
  %r1 = call sbyte* %memset(sbyte* %a, int 7, long 8)
  %r2 = call sbyte* %memcpy(sbyte* %b, sbyte* %a, long 8)
  %p = getelementptr sbyte* %b, long 5
  %v = load sbyte* %p
  %w = cast sbyte %v to int
  ret int %w
}
""")
        assert result == 7


class TestVarargs:
    def test_defined_vararg_function(self):
        result, _ = _run("""
internal int %sum3(int %count, ...) {
entry:
  %ap = alloca sbyte*
  call void %llvm.va_start(sbyte** %ap)
  %a = vaarg sbyte** %ap, int
  %b = vaarg sbyte** %ap, int
  %c = vaarg sbyte** %ap, int
  %s1 = add int %a, %b
  %s2 = add int %s1, %c
  ret int %s2
}
declare void %llvm.va_start(sbyte** %ap)
int %main() {
entry:
  %v = call int (int, ...)* %sum3(int 3, int 10, int 20, int 12)
  ret int %v
}
""")
        assert result == 42


class TestMemoryUnit:
    def test_allocation_bounds(self):
        memory = Memory(DEFAULT)
        address = memory.allocate(16)
        memory.write_bytes(address, b"x" * 16)
        with pytest.raises(MemoryFault):
            memory.write_bytes(address + 10, b"y" * 8)

    def test_typed_round_trip(self):
        memory = Memory(DEFAULT)
        address = memory.allocate(8)
        for ty, value in ((types.INT, -123), (types.DOUBLE, 2.5),
                          (types.BOOL, True), (types.ULONG, 2**63)):
            memory.store(address, ty, value)
            assert memory.load(address, ty) == value

    def test_cstring(self):
        memory = Memory(DEFAULT)
        address = memory.allocate(8)
        memory.write_bytes(address, b"hey\0more")
        assert memory.read_cstring(address) == b"hey"


# ---------------------------------------------------------------------------
# What the run loop promises the trace tier, the ``clock`` external and
# the exact-count metrics: steps, faults, allocation order, and a
# decoder arm for every instruction and operand kind.
# ---------------------------------------------------------------------------

PRINT_THEN_LOOP = """
declare int %print_int(int %x)
int %main() {
entry:
  %p = call int %print_int(int 7)
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %n, %loop ]
  %a = add int %i, 1
  %b = mul int %a, 3
  %n = sub int %b, %a
  %c = setlt int %n, 1000000000
  br bool %c, label %loop, label %done
done:
  ret int %n
}
"""


class TestStepAccounting:
    def test_step_limit_is_exact_wherever_it_falls(self):
        # entry is 2 steps, each loop trip 5: every k below lands on a
        # different instruction of the block, mid-block included.
        module = parse_module(PRINT_THEN_LOOP)
        for limit in range(0, 40):
            interp = Interpreter(module, step_limit=limit)
            with pytest.raises(StepLimitExceeded) as raised:
                interp.run("main")
            assert interp.steps == limit + 1
            assert interp.output == (["7\n"] if limit >= 1 else [])
            assert str(raised.value) == \
                f"exceeded {limit} interpreted instructions"

    def test_clock_sees_the_call_that_reads_it(self):
        result, _ = _run("""
declare int %clock()
int %main() {
entry:
  %a = add int 1, 2
  %t1 = call int %clock()
  %b = add int %a, 3
  %t2 = call int %clock()
  %d = sub int %t2, %t1
  %r = add int %d, %t1
  ret int %r
}
""")
        assert result == 4      # t1 == 2, t2 == 4


class TestFaultMessages:
    def test_read_of_unset_register(self):
        module = parse_module("""
int %main(bool %c) {
entry:
  br bool %c, label %define, label %use
define:
  %x = add int 1, 2
  br label %use
use:
  %y = add int %x, 1
  ret int %y
}
""")
        assert Interpreter(module).run("main", [True]) == 4
        with pytest.raises(ExecutionError) as raised:
            Interpreter(module).run("main", [False])
        assert type(raised.value) is ExecutionError
        assert str(raised.value) == ("read of unset register 'x' "
                                     "(undefined behaviour made loud)")

    @pytest.mark.parametrize("use", [
        "%y = cast int %x to long",
        "%y = shl int %x, ubyte 1",
        "%y = add int 1, %x",
        "store int %x, int* %slot",
        "%y = getelementptr [4 x int]* %arr, long 0, int %x",
        "%y = call int %id(int %x)",
        "%y = malloc int, uint %u",
        "ret int %x",
        "switch int %x, label %out [ int 1, label %out ]",
        "br bool %b, label %out, label %out",
    ])
    def test_every_reader_names_the_unset_register(self, use):
        terminated = use.split()[0] in ("ret", "switch", "br")
        module = parse_module("""
%arr = global [4 x int] zeroinitializer
int %id(int %v) {
entry:
  ret int %v
}
int %main(bool %c) {
entry:
  %slot = alloca int
  br bool %c, label %define, label %use
define:
  %x = add int 1, 2
  %u = add uint 1, 2
  %b = setlt int 1, 2
  br label %use
use:
  USE
out:
  ret int 0
}
""".replace("USE", use if terminated else use + "\n  br label %out"))
        assert Interpreter(module).run("main", [True]) in (0, 3)
        name = "u" if "%u" in use else "b" if "%b" in use else "x"
        with pytest.raises(ExecutionError) as raised:
            Interpreter(module).run("main", [False])
        assert str(raised.value) == (f"read of unset register {name!r} "
                                     "(undefined behaviour made loud)")

    def test_phi_without_an_entry_for_the_predecessor(self):
        module = parse_module("""
int %main(bool %c) {
entry:
  br bool %c, label %left, label %join
left:
  br label %join
join:
  %v = phi int [ 1, %left ]
  ret int %v
}
""")
        assert Interpreter(module).run("main", [True]) == 1
        with pytest.raises(ExecutionError) as raised:
            Interpreter(module).run("main", [False])
        assert type(raised.value) is ExecutionError
        assert str(raised.value) == \
            "phi 'v' has no entry for predecessor 'entry'"

    def test_gep_on_null_faults_before_reading_the_index(self):
        module = parse_module("""
int %main(bool %c) {
entry:
  %p = cast long 0 to [4 x int]*
  br bool %c, label %define, label %use
define:
  %x = add long 1, 2
  br label %use
use:
  %q = getelementptr [4 x int]* %p, long 0, long %x
  ret int 0
}
""")
        with pytest.raises(MemoryFault,
                           match="getelementptr on a null pointer"):
            Interpreter(module).run("main", [False])


class TestAllocationOrder:
    def test_function_addresses_are_handed_out_at_execution(self):
        # A function's code address is allocated the first time it is
        # *evaluated*.  Binding it any earlier (when the block is
        # decoded, say) would renumber the two allocas before it and
        # change every address printed.
        _, interp = _run(r"""
%fmt = internal constant [13 x sbyte] c"%p %p %p %p\0A\00"
declare int %printf(sbyte* %f, ...)
int %f() {
entry:
  ret int 0
}
int %g() {
entry:
  ret int 0
}
int %main() {
entry:
  %a = alloca int
  %b = alloca int
  %fp = cast int ()* %f to sbyte*
  %fmtp = getelementptr [13 x sbyte]* %fmt, long 0, long 0
  %n = call int (sbyte*, ...)* %printf(sbyte* %fmtp, int* %a, int* %b, sbyte* %fp, int ()* %g)
  ret int 0
}
""")
        assert "".join(interp.output) == \
            "0x80000000 0xc0000000 0x100000000 0x140000000\n"


OPERAND_KINDS = r"""
%g = global int 40
%arr = global [4 x int] [ int 10, int 20, int 30, int 40 ]
%grid = global [2 x [3 x int]] zeroinitializer
%pair = global { int, long } { int 5, long 6 }
%slot = global int* null
%fslot = global int ()* null

int %two() {
entry:
  ret int 2
}
int %three() {
entry:
  ret int 3
}
int %apply(int ()* %f, int %k) {
entry:
  %v = call int %f()
  %r = mul int %v, %k
  ret int %r
}
int %deref(int* %p) {
entry:
  %v = load int* %p
  ret int %v
}

int %binary(int %x, int %y) {
entry:
  %a = add int %x, %y
  %b = sub int 50, %a
  %c = mul int %b, 3
  %d = add int 4, 5
  %p = getelementptr int* %g, long 0
  %q = getelementptr [4 x int]* %arr, long 0, long 1
  %l = cast int* %g to long
  store int ()* %two, int ()** %fslot
  %fp = load int ()** %fslot
  %e1 = seteq int* %g, %p
  %e2 = seteq int ()* %two, %fp
  %e3 = setne int ()* %two, %three
  %e4 = seteq int* getelementptr ([4 x int]* %arr, long 0, long 1), %q
  %e5 = seteq long cast (int* %g to long), %l
  %e6 = setlt int* %g, null
  %i1 = cast bool %e1 to int
  %i2 = cast bool %e2 to int
  %i3 = cast bool %e3 to int
  %i4 = cast bool %e4 to int
  %i5 = cast bool %e5 to int
  %i6 = cast bool %e6 to int
  %s1 = add int %i1, %i2
  %s2 = add int %s1, %i3
  %s3 = add int %s2, %i4
  %s4 = add int %s3, %i5
  %s5 = add int %s4, %i6
  %t = mul int %s5, 1000
  %u = add int %t, %c
  %r = add int %u, %d
  ret int %r
}

int %load() {
entry:
  %p = getelementptr [4 x int]* %arr, long 0, long 3
  %a = load int* %p
  %b = load int* %g
  %c = load int* getelementptr ([4 x int]* %arr, long 0, long 2)
  %d = load int* cast ([4 x int]* %arr to int*)
  %s1 = add int %a, %b
  %s2 = add int %s1, %c
  %s3 = add int %s2, %d
  ret int %s3
}
int %load_null() {
entry:
  %v = load int* null
  ret int %v
}
sbyte %load_code() {
entry:
  %v = load sbyte* cast (int ()* %two to sbyte*)
  ret sbyte %v
}

int %store(int %x) {
entry:
  %p = alloca int
  store int %x, int* %p
  %a = load int* %p
  store int 5, int* %p
  %b = load int* %p
  store int %x, int* %g
  %c = load int* %g
  store int 7, int* getelementptr ([4 x int]* %arr, long 0, long 3)
  %d = call int %deref(int* getelementptr ([4 x int]* %arr, long 0, long 3))
  store int* %g, int** %slot
  %gp = load int** %slot
  %e = load int* %gp
  store int ()* %three, int ()** %fslot
  %fp = load int ()** %fslot
  %f = call int %fp()
  store int* getelementptr ([4 x int]* %arr, long 0, long 1), int** %slot
  %ap = load int** %slot
  %h = load int* %ap
  %s1 = add int %a, %b
  %s2 = add int %s1, %c
  %s3 = add int %s2, %d
  %s4 = add int %s3, %e
  %s5 = add int %s4, %f
  %s6 = add int %s5, %h
  ret int %s6
}

int %gep(long %i, long %j) {
entry:
  %base = getelementptr [4 x int]* %arr, long 0, long 0
  %p1 = getelementptr int* %base, long 2
  %p2 = getelementptr int* %base, long %i
  %p3 = getelementptr [4 x int]* %arr, long 0, long %i
  %p4 = getelementptr [4 x int]* %arr, long 0, long 1
  %p5 = getelementptr int* getelementptr ([4 x int]* %arr, long 0, long 1), long %i
  %cell = getelementptr [2 x [3 x int]]* %grid, long 0, long %i, long %j
  store int 9, int* %cell
  %again = getelementptr [2 x [3 x int]]* %grid, long 0, long 1, long 2
  %field = getelementptr { int, long }* %pair, long 0, uint 1
  %v1 = load int* %p1
  %v2 = load int* %p2
  %v3 = load int* %p3
  %v4 = load int* %p4
  %v5 = load int* %p5
  %v6 = load int* %again
  %wide = load long* %field
  %v7 = cast long %wide to int
  %s1 = add int %v1, %v2
  %s2 = add int %s1, %v3
  %s3 = add int %s2, %v4
  %s4 = add int %s3, %v5
  %s5 = add int %s4, %v6
  %s6 = add int %s5, %v7
  ret int %s6
}
int %gep_null(long %i) {
entry:
  %p = getelementptr [4 x int]* null, long 0, long %i
  ret int 0
}

int %call(int %x) {
entry:
  store int ()* %two, int ()** %fslot
  %fp = load int ()** %fslot
  %a = call int %apply(int ()* %fp, int %x)
  %b = call int %apply(int ()* %three, int 10)
  %c = call int %deref(int* %g)
  %d = call int %deref(int* getelementptr ([4 x int]* %arr, long 0, long 2))
  %e = call int %fp()
  %s1 = add int %a, %b
  %s2 = add int %s1, %c
  %s3 = add int %s2, %d
  %s4 = add int %s3, %e
  ret int %s4
}

int %phi(bool %c, int %x) {
entry:
  %local = alloca int
  store int 1, int* %local
  br bool %c, label %left, label %right
left:
  br label %join
right:
  br label %join
join:
  %r = phi int [ %x, %left ], [ 100, %right ]
  %p = phi int* [ %g, %left ], [ %local, %right ]
  %f = phi int ()* [ %two, %left ], [ %three, %right ]
  %q = phi int* [ getelementptr ([4 x int]* %arr, long 0, long 1), %left ], [ null, %right ]
  %n = phi long [ cast (int* %g to long), %left ], [ 0, %right ]
  %pv = load int* %p
  %fv = call int %f()
  %nonnull = setne int* %q, null
  %qi = cast bool %nonnull to int
  %here = setne long %n, 0
  %ni = cast bool %here to int
  %s1 = add int %r, %pv
  %s2 = add int %s1, %fv
  %s3 = add int %s2, %qi
  %s4 = add int %s3, %ni
  ret int %s4
}
"""


class TestDecoder:
    @pytest.mark.parametrize("function, args, expected", [
        ("binary", [7, 8], 5000 + (50 - 15) * 3 + 9),
        ("load", [], 40 + 40 + 30 + 10),
        ("store", [11], 11 + 5 + 11 + 7 + 11 + 3 + 20),
        ("gep", [1, 2], 30 + 20 + 20 + 20 + 30 + 9 + 6),
        ("call", [6], 12 + 30 + 40 + 30 + 2),
        ("phi", [True, 9], 9 + 40 + 2 + 1 + 1),
        ("phi", [False, 9], 100 + 1 + 3 + 0 + 0),
    ])
    def test_operand_kinds(self, function, args, expected):
        """Register, literal, global, function address and constant
        expression in every operand position that takes them."""
        module = parse_module(OPERAND_KINDS)
        assert Interpreter(module).run(function, args) == expected

    @pytest.mark.parametrize("function, args, message", [
        ("load_null", [], "null pointer dereference"),
        ("load_code", [], "data access to a function address"),
        ("gep_null", [1], "getelementptr on a null pointer"),
    ])
    def test_constant_operands_that_fault(self, function, args, message):
        module = parse_module(OPERAND_KINDS)
        with pytest.raises(MemoryFault, match=message):
            Interpreter(module).run(function, args)

    TOUR = r"""
declare void %llvm.va_start(sbyte** %ap)
internal int %first_extra(int %count, ...) {
entry:
  %ap = alloca sbyte*
  call void %llvm.va_start(sbyte** %ap)
  %a = vaarg sbyte** %ap, int
  ret int %a
}
internal void %thrower() {
entry:
  unwind
}
int %main(int %x) {
entry:
  %cell = malloc int
  store int %x, int* %cell
  %v = load int* %cell
  free int* %cell
  %w = shl int %v, ubyte 1
  %wide = cast int %w to long
  %narrow = cast long %wide to int
  %p = getelementptr int* %cell, long 0
  %extra = call int (int, ...)* %first_extra(int 1, int 5)
  invoke void %thrower() to label %missed unwind to label %caught
missed:
  ret int -1
caught:
  switch int %extra, label %missed [ int 5, label %join ]
join:
  %r = phi int [ %narrow, %caught ]
  %sum = add int %r, %extra
  br label %done
done:
  ret int %sum
}
"""

    def test_every_instruction_class_has_a_decoder_arm(self):
        """A new ``Instruction`` subclass must get an arm in
        ``Interpreter._decode``: this tour executes one of everything,
        and the set it is checked against is enumerated, not listed."""
        from repro.core import instructions
        from repro.core.instructions import Instruction, PhiNode

        def leaves(cls):
            """The concrete classes of core/instructions.py (other
            modules' private markers never reach an interpreter)."""
            subclasses = [sub for sub in cls.__subclasses__()
                          if sub.__module__ == instructions.__name__]
            if not subclasses:
                return {cls}
            return set().union(*(leaves(sub) for sub in subclasses))

        module = parse_module(self.TOUR)
        interp = Interpreter(module)
        executed = set()
        decode = interp._decode

        def recording_decode(block, index, inst):
            op = decode(block, index, inst)

            def recorded(stack, frame):
                executed.add(type(inst))
                return op(stack, frame)
            return recorded
        interp._decode = recording_decode
        assert interp.run("main", [21]) == 42 + 5
        # Phis are moved by the edge into their block, never stepped.
        assert executed | {PhiNode} == leaves(Instruction)

    def test_an_instruction_without_an_arm_faults_when_reached(self):
        from repro.core.instructions import Instruction, Opcode

        class Mystery(Instruction):
            __slots__ = ()

        module = parse_module("""
declare int %print_int(int %x)
int %main() {
entry:
  %p = call int %print_int(int 1)
  ret int 0
}
""")
        block = module.functions["main"].blocks[0]
        block.insert(1, Mystery(Opcode.ADD, types.INT, (), "m"))
        interp = Interpreter(module)
        with pytest.raises(ExecutionError, match="cannot execute"):
            interp.run("main")
        # ... and not before: the block's earlier instructions ran.
        assert interp.output == ["1\n"] and interp.steps == 2
