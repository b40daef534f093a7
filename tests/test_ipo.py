"""Tests for the interprocedural (link-time) passes."""

import pytest

from repro.core import (
    ConstantInt, IRBuilder, Module, parse_module, print_module, types,
    verify_module,
)
from repro.core.instructions import CallInst, InvokeInst, Opcode
from repro.core.module import Function, Linkage
from repro.execution import Interpreter
from repro.transforms.ipo import (
    DeadArgumentElimination, DeadGlobalElimination, FunctionInlining,
    Internalize, IPConstantPropagation, PruneExceptionHandlers,
)
from repro.transforms.ipo.inline import inline_call_site


class TestInlining:
    def test_simple_inline(self):
        module = parse_module("""
internal int %helper(int %x) {
entry:
  %r = mul int %x, 3
  ret int %r
}
int %main() {
entry:
  %v = call int %helper(int 7)
  ret int %v
}
""")
        expected = Interpreter(module).run("main")
        assert FunctionInlining().run_on_module(module)
        verify_module(module)
        main = module.functions["main"]
        assert not any(isinstance(i, CallInst) for i in main.instructions())
        assert Interpreter(module).run("main") == expected == 21

    def test_unused_internal_callee_deleted(self):
        module = parse_module("""
internal int %helper(int %x) {
entry:
  ret int %x
}
int %main() {
entry:
  %v = call int %helper(int 1)
  ret int %v
}
""")
        inliner = FunctionInlining()
        inliner.run_on_module(module)
        assert "helper" not in module.functions
        assert inliner.counters["functions_deleted"] == 1

    def test_multiple_returns_become_phi(self):
        module = parse_module("""
internal int %pick(bool %c) {
entry:
  br bool %c, label %a, label %b
a:
  ret int 10
b:
  ret int 20
}
int %main(bool %c) {
entry:
  %v = call int %pick(bool %c)
  ret int %v
}
""")
        FunctionInlining().run_on_module(module)
        verify_module(module)
        assert Interpreter(module).run("main", [True]) == 10
        assert Interpreter(module).run("main", [False]) == 20

    def test_recursive_not_inlined(self):
        module = parse_module("""
int %loop(int %n) {
entry:
  %z = seteq int %n, 0
  br bool %z, label %stop, label %go
stop:
  ret int 0
go:
  %n1 = sub int %n, 1
  %r = call int %loop(int %n1)
  ret int %r
}
""")
        FunctionInlining().run_on_module(module)
        verify_module(module)
        fn = module.functions["loop"]
        assert any(isinstance(i, CallInst) for i in fn.instructions())

    def test_large_callee_skipped(self):
        lines = "\n".join(f"  %v{i} = add int %x, {i}" for i in range(60))
        module = parse_module(f"""
int %big(int %x) {{
entry:
{lines}
  ret int %v59
}}
int %main() {{
entry:
  %v = call int %big(int 1)
  ret int %v
}}
""")
        FunctionInlining(threshold=40, delete_unused=False).run_on_module(module)
        main = module.functions["main"]
        assert any(isinstance(i, CallInst) for i in main.instructions())

    def test_inline_at_invoke_site(self):
        module = parse_module("""
internal void %may_throw(int %x) {
entry:
  %bad = setgt int %x, 10
  br bool %bad, label %boom, label %fine
boom:
  unwind
fine:
  ret void
}
int %main(int %x) {
entry:
  invoke void %may_throw(int %x) to label %ok unwind to label %caught
ok:
  ret int 0
caught:
  ret int 1
}
""")
        expected_ok = Interpreter(module).run("main", [1])
        expected_caught = Interpreter(module).run("main", [99])
        FunctionInlining().run_on_module(module)
        verify_module(module)
        main = module.functions["main"]
        # The callee's unwind became a direct branch: no unwind remains.
        assert not any(i.opcode == Opcode.UNWIND for i in main.instructions())
        assert Interpreter(module).run("main", [1]) == expected_ok == 0
        assert Interpreter(module).run("main", [99]) == expected_caught == 1

    def test_inline_call_site_rejects_indirect(self):
        module = parse_module("""
int %target(int %x) {
entry:
  ret int %x
}
%fp = global int (int)* %target
int %main() {
entry:
  %f = load int (int)** %fp
  %v = call int (int)* %f(int 3)
  ret int %v
}
""")
        call = [i for i in module.functions["main"].instructions()
                if isinstance(i, CallInst)][0]
        assert not inline_call_site(call)


class TestDeadGlobalElimination:
    def test_unused_internal_global_removed(self):
        module = parse_module("""
%used = internal global int 1
%unused = internal global int 2
int %main() {
entry:
  %v = load int* %used
  ret int %v
}
""")
        dge = DeadGlobalElimination()
        assert dge.run_on_module(module)
        assert "unused" not in module.globals
        assert "used" in module.globals
        assert dge.counters["globals_deleted"] == 1

    def test_dead_cycle_removed(self):
        """The "aggressive" part: two dead functions calling each other."""
        module = parse_module("""
internal int %ping(int %x) {
entry:
  %r = call int %pong(int %x)
  ret int %r
}
internal int %pong(int %x) {
entry:
  %r = call int %ping(int %x)
  ret int %r
}
int %main() {
entry:
  ret int 0
}
""")
        dge = DeadGlobalElimination()
        assert dge.run_on_module(module)
        assert dge.counters["functions_deleted"] == 2
        assert set(module.functions) == {"main"}

    def test_external_symbols_kept(self):
        module = parse_module("""
%api = global int 5
int %exported(int %x) {
entry:
  ret int %x
}
""")
        assert not DeadGlobalElimination().run_on_module(module)

    def test_global_referenced_by_initializer_kept(self):
        module = parse_module("""
%target = internal global int 3
%table = global int* getelementptr (int* %target, long 0)
""")
        assert not DeadGlobalElimination().run_on_module(module)
        assert "target" in module.globals


class TestDeadArgumentElimination:
    def test_unused_argument_removed(self):
        module = parse_module("""
internal int %f(int %used, int %unused) {
entry:
  ret int %used
}
int %main() {
entry:
  %v = call int %f(int 3, int 999)
  ret int %v
}
""")
        expected = Interpreter(module).run("main")
        dae = DeadArgumentElimination()
        assert dae.run_on_module(module)
        verify_module(module)
        assert dae.counters["arguments_deleted"] == 1
        assert len(module.functions["f"].args) == 1
        assert Interpreter(module).run("main") == expected == 3

    def test_unused_return_demoted_to_void(self):
        module = parse_module("""
internal int %noisy(int* %out) {
entry:
  store int 1, int* %out
  ret int 42
}
int %main() {
entry:
  %slot = alloca int
  %ignored = call int %noisy(int* %slot)
  %v = load int* %slot
  ret int %v
}
""")
        dae = DeadArgumentElimination()
        assert dae.run_on_module(module)
        verify_module(module)
        assert dae.counters["returns_deleted"] == 1
        assert module.functions["noisy"].return_type.is_void
        assert Interpreter(module).run("main") == 1

    def test_external_function_untouched(self):
        module = parse_module("""
int %api(int %maybe_used_elsewhere) {
entry:
  ret int 0
}
""")
        assert not DeadArgumentElimination().run_on_module(module)

    def test_address_taken_untouched(self):
        module = parse_module("""
internal int %cb(int %x) {
entry:
  ret int 0
}
%table = global int (int)* %cb
""")
        assert not DeadArgumentElimination().run_on_module(module)


class TestIPConstantPropagation:
    def test_common_constant_argument(self):
        module = parse_module("""
internal int %scaled(int %x, int %factor) {
entry:
  %r = mul int %x, %factor
  ret int %r
}
int %main(int %a, int %b) {
entry:
  %u = call int %scaled(int %a, int 10)
  %v = call int %scaled(int %b, int 10)
  %s = add int %u, %v
  ret int %s
}
""")
        assert IPConstantPropagation().run_on_module(module)
        scaled = module.functions["scaled"]
        assert not scaled.args[1].is_used
        assert Interpreter(module).run("main", [1, 2]) == 30

    def test_differing_arguments_kept(self):
        module = parse_module("""
internal int %id(int %x) {
entry:
  ret int %x
}
int %main() {
entry:
  %a = call int %id(int 1)
  %b = call int %id(int 2)
  %s = add int %a, %b
  ret int %s
}
""")
        # The *argument* differs, but the return is not constant either;
        # nothing should change.
        assert not IPConstantPropagation().run_on_module(module)

    def test_constant_return_propagates(self):
        module = parse_module("""
internal int %answer() {
entry:
  ret int 42
}
int %main() {
entry:
  %v = call int %answer()
  %w = add int %v, 1
  ret int %w
}
""")
        assert IPConstantPropagation().run_on_module(module)
        assert Interpreter(module).run("main") == 43


class TestInternalize:
    def test_marks_everything_but_main(self):
        module = parse_module("""
%data = global int 1
int %helper(int %x) {
entry:
  ret int %x
}
int %main() {
entry:
  ret int 0
}
""")
        assert Internalize(("main",)).run_on_module(module)
        assert module.functions["helper"].linkage == Linkage.INTERNAL
        assert module.globals["data"].linkage == Linkage.INTERNAL
        assert module.functions["main"].linkage == Linkage.EXTERNAL

    def test_declarations_untouched(self):
        module = parse_module("declare int %printf(sbyte* %fmt, ...)\n")
        assert not Internalize(("main",)).run_on_module(module)
        assert module.functions["printf"].linkage == Linkage.EXTERNAL


class TestPruneEH:
    def test_invoke_of_nounwind_demoted(self):
        module = parse_module("""
internal int %calm(int %x) {
entry:
  ret int %x
}
int %main() {
entry:
  %v = invoke int %calm(int 3) to label %ok unwind to label %bad
ok:
  ret int %v
bad:
  ret int -1
}
""")
        prune = PruneExceptionHandlers()
        assert prune.run_on_module(module)
        verify_module(module)
        assert prune.counters["invokes_demoted"] == 1
        main = module.functions["main"]
        assert not any(isinstance(i, InvokeInst) for i in main.instructions())
        assert Interpreter(module).run("main") == 3

    def test_invoke_of_thrower_kept(self):
        module = parse_module("""
internal void %angry() {
entry:
  unwind
}
int %main() {
entry:
  invoke void %angry() to label %ok unwind to label %bad
ok:
  ret int 0
bad:
  ret int 1
}
""")
        PruneExceptionHandlers().run_on_module(module)
        main = module.functions["main"]
        assert any(isinstance(i, InvokeInst) for i in main.instructions())
        assert Interpreter(module).run("main") == 1

    def test_transitive_unwind_tracked(self):
        module = parse_module("""
internal void %inner() {
entry:
  unwind
}
internal void %outer() {
entry:
  call void %inner()
  ret void
}
int %main() {
entry:
  invoke void %outer() to label %ok unwind to label %bad
ok:
  ret int 0
bad:
  ret int 1
}
""")
        PruneExceptionHandlers().run_on_module(module)
        main = module.functions["main"]
        assert any(isinstance(i, InvokeInst) for i in main.instructions())

    def test_unknown_external_assumed_throwing(self):
        module = parse_module("""
declare void %mystery()
int %main() {
entry:
  invoke void %mystery() to label %ok unwind to label %bad
ok:
  ret int 0
bad:
  ret int 1
}
""")
        assert not PruneExceptionHandlers().run_on_module(module)
