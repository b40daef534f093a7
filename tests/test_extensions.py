"""Tests for the extension features: setjmp/longjmp on the unwinding
mechanism, heap-to-stack promotion, and the type-erasure ablation pass."""

import pytest

from repro.core import (
    ConstantInt, IRBuilder, Module, print_module, types, verify_module,
)
from repro.core.instructions import AllocaInst, FreeInst, MallocInst
from repro.cxxfe import SetjmpRegion, emit_longjmp
from repro.driver import optimize_module
from repro.execution import Interpreter, UnhandledUnwind
from repro.frontend import compile_source
from repro.transforms.ipo import HeapToStackPromotion
from repro.transforms.typeerase import TypeEraser


def _build_setjmp_module(nested: bool = False) -> Module:
    """jumper(depth) longjmps to buffer 7 with value 99; main opens a
    setjmp region around the call."""
    module = Module("sjlj")

    jumper = module.new_function(types.function(types.VOID, [types.INT]),
                                 "jumper", arg_names=["depth"])
    builder = IRBuilder(jumper.append_block("entry"))
    recurse = jumper.append_block("recurse")
    jump = jumper.append_block("jump")
    done = builder.setle(jumper.args[0], ConstantInt(types.INT, 0), "done")
    builder.cond_br(done, jump, recurse)
    recurse_builder = IRBuilder(recurse)
    deeper = recurse_builder.sub(jumper.args[0], ConstantInt(types.INT, 1), "d")
    recurse_builder.call(jumper, [deeper])
    recurse_builder.ret_void()
    emit_longjmp(module, IRBuilder(jump), ConstantInt(types.INT, 7),
                 ConstantInt(types.INT, 99))

    main = module.new_function(types.function(types.INT, [types.INT]),
                               "main", arg_names=["depth"])
    builder = IRBuilder(main.append_block("entry"))
    region = SetjmpRegion.open(module, builder,
                               ConstantInt(types.INT, 7))
    region.call(jumper, [main.args[0]])
    after = region.close()
    after.ret(region.result(after))
    verify_module(module)
    return module


class TestSetjmpLongjmp:
    def test_longjmp_returns_value_at_setjmp(self):
        module = _build_setjmp_module()
        # The longjmp fires five frames down and lands back at the
        # setjmp merge with its value.
        assert Interpreter(module).run("main", [5]) == 99

    def test_direct_jump(self):
        module = _build_setjmp_module()
        assert Interpreter(module).run("main", [0]) == 99

    def test_unmatched_buffer_keeps_unwinding(self):
        """A longjmp to a different buffer passes through the region."""
        module = Module("mismatch")
        thrower = module.new_function(types.function(types.VOID, []), "thrower")
        emit_longjmp(module, IRBuilder(thrower.append_block("entry")),
                     ConstantInt(types.INT, 42), ConstantInt(types.INT, 1))
        main = module.new_function(types.function(types.INT, []), "main")
        builder = IRBuilder(main.append_block("entry"))
        region = SetjmpRegion.open(module, builder, ConstantInt(types.INT, 7))
        region.call(thrower, [])
        after = region.close()
        after.ret(region.result(after))
        verify_module(module)
        with pytest.raises(UnhandledUnwind):
            Interpreter(module).run("main")

    def test_nested_regions_match_innermost_first(self):
        module = Module("nested")
        thrower = module.new_function(types.function(types.VOID, [types.INT]),
                                      "thrower", arg_names=["target"])
        emit_longjmp(module, IRBuilder(thrower.append_block("entry")),
                     thrower.args[0], ConstantInt(types.INT, 5))
        main = module.new_function(types.function(types.INT, [types.INT]),
                                   "main", arg_names=["target"])
        builder = IRBuilder(main.append_block("entry"))
        outer = SetjmpRegion.open(module, builder, ConstantInt(types.INT, 1))
        inner = SetjmpRegion.open(module, outer.builder,
                                  ConstantInt(types.INT, 2))
        inner.call(thrower, [main.args[0]])
        after_inner = inner.close()
        inner_result = inner.result(after_inner)
        outer.builder = after_inner
        after_outer = outer.close()
        outer_result = outer.result(after_outer)
        combined = after_outer.add(
            after_outer.mul(outer_result, ConstantInt(types.INT, 100), "o"),
            inner_result if False else after_outer.load(inner._slot, "i2"),
            "combo",
        )
        after_outer.ret(combined)
        verify_module(module)
        # longjmp to buffer 2: the inner region claims it -> inner=5,
        # outer=0 -> 5.
        assert Interpreter(module).run("main", [2]) == 5
        # longjmp to buffer 1: the inner handler re-unwinds... but the
        # outer region's handler only guards calls made through
        # outer.call; the inner rethrow escapes the frame entirely.
        with pytest.raises(UnhandledUnwind):
            Interpreter(module).run("main", [1])


class TestHeapToStack:
    def test_non_escaping_malloc_promoted(self):
        module = compile_source("""
struct Pair { int a; int b; };
typedef struct Pair Pair;
int main() {
  Pair *p = malloc(Pair);
  p->a = 20;
  p->b = 22;
  int r = p->a + p->b;
  free(p);
  return r;
}
""", "h2s")
        optimize_module(module, 2)   # heap2stack expects SSA-form input
        expected = Interpreter(module).run("main")
        h2s = HeapToStackPromotion()
        assert h2s.run_on_module(module)
        verify_module(module)
        assert h2s.counters["mallocs_promoted"] == 1
        assert h2s.counters["frees_deleted"] == 1
        instructions = [
            i for f in module.defined_functions() for i in f.instructions()
        ]
        assert not any(isinstance(i, MallocInst) for i in instructions)
        assert not any(isinstance(i, FreeInst) for i in instructions)
        interp = Interpreter(module)
        assert interp.run("main") == expected == 42
        assert interp.memory.live_allocations("heap") == 0

    def test_returned_pointer_not_promoted(self):
        module = compile_source("""
int *make() {
  int *p = malloc(int);
  *p = 1;
  return p;
}
""", "h2s")
        assert not HeapToStackPromotion().run_on_module(module)

    def test_stored_pointer_not_promoted(self):
        module = compile_source("""
static int *keep = null;
int main() {
  int *p = malloc(int);
  keep = p;
  return 0;
}
""", "h2s")
        assert not HeapToStackPromotion().run_on_module(module)

    def test_pointer_passed_to_callee_not_promoted(self):
        module = compile_source("""
extern int print_int(int x);
int main() {
  int *p = malloc(int);
  *p = 3;
  print_int(*p);
  free(p);
  return 0;
}
""", "h2s")
        optimize_module(module, 2)
        # *p loads are fine, but print_int(*p) passes the VALUE, not the
        # pointer — so this one actually promotes.  The blocking case is
        # passing the pointer itself:
        assert HeapToStackPromotion().run_on_module(module)
        module2 = compile_source("""
extern void capture(int *p);
int main() {
  int *p = malloc(int);
  capture(p);
  free(p);
  return 0;
}
""", "h2s")
        assert not HeapToStackPromotion().run_on_module(module2)

    def test_large_objects_stay_on_heap(self):
        module = compile_source("""
struct Big { int data[4096]; };
typedef struct Big Big;
int main() {
  Big *b = malloc(Big);
  b->data[0] = 1;
  int r = b->data[0];
  free(b);
  return r;
}
""", "h2s")
        assert not HeapToStackPromotion(max_bytes=4096).run_on_module(module)

    def test_gep_derived_uses_ok(self):
        module = compile_source("""
struct Node { int v; struct Node *next; };
typedef struct Node Node;
int main() {
  Node *n = malloc(Node);
  n->v = 7;
  n->next = null;
  int r = n->v;
  free(n);
  return r;
}
""", "h2s")
        optimize_module(module, 2)
        assert HeapToStackPromotion().run_on_module(module)
        assert Interpreter(module).run("main") == 7


class TestTypeEraser:
    def test_gep_rewritten_to_byte_arithmetic(self):
        module = compile_source("""
struct Pair { int a; int b; };
typedef struct Pair Pair;
int main() {
  Pair *p = malloc(Pair);
  p->a = 1;
  p->b = 2;
  return p->a + p->b;
}
""", "erase")
        expected = Interpreter(module).run("main")
        assert TypeEraser().run_on_module(module)
        verify_module(module)
        text = print_module(module)
        assert "uint 1" not in text, "no struct-field GEPs remain"
        assert Interpreter(module).run("main") == expected

    def test_erasure_preserves_semantics_after_optimization(self):
        source = """
static int table[32];
int main() {
  int i;
  for (i = 0; i < 32; i++) { table[i] = i * 3; }
  int acc = 0;
  for (i = 0; i < 32; i = i + 4) { acc += table[i]; }
  return acc;
}
"""
        module = compile_source(source, "erase")
        expected = Interpreter(module).run("main")
        TypeEraser().run_on_module(module)
        optimize_module(module, 2)
        verify_module(module)
        assert Interpreter(module).run("main") == expected


class TestSafeCodeBounds:
    def _checked(self, source, optimize=False):
        from repro.driver import link_time_optimize
        from repro.transforms.safecode import BoundsCheckInsertion

        module = compile_source(source, "sc")
        if optimize:
            optimize_module(module, 2)
            link_time_optimize(module, 2)
        passobj = BoundsCheckInsertion()
        passobj.run_on_module(module)
        verify_module(module)
        return module, passobj

    def test_out_of_bounds_trapped(self):
        from repro.execution import ExecutionError

        module, passobj = self._checked("""
static int table[8];
int get(int i) { return table[i]; }
int main() { return get(3); }
""")
        assert passobj.counters["checks_inserted"] >= 1
        assert Interpreter(module).run("main") == 0
        with pytest.raises(ExecutionError, match="out of bounds"):
            Interpreter(module).run("get", [12])
        with pytest.raises(ExecutionError, match="out of bounds"):
            Interpreter(module).run("get", [-1])

    def test_constant_indices_elided(self):
        module, passobj = self._checked("""
static int table[8];
int main() {
  table[0] = 1;
  table[7] = 2;
  return table[0] + table[7];
}
""")
        assert passobj.counters["checks_inserted"] == 0
        assert passobj.counters["checks_elided"] >= 2
        assert Interpreter(module).run("main") == 3

    def test_sccp_enables_elimination(self):
        """Optimization first: constants flow into the indices, so the
        checker statically discharges what would otherwise be runtime
        checks — the SAFECode "interprocedural static analysis to
        minimize runtime checks" effect at our scale."""
        source = """
static int table[8];
static int get(int i) { return table[i]; }
int main() {
  table[5] = 11;
  return get(5);
}
"""
        _, unoptimized = self._checked(source, optimize=False)
        module, optimized = self._checked(source, optimize=True)
        assert optimized.counters["checks_inserted"] < max(
            unoptimized.counters["checks_inserted"], 1
        ) or optimized.counters["checks_elided"] > unoptimized.counters["checks_elided"]
        assert Interpreter(module).run("main") == 11

    def test_semantics_preserved_in_bounds(self):
        source = """
static int data[16];
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 16; i++) { data[i] = i; }
  for (i = 0; i < 16; i++) { acc += data[i]; }
  return acc;
}
"""
        module, passobj = self._checked(source)
        assert passobj.counters["checks_inserted"] >= 2
        assert Interpreter(module).run("main") == sum(range(16))
