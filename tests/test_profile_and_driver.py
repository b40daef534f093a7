"""Tests for profiling, trace formation, the offline reoptimizer, the
pipelines, the lifelong session, and the cxxfe lowering helpers."""

import pytest

from repro.bitcode import read_bytecode
from repro.core import (
    ConstantInt, IRBuilder, Module, print_module, types, verify_module,
)
from repro.driver import (
    LifelongSession, compile_and_link, link_time_optimize, optimize_module,
)
from repro.execution import Interpreter
from repro.frontend import compile_source
from repro.profile import ProfileData, TraceFormation

HOT_LOOP = """
extern int print_int(int x);
static int work(int n) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i++) {
    if (i % 10 == 0) { acc += 100; }
    else { acc += i; }
  }
  return acc;
}
int main() {
  int r = work(500);
  print_int(r);
  return r % 251;
}
"""


def _profiled_run(module):
    """(interpreter, profile) after one profiled run of ``main``."""
    interp = Interpreter(module)
    profile = ProfileData()
    profile.attach(interp)
    interp.run("main")
    return interp, profile


class TestInstrumentation:
    """The execution engine's block event is the profiler: nothing is
    inserted into the IR."""

    def test_counts_collected(self):
        module = compile_source(HOT_LOOP, "hot")
        _, profile = _profiled_run(module)
        work = module.functions["work"]
        # The loop body ran 500 times.
        assert max(profile.counts.get(block, 0) for block in work.blocks) >= 500
        assert profile.function_entry_counts()["main"] == 1

    def test_instrumentation_preserves_output(self):
        module = compile_source(HOT_LOOP, "hot")
        text = print_module(module)
        plain = Interpreter(module)
        plain.run("main")
        profiled, _ = _profiled_run(module)
        # Same output, same steps: no counter executes.
        assert (profiled.output, profiled.steps) == (plain.output, plain.steps)
        assert print_module(module) == text


class TestProfileData:
    def _collected(self):
        module = compile_source(HOT_LOOP, "hot")
        return module, _profiled_run(module)[1]

    def test_hot_loops_query(self):
        module, profile = self._collected()
        hot = profile.hot_loops(threshold=100)
        assert hot and hot[0][2] >= 100
        function, header, _ = hot[0]
        assert header in module.functions[function].blocks

    def test_json_round_trip(self):
        module, profile = self._collected()
        restored = ProfileData.from_json(profile.to_json(), module)
        assert restored.counts == profile.counts

    def test_merge(self):
        _, profile = self._collected()
        merged = ProfileData()
        merged.merge(profile)
        merged.merge(profile)
        sample = next(iter(profile.counts))
        assert merged.counts[sample] == 2 * profile.counts[sample]


def _same_named_arms():
    """A loop whose biased branch goes to two blocks both named ``arm``,
    the cold one first (block names are not unique, and nothing renames
    them): (module, function, the branching block, the hot arm)."""
    module = Module("arms")
    function = module.new_function(types.function(types.INT, []), "main")
    entry, header, body, cold, hot, latch, done = (
        function.append_block(name) for name in
        ("entry", "header", "body", "arm", "arm", "latch", "done"))
    IRBuilder(entry).br(header)
    builder = IRBuilder(header)
    i = builder.phi(types.INT, "i")
    builder.cond_br(builder.setlt(i, ConstantInt(types.INT, 1000)), body, done)
    builder = IRBuilder(body)
    rare = builder.seteq(builder.rem(i, ConstantInt(types.INT, 10)),
                         ConstantInt(types.INT, 0))
    builder.cond_br(rare, cold, hot)
    IRBuilder(cold).br(latch)
    IRBuilder(hot).br(latch)
    builder = IRBuilder(latch)
    following = builder.add(i, ConstantInt(types.INT, 1))
    builder.br(header)
    i.add_incoming(ConstantInt(types.INT, 0), entry)
    i.add_incoming(following, latch)
    IRBuilder(done).ret(i)
    verify_module(module)
    return module, function, body, hot


class TestTraceFormation:
    def test_trace_preserves_semantics(self):
        module = compile_and_link([HOT_LOOP], "hot")
        expected = Interpreter(module).run("main")
        _, profile = _profiled_run(module)

        tracer = TraceFormation()
        for fn in list(module.defined_functions()):
            tracer.optimize_function(fn, profile.counts)
        verify_module(module)
        assert tracer.traces_formed >= 1
        assert Interpreter(module).run("main") == expected

    def test_same_named_successors_pick_the_hot_one(self):
        from repro.analysis.loops import LoopInfo

        module, function, body, hot = _same_named_arms()
        _, profile = _profiled_run(module)
        (loop,) = LoopInfo(function).all_loops()
        path = TraceFormation()._select_path(loop, profile.counts)
        assert path is not None and path[2] is hot

    def test_same_named_successors_lay_out_the_hot_one_next(self):
        from repro.profile.reoptimizer import _layout_hot_path

        module, function, body, hot = _same_named_arms()
        _, profile = _profiled_run(module)
        _layout_hot_path(function, profile.counts)
        assert function.blocks[function.blocks.index(body) + 1] is hot


class TestOfflineReoptimizer:
    def test_cycle(self):
        session = LifelongSession([HOT_LOOP], "hot")
        before = session.run()
        report = session.reoptimize(hot_call_threshold=1, hot_loop_threshold=50)
        after = session.run()
        assert after.exit_value == before.exit_value
        assert after.output == before.output
        # Something happened: traces and/or layout changes.
        assert report.traces_formed + report.blocks_reordered > 0

    def test_ships_the_code_it_optimized(self):
        """A profiled run costs what the static build costs, and the
        reoptimized bytecode carries nothing but the program."""
        session = LifelongSession([HOT_LOOP], "hot")
        static = Interpreter(read_bytecode(session.bytecode))
        static.run("main")
        assert session.run().steps == static.steps
        session.reoptimize(hot_call_threshold=1, hot_loop_threshold=50)
        shipped = read_bytecode(session.bytecode)
        assert set(shipped.functions) == set(static.module.functions)
        rerun = Interpreter(shipped)
        rerun.run("main")
        assert rerun.output == static.output
        assert rerun.steps == session.run().steps


class TestPipelines:
    def test_optimization_levels_ordered(self):
        source = """
static int square(int x) { return x * x; }
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 20; i++) { acc += square(i); }
  return acc % 251;
}
"""
        step_counts = {}
        outputs = set()
        for level in (0, 1, 2, 3):
            module = compile_source(source, f"o{level}")
            optimize_module(module, level)
            verify_module(module)
            interp = Interpreter(module)
            outputs.add(interp.run("main"))
            step_counts[level] = interp.steps
        assert len(outputs) == 1, "every level computes the same answer"
        assert step_counts[2] < step_counts[0]

    def test_lto_shrinks_program(self):
        source = """
static int used(int x) { return x + 1; }
static int unused_helper(int x) { return x * 999; }
static int dead_global_user() { return 0; }
int main() { return used(41); }
"""
        module = compile_source(source, "lto")
        optimize_module(module, 2)
        before = len(module.functions)
        link_time_optimize(module, 2)
        verify_module(module)
        assert len(module.functions) < before
        assert Interpreter(module).run("main") == 42

    def test_multi_tu_compile_and_link(self):
        library = "int add(int a, int b) { return a + b; }"
        app = """
extern int add(int a, int b);
int main() { return add(40, 2); }
"""
        module = compile_and_link([library, app], "two")
        verify_module(module)
        assert Interpreter(module).run("main") == 42

    def test_verify_each_mode(self):
        module = compile_source("int main() { return 1 + 1; }", "v")
        optimize_module(module, 3, verify_each=True)
        assert Interpreter(module).run("main") == 2


class TestCxxFE:
    def test_class_layout_matches_paper(self):
        """Paper 4.1.2: derived classes nest base structs."""
        from repro.core import Module
        from repro.cxxfe import ClassBuilder

        module = Module("classes")
        classes = ClassBuilder(module)

        def method(name):
            def body(builder, this):
                from repro.core import ConstantInt

                builder.ret(ConstantInt(types.INT, 1))

            return classes.emit_method(name, body)

        base = classes.define_class("base1", [types.INT],
                                    {"m": method("base1.m")})
        derived = classes.define_class("derived", [types.SHORT], {},
                                       base=base)
        # derived = { {vptr, int}, short }
        assert derived.struct_type.fields[0] is base.struct_type
        assert derived.struct_type.fields[1] is types.SHORT
        assert derived.methods == base.methods

    def test_override_replaces_slot(self):
        from repro.core import ConstantInt, IRBuilder, Module
        from repro.cxxfe import ClassBuilder

        module = Module("ovr")
        classes = ClassBuilder(module)

        def const_method(name, value):
            def body(builder, this):
                builder.ret(ConstantInt(types.INT, value))

            return classes.emit_method(name, body)

        base = classes.define_class("B", [], {"m": const_method("B.m", 1)})
        derived = classes.define_class("D", [], {"m": const_method("D.m", 2)},
                                       base=base)
        main = module.new_function(types.function(types.INT, []), "main")
        builder = IRBuilder(main.append_block("entry"))
        obj = classes.emit_new(builder, derived)
        result = classes.emit_virtual_call(builder, derived, obj, "m")
        builder.ret(result)
        verify_module(module)
        assert Interpreter(module).run("main") == 2


class TestJITEngine:
    SOURCE = """
extern int print_int(int x);
static int helper_a(int x) { return x + 1; }
static int helper_b(int x) { return x * 2; }
static int cold_path(int x) { return helper_b(x) + 100; }
int main(int which) {
  int r;
  if (which == 0) { r = helper_a(10); }
  else { r = cold_path(10); }
  print_int(r);
  return r;
}
"""

    def _bytecode(self):
        from repro.bitcode import write_bytecode

        module = compile_source(self.SOURCE, "jit")
        return write_bytecode(module, strip_names=False), module

    def test_lazy_materialization(self):
        from repro.execution import JITEngine

        bytecode, module = self._bytecode()
        expected = Interpreter(module).run("main", [0])
        jit = JITEngine(bytecode)
        assert jit.run("main", [0]) == expected == 11
        assert jit.materialized("main")
        assert jit.materialized("helper_a")
        # The cold path never ran: its body was never decoded.
        assert not jit.materialized("cold_path")
        assert not jit.materialized("helper_b")
        assert jit.functions_materialized == 2

    def test_cold_path_decodes_when_taken(self):
        from repro.execution import JITEngine

        bytecode, _ = self._bytecode()
        jit = JITEngine(bytecode)
        assert jit.run("main", [1]) == 120
        assert jit.materialized("cold_path")
        assert jit.materialized("helper_b")
        assert not jit.materialized("helper_a")

    def test_jit_output_matches_interpreter(self):
        from repro.execution import JITEngine

        bytecode, module = self._bytecode()
        reference = Interpreter(module)
        reference.run("main", [1])
        jit = JITEngine(bytecode)
        jit.run("main", [1])
        assert jit.output == reference.output

    def test_jit_instrumentation(self):
        """Section 3.4: "The JIT translator can also insert the same
        instrumentation as the offline code generator" — both are the
        engine's block event, which lazily decoded bodies raise too."""
        from repro.execution import JITEngine

        bytecode, _ = self._bytecode()
        jit = JITEngine(bytecode)
        profile = ProfileData()
        profile.attach(jit.interpreter)
        jit.run("main", [0])
        counts = profile.function_entry_counts()
        assert counts.get("main") == 1
        assert counts.get("helper_a") == 1
        # Never-materialized functions have no counts at all.
        assert "cold_path" not in counts

    def test_indirect_call_materializes(self):
        from repro.bitcode import write_bytecode
        from repro.execution import JITEngine

        module = compile_source("""
static int target(int x) { return x - 5; }
static int apply(int (*f)(int), int v) { return f(v); }
int main() { return apply(target, 47); }
""", "jit2")
        jit = JITEngine(write_bytecode(module, strip_names=False))
        assert jit.run("main") == 42
        assert jit.materialized("target")
