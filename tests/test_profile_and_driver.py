"""Tests for profiling, trace formation, the offline reoptimizer, the
pipelines, the lifelong session, and the cxxfe lowering helpers."""

from collections import Counter

import pytest

from repro.analysis.loops import LoopInfo
from repro.bitcode import read_bytecode
from repro.core import (
    ConstantInt, IRBuilder, Module, print_module, types, verify_module,
)
from repro.core.instructions import InvokeInst
from repro.driver import (
    LifelongSession, compile_and_link, link_time_optimize, optimize_module,
)
from repro.execution import Interpreter, TraceManager
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


TWO_HOT_LOOPS = """
extern int print_int(int x);
int main() {
  int a = 0;
  int b = 0;
  int i;
  for (i = 0; i < 400; i++) {
    if (i % 10 == 0) { a += 100; } else { a += i; }
  }
  for (i = 0; i < 300; i++) {
    if (i % 7 == 0) { b += 3; } else { b += 2 * i; }
  }
  print_int(a);
  print_int(b);
  return (a + b) % 251;
}
"""


#: A loop whose branch alternates each iteration: no arm is biased, and
#: the trace tier compiles both cycles through it as one tree.
ALTERNATING = """
extern int print_int(int x);
int cost[64];
int wirelength(int n, int seed) {
  int total = 0;
  int i = 0;
  while (i < n) {
    if ((i + seed) % 2 == 0) { total += cost[i % 64]; }
    else { total -= 3; }
    i++;
  }
  return total;
}
int main() {
  int sum = 0;
  int k;
  for (k = 0; k < 64; k++) { cost[k] = k * 7 % 11; }
  for (k = 0; k < 40; k++) { sum += wirelength(60, k); }
  print_int(sum);
  return sum % 251;
}
"""


#: A hot loop, then a ``try`` around a recursive call that may throw:
#: the recursion keeps an invoke in ``main`` whose value is used.
TRY_AROUND_RECURSION = """
extern int print_int(int x);
static int halve(int x) {
  if (x > 1000000) { throw; }
  if (x > 10) { return halve(x / 2) + 1; }
  return x * 3;
}
int main() {
  int total = 0;
  int i;
  int v = 0;
  for (i = 0; i < 500; i++) {
    if (i % 3 == 0) { total += i; } else { total -= 1; }
  }
  try {
    v = halve(total);
  } catch {
    v = 0 - 1;
  }
  print_int(v + total);
  return 0;
}
"""


def _profiled_run(module):
    """(interpreter, profile) after one profiled run of ``main``."""
    interp = Interpreter(module)
    manager = TraceManager()
    manager.attach(interp)
    interp.run("main")
    return interp, manager.profile


class TestInstrumentation:
    """The trace tier's block event is the profiler: nothing is
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

    def test_json_round_trip(self):
        module, profile = self._collected()
        assert profile.paths
        restored = ProfileData.from_json(profile.to_json(), module)
        assert restored.counts == profile.counts
        assert restored.paths == profile.paths

    def test_merge(self):
        _, profile = self._collected()
        merged = ProfileData()
        merged.merge(profile)
        merged.merge(profile)
        sample = next(iter(profile.counts))
        assert merged.counts[sample] == 2 * profile.counts[sample]
        assert merged.paths == {path: 2 * n
                                for path, n in profile.paths.items()}

    def test_a_compiled_cycle_counts_its_full_iterations(self):
        """Each cycle the trace tier compiled is a path from its loop
        header, credited with the iterations that went all the way
        round it."""
        module, profile = self._collected()
        ((path, iterations),) = profile.paths.items()
        header = path[0]
        assert all(target in block.successors() for block, target
                   in zip(path, (*path[1:], header)))
        assert 0 < iterations < profile.counts[header]


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
            tracer.optimize_function(fn, [path for path in profile.paths
                                          if path[0].parent is fn])
        verify_module(module)
        assert tracer.traces_formed >= 1
        assert Interpreter(module).run("main") == expected

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
        report = session.reoptimize(hot_call_threshold=1)
        after = session.run()
        assert after.exit_value == before.exit_value
        assert after.output == before.output
        # Something happened: traces and/or layout changes.
        assert report.traces_formed + report.blocks_reordered > 0

    def test_a_function_with_two_hot_loops_forms_its_traces_once(
            self, monkeypatch):
        """One ``optimize_function`` call forms every loop's trace; a
        second would trace the traces."""
        formed = []
        optimize = TraceFormation.optimize_function

        def spy(tracer, function, paths):
            formed.append(function.name)
            return optimize(tracer, function, paths)

        monkeypatch.setattr(TraceFormation, "optimize_function", spy)
        session = LifelongSession([TWO_HOT_LOOPS], "two", level=0)
        before = session.run()
        assert {path[0] for path in session.profile.paths} == set(
            loop.header for loop in LoopInfo(
                session.module.functions["main"]).all_loops())
        report = session.reoptimize(hot_call_threshold=1)
        assert formed == ["main"]
        assert report.traces_formed == 3
        after = session.run()
        assert (after.exit_value, after.output) == (before.exit_value,
                                                    before.output)

    def test_an_unbiased_loop_gets_the_superblocks_its_trace_tree_ran(self):
        """What the trace tier compiled is what gets reshaped, biased
        or not: both arms of an alternating branch become superblocks
        of their loop."""
        session = LifelongSession([ALTERNATING], "alt")
        before = session.run()
        trees = Counter(path[0] for path in session.profile.paths)
        ((header, cycles),) = trees.most_common(1)
        assert cycles >= 2
        report = session.reoptimize()
        assert report.traces_formed >= cycles
        assert any(block.name.endswith(".trace")
                   for block in header.parent.blocks)
        after = session.run()
        assert (after.exit_value, after.output) == (before.exit_value,
                                                    before.output)
        assert after.steps < before.steps

    def test_two_cycles_in_one_session(self):
        """A second reoptimize forms superblocks from the cycles the
        new code ran; the first cycle's paths, stale by then, are
        dropped and, fed back in, change nothing."""
        session = LifelongSession([ALTERNATING], "alt")
        reference = session.run()
        stale = dict(session.profile.paths)
        assert session.reoptimize().traces_formed >= 1
        assert not session.profile.paths
        second = session.run()
        assert session.profile.paths
        session.profile.paths.update(stale)
        assert session.reoptimize().traces_formed >= 1
        third = session.run()
        for run in (second, third):
            assert (run.exit_value, run.output) == (reference.exit_value,
                                                    reference.output)
        verify_module(session.module)

    def test_a_function_with_a_used_invoke_is_trace_formed(self):
        """Inlining at an invoke leaves invokes whose values are used in
        ``main``; forming ``main``'s superblocks demotes those values
        on their normal edges and ships valid IR."""
        session = LifelongSession([TRY_AROUND_RECURSION], "eh")
        assert any(isinstance(inst, InvokeInst) for inst
                   in session.module.functions["main"].instructions())
        before = session.run()
        assert session.reoptimize().traces_formed >= 1
        verify_module(session.module)
        after = session.run()
        assert (after.exit_value, after.output) == (before.exit_value,
                                                    before.output)

    def test_ships_the_code_it_optimized(self):
        """A profiled run costs what the static build costs, and the
        reoptimized bytecode carries nothing but the program."""
        session = LifelongSession([HOT_LOOP], "hot")
        static = Interpreter(read_bytecode(session.bytecode))
        static.run("main")
        assert session.run().steps == static.steps
        session.reoptimize(hot_call_threshold=1)
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
        jit = JITEngine(bytecode, jit_traces=True)
        jit.run("main", [0])
        counts = jit.trace_manager.profile.function_entry_counts()
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
