"""Tests for CFG utilities, loops, call graph, alias analysis, Mod/Ref,
and the analysis cache."""

import pytest

from repro.analysis import (
    AliasResult, CallGraph, LoopInfo, ModRefAnalysis, alias,
)
from repro.analysis.callgraph import direct_callee, signature_compatible
from repro.analysis.dominators import DominatorTree
from repro.analysis.dsa import DataStructureAnalysis
from repro.analysis.manager import (
    function_analysis, module_analysis, pass_sweep,
)
from repro.analysis.cfg import (
    edges, is_critical_edge, postorder, reachable_blocks,
    reverse_postorder, split_critical_edge, unreachable_blocks,
)
from repro.core import (
    IRBuilder, Module, parse_function, parse_module, types,
    verify_function,
)
from repro.core.instructions import Opcode
from repro.core.values import ConstantExpr, ConstantInt
from repro.execution import Interpreter


LOOP_SOURCE = """
int %f(int %n) {
entry:
  br label %header
header:
  %i = phi int [ 0, %entry ], [ %next, %latch ]
  %c = setlt int %i, %n
  br bool %c, label %body, label %exit
body:
  br label %latch
latch:
  %next = add int %i, 1
  br label %header
exit:
  ret int %i
}
"""


class TestCFG:
    def test_reachable_and_unreachable(self):
        fn = parse_function("""
int %f() {
entry:
  ret int 1
island:
  ret int 2
}
""")
        assert [b.name for b in reachable_blocks(fn)] == ["entry"]
        assert [b.name for b in unreachable_blocks(fn)] == ["island"]

    def test_postorder_ends_at_entry_reversed(self):
        fn = parse_function(LOOP_SOURCE)
        rpo = reverse_postorder(fn)
        assert rpo[0].name == "entry"
        po = postorder(fn)
        assert po[-1].name == "entry"
        assert {b.name for b in rpo} == {"entry", "header", "body", "latch", "exit"}

    def test_edges(self):
        fn = parse_function(LOOP_SOURCE)
        edge_names = {(a.name, b.name) for a, b in edges(fn)}
        assert ("latch", "header") in edge_names
        assert ("header", "exit") in edge_names

    def test_critical_edge_split(self):
        fn = parse_function("""
int %f(bool %c) {
entry:
  br bool %c, label %shared, label %other
other:
  br label %shared
shared:
  %p = phi int [ 1, %entry ], [ 2, %other ]
  ret int %p
}
""")
        entry = fn.entry_block
        shared = fn.blocks[-1]
        assert is_critical_edge(entry, shared)
        split_critical_edge(entry, shared)
        verify_function(fn)
        assert Interpreter(fn.parent).run("f", [True]) == 1
        assert Interpreter(fn.parent).run("f", [False]) == 2


class TestLoops:
    def test_single_loop(self):
        fn = parse_function(LOOP_SOURCE)
        info = LoopInfo(fn)
        loops = info.all_loops()
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header.name == "header"
        assert {b.name for b in loop.blocks} == {"header", "body", "latch"}
        assert [l.name for l in loop.latches] == ["latch"]
        assert loop.depth == 1

    def test_preheader_detection(self):
        fn = parse_function(LOOP_SOURCE)
        loop = LoopInfo(fn).all_loops()[0]
        assert loop.preheader().name == "entry"

    def test_exit_edges(self):
        fn = parse_function(LOOP_SOURCE)
        loop = LoopInfo(fn).all_loops()[0]
        exits = [(a.name, b.name) for a, b in loop.exit_edges()]
        assert exits == [("header", "exit")]

    def test_nested_loops(self):
        fn = parse_function("""
void %f(int %n) {
entry:
  br label %outer
outer:
  %i = phi int [ 0, %entry ], [ %i1, %outer.latch ]
  br label %inner
inner:
  %j = phi int [ 0, %outer ], [ %j1, %inner ]
  %j1 = add int %j, 1
  %jc = setlt int %j1, %n
  br bool %jc, label %inner, label %outer.latch
outer.latch:
  %i1 = add int %i, 1
  %ic = setlt int %i1, %n
  br bool %ic, label %outer, label %done
done:
  ret void
}
""")
        info = LoopInfo(fn)
        loops = info.all_loops()
        assert len(loops) == 2
        inner = next(l for l in loops if l.header.name == "inner")
        outer = next(l for l in loops if l.header.name == "outer")
        assert inner.parent is outer
        assert inner.depth == 2
        assert info.depth_of(inner.header) == 2
        assert info.depth_of(fn.entry_block) == 0

    def test_no_loops(self):
        fn = parse_function("int %f() {\nentry:\n  ret int 0\n}")
        assert LoopInfo(fn).all_loops() == []


class TestCallGraph:
    MODULE = """
declare void %external()
internal int %leaf(int %x) {
entry:
  ret int %x
}
internal int %middle(int %x) {
entry:
  %r = call int %leaf(int %x)
  ret int %r
}
int %main() {
entry:
  %a = call int %middle(int 1)
  call void %external()
  ret int %a
}
"""

    def test_edges(self):
        module = parse_module(self.MODULE)
        graph = CallGraph(module)
        main = graph.node(module.functions["main"])
        assert {f.name for f in main.callees} == {"middle", "external"}
        leaf = graph.node(module.functions["leaf"])
        assert {f.name for f in leaf.callers} == {"middle"}

    def test_post_order_bottom_up(self):
        module = parse_module(self.MODULE)
        order = [f.name for f in CallGraph(module).post_order()]
        assert order.index("leaf") < order.index("middle") < order.index("main")

    def test_unknown_callers(self):
        module = parse_module(self.MODULE)
        graph = CallGraph(module)
        assert graph.node(module.functions["main"]).has_unknown_callers
        assert not graph.node(module.functions["leaf"]).has_unknown_callers

    def test_address_taken(self):
        module = parse_module("""
internal int %cb(int %x) {
entry:
  ret int %x
}
%table = global int (int)* %cb
int %main(int %v) {
entry:
  %f = load int (int)** %table
  %r = call int (int)* %f(int %v)
  ret int %r
}
""")
        graph = CallGraph(module)
        cb = module.functions["cb"]
        assert graph.is_address_taken(cb)
        # The indirect call conservatively edges to cb.
        main = graph.node(module.functions["main"])
        assert cb in main.callees

    def test_direct_callee_sees_through_constant_casts(self):
        module = parse_module(self.MODULE)
        leaf = module.functions["leaf"]
        other = types.pointer(types.function(types.INT, [types.LONG]))
        once = ConstantExpr("cast", other, [leaf])
        twice = ConstantExpr("cast", leaf.type, [once])
        assert direct_callee(leaf) is leaf
        assert direct_callee(once) is leaf and direct_callee(twice) is leaf
        assert direct_callee(ConstantInt(types.INT, 0)) is None

    def test_signature_compatible_checks_the_fixed_parameters(self):
        module = parse_module("""
declare int %printf(sbyte* %fmt, ...)
int %leaf(int %x) {
entry:
  ret int %x
}
int %main(sbyte* %s, long %wide) {
entry:
  %a = call int %leaf(int 1)
  %b = call int (sbyte*, ...)* %printf(sbyte* %s, int %a)
  ret int %b
}
""")
        to_leaf, to_printf = [inst for inst in
                              module.functions["main"].instructions()
                              if inst.opcode.value == "call"]
        leaf, printf = module.functions["leaf"], module.functions["printf"]
        assert signature_compatible(to_leaf, leaf)
        assert signature_compatible(to_printf, printf)
        assert not signature_compatible(to_printf, leaf)   # arity
        assert not signature_compatible(to_leaf, printf)   # int is not sbyte*


class TestAlias:
    def _f(self):
        return parse_function("""
void %f(int* %p, int* %q) {
entry:
  %a = alloca int
  %b = alloca int
  %pair = alloca { int, int }
  %f0 = getelementptr { int, int }* %pair, long 0, uint 0
  %f1 = getelementptr { int, int }* %pair, long 0, uint 1
  ret void
}
""")

    def test_distinct_allocas_no_alias(self):
        fn = self._f()
        a, b = fn.entry_block.instructions[0], fn.entry_block.instructions[1]
        assert alias(a, b) is AliasResult.NO_ALIAS

    def test_same_value_must_alias(self):
        fn = self._f()
        a = fn.entry_block.instructions[0]
        assert alias(a, a) is AliasResult.MUST_ALIAS

    def test_distinct_fields_no_alias(self):
        fn = self._f()
        f0 = fn.entry_block.instructions[3]
        f1 = fn.entry_block.instructions[4]
        assert alias(f0, f1) is AliasResult.NO_ALIAS

    def test_unknown_args_may_alias(self):
        fn = self._f()
        assert alias(fn.args[0], fn.args[1]) is AliasResult.MAY_ALIAS

    def test_arg_vs_fresh_alloca(self):
        fn = self._f()
        a = fn.entry_block.instructions[0]
        # Conservative: an unknown pointer may point anywhere visible,
        # but a *fresh* alloca has not escaped.  Our cheap analysis says
        # may-alias; the important bit is it never says MUST.
        assert alias(fn.args[0], a) is not AliasResult.MUST_ALIAS

    def test_null_never_aliases(self):
        from repro.core.values import ConstantPointerNull

        fn = self._f()
        null = ConstantPointerNull(types.pointer(types.INT))
        assert alias(null, fn.args[0]) is AliasResult.NO_ALIAS

    def test_gep_same_offset_must_alias(self):
        fn = parse_function("""
void %f() {
entry:
  %pair = alloca { int, int }
  %x = getelementptr { int, int }* %pair, long 0, uint 1
  %y = getelementptr { int, int }* %pair, long 0, uint 1
  ret void
}
""")
        x = fn.entry_block.instructions[1]
        y = fn.entry_block.instructions[2]
        assert alias(x, y) is AliasResult.MUST_ALIAS


class TestModRef:
    def test_direct_and_transitive(self):
        module = parse_module("""
%a = global int 0
%b = global int 0
internal void %writes_a() {
entry:
  store int 1, int* %a
  ret void
}
internal void %calls_writer() {
entry:
  call void %writes_a()
  ret void
}
internal int %reads_b() {
entry:
  %v = load int* %b
  ret int %v
}
int %main() {
entry:
  call void %calls_writer()
  %v = call int %reads_b()
  ret int %v
}
""")
        modref = ModRefAnalysis(module)
        a = module.globals["a"]
        b = module.globals["b"]
        writer = module.functions["writes_a"]
        caller = module.functions["calls_writer"]
        reader = module.functions["reads_b"]
        assert modref.may_modify(writer, a)
        assert not modref.may_modify(writer, b)
        assert modref.may_modify(caller, a)  # transitively
        assert not modref.may_modify(reader, a)
        assert modref.may_reference(reader, b)
        assert not modref.may_reference(reader, a)

    def test_unknown_external_mods_everything(self):
        module = parse_module("""
%g = global int 0
declare void %mystery()
internal void %calls_mystery() {
entry:
  call void %mystery()
  ret void
}
""")
        modref = ModRefAnalysis(module)
        caller = module.functions["calls_mystery"]
        assert modref.may_modify(caller, module.globals["g"])


class TestAnalysisManager:
    """One cache: a function's analyses are kept while its epoch holds,
    a module's for one pass sweep."""

    MODULE = """
int %first() {
entry:
  %p = alloca int
  store int 1, int* %p
  %v = load int* %p
  ret int %v
}
int %second() {
entry:
  %q = alloca int
  store int 2, int* %q
  %v = load int* %q
  ret int %v
}
"""

    def test_function_analysis_kept_until_the_epoch_moves(self):
        fn = parse_function(LOOP_SOURCE)
        tree = function_analysis(fn, DominatorTree)
        assert function_analysis(fn, DominatorTree) is tree
        assert function_analysis(fn, LoopInfo).domtree is tree
        exit_block = fn.blocks[-1]
        ret = exit_block.terminator
        ret.remove_from_parent()  # moves the epoch, not the CFG
        exit_block.append(ret)
        assert function_analysis(fn, DominatorTree) is not tree

    def test_verifier_leaves_its_tree_but_never_reads_the_cache(self):
        fn = parse_function(LOOP_SOURCE)
        planted = DominatorTree(parse_function(LOOP_SOURCE))
        fn.analyses = (fn.epoch, {DominatorTree: planted})
        verify_function(fn)  # would fail on a tree of another function
        tree = function_analysis(fn, DominatorTree)
        assert tree is not planted
        assert tree.dominates_block(fn.entry_block, fn.blocks[-1])

    def test_module_analysis_memoized_only_in_a_sweep(self):
        module = parse_module(self.MODULE)
        assert (module_analysis(module, CallGraph)
                is not module_analysis(module, CallGraph))
        with pass_sweep():
            graph = module_analysis(module, CallGraph)
            assert module_analysis(module, CallGraph) is graph
            assert (module_analysis(module, ModRefAnalysis).dsa
                    is module_analysis(module, DataStructureAnalysis))
        assert module_analysis(module, CallGraph) is not graph

    def test_rollback_drops_the_sweeps_module_analyses(self):
        """The unit after a rolled-back one gets a DSA that has seen
        the rebuilt body, not the memoized one that predates it."""
        from repro.driver import FaultPolicy
        from repro.transforms import FunctionPassAdaptor, PassManager

        module = parse_module(self.MODULE)
        complete = []

        def probe(function):
            dsa = module_analysis(module, DataStructureAnalysis)
            complete.append(all(
                dsa.node_of(inst) is not None
                for other in module.defined_functions()
                for inst in other.instructions()
                if inst.opcode is Opcode.ALLOCA))
            if function.name == "first":
                raise RuntimeError("planted failure")
            return False

        policy = FaultPolicy(reduce_testcases=False)
        PassManager(policy=policy).add(
            FunctionPassAdaptor(probe, "probe")).run(module)
        assert policy.statistics()["passes.rolled_back"] == 1
        assert complete == [True, True]


class TestSummaries:
    MODULE = """
%counter = global int 0
declare void %external_thing()
internal void %leaf_writer() {
entry:
  store int 1, int* %counter
  ret void
}
internal int %leaf_reader() {
entry:
  %v = load int* %counter
  ret int %v
}
internal void %thrower() {
entry:
  unwind
}
internal void %calls_thrower() {
entry:
  call void %thrower()
  ret void
}
int %main() {
entry:
  call void %leaf_writer()
  %v = call int %leaf_reader()
  ret int %v
}
"""

    def _summaries(self):
        from repro.analysis.summaries import ModuleSummaries
        from repro.core import parse_module

        module = parse_module(self.MODULE)
        return module, ModuleSummaries.compute(module)

    def test_per_function_facts(self):
        _, summaries = self._summaries()
        writer = summaries.summaries["leaf_writer"]
        assert writer.writes_globals == ["counter"]
        assert not writer.reads_globals
        reader = summaries.summaries["leaf_reader"]
        assert reader.reads_globals == ["counter"]
        assert summaries.summaries["thrower"].unwinds_locally
        assert summaries.summaries["external_thing"].is_declaration
        assert set(summaries.summaries["main"].direct_callees) == \
            {"leaf_writer", "leaf_reader"}

    def test_summary_may_unwind_matches_body_scan(self):
        """The incremental-compilation contract: summary-driven facts
        equal recomputed-from-bodies facts."""
        from repro.transforms.ipo import PruneExceptionHandlers

        module, summaries = self._summaries()
        from_summaries = summaries.may_unwind(
            PruneExceptionHandlers.KNOWN_NO_UNWIND
        )
        from_bodies = PruneExceptionHandlers()._compute_may_unwind(module)
        assert from_summaries == from_bodies

    def test_transitive_writes(self):
        _, summaries = self._summaries()
        assert summaries.transitive_global_writes("main") == {"counter"}
        assert summaries.transitive_global_writes("leaf_reader") == set()
        # A closure containing an external is unknown.
        from repro.analysis.summaries import ModuleSummaries
        from repro.core import parse_module

        module = parse_module("""
declare void %mystery()
int %calls_out() {
entry:
  call void %mystery()
  ret int 0
}
""")
        other = ModuleSummaries.compute(module)
        assert other.transitive_global_writes("calls_out") is None

    def test_json_round_trip(self):
        from repro.analysis.summaries import ModuleSummaries

        _, summaries = self._summaries()
        restored = ModuleSummaries.from_json(summaries.to_json())
        assert restored.call_graph_edges() == summaries.call_graph_edges()
        assert restored.may_unwind() == summaries.may_unwind()

    def test_summaries_over_benchsuite(self):
        """Summary facts agree with body scans on a real program."""
        from repro.analysis.summaries import ModuleSummaries
        from repro.benchsuite import load_source
        from repro.frontend import compile_source
        from repro.transforms.ipo import PruneExceptionHandlers

        module = compile_source(load_source("mcf"), "mcf")
        summaries = ModuleSummaries.compute(module)
        assert summaries.may_unwind(
            PruneExceptionHandlers.KNOWN_NO_UNWIND
        ) == PruneExceptionHandlers()._compute_may_unwind(module)

    def test_invoke_does_not_propagate_unwind_in_summary(self):
        from repro.analysis.summaries import ModuleSummaries
        from repro.core import parse_module
        from repro.transforms.ipo import PruneExceptionHandlers

        module = parse_module("""
internal void %thrower() {
entry:
  unwind
}
int %guarded() {
entry:
  invoke void %thrower() to label %ok unwind to label %caught
ok:
  ret int 0
caught:
  ret int 1
}
""")
        summaries = ModuleSummaries.compute(module)
        from_summaries = summaries.may_unwind(
            PruneExceptionHandlers.KNOWN_NO_UNWIND
        )
        from_bodies = PruneExceptionHandlers()._compute_may_unwind(module)
        assert from_summaries == from_bodies
        assert not from_summaries["guarded"], "the invoke catches it"
