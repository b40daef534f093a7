"""Tests for the supporting infrastructure: pass manager, cloning,
module symbol tables, basic-block surgery, and transform utilities."""

import pytest

from repro.core import (
    ConstantBool, ConstantInt, IRBuilder, Module, parse_function,
    parse_module, print_function, print_module, types, verify_function,
    verify_module,
)
from repro.core.basicblock import BasicBlock
from repro.core.instructions import BranchInst, Opcode
from repro.core.module import Function, Linkage
from repro.core.record import rebuild_body, snapshot_function
from repro.execution import Interpreter
from repro.stats import Stats, format_stats, format_timings
from repro.transforms import (
    DeadCodeElimination, FunctionPassAdaptor, ModulePassAdaptor,
    PassManager, SimplifyCFG,
)
from repro.transforms.utils import (
    constant_fold_terminator, delete_dead_instructions, fold_instruction,
    is_trivially_dead,
)


class TestPassManager:
    def test_runs_in_order(self):
        log = []
        manager = PassManager()
        manager.add(ModulePassAdaptor(lambda m: log.append("first") or False,
                                      "first"))
        manager.add(ModulePassAdaptor(lambda m: log.append("second") or False,
                                      "second"))
        manager.run(Module("m"))
        assert log == ["first", "second"]

    def test_function_pass_over_definitions_only(self):
        module = parse_module("""
declare void %ext()
int %defined() {
entry:
  ret int 0
}
""")
        seen = []
        manager = PassManager()
        manager.add(FunctionPassAdaptor(
            lambda f: seen.append(f.name) or False, "collect"
        ))
        manager.run(module)
        assert seen == ["defined"]

    def test_changed_aggregation(self):
        module = parse_module("""
int %f() {
entry:
  %dead = add int 1, 2
  ret int 0
}
""")
        manager = PassManager()
        manager.add(DeadCodeElimination())
        assert manager.run(module) is True
        assert manager.run(module) is False

    def test_fixpoint(self):
        module = parse_module("""
int %f() {
entry:
  %dead = add int 1, 2
  ret int 0
}
""")
        manager = PassManager()
        manager.add(DeadCodeElimination())
        iterations = manager.run_until_fixpoint(module)
        assert iterations == 2  # one changing run + one quiescent run

    def test_timings_recorded(self):
        module = parse_module("int %f() {\nentry:\n  ret int 0\n}")
        manager = PassManager()
        manager.add(SimplifyCFG())
        manager.run(module)
        assert "simplifycfg" in manager.stats.seconds
        assert manager.stats.runs["simplifycfg"] == 1
        assert "simplifycfg" in format_timings(manager.stats)

    def test_verify_each_catches_bad_pass(self):
        module = parse_module("int %f(int %x) {\nentry:\n  ret int %x\n}")

        def vandal(function):
            # Delete the terminator: invalid IR.
            function.entry_block.instructions[-1].erase_from_parent()
            return True

        manager = PassManager(verify_each=True)
        manager.add(FunctionPassAdaptor(vandal, "vandal"))
        from repro.core import VerificationError

        with pytest.raises(VerificationError):
            manager.run(module)

    def test_non_pass_rejected(self):
        with pytest.raises(TypeError):
            PassManager().add(object())

    def test_verify_each_catches_changed_flag_liar(self):
        """A pass that mutates IR while returning False is a planted
        liar: fixpoint drivers would stop early and verification would
        be skipped on its say-so.  verify_each audits the claim with a
        serialization digest and names the offender."""
        from repro.transforms.passmanager import ChangedFlagLie

        module = parse_module("""
int %f() {
entry:
  %dead = add int 1, 2
  ret int 0
}
""")

        def liar(function):
            function.entry_block.instructions[0].erase_from_parent()
            return False  # the lie

        manager = PassManager(verify_each=True)
        manager.add(FunctionPassAdaptor(liar, "liar"))
        with pytest.raises(ChangedFlagLie) as excinfo:
            manager.run(module)
        assert excinfo.value.pass_name == "liar"

    def test_verify_each_tolerates_over_reporting(self):
        """Claiming a change while moving nothing is conservative, not
        a lie — the digest proves nothing moved, so the manager skips
        the redundant re-verify and carries on."""
        module = parse_module("int %f() {\nentry:\n  ret int 0\n}")
        manager = PassManager(verify_each=True)
        manager.add(ModulePassAdaptor(lambda m: True, "chicken-little"))
        assert manager.run(module) is True

    def test_honest_false_passes_audit(self):
        module = parse_module("int %f() {\nentry:\n  ret int 0\n}")
        manager = PassManager(verify_each=True)
        manager.add(ModulePassAdaptor(lambda m: False, "noop"))
        assert manager.run(module) is False

    def test_shared_record(self):
        """Two managers given one record merge their reports, so a
        driver invocation prints each pass exactly once (-time-passes
        audit)."""
        sink = Stats()
        module = parse_module("int %f() {\nentry:\n  ret int 0\n}")
        first = PassManager(stats=sink)
        first.add(SimplifyCFG())
        first.run(module)
        second = PassManager(stats=sink)
        second.add(SimplifyCFG())
        second.run(module)
        assert sink.runs["simplifycfg"] == 2
        assert second.stats is sink
        assert format_timings(sink).count("simplifycfg") == 1


class TestStatsRecord:
    """The one statistics record (ISSUE 13): counters add, levels are
    set, and the kind is the record's, not the name's."""

    @staticmethod
    def record(hits: int, misses: int, rules: int, seconds: float) -> Stats:
        stats = Stats()
        stats.declare("cache", "hits", "misses", "evictions")
        stats.count("cache", "hits", hits)
        stats.count("cache", "misses", misses)
        stats.gauge("policy", "rules-loaded", rules)
        stats.time("gvn", seconds)
        return stats

    def test_merge_adds_counters_and_keeps_levels(self):
        total = self.record(3, 1, 52, 0.25)
        total.merge(self.record(4, 2, 52, 0.5))
        assert total.view("cache") == {"hits": 7, "misses": 3,
                                       "evictions": 0}
        # A name that *looks* like a counter is still a level.
        assert total.view("policy") == {"rules-loaded": 52}
        assert total.seconds == {"gvn": 0.75} and total.runs == {"gvn": 2}

    def test_merging_a_delta_reproduces_the_source(self):
        source = self.record(3, 1, 52, 0.25)
        shipped = Stats().merge(source)
        source.count("cache", "hits", 5)
        source.count("inline", "calls_inlined", 2)
        source.gauge("policy", "rules-loaded", 60)
        source.time("gvn", 0.5)
        source.time("licm", 0.125)
        delta = source.delta(shipped)
        assert delta.view("cache") == {"hits": 5, "misses": 0,
                                       "evictions": 0}
        shipped.merge(delta)
        assert shipped.views() == source.views()
        assert shipped.seconds == source.seconds
        assert shipped.runs == source.runs
        # ... and a second delta, with nothing new, moves nothing.
        assert not any(source.delta(shipped).view("cache").values())

    def test_declared_names_are_in_the_view_at_zero(self):
        stats = Stats()
        stats.declare("policy", "passes.rolled_back", "fallbacks.taken")
        assert stats.view("policy") == {"passes.rolled_back": 0,
                                        "fallbacks.taken": 0}
        assert Stats().merge(stats).view("policy") == stats.view("policy")
        assert stats.view("nobody") == {}

    def test_a_name_never_changes_kind(self):
        stats = self.record(1, 1, 52, 0.0)
        with pytest.raises(ValueError):
            stats.count("policy", "rules-loaded")
        with pytest.raises(ValueError):
            stats.gauge("cache", "hits", 9)
        assert stats.view("policy") == {"rules-loaded": 52}
        assert stats.view("cache")["hits"] == 1

    def test_crosses_a_pipe(self):
        import pickle

        stats = self.record(3, 1, 52, 0.25)
        copy = pickle.loads(pickle.dumps(stats))
        assert copy.views() == stats.views()
        copy.count("cache", "hits")  # the copy has a lock of its own
        with pytest.raises(ValueError):
            copy.count("policy", "rules-loaded")

    def test_report_formats_are_pinned(self):
        stats = self.record(12, 1, 52, 0.25)
        stats.time("gvn", 0.5)
        assert format_stats(stats.views()) == "\n".join([
            "===-------------------- statistics --------------------===",
            "       0 cache              evictions",
            "      12 cache              hits",
            "       1 cache              misses",
            "      52 policy             rules-loaded",
        ])
        assert format_timings(stats) == "\n".join([
            "===------------------ pass timings ------------------===",
            "gvn                        0.7500s (2 runs)",
        ])
        assert format_stats({}) == "" and format_timings(Stats()) == ""

    def test_pass_counters_land_as_each_pass_finishes(self):
        """The pass manager's one participation protocol: ``counters``
        (and ``levels``) on the pass object, folded in by difference so
        a pass object that runs twice is not counted twice."""
        class Counting:
            name = "counting"

            def __init__(self):
                self.counters = {"seen": 0}
                self.levels = {"limit": 7}

            def run_on_function(self, function):
                self.counters["seen"] += 1
                return False

        module = parse_module("int %f() {\nentry:\n  ret int 0\n}\n"
                              "int %g() {\nentry:\n  ret int 0\n}")
        manager = PassManager().add(Counting()).add(Counting())
        manager.run(module)
        assert manager.statistics() == {"counting": {"seen": 4, "limit": 7}}
        manager.run(module)
        assert manager.statistics() == {"counting": {"seen": 8, "limit": 7}}


def _clone(function: Function, name: str) -> Function:
    """A deep copy of ``function`` under ``name``, in its module."""
    clone = function.parent.add_function(
        Function(function.function_type, name, function.linkage))
    rebuild_body(snapshot_function(function), clone)
    return clone


class TestCloning:
    def test_clone_function_is_deep(self):
        module = parse_module("""
int %original(int %x) {
entry:
  %c = setlt int %x, 10
  br bool %c, label %small, label %big
small:
  %a = add int %x, 1
  br label %join
big:
  %b = mul int %x, 2
  br label %join
join:
  %r = phi int [ %a, %small ], [ %b, %big ]
  ret int %r
}
""")
        original = module.functions["original"]
        clone = _clone(original, "copy")
        verify_module(module)
        assert clone.parent is module
        # Same behaviour, distinct objects.
        assert Interpreter(module).run("copy", [3]) == \
            Interpreter(module).run("original", [3]) == 4
        for old_block, new_block in zip(original.blocks, clone.blocks):
            assert old_block is not new_block
            for old_inst, new_inst in zip(old_block.instructions,
                                          new_block.instructions):
                assert old_inst is not new_inst

    def test_clone_then_mutate_does_not_leak(self):
        module = parse_module("""
int %original(int %x) {
entry:
  %a = add int %x, 1
  ret int %a
}
""")
        original = module.functions["original"]
        before = print_function(original)
        clone = _clone(original, "copy")
        clone.entry_block.instructions[0].set_operand(
            1, ConstantInt(types.INT, 99)
        )
        assert print_function(original) == before

    def test_stand_in_arguments_keep_their_names(self):
        module = parse_module("""
int %callee(int %x) {
entry:
  %a = add int %x, 1
  ret int %a
}
int %host(int %y) {
entry:
  ret int %y
}
""")
        host = module.functions["host"]
        stand_in = host.args[0]
        blocks = rebuild_body(snapshot_function(module.functions["callee"]),
                              host, [stand_in], suffix=".i")
        assert stand_in.name == "y"
        assert [b.name for b in blocks] == ["entry.i"]
        assert blocks[0].instructions[0].operands[0] is stand_in
        # Without stand-ins, the function's own arguments take the
        # recorded names.
        copy = _clone(module.functions["callee"], "copy")
        assert [a.name for a in copy.args] == ["x"]


class TestModuleSymbols:
    def test_duplicate_symbol_rejected(self):
        module = Module("m")
        module.new_global(types.INT, "thing")
        with pytest.raises(ValueError, match="already defined"):
            module.new_function(types.function(types.VOID, []), "thing")

    def test_unique_symbol(self):
        module = Module("m")
        module.new_global(types.INT, "x")
        assert module.unique_symbol("x") == "x.1"
        module.new_global(types.INT, "x.1")
        assert module.unique_symbol("x") == "x.2"
        assert module.unique_symbol("fresh") == "fresh"

    def test_get_or_insert_function(self):
        module = Module("m")
        ty = types.function(types.INT, [types.INT])
        first = module.get_or_insert_function(ty, "f")
        again = module.get_or_insert_function(ty, "f")
        assert first is again
        with pytest.raises(TypeError):
            module.get_or_insert_function(types.function(types.VOID, []), "f")

    def test_erase_function(self):
        module = parse_module("""
internal int %gone() {
entry:
  ret int 1
}
""")
        module.functions["gone"].erase_from_parent()
        assert "gone" not in module.functions

    def test_named_type_conflict(self):
        module = Module("m")
        module.add_named_type(types.named_struct("t", [types.INT]))
        with pytest.raises(ValueError, match="already defined"):
            module.add_named_type(types.named_struct("t", [types.INT]))


class TestBlockSurgery:
    def test_split_at(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %a = add int %x, 1
  %b = add int %a, 2
  ret int %b
}
""")
        entry = fn.entry_block
        tail = entry.split_at(1, "tail")
        verify_function(fn)
        assert [b.name for b in fn.blocks] == ["entry", "tail"]
        assert len(entry.instructions) == 2  # %a + br
        assert isinstance(entry.terminator, BranchInst)
        assert Interpreter(fn.parent).run("f", [1]) == 4

    def test_split_updates_successor_phis(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %a = add int %x, 1
  br label %next
next:
  %p = phi int [ %a, %entry ]
  ret int %p
}
""")
        entry = fn.entry_block
        entry.split_at(1, "mid")
        verify_function(fn)
        next_block = fn.blocks[-1]
        phi = next(next_block.phis())
        assert phi.incoming[0][1].name == "mid"

    def test_predecessors(self):
        fn = parse_function("""
void %f(bool %c) {
entry:
  br bool %c, label %t, label %t
t:
  ret void
}
""")
        target = fn.blocks[1]
        assert len(target.predecessors()) == 2  # one per edge
        assert len(target.unique_predecessors()) == 1


class TestTransformUtils:
    def test_fold_instruction(self):
        fn = parse_function("""
int %f() {
entry:
  %x = add int 2, 3
  ret int %x
}
""")
        folded = fold_instruction(fn.entry_block.instructions[0])
        assert folded.value == 5

    def test_is_trivially_dead(self):
        fn = parse_function("""
int %f(int* %p) {
entry:
  %dead = add int 1, 2
  store int 0, int* %p
  %live = add int 3, 4
  ret int %live
}
""")
        dead, store, live, _ = fn.entry_block.instructions
        assert is_trivially_dead(dead)
        assert not is_trivially_dead(store)
        assert not is_trivially_dead(live)

    def test_delete_dead_chain(self):
        fn = parse_function("""
int %f(int %x) {
entry:
  %a = add int %x, 1
  %b = mul int %a, 2
  %c = sub int %b, 3
  ret int %x
}
""")
        assert delete_dead_instructions(fn)
        assert fn.instruction_count() == 1

    def test_constant_fold_terminator_on_branch(self):
        fn = parse_function("""
int %f() {
entry:
  br bool false, label %a, label %b
a:
  ret int 1
b:
  ret int 2
}
""")
        assert constant_fold_terminator(fn.entry_block)
        term = fn.entry_block.terminator
        assert not term.is_conditional
        assert term.operands[0].name == "b"


class TestLinkageAndPurity:
    def test_linkage_validation(self):
        with pytest.raises(ValueError, match="linkage"):
            Function(types.function(types.VOID, []), "f", "imaginary")

    def test_pure_flag_survives_text_no(self):
        """is_pure is an in-memory analysis mark, not serialized text —
        but it does survive the bytecode path."""
        from repro.bitcode import read_bytecode, write_bytecode

        module = Module("m")
        fn = module.new_function(types.function(types.INT, []), "f")
        builder = IRBuilder(fn.append_block("entry"))
        builder.ret(ConstantInt(types.INT, 1))
        fn.is_pure = True
        decoded = read_bytecode(write_bytecode(module))
        assert decoded.functions["f"].is_pure
