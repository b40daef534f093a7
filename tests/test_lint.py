"""Tests for the sparse/dense dataflow engine and the lc-lint checkers.

Engine tests drive hand-built CFGs (a diamond and a two-entry loop) to
fixpoints in both directions; checker tests compile small LC programs
and assert on the rendered diagnostics, golden-output style; the
acceptance test runs the whole suite over every benchmark program after
the standard pipeline and requires zero errors or warnings.
"""

from collections import Counter

import pytest

from repro.benchsuite import benchmark_names, compile_benchmark
from repro.analysis.cfg import reachable_blocks
from repro.core import IRBuilder, Module, parse_module, types
from repro.core.values import Constant, ConstantExpr, ConstantInt
from repro.frontend import compile_source
from repro.driver.pipelines import compile_and_link, optimize_module
from repro.sanalysis import (
    BACKWARD, CHECKERS, DenseAnalysis, FORWARD, Severity, SparseAnalysis,
    StaticCheckSuite, check_cross_module, run_checkers, solve_dense,
    solve_sparse,
)
from repro.transforms import PassManager


# ---------------------------------------------------------------------------
# The dataflow engine on hand-built CFGs
# ---------------------------------------------------------------------------

def _diamond():
    """entry -> {left, right} -> join, returning an int."""
    module = Module("cfg")
    fn = module.new_function(types.function(types.INT, [types.BOOL]), "f")
    entry = fn.append_block("entry")
    left = fn.append_block("left")
    right = fn.append_block("right")
    join = fn.append_block("join")
    IRBuilder(entry).cond_br(fn.args[0], left, right)
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    IRBuilder(join).ret(ConstantInt(types.INT, 0))
    return fn, entry, left, right, join


def _two_entry_loop():
    """entry -> {b1, b2}; b1 -> b2; b2 -> {b1, exit}: a loop that is
    entered at two points (irreducible), forcing real iteration."""
    module = Module("cfg")
    fn = module.new_function(types.function(types.INT, [types.BOOL]), "f")
    entry = fn.append_block("entry")
    b1 = fn.append_block("b1")
    b2 = fn.append_block("b2")
    exit_ = fn.append_block("exit")
    IRBuilder(entry).cond_br(fn.args[0], b1, b2)
    IRBuilder(b1).br(b2)
    IRBuilder(b2).cond_br(fn.args[0], b1, exit_)
    IRBuilder(exit_).ret(ConstantInt(types.INT, 0))
    return fn, entry, b1, b2, exit_


class _Trace(DenseAnalysis):
    """Collects the names of blocks on paths to (forward) or from
    (backward) each point.  Union meet = may; intersection = must."""

    def __init__(self, direction, must=False, universe=frozenset()):
        self.direction = direction
        self.must = must
        self.universe = universe

    def boundary(self, function):
        return frozenset()

    def top(self, function):
        return self.universe if self.must else frozenset()

    def meet(self, a, b):
        return (a & b) if self.must else (a | b)

    def transfer(self, block, state):
        return state | {block.name}


class TestDenseEngine:
    def test_forward_union_on_diamond(self):
        fn, entry, left, right, join = _diamond()
        result = solve_dense(_Trace(FORWARD), fn)
        assert result.block_in[entry] == frozenset()
        assert result.block_in[join] == {"entry", "left", "right"}
        assert result.block_out[join] == {"entry", "left", "right", "join"}

    def test_forward_intersection_on_diamond(self):
        fn, entry, left, right, join = _diamond()
        universe = frozenset(b.name for b in fn.blocks)
        result = solve_dense(_Trace(FORWARD, must=True, universe=universe), fn)
        # Only the blocks on *every* path reach the join: entry alone.
        assert result.block_in[join] == {"entry"}

    def test_backward_union_on_diamond(self):
        fn, entry, left, right, join = _diamond()
        result = solve_dense(_Trace(BACKWARD), fn)
        # Backward: block_in is "after transfer" at the block's start.
        assert result.block_in[entry] == {"entry", "left", "right", "join"}
        assert result.block_out[join] == frozenset()
        assert result.block_in[join] == {"join"}

    def test_forward_fixpoint_on_two_entry_loop(self):
        fn, entry, b1, b2, exit_ = _two_entry_loop()
        result = solve_dense(_Trace(FORWARD), fn)
        # Every path into the loop eventually carries both loop blocks.
        assert result.block_in[exit_] == {"entry", "b1", "b2"}
        # The back edge forces at least one block to be revisited.
        assert result.iterations > len(fn.blocks)

    def test_backward_fixpoint_on_two_entry_loop(self):
        fn, entry, b1, b2, exit_ = _two_entry_loop()
        result = solve_dense(_Trace(BACKWARD), fn)
        assert result.block_in[entry] == {"entry", "b1", "b2", "exit"}

    def test_must_analysis_converges_through_loop(self):
        fn, entry, b1, b2, exit_ = _two_entry_loop()
        universe = frozenset(b.name for b in fn.blocks)
        result = solve_dense(_Trace(FORWARD, must=True, universe=universe), fn)
        # b2 is reachable from entry directly (skipping b1), so b1 is
        # not on every path; the optimistic seed must be torn down.
        assert "b1" not in result.block_in[exit_]
        assert "b2" in result.block_in[exit_]

    def test_unreachable_blocks_not_solved(self):
        fn = parse_module("""
int %f(int %x) {
entry:
  ret int %x
dead:
  ret int %x
}
""").functions["f"]
        result = solve_dense(_Trace(FORWARD), fn)
        dead = [b for b in fn.blocks if b.name == "dead"][0]
        assert dead not in result.block_in


class _OpcodeFlow(SparseAnalysis):
    """Each value's element is the set of opcodes that feed it."""

    def top(self):
        return frozenset()

    def initial(self, value):
        return frozenset()

    def meet(self, a, b):
        return a | b

    def transfer(self, inst, get):
        element = frozenset({inst.opcode.value})
        for operand in inst.operands:
            fed = get(operand)
            if fed:
                element = element | fed
        return element


class _VisibleConstants(_OpcodeFlow):
    """The same, with constants visible (``"const"``)."""

    def initial(self, value):
        return frozenset({"const"} if isinstance(value, Constant) else ())


class TestSparseEngine:
    def test_propagates_through_phi(self):
        fn = parse_module("""
int %f(bool %c, int %x) {
entry:
  br bool %c, label %a, label %b
a:
  %p = add int %x, 1
  br label %join
b:
  %q = mul int %x, 2
  br label %join
join:
  %m = phi int [ %p, %a ], [ %q, %b ]
  %r = sub int %m, 3
  ret int %r
}
""").functions["f"]
        result = solve_sparse(_OpcodeFlow(), fn)
        by_name = {i.name: i for b in fn.blocks for i in b.instructions
                   if i.name}
        assert result[by_name["m"]] == {"phi", "add", "mul"}
        assert result[by_name["r"]] == {"sub", "phi", "add", "mul"}

    # -- edge executability -------------------------------------------------

    @staticmethod
    def _solve(analysis, text):
        fn = parse_module(text).functions["f"]
        result = solve_sparse(analysis, fn)
        insts = {i.name: i for b in fn.blocks for i in b.instructions
                 if i.name}
        executable = {b.name for b in result.executable_blocks}
        return fn, result, insts, executable

    def test_default_feasibility_visits_the_cfg_reachable_blocks(self):
        """What ``ValueFacts.is_unreached`` relies on: the solver prunes
        no edge, not even a literal ``br bool true``, and never enters
        dead code."""
        fn, result, insts, executable = self._solve(_OpcodeFlow(), """
int %f(int %x) {
entry:
  br bool true, label %a, label %b
a:
  ret int %x
b:
  %q = mul int %x, 2
  ret int %q
dead:
  %d = add int %x, 1
  br label %a
}
""")
        assert result.executable_blocks == set(reachable_blocks(fn))
        assert executable == {"entry", "a", "b"}
        assert result[insts["q"]] == {"mul"}
        assert insts["d"] not in result.values

    def test_phi_ignores_an_unreachable_predecessor(self):
        """A phi fed from a block no edge reaches: the solve shows the
        phi ``top`` for that incoming, not its ``initial`` element, and
        ``result.view`` keeps showing it so."""
        analysis = _VisibleConstants()
        _, result, insts, executable = self._solve(analysis, """
int %f(int %x) {
entry:
  %p = add int %x, %x
  br label %join
dead:
  br label %join
join:
  %m = phi int [ %p, %entry ], [ 7, %dead ]
  %n = phi int [ 7, %entry ], [ 7, %dead ]
  %r = sub int %m, 7
  ret int %r
}
""")
        assert executable == {"entry", "join"}
        assert result[insts["m"]] == {"phi", "add"}  # no "const" from %dead
        assert result[insts["n"]] == {"phi", "const"}  # live over %entry
        assert result[insts["r"]] == {"sub", "phi", "add", "const"}
        (_, _), (dead_seven, _) = insts["m"].incoming
        assert result.view(insts["m"])(dead_seven) == analysis.top()
        assert result.view(insts["r"])(dead_seven) == {"const"}

    def test_untracked_instruction_is_visited_once(self):
        """An instruction the analysis does not track gets its element
        when its block is swept and is never revisited, however often
        its operands move; its terminator still opens the successors."""
        class _IntsOnly(_OpcodeFlow):
            def __init__(self):
                self.visits = Counter()

            def tracks(self, inst):
                return inst.type.is_integer

            def transfer(self, inst, get):
                self.visits[inst.opcode.value] += 1
                if not self.tracks(inst):
                    return frozenset({"untracked"})
                return super().transfer(inst, get)

        text = """
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
"""
        analysis = _IntsOnly()
        _, result, insts, executable = self._solve(analysis, text)
        assert executable == {"entry", "loop", "out"}
        assert result[insts["c"]] == {"untracked"}
        assert result[insts["i"]] == {"phi", "add"}
        # %c and the loop's br each saw %next move; neither was revisited.
        assert analysis.visits["setlt"] == 1
        assert analysis.visits["br"] == 2 and analysis.visits["ret"] == 1
        assert analysis.visits["phi"] > 1  # the tracked cycle was

        class _Everything(_IntsOnly):
            def tracks(self, inst):
                return True

            transfer = _OpcodeFlow.transfer

        everything = self._solve(_Everything(), text)[1]
        assert result.iterations < everything.iterations

    def test_late_feasible_edge_remerges_the_phis(self):
        """The back edge becomes executable after the header was
        visited; the header's phi must pick up what it carries, and so
        must everything downstream of the phi."""
        _, result, insts, executable = self._solve(_VisibleConstants(), """
int %f(int %n) {
entry:
  br label %header
header:
  %i = phi int [ 0, %entry ], [ %next, %latch ]
  %more = setlt int %i, %n
  br bool %more, label %latch, label %exit
latch:
  %next = shl int %i, ubyte 1
  br label %header
exit:
  %r = sub int %i, 1
  ret int %r
}
""")
        assert executable == {"entry", "header", "latch", "exit"}
        assert result[insts["i"]] == {"phi", "const", "shl"}
        assert result[insts["r"]] == {"sub", "phi", "const", "shl"}
        assert result.iterations > sum(
            len(b.instructions) for b in result.executable_blocks)


# ---------------------------------------------------------------------------
# Checker golden outputs on small LC programs
# ---------------------------------------------------------------------------

def _lint_source(source, checks=None):
    module = compile_source(source, "t")
    return run_checkers(module, checks)


def _rendered(diags):
    return [d.render("t.lc") for d in diags]


class TestUninitChecker:
    def test_definite_uninitialized_read(self):
        diags = _lint_source("""
int main() {
  int x;
  return x;
}
""", ["uninit"])
        [diag] = diags
        assert diag.severity == Severity.ERROR
        assert diag.line == 4
        assert "variable 'x' is read before any initialization" in diag.message
        assert "initialize 'x'" in diag.fixit

    def test_maybe_uninitialized_on_one_path(self):
        diags = _lint_source("""
int main(int argc) {
  int x;
  if (argc > 1) {
    x = 5;
  }
  return x;
}
""", ["uninit"])
        [diag] = diags
        assert diag.severity == Severity.WARNING
        assert "may be read before initialization" in diag.message

    def test_initialized_on_all_paths_is_clean(self):
        diags = _lint_source("""
int main(int argc) {
  int x;
  if (argc > 1) { x = 5; } else { x = 7; }
  return x;
}
""", ["uninit"])
        assert diags == []


class TestNullDerefChecker:
    def test_provably_null_load(self):
        diags = _lint_source("""
int main() {
  int *p;
  p = null;
  return *p;
}
""", ["null-deref"])
        [diag] = diags
        assert diag.severity == Severity.ERROR
        assert diag.line == 5
        assert "provably null" in diag.message

    def test_null_through_phi(self):
        diags = _lint_source("""
int main(int argc) {
  int *p;
  int *q;
  p = null;
  q = null;
  int *r;
  if (argc > 1) { r = p; } else { r = q; }
  return *r;
}
""", ["null-deref"])
        assert any("provably null" in d.message for d in diags)

    def test_maybe_null_is_not_flagged(self):
        diags = _lint_source("""
int main(int argc) {
  int *p;
  if (argc > 1) { p = null; } else { p = malloc(int); }
  return *p;
}
""", ["null-deref"])
        assert diags == []

    @pytest.mark.parametrize("level", [0, 2])
    def test_cast_of_zero_is_null_at_every_level(self, level):
        """``(T *)0`` is lowered to ``cast int 0 to T*``; only -O2's
        constant folding rewrites that to ``null``, so the lattice has
        to know the cast itself."""
        module = compile_source("""
int main() {
  int *p = (int *)0;
  return *p;
}
""", "t")
        optimize_module(module, level)
        [diag] = run_checkers(module, ["null-deref"])
        assert diag.severity == Severity.ERROR and diag.line == 4


class TestStaticBoundsChecker:
    def test_constant_out_of_bounds_index(self):
        diags = _lint_source("""
int main() {
  int a[4];
  a[7] = 1;
  return a[7];
}
""", ["gep-bounds"])
        assert len(diags) == 2  # the store and the load
        assert all(d.severity == Severity.ERROR for d in diags)
        assert "index 7 is out of bounds" in diags[0].message
        assert "valid range 0..3" in diags[0].message
        assert diags[0].fixit == "clamp the index into 0..3"

    def test_in_range_and_variable_indices_clean(self):
        diags = _lint_source("""
int main(int i) {
  int a[4];
  a[0] = 1;
  a[3] = 2;
  a[i] = 3;
  return a[0];
}
""", ["gep-bounds"])
        assert diags == []


class TestDeadStoreChecker:
    def test_overwritten_store(self):
        diags = _lint_source("""
int main() {
  int x;
  x = 1;
  x = 2;
  return x;
}
""", ["dead-store"])
        [diag] = diags
        assert diag.severity == Severity.WARNING
        assert diag.line == 4
        assert "overwritten before it is read" in diag.message

    def test_never_read_store(self):
        diags = _lint_source("""
int main() {
  int x;
  x = 1;
  return 0;
}
""", ["dead-store"])
        [diag] = diags
        assert "never read" in diag.message

    def test_store_read_in_loop_is_live(self):
        diags = _lint_source("""
int main(int n) {
  int total;
  total = 0;
  int i;
  i = 0;
  while (i < n) {
    total = total + i;
    i = i + 1;
  }
  return total;
}
""", ["dead-store"])
        assert diags == []


class TestUnreachableChecker:
    def test_dead_block_flagged(self):
        module = parse_module("""
int %g(int %x) {
entry:
  ret int %x
dead:
  %y = add int %x, 1
  ret int %y
}
""")
        [diag] = run_checkers(module, ["unreachable"])
        assert diag.severity == Severity.WARNING
        assert diag.block == "dead"
        assert "unreachable" in diag.message


class TestCallSignatureChecker:
    def test_call_through_cast_in_module(self):
        module = Module("m")
        helper = module.new_function(
            types.function(types.INT, [types.INT]), "helper")
        wrong = types.pointer(
            types.function(types.INT, [types.INT, types.INT]))
        fn = module.new_function(types.function(types.INT, []), "f")
        builder = IRBuilder(fn.append_block("entry"))
        result = builder.call(
            ConstantExpr("cast", wrong, (helper,)),
            [ConstantInt(types.INT, 1), ConstantInt(types.INT, 2)], "r")
        builder.ret(result)
        [diag] = run_checkers(module, ["call-signature"])
        assert diag.severity == Severity.ERROR
        assert "call to 'helper' through a cast" in diag.message

    def test_cross_module_prototype_conflict(self):
        tu1 = compile_source("""
extern int helper(int a, int b);
int main() { return helper(1, 2); }
""", "tu1")
        tu2 = compile_source("""
int helper(int a) { return a + 1; }
""", "tu2")
        [diag] = check_cross_module([tu1, tu2])
        assert diag.severity == Severity.ERROR
        assert "symbol 'helper'" in diag.message
        assert "tu1" in diag.message and "tu2" in diag.message

    def test_agreeing_prototypes_clean(self):
        tu1 = compile_source("""
extern int helper(int a);
int main() { return helper(1); }
""", "tu1")
        tu2 = compile_source("""
int helper(int a) { return a + 1; }
""", "tu2")
        assert check_cross_module([tu1, tu2]) == []


class TestTypeSafetyChecker:
    def test_collapsing_cast_noted(self):
        module = parse_module("""
%pair = type { int, int }

void %f(%pair* %p) {
entry:
  %q = cast %pair* %p to long*
  store long 1, long* %q
  ret void
}
""")
        [diag] = run_checkers(module, ["type-safety"])
        assert diag.severity == Severity.NOTE
        assert "DSA collapsed" in diag.message

    def test_compatible_view_not_noted(self):
        module = parse_module("""
void %f(int* %p) {
entry:
  store int 1, int* %p
  ret void
}
""")
        assert run_checkers(module, ["type-safety"]) == []


# ---------------------------------------------------------------------------
# Suite-level behaviour
# ---------------------------------------------------------------------------

SEEDED = """
extern int print_int(int x);

int main() {
  int x;
  int a[4];
  int *p;
  p = null;
  a[7] = 1;
  print_int(x);
  print_int(*p);
  return 0;
}
"""


class TestSuite:
    def test_seeded_bugs_all_flagged_with_locations(self):
        """The acceptance scenario: one program seeding an uninitialized
        load, a null dereference, and a constant OOB GEP."""
        diags = run_checkers(compile_source(SEEDED, "seeded"))
        by_checker = {d.checker: d for d in diags if d.is_error}
        assert set(by_checker) >= {"uninit", "null-deref", "gep-bounds"}
        assert by_checker["gep-bounds"].line == 9
        assert by_checker["uninit"].line == 10
        assert by_checker["null-deref"].line == 11

    def test_unknown_checker_rejected(self):
        with pytest.raises(ValueError, match="unknown checker"):
            run_checkers(Module("m"), ["no-such-check"])

    def test_checkers_never_mutate_the_module(self):
        from repro.core import print_module

        module = compile_source(SEEDED, "seeded")
        before = print_module(module)
        run_checkers(module)
        assert print_module(module) == before

    def test_pass_manager_integration_and_stats(self):
        suite = StaticCheckSuite()
        manager = PassManager()
        manager.add(suite)
        changed = manager.run(compile_source(SEEDED, "seeded"))
        assert changed is False  # linting never changes the IR
        stats = manager.statistics()["lint"]
        assert stats["errors"] >= 3
        assert stats["uninit"] == 1
        assert suite.errors

    def test_diagnostics_sorted_by_function_and_line(self):
        diags = run_checkers(compile_source(SEEDED, "seeded"))
        keyed = [(d.function or "", d.line or 0) for d in diags]
        assert keyed == sorted(keyed)

    def test_analyze_stage_attaches_diagnostics(self):
        module = compile_and_link([SEEDED], "prog", level=0, lto=False)
        diagnostics = run_checkers(module)
        assert any(d.checker == "gep-bounds" for d in diagnostics)
        # The suite re-runs standalone with a narrower selection.
        only_bounds = run_checkers(module, ["gep-bounds"])
        assert {d.checker for d in only_bounds} == {"gep-bounds"}


class TestNoFalsePositives:
    """The suite must stay silent on correct, optimized programs."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_benchmark_clean_after_standard_pipeline(self, name):
        module = compile_benchmark(name, level=2, lto=False)
        noisy = [d for d in run_checkers(module)
                 if d.severity >= Severity.WARNING]
        assert noisy == [], [d.render(name) for d in noisy]

    def test_seeded_gep_and_null_survive_optimization(self):
        """Real bugs (not artifacts of -O0 codegen) stay visible after
        the standard pipeline, with their source lines intact."""
        module = compile_source(SEEDED, "seeded")
        from repro.driver import optimize_module

        optimize_module(module, 2)
        errors = {d.checker for d in run_checkers(module) if d.is_error}
        assert "gep-bounds" in errors
        assert "null-deref" in errors
