"""Tests for the trace-compiling JIT tier (repro.execution.tracejit):
differential runs against the plain interpreter, guard side-exit state
reconstruction, trap transparency, lifelong trace-cache invalidation —
plus regression tests for the trace/JIT bugfixes that rode along
(TraceFormation successor double-counting, JITEngine.materialized on
never-seen names, the preload instrumentation gap)."""

import pytest

from repro.analysis.loops import LoopInfo
from repro.core import parse_module
from repro.core.constfold import ArithmeticFault
from repro.driver import LifelongSession
from repro.execution import Interpreter, StepLimitExceeded, TraceManager
from repro.frontend import compile_source
from repro.profile import TraceFormation

HOT_LOOP = """
extern int print_int(int x);
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 2000; i++) {
    if (i % 10 == 0) { acc += 100; }
    else { acc += i; }
  }
  print_int(acc);
  return acc % 251;
}
"""

#: The loop's branch flips direction partway through: the trace
#: recorded on the early shape must guard-exit on the late one with
#: every live value reconstructed, or the printed sum is wrong.
SHAPE_SHIFT = """
extern int print_int(int x);
int main() {
  int a = 0;
  int b = 0;
  int i;
  for (i = 0; i < 1000; i++) {
    if (i < 700) { a += i; }
    else { b += 2 * i; }
  }
  print_int(a);
  print_int(b);
  return (a + b) % 199;
}
"""


def _run_pair(source, hot_threshold=8, args=()):
    """((exit, output, steps) x 2, manager) — reference then traced."""
    module = compile_source(source, "t")
    ref = Interpreter(module)
    ref_value = ref.run("main", list(args))
    traced = Interpreter(module)
    manager = TraceManager(hot_threshold=hot_threshold)
    manager.attach(traced)
    jit_value = traced.run("main", list(args))
    return ((ref_value, "".join(ref.output), ref.steps),
            (jit_value, "".join(traced.output), traced.steps), manager)


class TestDifferential:
    def test_hot_loop_matches_interpreter_exactly(self):
        reference, traced, manager = _run_pair(HOT_LOOP)
        assert traced == reference
        assert manager.stats.traces_compiled >= 1
        assert manager.stats.steps_saved > 0
        assert manager.stats.unreconstructed_exits == 0

    def test_guard_side_exit_reconstructs_state(self):
        reference, traced, manager = _run_pair(SHAPE_SHIFT)
        assert traced == reference
        # The shape shift at i == 700 must leave via a guard, not by
        # silently running the wrong arm.
        assert manager.stats.guard_exits >= 1
        assert manager.stats.unreconstructed_exits == 0

    def test_trap_inside_trace_propagates(self):
        source = """
extern int print_int(int x);
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 500; i++) {
    print_int(i);
    acc += 1000 / (400 - i);
  }
  return acc;
}
"""
        module = compile_source(source, "t")
        ref = Interpreter(module)
        with pytest.raises(ArithmeticFault):
            ref.run("main", [])
        traced = Interpreter(module)
        manager = TraceManager(hot_threshold=8)
        manager.attach(traced)
        # The same trap, from inside a compiled trace, with the same
        # output printed up to the faulting iteration.
        with pytest.raises(ArithmeticFault):
            traced.run("main", [])
        assert manager.stats.traces_compiled >= 1
        assert "".join(traced.output) == "".join(ref.output)

    def test_trace_cache_is_interpreter_portable(self):
        """A warm cache keeps matching under a fresh interpreter."""
        module = compile_source(HOT_LOOP, "t")
        ref = Interpreter(module)
        ref_value = ref.run("main", [])
        manager = TraceManager(hot_threshold=8)
        first = Interpreter(module)
        manager.attach(first)
        first.run("main", [])
        compiled = manager.stats.traces_compiled
        assert compiled >= 1
        warm = Interpreter(module)
        manager.attach(warm)
        warm_value = warm.run("main", [])
        assert (warm_value, "".join(warm.output), warm.steps) == (
            ref_value, "".join(ref.output), ref.steps)
        assert manager.stats.trace_entries > 0


class TestLifelongInvalidation:
    def test_reoptimize_invalidates_trace_cache(self, tmp_path):
        session = LifelongSession([HOT_LOOP], "hot", level=0,
                                  jit_traces=True, trace_threshold=8)
        first = session.run()
        compiled = session.trace_manager.stats.traces_compiled
        assert compiled >= 1
        assert len(session.trace_manager.cache) >= 1
        session.reoptimize()
        # Every cached trace closed over pre-rewrite block objects;
        # reoptimize must drop them all, not dispatch into stale code.
        assert session.trace_manager.stats.invalidations >= 1
        assert len(session.trace_manager.cache) == 0
        second = session.run()
        assert second.output == first.output
        assert second.exit_value == first.exit_value


class TestToolsAndOracles:
    def test_lc_run_jit_traces_stats(self, tmp_path, capsys):
        from repro.tools import lc_cc, lc_run

        src = tmp_path / "hot.lc"
        src.write_text(HOT_LOOP)
        ll = tmp_path / "hot.ll"
        assert lc_cc([str(src), "-o", str(ll)]) == 0
        capsys.readouterr()
        plain = lc_run([str(ll)])
        plain_out = capsys.readouterr().out
        traced = lc_run([str(ll), "--jit-traces", "--trace-threshold", "8",
                         "--stats"])
        captured = capsys.readouterr()
        assert traced == plain
        assert captured.out.startswith(plain_out.rstrip("\n").split("\n")[0])
        assert "traces-compiled" in captured.out + captured.err

    def test_fuzz_jit_oracle_column_clean(self):
        from repro.fuzz import HarnessConfig, check_program

        config = HarnessConfig(levels=(), targets=(), machine_levels=(),
                               check_roundtrips=False, jit_traces=True)
        result = check_program(HOT_LOOP, config)
        assert result.error is None
        assert result.divergences == []

    def test_run_interpreter_traced_exported(self):
        from repro.fuzz import run_interpreter, run_interpreter_traced

        reference = run_interpreter(compile_source(HOT_LOOP, "t"))
        traced = run_interpreter_traced(compile_source(HOT_LOOP, "t"))
        assert traced == reference


class TestTraceFormationDedup:
    #: A loop whose middle block branches conditionally to the *same*
    #: successor on both edges.  Before the fix, that successor's count
    #: was summed once per edge, so a perfectly-biased block looked
    #: like a 50% split and the path selection gave up early.
    IR = """
int %f(int %n) {
entry:
  br label %header
header:
  %i = phi int [ 0, %entry ], [ %next, %latch ]
  %c = setlt int %i, %n
  br bool %c, label %mid, label %out
mid:
  %even = seteq int %i, %i
  br bool %even, label %latch, label %latch
latch:
  %next = add int %i, 1
  br label %header
out:
  ret int %i
}
"""

    def test_duplicate_successor_edges_not_double_counted(self):
        function = parse_module(self.IR).functions["f"]
        loops = LoopInfo(function).all_loops()
        assert len(loops) == 1
        counts = {"header": 100, "mid": 100, "latch": 100, "out": 1}
        path = TraceFormation()._select_path(loops[0], counts)
        assert path is not None
        assert [block.name for block in path] == ["header", "mid", "latch"]


class TestJITEngineFixes:
    SOURCE = """
extern int print_int(int x);
static int helper_a(int x) { return x + 1; }
static int helper_b(int x) { return x * 2; }
int main(int which) {
  int r;
  if (which == 0) { r = helper_a(10); }
  else { r = helper_b(10); }
  print_int(r);
  return r;
}
"""

    def _bytecode(self):
        from repro.bitcode import write_bytecode

        return write_bytecode(compile_source(self.SOURCE, "jit"),
                              strip_names=False)

    def test_materialized_false_for_unknown_names(self):
        from repro.execution import JITEngine

        jit = JITEngine(self._bytecode())
        jit.run("main", [0])
        # Names the image never carried a body for must stay False even
        # after everything pending has been decoded.
        assert jit.materialized("main")
        assert not jit.materialized("print_int")       # extern decl
        assert not jit.materialized("no_such_symbol")  # typo

    def test_preloaded_functions_are_instrumented(self):
        from repro.execution import JITEngine

        jit = JITEngine(self._bytecode(), instrument=True,
                        preload=["helper_a", "helper_b"])
        assert jit.materialized("helper_a")
        assert jit.materialized("helper_b")
        jit.run("main", [0])
        counts = jit.profile.function_entry_counts()
        # The preloaded body was decoded before instrumentation was
        # switched on; the init sweep must still cover it.
        assert counts.get("main") == 1
        assert counts.get("helper_a") == 1
        assert counts.get("helper_b") == 0

    def test_preload_counts_as_materialization(self):
        from repro.execution import JITEngine

        jit = JITEngine(self._bytecode(), preload=["helper_b"])
        assert jit.materialized("helper_b")
        assert not jit.materialized("helper_a")
        assert jit.functions_materialized == 1

    def test_jit_traces_tier_wired_in(self):
        from repro.bitcode import write_bytecode
        from repro.execution import JITEngine

        hot = compile_source(HOT_LOOP, "hotjit")
        reference = Interpreter(hot)
        expected = reference.run("main", [])
        jit = JITEngine(write_bytecode(hot, strip_names=False),
                        jit_traces=True, trace_threshold=8)
        assert jit.run("main", []) == expected
        assert jit.trace_manager.stats.traces_compiled >= 1
        assert jit.output == reference.output


# ---------------------------------------------------------------------------
# The interpreter/trace-tier contract: exact steps at every point a
# trace or an external can observe them, and resumption from wherever
# a side exit leaves the frame.
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

CLOCKED_LOOP = """
extern int print_int(int x);
extern int clock();
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 600; i++) {
    acc += i;
    if (i % 97 == 0) { print_int(clock()); }
  }
  print_int(clock());
  return acc % 251;
}
"""


class _WatchingManager(TraceManager):
    """Counts the block events that left the frame in the middle of a
    block other than the one that was entered."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.mid_block_exits = []

    def on_block(self, interpreter, frame, block):
        super().on_block(interpreter, frame, block)
        if frame.block is not block and frame.index > 0:
            self.mid_block_exits.append((frame.block, frame.index))


class TestInterpreterContract:
    def test_step_limit_is_exact_under_the_trace_tier(self):
        module = parse_module(PRINT_THEN_LOOP)
        for limit in list(range(0, 12)) + list(range(80, 100)):
            traced = Interpreter(module, step_limit=limit)
            manager = TraceManager(hot_threshold=3)
            manager.attach(traced)
            with pytest.raises(StepLimitExceeded):
                traced.run("main")
            assert traced.steps == limit + 1
            assert traced.output == (["7\n"] if limit >= 1 else [])
            if limit >= 80:     # the loop got hot and ran as a trace
                assert manager.stats.traces_compiled == 1
                assert manager.stats.budget_exits >= 1

    def test_clock_reads_the_same_under_both_tiers(self):
        reference, traced, manager = _run_pair(CLOCKED_LOOP)
        assert traced == reference
        assert reference[1].count("\n") == 8
        assert manager.stats.traces_compiled >= 1
        assert manager.stats.steps_saved > 0

    def test_side_exit_resumes_mid_block_of_another_block(self):
        """A guard that fails inside a trace leaves the frame at
        ``(block, index)`` of the block holding the guard — not the
        block whose entry dispatched the trace — and the interpreter
        must execute exactly that block's ``[index]`` next."""
        module = compile_source(SHAPE_SHIFT, "t")
        ref = Interpreter(module)
        expected = (ref.run("main", []), "".join(ref.output), ref.steps)
        traced = Interpreter(module)
        manager = _WatchingManager(hot_threshold=8)
        manager.attach(traced)
        got = (traced.run("main", []), "".join(traced.output), traced.steps)
        assert manager.mid_block_exits, "no side exit into another block"
        for block, index in manager.mid_block_exits:
            assert 0 < index < len(block.instructions)
        assert got == expected
        assert manager.stats.unreconstructed_exits == 0
