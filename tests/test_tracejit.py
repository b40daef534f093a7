"""Tests for the trace-compiling JIT tier (repro.execution.tracejit):
differential runs against the plain interpreter, guard side-exit state
reconstruction, trap transparency, lifelong trace-cache invalidation —
plus regression tests for the trace/JIT bugfixes that rode along
(JITEngine.materialized on never-seen names), the profile the tier counts, and, per (opcode,
type), that the arithmetic a trace inlines is the interpreter's."""

import copy
import math

import pytest

from repro.analysis.loops import LoopInfo
from repro.core import constfold, parse_module, types
from repro.core.builder import IRBuilder
from repro.core.constfold import ArithmeticFault
from repro.core.instructions import (
    BINARY_OPCODES, BinaryOperator, CastInst, Opcode,
)
from repro.core.module import Module
from repro.core.values import (
    ConstantAggregateZero, ConstantArray, ConstantBool, ConstantFP,
    ConstantInt,
)
from repro.driver import LifelongSession, compile_and_link
from repro.execution import Interpreter, StepLimitExceeded, TraceManager
from repro.execution.tracejit import Untraceable, _Segment, compile_trace
from repro.frontend import compile_source
from repro.profile import ProfileData

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

    def test_guard_side_exit_reconstructs_state(self):
        reference, traced, manager = _run_pair(SHAPE_SHIFT)
        assert traced == reference
        # The shape shift at i == 700 must leave via a guard, not by
        # silently running the wrong arm.
        assert manager.stats.guard_exits >= 1

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


#: A static helper whose loop LTO inlines twice into ``main``: both
#: copies of the loop header are blocks with the same name.
INLINED_TWICE = """
extern int print_int(int x);
static int weigh(int n, int k) {
  int s = 0;
  int i;
  for (i = 0; i < n; i++) {
    if (i % k == 0) { s += 3; } else { s += i; }
  }
  return s;
}
int main() {
  int a = weigh(300, 7);
  int b = weigh(400, 5);
  print_int(a);
  print_int(b);
  return (a + b) % 251;
}
"""

#: At -O2 a loop whose every trip takes four conditional branches, with
#: SSA values carried around it and read after it: a trace over it has
#: at least four guards, each with its own registers to write back.
MANY_GUARDS = """
extern int print_int(int x);
int main() {
  int a = 0;
  int b = 1;
  int c = 0;
  int i;
  for (i = 0; i < 600; i++) {
    int d = i * 3 + b;
    if (i % 3 == 0) { a += 1; } else { b = b + i; }
    if (i % 5 == 0) { c += d; }
    if (i % 7 == 0) { a = a - c; }
  }
  print_int(a);
  print_int(b);
  print_int(c);
  return (a + b + c) % 251;
}
"""

#: Loads (null guards to force), short-circuit ``&&`` / ``||`` (branch
#: targets whose phis the rest of their block reads) and values carried
#: around the loop.
MIXED_GUARDS = """
extern int print_int(int x);
int data[64];
int main() {
  int a = 0;
  int b = 1;
  int i;
  for (i = 0; i < 64; i++) { data[i] = (i * 37) % 64; }
  for (i = 0; i < 900; i++) {
    int x = data[i % 64];
    if (x % 3 == 0 && i % 5 != 0) { a += x; }
    else if (x > 40 || i % 7 == 0) { b = b + a % 13; }
    if (a > 5000) { a = a - b; }
  }
  print_int(a);
  print_int(b);
  return (a + b) % 251;
}
"""


def _outcome(module, manager=None):
    """(exit, output, steps) of one run, optionally under ``manager``."""
    interp = Interpreter(module)
    if manager is not None:
        manager.attach(interp)
    value = interp.run("main", [])
    return value, "".join(interp.output), interp.steps


def _optimized(source):
    return compile_and_link([source], "t", level=2, lto=True)


def _exit_table(trace):
    """The trace's side-exit rows; row 0 is the budget check."""
    return trace.fn.__globals__["_EXITS"]


def _guards(trace):
    """A tree's guards: each either leaves by a side exit or leads into
    a branch, and every branch ends in a leaf of its own."""
    return len(_exit_table(trace)) - 1 + len(trace.leaf_paths) - 1


def _most_guarded_trace(module):
    manager = TraceManager(hot_threshold=8)
    _outcome(module, manager)
    return max(manager.traces.values(), key=_guards)


def _forced(trace, exit_number, iteration):
    """``trace`` recompiled so that side exit ``exit_number`` is also
    taken on pass ``iteration`` of its loop: an exit the program never
    needed, which must be invisible to it.  Only an exit that resumes
    the interpreter where it stands (the budget check, a null or call
    guard) can be forced; a branch exit takes its edge."""
    assert trace.exits[exit_number][4] is None
    lines = trace.source.splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.strip() == f"_x = {exit_number}") - 1
    lines[at] = lines[at].replace("if ", f"if _pass == {iteration} or ", 1)
    loop = lines.index("    while True:")
    lines[loop:loop + 1] = ["    _pass = -1", "    while True:",
                            "        _pass += 1"]
    source = "\n".join(lines) + "\n"
    env = dict(trace.fn.__globals__)
    exec(compile(source, "<forced>", "exec"), env)
    forced = copy.copy(trace)
    forced.fn, forced.source = env["__lc_trace"], source
    return forced


def _branch_sites(segment, chain=()):
    """(segment, edge, blocks from the header to the guard) per branch
    of the tree rooted at ``segment``."""
    for (index, target), branch in segment.branches.items():
        to_guard = chain + tuple(segment.blocks[:index + 1])
        yield segment, (index, target), to_guard
        yield from _branch_sites(branch, to_guard)


def _pruned(segment, site):
    """A copy of the tree without the branch grown at ``site``."""
    copied = _Segment(segment.blocks)
    copied.branches = {edge: _pruned(branch, site)
                       for edge, branch in segment.branches.items()
                       if (segment, edge) != site}
    return copied


def _variants(module, trace):
    """The trace caches that run ``trace``'s loop: the tree itself; per
    branch, the tree without it, whose guard now leaves by a real exit;
    and that tree with the branch's rotation compiled at the exit's
    target, so each exit links into the other's trace."""
    interp = Interpreter(module)
    function = module.functions[trace.function_name]
    yield {trace.header: trace}
    for segment, (index, target), to_guard in _branch_sites(trace.tree):
        pruned = compile_trace(interp, function,
                               _pruned(trace.tree, (segment, (index, target))))
        yield {trace.header: pruned}
        branch = segment.branches[(index, target)]
        rotation = compile_trace(interp, function,
                                 branch.blocks + list(to_guard))
        yield {trace.header: pruned, target: rotation}


class TestOneTracePerHeader:
    def test_same_named_headers_keep_their_own_traces(self):
        module = _optimized(INLINED_TWICE)
        reference = _outcome(module)
        manager = TraceManager(hot_threshold=8)
        for _ in range(2):
            assert _outcome(module, manager) == reference
        warmed = manager.stats.traces_compiled
        traces = manager.traces.values()
        labels = [trace.key for trace in traces]
        shared = {label for label in labels if labels.count(label) > 1}
        assert shared, "no two trace headers share a name"
        for trace in traces:
            assert manager.traces[trace.header] is trace
        # The third run finds every trace it needs already compiled.
        assert _outcome(module, manager) == reference
        assert manager.stats.traces_compiled == warmed


#: The outer loop calls into compiled IR, so its recordings abort and
#: only the inner loop, one iteration per entry, is traced: a trace
#: entered once per outer pass that saves little each time.
SHORT_INNER_LOOP = """
extern int print_int(int x);
int step(int x) { return x * 3 + 1; }
int main() {
  int acc = 0;
  int i;
  int j;
  for (i = 0; i < 100; i++) {
    acc += step(i);
    for (j = 0; j < 1; j++) { acc += i ^ j; }
  }
  print_int(acc);
  return acc % 251;
}
"""


class TestTracesAreKept:
    def test_a_trace_that_saves_little_per_entry_is_kept(self):
        module = compile_source(SHORT_INNER_LOOP, "t")
        reference = _outcome(module)
        manager = TraceManager(hot_threshold=8)
        assert _outcome(module, manager) == reference
        stats = manager.stats
        assert stats.trace_entries >= 32
        assert stats.steps_saved < 24 * stats.trace_entries
        inner = [loop.header for loop
                 in LoopInfo(module.functions["main"]).all_loops()
                 if loop.depth == 2]
        assert list(manager.traces) == inner
        assert inner[0] not in manager._blacklist
        # The lifelong steady state: the second run compiles nothing.
        assert _outcome(module, manager) == reference
        assert stats.traces_compiled == 1

    def test_an_entry_block_is_blacklisted_not_recorded(self):
        """``step`` gets hot, but nothing branches back to a function's
        entry block: a recording anchored there could only abort."""
        module = compile_source(SHORT_INNER_LOOP, "t")
        manager = TraceManager(hot_threshold=8)
        assert _outcome(module, manager) == _outcome(module)
        assert module.functions["step"].blocks[0] in manager._blacklist
        assert all(anchor is not anchor.parent.blocks[0]
                   for anchor in manager._aborts)


class TestOneExitTail:
    def test_a_many_guarded_trace_returns_from_one_tail(self):
        trace = _most_guarded_trace(_optimized(MANY_GUARDS))
        assert _guards(trace) >= 4
        assert trace.source.count("return iters") == 1

    @pytest.mark.parametrize("iteration", [0, 2])
    def test_a_forced_exit_at_every_guard_is_invisible(self, iteration):
        """Every exit of every tree is taken: the budget check and every
        null or call guard forced on pass ``iteration``, each branch's
        guard in a tree pruned of that branch, and each link into a
        rotation compiled at the pruned branch's target."""
        module = _optimized(MANY_GUARDS)
        manager = TraceManager(hot_threshold=8)
        _outcome(module, manager)
        assert manager.stats.branches_grown >= 2
        self._force_everything(module, manager, iteration)

    @pytest.mark.parametrize("turn", [0, 1, 2, 3])
    @pytest.mark.parametrize("source", [MANY_GUARDS, MIXED_GUARDS],
                             ids=["many", "mixed"])
    def test_a_forced_exit_from_a_rotated_tree_is_invisible(self, source,
                                                            turn):
        """The same over a tree anchored ``turn`` blocks into its loop: a
        value the loop defines before the anchor is, at an exit, the
        previous iteration's, and must be written back once any leaf
        ran."""
        module = _optimized(source)
        found = TraceManager(hot_threshold=8)
        _outcome(module, found)
        trunk = max(found.traces.values(), key=_guards).path
        assert len(trunk) > turn
        manager = TraceManager(hot_threshold=8)
        rotated = compile_trace(Interpreter(module),
                                module.functions["main"],
                                trunk[turn:] + trunk[:turn])
        manager.traces[rotated.header] = rotated
        assert _outcome(module, manager) == _outcome(module)
        assert manager.stats.branches_grown >= 1
        self._force_everything(module, manager, 2)

    @staticmethod
    def _force_everything(module, manager, iteration):
        reference = _outcome(module)
        linked = 0
        for trace in manager.traces.values():
            for traces in _variants(module, trace):
                header = traces[trace.header]
                forceable = [x for x, row in enumerate(header.exits)
                             if row[4] is None]
                for exit_number in [None] + forceable:
                    forcing = TraceManager(hot_threshold=10 ** 9)
                    forcing.traces.update(traces)
                    if exit_number is not None:
                        forcing.traces[trace.header] = _forced(
                            header, exit_number, iteration)
                    assert _outcome(module, forcing) == reference, (
                        trace.key, exit_number, len(traces))
                    assert (forcing.stats.guard_exits
                            + forcing.stats.budget_exits) > 0
                    linked += forcing.stats.linked_entries
        assert linked > 0


#: twolf's ``wirelength`` in miniature: a data-dependent ``if`` that
#: goes the other way on every iteration, in a loop entered once per
#: call.  Each arm is a rotation of one cycle through the other.
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


class TestTrees:
    def test_an_alternating_branch_grows_one_tree_and_no_rotation(self):
        module = compile_and_link([ALTERNATING], "t", level=2, lto=False)
        reference = _outcome(module)
        manager = TraceManager(hot_threshold=8)
        assert _outcome(module, manager) == reference
        stats = manager.stats
        wirelength = module.functions["wirelength"]
        headers = [loop.header for loop in LoopInfo(wirelength).all_loops()]
        # One tree, at the loop header, with the other arm a branch;
        # no recording was ever anchored in the middle of its cycle.
        trees = [trace for trace in manager.traces.values()
                 if trace.header.parent is wirelength]
        assert [tree.header for tree in trees] == headers
        assert len(trees[0].leaf_paths) >= 2
        assert stats.traces_compiled == len(manager.traces)
        assert stats.aborted.get("reached-tree", 0) == 0
        assert stats.recordings_aborted == sum(stats.aborted.values())
        # Warm, each loop stays in its tree from entry to exit: one
        # entry from the interpreter's block event per loop entry, that
        # is per call and once for ``main``'s fill loop.
        before = stats.entries_from_interpreter
        assert _outcome(module, manager) == reference
        assert stats.entries_from_interpreter - before <= 40 + 1
        assert stats.traces_compiled == len(manager.traces)

    def test_the_counters_repeat_exactly(self):
        """Why a recording stopped, what grew and how each trace was
        entered are counts of the program, not of the host: two fresh
        managers over the same runs report identical rows."""
        module = _optimized(MIXED_GUARDS)
        rows = []
        for _ in range(2):
            manager = TraceManager(hot_threshold=8)
            for _ in range(2):
                _outcome(module, manager)
            rows.append(manager.statistics())
        assert rows[0] == rows[1]
        assert rows[0]["branches-grown"] >= 1
        assert rows[0]["trace-entries"] == (
            rows[0]["entries-from-interpreter"] + rows[0]["linked-entries"])
        assert rows[0]["recordings-aborted"] == sum(
            count for name, count in rows[0].items()
            if name.startswith("aborted."))

    def test_an_exit_into_a_trace_links_without_the_interpreter(self):
        """Two loops in a row under one outer loop: the first one's exit
        lands on the second one's header and runs its trace next."""
        module = compile_and_link([LINKED_LOOPS], "t", level=2)
        reference = _outcome(module)
        manager = TraceManager(hot_threshold=8)
        assert _outcome(module, manager) == reference
        assert _outcome(module, manager) == reference
        assert manager.stats.linked_entries > 0
        assert manager.stats.trace_entries == (
            manager.stats.entries_from_interpreter
            + manager.stats.linked_entries)


#: The inner loops run back to back: the first one's exit edge leads
#: straight into the second one's header.
LINKED_LOOPS = """
extern int print_int(int x);
int main() {
  int a = 0;
  int b = 0;
  int i;
  int j;
  for (i = 0; i < 300; i++) {
    j = 0;
    while (j < 20) { a += j ^ i; j++; }
    while (j > 0) { b += a % (j + 3); j--; }
  }
  print_int(a);
  print_int(b);
  return (a + b) % 251;
}
"""


class TestLifelongInvalidation:
    def test_reoptimize_invalidates_trace_cache(self, tmp_path):
        session = LifelongSession([HOT_LOOP], "hot", level=0)
        first = session.run()
        compiled = session.trace_manager.stats.traces_compiled
        assert compiled >= 1
        assert len(session.trace_manager.traces) >= 1
        session.reoptimize()
        # Every cached trace closed over pre-rewrite block objects;
        # reoptimize must drop them all, not dispatch into stale code.
        assert session.trace_manager.stats.invalidations >= 1
        assert len(session.trace_manager.traces) == 0
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
        for row in ("traces-compiled", "branches-grown",
                    "entries-from-interpreter", "linked-entries"):
            assert row in captured.out + captured.err

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
    """Records where each block event that ran a trace left the frame,
    when that is in another block than the one that was entered."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.landings = []

    def on_block(self, interpreter, frame, block):
        super().on_block(interpreter, frame, block)
        if frame.block is not block:
            self.landings.append((frame.block, frame.index))


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

    def test_a_branch_exit_lands_past_the_phis_of_its_target(self):
        """A branch guard that fails takes its edge in compiled code: it
        leaves the frame at the first non-phi instruction of the edge's
        target, with the phis moved — not at the branch, nor in the
        block whose entry dispatched the trace — and the interpreter
        must execute exactly that instruction next."""
        module = _optimized(MIXED_GUARDS)
        expected = _outcome(module)
        manager = _WatchingManager(hot_threshold=8)
        assert _outcome(module, manager) == expected
        assert manager.landings, "no side exit into another block"
        for block, index in manager.landings:
            assert index == block.first_non_phi_index()
        assert any(index > 0 for _, index in manager.landings)


class _BlockCounter:
    """The reference profile: a listener that only counts block
    entries, so every block runs interpreted."""

    def __init__(self):
        self.counts = {}

    def on_block(self, interpreter, frame, block):
        self.counts[block] = self.counts.get(block, 0) + 1


def _counted(module, manager=None, step_limit=50_000_000):
    """(exit, output, steps, block counts) of one run: under the
    reference counter, or under ``manager`` with a fresh profile."""
    interp = Interpreter(module, step_limit=step_limit)
    if manager is None:
        profile = interp.block_hook = _BlockCounter()
    else:
        profile = manager.profile = ProfileData()
        manager.attach(interp)
    try:
        value = interp.run("main", [])
    except StepLimitExceeded:
        value = None
    return value, "".join(interp.output), interp.steps, profile.counts


class TestProfileUnderTraces:
    """The trace tier counts every interpreted block entry into its
    profile, and each trace run credits the blocks it entered, so the
    counts are exactly a plain interpreted run's."""

    @pytest.mark.parametrize("source", [HOT_LOOP, SHAPE_SHIFT, CLOCKED_LOOP],
                             ids=["hot-loop", "shape-shift", "clocked"])
    def test_traced_profile_is_the_interpreted_one(self, source):
        module = compile_source(source, "t")
        reference = _counted(module)
        manager = TraceManager(hot_threshold=8)
        cold = _counted(module, manager)
        warm = _counted(module, manager)
        assert cold == reference
        assert warm == reference
        assert manager.stats.trace_iterations > 0

    def test_budget_exit_credits_the_iterations_run(self):
        module = parse_module(PRINT_THEN_LOOP)
        for limit in (85, 90, 99):
            manager = TraceManager(hot_threshold=3)
            traced = _counted(module, manager, limit)
            assert traced == _counted(module, None, limit)
            assert traced[2] == limit + 1       # the budget ran out
            assert manager.stats.budget_exits >= 1

    def test_jit_engine_traces_count_too(self):
        from repro.bitcode import write_bytecode
        from repro.execution import JITEngine

        module = compile_source(HOT_LOOP, "hotjit")
        jit = JITEngine(write_bytecode(module, strip_names=False),
                        jit_traces=True, trace_threshold=8)
        jit.run("main", [])
        assert jit.trace_manager.stats.traces_compiled >= 1
        _, _, steps, counts = _counted(jit.module)
        assert jit.trace_manager.profile.counts == counts
        assert jit.steps == steps

    def test_a_session_profiles_through_its_traces(self):
        session = LifelongSession([HOT_LOOP], "hot", level=0)
        first = session.run()
        assert session.trace_manager.stats.traces_compiled >= 1
        reference = _counted(session.module)
        assert (first.exit_value, first.output, first.steps) == reference[:3]
        assert session.profile.counts == reference[3]


# ---------------------------------------------------------------------------
# The inlined arithmetic, per (opcode, type).
#
# A trace's arithmetic is constfold's expression text substituted over
# the trace's locals.  One generated single-block loop per table row
# reads its operands from constant arrays, applies the one instruction
# under test and stores the result; the interpreter and the traced run
# must leave the same bytes, exit value, output and step count, and the
# loop must actually have run as a compiled trace.
# ---------------------------------------------------------------------------

_INT_TYPES = [types.SBYTE, types.UBYTE, types.SHORT, types.USHORT,
              types.INT, types.UINT, types.LONG, types.ULONG]
_FLOAT_TYPES = [types.FLOAT, types.DOUBLE]
_POINTER = types.pointer(types.INT)
_LOGIC = [Opcode.AND, Opcode.OR, Opcode.XOR]
_ARITHMETIC = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM]
_COMPARISONS = sorted(BINARY_OPCODES - set(_LOGIC) - set(_ARITHMETIC),
                      key=lambda opcode: opcode.value)
#: Rows run before the loop is hot; repeated so every row also runs
#: inside the trace.
_WARM_UP = 4


def _samples(ty):
    """Boundary values of ``ty`` as constants."""
    if ty.is_bool:
        return [ConstantBool(False), ConstantBool(True)]
    if ty.is_integer:
        values = {ty.min_value, ty.wrap(-1), 0, 1, ty.max_value}
        return [ConstantInt(ty, value) for value in sorted(values)]
    # ConstantFP rounds to ``ty``; 0.1f + 0.2f is not a float32, so the
    # sum is re-rounded.
    values = [0.0, -0.0, 1.5, -2.9, 255.5, 3e9, 0.1, 0.2,
              math.inf, -math.inf, math.nan]
    return [ConstantFP(ty, value) for value in values]


def _table_loop(columns, result_type, compute):
    """``main`` runs ``out[k] = compute(builder, *(c[k] for c in columns))``
    for every k, as one single-block loop; returns (module, out)."""
    columns = [column[:_WARM_UP] + column for column in columns]
    count = len(columns[0])
    module = Module("table")
    arrays = []
    for number, column in enumerate(columns):
        ty = types.array(column[0].type, count)
        arrays.append(module.new_global(ty, f"in{number}",
                                        ConstantArray(ty, column)))
    out_type = types.array(result_type, count)
    out = module.new_global(out_type, "out", ConstantAggregateZero(out_type))
    main = module.new_function(types.function(types.INT, []), "main")
    entry, loop, done = (main.append_block(name)
                         for name in ("entry", "loop", "done"))
    IRBuilder(entry).br(loop)
    builder = IRBuilder(loop)
    k = builder.phi(types.UINT, "k")
    operands = [builder.load(builder.array_gep(array, k)) for array in arrays]
    builder.store(compute(builder, *operands), builder.array_gep(out, k))
    following = builder.add(k, ConstantInt(types.UINT, 1))
    k.add_incoming(ConstantInt(types.UINT, 0), entry)
    k.add_incoming(following, loop)
    builder.cond_br(builder.setlt(following, ConstantInt(types.UINT, count)),
                    loop, done)
    done_builder = IRBuilder(done)
    done_builder.ret(done_builder.cast(following, types.INT))
    return module, out


def _observe(module, out, manager=None):
    interp = Interpreter(module)
    if manager is not None:
        manager.attach(interp)
    value = interp.run("main", [])
    size = module.data_layout.size_of(out.value_type)
    stored = interp.memory.read_bytes(interp.global_addresses[id(out)], size)
    return value, "".join(interp.output), interp.steps, stored


def _assert_tiers_agree(columns, result_type, compute, what):
    module, out = _table_loop(columns, result_type, compute)
    reference = _observe(module, out)
    manager = TraceManager(hot_threshold=2)
    traced = _observe(module, out, manager)
    assert traced == reference, what
    assert manager.stats.traces_compiled == 1, what
    assert manager.stats.steps_saved > 0, what
    return manager


def _pairs(lhs, rhs):
    return ([a for a in lhs for _ in rhs], [b for _ in lhs for b in rhs])


def _binary(opcode):
    return lambda builder, lhs, rhs: builder._binary(opcode, lhs, rhs, "r")


class TestInlinedArithmeticMatchesTheInterpreter:
    def test_every_binary_opcode_is_covered(self):
        assert len(_COMPARISONS) == 6
        assert (set(_LOGIC) | set(_ARITHMETIC) | set(_COMPARISONS)
                == BINARY_OPCODES)

    @pytest.mark.parametrize("ty", _INT_TYPES, ids=str)
    def test_integer_binary_opcodes(self, ty):
        values = _samples(ty)
        divisors = [value for value in values if value.value != 0]
        for opcode in _ARITHMETIC + _LOGIC + _COMPARISONS:
            rhs = divisors if opcode in (Opcode.DIV, Opcode.REM) else values
            result = types.BOOL if opcode in _COMPARISONS else ty
            _assert_tiers_agree(_pairs(values, rhs), result, _binary(opcode),
                                (opcode, ty))

    @pytest.mark.parametrize("ty", _INT_TYPES, ids=str)
    def test_shifts(self, ty):
        amounts = [ConstantInt(types.UBYTE, amount)
                   for amount in (0, ty.bits - 1, ty.bits, 255)]
        for shift in (IRBuilder.shl, IRBuilder.shr):
            _assert_tiers_agree(_pairs(_samples(ty), amounts), ty, shift,
                                (shift.__name__, ty))

    def test_bool_logic_and_comparisons(self):
        values = _samples(types.BOOL)
        for opcode in _LOGIC + _COMPARISONS:
            _assert_tiers_agree(_pairs(values, values), types.BOOL,
                                _binary(opcode), opcode)

    @pytest.mark.parametrize("ty", _FLOAT_TYPES, ids=str)
    def test_floating_point_including_specials_and_the_re_round(self, ty):
        values = _samples(ty)
        # math.fmod refuses an infinite dividend (ValueError from both
        # tiers, as from the reference chain): not a loop's business.
        finite = [value for value in values if not math.isinf(value.value)]
        for opcode in _ARITHMETIC + _COMPARISONS:
            lhs = finite if opcode == Opcode.REM else values
            result = types.BOOL if opcode in _COMPARISONS else ty
            _assert_tiers_agree(_pairs(lhs, values), result,
                                _binary(opcode), (opcode, ty))

    @pytest.mark.parametrize(
        "source", _INT_TYPES + [types.BOOL] + _FLOAT_TYPES + [_POINTER],
        ids=str)
    def test_every_cast_pair(self, source):
        if source.is_pointer:
            # Addresses arrive as ulong and become pointers in the loop
            # (itself an int -> pointer cast under the trace).
            column = [ConstantInt(types.ULONG, address) for address in
                      (0, 8, 1 << 30, 0x123456789A, (1 << 64) - 1)]
        else:
            column = _samples(source)
        for dest in _INT_TYPES + [types.BOOL] + _FLOAT_TYPES + [_POINTER]:
            if {source, dest} & set(_FLOAT_TYPES) and _POINTER in (source,
                                                                   dest):
                continue    # refused by CastInst

            def cast(builder, value, dest=dest):
                value = builder.cast(value, source)     # the pointer case
                # builder.cast would elide the same-type row.
                return builder.block.append(CastInst(value, dest, "r"))
            _assert_tiers_agree([column], dest, cast, (source, dest))


#: ``{body}`` computes ``%next`` from ``%x`` (which starts at
#: ``{start}``) once per iteration, 200 times; ``main`` returns it.
_REGISTER_LOOP = """
{ty} %main() {{
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %i1, %loop ]
  %x = phi {ty} [ {start}, %entry ], [ %next, %loop ]
  {body}
  %i1 = add int %i, 1
  %c = setlt int %i1, 200
  br bool %c, label %loop, label %done
done:
  ret {ty} %next
}}
"""


def _clear_evaluators():
    for memo in (constfold.binary_evaluator, constfold.shift_evaluator,
                 constfold.cast_evaluator):
        memo.cache_clear()


class TestBothTiersAreDerivedFromOneTable:
    def _both(self, module):
        reference = Interpreter(module).run("main", [])
        traced = Interpreter(module)
        manager = TraceManager(hot_threshold=2)
        manager.attach(traced)
        return reference, traced.run("main", []), manager

    def test_a_wrong_row_is_wrong_in_both_tiers_alike(self, monkeypatch):
        module = parse_module(_REGISTER_LOOP.format(
            ty="int", start=2147483000, body="%next = add int %x, 7"))
        right = types.INT.wrap(2147483000 + 7 * 200)
        assert self._both(module)[:2] == (right, right)

        def truncate_only(ty, text):    # the signed wrap without + half
            return f"({text}) & {(1 << ty.bits) - 1}"

        with monkeypatch.context() as patch:
            patch.setattr(constfold, "_wrap", truncate_only)
            _clear_evaluators()
            try:
                reference, traced, manager = self._both(module)
            finally:
                _clear_evaluators()
        wrong = 2147483000 + 7 * 200    # never brought back into range
        assert (reference, traced) == (wrong, wrong)
        assert manager.stats.traces_compiled == 1
        assert manager.stats.steps_saved > 0

    @pytest.mark.parametrize("ty, start, body, fault, message", [
        ("int", 100, "%next = sub int %x, 1\n  %q = div int 1000, %next",
         ArithmeticFault, "integer division by zero"),
        ("uint", 100, "%next = sub uint %x, 1\n  %q = rem uint 1000, %next",
         ArithmeticFault, "integer remainder by zero"),
        # 4.0 ** 64 does not fit single precision: the re-round refuses.
        ("float", 1.0, "%next = mul float %x, 4.0",
         OverflowError, "float too large to pack with f format"),
    ])
    def test_faults_are_the_evaluators_own_inside_a_trace(
            self, ty, start, body, fault, message):
        module = parse_module(_REGISTER_LOOP.format(ty=ty, start=start,
                                                    body=body))
        with pytest.raises(fault) as interpreted:
            Interpreter(module).run("main", [])
        traced = Interpreter(module)
        manager = TraceManager(hot_threshold=2)
        manager.attach(traced)
        with pytest.raises(fault) as in_trace:
            traced.run("main", [])
        assert str(interpreted.value) == str(in_trace.value) == message
        assert manager.stats.traces_compiled == 1
        assert manager.stats.trace_entries >= 1

    def test_an_ill_typed_lookup_is_untraceable_with_constfolds_message(self):
        """The one path from the table to ``Untraceable``.  The
        instruction constructors refuse ill-typed arithmetic, so the
        type is swapped afterwards; no run reaches the recorder with
        such a block, because the interpreter's decoder makes the same
        lookup first."""
        class MadeUp(types.Type):
            def __str__(self):
                return "made-up"

        module = parse_module(_REGISTER_LOOP.format(
            ty="int", start=0, body="%next = add int %x, 7"))
        function = module.functions["main"]
        loop = function.blocks[1]
        add = next(inst for inst in loop.instructions
                   if isinstance(inst, BinaryOperator))
        add.operands[0].type = MadeUp()
        message = "no binary opcode Opcode.ADD on made-up"
        with pytest.raises(Untraceable, match=message):
            compile_trace(Interpreter(module), function, [loop])
        with pytest.raises(ValueError, match=message):
            Interpreter(module).run("main", [])
