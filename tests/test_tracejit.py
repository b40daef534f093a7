"""Tests for the trace-compiling JIT tier (repro.execution.tracejit):
differential runs against the plain interpreter, guard side-exit state
reconstruction, trap transparency, lifelong trace-cache invalidation —
plus regression tests for the trace/JIT bugfixes that rode along
(TraceFormation successor double-counting, JITEngine.materialized on
never-seen names, the preload instrumentation gap), and, per (opcode,
type), that the arithmetic a trace inlines is the interpreter's."""

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
from repro.driver import LifelongSession
from repro.execution import Interpreter, StepLimitExceeded, TraceManager
from repro.execution.tracejit import Untraceable, compile_trace
from repro.frontend import compile_source
from repro.profile import ProfileData, TraceFormation

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
        counts = dict(zip(function.blocks, (1, 100, 100, 100, 1)))
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

        jit = JITEngine(self._bytecode(), preload=["helper_a", "helper_b"])
        assert jit.materialized("helper_a")
        assert jit.materialized("helper_b")
        profile = ProfileData()
        profile.attach(jit.interpreter)
        jit.run("main", [0])
        counts = profile.function_entry_counts()
        # The preloaded body was decoded before the profile was
        # attached; the engine counts it all the same.
        assert counts.get("main") == 1
        assert counts.get("helper_a") == 1
        assert "helper_b" not in counts     # decoded, never run

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


def _profiled(module, manager=None):
    """(exit, output, steps, block counts) of one profiled run."""
    interp = Interpreter(module)
    if manager is not None:
        manager.attach(interp)
    profile = ProfileData()
    profile.attach(interp)
    value = interp.run("main", [])
    return value, "".join(interp.output), interp.steps, profile.counts


class TestProfileUnderTraces:
    """A profile attached over the trace tier sees only interpreted
    block entries; each trace run credits the blocks it entered, so the
    counts are exactly a plain interpreted run's."""

    @pytest.mark.parametrize("source", [HOT_LOOP, SHAPE_SHIFT, CLOCKED_LOOP],
                             ids=["hot-loop", "shape-shift", "clocked"])
    def test_traced_profile_is_the_interpreted_one(self, source):
        module = compile_source(source, "t")
        reference = _profiled(module)
        manager = TraceManager(hot_threshold=8)
        cold = _profiled(module, manager)
        warm = _profiled(module, manager)
        assert cold == reference
        assert warm == reference
        assert manager.stats.trace_iterations > 0

    def test_budget_exit_credits_the_iterations_run(self):
        module = parse_module(PRINT_THEN_LOOP)
        for limit in (85, 90, 99):
            counts = []
            for manager in (None, TraceManager(hot_threshold=3)):
                interp = Interpreter(module, step_limit=limit)
                if manager is not None:
                    manager.attach(interp)
                profile = ProfileData()
                profile.attach(interp)
                with pytest.raises(StepLimitExceeded):
                    interp.run("main")
                counts.append(profile.counts)
            assert counts[0] == counts[1]
            assert manager.stats.budget_exits >= 1

    def test_an_unprofiled_manager_credits_nothing(self):
        module = compile_source(HOT_LOOP, "t")
        manager = TraceManager(hot_threshold=8)
        _profiled(module, manager)
        plain = Interpreter(module)
        manager.attach(plain)
        assert manager.profile is None
        plain.run("main", [])
        assert manager.stats.trace_entries > 0

    def test_jit_engine_traces_count_too(self):
        from repro.bitcode import write_bytecode
        from repro.execution import JITEngine

        module = compile_source(HOT_LOOP, "hotjit")
        jit = JITEngine(write_bytecode(module, strip_names=False),
                        jit_traces=True, trace_threshold=8)
        profile = ProfileData()
        profile.attach(jit.interpreter)
        jit.run("main", [])
        assert jit.trace_manager.stats.traces_compiled >= 1
        _, _, steps, counts = _profiled(jit.module)
        assert profile.counts == counts
        assert jit.steps == steps


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
    assert manager.stats.unreconstructed_exits == 0, what
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
