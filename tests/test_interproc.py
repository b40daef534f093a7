"""Tests for the whole-program (interprocedural) lint layer.

Covers the summary algebra (JSON round-trip, recursive fixpoints that
never claim optimistically, sparse solving on irreducible def-use
webs), the golden cross-TU bug suite — each bug is caught by
``--whole-program`` and provably missed by per-TU lint — the
deterministic multi-file output contract (stable order, dedupe, JSON
format, exit codes), the summary sidecar cache (warm runs recompute
only changed TUs with byte-identical diagnostics), and the
interprocedural bounds advisor's fix-it suppression.
"""

import json

import pytest

from repro.analysis.absint import analyze_function
from repro.core import parse_module
from repro.core.instructions import ReturnInst
from repro.driver import BytecodeCache, LifelongSession, lint_whole_program
from repro.frontend import compile_source
from repro.sanalysis import (
    Diagnostic, Severity, dedupe, run_checkers, run_whole_program,
    solve_sparse, stable_order,
)
from repro.sanalysis.checkers import (
    DomainAnalysis, NULL, NULL_MAYBE, NULL_NONNULL, NULL_NULL, NULL_TOP,
    RANGE_UNBOUNDED, RangeLattice, TAINT, TAINT_CLEAN, TAINT_TAINTED,
    _Nullness,
)
from repro.sanalysis.interproc import (
    AnalysisSummary, ModuleAnalysisSummaries, ProgramSummaries,
)
from repro.tools import lc_lint


def _wp(units, checks=None):
    """run_whole_program over (name, LLVM-IR-text) pairs."""
    return run_whole_program(
        [(name, parse_module(text)) for name, text in units], checks)


def _renders(result):
    return [d.render() for d in result.diagnostics]


# ---------------------------------------------------------------------------
# Summary computation and composition
# ---------------------------------------------------------------------------

NULL_LIB = """
int* %find(int %key) {
entry:
  ret int* null
}
"""

NULL_MAIN = """
declare int* %find(int %key)

int %main() {
entry:
  %p = call int* %find(int 7)
  %v = load int* %p
  ret int %v
}
"""


class TestSummaries:
    def test_json_roundtrip_is_exact(self):
        module = parse_module(NULL_LIB + NULL_MAIN.replace(
            "declare int* %find(int %key)", ""))
        table = ModuleAnalysisSummaries.compute(module)
        text = table.to_json()
        again = ModuleAnalysisSummaries.from_json(text)
        assert again.to_json() == text

    def test_stale_format_rejected(self):
        table = ModuleAnalysisSummaries.compute(parse_module(NULL_LIB))
        blob = json.loads(table.to_json())
        blob["format"] = 999
        with pytest.raises(ValueError):
            ModuleAnalysisSummaries.from_json(json.dumps(blob))

    def test_self_recursion_never_claims_optimistically(self):
        # f returns its own recursive result: the fixpoint must settle
        # at "no evidence", not at an optimistic nonnull claim.
        module = parse_module("""
int* %f(int* %p) {
entry:
  %r = call int* %f(int* %p)
  ret int* %r
}
""")
        program = ProgramSummaries(
            [("tu", ModuleAnalysisSummaries.compute(module))])
        resolved = program.resolved_for(0, "f")
        assert resolved.return_null == NULL_TOP
        assert not resolved.returns_fresh

    def test_mutual_recursion_converges_without_nonnull_claim(self):
        # even/odd-style mutual recursion where only one path produces
        # a real allocation: the meet over paths must not be nonnull.
        module = parse_module("""
int* %even(int %n) {
entry:
  %stop = seteq int %n, 0
  br bool %stop, label %base, label %rec
base:
  ret int* null
rec:
  %m = sub int %n, 1
  %r = call int* %odd(int %m)
  ret int* %r
}

int* %odd(int %n) {
entry:
  %m = sub int %n, 1
  %r = call int* %even(int %m)
  ret int* %r
}
""")
        program = ProgramSummaries(
            [("tu", ModuleAnalysisSummaries.compute(module))])
        for name in ("even", "odd"):
            resolved = program.resolved_for(0, name)
            assert resolved.return_null != NULL_NONNULL
        stats = program.statistics()
        assert stats["ipa-largest-scc"] == 2

    def test_sparse_nullness_on_irreducible_cfg(self):
        # A loop entered at two points; the phi web has a cycle, so the
        # sparse solver must iterate to a sound fixpoint rather than
        # finish in one def-use sweep.
        module = parse_module("""
int* %f(bool %c, int* %q) {
entry:
  br bool %c, label %b1, label %b2
b1:
  %p1 = phi int* [ %q, %entry ], [ %p2, %b2 ]
  br label %b2
b2:
  %p2 = phi int* [ null, %entry ], [ %p1, %b1 ]
  br bool %c, label %b1, label %exit
exit:
  ret int* %p2
}
""")
        function = module.functions["f"]
        result = solve_sparse(_Nullness(), function)
        blocks = {b.name: b for b in function.blocks}
        p1 = blocks["b1"].instructions[0]
        p2 = blocks["b2"].instructions[0]
        # null flows around the cycle: both phis must admit it.
        assert result[p2] in (NULL_NULL, NULL_MAYBE)
        assert result[p1] in (NULL_NULL, NULL_MAYBE)
        assert result.iterations > 1


# ---------------------------------------------------------------------------
# The lattice table: sparse analysis and summarise-then-resolve agree
# ---------------------------------------------------------------------------

NULL_FLOWS = """
int* %pass(int* %p) {
entry:
  ret int* %p
}

int* %chains(bool %c) {
entry:
  %z = cast int 0 to sbyte*
  %g = getelementptr sbyte* %z, long 4
  %k = cast sbyte* %g to int*
  br bool %c, label %left, label %merge
left:
  %x = call int* %pass(int* null)
  br label %merge
merge:
  %r = phi int* [ %x, %left ], [ %k, %entry ]
  ret int* %r
}

int* %fresh_or_null(bool %c) {
entry:
  %m = malloc int
  br bool %c, label %left, label %merge
left:
  br label %merge
merge:
  %r = phi int* [ %m, %entry ], [ null, %left ]
  ret int* %r
}

int* %through(int* %a) {
entry:
  %r = call int* %pass(int* %a)
  ret int* %r
}
"""

TAINT_FLOWS = """
declare int %read_input()

int %source() {
entry:
  %t = call int %read_input()
  ret int %t
}

int %pass(int %x) {
entry:
  ret int %x
}

int %chains(bool %c, int %a) {
entry:
  br bool %c, label %left, label %merge
left:
  %s = call int %source()
  %w = cast int %s to long
  %n = add long %w, 1
  %b = cast long %n to int
  br label %merge
merge:
  %r = phi int [ %b, %left ], [ %a, %entry ]
  ret int %r
}

int %sanitized() {
entry:
  %s = call int %source()
  %m = rem int %s, 10
  ret int %m
}

int %through(int %a) {
entry:
  %r = call int %pass(int %a)
  ret int %r
}
"""

RANGE_FLOWS = """
int %pass(int %x) {
entry:
  ret int %x
}

int %chains(bool %c, int %a) {
entry:
  br bool %c, label %left, label %right
left:
  %x = call int %pass(int 7)
  br label %merge
right:
  %y = and int %a, 3
  br label %merge
merge:
  %r = phi int [ %x, %left ], [ %y, %right ]
  ret int %r
}

int %through(int %a) {
entry:
  %r = call int %pass(int %a)
  ret int %r
}
"""


class TestLatticeTable:
    """Both users of a lattice derive from its one ``flow``: a rule
    taught to only one of them makes these disagree."""

    @pytest.mark.parametrize("lattice, text, expected", [
        (lambda function: NULL, NULL_FLOWS, {
            "chains": NULL_NULL, "fresh_or_null": NULL_MAYBE,
            "through": NULL_MAYBE}),
        (lambda function: TAINT, TAINT_FLOWS, {
            "chains": TAINT_TAINTED, "sanitized": TAINT_CLEAN,
            "through": TAINT_CLEAN}),
        (RangeLattice, RANGE_FLOWS, {
            "chains": (0, 7), "through": RANGE_UNBOUNDED}),
    ], ids=["null", "taint", "range"])
    def test_sparse_element_is_the_resolved_summary(self, lattice, text,
                                                    expected):
        module = parse_module(text)
        program = ProgramSummaries(
            [("tu", ModuleAnalysisSummaries.compute(module))])
        for name, element in expected.items():
            function = module.functions[name]
            domain = lattice(function)
            result = solve_sparse(DomainAnalysis(domain, program, 0),
                                  function)
            [returned] = [inst.return_value
                          for inst in function.instructions()
                          if isinstance(inst, ReturnInst)]
            resolved = getattr(program.resolved_for(0, name), domain.field)
            assert result[returned] == resolved == element, name

    def test_every_summary_field_round_trips(self):
        module = parse_module("""
declare void %sink(int* %p)

int* %f(int* %p, int* %q) {
entry:
  %v = load int* %p
  call void %sink(int* %q)
  free int* %q
  %r = call int* %f(int* %p, int* null)
  ret int* %r
}
""")
        summary = ModuleAnalysisSummaries.compute(module).summaries["f"]
        again = AnalysisSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        for attribute, _, _ in AnalysisSummary.FIELDS:
            assert getattr(again, attribute) == getattr(summary, attribute)
        assert summary.may_free_params and summary.path_tokens \
            and summary.return_null  # the comparison was not of empties


# ---------------------------------------------------------------------------
# The golden cross-TU bug suite: whole-program catches, per-TU misses
# ---------------------------------------------------------------------------

class TestCrossTUBugs:
    def _per_tu_clean(self, units, checker):
        for _, text in units:
            diags = run_checkers(parse_module(text))
            assert not any(d.checker == checker for d in diags)

    def test_null_return_dereferenced_in_other_tu(self):
        units = [("lib.ll", NULL_LIB), ("main.ll", NULL_MAIN)]
        result = _wp(units)
        errors = [d for d in result.diagnostics
                  if d.checker == "ipa-null-deref" and d.is_error]
        assert len(errors) == 1
        assert errors[0].file == "main.ll"
        # ... while neither TU alone shows the bug.
        self._per_tu_clean(units, "null-deref")

    def test_null_argument_to_dereferencing_callee(self):
        units = [
            ("sink.ll", """
int %read(int* %p) {
entry:
  %v = load int* %p
  ret int %v
}
"""),
            ("main.ll", """
declare int %read(int* %p)

int %main() {
entry:
  %v = call int %read(int* null)
  ret int %v
}
"""),
        ]
        result = _wp(units)
        errors = [d for d in result.diagnostics
                  if d.checker == "ipa-null-deref" and d.is_error]
        assert errors and errors[0].file == "main.ll"
        self._per_tu_clean(units, "null-deref")

    def test_cast_of_zero_across_a_call_is_reported_once(self):
        """The local and the whole-program null checkers share one
        lattice, so ``cast int 0 to T*`` returned by a callee is the
        whole-program checker's finding, the same cast dereferenced in
        place is the local one's, and neither is both's or nobody's."""
        units = [("lib.ll", """
int* %find(int %key) {
entry:
  %p = cast int 0 to int*
  ret int* %p
}
"""), ("main.ll", """
declare int* %find(int %key)

int %main() {
entry:
  %p = call int* %find(int 7)
  %v = load int* %p
  %q = cast int 0 to int*
  %w = load int* %q
  ret int %v
}
""")]
        found = [(d.checker, d.file) for d in _wp(units).diagnostics
                 if d.is_error]
        found += [(d.checker, name) for name, text in units
                  for d in run_checkers(parse_module(text)) if d.is_error]
        assert sorted(found) == [("ipa-null-deref", "main.ll"),
                                 ("null-deref", "main.ll")]

    LEAK_LIB = """
int* %make_buffer() {
entry:
  %m = malloc int, uint 16
  ret int* %m
}
"""

    def test_leak_through_allocating_helper(self):
        units = [
            ("lib.ll", self.LEAK_LIB),
            ("use.ll", """
declare int* %make_buffer()

int %consume() {
entry:
  %p = call int* %make_buffer()
  %v = load int* %p
  ret int %v
}
"""),
        ]
        result = _wp(units)
        leaks = [d for d in result.diagnostics if d.checker == "ipa-memleak"]
        assert len(leaks) == 1
        assert leaks[0].severity == Severity.WARNING
        assert leaks[0].file == "use.ll"
        self._per_tu_clean(units, "memleak")

    def test_no_leak_when_caller_frees(self):
        units = [
            ("lib.ll", self.LEAK_LIB),
            ("use.ll", """
declare int* %make_buffer()

int %consume() {
entry:
  %p = call int* %make_buffer()
  %v = load int* %p
  free int* %p
  ret int %v
}
"""),
        ]
        result = _wp(units)
        assert not [d for d in result.diagnostics
                    if d.checker == "ipa-memleak"]

    def test_use_and_double_free_across_call(self):
        units = [
            ("lib.ll", """
void %release(int* %p) {
entry:
  free int* %p
  ret void
}
"""),
            ("main.ll", """
declare void %release(int* %p)

int %main() {
entry:
  %m = malloc int
  call void %release(int* %m)
  %v = load int* %m
  free int* %m
  ret int %v
}
"""),
        ]
        result = _wp(units)
        uaf = [d for d in result.diagnostics
               if d.checker == "ipa-use-after-free"]
        messages = " / ".join(d.message for d in uaf)
        assert any(d.is_error for d in uaf)
        assert "free" in messages
        assert all(d.file == "main.ll" for d in uaf)
        self._per_tu_clean(units, "use-after-free")

    def test_taint_flows_through_returning_helper(self):
        units = [
            ("lib.ll", """
int %ident(int %x) {
entry:
  ret int %x
}
"""),
            ("main.ll", """
declare int %ident(int %x)

int %main(int %argc) {
entry:
  %table = alloca [8 x int]
  %i = call int %ident(int %argc)
  %slot = getelementptr [8 x int]* %table, long 0, int %i
  %v = load int* %slot
  ret int %v
}
"""),
        ]
        result = _wp(units, ["ipa-taint"])
        taints = [d for d in result.diagnostics if d.checker == "ipa-taint"]
        assert taints and taints[0].file == "main.ll"
        # A sanitizing mask on the helper's return kills the finding.
        masked = units[0][1].replace(
            "  ret int %x", "  %m = and int %x, 7\n  ret int %m")
        clean = _wp([("lib.ll", masked), units[1]], ["ipa-taint"])
        assert not [d for d in clean.diagnostics
                    if d.checker == "ipa-taint"]

    def test_diagnostics_are_deterministically_ordered(self):
        units = [
            ("b.ll", NULL_MAIN.replace("%main", "%use_b")),
            ("a.ll", NULL_MAIN.replace("%main", "%use_a")),
            ("lib.ll", NULL_LIB),
        ]
        result = _wp(units)
        files = [d.file for d in result.diagnostics]
        assert files == sorted(files)
        # Repeat runs produce the identical rendering.
        assert _renders(_wp(units)) == _renders(result)


# ---------------------------------------------------------------------------
# Diagnostic ordering and dedupe primitives
# ---------------------------------------------------------------------------

class TestOutputContract:
    def _diag(self, file, line, checker="c", message="m",
              severity=Severity.WARNING):
        return Diagnostic(checker=checker, severity=severity,
                          message=message, line=line, file=file)

    def test_stable_order_sorts_by_file_then_line(self):
        diags = [self._diag("b.lc", 1), self._diag("a.lc", 9),
                 self._diag("a.lc", 2)]
        ordered = stable_order(diags)
        assert [(d.file, d.line) for d in ordered] == [
            ("a.lc", 2), ("a.lc", 9), ("b.lc", 1)]

    def test_dedupe_drops_linked_copies(self):
        # The same finding surfacing from two linked views differs only
        # in the file attribute; dedupe must collapse it.
        a = self._diag("a.lc", 4, message="dup")
        b = self._diag("b.lc", 4, message="dup")
        c = self._diag("b.lc", 4, message="other")
        assert len(dedupe([a, b, c])) == 2

    def test_to_dict_shape(self):
        record = self._diag("a.lc", 3).to_dict()
        assert record["file"] == "a.lc"
        assert record["line"] == 3
        assert record["severity"] == "warning"


# ---------------------------------------------------------------------------
# The lc-lint CLI: --whole-program, --format=json, exit codes
# ---------------------------------------------------------------------------

LC_NULL_LIB = """
int *find(int key) {
  return (int *)0;
}
"""

LC_NULL_MAIN = """
extern int *find(int key);
int main() {
  int *p = find(7);
  return *p;
}
"""


@pytest.fixture
def null_pair(tmp_path):
    lib = tmp_path / "lib.lc"
    main = tmp_path / "main.lc"
    lib.write_text(LC_NULL_LIB)
    main.write_text(LC_NULL_MAIN)
    return str(lib), str(main)


class TestLintCLI:
    def test_whole_program_catches_what_per_tu_misses(self, null_pair,
                                                      capsys):
        lib, main = null_pair
        assert lc_lint([lib, main, "--checks", "null-deref"]) == 0
        capsys.readouterr()
        assert lc_lint([lib, main, "--whole-program",
                        "--checks", "ipa-null-deref"]) == 1
        out = capsys.readouterr().out
        assert f"{main}:5: error:" in out and "[ipa-null-deref]" in out

    def test_json_format(self, null_pair, capsys):
        lib, main = null_pair
        assert lc_lint([lib, main, "--whole-program", "--format=json",
                        "--checks", "ipa-null-deref"]) == 1
        captured = capsys.readouterr()
        records = [json.loads(line) for line in
                   captured.out.strip().splitlines()]
        assert {r["checker"] for r in records} >= {"ipa-null-deref"}
        assert all(set(r) == {"file", "line", "checker", "severity",
                              "message", "function", "block", "fixit"}
                   for r in records)
        # JSON mode emits records only — no human summary line.
        assert "error(s)" not in captured.err

    def test_max_errors_truncates_output(self, tmp_path, capsys):
        lib = tmp_path / "lib.lc"
        lib.write_text(LC_NULL_LIB)
        texts = []
        for name in ("one", "two", "three"):
            tu = tmp_path / f"{name}.lc"
            tu.write_text(LC_NULL_MAIN.replace("main", f"use_{name}"))
            texts.append(str(tu))
        assert lc_lint([str(lib)] + texts + ["--whole-program",
                       "--checks", "ipa-null-deref",
                       "--max-errors", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("error:") == 1
        assert "stopping after 1" in captured.err

    def test_werror_single_dash_alias(self, tmp_path, capsys):
        source = tmp_path / "dead.lc"
        source.write_text("""
int main() {
  int x = 1;
  x = 2;
  return x;
}
""")
        assert lc_lint([str(source)]) == 0
        capsys.readouterr()
        assert lc_lint([str(source), "-Werror"]) == 1

    def test_ipa_checker_requires_whole_program(self, null_pair):
        lib, main = null_pair
        with pytest.raises(SystemExit):
            lc_lint([lib, main, "--checks", "ipa-null-deref"])

    def test_missing_input_is_usage_error(self, tmp_path):
        assert lc_lint([str(tmp_path / "nope.lc")]) == 2

    def test_list_checks_includes_ipa_suite(self, capsys):
        assert lc_lint(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for name in ("ipa-null-deref", "ipa-memleak", "ipa-use-after-free",
                     "ipa-taint"):
            assert name in out


# ---------------------------------------------------------------------------
# Incremental re-lint through the summary sidecar cache
# ---------------------------------------------------------------------------

class TestIncrementalLint:
    def test_warm_run_recomputes_nothing_and_matches_cold(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        sources = [LC_NULL_LIB, LC_NULL_MAIN]
        cold = lint_whole_program(sources, cache=cache)
        assert cold.computed_scopes == [0, 1]
        warm = lint_whole_program(sources, cache=cache)
        assert warm.computed_scopes == []
        assert warm.statistics()["ipa-summaries-cached"] == 2
        assert _renders(warm) == _renders(cold)
        assert cache.statistics()["summary-hits"] == 2

    def test_editing_one_tu_recomputes_only_it(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        sources = [LC_NULL_LIB, LC_NULL_MAIN]
        lint_whole_program(sources, cache=cache)
        edited = [LC_NULL_LIB, LC_NULL_MAIN + "\nint unrelated() "
                  "{\n  return 3;\n}\n"]
        again = lint_whole_program(edited, cache=cache)
        assert again.computed_scopes == [1]
        # The unchanged TU's findings are still reported: checking
        # always sweeps every unit, only summarization is skipped.
        assert any(d.checker == "ipa-null-deref" and d.is_error
                   for d in again.diagnostics)

    def test_corrupt_sidecar_is_recomputed(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        sources = [LC_NULL_LIB]
        lint_whole_program(sources, cache=cache)
        key = cache.key(LC_NULL_LIB, 2, tag="ipa-summary")
        cache.store_summary(key, "{not json")
        result = lint_whole_program(sources, cache=cache)
        assert result.computed_scopes == [0]
        # Recomputed and stored over the bad entry: the next run hits.
        assert lint_whole_program(sources, cache=cache).computed_scopes == []

    def test_lifelong_session_lint(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        session = LifelongSession([LC_NULL_LIB, LC_NULL_MAIN],
                                  cache=cache)
        result = session.lint()
        assert any(d.checker == "ipa-null-deref"
                   for d in result.diagnostics)
        # The session already compiled both TUs through the same cache,
        # so linting adds summary computation but no recompilation.
        warm = session.lint()
        assert warm.computed_scopes == []


# ---------------------------------------------------------------------------
# The interprocedural bounds advisor
# ---------------------------------------------------------------------------

class TestBoundsAdvisor:
    MASKED = """
int %mask(int %x) {
entry:
  %m = and int %x, 15
  ret int %m
}
"""

    def _caller(self, helper):
        return """
declare int %HELPER(int %x)

int %pick(int %x) {
entry:
  %table = alloca [16 x int]
  %i = call int %HELPER(int %x)
  %slot = getelementptr [16 x int]* %table, long 0, int %i
  %v = load int* %slot
  ret int %v
}
""".replace("HELPER", helper)

    def test_range_summary_suppresses_note_through_call(self):
        units = [("lib.ll", self.MASKED), ("use.ll", self._caller("mask"))]
        result = _wp(units, ["gep-bounds"])
        assert not result.diagnostics

    def test_unproven_index_still_noted(self):
        unbounded = self.MASKED.replace("%mask", "%ident") \
            .replace("  %m = and int %x, 15\n", "") \
            .replace("ret int %m", "ret int %x")
        units = [("lib.ll", unbounded), ("use.ll", self._caller("ident"))]
        result = _wp(units, ["gep-bounds"])
        notes = [d for d in result.diagnostics if d.checker == "gep-bounds"]
        assert notes and all(d.severity == Severity.NOTE for d in notes)

    def test_interval_arithmetic_is_the_abstract_interpreters(self):
        module = parse_module("""
int %f(int %x) {
entry:
  %m = and int %x, 7
  %d = mul int %m, 2
  %s = add int %d, 1
  ret int %s
}
""")
        function = module.functions["f"]
        s = function.blocks[0].instructions[2]
        interval = analyze_function(function).interval_of(s)
        assert (interval.lo, interval.hi) == (1, 15)

    def test_signed_wrap_is_not_proven_in_bounds(self):
        # (x & 127) + (y & 127) on sbyte wraps: 127 + 127 is -2, so the
        # index is in [-128, 127], not the [0, 254] that interval
        # arithmetic without wrap-around claimed fits [255 x int].
        result = _wp([("wrap.ll", """
int %pick(sbyte %x, sbyte %y) {
entry:
  %table = alloca [255 x int]
  %a = and sbyte %x, 127
  %b = and sbyte %y, 127
  %s = add sbyte %a, %b
  %i = cast sbyte %s to int
  %slot = getelementptr [255 x int]* %table, long 0, int %i
  %v = load int* %slot
  ret int %v
}
""")], ["gep-bounds"])
        notes = [d for d in result.diagnostics if d.checker == "gep-bounds"]
        assert len(notes) == 1 and notes[0].severity == Severity.NOTE
        assert "255 elements" in notes[0].message
