"""Tests for the command-line tools (the llvm-as/dis/opt/llc/lli suite)."""

import subprocess
import sys

import pytest

from repro.tools import (
    lc_as, lc_cc, lc_dis, lc_link, lc_lint, lc_llc, lc_opt, lc_run,
)

HELLO = """
extern int print_int(int x);
int main() { print_int(40 + 2); return 0; }
"""

BUGGY = """
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


@pytest.fixture
def hello_lc(tmp_path):
    path = tmp_path / "hello.lc"
    path.write_text(HELLO)
    return str(path)


@pytest.fixture
def buggy_lc(tmp_path):
    path = tmp_path / "buggy.lc"
    path.write_text(BUGGY)
    return str(path)


class TestToolPipeline:
    def test_cc_emits_text(self, hello_lc, tmp_path, capsys):
        out = tmp_path / "hello.ll"
        assert lc_cc([hello_lc, "-O", "2", "-o", str(out)]) == 0
        text = out.read_text()
        assert "%main" in text and "print_int" in text

    def test_cc_emits_bytecode(self, hello_lc, tmp_path):
        out = tmp_path / "hello.bc"
        assert lc_cc([hello_lc, "-c", "-o", str(out)]) == 0
        assert out.read_bytes()[:4] == b"llvm"

    def test_as_dis_round_trip(self, hello_lc, tmp_path):
        ll = tmp_path / "x.ll"
        bc = tmp_path / "x.bc"
        back = tmp_path / "back.ll"
        lc_cc([hello_lc, "-o", str(ll)])
        assert lc_as([str(ll), "-o", str(bc)]) == 0
        assert lc_dis([str(bc), "-o", str(back)]) == 0
        assert back.read_text() == ll.read_text()

    def test_opt_named_passes(self, hello_lc, tmp_path):
        ll = tmp_path / "x.ll"
        out = tmp_path / "opt.ll"
        lc_cc([hello_lc, "-o", str(ll)])
        assert lc_opt([str(ll), "-p", "mem2reg,rangeopt,simplifycfg,adce",
                       "-o", str(out)]) == 0
        assert "alloca" not in out.read_text()

    def test_opt_unknown_pass_rejected(self, hello_lc, tmp_path):
        ll = tmp_path / "x.ll"
        lc_cc([hello_lc, "-o", str(ll)])
        with pytest.raises(SystemExit):
            lc_opt([str(ll), "-p", "no_such_pass"])
        for deleted in ("constprop", "sccp"):  # no pass folds in their place
            with pytest.raises(SystemExit):
                lc_opt([str(ll), "-p", deleted])

    def test_run_executes(self, hello_lc, tmp_path, capsys):
        ll = tmp_path / "x.ll"
        lc_cc([hello_lc, "-O", "2", "-o", str(ll)])
        code = lc_run([str(ll)])
        assert code == 0
        assert capsys.readouterr().out == "42\n"

    def test_run_leaves_an_uncalled_function_undecoded(self, tmp_path,
                                                        capsys):
        source = tmp_path / "two.lc"
        source.write_text("int unused(int x) { return x + 1; }" + HELLO)
        ll = tmp_path / "two.ll"
        lc_cc([str(source), "-o", str(ll)])
        assert lc_run([str(ll), "-stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "42\n"
        assert "functions decoded: 1 of 2" in captured.err

    def test_llc_size_report(self, hello_lc, tmp_path, capsys):
        ll = tmp_path / "x.ll"
        lc_cc([hello_lc, "-o", str(ll)])
        assert lc_llc([str(ll), "--target", "sparc", "--emit", "size"]) == 0
        report = capsys.readouterr().out
        assert "target: sparc" in report and "total:" in report

    def test_llc_assembly(self, hello_lc, tmp_path, capsys):
        ll = tmp_path / "x.ll"
        lc_cc([hello_lc, "-o", str(ll)])
        assert lc_llc([str(ll)]) == 0
        assert "main:" in capsys.readouterr().out

    def test_link_two_modules(self, tmp_path, capsys):
        lib = tmp_path / "lib.lc"
        lib.write_text("int helper(int x) { return x * 2; }")
        app = tmp_path / "app.lc"
        app.write_text("""
extern int helper(int x);
int main() { return helper(21); }
""")
        lib_ll = tmp_path / "lib.ll"
        app_ll = tmp_path / "app.ll"
        linked = tmp_path / "linked.ll"
        lc_cc([str(lib), "-o", str(lib_ll)])
        lc_cc([str(app), "-o", str(app_ll)])
        assert lc_link([str(lib_ll), str(app_ll), "--lto",
                        "-o", str(linked)]) == 0
        assert lc_run([str(linked)]) == 42

    def test_opt_verify_each(self, hello_lc, tmp_path):
        ll = tmp_path / "x.ll"
        out = tmp_path / "opt.ll"
        lc_cc([hello_lc, "-o", str(ll)])
        assert lc_opt([str(ll), "-O", "2", "--verify-each",
                       "-o", str(out)]) == 0
        assert "%main" in out.read_text()

    def test_opt_stats_reports_bounds_check_elision(self, tmp_path, capsys):
        """`-p safecode -stats` shows the inserted/elided split; the
        provably in-range constant index is elided, a[7] is not."""
        src = tmp_path / "b.lc"
        src.write_text("""
int main() {
  int a[4];
  a[3] = 1;
  a[7] = 2;
  return 0;
}
""")
        ll = tmp_path / "b.ll"
        lc_cc([str(src), "-o", str(ll)])
        assert lc_opt([str(ll), "-p", "safecode", "-stats",
                       "-o", str(tmp_path / "out.ll")]) == 0
        err = capsys.readouterr().err
        assert "statistics" in err
        assert "1 safecode-bounds    checks_elided" in err
        assert "1 safecode-bounds    checks_inserted" in err

    @staticmethod
    def _pass_rows(err: str) -> list[str]:
        """``source name`` of every -stats row but the fault policy's
        (pipelines differ in what they fold, not in what they report)."""
        return sorted({" ".join(line.split()[1:]) for line in err.splitlines()
                       if line[:8].strip().isdigit()
                       and "fault-policy" not in line})

    def test_cc_stats_reports_the_pass_rows_opt_does(self, tmp_path, capsys):
        """`lc-cc -O2 --lto -stats` used to print only cache and
        fault-policy rows: compile_and_link threw its managers away."""
        from repro.benchsuite import load_source

        src = tmp_path / "gcc.lc"
        src.write_text(load_source("gcc"))
        ll = tmp_path / "gcc.ll"
        assert lc_cc([str(src), "-o", str(ll)]) == 0
        capsys.readouterr()
        assert lc_opt([str(ll), "-O", "2", "-stats",
                       "-o", str(tmp_path / "o.ll")]) == 0
        opt_rows = self._pass_rows(capsys.readouterr().err)
        assert lc_cc([str(src), "-O", "2", "-stats",
                      "-o", str(tmp_path / "c.ll")]) == 0
        assert self._pass_rows(capsys.readouterr().err) == opt_rows
        assert "instcombine generated_rules_loaded" in opt_rows
        assert {"rangeopt values-folded",
                "rangeopt branches-folded"} <= set(opt_rows)
        # What rangeopt's facts cost, next to what they bought.
        assert {"rangeopt absint-transfers",
                "rangeopt phis-widened"} <= set(opt_rows)
        # What the -O skip rule visited and left alone.
        assert {"optimize functions-optimized",
                "optimize functions-skipped-unchanged"} <= set(opt_rows)
        assert lc_cc([str(src), "-O", "2", "--lto", "--fault-tolerant",
                      "-stats", "-o", str(tmp_path / "l.ll")]) == 0
        err = capsys.readouterr().err
        assert set(opt_rows) < set(self._pass_rows(err))
        assert "inline calls_inlined" in self._pass_rows(err)
        assert "fault-policy       passes.rolled_back" in err
        assert err.count("statistics") == 1  # one record, one report

    @pytest.mark.parametrize("flag", ["-stats", "--stats"])
    def test_every_tool_takes_both_spellings(self, flag, hello_lc, tmp_path,
                                             capsys):
        ll = tmp_path / "hello.ll"
        assert lc_cc([hello_lc, "-O", "1", flag, "-o", str(ll)]) == 0
        assert lc_opt([str(ll), "-O", "1", flag, "-o", str(ll)]) == 0
        assert lc_run([str(ll), flag]) == 0
        assert lc_lint([hello_lc, "--whole-program", flag]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("statistics") == 3  # cc, opt, lint
        assert "steps:" in captured.err

    def test_module_entry_point(self, hello_lc):
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "cc", hello_lc, "-O", "2"],
            capture_output=True, text=True, cwd="/root/repo",
        )
        assert result.returncode == 0
        assert "%main" in result.stdout

    def test_usage_message(self, capsys):
        from repro.tools import main

        assert main([]) == 2


class TestLint:
    def test_buggy_source_fails_with_located_diagnostics(self, buggy_lc,
                                                         capsys):
        assert lc_lint([buggy_lc]) == 1
        captured = capsys.readouterr()
        out = captured.out
        assert f"{buggy_lc}:9: error:" in out and "[gep-bounds]" in out
        assert f"{buggy_lc}:10: error:" in out and "[uninit]" in out
        assert f"{buggy_lc}:11: error:" in out and "[null-deref]" in out
        assert "3 error(s)" in captured.err

    def test_clean_source_passes(self, hello_lc, capsys):
        assert lc_lint([hello_lc]) == 0
        assert "0 error(s)" in capsys.readouterr().err

    def test_checks_selection(self, buggy_lc, capsys):
        assert lc_lint([buggy_lc, "--checks", "gep-bounds"]) == 1
        out = capsys.readouterr().out
        assert "[gep-bounds]" in out and "[uninit]" not in out

    def test_unknown_check_rejected(self, buggy_lc):
        with pytest.raises(SystemExit):
            lc_lint([buggy_lc, "--checks", "bogus"])

    def test_list_checks(self, capsys):
        assert lc_lint(["--list-checks"]) == 0
        out = capsys.readouterr().out
        for name in ("uninit", "null-deref", "gep-bounds", "dead-store",
                     "unreachable", "call-signature", "type-safety"):
            assert name in out

    def test_lints_textual_ir_and_bytecode(self, buggy_lc, tmp_path, capsys):
        ll = tmp_path / "b.ll"
        bc = tmp_path / "b.bc"
        lc_cc([buggy_lc, "-o", str(ll)])
        lc_cc([buggy_lc, "-c", "-o", str(bc)])
        assert lc_lint([str(ll)]) == 1
        assert lc_lint([str(bc)]) == 1

    def test_werror_promotes_warnings(self, tmp_path, capsys):
        src = tmp_path / "w.lc"
        src.write_text("""
int main() {
  int x;
  x = 1;
  return 0;
}
""")
        assert lc_lint([str(src)]) == 0       # dead store is a warning
        assert lc_lint([str(src), "--Werror"]) == 1

    def test_cross_module_signature_conflict(self, tmp_path, capsys):
        tu1 = tmp_path / "tu1.lc"
        tu1.write_text("""
extern int helper(int a, int b);
int main() { return helper(1, 2); }
""")
        tu2 = tmp_path / "tu2.lc"
        tu2.write_text("int helper(int a) { return a + 1; }")
        assert lc_lint([str(tu1), str(tu2)]) == 1
        out = capsys.readouterr().out
        assert "[call-signature]" in out and "symbol 'helper'" in out
