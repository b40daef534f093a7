"""Translation validation + lc-synth: refinement checking of transform
passes, planted-miscompile containment, and the verified peephole
synthesizer (docs/ANALYSIS.md, "Translation validation").
"""

import pytest

from repro.core import parse_module, types
from repro.core.values import ConstantInt
from repro.driver import FaultPolicy
from repro.driver.pipelines import optimize_module
from repro.execution.interpreter import Interpreter
from repro.transforms import (
    DeadCodeElimination, GVN, InstCombine, PassManager, RangeOpt, Reassociate,
)
from repro.tvalid import (
    FAILED, PASSED, SKIPPED_UNSUPPORTED, TranslationValidator,
    ValidationConfig, evaluate_function, refines, supports,
)

INT = types.INT


def _fn(text, name):
    return parse_module(text).functions[name]


# ----------------------------------------------------------------------
# The refinement comparator
# ----------------------------------------------------------------------

def test_refines_equal_values():
    assert refines(("value", 3), ("value", 3)) is True
    assert refines(("value", 3), ("value", 4)) is False


def test_refines_trap_to_anything():
    # Before trapping means any behaviour after is legal.
    assert refines(("trap", "DivisionByZero"), ("value", 0)) is True
    assert refines(("trap", "DivisionByZero"), ("trap", "MemoryFault")) \
        is True


def test_refines_undef_narrowing():
    # An unspecified result may be narrowed to any value (or stay
    # unspecified); a trap on the after side is incomparable, not a
    # violation (the unspecified path may itself trap).
    assert refines(("undef", None), ("value", 42)) is True
    assert refines(("undef", None), ("undef", None)) is True
    assert refines(("undef", None), ("trap", "DivisionByZero")) is None


def test_refines_value_to_trap_is_violation():
    assert refines(("value", 3), ("trap", "DivisionByZero")) is False


def test_refines_timeouts_incomparable():
    assert refines(("timeout", None), ("value", 1)) is None
    assert refines(("value", 1), ("timeout", None)) is None


# ----------------------------------------------------------------------
# The exhaustive evaluator
# ----------------------------------------------------------------------

def test_evaluate_pure_arithmetic():
    fn = _fn("""
int %f(int %x) {
entry:
  %a = add int %x, 1
  ret int %a
}
""", "f")
    assert supports(fn)
    assert evaluate_function(fn, (41,)) == ("value", 42)
    assert evaluate_function(fn, (types.INT.max_value,)) == (
        "value", types.INT.min_value)  # wraps, like the interpreter


def test_evaluate_branches_and_phis():
    fn = _fn("""
int %f(bool %c, int %x) {
entry:
  br bool %c, label %t, label %join
t:
  %double = add int %x, %x
  br label %join
join:
  %r = phi int [ %double, %t ], [ %x, %entry ]
  ret int %r
}
""", "f")
    assert evaluate_function(fn, (True, 5)) == ("value", 10)
    assert evaluate_function(fn, (False, 5)) == ("value", 5)


def test_evaluate_trap_and_undef():
    trap = _fn("""
int %f(int %x) {
entry:
  %q = div int %x, 0
  ret int %q
}
""", "f")
    assert evaluate_function(trap, (7,))[0] == "trap"
    undef = _fn("""
int %f(int %x) {
entry:
  %u = add int undef, %x
  ret int %u
}
""", "f")
    assert evaluate_function(undef, (7,)) == ("undef", None)


def test_evaluate_undef_absorbed_by_and_zero():
    fn = _fn("""
int %f(int %x) {
entry:
  %u = and int undef, 0
  %r = add int %u, %x
  ret int %r
}
""", "f")
    # undef & 0 is pinned to 0, not propagated.
    assert evaluate_function(fn, (9,)) == ("value", 9)


def test_supports_rejects_memory_and_calls():
    fn = _fn("""
int %f(int* %p) {
entry:
  %v = load int* %p
  ret int %v
}
""", "f")
    assert not supports(fn)


# ----------------------------------------------------------------------
# The validator: verdicts on function pairs
# ----------------------------------------------------------------------

LEGAL_BEFORE = """
int %f(int %x) {
entry:
  %a = add int %x, 0
  ret int %a
}
"""
LEGAL_AFTER = """
int %f(int %x) {
entry:
  ret int %x
}
"""


def test_validator_accepts_legal_simplification():
    results = TranslationValidator().validate(
        parse_module(LEGAL_BEFORE), parse_module(LEGAL_AFTER))
    assert [r.status for r in results] == [PASSED]
    assert results[0].engine == "exhaustive"
    assert results[0].inputs_checked > 0


def test_validator_ignores_unchanged_functions():
    results = TranslationValidator().validate(
        parse_module(LEGAL_BEFORE), parse_module(LEGAL_BEFORE))
    assert results == []


def test_validator_catches_wrong_fold_with_counterexample():
    wrong = """
int %f(int %x) {
entry:
  %a = sub int 0, %x
  ret int %a
}
"""
    results = TranslationValidator().validate(
        parse_module(LEGAL_BEFORE), parse_module(wrong))
    assert len(results) == 1
    assert results[0].status == FAILED
    witness = results[0].counterexample
    assert witness is not None
    # The reported input really does discriminate the two bodies.
    assert -witness.args[0] != witness.args[0] or witness.args[0] == 0


def test_validator_skips_signature_changes():
    resigned = """
int %f(int %x, int %y) {
entry:
  ret int %x
}
"""
    results = TranslationValidator().validate(
        parse_module(LEGAL_BEFORE), parse_module(resigned))
    assert [r.status for r in results] == [SKIPPED_UNSUPPORTED]


def test_validator_skips_pointer_returning_functions():
    alloc_before = """
sbyte* %alloc(uint %n) {
entry:
  %p = malloc sbyte, uint %n
  ret sbyte* %p
}
"""
    alloc_after = """
sbyte* %alloc(uint %n) {
entry:
  %m = add uint %n, 0
  %p = malloc sbyte, uint %m
  ret sbyte* %p
}
"""
    results = TranslationValidator().validate(
        parse_module(alloc_before), parse_module(alloc_after))
    assert [r.status for r in results] == [SKIPPED_UNSUPPORTED]


def test_trap_to_defined_is_legal():
    """DCE'ing an unused div-by-zero turns an always-trapping function
    into a defined one — more defined is exactly what refinement
    permits."""
    before = parse_module("""
int %f(int %x) {
entry:
  %dead = div int %x, 0
  ret int %x
}
""")
    after = parse_module("""
int %f(int %x) {
entry:
  ret int %x
}
""")
    assert evaluate_function(before.functions["f"], (5,))[0] == "trap"
    results = TranslationValidator().validate(before, after)
    assert [r.status for r in results] == [PASSED]
    # And the real pass produces exactly that rewrite.
    DeadCodeElimination().run_on_function(before.functions["f"])
    results = TranslationValidator().validate(
        parse_module("""
int %f(int %x) {
entry:
  %dead = div int %x, 0
  ret int %x
}
"""), before)
    assert [r.status for r in results] == [PASSED]


def test_undef_narrowing_is_legal():
    before = parse_module("""
int %f(int %x) {
entry:
  %u = add int undef, %x
  ret int %u
}
""")
    after = parse_module("""
int %f(int %x) {
entry:
  ret int %x
}
""")
    results = TranslationValidator().validate(before, after)
    assert [r.status for r in results] == [PASSED]


def test_coexecution_validates_loops():
    before = parse_module("""
int %sum(int %n) {
entry:
  br label %head
head:
  %i = phi int [ 0, %entry ], [ %inext, %body ]
  %acc = phi int [ 0, %entry ], [ %anext, %body ]
  %done = setge int %i, %n
  br bool %done, label %exit, label %body
body:
  %anext = add int %acc, %i
  %inext = add int %i, 1
  br label %head
exit:
  ret int %acc
}
""")
    wrong = parse_module("""
int %sum(int %n) {
entry:
  ret int 0
}
""")
    validator = TranslationValidator()
    results = validator.validate(before, wrong)
    assert len(results) == 1
    assert results[0].status == FAILED
    assert results[0].engine == "coexec"


# ----------------------------------------------------------------------
# Planted wrong folds through the transactional pass manager: each of
# rangeopt / gvn / reassociate corrupted in its own characteristic way must
# be caught, rolled back, and poisoned.
# ----------------------------------------------------------------------

PLANT_SOURCE = """
int %f(int %x, int %y) {
entry:
  %sum = add int %x, %y
  %diff = sub int %sum, %y
  %r = sub int %diff, %y
  ret int %r
}
"""


def _plant(base_cls, corrupt):
    """A subclass of ``base_cls`` that additionally applies ``corrupt``
    — the planted miscompile — after the real pass logic."""

    class Planted(base_cls):
        def run_on_function(self, function):
            changed = super().run_on_function(function)
            return corrupt(function) or changed

    return Planted()


def _first_inst(function, opcode_name):
    for inst in function.instructions():
        if inst.opcode.value == opcode_name:
            return inst
    return None


def _corrupt_rangeopt(function):
    # A wrong "proved constant": replace the returned value with 7.
    ret = _first_inst(function, "ret")
    if ret is None or ret.return_value is None:
        return False
    if isinstance(ret.return_value, ConstantInt):
        return False
    ret.set_operand(0, ConstantInt(INT, 7))
    return True


def _corrupt_gvn(function):
    # A wrong congruence: "x+y and x-y compute the same value".
    first = _first_inst(function, "add")
    second = _first_inst(function, "sub")
    if first is None or second is None:
        return False
    second.replace_all_uses_with(first)
    second.erase_from_parent()
    return True


def _corrupt_reassociate(function):
    # A wrong "reassociation": a - b "=" b - a.
    inst = _first_inst(function, "sub")
    if inst is None:
        return False
    a, b = inst.operands
    inst.set_operand(0, b)
    inst.set_operand(1, a)
    return True


@pytest.mark.parametrize("base_cls,corrupt", [
    (RangeOpt, _corrupt_rangeopt),
    (GVN, _corrupt_gvn),
    (Reassociate, _corrupt_reassociate),
], ids=["rangeopt", "gvn", "reassociate"])
def test_planted_wrong_fold_caught_and_rolled_back(base_cls, corrupt):
    module = parse_module(PLANT_SOURCE)
    policy = FaultPolicy(translation_validate=True, reduce_testcases=False)
    manager = PassManager(policy=policy)
    manager.add(_plant(base_cls, corrupt))
    manager.run(module)

    assert policy.statistics()["validations.failed"] >= 1
    assert policy.statistics()["passes.rolled_back"] >= 1
    reports = [r for r in policy.crash_reports
               if r.error_type == "TranslationValidationError"]
    assert reports, [r.describe() for r in policy.crash_reports]
    assert reports[0].pass_name == base_cls.name
    assert policy.is_poisoned(base_cls.name, module.name, "f")
    # Rolled back: the module still computes x - y on every probe.
    interp = Interpreter(module)
    assert interp.run("f", [10, 3]) == 7
    assert interp.run("f", [-4, 9]) == -13


def test_correct_passes_validate_cleanly():
    """The same passes, unplanted, over the same input: all green."""
    module = parse_module(PLANT_SOURCE)
    policy = FaultPolicy(translation_validate=True, reduce_testcases=False)
    manager = PassManager(policy=policy)
    for pass_obj in (RangeOpt(), GVN(), Reassociate(), InstCombine()):
        manager.add(pass_obj)
    manager.run(module)
    stats = policy.statistics()
    assert stats["validations.failed"] == 0
    assert stats["passes.rolled_back"] == 0


# ----------------------------------------------------------------------
# The acceptance scenario: the PR-4 double-cast miscompile planted in
# the real instcombine, caught by --translation-validate with a
# reduced counterexample.
# ----------------------------------------------------------------------

def test_planted_double_cast_contained_with_reduced_counterexample():
    module = parse_module("""
long %widen(int %x) {
entry:
  %mid = cast int %x to uint
  %wide = cast uint %mid to long
  ret long %wide
}

int %untouched(int %x) {
entry:
  %r = add int %x, 1
  ret int %r
}
""")
    policy = FaultPolicy(translation_validate=True)
    manager = PassManager(policy=policy)
    manager.add(InstCombine(unsafe_cast_fold=True))
    manager.run(module)

    # Caught and reported with the counterexample in the message...
    reports = [r for r in policy.crash_reports
               if r.error_type == "TranslationValidationError"]
    assert len(reports) == 1
    report = reports[0]
    assert report.pass_name == "instcombine"
    assert report.function == "widen"
    assert "@widen" in report.error_message
    # ...rolled back (zero-extension semantics intact)...
    interp = Interpreter(module)
    assert interp.run("widen", [-5]) == 4294967291
    # ...poisoned at function granularity: the innocent function keeps
    # its optimization eligibility...
    assert policy.is_poisoned("instcombine", module.name, "widen")
    assert not policy.is_poisoned("instcombine", module.name, "untouched")
    # ...and the testcase reducer shipped a small replayable module.
    assert report.reduced_ir is not None
    assert report.reduced_instructions is not None
    assert report.reduced_instructions <= 10
    # The reduced module really still fails validation under the pass.
    reduced_before = parse_module(report.reduced_ir)
    reduced_after = parse_module(report.reduced_ir)
    for function in list(reduced_after.defined_functions()):
        InstCombine(unsafe_cast_fold=True).run_on_function(function)
    verdicts = TranslationValidator().validate(reduced_before, reduced_after)
    assert any(v.status == FAILED for v in verdicts)


#: A body the -O2 pipeline definitely rewrites (constant-chain folds),
#: so validation verdicts are actually produced.
CHANGING_SOURCE = """
int %g(int %x) {
entry:
  %a = add int %x, 7
  %b = add int %a, 9
  %c = add int %b, 0
  ret int %c
}
"""


def test_optimize_module_under_validation_stays_correct():
    """The full -O2 ladder with validation on over a plain module:
    no rollbacks, same IR behaviour, counters populated."""
    module = parse_module(CHANGING_SOURCE)
    policy = FaultPolicy(translation_validate=True, reduce_testcases=False)
    optimize_module(module, level=2, policy=policy)
    stats = policy.statistics()
    assert stats["validations.failed"] == 0
    assert stats["passes.rolled_back"] == 0
    assert stats["validations.run"] >= 1
    assert stats["validations.passed"] == stats["validations.run"]
    interp = Interpreter(module)
    assert interp.run("g", [10]) == 26


# ----------------------------------------------------------------------
# The fuzz-harness oracle column (lc-fuzz --translation-validate)
# ----------------------------------------------------------------------

WIDEN_PROGRAM = """
extern int print_long(long x);
long widen(int x) { return (long)(uint)x; }
int main() {
  print_long(widen(-5));
  return 0;
}
"""


def _unsafe_instcombine(*args, **kwargs):
    return InstCombine(unsafe_cast_fold=True)


def test_harness_tvalid_oracle_reports_planted_bug(monkeypatch):
    """With the buggy fold planted in the pipeline, the validator
    column reports tvalid-O<N> findings — and because the violation is
    rolled back, the end-to-end interp oracle stays clean."""
    from repro.driver import pipelines
    from repro.fuzz import HarnessConfig, check_program

    monkeypatch.setattr(pipelines, "InstCombine", _unsafe_instcombine)
    result = check_program(WIDEN_PROGRAM, HarnessConfig(
        levels=(1,), machine_levels=(), check_roundtrips=False,
        translation_validate=True))
    assert result.error is None
    oracles = [d.oracle for d in result.divergences]
    assert "tvalid-O1" in oracles, oracles
    assert "interp-O1" not in oracles, oracles
    finding = next(d for d in result.divergences if d.oracle == "tvalid-O1")
    assert "instcombine" in finding.actual
    assert "@widen" in finding.actual


def test_harness_reports_validator_miss(monkeypatch):
    """The cross-check: when the validator is blinded (every function
    skipped by size), the planted bug escapes to the end-to-end oracle
    and the disagreement is its own tvalid-miss finding."""
    from repro.driver import pipelines
    from repro.fuzz import HarnessConfig, check_program, harness

    monkeypatch.setattr(pipelines, "InstCombine", _unsafe_instcombine)
    monkeypatch.setattr(
        harness, "_validation_policy",
        lambda: FaultPolicy(
            translation_validate=True, reduce_testcases=False,
            validation_config=ValidationConfig(max_tuples=0,
                                               max_function_size=0)))
    result = check_program(WIDEN_PROGRAM, HarnessConfig(
        levels=(1,), machine_levels=(), check_roundtrips=False,
        translation_validate=True))
    oracles = [d.oracle for d in result.divergences]
    assert "interp-O1" in oracles, oracles
    assert "tvalid-miss-O1" in oracles, oracles
    assert "tvalid-O1" not in oracles, oracles


def test_harness_clean_program_has_no_tvalid_findings():
    from repro.fuzz import HarnessConfig, check_program

    result = check_program(WIDEN_PROGRAM, HarnessConfig(
        levels=(1, 2), machine_levels=(), check_roundtrips=False,
        translation_validate=True))
    assert result.error is None
    assert result.divergences == [], [
        d.describe() for d in result.divergences]


# ----------------------------------------------------------------------
# lc-synth: the verified peephole synthesizer
# ----------------------------------------------------------------------

def test_verify_rule_accepts_identity_and_rejects_nonidentity():
    from repro.tvalid.synth import verify_rule

    x, y = ("var", 0), ("var", 1)
    cancel = ("sub", ("add", x, y), y)
    for signed in (True, False):
        assert verify_rule(cancel, x, signed=signed)
        assert not verify_rule(("add", x, y), x, signed=signed)
    # Signedness-dependent: x >> 0 is the identity everywhere, but
    # setlt(x, 0) == "sign bit set" only holds for signed types.
    negative = ("setlt", x, ("const", 0))
    assert not verify_rule(negative, ("bool", False), signed=True)
    assert verify_rule(negative, ("bool", False), signed=False)


def test_synthesizer_discovers_known_identities():
    from repro.tvalid.synth import synthesize

    report = synthesize(max_rules=8, arith_ops=("add", "sub"),
                        shift_ops=(), cmp_ops=())
    assert report.enumerated > 0
    assert len(report.rules) > 0
    assert report.cast_problems == []
    x = ("var", 0)
    # The add/sub cancellation family must be in a small-scope run.
    assert any(rule.rhs == x and rule.lhs[0] in ("add", "sub")
               for rule in report.rules), [r.name for r in report.rules]
    # Every emitted rule is strictly profitable and well-formed.
    from repro.transforms.peephole import tree_cost, tree_vars

    for rule in report.rules:
        assert tree_cost(rule.rhs) < tree_cost(rule.lhs)
        assert tree_vars(rule.rhs) <= tree_vars(rule.lhs)


def test_checked_in_generated_rules_are_substantial():
    from repro.transforms.peephole import (
        load_generated_rules, tree_cost, tree_cvars, tree_vars,
    )

    rules = load_generated_rules()
    assert len(rules) >= 10
    for rule in rules:
        assert rule.applies in ("int", "sint", "uint")
        assert tree_cost(rule.rhs) < tree_cost(rule.lhs)
        assert tree_vars(rule.rhs) <= tree_vars(rule.lhs)
        assert tree_cvars(rule.rhs) <= tree_cvars(rule.lhs)


def test_generated_rules_fire_and_are_correct():
    """The constant-reassociation family on live IR: two chained adds
    collapse to one, semantics pinned by the interpreter."""
    module = parse_module("""
int %f(int %x) {
entry:
  %a = add int %x, 7
  %b = add int %a, 9
  ret int %b
}
""")
    combiner = InstCombine()
    assert combiner.levels["generated_rules_loaded"] >= 10
    combiner.run_on_function(module.functions["f"])
    assert combiner.counters["generated_rules_fired"] >= 1
    body = module.functions["f"]
    assert body.instruction_count() == 2  # one add + ret
    assert Interpreter(module).run("f", [5]) == 21
    assert Interpreter(module).run("f", [-16]) == 0


def test_generated_rule_nand_complement_fires():
    """A purely synthesized identity (x & ~x == 0) that the hand-written
    folds do not cover on their own."""
    module = parse_module("""
int %f(int %x) {
entry:
  %not = xor int %x, -1
  %r = and int %x, %not
  ret int %r
}
""")
    InstCombine().run_on_function(module.functions["f"])
    assert Interpreter(module).run("f", [12345]) == 0
    assert Interpreter(module).run("f", [-1]) == 0


def test_cast_chain_audit_is_clean():
    from repro.tvalid.synth import audit_cast_chains

    assert audit_cast_chains() == []


# ----------------------------------------------------------------------
# -stats plumbing (satellite: counters via the FaultPolicy channel)
# ----------------------------------------------------------------------

def test_stats_counters_reported():
    from repro.transforms.peephole import load_generated_rules

    module = parse_module(CHANGING_SOURCE)
    policy = FaultPolicy(translation_validate=True, reduce_testcases=False)
    optimize_module(module, level=2, policy=policy)
    stats = policy.statistics()
    for counter in ("validations.run", "validations.passed",
                    "validations.failed", "validations.skipped-by-size",
                    "validations.skipped-unsupported", "synth.rules-loaded"):
        assert counter in stats
    assert stats["synth.rules-loaded"] == len(load_generated_rules())
    assert stats["validations.run"] >= 1


def test_benchsuite_spot_check_zero_rollbacks():
    """One real benchmark at -O2 under --translation-validate: the
    whole-suite version of this is the CI tvalid-gate."""
    from repro.benchsuite import load_source
    from repro.frontend import compile_source

    module = compile_source(load_source("mcf"), "mcf")
    policy = FaultPolicy(translation_validate=True, reduce_testcases=False)
    optimize_module(module, level=2, policy=policy)
    stats = policy.statistics()
    assert stats["validations.failed"] == 0
    assert stats["passes.rolled_back"] == 0
    assert stats["validations.run"] >= 1
