"""Translation validation: per-run refinement checking of transforms.

After a transform pass runs, each function it changed is checked
against its own pre-pass version for **refinement**: on every probed
input, the transformed function may only be *more* defined than the
original —

* original traps (division by zero, memory fault)  -> the transformed
  function may do anything on that input;
* original returns an unspecified (undef-derived) value -> the
  transformed function may return any value;
* original returns a concrete value and output -> the transformed
  function must produce exactly that value and output.

Two engines share that comparator:

* **exhaustive** (:mod:`.evaluate`) — loop-free functions in the pure
  scalar fragment are enumerated over the whole narrow input window;
  a reported counterexample is a concrete replayable input;
* **co-execution** — everything else runs through the reference
  interpreter on a bounded, deterministic input sample (boundary
  values plus seeded draws from each argument's window), before and
  after, under a step budget.  Timeouts are incomparable and skipped,
  never flagged.

Functions whose arguments are not first-class scalars (pointers,
varargs), functions that *return* a pointer (a returned address is
allocation layout, which transforms legitimately change — an allocator
under mem2reg moves every address it hands out), and functions whose
signature the pass changed are skipped as unsupported — the documented
incompleteness for memory-heavy code.  Skips and validations are
counted so ``-stats`` can report coverage.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Optional

from ..core import print_function
from ..core.constfold import ArithmeticFault
from ..core.module import Function, Module
from . import evaluate
from .evaluate import Unsupported, argument_domain, outcomes_equal

#: validation statuses, in -stats counter spelling
PASSED = "passed"
FAILED = "failed"
SKIPPED_SIZE = "skipped-by-size"
SKIPPED_UNSUPPORTED = "skipped-unsupported"


@dataclass
class ValidationConfig:
    """Budgets for one validator instance."""

    #: ceiling on the exhaustive engine's input product; domains that
    #: cannot shrink under it fall back to co-execution sampling
    max_tuples: int = 512
    #: sampled input tuples per function for the co-execution engine
    exec_inputs: int = 6
    #: interpreter step budget per co-executed input (the transformed
    #: side gets ``after_step_factor`` times more: a pass may trade
    #: instructions for steps without becoming "worse").  Deliberately
    #: small: a timed-out input is skipped as incomparable — soundness
    #: is unaffected, only coverage — and the budget is paid per
    #: (pass, function, input), every compile, on the hot path.
    step_limit: int = 25_000
    after_step_factor: int = 4
    #: functions beyond this many instructions (before + after) are
    #: counted skipped-by-size rather than co-executed
    max_function_size: int = 4000


@dataclass
class Counterexample:
    """A concrete input on which refinement fails."""

    function: str
    args: tuple
    before: str
    after: str
    engine: str

    def describe(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return (f"@{self.function}({rendered}): before {self.before}; "
                f"after {self.after} [{self.engine}]")


@dataclass
class FunctionValidation:
    """The validator's verdict for one changed function."""

    function: str
    status: str
    engine: Optional[str] = None
    inputs_checked: int = 0
    counterexample: Optional[Counterexample] = None


class TranslationValidationError(Exception):
    """Raised into the transactional pass manager on a refinement
    violation; carries the concrete counterexample."""

    def __init__(self, pass_name: str, result: FunctionValidation):
        self.pass_name = pass_name
        self.result = result
        detail = (result.counterexample.describe()
                  if result.counterexample else f"@{result.function}")
        super().__init__(f"refinement violated by {pass_name}: {detail}")


def _describe_outcome(outcome: tuple) -> str:
    kind = outcome[0]
    if kind == "value":
        return f"value {outcome[1]!r}"
    if kind == "trap":
        return f"trap({outcome[1]})"
    if kind == "undef":
        return "unspecified value"
    return kind


def refines(before: tuple, after: tuple) -> Optional[bool]:
    """Does ``after`` refine ``before`` on one input?  ``None`` means
    the pair is incomparable (a timeout on either side, or a before
    outcome already unspecified in a way we cannot discriminate) and
    must be skipped, never flagged."""
    if before[0] == "timeout" or after[0] == "timeout":
        return None
    if before[0] == "trap":
        return True
    if before[0] == "undef":
        # Unspecified result: any defined result refines it.  A trap
        # on the after side *could* still be legal (the unspecified
        # control path may itself trap), so skip rather than flag.
        return True if after[0] in ("value", "undef") else None
    if after[0] != "value":
        return False
    return outcomes_equal(before, after)


def _signature(function: Function) -> tuple:
    return (tuple(arg.type for arg in function.args), function.return_type)


def _sample_inputs(function: Function, count: int) -> Optional[list[tuple]]:
    """Deterministic input sample for co-execution: boundary tuples
    plus seeded draws from each argument's window.  None when an
    argument type is outside the enumerable fragment."""
    domains = []
    for arg in function.args:
        domain = argument_domain(arg.type)
        if domain is None:
            return None
        domains.append(domain)
    if not domains:
        return [()]
    inputs: list[tuple] = []
    seen = set()

    def push(candidate: tuple) -> None:
        if candidate not in seen:
            seen.add(candidate)
            inputs.append(candidate)

    push(tuple(domain[0] for domain in domains))          # all minimums
    push(tuple(domain[-1] for domain in domains))         # all maximums
    push(tuple(sorted(domain, key=abs)[0] for domain in domains))  # zeros
    # the distinct tuple space can be smaller than ``count`` (a single
    # bool or float argument) — cap the target or the draw loop never
    # terminates
    space = 1
    for domain in domains:
        space *= len(domain)
        if space >= count:
            break
    target = min(count, space)
    rng = Random(zlib.crc32(function.name.encode("utf-8")))
    attempts = 0
    while len(inputs) < target and attempts < count * 32:
        attempts += 1
        push(tuple(rng.choice(domain) for domain in domains))
    return inputs


def _deterministic_clock(interp, args):
    """Replacement ``clock`` external for co-execution: the default one
    reads the interpreter's *step counter*, which legitimately differs
    between the pre- and post-pass modules.  Counting calls instead is
    identical on both sides of any refinement-correct transform."""
    interp._tvalid_clock = getattr(interp, "_tvalid_clock", 0) + 1000
    return interp._tvalid_clock


def classified_run(engine, function_name: str, args: tuple = ()) -> tuple:
    """One bounded execution on ``engine`` (anything with ``run`` and
    ``output``) -> (kind, value, output): ``("value", what it
    returned)``, ``("trap", the fault's class name)`` or ``("timeout",
    None)``.  The one classification every oracle compares by."""
    from ..execution.interpreter import ExecutionError, StepLimitExceeded
    from ..execution.memory import MemoryFault

    try:
        kind, value = "value", engine.run(function_name, args)
    except StepLimitExceeded:
        kind, value = "timeout", None
    except (ArithmeticFault, MemoryFault, ExecutionError) as fault:
        kind, value = "trap", type(fault).__name__
    return (kind, value, "".join(engine.output))


class TranslationValidator:
    """Checks a transformed module against its pre-pass snapshot."""

    def __init__(self, config: Optional[ValidationConfig] = None):
        self.config = config or ValidationConfig()

    # -- module-level driver ------------------------------------------------

    def validate(self, before: Module, after: Module,
                 only_function: Optional[str] = None,
                 ) -> list[FunctionValidation]:
        """Validate every function the pass changed (or one named
        function); unchanged functions produce no entry."""
        results = []
        for name, after_fn in after.functions.items():
            if after_fn.is_declaration:
                continue
            if only_function is not None and name != only_function:
                continue
            before_fn = before.functions.get(name)
            if before_fn is None or before_fn.is_declaration:
                # A function the pass materialized from nothing (no
                # pass does today); nothing to refine against.
                continue
            if _signature(before_fn) != _signature(after_fn):
                results.append(FunctionValidation(name, SKIPPED_UNSUPPORTED))
                continue
            if print_function(before_fn) == print_function(after_fn):
                continue
            results.append(self.validate_pair(before, after,
                                              before_fn, after_fn))
        return results

    # -- one function pair --------------------------------------------------

    def validate_pair(self, before: Module, after: Module,
                      before_fn: Function, after_fn: Function,
                      ) -> FunctionValidation:
        name = after_fn.name
        if before_fn.return_type.is_pointer:
            # A returned address is allocation layout, not semantics:
            # any transform that adds or removes an alloca legitimately
            # moves it (mem2reg on an allocator function, say).
            return FunctionValidation(name, SKIPPED_UNSUPPORTED)
        if evaluate.supports(before_fn) and evaluate.supports(after_fn):
            inputs = evaluate.input_tuples(before_fn, self.config.max_tuples)
            if inputs is not None:
                verdict = self._exhaustive(before_fn, after_fn, inputs)
                if verdict is not None:
                    return verdict
                # fell out of the pure fragment mid-evaluation; co-execute
        size = (before_fn.instruction_count() + after_fn.instruction_count())
        if size > self.config.max_function_size:
            return FunctionValidation(name, SKIPPED_SIZE)
        inputs = _sample_inputs(before_fn, self.config.exec_inputs)
        if inputs is None:
            return FunctionValidation(name, SKIPPED_UNSUPPORTED)
        return self._coexecute(before, after, name, inputs)

    def _exhaustive(self, before_fn: Function, after_fn: Function,
                    inputs: list[tuple]) -> Optional[FunctionValidation]:
        name = after_fn.name
        checked = 0
        for args in inputs:
            try:
                outcome_before = evaluate.evaluate_function(before_fn, args)
                outcome_after = evaluate.evaluate_function(after_fn, args)
            except Unsupported:
                return None
            verdict = refines(outcome_before, outcome_after)
            if verdict is False:
                return FunctionValidation(
                    name, FAILED, engine="exhaustive",
                    inputs_checked=checked,
                    counterexample=Counterexample(
                        name, args,
                        _describe_outcome(outcome_before),
                        _describe_outcome(outcome_after),
                        "exhaustive"))
            if verdict:
                checked += 1
        return FunctionValidation(name, PASSED, engine="exhaustive",
                                  inputs_checked=checked)

    def _coexecute(self, before: Module, after: Module, name: str,
                   inputs: list[tuple]) -> FunctionValidation:
        checked = 0
        for args in inputs:
            outcome_before = self._bounded_run(before, name, args,
                                               self.config.step_limit)
            if outcome_before is None or outcome_before[0] == "timeout":
                continue  # incomparable: don't pay for the after run
            outcome_after = self._bounded_run(
                after, name, args,
                self.config.step_limit * self.config.after_step_factor)
            if outcome_after is None:
                continue
            kind_b, value_b, output_b = outcome_before
            kind_a, value_a, output_a = outcome_after
            verdict = refines((kind_b, value_b), (kind_a, value_a))
            if verdict and kind_b == "value" and output_b != output_a:
                verdict = False
            if verdict is False:
                return FunctionValidation(
                    name, FAILED, engine="coexec", inputs_checked=checked,
                    counterexample=Counterexample(
                        name, args,
                        _describe_outcome((kind_b, value_b)),
                        _describe_outcome((kind_a, value_a)),
                        "coexec"))
            if verdict:
                checked += 1
        return FunctionValidation(name, PASSED, engine="coexec",
                                  inputs_checked=checked)

    @staticmethod
    def _bounded_run(module: Module, name: str, args: tuple,
                     step_limit: int) -> Optional[tuple]:
        from ..execution.interpreter import Interpreter

        try:
            return classified_run(
                Interpreter(module, step_limit=step_limit,
                            extra_externals={"clock": _deterministic_clock}),
                name, args)
        except Exception:
            # An engine-level failure (not a program trap) proves
            # nothing about refinement; skip the input.
            return None
