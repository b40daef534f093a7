"""The differential harness: one program, many oracles, zero excuses.

Each generated (or hand-written) LC program is pushed through every
pair of paths that the system claims are semantically equivalent:

* **optimizer oracle** — the interpreter at ``-O0`` (the reference)
  versus the interpreter on the ``-O1``/``-O2`` pipelines;
* **representation oracles** — textual print -> parse and bytecode
  write -> read must reproduce the module *exactly* (modulo the
  printer's own canonical form, which is compared by printing both);
* **backend oracle** — the machine simulators for the x86-like and
  sparc-like targets, at ``-O0`` and ``-O2``, versus the reference;
* **translation-validation oracle** (opt-in,
  ``translation_validate=True``) — each optimized compile additionally
  runs under the per-pass refinement validator
  (:mod:`repro.tvalid`); a validation failure is its own finding
  (``tvalid-O<level>``) with the guilty pass and the concrete
  counterexample.  The two oracles cross-check each other: an
  end-to-end divergence with no validation finding is reported as
  ``tvalid-miss-O<level>`` — either validator incompleteness (a
  skipped function hides the bug) or a bug in a pass the validator
  exempts (module-level passes).

Behaviour is summarised as an :class:`Outcome` (exit code or trap
class, plus everything printed).  Any mismatch is a
:class:`Divergence`; ``lc-bugpoint`` consumes these to bisect and
reduce.  Step-limit exhaustion is *not* comparable across engines
(machine code executes more, and differently many, instructions than
IR) and is reported as a skip rather than a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..backend.simulator import MachineSimulator
from ..backend.targets import SPARC, X86, Target
from ..bitcode import read_bytecode, write_bytecode
from ..core import parse_module, print_module, verify_module
from ..core.module import Module
from ..driver.pipelines import optimize_module
from ..execution.interpreter import Interpreter
from ..frontend import compile_source
from ..tvalid.validate import classified_run

DEFAULT_STEP_LIMIT = 5_000_000
#: Machine code retires more instructions than the IR for the same
#: program (spills, copies, address arithmetic), so its budget is wider.
MACHINE_STEP_FACTOR = 8


@dataclass(frozen=True)
class Outcome:
    """The observable behaviour of one execution."""

    kind: str                 # "exit" | "trap" | "timeout"
    code: Optional[int] = None
    trap: Optional[str] = None
    output: str = ""

    def describe(self) -> str:
        if self.kind == "exit":
            head = f"exit({self.code})"
        elif self.kind == "trap":
            head = f"trap({self.trap})"
        else:
            head = "timeout"
        body = self.output if len(self.output) <= 200 else (
            self.output[:200] + "...")
        return f"{head} output={body!r}"


@dataclass
class Divergence:
    """One oracle pair that disagreed on one program."""

    oracle: str
    expected: str
    actual: str
    source: str = ""

    def describe(self) -> str:
        return (f"[{self.oracle}] expected {self.expected}; "
                f"got {self.actual}")


def _outcome(engine) -> Outcome:
    """``main`` on ``engine``, classified as every oracle classifies."""
    kind, value, output = classified_run(engine, "main")
    if kind == "value":
        return Outcome("exit", code=int(value or 0), output=output)
    return Outcome(kind, trap=value, output=output)


def run_interpreter(module: Module,
                    step_limit: int = DEFAULT_STEP_LIMIT) -> Outcome:
    """Reference execution: the IR interpreter."""
    return _outcome(Interpreter(module, step_limit=step_limit))


def run_interpreter_traced(module: Module,
                           step_limit: int = DEFAULT_STEP_LIMIT,
                           hot_threshold: int = 8) -> Outcome:
    """The trace-JIT tier: interpreter plus compiled hot-path traces.

    A deliberately low hot threshold so even small generated loops
    promote to recording, compile, and run through the guard/side-exit
    machinery this oracle exists to exercise.
    """
    from ..execution.tracejit import TraceManager

    interp = Interpreter(module, step_limit=step_limit)
    TraceManager(hot_threshold=hot_threshold).attach(interp)
    return _outcome(interp)


def run_machine(module: Module, target: Target,
                step_limit: int = DEFAULT_STEP_LIMIT
                * MACHINE_STEP_FACTOR) -> Outcome:
    """Backend execution: post-regalloc machine code simulation."""
    return _outcome(MachineSimulator(module, target, step_limit=step_limit))


def _outcomes_differ(reference: Outcome, candidate: Outcome) -> bool:
    if "timeout" in (reference.kind, candidate.kind):
        return False  # incomparable budgets; skip, never flag
    return reference != candidate


@dataclass
class HarnessConfig:
    levels: Sequence[int] = (1, 2)
    targets: Sequence[Target] = (X86, SPARC)
    machine_levels: Sequence[int] = (0, 2)
    step_limit: int = DEFAULT_STEP_LIMIT
    check_roundtrips: bool = True
    translation_validate: bool = False
    jit_traces: bool = False
    jit_trace_threshold: int = 8


@dataclass
class ProgramResult:
    """Everything the harness learned about one program."""

    reference: Optional[Outcome] = None
    divergences: list[Divergence] = field(default_factory=list)
    skipped: bool = False          # reference timed out / failed upstream
    error: Optional[str] = None    # compile/verify crash (also a finding)


def _compile(source: str, name: str, level: int, policy=None) -> Module:
    module = compile_source(source, name)
    if level > 0:
        optimize_module(module, level=level, policy=policy)
    verify_module(module)
    return module


def _validation_policy():
    """A FaultPolicy armed for per-pass refinement checking.  Testcase
    reduction stays off: the fuzz loop wants throughput, and the
    counterexample in the report already replays the bug."""
    from ..driver import FaultPolicy

    return FaultPolicy(translation_validate=True, reduce_testcases=False)


def check_program(source: str,
                  config: Optional[HarnessConfig] = None) -> ProgramResult:
    """Run one LC source through the full oracle matrix."""
    config = config or HarnessConfig()
    result = ProgramResult()
    try:
        module_o0 = _compile(source, "fuzz", 0)
    except Exception as error:  # compile crash: a real finding
        result.error = f"compile -O0 failed: {type(error).__name__}: {error}"
        return result
    reference = run_interpreter(module_o0, config.step_limit)
    result.reference = reference
    if reference.kind == "timeout":
        result.skipped = True
        return result

    def record(oracle: str, candidate: Outcome) -> None:
        if _outcomes_differ(reference, candidate):
            result.divergences.append(Divergence(
                oracle, reference.describe(), candidate.describe(), source))

    # Optimizer oracle: interpreter at each -O level.  With
    # translation validation on, the same compile also runs the
    # per-pass refinement validator as a third oracle column.
    for level in config.levels:
        policy = (_validation_policy()
                  if config.translation_validate and level > 0 else None)
        try:
            module = _compile(source, f"fuzz_o{level}", level, policy)
        except Exception as error:
            result.divergences.append(Divergence(
                f"interp-O{level}", reference.describe(),
                f"compile failed: {type(error).__name__}: {error}", source))
            continue
        validation_findings = 0
        if policy is not None:
            for crash in policy.crash_reports:
                if crash.error_type != "TranslationValidationError":
                    continue
                validation_findings += 1
                result.divergences.append(Divergence(
                    f"tvalid-O{level}",
                    "every changed function refines its input",
                    f"{crash.pass_name}: {crash.error_message}", source))
        before = len(result.divergences)
        record(f"interp-O{level}", run_interpreter(module,
                                                   config.step_limit))
        if (policy is not None and len(result.divergences) > before
                and validation_findings == 0):
            # The oracles disagree: end-to-end behaviour changed, yet
            # every per-pass validation passed.  Distinct finding —
            # validator incompleteness or an exempted (module) pass.
            result.divergences.append(Divergence(
                f"tvalid-miss-O{level}",
                "a validation finding for the divergent compile",
                "optimizer output diverges but per-pass validation "
                "reported nothing", source))

    # Trace-JIT oracle: the same -O0 module with the trace tier armed
    # (low threshold, so generated loops actually promote) must match
    # the plain interpreter exactly — same exit/trap, same output.
    if config.jit_traces:
        try:
            record("jit-traces", run_interpreter_traced(
                module_o0, config.step_limit,
                config.jit_trace_threshold))
        except Exception as error:  # trace-compiler crash: a finding
            result.divergences.append(Divergence(
                "jit-traces", reference.describe(),
                f"trace tier crashed: {type(error).__name__}: {error}",
                source))

    # Representation oracles: print->parse and write->read identity.
    if config.check_roundtrips:
        canonical = print_module(module_o0)
        try:
            reparsed = print_module(parse_module(canonical))
            if reparsed != canonical:
                result.divergences.append(Divergence(
                    "text-roundtrip", "identical module text",
                    "re-printed module differs after parse", source))
        except Exception as error:
            result.divergences.append(Divergence(
                "text-roundtrip", "parseable printed module",
                f"parse failed: {type(error).__name__}: {error}", source))
        try:
            reread = print_module(read_bytecode(
                write_bytecode(module_o0, strip_names=False)))
            if reread != canonical:
                result.divergences.append(Divergence(
                    "bytecode-roundtrip", "identical module text",
                    "module differs after bytecode write/read", source))
        except Exception as error:
            result.divergences.append(Divergence(
                "bytecode-roundtrip", "readable written bytecode",
                f"read failed: {type(error).__name__}: {error}", source))

    # Backend oracle: both simulated targets, unoptimized and optimized.
    machine_limit = config.step_limit * MACHINE_STEP_FACTOR
    for level in config.machine_levels:
        try:
            module = (module_o0 if level == 0
                      else _compile(source, f"fuzz_m{level}", level))
        except Exception:
            continue  # already reported by the optimizer oracle
        for target in config.targets:
            oracle = f"sim-{target.name}-O{level}"
            try:
                candidate = run_machine(module, target, machine_limit)
            except Exception as error:  # codegen crash: a real finding
                result.divergences.append(Divergence(
                    oracle, reference.describe(),
                    f"codegen failed: {type(error).__name__}: {error}",
                    source))
                continue
            record(oracle, candidate)
    return result


@dataclass
class FuzzReport:
    checked: int = 0
    skipped: int = 0
    divergent: list[tuple[int, ProgramResult]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergent


def fuzz(seed: int, count: int, size: int = 3,
         config: Optional[HarnessConfig] = None,
         on_program: Optional[Callable[[int, ProgramResult], None]] = None,
         ) -> FuzzReport:
    """Generate+check ``count`` programs from one master seed.

    Program ``i`` uses seed ``seed + i`` so a finding is reproducible
    in isolation (``lc-fuzz --seed <seed+i> --count 1``).
    """
    from .generator import generate_program

    config = config or HarnessConfig()
    report = FuzzReport()
    for index in range(count):
        program_seed = seed + index
        source = generate_program(program_seed, size)
        result = check_program(source, config)
        report.checked += 1
        if result.skipped:
            report.skipped += 1
        if result.divergences or result.error:
            report.divergent.append((program_seed, result))
        if on_program is not None:
            on_program(program_seed, result)
    return report
