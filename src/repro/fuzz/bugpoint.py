"""lc-bugpoint: turn a failing fuzz case into a named pass + tiny IR.

Two classic debuggers in one module, modelled on LLVM's ``bugpoint``:

* **pass bisection** — given a program whose optimized behaviour
  diverges from the ``-O0`` reference, binary-search the prefix length
  of the standard pipeline to find the first pass whose addition makes
  the divergence appear.  The pipeline prefix is re-run from a fresh
  module each probe (passes mutate in place), so the search is exact.

* **delta reduction** — shrink a module while an arbitrary
  *interestingness* predicate keeps holding.  Reduction proceeds
  top-down: drop whole function bodies, then simplify control flow by
  forcing conditional branches, then delete individual instructions
  (replacing uses with a zero of the right type).  Every accepted step
  is verifier-clean; a candidate that fails the verifier or the
  predicate is rolled back by construction (we mutate clones).

Modules are cloned through the bytecode writer/reader — the cheapest
faithful deep-copy in the system, and a free round-trip test besides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..bitcode import read_bytecode, write_bytecode
from ..core import print_module, verify_module
from ..core.instructions import BranchInst, Opcode
from ..core.module import Module
from ..core.values import Constant, null_value
from ..driver import pipelines
from ..frontend import compile_source
from ..transforms import PassManager
from ..transforms.passmanager import pass_name
from .harness import (
    DEFAULT_STEP_LIMIT, Outcome, run_interpreter, run_machine,
)

Predicate = Callable[[Module], bool]


def clone_module(module: Module) -> Module:
    """Deep-copy a module (bytecode round-trip)."""
    return read_bytecode(write_bytecode(module, strip_names=False))


# ----------------------------------------------------------------------
# Pass bisection
# ----------------------------------------------------------------------

@dataclass
class BisectionResult:
    guilty_pass: Optional[str]      # None: divergence needs no passes
    prefix_length: int              # passes needed to expose the bug
    pass_names: list[str]


def _run_prefix(module: Module, passes: Sequence, length: int) -> Module:
    manager = PassManager()
    for pass_obj in passes[:length]:
        manager.add(pass_obj)
    manager.run(module)
    return module


def bisect_passes(module_factory: Callable[[], Module],
                  interesting: Predicate,
                  level: int = 2,
                  passes: Optional[Sequence] = None) -> BisectionResult:
    """Find the first pass of the ``-O<level>`` pipeline that makes
    ``interesting`` become true.

    ``module_factory`` must produce a fresh, equivalent module per call
    (e.g. recompile the source); ``interesting`` is evaluated on the
    module *after* running a pipeline prefix over it.  ``passes``
    overrides the pipeline (used by the self-test to plant a known-bad
    pass and check it gets named).
    """
    if passes is None:
        passes = pipelines.standard_pipeline(level).passes
    names = [pass_name(p) for p in passes]

    def probe(length: int) -> bool:
        return interesting(_run_prefix(module_factory(), passes, length))

    if probe(0):
        return BisectionResult(None, 0, names)
    if not probe(len(passes)):
        raise ValueError("divergence does not reproduce under the "
                         "full pipeline; nothing to bisect")
    low, high = 0, len(passes)  # probe(low) False, probe(high) True
    while high - low > 1:
        mid = (low + high) // 2
        if probe(mid):
            high = mid
        else:
            low = mid
    return BisectionResult(names[high - 1], high, names)


# ----------------------------------------------------------------------
# Delta reduction
# ----------------------------------------------------------------------

def _still_interesting(module: Module, interesting: Predicate) -> bool:
    try:
        verify_module(module)
    except Exception:
        return False
    # Hand the predicate a clone: running it (optimizing, executing)
    # must not contaminate the candidate we may keep reducing.
    return interesting(clone_module(module))


def _try_drop_function_bodies(module: Module,
                              interesting: Predicate) -> tuple[Module, bool]:
    changed = False
    for name in [f.name for f in module.defined_functions()]:
        if len(list(module.defined_functions())) <= 1:
            break
        candidate = clone_module(module)
        candidate.functions[name].delete_body()
        if _still_interesting(candidate, interesting):
            module = candidate
            changed = True
    return module, changed


def _conditional_branches(function) -> list[BranchInst]:
    return [inst for block in function.blocks for inst in block
            if isinstance(inst, BranchInst) and inst.is_conditional]


def _force_branches(module: Module,
                    interesting: Predicate) -> tuple[Module, bool]:
    """Try rewriting conditional branches as unconditional ones."""
    changed = False
    for fn_name in [f.name for f in module.defined_functions()]:
        index = 0
        while index < len(_conditional_branches(module.functions[fn_name])):
            accepted = False
            for side in (0, 1):
                trial = clone_module(module)
                branch = _conditional_branches(
                    trial.functions[fn_name])[index]
                kept = branch.successors[side]
                dropped = branch.successors[1 - side]
                parent_block = branch.parent
                if dropped is not kept:
                    for phi in dropped.phis():
                        phi.remove_incoming(parent_block)
                position = parent_block.instructions.index(branch)
                branch.erase_from_parent()
                parent_block.insert(position, BranchInst(kept))
                if _still_interesting(trial, interesting):
                    module = trial
                    changed = True
                    accepted = True
                    break
            if not accepted:
                index += 1
    return module, changed


def _instruction_count(module: Module) -> int:
    return sum(f.instruction_count() for f in module.defined_functions())


def _try_simplify_cfg(module: Module,
                      interesting: Predicate) -> tuple[Module, bool]:
    """Collapse the branch chains the other reducers leave behind.

    Instruction deletion empties blocks but never touches terminators,
    so a reduced function is often a long ``br`` daisy-chain.  One
    guarded SimplifyCFG sweep merges it away — guarded, because the
    pass under reduction may *be* SimplifyCFG (or the chain may tickle
    the same bug), in which case the candidate is simply rejected.
    """
    candidate = clone_module(module)
    try:
        from ..transforms import SimplifyCFG

        PassManager().add(SimplifyCFG()).run(candidate)
        verify_module(candidate)
    except Exception:
        return module, False
    if (_instruction_count(candidate) < _instruction_count(module)
            and _still_interesting(candidate, interesting)):
        return candidate, True
    return module, False


def _replacements(value_type, function) -> list:
    """Candidate stand-ins for a deleted instruction's value.

    Zero first, then one for integers (a divergence often hinges on an
    operand being non-zero: ``a+x`` and a miscompiled ``a-x`` agree at
    ``x == 0``), then same-typed function arguments — constants get
    folded by the very pipeline under test, so keeping an *opaque*
    value in place is often the only way a deletion preserves the bug.
    """
    candidates: list = [null_value(value_type)]
    if value_type.is_integer:
        from ..core.constfold import make_constant

        candidates.append(make_constant(value_type, 1))
    candidates.extend(arg for arg in function.args
                      if arg.type is value_type)
    return candidates


def _try_delete_instructions(module: Module,
                             interesting: Predicate) -> tuple[Module, bool]:
    changed = False
    for fn_name in [f.name for f in module.defined_functions()]:
        index = 0
        while True:
            function = module.functions[fn_name]
            flat = [
                (b, i) for b in function.blocks
                for i, inst in enumerate(b.instructions)
                if inst.opcode not in (Opcode.RET, Opcode.BR, Opcode.SWITCH,
                                       Opcode.INVOKE, Opcode.UNWIND,
                                       Opcode.PHI)
            ]
            if index >= len(flat):
                break
            block, position = flat[index]
            block_index = function.blocks.index(block)
            inst_type = block.instructions[position].type
            stand_in_count = (len(_replacements(inst_type, function))
                              if not inst_type.is_void else 1)
            accepted = False
            for stand_in_index in range(stand_in_count):
                candidate = clone_module(module)
                cand_fn = candidate.functions[fn_name]
                cand_block = cand_fn.blocks[block_index]
                inst = cand_block.instructions[position]
                if not inst_type.is_void:
                    stand_in = _replacements(inst.type,
                                             cand_fn)[stand_in_index]
                    inst.replace_all_uses_with(stand_in)
                inst.erase_from_parent()
                if _still_interesting(candidate, interesting):
                    module = candidate
                    changed = True
                    accepted = True
                    break
            if not accepted:
                index += 1
    return module, changed


#: Sweeps over the reducers before :func:`reduce_module` settles.
_MAX_ROUNDS = 6


def reduce_module(module: Module, interesting: Predicate) -> Module:
    """Shrink ``module`` while ``interesting`` holds; returns the
    reduced module (always verifier-clean, always still interesting).
    """
    if not _still_interesting(module, interesting):
        raise ValueError("input module is not interesting; refusing to "
                         "reduce toward nothing")
    module = clone_module(module)
    for _ in range(_MAX_ROUNDS):
        any_change = False
        for reducer in (_try_drop_function_bodies, _force_branches,
                        _try_delete_instructions, _try_simplify_cfg):
            module, changed = reducer(module, interesting)
            any_change = any_change or changed
        if not any_change:
            break
    verify_module(module)
    return module


# ----------------------------------------------------------------------
# The common driver: from a failing source to a verdict
# ----------------------------------------------------------------------

@dataclass
class BugpointResult:
    oracle: str
    guilty_pass: Optional[str]
    reduced: Module
    reduced_text: str
    reference: Outcome
    instruction_count: int


def _oracle_runner(oracle: str, step_limit: int):
    """Map a harness oracle name to (opt level, candidate runner)."""
    from ..backend.targets import SPARC, X86

    if oracle.startswith("interp-O"):
        level = int(oracle[len("interp-O"):])
        return level, lambda m: run_interpreter(m, step_limit)
    if oracle.startswith("sim-"):
        _, target_name, olevel = oracle.split("-")
        target = X86 if target_name == "x86" else SPARC
        return (int(olevel[1:]),
                lambda m: run_machine(m, target, step_limit * 8))
    raise ValueError(f"cannot bugpoint oracle {oracle!r}")


def bugpoint_source(source: str, oracle: str,
                    step_limit: int = DEFAULT_STEP_LIMIT,
                    reduce_step_limit: int = 100_000) -> BugpointResult:
    """Full workflow for one failing LC source + oracle name.

    Names the guilty pass (when the oracle involves the optimizer) and
    delta-reduces the ``-O0`` module under "this oracle still diverges
    from the interpreter on the same module".

    ``reduce_step_limit`` bounds each reduction probe: forcing a loop's
    backedge unconditionally makes the candidate spin, and burning the
    full fuzzing budget on every such probe would make reduction
    quadratic in wall-clock.  Probes that exceed it are simply deemed
    uninteresting (rolled back).  Raise it if the divergence itself
    needs many steps to manifest.
    """
    level, runner = _oracle_runner(oracle, step_limit)

    def fresh() -> Module:
        return compile_source(source, "bugpoint")

    reference = run_interpreter(fresh(), step_limit)

    guilty: Optional[str] = None
    if level > 0:
        def interesting_after_passes(module: Module) -> bool:
            candidate = runner(module)
            return (candidate.kind != "timeout"
                    and candidate != reference)

        result = bisect_passes(fresh, interesting_after_passes, level)
        guilty = result.guilty_pass

    # Reduce at -O0 against "optimizing/lowering the reduced module
    # still diverges from interpreting it" — the baseline is recomputed
    # per candidate because reduction legitimately changes behaviour.
    _, probe_runner = _oracle_runner(oracle, reduce_step_limit)

    def interesting(module: Module) -> bool:
        base = run_interpreter(clone_module(module), reduce_step_limit)
        if base.kind == "timeout":
            return False
        probe = clone_module(module)
        if level > 0:
            try:
                pipelines.optimize_module(probe, level=level)
            except Exception:
                return True  # crash while optimizing: still a bug
        try:
            candidate = probe_runner(probe)
        except Exception:
            return True  # codegen/engine crash: still a bug
        return candidate.kind != "timeout" and candidate != base

    reduced = reduce_module(fresh(), interesting)
    text = print_module(reduced)
    count = sum(f.instruction_count()
                for f in reduced.defined_functions())
    return BugpointResult(oracle, guilty, reduced, text, reference, count)
