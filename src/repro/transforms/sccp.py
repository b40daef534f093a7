"""Sparse conditional constant propagation (Wegman–Zadeck).

A three-point lattice (undefined → constant → overdefined) over SSA
values, solved by the shared sparse engine
(:func:`repro.analysis.dataflow.solve_sparse`), which tracks edge
executability while it propagates: this analysis tells it that a branch
or switch on a constant has one feasible successor (and one on a
still-undefined value has none), so constants are propagated *through*
conditional structure — the dead edge stays non-executable and phi
nodes only merge values from executable edges.  This is the kind of
fast, flow-insensitive-cost / flow-sensitive-benefit algorithm the
paper credits SSA form with enabling.

The pass is the analysis plus its rewrite: every side-effect-free
instruction whose element is a constant is replaced by it, and the
terminators of executable blocks fold; the blocks that leaves
unreachable are SimplifyCFG's to sweep.
"""

from __future__ import annotations

from ..analysis.dataflow import SparseAnalysis, solve_sparse
from ..core import constfold
from ..core.instructions import (
    BranchInst, CastInst, Instruction, PhiNode, ShiftInst, SwitchInst,
)
from ..core.module import Function
from ..core.values import (
    Constant, ConstantBool, ConstantFP, ConstantInt, ConstantPointerNull,
    UndefValue, Value,
)
from .utils import constant_fold_terminator, replace_and_erase

#: The lattice's two sentinels; every other element is a Constant.
_UNDEFINED = "undefined"
_OVERDEFINED = "overdefined"

_SCALAR_CONSTANTS = (ConstantInt, ConstantBool, ConstantFP,
                     ConstantPointerNull)


class _Constants(SparseAnalysis):
    """The constant lattice and what decides a branch (module docstring)."""

    def __init__(self):
        #: One object per distinct scalar constant, so that the solver's
        #: ``!=`` (identity, on Constants) is value equality.  Symbolic
        #: constants (globals, constant expressions) are only ever equal
        #: to themselves.
        self._canonical: dict[tuple, Constant] = {}

    def _constant(self, constant: Constant) -> Constant:
        if not isinstance(constant, _SCALAR_CONSTANTS):
            return constant
        # The printed form tells -0.0 from 0.0 and equates NaN with NaN.
        return self._canonical.setdefault((constant.type, str(constant)),
                                          constant)

    def top(self):
        return _UNDEFINED

    def initial(self, value: Value):
        if isinstance(value, UndefValue):
            return _UNDEFINED
        if isinstance(value, Constant):
            return self._constant(value)
        return _OVERDEFINED  # an argument: only known at run time

    def meet(self, a, b):
        if a is _UNDEFINED or a is b:
            return b
        if b is _UNDEFINED:
            return a
        return _OVERDEFINED

    def transfer(self, inst: Instruction, get):
        if isinstance(inst, PhiNode):
            merged = _UNDEFINED
            for value, _ in inst.incoming:
                merged = self.meet(merged, get(value))
            return merged
        if not (inst.is_binary_op or isinstance(inst, (ShiftInst, CastInst))):
            return _OVERDEFINED  # loads, calls, ...: a run-time value
        operands = [get(operand) for operand in inst.operands]
        if _OVERDEFINED in operands:
            return _OVERDEFINED
        if _UNDEFINED in operands:
            return _UNDEFINED
        if isinstance(inst, CastInst):
            folded = constfold.fold_cast(operands[0], inst.type)
        elif isinstance(inst, ShiftInst):
            folded = constfold.fold_shift(inst.opcode, *operands)
        else:
            folded = constfold.fold_binary(inst.opcode, *operands)
        return self._constant(folded) if folded is not None else _OVERDEFINED

    def feasible_successors(self, terminator: Instruction, get):
        # Dispatch on the terminator, not the selector: a switch may be
        # on a bool, whose operand layout is not a branch's.
        if isinstance(terminator, BranchInst) and terminator.is_conditional:
            element = get(terminator.condition)
            if isinstance(element, ConstantBool):
                return (terminator.operands[1 if element.value else 2],)
        elif isinstance(terminator, SwitchInst):
            element = get(terminator.value)
            if isinstance(element, (ConstantInt, ConstantBool)):
                for case_value, destination in terminator.cases:
                    if case_value.value == element.value:
                        return (destination,)
                return (terminator.default_dest,)
        else:
            return terminator.successors
        if element is _UNDEFINED:
            return ()  # no execution gets here yet
        return terminator.successors


class SCCP:
    """The pass object (see module docstring)."""

    name = "sccp"

    def __init__(self):
        self.counters = {"values-folded": 0, "branches-folded": 0}

    def run_on_function(self, function: Function) -> bool:
        result = solve_sparse(_Constants(), function)
        changed = False
        for block in function.blocks:
            if block not in result.executable_blocks:
                continue
            for inst in list(block.instructions):
                if isinstance(result[inst], Constant) \
                        and not inst.has_side_effects():
                    replace_and_erase(inst, result[inst])
                    self.counters["values-folded"] += 1
                    changed = True
        # Branches whose condition became constant fold here; the dead
        # blocks themselves are left for SimplifyCFG to sweep.
        for block in function.blocks:
            if block in result.executable_blocks \
                    and constant_fold_terminator(block):
                self.counters["branches-folded"] += 1
                changed = True
        return changed
