"""Loop-invariant code motion.

Hoists computations whose operands are defined outside the loop into
the loop preheader.  Only side-effect-free, non-trapping instructions
move.  Loads move when no memory write in the loop can clobber the
loaded location: trivially when the loop writes no memory at all, and
otherwise when DSA node disambiguation (stores, frees) and Mod/Ref
analysis (direct calls) rule out every writer.
"""

from __future__ import annotations

import functools

from ..analysis.alias import AliasResult, alias
from ..analysis.dominators import DominatorTree
from ..analysis.loops import Loop, LoopInfo
from ..analysis.manager import function_analysis, module_analysis
from ..analysis.modref import ModRefAnalysis
from ..core.basicblock import BasicBlock
from ..core.instructions import (
    BinaryOperator, BranchInst, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, InvokeInst, LoadInst, Opcode, PhiNode,
    ShiftInst, StoreInst,
)
from ..core.module import Function
from ..core.values import Constant, ConstantInt, Value


def _may_clobber(modref: ModRefAnalysis, writer: Instruction,
                 pointer: Value) -> bool:
    """May ``writer`` write what ``pointer`` names?  Two pointers are
    disjoint when their DSA nodes differ and *neither* is ``unknown`` —
    two distinct unknown nodes may still overlap, so unknown never
    disambiguates.  A direct call asks Mod/Ref."""
    node = modref.node_of(pointer)
    if node.unknown:
        return True
    if isinstance(writer, (StoreInst, FreeInst)):
        written = writer.pointer
        if isinstance(writer, StoreInst) and \
                alias(pointer, written) is AliasResult.NO_ALIAS:
            return False
        other = modref.node_of(written)
        return other.unknown or other is node
    if isinstance(writer, (CallInst, InvokeInst)):
        target = writer.callee
        if isinstance(target, Function):
            return modref.may_modify(target, pointer)
        return True  # indirect call: anything may be written
    return True  # vaarg and anything else that writes


class LICM:
    """The pass object (see module docstring)."""

    name = "licm"

    def __init__(self):
        self.counters = {"loads-hoisted-past-writes": 0}

    def run_on_function(self, function: Function) -> bool:
        loop_info = function_analysis(function, LoopInfo)
        # The module's Mod/Ref (and the DSA under it), fetched by the
        # first loop that both writes memory and has a candidate load.
        modref = functools.cache(
            lambda: module_analysis(function.parent, ModRefAnalysis))
        changed = False
        # Process inner loops first so hoisted code can keep moving out.
        loops = sorted(loop_info.all_loops(), key=lambda l: -l.depth)
        for loop in loops:
            changed |= self._process_loop(function, loop, loop_info.domtree,
                                          modref)
        return changed

    def _process_loop(self, function: Function, loop: Loop,
                      domtree: DominatorTree, modref) -> bool:
        preheader = loop.preheader()
        created = False
        if preheader is None:
            preheader = _create_preheader(function, loop)
            if preheader is None:
                return False
            # The new block belongs to every loop around this one: an
            # outer loop must not take what is hoisted into it for a
            # value defined outside itself.
            outer = loop.parent
            while outer is not None:
                outer.add_block(preheader)
                outer = outer.parent
            # The rewiring alone (new block, phi and branch edits) is a
            # change, whether or not anything hoists into it.
            created = True
        writers = [
            inst
            for block in loop.blocks
            for inst in block.instructions
            if inst.may_write_memory()
        ]
        changed = created
        moved = True
        while moved:
            moved = False
            for block in loop.blocks:
                for inst in list(block.instructions):
                    if not _is_hoistable(inst):
                        continue
                    if not _operands_invariant(inst, loop):
                        continue
                    if isinstance(inst, LoadInst):
                        # No writer in the loop may clobber what it reads.
                        if writers and (function.parent is None or any(
                                _may_clobber(modref(), writer, inst.pointer)
                                for writer in writers)):
                            continue
                        if not _dominates_exits(inst, loop, domtree):
                            # Hoisting a conditional load would speculate
                            # a possibly-trapping memory access.
                            continue
                        if writers:
                            self.counters["loads-hoisted-past-writes"] += 1
                    inst.remove_from_parent()
                    preheader.insert_before_terminator(inst)
                    moved = True
                    changed = True
        return changed


def _is_hoistable(inst: Instruction) -> bool:
    if isinstance(inst, (CastInst, GetElementPtrInst, ShiftInst)):
        return True
    if isinstance(inst, BinaryOperator):
        # div/rem by a possibly-zero value would hoist a trap onto paths
        # that never executed it; require a non-zero constant divisor.
        if inst.opcode in (Opcode.DIV, Opcode.REM):
            divisor = inst.operands[1]
            return isinstance(divisor, Constant) and not divisor.is_null_value()
        return True
    return isinstance(inst, LoadInst)


def _dominates_exits(inst: Instruction, loop: Loop, domtree: DominatorTree) -> bool:
    block = inst.parent
    return all(
        domtree.dominates_block(block, src) for src, _ in loop.exit_edges()
    )


def _operands_invariant(inst: Instruction, loop: Loop) -> bool:
    for operand in inst.operands:
        if isinstance(operand, Instruction) and loop.contains(operand.parent):
            return False
    return True


def _create_preheader(function: Function, loop: Loop):
    """Insert a dedicated preheader block before the loop header."""
    outside = [
        p for p in loop.header.unique_predecessors() if not loop.contains(p)
    ]
    if not outside:
        return None
    preheader = function.insert_block(
        function.blocks.index(loop.header),
        BasicBlock(f"{loop.header.name}.preheader"))
    preheader.append(BranchInst(loop.header))
    for phi in loop.header.phis():
        incoming_values = []
        for pred in outside:
            value = phi.incoming_for_block(pred)
            incoming_values.append((value, pred))
        if len({id(v) for v, _ in incoming_values}) == 1:
            merged: Value = incoming_values[0][0]
        else:
            merged_phi = PhiNode(phi.type, phi.name or "ph")
            preheader.insert(0, merged_phi)
            for value, pred in incoming_values:
                merged_phi.add_incoming(value, pred)
            merged = merged_phi
        for _, pred in incoming_values:
            phi.remove_incoming(pred)
        phi.add_incoming(merged, preheader)
    for pred in outside:
        term = pred.terminator
        for index, operand in enumerate(term.operands):
            if operand is loop.header:
                term.set_operand(index, preheader)
    return preheader
