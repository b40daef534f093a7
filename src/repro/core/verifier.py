"""The IR verifier: structural, type, and SSA dominance rules.

Beyond catching representation bugs, the verifier is part of the
paper's story: "type mismatches are useful for detecting optimizer
bugs".  Every pass in the test suite runs the verifier after
transforming, so an unsound rewrite fails loudly.

Checked properties:

* every block ends in exactly one terminator, with no terminator in
  the middle;
* phi nodes are grouped at the top of their block and have exactly one
  incoming entry per unique predecessor;
* every use of an SSA register is dominated by its definition
  (arguments and constants dominate everything);
* branch targets belong to the same function;
* operand types obey the instruction type rules (largely enforced at
  construction time; re-checked here so hand-mutated IR is validated).
"""

from __future__ import annotations

from .basicblock import BasicBlock
from .instructions import (
    BranchInst, CallInst, GetElementPtrInst, Instruction, InvokeInst,
    Opcode, PhiNode, ReturnInst, SwitchInst, gep_result_type,
)
from .module import Function, Module
from .values import Argument, Constant, Value


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""


def verify_module(module: Module, bodies=None) -> None:
    """Verify every defined function and global in ``module`` — or,
    given ``bodies``, the symbols and only those function bodies."""
    for global_var in module.globals.values():
        if global_var.parent is not module:
            raise VerificationError(
                f"global {global_var.name!r} has wrong parent module"
            )
    for function in module.functions.values():
        if function.parent is not module:
            raise VerificationError(
                f"function {function.name!r} has wrong parent module"
            )
    for function in (module.functions.values() if bodies is None
                     else bodies):
        if not function.is_declaration:
            verify_function(function)


def verify_function(function: Function) -> None:
    """Verify one function definition."""
    if function.is_declaration:
        raise VerificationError(f"cannot verify declaration {function.name!r}")
    _verify_structure(function)
    _verify_phis(function)
    _verify_types(function)
    _verify_dominance(function)


def _verify_structure(function: Function) -> None:
    seen_blocks = set()
    for block in function.blocks:
        if id(block) in seen_blocks:
            raise VerificationError(f"block {block.name!r} appears twice")
        seen_blocks.add(id(block))
        if block.parent is not function:
            raise VerificationError(f"block {block.name!r} has wrong parent")
        if not block.instructions:
            raise VerificationError(f"block {block.name!r} is empty")
        for index, inst in enumerate(block.instructions):
            if inst.parent is not block:
                raise VerificationError(f"instruction in {block.name!r} has wrong parent")
            is_last = index == len(block.instructions) - 1
            if inst.is_terminator != is_last:
                if inst.is_terminator:
                    raise VerificationError(
                        f"terminator in the middle of block {block.name!r}"
                    )
                raise VerificationError(f"block {block.name!r} lacks a terminator")
        for succ in block.successors():
            if not isinstance(succ, BasicBlock):
                raise VerificationError(f"branch target is not a block: {succ!r}")
            if succ.parent is not function:
                raise VerificationError(
                    f"block {block.name!r} branches outside the function"
                )
    # The entry block must have no predecessors (needed for dominance).
    entry = function.entry_block
    if entry.unique_predecessors():
        raise VerificationError("entry block has predecessors")


def _verify_phis(function: Function) -> None:
    for block in function.blocks:
        preds = {id(p): p for p in block.predecessors()}
        seen_non_phi = False
        for inst in block.instructions:
            if isinstance(inst, PhiNode):
                if seen_non_phi:
                    raise VerificationError(
                        f"phi after non-phi in block {block.name!r}"
                    )
                incoming_ids = {id(b) for _, b in inst.incoming}
                if incoming_ids != set(preds):
                    raise VerificationError(
                        f"phi {inst.name!r} incoming blocks do not match "
                        f"predecessors of {block.name!r}"
                    )
                if len(inst.incoming) != len(incoming_ids):
                    raise VerificationError(
                        f"phi {inst.name!r} has duplicate incoming blocks"
                    )
            else:
                seen_non_phi = True


def _verify_types(function: Function) -> None:
    for block in function.blocks:
        for inst in block.instructions:
            _verify_instruction_types(function, inst)


def _verify_instruction_types(function: Function, inst: Instruction) -> None:
    if isinstance(inst, ReturnInst):
        expected = function.return_type
        value = inst.return_value
        if expected.is_void:
            if value is not None:
                raise VerificationError("ret with a value in a void function")
        else:
            if value is None:
                raise VerificationError("ret void in a non-void function")
            if value.type is not expected:
                raise VerificationError(
                    f"ret type {value.type} does not match {expected}"
                )
    elif isinstance(inst, BranchInst):
        if inst.is_conditional and not inst.condition.type.is_bool:
            raise VerificationError("branch condition is not bool")
    elif isinstance(inst, SwitchInst):
        for case_value, _ in inst.cases:
            if case_value.type is not inst.value.type:
                raise VerificationError("switch case type mismatch")
    elif inst.opcode == Opcode.STORE:
        value, ptr = inst.operands
        if not ptr.type.is_pointer or ptr.type.pointee is not value.type:
            raise VerificationError(
                f"store of {value.type} through {ptr.type}"
            )
    elif inst.opcode == Opcode.LOAD:
        ptr = inst.operands[0]
        if not ptr.type.is_pointer or ptr.type.pointee is not inst.type:
            raise VerificationError(f"load of {inst.type} through {ptr.type}")
    elif isinstance(inst, GetElementPtrInst):
        _verify_gep_types(inst)
    elif isinstance(inst, (CallInst, InvokeInst)):
        _verify_call_types(inst)
    elif inst.is_binary_op:
        lhs, rhs = inst.operands
        if lhs.type is not rhs.type:
            raise VerificationError(
                f"binary operand mismatch: {lhs.type} vs {rhs.type}"
            )
    elif isinstance(inst, PhiNode):
        for value, _ in inst.incoming:
            if value.type is not inst.type:
                raise VerificationError(
                    f"phi incoming type {value.type} != {inst.type}"
                )


def _verify_gep_types(inst: GetElementPtrInst) -> None:
    """Re-derive a GEP's result type from its (possibly hand-mutated)
    operands.  Construction already enforces these rules, but passes
    that rewrite operands in place (``set_operand``) bypass them."""
    ptr = inst.pointer
    if not ptr.type.is_pointer:
        raise VerificationError(
            f"getelementptr base is not a pointer: {ptr.type}"
        )
    for index in inst.indices:
        if not (index.type.is_integer or index.type.is_bool):
            raise VerificationError(
                f"getelementptr index is not an integer: {index.type}"
            )
    try:
        expected = gep_result_type(ptr.type, inst.indices)
    except (TypeError, ValueError) as exc:
        raise VerificationError(f"malformed getelementptr: {exc}") from exc
    if expected is not inst.type:
        raise VerificationError(
            f"getelementptr result type {inst.type} should be {expected}"
        )


def _verify_call_types(inst: Instruction) -> None:
    callee_ty = inst.callee.type
    if not (callee_ty.is_pointer and callee_ty.pointee.is_function):
        raise VerificationError(
            f"callee is not a function pointer: {callee_ty}"
        )
    fn_ty = callee_ty.pointee
    args = inst.args
    required = len(fn_ty.params)
    if len(args) != required and not (fn_ty.is_vararg and len(args) > required):
        raise VerificationError(
            f"call passes {len(args)} args to a {required}-arg function"
        )
    for arg, param_ty in zip(args, fn_ty.params):
        if arg.type is not param_ty:
            raise VerificationError(
                f"call argument type {arg.type} != parameter {param_ty}"
            )
    if inst.type is not fn_ty.return_type:
        raise VerificationError(
            f"call result type {inst.type} != return type {fn_ty.return_type}"
        )


def _verify_dominance(function: Function) -> None:
    from ..analysis.dominators import DominatorTree
    from ..analysis.manager import remember

    # Built afresh, never taken from the cache, so the check is as
    # strong as ever; the next pass over this epoch reuses the tree.
    domtree = remember(function, DominatorTree(function))
    positions: dict[int, tuple[BasicBlock, int]] = {}
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            positions[id(inst)] = (block, index)

    def defined_before(def_inst: Instruction, block: BasicBlock, index: int) -> bool:
        def_block, def_index = positions[id(def_inst)]
        if def_block is block:
            return def_index < index
        return domtree.dominates_block(def_block, block)

    for block in function.blocks:
        if not domtree.is_reachable(block):
            continue  # uses in unreachable code are unconstrained
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, PhiNode):
                for value, pred in inst.incoming:
                    if isinstance(value, Instruction):
                        if id(value) not in positions:
                            raise VerificationError(
                                f"phi {inst.name!r} uses an unplaced instruction"
                            )
                        if domtree.is_reachable(pred) and not defined_before(
                            value, pred, len(pred.instructions)
                        ):
                            raise VerificationError(
                                f"phi {inst.name!r} incoming value does not "
                                f"dominate predecessor {pred.name!r}"
                            )
                continue
            for operand in inst.operands:
                if isinstance(operand, Instruction):
                    if id(operand) not in positions:
                        raise VerificationError(
                            f"{inst.opcode.value} uses instruction not in function"
                        )
                    if not defined_before(operand, block, index):
                        raise VerificationError(
                            f"use of {operand.name or operand.opcode.value!r} in "
                            f"{block.name!r} is not dominated by its definition"
                        )
                elif isinstance(operand, Argument):
                    if operand.parent is not function:
                        raise VerificationError(
                            "use of an argument from another function"
                        )
                elif not isinstance(operand, (Constant, BasicBlock)):
                    raise VerificationError(
                        f"invalid operand kind: {operand!r}"
                    )
