"""Function integration (inlining) — the ``inline`` pass of paper Table 2.

Inlines function bodies at call sites bottom-up over the call graph.
Inlining at an ``invoke`` site also rewrites the callee's ``unwind``
instructions into direct branches to the invoke's handler — the paper's
observation that LLVM can "turn stack unwinding operations into direct
branches when the unwind target is in the same function as the unwinder
(this often occurs due to inlining)" — and the callee's calls into
invokes of that handler, since what they unwind now lands there.
"""

from __future__ import annotations

from typing import Optional

from ...analysis.callgraph import CallGraph
from ...analysis.cfg import split_critical_edge
from ...analysis.manager import module_analysis
from ...core.basicblock import BasicBlock
from ...core.instructions import (
    BranchInst, CallInst, Instruction, InvokeInst, PhiNode,
    ReturnInst, UnwindInst,
)
from ...core.module import Function, Module
from ...core.record import rebuild_body, snapshot_function
from ...core.values import UndefValue, Value


class FunctionInlining:
    """The pass object (see module docstring)."""

    name = "inline"

    def __init__(self, threshold: int = 40, delete_unused: bool = True):
        #: Callees at most this many instructions are inlined; internal
        #: functions with a single call site are inlined regardless.
        self.threshold = threshold
        self.delete_unused = delete_unused
        #: Counters in the style of the paper's Table 2 notes.
        self.counters = {"calls_inlined": 0, "functions_deleted": 0}

    def run_on_module(self, module: Module) -> bool:
        callgraph = module_analysis(module, CallGraph)
        changed = False
        for function in callgraph.post_order():
            if function.is_declaration:
                continue
            for inst in [i for i in function.instructions()]:
                if inst.parent is None:
                    continue
                if not isinstance(inst, (CallInst, InvokeInst)):
                    continue
                callee = inst.callee
                if not isinstance(callee, Function) or callee.is_declaration:
                    continue
                if callee is function:
                    continue  # recursion: never fully inlinable
                if not self._should_inline(callee, callgraph):
                    continue
                if inline_call_site(inst):
                    self.counters["calls_inlined"] += 1
                    changed = True
        if self.delete_unused and changed:
            self.counters["functions_deleted"] += _delete_dead_functions(module)
        return changed

    def _should_inline(self, callee: Function, callgraph: CallGraph) -> bool:
        if callee.is_vararg:
            return False
        size = callee.instruction_count()
        if size <= self.threshold:
            return True
        node = callgraph.node(callee)
        if (callee.is_internal and not node.has_unknown_callers
                and len(callee.uses) == 1):
            return True  # single call site: inlining shrinks the program
        return False


def inline_call_site(call: Instruction) -> bool:
    """Inline the direct callee of ``call`` (a CallInst or InvokeInst).

    Returns False when the site cannot be inlined (indirect callee,
    declaration, or an invoke whose two edges lead to one block).
    """
    callee = call.operands[0]
    if not isinstance(callee, Function) or callee.is_declaration:
        return False
    caller = call.function
    if caller is None:
        return False
    if isinstance(call, InvokeInst):
        if call.normal_dest is call.unwind_dest:
            return False
        # Keep the rewrite simple: both continuation blocks must be
        # exclusive to this invoke, so a shared one gets a private
        # block on the invoke's edge.  Single-predecessor phis are
        # trivial; fold them away so the continuation blocks are
        # phi-free before rewiring.
        for dest in (call.normal_dest, call.unwind_dest):
            if len(dest.unique_predecessors()) != 1:
                split_critical_edge(call.parent, dest)
        for dest in (call.normal_dest, call.unwind_dest):
            for phi in list(dest.phis()):
                value = phi.incoming[0][0]
                phi.replace_all_uses_with(value)
                phi.erase_from_parent()
        return _inline_site(call, caller, callee,
                            normal_dest=call.normal_dest,
                            unwind_dest=call.unwind_dest)
    return _inline_site(call, caller, callee, normal_dest=None, unwind_dest=None)


def _inline_site(call: Instruction, caller: Function, callee: Function,
                 normal_dest: Optional[BasicBlock],
                 unwind_dest: Optional[BasicBlock]) -> bool:
    block = call.parent
    args = call.operands[1:-2] if isinstance(call, InvokeInst) else call.operands[1:]

    # 1. Split the call block so everything after the call starts a new
    #    continuation block (for a call; an invoke already has one).
    if normal_dest is None:
        call_index = block.instructions.index(call)
        continuation = block.split_at(call_index + 1, f"{callee.name}.exit")
    else:
        continuation = normal_dest

    # 2. Clone the callee body into the caller, actuals for formals.
    cloned = rebuild_body(snapshot_function(callee), caller, args,
                          suffix=".i")
    if unwind_dest is not None:
        cloned = _calls_to_invokes(cloned, unwind_dest)

    # 3. Rewire: the call block now branches to the cloned entry.
    block_term = block.terminator  # the split's branch, or the invoke
    entry_clone = cloned[0]
    if normal_dest is None:
        block_term.set_operand(0, entry_clone)
    else:
        call.erase_from_parent()
        block.append(BranchInst(entry_clone))

    # 4. Returns become branches to the continuation; collect values.
    return_values: list[tuple[Value, BasicBlock]] = []
    for cloned_block in cloned:
        term = cloned_block.terminator
        if isinstance(term, ReturnInst):
            value = term.return_value
            term.erase_from_parent()
            cloned_block.append(BranchInst(continuation))
            if value is not None:
                return_values.append((value, cloned_block))
        elif isinstance(term, UnwindInst) and unwind_dest is not None:
            # The paper's inlining benefit: unwinds whose handler is now
            # in the same function become direct branches.
            term.erase_from_parent()
            cloned_block.append(BranchInst(unwind_dest))

    # 5. Replace the call's value with a phi over returned values.
    if not call.type.is_void and call.is_used:
        if len(return_values) == 1 and normal_dest is None:
            call.replace_all_uses_with(return_values[0][0])
        elif return_values:
            phi = PhiNode(call.type, f"{callee.name}.ret")
            continuation.insert(0, phi)
            for value, pred in return_values:
                phi.add_incoming(value, pred)
            call.replace_all_uses_with(phi)
        else:
            call.replace_all_uses_with(UndefValue(call.type))

    # 6. Fix phis in the continuation blocks that named the call block.
    _retarget_phis(continuation, block, [b for _, b in return_values] or
                   [b for b in cloned if b.terminator is not None
                    and continuation in b.terminator.successors])
    if unwind_dest is not None:
        unwind_preds = [b for b in cloned
                        if isinstance(b.terminator, BranchInst)
                        and not b.terminator.is_conditional
                        and b.terminator.operands[0] is unwind_dest]
        _retarget_phis(unwind_dest, block, unwind_preds)

    # 7. Finally remove the call instruction itself.
    if call.parent is not None:
        call.erase_from_parent()
    return True


def _calls_to_invokes(blocks: list[BasicBlock],
                      unwind_dest: BasicBlock) -> list[BasicBlock]:
    """Turn each call in ``blocks`` into an invoke that unwinds to
    ``unwind_dest`` and continues in the rest of its block, split off.
    Returns the blocks, the split-off ones included."""
    result = []
    for block in blocks:
        while block is not None:
            result.append(block)
            call = next((inst for inst in block.instructions
                         if isinstance(inst, CallInst)), None)
            if call is None:
                break
            rest = block.split_at(block.instructions.index(call) + 1,
                                  f"{block.name}.cont")
            invoke = InvokeInst(call.callee, call.args, rest, unwind_dest,
                                call.name)
            block.terminator.erase_from_parent()
            call.replace_all_uses_with(invoke)
            call.erase_from_parent()
            block.append(invoke)
            block = rest
    return result


def _retarget_phis(dest: BasicBlock, old_pred: BasicBlock,
                   new_preds: list[BasicBlock]) -> None:
    for phi in dest.phis():
        value = phi.incoming_for_block(old_pred)
        if value is None:
            continue
        phi.remove_incoming(old_pred)
        seen: set[int] = set()
        for pred in new_preds:
            if id(pred) not in seen:
                seen.add(id(pred))
                phi.add_incoming(value, pred)


def _delete_dead_functions(module: Module) -> int:
    """Remove internal functions that no longer have uses."""
    deleted = 0
    changed = True
    while changed:
        changed = False
        for function in list(module.functions.values()):
            if function.is_internal and not function.is_used and function.name != "main":
                function.erase_from_parent()
                deleted += 1
                changed = True
    return deleted
