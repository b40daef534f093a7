"""Unused exception-handler removal (paper section 4.1.2).

"Having this information available at link time enables LLVM to use an
interprocedural analysis to eliminate unused exception handlers.  This
optimization is much less effective if done on a per-module basis in a
source-level compiler."

The analysis computes, bottom-up over the call graph, whether each
function *may unwind* (executes ``unwind`` reachable from entry, or
calls something that may).  Any ``invoke`` of a no-unwind callee is
demoted to a plain ``call`` + branch, after which its handler code
usually becomes unreachable and is swept by SimplifyCFG.
"""

from __future__ import annotations

from ...core.instructions import (
    BranchInst, CallInst, InvokeInst, Opcode, UnwindInst,
)
from ...core.module import Function, Module


class PruneExceptionHandlers:
    """The pass object (see module docstring)."""

    name = "prune-eh"

    #: Runtime functions that never unwind even though they are externals.
    KNOWN_NO_UNWIND = frozenset({
        "printf", "puts", "putchar", "exit",
        "llvm_cxxeh_alloc_exc", "llvm_cxxeh_get_exc",
        "llvm_cxxeh_free_exc", "llvm_cxxeh_current_typeid",
        "__lc_longjmp", "__lc_longjmp_catch",
    })

    def __init__(self):
        self.counters = {"invokes_demoted": 0}

    def run_on_module(self, module: Module) -> bool:
        may_unwind = self._compute_may_unwind(module)
        changed = False
        for function in list(module.defined_functions()):
            for block in list(function.blocks):
                term = block.terminator
                if not isinstance(term, InvokeInst):
                    continue
                callee = term.callee
                if isinstance(callee, Function) and not may_unwind.get(
                    callee.name, True
                ):
                    _demote_invoke(term)
                    self.counters["invokes_demoted"] += 1
                    changed = True
        return changed

    def _compute_may_unwind(self, module: Module) -> dict[str, bool]:
        may_unwind: dict[str, bool] = {}
        for function in module.functions.values():
            if function.is_declaration:
                may_unwind[function.name] = (
                    function.name not in self.KNOWN_NO_UNWIND
                )
            else:
                may_unwind[function.name] = any(
                    isinstance(inst, UnwindInst) for inst in function.instructions()
                )
        # Propagate through calls to a fixpoint.  An invoke catches the
        # callee's unwind, so it does not propagate it upward — but the
        # handler itself may re-unwind, which the direct scan covers.
        changed = True
        while changed:
            changed = False
            for function in module.defined_functions():
                if may_unwind[function.name]:
                    continue
                for inst in function.instructions():
                    if inst.opcode == Opcode.CALL:
                        callee = inst.operands[0]
                        callee_unwinds = (
                            may_unwind.get(callee.name, True)
                            if isinstance(callee, Function)
                            else True  # indirect: assume the worst
                        )
                        if callee_unwinds:
                            may_unwind[function.name] = True
                            changed = True
                            break
        return may_unwind


def _demote_invoke(invoke: InvokeInst) -> None:
    """Rewrite ``invoke f() to %ok unwind to %handler`` into
    ``call f(); br %ok`` (the handler edge disappears from the CFG)."""
    block = invoke.parent
    normal = invoke.normal_dest
    handler = invoke.unwind_dest
    call = CallInst(invoke.callee, list(invoke.args), invoke.name)
    index = block.instructions.index(invoke)
    block.insert(index, call)
    if invoke.is_used:
        invoke.replace_all_uses_with(call)
    for phi in handler.phis():
        phi.remove_incoming(block)
    invoke.erase_from_parent()
    block.append(BranchInst(normal))
