"""Aggressive Dead Argument (and return value) Elimination — paper Table 2's
``DAE`` pass.

For internal functions whose call sites are all visible, removes formal
arguments that no instruction reads, and demotes the return type to
``void`` when no call site consumes the result.  Both the function and
every call site are rewritten.  (Paper: "DAE eliminates 103 arguments
and 96 return values from 176.gcc".)
"""

from __future__ import annotations

from typing import Optional

from ...analysis.callgraph import CallGraph
from ...analysis.manager import module_analysis
from ...core import types
from ...core.instructions import CallInst, InvokeInst, Instruction, ReturnInst
from ...core.module import Function, Module
from ...core.values import Value


class DeadArgumentElimination:
    """The pass object (see module docstring)."""

    name = "dae"

    def __init__(self):
        self.counters = {"arguments_deleted": 0, "returns_deleted": 0}

    def run_on_module(self, module: Module) -> bool:
        callgraph = module_analysis(module, CallGraph)
        changed = False
        for function in list(module.functions.values()):
            if function.is_declaration or function.is_vararg:
                continue
            node = callgraph.node(function)
            if node.has_unknown_callers or callgraph.is_address_taken(function):
                continue
            dead_args = [
                arg.index for arg in function.args if not arg.is_used
            ]
            dead_return = (not function.return_type.is_void
                           and not _any_result_used(function))
            if not dead_args and not dead_return:
                continue
            _rewrite_function(module, function, set(dead_args), dead_return)
            self.counters["arguments_deleted"] += len(dead_args)
            self.counters["returns_deleted"] += int(dead_return)
            changed = True
        return changed


def _any_result_used(function: Function) -> bool:
    for use in function.uses:
        user = use.user
        if isinstance(user, (CallInst, InvokeInst)) and use.index == 0:
            if user.is_used:
                return True
        else:
            return True  # non-call use: be conservative
    return False


def _rewrite_function(module: Module, function: Function,
                      dead_args: set[int], dead_return: bool) -> None:
    old_fn_ty = function.function_type
    kept = [i for i in range(len(old_fn_ty.params)) if i not in dead_args]
    new_return = types.VOID if dead_return else old_fn_ty.return_type
    new_fn_ty = types.function(new_return, [old_fn_ty.params[i] for i in kept])

    name = function.name
    replacement = Function(new_fn_ty, name, function.linkage,
                           [function.args[i].name for i in kept])
    replacement.is_pure = function.is_pure

    # Move the body across and rebind surviving arguments.
    for new_index, old_index in enumerate(kept):
        function.args[old_index].replace_all_uses_with(replacement.args[new_index])
    replacement.take_body(function)
    if dead_return:
        for block in replacement.blocks:
            term = block.terminator
            if isinstance(term, ReturnInst) and term.return_value is not None:
                term.erase_from_parent()
                block.append(ReturnInst(None))

    # Rewrite every call site.
    for use in list(function.uses):
        site = use.user
        if isinstance(site, CallInst):
            new_args = [site.args[i] for i in kept]
            new_call = CallInst(replacement, new_args, site.name)
            _replace_site(site, new_call, dead_return)
        elif isinstance(site, InvokeInst):
            new_args = [site.args[i] for i in kept]
            new_call = InvokeInst(replacement, new_args, site.normal_dest,
                                  site.unwind_dest, site.name)
            _replace_site(site, new_call, dead_return)
        else:  # pragma: no cover - guarded by address-taken check
            raise AssertionError("DAE saw a non-call use it did not expect")

    module._remove_function(function)
    module.add_function(replacement)


def _replace_site(old: Instruction, new: Instruction, dead_return: bool) -> None:
    block = old.parent
    block.insert(block.instructions.index(old), new)
    if old.is_used and not dead_return:
        old.replace_all_uses_with(new)
    old.erase_from_parent()
