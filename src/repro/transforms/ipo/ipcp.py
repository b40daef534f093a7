"""Interprocedural constant propagation (paper section 3.3).

When every visible call site passes the same constant for a formal
argument of an internal function, the argument is replaced by that
constant inside the function body; the scalar clean-up after IPO
(instcombine, simplifycfg, rangeopt) then folds what that exposes.
Also propagates constant return values to call sites.
"""

from __future__ import annotations

from typing import Optional

from ...analysis.callgraph import CallGraph
from ...analysis.manager import module_analysis
from ...core.instructions import CallInst, InvokeInst, ReturnInst
from ...core.module import Function, Module
from ...core.values import Constant, ConstantBool, ConstantFP, ConstantInt


class IPConstantPropagation:
    """The pass object (see module docstring)."""

    name = "ipcp"

    def run_on_module(self, module: Module) -> bool:
        callgraph = module_analysis(module, CallGraph)
        changed = False
        for function in module.functions.values():
            if function.is_declaration:
                continue
            node = callgraph.node(function)
            if node.has_unknown_callers or callgraph.is_address_taken(function):
                continue
            changed |= self._propagate_arguments(function)
            changed |= self._propagate_return(function)
        return changed

    def _propagate_arguments(self, function: Function) -> bool:
        sites = _call_sites(function)
        if not sites:
            return False
        changed = False
        for index, arg in enumerate(function.args):
            if not arg.is_used:
                continue
            constant = _common_constant(sites, index)
            if constant is not None:
                arg.replace_all_uses_with(constant)
                changed = True
        return changed

    def _propagate_return(self, function: Function) -> bool:
        if function.return_type.is_void:
            return False
        returned: Optional[Constant] = None
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, ReturnInst):
                value = term.return_value
                if not isinstance(value, Constant) or not _is_scalar(value):
                    return False
                if returned is None:
                    returned = value
                elif not _same_constant(returned, value):
                    return False
        if returned is None:
            return False
        changed = False
        for site in _call_sites(function):
            if site.is_used:
                site.replace_all_uses_with(returned)
                changed = True
        return changed


def _call_sites(function: Function) -> list:
    sites = []
    for use in function.uses:
        user = use.user
        if isinstance(user, (CallInst, InvokeInst)) and use.index == 0:
            sites.append(user)
    return sites


def _common_constant(sites, index: int) -> Optional[Constant]:
    constant: Optional[Constant] = None
    for site in sites:
        actual = site.args[index]
        if not isinstance(actual, Constant) or not _is_scalar(actual):
            return None
        if constant is None:
            constant = actual
        elif not _same_constant(constant, actual):
            return None
    return constant


def _is_scalar(constant: Constant) -> bool:
    return isinstance(constant, (ConstantInt, ConstantBool, ConstantFP)) or (
        constant.type.is_pointer and constant.is_null_value()
    )


def _same_constant(a: Constant, b: Constant) -> bool:
    if a.type is not b.type:
        return False
    return getattr(a, "value", None) == getattr(b, "value", None)
