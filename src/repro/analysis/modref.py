"""Mod/Ref analysis: which memory a call may read or write.

Sits on top of the call graph and DSA (paper section 3.3 lists
"Mod/Ref analysis" among the link-time interprocedural analyses):
a function's Mod and Ref sets are the DSA nodes it stores to / loads
from, closed transitively over callees; unknown callees mod/ref
everything.
"""

from __future__ import annotations

from ..core.instructions import (
    CallInst, FreeInst, InvokeInst, LoadInst, StoreInst,
)
from ..core.module import Function, Module
from .callgraph import CallGraph
from .dsa import DataStructureAnalysis
from .manager import module_analysis


class ModRefInfo:
    __slots__ = ("mods", "refs", "mod_unknown", "ref_unknown")

    def __init__(self):
        #: DSNodes (stored by representative at insert time; queries
        #: re-resolve through find() so later unifications stay sound).
        self.mods: dict[int, object] = {}
        self.refs: dict[int, object] = {}
        self.mod_unknown = False
        self.ref_unknown = False


class ModRefAnalysis:
    """Per-function Mod/Ref node sets for one module."""

    def __init__(self, module: Module):
        self.module = module
        self.dsa = module_analysis(module, DataStructureAnalysis)
        self.info: dict[str, ModRefInfo] = {}
        self._compute()

    def _compute(self) -> None:
        callgraph = module_analysis(self.module, CallGraph)
        for function in self.module.functions.values():
            info = ModRefInfo()
            if function.is_declaration:
                info.mod_unknown = info.ref_unknown = True
            self.info[function.name] = info
        for function in self.module.defined_functions():
            info = self.info[function.name]
            for inst in function.instructions():
                if isinstance(inst, (StoreInst, FreeInst)):
                    node = self.node_of(inst.pointer)
                    info.mods[node.node_id] = node
                elif isinstance(inst, LoadInst):
                    node = self.node_of(inst.pointer)
                    info.refs[node.node_id] = node
        # Transitive closure over the call graph, to a fixpoint.
        changed = True
        while changed:
            changed = False
            for function in self.module.defined_functions():
                info = self.info[function.name]
                node = callgraph.node(function)
                before = (len(info.mods), len(info.refs),
                          info.mod_unknown, info.ref_unknown)
                if node.calls_unknown:
                    info.mod_unknown = info.ref_unknown = True
                for callee in node.callees:
                    callee_info = self.info[callee.name]
                    info.mods.update(callee_info.mods)
                    info.refs.update(callee_info.refs)
                    info.mod_unknown |= callee_info.mod_unknown
                    info.ref_unknown |= callee_info.ref_unknown
                changed |= before != (len(info.mods), len(info.refs),
                                      info.mod_unknown, info.ref_unknown)

    def node_of(self, pointer):
        """The DSA node ``pointer`` names."""
        return self.dsa._cell_of(pointer).node.find()

    def _hits(self, pointer, nodes: dict[int, object]) -> bool:
        target = self.node_of(pointer)
        return any(node.find() is target for node in nodes.values())

    # -- queries ------------------------------------------------------------

    def may_modify(self, function: Function, pointer) -> bool:
        """May a call to ``function`` write the memory ``pointer`` names?"""
        info = self.info[function.name]
        if info.mod_unknown:
            return True
        return self._hits(pointer, info.mods)

    def may_reference(self, function: Function, pointer) -> bool:
        """May a call to ``function`` read the memory ``pointer`` names?"""
        info = self.info[function.name]
        if info.ref_unknown:
            return True
        return self._hits(pointer, info.refs)
