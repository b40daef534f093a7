"""Aggressive Dead Global Elimination — the ``DGE`` pass of paper Table 2.

"Aggressive DCEs assume objects are dead until proven otherwise,
allowing dead objects with cycles to be deleted": liveness is seeded
from externally-visible symbols and propagated through initializers and
function bodies; everything unmarked — including mutually-referential
dead globals — is deleted.  (Paper: "DGE eliminates 331 functions and
557 global variables ... from 255.vortex".)
"""

from __future__ import annotations

from ...core.instructions import Instruction
from ...core.module import Function, GlobalVariable, Module
from ...core.values import Constant, Value


class DeadGlobalElimination:
    """The pass object (see module docstring)."""

    name = "dge"

    def __init__(self):
        self.counters = {"functions_deleted": 0, "globals_deleted": 0}

    def run_on_module(self, module: Module) -> bool:
        live: set[int] = set()
        worklist: list[Value] = []
        for function in module.functions.values():
            if not function.is_internal or function.name == "main":
                worklist.append(function)
        for global_var in module.globals.values():
            if not global_var.is_internal:
                worklist.append(global_var)
        while worklist:
            symbol = worklist.pop()
            if id(symbol) in live:
                continue
            live.add(id(symbol))
            if isinstance(symbol, Function):
                for inst in symbol.instructions():
                    for operand in inst.operands:
                        self._mark_operand(operand, live, worklist)
            elif isinstance(symbol, GlobalVariable):
                initializer = symbol.initializer
                if initializer is not None:
                    self._mark_operand(initializer, live, worklist)
        changed = False
        for function in list(module.functions.values()):
            if id(function) not in live:
                self._drop_symbol(function)
                function.erase_from_parent()
                self.counters["functions_deleted"] += 1
                changed = True
        for global_var in list(module.globals.values()):
            if id(global_var) not in live:
                self._drop_symbol(global_var)
                global_var.erase_from_parent()
                self.counters["globals_deleted"] += 1
                changed = True
        return changed

    def _mark_operand(self, operand: Value, live: set[int],
                      worklist: list[Value]) -> None:
        if isinstance(operand, (Function, GlobalVariable)):
            if id(operand) not in live:
                worklist.append(operand)
        elif isinstance(operand, Constant):
            for nested in getattr(operand, "operands", ()):
                self._mark_operand(nested, live, worklist)

    def _drop_symbol(self, symbol) -> None:
        """Symbols in a dead cycle may still reference each other; clear
        bodies/initializers so erasure never dangles."""
        if isinstance(symbol, Function):
            symbol.delete_body()
        elif isinstance(symbol, GlobalVariable):
            symbol.set_initializer(None)
