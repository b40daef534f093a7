"""Call graph construction over a module.

Direct calls produce precise edges; indirect calls (through function
pointers) conservatively edge to every address-taken function of a
compatible type.  The linker/IPO passes (paper section 3.3) consult
this for inlining order, dead-function detection, and Mod/Ref.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core.instructions import CallInst, Instruction, InvokeInst, Opcode
from ..core.module import Function, Module
from ..core.values import Constant, ConstantExpr, User


class CallGraphNode:
    """One function's calls and callers."""

    def __init__(self, function: Function):
        self.function = function
        self.callees: list[Function] = []
        self.callers: list[Function] = []
        #: True when the node may be called in ways the graph cannot see
        #: (address taken, external linkage in an open module).
        self.has_unknown_callers = False
        #: True when the function makes calls the graph cannot resolve.
        self.calls_unknown = False


class CallGraph:
    """The module's call graph."""

    def __init__(self, module: Module):
        self.module = module
        self.nodes: dict[str, CallGraphNode] = {}
        self._address_taken: set[str] = set()
        self._build()

    def _build(self) -> None:
        for function in self.module.functions.values():
            self.nodes[function.name] = CallGraphNode(function)
        for function in self.module.functions.values():
            self._scan_address_taken(function)
        for global_var in self.module.globals.values():
            initializer = global_var.initializer
            if initializer is not None:
                self._scan_constant(initializer)
        for function in self.module.functions.values():
            node = self.nodes[function.name]
            if function.is_declaration:
                node.calls_unknown = True  # body unknown
            for inst in function.instructions():
                if isinstance(inst, (CallInst, InvokeInst)):
                    callee = direct_callee(inst.callee)
                    if callee is not None and callee.name in self.nodes:
                        self._add_edge(function, callee)
                    else:
                        node.calls_unknown = True
                        # Conservative edges to every address-taken
                        # function with a matching signature.
                        for target_name in self._address_taken:
                            target = self.module.functions.get(target_name)
                            if target is not None and signature_compatible(
                                inst, target
                            ):
                                self._add_edge(function, target)
        for function in self.module.functions.values():
            node = self.nodes[function.name]
            if function.name in self._address_taken:
                node.has_unknown_callers = True
            if not function.is_internal:
                node.has_unknown_callers = True

    def _scan_address_taken(self, function: Function) -> None:
        for inst in function.instructions():
            for index, operand in enumerate(inst.operands):
                if isinstance(operand, Function):
                    is_callee = (
                        inst.opcode in (Opcode.CALL, Opcode.INVOKE) and index == 0
                    )
                    if not is_callee:
                        self._address_taken.add(operand.name)
                elif isinstance(operand, ConstantExpr):
                    self._scan_constant(operand)

    def _scan_constant(self, constant: Constant) -> None:
        worklist: list[Constant] = [constant]
        while worklist:
            current = worklist.pop()
            if isinstance(current, Function):
                self._address_taken.add(current.name)
                continue
            for operand in getattr(current, "operands", ()):
                if isinstance(operand, Constant):
                    worklist.append(operand)

    def _add_edge(self, caller: Function, callee: Function) -> None:
        caller_node = self.nodes[caller.name]
        callee_node = self.nodes[callee.name]
        if callee not in caller_node.callees:
            caller_node.callees.append(callee)
        if caller not in callee_node.callers:
            callee_node.callers.append(caller)

    # -- queries --------------------------------------------------------------

    def node(self, function: Function) -> CallGraphNode:
        return self.nodes[function.name]

    def is_address_taken(self, function: Function) -> bool:
        return function.name in self._address_taken

    def post_order(self) -> list[Function]:
        """Functions in callee-before-caller order (cycles broken arbitrarily).

        The natural order for bottom-up transforms like inlining.
        """
        visited: set[str] = set()
        order: list[Function] = []
        for root in self.module.functions.values():
            if root.name in visited:
                continue
            stack: list[tuple[Function, Iterator[Function]]] = []
            visited.add(root.name)
            stack.append((root, iter(self.nodes[root.name].callees)))
            while stack:
                function, callees = stack[-1]
                advanced = False
                for callee in callees:
                    if callee.name not in visited:
                        visited.add(callee.name)
                        stack.append((callee, iter(self.nodes[callee.name].callees)))
                        advanced = True
                        break
                if not advanced:
                    order.append(function)
                    stack.pop()
        return order


def strongly_connected_components(edges: dict) -> list[list]:
    """Tarjan's SCC over a name graph, callee-first (reverse topological).

    ``edges`` maps a node to its successors; successors that are not
    themselves keys (external/unknown targets) are ignored.  The output
    order is the natural schedule for bottom-up interprocedural work:
    by the time an SCC is processed, every callee SCC already was.
    Iterative, so pathological call chains cannot blow the recursion
    limit.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    counter = [0]

    def strongconnect(root) -> None:
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in edges:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member is node or member == node:
                        break
                components.append(component)

    for node in edges:
        if node not in index:
            strongconnect(node)
    return components


def direct_callee(callee) -> Optional[Function]:
    """The function a call site provably targets, through constant casts."""
    while isinstance(callee, ConstantExpr) and callee.opcode == "cast":
        callee = callee.operands[0]
    return callee if isinstance(callee, Function) else None


def signature_compatible(call_site, function: Function) -> bool:
    """Do the call's arguments fit ``function``'s parameters (the fixed
    ones of a vararg function)?  The return type is the caller's to
    check: a conservative call-graph edge does not need it to agree."""
    fn_ty = function.function_type
    args = call_site.args
    if fn_ty.is_vararg:
        if len(args) < len(fn_ty.params):
            return False
    elif len(args) != len(fn_ty.params):
        return False
    return all(a.type is p for a, p in zip(args, fn_ty.params))
