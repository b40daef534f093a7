"""Data Structure Analysis (DSA): unification-based, field-sensitive
points-to analysis with speculative type checking (paper section 4.1.1).

DSA "uses declared types in the LLVM code as speculative type
information, and checks conservatively whether memory accesses to an
object are consistent with those declared types (note that it does not
perform any type-inference or enforce type safety)".  This module
reproduces that: every abstract memory object (node) carries the
declared type of its allocation; every access is checked against the
type at the accessed offset; any inconsistency — a mistyped access, a
misaligned unification, exposure to an unknown external — *collapses*
the node, discarding its field structure.

The headline metric (paper Table 1) is :class:`TypedAccessReport`: the
fraction of static loads and stores whose target object's type is
reliably known.

Faithfulness note: the paper's DSA is context-sensitive (bottom-up
inlining of callee graphs).  This implementation unifies across call
edges instead (field-sensitive Steensgaard-style interprocedural
unification).  Context sensitivity changes *which* objects merge, but
the typed-access verdict is dominated by field sensitivity and the
collapse rules, which are reproduced; DESIGN.md records the
substitution.
"""

from __future__ import annotations

from typing import Optional

from ..core import types
from ..core.datalayout import DataLayout
from ..core.instructions import (
    AllocationInst, CallInst, CastInst, GetElementPtrInst, Instruction,
    InvokeInst, LoadInst, Opcode, PhiNode, StoreInst, VAArgInst,
)
from ..core.module import Function, GlobalVariable, Module
from ..core.values import (
    Argument, Constant, ConstantExpr, ConstantInt, ConstantPointerNull,
    UndefValue, Value,
)

#: Externals that neither capture nor mutate the pointers given to them
#: beyond their advertised contract (the execution engine's runtime).
KNOWN_SAFE_EXTERNALS = frozenset({
    "printf", "puts", "putchar", "print_int", "print_long", "print_char",
    "print_double", "print_str", "exit", "abort", "clock", "strlen",
    "strcmp", "strcpy", "memcpy", "memset",
    "llvm.va_start", "llvm.va_end", "__lc_longjmp", "__lc_longjmp_catch",
})


class DSNode:
    """An abstract memory object (union-find element)."""

    _next_id = 0

    __slots__ = ("node_id", "ty", "edges", "collapsed", "unknown",
                 "flags", "_parent", "_parent_delta")

    def __init__(self, ty: Optional[types.Type] = None):
        self.node_id = DSNode._next_id
        DSNode._next_id += 1
        #: Speculative declared type of the object (None = no evidence
        #: yet).  Arrays are *folded*: a node for ``[N x T]`` carries
        #: ``T`` — DSA represents every element of an array by one cell.
        self.ty = _fold_arrays(ty)
        #: Outgoing points-to edges: byte offset -> Cell.
        self.edges: dict[int, "Cell"] = {}
        #: Field structure lost: type information is unreliable.
        self.collapsed = False
        #: Reached from outside the analysed program (externals, int casts).
        self.unknown = False
        #: 'H'eap, 'S'tack, 'G'lobal, 'F'unction markers.
        self.flags: set[str] = set()
        self._parent: Optional[DSNode] = None
        #: Byte offset of this node's base within its parent (DSA's
        #: forwarding cells: an empty node may merge *into a field* of
        #: another node, shifting all its cells by this delta).
        self._parent_delta = 0

    def find(self) -> "DSNode":
        return self.find_with_delta()[0]

    def find_with_delta(self) -> tuple["DSNode", int]:
        node = self
        delta = 0
        while node._parent is not None:
            delta += node._parent_delta
            node = node._parent
        # Path compression (rebasing deltas onto the root).
        current = self
        remaining = delta
        while current._parent is not None:
            step = current._parent_delta
            next_node = current._parent
            current._parent = node
            current._parent_delta = remaining
            remaining -= step
            current = next_node
        return node, delta

    @property
    def is_empty(self) -> bool:
        """No evidence attached yet: safe to forward anywhere."""
        return (self.ty is None and not self.edges and not self.collapsed
                and not self.unknown and not self.flags)


def _fold_arrays(ty: Optional[types.Type]) -> Optional[types.Type]:
    while ty is not None and ty.is_array:
        ty = ty.element  # type: ignore[attr-defined]
    return ty


class Cell:
    """A field of a node: (node, byte offset)."""

    __slots__ = ("node", "offset")

    def __init__(self, node: DSNode, offset: int = 0):
        self.node = node
        self.offset = offset

    def resolved(self) -> "Cell":
        node, delta = self.node.find_with_delta()
        if node.collapsed:
            return Cell(node, 0)
        return Cell(node, self.offset + delta)


class TypedAccessReport:
    """The Table 1 statistic for one module."""

    def __init__(self):
        self.typed = 0
        self.untyped = 0

    @property
    def total(self) -> int:
        return self.typed + self.untyped

    @property
    def typed_percent(self) -> float:
        if not self.total:
            return 100.0
        return 100.0 * self.typed / self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TypedAccessReport {self.typed}/{self.total} "
                f"({self.typed_percent:.1f}%)>")


class DataStructureAnalysis:
    """Builds and solves the points-to graph for a module."""

    def __init__(self, module: Module):
        self.module = module
        self.layout = module.data_layout
        self.cells: dict[int, Cell] = {}
        #: Return-value cell per function (pointer-returning only).
        self.return_cells: dict[str, Cell] = {}
        #: (pointer value, access type) pairs, type-checked after the
        #: whole graph is built (checking mid-build would judge nodes
        #: before forward references unify into them).
        self._accesses: list[tuple[Value, types.Type]] = []
        #: (cell, stepped element type) pairs from pointer-stepping GEPs
        #: (first index non-zero/variable): the stride must match the
        #: node's element type or the node collapses.
        self._strides: list[tuple[Cell, types.Type]] = []
        self._build()
        for cell, stepped in self._strides:
            node = cell.resolved().node
            if node.collapsed:
                continue
            if node.ty is not None and _fold_arrays(stepped) is not node.ty:
                self._collapse_node(node)
        for pointer, access_type in self._accesses:
            self._note_access(self._cell_of(pointer), access_type)

    # ==================================================================
    # Graph construction
    # ==================================================================

    def _build(self) -> None:
        for global_var in self.module.globals.values():
            node = DSNode(global_var.value_type)
            node.flags.add("G")
            if global_var.is_declaration or not global_var.is_internal:
                node.unknown = True  # other modules may retype it
            self.cells[id(global_var)] = Cell(node)
        for function in self.module.functions.values():
            node = DSNode()
            node.flags.add("F")
            self.cells[id(function)] = Cell(node)
        # Formal-argument cells first: call-site unification in any
        # function body may reference any callee's formals.
        for function in self.module.defined_functions():
            for arg in function.args:
                if arg.type.is_pointer:
                    node = DSNode(arg.type.pointee)
                    if not function.is_internal:
                        node.unknown = True  # callers outside the module
                    self.cells[id(arg)] = Cell(node)
        for function in self.module.defined_functions():
            self._build_function(function)
        # Global initializers embed pointers to other globals.
        for global_var in self.module.globals.values():
            initializer = global_var.initializer
            if initializer is not None:
                self._scan_initializer(self.cells[id(global_var)], initializer)

    def _build_function(self, function: Function) -> None:
        for block in function.blocks:
            for inst in block.instructions:
                self._visit(function, inst)

    def _visit(self, function: Function, inst: Instruction) -> None:
        if isinstance(inst, AllocationInst):
            node = DSNode(inst.allocated_type)
            node.flags.add("H" if inst.opcode == Opcode.MALLOC else "S")
            self._set_cell(inst, Cell(node))
            return
        if isinstance(inst, GetElementPtrInst):
            self._set_cell(inst, self._gep_cell(inst))
            return
        if isinstance(inst, CastInst):
            if inst.type.is_pointer:
                source = inst.value
                if source.type.is_pointer:
                    # The cast itself is free; the *access* through the
                    # wrongly-typed pointer does the collapsing.
                    self._set_cell(inst, self._cell_of(source))
                else:
                    # Integer-to-pointer: points to who-knows-what.
                    node = DSNode()
                    node.unknown = True
                    node.collapsed = True
                    self._set_cell(inst, Cell(node))
            return
        if isinstance(inst, LoadInst):
            pointer_cell = self._cell_of(inst.pointer)
            self._accesses.append((inst.pointer, inst.type))
            if inst.type.is_pointer:
                self._set_cell(inst, self._edge_at(pointer_cell,
                                                   inst.type.pointee))
            return
        if isinstance(inst, StoreInst):
            pointer_cell = self._cell_of(inst.pointer)
            self._accesses.append((inst.pointer, inst.value.type))
            if inst.value.type.is_pointer:
                value_cell = self._cell_of(inst.value)
                edge = self._edge_at(pointer_cell, inst.value.type.pointee)
                self._unify(edge, value_cell)
            return
        if isinstance(inst, PhiNode):
            if inst.type.is_pointer:
                merged = self._cell_for_value(inst)
                for value, _ in inst.incoming:
                    self._unify(merged, self._cell_of(value))
            return
        if isinstance(inst, (CallInst, InvokeInst)):
            self._visit_call(function, inst)
            return
        if isinstance(inst, VAArgInst):
            if inst.type.is_pointer:
                node = DSNode()
                node.unknown = True
                node.collapsed = True
                self._set_cell(inst, Cell(node))
            return
        if inst.opcode == Opcode.RET and inst.operands:
            value = inst.operands[0]
            if value.type.is_pointer:
                cell = self.return_cells.get(function.name)
                if cell is None:
                    cell = Cell(DSNode())
                    self.return_cells[function.name] = cell
                self._unify(cell, self._cell_of(value))

    def _visit_call(self, function: Function, inst) -> None:
        callee = inst.operands[0]
        args = (inst.operands[1:-2] if isinstance(inst, InvokeInst)
                else inst.operands[1:])
        targets: list[Function] = []
        if isinstance(callee, Function):
            targets = [callee]
        else:
            # Indirect call: every address-taken function of matching
            # arity may be the target.
            for candidate in self.module.functions.values():
                fn_ty = candidate.function_type
                if fn_ty.is_vararg:
                    matches = len(args) >= len(fn_ty.params)
                else:
                    matches = len(args) == len(fn_ty.params)
                if matches and self._address_taken(candidate):
                    targets.append(candidate)
        for target in targets:
            if target.is_declaration:
                if target.name in KNOWN_SAFE_EXTERNALS:
                    continue
                for arg in args:
                    if arg.type.is_pointer:
                        self._collapse_cell(self._cell_of(arg), unknown=True)
                if inst.type.is_pointer:
                    node = DSNode()
                    node.unknown = True
                    node.collapsed = True
                    self._set_cell(inst, Cell(node))
                continue
            for actual, formal in zip(args, target.args):
                if actual.type.is_pointer and id(formal) in self.cells:
                    self._unify(self.cells[id(formal)], self._cell_of(actual))
            if inst.type.is_pointer:
                cell = self.return_cells.get(target.name)
                if cell is None:
                    cell = Cell(DSNode())
                    self.return_cells[target.name] = cell
                self._unify(self._cell_for_value(inst), cell)

    def _address_taken(self, function: Function) -> bool:
        for use in function.uses:
            user = use.user
            if isinstance(user, (CallInst, InvokeInst)) and use.index == 0:
                continue
            return True
        return False

    def _scan_initializer(self, cell: Cell, constant: Constant,
                          offset: int = 0) -> None:
        from ..core.values import ConstantArray, ConstantStruct

        if isinstance(constant, (GlobalVariable,)):
            target = self.cells[id(constant)]
            node = cell.node.find()
            edge_offset = 0 if node.collapsed else cell.offset + offset
            existing = node.edges.get(edge_offset)
            if existing is None:
                node.edges[edge_offset] = target
            else:
                self._unify(existing, target)
            return
        if isinstance(constant, ConstantArray):
            element_size = self.layout.size_of(constant.type.element)  # type: ignore[attr-defined]
            for index, element in enumerate(constant.elements):
                # Arrays are folded: every element maps onto offset 0.
                self._scan_initializer(cell, element, offset)
            return
        if isinstance(constant, ConstantStruct):
            for index, field in enumerate(constant.fields_values):
                field_offset = self.layout.field_offset(constant.type, index)
                self._scan_initializer(cell, field, offset + field_offset)
            return
        if isinstance(constant, ConstantExpr):
            for operand in constant.operands:
                self._scan_initializer(cell, operand, offset)

    # ==================================================================
    # Cells and unification
    # ==================================================================

    def _cell_for_value(self, value: Value) -> Cell:
        cell = self.cells.get(id(value))
        if cell is None:
            cell = Cell(DSNode())
            self.cells[id(value)] = cell
        return cell

    def _set_cell(self, value: Value, cell: Cell) -> None:
        """Define a value's cell, unifying with any cell created for a
        forward reference to it."""
        existing = self.cells.get(id(value))
        if existing is None:
            self.cells[id(value)] = cell
        else:
            self._unify(existing, cell)

    def _cell_of(self, value: Value) -> Cell:
        cell = self.cells.get(id(value))
        if cell is not None:
            return cell.resolved()
        if isinstance(value, (ConstantPointerNull, UndefValue)):
            cell = Cell(DSNode())  # points at nothing; fresh dead node
        elif isinstance(value, ConstantExpr):
            cell = self._constexpr_cell(value)
        elif isinstance(value, (Instruction, Argument)):
            # Forward reference (e.g. a phi naming a later definition):
            # a fresh cell, unified when the definition is visited.
            cell = Cell(DSNode())
        else:
            # An unanalysed source; unknown.
            node = DSNode()
            node.unknown = True
            cell = Cell(node)
        self.cells[id(value)] = cell
        return cell

    def _constexpr_cell(self, expr: ConstantExpr) -> Cell:
        if expr.opcode == "cast":
            inner = expr.operands[0]
            if inner.type.is_pointer:
                return self._cell_of(inner)
            node = DSNode()
            node.unknown = True
            node.collapsed = True
            return Cell(node)
        base = self._cell_of(expr.operands[0])
        return self._gep_offset_cell(base, expr.operands[0].type,
                                     expr.operands[1:])

    def _gep_cell(self, inst: GetElementPtrInst) -> Cell:
        base = self._cell_of(inst.pointer)
        return self._gep_offset_cell(base, inst.pointer.type, inst.indices)

    def _gep_offset_cell(self, base: Cell, pointer_type, indices) -> Cell:
        node = base.node.find()
        if node.collapsed:
            return Cell(node, 0)
        offset = base.offset
        current = pointer_type.pointee
        for position, index in enumerate(indices):
            if position == 0:
                # Stepping over the object: DSA folds arrays-of-objects,
                # so a non-zero first index stays on the same cell — but
                # only if the stride matches the object's element type
                # (checked after the graph is complete).
                stepping = not (isinstance(index, ConstantInt) and index.value == 0)
                if stepping:
                    self._strides.append((base, current))
                continue
            if current.is_struct:
                if not isinstance(index, ConstantInt):
                    self._collapse_cell(base)
                    return Cell(base.node.find(), 0)
                offset += self.layout.field_offset(current, index.value)
                current = current.fields[index.value]
            else:
                # Array indexing folds onto the element at the same
                # relative position.
                current = current.element
        return Cell(node, offset)

    def _edge_at(self, cell: Cell, pointee: types.Type) -> Cell:
        """The cell a pointer field points at, creating it if missing.

        The target is created *untyped*: object types come from
        allocations and accesses, never from pointer declarations —
        that is what lets DSA "extract type information for objects
        stored into and loaded out of generic void* data structures,
        despite the casts" (paper footnote 8).
        """
        node = cell.node.find()
        offset = 0 if node.collapsed else cell.offset
        existing = node.edges.get(offset)
        if existing is not None:
            return existing.resolved()
        target = DSNode()
        if node.unknown:
            target.unknown = True
        created = Cell(target)
        node.edges[offset] = created
        return created

    def _unify(self, a: Cell, b: Cell) -> None:
        a = a.resolved()
        b = b.resolved()
        node_a = a.node
        node_b = b.node
        if node_a is node_b:
            if not node_a.collapsed and a.offset != b.offset:
                self._collapse_node(node_a)
            return
        # An empty node forwards into the other cell at a delta; no
        # information is merged, so nothing can conflict.
        if node_b.is_empty:
            node_b._parent = node_a
            node_b._parent_delta = a.offset - b.offset
            return
        if node_a.is_empty:
            node_a._parent = node_b
            node_a._parent_delta = b.offset - a.offset
            return
        offset_a = 0 if node_a.collapsed else a.offset
        offset_b = 0 if node_b.collapsed else b.offset
        # Merge b into a.
        merged = node_a
        node_b._parent = node_a
        node_b._parent_delta = 0
        if node_a.collapsed or node_b.collapsed or offset_a != offset_b:
            collapse = True
        elif node_a.ty is not None and node_b.ty is not None \
                and node_a.ty is not node_b.ty:
            collapse = True
        else:
            collapse = False
            if merged.ty is None:
                merged.ty = node_b.ty
        merged.unknown = node_a.unknown or node_b.unknown
        merged.flags |= node_b.flags
        pending = list(node_b.edges.items())
        node_b.edges.clear()
        if collapse:
            self._collapse_node(merged)
            for _, target in pending:
                existing = merged.edges.get(0)
                if existing is None:
                    merged.edges[0] = target
                else:
                    self._unify(existing, target)
        else:
            for offset, target in pending:
                existing = merged.edges.get(offset)
                if existing is None:
                    merged.edges[offset] = target
                else:
                    self._unify(existing, target)

    def _collapse_cell(self, cell: Cell, unknown: bool = False) -> None:
        node = cell.node.find()
        if unknown:
            node.unknown = True
        self._collapse_node(node)

    def _collapse_node(self, node: DSNode) -> None:
        node = node.find()
        if node.collapsed:
            return
        node.collapsed = True
        node.ty = None
        pending = list(node.edges.items())
        node.edges.clear()
        merged: Optional[Cell] = None
        for _, target in pending:
            if merged is None:
                merged = target
            else:
                self._unify(merged, target)
        if merged is not None:
            node.edges[0] = merged

    # ==================================================================
    # Access checking (the Table 1 verdict)
    # ==================================================================

    def _note_access(self, cell: Cell, access_type: types.Type) -> None:
        node = cell.node.find()
        if node.collapsed:
            return
        offset = cell.offset
        if node.ty is None:
            if offset == 0:
                node.ty = _fold_arrays(access_type)
            else:
                self._collapse_node(node)
            return
        declared = _type_at(node.ty, offset, self.layout)
        if declared is not access_type:
            self._collapse_node(node)

    def is_typed_access(self, pointer: Value, access_type: types.Type) -> bool:
        """Is this static access provably consistent with declared types?"""
        cell = self.cells.get(id(pointer))
        if cell is None:
            cell = self._cell_of(pointer)
        node = cell.node.find()
        if node.collapsed or node.unknown:
            return False
        if node.ty is None:
            return False
        declared = _type_at(node.ty, cell.offset, self.layout)
        return declared is access_type

    def report(self) -> TypedAccessReport:
        """Count typed vs untyped static loads and stores (Table 1)."""
        report = TypedAccessReport()
        for function in self.module.defined_functions():
            for inst in function.instructions():
                if isinstance(inst, LoadInst):
                    ok = self.is_typed_access(inst.pointer, inst.type)
                elif isinstance(inst, StoreInst):
                    ok = self.is_typed_access(inst.pointer, inst.value.type)
                else:
                    continue
                if ok:
                    report.typed += 1
                else:
                    report.untyped += 1
        return report

    # -- alias-style queries used by Mod/Ref -------------------------------------

    def node_of(self, value: Value) -> Optional[DSNode]:
        """The abstract memory object ``value`` points at, or None for
        values the analysis never saw.  Clients (e.g. the whole-program
        leak checker) use the node's flags/``unknown`` bit to decide
        whether an allocation could be reachable from outside the
        function that made it."""
        cell = self.cells.get(id(value))
        if cell is None:
            return None
        return cell.node.find()

    def heap_escapes(self, value: Value) -> bool:
        """True when the heap object ``value`` points at may be reachable
        from a global or from outside the analysed program — i.e. when a
        local ownership argument about it is unsound."""
        node = self.node_of(value)
        if node is None:
            return False
        return node.unknown or "G" in node.flags or "F" in node.flags

    def may_alias(self, a: Value, b: Value) -> bool:
        """Two pointers may alias when they land on the same node (and,
        for un-collapsed nodes, the same field)."""
        cell_a = self._cell_of(a)
        cell_b = self._cell_of(b)
        node_a = cell_a.node.find()
        node_b = cell_b.node.find()
        if node_a is not node_b:
            return False
        if node_a.collapsed:
            return True
        return cell_a.offset == cell_b.offset


def _type_at(ty: types.Type, offset: int,
             layout: DataLayout) -> Optional[types.Type]:
    """The declared scalar type found exactly at ``offset`` within ``ty``."""
    while True:
        if ty.is_array:
            element_size = layout.size_of(ty.element)  # type: ignore[attr-defined]
            if element_size == 0:
                return None
            offset %= element_size
            ty = ty.element  # type: ignore[attr-defined]
            continue
        if ty.is_struct:
            if ty.is_opaque:
                return None
            for index in range(len(ty.fields)):  # type: ignore[attr-defined]
                field_offset = layout.field_offset(ty, index)
                field = ty.fields[index]  # type: ignore[attr-defined]
                if field_offset <= offset < field_offset + max(layout.size_of(field), 1):
                    offset -= field_offset
                    ty = field
                    break
            else:
                return None
            continue
        if offset == 0:
            return ty
        return None
