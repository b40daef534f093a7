"""Global value numbering: dominator-scoped redundancy elimination.

Walks the dominator tree with a scoped hash table of expression keys;
an instruction that recomputes an expression already available in a
dominating block is replaced by the earlier value.  Commutative
operations are keyed with sorted operands, so ``a+b`` matches ``b+a``.
GEPs participate, which is exactly why the paper makes address
arithmetic explicit: "most importantly, reassociation and redundancy
elimination" see it.

Also performs simple redundant-load elimination: a load is replaced by
a dominating load/store of the same pointer when no intervening
instruction may write memory.  When the quick syntactic alias test
cannot separate a store from a remembered load fact, DSA node identity
gets a second opinion: distinct points-to nodes (neither ``unknown``)
prove the store writes other memory, and the fact survives.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.alias import AliasResult, alias
from ..analysis.dominators import DominatorTree
from ..analysis.dsa import DataStructureAnalysis
from ..analysis.manager import function_analysis, module_analysis
from ..core.basicblock import BasicBlock
from ..core.instructions import (
    BinaryOperator, CastInst, GetElementPtrInst, Instruction, LoadInst,
    Opcode, ShiftInst, StoreInst,
)
from ..core.module import Function
from ..core.values import Constant, Value
from .utils import replace_and_erase


class GVN:
    """The pass object (see module docstring)."""

    name = "gvn"

    def __init__(self):
        self.counters = {"loads-eliminated-via-dsa": 0}

    def run_on_function(self, function: Function) -> bool:
        numbering = _Numbering(function)
        changed = numbering.run()
        self.counters["loads-eliminated-via-dsa"] += \
            numbering.dsa_loads_eliminated
        return changed


class _Numbering:
    def __init__(self, function: Function):
        self.function = function
        self.domtree = function_analysis(function, DominatorTree)
        self.changed = False
        # The module's DSA, fetched on the first store it must judge.
        # Within a pass sweep it is the one the earlier units used:
        # points-to facts only get coarser as GVN deletes instructions.
        self._dsa = None
        #: memory-fact keys that only survived a store thanks to DSA.
        self._dsa_saved: set = set()
        self.dsa_loads_eliminated = 0
        #: value id for operands: constants keyed structurally, others by id.
        self._value_ids: dict = {}
        self._next_id = 0

    def _dsa_disjoint(self, a: Value, b: Value) -> bool:
        """Do the two pointers provably name disjoint memory?  True
        only for distinct DSA nodes of which neither is ``unknown``
        (two unknown nodes may overlap no matter their identity)."""
        module = self.function.parent
        if module is None:
            return False
        if self._dsa is None:
            self._dsa = module_analysis(module, DataStructureAnalysis)
        node_a = self._dsa._cell_of(a).node.find()
        node_b = self._dsa._cell_of(b).node.find()
        return node_a is not node_b \
            and not node_a.unknown and not node_b.unknown

    def run(self) -> bool:
        # Iterative dominator-tree preorder walk (deep CFGs would blow
        # the Python recursion limit).
        stack: list[tuple[BasicBlock, dict, dict]] = [(self.domtree.root, {}, {})]
        while stack:
            block, available, memory = stack.pop()
            available, memory = self._walk(block, available, memory)
            for child in self.domtree.children(block):
                child_memory = memory if self._direct_child(block, child) else {}
                stack.append((child, available, child_memory))
        return self.changed

    def _walk(self, block: BasicBlock, available: dict, memory: dict) -> tuple[dict, dict]:
        # Copy-on-write scoped tables: each dominator-tree child gets the
        # parent's view plus this block's additions.
        available = dict(available)
        memory = dict(memory)
        for inst in list(block.instructions):
            if isinstance(inst, StoreInst):
                # Evict only the facts the store may clobber; when the
                # syntactic test says "maybe", ask DSA for disjointness.
                kept = {}
                for key, (pointer, value) in memory.items():
                    if alias(pointer, inst.pointer) is AliasResult.NO_ALIAS:
                        kept[key] = (pointer, value)
                    elif self._dsa_disjoint(pointer, inst.pointer):
                        kept[key] = (pointer, value)
                        self._dsa_saved.add(key)
                memory = kept
                memory[("mem", self._id_of(inst.pointer))] = (
                    inst.pointer, inst.value
                )
                continue
            if inst.may_write_memory():
                memory = {}
            if isinstance(inst, LoadInst):
                key = ("mem", self._id_of(inst.pointer))
                earlier = memory.get(key)
                if earlier is not None and earlier[1].type is inst.type:
                    replace_and_erase(inst, earlier[1])
                    self.changed = True
                    if key in self._dsa_saved:
                        self.dsa_loads_eliminated += 1
                    continue
                memory[key] = (inst.pointer, inst)
                continue
            key = self._expression_key(inst)
            if key is None:
                continue
            earlier = available.get(key)
            if earlier is not None:
                replace_and_erase(inst, earlier)
                self.changed = True
                continue
            available[key] = inst
        return available, memory

    def _direct_child(self, block: BasicBlock, child: BasicBlock) -> bool:
        """Memory facts survive into ``child`` only when every path from
        ``block`` to ``child`` is the single direct edge."""
        return (block.successors().count(child) >= 1
                and len(child.unique_predecessors()) == 1)

    # -- expression keys ----------------------------------------------------

    def _id_of(self, value: Value) -> object:
        if isinstance(value, Constant):
            scalar = getattr(value, "value", None)
            if scalar is not None:
                return ("const", str(value.type), scalar)
            return ("constobj", id(value))
        return id(value)

    def _expression_key(self, inst: Instruction) -> Optional[tuple]:
        if isinstance(inst, BinaryOperator):
            lhs = self._id_of(inst.operands[0])
            rhs = self._id_of(inst.operands[1])
            if inst.is_commutative and repr(rhs) < repr(lhs):
                lhs, rhs = rhs, lhs
            return (inst.opcode.value, str(inst.type), lhs, rhs)
        if isinstance(inst, ShiftInst):
            return (inst.opcode.value, str(inst.type),
                    self._id_of(inst.operands[0]), self._id_of(inst.operands[1]))
        if isinstance(inst, CastInst):
            return ("cast", str(inst.type), self._id_of(inst.operands[0]))
        if isinstance(inst, GetElementPtrInst):
            return ("gep", str(inst.type),
                    tuple(self._id_of(op) for op in inst.operands))
        return None
