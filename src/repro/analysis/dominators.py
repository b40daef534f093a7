"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy "engineered" iterative dominator
algorithm over reverse postorder, plus Cytron et al.'s dominance
frontier computation — the ingredients of SSA construction (the
``mem2reg`` stack-promotion pass) and of the verifier's SSA rule
("each use of a register is dominated by its definition").
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..core.basicblock import BasicBlock
from ..core.module import Function
from .cfg import reverse_postorder
from .manager import function_analysis


class DominatorTree:
    """Immediate-dominator tree for the reachable blocks of a function."""

    def __init__(self, function: Function):
        self._rpo = reverse_postorder(function)
        self._index = {id(b): i for i, b in enumerate(self._rpo)}
        self._idom: dict[int, Optional[BasicBlock]] = {}
        self._children: dict[int, list[BasicBlock]] = {id(b): [] for b in self._rpo}
        self._compute()
        self._dfs_in: dict[int, int] = {}
        self._dfs_out: dict[int, int] = {}
        self._number()

    # -- construction -------------------------------------------------------

    def _compute(self) -> None:
        entry = self._rpo[0]
        idom: dict[int, BasicBlock] = {id(entry): entry}
        changed = True
        while changed:
            changed = False
            for block in self._rpo[1:]:
                new_idom: Optional[BasicBlock] = None
                for pred in block.unique_predecessors():
                    if id(pred) not in self._index:
                        continue  # unreachable predecessor
                    if id(pred) in idom:
                        if new_idom is None:
                            new_idom = pred
                        else:
                            new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        self._idom[id(entry)] = None
        for block in self._rpo[1:]:
            dominator = idom[id(block)]
            self._idom[id(block)] = dominator
            self._children[id(dominator)].append(block)

    def _intersect(self, a: BasicBlock, b: BasicBlock,
                   idom: dict[int, BasicBlock]) -> BasicBlock:
        index = self._index
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    def _number(self) -> None:
        """DFS-number the dominator tree for O(1) dominance queries."""
        clock = 0
        stack: list[tuple[BasicBlock, bool]] = [(self._rpo[0], False)]
        while stack:
            block, done = stack.pop()
            if done:
                self._dfs_out[id(block)] = clock
                clock += 1
                continue
            self._dfs_in[id(block)] = clock
            clock += 1
            stack.append((block, True))
            for child in reversed(self._children[id(block)]):
                stack.append((child, False))

    # -- queries -----------------------------------------------------------------

    @property
    def root(self) -> BasicBlock:
        return self._rpo[0]

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._index

    def idom(self, block: BasicBlock) -> Optional[BasicBlock]:
        """The immediate dominator of ``block`` (None for the entry)."""
        return self._idom[id(block)]

    def children(self, block: BasicBlock) -> list[BasicBlock]:
        """Blocks immediately dominated by ``block``."""
        return self._children[id(block)]

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether ``a`` dominates ``b`` (reflexive)."""
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        return (self._dfs_in[id(a)] <= self._dfs_in[id(b)]
                and self._dfs_out[id(b)] <= self._dfs_out[id(a)])

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def preorder(self) -> Iterator[BasicBlock]:
        """Dominator-tree preorder traversal."""
        stack = [self.root]
        while stack:
            block = stack.pop()
            yield block
            stack.extend(reversed(self._children[id(block)]))

    def depth(self, block: BasicBlock) -> int:
        depth = 0
        current = self._idom[id(block)]
        while current is not None:
            depth += 1
            current = self._idom[id(current)]
        return depth


class DominanceFrontiers:
    """Per-block dominance frontiers (Cytron et al.).

    ``DF(b)`` is the set of blocks where ``b``'s dominance stops — the
    join points where phi nodes are needed for definitions in ``b``.
    """

    def __init__(self, function: Function):
        self.domtree = domtree = function_analysis(function, DominatorTree)
        frontier_sets: dict[int, dict[int, BasicBlock]] = {
            id(b): {} for b in function.blocks if domtree.is_reachable(b)
        }
        for block in function.blocks:
            if not domtree.is_reachable(block):
                continue
            preds = [p for p in block.unique_predecessors() if domtree.is_reachable(p)]
            # Walk every incoming edge (not just join points): a block
            # with a self-loop is in its own frontier even with a single
            # predecessor.
            idom = domtree.idom(block)
            for pred in preds:
                runner = pred
                while runner is not idom and runner is not None:
                    frontier_sets[id(runner)].setdefault(id(block), block)
                    runner = domtree.idom(runner)
        self._frontiers: dict[int, list[BasicBlock]] = {
            key: list(vals.values()) for key, vals in frontier_sets.items()}

    def frontier(self, block: BasicBlock) -> list[BasicBlock]:
        return self._frontiers.get(id(block), [])
