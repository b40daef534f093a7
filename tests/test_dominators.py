"""Tests for dominator trees and dominance frontiers, including a
property test against a naive fixed-point dominance computation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import reachable_blocks
from repro.analysis.dominators import DominanceFrontiers, DominatorTree
from repro.core import ConstantBool, IRBuilder, Module, types
from repro.core.values import ConstantInt


def _make_function(n_blocks):
    module = Module("dom")
    fn = module.new_function(types.function(types.VOID, [types.BOOL]), "f")
    blocks = [fn.append_block(f"b{i}") for i in range(n_blocks)]
    return fn, blocks


def _diamond():
    fn, (entry, left, right, join) = _make_function(4)
    IRBuilder(entry).cond_br(fn.args[0], left, right)
    IRBuilder(left).br(join)
    IRBuilder(right).br(join)
    IRBuilder(join).ret_void()
    return fn, entry, left, right, join


class TestDominatorTree:
    def test_diamond(self):
        fn, entry, left, right, join = _diamond()
        domtree = DominatorTree(fn)
        assert domtree.idom(entry) is None
        assert domtree.idom(left) is entry
        assert domtree.idom(right) is entry
        assert domtree.idom(join) is entry
        assert domtree.dominates_block(entry, join)
        assert not domtree.dominates_block(left, join)
        assert domtree.dominates_block(left, left)

    def test_chain(self):
        fn, blocks = _make_function(4)
        for a, b in zip(blocks, blocks[1:]):
            IRBuilder(a).br(b)
        IRBuilder(blocks[-1]).ret_void()
        domtree = DominatorTree(fn)
        for earlier, later in zip(blocks, blocks[1:]):
            assert domtree.idom(later) is earlier
            assert domtree.strictly_dominates(earlier, later)
        assert domtree.depth(blocks[3]) == 3

    def test_loop(self):
        fn, (entry, header, body, exit_block) = _make_function(4)
        IRBuilder(entry).br(header)
        IRBuilder(header).cond_br(fn.args[0], body, exit_block)
        IRBuilder(body).br(header)
        IRBuilder(exit_block).ret_void()
        domtree = DominatorTree(fn)
        assert domtree.idom(body) is header
        assert domtree.idom(exit_block) is header
        assert not domtree.dominates_block(body, exit_block)

    def test_unreachable_block(self):
        fn, (entry, dead) = _make_function(2)
        IRBuilder(entry).ret_void()
        IRBuilder(dead).ret_void()
        domtree = DominatorTree(fn)
        assert domtree.is_reachable(entry)
        assert not domtree.is_reachable(dead)
        assert not domtree.dominates_block(entry, dead)

    def test_preorder_visits_all_reachable(self):
        fn, entry, left, right, join = _diamond()
        domtree = DominatorTree(fn)
        visited = list(domtree.preorder())
        assert len(visited) == 4
        assert visited[0] is entry


class TestDominanceFrontiers:
    def test_diamond_frontiers(self):
        fn, entry, left, right, join = _diamond()
        frontiers = DominanceFrontiers(fn)
        assert frontiers.frontier(left) == [join]
        assert frontiers.frontier(right) == [join]
        assert frontiers.frontier(entry) == []
        assert frontiers.frontier(join) == []

    def test_loop_header_in_own_frontier(self):
        fn, (entry, header, body, exit_block) = _make_function(4)
        IRBuilder(entry).br(header)
        IRBuilder(header).cond_br(fn.args[0], body, exit_block)
        IRBuilder(body).br(header)
        IRBuilder(exit_block).ret_void()
        frontiers = DominanceFrontiers(fn)
        assert header in frontiers.frontier(body)
        assert header in frontiers.frontier(header)


# ---------------------------------------------------------------------------
# Property: the engineered algorithm agrees with naive dataflow dominance.
# ---------------------------------------------------------------------------

def _naive_dominators(fn):
    """Textbook iterative dominators: Dom(n) = {n} ∪ ⋂ Dom(preds)."""
    blocks = reachable_blocks(fn)
    ids = {id(b): b for b in blocks}
    entry = blocks[0]
    dom = {id(b): set(ids) for b in blocks}
    dom[id(entry)] = {id(entry)}
    changed = True
    while changed:
        changed = False
        for block in blocks[1:]:
            preds = [p for p in block.unique_predecessors() if id(p) in ids]
            if not preds:
                continue
            new = set.intersection(*(dom[id(p)] for p in preds)) | {id(block)}
            if new != dom[id(block)]:
                dom[id(block)] = new
                changed = True
    return dom


@st.composite
def random_cfgs(draw):
    """A random function of 2-10 blocks with arbitrary branch structure."""
    n = draw(st.integers(min_value=2, max_value=10))
    module = Module("rand")
    fn = module.new_function(types.function(types.VOID, [types.BOOL]), "f")
    blocks = [fn.append_block(f"b{i}") for i in range(n)]
    for index, block in enumerate(blocks):
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0 or index == n - 1:
            IRBuilder(block).ret_void()
        elif kind == 1:
            target = blocks[draw(st.integers(min_value=0, max_value=n - 1))]
            IRBuilder(block).br(target)
        else:
            t = blocks[draw(st.integers(min_value=0, max_value=n - 1))]
            f = blocks[draw(st.integers(min_value=0, max_value=n - 1))]
            IRBuilder(block).cond_br(fn.args[0], t, f)
    return fn


@given(random_cfgs())
@settings(max_examples=60, deadline=None)
def test_dominators_match_naive_dataflow(fn):
    domtree = DominatorTree(fn)
    naive = _naive_dominators(fn)
    for block in reachable_blocks(fn):
        for other in reachable_blocks(fn):
            expected = id(other) in naive[id(block)]
            assert domtree.dominates_block(other, block) == expected


@given(random_cfgs())
@settings(max_examples=60, deadline=None)
def test_frontier_definition_holds(fn):
    """DF(b) contains exactly the blocks y with a predecessor dominated
    by b where b does not strictly dominate y."""
    frontiers = DominanceFrontiers(fn)
    domtree = frontiers.domtree
    reachable = reachable_blocks(fn)
    for block in reachable:
        computed = {id(f) for f in frontiers.frontier(block)}
        expected = set()
        for candidate in reachable:
            preds = [p for p in candidate.unique_predecessors()
                     if domtree.is_reachable(p)]
            if any(domtree.dominates_block(block, p) for p in preds) \
                    and not domtree.strictly_dominates(block, candidate):
                expected.add(id(candidate))
        assert computed == expected
