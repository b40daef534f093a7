"""The per-function mutation epoch and the ``-O`` skip rule it drives.

``Function.epoch`` moves on every edit of a body: the block and
instruction lists (:class:`BodyList`) and local names move it
themselves, so no edit can go around it.  ``run_ladder`` records the
level and closing epoch of each function it finished, and skips a
function that has not moved since (unless something it calls has).
These tests pin every entry point and every list edit that must move the
epoch, that a direct list edit is seen and rolled back, that bodies stay
tracked through a whole lifelong cycle, and the skip rule's four
promises: nothing re-runs over an unchanged module, a moved function and
its callers do, a degraded attempt records the level it ran, and the
cache cannot tell.
"""

from __future__ import annotations

import importlib.util
import operator
import os

import pytest

from repro.bitcode import write_bytecode
from repro.core import print_function, print_module, types
from repro.core.basicblock import BasicBlock
from repro.core.instructions import BinaryOperator, Opcode, ReturnInst
from repro.core.record import snapshot_function
from repro.core.values import BodyList, ConstantInt
from repro.driver import (
    BytecodeCache, FaultPolicy, LifelongSession, compile_and_link,
    optimize_module,
)
from repro.driver.pipelines import OPTIMIZE_SOURCE, stale_functions
from repro.frontend import compile_source
from repro.stats import Stats
from repro.transforms import FunctionPassAdaptor, PassManager
from repro.transforms.passmanager import restore_function

SRC = """
int add(int x, int y) { return x + y; }
int twice(int x) { return x * 2; }
int loop(int n) {
  int t; int i;
  t = 0;
  for (i = 0; i < n; i = i + 1) { t = add(t, i); }
  return t;
}
int main() { return loop(3) + twice(4); }
"""


def optimized():
    module = compile_source(SRC, "m")
    optimize_module(module, 2)
    return module


def moves(function, edit) -> bool:
    """Whether ``edit()`` moved ``function``'s epoch."""
    before = function.epoch
    edit()
    return function.epoch != before


class TestEntryPoints:
    """One test per mutation entry point that must move the epoch."""

    def setup_method(self):
        self.module = optimized()
        self.loop = self.module.functions["loop"]
        self.header = self.loop.blocks[1]           # for.cond: two phis
        self.phi = self.header.instructions[0]

    def test_set_operand(self):
        cmp = self.header.instructions[2]
        assert moves(self.loop,
                     lambda: cmp.set_operand(1, ConstantInt(types.INT, 9)))

    def test_replace_all_uses_with(self):
        assert moves(self.loop, lambda: self.phi.replace_all_uses_with(
            ConstantInt(types.INT, 0)))

    def test_append_operand_via_phi_incoming(self):
        entry = self.loop.blocks[0]
        assert moves(self.loop, lambda: self.phi.add_incoming(
            ConstantInt(types.INT, 1), entry))

    def test_pop_operands_via_remove_incoming(self):
        assert moves(self.loop,
                     lambda: self.phi.remove_incoming(self.loop.blocks[0]))

    def test_drop_all_references(self):
        assert moves(self.loop, self.phi.drop_all_references)

    def test_block_append(self):
        exit_block = self.loop.blocks[-1]
        exit_block.instructions[-1].erase_from_parent()
        assert moves(self.loop,
                     lambda: exit_block.append(ReturnInst(ConstantInt(
                         types.INT, 0))))

    def test_block_insert(self):
        add = BinaryOperator(Opcode.ADD, self.loop.args[0],
                             ConstantInt(types.INT, 1))
        assert moves(self.loop, lambda: self.header.insert(2, add))

    def test_block_remove_from_parent(self):
        assert moves(self.loop, self.loop.blocks[-1].remove_from_parent)

    def test_block_split_at(self):
        assert moves(self.loop, lambda: self.header.split_at(2))

    def test_instruction_erase_from_parent(self):
        cmp = self.header.instructions[2]
        assert moves(self.loop, cmp.erase_from_parent)

    def test_instruction_remove_from_parent(self):
        cmp = self.header.instructions[2]
        assert moves(self.loop, cmp.remove_from_parent)

    def test_function_append_block(self):
        assert moves(self.loop, self.loop.append_block)

    def test_function_insert_block(self):
        assert moves(self.loop, lambda: self.loop.insert_block(
            1, BasicBlock("fresh")))

    def test_function_delete_body(self):
        assert moves(self.loop, self.loop.delete_body)

    def test_restore_function(self):
        text = print_function(self.loop)
        record = snapshot_function(self.loop)
        assert moves(self.loop, lambda: restore_function(self.loop, record))
        assert print_function(self.loop) == text

    def test_constant_edits_move_no_function(self):
        """A user that is not an instruction belongs to no function."""
        epochs = [f.epoch for f in self.module.defined_functions()]
        self.module.new_global(types.INT, "g", ConstantInt(types.INT, 1)) \
            .set_initializer(ConstantInt(types.INT, 2))
        assert [f.epoch for f in self.module.defined_functions()] == epochs


#: One edit per mutator of a list, given the list.
LIST_EDITS = {
    "append": lambda items: items.append(items[-1]),
    "insert": lambda items: items.insert(0, items[-1]),
    "remove": lambda items: items.remove(items[-1]),
    "pop": lambda items: items.pop(),
    "clear": lambda items: items.clear(),
    "extend": lambda items: items.extend(items[:1]),
    "sort": lambda items: items.sort(key=id),
    "reverse": lambda items: items.reverse(),
    "__setitem__": lambda items: operator.setitem(items, 0, items[-1]),
    "__setitem__slice": lambda items: operator.setitem(
        items, slice(None), items[::-1]),
    "__delitem__": lambda items: operator.delitem(items, 0),
    "__delitem__slice": lambda items: operator.delitem(items,
                                                       slice(1, None)),
    "__iadd__": lambda items: operator.iadd(items, items[:1]),
    "__imul__": lambda items: operator.imul(items, 2),
}


@pytest.mark.parametrize("edit", sorted(LIST_EDITS))
@pytest.mark.parametrize("container", ["blocks", "instructions"])
def test_every_list_edit_moves_the_epoch(container, edit):
    loop = compile_source(SRC, "m").functions["loop"]
    items = (loop.blocks if container == "blocks"
             else loop.blocks[1].instructions)
    assert type(items) is BodyList
    assert moves(loop, lambda: LIST_EDITS[edit](items))


@pytest.mark.parametrize("kind", ["instruction", "argument", "block"])
def test_renaming_a_placed_value_moves_the_epoch(kind):
    loop = compile_source(SRC, "m").functions["loop"]
    value = {"instruction": loop.blocks[1].instructions[0],
             "argument": loop.args[0], "block": loop.blocks[1]}[kind]
    assert moves(loop, lambda: setattr(value, "name", "renamed"))
    assert value.name == "renamed"
    assert not moves(loop, lambda: setattr(
        BinaryOperator(Opcode.ADD, loop.args[0], loop.args[0]), "name",
        "detached"))


def _swap_call_and_add(through_api: bool):
    """A function pass exchanging the first two instructions of
    ``loop``'s body (a call and an add that do not depend on each other)."""
    def swap(function):
        if function.name != "loop":
            return False
        body = function.blocks[2]
        if through_api:
            call = body.instructions[0]
            call.remove_from_parent()
            body.insert(1, call)
        else:
            body.instructions[0], body.instructions[1] = \
                body.instructions[1], body.instructions[0]
        return True
    return swap


class TestVerifyEachAudit:
    def test_direct_list_edit_moves_the_epoch_and_rolls_back(self):
        """The planted pass swaps two entries of ``block.instructions``
        directly, then fails: the list moved the epoch, so the policy's
        rollback restores the body exactly."""
        module = optimized()
        loop = module.functions["loop"]
        text, epoch = print_function(loop), loop.epoch
        swap, moved = _swap_call_and_add(False), []

        def planted(function):
            before = function.epoch
            if swap(function):
                moved.append(function.epoch != before)
                raise RuntimeError("planted")
            return False

        manager = PassManager(policy=FaultPolicy(reduce_testcases=False))
        manager.add(FunctionPassAdaptor(planted, "planted"))
        manager.run(module)
        assert moved == [True]
        assert loop.epoch != epoch
        assert print_function(loop) == text

    def test_the_same_edit_through_the_api_passes(self):
        module = optimized()
        before = print_module(module)
        manager = PassManager(verify_each=True).add(
            FunctionPassAdaptor(_swap_call_and_add(True), "honest"))
        manager.run(module)
        assert print_module(module) != before


class TestSkipRule:
    def test_second_run_over_unchanged_module_runs_no_pass(self):
        module = optimized()
        stats = Stats()
        optimize_module(module, 2, stats=stats)
        assert stats.runs == {}
        assert stats.view(OPTIMIZE_SOURCE) == {
            "functions-optimized": 0, "functions-skipped-unchanged": 4}
        assert stale_functions(module, 2) == []

    def test_moved_function_and_its_callers_rerun(self):
        module = optimized()
        add = module.functions["add"]
        ret = add.blocks[0].instructions[-1]
        ret.set_operand(0, add.args[0])
        assert {f.name for f in stale_functions(module, 2)} == \
            {"add", "loop", "main"}
        stats = Stats()
        optimize_module(module, 2, stats=stats)
        assert stats.view(OPTIMIZE_SOURCE) == {
            "functions-optimized": 3, "functions-skipped-unchanged": 1}
        assert stats.runs["gvn"] == 1
        assert stale_functions(module, 2) == []

    def test_a_higher_level_is_never_skipped(self):
        module = compile_source(SRC, "m")
        optimize_module(module, 1)
        assert len(stale_functions(module, 2)) == 4
        assert stale_functions(module, 1) == []

    def test_degraded_attempt_records_its_level(self, monkeypatch):
        from repro.transforms import gvn as gvn_module

        def boom(self, function):
            raise RuntimeError("gvn is broken today")

        monkeypatch.setattr(gvn_module.GVN, "run_on_function", boom)
        policy = FaultPolicy(max_poisoned_passes=0, reduce_testcases=False)
        module = compile_source(SRC, "m")
        optimize_module(module, 2, policy=policy)
        assert policy.statistics()["fallbacks.taken"] == 1
        for function in module.defined_functions():
            assert function.optimized == (1, function.epoch)
        assert len(stale_functions(module, 2)) == 4

    def test_poisoned_function_is_not_recorded(self, monkeypatch):
        from repro.transforms import simplifycfg as cfg_module

        real = cfg_module.SimplifyCFG.run_on_function

        def boom(self, function):
            if function.name == "twice":
                raise RuntimeError("simplifycfg is broken on twice")
            return real(self, function)

        monkeypatch.setattr(cfg_module.SimplifyCFG, "run_on_function", boom)
        module = compile_source(SRC, "m")
        optimize_module(module, 2, policy=FaultPolicy(reduce_testcases=False))
        assert module.functions["twice"].optimized is None
        assert module.functions["loop"].optimized is not None
        # ... and its caller goes with it.
        assert [f.name for f in stale_functions(module, 2)] == \
            ["twice", "main"]


def _gen_program():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "lifelong",
        "gen_program.py")
    spec = importlib.util.spec_from_file_location("gen_program", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bodies_stay_tracked_through_a_lifelong_cycle():
    """No stage swaps a plain list in for a body list (a reassigned
    ``blocks`` or ``instructions`` would move no epoch)."""
    def assert_tracked(module):
        for function in module.functions.values():
            assert type(function.blocks) is BodyList, function.name
            for block in function.blocks:
                assert type(block.instructions) is BodyList, function.name

    inputs = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "benchmarks", "lifelong", "inputs")
    with open(os.path.join(inputs, "gcc.lc")) as handle:
        sources = [handle.read()]
    assert_tracked(compile_and_link(sources, "gcc", 2, lto=True))
    session = LifelongSession(sources, "gcc")
    session.run()
    report = session.reoptimize()
    assert report.blocks_reordered and report.inlined_calls
    assert_tracked(session.module)


def test_cached_edit_rebuild_is_byte_identical_to_uncached(tmp_path):
    """A TU read from the cache has no optimization record; one built
    fresh does.  Linking clones every body, so the link-time clean-ups
    cannot tell them apart."""
    program = _gen_program().Program(1)
    cache = BytecodeCache(str(tmp_path / "cache"))
    compile_and_link(program.sources(), "edit", 2, lto=True, cache=cache)
    program.edit(next(iter(program.edit_order(1))))
    cached = compile_and_link(program.sources(), "edit", 2, lto=True,
                              cache=cache)
    assert cache.statistics()["cache-hits"] == 12
    uncached = compile_and_link(program.sources(), "edit", 2, lto=True)
    assert write_bytecode(cached) == write_bytecode(uncached)
    assert print_module(cached) == print_module(uncached)
