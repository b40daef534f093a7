"""The offline (idle-time) reoptimizer — paper section 3.6.

"Such an optimizer is simply a modified version of the link-time
interprocedural optimizer, but with a greater emphasis on profile-
driven and target-specific optimizations."  It consumes the block-entry
counts end-user runs gathered (:class:`~repro.profile.ProfileData`), and:

* inlines call sites inside *hot* functions aggressively (a larger
  threshold than the static inliner would risk);
* forms superblock traces for strongly-biased hot loops
  (:mod:`repro.profile.tracer`);
* lays out each hot function so the hot path is contiguous;
* re-runs the scalar pipeline over the changed functions.

The interpreter's step count stands in for run time, so the benefit is
measured deterministically.
"""

from __future__ import annotations

from typing import Optional

from ..core.basicblock import BasicBlock
from ..core.instructions import CallInst
from ..core.module import Function, Module
from ..transforms.dce import AggressiveDCE
from ..transforms.gvn import GVN
from ..transforms.instcombine import InstCombine
from ..transforms.ipo.inline import inline_call_site
from ..transforms.passmanager import PassManager
from ..transforms.simplifycfg import SimplifyCFG
from .collector import ProfileData
from .tracer import TraceFormation


class ReoptimizationReport:
    def __init__(self):
        self.hot_functions: list[str] = []
        self.inlined_calls = 0
        self.traces_formed = 0
        self.blocks_reordered = 0


class OfflineReoptimizer:
    """Profile-guided idle-time reoptimization of a module."""

    def __init__(self, hot_call_threshold: int = 50,
                 hot_loop_threshold: int = 100,
                 inline_size_limit: int = 200):
        self.hot_call_threshold = hot_call_threshold
        self.hot_loop_threshold = hot_loop_threshold
        self.inline_size_limit = inline_size_limit

    def run(self, module: Module, profile: ProfileData) -> ReoptimizationReport:
        report = ReoptimizationReport()
        entry_counts = profile.function_entry_counts()
        hot = {
            name for name, count in entry_counts.items()
            if count >= self.hot_call_threshold
        }
        report.hot_functions = sorted(hot)
        # The loops of the code that ran, found before inlining moves it.
        hot_loops = profile.hot_loops(self.hot_loop_threshold)

        # 1. Profile-guided inlining: calls *to* hot functions from any
        #    defined caller, sized by the generous profile-backed limit.
        for function in list(module.defined_functions()):
            for inst in list(function.instructions()):
                if inst.parent is None or not isinstance(inst, CallInst):
                    continue
                callee = inst.callee
                if not isinstance(callee, Function) or callee.is_declaration:
                    continue
                if callee is function or callee.name not in hot:
                    continue
                if callee.instruction_count() > self.inline_size_limit:
                    continue
                if inline_call_site(inst):
                    report.inlined_calls += 1

        # 2. Trace formation over strongly-biased hot loops.
        tracer = TraceFormation()
        for name, _, _ in hot_loops:
            function = module.functions.get(name)
            if function is not None and not function.is_declaration:
                tracer.optimize_function(function, profile.counts)
        report.traces_formed = tracer.traces_formed

        # 3. Hot-path code layout (affects native code, not the
        #    interpreter): place each block's hottest successor next.
        for name in hot:
            function = module.functions.get(name)
            if function is not None and not function.is_declaration:
                report.blocks_reordered += _layout_hot_path(
                    function, profile.counts)

        # 4. Clean-up pipeline over everything the above touched.
        cleanup = PassManager()
        for pass_obj in (SimplifyCFG(), InstCombine(), SimplifyCFG(),
                         GVN(), AggressiveDCE(), SimplifyCFG()):
            cleanup.add(pass_obj)
        cleanup.run(module)
        return report


def _layout_hot_path(function: Function,
                     block_counts: dict[BasicBlock, int]) -> int:
    """Reorder ``function.blocks`` greedily along the hottest successors.

    Pure layout: the CFG is unchanged, only the block list order (which
    drives native-code fallthrough placement) moves.
    """
    placed: list = []
    placed_ids: set[int] = set()
    worklist = [function.entry_block]
    while worklist:
        block = worklist.pop()
        if id(block) in placed_ids:
            continue
        current = block
        while current is not None and id(current) not in placed_ids:
            placed.append(current)
            placed_ids.add(id(current))
            successors = current.successors()
            for succ in successors:
                if id(succ) not in placed_ids:
                    worklist.append(succ)
            hottest = None
            best = -1
            for succ in successors:
                count = block_counts.get(succ, 0)
                if id(succ) not in placed_ids and count > best:
                    best = count
                    hottest = succ
            current = hottest
    moved = sum(
        1 for old, new in zip(function.blocks, placed) if old is not new
    )
    remaining = [b for b in function.blocks if id(b) not in placed_ids]
    function.blocks[:] = placed + remaining
    return moved
