"""The offline (idle-time) reoptimizer — paper section 3.6.

"Such an optimizer is simply a modified version of the link-time
interprocedural optimizer, but with a greater emphasis on profile-
driven and target-specific optimizations."  It consumes the profile
end-user runs gathered (:class:`~repro.profile.ProfileData`), and:

* forms a superblock along every cycle the trace tier compiled
  (:mod:`repro.profile.tracer`): one rule decides what is hot;
* inlines call sites inside *hot* functions aggressively (a larger
  threshold than the static inliner would risk);
* lays out each hot function so the hot path is contiguous;
* re-runs one clean-up pipeline over the module.

The interpreter's step count stands in for run time, so the benefit is
measured deterministically.
"""

from __future__ import annotations

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


#: The largest hot callee inlined: generous, because the profile backs
#: the bet.
INLINE_SIZE_LIMIT = 200


class OfflineReoptimizer:
    """Profile-guided idle-time reoptimization of a module."""

    def __init__(self, hot_call_threshold: int = 50):
        self.hot_call_threshold = hot_call_threshold

    def run(self, module: Module, profile: ProfileData) -> ReoptimizationReport:
        report = ReoptimizationReport()
        hot = {name for name, count in profile.function_entry_counts().items()
               if count >= self.hot_call_threshold}
        report.hot_functions = sorted(hot)

        # 1. Superblocks along the cycles the trace tier compiled,
        #    hottest first: each function once, since one call forms all
        #    of its superblocks.  A cycle is a path through its own
        #    function's blocks, so this comes before inlining copies a
        #    hot callee into its callers, which then get the straightened
        #    body.
        hottest = sorted(profile.paths, key=profile.paths.get, reverse=True)
        tracer = TraceFormation()
        for function in dict.fromkeys(path[0].parent for path in hottest):
            if function is not None:
                tracer.optimize_function(function, [
                    path for path in hottest if path[0].parent is function])
        report.traces_formed = tracer.traces_formed

        # 2. Profile-guided inlining: calls *to* hot functions from any
        #    defined caller, sized by the generous profile-backed limit.
        for function in list(module.defined_functions()):
            for inst in list(function.instructions()):
                if inst.parent is None or not isinstance(inst, CallInst):
                    continue
                callee = inst.callee
                if (isinstance(callee, Function) and callee is not function
                        and callee.name in hot and not callee.is_declaration
                        and callee.instruction_count() <= INLINE_SIZE_LIMIT
                        and inline_call_site(inst)):
                    report.inlined_calls += 1

        # 3. Hot-path code layout (affects native code, not the
        #    interpreter): place each block's hottest successor next.
        for name in hot:
            function = module.functions.get(name)
            if function is not None and not function.is_declaration:
                report.blocks_reordered += _layout_hot_path(
                    function, profile.counts)

        # 4. One clean-up pipeline over everything the above touched.
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
    placed: dict[BasicBlock, None] = {}     # an ordered set
    worklist = [function.entry_block]
    while worklist:
        current = worklist.pop()
        while current is not None and current not in placed:
            placed[current] = None
            fresh = [succ for succ in current.successors()
                     if succ not in placed]
            worklist.extend(fresh)
            current = max(fresh, key=lambda succ: block_counts.get(succ, 0),
                          default=None)
    moved = sum(old is not new for old, new in zip(function.blocks, placed))
    remaining = [b for b in function.blocks if b not in placed]
    function.blocks[:] = list(placed) + remaining
    return moved
