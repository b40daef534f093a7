"""Hot-path trace formation (paper section 3.5).

"Once hot paths are identified, we duplicate the original code into a
trace, perform optimizations on it, and then regenerate native code
into a software-managed trace cache.  We then insert branches between
the original code and the new native code."

The reproduction forms the trace *in the IR*: the hot path through a
hot loop is tail-duplicated into a superblock (single entry from the
loop header, side exits to the original cold blocks), and local
optimizations run over the straightened code.  SSA safety comes from
the demote/duplicate/promote sandwich: ``reg2mem`` removes cross-block
SSA values, duplication is then trivially sound, and ``mem2reg``
rebuilds SSA over the new shape.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.loops import Loop, LoopInfo
from ..analysis.manager import function_analysis
from ..core.basicblock import BasicBlock
from ..core.instructions import build
from ..core.module import Function
from ..core.values import Value
from ..transforms.dce import AggressiveDCE
from ..transforms.gvn import GVN
from ..transforms.instcombine import InstCombine
from ..transforms.mem2reg import PromoteMem2Reg
from ..transforms.reg2mem import DemoteRegisters
from ..transforms.simplifycfg import SimplifyCFG


class TraceFormation:
    """Forms superblock traces for hot loops, given block counts."""

    def __init__(self, min_path_length: int = 2, hot_fraction: float = 0.6):
        self.min_path_length = min_path_length
        #: A successor is "on trace" when it received at least this
        #: fraction of the block's outgoing executions.
        self.hot_fraction = hot_fraction
        self.traces_formed = 0

    def optimize_function(self, function: Function,
                          block_counts: dict[BasicBlock, int]) -> bool:
        """Form traces for every sufficiently-biased hot loop."""
        loop_info = function_analysis(function, LoopInfo)
        paths = []
        for loop in loop_info.all_loops():
            path = self._select_path(loop, block_counts)
            if path is not None:
                paths.append(path)
        if not paths:
            return False
        DemoteRegisters().run_on_function(function)
        for path in paths:
            self._duplicate_path(function, path)
            self.traces_formed += 1
        # Rebuild SSA and optimize the straightened code.
        PromoteMem2Reg().run_on_function(function)
        SimplifyCFG().run_on_function(function)
        InstCombine().run_on_function(function)
        GVN().run_on_function(function)
        AggressiveDCE().run_on_function(function)
        SimplifyCFG().run_on_function(function)
        return True

    # -- path selection ------------------------------------------------------

    def _select_path(self, loop: Loop, block_counts: dict[BasicBlock, int]
                     ) -> Optional[list[BasicBlock]]:
        header = loop.header
        path = [header]
        seen = {id(header)}
        current = header
        while True:
            successors = [s for s in current.successors() if loop.contains(s)]
            if not successors:
                break
            # Dedupe before summing: a conditional branch with both
            # targets equal yields the same successor twice, and
            # double-counting it would make a perfectly biased edge
            # look like a 50% split and fail the hot_fraction test.
            unique = {id(s): s for s in current.successors()}.values()
            total = sum(block_counts.get(s, 0) for s in unique)
            best = max(successors, key=lambda s: block_counts.get(s, 0))
            best_count = block_counts.get(best, 0)
            if total == 0 or best_count < self.hot_fraction * total:
                break  # branch not biased enough to bet on
            if id(best) in seen:
                break  # back at the header (or an inner cycle)
            path.append(best)
            seen.add(id(best))
            current = best
        if len(path) < self.min_path_length + 1:
            return None
        return path

    # -- duplication -----------------------------------------------------------

    def _duplicate_path(self, function: Function, path: list[BasicBlock]) -> None:
        """Tail-duplicate ``path[1:]`` into a superblock entered from
        ``path[0]`` (the loop header).

        Runs on reg2mem'd IR: no phis, no cross-block SSA values, so a
        per-block clone with terminator retargeting is sound.
        """
        header = path[0]
        originals = path[1:]
        clones: list[BasicBlock] = []
        position = function.blocks.index(header) + 1
        for original in originals:
            clone = function.insert_block(
                position, BasicBlock(f"{original.name}.trace"))
            position += 1
            copies: dict[Value, Value] = {}
            for inst in original.instructions:
                copied = copies[inst] = build(
                    inst.opcode, inst.carried_type,
                    [copies.get(op, op) for op in inst.operands], inst.name)
                copied.loc = inst.loc
                clone.append(copied)
            clones.append(clone)
        # Retarget: header enters the first clone; each clone's on-trace
        # successor is the next clone; side exits stay on originals.
        chain = list(zip(originals, clones))
        entry_term = header.terminator
        for index, operand in enumerate(entry_term.operands):
            if operand is originals[0]:
                entry_term.set_operand(index, clones[0])
        for position_in_path, (original, clone) in enumerate(chain[:-1]):
            next_original, next_clone = chain[position_in_path + 1]
            term = clone.terminator
            for index, operand in enumerate(term.operands):
                if operand is next_original:
                    term.set_operand(index, next_clone)
