"""Hot-path trace formation (paper section 3.5).

"Once hot paths are identified, we duplicate the original code into a
trace, perform optimizations on it, and then regenerate native code
into a software-managed trace cache.  We then insert branches between
the original code and the new native code."

The hot paths are the cycles the trace tier compiled
(:attr:`~repro.profile.ProfileData.paths`): the reproduction duplicates
each *in the IR* into a superblock, single entry from the loop header,
side exits to the original cold blocks.  Cycles that share a prefix
share its copy, so one header's cycles form a tree as the trace tier's
do.  SSA safety comes from the demote/duplicate/promote sandwich:
``reg2mem`` removes cross-block SSA values, duplication is then
trivially sound, and ``mem2reg`` rebuilds SSA over the new shape.  The
reoptimizer's clean-up pipeline then optimizes the straightened code.
"""

from __future__ import annotations

from typing import Sequence

from ..core.basicblock import BasicBlock
from ..core.instructions import build
from ..core.module import Function
from ..core.values import Value
from ..transforms.mem2reg import PromoteMem2Reg
from ..transforms.reg2mem import DemoteRegisters


class TraceFormation:
    """Forms superblocks along recorded hot cycles."""

    def __init__(self):
        self.traces_formed = 0

    def optimize_function(self, function: Function,
                          paths: Sequence[tuple[BasicBlock, ...]]) -> bool:
        """Tail-duplicate each of ``paths`` (blocks of ``function``
        from a loop header on, hottest first) that is still a cycle of
        the CFG into a superblock entered from its header.  Paths that
        share a prefix share its copy."""
        paths = [path for path in paths if _is_cycle(path)]
        if not paths:
            return False
        DemoteRegisters().run_on_function(function)
        clones: dict[tuple[BasicBlock, ...], BasicBlock] = {}
        for path in paths:
            previous = path[0]
            for end in range(2, len(path) + 1):
                if path[:end] not in clones:
                    clones[path[:end]] = _clone_after(function, previous,
                                                      path[end - 1])
                previous = clones[path[:end]]
            self.traces_formed += 1
        PromoteMem2Reg().run_on_function(function)
        return True


def _is_cycle(path) -> bool:
    """Each block of ``path`` branches to the next, the last back to
    the first: a stale path (its IR since rewritten) is not."""
    return len(path) >= 2 and all(
        target in block.successors()
        for block, target in zip(path, (*path[1:], path[0])))


def _clone_after(function: Function, previous: BasicBlock,
                 original: BasicBlock) -> BasicBlock:
    """A copy of ``original``, placed after ``previous`` and taking over
    its edge to ``original``; the copy's own edges (side exits, and the
    back edge to the header) stay on the originals."""
    clone = function.insert_block(function.blocks.index(previous) + 1,
                                  BasicBlock(f"{original.name}.trace"))
    copies: dict[Value, Value] = {}
    for inst in original.instructions:
        copied = copies[inst] = build(
            inst.opcode, inst.carried_type,
            [copies.get(op, op) for op in inst.operands], inst.name)
        copied.loc = inst.loc
        clone.append(copied)
    term = previous.terminator
    for index, operand in enumerate(term.operands):
        if operand is original:
            term.set_operand(index, clone)
    return clone
