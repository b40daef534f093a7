"""Basic blocks: straight-line instruction sequences ending in a terminator.

A function is a set of basic blocks; each block is a sequence of
instructions ending in exactly one terminator which explicitly names its
successor blocks.  Blocks are themselves values of ``label`` type so
that branch targets participate in the uniform use-list machinery —
predecessors of a block are recovered directly from its uses.
"""

from __future__ import annotations

from typing import Iterator, Optional

from . import types
from .instructions import Instruction, Opcode, PhiNode
from .values import LOCAL_NAME, BodyList, Value


class BasicBlock(Value):
    """A labelled sequence of instructions within a function."""

    __slots__ = ("parent", "instructions")

    name = LOCAL_NAME

    def __init__(self, name: str = "", parent=None):
        super().__init__(types.LABEL, name)
        self.parent = parent
        self.instructions: BodyList = BodyList(self)
        if parent is not None:
            parent.blocks.append(self)

    # -- structure ----------------------------------------------------------

    @property
    def terminator(self) -> Optional[Instruction]:
        """The block's terminator, or None if the block is still open."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return list(term.successors) if term is not None else []

    def predecessors(self) -> list["BasicBlock"]:
        """Blocks that can branch here, recovered from the use-list.

        A predecessor appears once per use (e.g. a conditional branch
        with both arms targeting this block yields it twice), matching
        what phi nodes need; callers wanting unique preds should dedup.
        """
        preds = []
        for use in self.uses:
            user = use.user
            if isinstance(user, Instruction) and user.is_terminator:
                if user.opcode != Opcode.INVOKE or use.index >= len(user.operands) - 2:
                    preds.append(user.parent)
                elif user.opcode == Opcode.INVOKE:
                    # A block used as an invoke *argument* is impossible
                    # (labels are not first-class), so this cannot happen;
                    # guard kept for clarity.
                    preds.append(user.parent)
        return preds

    def unique_predecessors(self) -> list["BasicBlock"]:
        seen: dict[int, BasicBlock] = {}
        for pred in self.predecessors():
            seen.setdefault(id(pred), pred)
        return list(seen.values())

    def phis(self) -> Iterator[PhiNode]:
        for inst in self.instructions:
            if isinstance(inst, PhiNode):
                yield inst
            else:
                break

    def first_non_phi_index(self) -> int:
        for index, inst in enumerate(self.instructions):
            if not isinstance(inst, PhiNode):
                return index
        return len(self.instructions)

    # -- mutation -------------------------------------------------------------
    #
    # Each edit of ``instructions`` (a :class:`BodyList`) and each rename
    # calls this, moving the containing function's epoch
    # (:attr:`repro.core.module.Function.epoch`).

    def _moved(self) -> None:
        if self.parent is not None:
            self.parent._moved()

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.name!r} is already terminated")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        term = self.terminator
        if term is None:
            return self.append(inst)
        return self.insert(len(self.instructions) - 1, inst)

    def remove_from_parent(self) -> None:
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None

    def erase_from_parent(self) -> None:
        """Delete the block and all its instructions."""
        for inst in list(self.instructions):
            inst.erase_from_parent()
        self.remove_from_parent()

    def split_at(self, index: int, new_name: str = "") -> "BasicBlock":
        """Split this block before instruction ``index``.

        Instructions from ``index`` onward move to a new block, and this
        block gets an unconditional branch to it.  Phi nodes in (old)
        successors are updated to name the new block as predecessor.
        """
        from .instructions import BranchInst

        new_block = BasicBlock(new_name, parent=None)
        if self.parent is not None:
            position = self.parent.blocks.index(self)
            self.parent.insert_block(position + 1, new_block)
        moved = self.instructions[index:]
        del self.instructions[index:]
        for inst in moved:
            inst.parent = new_block
        new_block.instructions.extend(moved)
        for succ in new_block.successors():
            for phi in succ.phis():
                phi.replace_incoming_block(self, new_block)
        self.append(BranchInst(new_block))
        return new_block

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BasicBlock {self.name or '<unnamed>'} ({len(self.instructions)} insts)>"
