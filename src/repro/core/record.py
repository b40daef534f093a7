"""A function body as structure, and the one builder that makes a body.

:func:`snapshot_function` records a live body (a checkpoint, or the
source of a clone), and the bytecode reader and the text parser decode
one; :func:`rebuild_body` builds every body from its record — a
rollback, a decoded or parsed body, an inlined, linked or selected copy
— and is the one forward-reference scheme.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

from .basicblock import BasicBlock
from .instructions import build
from .module import Function
from .types import Type
from .values import Value


class FunctionRecord(NamedTuple):
    """A function's body as structure.  A snapshot is valid while the
    function's epoch equals :attr:`epoch`; a decoded record's epoch
    means nothing.

    ``args`` holds the argument names, and ``blocks`` ``(name,
    instructions)`` per block; each instruction is ``(opcode,
    carried_type, type, operands, name, loc)``.  An operand local to the
    function is its position in arguments, then blocks, then
    instructions in layout order (an int); any other operand — a
    constant, a global, a function — is the object itself.
    """

    epoch: int
    args: tuple
    blocks: tuple


def snapshot_function(function: Function) -> FunctionRecord:
    """The record of ``function``'s body as it stands."""
    ref = {value: position for position, value in enumerate(chain(
        function.args, function.blocks, function.instructions()))}.get
    return FunctionRecord(
        function.epoch, tuple([arg.name for arg in function.args]),
        tuple([(block.name, tuple([
            (inst.opcode, inst.carried_type, inst.type,
             tuple([ref(op, op) for op in inst.operands]), inst.name,
             inst.loc)
            for inst in block.instructions]))
            for block in function.blocks]))


def rebuild_body(record: FunctionRecord, function: Function,
                 args: Optional[Sequence[Value]] = None,
                 remap: Optional[Callable[[Value], Value]] = None,
                 map_type: Optional[Callable[[Type], Type]] = None,
                 suffix: str = "") -> list[BasicBlock]:
    """Append the body ``record`` describes to ``function`` and return
    the new blocks.

    ``args`` stand in for the record's arguments and keep their names;
    by default the function's own arguments take the recorded names.
    ``remap`` translates every non-local operand; ``map_type`` every
    carried type and forward placeholder's type, which must live in the
    target's type space because constructors type-check their operands.
    ``suffix`` is added to every block name.
    """
    if args is None:
        args = function.args
        for arg, name in zip(args, record.args):
            arg.name = name
    blocks = [BasicBlock(name + suffix) for name, _ in record.blocks]
    for block in blocks:
        block.parent = function
    function.blocks += blocks
    values: list = [*args, *blocks]
    #: Placeholders for operands defined later in layout order.
    forward: dict = {}
    shapes: list = []

    def placeholder(ref):
        if ref not in forward:
            if not shapes:
                shapes.extend(inst for _, insts in record.blocks
                              for inst in insts)
            shape = shapes[ref - len(args) - len(blocks)][2]
            forward[ref] = Value(shape if map_type is None
                                 else map_type(shape))
        return forward[ref]

    for block, (_, insts) in zip(blocks, record.blocks):
        first = len(values)
        for opcode, carried, _, operands, name, loc in insts:
            inst = build(opcode,
                         carried if map_type is None else map_type(carried),
                         [(op if remap is None else remap(op))
                          if type(op) is not int else values[op]
                          if op < len(values) else placeholder(op)
                          for op in operands], name)
            inst.loc = loc
            inst.parent = block
            values.append(inst)
        block.instructions.extend(values[first:])
    for ref, stand_in in forward.items():
        stand_in.replace_all_uses_with(values[ref])
    return blocks
