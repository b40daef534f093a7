"""IR cloning utilities: remap-and-copy of instructions, blocks, functions.

Shared by the inliner, the linker (bodies into the output module),
instruction selection, the trace-formation runtime optimizer (which
duplicates hot paths into traces), and function specialization.  A copy
is made by :func:`repro.core.instructions.build` from the opcode and the
remapped operand list — the constructor the bytecode reader uses too.
"""

from __future__ import annotations

from typing import Optional

from ..core.basicblock import BasicBlock
from ..core.instructions import Instruction, build
from ..core.module import Function, Module
from ..core.values import Value


def clone_instruction(inst: Instruction, value_map: dict[int, Value],
                      map_type=None) -> Instruction:
    """Copy ``inst`` with operands translated through ``value_map``
    (keyed by ``id``; an operand it lacks is kept as it is).

    Block operands may map to not-yet-materialised blocks; callers must
    pre-create all target blocks in the map before cloning bodies.
    ``map_type`` translates the carried type (alloca/malloc element
    types, cast/phi/vaarg result types) — the linker passes its
    cross-module type unifier here; plain cloning leaves types alone.
    """
    carried = inst.carried_type
    mapped = value_map.get
    clone = build(inst.opcode, carried if map_type is None else map_type(carried),
                  [mapped(id(op), op) for op in inst.operands], inst.name)
    clone.loc = inst.loc
    return clone


def clone_body(source_blocks: list[BasicBlock], target_function: Function,
               value_map: dict[int, Value],
               name_suffix: str = "", map_type=None) -> list[BasicBlock]:
    """Clone the whole body ``source_blocks`` into ``target_function``.

    ``value_map`` may pre-map arguments (for inlining: formal -> actual)
    and is extended with every cloned block and instruction.  Every
    branch target and phi predecessor must be one of ``source_blocks``.
    Returns the cloned blocks in source order.
    """
    cloned_blocks: list[BasicBlock] = []
    for source in source_blocks:
        block = BasicBlock(source.name + name_suffix, parent=target_function)
        value_map[id(source)] = block
        cloned_blocks.append(block)
    # Pass 1: typed placeholders for every result, so uses that precede
    # their definition in block-layout order resolve.  Placeholder types
    # must already live in the *target* type space: constructors type-
    # check their operands, and a placeholder carrying the source
    # module's named-struct identity would fail against operands whose
    # types were translated by ``map_type``.
    placeholders: list[tuple[Instruction, Value]] = []
    for source in source_blocks:
        for inst in source.instructions:
            if not inst.type.is_void and id(inst) not in value_map:
                result_type = inst.type if map_type is None else map_type(inst.type)
                placeholder = Value(result_type, inst.name)
                value_map[id(inst)] = placeholder
                placeholders.append((inst, placeholder))
    # Pass 2: clone instructions (operands resolve to clones made so
    # far, or to placeholders).
    for source, block in zip(source_blocks, cloned_blocks):
        for inst in source.instructions:
            cloned = clone_instruction(inst, value_map, map_type)
            value_map[id(inst)] = cloned
            block.append(cloned)
    # Pass 3: splice placeholders out.
    for source_inst, placeholder in placeholders:
        if placeholder.uses:
            placeholder.replace_all_uses_with(value_map[id(source_inst)])
    return cloned_blocks


def clone_function(function: Function, new_name: str,
                   module: Optional[Module] = None) -> Function:
    """Deep-copy a function definition under a new name.

    Used for specialization and for the offline reoptimizer's "duplicate
    the original code into a trace" step.
    """
    target_module = module or function.parent
    clone = Function(function.function_type, new_name, function.linkage,
                     [a.name for a in function.args])
    if target_module is not None:
        target_module.add_function(clone)
    value_map: dict[int, Value] = {}
    for old_arg, new_arg in zip(function.args, clone.args):
        value_map[id(old_arg)] = new_arg
    clone_body(function.blocks, clone, value_map)
    return clone
