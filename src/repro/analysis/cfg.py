"""Control-flow graph utilities.

The CFG is explicit in the representation (each terminator names its
successors), so these helpers only provide traversal orders, reachable
sets, and edge queries on top of the block structure.
"""

from __future__ import annotations

from typing import Iterator

from ..core.basicblock import BasicBlock
from ..core.module import Function


def successors(block: BasicBlock) -> list[BasicBlock]:
    return block.successors()


def predecessors(block: BasicBlock) -> list[BasicBlock]:
    return block.unique_predecessors()


def reachable_blocks(function: Function) -> list[BasicBlock]:
    """Blocks reachable from the entry, in depth-first preorder."""
    if function.is_declaration:
        return []
    seen: set[int] = set()
    order: list[BasicBlock] = []
    stack = [function.entry_block]
    while stack:
        block = stack.pop()
        if id(block) in seen:
            continue
        seen.add(id(block))
        order.append(block)
        stack.extend(reversed(block.successors()))
    return order


def unreachable_blocks(function: Function) -> list[BasicBlock]:
    reachable = {id(b) for b in reachable_blocks(function)}
    return [b for b in function.blocks if id(b) not in reachable]


def postorder(function: Function) -> list[BasicBlock]:
    """Reachable blocks in depth-first postorder."""
    result: list[BasicBlock] = []
    seen: set[int] = set()

    entry = function.entry_block
    # Iterative DFS with explicit successor cursors (no recursion limit).
    stack: list[tuple[BasicBlock, Iterator[BasicBlock]]] = []
    seen.add(id(entry))
    stack.append((entry, iter(entry.successors())))
    while stack:
        block, succ_iter = stack[-1]
        advanced = False
        for succ in succ_iter:
            if id(succ) not in seen:
                seen.add(id(succ))
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            result.append(block)
            stack.pop()
    return result


def reverse_postorder(function: Function) -> list[BasicBlock]:
    """Reachable blocks in reverse postorder (a topological-ish order)."""
    order = postorder(function)
    order.reverse()
    return order


def edges(function: Function) -> list[tuple[BasicBlock, BasicBlock]]:
    """All CFG edges among reachable blocks (duplicates preserved)."""
    result = []
    for block in reachable_blocks(function):
        for succ in block.successors():
            result.append((block, succ))
    return result


def is_critical_edge(src: BasicBlock, dst: BasicBlock) -> bool:
    """An edge from a multi-successor block to a multi-predecessor block."""
    return len(src.successors()) > 1 and len(dst.unique_predecessors()) > 1


def split_critical_edge(src: BasicBlock, dst: BasicBlock) -> BasicBlock:
    """Insert a forwarding block on the (src, dst) edge.

    Needed before IR transformations that must place code "on an
    edge".  (The back end's phi copies need no split: it gives such an
    edge a machine block of its own and leaves the IR alone.)
    """
    from ..core.instructions import BranchInst

    function = src.parent
    middle = function.insert_block(
        function.blocks.index(src) + 1,
        BasicBlock(f"{src.name}.{dst.name}.crit"))
    middle.append(BranchInst(dst))

    term = src.terminator
    for index, operand in enumerate(term.operands):
        if operand is dst:
            term.set_operand(index, middle)
            break  # split a single edge occurrence
    for phi in dst.phis():
        phi.replace_incoming_block(src, middle)
    return middle
