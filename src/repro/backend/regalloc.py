"""Linear-scan register allocation over machine IR.

Live intervals are computed on the linearised instruction order (one
interval per vreg, from first def to last use — conservative across
loops by extending intervals that cross backward branches to the loop
end, in one sweep).  Allocation follows Poletto–Sarkar linear scan:
spill the active interval with the furthest end when pressure exceeds
the register file.  Spilled vregs get frame slots; every use/def is
rewritten through one of three reserved scratch registers.
"""

from __future__ import annotations

from typing import Optional

from .machine import MachineFunction, MachineInstr, MOp, phys


class _Interval:
    __slots__ = ("vreg", "start", "end", "assigned", "slot")

    def __init__(self, vreg: int, start: int):
        self.vreg = vreg
        self.start = start
        self.end = start
        self.assigned: Optional[int] = None  # physical register number
        self.slot: Optional[int] = None      # frame slot if spilled


class LinearScanAllocator:
    """Allocates one machine function against a register budget."""

    #: Operations whose *last* register source may read straight from a
    #: frame slot on a CISC target (x86 reg-mem instruction forms).
    FOLDABLE = (MOp.ALU, MOp.ALUI, MOp.SETCC, MOp.CMPBR, MOp.MOV,
                MOp.SETRET, MOp.ARG)

    def __init__(self, num_registers: int, fold_memory_operands: bool = False):
        if num_registers < 4:
            raise ValueError("need at least 4 registers (3 reserved for spills)")
        #: Three registers are reserved as spill scratch (a store with a
        #: scaled-index addressing mode has three register sources).
        self.allocatable = num_registers - 3
        self.scratch = (num_registers - 3, num_registers - 2, num_registers - 1)
        #: CISC targets read one spilled operand per instruction directly
        #: from memory instead of reloading through a scratch register.
        self.fold_memory_operands = fold_memory_operands

    def run(self, machine_fn: MachineFunction) -> None:
        order: list[MachineInstr] = []
        block_spans: list[tuple[int, int]] = []
        for block in machine_fn.blocks:
            start = len(order)
            order.extend(block.instructions)
            block_spans.append((start, len(order)))

        intervals = self._build_intervals(machine_fn, order, block_spans)
        spilled = self._allocate(intervals)
        self._rewrite(machine_fn, intervals, spilled)

    # -- intervals -----------------------------------------------------------

    def _build_intervals(self, machine_fn: MachineFunction,
                         order: list[MachineInstr],
                         block_spans: list[tuple[int, int]]) -> dict[int, _Interval]:
        intervals: dict[int, _Interval] = {}
        for index, instr in enumerate(order):
            for reg in instr.registers():
                interval = intervals.get(reg)
                if interval is None:
                    intervals[reg] = _Interval(reg, index)
                else:
                    interval.end = index
        # Loop safety: any value live anywhere inside [target, branch]
        # of a backward branch may be read again on the next trip round
        # the loop, so its register must stay untouched until the
        # branch.  That includes intervals *starting* inside the span: a
        # phi copy in a block laid out after the loop head starts
        # mid-loop yet is carried across the back edge.  So an interval
        # ending at p ends at reach[p] instead: the first position at
        # or after p that no [target, branch) span crosses.  reach
        # starts as the identity, so a forward branch never raises it;
        # a prefix maximum gives each position the furthest branch of
        # a loop starting at or before it, and one backward sweep
        # follows those jumps to where they stop.
        block_starts = {
            id(block): span[0]
            for block, span in zip(machine_fn.blocks, block_spans)
        }
        reach = list(range(len(order)))
        for index, instr in enumerate(order):
            if instr.block is not None:
                target_start = block_starts.get(id(instr.block))
                if target_start is not None and reach[target_start] < index:
                    reach[target_start] = index
        furthest = -1
        for position, branch in enumerate(reach):
            furthest = reach[position] = max(furthest, branch)
        for position in range(len(order) - 1, -1, -1):
            reach[position] = reach[reach[position]]
        for interval in intervals.values():
            interval.end = reach[interval.end]
        return intervals

    # -- allocation ------------------------------------------------------------

    def _allocate(self, intervals: dict[int, _Interval]) -> list[_Interval]:
        ordered = sorted(intervals.values(), key=lambda i: i.start)
        free = list(range(self.allocatable))
        active: list[_Interval] = []
        spilled: list[_Interval] = []
        next_slot = 0
        for interval in ordered:
            still_active = []
            for candidate in active:
                if candidate.end >= interval.start:
                    still_active.append(candidate)
                else:
                    free.append(candidate.assigned)
            active = still_active
            if free:
                interval.assigned = free.pop()
                active.append(interval)
                continue
            victim = max(active, key=lambda a: a.end)
            if victim.end > interval.end:
                interval.assigned = victim.assigned
                victim.assigned = None
                victim.slot = next_slot
                next_slot += 1
                spilled.append(victim)
                active.remove(victim)
                active.append(interval)
            else:
                interval.slot = next_slot
                next_slot += 1
                spilled.append(interval)
        return spilled

    # -- rewriting ----------------------------------------------------------------

    def _rewrite(self, machine_fn: MachineFunction,
                 intervals: dict[int, _Interval],
                 spilled: list[_Interval]) -> None:
        slot_of = {interval.vreg: interval.slot for interval in spilled}
        alloc_of = {
            interval.vreg: interval.assigned
            for interval in intervals.values()
            if interval.assigned is not None
        }
        spill_base = machine_fn.frame_size
        machine_fn.frame_size = spill_base + 8 * len(spilled)

        for block in machine_fn.blocks:
            rewritten: list[MachineInstr] = []
            for instr in block.instructions:
                scratch_iter = iter(self.scratch)
                loads: list[MachineInstr] = []
                stores: list[MachineInstr] = []
                new_srcs = []
                folded_index = None
                if self.fold_memory_operands and instr.op in self.FOLDABLE:
                    # Fold the last spilled source into a memory operand.
                    for position in range(len(instr.srcs) - 1, -1, -1):
                        if instr.srcs[position] in slot_of:
                            folded_index = position
                            break
                for position, reg in enumerate(instr.srcs):
                    if reg in slot_of:
                        disp = spill_base + 8 * slot_of[reg]
                        if position == folded_index:
                            instr.mem_src = (position, disp)
                            new_srcs.append(phys(self.scratch[0]))
                            continue
                        scratch_reg = phys(next(scratch_iter))
                        loads.append(MachineInstr(
                            MOp.LOAD, dst=scratch_reg, srcs=(FRAME_REG,),
                            imm=disp, size=8,
                        ))
                        new_srcs.append(scratch_reg)
                    else:
                        new_srcs.append(phys(alloc_of[reg]))
                instr.srcs = tuple(new_srcs)
                if instr.dst is not None:
                    if instr.dst in slot_of:
                        scratch_reg = phys(self.scratch[0])
                        stores.append(MachineInstr(
                            MOp.STORE, srcs=(scratch_reg, FRAME_REG),
                            imm=spill_base + 8 * slot_of[instr.dst], size=8,
                        ))
                        instr.dst = scratch_reg
                    else:
                        instr.dst = phys(alloc_of[instr.dst])
                rewritten.extend(loads)
                rewritten.append(instr)
                rewritten.extend(stores)
            block.instructions = rewritten


#: The frame pointer in rewritten code: a reserved pseudo-physical
#: register that encoders map to their target's frame register.
FRAME_REG = phys(1000)
