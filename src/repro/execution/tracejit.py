"""The trace-compiling JIT tier (paper sections 3.4-3.5).

"Once hot paths are identified, we duplicate the original code into a
trace, perform optimizations on it, and then regenerate native code
into a software-managed trace cache.  We then insert branches between
the original code and the new native code."

This module is that loop, with Python as the "native code": block-entry
counters promote a hot block to *recording mode*, the next completed
cycle through it becomes a trace, and the trace is compiled with
``compile()``/``exec`` into one specialized Python closure — a
straight-line unrolling of the hot path with the interpreter's dispatch,
operand lookup, and constant evaluation all burned away.  Compiled
traces live in a software trace cache, :attr:`TraceManager.traces`,
keyed by the header block object, one trace per header, and are
dispatched from the interpreter's block-entry hook.  A trace is kept
for the manager's whole life: only reoptimization invalidates the
cache, because the IR underneath the closures is about to be
rewritten.  The same block event is the lifelong profile (section
3.6): the manager counts every entry into its
:class:`~repro.profile.ProfileData`, and each trace run credits the
blocks it entered, so the counts are a plain interpreted run's.

Every speculative assumption a trace makes is protected by a *guard*:

* **branch guards** — a conditional branch must go the recorded way;
* **switch guards** — the selector must route to the recorded case;
* **call-target guards** — an indirect call must still resolve to an
  external (runtime-library) function;
* **type guards** — live-in registers must carry the representation
  (``int``/``bool``/``float``) the specialized code was compiled for
  (widths need no dynamic check: the interpreter's wrap invariant keeps
  every register inside its declared type's range);
* **null guards** — ``getelementptr`` keeps the interpreter's
  null-base trap by side-exiting before the faulting address compute.

A failed guard *side-exits*: it sets its exit number and breaks out
of the trace loop into the one tail every exit shares.  The tail reads
the exit's row of a table, points ``frame.block`` / ``frame.index`` at
the instruction the interpreter must re-execute, syncs the step
counter, writes back each register the exit's body position needs, and
returns.  The interpreter continues as if it had run every instruction
itself — reconstruction is total by construction, which is what the
differential jit-gate measures.

Arithmetic is derived, not restated: a binary operator, shift or cast
is its row of :mod:`repro.core.constfold`'s table — the same expression
text the interpreter's evaluators are compiled from — inlined over the
trace's locals, with ``constfold.NAMESPACE`` (the helpers a row may
call: the division traps, the NaN rules, the float32 re-round) in the
closure's globals.  The recorder likewise borrows the interpreter's
``gep_layout``, ``constant_value`` and ``Memory.scalar_format`` rather
than keep a layout walk, an undef rule or a format table of its own.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

from ..core import constfold
from ..core.basicblock import BasicBlock
from ..core.instructions import (
    AllocaInst, BinaryOperator, BranchInst, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, LoadInst, MallocInst, PhiNode,
    ShiftInst, StoreInst, SwitchInst,
)
from ..core.module import Function, GlobalVariable
from ..core.values import (
    Argument, ConstantBool, ConstantExpr, ConstantInt, Value,
)
from ..profile.collector import ProfileData
from .memory import OFFSET_BITS, OFFSET_MASK


class Untraceable(Exception):
    """The recorded path contains something the compiler cannot
    specialize (a call into compiled IR, an invoke, arithmetic the
    table has no row for); the header is blacklisted and stays
    interpreted."""


class TraceJITStats:
    """Counters surfaced through ``-stats`` as the ``jit`` source."""

    name = "jit"

    def __init__(self):
        self.traces_compiled = 0
        self.trace_entries = 0
        self.trace_iterations = 0
        self.guard_exits = 0
        self.budget_exits = 0
        self.steps_saved = 0
        self.entry_fallbacks = 0
        self.recordings_aborted = 0
        self.invalidations = 0

    def statistics(self) -> dict[str, int]:
        """The ``-stats`` rows: every counter above, hyphenated."""
        return {name.replace("_", "-"): value
                for name, value in vars(self).items()}


class CompiledTrace:
    """One compiled hot path: the closure plus the IR it was built from
    (the header block keys :attr:`TraceManager.traces`)."""

    __slots__ = ("fn", "function_name", "header", "path", "steps_per_iter",
                 "source")

    def __init__(self, fn, function_name: str, header: BasicBlock,
                 path: list[BasicBlock], steps_per_iter: int, source: str):
        self.fn = fn
        self.function_name = function_name
        self.header = header
        self.path = path
        self.steps_per_iter = steps_per_iter
        self.source = source

    @property
    def key(self) -> tuple[str, str]:
        """A reporting label; the trace cache keys by the header block."""
        return (self.function_name, self.header.name)


class _Recording:
    __slots__ = ("frame", "anchor", "path")

    def __init__(self, frame, anchor: BasicBlock):
        self.frame = frame
        self.anchor = anchor
        self.path = [anchor]


class TraceManager:
    """Drives the record -> compile -> dispatch loop from the
    interpreter's block-entry events.

    One manager (and its trace cache) may outlive many
    :class:`Interpreter` instances over the same module — the compiled
    closures resolve memory, globals, and externals through the
    interpreter they are handed at each entry, which is what lets a
    :class:`~repro.driver.lifelong.LifelongSession` keep its trace
    cache warm across end-user runs.  :attr:`profile` counts every
    interpreted block entry, and each trace run credits it with the
    blocks the trace entered (the closure returns its full iterations
    and the path position it left from).
    """

    name = "jit"

    #: A recording longer than this many blocks is aborted, and a
    #: header whose recordings abort this often is blacklisted.
    max_blocks = 32
    max_aborts = 3

    def __init__(self, hot_threshold: int = 50):
        self.hot_threshold = hot_threshold
        self.stats = TraceJITStats()
        #: The software trace cache: one trace per header block, kept
        #: until :meth:`invalidate_all`.  Every table here is keyed by
        #: the block object itself (block names repeat after inlining).
        self.traces: dict[BasicBlock, CompiledTrace] = {}
        self._counts: dict[BasicBlock, int] = {}
        self._aborts: dict[BasicBlock, int] = {}
        self._blacklist: set[BasicBlock] = set()
        self._recording: Optional[_Recording] = None
        #: Every block entry of every run, interpreted or traced.
        self.profile = ProfileData()

    def attach(self, interpreter) -> None:
        """Hook this manager into one interpreter's block events."""
        self._recording = None
        interpreter.block_hook = self

    def statistics(self) -> dict[str, int]:
        return self.stats.statistics()

    def invalidate_all(self) -> int:
        """Reoptimization rewrote the IR: every compiled closure and
        every hotness counter refers to dead blocks.  The profile is
        the reoptimizer's input and stays."""
        dropped = len(self.traces)
        self.traces.clear()
        self._counts.clear()
        self._aborts.clear()
        self._blacklist.clear()
        self._recording = None
        self.stats.invalidations += dropped
        return dropped

    # -- the block-entry event --------------------------------------------

    def on_block(self, interpreter, frame, block: BasicBlock) -> None:
        self.profile.count(block)
        recording = self._recording
        if recording is not None:
            if frame is recording.frame:
                if block is recording.anchor:
                    self._finish_recording(interpreter, frame)
                    return
                recording.path.append(block)
                if len(recording.path) > self.max_blocks:
                    self._abort_recording()
                return
            # The program left the recording frame (a call, a return, an
            # unwind): the cycle did not close.  Abort, then treat this
            # entry as an ordinary event for its own block.
            self._abort_recording()
        trace = self.traces.get(block)
        if trace is not None:
            self._run_trace(interpreter, frame, trace)
            return
        count = self._counts.get(block, 0) + 1
        self._counts[block] = count
        if count >= self.hot_threshold and block not in self._blacklist:
            if block is frame.function.blocks[0]:
                # Nothing branches back to an entry block: a recording
                # anchored there could never close.
                self._blacklist.add(block)
            else:
                self._recording = _Recording(frame, block)

    def _run_trace(self, interpreter, frame, trace: CompiledTrace) -> None:
        self.stats.trace_entries += 1
        left = trace.fn(frame, interpreter, self.stats)
        if left is None:
            self.stats.entry_fallbacks += 1
        else:
            self.profile.credit_trace(trace, *left)

    # -- recording lifecycle ----------------------------------------------

    def _abort_recording(self) -> None:
        anchor = self._recording.anchor
        self._recording = None
        self.stats.recordings_aborted += 1
        aborts = self._aborts.get(anchor, 0) + 1
        self._aborts[anchor] = aborts
        if aborts >= self.max_aborts:
            self._blacklist.add(anchor)
        self._counts[anchor] = 0  # must get hot again before the next try

    def _finish_recording(self, interpreter, frame) -> None:
        recording = self._recording
        self._recording = None
        try:
            trace = compile_trace(interpreter, frame.function, recording.path)
        except Untraceable:
            self.stats.recordings_aborted += 1
            self._blacklist.add(recording.anchor)  # deterministic: no retry
            return
        self.traces[trace.header] = trace
        self.stats.traces_compiled += 1
        # Re-arm the hotness counters of every block the trace covers:
        # a rotation of the same cycle (or a hot side-exit target) must
        # earn another full threshold of *interpreted* entries — which
        # the new trace now absorbs — before anchoring its own trace.
        # Hot guard exits keep accumulating real entries, so trace
        # trees still grow along genuinely hot side exits.
        for block in trace.path:
            self._counts[block] = 0
        # The frame sits at the freshly re-entered header: enter the
        # trace immediately.
        self._run_trace(interpreter, frame, trace)


# ===========================================================================
# The trace compiler
# ===========================================================================


def compile_trace(interpreter, function: Function,
                  path: list[BasicBlock]) -> CompiledTrace:
    """Compile one recorded cycle into a guarded Python closure."""
    compiler = _TraceCompiler(interpreter, function, path)
    return compiler.compile()


def _literal(value) -> str:
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


class _TraceCompiler:
    def __init__(self, interpreter, function: Function,
                 path: list[BasicBlock]):
        self.interpreter = interpreter
        self.function = function
        self.path = path
        self.layout = function.parent.data_layout
        #: id(value) -> local variable name.
        self.names: dict[int, str] = {}
        #: ids read before being defined on the path (loaded from the
        #: frame in the prologue; a miss or type mismatch falls back).
        self.live_ins: dict[int, Value] = {}
        #: ids assigned on the path -> body position of the first
        #: definition (used to filter side-exit writebacks: a name
        #: first defined after the exit point is re-created by the
        #: interpreter before any use can see it).
        self.defined: dict[int, int] = {}
        #: id -> body position of the last on-trace read (side exits
        #: past it skip the writeback for block-local values).
        self.last_use: dict[int, int] = {}
        #: id -> all uses live in the defining block (see
        #: :meth:`_is_block_local`).
        self.block_local: dict[int, bool] = {}
        #: exec-globals for the closure: what a row of constfold's table
        #: may call, then blocks, types, IR constants...
        self.env: dict[str, object] = dict(constfold.NAMESPACE)
        self._env_ids: dict[int, str] = {}
        #: symbolic constants resolved per entry (globals, functions,
        #: constant expressions: their addresses are per-interpreter).
        self.sym_consts: dict[int, str] = {}
        #: direct external callees: var name -> external name.
        self.externals: dict[str, str] = {}
        self.body: list[str] = []
        #: The side exits' rows, by exit number; exit 0 is the budget
        #: check at the top of the loop (see :meth:`_tail_lines`).
        self.exits: list[tuple] = [
            (path[0], path[0].first_non_phi_index(), 0, "budget_exits", 0, 0)]
        self.steps_per_iter = 0
        #: Path position of the block being emitted: an exit there has
        #: entered ``path[1:at + 1]`` since the header.
        self.at = 0
        self.uses_memory: set[str] = set()
        #: The inline load/store fast path binds ``_mem.allocations``.
        self.uses_allocs = False
        self.uses_indirect = False
        self.uses_alloca = False
        self.uses_call = False

    # -- naming -----------------------------------------------------------

    def _env_ref(self, prefix: str, obj) -> str:
        name = self._env_ids.get(id(obj))
        if name is None:
            name = f"_{prefix}{len(self._env_ids)}"
            self._env_ids[id(obj)] = name
            self.env[name] = obj
        return name

    def ref(self, value: Value) -> str:
        """Render a read of ``value`` at the current path position."""
        if isinstance(value, (Instruction, Argument)):
            vid = id(value)
            name = self.names.get(vid)
            if name is None:
                name = f"v{len(self.names)}"
                self.names[vid] = name
                self.live_ins[vid] = value
            self.last_use[vid] = len(self.body)
            return name
        return self.const_ref(value)

    def define(self, value: Value) -> str:
        vid = id(value)
        name = self.names.get(vid)
        if name is None:
            name = f"v{len(self.names)}"
            self.names[vid] = name
        if vid not in self.defined:
            self.defined[vid] = len(self.body)
            self.block_local[vid] = self._is_block_local(value)
        return name

    @staticmethod
    def _is_block_local(inst) -> bool:
        """True when every use of ``inst`` sits in its own block (a
        straight-line temporary).  Such a value can only be read again
        after its defining instruction re-executes, so a side exit past
        its last on-trace use need not write it back.  Phi users escape:
        they read the value at edge entry, before the block body."""
        block = getattr(inst, "parent", None)
        if block is None:
            return False
        for user in inst.users():
            if isinstance(user, PhiNode):
                return False
            if getattr(user, "parent", None) is not block:
                return False
        return True

    def const_ref(self, constant) -> str:
        # Globals, functions and constant expressions over them have
        # per-interpreter addresses and a trace outlives its
        # interpreter: they are symbols resolved at each entry.
        # Everything else is a value the interpreter states once.
        if isinstance(constant, (Function, GlobalVariable, ConstantExpr)):
            return self._sym_const(constant)
        value = self.interpreter.constant_value(constant)
        if isinstance(value, float) and not math.isfinite(value):
            return self._sym_const(constant)  # nan/inf have no literal
        return _literal(value)

    def _sym_const(self, constant) -> str:
        entry = self.sym_consts.get(id(constant))
        if entry is None:
            name = f"g{len(self.sym_consts)}"
            self.sym_consts[id(constant)] = (name, constant)
            self.env[f"_K{name}"] = constant
            return name
        return entry[0]

    # -- compilation ------------------------------------------------------

    def compile(self) -> CompiledTrace:
        path = self.path
        for index, block in enumerate(path):
            self.at = index
            previous = path[index - 1] if index else None
            if previous is not None:
                self._emit_phi_moves(previous, block)
            self._emit_block_body(block)
            successor = path[index + 1] if index + 1 < len(path) else path[0]
            self._emit_terminator(block, successor)
        # Close the cycle: the back edge re-enters the header's phis.
        self._emit_phi_moves(path[-1], path[0])
        total = self.steps_per_iter
        self.body.append(f"        steps += {total}")
        self.body.append("        iters += 1")
        source = self._render(total)
        env = dict(self.env)
        env["_EXITS"] = tuple(self.exits)
        code = compile(source, f"<trace {self.function.name}:"
                               f"{path[0].name}>", "exec")
        exec(code, env)
        return CompiledTrace(env["__lc_trace"], self.function.name, path[0],
                             list(path), total, source)

    def _render(self, steps_per_iter: int) -> str:
        lines = ["def __lc_trace(frame, interp, stats):",
                 "    R = frame.registers"]
        live = [(vid, self.names[vid]) for vid in self.live_ins]
        # Global addresses are one dict lookup each; resolve them under
        # the same KeyError fallback as the live-in registers.  Other
        # symbolic constants (functions, constant expressions) go
        # through the interpreter's full resolver.
        global_loads = []
        slow_consts = []
        for name, constant in self.sym_consts.values():
            if isinstance(constant, GlobalVariable):
                global_loads.append(f"{name} = _GA[{id(constant)}]")
            else:
                slow_consts.append(name)
        if global_loads:
            lines.append("    _GA = interp.global_addresses")
        if live or global_loads:
            lines.append("    try:")
            for vid, name in live:
                lines.append(f"        {name} = R[{vid}]")
            for load in global_loads:
                lines.append(f"        {load}")
            lines.append("    except KeyError:")
            lines.append("        return None")
        guards = []
        for vid, value in self.live_ins.items():
            check = self._type_check(value.type, self.names[vid])
            if check is not None:
                guards.append(check)
        if guards:
            lines.append(f"    if {' or '.join(guards)}:")
            lines.append("        return None")
        for var, external_name in self.externals.items():
            lines.append(f"    {var} = interp.externals.get("
                         f"{external_name!r})")
            lines.append(f"    if {var} is None:")
            lines.append("        return None")
        for name in slow_consts:
            lines.append(f"    {name} = interp.constant_value(_K{name})")
        if self.uses_memory or self.uses_indirect:
            lines.append("    _mem = interp.memory")
        for method in sorted(self.uses_memory):
            lines.append(f"    _{method} = _mem.{method}")
        if self.uses_allocs:
            lines.append("    _allocs = _mem.allocations")
        if self.uses_indirect:
            lines.append("    _fnat = _mem.function_at")
            lines.append("    _X = interp.externals")
            lines.append("    _LL = interp.lazy_loader")
        if self.uses_alloca:
            lines.append("    _aap = frame.allocas.append")
        if self.uses_call:
            lines.append("    _VA = frame.va_area")
        lines.append("    steps = interp.steps")
        lines.append("    _s0 = steps")
        lines.append("    _limit = interp.step_limit")
        lines.append("    iters = 0")
        lines.append("    while True:")
        lines.append(f"        if steps + {steps_per_iter} > _limit:")
        lines.append("            _x = 0")
        lines.append("            break")
        lines.extend(self.body)
        lines.extend(self._tail_lines())
        return "\n".join(lines) + "\n"

    def _type_check(self, ty, name: str) -> Optional[str]:
        if ty.is_bool:
            return f"type({name}) is not bool"
        if ty.is_integer or ty.is_pointer:
            return f"type({name}) is not int"
        if ty.is_floating:
            return f"type({name}) is not float"
        return None

    def _tail_lines(self) -> list[str]:
        """The one exit every guard breaks to: sync steps, point the
        frame at the instruction to re-execute, write back registers,
        hand control back with ``(full iterations, path position left
        from)``.  The exit's row of ``_EXITS`` is ``(block, index,
        steps, counter, position, path position)``."""
        return [
            "    _b, _i, _c, _k, _p, _a = _EXITS[_x]",
            "    steps += _c",
            "    interp.steps = steps",
            "    frame.block = _b",
            "    frame.index = _i",
            "    setattr(stats, _k, getattr(stats, _k) + 1)",
            "    stats.trace_iterations += iters",
            "    stats.steps_saved += steps - _s0",
            *self._writeback_lines(),
            "    return iters, _a",
        ]

    def _writeback_lines(self) -> list[str]:
        """Restore every register the trace may have redefined, chosen
        by the body position ``_p`` of the exit taken.

        A name that is live-in, or first defined before the exit point,
        was certainly assigned this pass and holds the correct current
        value.  A name first defined *after* the exit point holds its
        value from the previous iteration — which off-trace code may
        still read — but only exists once a full iteration has
        completed, so its writeback is gated on ``iters`` (which also
        keeps the first, partial pass from touching an unbound local).
        A straight-line temporary (:meth:`_is_block_local`) off-trace
        code can only read after re-executing its def, except along the
        window between its def and its last pending use.

        Each condition is stated over the exit positions that satisfy
        it, so names sharing one share a single test.
        """
        positions = sorted(row[4] for row in self.exits)
        groups: dict[Optional[str], list[str]] = {}
        for vid, first_def in self.defined.items():
            if vid in self.live_ins:
                condition = None
            elif self.block_local.get(vid):
                window = [p for p in positions
                          if first_def < p <= self.last_use.get(vid, -1)]
                if not window:
                    continue
                condition = f"{window[0]} <= _p <= {window[-1]}"
            else:
                later = [p for p in positions if p > first_def]
                condition = f"iters or _p >= {later[0]}" if later else "iters"
            groups.setdefault(condition, []).append(
                f"R[{vid}] = {self.names[vid]}")
        lines = []
        for condition, writes in groups.items():
            if condition is None:
                lines.extend("    " + write for write in writes)
            else:
                lines.append(f"    if {condition}:")
                lines.extend("        " + write for write in writes)
        return lines

    def _guard(self, condition: str, block: BasicBlock, index: int) -> None:
        """Emit ``if condition:`` leaving the loop by a new exit that
        resumes the interpreter at ``block[index]``."""
        self.exits.append((block, index, self.steps_per_iter,
                           "guard_exits", len(self.body), self.at))
        self.body.append(f"        if {condition}:")
        self.body.append(f"            _x = {len(self.exits) - 1}")
        self.body.append("            break")

    # -- per-block emission ------------------------------------------------

    def _emit_phi_moves(self, predecessor: BasicBlock,
                        block: BasicBlock) -> None:
        phis = []
        for inst in block.instructions:
            if not isinstance(inst, PhiNode):
                break
            incoming = inst.incoming_for_block(predecessor)
            if incoming is None:
                raise Untraceable(f"phi {inst.name!r} missing edge")
            phis.append((inst, incoming))
        if not phis:
            return
        # Phis read their incoming values simultaneously; a tuple
        # assignment packs all the reads before any write lands.
        sources = [self.ref(incoming) for _, incoming in phis]
        targets = [self.define(phi) for phi, _ in phis]
        self.body.append(f"        {', '.join(targets)} = "
                         f"{', '.join(sources)}")

    def _emit_block_body(self, block: BasicBlock) -> None:
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, PhiNode):
                continue
            if inst is block.instructions[-1]:
                break  # terminator handled by _emit_terminator
            self._emit_instruction(block, index, inst)

    def _emit_terminator(self, block: BasicBlock,
                         successor: BasicBlock) -> None:
        term = block.instructions[-1]
        index = len(block.instructions) - 1
        if isinstance(term, BranchInst):
            if term.is_conditional:
                true_dest, false_dest = term.operands[1], term.operands[2]
                if true_dest is not false_dest:
                    condition = self.ref(term.condition)
                    if successor is true_dest:
                        self._guard(f"not {condition}", block, index)
                    elif successor is false_dest:
                        self._guard(condition, block, index)
                    else:
                        raise Untraceable("recorded successor is not a "
                                          "branch target")
                elif successor is not true_dest:
                    raise Untraceable("recorded successor is not a "
                                      "branch target")
            elif successor is not term.operands[0]:
                raise Untraceable("recorded successor is not a "
                                  "branch target")
        elif isinstance(term, SwitchInst):
            self._emit_switch_guard(term, block, index, successor)
        else:
            # return / invoke / unwind end the cycle some other way.
            raise Untraceable(f"terminator {type(term).__name__}")
        self.steps_per_iter += 1  # the taken terminator

    def _emit_switch_guard(self, term: SwitchInst, block: BasicBlock,
                           index: int, successor: BasicBlock) -> None:
        selector = self.ref(term.value)
        first_match: dict[object, BasicBlock] = {}
        for case_value, case_dest in term.cases:
            if not isinstance(case_value, (ConstantInt, ConstantBool)):
                raise Untraceable("non-literal switch case")
            first_match.setdefault(case_value.value, case_dest)
        to_successor = frozenset(
            v for v, d in first_match.items() if d is successor)
        elsewhere = frozenset(
            v for v, d in first_match.items() if d is not successor)
        if successor is term.default_dest:
            if elsewhere:
                guard_set = self._env_ref("S", elsewhere)
                self._guard(f"{selector} in {guard_set}", block, index)
        elif to_successor:
            guard_set = self._env_ref("S", to_successor)
            self._guard(f"{selector} not in {guard_set}", block, index)
        else:
            raise Untraceable("recorded successor is not a switch target")

    # -- per-instruction emission -----------------------------------------

    def _emit(self, line: str) -> None:
        self.body.append("        " + line)

    def _emit_instruction(self, block: BasicBlock, index: int,
                          inst: Instruction) -> None:
        if isinstance(inst, BinaryOperator):
            self._emit_table(inst, constfold.binary_expression,
                             inst.opcode, inst.operands[0].type)
        elif isinstance(inst, ShiftInst):
            self._emit_table(inst, constfold.shift_expression,
                             inst.opcode, inst.type)
        elif isinstance(inst, CastInst):
            self._emit_table(inst, constfold.cast_expression,
                             inst.value.type, inst.type)
        elif isinstance(inst, LoadInst):
            self._emit_load(inst)
        elif isinstance(inst, StoreInst):
            self._emit_store(inst)
        elif isinstance(inst, GetElementPtrInst):
            self._emit_gep(block, index, inst)
        elif isinstance(inst, CallInst):
            self._emit_call(block, index, inst)
        elif isinstance(inst, (MallocInst, AllocaInst)):
            self.uses_memory.add("allocate")
            size = self.layout.size_of(inst.allocated_type)
            if inst.array_size is not None:
                count = self.ref(inst.array_size)
                expression = f"{size} * {count}"
            else:
                expression = str(size)
            kind = "heap" if isinstance(inst, MallocInst) else "stack"
            name = self.define(inst)
            self._emit(f"{name} = _allocate({expression}, {kind!r})")
            if kind == "stack":
                self.uses_alloca = True
                self._emit(f"_aap({name})")
        elif isinstance(inst, FreeInst):
            self.uses_memory.add("free")
            self._emit(f"_free({self.ref(inst.pointer)})")
        else:
            # invoke, unwind, vaarg, phi-out-of-position, return...
            raise Untraceable(f"instruction {type(inst).__name__}")
        self.steps_per_iter += 1

    def _mem_fmt(self, ty, verb: str) -> Optional[str]:
        """struct format char for an inline memory access; None for a
        bool, which memory keeps as a byte it tests."""
        if ty.is_bool:
            return None
        return self.interpreter.memory.scalar_format(ty, verb)

    def _struct_helper(self, kind: str, fmt: str) -> str:
        name = f"_{kind}_{fmt}"
        if name not in self.env:
            packed = struct.Struct("<" + fmt)
            self.env[name] = (packed.unpack_from if kind == "up"
                              else packed.pack_into)
        if kind == "pk":
            self.env["_SE"] = struct.error
        self.uses_allocs = True
        return name

    def _emit_load(self, inst: LoadInst) -> None:
        self.uses_memory.add("load")
        pointer = self.ref(inst.pointer)
        ty = self._env_ref("T", inst.type)
        dest = self.define(inst)
        fmt = self._mem_fmt(inst.type, "load")
        if fmt is None:
            self._emit(f"{dest} = _load({pointer}, {ty})")
            return
        # Fast path: decode straight out of the allocation's bytearray.
        # Anything irregular — null, unmapped, a function address, an
        # out-of-bounds offset — delegates to Memory.load for the
        # interpreter's exact fault.  A "code" allocation holds one
        # byte, so the bounds check rejects it for multi-byte widths;
        # only single-byte loads test the kind explicitly.
        size = struct.calcsize("<" + fmt)
        unpack = self._struct_helper("up", fmt)
        kind = " _al.kind != 'code' and" if size == 1 else ""
        self._emit("try:")
        self._emit(f"    _al = _allocs[{pointer} >> {OFFSET_BITS}]")
        self._emit(f"    _o = {pointer} & {OFFSET_MASK}")
        self._emit(f"    if{kind} _o + {size} <= len(_d := _al.data):")
        self._emit(f"        {dest} = {unpack}(_d, _o)[0]")
        self._emit("    else:")
        self._emit(f"        {dest} = _load({pointer}, {ty})")
        self._emit("except KeyError:")
        self._emit(f"    {dest} = _load({pointer}, {ty})")

    def _emit_store(self, inst: StoreInst) -> None:
        self.uses_memory.add("store")
        value = self.ref(inst.value)
        pointer = self.ref(inst.pointer)
        value_type = inst.value.type
        ty = self._env_ref("T", value_type)
        fmt = self._mem_fmt(value_type, "store")
        if fmt is None:
            self._emit(f"_store({pointer}, {ty}, {value})")
            return
        size = struct.calcsize("<" + fmt)
        pack = self._struct_helper("pk", fmt)
        if value_type.is_pointer:
            # Pointer arithmetic can carry past 2**64 (Memory.store
            # masks); mask here so pack_into never sees it.
            value = f"{value} & {(1 << (size * 8)) - 1}"
        kind = " _al.kind != 'code' and" if size == 1 else ""
        self._emit("try:")
        self._emit(f"    _al = _allocs[{pointer} >> {OFFSET_BITS}]")
        self._emit(f"    _o = {pointer} & {OFFSET_MASK}")
        self._emit(f"    if{kind} not _al.frozen "
                   f"and _o + {size} <= len(_d := _al.data):")
        self._emit(f"        {pack}(_d, _o, {value})")
        self._emit("    else:")
        self._emit(f"        _store({pointer}, {ty}, {value})")
        self._emit("except (KeyError, _SE):")
        self._emit(f"    _store({pointer}, {ty}, {value})")

    def _emit_table(self, inst: Instruction, expression, *key) -> None:
        """A binary operator, shift or cast is its row of constfold's
        table, inlined over the operands."""
        try:
            text = expression(*key)
        except (ValueError, TypeError) as error:
            raise Untraceable(str(error)) from None
        operands = [self.ref(operand) for operand in inst.operands]
        self._emit(f"{self.define(inst)} = "
                   + text.format(**dict(zip("ab", operands))))

    def _emit_gep(self, block: BasicBlock, index: int,
                  inst: GetElementPtrInst) -> None:
        base = self.ref(inst.pointer)
        # The interpreter traps on a null base before computing the
        # offset; keep that by side-exiting to re-execute the gep.
        self._guard(f"not {base}", block, index)
        offset, scaled = self.interpreter.gep_layout(
            inst.pointer.type, inst.indices)
        expression = base
        if offset:
            expression += f" + {_literal(offset)}"
        for operand, scale in scaled:
            expression += f" + {self.ref(operand)}"
            if scale != 1:
                expression += f" * {scale}"
        self._emit(f"{self.define(inst)} = {expression}")

    def _emit_call(self, block: BasicBlock, index: int,
                   inst: CallInst) -> None:
        callee = inst.operands[0]
        arguments = [self.ref(argument) for argument in inst.operands[1:]]
        argument_list = ", ".join(arguments)
        self.uses_call = True
        # The call instruction itself is counted before the external
        # body runs, exactly like the interpreter's step accounting.
        cum = self.steps_per_iter + 1
        if isinstance(callee, Function):
            lazy = self.interpreter.lazy_loader
            if callee.is_declaration and lazy is not None:
                lazy(callee)
            if not callee.is_declaration:
                raise Untraceable("call into compiled IR")
            var = f"_x{len(self.externals)}"
            existing = [v for v, n in self.externals.items()
                        if n == callee.name]
            var = existing[0] if existing else var
            self.externals[var] = callee.name
            self._emit("interp.current_va_area = _VA")
            self._emit(f"interp.steps = steps + {cum}")
            target = var
        else:
            # Indirect call: guard that the pointer still resolves to a
            # runtime-library function; anything else side-exits to the
            # interpreter (which knows how to push a frame or trap).
            self.uses_indirect = True
            pointer = self.ref(callee)
            self._emit(f"_cf = _fnat({pointer})")
            self._emit("if _LL is not None and _cf.is_declaration:")
            self._emit("    _LL(_cf)")
            self._guard("not _cf.is_declaration", block, index)
            self._emit("_ci = _X.get(_cf.name)")
            self._guard("_ci is None", block, index)
            self._emit("interp.current_va_area = _VA")
            self._emit(f"interp.steps = steps + {cum}")
            target = "_ci"
        if inst.type.is_void:
            self._emit(f"{target}(interp, [{argument_list}])")
        else:
            self._emit(f"{self.define(inst)} = {target}(interp, "
                       f"[{argument_list}])")
