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
traces live in a software :class:`TraceCache` keyed by
``(function, header)`` and are dispatched from the interpreter's
block-entry hook; reoptimization invalidates the whole cache because
the IR underneath the closures is about to be rewritten.

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

A failed guard *side-exits*: the closure writes every register the
trace has defined back into the frame, points ``frame.block`` /
``frame.index`` at the instruction the interpreter must re-execute,
syncs the step counter, and returns.  The interpreter continues as if
it had run every instruction itself — reconstruction is total by
construction, which is what the differential jit-gate measures.

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
        self.traces_evicted = 0
        self.invalidations = 0
        #: Side exits whose interpreter state could not be rebuilt.
        #: Reconstruction is total by construction, so any nonzero
        #: value here is a compiler bug; the jit-gate asserts zero.
        self.unreconstructed_exits = 0

    def statistics(self) -> dict[str, int]:
        """The ``-stats`` rows: every counter above, hyphenated."""
        return {name.replace("_", "-"): value
                for name, value in vars(self).items()}


class CompiledTrace:
    """One compiled hot path: the closure plus the IR it was built from
    (holding the block references also pins their ids, which keys the
    dispatch table)."""

    __slots__ = ("fn", "function_name", "header", "path", "steps_per_iter",
                 "source", "entries", "saved")

    def __init__(self, fn, function_name: str, header: BasicBlock,
                 path: list[BasicBlock], steps_per_iter: int, source: str):
        self.fn = fn
        self.function_name = function_name
        self.header = header
        self.path = path
        self.steps_per_iter = steps_per_iter
        self.source = source
        self.entries = 0
        self.saved = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.function_name, self.header.name)


class TraceCache:
    """The software trace cache: (function name, header name) -> trace,
    with an identity-checked dispatch index by header block."""

    def __init__(self):
        self._by_key: dict[tuple[str, str], CompiledTrace] = {}
        self._by_block: dict[int, CompiledTrace] = {}

    def __len__(self) -> int:
        return len(self._by_key)

    def traces(self) -> list[CompiledTrace]:
        return list(self._by_key.values())

    def install(self, trace: CompiledTrace) -> None:
        old = self._by_key.get(trace.key)
        if old is not None:
            self._by_block.pop(id(old.header), None)
        self._by_key[trace.key] = trace
        self._by_block[id(trace.header)] = trace

    def lookup(self, block: BasicBlock) -> Optional[CompiledTrace]:
        trace = self._by_block.get(id(block))
        if trace is not None and trace.header is block:
            return trace
        return None

    def remove(self, trace: CompiledTrace) -> None:
        if self._by_key.get(trace.key) is trace:
            del self._by_key[trace.key]
        self._by_block.pop(id(trace.header), None)

    def invalidate_all(self) -> int:
        count = len(self._by_key)
        self._by_key.clear()
        self._by_block.clear()
        return count


class _Recording:
    __slots__ = ("frame", "anchor", "path")

    def __init__(self, frame, anchor: BasicBlock):
        self.frame = frame
        self.anchor = anchor
        self.path = [anchor]


class TraceManager:
    """Drives the record -> compile -> dispatch loop from the
    interpreter's block-entry events.

    One manager (and its cache) may outlive many :class:`Interpreter`
    instances over the same module — the compiled closures resolve
    memory, globals, and externals through the interpreter they are
    handed at each entry, which is what lets a
    :class:`~repro.driver.lifelong.LifelongSession` keep its trace
    cache warm across end-user runs.  A profile attached over the
    manager sees only interpreted block entries, so each trace run
    credits it with the blocks the trace entered (the closure returns
    its full iterations and the path position it left from).
    """

    name = "jit"

    #: After this many entries, a trace saving fewer than
    #: :attr:`min_saved_per_entry` interpreter steps per entry costs
    #: more in prologue/writeback than it saves — evict it.
    eviction_window = 32
    min_saved_per_entry = 24
    #: A recording longer than this many blocks is aborted, and a
    #: header whose recordings abort this often is blacklisted.
    max_blocks = 32
    max_aborts = 3

    def __init__(self, hot_threshold: int = 50,
                 cache: Optional[TraceCache] = None,
                 stats: Optional[TraceJITStats] = None):
        self.hot_threshold = hot_threshold
        self.cache = cache if cache is not None else TraceCache()
        self.stats = stats if stats is not None else TraceJITStats()
        self._counts: dict[int, int] = {}
        self._pins: dict[int, BasicBlock] = {}
        self._aborts: dict[int, int] = {}
        self._blacklist: set[int] = set()
        self._recording: Optional[_Recording] = None
        #: A :class:`repro.profile.ProfileData` attached over this
        #: manager, credited with the blocks each trace run covers.
        self.profile = None

    def attach(self, interpreter) -> None:
        """Hook this manager into one interpreter's block events."""
        self._recording = None
        self.profile = None
        interpreter.block_hook = self

    def statistics(self) -> dict[str, int]:
        return self.stats.statistics()

    def invalidate_all(self) -> int:
        """Reoptimization rewrote the IR: every compiled closure and
        every hotness counter refers to dead blocks."""
        dropped = self.cache.invalidate_all()
        self._counts.clear()
        self._pins.clear()
        self._aborts.clear()
        self._blacklist.clear()
        self._recording = None
        self.stats.invalidations += dropped
        return dropped

    # -- the block-entry event --------------------------------------------

    def on_block(self, interpreter, frame, block: BasicBlock) -> None:
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
        bid = id(block)
        trace = self.cache.lookup(block)
        if trace is not None:
            self._run_trace(interpreter, frame, trace)
            return
        count = self._counts.get(bid)
        if count is None:
            self._counts[bid] = 1
            self._pins[bid] = block
            return
        self._counts[bid] = count + 1
        if count + 1 >= self.hot_threshold and bid not in self._blacklist:
            self._recording = _Recording(frame, block)

    def _run_trace(self, interpreter, frame, trace: CompiledTrace) -> None:
        stats = self.stats
        stats.trace_entries += 1
        trace.entries += 1
        before = stats.steps_saved
        left = trace.fn(frame, interpreter, stats)
        if left is None:
            stats.entry_fallbacks += 1
        elif self.profile is not None:
            self.profile.credit_trace(trace.path, *left)
        trace.saved += stats.steps_saved - before
        if (trace.entries >= self.eviction_window
                and trace.saved
                < self.min_saved_per_entry * trace.entries):
            self.cache.remove(trace)
            self._blacklist.add(id(trace.header))
            stats.traces_evicted += 1

    # -- recording lifecycle ----------------------------------------------

    def _abort_recording(self) -> None:
        recording = self._recording
        self._recording = None
        self.stats.recordings_aborted += 1
        bid = id(recording.anchor)
        aborts = self._aborts.get(bid, 0) + 1
        self._aborts[bid] = aborts
        if aborts >= self.max_aborts:
            self._blacklist.add(bid)
        self._counts[bid] = 0  # must get hot again before the next try

    def _finish_recording(self, interpreter, frame) -> None:
        recording = self._recording
        self._recording = None
        try:
            trace = compile_trace(interpreter, frame.function, recording.path)
        except Untraceable:
            self.stats.recordings_aborted += 1
            self._blacklist.add(id(recording.anchor))  # deterministic: no retry
            return
        self.cache.install(trace)
        self.stats.traces_compiled += 1
        # Re-arm the hotness counters of every block the trace covers:
        # a rotation of the same cycle (or a hot side-exit target) must
        # earn another full threshold of *interpreted* entries — which
        # the new trace now absorbs — before anchoring its own trace.
        # Hot guard exits keep accumulating real entries, so trace
        # trees still grow along genuinely hot side exits.
        for block in trace.path:
            self._counts[id(block)] = 0
            self._pins.setdefault(id(block), block)
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
        self.body: list[object] = []  # str lines | ("WB", indent) markers
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
        code = compile(source, f"<trace {self.function.name}:"
                               f"{path[0].name}>", "exec")
        exec(code, env)
        return CompiledTrace(env["__lc_trace"], self.function.name, path[0],
                             list(path), total, source)

    def _render(self, steps_per_iter: int) -> str:
        header = self.path[0]
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
        budget = self._exit_lines(
            indent=12, block=header, index=self._first_non_phi(header),
            cum=0, counter="budget_exits", position=0, at=0)
        for entry in budget + self.body:
            if isinstance(entry, tuple):
                _, indent, position = entry
                pad = " " * indent
                lines.extend(pad + wb
                             for wb in self._writeback_lines(position))
            else:
                lines.append(entry)
        return "\n".join(lines) + "\n"

    def _type_check(self, ty, name: str) -> Optional[str]:
        if ty.is_bool:
            return f"type({name}) is not bool"
        if ty.is_integer or ty.is_pointer:
            return f"type({name}) is not int"
        if ty.is_floating:
            return f"type({name}) is not float"
        return None

    @staticmethod
    def _first_non_phi(block: BasicBlock) -> int:
        for index, inst in enumerate(block.instructions):
            if not isinstance(inst, PhiNode):
                return index
        return 0

    def _writeback_lines(self, position: int) -> list[str]:
        """Restore every register the trace may have redefined.

        A name that is live-in, or first defined before the exit point,
        was certainly assigned this pass and holds the correct current
        value.  A name first defined *after* the exit point holds its
        value from the previous iteration — which off-trace code may
        still read — but only exists once a full iteration has
        completed, so its writeback is gated on ``iters`` (which also
        keeps the first, partial pass from touching an unbound local).
        """
        always, gated = [], []
        for vid, first_def in self.defined.items():
            if vid not in self.live_ins and self.block_local.get(vid):
                # A straight-line temporary: off-trace code can only
                # read it after re-executing its def, except along the
                # window between its def and its last pending use.
                if first_def < position <= self.last_use.get(vid, -1):
                    always.append(f"R[{vid}] = {self.names[vid]}")
                continue
            if vid in self.live_ins or first_def < position:
                always.append(f"R[{vid}] = {self.names[vid]}")
            else:
                gated.append(f"    R[{vid}] = {self.names[vid]}")
        if gated:
            always.append("if iters:")
            always.extend(gated)
        return always

    def _exit_lines(self, indent: int, block: BasicBlock, index: int,
                    cum: int, counter: str, position: int,
                    at: int) -> list[object]:
        """A side exit: sync steps, point the frame at the instruction
        to re-execute, write back registers, hand control back with
        ``(full iterations, path position left from)``."""
        pad = " " * indent
        blk = self._env_ref("B", block)
        lines = [
            pad + f"interp.steps = steps + {cum}",
            pad + f"frame.block = {blk}",
            pad + f"frame.index = {index}",
            pad + f"stats.{counter} += 1",
            pad + "stats.trace_iterations += iters",
            pad + f"stats.steps_saved += steps + {cum} - _s0",
            ("WB", indent, position),
            pad + f"return iters, {at}",
        ]
        return lines

    def _guard(self, condition: str, block: BasicBlock, index: int) -> None:
        """Emit ``if condition: side-exit`` at body indent."""
        position = len(self.body)
        self.body.append(f"        if {condition}:")
        self.body.extend(self._exit_lines(
            indent=12, block=block, index=index, cum=self.steps_per_iter,
            counter="guard_exits", position=position, at=self.at))

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
