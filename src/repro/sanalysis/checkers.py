"""The checker catalogue: IR-level static checks built on the dataflow engine.

Each checker is a small class with a ``name``, a ``description``, and a
``check_module(module, reporter)`` entry point that appends structured
:class:`~repro.sanalysis.diagnostics.Diagnostic` values and never
mutates the IR.  The catalogue (see docs/ANALYSIS.md):

========================  =====================================================
``uninit``                load-before-store on promotable allocas
``null-deref``            dereference of a pointer proven null (sparse lattice)
``gep-bounds``            statically out-of-bounds constant array indexing
``dead-store``            stores to locals that are never read back
``unreachable``           basic blocks no path from the entry can reach
``call-signature``        calls through mismatched function-pointer casts,
                          plus cross-module symbol signature conflicts
``type-safety``           pointer casts whose target object DSA collapsed
``div-by-zero-range``     division by a value proven zero by range analysis
``shift-out-of-range``    shift amounts proven >= the operand's bit width
``definite-overflow``     signed arithmetic that wraps on every execution
========================  =====================================================

The first four are dataflow clients; ``gep-bounds`` is the *static*
complement of the SAFECode runtime-check pass (safecode.py): any index
it rejects here, safecode would have turned into a guaranteed trap at
run time.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..analysis.absint import (
    analyze_function, exact_binary_range, shape_bounds, shape_of,
)
from ..analysis.callgraph import direct_callee
from ..analysis.cfg import reachable_blocks, unreachable_blocks
from ..analysis.dataflow import (
    BACKWARD, DenseAnalysis, FORWARD, SparseAnalysis, solve_dense,
    solve_sparse,
)
from ..analysis.dsa import KNOWN_SAFE_EXTERNALS
from ..core import types
from ..core.instructions import (
    AllocaInst, AllocationInst, BinaryOperator, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, InvokeInst, LoadInst, Opcode, PhiNode,
    ShiftInst, StoreInst, VAArgInst,
)
from ..core.module import Function, GlobalValue, Module
from ..core.values import (
    Argument, ConstantExpr, ConstantInt, ConstantPointerNull, Value,
)
from ..transforms.mem2reg import is_promotable
from .diagnostics import Reporter, Severity


def _tracked_allocas(function: Function) -> list[AllocaInst]:
    """The allocas whose every access is visible: scalar slots whose
    address never escapes (exactly the ones mem2reg can promote)."""
    return [
        inst
        for block in function.blocks
        for inst in block.instructions
        if isinstance(inst, AllocaInst) and is_promotable(inst)
    ]


# ---------------------------------------------------------------------------
# uninit: use of uninitialized memory
# ---------------------------------------------------------------------------

class _InitState(DenseAnalysis):
    """Forward may/must initialization of tracked allocas.

    ``must`` mode: meet is intersection (initialized on *every* path);
    ``may`` mode: meet is union (initialized on *some* path).
    """

    direction = FORWARD

    def __init__(self, tracked: frozenset, must: bool):
        self.tracked = tracked
        self.must = must

    def boundary(self, function: Function):
        return frozenset()  # nothing is initialized on function entry

    def top(self, function: Function):
        return self.tracked if self.must else frozenset()

    def meet(self, a, b):
        return (a & b) if self.must else (a | b)

    def transfer(self, block, state):
        for inst in block.instructions:
            if isinstance(inst, StoreInst) and inst.pointer in self.tracked:
                state = state | {inst.pointer}
        return state


class UninitializedLoadChecker:
    """Load-before-store on stack slots mem2reg could have promoted.

    After mem2reg has run these slots no longer exist, so the checker is
    naturally silent on optimized IR; run it on front-end output to see
    source-level uninitialized reads.
    """

    name = "uninit"
    description = "use of a stack variable before it is initialized"

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            self.check_function(function, reporter)

    def check_function(self, function: Function, reporter: Reporter) -> None:
        tracked = frozenset(_tracked_allocas(function))
        if not tracked:
            return
        must = solve_dense(_InitState(tracked, must=True), function)
        may = solve_dense(_InitState(tracked, must=False), function)
        for block in reachable_blocks(function):
            definite = set(must.block_in[block])
            possible = set(may.block_in[block])
            for inst in block.instructions:
                if isinstance(inst, LoadInst) and inst.pointer in tracked:
                    slot = inst.pointer
                    label = slot.name or "<unnamed>"
                    if slot not in possible:
                        reporter.error(
                            self.name,
                            f"variable '{label}' is read before any "
                            "initialization",
                            instruction=inst,
                            fixit=f"initialize '{label}' at its declaration",
                        )
                    elif slot not in definite:
                        reporter.warning(
                            self.name,
                            f"variable '{label}' may be read before "
                            "initialization (uninitialized on some paths)",
                            instruction=inst,
                        )
                elif isinstance(inst, StoreInst) and inst.pointer in tracked:
                    definite.add(inst.pointer)
                    possible.add(inst.pointer)


# ---------------------------------------------------------------------------
# The lint lattices: one record per domain (the table in docs/ANALYSIS.md)
# ---------------------------------------------------------------------------

#: Four-point nullness lattice.
NULL_TOP = "top"          #: no evidence yet (optimistic)
NULL_NULL = "null"        #: provably the null pointer
NULL_NONNULL = "nonnull"  #: provably a valid object address
NULL_MAYBE = "maybe"      #: could be either

#: Taint lattice: ``top`` (no evidence, meet identity) / ``clean`` /
#: ``tainted`` (may derive from unchecked external input).
TAINT_TOP = "top"
TAINT_CLEAN = "clean"
TAINT_TAINTED = "tainted"

#: Range lattice top (never returns / no evidence); concrete elements
#: are ``(lo, hi)`` pairs where ``None`` means unbounded on that side.
RANGE_TOP = "top"
RANGE_UNBOUNDED = (None, None)


class Lattice:
    """One lint lattice, written down once.

    Everything that reasons in the domain derives from this record: the
    sparse checkers (:class:`DomainAnalysis`), the per-TU summariser's
    symbolic walker and the link-time resolver (both in ``interproc``).

    ``top`` is the meet identity ("no evidence yet"), ``unknown`` the
    answer that claims nothing, ``bottom`` the meet of two different
    elements; ``field`` names the return-value attribute this domain
    owns on ``AnalysisSummary`` and ``ResolvedSummary``.
    """

    field = top = unknown = bottom = None

    def meet(self, a, b):
        if a == self.top:
            return b
        if b == self.top or a == b:
            return a
        return self.bottom

    def external(self, name: str):
        """The return of a true external (defined in no unit)."""
        return self.unknown

    def atom(self, element) -> list:
        """The JSON ``const`` atom of ``element``."""
        return ["const", element]

    def element(self, atom: list):
        """The element a ``const`` atom carries."""
        return atom[1]

    def constant(self, value: Value):
        """The element of a value whose fact has no operand structure."""
        return self.unknown

    def flow(self, value: Value) -> tuple:
        """How ``value``'s fact comes from its operands: ``("const",
        element)``, ``("join", operands)``, ``("param", argument)`` or
        ``("call", call instruction)``."""
        if isinstance(value, PhiNode):
            return ("join", [incoming for incoming, _ in value.incoming])
        if isinstance(value, Argument):
            return ("param", value)
        if isinstance(value, (CallInst, InvokeInst)):
            return ("call", value)
        return ("const", self.constant(value))  # loads, vaarg, undef, ...


class _NullLattice(Lattice):
    field = "return_null"
    top, unknown, bottom = NULL_TOP, NULL_MAYBE, NULL_MAYBE

    def flow(self, value: Value) -> tuple:
        if not value.type.is_pointer:
            return ("const", NULL_MAYBE)
        if isinstance(value, ConstantPointerNull):
            return ("const", NULL_NULL)
        if isinstance(value, (AllocationInst, GlobalValue)):
            return ("const", NULL_NONNULL)  # alloca/malloc trap, never null
        if isinstance(value, (CastInst, ConstantExpr)):
            inner = value.operands[0]
            if isinstance(inner, ConstantInt):
                # The front-end lowers ``(T *)0`` to ``cast int 0 to
                # T*``: the most common way null enters a program.
                return ("const",
                        NULL_NULL if inner.value == 0 else NULL_NONNULL)
            if not inner.type.is_pointer:
                return ("const", NULL_MAYBE)
        if isinstance(value, (CastInst, ConstantExpr, GetElementPtrInst)):
            # Address arithmetic preserves the verdict: stepping from
            # null still yields a pointer no object can live at.
            return ("join", value.operands[:1])
        return super().flow(value)


class _TaintLattice(Lattice):
    field = "return_taint"
    top, unknown, bottom = TAINT_TOP, TAINT_CLEAN, TAINT_TAINTED

    #: Bounding operators sanitize, as do comparisons; loads are
    #: conservatively clean (claims-safe).
    SANITIZERS = frozenset({Opcode.REM, Opcode.AND, Opcode.DIV, Opcode.SHR})

    def external(self, name: str):
        return TAINT_CLEAN if name in KNOWN_SAFE_EXTERNALS else TAINT_TAINTED

    def flow(self, value: Value) -> tuple:
        if isinstance(value, BinaryOperator):
            if value.is_comparison or value.opcode in self.SANITIZERS:
                return ("const", TAINT_CLEAN)
            return ("join", value.operands)
        if isinstance(value, CastInst):
            return ("join", value.operands)
        return super().flow(value)


class RangeLattice(Lattice):
    """Ranges ask the abstract interpreter: ``RangeLattice(function)``
    is the record bound to one function (analysed at most once, on
    first need); the unbound :data:`RANGE` serves the resolver, which
    never calls ``flow``."""

    field = "return_range"
    top, unknown = RANGE_TOP, RANGE_UNBOUNDED

    def __init__(self, function: Optional[Function] = None):
        self.function = function
        self._facts = None

    def meet(self, a, b):
        """Hull of two ranges."""
        if a == RANGE_TOP:
            return b
        if b == RANGE_TOP:
            return a
        lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
        hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
        return (lo, hi)

    def atom(self, element) -> list:
        return ["const", element[0], element[1]]

    def element(self, atom: list):
        return (atom[1], atom[2])

    def constant(self, value: Value):
        if not isinstance(value.type, types.IntegerType):
            return RANGE_UNBOUNDED
        if self._facts is None:
            self._facts = analyze_function(self.function)
        fact = self._facts.abs_of(value)
        if fact is None or fact.interval.is_top(fact.shape):
            return RANGE_UNBOUNDED
        return (fact.interval.lo, fact.interval.hi)


NULL, TAINT, RANGE = _NullLattice(), _TaintLattice(), RangeLattice()
#: Every lattice a function summary carries a return value in.
LATTICES = (NULL, TAINT, RANGE)


class DomainAnalysis(SparseAnalysis):
    """The sparse analysis of any lint lattice: an element per SSA value,
    computed as the domain's ``flow`` says.

    Calls are opaque (``unknown``) unless ``program`` — the composed
    whole-program summaries, read from translation unit ``scope`` —
    answers them; ``parameter`` is the element of every formal
    parameter (default ``unknown``).
    """

    def __init__(self, domain: Lattice, program=None, scope: int = 0,
                 parameter=None):
        self.domain = domain
        self.program = program
        self.scope = scope
        self.parameter = domain.unknown if parameter is None else parameter

    def top(self):
        return self.domain.top

    def meet(self, a, b):
        return self.domain.meet(a, b)

    def initial(self, value: Value):
        return self.transfer(value, self.initial)

    def transfer(self, value: Value, get: Callable[[Value], object]):
        kind, what = self.domain.flow(value)
        if kind == "const":
            return what
        if kind == "join":
            element = self.domain.top
            for operand in what:
                element = self.domain.meet(element, get(operand))
            return element
        if kind == "param":
            return self.parameter
        if self.program is None:
            return self.domain.unknown
        return self.program.call_return(self.domain, self.scope, what, get)


def _Nullness() -> DomainAnalysis:
    """Local nullness: the null lattice with every call opaque."""
    return DomainAnalysis(NULL)


# ---------------------------------------------------------------------------
# null-deref: the null lattice, calls opaque
# ---------------------------------------------------------------------------

def _dereferenced_pointer(inst: Instruction) -> Optional[Value]:
    """The pointer operand ``inst`` actually accesses, if any."""
    if isinstance(inst, LoadInst):
        return inst.pointer
    if isinstance(inst, StoreInst):
        return inst.pointer
    if isinstance(inst, FreeInst):
        return inst.pointer
    if isinstance(inst, (CallInst, InvokeInst)):
        return inst.callee
    if isinstance(inst, VAArgInst):
        return inst.valist
    return None


class NullDereferenceChecker:
    """Dereference of a pointer the sparse nullness lattice proves null.

    Sparse propagation needs real SSA to see through local pointer
    variables, so the suite runs this checker on a stack-promoted view
    of the module (``wants_ssa``); front-end output keeps pointers in
    alloca slots where no def-use chain exists yet.
    """

    name = "null-deref"
    description = "load, store, call, or free through a null pointer"
    wants_ssa = True

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            self.check_function(function, reporter)

    def check_function(self, function: Function, reporter: Reporter) -> None:
        analysis = _Nullness()
        result = solve_sparse(analysis, function)
        for block in reachable_blocks(function):
            for inst in block.instructions:
                pointer = _dereferenced_pointer(inst)
                if pointer is None:
                    continue
                element = result.get(pointer)
                if element is None:
                    element = analysis.initial(pointer)
                if element == NULL_NULL:
                    what = inst.opcode.value
                    reporter.error(
                        self.name,
                        f"{what} through a pointer that is provably null",
                        instruction=inst,
                        fixit="guard the access with a null check",
                    )


# ---------------------------------------------------------------------------
# gep-bounds: statically out-of-bounds array indexing
# ---------------------------------------------------------------------------

class StaticBoundsChecker:
    """Array indices provably outside ``[0, N)`` for ``[N x T]`` steps.

    The static complement of safecode.py: where the SAFECode pass
    inserts a runtime guard, this checker proves at compile time that
    the guard would always fire.  Constant indices are checked
    directly; variable indices are checked against the interval the
    abstract interpreter computed for them, and flagged only when the
    *entire* interval misses the bound (so every execution traps).
    """

    name = "gep-bounds"
    description = "getelementptr index provably outside the array bound"
    wants_ssa = True

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            facts = None
            for block in reachable_blocks(function):
                for inst in block.instructions:
                    if not isinstance(inst, GetElementPtrInst):
                        continue
                    if facts is None and self._has_variable_index(inst):
                        facts = analyze_function(function)
                    self._check_gep(inst, facts, reporter)

    @staticmethod
    def _has_variable_index(gep: GetElementPtrInst) -> bool:
        return any(not isinstance(index, ConstantInt)
                   for index in gep.indices)

    def _check_gep(self, gep: GetElementPtrInst, facts,
                   reporter: Reporter) -> None:
        current = gep.pointer.type.pointee
        for position, index in enumerate(gep.indices):
            if position == 0:
                continue  # stepping over the pointer has no static bound
            if current.is_struct:
                current = current.fields[index.value]  # type: ignore[attr-defined]
                continue
            bound = current.count  # type: ignore[attr-defined]
            if isinstance(index, ConstantInt):
                if not (0 <= index.value < bound):
                    reporter.error(
                        self.name,
                        f"index {index.value} is out of bounds for "
                        f"{current} (valid range 0..{bound - 1})",
                        instruction=gep,
                        fixit=f"clamp the index into 0..{bound - 1}",
                    )
            elif facts is not None:
                interval = facts.interval_of(index)
                if interval is not None and \
                        (interval.hi < 0 or interval.lo >= bound):
                    reporter.error(
                        self.name,
                        f"index range [{interval.lo}, {interval.hi}] is "
                        f"entirely out of bounds for {current} "
                        f"(valid range 0..{bound - 1})",
                        instruction=gep,
                        fixit=f"clamp the index into 0..{bound - 1}",
                    )
            current = current.element  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# dead-store: stores to locals never read back
# ---------------------------------------------------------------------------

class _SlotLiveness(DenseAnalysis):
    """Backward may-liveness of tracked alloca slots."""

    direction = BACKWARD

    def __init__(self, tracked: frozenset):
        self.tracked = tracked

    def boundary(self, function: Function):
        return frozenset()  # locals are dead once the function returns

    def top(self, function: Function):
        return frozenset()

    def meet(self, a, b):
        return a | b

    def transfer(self, block, state):
        for inst in reversed(block.instructions):
            if isinstance(inst, LoadInst) and inst.pointer in self.tracked:
                state = state | {inst.pointer}
            elif isinstance(inst, StoreInst) and inst.pointer in self.tracked:
                state = state - {inst.pointer}
        return state


class DeadStoreChecker:
    """Stores into tracked stack slots whose value is never read."""

    name = "dead-store"
    description = "a stored value is overwritten or discarded unread"

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            self.check_function(function, reporter)

    def check_function(self, function: Function, reporter: Reporter) -> None:
        tracked = frozenset(_tracked_allocas(function))
        if not tracked:
            return
        loaded_somewhere = {
            inst.pointer
            for block in function.blocks
            for inst in block.instructions
            if isinstance(inst, LoadInst) and inst.pointer in tracked
        }
        result = solve_dense(_SlotLiveness(tracked), function)
        for block in reachable_blocks(function):
            live = set(result.block_out[block])
            for inst in reversed(block.instructions):
                if isinstance(inst, LoadInst) and inst.pointer in tracked:
                    live.add(inst.pointer)
                elif isinstance(inst, StoreInst) and inst.pointer in tracked:
                    if inst.pointer not in live:
                        label = inst.pointer.name or "<unnamed>"
                        if inst.pointer in loaded_somewhere:
                            detail = "overwritten before it is read"
                        else:
                            detail = "never read"
                        reporter.warning(
                            self.name,
                            f"value stored to '{label}' is {detail}",
                            instruction=inst,
                        )
                    live.discard(inst.pointer)


# ---------------------------------------------------------------------------
# unreachable: blocks no path from the entry reaches
# ---------------------------------------------------------------------------

class UnreachableCodeChecker:
    name = "unreachable"
    description = "basic blocks that no execution path can reach"

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            for block in unreachable_blocks(function):
                reporter.warning(
                    self.name,
                    f"block '{block.name or '<unnamed>'}' is unreachable "
                    f"({len(block.instructions)} instructions of dead code)",
                    function=function,
                    block=block,
                    line=next(
                        (i.loc for i in block.instructions if i.loc is not None),
                        None,
                    ),
                    fixit="delete the dead code or run simplifycfg",
                )


# ---------------------------------------------------------------------------
# call-signature: mismatches the type system was cast around
# ---------------------------------------------------------------------------

class CallSignatureChecker:
    """Calls whose cast-constructed callee hides a signature mismatch.

    In-module call sites are type-checked at construction time; what
    slips through is a call *through a cast* of a function symbol — the
    idiom the linker produces when translation units disagreed about a
    prototype.  :meth:`check_modules` performs the same check *before*
    linking, across module boundaries.
    """

    name = "call-signature"
    description = "call signature disagrees with the callee's definition"

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            for block in reachable_blocks(function):
                for inst in block.instructions:
                    if isinstance(inst, (CallInst, InvokeInst)):
                        self._check_site(inst, reporter)

    def _check_site(self, inst, reporter: Reporter) -> None:
        callee = inst.callee
        if not isinstance(callee, ConstantExpr):
            return
        target = direct_callee(callee)
        if target is None:
            return
        declared = callee.type.pointee   # what the call site believes
        defined = target.type.pointee    # what the symbol actually is
        if declared is defined:
            return
        reporter.error(
            self.name,
            f"call to '{target.name}' through a cast: call site expects "
            f"{declared} but the symbol is {defined}",
            instruction=inst,
            fixit=f"fix the prototype of '{target.name}' to match its "
            "definition",
        )

    def check_modules(self, modules, reporter: Reporter) -> None:
        """Cross-module prototype check, run before the linker merges."""
        seen: dict[str, tuple[str, str]] = {}
        for module in modules:
            for name, symbol in list(module.functions.items()) + \
                    list(module.globals.items()):
                if symbol.is_internal:
                    continue
                signature = str(symbol.type.pointee)
                previous = seen.get(name)
                if previous is None:
                    seen[name] = (signature, module.name)
                elif previous[0] != signature:
                    reporter.error(
                        self.name,
                        f"symbol '{name}' declared as {previous[0]} in "
                        f"module '{previous[1]}' but as {signature} in "
                        f"module '{module.name}'",
                        fixit=f"reconcile the declarations of '{name}'",
                    )


# ---------------------------------------------------------------------------
# type-safety: casts that defeat the declared type structure
# ---------------------------------------------------------------------------

class TypeUnsafeCastChecker:
    """Pointer casts whose target object DSA had to collapse.

    Runs Data Structure Analysis and flags every pointer-to-pointer cast
    whose abstract object lost its field structure — the paper's notion
    of memory used in a non-type-safe way.  Advisory only (NOTE): the
    code may be working punning, but no optimization can trust its types.
    """

    name = "type-safety"
    description = "pointer cast to an incompatible object layout"

    def check_module(self, module: Module, reporter: Reporter) -> None:
        from ..analysis.dsa import DataStructureAnalysis

        analysis = DataStructureAnalysis(module)
        for function in module.defined_functions():
            for block in reachable_blocks(function):
                for inst in block.instructions:
                    if not isinstance(inst, CastInst):
                        continue
                    if not (inst.type.is_pointer
                            and inst.value.type.is_pointer):
                        continue
                    if inst.type.pointee is inst.value.type.pointee:
                        continue
                    cell = analysis.cells.get(id(inst))
                    if cell is None:
                        continue
                    if cell.resolved().node.collapsed:
                        reporter.note(
                            self.name,
                            f"cast from {inst.value.type} to {inst.type} "
                            "reinterprets an object whose field structure "
                            "DSA collapsed (not type-safe)",
                            instruction=inst,
                        )


# ---------------------------------------------------------------------------
# Range-driven checkers: clients of the abstract interpreter
# ---------------------------------------------------------------------------

def _range_facts_for(function: Function, wanted) -> Optional[object]:
    """Value facts for ``function`` iff it contains a ``wanted`` inst.

    Keeps the absint solve off the common path: a checker only pays for
    the analysis in functions that can possibly trigger it.
    """
    has_candidate = any(
        wanted(inst)
        for block in reachable_blocks(function)
        for inst in block.instructions
    )
    return analyze_function(function) if has_candidate else None


class RangeDivByZeroChecker:
    """Integer division whose divisor the range analysis proves zero.

    A constant-zero divisor is the degenerate case; the value of the
    abstract domains is catching zeros that arrive through arithmetic
    (``x & 0``, ``x % 1``, a phi of zeros, a masked byte multiplied
    away) where no constant appears in the instruction itself.
    """

    name = "div-by-zero-range"
    description = "division or remainder by a value proven to be zero"
    wants_ssa = True

    def check_module(self, module: Module, reporter: Reporter) -> None:
        def wanted(inst):
            return isinstance(inst, BinaryOperator) and \
                inst.opcode in (Opcode.DIV, Opcode.REM) and \
                inst.type.is_integer

        for function in module.defined_functions():
            facts = _range_facts_for(function, wanted)
            if facts is None:
                continue
            for block in reachable_blocks(function):
                for inst in block.instructions:
                    if not wanted(inst):
                        continue
                    divisor = facts.abs_of(inst.rhs)
                    if divisor is not None and divisor.singleton() == 0:
                        what = inst.opcode.value
                        reporter.error(
                            self.name,
                            f"{what} by a value that is provably zero",
                            instruction=inst,
                            fixit="guard the division with a zero check",
                        )


class ShiftOutOfRangeChecker:
    """Shift amounts proven >= the shifted operand's bit width.

    The IR's shifts saturate rather than trap, so the program is
    well-defined — but a full-width shift always produces 0 (or the
    sign fill), which is almost never what the source intended.
    """

    name = "shift-out-of-range"
    description = "shift amount provably >= the operand's bit width"
    wants_ssa = True

    def check_module(self, module: Module, reporter: Reporter) -> None:
        def wanted(inst):
            return isinstance(inst, ShiftInst) and inst.type.is_integer

        for function in module.defined_functions():
            facts = _range_facts_for(function, wanted)
            if facts is None:
                continue
            for block in reachable_blocks(function):
                for inst in block.instructions:
                    if not wanted(inst):
                        continue
                    amount = facts.interval_of(inst.amount)
                    bits = inst.type.bits
                    if amount is not None and amount.lo >= bits:
                        what = inst.opcode.value
                        low = (f"amount {amount.lo}"
                               if amount.is_singleton else
                               f"amount is at least {amount.lo}")
                        reporter.warning(
                            self.name,
                            f"{what} of a {bits}-bit value by {low}: the "
                            f"result is always the saturated fill value",
                            instruction=inst,
                            fixit=f"mask the shift amount to 0..{bits - 1}",
                        )


class DefiniteOverflowChecker:
    """Signed add/sub/mul whose exact result never fits the type.

    Uses the *pre-wrap* mathematical range of the operation: when that
    entire range falls outside the type's representable values, every
    execution of the instruction wraps.  Restricted to signed types —
    unsigned wraparound is idiomatic (hashing, masking, counters).
    """

    name = "definite-overflow"
    description = "signed arithmetic that overflows on every execution"
    wants_ssa = True

    _OPCODES = (Opcode.ADD, Opcode.SUB, Opcode.MUL)

    def check_module(self, module: Module, reporter: Reporter) -> None:
        def wanted(inst):
            return isinstance(inst, BinaryOperator) and \
                inst.opcode in self._OPCODES and inst.type.is_integer and \
                inst.type.signed

        for function in module.defined_functions():
            facts = _range_facts_for(function, wanted)
            if facts is None:
                continue
            for block in reachable_blocks(function):
                for inst in block.instructions:
                    if not wanted(inst):
                        continue
                    lhs = facts.interval_of(inst.lhs)
                    rhs = facts.interval_of(inst.rhs)
                    if lhs is None or rhs is None:
                        continue
                    exact = exact_binary_range(inst.opcode, lhs, rhs)
                    if exact is None:
                        continue
                    lo, hi = shape_bounds(shape_of(inst.type))
                    if exact[1] < lo or exact[0] > hi:
                        what = inst.opcode.value
                        reporter.warning(
                            self.name,
                            f"{what} always overflows {inst.type}: the "
                            f"exact result is in [{exact[0]}, {exact[1]}] "
                            f"but the type holds [{lo}, {hi}]",
                            instruction=inst,
                            fixit="widen the operands before the "
                            "arithmetic or rework the expression",
                        )


#: Checker registry, in report order.
ALL_CHECKERS = (
    UninitializedLoadChecker,
    NullDereferenceChecker,
    StaticBoundsChecker,
    DeadStoreChecker,
    UnreachableCodeChecker,
    CallSignatureChecker,
    TypeUnsafeCastChecker,
    RangeDivByZeroChecker,
    ShiftOutOfRangeChecker,
    DefiniteOverflowChecker,
)

CHECKERS = {checker.name: checker for checker in ALL_CHECKERS}
