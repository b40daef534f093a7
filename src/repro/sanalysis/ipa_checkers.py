"""Whole-program checkers: interprocedural clients of the summary layer.

Each checker here is constructed with a :class:`ProgramSummaries` view
and the scope (translation-unit index) of the module it inspects, then
follows the same ``check_module(module, reporter)`` protocol as the
intraprocedural catalogue.  The division of labour mirrors the paper's
compile-time/link-time split: per-function facts come from summaries
computed (and cached) per TU; these checkers only *apply* them at call
sites, so the link-time sweep stays cheap.

Claim discipline, which is what keeps the suite zero-false-positive:

* **error**-level reports rest only on *must* facts (provably null on
  every path, freed on every path, dereferenced on every path);
* *may* facts (may escape, may free) are used exclusively to *suppress*
  claims, never to make them;
* anything unresolved (true externals, indirect calls) defaults to the
  claim-free direction of each lattice.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..analysis.absint import analyze_function
from ..analysis.callgraph import direct_callee
from ..analysis.cfg import reachable_blocks
from ..analysis.dataflow import (
    DenseAnalysis, FORWARD, solve_dense, solve_sparse,
)
from ..core.instructions import (
    BinaryOperator, CallInst, CastInst, FreeInst, GetElementPtrInst,
    Instruction, InvokeInst, LoadInst, MallocInst, ReturnInst, StoreInst,
    VAArgInst,
)
from ..core.module import Function, Module
from ..core.values import ConstantInt, Value
from .checkers import (
    DomainAnalysis, NULL, NULL_NULL, RANGE, TAINT, TAINT_TAINTED,
    _dereferenced_pointer, _Nullness,
)
from .diagnostics import Reporter
from .interproc import KNOWN_SAFE_EXTERNALS, ProgramSummaries, strip_pointer


class IPAChecker:
    """Base protocol: summary-aware, runs on the SSA view of one TU."""

    wants_ssa = True

    def __init__(self, program: ProgramSummaries, scope: int):
        self.program = program
        self.scope = scope

    def check_module(self, module: Module, reporter: Reporter) -> None:
        for function in module.defined_functions():
            self.check_function(function, reporter)

    def check_function(self, function: Function,
                       reporter: Reporter) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# ipa-null-deref
# ---------------------------------------------------------------------------

class IPANullDereferenceChecker(IPAChecker):
    """Null flowing through a call boundary into a dereference.

    Reports exactly the findings the intraprocedural ``null-deref``
    checker cannot see: the same sparse solve is run twice, once with
    calls opaque and once with summaries, and only derefs that become
    provably-null *because of* summary information are reported.  Also
    flags passing a provably-null argument to a callee whose summary
    proves it dereferences that parameter on every path.
    """

    name = "ipa-null-deref"
    description = ("dereference of a null pointer that crosses a call "
                   "boundary (whole-program)")

    def check_function(self, function: Function,
                       reporter: Reporter) -> None:
        fallback = _Nullness()
        local = solve_sparse(fallback, function)
        aware = solve_sparse(DomainAnalysis(NULL, self.program, self.scope),
                             function)

        def element_of(result, value: Value):
            element = result.get(value)
            if element is None:
                element = fallback.initial(value)
            return element

        for block in reachable_blocks(function):
            for inst in block.instructions:
                pointer = _dereferenced_pointer(inst)
                if pointer is not None:
                    if element_of(aware, pointer) == NULL_NULL and \
                            element_of(local, pointer) != NULL_NULL:
                        what = inst.opcode.value
                        reporter.error(
                            self.name,
                            f"{what} through a pointer that whole-program "
                            "analysis proves null (a callee returns null "
                            "here)",
                            instruction=inst,
                            fixit="check the returned pointer against null "
                            "before using it",
                        )
                if isinstance(inst, (CallInst, InvokeInst)):
                    self._check_null_arguments(inst, aware, element_of,
                                               reporter)

    def _check_null_arguments(self, inst, aware, element_of,
                              reporter: Reporter) -> None:
        target = direct_callee(inst.callee)
        if target is None:
            return
        resolved = self.program.resolved_for(self.scope, target.name)
        if resolved is None or not resolved.must_deref:
            return
        for j, arg in enumerate(inst.args):
            if not arg.type.is_pointer:
                continue
            if j in resolved.must_deref and \
                    element_of(aware, arg) == NULL_NULL:
                reporter.error(
                    self.name,
                    f"passing null as argument {j + 1} of "
                    f"'{target.name}', which dereferences it on every "
                    "path",
                    instruction=inst,
                    fixit="pass a valid pointer or add a null check to "
                    f"'{target.name}'",
                )


# ---------------------------------------------------------------------------
# ipa-memleak
# ---------------------------------------------------------------------------

class IPAMemoryLeakChecker(IPAChecker):
    """Heap allocations that are neither freed nor escape their function.

    An allocation is *owned* when it comes from ``malloc`` or from a
    callee whose summary proves every return hands back a fresh,
    uncaptured allocation.  May-facts only ever suppress: any path on
    which the pointer might be freed (directly or via a callee's
    ``may_free_params``) or might escape (stored, returned, phi-merged,
    captured by a callee or an unknown external, or heap-reachable per
    DSA) withdraws the claim.  ``main`` is exempt ("still reachable at
    exit"), as is any function that may terminate the process.
    """

    name = "ipa-memleak"
    description = ("a heap allocation is never freed and never escapes "
                   "(whole-program)")

    def check_module(self, module: Module, reporter: Reporter) -> None:
        from ..analysis.dsa import DataStructureAnalysis

        self._dsa = DataStructureAnalysis(module)
        for function in module.defined_functions():
            self.check_function(function, reporter)
        self._dsa = None

    def check_function(self, function: Function,
                       reporter: Reporter) -> None:
        if function.name == "main":
            return
        reachable = list(reachable_blocks(function))
        for block in reachable:
            for inst in block.instructions:
                if isinstance(inst, (CallInst, InvokeInst)):
                    target = direct_callee(inst.callee)
                    if target is not None and target.name in ("exit",
                                                              "abort"):
                        return  # allocations stay reachable at exit
        for block in reachable:
            for inst in block.instructions:
                origin = self._owned_allocation(inst)
                if origin is not None:
                    self._check_allocation(function, inst, origin, reporter)

    def _owned_allocation(self, inst: Instruction) -> Optional[str]:
        if isinstance(inst, MallocInst):
            return "allocated here"
        if isinstance(inst, (CallInst, InvokeInst)) and inst.type.is_pointer:
            target = direct_callee(inst.callee)
            if target is not None:
                resolved = self.program.resolved_for(self.scope, target.name)
                if resolved is not None and resolved.returns_fresh:
                    return f"returned (freshly allocated) by '{target.name}'"
        return None

    def _check_allocation(self, function: Function, root: Instruction,
                          origin: str, reporter: Reporter) -> None:
        if isinstance(root, MallocInst) and self._dsa is not None \
                and self._dsa.heap_escapes(root):
            # DSA only sees this TU; for summary-proven fresh returns the
            # callee is external here and its node is 'unknown' by
            # construction, so the filter applies to local mallocs only.
            return
        derived: Set[int] = {id(root)}
        worklist: List[Value] = [root]
        freed = False
        escaped = False
        while worklist and not escaped:
            current = worklist.pop()
            for use in current.uses:
                user = use.user
                if isinstance(user, (CastInst, GetElementPtrInst)):
                    if id(user) not in derived:
                        derived.add(id(user))
                        worklist.append(user)
                elif isinstance(user, FreeInst):
                    freed = True
                elif isinstance(user, StoreInst):
                    if user.value is current:
                        escaped = True
                elif isinstance(user, LoadInst):
                    pass  # reading through the pointer keeps ownership
                elif isinstance(user, ReturnInst):
                    escaped = True
                elif isinstance(user, (CallInst, InvokeInst)):
                    freed_here, escaped_here = self._call_capture(
                        user, current)
                    freed = freed or freed_here
                    escaped = escaped or escaped_here
                elif isinstance(user, BinaryOperator) \
                        and user.is_comparison:
                    pass  # comparing the pointer is not a capture
                else:
                    escaped = True  # phi, select, anything unmodelled
        if freed or escaped:
            return
        reporter.warning(
            self.name,
            f"allocation {origin} is never freed and never escapes "
            f"'{function.name}'",
            instruction=root,
            fixit="free the allocation before returning, or return it to "
            "the caller",
        )

    def _call_capture(self, inst, value: Value):
        """(may_free, may_escape) of passing ``value`` to this call."""
        if inst.callee is value:
            return (False, True)  # calling through it: out of scope here
        target = direct_callee(inst.callee)
        if target is None:
            return (True, True)  # indirect call: assume anything
        resolved = self.program.resolved_for(self.scope, target.name)
        if resolved is None:
            safe = target.name in KNOWN_SAFE_EXTERNALS
            return (not safe, not safe)
        freed = escaped = False
        for j, arg in enumerate(inst.args):
            if arg is value:
                if j in resolved.may_free_params:
                    freed = True
                if j in resolved.may_escape_params:
                    escaped = True
        return (freed, escaped)


# ---------------------------------------------------------------------------
# ipa-use-after-free (and double-free)
# ---------------------------------------------------------------------------

class IPAUseAfterFreeChecker(IPAChecker):
    """Accesses to an allocation after every path has freed it.

    A forward must-analysis tracks the set of SSA pointer bases that are
    freed on *every* path to the current point (``None`` is the
    optimistic universe, the meet intersects); a base is re-armed when
    control reaches its defining instruction again (a loop that
    re-allocates).  Frees through callees extend the kill set only via
    *must*-free summaries, so every report is a proof.
    """

    name = "ipa-use-after-free"
    description = ("use (or second free) of a pointer after every path "
                   "has freed it (whole-program)")

    def check_function(self, function: Function,
                       reporter: Reporter) -> None:
        checker = self

        def step(state: frozenset, inst: Instruction) -> frozenset:
            if inst in state:
                state = state - {inst}  # redefinition re-arms the base
            freed = checker._freed_bases(inst)
            if freed:
                state = state | freed
            return state

        class _MustFreed(DenseAnalysis):
            direction = FORWARD

            def boundary(self, fn):
                return frozenset()

            def top(self, fn):
                return None

            def meet(self, a, b):
                if a is None:
                    return b
                if b is None:
                    return a
                return a & b

            def transfer(self, block, state):
                if state is None:
                    return None
                for inst in block.instructions:
                    state = step(state, inst)
                return state

        result = solve_dense(_MustFreed(), function)
        for block in reachable_blocks(function):
            state = result.block_in.get(block)
            if state is None:
                continue
            for inst in block.instructions:
                self._check_instruction(inst, state, reporter)
                state = step(state, inst)

    def _freed_bases(self, inst: Instruction) -> frozenset:
        freed = set()
        if isinstance(inst, FreeInst):
            base = strip_pointer(inst.pointer)
            if isinstance(base, Instruction):
                freed.add(base)
        elif isinstance(inst, (CallInst, InvokeInst)):
            target = direct_callee(inst.callee)
            if target is not None:
                resolved = self.program.resolved_for(self.scope, target.name)
                if resolved is not None and resolved.must_free:
                    for j, arg in enumerate(inst.args):
                        if j in resolved.must_free and arg.type.is_pointer:
                            base = strip_pointer(arg)
                            if isinstance(base, Instruction):
                                freed.add(base)
        return frozenset(freed)

    def _check_instruction(self, inst: Instruction, state: frozenset,
                           reporter: Reporter) -> None:
        if not state:
            return
        if isinstance(inst, FreeInst):
            if strip_pointer(inst.pointer) in state:
                reporter.error(
                    self.name,
                    "free of a pointer that is already freed on every "
                    "path (double free)",
                    instruction=inst,
                    fixit="remove the duplicate free",
                )
            return
        if isinstance(inst, (LoadInst, StoreInst, VAArgInst)):
            pointer = _dereferenced_pointer(inst)
            if pointer is not None and strip_pointer(pointer) in state:
                what = inst.opcode.value
                reporter.error(
                    self.name,
                    f"{what} through a pointer that is freed on every "
                    "path to this point (use after free)",
                    instruction=inst,
                    fixit="move the access before the free, or clear the "
                    "pointer after freeing",
                )
            return
        if isinstance(inst, (CallInst, InvokeInst)):
            target = direct_callee(inst.callee)
            if target is None:
                return
            resolved = self.program.resolved_for(self.scope, target.name)
            if resolved is None:
                return
            for j, arg in enumerate(inst.args):
                if not arg.type.is_pointer or \
                        strip_pointer(arg) not in state:
                    continue
                if j in resolved.must_free:
                    reporter.error(
                        self.name,
                        f"passing a freed pointer to '{target.name}', "
                        f"which frees argument {j + 1} again (double "
                        "free)",
                        instruction=inst,
                        fixit="remove the duplicate free",
                    )
                elif j in resolved.must_deref:
                    reporter.error(
                        self.name,
                        f"passing a freed pointer to '{target.name}', "
                        f"which dereferences argument {j + 1} (use after "
                        "free)",
                        instruction=inst,
                        fixit="move the call before the free",
                    )


# ---------------------------------------------------------------------------
# ipa-taint
# ---------------------------------------------------------------------------

class IPATaintChecker(IPAChecker):
    """Unchecked external input used directly as an array index."""

    name = "ipa-taint"
    description = ("an array index derives from external input and is "
                   "never bounds-checked (whole-program)")

    def check_function(self, function: Function,
                       reporter: Reporter) -> None:
        # Sources: returns of true externals outside the known-safe
        # list (resolved through summaries) and ``main``'s arguments.
        analysis = DomainAnalysis(
            TAINT, self.program, self.scope,
            parameter=TAINT_TAINTED if function.name == "main" else None)
        result = solve_sparse(analysis, function)

        compared: Set[int] = set()
        for inst in function.instructions():
            if isinstance(inst, BinaryOperator) and inst.is_comparison:
                for operand in inst.operands:
                    compared.add(id(operand))
                    stripped = operand
                    while isinstance(stripped, CastInst):
                        stripped = stripped.value
                    compared.add(id(stripped))

        def element_of(value: Value):
            element = result.get(value)
            if element is None:
                element = analysis.initial(value)
            return element

        for block in reachable_blocks(function):
            for inst in block.instructions:
                if not isinstance(inst, GetElementPtrInst):
                    continue
                current = inst.pointer.type.pointee
                for position, index in enumerate(inst.indices):
                    if position == 0:
                        continue
                    if current.is_struct:
                        current = current.fields[index.value]
                        continue
                    bound = current.count
                    current = current.element
                    if isinstance(index, ConstantInt):
                        continue
                    if element_of(index) != TAINT_TAINTED:
                        continue
                    if id(index) in compared:
                        continue
                    stripped = index
                    while isinstance(stripped, CastInst):
                        stripped = stripped.value
                    if id(stripped) in compared:
                        continue
                    reporter.warning(
                        self.name,
                        f"array index derives from unchecked external "
                        f"input (array bound is {bound})",
                        instruction=inst,
                        fixit="bounds-check or mask the index before "
                        "using it",
                    )


# ---------------------------------------------------------------------------
# gep-bounds, upgraded: range summaries prove variable indices in bounds
# ---------------------------------------------------------------------------

class IPABoundsAdvisor(IPAChecker):
    """Advisory notes for variable array indices, minus the proven-safe.

    The static ``gep-bounds`` checker only flags indices that are
    *provably out* of bounds.  In whole-program mode this advisor
    covers the remaining variable ones: any index whose range —
    computed by the abstract interpreter with callee return-range
    summaries feeding call results — provably fits ``[0, N)`` is
    silent, and only the rest get an advisory note (severity below
    the ``-Werror`` gate).
    """

    name = "gep-bounds"
    description = ("variable array index that cannot be proven in bounds "
                   "(whole-program advisory)")

    def check_function(self, function: Function,
                       reporter: Reporter) -> None:
        def argument_range(arg: Value):
            # A constant argument gives the callee its exact context.
            if isinstance(arg, ConstantInt):
                return (arg.value, arg.value)
            return RANGE.unknown

        def call_range(inst):
            return self.program.call_return(RANGE, self.scope, inst,
                                            argument_range)

        facts = None
        for block in reachable_blocks(function):
            for inst in block.instructions:
                if not isinstance(inst, GetElementPtrInst):
                    continue
                current = inst.pointer.type.pointee
                for position, index in enumerate(inst.indices):
                    if position == 0:
                        continue
                    if current.is_struct:
                        current = current.fields[index.value]
                        continue
                    bound = current.count
                    current = current.element
                    if isinstance(index, ConstantInt):
                        continue  # the static checker owns constants
                    if facts is None:
                        facts = analyze_function(function,
                                                 call_range=call_range)
                    interval = facts.interval_of(index)
                    if interval is not None and \
                            0 <= interval.lo and interval.hi < bound:
                        continue
                    reporter.note(
                        self.name,
                        f"variable index into an array of {bound} "
                        "elements is not provably in bounds",
                        instruction=inst,
                        fixit=f"clamp the index into 0..{bound - 1}",
                    )


#: Whole-program checker registry, in report order.
ALL_IPA_CHECKERS = (
    IPANullDereferenceChecker,
    IPAMemoryLeakChecker,
    IPAUseAfterFreeChecker,
    IPATaintChecker,
    IPABoundsAdvisor,
)

IPA_CHECKERS = {checker.name: checker for checker in ALL_IPA_CHECKERS}
