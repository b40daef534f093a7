"""Interprocedural summary-based analysis (the link-time half of lc-lint).

The paper's headline claim is *whole-program* analysis at link time
(sections 3.3/3.4): per-function facts are computed once, attached to
the bytecode, and composed over the call graph instead of reanalysing
every body on every link.  This module is that layer for the static
checker suite:

* :class:`AnalysisSummary` — one function's *symbolic* abstract
  transformer: nullability/taint/range of the return value as a meet
  over atoms (constants, parameter pass-throughs, callee returns),
  parameter facts proven on **every** path (dereferenced, freed),
  may-facts per pointer parameter (escapes, may be freed), and
  side-effect bits.  Summaries mention callees only *by name*, so they
  are computable per translation unit, JSON-serializable next to the
  cached bytecode, and valid until the TU's source changes.

* :class:`ProgramSummaries` — the link-time composition: summaries from
  every TU are resolved bottom-up over the call-graph SCC condensation
  (callees before callers, cycles iterated to a fixpoint) into concrete
  :class:`ResolvedSummary` values the whole-program checkers consume.
  Fixpoints start at the lattice top for *meet*-style facts and at the
  empty set for *claim*-style facts, so recursion can never make the
  solver claim ``nonnull`` (or "dereferences its argument") without
  evidence on every path.

The split is what makes warm re-lints incremental: editing one TU
invalidates one summary table; composition — a few SCC sweeps over
small dictionaries — is cheap enough to rerun every time.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.absint import analyze_function
from ..analysis.callgraph import (
    direct_callee, strongly_connected_components,
)
from ..analysis.dataflow import DenseAnalysis, FORWARD, solve_dense
from ..analysis.dsa import KNOWN_SAFE_EXTERNALS
from ..core import types
from ..core.instructions import (
    AllocationInst, BinaryOperator, CallInst, CastInst, FreeInst,
    GetElementPtrInst, Instruction, InvokeInst, LoadInst, MallocInst,
    Opcode, PhiNode, ReturnInst, StoreInst, VAArgInst,
)
from ..core.module import Function, GlobalValue, Module
from ..core.values import (
    Argument, Constant, ConstantExpr, ConstantInt, ConstantPointerNull,
    UndefValue, Value,
)
from .checkers import NULL_MAYBE, NULL_NONNULL, NULL_NULL, NULL_TOP

#: Taint lattice: ``top`` (no evidence, meet identity) / ``clean`` /
#: ``tainted`` (may derive from unchecked external input).
TAINT_TOP = "top"
TAINT_CLEAN = "clean"
TAINT_TAINTED = "tainted"

#: Range lattice top (never returns / no evidence); concrete elements
#: are ``(lo, hi)`` pairs where ``None`` means unbounded on that side.
RANGE_TOP = "top"
RANGE_UNBOUNDED = (None, None)

#: Externals that write through their pointer arguments but neither
#: capture nor free them (subset of the DSA safe list).
_STORING_EXTERNALS = frozenset({
    "memcpy", "memset", "strcpy", "llvm.va_start", "llvm.va_end",
})


# ---------------------------------------------------------------------------
# Local helpers shared by the summarizer and the whole-program checkers
# ---------------------------------------------------------------------------

def strip_pointer(value: Value) -> Value:
    """Peel pointer casts and GEPs down to the pointer's SSA base.

    Address arithmetic preserves the identity of the underlying object
    for the facts tracked here (a step from null still points at no
    object; freeing a derived pointer releases the base allocation's
    object), mirroring the intraprocedural nullness checker.
    """
    depth = 0
    while depth < 64:
        depth += 1
        if isinstance(value, CastInst) and value.type.is_pointer \
                and value.value.type.is_pointer:
            value = value.value
        elif isinstance(value, GetElementPtrInst):
            value = value.pointer
        elif isinstance(value, ConstantExpr) and value.opcode == "cast" \
                and value.operands[0].type.is_pointer:
            value = value.operands[0]
        else:
            return value
    return value


def _merge_range(a, b):
    """Hull of two range elements (``RANGE_TOP`` is the identity)."""
    if a == RANGE_TOP:
        return b
    if b == RANGE_TOP:
        return a
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (lo, hi)


# ---------------------------------------------------------------------------
# The per-function symbolic summary
# ---------------------------------------------------------------------------

class AnalysisSummary:
    """One function's link-time abstract transformer (see module doc).

    Atom encodings (all JSON-safe lists):

    * value atoms: ``["const", payload]``, ``["param", i]``, or
      ``["ret", callee, [arg_atom, ...]]`` (arg atoms are const/param
      only, so substitution at a call site is one level deep);
    * path tokens (facts proven on every entry-to-exit path):
      ``["deref", i]``, ``["free", i]``, ``["arg", callee, j, i]``;
    * may atoms: ``["local"]`` or ``["call", callee, j]``;
    * effect atoms: ``["local"]`` or ``["call", callee]``;
    * freshness atoms (one per pointer return site): ``["local"]``,
      ``["ret", callee]``, or ``["no"]``.
    """

    __slots__ = ("name", "is_declaration", "is_internal",
                 "return_null", "return_taint", "return_range",
                 "path_tokens", "may_free_params", "may_escape_params",
                 "may_free", "may_store", "ret_fresh")

    def __init__(self, name: str):
        self.name = name
        self.is_declaration = False
        self.is_internal = False
        self.return_null: List = []
        self.return_taint: List = []
        self.return_range: List = []
        self.path_tokens: List = []
        self.may_free_params: Dict[int, List] = {}
        self.may_escape_params: Dict[int, List] = {}
        self.may_free: List = []
        self.may_store: List = []
        self.ret_fresh: List = []

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "declaration": self.is_declaration,
            "internal": self.is_internal,
            "return_null": self.return_null,
            "return_taint": self.return_taint,
            "return_range": self.return_range,
            "path_tokens": self.path_tokens,
            "may_free_params": {str(i): v
                                for i, v in self.may_free_params.items()},
            "may_escape_params": {str(i): v
                                  for i, v in self.may_escape_params.items()},
            "may_free": self.may_free,
            "may_store": self.may_store,
            "ret_fresh": self.ret_fresh,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisSummary":
        summary = cls(payload["name"])
        summary.is_declaration = payload["declaration"]
        summary.is_internal = payload["internal"]
        summary.return_null = payload["return_null"]
        summary.return_taint = payload["return_taint"]
        summary.return_range = payload["return_range"]
        summary.path_tokens = payload["path_tokens"]
        summary.may_free_params = {int(i): v for i, v in
                                   payload["may_free_params"].items()}
        summary.may_escape_params = {int(i): v for i, v in
                                     payload["may_escape_params"].items()}
        summary.may_free = payload["may_free"]
        summary.may_store = payload["may_store"]
        summary.ret_fresh = payload["ret_fresh"]
        return summary

    def callee_names(self) -> set:
        """Every callee this summary's resolution depends on."""
        names = set()
        for atoms in (self.return_null, self.return_taint,
                      self.return_range, self.may_free, self.may_store,
                      self.ret_fresh):
            for atom in atoms:
                if atom and atom[0] in ("ret", "call"):
                    names.add(atom[1])
        for token in self.path_tokens:
            if token[0] == "arg":
                names.add(token[1])
        for table in (self.may_free_params, self.may_escape_params):
            for atoms in table.values():
                for atom in atoms:
                    if atom and atom[0] == "call":
                        names.add(atom[1])
        return names


class _MustPathFacts(DenseAnalysis):
    """Forward must-analysis: tokens generated on *every* path so far.

    ``None`` is the optimistic universe; the meet intersects, and tokens
    are never killed, so the fixpoint at an exit block is exactly the
    set of facts established on every path from entry to that exit.
    """

    direction = FORWARD

    def __init__(self, gen: Callable[[Instruction], Sequence[tuple]]):
        self.gen = gen

    def boundary(self, function: Function):
        return frozenset()

    def top(self, function: Function):
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
        out = set(state)
        for inst in block.instructions:
            out.update(self.gen(inst))
        return frozenset(out)


def _cast_constant_null(value: Value) -> Optional[str]:
    """Nullness of an integer constant cast to pointer, if that is what
    ``value`` is.  The front-end lowers ``(T *)0`` to
    ``cast int 0 to T*``, so a plain ``ConstantPointerNull`` test misses
    the most common way null enters a program."""
    if isinstance(value, (CastInst, ConstantExpr)) and value.type.is_pointer:
        inner = value.operands[0] if isinstance(value, ConstantExpr) \
            else value.value
        if isinstance(inner, ConstantInt):
            return NULL_NULL if inner.value == 0 else NULL_NONNULL
    return None


def _simple_null_atom(value: Value, param_index: Dict[int, int]) -> list:
    """A one-level nullness atom for a call argument."""
    stripped = strip_pointer(value)
    index = param_index.get(id(stripped))
    if index is not None:
        return ["param", index]
    if isinstance(stripped, ConstantPointerNull):
        return ["const", NULL_NULL]
    if isinstance(stripped, (AllocationInst, GlobalValue)):
        return ["const", NULL_NONNULL]
    known = _cast_constant_null(value)
    if known is not None:
        return ["const", known]
    return ["const", NULL_MAYBE]


def summarize_function_ipa(function: Function) -> AnalysisSummary:
    """Compute one function's symbolic summary from its (SSA) body."""
    summary = AnalysisSummary(function.name)
    summary.is_declaration = function.is_declaration
    summary.is_internal = function.is_internal
    if function.is_declaration:
        return summary

    param_index = {id(arg): i for i, arg in enumerate(function.args)}
    pointer_params = {i for i, arg in enumerate(function.args)
                      if arg.type.is_pointer}

    def strip_param(value: Value) -> Optional[int]:
        index = param_index.get(id(strip_pointer(value)))
        if index is not None and index in pointer_params:
            return index
        return None

    # ---- path facts proven on every route to an exit --------------------
    def gen(inst: Instruction):
        tokens = []
        if isinstance(inst, (CallInst, InvokeInst)):
            callee_param = strip_param(inst.callee)
            if callee_param is not None:
                tokens.append(("deref", callee_param))
            target = direct_callee(inst.callee)
            if target is not None:
                for j, arg in enumerate(inst.args):
                    if arg.type.is_pointer:
                        index = strip_param(arg)
                        if index is not None:
                            tokens.append(("arg", target.name, j, index))
        elif isinstance(inst, FreeInst):
            index = strip_param(inst.pointer)
            if index is not None:
                tokens.append(("free", index))
                tokens.append(("deref", index))
        elif isinstance(inst, (LoadInst, StoreInst, VAArgInst)):
            pointer = (inst.valist if isinstance(inst, VAArgInst)
                       else inst.pointer)
            index = strip_param(pointer)
            if index is not None:
                tokens.append(("deref", index))
        return tokens

    result = solve_dense(_MustPathFacts(gen), function)
    exit_states = []
    for block, state in result.block_out.items():
        terminator = block.instructions[-1] if block.instructions else None
        if terminator is not None and terminator.opcode in (
                Opcode.RET, Opcode.UNWIND):
            if state is not None:
                exit_states.append(state)
    if exit_states:
        must = frozenset.intersection(*exit_states)
        summary.path_tokens = sorted(list(t) for t in must)

    # ---- may facts (any-path, over-approximate) -------------------------
    may_free_params: Dict[int, list] = {}
    may_escape_params: Dict[int, list] = {}
    may_free: list = []
    may_store: list = []

    def note(table: Dict[int, list], index: int, atom: list) -> None:
        atoms = table.setdefault(index, [])
        if atom not in atoms:
            atoms.append(atom)

    def note_effect(atoms: list, atom: list) -> None:
        if atom not in atoms:
            atoms.append(atom)

    for inst in function.instructions():
        if isinstance(inst, FreeInst):
            note_effect(may_free, ["local"])
            index = strip_param(inst.pointer)
            if index is not None:
                note(may_free_params, index, ["local"])
        elif isinstance(inst, StoreInst):
            note_effect(may_store, ["local"])
            if inst.value.type.is_pointer:
                index = strip_param(inst.value)
                if index is not None:
                    note(may_escape_params, index, ["local"])
        elif isinstance(inst, PhiNode):
            if inst.type.is_pointer:
                for incoming, _ in inst.incoming:
                    index = strip_param(incoming)
                    if index is not None:
                        note(may_escape_params, index, ["local"])
        elif isinstance(inst, ReturnInst):
            if inst.return_value is not None \
                    and inst.return_value.type.is_pointer:
                index = strip_param(inst.return_value)
                if index is not None:
                    note(may_escape_params, index, ["local"])
        elif isinstance(inst, (CallInst, InvokeInst)):
            target = direct_callee(inst.callee)
            if target is None:
                note_effect(may_free, ["local"])
                note_effect(may_store, ["local"])
                for arg in inst.args:
                    if arg.type.is_pointer:
                        index = strip_param(arg)
                        if index is not None:
                            note(may_free_params, index, ["local"])
                            note(may_escape_params, index, ["local"])
                continue
            note_effect(may_free, ["call", target.name])
            note_effect(may_store, ["call", target.name])
            for j, arg in enumerate(inst.args):
                if arg.type.is_pointer:
                    index = strip_param(arg)
                    if index is not None:
                        note(may_free_params, index, ["call", target.name, j])
                        note(may_escape_params, index,
                             ["call", target.name, j])
    summary.may_free_params = may_free_params
    summary.may_escape_params = may_escape_params
    summary.may_free = may_free
    summary.may_store = may_store

    # ---- return-value atoms --------------------------------------------
    returns_pointer = function.return_type.is_pointer
    returns_integer = isinstance(function.return_type, types.IntegerType)
    null_atoms: list = []
    taint_atoms: list = []
    range_atoms: list = []
    fresh_atoms: list = []

    def add_atom(atoms: list, atom: list) -> None:
        if atom not in atoms:
            atoms.append(atom)

    def eval_null(value: Value, visited: set) -> List[list]:
        if id(value) in visited:
            return []
        visited.add(id(value))
        if isinstance(value, ConstantPointerNull):
            return [["const", NULL_NULL]]
        if isinstance(value, (AllocationInst, GlobalValue)):
            return [["const", NULL_NONNULL]]
        if isinstance(value, UndefValue):
            return [["const", NULL_MAYBE]]
        known = _cast_constant_null(value)
        if known is not None:
            return [["const", known]]
        if isinstance(value, CastInst) and value.value.type.is_pointer:
            return eval_null(value.value, visited)
        if isinstance(value, GetElementPtrInst):
            return eval_null(value.pointer, visited)
        if isinstance(value, ConstantExpr):
            base = value.operands[0]
            if base.type.is_pointer:
                return eval_null(base, visited)
            return [["const", NULL_MAYBE]]
        if isinstance(value, PhiNode):
            atoms: list = []
            for incoming, _ in value.incoming:
                for atom in eval_null(incoming, visited):
                    if atom not in atoms:
                        atoms.append(atom)
            return atoms
        if isinstance(value, Argument):
            index = param_index.get(id(value))
            if index is not None:
                return [["param", index]]
            return [["const", NULL_MAYBE]]
        if isinstance(value, (CallInst, InvokeInst)):
            target = direct_callee(value.callee)
            if target is not None:
                args = [_simple_null_atom(a, param_index) if
                        a.type.is_pointer else ["const", NULL_MAYBE]
                        for a in value.args]
                return [["ret", target.name, args]]
            return [["const", NULL_MAYBE]]
        return [["const", NULL_MAYBE]]

    def simple_taint_atom(value: Value) -> list:
        if isinstance(value, Argument):
            index = param_index.get(id(value))
            if index is not None:
                return ["param", index]
        if isinstance(value, Constant):
            return ["const", TAINT_CLEAN]
        return ["const", TAINT_CLEAN]

    def eval_taint(value: Value, visited: set) -> List[list]:
        if id(value) in visited:
            return []
        visited.add(id(value))
        if isinstance(value, Constant):
            return [["const", TAINT_CLEAN]]
        if isinstance(value, Argument):
            index = param_index.get(id(value))
            if index is not None:
                return [["param", index]]
            return [["const", TAINT_CLEAN]]
        if isinstance(value, BinaryOperator):
            if value.opcode in (Opcode.REM, Opcode.AND, Opcode.DIV,
                                Opcode.SHR) or value.is_comparison:
                return [["const", TAINT_CLEAN]]
            atoms: list = []
            for operand in value.operands:
                for atom in eval_taint(operand, visited):
                    if atom not in atoms:
                        atoms.append(atom)
            return atoms
        if isinstance(value, CastInst):
            return eval_taint(value.value, visited)
        if isinstance(value, PhiNode):
            atoms = []
            for incoming, _ in value.incoming:
                for atom in eval_taint(incoming, visited):
                    if atom not in atoms:
                        atoms.append(atom)
            return atoms
        if isinstance(value, (CallInst, InvokeInst)):
            target = direct_callee(value.callee)
            if target is not None:
                args = [simple_taint_atom(a) for a in value.args]
                return [["ret", target.name, args]]
            return [["const", TAINT_CLEAN]]
        return [["const", TAINT_CLEAN]]

    absint_facts: list = []  # lazily computed, at most once per function

    def range_of(value: Value):
        """The abstract interpreter's interval for ``value`` as a
        ``(lo, hi)`` pair; ``(None, None)`` when it knows nothing."""
        if not isinstance(value.type, types.IntegerType):
            return RANGE_UNBOUNDED
        if not absint_facts:
            absint_facts.append(analyze_function(function))
        fact = absint_facts[0].abs_of(value)
        if fact is None or fact.interval.is_top(fact.shape):
            return RANGE_UNBOUNDED
        return (fact.interval.lo, fact.interval.hi)

    def simple_range_atom(value: Value) -> list:
        if isinstance(value, Argument):
            index = param_index.get(id(value))
            if index is not None:
                return ["param", index]
        rng = range_of(value)
        return ["const", rng[0], rng[1]]

    def eval_range(value: Value, visited: set) -> List[list]:
        if id(value) in visited:
            return []
        visited.add(id(value))
        if isinstance(value, PhiNode):
            atoms: list = []
            for incoming, _ in value.incoming:
                for atom in eval_range(incoming, visited):
                    if atom not in atoms:
                        atoms.append(atom)
            return atoms
        if isinstance(value, Argument):
            index = param_index.get(id(value))
            if index is not None:
                return [["param", index]]
            return [["const", None, None]]
        if isinstance(value, (CallInst, InvokeInst)):
            target = direct_callee(value.callee)
            if target is not None:
                args = [simple_range_atom(a) for a in value.args]
                return [["ret", target.name, args]]
            return [["const", None, None]]
        rng = range_of(value)
        return [["const", rng[0], rng[1]]]

    def malloc_is_owned(alloc: MallocInst, ret_value: Value) -> bool:
        """True when the returned malloc is this function's to give:
        nothing else captures it (stores of the value, unknown callees,
        phis), so the caller receives exclusive ownership."""
        worklist = [alloc]
        seen = set()
        while worklist:
            current = worklist.pop()
            if id(current) in seen:
                continue
            seen.add(id(current))
            for use in current.uses:
                user = use.user
                if isinstance(user, (CastInst, GetElementPtrInst)):
                    worklist.append(user)
                elif isinstance(user, StoreInst):
                    if user.value is current:
                        return False
                elif isinstance(user, (CallInst, InvokeInst)):
                    return False
                elif isinstance(user, (PhiNode, FreeInst)):
                    return False
        return True

    for block in function.blocks:
        for inst in block.instructions:
            if not isinstance(inst, ReturnInst) or inst.return_value is None:
                continue
            value = inst.return_value
            if returns_pointer:
                for atom in eval_null(value, set()):
                    add_atom(null_atoms, atom)
                stripped = value
                while isinstance(stripped, CastInst) \
                        and stripped.value.type.is_pointer:
                    stripped = stripped.value
                if isinstance(stripped, (ConstantPointerNull, UndefValue)) \
                        or _cast_constant_null(stripped) == NULL_NULL:
                    pass  # nothing to own on this path
                elif isinstance(stripped, MallocInst) \
                        and malloc_is_owned(stripped, value):
                    add_atom(fresh_atoms, ["local"])
                elif isinstance(stripped, (CallInst, InvokeInst)):
                    target = direct_callee(stripped.callee)
                    if target is not None:
                        add_atom(fresh_atoms, ["ret", target.name])
                    else:
                        add_atom(fresh_atoms, ["no"])
                else:
                    add_atom(fresh_atoms, ["no"])
            if returns_integer:
                for atom in eval_taint(value, set()):
                    add_atom(taint_atoms, atom)
                for atom in eval_range(value, set()):
                    add_atom(range_atoms, atom)
    summary.return_null = null_atoms
    summary.return_taint = taint_atoms
    summary.return_range = range_atoms
    summary.ret_fresh = fresh_atoms
    return summary


class ModuleAnalysisSummaries:
    """All per-function analysis summaries of one translation unit."""

    FORMAT = 1

    def __init__(self, summaries: Dict[str, AnalysisSummary]):
        self.summaries = summaries

    @classmethod
    def compute(cls, module: Module) -> "ModuleAnalysisSummaries":
        """Summarize every function.  ``module`` should be an SSA
        (stack-promoted) view; the whole-program driver guarantees it."""
        return cls({
            function.name: summarize_function_ipa(function)
            for function in module.functions.values()
        })

    def to_json(self) -> str:
        return json.dumps({
            "format": self.FORMAT,
            "functions": [self.summaries[name].to_dict()
                          for name in sorted(self.summaries)],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModuleAnalysisSummaries":
        payload = json.loads(text)
        if payload.get("format") != cls.FORMAT:
            raise ValueError("unsupported analysis-summary format")
        return cls({
            entry["name"]: AnalysisSummary.from_dict(entry)
            for entry in payload["functions"]
        })


# ---------------------------------------------------------------------------
# Link-time composition
# ---------------------------------------------------------------------------

class ResolvedSummary:
    """Concrete whole-program facts for one function."""

    __slots__ = ("name", "is_declaration", "return_null", "return_taint",
                 "return_range", "returns_fresh", "must_deref", "must_free",
                 "may_free_params", "may_escape_params", "may_free",
                 "may_store")

    def __init__(self, name: str, is_declaration: bool):
        self.name = name
        self.is_declaration = is_declaration
        self.return_null = NULL_TOP
        self.return_taint = TAINT_TOP
        self.return_range = RANGE_TOP
        self.returns_fresh = False
        self.must_deref: frozenset = frozenset()
        self.must_free: frozenset = frozenset()
        self.may_free_params: frozenset = frozenset()
        self.may_escape_params: frozenset = frozenset()
        self.may_free = False
        self.may_store = False

    def snapshot(self):
        return (self.return_null, self.return_taint, self.return_range,
                self.returns_fresh, self.must_deref, self.must_free,
                self.may_free_params, self.may_escape_params,
                self.may_free, self.may_store)


def _meet_null(a, b):
    if a == NULL_TOP:
        return b
    if b == NULL_TOP or a == b:
        return a
    return NULL_MAYBE


def _meet_taint(a, b):
    if a == TAINT_TOP:
        return b
    if b == TAINT_TOP or a == b:
        return a
    return TAINT_TAINTED


class ProgramSummaries:
    """The composed, whole-program view over per-TU summary tables.

    Scopes model linkage: a callee reference resolves first to a
    *definition* in its own translation unit (internal or external),
    then to the unique external definition in any other unit — exactly
    what the linker would do — and otherwise stays unresolved
    (a true external), for which every domain answers conservatively.
    """

    #: Iteration backstop per SCC (the lattices are tiny, so real
    #: convergence happens in a handful of sweeps).
    MAX_SCC_ITERATIONS = 64
    #: Substitution depth bound for context-sensitive evaluation.
    MAX_DEPTH = 8

    def __init__(self, tables: Sequence[Tuple[str,
                                              "ModuleAnalysisSummaries"]]):
        self.tables = list(tables)
        self._summaries: Dict[Tuple[int, str], AnalysisSummary] = {}
        self._extern_defs: Dict[str, Tuple[int, str]] = {}
        self.resolved: Dict[Tuple[int, str], ResolvedSummary] = {}
        self.iterations = 0
        self.scc_count = 0
        self.largest_scc = 0
        for scope, (label, table) in enumerate(self.tables):
            for name, summary in table.summaries.items():
                qid = (scope, name)
                self._summaries[qid] = summary
                if not summary.is_declaration and not summary.is_internal:
                    self._extern_defs.setdefault(name, qid)
        self._solve()

    # -- name resolution ----------------------------------------------------

    def _resolve_ref(self, scope: int, name: str) -> Optional[Tuple[int, str]]:
        local = self._summaries.get((scope, name))
        if local is not None and not local.is_declaration:
            return (scope, name)
        return self._extern_defs.get(name)

    def resolved_for(self, scope: int, name: str) -> Optional[ResolvedSummary]:
        """The composed summary a call from ``scope`` to ``name`` binds
        to, or None for a true external."""
        qid = self._resolve_ref(scope, name)
        if qid is None:
            return None
        return self.resolved.get(qid)

    # -- the bottom-up SCC fixpoint -----------------------------------------

    def _solve(self) -> None:
        for qid, summary in self._summaries.items():
            self.resolved[qid] = ResolvedSummary(summary.name,
                                                 summary.is_declaration)
        edges: Dict[Tuple[int, str], list] = {}
        for qid, summary in self._summaries.items():
            scope = qid[0]
            targets = []
            for name in sorted(summary.callee_names()):
                ref = self._resolve_ref(scope, name)
                if ref is not None:
                    targets.append(ref)
            edges[qid] = targets
        components = strongly_connected_components(edges)
        self.scc_count = len(components)
        for component in components:
            self.largest_scc = max(self.largest_scc, len(component))
            for _ in range(self.MAX_SCC_ITERATIONS):
                self.iterations += 1
                changed = False
                for qid in component:
                    before = self.resolved[qid].snapshot()
                    self._resolve_one(qid)
                    if self.resolved[qid].snapshot() != before:
                        changed = True
                if not changed:
                    break

    def _resolve_one(self, qid: Tuple[int, str]) -> None:
        summary = self._summaries[qid]
        resolved = self.resolved[qid]
        if summary.is_declaration:
            return
        scope = qid[0]
        resolved.return_null = self._eval_atoms(
            scope, summary.return_null, None, "null", 0)
        resolved.return_taint = self._eval_atoms(
            scope, summary.return_taint, None, "taint", 0)
        resolved.return_range = self._eval_atoms(
            scope, summary.return_range, None, "range", 0)

        must_deref = set()
        must_free = set()
        for token in summary.path_tokens:
            if token[0] == "deref":
                must_deref.add(token[1])
            elif token[0] == "free":
                must_free.add(token[1])
            elif token[0] == "arg":
                _, callee, j, i = token
                target = self.resolved_for(scope, callee)
                if target is not None:
                    if j in target.must_deref:
                        must_deref.add(i)
                    if j in target.must_free:
                        must_free.add(i)
        resolved.must_deref = frozenset(must_deref)
        resolved.must_free = frozenset(must_free)

        resolved.may_free_params = self._resolve_may_params(
            scope, summary.may_free_params, "may_free_params")
        resolved.may_escape_params = self._resolve_may_params(
            scope, summary.may_escape_params, "may_escape_params")
        resolved.may_free = self._resolve_effect(
            scope, summary.may_free, "may_free")
        resolved.may_store = self._resolve_effect(
            scope, summary.may_store, "may_store")

        if summary.ret_fresh:
            fresh = True
            for atom in summary.ret_fresh:
                if atom[0] == "local":
                    continue
                if atom[0] == "ret":
                    target = self.resolved_for(scope, atom[1])
                    if target is None or not target.returns_fresh:
                        fresh = False
                        break
                else:
                    fresh = False
                    break
            resolved.returns_fresh = fresh

    def _resolve_may_params(self, scope: int, table: Dict[int, list],
                            field: str) -> frozenset:
        result = set()
        for index, atoms in table.items():
            for atom in atoms:
                if atom[0] == "local":
                    result.add(index)
                    break
                if atom[0] == "call":
                    callee, j = atom[1], atom[2]
                    target = self.resolved_for(scope, callee)
                    if target is None:
                        if callee not in KNOWN_SAFE_EXTERNALS:
                            result.add(index)
                            break
                    elif target.is_declaration or \
                            j in getattr(target, field):
                        result.add(index)
                        break
        return frozenset(result)

    def _resolve_effect(self, scope: int, atoms: list, field: str) -> bool:
        for atom in atoms:
            if atom[0] == "local":
                return True
            if atom[0] == "call":
                callee = atom[1]
                target = self.resolved_for(scope, callee)
                if target is None:
                    if callee in KNOWN_SAFE_EXTERNALS:
                        if field == "may_store" and \
                                callee in _STORING_EXTERNALS:
                            return True
                        continue
                    return True
                if target.is_declaration or getattr(target, field):
                    return True
        return False

    # -- context-sensitive value evaluation ---------------------------------

    def _domain_unknown(self, domain: str):
        if domain == "null":
            return NULL_MAYBE
        if domain == "taint":
            return TAINT_CLEAN
        return RANGE_UNBOUNDED

    def _external_value(self, domain: str, name: str):
        if domain == "taint":
            return (TAINT_CLEAN if name in KNOWN_SAFE_EXTERNALS
                    else TAINT_TAINTED)
        return self._domain_unknown(domain)

    def _meet(self, domain: str, a, b):
        if domain == "null":
            return _meet_null(a, b)
        if domain == "taint":
            return _meet_taint(a, b)
        return _merge_range(a, b)

    def _top(self, domain: str):
        if domain == "null":
            return NULL_TOP
        if domain == "taint":
            return TAINT_TOP
        return RANGE_TOP

    def _atoms_of(self, summary: AnalysisSummary, domain: str) -> list:
        if domain == "null":
            return summary.return_null
        if domain == "taint":
            return summary.return_taint
        return summary.return_range

    def _resolved_value(self, resolved: ResolvedSummary, domain: str):
        if domain == "null":
            return resolved.return_null
        if domain == "taint":
            return resolved.return_taint
        return resolved.return_range

    def _const_payload(self, domain: str, atom: list):
        if domain == "range":
            return (atom[1], atom[2])
        return atom[1]

    def _eval_atoms(self, scope: int, atoms: list, ctx, domain: str,
                    depth: int):
        element = self._top(domain)
        for atom in atoms:
            element = self._meet(domain, element,
                                 self._eval_atom(scope, atom, ctx, domain,
                                                 depth))
        return element

    def _eval_atom(self, scope: int, atom: list, ctx, domain: str,
                   depth: int):
        kind = atom[0]
        if kind == "const":
            return self._const_payload(domain, atom)
        if kind == "param":
            index = atom[1]
            if ctx is not None and index < len(ctx):
                return ctx[index]
            return self._domain_unknown(domain)
        if kind == "ret":
            callee, arg_atoms = atom[1], atom[2]
            ref = self._resolve_ref(scope, callee)
            if ref is None:
                return self._external_value(domain, callee)
            if depth >= self.MAX_DEPTH:
                return self._resolved_value(self.resolved[ref], domain)
            callee_ctx = [self._eval_atom(scope, a, ctx, domain, depth + 1)
                          for a in arg_atoms]
            summary = self._summaries[ref]
            if summary.is_declaration:
                return self._domain_unknown(domain)
            return self._eval_atoms(ref[0], self._atoms_of(summary, domain),
                                    callee_ctx, domain, depth + 1)
        return self._domain_unknown(domain)

    # -- call-site queries used by the whole-program checkers ---------------

    def _call_value(self, scope: int, inst, domain: str,
                    arg_value: Callable[[Value], object]):
        target = direct_callee(inst.callee)
        if target is None:
            return None
        ref = self._resolve_ref(scope, target.name)
        if ref is None:
            return self._external_value(domain, target.name)
        summary = self._summaries[ref]
        if summary.is_declaration:
            return self._domain_unknown(domain)
        ctx = [arg_value(arg) for arg in inst.args]
        return self._eval_atoms(ref[0], self._atoms_of(summary, domain),
                                ctx, domain, 1)

    def call_return_null(self, scope: int, inst,
                         get: Callable[[Value], object]):
        """Nullness of a call's return, with actual-argument context."""
        def arg_value(arg: Value):
            if not arg.type.is_pointer:
                return NULL_MAYBE
            element = get(arg)
            return NULL_MAYBE if element is None else element
        value = self._call_value(scope, inst, "null", arg_value)
        if value == NULL_TOP:
            return NULL_MAYBE  # function never returns; claim nothing
        return value

    def call_return_taint(self, scope: int, inst,
                          get: Callable[[Value], object]):
        def arg_value(arg: Value):
            element = get(arg)
            return TAINT_CLEAN if element is None else element
        value = self._call_value(scope, inst, "taint", arg_value)
        if value == TAINT_TOP:
            return TAINT_CLEAN
        return value

    def call_return_range(self, scope: int, inst):
        """Concrete return range of a direct call; a constant argument
        gives the callee its exact context."""
        def arg_value(arg: Value):
            if isinstance(arg, ConstantInt):
                return (arg.value, arg.value)
            return RANGE_UNBOUNDED
        value = self._call_value(scope, inst, "range", arg_value)
        if value == RANGE_TOP:
            return None
        return value

    # -- observability -------------------------------------------------------

    def statistics(self) -> dict:
        return {
            "ipa-functions": len(self._summaries),
            "ipa-sccs": self.scc_count,
            "ipa-largest-scc": self.largest_scc,
            "ipa-iterations": self.iterations,
        }
