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

Neither half states a lattice.  The summarizer's symbolic walker and
the resolver's evaluator both read the domain records of
:mod:`.checkers` (:class:`~.checkers.Lattice`), the same ones the
sparse checkers solve over, so a rule exists once or not at all.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..analysis.callgraph import (
    direct_callee, strongly_connected_components,
)
from ..analysis.dataflow import DenseAnalysis, FORWARD, solve_dense
from ..analysis.dsa import KNOWN_SAFE_EXTERNALS
from ..core import types
from ..core.instructions import (
    CallInst, CastInst, FreeInst, GetElementPtrInst, Instruction,
    InvokeInst, MallocInst, Opcode, PhiNode, ReturnInst, StoreInst,
)
from ..core.module import Function, Module
from ..core.values import Argument, ConstantExpr, UndefValue, Value
from .checkers import (
    LATTICES, Lattice, NULL, NULL_NULL, RangeLattice, TAINT,
    _dereferenced_pointer,
)

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


def _add(atoms: list, atom: list) -> None:
    if atom not in atoms:
        atoms.append(atom)


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

    #: Every fact, once: (attribute, JSON key, type of its empty value).
    #: A ``list`` holds atoms, a ``dict`` atoms per parameter index.
    FIELDS = (
        ("name", "name", str),
        ("is_declaration", "declaration", bool),
        ("is_internal", "internal", bool),
        ("return_null", "return_null", list),
        ("return_taint", "return_taint", list),
        ("return_range", "return_range", list),
        ("path_tokens", "path_tokens", list),
        ("may_free_params", "may_free_params", dict),
        ("may_escape_params", "may_escape_params", dict),
        ("may_free", "may_free", list),
        ("may_store", "may_store", list),
        ("ret_fresh", "ret_fresh", list),
    )

    __slots__ = tuple(attribute for attribute, _, _ in FIELDS)

    def __init__(self, name: str):
        for attribute, _, empty in self.FIELDS:
            setattr(self, attribute, empty())
        self.name = name

    def to_dict(self) -> dict:
        payload = {}
        for attribute, key, empty in self.FIELDS:
            value = getattr(self, attribute)
            if empty is dict:  # JSON object keys are strings
                value = {str(i): atoms for i, atoms in value.items()}
            payload[key] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisSummary":
        summary = cls(payload["name"])
        for attribute, key, empty in cls.FIELDS:
            value = payload[key]
            if empty is dict:
                value = {int(i): atoms for i, atoms in value.items()}
            setattr(summary, attribute, value)
        return summary

    def callee_names(self) -> set:
        """Every callee this summary's resolution depends on."""
        names = set()
        for attribute, _, empty in self.FIELDS:
            value = getattr(self, attribute)
            groups = value.values() if empty is dict else \
                [value] if empty is list else ()
            for atoms in groups:
                for atom in atoms:
                    if atom and atom[0] in ("ret", "call", "arg"):
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


def _strip_param(value: Value) -> Optional[int]:
    """The index of the pointer parameter ``value`` is derived from."""
    base = strip_pointer(value)
    if isinstance(base, Argument) and base.type.is_pointer:
        return base.index
    return None


def _simple_atom(domain: Lattice, value: Value) -> list:
    """A one-level (const or param) atom for a call argument."""
    value = strip_pointer(value)
    kind, what = domain.flow(value)
    if kind == "param":
        return ["param", what.index]
    return domain.atom(what if kind == "const" else domain.constant(value))


def _value_atoms(domain: Lattice, value: Value, atoms: list,
                 visited: set) -> None:
    """The symbolic walker: add to ``atoms`` the atoms whose meet is
    ``value``'s element in ``domain``, following the domain's ``flow``
    (a join is the union of its operands' atoms)."""
    if id(value) in visited:
        return
    visited.add(id(value))
    kind, what = domain.flow(value)
    if kind == "join":
        for operand in what:
            _value_atoms(domain, operand, atoms, visited)
        return
    if kind == "call":
        target = direct_callee(what.callee)
        atom = domain.atom(domain.unknown) if target is None else \
            ["ret", target.name,
             [_simple_atom(domain, arg) for arg in what.args]]
    elif kind == "param":
        atom = ["param", what.index]
    else:
        atom = domain.atom(what)
    _add(atoms, atom)


def _malloc_is_owned(alloc: MallocInst) -> bool:
    """True when a returned malloc is its function's to give: nothing
    else captures it (stores of the value, unknown callees, phis), so
    the caller receives exclusive ownership."""
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
            elif isinstance(user, (CallInst, InvokeInst, PhiNode, FreeInst)):
                return False
    return True


def _freshness_atom(value: Value) -> Optional[list]:
    """Who owns the allocation a pointer return hands back (None when
    this path returns nothing to own)."""
    while isinstance(value, CastInst) and value.value.type.is_pointer:
        value = value.value
    if isinstance(value, UndefValue) \
            or NULL.flow(value) == ("const", NULL_NULL):
        return None
    if isinstance(value, MallocInst) and _malloc_is_owned(value):
        return ["local"]
    if isinstance(value, (CallInst, InvokeInst)):
        target = direct_callee(value.callee)
        if target is not None:
            return ["ret", target.name]
    return ["no"]


def summarize_function_ipa(function: Function) -> AnalysisSummary:
    """Compute one function's symbolic summary from its (SSA) body."""
    summary = AnalysisSummary(function.name)
    summary.is_declaration = function.is_declaration
    summary.is_internal = function.is_internal
    if function.is_declaration:
        return summary

    # ---- path facts proven on every route to an exit --------------------
    def gen(inst: Instruction):
        tokens = []
        pointer = _dereferenced_pointer(inst)
        index = None if pointer is None else _strip_param(pointer)
        if index is not None:
            tokens.append(("deref", index))
            if isinstance(inst, FreeInst):
                tokens.append(("free", index))
        if isinstance(inst, (CallInst, InvokeInst)):
            target = direct_callee(inst.callee)
            if target is not None:
                for j, arg in enumerate(inst.args):
                    index = _strip_param(arg)
                    if index is not None:
                        tokens.append(("arg", target.name, j, index))
        return tokens

    result = solve_dense(_MustPathFacts(gen), function)
    exit_states = [
        state for block, state in result.block_out.items()
        if state is not None and block.instructions
        and block.instructions[-1].opcode in (Opcode.RET, Opcode.UNWIND)
    ]
    if exit_states:
        must = frozenset.intersection(*exit_states)
        summary.path_tokens = sorted(list(t) for t in must)

    # ---- may facts (any-path, over-approximate) -------------------------
    def note(table: Dict[int, list], value: Value, atom: list) -> None:
        index = _strip_param(value)
        if index is not None:
            _add(table.setdefault(index, []), atom)

    for inst in function.instructions():
        if isinstance(inst, FreeInst):
            _add(summary.may_free, ["local"])
            note(summary.may_free_params, inst.pointer, ["local"])
        elif isinstance(inst, StoreInst):
            _add(summary.may_store, ["local"])
            note(summary.may_escape_params, inst.value, ["local"])
        elif isinstance(inst, PhiNode):
            for incoming, _ in inst.incoming:
                note(summary.may_escape_params, incoming, ["local"])
        elif isinstance(inst, ReturnInst):
            if inst.return_value is not None:
                note(summary.may_escape_params, inst.return_value, ["local"])
        elif isinstance(inst, (CallInst, InvokeInst)):
            target = direct_callee(inst.callee)
            effect = ["local"] if target is None else ["call", target.name]
            _add(summary.may_free, effect)
            _add(summary.may_store, list(effect))
            for j, arg in enumerate(inst.args):
                for table in (summary.may_free_params,
                              summary.may_escape_params):
                    note(table, arg,
                         ["local"] if target is None else effect + [j])

    # ---- return-value atoms --------------------------------------------
    returns_pointer = function.return_type.is_pointer
    if returns_pointer:
        domains = (NULL,)
    elif isinstance(function.return_type, types.IntegerType):
        domains = (TAINT, RangeLattice(function))
    else:
        return summary
    for inst in function.instructions():
        if not isinstance(inst, ReturnInst) or inst.return_value is None:
            continue
        for domain in domains:
            _value_atoms(domain, inst.return_value,
                         getattr(summary, domain.field), set())
        if returns_pointer:
            fresh = _freshness_atom(inst.return_value)
            if fresh is not None:
                _add(summary.ret_fresh, fresh)
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
        for domain in LATTICES:
            setattr(self, domain.field, domain.top)
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
        for domain in LATTICES:
            setattr(resolved, domain.field, self._eval_atoms(
                scope, getattr(summary, domain.field), None, domain, 0))

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

    def _eval_atoms(self, scope: int, atoms: list, ctx, domain: Lattice,
                    depth: int):
        element = domain.top
        for atom in atoms:
            element = domain.meet(
                element, self._eval_atom(scope, atom, ctx, domain, depth))
        return element

    def _eval_atom(self, scope: int, atom: list, ctx, domain: Lattice,
                   depth: int):
        kind = atom[0]
        if kind == "const":
            return domain.element(atom)
        if kind == "param":
            index = atom[1]
            if ctx is not None and index < len(ctx):
                return ctx[index]
            return domain.unknown
        if kind == "ret":
            callee, arg_atoms = atom[1], atom[2]
            ref = self._resolve_ref(scope, callee)
            if ref is None:
                return domain.external(callee)
            if depth >= self.MAX_DEPTH:
                return getattr(self.resolved[ref], domain.field)
            callee_ctx = [self._eval_atom(scope, a, ctx, domain, depth + 1)
                          for a in arg_atoms]
            summary = self._summaries[ref]
            if summary.is_declaration:
                return domain.unknown
            return self._eval_atoms(ref[0], getattr(summary, domain.field),
                                    callee_ctx, domain, depth + 1)
        return domain.unknown

    def call_return(self, domain: Lattice, scope: int, inst,
                    get: Callable[[Value], object]):
        """``domain``'s element for the return of call ``inst`` made
        from unit ``scope``, the callee's summary evaluated with the
        actual arguments' elements (``get``) as its context.  Whatever
        cannot be resolved (an indirect call, a declaration, a callee
        that never returns) claims nothing: ``domain.unknown``."""
        target = direct_callee(inst.callee)
        if target is None:
            return domain.unknown
        ref = self._resolve_ref(scope, target.name)
        if ref is None:
            return domain.external(target.name)
        summary = self._summaries[ref]
        if summary.is_declaration:
            return domain.unknown
        value = self._eval_atoms(ref[0], getattr(summary, domain.field),
                                 [get(arg) for arg in inst.args], domain, 1)
        return domain.unknown if value == domain.top else value

    # -- observability -------------------------------------------------------

    def statistics(self) -> dict:
        return {
            "ipa-functions": len(self._summaries),
            "ipa-sccs": self.scc_count,
            "ipa-largest-scc": self.largest_scc,
            "ipa-iterations": self.iterations,
        }
