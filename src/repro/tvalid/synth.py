"""lc-synth: exhaustively-verified peephole synthesis.

A miniature superoptimizer in the verify-then-promote style: enumerate
candidate rewrites over 2-3 instruction expression DAGs, *prove* each
one by exhaustive evaluation at narrow bitwidths, and only then admit
it to instcombine's generated rule set.  PR 4's double-cast miscompile
is the motivating bug class: a plausible algebraic identity that holds
at one width/signedness and fails at another.  Here no identity ships
unless it survives

1. **exhaustive** evaluation at 4 bits (every input pair, both
   signednesses) — the same narrow-width reinterpretation the
   translation validator enumerates;
2. **exhaustive** evaluation at 8 bits (the real sbyte/ubyte types);
3. **sampled** evaluation at 16/32/64 bits (boundary cross products
   plus seeded draws), which kills width-specific identities
   (``x shl 8 == 0`` holds at 8 bits only);

and is then **deduplicated**: a rule the hand-written folds already
reduce at least as far is noise, not knowledge.

Semantics come from :func:`repro.transforms.peephole.eval_tree`, which
delegates to :mod:`repro.core.constfold` — the interpreter's own
evaluators — so "verified here" means "true in execution".

The cast half of the bug class is audited rather than synthesized:
:func:`verify_cast_chain` exhaustively checks every double-cast fold
candidate ``cast (cast x: src to mid) to dst`` and must agree exactly
with instcombine's ``_cast_pair_foldable`` guard — the buggy pre-PR-4
fold is rejected with a concrete counterexample (``lc-synth
--self-check`` and the regression tests pin this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random
from typing import Iterable, Optional, Sequence

from ..core import parse_module, types
from ..transforms.peephole import (
    Rule, eval_tree, tree_cost, tree_cvars, tree_name, tree_vars,
)

ARITH_OPS = ("add", "sub", "and", "or", "xor")
SHIFT_OPS = ("shl", "shr")
CMP_OPS = ("seteq", "setne", "setlt", "setgt", "setle", "setge")
_COMMUTATIVE = frozenset({"add", "mul", "and", "or", "xor",
                          "seteq", "setne"})

_VARS = (("var", 0), ("var", 1))
_CONSTS = (("const", 0), ("const", 1), ("const", -1), ("const", 2))
_LEAVES = _VARS + _CONSTS
_AMOUNTS = (("amt", 1), ("amt", 2))

_SAMPLED_WIDTHS = (16, 32, 64)
_SAMPLES_PER_WIDTH = 64


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------

def _depth1(ops: Sequence[str], vars_only: bool = False) -> list[tuple]:
    leaves = _VARS if vars_only else _LEAVES
    exprs = []
    for op in ops:
        if op in SHIFT_OPS:
            for value in _VARS:   # shifting a constant folds away
                for amount in _AMOUNTS:
                    exprs.append((op, value, amount))
            continue
        for lhs in leaves:
            for rhs in leaves:
                if lhs[0] == "const" and rhs[0] == "const":
                    continue  # fully constant: constprop territory
                exprs.append((op, lhs, rhs))
    return exprs


def enumerate_lhs(arith_ops: Sequence[str] = ARITH_OPS,
                  shift_ops: Sequence[str] = SHIFT_OPS,
                  cmp_ops: Sequence[str] = CMP_OPS) -> Iterable[tuple]:
    """Candidate LHS trees: cost-2/3 DAGs with at least one variable."""
    inner = _depth1(tuple(arith_ops) + tuple(shift_ops))
    inner_vars = _depth1(tuple(arith_ops) + tuple(shift_ops), vars_only=True)
    # cost 2: one nested subexpression
    for op in arith_ops:
        for sub in inner:
            for leaf in _LEAVES:
                yield (op, sub, leaf)
                yield (op, leaf, sub)
    for op in shift_ops:
        for sub in inner:
            for amount in _AMOUNTS:
                yield (op, sub, amount)
    # cost 3: two nested subexpressions (variable-leaf subtrees only,
    # to keep the space enumerable)
    for op in arith_ops:
        for left in inner_vars:
            for right in inner_vars:
                yield (op, left, right)
    # comparison-rooted candidates: cmp of a computed value
    for op in cmp_ops:
        for sub in inner:
            for leaf in _LEAVES:
                yield (op, sub, leaf)
                yield (op, leaf, sub)


def rhs_pool(arith_ops: Sequence[str] = ARITH_OPS,
             shift_ops: Sequence[str] = SHIFT_OPS,
             cmp_ops: Sequence[str] = CMP_OPS) -> list[tuple]:
    """Replacement candidates: anything computable in <= 1 instruction."""
    pool: list[tuple] = list(_LEAVES)
    pool.extend(_depth1(tuple(arith_ops) + tuple(shift_ops)))
    for op in cmp_ops:
        for lhs in _VARS:
            for rhs in _LEAVES:
                if lhs is not rhs:
                    pool.append((op, lhs, rhs))
    pool.append(("bool", True))
    pool.append(("bool", False))
    return pool


_LEAF_HEADS = ("var", "const", "bool", "amt", "cvar")


def _canonical(tree: tuple) -> tuple:
    """Sort commutative operands so trivially-permuted duplicates
    collapse to one candidate."""
    head = tree[0]
    if head in _LEAF_HEADS:
        return tree
    if head == "cfold":
        return (head, tree[1], *(_canonical(o) for o in tree[2:]))
    operands = [_canonical(operand) for operand in tree[1:]]
    if head in _COMMUTATIVE:
        operands.sort()
    return (head, *operands)


def _alpha_rename(tree: tuple, mapping: dict) -> tuple:
    """Renumber variables by first occurrence, so ``y+y -> y shl 1``
    and ``x+x -> x shl 1`` collapse to one rule."""
    head = tree[0]
    if head == "var":
        if tree[1] not in mapping:
            mapping[tree[1]] = len(mapping)
        return ("var", mapping[tree[1]])
    if head in ("const", "bool", "amt", "cvar"):
        return tree
    if head == "cfold":
        return tree  # cvar/const operands only: nothing to rename
    return (head, *(_alpha_rename(operand, mapping) for operand in tree[1:]))


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

def _domain(ty: types.IntegerType) -> list[int]:
    return [ty.wrap(v) for v in range(1 << ty.bits)]


def _boundary(ty: types.IntegerType) -> list[int]:
    return sorted({ty.wrap(v) for v in
                   (0, 1, -1, 2, -2, ty.min_value, ty.max_value,
                    ty.min_value + 1, ty.max_value - 1)})


def _agree(lhs: tuple, rhs: tuple, ty: types.IntegerType,
           envs: Iterable[tuple]) -> Optional[tuple]:
    """First input env where the trees disagree, or None."""
    for env in envs:
        if eval_tree(lhs, ty, env) != eval_tree(rhs, ty, env):
            return env
    return None


def _env_slots(lhs: tuple, rhs: tuple) -> list[int]:
    """Env indices the rule reads: pattern vars at 0-1, constant vars
    at 2-3 (each is universally quantified during verification)."""
    used = tree_vars(lhs) | tree_vars(rhs)
    used |= {2 + i for i in tree_cvars(lhs) | tree_cvars(rhs)}
    return sorted(used)


def _fill(slots: Sequence[int], values: Sequence[int]) -> tuple:
    env = [0, 0, 0, 0]
    for slot, value in zip(slots, values):
        env[slot] = value
    return tuple(env)


def _exhaustive_envs(ty: types.IntegerType,
                     slots: Sequence[int]) -> Iterable[tuple]:
    domain = _domain(ty)
    return (_fill(slots, values)
            for values in itertools.product(domain, repeat=len(slots)))


def _sampled_envs(ty: types.IntegerType, slots: Sequence[int],
                  seed: int) -> list[tuple]:
    rng = Random(seed ^ ty.bits ^ (0x5eed if ty.signed else 0))
    boundary = _boundary(ty)
    envs = [_fill(slots, values)
            for values in itertools.product(boundary, repeat=len(slots))]
    for _ in range(_SAMPLES_PER_WIDTH):
        envs.append(_fill(slots, [ty.wrap(rng.getrandbits(ty.bits))
                                  for _ in slots]))
    return envs


def verify_rule(lhs: tuple, rhs: tuple, signed: bool,
                seed: int = 0xC0DE) -> bool:
    """The full ladder for one signedness class; True iff the identity
    holds at every probed width.  Exhaustive at 4 bits always; at
    8 bits up to two quantified inputs (beyond that the product space
    outgrows a unit-test budget, so it falls back to boundary+sampled,
    like the wide widths)."""
    slots = _env_slots(lhs, rhs)
    for bits in (4, 8):
        ty = types.integral(bits, signed)
        if bits == 8 and len(slots) > 2:
            envs: Iterable[tuple] = _sampled_envs(ty, slots, seed)
        else:
            envs = _exhaustive_envs(ty, slots)
        if _agree(lhs, rhs, ty, envs) is not None:
            return False
    for bits in _SAMPLED_WIDTHS:
        ty = types.integral(bits, signed)
        if _agree(lhs, rhs, ty, _sampled_envs(ty, slots, seed)) is not None:
            return False
    return True


def applicable_classes(lhs: tuple, rhs: tuple) -> Optional[str]:
    """Which signedness classes the identity verifies for."""
    signed_ok = verify_rule(lhs, rhs, signed=True)
    unsigned_ok = verify_rule(lhs, rhs, signed=False)
    if signed_ok and unsigned_ok:
        return "int"
    if signed_ok:
        return "sint"
    if unsigned_ok:
        return "uint"
    return None


# ----------------------------------------------------------------------
# Cast-chain audit (the PR-4 bug class)
# ----------------------------------------------------------------------

#: the exhaustively checkable narrow types; wider sources are sampled
_CAST_TYPES = {
    "sbyte": types.SBYTE, "ubyte": types.UBYTE,
    "short": types.SHORT, "ushort": types.USHORT,
    "int": types.INT, "uint": types.UINT,
    "long": types.LONG, "ulong": types.ULONG,
}


def verify_cast_chain(src: types.Type, mid: types.Type, dst: types.Type,
                      seed: int = 0xCA57) -> Optional[int]:
    """Does ``cast (cast x: src to mid) to dst == cast x to dst`` hold
    for every x?  Returns a counterexample input or None.

    Exhaustive over the source domain up to 16 bits; boundary+sampled
    beyond.  This is the verifier that rejects the pre-PR-4 buggy fold
    (``(long)(uint)x -> (long)x`` fails at x = -1).
    """
    from ..core.constfold import eval_cast

    if src.bits <= 16:
        values: Iterable[int] = (src.wrap(v) for v in range(1 << src.bits))
    else:
        rng = Random(seed ^ src.bits)
        sampled = set(_boundary(src))
        sampled.update(src.wrap(rng.getrandbits(src.bits))
                       for _ in range(256))
        values = sorted(sampled)
    for value in values:
        chained = eval_cast(mid, dst, eval_cast(src, mid, value))
        direct = eval_cast(src, dst, value)
        if chained != direct:
            return value
    return None


def audit_cast_chains() -> list[str]:
    """Check instcombine's double-cast guard against the verifier over
    every integer type triple; returns disagreement descriptions
    (empty = the guard admits exactly the verified folds)."""
    from ..transforms.instcombine import _cast_pair_foldable

    problems = []
    for src, mid, dst in itertools.product(_CAST_TYPES.values(), repeat=3):
        if src is mid:
            continue
        claimed = _cast_pair_foldable(src, mid, dst)
        counterexample = verify_cast_chain(src, mid, dst)
        if claimed and counterexample is not None:
            problems.append(
                f"unsound fold admitted: ({dst})({mid})({src})x "
                f"!= ({dst})x at x={counterexample}")
        # NOTE: the converse (verified but not claimed) is allowed for
        # sampled wide sources — absence of a counterexample there is
        # evidence, not proof, so the guard may stay conservative.
    return problems


# ----------------------------------------------------------------------
# Deduplication against the hand-written folds
# ----------------------------------------------------------------------

#: concrete stand-ins for constant variables when a rule with cvars is
#: serialized to IR for the hand-fold dedupe check (1 and 2: nonzero,
#: distinct, and degenerate for no hand-written fold)
_CVAR_SAMPLES = (1, 2)


def _tree_to_ir(tree: tuple, ty_name: str, temps: list[str],
                lines: list[str]) -> str:
    head = tree[0]
    if head == "var":
        return "%x" if tree[1] == 0 else "%y"
    if head == "const":
        ty = _CAST_TYPES[ty_name]
        return str(ty.wrap(tree[1]))
    if head == "cvar":
        ty = _CAST_TYPES[ty_name]
        return str(ty.wrap(_CVAR_SAMPLES[tree[1]]))
    if head == "bool":
        return "true" if tree[1] else "false"
    if head == "amt":
        return str(tree[1])
    operands = [_tree_to_ir(operand, ty_name, temps, lines)
                for operand in tree[1:]]
    name = f"%t{len(temps)}"
    temps.append(name)
    if head in SHIFT_OPS:
        lines.append(f"  {name} = {head} {ty_name} {operands[0]}, "
                     f"ubyte {operands[1]}")
    else:
        lines.append(f"  {name} = {head} {ty_name} {operands[0]}, "
                     f"{operands[1]}")
    return name


def _lhs_function_ir(lhs: tuple, ty_name: str) -> str:
    temps: list[str] = []
    lines: list[str] = []
    result = _tree_to_ir(lhs, ty_name, temps, lines)
    result_ty = "bool" if lhs[0] in CMP_OPS else ty_name
    body = "\n".join(lines)
    return (f"{result_ty} %lhs({ty_name} %x, {ty_name} %y) {{\n"
            f"entry:\n{body}\n  ret {result_ty} {result}\n}}\n")


def already_folded(lhs: tuple, rhs: tuple, applies: str) -> bool:
    """Would bare instcombine (hand-written folds only) already reduce
    the LHS to at most the RHS's cost?  Such a rule is redundant."""
    from ..transforms.instcombine import InstCombine

    ty_name = "int" if applies in ("int", "sint") else "uint"
    module = parse_module(_lhs_function_ir(lhs, ty_name))
    combiner = InstCombine(generated_rules=[])
    function = module.functions["lhs"]
    for _ in range(8):
        if not combiner.run_on_function(function):
            break
    remaining = function.instruction_count() - 1  # minus the ret
    return remaining <= tree_cost(rhs)


# ----------------------------------------------------------------------
# Generalized-constant rules (the reassociation family)
# ----------------------------------------------------------------------

_CONSTANT_TEMPLATE_OPS = ("add", "sub", "and", "or", "xor")


def _constant_template_lhs() -> list[tuple]:
    """LHS templates ``op2(op1(x, C0), C1)`` over constant variables —
    the chains real code actually produces (``i + 1 + 1``, masking a
    masked value, ...), which fixed-constant enumeration cannot reach."""
    x, c0, c1 = ("var", 0), ("cvar", 0), ("cvar", 1)
    inners = [("add", x, c0), ("sub", x, c0), ("sub", c0, x),
              ("and", x, c0), ("or", x, c0), ("xor", x, c0)]
    seen: set = set()
    out = []
    for outer in _CONSTANT_TEMPLATE_OPS:
        for inner in inners:
            for lhs in ((outer, inner, c1), (outer, c1, inner)):
                canonical = _canonical(lhs)
                if canonical in seen:
                    continue
                seen.add(canonical)
                out.append(lhs)
    return out


def _constant_template_rhs() -> list[tuple]:
    """Single-instruction replacements whose constant operand is folded
    from the bound constants at rewrite time."""
    x, c0, c1 = ("var", 0), ("cvar", 0), ("cvar", 1)
    folds = [("cfold", fop, a, b) for fop in _CONSTANT_TEMPLATE_OPS
             for a, b in ((c0, c1), (c1, c0))]
    out = []
    for rop in _CONSTANT_TEMPLATE_OPS:
        for fold in folds:
            out.append((rop, x, fold))
            out.append((rop, fold, x))
    return out


def synthesize_constant_rules(progress=None) -> list[Rule]:
    """Verify the constant-template family; returns the survivors.

    Each template LHS is paired with the first RHS candidate that
    survives the full ladder (candidate order is fixed, so the result
    is deterministic); templates with no one-instruction equivalent —
    ``and(add(x, C0), C1)`` and friends — simply drop out."""
    probes = {}
    for signed in (True, False):
        ty = types.integral(4, signed)
        probes[signed] = (ty, _sampled_envs(ty, (0, 2, 3), seed=0xF1E7))
    rules = []
    for lhs in _constant_template_lhs():
        for rhs in _constant_template_rhs():
            quick_miss = False
            for ty, envs in probes.values():
                if _agree(lhs, rhs, ty, envs) is not None:
                    quick_miss = True
                    break
            if quick_miss:
                continue
            applies = applicable_classes(lhs, rhs)
            if applies is None:
                continue
            if already_folded(lhs, rhs, applies):
                break  # the hand-written folds already cover this LHS
            rule = Rule(name=f"{tree_name(lhs)}->{tree_name(rhs)}",
                        lhs=lhs, rhs=rhs, applies=applies)
            rules.append(rule)
            if progress is not None:
                progress(lhs, rhs, applies)
            break
    return rules


# ----------------------------------------------------------------------
# The synthesis driver
# ----------------------------------------------------------------------

@dataclass
class SynthesisReport:
    rules: list[Rule] = field(default_factory=list)
    enumerated: int = 0
    fingerprint_hits: int = 0
    verified: int = 0
    deduplicated: int = 0
    cast_problems: list[str] = field(default_factory=list)


def _is_bool_tree(tree: tuple) -> bool:
    return tree[0] in CMP_OPS or tree[0] == "bool"


def _fingerprint(tree: tuple, grids) -> Optional[tuple]:
    """A cheap semantic signature over small probe grids (one per
    signedness); None when evaluation faults (never expected for the
    trap-free op set).  The leading tag keeps bool-producing and
    integer-producing trees in disjoint buckets — Python would happily
    equate ``False == 0`` and pair a comparison with an integer RHS,
    which would be a type-broken rewrite."""
    signature: list = ["bool" if _is_bool_tree(tree) else "int"]
    try:
        for ty, pairs in grids:
            for env in pairs:
                signature.append(eval_tree(tree, ty, env))
    except Exception:
        return None
    return tuple(signature)


def _probe_grids():
    grids = []
    for signed in (True, False):
        ty = types.integral(4, signed)
        probe = sorted({ty.wrap(v) for v in (-8, -3, -1, 0, 1, 2, 5, 7)})
        grids.append((ty, [(a, b) for a in probe for b in probe]))
    return grids


def _subtree_reducible(tree: tuple, by_signature: dict, grids) -> bool:
    """Does any proper op-node subtree fingerprint to a strictly
    cheaper replacement?  Such an LHS is noise: the worklist rewrites
    the subtree first, so the composite pattern never matches live IR
    in simplified form."""
    for sub in tree[1:]:
        if sub[0] in ("var", "const", "bool", "amt"):
            continue
        signature = _fingerprint(sub, grids)
        if signature is not None:
            cheaper = by_signature.get(signature)
            if cheaper is not None and tree_cost(cheaper) < tree_cost(sub):
                return True
        if _subtree_reducible(sub, by_signature, grids):
            return True
    return False


def synthesize(max_rules: int = 40,
               arith_ops: Sequence[str] = ARITH_OPS,
               shift_ops: Sequence[str] = SHIFT_OPS,
               cmp_ops: Sequence[str] = CMP_OPS,
               progress=None) -> SynthesisReport:
    """Enumerate, verify, dedupe; returns the surviving rules ranked
    cheapest-RHS-first (stable, deterministic).

    Full verification is expensive (an 8-bit exhaustive pass is 64Ki
    input pairs), so candidates are *ranked first* and verified in
    final emission order, stopping at ``max_rules`` survivors — the
    result is identical to verifying everything and truncating."""
    report = SynthesisReport()
    grids = _probe_grids()
    pool = rhs_pool(arith_ops, shift_ops, cmp_ops)
    by_signature: dict[tuple, tuple] = {}
    for rhs in pool:
        signature = _fingerprint(rhs, grids)
        if signature is None:
            continue
        # cheapest RHS wins a signature; ties break lexically
        best = by_signature.get(signature)
        key = (tree_cost(rhs), tree_name(rhs))
        if best is None or (tree_cost(best), tree_name(best)) > key:
            by_signature[signature] = rhs

    seen_lhs: set = set()
    candidates: list[tuple] = []
    for lhs in enumerate_lhs(arith_ops, shift_ops, cmp_ops):
        report.enumerated += 1
        canonical = _canonical(lhs)
        alpha_key = _alpha_rename(canonical, {})
        if alpha_key in seen_lhs:
            continue
        seen_lhs.add(alpha_key)
        signature = _fingerprint(lhs, grids)
        if signature is None:
            continue
        rhs = by_signature.get(signature)
        if rhs is None or _canonical(rhs) == canonical:
            continue
        if tree_cost(rhs) >= tree_cost(lhs):
            continue
        if tree_vars(rhs) - tree_vars(lhs):
            continue  # RHS needs a variable the LHS never binds
        if _subtree_reducible(lhs, by_signature, grids):
            continue
        report.fingerprint_hits += 1
        # emit in alpha-canonical spelling: deterministic, and the
        # matcher's commutative retry makes operand order immaterial
        mapping: dict = {}
        candidates.append((_alpha_rename(canonical, mapping),
                           _alpha_rename(rhs, mapping)))

    candidates.sort(key=lambda item: (tree_cost(item[1]), tree_cost(item[0]),
                                      tree_name(item[0])))
    for lhs, rhs in candidates:
        if len(report.rules) >= max_rules:
            break
        applies = applicable_classes(lhs, rhs)
        if applies is None:
            continue
        report.verified += 1
        if already_folded(lhs, rhs, applies):
            report.deduplicated += 1
            continue
        if progress is not None:
            progress(lhs, rhs, applies)
        report.rules.append(Rule(
            name=f"{tree_name(lhs)}->{tree_name(rhs)}",
            lhs=lhs, rhs=rhs, applies=applies))
    # the generalized-constant family rides on top of the cap: it is a
    # fixed, small set and the one that actually fires in real code
    constant_rules = synthesize_constant_rules(progress=progress)
    report.verified += len(constant_rules)
    report.rules.extend(constant_rules)
    report.cast_problems = audit_cast_chains()
    return report


# ----------------------------------------------------------------------
# Emission and self-check
# ----------------------------------------------------------------------

def _tree_to_source(tree: tuple) -> str:
    head = tree[0]
    if head in ("var", "const", "bool", "amt", "cvar"):
        return f'["{head}", {tree[1]}]'
    if head == "cfold":
        inner = ", ".join(_tree_to_source(operand) for operand in tree[2:])
        return f'["cfold", "{tree[1]}", {inner}]'
    inner = ", ".join(_tree_to_source(operand) for operand in tree[1:])
    return f'["{head}", {inner}]'


def emit_module(rules: Sequence[Rule]) -> str:
    """The text of ``instcombine_generated.py``."""
    lines = [
        '"""GENERATED by lc-synth — do not edit by hand.',
        "",
        "Each rule was discovered by pattern enumeration and admitted",
        "only after exhaustive verification at 4- and 8-bit widths plus",
        "sampled verification at 16/32/64 bits, then deduplicated",
        "against the hand-written instcombine folds.  Re-verify with",
        "``lc-synth --self-check`` (the tvalid-gate CI job does).",
        '"""',
        "",
        "RULES: list = [",
    ]
    for rule in rules:
        lines.append("    {")
        lines.append(f'        "name": {rule.name!r},')
        lines.append(f'        "lhs": {_tree_to_source(rule.lhs)},')
        lines.append(f'        "rhs": {_tree_to_source(rule.rhs)},')
        lines.append(f'        "applies": {rule.applies!r},')
        lines.append("    },")
    lines.append("]")
    lines.append("")
    return "\n".join(lines)


def self_check() -> list[str]:
    """Re-verify the checked-in generated rules; returns problem
    descriptions (empty = everything still proves)."""
    from ..transforms.peephole import load_generated_rules

    problems = []
    rules = load_generated_rules()
    if not rules:
        problems.append("no generated rules checked in")
    for rule in rules:
        classes = ((True, False) if rule.applies == "int"
                   else ((True,) if rule.applies == "sint" else (False,)))
        for signed in classes:
            if not verify_rule(rule.lhs, rule.rhs, signed):
                problems.append(
                    f"rule {rule.name} no longer verifies "
                    f"({'signed' if signed else 'unsigned'})")
        if already_folded(rule.lhs, rule.rhs, rule.applies):
            problems.append(
                f"rule {rule.name} duplicates a hand-written fold")
        if tree_vars(rule.rhs) - tree_vars(rule.lhs):
            problems.append(f"rule {rule.name} RHS invents a variable")
    problems.extend(audit_cast_chains())
    return problems
