"""Seeded multi-TU LC program generator for the `edit-rebuild` workload.

Emits `TUS` library translation units of `FUNCS` loop/array functions
each, plus a `main` TU that calls every one of them, folds the results
into a checksum, prints it after each TU and returns it mod 251.

Every function is built as a small statement tree that is both printed
as LC source and *evaluated here in Python* with explicit 32-bit
wrap-around, so the expected exit value and printed output come from
an independent model, never from the compiler under test.  The program
under test receives only the generated source text.

The shape of the program (loop bounds, statement kinds, call graph) is
fixed; only the constants are drawn from the seed, all from
`[CONST_LO, CONST_HI]` and odd.  That keeps the executed step count and
(nearly) the bytecode size the same for every seed, so the exact-count
metrics of the workload do not depend on `--seed`.

Same seed => byte-identical sources and the same edit sequence.
"""

from __future__ import annotations

import random

TUS = 12
FUNCS = 6
BUF = 32            # local array length, a power of two (indices are masked)
CONST_LO, CONST_HI = 65, 8191
INT_MAX = 0x7FFFFFFF


def wrap(value: int) -> int:
    """Reduce to a signed 32-bit two's-complement int."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


# ---------------------------------------------------------------------------
# Expression / statement trees.
#
#   expr: ("k", i)  editable constant i of the enclosing function
#         ("n", v)  fixed literal         ("v", name)  scalar variable
#         ("ld", index_expr)              load buf[index & (BUF-1)]
#         ("call", function_name, [args])
#         (op, a, b) for op in + - * ^ & | << == <
#         ("shr", a, n) / ("mod", a, b)   on a & INT_MAX, so both are
#                                         defined without sign questions
#   stmt: ("set", name, expr) | ("st", index_expr, expr)
#         ("for", name, bound, [stmts])   name = 0 .. bound-1
#         ("if", cond, [stmts], [stmts]) | ("ret", expr)
# ---------------------------------------------------------------------------

_INFIX = {"+", "-", "*", "^", "&", "|", "<<", "==", "<"}


class Function:
    def __init__(self, name: str, body: list, consts: list[int],
                 static: bool = False):
        self.name = name
        self.body = body
        self.consts = consts
        self.static = static

    # -- printing -----------------------------------------------------------

    def _expr(self, e) -> str:
        kind = e[0]
        if kind == "k":
            return str(self.consts[e[1]])
        if kind == "n":
            return str(e[1])
        if kind == "v":
            return e[1]
        if kind == "ld":
            return f"buf[({self._expr(e[1])}) & {BUF - 1}]"
        if kind == "call":
            return f"{e[1]}({', '.join(self._expr(a) for a in e[2])})"
        if kind == "shr":
            return f"(({self._expr(e[1])} & {INT_MAX}) >> {e[2]})"
        if kind == "mod":
            return f"(({self._expr(e[1])} & {INT_MAX}) % {self._expr(e[2])})"
        assert kind in _INFIX, kind
        return f"({self._expr(e[1])} {kind} {self._expr(e[2])})"

    def _stmts(self, stmts: list, indent: str, out: list[str]) -> None:
        for s in stmts:
            kind = s[0]
            if kind == "set":
                out.append(f"{indent}{s[1]} = {self._expr(s[2])};")
            elif kind == "st":
                out.append(f"{indent}buf[({self._expr(s[1])}) & {BUF - 1}]"
                           f" = {self._expr(s[2])};")
            elif kind == "for":
                out.append(f"{indent}for ({s[1]} = 0; {s[1]} < {s[2]}; "
                           f"{s[1]}++) {{")
                self._stmts(s[3], indent + "  ", out)
                out.append(f"{indent}}}")
            elif kind == "if":
                out.append(f"{indent}if ({self._expr(s[1])}) {{")
                self._stmts(s[2], indent + "  ", out)
                out.append(f"{indent}}} else {{")
                self._stmts(s[3], indent + "  ", out)
                out.append(f"{indent}}}")
            else:
                assert kind == "ret", kind
                out.append(f"{indent}return {self._expr(s[1])};")

    def source(self) -> str:
        head = ("static " if self.static else "") + \
            f"int {self.name}(int a, int b) {{"
        out = [head, f"  int buf[{BUF}];", "  int i;", "  int j;",
               "  int x;", "  int acc;", "  i = 0; j = 0; x = 0; acc = 0;"]
        self._stmts(self.body, "  ", out)
        out.append("}")
        return "\n".join(out) + "\n"

    # -- the model ----------------------------------------------------------

    def evaluate(self, a: int, b: int, functions: dict) -> int:
        env = {"a": a, "b": b, "i": 0, "j": 0, "x": 0, "acc": 0}
        # Every generated function writes a buf slot before reading it;
        # None makes a violation of that fail loudly in the model.
        buf: list = [None] * BUF

        def ev(e) -> int:
            kind = e[0]
            if kind == "k":
                return self.consts[e[1]]
            if kind == "n":
                return e[1]
            if kind == "v":
                return env[e[1]]
            if kind == "ld":
                return buf[ev(e[1]) & (BUF - 1)]
            if kind == "call":
                args = [ev(arg) for arg in e[2]]
                return functions[e[1]].evaluate(args[0], args[1], functions)
            if kind == "shr":
                return (ev(e[1]) & INT_MAX) >> e[2]
            if kind == "mod":
                return (ev(e[1]) & INT_MAX) % ev(e[2])
            x, y = ev(e[1]), ev(e[2])
            if kind == "+":
                return wrap(x + y)
            if kind == "-":
                return wrap(x - y)
            if kind == "*":
                return wrap(x * y)
            if kind == "^":
                return wrap(x ^ y)
            if kind == "&":
                return wrap(x & y)
            if kind == "|":
                return wrap(x | y)
            if kind == "<<":
                return wrap(x << y)
            if kind == "==":
                return int(x == y)
            assert kind == "<", kind
            return int(x < y)

        class Return(Exception):
            pass

        def run(stmts: list) -> None:
            for s in stmts:
                kind = s[0]
                if kind == "set":
                    env[s[1]] = ev(s[2])
                elif kind == "st":
                    buf[ev(s[1]) & (BUF - 1)] = ev(s[2])
                elif kind == "for":
                    env[s[1]] = 0
                    while env[s[1]] < s[2]:
                        run(s[3])
                        env[s[1]] = wrap(env[s[1]] + 1)
                elif kind == "if":
                    run(s[2] if ev(s[1]) else s[3])
                else:
                    result.append(ev(s[1]))
                    raise Return

        result: list[int] = []
        try:
            run(self.body)
        except Return:
            pass
        return result[0]


def _k(i):
    return ("k", i)


def _n(v):
    return ("n", v)


A, B, I, J, X, ACC = (("v", name) for name in ("a", "b", "i", "j", "x", "acc"))


def _library_functions(t: int, rng: random.Random) -> list[Function]:
    """The six functions (plus one static helper) of library TU `t`."""
    def consts(count: int) -> list[int]:
        return [rng.randrange(CONST_LO, CONST_HI + 1) | 1
                for _ in range(count)]

    prefix = f"lib{t:02d}"
    helper = Function(f"{prefix}_mix", [
        ("ret", ("^", ("+", ("*", A, _k(0)), B), _k(1)))], consts(2),
        static=True)
    fill_sum = Function(f"{prefix}_f0", [
        ("set", "acc", B),
        ("for", "i", BUF, [("st", I, ("^", ("+", ("*", I, _k(0)), A), _k(1)))]),
        ("for", "i", BUF, [("set", "acc", ("+", ("*", ACC, _k(2)), ("ld", I)))]),
        ("ret", ACC)], consts(3))
    scan = Function(f"{prefix}_f1", [
        ("st", _n(0), ("+", A, _k(0))),
        ("for", "i", BUF - 1, [
            ("st", ("+", I, _n(1)),
             ("+", ("ld", I), ("*", ("^", I, _k(1)), _k(2))))]),
        ("set", "acc", B),
        ("for", "i", BUF, [("set", "acc", ("^", ACC, ("+", ("ld", I), _k(3))))]),
        ("ret", ACC)], consts(4))
    nested = Function(f"{prefix}_f2", [
        ("set", "acc", A),
        ("for", "i", 8, [("for", "j", 8, [
            ("set", "acc", ("+", ACC, ("&", ("^", ("*", I, _k(0)),
                                             ("+", J, _k(1))), _k(2))))])]),
        ("ret", ("-", ACC, B))], consts(3))
    branchy = Function(f"{prefix}_f3", [
        ("set", "acc", B),
        ("for", "i", 24, [
            ("set", "x", ("^", ("+", A, ("*", I, _k(0))), _k(1))),
            ("if", ("==", ("&", X, _n(1)), _n(0)),
             [("set", "acc", ("+", ACC, ("&", X, _k(2))))],
             [("set", "acc", ("^", ACC, ("*", X, _k(3))))])]),
        ("ret", ACC)], consts(4))
    calls = Function(f"{prefix}_f4", [
        ("for", "i", 16, [
            ("set", "acc", ("+", ACC, ("call", helper.name,
                                       [("+", A, I), ("^", B, _k(0))])))]),
        ("ret", ("|", ACC, _n(1)))], consts(1))
    # f5 reaches into the previous TU, so link-time IPO has cross-TU
    # call edges to work on; TU 0 calls its own f2 instead (no cycles).
    callee = f"lib{t - 1:02d}_f0" if t else f"{prefix}_f2"
    cross = Function(f"{prefix}_f5", [
        ("set", "acc", A),
        ("for", "i", 12, [
            ("set", "acc", ("^", ("<<", ACC, _n(1)),
                            ("mod", ("+", ACC, ("*", I, _k(0))), _k(1))))]),
        ("set", "x", ("call", callee, [("&", A, _n(15)), B])),
        ("ret", ("+", ("shr", ACC, 3), ("^", X, _k(2))))], consts(3))
    return [helper, fill_sum, scan, nested, branchy, calls, cross]


class Program:
    """The generated program: sources, the model's verdict, and edits."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.units: list[list[Function]] = [
            _library_functions(t, self._rng) for t in range(TUS)]

    def _functions(self) -> dict:
        return {fn.name: fn for unit in self.units for fn in unit}

    def _calls(self):
        """(tu, function name, a, b) for every call `main` makes."""
        for t, unit in enumerate(self.units):
            for k, fn in enumerate(f for f in unit if not f.static):
                yield t, fn.name, 3 + t, 5 + 7 * k

    def sources(self) -> list[str]:
        """TUS library TUs followed by the `main` TU."""
        texts = []
        for t, unit in enumerate(self.units):
            # Callees in the previous TU first, then definitions.
            externs = {e[1] for fn in unit for e in _walk(fn.body)
                       if e[0] == "call"} - {fn.name for fn in unit}
            decls = "".join(f"extern int {name}(int a, int b);\n"
                            for name in sorted(externs))
            texts.append(f"// generated library TU {t}\n" + decls
                         + "\n".join(fn.source() for fn in unit))
        lines = ["// generated driver TU", "extern int print_int(int x);"]
        lines += [f"extern int {name}(int a, int b);"
                  for _, name, _, _ in self._calls()]
        lines += ["int main() {", "  int sum;", "  sum = 17;"]
        last = 0
        for t, name, a, b in self._calls():
            if t != last:
                lines.append("  print_int(sum);")
                last = t
            lines.append(f"  sum = sum * 31 + {name}({a}, {b});")
        lines += ["  print_int(sum);", f"  return (sum & {INT_MAX}) % 251;",
                  "}"]
        texts.append("\n".join(lines) + "\n")
        return texts

    def expected(self) -> tuple[int, str]:
        """(exit value, printed output) according to the Python model."""
        functions = self._functions()
        total, out, last = 17, [], 0
        for t, name, a, b in self._calls():
            if t != last:
                out.append(f"{total}\n")
                last = t
            total = wrap(total * 31 + functions[name].evaluate(a, b, functions))
        out.append(f"{total}\n")
        return (total & INT_MAX) % 251, "".join(out)

    def edit(self, tu: int) -> None:
        """Change one constant of one function of library TU `tu`."""
        fn = self._rng.choice(self.units[tu])
        index = self._rng.randrange(len(fn.consts))
        old = fn.consts[index]
        while fn.consts[index] == old:
            fn.consts[index] = self._rng.randrange(CONST_LO, CONST_HI + 1) | 1

    def edit_order(self, count: int) -> list[int]:
        """`count` TU indices: seeded permutations of the library TUs, so
        every TU is edited equally often whatever the seed."""
        order: list[int] = []
        while len(order) < count:
            lap = list(range(TUS))
            self._rng.shuffle(lap)
            order.extend(lap)
        return order[:count]


def _walk(node):
    """Every expression tuple inside a statement list or expression."""
    if isinstance(node, list):
        for item in node:
            yield from _walk(item)
    elif isinstance(node, tuple):
        yield node
        for item in node[1:]:
            yield from _walk(item)


if __name__ == "__main__":
    import sys

    program = Program(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
    for text in program.sources():
        sys.stdout.write(text + "\n")
    print("// expected:", program.expected())
