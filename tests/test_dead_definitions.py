"""No definition in ``src/repro`` may be named nowhere but at itself.

A ``def`` whose name occurs as a word only at its own definition —
across ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` and
``docs/`` — has no caller, no test and no mention: it is deleted, not
kept.  The exemptions are rules, not names: dunders (the language calls
them), and methods reached through a computed ``getattr`` whose
constant prefix the scan reads off the call itself (the front end's
``_gen_<node>`` visitors).
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "docs")
_WORD = re.compile(r"\w+")


def _computed_prefixes(tree):
    """Constant prefixes of ``getattr(obj, "prefix" + ...)`` calls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2):
            name = node.args[1]
            if isinstance(name, ast.BinOp):
                name = name.left
            elif isinstance(name, ast.JoinedStr) and name.values:
                name = name.values[0]
            else:
                continue
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                yield name.value


def dead_definitions(sources, mentions=()):
    """``{name: [where, ...]}`` for every def in ``sources`` (path ->
    Python text) whose name is a word of ``sources`` and ``mentions``
    (more texts) only where it is defined."""
    words = collections.Counter()
    for text in (*sources.values(), *mentions):
        words.update(_WORD.findall(text))
    defined = collections.defaultdict(list)
    prefixes = set()
    for path, text in sources.items():
        tree = ast.parse(text)
        prefixes.update(_computed_prefixes(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name].append(f"{path}:{node.lineno}")
    return {
        name: where for name, where in defined.items()
        if words[name] == len(where)
        and not (name.startswith("__") and name.endswith("__"))
        and not any(name.startswith(prefix) for prefix in prefixes)
    }


def test_every_definition_in_src_is_named_somewhere_else():
    sources, mentions = {}, []
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix not in (".py", ".md", ".lc", ".ll"):
                continue
            text = path.read_text(encoding="utf-8")
            if directory == "src" and path.suffix == ".py":
                sources[str(path.relative_to(ROOT))] = text
            else:
                mentions.append(text)
    assert len(sources) > 100
    assert dead_definitions(sources, mentions) == {}


#: ``core/instructions.py::CastInst`` as it stood before ``is_noop``
#: (named nowhere else) was deleted, next to a visitor only a computed
#: ``getattr`` reaches.
_BEFORE = '''
class CastInst(Instruction):
    def __init__(self, value, dest_type, name=""):
        super().__init__(Opcode.CAST, dest_type, (value,), name)

    @property
    def value(self):
        return self.operands[0]

    @property
    def is_noop(self):
        return types.is_losslessly_convertible(self.value.type, self.type)


class Generator:
    def generate(self, expr):
        return getattr(self, "_gen_" + type(expr).__name__.lower())(expr)

    def _gen_literal(self, expr):
        return expr.value


folded = Generator().generate(CastInst(literal, types.INT))
'''


def test_the_scan_flags_a_definition_nothing_names():
    assert dead_definitions({"before.py": _BEFORE}) == {
        "is_noop": ["before.py:11"]}
    assert dead_definitions({"before.py": _BEFORE},
                            ["if cast.is_noop: ..."]) == {}
