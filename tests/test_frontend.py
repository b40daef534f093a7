"""Tests for the LC front-end: lexer, parser, and code generation —
with semantics validated by executing the generated IR."""

import pytest

from repro.core import verify_module
from repro.execution import Interpreter, UnhandledUnwind
from repro.frontend import CodeGenError, LexError, ParseError, compile_source, parse, tokenize


def run_main(source: str, args=()):
    module = compile_source(source, "t")
    verify_module(module)
    return Interpreter(module).run("main", args)


def run_capture(source: str):
    module = compile_source(source, "t")
    interp = Interpreter(module)
    code = interp.run("main")
    return code, "".join(interp.output)


class TestLexer:
    def test_tokens(self):
        kinds = [t.kind for t in tokenize("int x = 42;")]
        assert kinds == ["keyword", "ident", "=", "int", ";", "eof"]

    def test_numbers(self):
        tokens = tokenize("10 0x1F 2.5 1e3 3u")
        assert [t.value for t in tokens[:-1]] == [10, 31, 2.5, 1000.0, 3]

    def test_char_and_string_escapes(self):
        tokens = tokenize(r"'\n' '\x41' "
                          '"a\\tb"')
        assert tokens[0].value == 10
        assert tokens[1].value == 65
        assert tokens[2].value == b"a\tb"

    def test_comments_skipped(self):
        tokens = tokenize("a // line\n /* block\nmore */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_operators_maximal_munch(self):
        kinds = [t.kind for t in tokenize("a <<= b >> c <= d")]
        assert kinds[1] == "<<=" and kinds[3] == ">>" and kinds[5] == "<="

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')


class TestParserErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int main() { return 0 }")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse("int main() { else; }")

    def test_bad_character_rejected(self):
        with pytest.raises(LexError):
            parse("int main() { @bad; }")

    def test_case_outside_switch_body(self):
        with pytest.raises(ParseError):
            parse("int main() { switch (1) { return 0; } }")


class TestExpressions:
    def test_precedence(self):
        assert run_main("int main() { return 2 + 3 * 4; }") == 14
        assert run_main("int main() { return (2 + 3) * 4; }") == 20
        assert run_main("int main() { return 10 - 4 - 3; }") == 3
        assert run_main("int main() { return 1 << 3 | 1; }") == 9

    def test_comparisons_and_logic(self):
        assert run_main("int main() { return (3 < 5) && (5 < 3) ? 1 : 2; }") == 2
        assert run_main("int main() { return 1 == 1 ? 7 : 8; }") == 7

    def test_short_circuit(self):
        source = """
static int calls = 0;
static int noisy() { calls = calls + 1; return 0; }
int main() {
  int r = (0 != 0) && noisy();
  return calls * 10 + r;
}
"""
        assert run_main(source) == 0  # noisy never called

    def test_short_circuit_or(self):
        source = """
static int calls = 0;
static int noisy() { calls = calls + 1; return 1; }
int main() {
  int r = 1 || noisy();
  return calls * 10 + r;
}
"""
        assert run_main(source) == 1

    def test_increment_decrement(self):
        source = """
int main() {
  int x = 5;
  int a = x++;
  int b = ++x;
  int c = x--;
  int d = --x;
  return a * 1000 + b * 100 + c * 10 + d;
}
"""
        assert run_main(source) == 5 * 1000 + 7 * 100 + 7 * 10 + 5

    def test_compound_assignment(self):
        source = """
int main() {
  int x = 10;
  x += 5; x -= 3; x *= 2; x /= 4; x %= 5;
  return x;
}
"""
        assert run_main(source) == ((10 + 5 - 3) * 2 // 4) % 5

    def test_ternary(self):
        assert run_main("int main() { int x = 3; return x > 2 ? 10 : 20; }") == 10

    def test_unary_operators(self):
        assert run_main("int main() { return -(-5); }") == 5
        assert run_main("int main() { return ~0; }") == -1
        assert run_main("int main() { return !0 ? 4 : 5; }") == 4

    def test_integer_division_semantics(self):
        assert run_main("int main() { return -7 / 2; }") == -3
        assert run_main("int main() { return -7 % 2; }") == -1

    def test_sizeof(self):
        source = """
struct S { int a; double b; };
int main() { return (int)(sizeof(struct S) + sizeof(int) + sizeof(char*)); }
"""
        assert run_main(source) == 16 + 4 + 8

    def test_casts(self):
        assert run_main("int main() { return (int)2.9; }") == 2
        assert run_main("int main() { return (int)(char)257; }") == 1
        assert run_main("int main() { long v = 40; return (int)v + 2; }") == 42

    def test_unsigned_comparison(self):
        # As uint, -1 is the maximum value.
        assert run_main(
            "int main() { uint big = (uint)(0 - 1); return big > (uint)5 ? 1 : 0; }"
        ) == 1


class TestControlFlowStatements:
    def test_while_break_continue(self):
        source = """
int main() {
  int acc = 0;
  int i = 0;
  while (1) {
    i = i + 1;
    if (i > 10) { break; }
    if (i % 2 == 0) { continue; }
    acc = acc + i;
  }
  return acc;
}
"""
        assert run_main(source) == 1 + 3 + 5 + 7 + 9

    def test_do_while(self):
        source = """
int main() {
  int n = 0;
  do { n = n + 1; } while (n < 5);
  return n;
}
"""
        assert run_main(source) == 5

    def test_for_with_empty_parts(self):
        source = """
int main() {
  int i = 0;
  for (;;) {
    i = i + 1;
    if (i == 7) { break; }
  }
  return i;
}
"""
        assert run_main(source) == 7

    def test_switch_fallthrough(self):
        source = """
int classify(int x) {
  int r = 0;
  switch (x) {
    case 1:
    case 2: r = r + 10;        // 1 and 2 fall together
    case 3: r = r + 100; break; // 1,2,3 all add 100
    case 4: r = 4; break;
    default: r = 0 - 1;
  }
  return r;
}
int main() {
  return classify(1) * 100000 + classify(3) * 100 + classify(9) + 1;
}
"""
        assert run_main(source) == 110 * 100000 + 100 * 100 + (-1) + 1

    def test_nested_loops(self):
        source = """
int main() {
  int total = 0;
  int i; int j;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 4; j++) {
      if (j > i) { break; }
      total += 1;
    }
  }
  return total;
}
"""
        assert run_main(source) == 1 + 2 + 3 + 4


class TestDataStructures:
    def test_struct_and_pointers(self):
        source = """
struct Point { int x; int y; };
typedef struct Point Point;
static int manhattan(Point *p) {
  int ax = p->x; if (ax < 0) { ax = 0 - ax; }
  int ay = p->y; if (ay < 0) { ay = 0 - ay; }
  return ax + ay;
}
int main() {
  Point p;
  p.x = 0 - 3;
  p.y = 4;
  return manhattan(&p);
}
"""
        assert run_main(source) == 7

    def test_linked_list(self):
        source = """
struct N { int v; struct N *next; };
typedef struct N N;
int main() {
  N *head = null;
  int i;
  for (i = 1; i <= 5; i++) {
    N *n = malloc(N);
    n->v = i * i;
    n->next = head;
    head = n;
  }
  int total = 0;
  while (head) { total += head->v; head = head->next; }
  return total;
}
"""
        assert run_main(source) == 1 + 4 + 9 + 16 + 25

    def test_arrays_and_2d(self):
        source = """
static int grid[3][4];
int main() {
  int i; int j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 4; j++) { grid[i][j] = i * 10 + j; }
  }
  return grid[2][3] + grid[0][1];
}
"""
        assert run_main(source) == 23 + 1

    def test_pointer_arithmetic(self):
        source = """
int main() {
  int *buf = malloc(int, 10);
  int *p = buf;
  int i;
  for (i = 0; i < 10; i++) { *p = i; p = p + 1; }
  int *q = buf + 9;
  long count = q - buf;
  int r = *q + (int)count;
  free(buf);
  return r;
}
"""
        assert run_main(source) == 9 + 9

    def test_string_literals(self):
        code, output = run_capture("""
extern int print_str(char *s);
int main() {
  print_str("hello world");
  return 0;
}
""")
        assert output == "hello world\n"

    def test_function_pointers(self):
        source = """
static int add1(int x) { return x + 1; }
static int times2(int x) { return x * 2; }
static int apply(int (*f)(int), int v) { return f(v); }
int main() {
  int (*op)(int) = null;
  int r = apply(add1, 10);
  return r + apply(times2, 10);
}
"""
        assert run_main(source) == 11 + 20

    def test_global_initializers(self):
        source = """
static int answer = 42;
static double ratio = 0.5;
static char *msg = "yo";
static int table[4];
int main() {
  table[0] = answer;
  return table[0] + (int)(ratio * 2.0) + (int)*msg;
}
"""
        assert run_main(source) == 42 + 1 + ord("y")

    @pytest.mark.parametrize("ty, expr", [
        ("long", "2147483647 + 1"),
        ("long", "65536 * 65536"),
        ("uint", "-1 / 2"),
        ("long", "9007199254740993 / 1"),
        ("ulong", "18446744073709551615 / 3"),
        ("long", "1 << 40"),
    ])
    def test_global_initializer_is_the_run_time_value(self, ty, expr):
        """An initializer folds as the expression runs: literals keep
        their own type, operands convert as in ``h``, and the arithmetic
        wraps in that type before converting to the global's."""
        module = compile_source(
            f"{ty} g = {expr};\n{ty} h() {{ return {expr}; }}", "t")
        assert (module.globals["g"].initializer.value
                == Interpreter(module).run("h"))

    def test_float_arithmetic(self):
        source = """
int main() {
  double a = 1.5;
  double b = a * 4.0 + 0.25;
  float narrow = (float)b;
  return (int)(narrow * 4.0);
}
"""
        assert run_main(source) == 25


class TestExceptionsLC:
    def test_throw_without_try_aborts(self):
        module = compile_source("int main() { throw; return 0; }", "t")
        with pytest.raises(UnhandledUnwind):
            Interpreter(module).run("main")

    def test_local_throw_is_direct_branch(self):
        """Paper 2.4: a throw inside the try lowers to a branch, not an
        unwind — no invoke machinery involved."""
        source = """
int main() {
  int r = 0;
  try { throw; r = 1; } catch { r = 2; }
  return r;
}
"""
        module = compile_source(source, "t")
        from repro.core.instructions import Opcode

        main = module.functions["main"]
        assert not any(i.opcode == Opcode.UNWIND for i in main.instructions())
        assert Interpreter(module).run("main") == 2

    def test_nested_try(self):
        source = """
static void boom() { throw; }
int main() {
  int log = 0;
  try {
    try {
      boom();
    } catch {
      log = log + 1;
      throw;       // rethrow from inner catch... outside inner try
    }
  } catch {
    log = log + 10;
  }
  return log;
}
"""
        # The rethrow in the inner catch is *inside the outer try*, so
        # it branches to the outer catch directly.
        assert run_main(source) == 11


class TestSemanticErrors:
    def test_undefined_variable(self):
        with pytest.raises(CodeGenError, match="undefined"):
            compile_source("int main() { return nope; }")

    def test_unknown_field(self):
        with pytest.raises(CodeGenError, match="field"):
            compile_source("""
struct S { int a; };
int main() { struct S s; return s.b; }
""")

    def test_call_undeclared(self):
        with pytest.raises(CodeGenError, match="undeclared"):
            compile_source("int main() { return missing(1); }")

    def test_wrong_arity(self):
        with pytest.raises(CodeGenError, match="arguments"):
            compile_source("""
static int f(int a, int b) { return a + b; }
int main() { return f(1); }
""")

    def test_pointer_mismatch_requires_cast(self):
        with pytest.raises(CodeGenError, match="cast"):
            compile_source("""
int main() {
  int *p = malloc(int);
  char *q = p;
  return 0;
}
""")

    def test_break_outside_loop(self):
        with pytest.raises(CodeGenError, match="break"):
            compile_source("int main() { break; return 0; }")

    def test_struct_redefinition(self):
        with pytest.raises(CodeGenError, match="redefined"):
            compile_source("""
struct S { int a; };
struct S { int b; };
int main() { return 0; }
""")
