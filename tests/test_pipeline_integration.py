"""Integration tests: tricky whole programs through the full pipeline,
checked for exact output equivalence at every optimization level."""

import importlib.util
import os

import pytest

from repro.core import verify_module
from repro.driver import compile_and_link, optimize_module
from repro.driver.pipelines import standard_pipeline
from repro.execution import Interpreter
from repro.frontend import compile_source
from repro.transforms.passmanager import pass_name


def _equivalent_at_all_levels(source: str, entry: str = "main", args=()):
    reference = None
    outputs = None
    for level in (0, 1, 2, 3):
        module = compile_source(source, f"o{level}")
        optimize_module(module, level, verify_each=True)
        verify_module(module)
        interp = Interpreter(module, step_limit=100_000_000)
        result = interp.run(entry, args)
        if reference is None:
            reference = result
            outputs = interp.output
        else:
            assert result == reference, f"-O{level} changed the result"
            assert interp.output == outputs, f"-O{level} changed the output"
    # And the full LTO pipeline.
    module = compile_and_link([source], "lto", level=3)
    verify_module(module)
    interp = Interpreter(module, step_limit=100_000_000)
    assert interp.run(entry, args) == reference
    assert interp.output == outputs
    return reference


class TestPipelineShape:
    def test_no_constant_propagator_slot(self):
        names = [pass_name(p) for p in standard_pipeline(2).passes]
        assert names == [
            "simplifycfg", "sroa", "mem2reg", "instcombine", "simplifycfg",
            "dce", "simplifycfg", "reassociate", "gvn", "licm",
            "rangeopt", "instcombine", "adce", "simplifycfg"]
        assert [pass_name(p) for p in standard_pipeline(1).passes] \
            == names[:6]

    def test_folding_exposes_dead_code_to_the_dce_behind_it(self):
        # A constant branch condition: instcombine folds the compare,
        # simplifycfg the branch and what that leaves — at -O1 too.
        module = compile_source("""
int main() {
  int x = 6 * 7;
  if (x == 42) { return 1; }
  return 2;
}
""", "fold")
        optimize_module(module, 1)
        main = module.functions["main"]
        assert len(main.blocks) == 1 and main.instruction_count() == 1
        assert Interpreter(module).run("main") == 1


class TestSlotAudit:
    """benchmarks/slot_audit.py (the CI gate) on the two programs it
    carries for the link-time passes no LC suite program reaches."""

    @pytest.fixture(scope="class")
    def slot_audit(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "slot_audit.py")
        spec = importlib.util.spec_from_file_location("slot_audit", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("program, slot", [
        ("animals", ("lto", 1, "devirtualize")),
        ("guarded-call", ("lto", 6, "prune-eh")),
    ])
    def test_section_4_1_2_passes_have_a_program_they_move(
            self, slot_audit, program, slot):
        audit = slot_audit.Audit()
        audit.audit_program(program, slot_audit.corpus(0)[program])
        assert audit.slots[slot]["ipo-1"] == [1, 1, {program}]


class TestTrickyPrograms:
    def test_mutual_recursion(self):
        result = _equivalent_at_all_levels("""
static int is_odd(int n);
static int is_even(int n) {
  if (n == 0) { return 1; }
  return is_odd(n - 1);
}
static int is_odd(int n) {
  if (n == 0) { return 0; }
  return is_even(n - 1);
}
int main() {
  return is_even(10) * 10 + is_odd(7);
}
""")
        assert result == 11

    def test_function_pointer_dispatch_table(self):
        result = _equivalent_at_all_levels("""
static int op_add(int a, int b) { return a + b; }
static int op_sub(int a, int b) { return a - b; }
static int op_mul(int a, int b) { return a * b; }
static int (*ops[3])(int, int);
int main() {
  ops[0] = op_add;
  ops[1] = op_sub;
  ops[2] = op_mul;
  int acc = 0;
  int i;
  for (i = 0; i < 3; i++) {
    acc = acc * 10 + ops[i](7, 3);
  }
  return acc;
}
""")
        assert result == ((10 * 0 + 10) * 10 + 4) * 10 + 21

    def test_exceptions_inside_loop(self):
        result = _equivalent_at_all_levels("""
static int risky(int x) {
  if (x % 3 == 0) { throw; }
  return x * 2;
}
int main() {
  int total = 0;
  int faults = 0;
  int i;
  for (i = 1; i <= 10; i++) {
    try {
      total += risky(i);
    } catch {
      faults = faults + 1;
    }
  }
  return total * 10 + faults;
}
""")
        # i in 1..10, multiples of 3 fault (3,6,9): total = 2*(sum-18)=74
        assert result == (2 * (55 - 18)) * 10 + 3

    def test_shadowing_and_scopes(self):
        result = _equivalent_at_all_levels("""
static int x = 100;
int main() {
  int x = 10;
  int total = x;
  {
    int x = 1;
    total = total + x;
  }
  total = total + x;
  return total;
}
""")
        assert result == 10 + 1 + 10

    def test_aliased_writes_not_reordered(self):
        """GVN with alias analysis must keep may-aliasing accesses in
        order: two pointers to the same slot."""
        result = _equivalent_at_all_levels("""
static int slot = 0;
static int *alias_one() { return &slot; }
static int *alias_two() { return &slot; }
int main() {
  int *p = alias_one();
  int *q = alias_two();
  *p = 5;
  *q = 9;
  return *p;
}
""")
        assert result == 9

    def test_interleaved_heap_and_stack(self):
        result = _equivalent_at_all_levels("""
struct Frame { int id; int *scratch; };
typedef struct Frame Frame;
static int process(Frame *f, int depth) {
  if (depth == 0) { return f->id; }
  Frame child;
  int local[4];
  local[depth % 4] = depth;
  child.id = f->id + local[depth % 4];
  child.scratch = local;
  return process(&child, depth - 1);
}
int main() {
  Frame root;
  int buf[4];
  root.id = 1;
  root.scratch = buf;
  return process(&root, 6);
}
""")
        assert result == 1 + 6 + 5 + 4 + 3 + 2 + 1

    def test_string_processing(self):
        result = _equivalent_at_all_levels(r"""
extern long strlen(char *s);
static int count_char(char *s, char target) {
  int n = 0;
  while (*s != (char)0) {
    if (*s == target) { n = n + 1; }
    s = s + 1;
  }
  return n;
}
int main() {
  char *text = "the quick brown fox jumps over the lazy dog";
  return count_char(text, 'o') * 100 + (int)strlen(text);
}
""")
        # "the quick brown fox jumps over the lazy dog" is 43 chars
        # with four o's.
        assert result == 4 * 100 + 43

    def test_sieve_of_eratosthenes(self):
        result = _equivalent_at_all_levels("""
static char composite[200];
int main() {
  int count = 0;
  int i;
  for (i = 2; i < 200; i++) {
    if (!composite[i]) {
      count = count + 1;
      int j;
      for (j = i + i; j < 200; j += i) {
        composite[j] = 1;
      }
    }
  }
  return count;
}
""")
        assert result == 46  # primes below 200

    def test_matrix_multiply(self):
        result = _equivalent_at_all_levels("""
static int a[4][4];
static int b[4][4];
static int c[4][4];
int main() {
  int i; int j; int k;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 4; j++) {
      a[i][j] = i + j;
      b[i][j] = i - j;
    }
  }
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 4; j++) {
      int sum = 0;
      for (k = 0; k < 4; k++) {
        sum += a[i][k] * b[k][j];
      }
      c[i][j] = sum;
    }
  }
  int checksum = 0;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 4; j++) {
      checksum = checksum * 7 + c[i][j];
    }
  }
  return checksum % 251;
}
""")
        assert isinstance(result, int)

    def test_tail_recursive_gcd_chain(self):
        result = _equivalent_at_all_levels("""
static int gcd(int a, int b) {
  if (b == 0) { return a; }
  return gcd(b, a % b);
}
int main() {
  return gcd(1071, 462) * 1000 + gcd(17, 5);
}
""")
        assert result == 21 * 1000 + 1
