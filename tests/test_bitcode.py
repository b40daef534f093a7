"""Tests for the binary bytecode representation (section 2.5/4.1.3)."""

import struct

import pytest

from repro.bitcode import BytecodeError, BytecodeWriter, read_bytecode, write_bytecode
from repro.core import (
    Function, Opcode, parse_module, print_function, print_module, types,
    verify_module,
)
from repro.core.record import rebuild_body, snapshot_function
from repro.core.values import ConstantFP
from repro.execution import Interpreter
from repro.frontend import compile_source


def _roundtrip(source: str):
    module = parse_module(source)
    data = write_bytecode(module, strip_names=False)
    decoded = read_bytecode(data)
    verify_module(decoded)
    assert print_module(decoded) == print_module(module)
    return module, decoded, data


class TestRoundTrips:
    def test_functions_and_globals(self):
        _roundtrip("""
%counter = global int 5
%text = internal constant [3 x sbyte] c"hi\\00"
declare int %printf(sbyte* %fmt, ...)
int %main(int %argc) {
entry:
  %v = load int* %counter
  %r = add int %v, %argc
  ret int %r
}
""")

    def test_all_opcode_shapes(self):
        _roundtrip("""
%node = type { int, %node* }
int %everything(int %a, int %b, bool %c, sbyte** %ap) {
entry:
  %add = add int %a, %b
  %cmp = setlt int %add, 100
  %shifted = shl int %add, ubyte 2
  %wide = cast int %shifted to long
  %narrow = cast long %wide to int
  %n = malloc %node
  %slot = alloca int
  store int %narrow, int* %slot
  %v = load int* %slot
  %field = getelementptr %node* %n, long 0, uint 0
  store int %v, int* %field
  %va = vaarg sbyte** %ap, int
  free %node* %n
  br bool %cmp, label %left, label %right
left:
  br label %join
right:
  br label %join
join:
  %p = phi int [ %add, %left ], [ %va, %right ]
  switch int %p, label %done [ int 1, label %done ]
done:
  ret int %p
}
""")

    def test_invoke_unwind(self):
        _roundtrip("""
declare void %risky()
int %f() {
entry:
  invoke void %risky() to label %ok unwind to label %no
ok:
  ret int 0
no:
  unwind
}
""")

    def test_forward_references_across_layout(self):
        # 'use' precedes 'def' in the block *layout* while being
        # dominated by it in the CFG — the case the reader's typed
        # placeholders exist for.
        _roundtrip("""
int %f(bool %c) {
entry:
  br label %def
use:
  %r = add int %value, 1
  ret int %r
def:
  %value = add int 1, 2
  br label %use
}
""")

    def test_recursive_types(self):
        module, decoded, _ = _roundtrip("""
%tree = type { int, %tree*, %tree* }
%root = global %tree* null
""")
        tree = decoded.named_types["tree"]
        assert tree.fields[1].pointee is tree

    def test_constant_expressions(self):
        _roundtrip("""
%arr = internal constant [4 x int] [ int 1, int 2, int 3, int 4 ]
%third = global int* getelementptr ([4 x int]* %arr, long 0, long 2)
%alias = global sbyte* cast ([4 x int]* %arr to sbyte*)
""")

    def test_fp_precision_preserved(self):
        module, decoded, _ = _roundtrip("""
%a = global double 0.1
%b = global float 0.25
""")
        assert decoded.globals["a"].initializer.value == \
            module.globals["a"].initializer.value

    def test_semantics_preserved(self):
        source = """
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { return fib(12); }
"""
        module = compile_source(source, "fib")
        expected = Interpreter(module).run("main")
        decoded = read_bytecode(write_bytecode(module))
        assert Interpreter(decoded).run("main") == expected == 144


#: One module that uses every one of the 31 opcodes.
ALL_OPCODES = """
%Pair = type { int, %Pair* }
%counter = global int 0
declare int %ext(int %x)
int %thrower(int %x) {
entry:
  unwind
}
int %all(int %a, int %b, sbyte** %ap) {
entry:
  %slot = alloca int
  %heap = malloc %Pair, uint 2
  %s = add int %a, %b
  %d = sub int %s, 1
  %m = mul int %d, %b
  %q = div int %m, 3
  %r = rem int %q, 5
  %n = and int %r, 7
  %o = or int %n, 8
  %x = xor int %o, %a
  %sh = shl int %x, ubyte 2
  %sr = shr int %sh, ubyte 1
  %field = getelementptr %Pair* %heap, long 1, uint 0
  store int %sr, int* %field
  store int %sr, int* %slot
  %v = load int* %field
  %g = load int* %counter
  %eq = seteq int %v, %g
  %ne = setne int %v, 1
  %lt = setlt int %v, 2
  %gt = setgt int %v, 3
  %le = setle int %v, 4
  %ge = setge int %v, 5
  %va = vaarg sbyte** %ap, int
  %c = cast bool %eq to int
  %called = call int %ext(int %c)
  br bool %ne, label %sw, label %done
sw:
  switch int %called, label %inv [ int 0, label %done int 1, label %loop ]
inv:
  %t = invoke int %thrower(int %va) to label %done unwind to label %done
loop:
  %i = phi int [ 0, %sw ], [ %next, %loop ]
  %next = add int %i, 1
  %again = setlt int %next, 10
  br bool %again, label %loop, label %done
done:
  free %Pair* %heap
  ret int %v
}
"""


class TestRebuildPath:
    """The reader and a clone rebuild every opcode through one builder
    (``core.record.rebuild_body``): both copies print exactly like the
    original."""

    def test_module_uses_every_opcode(self):
        module = parse_module(ALL_OPCODES)
        verify_module(module)
        used = {inst.opcode for fn in module.defined_functions()
                for inst in fn.instructions()}
        assert used == set(Opcode) and len(used) == 31

    def test_bytecode_round_trip_of_every_opcode(self):
        _roundtrip(ALL_OPCODES)

    def test_clone_of_every_opcode(self):
        module = parse_module(ALL_OPCODES)
        original = module.functions["all"]
        clone = module.add_function(
            Function(original.function_type, "all.copy"))
        rebuild_body(snapshot_function(original), clone)
        verify_module(module)
        assert (print_function(clone).replace("%all.copy(", "%all(")
                == print_function(original))


class TestStripping:
    def test_stripped_is_smaller(self):
        module = compile_source("""
int compute_with_long_names(int meaningful_parameter) {
  int carefully_named_local = meaningful_parameter * 2;
  return carefully_named_local;
}
""", "named")
        named = write_bytecode(module, strip_names=False)
        stripped = write_bytecode(module, strip_names=True)
        assert len(stripped) < len(named)

    def test_stripped_still_executes(self):
        module = compile_source(
            "int main() { int x = 6; return x * 7; }", "strip"
        )
        decoded = read_bytecode(write_bytecode(module, strip_names=True))
        verify_module(decoded)
        assert Interpreter(decoded).run("main") == 42


class TestEncodingShape:
    def test_packed_word_majority(self):
        module = compile_source("""
int main() {
  int acc = 0;
  int i;
  for (i = 0; i < 10; i++) { acc += i * i; }
  return acc;
}
""", "enc")
        writer = BytecodeWriter()
        writer.write(module)
        total = writer.packed_count + writer.escaped_count
        assert writer.packed_count / total > 0.5

    def test_bad_magic_rejected(self):
        with pytest.raises(BytecodeError, match="magic"):
            read_bytecode(b"ELF\x7f" + b"\0" * 40)

    def test_bad_version_rejected(self):
        module = parse_module("%g = global int 1")
        data = bytearray(write_bytecode(module))
        for version in (2, 99):  # 2: the format before record numbering
            data[4] = version
            with pytest.raises(BytecodeError, match="version"):
                read_bytecode(bytes(data))

    def test_deterministic_output(self):
        module = compile_source("int main() { return 3; }", "det")
        assert write_bytecode(module) == write_bytecode(module)


class TestConstantPool:
    """A body's pool holds one entry per constant encoding, so equal
    constants decode to one object, and constants that differ in their
    bits (``0.0`` / ``-0.0``, NaN payloads) stay apart."""

    def test_equal_encodings_share_one_entry(self):
        module = parse_module(
            "double %f(int %x, double %d) {\nentry:\n"
            "  %a = add int %x, 7\n  %b = mul int %a, 7\n"
            "  %p = add double %d, 0.0\n  %q = add double %p, -0.0\n"
            "  %r = add double %q, 1.0\n  %s = add double %r, 2.0\n"
            "  ret double %s\n}\n")
        insts = module.functions["f"].blocks[0].instructions
        for index, payload in ((4, 1), (5, 2)):
            bits = struct.pack("<Q", 0x7FF8000000000000 | payload)
            insts[index].set_operand(1, ConstantFP(
                types.DOUBLE, struct.unpack("<d", bits)[0]))
        constants = [inst.operands[1] for inst in insts[:6]]
        assert constants[0] is not constants[1]  # two parsed ``int 7``
        decoded = read_bytecode(write_bytecode(module))
        a, b, p, q, r, s = [inst.operands[1] for inst in
                            decoded.functions["f"].blocks[0].instructions[:6]]
        assert a is b and a.value == 7
        assert p is not q and str(p) == "0.0" and str(q) == "-0.0"
        assert r is not s
        assert ([struct.pack("<d", c.value) for c in (r, s)]
                == [struct.pack("<d", c.value) for c in constants[4:]])


def _locs(module):
    return [
        (fn.name, bi, ii, inst.loc)
        for fn in module.functions.values()
        for bi, block in enumerate(fn.blocks)
        for ii, inst in enumerate(block.instructions)
    ]


class TestLocAndVersioning:
    SOURCE = """
int square(int x) { return x * x; }
int main() {
  int a = square(5);
  if (a > 20) { a = a - 3; }
  return a;
}
"""

    def test_locs_survive_bytecode_round_trip(self):
        module = compile_source(self.SOURCE, "located")
        locs = _locs(module)
        assert any(loc is not None for *_ignored, loc in locs)
        decoded = read_bytecode(write_bytecode(module, strip_names=False))
        assert _locs(decoded) == locs

    def test_locs_survive_stripped_round_trip(self):
        """Name stripping drops symbols, never debug locations."""
        module = compile_source(self.SOURCE, "located")
        decoded = read_bytecode(write_bytecode(module, strip_names=True))
        assert [loc for *_ignored, loc in _locs(decoded)] == \
            [loc for *_ignored, loc in _locs(module)]

    def test_compile_twice_bytes_identical(self):
        """Full determinism: two independent compiles of the same source
        serialize to the same bytes (the incremental cache's contract)."""
        from repro.driver import optimize_module

        first = compile_source(self.SOURCE, "det")
        second = compile_source(self.SOURCE, "det")
        optimize_module(first, 2)
        optimize_module(second, 2)
        assert write_bytecode(first, strip_names=False) == \
            write_bytecode(second, strip_names=False)

    def test_write_twice_bytes_identical(self):
        module = compile_source(self.SOURCE, "det")
        writer_a = BytecodeWriter(strip_names=False)
        writer_b = BytecodeWriter(strip_names=False)
        assert writer_a.write(module) == writer_b.write(module)
