"""Tests for the textual representation: printer and parser round trips.

Section 2.5's claim: the textual, binary, and in-memory representations
are equivalent, with no information loss between them.
"""

import pytest

from repro.core import (
    ConstantInt, IRBuilder, Module, ParseError, parse_function,
    parse_module, print_module, types, verify_module,
)
from repro.core.values import ConstantString


def _roundtrip(source: str) -> str:
    module = parse_module(source)
    verify_module(module)
    text = print_module(module)
    again = parse_module(text)
    assert print_module(again) == text
    return text


class TestParsing:
    def test_minimal_function(self):
        fn = parse_function("int %f() {\nentry:\n  ret int 0\n}")
        assert fn.name == "f"
        assert len(fn.blocks) == 1

    def test_all_binary_ops(self):
        ops = ["add", "sub", "mul", "div", "rem", "and", "or", "xor",
               "seteq", "setne", "setlt", "setgt", "setle", "setge"]
        body = "\n".join(
            f"  %v{i} = {op} int %a, %b" for i, op in enumerate(ops)
        )
        fn = parse_function(
            f"int %f(int %a, int %b) {{\nentry:\n{body}\n  ret int %v0\n}}"
        )
        assert fn.instruction_count() == len(ops) + 1

    def test_forward_branch_reference(self):
        fn = parse_function("""
int %f(bool %c) {
entry:
  br bool %c, label %later, label %other
other:
  ret int 1
later:
  ret int 2
}
""")
        assert [b.name for b in fn.blocks] == ["entry", "other", "later"]

    def test_forward_value_reference_in_phi(self):
        fn = parse_function("""
int %f(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %next = add int %i, 1
  %done = setge int %next, %n
  br bool %done, label %exit, label %loop
exit:
  ret int %i
}
""")
        verify_module(fn.parent)

    def test_call_to_later_function(self):
        module = parse_module("""
int %caller() {
entry:
  %r = call int %callee(int 1)
  ret int %r
}
int %callee(int %x) {
entry:
  ret int %x
}
""")
        verify_module(module)
        assert module.functions["caller"].instructions().__next__().callee \
            is module.functions["callee"]

    def test_global_and_string(self):
        module = parse_module("""
%greeting = internal constant [6 x sbyte] c"hello\\00"
%count = global int 42
""")
        assert module.globals["count"].initializer.value == 42
        assert isinstance(module.globals["greeting"].initializer, ConstantString)

    def test_recursive_named_type(self):
        module = parse_module("""
%list = type { int, %list* }
%head = global %list* null
""")
        list_ty = module.named_types["list"]
        assert list_ty.fields[1].pointee is list_ty

    def test_undefined_value_rejected(self):
        with pytest.raises(ParseError):
            parse_function("int %f() {\nentry:\n  ret int %nope\n}")

    def test_undefined_label_rejected(self):
        with pytest.raises(ParseError):
            parse_function("int %f() {\nentry:\n  br label %nowhere\n}")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_function("""
int %f(long %x) {
entry:
  %y = add int %x, 1
  ret int %y
}
""")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(ParseError):
            parse_function("""
int %f() {
entry:
  %x = add int 1, 2
  %x = add int 3, 4
  ret int %x
}
""")

    def test_module_name_from_comment(self):
        module = parse_module("; ModuleID = 'fancy'\n%g = global int 0\n")
        assert module.name == "fancy"

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_module("int main() { return 0; }")  # C, not IR


def _refused(source: str) -> ParseError:
    with pytest.raises(ParseError) as refused:
        parse_module(source)
    return refused.value


class TestParseErrors:
    """Only ParseError escapes the parser, at the line of the token at
    fault, however late the fault is found."""

    def test_forward_type_mismatch_at_the_use(self):
        error = _refused("""int %f(int %a) {
entry:
  br label %next
next:
  %y = add long %x, 1
  %x = add int %a, 1
  ret int %x
}
""")
        assert error.line == 5 and "%x has type int" in str(error)

    def test_unknown_symbol_at_the_use(self):
        error = _refused("int %f() {\nentry:\n  ret int %nope\n\n}\n")
        assert error.line == 3 and "unknown symbol %nope" in str(error)

    def test_undefined_label_at_the_branch(self):
        error = _refused("int %f() {\nentry:\n  br label %nowhere\n\n}\n")
        assert error.line == 3 and "undefined label" in str(error)

    def test_void_result_named_at_its_line(self):
        error = _refused("void %f() {\nentry:\n  %x = ret void\n\n}\n")
        assert error.line == 3 and "produces no value" in str(error)

    def test_instruction_after_terminator(self):
        error = _refused("int %f() {\nentry:\n  ret int 0\n  ret int 1\n}\n")
        assert error.line == 4 and "already terminated" in str(error)

    def test_store_type_mismatch_names_the_function(self):
        error = _refused("""
void %f() {
entry:
  %p = alloca long
  store int 1, long* %p
  ret void
}
""")
        assert error.line == 2 and "%f" in str(error)

    def test_load_from_a_non_pointer(self):
        error = _refused("""
int %f(int %a) {
entry:
  %v = load int %a
  ret int %v
}
""")
        assert error.line == 4 and "pointer" in str(error)

    def test_other_refusals_are_parse_errors(self):
        assert _refused("\n%g = global bool 1\n").line == 2
        assert _refused('\n%s = global [2 x sbyte] c"\\zz"\n').line == 2
        assert _refused("""
int %f(int* %p) {
entry:
  %q = getelementptr int* %p, int 1
  ret int 0
}
""").line == 4

    def test_integer_literal_must_fit_its_type(self):
        # A fit under either signedness: [-2^(w-1), 2^w - 1].
        for literal in ("ubyte 300", "sbyte 256", "ubyte -129", "sbyte -129",
                        "ushort 65536", "long 18446744073709551616"):
            error = _refused(f"%g = global {literal}\n")
            assert error.line == 1 and "does not fit" in str(error)
        module = parse_module("%a = global ubyte 255\n%b = global sbyte -128\n"
                              "%c = global sbyte 255\n%d = global ubyte -1\n"
                              "%e = global long -9223372036854775808\n")
        assert [g.initializer.value for g in module.globals.values()] == [
            255, -128, -1, 255, -9223372036854775808]

    def test_function_defined_twice(self):
        error = _refused("int %f() {\nentry:\n  ret int 0\n}\n"
                         "int %f() {\nentry:\n  ret int 1\n}\n")
        assert error.line == 5 and "redefinition of function %f" in str(error)
        # A declaration followed by the definition is one function.
        module = parse_module("declare int %f()\n"
                              "int %f() {\nentry:\n  ret int 0\n}\n")
        assert len(module.functions["f"].blocks) == 1


class TestRoundTrips:
    def test_every_scalar_constant_form(self):
        _roundtrip("""
%a = global int -5
%b = global ulong 18446744073709551615
%c = global double 2.5
%d = global float 1.5
%e = global bool true
%f = global sbyte* null
%g = global { int, bool } { int 3, bool false }
%h = global [2 x int] [ int 1, int 2 ]
%i = global [3 x int] zeroinitializer
""")

    def test_constant_expressions(self):
        _roundtrip("""
%table = internal constant [4 x int] [ int 1, int 2, int 3, int 4 ]
%second = global int* getelementptr ([4 x int]* %table, long 0, long 1)
""")

    def test_function_pointer_constant(self):
        _roundtrip("""
declare int %target(int %x)
%fp = global int (int)* %target
""")

    def test_control_flow_forms(self):
        _roundtrip("""
int %f(int %x) {
entry:
  switch int %x, label %done [ int 1, label %one int 2, label %two ]
one:
  ret int 10
two:
  ret int 20
done:
  ret int 0
}
""")

    def test_invoke_unwind(self):
        _roundtrip("""
declare void %may_throw()
int %f() {
entry:
  invoke void %may_throw() to label %ok unwind to label %bad
ok:
  ret int 0
bad:
  unwind
}
""")

    def test_memory_forms(self):
        _roundtrip("""
%node = type { int, %node* }
%node* %f(uint %n) {
entry:
  %one = malloc %node
  %many = malloc %node, uint %n
  %local = alloca int
  store int 5, int* %local
  %v = load int* %local
  %field = getelementptr %node* %one, long 0, uint 0
  store int %v, int* %field
  free %node* %many
  ret %node* %one
}
""")

    def test_shift_and_cast_and_vaarg(self):
        _roundtrip("""
int %f(int %x, sbyte** %ap) {
entry:
  %a = shl int %x, ubyte 2
  %b = shr int %a, ubyte 1
  %c = cast int %b to long
  %d = cast long %c to int
  %e = vaarg sbyte** %ap, int
  %f.1 = add int %d, %e
  ret int %f.1
}
""")

    def test_quoted_names(self):
        module = Module("odd")
        fn = module.new_function(types.function(types.INT, []), "odd name!")
        builder = IRBuilder(fn.append_block("entry block"))
        builder.ret(ConstantInt(types.INT, 0))
        text = print_module(module)
        again = parse_module(text)
        assert "odd name!" in again.functions
        assert print_module(again) == text

    def test_unnamed_values_get_slots(self):
        module = parse_module("""
int %f(int %x) {
entry:
  %0 = add int %x, 1
  %1 = mul int %0, %0
  ret int %1
}
""")
        text = print_module(module)
        assert "%0" in text and "%1" in text

    def test_local_global_collision_resolved(self):
        """A local whose name matches a global must print unambiguously."""
        module = parse_module("""
%x = global int 7
int %f() {
entry:
  %x.local = load int* %x
  ret int %x.local
}
""")
        fn = module.functions["f"]
        load = fn.entry_block.instructions[0]
        load.name = "x"  # force the collision
        text = print_module(module)
        again = parse_module(text)
        verify_module(again)
        assert print_module(again) == text


def _locs(module):
    return [
        (fn.name, bi, ii, inst.loc)
        for fn in module.functions.values()
        for bi, block in enumerate(fn.blocks)
        for ii, inst in enumerate(block.instructions)
    ]


class TestLocMetadata:
    def test_loc_prints_and_parses(self):
        module = parse_module("""
int %f(int %x) {
entry:
  %a = add int %x, 1 !loc 3
  %b = mul int %a, %a !loc 4
  ret int %b !loc 5
}
""")
        fn = module.functions["f"]
        assert [i.loc for i in fn.entry_block.instructions] == [3, 4, 5]
        text = print_module(module)
        assert "!loc 3" in text and "!loc 5" in text
        assert _locs(parse_module(text)) == _locs(module)

    def test_unlocated_instructions_print_without_suffix(self):
        module = parse_module("""
int %f() {
entry:
  %a = add int 1, 2
  ret int %a !loc 9
}
""")
        text = print_module(module)
        lines = [l for l in text.splitlines() if "add" in l]
        assert lines and "!loc" not in lines[0]
        again = parse_module(text)
        assert _locs(again) == _locs(module)

    def test_loc_on_void_instructions(self):
        """Stores/branches have no result name; the suffix still applies."""
        module = parse_module("""
void %f(int* %p) {
entry:
  store int 1, int* %p !loc 7
  br label %exit !loc 7
exit:
  ret void !loc 8
}
""")
        verify_module(module)
        assert _locs(parse_module(print_module(module))) == _locs(module)

    def test_frontend_locs_survive_text_round_trip(self):
        from repro.frontend import compile_source

        module = compile_source("""
int main() {
  int x = 4;
  int y = x * 10;
  return y + 2;
}
""", "located")
        locs = _locs(module)
        assert any(loc is not None for *_ignored, loc in locs)
        assert _locs(parse_module(print_module(module))) == locs

    def test_bad_loc_metadata_rejected(self):
        with pytest.raises(ParseError):
            parse_module("""
int %f() {
entry:
  ret int 0 !loc
}
""")
        with pytest.raises(ParseError):
            parse_module("""
int %f() {
entry:
  ret int 0 !line 3
}
""")
