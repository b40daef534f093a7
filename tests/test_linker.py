"""Tests for the module linker."""

import pytest

from repro.core import parse_module, print_module, verify_module, types
from repro.core.module import Linkage
from repro.execution import Interpreter
from repro.linker import LinkError, link_modules


def _link(*sources, name="linked"):
    modules = [parse_module(src, f"tu{i}") for i, src in enumerate(sources)]
    linked = link_modules(modules, name)
    verify_module(linked)
    return linked


class TestSymbolResolution:
    def test_declaration_resolves_to_definition(self):
        linked = _link(
            """
declare int %callee(int %x)
int %main() {
entry:
  %v = call int %callee(int 20)
  ret int %v
}
""",
            """
int %callee(int %x) {
entry:
  %r = add int %x, 1
  ret int %r
}
""",
        )
        assert Interpreter(linked).run("main") == 21

    def test_definition_first_also_works(self):
        linked = _link(
            "int %f(int %x) {\nentry:\n  ret int %x\n}",
            "declare int %f(int %x)",
        )
        assert not linked.functions["f"].is_declaration

    def test_global_resolution(self):
        linked = _link(
            "%shared = global int 9",
            """
%shared = external global int
int %main() {
entry:
  %v = load int* %shared
  ret int %v
}
""",
        )
        assert Interpreter(linked).run("main") == 9

    def test_internal_symbols_renamed(self):
        linked = _link(
            """
%secret = internal global int 1
int %get1() {
entry:
  %v = load int* %secret
  ret int %v
}
""",
            """
%secret = internal global int 2
int %get2() {
entry:
  %v = load int* %secret
  ret int %v
}
""",
        )
        assert Interpreter(linked).run("get1") == 1
        assert Interpreter(linked).run("get2") == 2
        assert len(linked.globals) == 2

    def test_duplicate_definition_rejected(self):
        with pytest.raises(LinkError, match="twice"):
            _link(
                "int %f() {\nentry:\n  ret int 1\n}",
                "int %f() {\nentry:\n  ret int 2\n}",
            )

    def test_signature_mismatch_rejected(self):
        with pytest.raises(LinkError, match="signature"):
            _link(
                "declare int %f(int %x)",
                "declare int %f(long %x)",
            )

    def test_global_function_clash_rejected(self):
        with pytest.raises(LinkError):
            _link("%sym = global int 1", "declare void %sym()")

    def test_unresolved_stays_declaration(self):
        linked = _link("declare int %externally_provided(int %x)")
        assert linked.functions["externally_provided"].is_declaration


class TestTypeUnification:
    def test_same_named_struct_merges(self):
        linked = _link(
            """
%pair = type { int, int }
%pair* %make() {
entry:
  %p = malloc %pair
  ret %pair* %p
}
""",
            """
%pair = type { int, int }
declare %pair* %make()
int %main() {
entry:
  %p = call %pair* %make()
  %f = getelementptr %pair* %p, long 0, uint 0
  store int 5, int* %f
  %v = load int* %f
  ret int %v
}
""",
        )
        assert len(linked.named_types) == 1
        assert Interpreter(linked).run("main") == 5

    def test_recursive_type_across_modules(self):
        linked = _link(
            """
%node = type { int, %node* }
%node* %cons(int %v, %node* %rest) {
entry:
  %n = malloc %node
  %val = getelementptr %node* %n, long 0, uint 0
  store int %v, int* %val
  %next = getelementptr %node* %n, long 0, uint 1
  store %node* %rest, %node** %next
  ret %node* %n
}
""",
            """
%node = type { int, %node* }
declare %node* %cons(int %v, %node* %rest)
int %main() {
entry:
  %a = call %node* %cons(int 1, %node* null)
  %b = call %node* %cons(int 2, %node* %a)
  %next = getelementptr %node* %b, long 0, uint 1
  %rest = load %node** %next
  %val = getelementptr %node* %rest, long 0, uint 0
  %v = load int* %val
  ret int %v
}
""",
        )
        node = linked.named_types["node"]
        assert node.fields[1].pointee is node
        assert Interpreter(linked).run("main") == 1

    def test_forward_use_of_a_unified_type(self):
        """A use that precedes its definition, typed by a named struct
        the linker unifies: the forward placeholder lives in the output
        module's type space, or the phi would not type-check."""
        linked = _link(
            """
%node = type { int, %node* }
%node* %cons(int %v, %node* %rest) {
entry:
  %n = malloc %node
  %val = getelementptr %node* %n, long 0, uint 0
  store int %v, int* %val
  %next = getelementptr %node* %n, long 0, uint 1
  store %node* %rest, %node** %next
  ret %node* %n
}
""",
            """
%node = type { int, %node* }
declare %node* %cons(int %v, %node* %rest)
int %main() {
entry:
  br label %build
build:
  %list = phi %node* [ null, %entry ], [ %next, %grow ]
  %i = phi int [ 1, %entry ], [ %i2, %grow ]
  %more = setle int %i, 4
  br bool %more, label %grow, label %walk
grow:
  %next = call %node* %cons(int %i, %node* %list)
  %i2 = add int %i, 1
  br label %build
walk:
  %n = phi %node* [ %list, %build ], [ %rest, %step ]
  %sum = phi int [ 0, %build ], [ %sum2, %step ]
  %end = seteq %node* %n, null
  br bool %end, label %done, label %step
step:
  %vp = getelementptr %node* %n, long 0, uint 0
  %v = load int* %vp
  %sum2 = add int %sum, %v
  %rp = getelementptr %node* %n, long 0, uint 1
  %rest = load %node** %rp
  br label %walk
done:
  ret int %sum
}
""",
        )
        node = linked.named_types["node"]
        phi = linked.functions["main"].blocks[1].instructions[0]
        assert phi.type.pointee is node
        assert Interpreter(linked).run("main") == 10

    def test_struct_shape_conflict_rejected(self):
        with pytest.raises(LinkError, match="disagrees"):
            _link(
                "%t = type { int }\n%g1 = global %t zeroinitializer",
                "%t = type { int, int }\n%g2 = global %t zeroinitializer",
            )


class TestInputsPreserved:
    def test_sources_unmutated(self):
        a = parse_module("int %f() {\nentry:\n  ret int 1\n}", "a")
        b = parse_module("declare int %f()", "b")
        text_a = print_module(a)
        text_b = print_module(b)
        link_modules([a, b])
        assert print_module(a) == text_a
        assert print_module(b) == text_b

    def test_empty_link_rejected(self):
        with pytest.raises(LinkError):
            link_modules([])


class TestAppendingLinkage:
    def test_arrays_concatenate(self):
        linked = _link(
            "%ctors = appending global [1 x int] [ int 10 ]",
            "%ctors = appending global [2 x int] [ int 20, int 30 ]",
        )
        ctors = linked.globals["ctors"]
        assert ctors.value_type.count == 3
        values = [e.value for e in ctors.initializer.elements]
        assert sorted(values) == [10, 20, 30]
