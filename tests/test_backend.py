"""Tests for native code generation: isel and its phi lowering, register
allocation, encoding, and image layout."""

import pytest

from repro.backend import (
    SPARC, X86, CodeGenerator, InstructionSelector, LinearScanAllocator,
    compile_for_size, print_machine_function,
)
from repro.backend.machine import MOp, is_phys
from repro.backend.regalloc import FRAME_REG
from repro.core import parse_module, print_module, verify_module
from repro.frontend import compile_source


def _machine(source: str, fn_name: str, target=X86):
    module = parse_module(source)
    selector = InstructionSelector(module)
    machine_fn = selector.select_function(module.functions[fn_name])
    return module, machine_fn


LOOP = """
int %f(int %n) {
entry:
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %done
done:
  ret int %i
}
"""


class TestInstructionSelection:
    def test_source_ir_unmutated(self):
        module = parse_module(LOOP)
        before = print_module(module)
        InstructionSelector(module).select_function(module.functions["f"])
        assert print_module(module) == before
        verify_module(module)

    def test_phi_becomes_copies(self):
        _, machine_fn = _machine(LOOP, "f")
        ops = [i.op for i in machine_fn.instructions()]
        assert MOp.MOV in ops          # phi copies
        assert MOp.CMPBR in ops        # fused compare-and-branch
        assert MOp.RET in ops

    def test_compare_branch_fusion(self):
        _, machine_fn = _machine(LOOP, "f")
        ops = [i.op for i in machine_fn.instructions()]
        assert MOp.SETCC not in ops, "single-use compare fuses into the branch"

    def test_standalone_compare_keeps_setcc(self):
        _, machine_fn = _machine("""
bool %f(int %a, int %b) {
entry:
  %c = setlt int %a, %b
  ret bool %c
}
""", "f")
        ops = [i.op for i in machine_fn.instructions()]
        assert MOp.SETCC in ops

    def test_global_access_folds_to_direct_form(self):
        _, machine_fn = _machine("""
%g = global int 5
int %f() {
entry:
  %v = load int* %g
  ret int %v
}
""", "f")
        ops = [i.op for i in machine_fn.instructions()]
        assert MOp.LOADG in ops
        assert MOp.LA not in ops

    def test_indexed_addressing(self):
        _, machine_fn = _machine("""
int %f(int* %base, long %i) {
entry:
  %p = getelementptr int* %base, long %i
  %v = load int* %p
  ret int %v
}
""", "f")
        ops = [i.op for i in machine_fn.instructions()]
        assert MOp.LOADX in ops
        # And the GEP itself vanished (folded into the access).
        assert MOp.ALUI not in ops or all(
            i.sub != "mul" for i in machine_fn.instructions()
            if i.op == MOp.ALUI
        )

    def test_struct_field_becomes_displacement(self):
        _, machine_fn = _machine("""
%pair = type { int, int }
int %f(%pair* %p) {
entry:
  %f1 = getelementptr %pair* %p, long 0, uint 1
  %v = load int* %f1
  ret int %v
}
""", "f")
        loads = [i for i in machine_fn.instructions() if i.op == MOp.LOAD]
        assert loads and loads[0].imm == 4

    def test_calls_and_malloc_lowering(self):
        _, machine_fn = _machine("""
declare int %callee(int %x)
int %f() {
entry:
  %p = malloc int
  %v = call int %callee(int 3)
  free int* %p
  ret int %v
}
""", "f")
        symbols = [i.symbol for i in machine_fn.instructions() if i.op == MOp.CALL]
        assert "__rt_malloc" in symbols
        assert "__rt_free" in symbols
        assert "callee" in symbols


class TestRegisterAllocation:
    def _allocate(self, source, fn_name="f", registers=8):
        module, machine_fn = _machine(source, fn_name)
        LinearScanAllocator(registers, fold_memory_operands=False).run(machine_fn)
        return machine_fn

    def test_all_registers_physical_after_allocation(self):
        machine_fn = self._allocate(LOOP)
        for inst in machine_fn.instructions():
            for reg in inst.registers():
                assert is_phys(reg), f"virtual register survived in {inst!r}"

    def test_spilling_under_pressure(self):
        # 12 simultaneously-live values into 4 registers (1 allocatable).
        lines = [f"  %v{i} = add int %x, {i}" for i in range(12)]
        partial_sums = ["  %s0 = add int %v0, %v1"]
        for i in range(2, 12):
            partial_sums.append(f"  %s{i-1} = add int %s{i-2}, %v{i}")
        source = ("int %f(int %x) {\nentry:\n" + "\n".join(lines)
                  + "\n" + "\n".join(partial_sums) + "\n  ret int %s10\n}")
        machine_fn = self._allocate(source, registers=4)
        assert machine_fn.frame_size > 0, "spill slots were allocated"
        spill_stores = [
            i for i in machine_fn.instructions()
            if i.op == MOp.STORE and len(i.srcs) > 1 and i.srcs[1] == FRAME_REG
        ]
        assert spill_stores

    def test_loop_crossing_values_extended(self):
        machine_fn = self._allocate("""
int %f(int %n, int %k) {
entry:
  %pre = mul int %k, 3
  br label %loop
loop:
  %i = phi int [ 0, %entry ], [ %next, %loop ]
  %next = add int %i, 1
  %c = setlt int %next, %n
  br bool %c, label %loop, label %done
done:
  ret int %pre
}
""")
        # %pre is defined before the loop and used after: its register
        # must not be reused inside the loop.  We can't observe the
        # assignment directly, but allocation must at least succeed and
        # keep every register physical.
        for inst in machine_fn.instructions():
            for reg in inst.registers():
                assert is_phys(reg)


class TestEncoding:
    def test_x86_variable_width(self):
        module = compile_source("int main() { return 1 + 2 * 3; }", "enc")
        image = compile_for_size(module, X86)
        sizes = set()
        for function in image.functions:
            for block in function.machine_fn.blocks:
                for inst in block.instructions:
                    sizes.add(len(X86.encode_instr(inst, 0)))
        assert len(sizes) > 1, "CISC encodings vary in width"

    def test_sparc_word_multiples(self):
        module = compile_source(
            "int main() { int i; int s = 0; for (i=0;i<9;i++) { s += i; } return s; }",
            "enc",
        )
        image = compile_for_size(module, SPARC)
        for function in image.functions:
            for block in function.machine_fn.blocks:
                for inst in block.instructions:
                    assert len(SPARC.encode_instr(inst, 0)) % 4 == 0

    def test_image_layout(self):
        module = compile_source("""
static int data[100];
static int initialized = 5;
int main() { return initialized; }
""", "img")
        image = compile_for_size(module, X86)
        assert image.bss_size >= 400          # zero data costs no file bytes
        assert len(image.data) >= 4           # the initialized int
        assert image.total_size == len(image.to_bytes())

    def test_assembly_printer(self):
        module = parse_module(LOOP)
        machine_fn = InstructionSelector(module).select_function(
            module.functions["f"]
        )
        listing = print_machine_function(machine_fn)
        assert "cmpbr.lt" in listing
        assert ".loop" in listing

    def test_assembly_printer_shows_a_folded_spill_slot(self):
        """An x86 operand read straight from its frame slot is listed as
        that slot, not as the scratch register the encoder ignores."""
        image = CodeGenerator(X86).compile_module(_branchy_module())
        main = next(f for f in image.functions if f.name == "main").machine_fn
        listing = print_machine_function(main)
        folded = [i for i in main.instructions() if i.mem_src is not None]
        assert any(i.op == MOp.CMPBR for i in folded)
        for instr in folded:
            assert f"[%fp+{instr.mem_src[1]}]" in listing

    def test_both_targets_compile_whole_benchmark(self, suite_o2):
        module = suite_o2("mcf")
        for target in (X86, SPARC):
            image = compile_for_size(module, target)
            assert image.code_size > 500
            assert image.to_bytes()


BRANCHY = """
extern int print_int(int x);
int step(int x) { return x * 3 + 1; }
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i++) {
    if (i % 3 == 0) { s = s + step(i); }
  }
  print_int(s);
  return s % 256;
}
"""


def _branchy_module():
    from repro.driver import optimize_module

    module = compile_source(BRANCHY, "branchy")
    optimize_module(module, level=2)
    return module


class TestSelectionIsShared:
    """One selection per (function, epoch), copied out to each target."""

    @pytest.fixture
    def selections(self, monkeypatch):
        from repro.backend import isel

        selected = []
        run = isel._Lowering.run

        def counting(lowering, function):
            selected.append(function.name)
            return run(lowering, function)

        monkeypatch.setattr(isel._Lowering, "run", counting)
        return selected

    def test_both_targets_select_each_function_once(self, selections):
        module = _branchy_module()
        images = [CodeGenerator(target).compile_module(module).to_bytes()
                  for target in (X86, SPARC)]
        assert sorted(selections) == ["main", "step"]
        fresh = _branchy_module()
        assert images == [CodeGenerator(target).compile_module(fresh).to_bytes()
                          for target in (X86, SPARC)]
        listing = print_machine_function(
            InstructionSelector(module).select_function(module.functions["main"]))
        assert ".crit:" in listing, "the program has a critical phi edge"

    def test_an_edited_body_alone_is_selected_again(self, selections):
        from repro.core.values import ConstantInt

        module = _branchy_module()
        CodeGenerator(X86).compile_module(module)
        multiply = next(inst for inst in module.functions["step"].instructions()
                        if inst.opcode.name == "MUL")
        multiply.set_operand(1, ConstantInt(multiply.type, 5))
        selections.clear()
        CodeGenerator(SPARC).compile_module(module)
        assert selections == ["step"]

    def test_a_renamed_callee_is_called_by_its_new_name(self):
        from repro.backend.machine import MOp
        from repro.fuzz.harness import run_interpreter, run_machine

        module = _branchy_module()
        CodeGenerator(X86).compile_module(module)
        callee = module.functions.pop("step")
        callee.name = "triple_plus_one"
        module.functions[callee.name] = callee
        image = CodeGenerator(SPARC).compile_module(module)
        main = next(f for f in image.functions if f.name == "main")
        calls = {i.symbol for i in main.machine_fn.instructions()
                 if i.op == MOp.CALL}
        assert calls == {"triple_plus_one", "print_int"}
        outcome = run_machine(module, SPARC)
        assert outcome == run_interpreter(module)
        assert outcome.code == 58

    def test_compile_module_leaves_the_module_alone(self):
        module = _branchy_module()
        before = print_module(module)
        epochs = {name: f.epoch for name, f in module.functions.items()}
        for target in (X86, SPARC):
            CodeGenerator(target).compile_module(module)
        assert print_module(module) == before
        assert {name: f.epoch for name, f in module.functions.items()} == epochs

    def test_the_caller_owns_its_copy(self):
        module = _branchy_module()
        selector = InstructionSelector(module)
        first = selector.select_function(module.functions["main"])
        listing = print_machine_function(first)
        LinearScanAllocator(X86.num_registers).run(first)
        second = selector.select_function(module.functions["main"])
        assert print_machine_function(second) == listing


def _reference_ends(machine_fn):
    """Interval ends by the defining rule, one backward branch at a
    time over every interval: a register live anywhere in [target,
    branch] stays live until the branch."""
    order = list(machine_fn.instructions())
    starts, ends = {}, {}
    for index, instr in enumerate(order):
        for reg in instr.registers():
            starts.setdefault(reg, index)
            ends[reg] = index
    block_start, position = {}, 0
    for block in machine_fn.blocks:
        block_start[id(block)] = position
        position += len(block.instructions)
    for index, instr in enumerate(order):
        target = block_start.get(id(instr.block))
        if instr.block is not None and target <= index:
            for reg, end in ends.items():
                if starts[reg] <= index and end >= target:
                    ends[reg] = max(end, index)
    return ends


@pytest.mark.parametrize("seed", range(1000, 1012))
def test_one_sweep_intervals_match_the_per_branch_rule(seed):
    from repro.driver import optimize_module
    from repro.fuzz.generator import generate_program

    allocator = LinearScanAllocator(X86.num_registers)
    for level in (0, 2):
        module = compile_source(generate_program(seed), "fuzz")
        if level:
            optimize_module(module, level=level)
        selector = InstructionSelector(module)
        for function in module.defined_functions():
            machine_fn = selector.select_function(function)
            order = list(machine_fn.instructions())
            spans, position = [], 0
            for block in machine_fn.blocks:
                spans.append((position, position + len(block.instructions)))
                position += len(block.instructions)
            intervals = allocator._build_intervals(machine_fn, order, spans)
            assert {reg: interval.end for reg, interval in intervals.items()} \
                == _reference_ends(machine_fn)


def test_each_instruction_is_encoded_once_and_each_branch_twice(monkeypatch):
    from collections import Counter

    module = _branchy_module()
    for target in (X86, SPARC):
        encoded = Counter()
        encode = target.encode_instr

        def counting(instr, displacement, encode=encode):
            encoded[id(instr)] += 1
            return encode(instr, displacement)

        monkeypatch.setattr(target, "encode_instr", counting)
        image = CodeGenerator(target).compile_module(module)
        for compiled in image.functions:
            for instr in compiled.machine_fn.instructions():
                assert encoded[id(instr)] in (
                    (0, 2) if instr.block is not None else (1,)), instr
        monkeypatch.undo()


def test_both_arms_of_a_branch_into_one_phi_block():
    """A critical edge taken by both arms of one branch: whichever arm
    runs, the phi's copy must run with it."""
    from repro.fuzz.harness import run_interpreter, run_machine

    module = parse_module("""
int %main() {
entry:
  %c = setlt int 1, 2
  br bool %c, label %a, label %b
a:
  %d = setgt int 2, 3
  br bool %d, label %x, label %x
b:
  br label %x
x:
  %p = phi int [ 7, %a ], [ 9, %b ]
  ret int %p
}
""")
    verify_module(module)
    expected = run_interpreter(module)
    assert expected.code == 7
    for target in (X86, SPARC):
        assert run_machine(module, target) == expected
