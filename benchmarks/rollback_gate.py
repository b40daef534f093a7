"""Rollback-exactness gate: checkpoint -> run -> restore is the identity.

The contained pass manager's rollback source is a structural record
(``snapshot_function`` / ``snapshot_module``), not printed text or
bytecode.  This gate checks that the record is complete: it replays the
driver stage by stage over ``identity_check``'s corpus — the 16
programs under ``benchmarks/lifelong/inputs`` and
``gen_program.Program(seed)`` for seeds 1-3 — and, before every pass
runs for real, makes one round trip of every unit:

* a function pass of ``standard_pipeline(2)``, per translation unit and
  in both clean-up rounds on the linked module: record each function,
  run the pass on it, ``restore_function``, and require the printed
  function to be byte-identical to before;
* a pass of ``lto_pipeline()``, in both IPO rounds: record the module,
  run the pass, ``restore_module``, and require the module's bytecode
  to be byte-identical to before, with no use of a function or global
  left behind by a body the restore unlinked.

Each ``-O2`` stage follows the driver's skip rule (``stale_functions``,
then ``mark_optimized``), and the replay must end where the driver
does, so what is checked is the state the real pipeline passes through.

Usage:  PYTHONPATH=src python benchmarks/rollback_gate.py [--programs N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bitcode import write_bytecode
from repro.core import print_function
from repro.core.instructions import Instruction
from repro.core.record import snapshot_function
from repro.driver import compile_and_link
from repro.driver.pipelines import (
    lto_pipeline, mark_optimized, stale_functions, standard_pipeline,
)
from repro.frontend import compile_source
from repro.linker import link_modules
from repro.transforms import PassManager
from repro.transforms.passmanager import (
    pass_name, restore_function, restore_module, snapshot_module,
)

HERE = os.path.dirname(os.path.abspath(__file__))
LEVEL = 2
GENERATED_SEEDS = (1, 2, 3)


def corpus() -> dict[str, list[str]]:
    """name -> translation units: ``identity_check``'s bytecode corpus."""
    sys.path.insert(0, os.path.join(HERE, "lifelong"))
    import gen_program

    inputs = os.path.join(HERE, "lifelong", "inputs")
    programs = {}
    for entry in sorted(os.listdir(inputs)):
        path = os.path.join(inputs, entry)
        paths = ([os.path.join(path, unit) for unit in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        programs[os.path.splitext(entry)[0]] = [_read(p) for p in paths]
    for seed in GENERATED_SEEDS:
        programs[f"generated-{seed}"] = gen_program.Program(seed).sources()
    return programs


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def stray_uses(module) -> int:
    """Uses of the module's functions and globals by instructions that
    are not in one of its functions."""
    count = 0
    for symbol in (*module.globals.values(), *module.functions.values()):
        for use in symbol.uses:
            user = use.user
            if isinstance(user, Instruction) and (
                    user.function is None
                    or user.function.parent is not module):
                count += 1
    return count


class Gate:
    def __init__(self):
        self.function_trips = 0
        self.module_trips = 0
        #: "program stage pass @function: what differed"
        self.failures: list[str] = []

    def round_trip_functions(self, pass_obj, module, only, where) -> None:
        for function in list(module.defined_functions()):
            if function.name not in only:
                continue
            text = print_function(function)
            record = snapshot_function(function)
            pass_obj.run_on_function(function)
            restore_function(function, record)
            self.function_trips += 1
            if print_function(function) != text:
                self.failures.append(
                    f"{where} {pass_name(pass_obj)} @{function.name}: "
                    "restored text differs")

    def round_trip_module(self, pass_obj, module, where) -> None:
        data = write_bytecode(module, strip_names=False)
        strays = stray_uses(module)
        record = snapshot_module(module)
        pass_obj.run_on_module(module)
        restore_module(module, record)
        self.module_trips += 1
        if write_bytecode(module, strip_names=False) != data:
            self.failures.append(
                f"{where} {pass_name(pass_obj)}: restored bytecode differs")
        elif stray_uses(module) != strays:
            self.failures.append(
                f"{where} {pass_name(pass_obj)}: the restore left uses "
                "behind in unlinked bodies")

    def run_o2(self, module, where) -> None:
        """One ``-O2`` stage under the driver's skip rule: a round trip
        of every visited function, then the pass for real."""
        only = {f.name for f in stale_functions(module, LEVEL)}
        for pass_obj in standard_pipeline(LEVEL).passes:
            self.round_trip_functions(pass_obj, module, only, where)
            PassManager().add(pass_obj).run(module, only)
        mark_optimized(module, only, LEVEL)

    def run_ipo(self, passes, module, where) -> None:
        for pass_obj in passes:
            self.round_trip_module(pass_obj, module, where)
            PassManager().add(pass_obj).run(module)

    def check_program(self, program: str, units: list[str]) -> None:
        modules = [compile_source(source, f"{program}.tu{index}")
                   for index, source in enumerate(units)]
        for module in modules:
            self.run_o2(module, f"{program} {module.name}")
        linked = link_modules(modules, program)
        ipo = lto_pipeline().passes
        for round_ in ("1", "2"):
            self.run_ipo(ipo, linked, f"{program} ipo-{round_}")
            self.run_o2(linked, f"{program} cleanup-{round_}")
        driver = compile_and_link(units, program, LEVEL, lto=True)
        if write_bytecode(linked) != write_bytecode(driver):
            self.failures.append(
                f"{program}: the replay does not end where the driver does")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", type=int, default=None, metavar="N",
                        help="only the first N programs of the corpus")
    args = parser.parse_args(argv)

    programs = list(corpus().items())[:args.programs]
    gate = Gate()
    started = time.perf_counter()
    for program, units in programs:
        gate.check_program(program, units)
    elapsed = time.perf_counter() - started
    print(f"rollback-gate: {len(programs)} programs, "
          f"{gate.function_trips} function and {gate.module_trips} module "
          f"round trips, {len(gate.failures)} inexact, {elapsed:.1f}s")
    for failure in gate.failures:
        print(f"  {failure}", file=sys.stderr)
    if gate.failures:
        print("rollback-gate: FAIL — a restore did not reproduce the "
              "checkpointed state", file=sys.stderr)
        return 1
    print("rollback-gate: ok — every restore is exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
