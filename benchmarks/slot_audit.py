"""CI slot audit: every pass slot of the -O2 and LTO pipelines earns its place.

Replays the driver stage by stage — ``standard_pipeline(2)`` over every
translation unit, link, the ``lto_pipeline`` passes, an ``-O2`` clean-up
round, the same IPO pass objects again, a second clean-up — running one
pass at a time and taking every unit's digest before and after it, and
checks that the module it ends with prints exactly like
the driver's own ``optimize_module`` / ``link_time_optimize``, so the
audit is of the real pipeline.  Each ``-O2`` stage applies the driver's
skip rule through the driver's own predicate (``stale_functions``, then
``mark_optimized``): a function that has not moved since an ``-O2`` run
finished over it, and calls nothing that has, is not visited.

Per slot and stage it reports the units run (functions, or the module
for a module pass), the units whose digest moved (a function's printed
text, a module's bytecode), and the programs in which any did; per
``-O2`` stage, the functions skipped as unchanged.  A slot
that moves nothing at any stage on the whole corpus fails the gate: it
is dead weight (ROADMAP item 5(a)), and this is how one is kept from
coming back unnoticed.

The corpus is the benchsuite, ``examples/lc``, ``--fuzz N`` seeded
programs, and two programs for the link-time passes of the paper's
section 4.1.2 that nothing above can reach — LC has no vtables and the
suite no ``try``: the class hierarchy of ``examples/devirtualization.py``
(devirtualize) and a ``try`` around a callee that cannot throw
(prune-eh).

Usage:  PYTHONPATH=src python benchmarks/slot_audit.py --fuzz 100
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from collections import Counter, defaultdict
from typing import Callable

from repro.benchsuite import benchmark_names, load_source
from repro.bitcode import write_bytecode
from repro.core import Module, print_function, print_module
from repro.driver.pipelines import (
    link_time_optimize, lto_pipeline, mark_optimized, optimize_module,
    stale_functions, standard_pipeline,
)
from repro.frontend import compile_source
from repro.fuzz.generator import generate_program
from repro.linker import link_modules
from repro.transforms import PassManager
from repro.transforms.passmanager import pass_name

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEVEL = 2
FUZZ_BASE_SEED = 1000


#: An invoke whose callee provably never unwinds (and, being recursive,
#: is not inlined away: inlining one level leaves an invoke of it):
#: prune-eh's whole job.
GUARDED_CALL = """
static int depth(int n) {
  if (n <= 0) { return 0; }
  return 1 + depth(n - 1);
}
int main() {
  int r = 0;
  try { r = depth(5); } catch { r = 0 - 1; }
  return r;
}
"""


def corpus(fuzz: int) -> dict[str, Callable[[], list[Module]]]:
    """program name -> a builder of its fresh, unoptimized modules."""
    sources = {name: [load_source(name)] for name in benchmark_names()}
    examples = os.path.join(REPO, "examples", "lc")
    for entry in sorted(os.listdir(examples)):
        # A loose .lc file is a program; so is a directory of them.
        path = os.path.join(examples, entry)
        paths = ([path] if entry.endswith(".lc")
                 else sorted(glob.glob(os.path.join(path, "*.lc"))))
        if paths:
            sources[f"examples/lc/{entry}"] = [_read(p) for p in paths]
    for seed in range(FUZZ_BASE_SEED, FUZZ_BASE_SEED + fuzz):
        sources[f"fuzz{seed}"] = [generate_program(seed)]
    sources["guarded-call"] = [GUARDED_CALL]

    def from_sources(name: str, units: list[str]):
        return lambda: [compile_source(source, f"{name}.tu{index}")
                        for index, source in enumerate(units)]

    programs = {name: from_sources(name, units)
                for name, units in sources.items()}
    sys.path.insert(0, os.path.join(REPO, "examples"))
    from devirtualization import build_animals

    programs["animals"] = lambda: [build_animals()]
    return programs


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class Audit:
    def __init__(self):
        #: (pipeline, slot, pass) -> stage ->
        #: [units run, units moved, programs in which one moved]
        self.slots = defaultdict(lambda: defaultdict(lambda: [0, 0, set()]))
        #: -O2 stage -> functions the skip rule did not visit
        self.skipped = Counter()

    def run_slots(self, passes, pipeline: str, stage: str, module,
                  program: str, only=None) -> None:
        """One pass at a time; a unit is the pass manager's, and its
        digest is a function's printed text, or — for a module pass —
        the module's bytecode (which carries the purity flags the
        printer does not).  A function pass runs over the functions
        named in ``only`` (default: all)."""
        texts = _function_texts(module, only)
        for slot, pass_obj in enumerate(passes):
            if hasattr(pass_obj, "run_on_module"):
                before = _module_bytes(module)
                PassManager().add(pass_obj).run(module)
                units, moved = 1, int(_module_bytes(module) != before)
                texts = _function_texts(module, only)
            else:
                PassManager().add(pass_obj).run(module, only)
                after = _function_texts(module, only)
                units = len(texts)
                moved = sum(1 for name in texts if texts[name] != after[name])
                texts = after
            cell = self.slots[pipeline, slot, pass_name(pass_obj)][stage]
            cell[0] += units
            cell[1] += moved
            if moved:
                cell[2].add(program)

    def run_o2(self, stage: str, module, program: str) -> None:
        """An ``-O2`` stage under the driver's skip rule."""
        only = {f.name for f in stale_functions(module, LEVEL)}
        self.skipped[stage] += \
            len(list(module.defined_functions())) - len(only)
        self.run_slots(standard_pipeline(LEVEL).passes, "O2", stage, module,
                       program, only)
        mark_optimized(module, only, LEVEL)

    def audit_program(self, program: str, build) -> None:
        modules = build()
        for module in modules:
            self.run_o2("compile", module, program)
        linked = link_modules(modules, program)
        ipo = lto_pipeline().passes
        for round_ in ("1", "2"):
            self.run_slots(ipo, "lto", f"ipo-{round_}", linked, program)
            self.run_o2(f"cleanup-{round_}", linked, program)
        driver = link_time_optimize(
            link_modules([optimize_module(module, LEVEL)
                          for module in build()], program), LEVEL)
        if print_module(linked) != print_module(driver):
            raise SystemExit(f"slot-audit: the replay of {program} does not "
                             "end where the driver does")


def _function_texts(module, only=None) -> dict[str, str]:
    return {f.name: print_function(f) for f in module.defined_functions()
            if only is None or f.name in only}


def _module_bytes(module) -> bytes:
    return write_bytecode(module, strip_names=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fuzz", type=int, default=100, metavar="N",
                        help="seeded fuzz programs in the corpus")
    args = parser.parse_args(argv)

    audit = Audit()
    programs = corpus(args.fuzz)
    for program, build in programs.items():
        audit.audit_program(program, build)

    print(f"slot-audit: {len(programs)} programs ({args.fuzz} fuzz); "
          "per stage: units run / units moved / programs moved")
    dead = []
    for (pipeline, slot, name), stages in sorted(audit.slots.items()):
        cells = "  ".join(f"{stage} {run}/{moved}/{len(moved_in)}"
                          for stage, (run, moved, moved_in)
                          in sorted(stages.items()))
        print(f"  {pipeline:3s} {slot:2d} {name:13s} {cells}")
        if not any(moved for _, moved, _ in stages.values()):
            dead.append(f"{pipeline} slot {slot} ({name})")
    print("slot-audit: functions skipped as unchanged: " + ", ".join(
        f"{stage} {count}" for stage, count in sorted(audit.skipped.items())))
    if dead:
        print("slot-audit: FAIL — moved nothing on the whole corpus: "
              + ", ".join(dead), file=sys.stderr)
        return 1
    print(f"slot-audit: all {len(audit.slots)} slots move something")
    return 0


if __name__ == "__main__":
    sys.exit(main())
