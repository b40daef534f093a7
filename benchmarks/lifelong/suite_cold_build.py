"""Workload `suite-cold-build`: every input program from source to
linked bytecode and both native images, nothing cached.

Front-end, transforms, link-time IPO, linker, bitcode writer and both
back ends do all the work; the cache, the execution engines and the
daemon do none.  This is the paper's Table 2 / Figure 5 run.

One unit of work is one pass over the 16 programs in seeded order.
The warm-up pass in set-up doubles as the reference of the determinism
check: every timed build must reproduce it byte for byte, because the
exact-count metrics mean nothing if the compiler is not deterministic.
"""

from __future__ import annotations

import gc
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import common
import staged
from common import SumOfMedians


class Build:
    """What one program's build produced, and how long it took."""

    def __init__(self, name: str, sources: list[str]):
        from repro.backend import SPARC, X86, CodeGenerator
        from repro.bitcode import write_bytecode
        from repro.driver import compile_and_link

        # Collecting first, off the clock, gives every build and every
        # code generation the same collector state to start from;
        # otherwise a full collection lands wherever the previous
        # programs' garbage pushes it, which depends on the seed's order.
        gc.collect()
        start = time.perf_counter()
        module = compile_and_link(sources, name, level=2, lto=True)
        self.bytecode = write_bytecode(module)
        self.compile_s = time.perf_counter() - start
        gc.collect()
        compiled = time.perf_counter()
        images = [CodeGenerator(target).compile_module(module)
                  for target in (X86, SPARC)]
        self.native = [image.to_bytes() for image in images]
        self.native_s = time.perf_counter() - compiled
        self.code_sizes = [image.code_size for image in images]

    def same_output(self, other: "Build") -> bool:
        return (self.bytecode == other.bytecode
                and self.native == other.native)


class SuiteColdBuild(common.Workload):
    name = "suite-cold-build"
    unit = "one cold build of the 16 programs"

    def setup(self) -> None:
        self.programs = common.load_programs()
        self.expected = common.load_expected()
        self.order = sorted(self.programs)
        random.Random(self.seed).shuffle(self.order)
        self.reference = {name: Build(name, self.programs[name])
                          for name in self.order}

    def measure(self, seconds: float) -> dict:
        self.compile_s = SumOfMedians(self.order)
        native_s = SumOfMedians(self.order)
        both_s = SumOfMedians(self.order)
        builds, busy = 0, 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for name in self.order:
                build = Build(name, self.programs[name])
                self.compile_s.add(name, build.compile_s)
                native_s.add(name, build.native_s)
                both_s.add(name, build.compile_s + build.native_s)
                busy += build.compile_s + build.native_s
                self.expect(build.same_output(self.reference[name]),
                            f"{name}: a rebuild in fresh state differs "
                            "byte for byte")
                builds += 1
        return {
            "work_s": both_s, "cold_s": self.compile_s, "warm_s": native_s,
            "ops_per_s": builds / busy,
            "peak_rss_mb": common.peak_rss_mb(),
            "bytecode_bytes": sum(len(b.bytecode)
                                  for b in self.reference.values()),
        }

    def check(self) -> dict:
        """Run every built program from its written bytecode, in two
        check processes (the clock has stopped, so both cores may be
        used), and compare with the -O0 reference."""
        shares: list[list[str]] = [[], []]
        load = [0, 0]
        for name in sorted(self.order, reverse=True,
                           key=lambda n: self.expected[n]["steps_O0"]):
            lighter = load.index(min(load))
            shares[lighter].append(name)
            load[lighter] += self.expected[name]["steps_O0"]
        for name in self.order:
            with open(self._bytecode_path(name), "wb") as handle:
                handle.write(self.reference[name].bytecode)
        checker = os.path.join(common.HERE, "check_run.py")
        processes = []
        try:
            for share in shares:
                processes.append(subprocess.Popen(
                    [sys.executable, checker,
                     *map(self._bytecode_path, share)],
                    stdout=subprocess.PIPE, text=True))
            outputs = [process.communicate()[0] for process in processes]
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                process.wait()
        steps = 0
        for share, process, text in zip(shares, processes, outputs):
            lines = text.splitlines()
            self.expect(process.returncode == 0 and len(lines) == len(share),
                        f"check process for {share} exited "
                        f"{process.returncode} after {len(lines)} programs")
            for name, line in zip(share, lines):
                exit_value, output, program_steps = json.loads(line)
                steps += program_steps
                self.expect(
                    common.matches(self.expected[name], exit_value, output),
                    f"{name}: exit {exit_value} / output {output!r} differ "
                    "from expected.json")
        return {"run_steps": steps}

    def _bytecode_path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.bc")

    # -- the traced run ------------------------------------------------------

    def trace(self, tracer: common.Tracer, untraced: dict) -> dict:
        from repro.backend import SPARC, X86
        from repro.bitcode import read_bytecode, write_bytecode
        from repro.core import print_module, verify_module

        counts: Counter = Counter()
        modules = {}
        for name in self.order:
            reference = self.reference[name]
            gc.collect()                    # as `Build` does
            with tracer.span("driver.compile", name):
                module = staged.staged_compile(
                    tracer, self.programs[name], name, counts)
                with tracer.span("bitcode.write", name):
                    bytecode = write_bytecode(module)
            gc.collect()
            with tracer.span("backend.compile", name):
                sizes = [staged.staged_native(tracer, module, target, name,
                                              counts)
                         for target in (X86, SPARC)]
            self.expect(
                bytecode == reference.bytecode
                and sizes == reference.code_sizes,
                f"{name}: the staged replay does not reproduce the "
                "driver's output, so its spans attribute nothing")
            modules[name] = module
        # The extra lexing pass is the tracer's, not the build's.
        traced_s = (tracer.seconds("driver.compile")
                    + tracer.seconds("backend.compile")
                    - tracer.seconds("frontend.lex"))
        # Taken here: the `bitcode.read` spans below are off the path.
        layers = staged.compile_layers(tracer, counts)
        attributed = (staged.attributed_seconds(tracer)
                      + tracer.seconds("bitcode.write"))
        for name, module in modules.items():
            with tracer.span("core.verify", name):
                verify_module(module)
            with tracer.span("core.print", name):
                print_module(module)
            with tracer.span("bitcode.read", name):
                read_bytecode(self.reference[name].bytecode)

        layers.update({f"{name}_s": tracer.seconds(name) for name in (
            "core.verify", "core.print", "bitcode.write", "bitcode.read",
            "backend.isel", "backend.regalloc", "backend.encode_x86",
            "backend.encode_sparc")})
        layers["backend.machine_insts"] = counts["backend.machine_insts_x86"]
        layers["backend.spills_x86"] = counts["backend.spills_x86"]
        layers["backend.spills_sparc"] = counts["backend.spills_sparc"]
        layers["backend.x86_bytes"] = sum(
            len(b.native[0]) for b in self.reference.values())
        layers["backend.sparc_bytes"] = sum(
            len(b.native[1]) for b in self.reference.values())
        layers["driver.unattributed_s"] = (untraced["cold_s"].median
                                           - attributed)
        for name, samples in self.compile_s.parts.items():
            layers[f"driver.compile_s.{name}"] = samples.median
        layers["trace.overhead_ratio"] = (traced_s
                                          / untraced["work_s"].median)
        layers.update(self._transactional(tracer, untraced))
        layers.update(self._analyses(tracer, modules))
        return layers

    def _transactional(self, tracer, untraced: dict) -> dict:
        """The same builds under the fault policy, as the daemon runs them."""
        from repro.bitcode import write_bytecode
        from repro.driver import FaultPolicy, compile_and_link

        for name in self.order:
            policy = FaultPolicy(reduce_testcases=False)
            with tracer.span("driver.transact", name):
                module = compile_and_link(self.programs[name], name, level=2,
                                          lto=True, policy=policy)
                bytecode = write_bytecode(module)
            self.expect(bytecode == self.reference[name].bytecode,
                        f"{name}: the transactional build's output differs")
        return {"driver.transact_overhead_ratio":
                tracer.seconds("driver.transact")
                / untraced["cold_s"].median}

    def _analyses(self, tracer, modules: dict) -> dict:
        """Analyses, lint and translation validation over the built
        modules: no end-to-end metric moves with them today."""
        from repro.analysis.absint import analyze_module
        from repro.analysis.dsa import DataStructureAnalysis
        from repro.analysis.summaries import ModuleSummaries
        from repro.driver import (
            FaultPolicy, lint_whole_program, optimize_module,
        )
        from repro.frontend import compile_source
        from repro.sanalysis import run_checkers

        typed = []
        diagnostics = 0
        for name, module in modules.items():
            with tracer.span("analysis.dsa", name):
                report = DataStructureAnalysis(module).report()
            if len(self.programs[name]) == 1:     # Table 1: the suite
                typed.append(report.typed_percent)
            with tracer.span("analysis.absint", name):
                analyze_module(module)
            with tracer.span("analysis.summaries", name):
                ModuleSummaries.compute(module)
            with tracer.span("sanalysis.lint", name):
                run_checkers(module)
            with tracer.span("sanalysis.lint_wp", name):
                result = lint_whole_program(self.programs[name], name=name,
                                            level=2)
            # Notes are advisory; errors and warnings on correct
            # programs are false positives (benchmarks/lint_gate.py).
            diagnostics += sum(1 for d in result.diagnostics
                               if d.severity.name != "NOTE")
        smallest = sorted(self.order,
                          key=lambda n: sum(map(len, self.programs[n])))[:3]
        policy = FaultPolicy(translation_validate=True,
                             reduce_testcases=False)
        for name in smallest:
            for index, source in enumerate(self.programs[name]):
                module = compile_source(source, f"{name}.tu{index}")
                with tracer.span("tvalid.validate", name):
                    optimize_module(module, 2, policy=policy)
        stats = policy.statistics()
        self.expect(not stats["validations.failed"]
                    and not stats["passes.rolled_back"],
                    "translation validation rolled a pass back")
        return {
            "analysis.dsa_s": tracer.seconds("analysis.dsa"),
            "analysis.absint_s": tracer.seconds("analysis.absint"),
            "analysis.summaries_s": tracer.seconds("analysis.summaries"),
            "analysis.typed_access_pct": sum(typed) / len(typed),
            "sanalysis.lint_s": tracer.seconds("sanalysis.lint"),
            "sanalysis.lint_wp_s": tracer.seconds("sanalysis.lint_wp"),
            "sanalysis.diagnostics": diagnostics,
            "tvalid.validate_s": tracer.seconds("tvalid.validate"),
            "tvalid.validations_run": stats["validations.run"],
            "tvalid.validations_skipped": (
                stats["validations.skipped-unsupported"]
                + stats["validations.skipped-by-size"]),
        }
