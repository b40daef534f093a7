"""Command-line tools, mirroring the LLVM 1.x tool suite.

| command   | LLVM equivalent | does |
|-----------|-----------------|------|
| lc-cc     | llvmgcc         | compile LC source to IR (text or bytecode) |
| lc-as     | llvm-as         | assemble textual IR into bytecode |
| lc-dis    | llvm-dis        | disassemble bytecode into textual IR |
| lc-opt    | opt             | run optimization passes over IR |
| lc-link   | llvm-link/gccld | link modules (+ link-time IPO with -lto) |
| lc-run    | lli             | execute a module in the execution engine |
| lc-llc    | llc             | "native" code generation (sizes + assembly) |
| lc-lint   | (clang-tidy)    | static checker suite over IR or LC source |
| lc-fuzz   | (csmith)        | differential fuzzer across every oracle pair |
| lc-bugpoint | bugpoint      | bisect the guilty pass, reduce the program |
| lc-synth  | (souper)        | synthesize + exhaustively verify peephole rules |
| lc-bench  | (llvm-bench)    | time the compiler's own hot phases, emit BENCH json |
| lc-serverd | (no equivalent) | persistent crash-only compilation daemon (docs/SERVING.md) |
| lc-client | (no equivalent) | talk to a running lc-serverd |

Each accepts ``-`` for stdin/stdout where that makes sense.  Installed
as console scripts; also callable as ``python -m repro.tools <tool>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .backend import SPARC, X86, compile_for_size, print_machine_function
from .bitcode import read_bytecode, write_bytecode
from .core import parse_module, print_module, verify_module
from .core.module import Module
from .driver import (
    BytecodeCache, compile_and_link, link_time_optimize, optimize_module,
)
from .driver.pipelines import OPTIMIZE_COUNTERS, OPTIMIZE_SOURCE, run_ladder
from .execution import Interpreter
from .frontend import compile_source
from .linker import link_modules
from .stats import Stats, format_stats, format_timings
from .transforms.passmanager import PassManager


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def _read_module(path: str) -> Module:
    """Load a module from textual IR or bytecode (sniffed by magic)."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    if data[:4] == b"llvm":
        return read_bytecode(data)
    return parse_module(data.decode("utf-8"))


def _write_module(module: Module, path: str, binary: bool) -> None:
    if binary:
        data = write_bytecode(module, strip_names=False)
        if path == "-":
            sys.stdout.buffer.write(data)
        else:
            with open(path, "wb") as handle:
                handle.write(data)
    else:
        text = print_module(module)
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w") as handle:
                handle.write(text)


def _add_fault_arguments(parser) -> None:
    """The shared fault-tolerance flags (see docs/ROBUSTNESS.md)."""
    parser.add_argument("--fault-tolerant", action="store_true",
                        dest="fault_tolerant",
                        help="run passes transactionally: a crashing pass "
                             "is rolled back, poisoned, and reported "
                             "instead of aborting the build")
    parser.add_argument("--crash-dir", default=None, dest="crash_dir",
                        help="write structured crash reports (+ reduced "
                             "IR testcases) here; implies --fault-tolerant")
    parser.add_argument("--fault-inject", default=None, dest="fault_inject",
                        metavar="SITE:SEED",
                        help="arm one seeded single-shot fault (see "
                             "lc-fuzz --list-fault-sites); implies "
                             "--fault-tolerant")
    parser.add_argument("--translation-validate", action="store_true",
                        dest="translation_validate",
                        help="check every function a transform pass changes "
                             "for refinement against its input; a violation "
                             "rolls the pass back like a crash (implies "
                             "--fault-tolerant)")


def _add_stats_argument(parser, what: str) -> None:
    """``-stats`` / ``--stats``, spelled both ways by every tool."""
    parser.add_argument("-stats", "--stats", action="store_true",
                        dest="stats", help=f"print {what} to stderr")


def _print_stats(rows: dict, *owners) -> None:
    """The ``-stats`` report: ``rows`` (source -> name -> value), then
    the rows of each owner — a cache, a fault policy, a trace manager,
    a daemon; None is skipped — under its ``name``."""
    for owner in owners:
        if owner is not None:
            rows[owner.name] = owner.statistics()
    _print_report(format_stats(rows))


def _print_report(report: str) -> None:
    if report:
        print(report, file=sys.stderr)


def _parse_fault_spec(spec: str, parser) -> tuple:
    """``SITE`` or ``SITE:SEED`` -> (site, seed).  Site names may
    themselves contain a colon (``pass:gvn``), so the seed is only
    split off when the last segment is an integer."""
    site, _, tail = spec.rpartition(":")
    if site and tail.lstrip("-").isdigit():
        return site, int(tail)
    return spec, 0


def _make_fault_policy(args):
    """A FaultPolicy when any fault flag was given, else None."""
    translation_validate = getattr(args, "translation_validate", False)
    if not (args.fault_tolerant or args.crash_dir or args.fault_inject
            or translation_validate):
        return None
    from .driver import FaultPolicy

    return FaultPolicy(crash_dir=args.crash_dir,
                       translation_validate=translation_validate)


def _armed(args, parser):
    """Context manager: the requested injection (or nothing) armed."""
    from contextlib import nullcontext

    if not args.fault_inject:
        return nullcontext()
    from .fuzz import faultinject

    site, seed = _parse_fault_spec(args.fault_inject, parser)
    if site not in faultinject.registered_sites():
        parser.error(f"unknown fault site {site!r} "
                     "(see lc-fuzz --list-fault-sites)")
    return faultinject.injected(site, seed)


def lc_cc(argv=None) -> int:
    """Compile LC source to IR."""
    parser = argparse.ArgumentParser(
        prog="lc-cc", description="LC front-end (the llvmgcc equivalent)"
    )
    parser.add_argument("sources", nargs="+", help="LC source files")
    parser.add_argument("-o", default="-", help="output (default stdout)")
    parser.add_argument("-O", type=int, default=0, dest="level",
                        help="optimization level 0-3")
    parser.add_argument("--lto", action="store_true",
                        help="run link-time interprocedural optimization")
    parser.add_argument("-c", action="store_true", dest="binary",
                        help="emit bytecode instead of textual IR")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed bytecode cache directory; "
                             "unchanged translation units skip the "
                             "front-end and optimizer")
    _add_stats_argument(parser, "per-pass, cache and fault-policy counters")
    _add_fault_arguments(parser)
    args = parser.parse_args(argv)
    sources = [_read_text(path) for path in args.sources]
    cache = BytecodeCache(args.cache_dir) if args.cache_dir else None
    policy = _make_fault_policy(args)
    stats = Stats()
    stats.declare(OPTIMIZE_SOURCE, *OPTIMIZE_COUNTERS)
    with _armed(args, parser):
        if len(sources) == 1 and not args.lto and cache is None \
                and policy is None:
            module = compile_source(sources[0], "module")
            optimize_module(module, args.level, stats=stats)
        else:
            module = compile_and_link(sources, "program", args.level,
                                      args.lto, cache=cache, policy=policy,
                                      stats=stats)
    verify_module(module)
    if args.stats:
        _print_stats(stats.views(), cache, policy)
    for report in (policy.crash_reports if policy is not None else ()):
        print(f"lc-cc: contained: {report.describe()}", file=sys.stderr)
    _write_module(module, args.o, args.binary)
    return 0


def lc_as(argv=None) -> int:
    """Assemble textual IR into bytecode."""
    parser = argparse.ArgumentParser(
        prog="lc-as", description="IR assembler (the llvm-as equivalent)"
    )
    parser.add_argument("input", nargs="?", default="-")
    parser.add_argument("-o", default="-")
    args = parser.parse_args(argv)
    module = parse_module(_read_text(args.input))
    verify_module(module)
    _write_module(module, args.o, binary=True)
    return 0


def lc_dis(argv=None) -> int:
    """Disassemble bytecode into textual IR."""
    parser = argparse.ArgumentParser(
        prog="lc-dis", description="IR disassembler (the llvm-dis equivalent)"
    )
    parser.add_argument("input", nargs="?", default="-")
    parser.add_argument("-o", default="-")
    args = parser.parse_args(argv)
    module = _read_module(args.input)
    _write_module(module, args.o, binary=False)
    return 0


_PASS_FACTORIES = {}


def _range_dump_pass():
    from .analysis.absint.engine import RangeDumpPass

    return RangeDumpPass()


def _pass_registry():
    if not _PASS_FACTORIES:
        from . import transforms
        from .sanalysis import StaticCheckSuite
        from .transforms import ipo
        from .transforms.reg2mem import DemoteRegisters
        from .transforms.safecode import BoundsCheckInsertion
        from .transforms.typeerase import TypeEraser

        _PASS_FACTORIES.update({
            "lint": StaticCheckSuite,
            "mem2reg": transforms.PromoteMem2Reg,
            "sroa": transforms.ScalarReplAggregates,
            "simplifycfg": transforms.SimplifyCFG,
            "dce": transforms.DeadCodeElimination,
            "adce": transforms.AggressiveDCE,
            "gvn": transforms.GVN,
            "instcombine": transforms.InstCombine,
            "reassociate": transforms.Reassociate,
            "licm": transforms.LICM,
            "tailrec": transforms.TailRecursionElimination,
            "reg2mem": DemoteRegisters,
            "inline": ipo.FunctionInlining,
            "dge": ipo.DeadGlobalElimination,
            "dae": ipo.DeadArgumentElimination,
            "ipcp": ipo.IPConstantPropagation,
            "internalize": ipo.Internalize,
            "prune-eh": ipo.PruneExceptionHandlers,
            "devirtualize": ipo.Devirtualize,
            "heap2stack": ipo.HeapToStackPromotion,
            "safecode": BoundsCheckInsertion,
            "typeerase": TypeEraser,
            "rangeopt": transforms.RangeOpt,
            "ranges": _range_dump_pass,
        })
    return _PASS_FACTORIES


def lc_opt(argv=None) -> int:
    """Run optimization passes over a module."""
    parser = argparse.ArgumentParser(
        prog="lc-opt", description="modular optimizer (the opt equivalent)"
    )
    parser.add_argument("input", nargs="?", default="-")
    parser.add_argument("-o", default="-")
    parser.add_argument("-c", action="store_true", dest="binary")
    parser.add_argument("-O", type=int, default=None, dest="level",
                        help="run the standard -ON pipeline")
    parser.add_argument("-p", "--passes", default="",
                        help=f"comma list from: {', '.join(sorted(_pass_registry()))}")
    parser.add_argument("-analyze", default=None, dest="analyze",
                        metavar="NAME",
                        help="print an analysis dump instead of "
                             "transforming (currently: ranges)")
    parser.add_argument("--verify-each", action="store_true",
                        help="run the IR verifier after every pass")
    _add_stats_argument(parser, "per-pass statistics")
    parser.add_argument("-time-passes", action="store_true",
                        dest="time_passes",
                        help="print per-pass wall-clock timings to stderr")
    _add_fault_arguments(parser)
    args = parser.parse_args(argv)
    module = _read_module(args.input)
    if args.analyze is not None:
        if args.analyze != "ranges":
            parser.error(f"unknown analysis {args.analyze!r}")
        from .analysis.absint.engine import RangeDumpPass

        PassManager().add(RangeDumpPass(stream=sys.stdout)).run(module)
        return 0
    policy = _make_fault_policy(args)
    managers = []
    # One record shared by every manager this invocation creates
    # (ladder attempts included), so -stats and -time-passes each emit
    # a single report in which each pass appears exactly once.
    stats = Stats()
    with _armed(args, parser):
        if args.level is not None:
            managers.append(run_ladder(module, args.level, args.verify_each,
                                       policy, stats))
        if args.passes:
            manager = PassManager(args.verify_each, stats, policy)
            registry = _pass_registry()
            for name in args.passes.split(","):
                name = name.strip()
                if name not in registry:
                    parser.error(f"unknown pass {name!r}")
                manager.add(registry[name]())
            manager.run(module)
            managers.append(manager)
    verify_module(module)
    for report in (policy.crash_reports if policy is not None else ()):
        print(f"lc-opt: contained: {report.describe()}", file=sys.stderr)
    for manager in managers:
        for pass_obj in manager.passes:
            for diag in getattr(pass_obj, "diagnostics", ()):
                print(diag.render(args.input), file=sys.stderr)
    if args.stats:
        _print_stats(stats.views(), policy)
    if args.time_passes:
        _print_report(format_timings(stats))
    _write_module(module, args.o, args.binary)
    return 0


def lc_link(argv=None) -> int:
    """Link modules; optionally run the link-time optimizer."""
    parser = argparse.ArgumentParser(
        prog="lc-link", description="module linker (the gccld equivalent)"
    )
    parser.add_argument("inputs", nargs="+")
    parser.add_argument("-o", default="-")
    parser.add_argument("-c", action="store_true", dest="binary")
    parser.add_argument("--lto", action="store_true",
                        help="internalize + interprocedural optimization")
    args = parser.parse_args(argv)
    modules = [_read_module(path) for path in args.inputs]
    linked = link_modules(modules, "linked")
    if args.lto:
        link_time_optimize(linked, 2)
    verify_module(linked)
    _write_module(linked, args.o, args.binary)
    return 0


def lc_run(argv=None) -> int:
    """Execute a module in the execution engine."""
    parser = argparse.ArgumentParser(
        prog="lc-run", description="execution engine (the lli equivalent)"
    )
    parser.add_argument("input")
    parser.add_argument("args", nargs="*", type=int,
                        help="integer arguments for the entry function")
    parser.add_argument("--entry", default="main")
    parser.add_argument("--step-limit", type=int, default=50_000_000)
    _add_stats_argument(parser, "step, memory and trace-JIT statistics")
    parser.add_argument("--jit-traces", action="store_true",
                        dest="jit_traces",
                        help="compile hot paths to guarded traces "
                        "(the trace-JIT tier; see docs/EXECUTION.md)")
    parser.add_argument("--trace-threshold", type=int, default=50,
                        help="block entries before a trace is recorded")
    args = parser.parse_args(argv)
    module = _read_module(args.input)
    interpreter = Interpreter(module, step_limit=args.step_limit)
    manager = None
    if args.jit_traces:
        from .execution import TraceManager

        manager = TraceManager(hot_threshold=args.trace_threshold)
        manager.attach(interpreter)
    result = interpreter.run(args.entry, args.args)
    sys.stdout.write("".join(interpreter.output))
    if args.stats:
        print(f"steps: {interpreter.steps}", file=sys.stderr)
        print(f"heap bytes live: {interpreter.memory.heap_bytes()}",
              file=sys.stderr)
        _print_stats({}, manager)
    return int(result) & 0xFF if isinstance(result, int) else 0


def _load_for_lint(path: str):
    """Load one lint input: LC source (by extension), bytecode (by
    magic), or textual IR.  Returns (module, display_name)."""
    if path != "-" and path.endswith(".lc"):
        name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return compile_source(_read_text(path), name), path
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    if data[:4] == b"llvm":
        return read_bytecode(data), path
    text = data.decode("utf-8")
    try:
        return parse_module(text), path
    except Exception:
        # Not textual IR; last resort: treat it as LC source.
        return compile_source(text, "stdin" if path == "-" else path), path


def lc_lint(argv=None) -> int:
    """Run the static checker suite.

    Exit codes: 0 = no findings, 1 = findings (errors, or warnings
    under ``-Werror``), 2 = usage or internal error.
    """
    from .sanalysis import CHECKERS, check_cross_module, run_checkers
    from .sanalysis.ipa_checkers import IPA_CHECKERS

    parser = argparse.ArgumentParser(
        prog="lc-lint",
        description="IR-level static checker suite (see docs/ANALYSIS.md)",
    )
    parser.add_argument("inputs", nargs="*",
                        help="LC source (.lc), textual IR, or bytecode")
    parser.add_argument("--checks", default="",
                        help=f"comma list from: {', '.join(sorted(CHECKERS))}"
                        f" (whole-program adds: "
                        f"{', '.join(sorted(IPA_CHECKERS))})")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the checker catalogue and exit")
    parser.add_argument("-O", type=int, default=0, dest="level",
                        help="optimize before linting (0 = lint raw IR)")
    parser.add_argument("--lto", action="store_true",
                        help="link all inputs and lint the merged program")
    parser.add_argument("--whole-program", action="store_true",
                        dest="whole_program",
                        help="interprocedural summary-based checking "
                        "across all inputs (link-time lint)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="json: one machine-readable record per line")
    parser.add_argument("--Werror", "-Werror", action="store_true",
                        dest="werror",
                        help="treat warnings as errors for the exit code")
    parser.add_argument("--max-errors", type=int, default=0,
                        metavar="N",
                        help="stop printing after N errors (0 = no limit)")
    parser.add_argument("--cache-dir", default=None,
                        help="bytecode/summary cache for .lc inputs "
                        "(whole-program mode): unchanged files are "
                        "neither recompiled nor resummarized")
    _add_stats_argument(parser, "analysis/cache counters")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKERS):
            print(f"{name:16s} {CHECKERS[name].description}")
        for name in sorted(IPA_CHECKERS):
            print(f"{name:20s} {IPA_CHECKERS[name].description} "
                  "[--whole-program]")
        return 0
    if not args.inputs:
        parser.error("no inputs")

    checks = None
    ipa_checks = None
    if args.checks:
        names = [name.strip() for name in args.checks.split(",")]
        for name in names:
            if name not in CHECKERS and name not in IPA_CHECKERS:
                parser.error(f"unknown checker {name!r}")
            if name in IPA_CHECKERS and not (args.whole_program
                                             or name in CHECKERS):
                parser.error(f"checker {name!r} needs --whole-program")
        checks = [n for n in names if n in CHECKERS]
        ipa_checks = [n for n in names if n in IPA_CHECKERS]
        if args.whole_program and "gep-bounds" in names \
                and "gep-bounds" not in ipa_checks:
            ipa_checks.append("gep-bounds")

    try:
        return _run_lint(args, checks, ipa_checks)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        print(f"lc-lint: internal error: {exc}", file=sys.stderr)
        return 2


def _run_lint(args, checks, ipa_checks) -> int:
    from .sanalysis import (
        check_cross_module, dedupe, run_checkers, run_whole_program,
        stable_order,
    )
    from .sanalysis.diagnostics import Severity

    try:
        loaded = [_load_for_lint(path) for path in args.inputs]
    except OSError as exc:
        print(f"lc-lint: {exc}", file=sys.stderr)
        return 2
    diagnostics = []
    cache = None
    stats: dict = {}
    for module, display in loaded:
        if args.level:
            optimize_module(module, args.level)
        if not args.whole_program or checks is None or checks:
            for diag in run_checkers(module, checks):
                if diag.file is None:
                    diag.file = display
                diagnostics.append(diag)
    if len(loaded) > 1:
        cross = check_cross_module([module for module, _ in loaded])
        for diag in cross:
            if diag.file is None:
                diag.file = "<link>"
            diagnostics.append(diag)
        # Linking would hard-fail on exactly the conflicts just reported.
        if args.lto and not any(d.is_error for d in cross):
            linked = link_modules([module for module, _ in loaded], "program")
            link_time_optimize(linked, max(args.level, 1))
            for diag in run_checkers(linked, checks):
                if diag.file is None:
                    diag.file = "<program>"
                diagnostics.append(diag)
    if args.whole_program:
        if args.cache_dir is not None and \
                all(p.endswith(".lc") for p in args.inputs):
            from .driver.pipelines import lint_whole_program

            cache = BytecodeCache(args.cache_dir)
            result = lint_whole_program(
                [_read_text(path) for path in args.inputs],
                filenames=list(args.inputs), level=args.level,
                checks=ipa_checks, cache=cache)
        else:
            result = run_whole_program(
                [(display, module) for module, display in loaded],
                ipa_checks)
        diagnostics.extend(result.diagnostics)
        stats["lint-wp"] = result.statistics()
    diagnostics = stable_order(dedupe(diagnostics))

    errors = warnings = 0
    truncated = False
    for diag in diagnostics:
        if diag.is_error:
            errors += 1
        elif diag.severity == Severity.WARNING:
            warnings += 1
        if truncated:
            continue
        if args.format == "json":
            print(json.dumps(diag.to_dict(), sort_keys=True))
        else:
            print(diag.render())
        if args.max_errors and diag.is_error and errors >= args.max_errors:
            truncated = True
    if truncated and args.format == "text":
        print(f"lc-lint: too many errors; stopping after "
              f"{args.max_errors}", file=sys.stderr)
    if args.stats:
        _print_stats(stats, cache)
    if not args.quiet and args.format == "text":
        print(f"lc-lint: {errors} error(s), {warnings} warning(s), "
              f"{len(diagnostics) - errors - warnings} note(s)",
              file=sys.stderr)
    failed = errors > 0 or (args.werror and warnings > 0)
    return 1 if failed else 0


def lc_llc(argv=None) -> int:
    """Generate 'native' code: assembly listing or size report."""
    parser = argparse.ArgumentParser(
        prog="lc-llc", description="native code generator (the llc equivalent)"
    )
    parser.add_argument("input", nargs="?", default="-")
    parser.add_argument("-o", default="-")
    parser.add_argument("--target", choices=("x86", "sparc"), default="x86")
    parser.add_argument("--emit", choices=("asm", "size", "image"),
                        default="asm")
    args = parser.parse_args(argv)
    module = _read_module(args.input)
    target = X86 if args.target == "x86" else SPARC
    image = compile_for_size(module, target)
    if args.emit == "image":
        data = image.to_bytes()
        if args.o == "-":
            sys.stdout.buffer.write(data)
        else:
            with open(args.o, "wb") as handle:
                handle.write(data)
        return 0
    if args.emit == "size":
        text = (f"target: {target.name}\ncode: {image.code_size}\n"
                f"data: {len(image.data)}\nbss: {image.bss_size}\n"
                f"total: {image.total_size}\n")
    else:
        text = "".join(
            print_machine_function(f.machine_fn) + "\n"
            for f in image.functions
        )
    if args.o == "-":
        sys.stdout.write(text)
    else:
        with open(args.o, "w") as handle:
            handle.write(text)
    return 0


def lc_fuzz(argv=None) -> int:
    """Differential fuzzing over representations, levels, and targets."""
    parser = argparse.ArgumentParser(
        prog="lc-fuzz",
        description="differential fuzzer: generated LC programs through "
                    "every oracle pair (interp -O0 vs -O1/-O2, text and "
                    "bytecode round-trips, x86/sparc simulated backends)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=50,
                        help="number of programs (program i uses seed+i)")
    parser.add_argument("--size", type=int, default=3,
                        help="helper functions per program")
    parser.add_argument("--step-limit", type=int, default=5_000_000)
    parser.add_argument("--no-roundtrips", action="store_true",
                        help="skip text/bytecode round-trip oracles")
    parser.add_argument("--translation-validate", action="store_true",
                        dest="translation_validate",
                        help="run each optimized compile under the "
                             "per-pass refinement validator as a third "
                             "oracle column: validation failures are "
                             "tvalid-O<N> findings, end-to-end "
                             "divergences the validator missed are "
                             "tvalid-miss-O<N>")
    parser.add_argument("--emit-source", metavar="SEED", type=int,
                        help="print the program for one seed and exit")
    parser.add_argument("--save-failing", metavar="DIR",
                        help="write each divergent program to DIR/<seed>.lc")
    parser.add_argument("--fault-matrix", action="store_true",
                        dest="fault_matrix",
                        help="run the single-fault injection matrix: every "
                             "registered site armed once against "
                             "fixed-seed programs (docs/ROBUSTNESS.md)")
    parser.add_argument("--list-fault-sites", action="store_true",
                        dest="list_fault_sites",
                        help="print the fault-site catalogue and exit")
    parser.add_argument("--fault-inject", default=None, dest="fault_inject",
                        metavar="SITE:SEED",
                        help="restrict --fault-matrix to one site "
                             "(implies --fault-matrix)")
    parser.add_argument("--crash-dir", default=None, dest="crash_dir",
                        help="keep crash reports from --fault-matrix here")
    parser.add_argument("--jit-traces", action="store_true",
                        dest="jit_traces",
                        help="add a trace-JIT oracle column: each "
                             "program also runs under the trace tier "
                             "(low hot threshold) and must match the "
                             "-O0 interpreter exactly")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from .fuzz import HarnessConfig, fuzz
    from .fuzz.generator import generate_program

    if args.list_fault_sites:
        from .fuzz import faultinject

        for site, description in sorted(
                faultinject.registered_sites().items()):
            print(f"{site:24s} {description}")
        return 0
    if args.fault_matrix or args.fault_inject:
        return _run_fault_matrix_cli(args, parser)
    if args.emit_source is not None:
        sys.stdout.write(generate_program(args.emit_source, args.size))
        return 0
    config = HarnessConfig(step_limit=args.step_limit,
                           check_roundtrips=not args.no_roundtrips,
                           translation_validate=args.translation_validate,
                           jit_traces=args.jit_traces)

    def on_program(seed, result):
        if args.quiet:
            return
        if result.error:
            print(f"seed {seed}: ERROR {result.error}", file=sys.stderr)
        for divergence in result.divergences:
            print(f"seed {seed}: {divergence.describe()}", file=sys.stderr)

    report = fuzz(args.seed, args.count, args.size, config, on_program)
    if args.save_failing and report.divergent:
        import os

        os.makedirs(args.save_failing, exist_ok=True)
        for seed, _ in report.divergent:
            path = os.path.join(args.save_failing, f"{seed}.lc")
            with open(path, "w") as handle:
                handle.write(generate_program(seed, args.size))
    if not args.quiet:
        print(f"lc-fuzz: {report.checked} programs, "
              f"{report.skipped} skipped (step limit), "
              f"{len(report.divergent)} divergent", file=sys.stderr)
    return 1 if report.divergent else 0


def _run_fault_matrix_cli(args, parser) -> int:
    """lc-fuzz --fault-matrix: the single-fault robustness sweep."""
    from .fuzz import faultinject

    sites = None
    fault_seed = 12345
    if args.fault_inject:
        site, seed = _parse_fault_spec(args.fault_inject, parser)
        if site not in faultinject.registered_sites():
            parser.error(f"unknown fault site {site!r} "
                         "(see --list-fault-sites)")
        sites = [site]
        if seed:
            fault_seed = seed
    report = faultinject.run_fault_matrix(
        size=args.size, sites=sites, fault_seed=fault_seed,
        step_limit=args.step_limit, crash_dir=args.crash_dir)
    if not args.quiet:
        for outcome in report.outcomes:
            print(outcome.describe(), file=sys.stderr)
    print(f"lc-fuzz: fault matrix: {len(report.outcomes)} cells, "
          f"{len(report.failures)} failing", file=sys.stderr)
    return 0 if report.clean else 1


def lc_bugpoint(argv=None) -> int:
    """Bisect the guilty pass and reduce a failing program."""
    parser = argparse.ArgumentParser(
        prog="lc-bugpoint",
        description="miscompile debugger: names the pass that introduces "
                    "a divergence and delta-reduces the program to a "
                    "minimal verifier-clean reproducer",
    )
    parser.add_argument("input", help="failing LC source (or - for stdin)")
    parser.add_argument("--oracle", default=None,
                        help="oracle to debug, e.g. interp-O2 or "
                             "sim-x86-O0 (default: first divergent one)")
    parser.add_argument("-o", default="-",
                        help="write the reduced reproducer (.ll) here")
    parser.add_argument("--step-limit", type=int, default=5_000_000)
    parser.add_argument("--reduce-step-limit", type=int, default=100_000)
    args = parser.parse_args(argv)

    from .fuzz import bugpoint_source, check_program

    source = _read_text(args.input)
    oracle = args.oracle
    if oracle is None:
        result = check_program(source)
        if result.error:
            print(f"lc-bugpoint: program does not compile: {result.error}",
                  file=sys.stderr)
            return 2
        if not result.divergences:
            print("lc-bugpoint: no divergence found; nothing to debug",
                  file=sys.stderr)
            return 2
        oracle = result.divergences[0].oracle
        print(f"lc-bugpoint: debugging oracle {oracle}", file=sys.stderr)
    try:
        outcome = bugpoint_source(source, oracle, args.step_limit,
                                  args.reduce_step_limit)
    except ValueError as error:
        print(f"lc-bugpoint: {error}", file=sys.stderr)
        return 2
    if outcome.guilty_pass is not None:
        print(f"guilty pass: {outcome.guilty_pass}", file=sys.stderr)
    else:
        print("guilty pass: (none — diverges without optimization)",
              file=sys.stderr)
    print(f"reduced to {outcome.instruction_count} instructions",
          file=sys.stderr)
    if args.o == "-":
        sys.stdout.write(outcome.reduced_text)
    else:
        with open(args.o, "w") as handle:
            handle.write(outcome.reduced_text)
    return 0


def lc_synth(argv=None) -> int:
    """Synthesize and exhaustively verify peephole rewrite rules."""
    parser = argparse.ArgumentParser(
        prog="lc-synth",
        description="peephole superoptimizer: enumerate 2-3 instruction "
                    "rewrite candidates, verify each exhaustively at "
                    "narrow bitwidths (sampled at wide ones), dedupe "
                    "against instcombine's hand-written folds, and emit "
                    "the survivors as generated instcombine rules",
    )
    parser.add_argument("--max-rules", type=int, default=40,
                        help="cap on enumerated (non-template) rules")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the generated rules module here "
                             "(e.g. src/repro/transforms/"
                             "instcombine_generated.py); default: "
                             "print the rule table only")
    parser.add_argument("--self-check", action="store_true",
                        dest="self_check",
                        help="re-verify the checked-in generated rules "
                             "instead of synthesizing; exit 1 on any "
                             "problem (the CI tvalid-gate mode)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from .tvalid import synth

    if args.self_check:
        problems = synth.self_check()
        for problem in problems:
            print(f"lc-synth: self-check: {problem}", file=sys.stderr)
        if not args.quiet:
            from .transforms.peephole import load_generated_rules

            count = len(load_generated_rules())
            status = "FAILED" if problems else "ok"
            print(f"lc-synth: self-check {status}: {count} rules, "
                  f"{len(problems)} problem(s)", file=sys.stderr)
        return 1 if problems else 0

    def progress(lhs, rhs, applies):
        if not args.quiet:
            from .transforms.peephole import tree_name

            print(f"lc-synth: verified [{applies}] "
                  f"{tree_name(lhs)} -> {tree_name(rhs)}", file=sys.stderr)

    report = synth.synthesize(max_rules=args.max_rules, progress=progress)
    for problem in report.cast_problems:
        print(f"lc-synth: cast audit: {problem}", file=sys.stderr)
    if not args.quiet:
        print(f"lc-synth: {report.enumerated} candidates enumerated, "
              f"{report.fingerprint_hits} fingerprint hits, "
              f"{report.verified} verified, "
              f"{report.deduplicated} already folded by hand, "
              f"{len(report.rules)} rules emitted", file=sys.stderr)
    text = synth.emit_module(report.rules)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        for rule in report.rules:
            print(f"[{rule.applies:4s}] {rule.name}")
    return 1 if report.cast_problems else 0


def lc_absint(argv=None) -> int:
    """Verified abstract interpretation: the transfer-table self-check."""
    parser = argparse.ArgumentParser(
        prog="lc-absint",
        description="value-range + known-bits abstract interpretation: "
                    "machine-check every row of the transfer table against "
                    "the concrete constfold semantics and print each "
                    "row's precision (per-value facts: lc-opt -analyze "
                    "ranges)",
    )
    parser.add_argument("--self-check", action="store_true",
                        dest="self_check",
                        help="run the soundness ladder over every "
                             "transformer; exit 1 on any violation "
                             "(the CI absint-gate mode)")
    parser.add_argument("--fast", action="store_true",
                        help="with --self-check: the narrow fast ladder "
                             "(3-bit exhaustive) instead of the full one")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_check:
        parser.print_usage(sys.stderr)
        return 2

    from .analysis.absint import run_self_check

    log = None if args.quiet else (
        lambda message: print(f"lc-absint: {message}", file=sys.stderr))
    problems = run_self_check(full=not args.fast, log=log)
    for problem in problems:
        print(f"lc-absint: UNSOUND: {problem}", file=sys.stderr)
    if not args.quiet:
        status = "FAILED" if problems else "ok"
        print(f"lc-absint: self-check {status} "
              f"({len(problems)} violation(s))", file=sys.stderr)
    return 1 if problems else 0


def lc_bench(argv=None) -> int:
    """Benchmark the compiler's own throughput, phase by phase.

    Exit codes: 0 = run complete (and within tolerance when a baseline
    was given), 1 = regression against the baseline, 2 = usage error.
    """
    parser = argparse.ArgumentParser(
        prog="lc-bench",
        description="compiler-throughput benchmark: lex/parse, codegen, "
                    "per-pass optimization, verify, bytecode I/O, cache, "
                    "link, and the transactional snapshot machinery, "
                    "median-of-N over the benchmark suite; emits a "
                    "schema-versioned BENCH_<date>.json (docs/BENCH.md)",
    )
    parser.add_argument("--programs", default=None,
                        help="comma list of benchsuite programs "
                             "(default: the whole suite)")
    parser.add_argument("--examples", default=None, metavar="DIR",
                        help="also bench .lc programs under DIR (a "
                             "subdirectory with several .lc files is one "
                             "multi-TU link workload)")
    parser.add_argument("-O", type=int, default=2, dest="level",
                        help="optimization level for the pipeline phases")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed runs per phase (median is reported)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="throwaway runs before timing")
    parser.add_argument("--no-transactional", action="store_true",
                        dest="no_transactional",
                        help="skip the transact.O<N> phase")
    parser.add_argument("--jit-programs", default=None,
                        dest="jit_programs", metavar="LIST",
                        help="comma list of benchsuite programs for the "
                             "execution-tier phases (exec.interp vs the "
                             "warm trace-JIT jit.trace); 'none' skips "
                             "them (default: gzip,mesa,bzip2)")
    parser.add_argument("-o", default=None,
                        help="report path (default BENCH_<date>.json; "
                             "'-' prints to stdout only)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="compare against this baseline report and "
                             "exit 1 on regression (the CI bench-gate)")
    parser.add_argument("--max-ratio", type=float, default=None,
                        help="tolerance multiplier for --baseline "
                             "(default 2.0)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from .bench import BenchConfig, compare_runs, discover_examples
    from .bench import run_bench, write_report
    from .bench.compare import DEFAULT_MAX_RATIO, load_report
    from .benchsuite import benchmark_names

    config = BenchConfig(level=args.level, warmup=args.warmup,
                         repeat=args.repeat,
                         transactional=not args.no_transactional)
    if args.programs:
        names = [name.strip() for name in args.programs.split(",")]
        known = set(benchmark_names())
        for name in names:
            if name not in known:
                parser.error(f"unknown benchsuite program {name!r}")
        config.programs = names
    if args.jit_programs is not None:
        if args.jit_programs.strip().lower() == "none":
            config.jit_programs = []
        else:
            names = [name.strip() for name in args.jit_programs.split(",")]
            known = set(benchmark_names())
            for name in names:
                if name not in known:
                    parser.error(f"unknown benchsuite program {name!r}")
            config.jit_programs = names
    if args.examples:
        config.extra_programs = discover_examples(args.examples)

    def progress(name):
        if not args.quiet:
            print(f"lc-bench: {name}", file=sys.stderr)

    report = run_bench(config, progress)
    if args.o == "-":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        path = write_report(report, args.o)
        if not args.quiet:
            print(f"lc-bench: wrote {path}", file=sys.stderr)
    if not args.quiet:
        for phase, entry in sorted(report["phases"].items()):
            print(f"lc-bench: {phase:20s} {entry['seconds']:8.4f}s",
                  file=sys.stderr)

    if args.baseline is None:
        return 0
    baseline = load_report(args.baseline)
    if baseline is None:
        print(f"lc-bench: cannot read baseline {args.baseline!r}",
              file=sys.stderr)
        return 2
    max_ratio = args.max_ratio if args.max_ratio else DEFAULT_MAX_RATIO
    regressions, notes = compare_runs(report, baseline, max_ratio=max_ratio)
    if not args.quiet:
        for note in notes:
            print(f"lc-bench: {note}", file=sys.stderr)
    for regression in regressions:
        print(f"lc-bench: REGRESSION: {regression}", file=sys.stderr)
    if not args.quiet:
        status = "FAILED" if regressions else "ok"
        print(f"lc-bench: gate {status} ({len(regressions)} regression(s))",
              file=sys.stderr)
    return 1 if regressions else 0


def lc_serverd(argv=None) -> int:
    """Run the persistent compilation daemon (docs/SERVING.md)."""
    parser = argparse.ArgumentParser(
        prog="lc-serverd",
        description="crash-only persistent compilation service: a "
                    "supervised worker pool behind a length-framed JSON "
                    "socket, with deadlines, bounded admission, backoff "
                    "retries, and graceful degradation under overload",
    )
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="Unix-domain socket to listen on")
    parser.add_argument("--host", default=None,
                        help="TCP listen host (with --port; default "
                             "127.0.0.1 when --socket is not given)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP listen port (0 = ephemeral, printed "
                             "on startup)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (the crash domain)")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="bounded admission queue capacity")
    parser.add_argument("--high-water", type=int, default=None,
                        help="queue depth at which new requests are shed "
                             "with BUSY (default: --queue-depth)")
    parser.add_argument("--degrade-water", type=int, default=None,
                        help="queue depth at which sustained pressure "
                             "starts lowering compile levels "
                             "(default: --queue-depth / 2)")
    parser.add_argument("--server-retries", type=int, default=1,
                        help="crash retries per request on a fresh worker")
    parser.add_argument("--cache-dir", default=None,
                        help="shared on-disk bytecode cache directory")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        help="LRU-evict the cache past this size")
    parser.add_argument("--no-idle-reopt", action="store_true",
                        dest="no_idle_reopt",
                        help="disable idle-time reoptimization of "
                             "degraded compiles (paper section 2.4)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        help="seconds to finish in-flight work on shutdown")
    parser.add_argument("--fault-inject", default=None, dest="fault_inject",
                        metavar="SITE:SEED",
                        help="arm one seeded single-shot fault in the "
                             "daemon (e.g. server.worker-crash:7); it "
                             "fires on the first request that reaches "
                             "the site")
    _add_stats_argument(parser, "serverd.* counters, on shutdown,")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.socket and args.host:
        parser.error("--socket and --host are mutually exclusive")
    if not args.socket and not args.host and not args.port:
        parser.error("give a front door: --socket PATH, or "
                     "--host/--port for TCP")

    import signal

    from .serve import Server, ServerConfig

    if args.fault_inject:
        from .fuzz import faultinject

        site, seed = _parse_fault_spec(args.fault_inject, parser)
        if site not in faultinject.registered_sites():
            parser.error(f"unknown fault site {site!r} "
                         "(see lc-fuzz --list-fault-sites)")
        faultinject.arm(site, seed)
    server = Server(ServerConfig(
        socket_path=args.socket, host=args.host, port=args.port,
        workers=args.workers, queue_depth=args.queue_depth,
        high_water=args.high_water, degrade_water=args.degrade_water,
        server_retries=args.server_retries, cache_dir=args.cache_dir,
        cache_max_bytes=args.cache_max_bytes,
        idle_reopt=not args.no_idle_reopt,
        drain_timeout=args.drain_timeout))
    if not args.quiet:
        address = server.address
        if isinstance(address, str):
            where = address
        else:
            where = f"{address[0]}:{address[1]}"
        print(f"lc-serverd: pid {os.getpid()} listening on {where}",
              file=sys.stderr)

    def on_signal(signum, frame):
        if not args.quiet:
            print(f"lc-serverd: signal {signum}: draining",
                  file=sys.stderr)
        server.request_shutdown()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    server.wait()
    if args.stats:
        _print_stats({}, server)
    if not args.quiet:
        print("lc-serverd: drained, bye", file=sys.stderr)
    return 0


def _parse_connect(value: str, parser):
    """``PATH`` (Unix socket) or ``HOST:PORT`` (TCP)."""
    host, _, port = value.rpartition(":")
    if host and port.isdigit() and "/" not in value:
        return (host, int(port))
    return value


def lc_client(argv=None) -> int:
    """Talk to a running lc-serverd.

    Exit codes: 0 = success, 1 = structured error from the daemon
    (BUSY past the retry budget, TIMEOUT, a failed request), 2 = usage
    or transport error.
    """
    parser = argparse.ArgumentParser(
        prog="lc-client",
        description="client for the lc-serverd compilation service: "
                    "compile / lint / reoptimize / triage with a "
                    "deadline, plus ping / stats / shutdown",
    )
    parser.add_argument("op", choices=("ping", "stats", "shutdown",
                                       "compile", "lint", "reoptimize",
                                       "triage"))
    parser.add_argument("inputs", nargs="*",
                        help="LC source files (compile/lint/reoptimize)")
    parser.add_argument("--connect", required=True, metavar="ADDR",
                        help="daemon address: a Unix socket path, or "
                             "HOST:PORT")
    parser.add_argument("-O", type=int, default=2, dest="level",
                        help="requested optimization level (the daemon "
                             "may degrade it under load; the response "
                             "says what it really used)")
    parser.add_argument("--name", default="program")
    parser.add_argument("-o", default=None,
                        help="write compile/reoptimize bytecode here "
                             "(- = stdout)")
    parser.add_argument("--deadline-ms", type=int, default=None,
                        dest="deadline_ms",
                        help="request deadline (default: per-op)")
    parser.add_argument("--retry-budget", type=int, default=8,
                        dest="retry_budget",
                        help="total BUSY/crash retries this client may "
                             "spend before surfacing errors")
    parser.add_argument("--run", action="append", dest="runs",
                        metavar="FN[:ARG,...]",
                        help="reoptimize: a profiled run, e.g. "
                             "--run main:3,4 (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="triage: fuzz-generator seed")
    parser.add_argument("--source", default=None,
                        help="triage: LC source file instead of a seed")
    parser.add_argument("--json", action="store_true",
                        help="print the full result record as JSON")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from .serve import ServeClient, ServeRequestError, ServeTransportError

    address = _parse_connect(args.connect, parser)
    runs = None
    if args.runs:
        runs = []
        for spec in args.runs:
            function, _, tail = spec.partition(":")
            run_args = [int(a) for a in tail.split(",") if a.strip()]
            runs.append({"function": function or "main",
                         "args": run_args})
    try:
        with ServeClient(address, retry_budget=args.retry_budget) as client:
            if args.op == "ping":
                result = client.ping(args.deadline_ms)
            elif args.op == "stats":
                result = client.stats(args.deadline_ms)
            elif args.op == "shutdown":
                result = client.shutdown()
            elif args.op == "triage":
                source = _read_text(args.source) if args.source else None
                result = client.triage(seed=args.seed, source=source,
                                       deadline_ms=args.deadline_ms)
            else:
                if not args.inputs:
                    parser.error(f"{args.op} needs source files")
                sources = [_read_text(path) for path in args.inputs]
                if args.op == "compile":
                    result = client.compile(sources, name=args.name,
                                            level=args.level,
                                            deadline_ms=args.deadline_ms)
                elif args.op == "lint":
                    result = client.lint(sources, name=args.name,
                                         level=args.level,
                                         deadline_ms=args.deadline_ms)
                else:
                    result = client.reoptimize(
                        sources, name=args.name, level=args.level,
                        runs=runs, deadline_ms=args.deadline_ms)
    except ServeRequestError as error:
        print(f"lc-client: {error}", file=sys.stderr)
        return 1
    except (ServeTransportError, OSError) as error:
        print(f"lc-client: {error}", file=sys.stderr)
        return 2

    bytecode = result.pop("bytecode", None)
    if bytecode is not None and args.o:
        if args.o == "-":
            sys.stdout.buffer.write(bytecode)
        else:
            with open(args.o, "wb") as handle:
                handle.write(bytecode)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True, default=str))
    elif not args.quiet:
        if args.op == "stats":
            _print_stats({"serverd": result})
        elif args.op == "compile":
            print(f"lc-client: compiled at -O{result['level']} "
                  f"(requested -O{result['requested_level']}"
                  f"{', degraded' if result['degraded'] else ''}"
                  f"{'' if result['clean'] else ', contained faults'}), "
                  f"{len(bytecode or b'')} bytecode bytes",
                  file=sys.stderr)
        elif args.op == "lint":
            print(f"lc-client: {result['errors']} error(s), "
                  f"{result['warnings']} warning(s)", file=sys.stderr)
            for diag in result.get("diagnostics", []):
                print(diag, file=sys.stderr)
        else:
            print(f"lc-client: {args.op}: "
                  + json.dumps(result, sort_keys=True, default=str),
                  file=sys.stderr)
    if args.op == "lint":
        return 1 if result.get("errors") else 0
    return 0


_TOOLS = {
    "cc": lc_cc, "as": lc_as, "dis": lc_dis, "opt": lc_opt,
    "link": lc_link, "run": lc_run, "llc": lc_llc, "lint": lc_lint,
    "fuzz": lc_fuzz, "bugpoint": lc_bugpoint, "synth": lc_synth,
    "bench": lc_bench, "absint": lc_absint,
    "serverd": lc_serverd, "client": lc_client,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _TOOLS:
        names = ", ".join(sorted(_TOOLS))
        print(f"usage: python -m repro.tools <tool> [args]\ntools: {names}",
              file=sys.stderr)
        return 2
    return _TOOLS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
