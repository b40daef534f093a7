"""The lc-bench harness: timed sweeps over the toolchain's hot phases.

Every measured phase follows the same discipline: ``warmup`` throwaway
runs, then ``repeat`` timed runs, reduced to the **median** — the
standard defense against one-off cache/GC noise in a wall-clock
benchmark.  Phase inputs are re-materialized fresh for every run (via a
bytecode round-trip, which is the system's cheap deep copy) so a run
never times work on the previous run's output.

The result is a plain JSON-able dict (see ``SCHEMA`` and
docs/BENCH.md).  Two runs over the same inputs produce the *same
structure* — identical phase and pass name sets — so a committed
baseline can be compared field by field (:mod:`repro.bench.compare`).

A fixed pure-Python ``calibrate()`` workload is timed alongside every
run; the gate uses the ratio of calibration times to scale tolerances
across machines of different speeds.
"""

from __future__ import annotations

import datetime as _datetime
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..benchsuite import benchmark_names, load_source
from ..bitcode import read_bytecode, write_bytecode
from ..core import verify_module
from ..core.module import Module
from ..driver import BytecodeCache, FaultPolicy
from ..driver.pipelines import optimize_module, standard_pipeline
from ..frontend import CodeGenerator, parse, tokenize
from ..linker import link_modules

#: Bump on any structural change to the report (phases added count as a
#: minor revision; renaming or removing fields is a major one).
SCHEMA = "lc-bench/1"


@dataclass
class BenchConfig:
    """What to measure and how hard to measure it."""

    level: int = 2
    warmup: int = 1
    repeat: int = 5
    #: Benchsuite program names; None = the whole suite.
    programs: Optional[list[str]] = None
    #: Extra (name, [source texts]) programs, e.g. from examples/.
    extra_programs: list = field(default_factory=list)
    #: Also time the transactional (fault-tolerant) pipeline.
    transactional: bool = True
    #: Size of the synthetic high-fanout use-list microbenchmark.
    rauw_fanout: int = 5000
    #: Benchsuite programs for the execution-tier phases (plain
    #: interpreter vs the warm trace-JIT); empty list skips them.
    #: The defaults are hot-loop programs where traces dominate.
    jit_programs: list = field(
        default_factory=lambda: ["gzip", "mesa", "bzip2"])


# ---------------------------------------------------------------------------
# timing primitives
# ---------------------------------------------------------------------------

def _timed(prepare: Callable[[], object], run: Callable[[object], object],
           warmup: int, repeat: int) -> float:
    """Median seconds of ``run`` over fresh ``prepare``-d inputs."""
    samples = []
    for iteration in range(warmup + repeat):
        subject = prepare()
        start = time.perf_counter()
        run(subject)
        elapsed = time.perf_counter() - start
        if iteration >= warmup:
            samples.append(elapsed)
    return statistics.median(samples)


def calibrate(repeat: int = 3) -> float:
    """Median seconds of a fixed pure-Python workload (xorshift sum).

    Machine-speed yardstick: the bench gate scales a baseline's times
    by the ratio of calibration results before applying its tolerance,
    so a committed baseline is portable across hosts.
    """
    mask = (1 << 64) - 1

    def work(_subject) -> int:
        x = 0x9E3779B97F4A7C15
        acc = 0
        for _ in range(200_000):
            x = (x ^ (x << 13)) & mask
            x ^= x >> 7
            x = (x ^ (x << 17)) & mask
            acc = (acc + x) & mask
        return acc

    return _timed(lambda: None, work, warmup=1, repeat=repeat)


# ---------------------------------------------------------------------------
# input discovery
# ---------------------------------------------------------------------------

def discover_examples(directory: str) -> list[tuple[str, list[str]]]:
    """(name, [source texts]) programs found under ``directory``.

    Each ``*.lc`` file directly in (or anywhere under) the tree is a
    single-TU program; a subdirectory containing several ``*.lc`` files
    is one *multi-TU* program (its files link together), which is what
    exercises the linker with more than one real translation unit.
    """
    programs: list[tuple[str, list[str]]] = []
    if not os.path.isdir(directory):
        return programs
    for root, _dirs, files in sorted(os.walk(directory)):
        sources = sorted(f for f in files if f.endswith(".lc"))
        if not sources:
            continue
        texts = []
        for filename in sources:
            with open(os.path.join(root, filename), "r") as handle:
                texts.append(handle.read())
        if len(sources) == 1:
            name = os.path.splitext(sources[0])[0]
        else:
            name = os.path.basename(root.rstrip(os.sep)) or "example"
        programs.append((f"example:{name}", texts))
    return programs


def _suite_programs(config: BenchConfig) -> list[tuple[str, list[str]]]:
    names = config.programs if config.programs else benchmark_names()
    programs = [(name, [load_source(name)]) for name in names]
    programs.extend(config.extra_programs)
    return programs


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

class _PhaseTable:
    """Accumulates per-(phase, program) medians into the report shape."""

    def __init__(self):
        self.phases: dict[str, dict] = {}

    def record(self, phase: str, program: str, seconds: float) -> None:
        bucket = self.phases.setdefault(
            phase, {"seconds": 0.0, "per_program": {}})
        bucket["per_program"][program] = (
            bucket["per_program"].get(program, 0.0) + seconds)
        bucket["seconds"] += seconds

    def to_dict(self) -> dict:
        return {
            name: {
                "seconds": round(entry["seconds"], 6),
                "per_program": {
                    program: round(seconds, 6)
                    for program, seconds in sorted(
                        entry["per_program"].items())
                },
            }
            for name, entry in sorted(self.phases.items())
        }


def _bench_program(name: str, sources: list[str], config: BenchConfig,
                   table: _PhaseTable, passes: dict[str, dict]) -> None:
    warmup, repeat, level = config.warmup, config.repeat, config.level

    # -- front-end phases, per TU ------------------------------------------
    for source in sources:
        table.record("frontend.lex", name, _timed(
            lambda: None, lambda _: tokenize(source), warmup, repeat))
        table.record("frontend.parse", name, _timed(
            lambda: None, lambda _: parse(source), warmup, repeat))
        table.record("frontend.codegen", name, _timed(
            lambda: parse(source),
            lambda program: CodeGenerator(name).generate(program),
            warmup, repeat))

    # Unoptimized module bytes: the cheap deep-copy source for every
    # phase that needs a fresh pre-optimization module per run.
    raw = [write_bytecode(CodeGenerator(f"{name}.tu{i}").generate(parse(s)),
                          strip_names=False)
           for i, s in enumerate(sources)]

    # -- the optimizer, pass by pass ---------------------------------------
    def run_pipeline(modules):
        manager = standard_pipeline(level)
        for module in modules:
            manager.run(module)
        return manager

    pass_samples: dict[str, list[float]] = {}
    pass_runs: dict[str, int] = {}
    pipeline_samples = []
    for iteration in range(warmup + repeat):
        modules = [read_bytecode(data) for data in raw]
        start = time.perf_counter()
        manager = run_pipeline(modules)
        elapsed = time.perf_counter() - start
        if iteration >= warmup:
            pipeline_samples.append(elapsed)
            for pass_name, seconds in manager.stats.seconds.items():
                pass_samples.setdefault(pass_name, []).append(seconds)
                pass_runs[pass_name] = manager.stats.runs[pass_name]
    table.record(f"pipeline.O{level}", name,
                 statistics.median(pipeline_samples))
    for pass_name, samples in pass_samples.items():
        bucket = passes.setdefault(pass_name, {"seconds": 0.0, "runs": 0})
        bucket["seconds"] += statistics.median(samples)
        bucket["runs"] += pass_runs[pass_name]

    # -- the transactional pipeline (snapshot machinery included) ----------
    if config.transactional:
        def run_transactional(modules):
            policy = FaultPolicy(reduce_testcases=False)
            for module in modules:
                optimize_module(module, level, policy=policy)

        table.record(f"transact.O{level}", name, _timed(
            lambda: [read_bytecode(data) for data in raw],
            run_transactional, warmup, repeat))

    # -- verify, bytecode I/O, cache, link over the optimized program ------
    optimized = [read_bytecode(data) for data in raw]
    for module in optimized:
        optimize_module(module, level)
    opt_bytes = [write_bytecode(m, strip_names=False) for m in optimized]

    def for_each_module(action):
        def run(modules):
            for module in modules:
                action(module)
        return run

    table.record("verify", name, _timed(
        lambda: optimized, for_each_module(verify_module), warmup, repeat))
    table.record("bytecode.write", name, _timed(
        lambda: optimized,
        for_each_module(lambda m: write_bytecode(m, strip_names=False)),
        warmup, repeat))
    table.record("bytecode.read", name, _timed(
        lambda: opt_bytes,
        lambda blobs: [read_bytecode(b) for b in blobs], warmup, repeat))

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = BytecodeCache(cache_dir)
        keys = [cache.key(source, level) for source in sources]

        def store_all(_subject):
            for key, data in zip(keys, opt_bytes):
                cache.store_bytes(key, data)

        table.record("cache.store", name, _timed(
            lambda: None, store_all, warmup, repeat))
        table.record("cache.lookup", name, _timed(
            lambda: None,
            lambda _: [cache.load(key) for key in keys], warmup, repeat))

    table.record("link", name, _timed(
        lambda: [read_bytecode(data) for data in opt_bytes],
        lambda modules: link_modules(modules, name), warmup, repeat))


def _bench_rauw(config: BenchConfig, table: _PhaseTable) -> None:
    """Synthetic high-fanout use-list churn: one value with N uses gets
    replace-all-uses-with'd, then every user drops its references —
    the two operations the swap-remove unlink keeps O(uses)."""
    from ..core import types
    from ..core.values import User, Value

    fanout = config.rauw_fanout

    def build():
        hub = Value(types.INT, "hub")
        users = [User(types.INT, (hub, hub)) for _ in range(fanout)]
        return hub, users

    def churn(subject):
        hub, users = subject
        replacement = Value(types.INT, "replacement")
        hub.replace_all_uses_with(replacement)
        for user in users:
            user.drop_all_references()

    table.record("rauw.highfanout", "micro", _timed(
        build, churn, config.warmup, config.repeat))


def _bench_jit(config: BenchConfig, table: _PhaseTable,
               progress: Optional[Callable[[str], None]] = None) -> None:
    """Execution-tier phases over designated hot-loop programs.

    ``exec.interp`` is the plain IR interpreter; ``jit.trace`` is the
    same program with a *warm* software trace cache — the TraceManager
    persists across runs (the lifelong story: traces compiled in one
    end-user run keep paying off in the next), so the timed runs
    measure steady-state trace execution, not compile cost.  The
    warmup run doubles as the training run that populates the cache.
    The ``jit.trace``/``exec.interp`` ratio in the report is the
    trace tier's wall-clock speedup.
    """
    from ..benchsuite import compile_benchmark
    from ..execution import Interpreter, TraceManager

    # Interpreter runs are orders slower than compiler phases; cap the
    # repeats so the execution phases don't dominate the sweep.
    repeat = min(config.repeat, 3)
    for name in config.jit_programs:
        if progress is not None:
            progress(f"{name} (execution tiers)")
        module = compile_benchmark(name, level=config.level, lto=True)
        table.record("exec.interp", name, _timed(
            lambda: Interpreter(module),
            lambda interp: interp.run("main", []), 1, repeat))
        manager = TraceManager(hot_threshold=50)

        def traced():
            interp = Interpreter(module)
            manager.attach(interp)
            return interp

        table.record("jit.trace", name, _timed(
            traced, lambda interp: interp.run("main", []), 1, repeat))


def run_bench(config: Optional[BenchConfig] = None,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """The full sweep; returns the JSON-able report."""
    from ..driver.cache import toolchain_fingerprint

    config = config or BenchConfig()
    table = _PhaseTable()
    passes: dict[str, dict] = {}
    programs = _suite_programs(config)
    started = time.perf_counter()
    for name, sources in programs:
        if progress is not None:
            progress(name)
        _bench_program(name, sources, config, table, passes)
    _bench_rauw(config, table)
    if config.jit_programs:
        _bench_jit(config, table, progress)
    report = {
        "schema": SCHEMA,
        "created": _datetime.datetime.now(
            _datetime.timezone.utc).isoformat(timespec="seconds"),
        "toolchain": toolchain_fingerprint(),
        "level": config.level,
        "warmup": config.warmup,
        "repeat": config.repeat,
        "calibration_seconds": round(calibrate(), 6),
        "programs": [name for name, _ in programs],
        "phases": table.to_dict(),
        "passes": {
            name: {"seconds": round(entry["seconds"], 6),
                   "runs": entry["runs"]}
            for name, entry in sorted(passes.items())
        },
        "total_seconds": round(time.perf_counter() - started, 6),
    }
    return report


def default_report_name(when: Optional[_datetime.date] = None) -> str:
    """``BENCH_<date>.json`` — one trajectory point per day by default."""
    when = when or _datetime.date.today()
    return f"BENCH_{when.isoformat()}.json"


def write_report(report: dict, path: Optional[str] = None) -> str:
    """Write the report (default: ``BENCH_<date>.json`` in the cwd)."""
    import json

    path = path or default_report_name()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
