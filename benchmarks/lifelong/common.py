"""Plumbing shared by the four workloads: where things live, the frozen
inputs and references, running a program, sample statistics, spans.

Importing this module puts the checkout's `src/` first on `sys.path`,
so `repro` always means the tree the benchmark was checked out with.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
INPUTS = os.path.join(HERE, "inputs")
#: Scratch space (cache directories, the daemon's socket, trace files),
#: relative to ROOT, where run.py changes to: inside the checkout because
#: the benchmark may write nowhere else, and relative because a unix
#: socket path has about a hundred bytes.
WORK = ".bench_work"

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"lifelong benchmark: no compiler to measure at {SRC}")
sys.path.insert(0, SRC)

STEP_LIMIT = 200_000_000


def load_programs() -> dict[str, list[str]]:
    """name -> translation units of the 16 frozen input programs.

    A `.lc` file is a single-TU program; a directory is one multi-TU
    program whose files link together in sorted order.
    """
    programs = {}
    for entry in sorted(os.listdir(INPUTS)):
        path = os.path.join(INPUTS, entry)
        if os.path.isdir(path):
            units = sorted(os.listdir(path))
            programs[entry] = [_read(os.path.join(path, unit))
                               for unit in units]
        else:
            programs[os.path.splitext(entry)[0]] = [_read(path)]
    return programs


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def load_expected() -> dict[str, dict]:
    """name -> {"exit", "output", "steps_O0"}; see capture_expected.py."""
    return json.loads(_read(os.path.join(HERE, "expected.json")))


def execute(module, manager=None):
    """Run `main`: (exit value, printed output, steps, seconds).

    With a `TraceManager` the run goes through the trace JIT tier.
    Only the run itself is timed, not building the interpreter.
    """
    from repro.execution import Interpreter

    interp = Interpreter(module, step_limit=STEP_LIMIT)
    if manager is not None:
        manager.attach(interp)
    start = time.perf_counter()
    value = interp.run("main", [])
    seconds = time.perf_counter() - start
    return value, "".join(interp.output), interp.steps, seconds


def execute_bytecode(data: bytes):
    """`execute` on serialized bytecode, for check processes."""
    from repro.bitcode import read_bytecode

    return execute(read_bytecode(data))[:3]


def matches(expected: dict, exit_value, output: str) -> bool:
    return exit_value == expected["exit"] and output == expected["output"]


def instruction_count(module) -> int:
    return sum(fn.instruction_count() for fn in module.defined_functions())


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of the largest child that
    has exited and been waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0   # Linux: KiB


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent
    dies (Linux `PR_SET_CHILD_SUBREAPER`), so that `stop_children` can
    find the daemon's workers even if the daemon itself was killed."""
    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def stop_children() -> None:
    """Kill and wait for every process that is still this one's child,
    until there is none: nothing the benchmark started outlives it."""
    me = os.getpid()
    while True:
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    # "pid (comm) state ppid ..."; comm may hold spaces.
                    fields = handle.read().rpartition(b")")[2].split()
            except OSError:                 # gone since listdir
                continue
            if int(fields[1]) == me:
                children.append(int(entry))
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


class Workload:
    """What run.py drives: set-up, the timed region, checks, a traced
    replay.  Every comparison of an output with its reference goes
    through `expect`, which is what `attempted` and `failed` count."""

    name = unit = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def close(self) -> None:
        """Stop whatever set-up started."""


class Samples:
    """Timed samples of one quantity; reported as median and quartiles."""

    def __init__(self, values=()):
        self.values = list(values)

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    def describe(self) -> str:
        n = len(self.values)
        if n < 2:
            return f"n={n}"
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return f"q1={q1:.6g} q3={q3:.6g} n={n}"


class SumOfMedians:
    """A unit of work made of parts (programs): each part's median over
    the rounds, summed.  One slow part in one round then moves nothing,
    where it would move that round's sum."""

    def __init__(self, parts):
        self.parts: dict = {part: Samples() for part in parts}

    def add(self, part, value: float) -> None:
        self.parts[part].add(value)

    @property
    def median(self) -> float:
        return sum(samples.median for samples in self.parts.values())

    def describe(self) -> str:
        rounds = len(next(iter(self.parts.values())).values)
        return f"sum of {len(self.parts)} medians, n={rounds} each"


class Tracer:
    """Spans kept in memory and written as Chrome-trace JSON at the end.

    A span is [name, ident, parent span, start, end, thread]; `ident`
    is the program or request it belongs to.  The open-span stack is
    per thread, so concurrent client threads nest independently.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, ident: str = ""):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, ident, stack[-1] if stack else None,
                  time.perf_counter(), None, threading.get_ident()]
        self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called `name`, in the order opened."""
        return [end - start for span_name, _, _, start, end, _
                in self.spans if span_name == name]

    def seconds(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: str) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": thread,
            "ts": start * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": ident, "span": i,
                     "parent": index[id(parent)] if parent else None},
        } for i, (name, ident, parent, start, end, thread)
            in enumerate(self.spans)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)
