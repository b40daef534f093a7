"""Supervised worker processes: the crash domain of lc-serverd.

Every request class that runs user-supplied input (compile, lint,
reoptimize, triage) executes in a **worker process**, never in the
supervisor.  The worker is crash-only: it holds no durable state
beyond the shared on-disk bytecode cache (which is multi-process-safe
and integrity-framed), so the supervisor's whole recovery story is
"restart the process" — a worker that dies mid-request costs exactly
that request, and the next request meets a fresh worker.

Inside a request the worker still runs the fault-tolerant driver
(:class:`~repro.driver.passmanager.FaultPolicy`): a crashing *pass* is
rolled back and poisoned without the worker dying at all, and the
request deadline is threaded into the policy so a deadline-pressed
compile sheds optimization (the -O2 -> -O1 -> -O0 ladder) instead of
being killed from outside.  Only a genuine process death — a real
segfault-class bug, or ``--fault-inject server.worker-crash`` — falls
through to the supervisor's restart path.

Requests and responses travel over a :func:`multiprocessing.Pipe`;
the supervisor side lives in :class:`WorkerHandle` and is only ever
driven by that worker's one dispatcher thread.
"""

from __future__ import annotations

import base64
import os
import signal
import time
import traceback
from typing import Any, Optional

from ..stats import Stats
from . import protocol


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------

def _reset_inherited_state() -> None:
    """Make a forked child safe regardless of supervisor thread state.

    The supervisor forks workers while its own threads run; any module
    lock held at that instant is copied *locked* into the child.  The
    child only ever touches the fault-injection registry (via the
    cache's mangle hooks), so that lock is re-created fresh — and the
    child must never inherit an armed plan: injection decisions are the
    supervisor's, shipped explicitly in the job (``inject`` field).
    """
    import threading

    from ..fuzz import faultinject

    faultinject._lock = threading.Lock()
    faultinject._plan = None
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def worker_main(conn, config: dict) -> None:
    """The worker loop: recv job, execute, send response, forever.

    ``None`` is the clean-shutdown sentinel.  An injected crash exits
    via ``os._exit`` — no cleanup, no goodbye on the pipe — exactly
    like the native-code crash it stands in for.
    """
    _reset_inherited_state()
    from ..driver.cache import BytecodeCache

    cache: Optional[BytecodeCache] = None
    if config.get("cache_dir"):
        cache = BytecodeCache(config["cache_dir"],
                              max_bytes=config.get("cache_max_bytes"))
    #: The worker's one record: the cache counts into it and each
    #: request's fault policy is merged into it.  ``shipped`` is what
    #: the supervisor has been sent of it, so every response carries
    #: only the difference and a restart double-counts nothing.
    stats = cache.stats if cache is not None else Stats()
    shipped = Stats()
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if job is None:
            break
        inject = job.get("inject") or {}
        if inject.get("sleep") is not None:
            # server.request-timeout: stall past the deadline; the
            # supervisor's watchdog kills this process mid-sleep.
            time.sleep(float(inject["sleep"]))
        if inject.get("crash") is not None:
            # server.worker-crash: die the crash-only way — abruptly,
            # mid-request, without a word on the pipe.
            os._exit(70 + int(inject["crash"]) % 16)
        response = _execute(job, cache, stats)
        response["stats"] = stats.delta(shipped)
        shipped.merge(response["stats"])
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break


def _execute(job: dict, cache, stats: Stats) -> dict:
    """One request, never letting an exception reach the worker loop."""
    op = job.get("op", "?")
    try:
        handler = _HANDLERS[op]
    except KeyError:
        return {"ok": False, "error": {
            "code": protocol.BAD_REQUEST,
            "message": f"worker cannot execute op {op!r}"}}
    try:
        return {"ok": True, "result": handler(job, cache, stats)}
    except Exception as error:
        return {"ok": False, "error": {
            "code": protocol.REQUEST_FAILED,
            "message": f"{type(error).__name__}: {error}",
            "traceback": traceback.format_exc(limit=8)}}


def _policy(job: dict):
    """A per-request fault policy carrying the request deadline."""
    from ..driver.passmanager import FaultPolicy

    policy = FaultPolicy(reduce_testcases=False)
    remaining = job.get("deadline_remaining")
    if remaining is not None:
        policy.deadline = time.monotonic() + float(remaining)
    return policy


def _do_compile(job: dict, cache, stats: Stats) -> dict:
    from ..driver.pipelines import compile_to_bytecode, unclean

    policy = _policy(job)
    level = job.get("level", 2)
    data = compile_to_bytecode(job["sources"], job.get("name", "program"),
                               level=level, lto=job.get("lto", True),
                               cache=cache, policy=policy, stats=stats)
    stats.merge(policy.stats)
    return {
        "bytecode": _b64(data),
        "level": level,
        "requested_level": job.get("requested_level", level),
        "degraded": level < job.get("requested_level", level),
        "clean": not any(unclean(policy)),
        "stats": policy.statistics(),
    }


def _do_lint(job: dict, cache, stats: Stats) -> dict:
    from ..driver.pipelines import lint_whole_program

    result = lint_whole_program(job["sources"],
                                name=job.get("name", "program"),
                                level=job.get("level", 2),
                                checks=job.get("checks"),
                                cache=cache)
    diagnostics = result.diagnostics
    rendered = [diag.render() for diag in diagnostics]
    errors = sum(1 for diag in diagnostics if diag.is_error)
    return {"diagnostics": rendered, "errors": errors,
            "warnings": len(rendered) - errors}


def _do_reoptimize(job: dict, cache, stats: Stats) -> dict:
    from ..driver.lifelong import LifelongSession

    policy = _policy(job)
    session = LifelongSession(job["sources"], job.get("name", "program"),
                              level=job.get("level", 2), cache=cache,
                              fault_policy=policy)
    runs = []
    for run in job.get("runs") or [{"function": "main", "args": []}]:
        outcome = session.run(run.get("function", "main"),
                              run.get("args", []))
        runs.append({"exit": outcome.exit_value, "output": outcome.output,
                     "steps": outcome.steps})
    report = session.reoptimize()
    stats.merge(policy.stats)
    return {
        "runs": runs,
        "report": {
            "hot_functions": report.hot_functions,
            "inlined_calls": report.inlined_calls,
            "traces_formed": report.traces_formed,
            "blocks_reordered": report.blocks_reordered,
        },
        "bytecode": _b64(session.bytecode),
        "stats": session.statistics(),
    }


def _do_triage(job: dict, cache, stats: Stats) -> dict:
    from ..fuzz.generator import generate_program
    from ..fuzz.harness import HarnessConfig, check_program

    source = job.get("source")
    if source is None:
        source = generate_program(job["seed"], job.get("size", 2))
    config = HarnessConfig(step_limit=job.get("step_limit", 500_000))
    result = check_program(source, config)
    return {
        "divergences": [div.describe() for div in result.divergences],
        "skipped": result.skipped,
        "error": result.error,
    }


def _do_sleep(job: dict, cache, stats: Stats) -> dict:
    """A diagnostic op: hold a worker for ``ms`` — the deterministic
    load generator behind the overload and drain tests."""
    ms = min(int(job.get("ms", 0)), 10_000)
    time.sleep(ms / 1000.0)
    return {"slept_ms": ms}


_HANDLERS = {
    "compile": _do_compile,
    "lint": _do_lint,
    "reoptimize": _do_reoptimize,
    "triage": _do_triage,
    "sleep": _do_sleep,
}


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

def _context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


class WorkerHandle:
    """One supervised worker process and its pipe.

    Driven only by its dispatcher thread, so no locking here; the
    supervisor's restart decision *is* the crash-recovery protocol.
    """

    def __init__(self, config: dict):
        self._config = dict(config)
        self._ctx = _context()
        self.process = None
        self._conn = None
        self.restarts = 0
        self.start()

    def start(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=worker_main, args=(child, self._config),
            name="lc-serverd-worker", daemon=True)
        self.process.start()
        child.close()
        self._conn = parent

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def send(self, job: dict) -> None:
        self._conn.send(job)

    def poll(self, timeout: float) -> bool:
        return self._conn.poll(max(0.0, timeout))

    def recv(self) -> Any:
        return self._conn.recv()

    def restart(self, kill: bool = False) -> None:
        """Replace the process with a fresh one (crash-only recovery)."""
        if self.process is not None:
            if kill and self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():  # pragma: no cover - stuck child
                self.process.kill()
                self.process.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
        self.restarts += 1
        self.start()

    def stop(self, timeout: float = 2.0) -> None:
        """Clean shutdown: sentinel, join, then force."""
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        self._conn.close()
