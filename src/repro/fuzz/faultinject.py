"""Deterministic seeded fault injection, and the single-fault matrix.

The robustness claim of the fault-tolerant driver (docs/ROBUSTNESS.md)
is only credible if it is *tested* against the failures it promises to
contain.  This module provides the failures: a registry of named
injection sites wired into the production code paths, a single-shot
armed plan (one site, one seed, fires once), and a harness that runs
the whole single-fault matrix — for every registered site, compile a
fixed-seed fuzz program with that fault armed and assert the pipeline
still completes and produces the interpreter-checked ``-O0`` behaviour.

Sites fall into two families:

* **check sites** — ``faultinject.check("site")`` raises
  :class:`InjectedFault` at the marked point: inside a chosen transform
  pass (``pass:<name>``, fired by the pass manager under a fault policy) or
  in the linker (``linker.symbol-clash``).
* **mangle sites** — ``faultinject.mangle(...)`` corrupts data flowing
  past the marked point: flip one byte (``cache.read``) or several
  (``bytecode.corrupt``) of a stored cache entry before its integrity
  frame is checked — modelling disk corruption, caught by the digest —
  truncate decoded bytecode before the reader runs
  (``bytecode.truncate``, caught by the decoder's structured errors),
  or flip one byte of a stored summary sidecar (``sidecar.corrupt``,
  caught by the same digest).

A plan is *single-shot*: it fires at the first matching site and then
disarms itself, modelling one transient fault.  Everything is seeded —
the same ``SITE:SEED`` pair corrupts the same byte every run.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence


class InjectedFault(Exception):
    """The exception raised by an armed check site."""

    def __init__(self, site: str, message: Optional[str] = None):
        super().__init__(message or f"injected fault at {site}")
        self.site = site


#: Sites that exist independent of the pass pipeline.
STATIC_SITES: dict[str, str] = {
    "cache.read": "flip one byte of a stored cache entry (digest catches)",
    "bytecode.truncate": "truncate cached bytecode before decoding",
    "bytecode.corrupt": "flip four bits of a stored cache entry",
    "sidecar.corrupt": "flip one byte of a stored analysis-summary "
                       "sidecar (digest catches)",
    "linker.symbol-clash": "raise a duplicate-symbol error while linking",
    "cache.evict-race": "delete an LRU eviction victim out from under "
                        "the evictor (concurrent-daemon race)",
    "server.worker-crash": "kill the lc-serverd worker process "
                           "mid-request (supervisor restarts it)",
    "server.queue-overflow": "treat the admission queue as full for one "
                             "request (structured BUSY shed)",
    "server.request-timeout": "stall one request past its deadline "
                              "(dispatch watchdog kills the worker)",
}

#: Sites exercised through a live lc-serverd daemon rather than a
#: plain batch compile; the matrix runs them in a dedicated cell.
SERVER_SITES = ("server.worker-crash", "server.queue-overflow",
                "server.request-timeout")


class FaultPlan:
    """One armed fault: a site name, a seed, and a fired flag."""

    def __init__(self, site: str, seed: int = 0):
        self.site = site
        self.seed = seed
        self.fired = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "armed"
        return f"<FaultPlan {self.site}:{self.seed} {state}>"


_lock = threading.Lock()
_plan: Optional[FaultPlan] = None


def registered_sites(level: int = 3) -> dict[str, str]:
    """Every known injection site -> description.

    Pass sites are derived from the standard ``-O<level>`` pipeline and
    the link-time pipeline, so the catalogue tracks the real pipelines
    instead of a hand-maintained list.
    """
    from ..driver.pipelines import lto_pipeline, standard_pipeline
    from ..transforms.passmanager import pass_name

    sites = dict(STATIC_SITES)
    for manager in (standard_pipeline(level), lto_pipeline()):
        for pass_obj in manager.passes:
            name = pass_name(pass_obj)
            sites.setdefault(f"pass:{name}",
                             f"raise inside the {name} pass")
    return sites


def arm(site: str, seed: int = 0, strict: bool = True) -> FaultPlan:
    """Arm one single-shot fault; returns the plan (watch ``.fired``)."""
    global _plan
    if strict and site not in registered_sites():
        known = ", ".join(sorted(registered_sites()))
        raise ValueError(f"unknown fault site {site!r} (known: {known})")
    plan = FaultPlan(site, seed)
    with _lock:
        _plan = plan
    return plan


def disarm() -> Optional[FaultPlan]:
    """Remove the armed plan (fired or not); returns it for inspection."""
    global _plan
    with _lock:
        plan, _plan = _plan, None
    return plan


@contextmanager
def injected(site: str, seed: int = 0) -> Iterator[FaultPlan]:
    """``with injected("pass:gvn", 7) as plan: ...`` — always disarms."""
    plan = arm(site, seed)
    try:
        yield plan
    finally:
        disarm()


def _claim(site: str) -> Optional[FaultPlan]:
    """Atomically consume the armed plan if it targets ``site``."""
    with _lock:
        plan = _plan
        if plan is not None and plan.site == site and not plan.fired:
            plan.fired = True
            return plan
    return None


def claim(site: str) -> Optional[FaultPlan]:
    """Atomically consume the armed plan if it targets ``site``.

    The public face of :func:`_claim`, for components that *carry* a
    fault to where it happens rather than raising on the spot — the
    lc-serverd supervisor claims ``server.*`` plans at dispatch time
    and ships the injection to the worker process in the job itself
    (the armed plan lives in supervisor memory; the worker is a
    different process).
    """
    return _claim(site)


def check(site: str) -> None:
    """Check site: raise :class:`InjectedFault` if armed for ``site``."""
    plan = _claim(site)
    if plan is not None:
        if site == "linker.symbol-clash":
            raise InjectedFault(site, "injected fault: symbol 'main' "
                                      "defined twice at link time")
        raise InjectedFault(site)


def mangle(site: str, data: bytes) -> bytes:
    """Mangle site for binary artifacts: corrupt ``data`` if armed."""
    plan = _claim(site)
    if plan is None or not data:
        return data
    rng = random.Random(plan.seed)
    if site == "bytecode.truncate":
        return data[:rng.randrange(0, len(data))]
    flips = 4 if site == "bytecode.corrupt" else 1
    buffer = bytearray(data)
    for _ in range(flips):
        buffer[rng.randrange(len(buffer))] ^= 1 << rng.randrange(8)
    return bytes(buffer)


def race_delete(site: str, path: str) -> None:
    """Race site for file deletes: if armed, delete ``path`` first —
    modelling a concurrent process winning the eviction race, so the
    caller's own ``unlink`` finds the file already gone."""
    plan = _claim(site)
    if plan is None:
        return
    import os

    try:
        os.unlink(path)
    except OSError:
        pass


# ----------------------------------------------------------------------
# The single-fault matrix
# ----------------------------------------------------------------------

@dataclass
class FaultOutcome:
    """One (site, program) cell of the matrix."""

    site: str
    program_seed: int
    ok: bool
    fired: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        fired = "" if self.fired else " [fault never fired]"
        tail = f" — {self.detail}" if self.detail else ""
        return f"{status:4s} {self.site:24s} seed {self.program_seed}{fired}{tail}"


@dataclass
class FaultMatrixReport:
    outcomes: list[FaultOutcome] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(o.ok and o.fired for o in self.outcomes)

    @property
    def failures(self) -> list[FaultOutcome]:
        return [o for o in self.outcomes if not (o.ok and o.fired)]


def run_fault_matrix(program_seeds: Sequence[int] = (401, 402, 403),
                     size: int = 2,
                     sites: Optional[Sequence[str]] = None,
                     fault_seed: int = 12345,
                     level: int = 2,
                     step_limit: int = 500_000,
                     crash_dir: Optional[str] = None) -> FaultMatrixReport:
    """Run every single-fault scenario over fixed-seed fuzz programs.

    For each (site, program) pair the pipeline runs with exactly that
    one fault armed, under the fault-tolerant driver policy, and the
    cell passes iff (a) no unhandled exception escapes, (b) the fault
    actually fired, and (c) the result still matches the clean ``-O0``
    reference — the interpreter-checked checksum for compile sites, the
    clean diagnostics for the lint sidecar site.
    """
    import tempfile

    from ..driver.cache import BytecodeCache
    from ..driver.passmanager import FaultPolicy
    from ..driver.pipelines import compile_and_link, lint_whole_program
    from .generator import generate_program
    from .harness import run_interpreter

    if sites is None:
        sites = sorted(registered_sites(level))
    report = FaultMatrixReport()
    for program_seed in program_seeds:
        source = generate_program(program_seed, size)
        reference = run_interpreter(
            compile_and_link([source], "ref", level=0, lto=False),
            step_limit)
        clean_lint = lint_whole_program([source], level=level)
        clean_diags = [d.render() for d in clean_lint.diagnostics]
        for site in sites:
            report.outcomes.append(_run_cell(
                site, program_seed, source, reference, clean_diags,
                fault_seed, level, step_limit, crash_dir,
                BytecodeCache, FaultPolicy, compile_and_link,
                lint_whole_program, run_interpreter, tempfile))
    return report


def _run_cell(site, program_seed, source, reference, clean_diags,
              fault_seed, level, step_limit, crash_dir,
              BytecodeCache, FaultPolicy, compile_and_link,
              lint_whole_program, run_interpreter, tempfile) -> FaultOutcome:
    if site in SERVER_SITES:
        return _run_server_cell(site, program_seed, source, reference,
                                fault_seed, level, step_limit, tempfile)
    if site == "cache.evict-race":
        return _run_evict_race_cell(site, program_seed, source, reference,
                                    fault_seed, level, step_limit,
                                    BytecodeCache, FaultPolicy,
                                    compile_and_link, run_interpreter,
                                    tempfile)
    with tempfile.TemporaryDirectory(prefix="lc-faultmatrix-") as tmp:
        policy = FaultPolicy(crash_dir=crash_dir or f"{tmp}/crashes",
                             reduce_testcases=False)
        cache = BytecodeCache(f"{tmp}/cache")
        needs_warm_cache = site in ("cache.read", "bytecode.truncate",
                                    "bytecode.corrupt")
        try:
            if site == "sidecar.corrupt":
                # Warm the summary sidecars, then lint with the armed
                # fault: the unparseable sidecar must be recomputed.
                lint_whole_program([source], level=level, cache=cache)
                with injected(site, fault_seed) as plan:
                    result = lint_whole_program([source], level=level,
                                                cache=cache)
                diags = [d.render() for d in result.diagnostics]
                ok = diags == clean_diags
                detail = "" if ok else "diagnostics changed"
            else:
                if needs_warm_cache:
                    compile_and_link([source], "fault", level=level,
                                     cache=cache, policy=policy)
                with injected(site, fault_seed) as plan:
                    module = compile_and_link(
                        [source], "fault", level=level,
                        cache=cache if needs_warm_cache else None,
                        policy=policy)
                    outcome = run_interpreter(module, step_limit)
                ok = outcome == reference
                detail = "" if ok else (f"expected {reference.describe()}, "
                                        f"got {outcome.describe()}")
        except Exception as error:  # the exact thing containment forbids
            disarm()
            return FaultOutcome(site, program_seed, False, True,
                                f"unhandled {type(error).__name__}: {error}")
        return FaultOutcome(site, program_seed, ok, plan.fired, detail)


def _run_evict_race_cell(site, program_seed, source, reference, fault_seed,
                         level, step_limit, BytecodeCache, FaultPolicy,
                         compile_and_link, run_interpreter,
                         tempfile) -> FaultOutcome:
    """cache.evict-race: a bounded cache evicting under a concurrent
    delete must lose only time, never correctness."""
    # A second, distinct TU whose cached entry becomes the LRU victim.
    victim_source = source + "\nint faultpad(int x) { return x + 1; }\n"
    with tempfile.TemporaryDirectory(prefix="lc-faultmatrix-") as tmp:
        policy = FaultPolicy(crash_dir=f"{tmp}/crashes",
                             reduce_testcases=False)
        # max_bytes=1: any second entry forces an eviction of the first.
        cache = BytecodeCache(f"{tmp}/cache", max_bytes=1)
        try:
            compile_and_link([victim_source], "warm", level=level,
                             cache=cache, policy=policy)
            with injected(site, fault_seed) as plan:
                module = compile_and_link([source], "fault", level=level,
                                          cache=cache, policy=policy)
                outcome = run_interpreter(module, step_limit)
            evictions = cache.statistics()["cache-lru-evictions"]
            ok = outcome == reference and evictions >= 1
            detail = "" if ok else (f"expected {reference.describe()}, got "
                                    f"{outcome.describe()} "
                                    f"({evictions} evictions)")
        except Exception as error:
            disarm()
            return FaultOutcome(site, program_seed, False, True,
                                f"unhandled {type(error).__name__}: {error}")
        return FaultOutcome(site, program_seed, ok, plan.fired, detail)


def _run_server_cell(site, program_seed, source, reference, fault_seed,
                     level, step_limit, tempfile) -> FaultOutcome:
    """server.*: one fault through a live daemon.

    The cell passes iff the daemon survives, the faulted request comes
    back as either a clean result or a *structured* error, and a
    follow-up (or client-retried) request still produces the clean
    reference behaviour — one transient fault costs at most one
    request, never the service.
    """
    from ..bitcode import read_bytecode
    from ..serve import (
        ServeClient, ServeRequestError, Server, ServerConfig,
    )
    from .harness import run_interpreter

    with tempfile.TemporaryDirectory(prefix="lc-faultmatrix-") as tmp:
        server = Server(ServerConfig(socket_path=f"{tmp}/serve.sock",
                                     workers=1, queue_depth=4,
                                     cache_dir=f"{tmp}/cache",
                                     idle_reopt=False))
        client = ServeClient(server.address, retry_budget=4,
                             backoff_base=0.01, jitter_seed=fault_seed)
        plan = arm(site, fault_seed)
        # Tight deadline only for the stall site, so its watchdog cell
        # stays fast; everything else gets room to finish.
        deadline_ms = 2_000 if site == "server.request-timeout" else 60_000
        try:
            try:
                result = client.compile([source], "fault", level=level,
                                        deadline_ms=deadline_ms)
            except ServeRequestError:
                # The injected fault consumed one request with a
                # structured error (TIMEOUT is not client-retryable by
                # design); the fault is spent, so re-issuing must work.
                result = client.compile([source], "fault", level=level)
            outcome = run_interpreter(read_bytecode(result["bytecode"]),
                                      step_limit)
            alive = client.ping().get("pong") is True
            ok = outcome == reference and alive
            detail = "" if ok else (
                f"expected {reference.describe()}, got "
                f"{outcome.describe()}" if alive else "daemon died")
        except Exception as error:
            return FaultOutcome(site, program_seed, False, True,
                                f"unhandled {type(error).__name__}: {error}")
        finally:
            disarm()
            client.close()
            server.stop()
        return FaultOutcome(site, program_seed, ok, plan.fired, detail)
