"""Admission control, deadlines, retries, and graceful degradation.

The scheduler is the daemon's load-bearing wall:

* a **bounded admission queue** — once depth crosses the high-water
  mark, new requests are shed immediately with a structured ``BUSY``
  response carrying a ``retry_after_ms`` hint (never silently dropped,
  never queued without bound);
* a **deadline** on every request (per-class default, client can set a
  tighter one) enforced twice: a request whose deadline expires while
  queued is answered ``TIMEOUT`` without ever touching a worker, and
  one that overruns while executing has its worker killed and
  restarted by the dispatch watchdog — a structured ``TIMEOUT``
  response, not a hang;
* **crash-only retry**: a worker that dies mid-request is restarted
  and the request retried once on the fresh process, under capped
  exponential backoff with deterministic per-request jitter, as long
  as the deadline allows;
* **graceful degradation**: sustained pressure on the queue steps new
  compile requests down the -O2 -> -O1 -> -O0 ladder (the same ladder
  the fault-tolerant driver uses for its own failures) and pauses the
  idle-time reoptimizer; calm restores full optimization.

Everything is observable through the supervisor's
:class:`~repro.stats.Stats` record (``serverd.*``).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..stats import Stats
from . import protocol
from .workers import WorkerHandle


#: The ``-stats`` source of the supervisor's own rows.  Rows merged in
#: from workers keep their sources (``bytecode-cache``,
#: ``fault-policy``); :meth:`repro.serve.server.Server.statistics`
#: flattens all of them into ``serverd.*``.
SOURCE = "serverd"

#: DegradeController hysteresis: admissions at or above the degrade
#: watermark before the level steps down, completions on an empty queue
#: before it steps back up, and the most levels it may take away.
_PRESSURE_ADMITS = 4
_CALM_COMPLETIONS = 8
_MAX_SHIFT = 2


@dataclass
class Job:
    """One admitted request on its way to (or through) a worker."""

    id: object
    op: str
    payload: dict
    respond: Callable[[dict], None]
    deadline: float                 # absolute time.monotonic()
    enqueued: float = field(default_factory=time.monotonic)
    retries_left: int = 1
    #: Internal jobs (idle reoptimizer work) bypass degradation and are
    #: invisible to clients; their responses go to a drop callback.
    internal: bool = False

    def remaining(self) -> float:
        return self.deadline - time.monotonic()


class DegradeController:
    """Hysteresis between full optimization and survival mode.

    ``note_admit`` sees every admission with the post-admit queue
    depth; sustained depth at or above the degrade watermark steps
    ``shift`` up (each step counts ``serverd.degraded``).  Completions
    that leave the queue empty accumulate calm; enough calm steps the
    shift back down (``serverd.recovered``).  The shift is subtracted
    from compile request levels at *dispatch* time, so a request
    admitted during a burst but executed after the storm still gets
    full optimization.
    """

    def __init__(self, stats: Stats, degrade_water: int):
        self._stats = stats
        self.degrade_water = max(1, degrade_water)
        self._lock = threading.Lock()
        self._pressure = 0
        self._calm = 0
        self._shift = 0

    @property
    def shift(self) -> int:
        with self._lock:
            return self._shift

    def note_admit(self, depth: int) -> None:
        with self._lock:
            if depth >= self.degrade_water:
                self._pressure += 1
                self._calm = 0
                if (self._pressure >= _PRESSURE_ADMITS
                        and self._shift < _MAX_SHIFT):
                    self._shift += 1
                    self._pressure = 0
                    self._stats.count(SOURCE, "degraded")
                    self._stats.gauge(SOURCE, "degrade-level", self._shift)
            else:
                self._pressure = max(0, self._pressure - 1)

    def note_complete(self, depth: int) -> None:
        with self._lock:
            if depth > 0:
                return
            self._calm += 1
            if self._calm >= _CALM_COMPLETIONS and self._shift > 0:
                self._shift -= 1
                self._calm = 0
                self._stats.count(SOURCE, "recovered")
                self._stats.gauge(SOURCE, "degrade-level", self._shift)


class Scheduler:
    """Bounded queue + dispatcher-per-worker + the recovery protocol."""

    def __init__(self, stats: Stats, worker_config: dict,
                 workers: int = 2, queue_depth: int = 32,
                 high_water: Optional[int] = None,
                 degrade_water: Optional[int] = None,
                 server_retries: int = 1,
                 backoff_base: float = 0.05, backoff_cap: float = 0.5):
        self.stats = stats
        self.queue_depth = queue_depth
        self.high_water = high_water if high_water is not None \
            else queue_depth
        self.server_retries = server_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.degrade = DegradeController(
            stats, degrade_water if degrade_water is not None
            else max(2, queue_depth // 2))
        self._queue: deque[Optional[Job]] = deque()
        self._queue_cond = threading.Condition()
        self._draining = False
        self._stopped = False
        self._in_flight = 0
        self._idle_cond = threading.Condition()
        self.workers = [WorkerHandle(worker_config)
                        for _ in range(max(1, workers))]
        self._threads = [
            threading.Thread(target=self._dispatch_loop, args=(handle,),
                             name=f"lc-serverd-dispatch-{index}",
                             daemon=True)
            for index, handle in enumerate(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- admission ----------------------------------------------------------

    def depth(self) -> int:
        with self._queue_cond:
            return len(self._queue)

    def busy(self) -> bool:
        """Anything queued or executing?  (The idle reoptimizer's cue.)"""
        with self._queue_cond:
            queued = len(self._queue)
        with self._idle_cond:
            return queued > 0 or self._in_flight > 0

    def submit(self, job: Job) -> bool:
        """Admit or shed one job; the response is always structured.

        Returns True iff the job was admitted.  Shedding answers
        ``BUSY`` with a ``retry_after_ms`` hint scaled by queue depth;
        draining answers ``SHUTTING_DOWN``.
        """
        from ..fuzz import faultinject

        with self._queue_cond:
            if self._draining or self._stopped:
                shed_code, depth = protocol.SHUTTING_DOWN, len(self._queue)
            elif (len(self._queue) >= self.high_water
                    or faultinject.claim("server.queue-overflow")
                    is not None):
                shed_code, depth = protocol.BUSY, len(self._queue)
            else:
                self._queue.append(job)
                depth = len(self._queue)
                self._queue_cond.notify()
                shed_code = None
        if shed_code is None:
            self.stats.count(SOURCE, "accepted")
            self.stats.gauge(SOURCE, "queue-depth", depth)
            self.degrade.note_admit(depth)
            return True
        self.stats.count(SOURCE, "shed")
        if shed_code == protocol.BUSY:
            hint = int(100 * max(1, depth))
            job.respond(protocol.error_response(
                job.id, shed_code,
                f"admission queue at high water ({depth} queued)",
                retry_after_ms=min(hint, 2_000)))
        else:
            job.respond(protocol.error_response(
                job.id, shed_code, "daemon is draining; no new work"))
        return False

    # -- dispatch -----------------------------------------------------------

    def _pop(self) -> Optional[Job]:
        with self._queue_cond:
            while not self._queue and not self._stopped:
                self._queue_cond.wait(timeout=0.2)
            if self._queue:
                job = self._queue.popleft()
                self.stats.gauge(SOURCE, "queue-depth", len(self._queue))
                return job
            return None

    def _dispatch_loop(self, worker: WorkerHandle) -> None:
        while True:
            job = self._pop()
            if job is None:
                return
            with self._idle_cond:
                self._in_flight += 1
            try:
                self._run_job(worker, job)
            except Exception as error:  # supervisor must never die
                try:
                    job.respond(protocol.error_response(
                        job.id, protocol.INTERNAL,
                        f"dispatch failed: {type(error).__name__}: "
                        f"{error}"))
                except Exception:
                    pass
                self.stats.count(SOURCE, "failed")
            finally:
                with self._idle_cond:
                    self._in_flight -= 1
                    self._idle_cond.notify_all()
                self.degrade.note_complete(self.depth())

    def _backoff(self, attempt: int, job: Job) -> float:
        """Capped exponential backoff with deterministic jitter."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        rng = random.Random(hash((str(job.id), attempt)) & 0xFFFFFFFF)
        return base * (0.5 + rng.random() / 2.0)

    def _run_job(self, worker: WorkerHandle, job: Job) -> None:
        from ..fuzz import faultinject

        attempt = 0
        while True:
            remaining = job.remaining()
            if remaining <= 0:
                self.stats.count(SOURCE, "timed-out")
                job.respond(protocol.error_response(
                    job.id, protocol.TIMEOUT,
                    f"deadline expired after "
                    f"{time.monotonic() - job.enqueued:.2f}s in queue"))
                return
            payload = dict(job.payload)
            payload["op"] = job.op
            payload["deadline_remaining"] = remaining
            if job.op == "compile" and not job.internal:
                requested = payload.get("level", 2)
                payload["requested_level"] = requested
                shifted = max(0, requested - self.degrade.shift)
                if shifted < requested:
                    self.stats.count(SOURCE, "degraded-requests")
                payload["level"] = shifted
            inject = {}
            plan = faultinject.claim("server.worker-crash")
            if plan is not None:
                inject["crash"] = plan.seed
            plan = faultinject.claim("server.request-timeout")
            if plan is not None:
                inject["sleep"] = remaining + 0.5
            if inject:
                payload["inject"] = inject
            crashed = False
            try:
                worker.send(payload)
                if worker.poll(job.remaining()):
                    response = worker.recv()
                else:
                    # Executing past the deadline: the watchdog kills
                    # the worker — crash-only, so recovery is the same
                    # restart as for a real crash.
                    worker.restart(kill=True)
                    self.stats.count(SOURCE, "worker-restarts")
                    self.stats.count(SOURCE, "timed-out")
                    job.respond(protocol.error_response(
                        job.id, protocol.TIMEOUT,
                        f"deadline expired while executing "
                        f"(op {job.op})"))
                    return
            except (EOFError, BrokenPipeError, OSError):
                crashed = True
            if crashed:
                worker.restart()
                self.stats.count(SOURCE, "worker-crashes")
                self.stats.count(SOURCE, "worker-restarts")
                backoff = self._backoff(attempt, job)
                if (attempt < self.server_retries
                        and job.remaining() > backoff):
                    attempt += 1
                    self.stats.count(SOURCE, "retried")
                    time.sleep(backoff)
                    continue
                job.respond(protocol.error_response(
                    job.id, protocol.WORKER_CRASH,
                    f"worker died executing op {job.op}; "
                    f"{attempt} retry(ies) spent"))
                return
            # A response came back; fold what the worker counted since
            # its last one into ours.
            self.stats.merge(response.pop("stats"))
            if response.get("ok"):
                self.stats.count(SOURCE, "completed")
                job.respond(protocol.ok_response(job.id, response["result"]))
            else:
                error = response.get("error") or {}
                self.stats.count(SOURCE, "failed")
                job.respond(protocol.error_response(
                    job.id, error.get("code", protocol.INTERNAL),
                    error.get("message", "request failed")))
            return

    # -- lifecycle ----------------------------------------------------------

    def start_drain(self) -> None:
        with self._queue_cond:
            self._draining = True

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if not self.busy():
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            with self._idle_cond:
                self._idle_cond.wait(timeout=0.1)

    def stop(self, drain_timeout: float = 30.0) -> bool:
        """Drain, then stop dispatchers and workers.  True if drained."""
        self.start_drain()
        drained = self.wait_idle(drain_timeout)
        with self._queue_cond:
            self._stopped = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._queue_cond.notify_all()
        for job in leftovers:  # only on a timed-out drain
            try:
                job.respond(protocol.error_response(
                    job.id, protocol.SHUTTING_DOWN,
                    "daemon stopped before this request ran"))
            except Exception:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        for worker in self.workers:
            worker.stop()
        return drained

    @property
    def worker_restarts(self) -> int:
        return sum(worker.restarts for worker in self.workers)
