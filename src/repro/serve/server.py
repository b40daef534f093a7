"""lc-serverd: the long-lived, crash-only compilation daemon.

The paper's lifelong thesis (section 2.4, Figure 4) has the compiler
*staying resident* with the programs it serves; this module is that
residency.  A :class:`Server` listens on a Unix-domain (or TCP)
socket, speaks the length-framed JSON protocol of
:mod:`repro.serve.protocol`, and runs every piece of real work —
compile, lint, reoptimize, fuzz-triage — on the supervised worker
pool of :mod:`repro.serve.workers` under the admission, deadline,
retry, and degradation policies of :mod:`repro.serve.scheduler`.

Robustness invariants (docs/SERVING.md, enforced by
tests/test_serverd.py and the CI serve gate):

* garbage on a connection kills *that connection*, never the daemon;
* a worker crash kills *that request* (and usually not even that —
  the supervisor retries it once on a fresh worker);
* a request past its deadline gets a structured ``TIMEOUT``;
* a full queue answers ``BUSY`` immediately instead of queueing
  without bound; sustained overload sheds optimization level before
  it sheds correctness;
* shutdown drains — in-flight and queued requests complete, new ones
  are refused with ``SHUTTING_DOWN`` — and never strands a client.

The **idle-time reoptimizer** (paper section 2.4) runs in the queue's
cold time: compile requests that were degraded under load are re-run
at their requested level when the daemon goes idle, warming the shared
bytecode cache so the next identical request gets the full-strength
artifact for free.  Overload pauses it; calm resumes it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..driver.cache import BytecodeCache, hit_rate_pct
from ..driver.passmanager import FaultPolicy
from ..driver.pipelines import OPTIMIZE_COUNTERS, OPTIMIZE_SOURCE
from ..stats import Stats
from . import protocol
from .scheduler import SOURCE, Job, Scheduler


@dataclass
class ServerConfig:
    """Everything an operator can set about one daemon."""

    socket_path: Optional[str] = None     # Unix-domain front door
    host: Optional[str] = None            # or TCP (host, port)
    port: int = 0
    workers: int = 2
    queue_depth: int = 32
    high_water: Optional[int] = None      # default: queue_depth
    degrade_water: Optional[int] = None   # default: queue_depth // 2
    server_retries: int = 1               # crash retries per request
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    idle_reopt: bool = True
    idle_delay: float = 0.25              # seconds of calm before reopt
    drain_timeout: float = 30.0

    def worker_config(self) -> dict:
        return {"cache_dir": self.cache_dir,
                "cache_max_bytes": self.cache_max_bytes}


class Server:
    """One daemon instance; embeddable (tests) or CLI-run (lc-serverd)."""

    name = SOURCE  # the -stats source label

    def __init__(self, config: ServerConfig):
        self.config = config
        #: The supervisor's own counters, plus everything its workers
        #: ship back (their cache's and fault policies' rows).
        self.stats = Stats()
        self.stats.declare(
            SOURCE, "accepted", "completed", "failed", "shed", "timed-out",
            "retried", "degraded", "degraded-requests", "recovered",
            "worker-crashes", "worker-restarts", "protocol-errors",
            "connections", "reopt.queued", "reopt.completed")
        self.stats.declare(OPTIMIZE_SOURCE, *OPTIMIZE_COUNTERS)
        self.scheduler = Scheduler(
            self.stats, config.worker_config(),
            workers=config.workers, queue_depth=config.queue_depth,
            high_water=config.high_water,
            degrade_water=config.degrade_water,
            server_retries=config.server_retries)
        self._listener = self._bind()
        self._shutdown = threading.Event()
        self._drained = threading.Event()
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="lc-serverd-accept", daemon=True)
        self._accept_thread.start()
        #: Degraded compiles awaiting idle-time reoptimization, keyed
        #: by content so one hot source is only re-done once.
        self._reopt_backlog: OrderedDict[str, dict] = OrderedDict()
        self._reopt_lock = threading.Lock()
        self._reopt_thread: Optional[threading.Thread] = None
        if config.idle_reopt:
            self._reopt_thread = threading.Thread(
                target=self._reopt_loop, name="lc-serverd-reopt",
                daemon=True)
            self._reopt_thread.start()

    # -- listening ----------------------------------------------------------

    def _bind(self) -> socket.socket:
        if self.config.socket_path:
            path = self.config.socket_path
            try:
                os.unlink(path)
            except OSError:
                pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host or "127.0.0.1",
                           self.config.port))
        listener.listen(64)
        return listener

    @property
    def address(self):
        """Where clients connect: a path, or a ``(host, port)`` pair."""
        if self.config.socket_path:
            return self.config.socket_path
        return self._listener.getsockname()

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: we are draining
            self.stats.count(SOURCE, "connections")
            threading.Thread(target=self._serve_connection, args=(conn,),
                             name="lc-serverd-conn", daemon=True).start()

    # -- per-connection service ---------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = protocol.FrameStream(conn, self.config.max_frame_bytes)
        write_lock = threading.Lock()

        def respond(frame: dict) -> None:
            try:
                with write_lock:
                    stream.write_frame(frame)
            except (OSError, protocol.ServeError):
                pass  # client went away; its loss, not our problem

        try:
            while True:
                try:
                    obj = stream.read_frame()
                except protocol.ServeError as error:
                    # Garbage input: one structured goodbye (best
                    # effort), then this connection is done.  The
                    # daemon itself never flinches.
                    self.stats.count(SOURCE, "protocol-errors")
                    respond(protocol.error_response(
                        None, protocol.PROTOCOL, str(error)))
                    return
                if obj is None:
                    return  # clean EOF between frames
                self._handle_request(obj, respond)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, obj, respond) -> None:
        try:
            op, payload = protocol.validate_request(obj)
        except protocol.ServeError as error:
            self.stats.count(SOURCE, "failed")
            respond(protocol.error_response(
                obj.get("id") if isinstance(obj, dict) else None,
                error.code, str(error)))
            return
        request_id = obj.get("id")
        deadline_ms = obj.get("deadline_ms",
                              protocol.DEFAULT_DEADLINE_MS[op])
        deadline = time.monotonic() + deadline_ms / 1000.0
        if op in protocol.SUPERVISOR_OPS:
            self._handle_supervisor_op(op, request_id, respond)
            return
        job = Job(id=request_id, op=op, payload=payload,
                  respond=respond, deadline=deadline,
                  retries_left=self.config.server_retries)
        if self.scheduler.submit(job) and op == "compile":
            self._note_compile(payload)

    def _handle_supervisor_op(self, op: str, request_id, respond) -> None:
        """ping / stats / shutdown never queue and never block."""
        if op == "ping":
            respond(protocol.ok_response(request_id, {
                "pong": True, "pid": os.getpid(),
                "draining": self._shutdown.is_set()}))
        elif op == "stats":
            respond(protocol.ok_response(request_id, self.statistics()))
        else:  # shutdown: ack first, then drain without this thread
            respond(protocol.ok_response(request_id, {"draining": True}))
            threading.Thread(target=self.stop,
                             name="lc-serverd-shutdown",
                             daemon=True).start()

    # -- idle-time reoptimization -------------------------------------------

    def _note_compile(self, payload: dict) -> None:
        """Remember a compile so idle time can redo it at full level."""
        if self.scheduler.degrade.shift == 0:
            return  # not degraded: the request already runs full-fat
        key = "\0".join(payload["sources"]) + f"\0{payload.get('level', 2)}"
        with self._reopt_lock:
            self._reopt_backlog[key] = dict(payload)
            self._reopt_backlog.move_to_end(key)
            while len(self._reopt_backlog) > 32:
                self._reopt_backlog.popitem(last=False)
        self.stats.count(SOURCE, "reopt.queued")

    def _reopt_loop(self) -> None:
        """Work the queue's cold time; pause under load (section 2.4)."""
        while not self._shutdown.wait(self.config.idle_delay):
            if self.scheduler.busy() or self.scheduler.degrade.shift > 0:
                continue  # overload pauses the reoptimizer
            with self._reopt_lock:
                if not self._reopt_backlog:
                    continue
                _, payload = self._reopt_backlog.popitem(last=False)

            def done(frame: dict, _payload=payload) -> None:
                if frame.get("ok"):
                    self.stats.count(SOURCE, "reopt.completed")

            job = Job(id=None, op="compile", payload=payload,
                      respond=done,
                      deadline=time.monotonic() + 120.0,
                      internal=True)
            self.scheduler.submit(job)

    # -- observability -------------------------------------------------------

    def statistics(self) -> dict:
        """Every row of the record — the supervisor's, the cache's and
        the fault policy's as ``serverd.<name>``, a pass's counters (the
        workers ship what their pass managers folded in) as
        ``serverd.<pass>.<name>`` — plus the cache hit rate derived from
        the workers' summed raw counts (workers ship no rates: rates do
        not add)."""
        views = self.stats.views()
        if BytecodeCache.name in views:
            cache = views[BytecodeCache.name]
            cache["cache-hit-rate-pct"] = hit_rate_pct(cache)
        unqualified = (SOURCE, BytecodeCache.name, FaultPolicy.name)
        stats = {(f"{SOURCE}.{name}" if source in unqualified
                  else f"{SOURCE}.{source}.{name}"): value
                 for source, view in views.items()
                 for name, value in view.items()}
        stats["serverd.queue-depth"] = self.scheduler.depth()
        stats["serverd.degrade-level"] = self.scheduler.degrade.shift
        stats["serverd.workers"] = len(self.scheduler.workers)
        stats["serverd.worker-restarts"] = max(
            stats.get("serverd.worker-restarts", 0),
            self.scheduler.worker_restarts)
        return stats

    # -- lifecycle ----------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has shut down (CLI main loop)."""
        return self._drained.wait(timeout)

    def request_shutdown(self) -> None:
        """Signal-safe: ask for a drain without doing it inline."""
        threading.Thread(target=self.stop, name="lc-serverd-shutdown",
                         daemon=True).start()

    def stop(self) -> bool:
        """Drain and shut down: stop accepting, finish everything
        admitted, then stop workers.  Idempotent.  True if fully
        drained within the timeout."""
        with self._stop_lock:
            if self._stopped:
                self._drained.wait()
                return True
            self._stopped = True
        self._shutdown.set()
        try:
            self._listener.close()
        except OSError:
            pass
        drained = self.scheduler.stop(self.config.drain_timeout)
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        if self._reopt_thread is not None:
            self._reopt_thread.join(timeout=2.0)
        self._drained.set()
        return drained
