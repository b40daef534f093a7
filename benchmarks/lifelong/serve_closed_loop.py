"""Workload `serve-closed-loop`: a live lc-serverd under two clients.

Set-up boots `python -m repro.tools serverd` (unix socket, two workers,
a fresh cache directory, otherwise defaults) and sends it one priming
lap, in which every one of the 15 single-TU suite programs is compiled
once.  The timed region is a closed loop: two client connections each
send their next `compile` request at -O2 as soon as the previous one
is answered, drawing from one seeded schedule.  The schedule is made of
laps, each a seeded permutation of the 15 programs; in every lap about
a quarter of the programs are *fresh* (the source gets a new unused
function, so its content key misses and a store happens) and the rest
are *repeats*, byte-identical to their last request.  Every seed thus
sends the same population of requests, in another order.

This is the only workload that crosses the wire, the admission queue,
the worker hop and the transactional pass manager, and it uses the
bytecode cache the other way round from `edit-rebuild`: concurrent
multi-process stores beside reads.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time

import common
from common import Samples

CLIENTS = 2
LEVEL = 2
DEADLINE_MS = 120_000
#: Programs executed once the clock has stopped: those short enough
#: (by their -O0 step count in expected.json) to run in about a second.
SHORT_STEPS = 400_000
TRACED_LAPS = 2


class Request:
    def __init__(self, kind: str, name: str, source: str):
        self.kind, self.name, self.source = kind, name, source
        self.start = self.end = 0.0
        self.result = None
        self.error = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def schedule(rng: random.Random, programs: dict):
    """Endless laps of requests; lap 0 primes (everything is fresh)."""
    names = sorted(programs)
    source = {}
    previous: list[str] = []
    lap_number = 0
    while True:
        lap = names[:]
        rng.shuffle(lap)
        # A repeat must not overtake the request it repeats on the
        # other connection, so keep lap boundaries apart.
        while set(lap[:3]) & set(previous[-3:]):
            rng.shuffle(lap)
        for name in lap:
            fresh = lap_number == 0 or (lap_number + names.index(name)) % 4 == 0
            if fresh:
                source[name] = programs[name] + (
                    f"\nint unused_{lap_number}(int x) "
                    f"{{ return x * {rng.randrange(3, 9999)} + "
                    f"{rng.randrange(3, 9999)}; }}\n")
            yield Request("fresh" if fresh else "repeat", name, source[name])
        previous = lap
        lap_number += 1


class Daemon:
    """One lc-serverd subprocess with its socket and cache directory."""

    def __init__(self, directory: str):
        from repro.serve import ServeClient

        os.makedirs(directory)
        self.socket = os.path.join(directory, "d.sock")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serverd",
             "--socket", self.socket, "--workers", "2",
             "--cache-dir", os.path.join(directory, "cache"), "-q"],
            env=dict(os.environ, PYTHONPATH=common.SRC))
        try:
            while not os.path.exists(self.socket):
                if self.process.poll() is not None:
                    raise RuntimeError("lc-serverd died while starting")
                if time.perf_counter() - started > 30.0:
                    raise RuntimeError("lc-serverd never bound its socket")
                time.sleep(0.005)
            self.control = ServeClient(self.socket)
            self.control.ping()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def stop(self) -> None:
        """Drain and wait; the process is gone when this returns."""
        if self.process.poll() is None:
            try:
                self.control.shutdown()
                self.control.close()
            except Exception:               # noqa: BLE001 - then by signal
                self.process.terminate()
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    def drive(self, requests, lap: int, enough, tracer=None) -> list:
        """The closed loop: CLIENTS connections, each sending its next
        request when the last is answered.  `enough(laps)` is asked
        before every lap of `lap` requests, so the loop only ever stops
        on a whole lap and every run sends the same mix of requests.
        Returns the finished requests."""
        from repro.serve import ServeClient
        from repro.serve.client import ServeClientError

        lock = threading.Lock()
        done: list[Request] = []
        taken = 0

        def take():
            nonlocal taken
            with lock:      # generators are not thread-safe
                if taken % lap == 0 and enough(taken // lap):
                    return None
                taken += 1
                return next(requests)

        def send(client, request: Request) -> None:
            request.start = time.perf_counter()
            try:
                request.result = client.compile(
                    [request.source], request.name, level=LEVEL,
                    deadline_ms=DEADLINE_MS)
            except ServeClientError as error:
                request.error = f"{type(error).__name__}: {error}"
            request.end = time.perf_counter()

        def client_loop(index: int) -> None:
            with ServeClient(self.socket, jitter_seed=index) as client:
                while (request := take()) is not None:
                    if tracer is None:
                        send(client, request)
                    else:
                        with tracer.span("serve.request",
                                         f"{request.kind}:{request.name}"):
                            send(client, request)
                    done.append(request)

        threads = [threading.Thread(target=client_loop, args=(index,))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return done


class ServeClosedLoop(common.Workload):
    name = "serve-closed-loop"
    unit = "one compile request at -O2"

    def setup(self) -> None:
        programs = common.load_programs()
        self.programs = {name: units[0] for name, units in programs.items()
                         if len(units) == 1}
        self.expected = common.load_expected()
        self.daemon = Daemon(os.path.join(self.workdir, "daemon"))
        self.requests = schedule(random.Random(self.seed), self.programs)
        self.primed = self.daemon.drive(self.requests, len(self.programs),
                                        lambda laps: laps == 1)

    def close(self) -> None:
        self.daemon.stop()

    def measure(self, seconds: float) -> dict:
        before = self.daemon.control.stats()
        deadline = time.perf_counter() + seconds
        self.done = self.daemon.drive(
            self.requests, len(self.programs),
            lambda laps: time.perf_counter() >= deadline)
        self.stats = self.daemon.control.stats()
        # Counters appear in `stats` with their first increment.
        for key in ("serverd.cache-hits", "serverd.cache-misses"):
            self.stats[key] = self.stats.get(key, 0) - before.get(key, 0)
        # ru_maxrss of waited-for children: the largest of the daemon
        # and its workers, known once they have exited.
        self.daemon.stop()
        wall = (max(r.end for r in self.done)
                - min(r.start for r in self.done))
        answered = [r for r in self.done if r.error is None]
        self.latency = Samples(r.seconds for r in answered)
        return {
            "work_s": self.latency,
            "cold_s": Samples(r.seconds for r in answered
                              if r.kind == "fresh"),
            "warm_s": Samples(r.seconds for r in answered
                              if r.kind == "repeat"),
            "ops_per_s": len(answered) / wall,
            "peak_rss_mb": common.peak_rss_mb(children=True),
        }

    def _expect_responses(self, requests: list) -> dict:
        """Every response ok, clean, at the requested level, and valid
        bytecode; one bytecode per program whatever the unused function
        was.  Returns program -> bytecode."""
        from repro.bitcode import read_bytecode
        from repro.core import verify_module

        verified: dict[bytes, bool] = {}
        by_program: dict[str, bytes] = {}
        for request in requests:
            result = request.result
            what = f"{request.kind} request for {request.name}"
            if result is None:
                self.expect(False, f"{what}: {request.error}")
                continue
            data = result["bytecode"]
            if data not in verified:
                try:
                    verify_module(read_bytecode(data))
                    verified[data] = True
                except Exception:           # noqa: BLE001 - any decode fault
                    verified[data] = False
            self.expect(
                result["clean"] and not result["degraded"]
                and result["level"] == result["requested_level"] == LEVEL
                and verified[data]
                and by_program.setdefault(request.name, data) == data,
                f"{what}: not clean, degraded, undecodable, or another "
                "program than its earlier responses")
        return by_program

    def check(self) -> dict:
        from repro.bitcode import read_bytecode

        by_program = self._expect_responses(self.primed + self.done)
        steps = 0
        for name in sorted(by_program):
            if self.expected[name]["steps_O0"] > SHORT_STEPS:
                continue
            exit_value, output, program_steps, _ = common.execute(
                read_bytecode(by_program[name]))
            steps += program_steps
            self.expect(
                common.matches(self.expected[name], exit_value, output),
                f"{name}: the served program's exit {exit_value} / output "
                f"{output!r} differ from expected.json")
        return {"run_steps": steps,
                "bytecode_bytes": sum(map(len, by_program.values()))}

    # -- the traced run ------------------------------------------------------

    def trace(self, tracer: common.Tracer, untraced: dict) -> dict:
        """The same seed's schedule against a second daemon with every
        request in a span, then the same requests in-process the way a
        worker runs them: the difference is queue wait, process hop and
        JSON/base64."""
        lap = len(self.programs)
        daemon = Daemon(os.path.join(self.workdir, "traced"))
        try:
            for _ in range(50):
                with tracer.span("serve.ping"):
                    daemon.control.ping()
            requests = schedule(random.Random(self.seed), self.programs)
            primed = daemon.drive(requests, lap, lambda laps: laps == 1)
            traced = daemon.drive(requests, lap,
                                  lambda laps: laps == TRACED_LAPS, tracer)
        finally:
            daemon.stop()
        self._expect_responses(primed + traced)
        self._in_process(tracer, primed + traced)
        inproc = tracer.durations("serve.inproc")[len(primed):]

        p50_ms = untraced["work_s"].median * 1e3
        inproc_p50_ms = Samples(inproc).median * 1e3
        stats = self.stats
        lookups = stats["serverd.cache-hits"] + stats["serverd.cache-misses"]
        return {
            "serve.p50_ms": p50_ms,
            # Nearest rank; with ~60 samples about six lie beyond it.
            "serve.p90_ms": sorted(self.latency.values)[
                int(0.9 * len(self.latency.values))] * 1e3,
            "serve.fresh_p50_ms": untraced["cold_s"].median * 1e3,
            "serve.repeat_p50_ms": untraced["warm_s"].median * 1e3,
            "serve.ping_p50_ms": Samples(
                tracer.durations("serve.ping")).median * 1e3,
            "serve.inproc_p50_ms": inproc_p50_ms,
            "serve.overhead_ms": p50_ms - inproc_p50_ms,
            "serve.boot_s": self.daemon.boot_s,
            # From raw counts: the daemon's own rate gauges are summed
            # over requests by its `stats` op and mean nothing.
            "serve.cache_hit_ratio": stats["serverd.cache-hits"] / lookups,
            "serve.shed": stats["serverd.shed"],
            "serve.retried": stats["serverd.retried"],
            "serve.worker_restarts": stats["serverd.worker-restarts"],
            "serve.degraded_requests": stats["serverd.degraded-requests"],
            "trace.overhead_ratio": (
                Samples(r.seconds for r in traced).median
                / untraced["work_s"].median),
        }

    def _in_process(self, tracer, requests: list) -> None:
        """What `repro.serve.workers._do_compile` does, in this process
        against a cache directory of its own, one span per request."""
        from repro.bitcode import write_bytecode
        from repro.driver import BytecodeCache, FaultPolicy, compile_and_link

        cache = BytecodeCache(os.path.join(self.workdir, "inproc-cache"))
        for request in requests:
            with tracer.span("serve.inproc", f"{request.kind}:{request.name}"):
                module = compile_and_link(
                    [request.source], request.name, level=LEVEL, lto=True,
                    cache=cache, policy=FaultPolicy(reduce_testcases=False))
                data = write_bytecode(module, strip_names=False)
            self.expect(request.result is None
                        or data == request.result["bytecode"],
                        f"{request.name}: the daemon's bytecode differs from "
                        "an in-process build of the same request")
