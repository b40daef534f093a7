"""Tests for lc-serverd, the crash-only compilation service
(docs/SERVING.md).

The robustness contract under test:

* the daemon never dies on wire garbage — malformed, truncated and
  oversized frames cost one connection each, nothing more;
* N concurrent clients get byte-for-byte the artifacts the batch
  driver produces;
* a worker crash is isolated to one request, and the supervisor's
  restart (plus one retry) usually hides even that;
* deadlines produce structured ``TIMEOUT`` responses, not hangs;
* a full admission queue sheds with structured ``BUSY``; sustained
  overload degrades the optimization level instead of correctness;
* SIGTERM drains: in-flight requests complete, then the process exits.
"""

from __future__ import annotations

import base64
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.bitcode import write_bytecode
from repro.driver import compile_and_link
from repro.serve import (
    ServeClient, ServeRequestError, Server, ServerConfig,
)
from repro.serve import protocol
from repro.serve.protocol import FrameStream, ServeError, encode_frame

PROGRAMS = [
    f"int f{i}(int x) {{ return x * {i + 2} + {i}; }}\n"
    f"int main() {{ return f{i}(5) + {i}; }}"
    for i in range(5)
]


@pytest.fixture
def server(tmp_path):
    """A small daemon on a Unix socket; stopped (drained) on teardown."""
    config = ServerConfig(socket_path=str(tmp_path / "serve.sock"),
                          workers=2, queue_depth=8,
                          cache_dir=str(tmp_path / "cache"),
                          idle_reopt=False, drain_timeout=20.0)
    instance = Server(config)
    yield instance
    instance.stop()


def make_client(server, **kwargs):
    kwargs.setdefault("backoff_base", 0.01)
    return ServeClient(server.address, **kwargs)


class TestFraming:
    """Unit-level protocol hardening over a socketpair."""

    def _pair(self):
        left, right = socket.socketpair()
        return left, FrameStream(right)

    def test_roundtrip(self):
        left, stream = self._pair()
        left.sendall(encode_frame({"op": "ping", "id": 7}))
        assert stream.read_frame() == {"op": "ping", "id": 7}
        left.close()
        assert stream.read_frame() is None  # clean EOF between frames

    def test_bad_magic_carries_offset(self):
        left, stream = self._pair()
        left.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\0" * 16)
        with pytest.raises(ServeError) as info:
            stream.read_frame()
        assert info.value.offset == 0
        assert "magic" in str(info.value)

    def test_oversized_length_rejected_from_header(self):
        left, stream = self._pair()
        huge = protocol.MAX_FRAME_BYTES + 1
        left.sendall(protocol.MAGIC + struct.pack(">I", huge))
        with pytest.raises(ServeError) as info:
            stream.read_frame()
        assert "cap" in str(info.value)
        assert info.value.offset == len(protocol.MAGIC)

    def test_undersized_length_rejected(self):
        left, stream = self._pair()
        left.sendall(protocol.MAGIC + struct.pack(">I", 1) + b"x")
        with pytest.raises(ServeError) as info:
            stream.read_frame()
        assert "minimum" in str(info.value)

    def test_truncated_payload(self):
        left, stream = self._pair()
        left.sendall(protocol.MAGIC + struct.pack(">I", 100) + b'{"op"')
        left.close()
        with pytest.raises(ServeError) as info:
            stream.read_frame()
        assert "truncated" in str(info.value)

    def test_non_utf8_payload_offset(self):
        left, stream = self._pair()
        payload = b'{"a"\xff: 1}'
        left.sendall(protocol.MAGIC + struct.pack(">I", len(payload))
                     + payload)
        with pytest.raises(ServeError) as info:
            stream.read_frame()
        # Offset is absolute: header consumed + position of the bad byte.
        assert info.value.offset == protocol.HEADER_BYTES + 4

    def test_non_json_payload(self):
        left, stream = self._pair()
        payload = b"not json!!"
        left.sendall(protocol.MAGIC + struct.pack(">I", len(payload))
                     + payload)
        with pytest.raises(ServeError):
            stream.read_frame()

    def test_seeded_garbage_never_escapes_serve_error(self):
        """Whatever bytes arrive, the reader raises ServeError or
        returns a value — never an unhandled exception type."""
        for seed in range(25):
            rng = random.Random(seed)
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 200)))
            left, stream = self._pair()
            left.sendall(blob)
            left.close()
            try:
                while stream.read_frame() is not None:
                    pass
            except ServeError:
                pass
            finally:
                stream._sock.close()


class TestDaemonSurvivesGarbage:
    def test_garbage_connections_do_not_kill_the_daemon(self, server):
        """Seeded malformed / truncated / oversized frames, then prove
        the daemon still compiles fine."""
        for seed in range(8):
            rng = random.Random(1000 + seed)
            with socket.socket(socket.AF_UNIX,
                               socket.SOCK_STREAM) as raw:
                raw.connect(server.address)
                raw.sendall(bytes(rng.randrange(256)
                                  for _ in range(rng.randrange(1, 300))))
        # Declared-oversized frame: rejected from the header alone.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.connect(server.address)
            raw.sendall(protocol.MAGIC
                        + struct.pack(">I", protocol.MAX_FRAME_BYTES + 9))
            raw.settimeout(5.0)
            reply = raw.recv(65536)  # best-effort structured goodbye
            assert reply == b"" or protocol.MAGIC in reply
        # Truncated frame: half a header, then hang up.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.connect(server.address)
            raw.sendall(protocol.MAGIC[:2])
        with make_client(server) as client:
            result = client.compile([PROGRAMS[0]])
            assert result["level"] == 2
        # The reader threads count errors asynchronously; give them a
        # moment, but insist they all land.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if server.statistics()["serverd.protocol-errors"] >= 9:
                break
            time.sleep(0.05)
        assert server.statistics()["serverd.protocol-errors"] >= 9

    def test_bad_request_is_refused_not_fatal(self, server):
        with make_client(server) as client:
            with pytest.raises(ServeRequestError) as info:
                client.request("compile", sources=[])  # empty: invalid
            assert info.value.code == protocol.BAD_REQUEST
            with pytest.raises(ServeRequestError) as info:
                client.request("frobnicate")
            assert info.value.code == protocol.BAD_REQUEST
            # Same connection still serves real work.
            assert client.ping()["pong"] is True


class TestParallelByteIdentity:
    def test_parallel_clients_match_batch_driver(self, server):
        """N concurrent clients; every artifact byte-identical to what
        the batch driver produces for the same source."""
        references = {
            source: write_bytecode(
                compile_and_link([source], "program", 2),
                strip_names=False)
            for source in PROGRAMS
        }
        results: dict[int, bytes] = {}
        errors: list[BaseException] = []

        def one_client(index: int) -> None:
            try:
                with make_client(server) as client:
                    for source in (PROGRAMS[index],
                                   PROGRAMS[-1 - index]):
                        got = client.compile([source])
                        assert got["bytecode"] == references[source]
                        assert got["clean"] is True
                    results[index] = client.compile(
                        [PROGRAMS[index]])["bytecode"]
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(len(PROGRAMS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index, data in results.items():
            assert data == references[PROGRAMS[index]]
        stats = server.statistics()
        assert stats["serverd.completed"] >= 3 * len(PROGRAMS)
        assert stats["serverd.worker-crashes"] == 0


class TestWorkerCrashIsolation:
    def test_crash_is_retried_invisibly(self, server):
        from repro.fuzz import faultinject

        faultinject.arm("server.worker-crash", 3)
        try:
            with make_client(server) as client:
                result = client.compile([PROGRAMS[1]])
        finally:
            faultinject.disarm()
        reference = write_bytecode(
            compile_and_link([PROGRAMS[1]], "program", 2),
            strip_names=False)
        assert result["bytecode"] == reference
        stats = server.statistics()
        assert stats["serverd.worker-crashes"] == 1
        assert stats["serverd.worker-restarts"] >= 1
        assert stats["serverd.retried"] == 1

    def test_crash_without_retries_is_structured_and_isolated(
            self, tmp_path):
        from repro.fuzz import faultinject

        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, queue_depth=4,
                              server_retries=0, idle_reopt=False)
        server = Server(config)
        try:
            faultinject.arm("server.worker-crash", 5)
            try:
                with make_client(server, retry_budget=0) as client:
                    with pytest.raises(ServeRequestError) as info:
                        client.compile([PROGRAMS[2]])
                    assert info.value.code == protocol.WORKER_CRASH
                    # The crash cost that one request; the next one
                    # meets a freshly restarted worker.
                    result = client.compile([PROGRAMS[2]])
                    assert result["clean"] is True
            finally:
                faultinject.disarm()
            assert server.statistics()["serverd.worker-restarts"] >= 1
        finally:
            server.stop()


class TestDeadlines:
    def test_executing_past_deadline_times_out_structured(self, server):
        """A stalled worker is killed by the watchdog; the client gets
        TIMEOUT, not a hang."""
        with make_client(server, retry_budget=0) as client:
            started = time.monotonic()
            with pytest.raises(ServeRequestError) as info:
                client.request("sleep", deadline_ms=400, ms=5_000)
            assert info.value.code == protocol.TIMEOUT
            assert time.monotonic() - started < 5.0
            # The daemon took the worker's death in stride.
            assert client.ping()["pong"] is True
        stats = server.statistics()
        assert stats["serverd.timed-out"] >= 1
        assert stats["serverd.worker-restarts"] >= 1

    def test_queued_past_deadline_never_touches_a_worker(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, queue_depth=8,
                              idle_reopt=False)
        server = Server(config)
        try:
            blocker = make_client(server)
            waiter = make_client(server, retry_budget=0)
            hold = threading.Thread(
                target=lambda: blocker.request("sleep", ms=1_200))
            hold.start()
            time.sleep(0.3)  # the sleep is now executing
            with pytest.raises(ServeRequestError) as info:
                waiter.request("sleep", deadline_ms=200, ms=0)
            assert info.value.code == protocol.TIMEOUT
            assert "queue" in info.value.message
            hold.join()
            blocker.close()
            waiter.close()
        finally:
            server.stop()


class TestWorkerDeadline:
    def test_deadline_already_passed_still_answers(self, tmp_path):
        """The request's deadline caps every pass's budget.  With
        nothing left a pass gets the watchdog's floor, not a disarmed
        timer and not an alarm that outlives the request: the worker
        sheds what it must and answers, and is left with no timer."""
        from repro.bitcode import read_bytecode
        from repro.benchsuite import load_source
        from repro.core import verify_module
        from repro.driver import BytecodeCache
        from repro.serve.workers import _execute

        cache = BytecodeCache(str(tmp_path))
        job = {"op": "compile", "sources": [load_source("parser")],
               "name": "parser", "level": 2, "deadline_remaining": -5.0}
        response = _execute(job, cache, cache.stats)
        assert response["ok"], response
        result = response["result"]
        verify_module(read_bytecode(base64.b64decode(result["bytecode"])))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        # What a pressed build shed is not what the key stands for.
        stored = cache.statistics()["program-stores"]
        assert stored == (1 if result["clean"] else 0)

    def test_retried_link_is_not_a_clean_build(self, tmp_path):
        """`clean` is the driver's predicate, not a second one: a build
        whose link had to be retried is answered, not stored, and says
        so."""
        from repro.driver import BytecodeCache
        from repro.fuzz import injected
        from repro.serve.workers import _execute

        cache = BytecodeCache(str(tmp_path))
        job = {"op": "compile", "sources": [PROGRAMS[0]], "name": "program",
               "level": 2}
        with injected("linker.symbol-clash", 1):
            response = _execute(job, cache, cache.stats)
        assert response["ok"], response
        result = response["result"]
        assert result["stats"]["link.retries"] == 1
        assert cache.statistics()["program-stores"] == 0
        assert result["clean"] is False


class TestWorkerReoptimize:
    def test_reoptimize_ships_clean_code_and_measures_it(self):
        """The `reoptimize` op answers with the bytecode it optimized,
        carrying no profiling call, and with runs whose steps are the
        static build's: the execution engine took the profile."""
        from repro.bitcode import read_bytecode
        from repro.benchsuite import load_source
        from repro.driver.pipelines import compile_to_bytecode
        from repro.execution import Interpreter
        from repro.serve.workers import _execute
        from repro.stats import Stats

        source = load_source("mcf")
        static = Interpreter(read_bytecode(
            compile_to_bytecode([source], "mcf", 2)))
        static.run("main", [])
        job = {"op": "reoptimize", "sources": [source], "name": "mcf",
               "runs": [{"function": "main", "args": []}] * 2}
        response = _execute(job, None, Stats())
        assert response["ok"], response
        result = response["result"]
        assert [run["steps"] for run in result["runs"]] == [static.steps] * 2
        shipped = read_bytecode(base64.b64decode(result["bytecode"]))
        assert set(shipped.functions) == set(static.module.functions)
        assert "__profile_count" not in shipped.functions


class TestOverload:
    def test_high_water_sheds_busy_with_hint(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, queue_depth=2, high_water=2,
                              idle_reopt=False)
        server = Server(config)
        try:
            clients = [make_client(server, retry_budget=0)
                       for _ in range(6)]
            outcomes: list[object] = [None] * len(clients)

            def fire(index: int) -> None:
                try:
                    outcomes[index] = clients[index].request(
                        "sleep", ms=600)
                except ServeRequestError as error:
                    outcomes[index] = error

            threads = []
            for index in range(len(clients)):
                thread = threading.Thread(target=fire, args=(index,))
                thread.start()
                threads.append(thread)
                time.sleep(0.05)  # let earlier requests reach the queue
            for thread in threads:
                thread.join()
            for client in clients:
                client.close()
            shed = [o for o in outcomes
                    if isinstance(o, ServeRequestError)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert shed, "expected at least one BUSY shed"
            for error in shed:
                assert error.code == protocol.BUSY
                assert error.retry_after_ms is not None
            assert served, "expected at least one served request"
            stats = server.statistics()
            assert stats["serverd.shed"] == len(shed)
        finally:
            server.stop()

    def test_sustained_pressure_degrades_compile_level(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, queue_depth=16,
                              degrade_water=1, idle_reopt=False)
        server = Server(config)
        try:
            holders = []
            for _ in range(6):  # sustained pressure on the queue
                def hold() -> None:
                    with make_client(server) as sleeper:
                        sleeper.request("sleep", ms=250)
                thread = threading.Thread(target=hold)
                thread.start()
                holders.append(thread)
                time.sleep(0.02)
            with make_client(server) as client:
                result = client.compile([PROGRAMS[3]],
                                        deadline_ms=60_000)
            for thread in holders:
                thread.join()
            assert result["degraded"] is True
            assert result["requested_level"] == 2
            assert result["level"] < 2
            # Degradation shifts level, it does not corrupt: the
            # artifact matches the batch driver at the level used.
            reference = write_bytecode(
                compile_and_link([PROGRAMS[3]], "program",
                                 result["level"]),
                strip_names=False)
            assert result["bytecode"] == reference
            stats = server.statistics()
            assert stats["serverd.degraded"] >= 1
            assert stats["serverd.degraded-requests"] >= 1
        finally:
            server.stop()


class TestObservability:
    def test_stats_expose_cache_and_queue_counters(self, server):
        with make_client(server) as client:
            client.compile([PROGRAMS[4]])
            # Warm per-TU: another name is another program, same TU.
            client.compile([PROGRAMS[4]], "renamed")
            stats = client.stats()
        assert stats["serverd.accepted"] >= 2
        assert stats["serverd.completed"] >= 2
        assert stats["serverd.queue-depth"] == 0
        assert stats["serverd.workers"] == 2
        # Worker cache counters folded into the daemon's own totals.
        assert stats.get("serverd.cache-stores", 0) >= 1
        hits = stats.get("serverd.cache-hits", 0)
        misses = stats.get("serverd.cache-misses", 0)
        assert hits >= 1 and misses >= 1
        # So are the workers' pass counters, under the pass's name.
        assert stats["serverd.rangeopt.absint-transfers"] > 0
        assert "serverd.rangeopt.values-folded" in stats
        # And what the -O skip rule did, declared before any compile.
        assert stats["serverd.optimize.functions-optimized"] > 0
        assert "serverd.optimize.functions-skipped-unchanged" in stats

    def test_repeat_is_a_program_hit_and_the_same_bytes(self, server):
        """A request the daemon has answered before is one cache read:
        no TU is looked up, no pass runs, and the bytes are the ones
        the fresh request got."""
        with make_client(server) as client:
            fresh = client.compile([PROGRAMS[3]])
            before = client.stats()
            repeat = client.compile([PROGRAMS[3]])
            after = client.stats()
        assert repeat["bytecode"] == fresh["bytecode"]
        assert repeat["clean"] is True and repeat["degraded"] is False
        assert after["serverd.program-hits"] \
            == before.get("serverd.program-hits", 0) + 1
        assert before["serverd.rangeopt.absint-transfers"] > 0
        for row in ("serverd.cache-hits", "serverd.cache-misses",
                    "serverd.cache-stores", "serverd.program-misses",
                    "serverd.program-stores",
                    "serverd.rangeopt.absint-transfers"):
            assert after.get(row, 0) == before.get(row, 0), row

    def test_levels_are_merged_not_summed(self, server):
        """Rates and loaded-rule counts are levels: the daemon's totals
        derive the hit rate from the summed raw counts and merge
        ``synth.rules-loaded`` as the one value every compile reports
        (summing per-request deltas once read 133 % and 2340 rules)."""
        from repro.driver import FaultPolicy

        policy = FaultPolicy(reduce_testcases=False)
        compile_and_link([PROGRAMS[0]], policy=policy)
        rules = policy.statistics()["synth.rules-loaded"]
        assert rules > 0
        with make_client(server) as client:
            # Two cold, two warm per TU (a new name is a new program
            # over the same TU), one a whole-program repeat.
            for index, name in ((0, "a"), (1, "a"), (0, "b"), (1, "b"),
                                (0, "a")):
                client.compile([PROGRAMS[index]], name)
            stats = client.stats()
        hits = stats["serverd.cache-hits"]
        misses = stats["serverd.cache-misses"]
        assert hits >= 1 and misses >= 1
        assert 0 <= stats["serverd.cache-hit-rate-pct"] <= 100
        assert stats["serverd.cache-hit-rate-pct"] \
            == 100 * hits // (hits + misses)
        assert stats["serverd.synth.rules-loaded"] == rules
        # Averages of one worker's latencies do not add across workers.
        assert "serverd.cache-lookup-avg-us" not in stats


class TestDrain:
    def test_sigterm_drains_in_flight_requests(self, tmp_path):
        """The CLI daemon, SIGTERMed mid-request, completes the request
        and exits 0 — drained, not dropped."""
        socket_path = str(tmp_path / "drain.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         os.pardir, "src")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serverd",
             "--socket", socket_path, "--workers", "1", "-q"],
            env=env, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 20.0
            while not os.path.exists(socket_path):
                assert time.monotonic() < deadline, "daemon never bound"
                assert daemon.poll() is None, daemon.stderr.read()
                time.sleep(0.05)
            outcome: dict = {}
            client = ServeClient(socket_path)

            def slow_request() -> None:
                outcome["result"] = client.request("sleep", ms=1_500)

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.4)  # the sleep is in flight
            daemon.send_signal(signal.SIGTERM)
            thread.join(timeout=20.0)
            assert not thread.is_alive()
            client.close()
            assert outcome["result"] == {"slept_ms": 1500}
            assert daemon.wait(timeout=20.0) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def test_embedded_stop_refuses_new_work(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, idle_reopt=False)
        server = Server(config)
        address = server.address
        server.stop()
        # After the drain the front door is gone (socket unlinked).
        assert not os.path.exists(address)


class TestIdleReoptimizer:
    def test_degraded_compiles_are_redone_at_idle(self, tmp_path):
        """Paper section 2.4: overload degrades, idle time re-runs the
        degraded compiles at full level, warming the shared cache."""
        # degrade_water=2: pressure needs a real backlog (admissions
        # that land on an already-occupied queue), so the idle-time
        # polling below reads as calm, not as fresh pressure.
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, queue_depth=16,
                              degrade_water=2, idle_reopt=True,
                              idle_delay=0.05,
                              cache_dir=str(tmp_path / "cache"))
        server = Server(config)
        try:
            holders = []
            for _ in range(6):
                def hold() -> None:
                    with make_client(server) as sleeper:
                        sleeper.request("sleep", ms=200)
                thread = threading.Thread(target=hold)
                thread.start()
                holders.append(thread)
                time.sleep(0.02)
            with make_client(server) as client:
                degraded = client.compile([PROGRAMS[0]],
                                          deadline_ms=60_000)
                assert degraded["degraded"] is True
                for thread in holders:
                    thread.join()
                # Calm completions step the shift back down; the idle
                # loop then drains the reopt backlog.
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    for _ in range(4):
                        client.request("sleep", ms=0)
                    stats = client.stats()
                    if stats["serverd.reopt.completed"] >= 1:
                        break
                    time.sleep(0.1)
                stats = client.stats()
            assert stats["serverd.reopt.queued"] >= 1
            assert stats["serverd.reopt.completed"] >= 1
            assert stats["serverd.recovered"] >= 1
        finally:
            server.stop()


class TestClientBudget:
    def test_retry_budget_is_shared_and_finite(self, tmp_path):
        """A client facing a permanently full queue runs out of retry
        budget and surfaces BUSY instead of retrying forever."""
        config = ServerConfig(socket_path=str(tmp_path / "s.sock"),
                              workers=1, queue_depth=1, high_water=1,
                              idle_reopt=False)
        server = Server(config)
        try:
            blocker = make_client(server)
            hold = threading.Thread(
                target=lambda: blocker.request("sleep", ms=1_500))
            hold.start()
            time.sleep(0.2)
            filler = make_client(server, retry_budget=0)
            victim = make_client(server, retry_budget=2,
                                 backoff_base=0.01, backoff_cap=0.05)
            fill = threading.Thread(
                target=lambda: filler.request("sleep", ms=1_500))
            fill.start()
            time.sleep(0.2)  # queue now holds the filler: at high water
            with pytest.raises(ServeRequestError) as info:
                victim.request("sleep", ms=0)
            assert info.value.code == protocol.BUSY
            assert victim.retries_used == 2  # budget spent, then surfaced
            hold.join()
            fill.join()
            for client in (blocker, filler, victim):
                client.close()
        finally:
            server.stop()
