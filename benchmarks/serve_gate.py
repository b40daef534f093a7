"""CI gate for lc-serverd: crash-only serving under fire.

Boots a real daemon subprocess with one armed worker-crash fault
(``--fault-inject server.worker-crash:SEED``), then drives it the way
a bad day would:

1. **Concurrent correctness** — N clients compile distinct programs in
   parallel; the armed fault kills a worker mid-request along the way.
   Every response must be byte-identical to what the batch driver
   produces at the level the daemon actually used.  One compile is
   then sent again: the repeat must be answered from the cache's
   whole-program entry (``serverd.program-hits``) with the same bytes.
2. **Overload burst** — more concurrent requests than the (small)
   admission queue can hold.  Every outcome must be either a correct
   result or a structured ``BUSY`` with a ``retry_after_ms`` hint;
   at least one request must actually be shed, and nothing may hang.
3. **Accounting** — ``serverd.worker-restarts >= 1`` (the crash was
   real and recovered from), sheds counted, zero protocol errors from
   well-behaved clients.
4. **Drain** — SIGTERM; the daemon must exit 0 within the timeout.

The daemon process dying at any point before the drain fails the gate.

Usage:  PYTHONPATH=src python benchmarks/serve_gate.py
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.bitcode import write_bytecode
from repro.driver import compile_and_link
from repro.serve import ServeClient, ServeRequestError
from repro.serve import protocol

PROGRAMS = [
    f"int f{i}(int x) {{ return x * {i + 2} + {i}; }}\n"
    f"int g{i}(int x) {{ return f{i}(x) - {i + 1}; }}\n"
    f"int main() {{ return g{i}(6) + f{i}({i}); }}"
    for i in range(6)
]


def fail(message: str) -> None:
    print(f"serve-gate: FAIL — {message}", file=sys.stderr)
    sys.exit(1)


def start_daemon(socket_path: str, cache_dir: str, crash_seed: int):
    env = dict(os.environ)
    root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(root)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.tools", "serverd",
         "--socket", socket_path, "--workers", "2",
         "--queue-depth", "4", "--high-water", "4",
         "--degrade-water", "2", "--cache-dir", cache_dir,
         "--fault-inject", f"server.worker-crash:{crash_seed}", "-q"],
        env=env, stderr=subprocess.PIPE)
    deadline = time.monotonic() + 30.0
    while not os.path.exists(socket_path):
        if daemon.poll() is not None:
            fail("daemon died during startup: "
                 + daemon.stderr.read().decode(errors="replace"))
        if time.monotonic() > deadline:
            daemon.kill()
            fail("daemon never bound its socket")
        time.sleep(0.05)
    return daemon


def assert_alive(daemon) -> None:
    if daemon.poll() is not None:
        fail(f"daemon died mid-gate (exit {daemon.returncode}): "
             + daemon.stderr.read().decode(errors="replace"))


def phase_concurrent_compiles(socket_path: str, daemon) -> None:
    """N parallel clients; one of them meets the injected crash."""
    references = {
        (source, level): write_bytecode(
            compile_and_link([source], "program", level),
            strip_names=False)
        for source in PROGRAMS for level in (0, 1, 2)
    }
    failures: list[str] = []

    def one_client(index: int) -> None:
        try:
            with ServeClient(socket_path, retry_budget=8,
                             backoff_base=0.02,
                             jitter_seed=index) as client:
                for source in (PROGRAMS[index],
                               PROGRAMS[-1 - index]):
                    result = client.compile([source],
                                            deadline_ms=120_000)
                    if not result["clean"]:
                        failures.append(
                            f"client {index}: compile was not clean")
                        return
                    want = references[(source, result["level"])]
                    if result["bytecode"] != want:
                        failures.append(
                            f"client {index}: bytecode differs from the "
                            f"batch driver at -O{result['level']}")
        except Exception as exc:  # noqa: BLE001 - gate reports, not raises
            failures.append(f"client {index}: {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(len(PROGRAMS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
        if thread.is_alive():
            fail("a client hung: requests must resolve, not dangle")
    assert_alive(daemon)
    if failures:
        fail("; ".join(failures))
    hits = repeat_is_a_program_hit(socket_path, references)
    print(f"serve-gate: phase 1 ok — {2 * len(PROGRAMS)} concurrent "
          "compiles byte-identical (one worker crash absorbed), a repeat "
          f"answered from its program entry (program-hits={hits})")


def repeat_is_a_program_hit(socket_path: str, references: dict) -> int:
    """The same compile twice in a row, at one level, is the same bytes
    and at least one whole-program cache hit."""
    with ServeClient(socket_path, retry_budget=8,
                     backoff_base=0.02) as client:
        first = client.compile([PROGRAMS[0]], deadline_ms=120_000)
        again = client.compile([PROGRAMS[0]], deadline_ms=120_000)
        # The calm after phase 1's backlog may step the degraded level
        # back up between the two; levels only rise, so this ends.
        while again["level"] != first["level"]:
            first = again
            again = client.compile([PROGRAMS[0]], deadline_ms=120_000)
        stats = client.stats()
    if not again["bytecode"] == first["bytecode"] \
            == references[(PROGRAMS[0], first["level"])]:
        fail("a repeated compile returned other bytes than the first")
    hits = stats.get("serverd.program-hits", 0)
    if hits < 1:
        fail("serverd.program-hits < 1: a repeated request was compiled "
             "again instead of read from its program entry")
    return hits


def phase_overload_burst(socket_path: str, daemon) -> int:
    """Flood past high water; everything resolves as OK or clean BUSY."""
    outcomes: list[object] = [None] * 14

    def fire(index: int) -> None:
        try:
            with ServeClient(socket_path, retry_budget=0) as client:
                outcomes[index] = client.request("sleep", ms=500)
        except Exception as exc:  # noqa: BLE001
            outcomes[index] = exc

    threads = []
    for index in range(len(outcomes)):
        thread = threading.Thread(target=fire, args=(index,))
        thread.start()
        threads.append(thread)
        time.sleep(0.02)
    for thread in threads:
        thread.join(timeout=60.0)
        if thread.is_alive():
            fail("a burst request hung")
    assert_alive(daemon)
    served = shed = 0
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, dict):
            if outcome != {"slept_ms": 500}:
                fail(f"burst request {index} returned garbage: {outcome}")
            served += 1
        elif isinstance(outcome, ServeRequestError):
            if outcome.code != protocol.BUSY:
                fail(f"burst request {index} failed with "
                     f"{outcome.code}, want BUSY")
            if outcome.retry_after_ms is None:
                fail("BUSY response without a retry_after_ms hint")
            shed += 1
        else:
            fail(f"burst request {index}: {outcome!r}")
    if shed == 0:
        fail("overload burst shed nothing; admission control is absent")
    if served == 0:
        fail("overload burst served nothing; the daemon seized up")
    print(f"serve-gate: phase 2 ok — burst of {len(outcomes)}: "
          f"{served} served, {shed} cleanly shed")
    return shed


def phase_accounting(socket_path: str, shed_seen: int) -> None:
    with ServeClient(socket_path) as client:
        stats = client.stats()
    if stats.get("serverd.worker-restarts", 0) < 1:
        fail("serverd.worker-restarts < 1: the injected crash never "
             "fired or was never recovered from")
    if stats.get("serverd.shed", 0) < shed_seen:
        fail("serverd.shed undercounts the sheds clients observed")
    if stats.get("serverd.completed", 0) < 12:
        fail("serverd.completed is implausibly low")
    print("serve-gate: phase 3 ok — "
          f"worker-restarts={stats['serverd.worker-restarts']} "
          f"shed={stats['serverd.shed']} "
          f"completed={stats['serverd.completed']} "
          f"cache-hits={stats.get('serverd.cache-hits', 0)}")


def phase_drain(socket_path: str, daemon) -> None:
    holder = ServeClient(socket_path)
    outcome: dict = {}

    def in_flight() -> None:
        outcome["result"] = holder.request("sleep", ms=1_000)

    thread = threading.Thread(target=in_flight)
    thread.start()
    time.sleep(0.3)
    daemon.send_signal(signal.SIGTERM)
    thread.join(timeout=30.0)
    if thread.is_alive():
        fail("in-flight request dropped on SIGTERM instead of draining")
    holder.close()
    if outcome.get("result") != {"slept_ms": 1000}:
        fail(f"drained request returned {outcome.get('result')!r}")
    try:
        code = daemon.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        daemon.kill()
        fail("daemon did not exit after SIGTERM")
    if code != 0:
        fail(f"daemon exited {code} after a clean drain")
    print("serve-gate: phase 4 ok — SIGTERM drained the in-flight "
          "request and exited 0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--crash-seed", type=int, default=7)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "serve.sock")
        daemon = start_daemon(socket_path,
                              os.path.join(tmp, "cache"),
                              args.crash_seed)
        try:
            phase_concurrent_compiles(socket_path, daemon)
            shed = phase_overload_burst(socket_path, daemon)
            phase_accounting(socket_path, shed)
            phase_drain(socket_path, daemon)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    print(f"serve-gate: ok in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
