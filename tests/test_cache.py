"""Tests for the incremental compilation cache and the parallel batch
driver (docs/DRIVER.md).

The contract under test: caching and parallelism are *output-invariant*
accelerators — a warm cache skips the front-end and per-module
optimizer for unchanged translation units, a parallel batch compiles
TUs concurrently, and in every case the linked module (and its
bytecode) is byte-for-byte what a cold, serial build produces.
"""

from __future__ import annotations

import os

import pytest

from repro.benchsuite import benchmark_names, load_source
from repro.bitcode import read_bytecode, write_bytecode
from repro.core import print_module
from repro.driver import (
    BytecodeCache, FaultPolicy, LifelongSession, compile_and_link,
    compile_to_bytecode, compile_translation_units,
)
from repro.driver.cache import toolchain_fingerprint
from repro.fuzz import faultinject
from repro.sanalysis import run_checkers

HELPERS = [
    f"int helper{i}(int x) {{ return x * {i + 2} + 1; }}" for i in range(6)
]
MAIN = ("".join(f"int helper{i}(int x);\n" for i in range(6))
        + "int main() { return helper0(3) + helper1(4) + helper5(5); }")
BATCH = [MAIN] + HELPERS


class TestCacheKeys:
    def test_key_is_content_addressed(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        assert cache.key("int f;", 2) == cache.key("int f;", 2)
        assert cache.key("int f;", 2) != cache.key("int g;", 2)
        assert cache.key("int f;", 2) != cache.key("int f;", 3)
        assert cache.key("int f;", 2) != cache.key("int f;", 2, tag="program")

    def test_key_includes_toolchain_fingerprint(self, tmp_path):
        assert toolchain_fingerprint() in repr(toolchain_fingerprint())
        cache = BytecodeCache(str(tmp_path))
        # Keys are full SHA-256 hex digests.
        assert len(cache.key("x", 0)) == 64


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        source = HELPERS[0]
        cold = compile_and_link([source], "p", 2, lto=False, cache=cache)
        assert cache.statistics()["cache-misses"] == 1
        assert cache.statistics()["cache-stores"] == 1
        warm = compile_and_link([source], "p", 2, lto=False, cache=cache)
        assert cache.statistics()["cache-hits"] == 1
        assert print_module(warm) == print_module(cold)

    def test_one_entry_per_translation_unit(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        compile_and_link([HELPERS[0]], "p", 2, cache=cache)
        compile_and_link([HELPERS[0]], "p", 2, cache=cache)
        stats = cache.statistics()
        assert stats["cache-hits"] == 1 and stats["cache-misses"] == 1
        assert len(cache) == 1

    def test_level_change_misses(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        compile_and_link([HELPERS[0]], "p", 1, cache=cache)
        compile_and_link([HELPERS[0]], "p", 2, cache=cache)
        stats = cache.statistics()
        assert stats["cache-hits"] == 0 and stats["cache-misses"] == 2

    def test_cached_output_identical_to_uncached(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        reference = write_bytecode(compile_and_link(BATCH, "batch", 2))
        cold = write_bytecode(compile_and_link(BATCH, "batch", 2, cache=cache))
        warm = write_bytecode(compile_and_link(BATCH, "batch", 2, cache=cache))
        assert cold == reference
        assert warm == reference


class TestCorruptionRecovery:
    def test_corrupted_entry_is_evicted_and_recompiled(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        source = HELPERS[1]
        good = compile_and_link([source], "p", 2, cache=cache)
        # Smash every stored entry.
        for entry in os.listdir(tmp_path):
            with open(tmp_path / entry, "wb") as handle:
                handle.write(b"llvm\xff garbage")
        recovered = compile_and_link([source], "p", 2, cache=cache)
        assert print_module(recovered) == print_module(good)
        stats = cache.statistics()
        assert stats["cache-evictions"] >= 1
        assert stats["cache-misses"] == 2  # corrupted hit reclassified
        # The evicted entry was re-stored; third run hits cleanly.
        compile_and_link([source], "p", 2, cache=cache)
        assert cache.statistics()["cache-hits"] == 1

    def test_truncated_entry(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        compile_and_link([HELPERS[2]], "p", 2, lto=False, cache=cache)
        for entry in os.listdir(tmp_path):
            with open(tmp_path / entry, "r+b") as handle:
                handle.truncate(5)
        module = compile_and_link([HELPERS[2]], "p", 2, lto=False, cache=cache)
        assert "helper2" in module.functions

    def test_invalidate(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        key = cache.key(HELPERS[3], 2)
        assert not cache.invalidate(key)
        compile_and_link([HELPERS[3]], "p", 2, cache=cache)
        assert cache.invalidate(key)
        assert cache.load(key) is None


class TestConcurrentCounters:
    """A cache may be shared across threads; every counter mutation
    must happen under its record's lock so the ``-stats`` totals are
    exact, not merely close.  The hammer below
    would lose increments with unguarded ``+=`` under free-threaded
    interpreters (and flakily even under the GIL, since ``+=`` is a
    read-modify-write)."""

    def test_counter_conservation_under_hammer(self, tmp_path):
        import random
        import threading

        cache = BytecodeCache(str(tmp_path / "hammer"))
        n_threads, rounds = 8, 250
        barrier = threading.Barrier(n_threads)
        local = [
            {"loads": 0, "stores": 0, "evicts": 0, "tloads": 0, "tstores": 0}
            for _ in range(n_threads)
        ]
        errors: list[BaseException] = []

        def hammer(tid: int) -> None:
            rng = random.Random(tid)
            mine = local[tid]
            try:
                barrier.wait()
                for i in range(rounds):
                    source = f"k{rng.randrange(12)}"
                    key = cache.key(source, 2)
                    summary_key = cache.key(source, 2, tag="ipa-summary")
                    op = rng.randrange(5)
                    if op == 0:
                        cache.store_bytes(key, b"payload%d" % i)
                        mine["stores"] += 1
                    elif op == 1:
                        cache.load_bytes(key)
                        mine["loads"] += 1
                    elif op == 2:
                        if cache.invalidate(key):
                            mine["evicts"] += 1
                    elif op == 3:
                        cache.store_summary(summary_key, f"summary {i}")
                        mine["tstores"] += 1
                    else:
                        cache.load_summary(summary_key)
                        mine["tloads"] += 1
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(tid,))
                   for tid in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        def total(counter: str) -> int:
            return sum(mine[counter] for mine in local)

        stats = cache.statistics()
        # Every load_bytes call increments exactly one of hits/misses;
        # stores/evictions must match the calls that performed them.
        # (Stored entries are always validly framed, so no eviction can
        # come from the corruption path.)
        assert stats["cache-hits"] + stats["cache-misses"] == total("loads")
        assert stats["cache-stores"] == total("stores")
        assert stats["cache-evictions"] == total("evicts")
        assert stats["summary-hits"] + stats["summary-misses"] == total("tloads")
        assert stats["summary-stores"] == total("tstores")
        assert stats["summary-evictions"] == 0


class TestBatchDriver:
    def test_batch_with_cache(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        cold = compile_and_link(BATCH, "batch", 2, cache=cache)
        warm = compile_and_link(BATCH, "batch", 2, cache=cache)
        assert write_bytecode(warm) == write_bytecode(cold)
        assert cache.statistics()["cache-hits"] == len(BATCH)

    def test_link_order_is_input_order(self):
        modules = compile_translation_units(BATCH, "batch", 0)
        assert [m.name for m in modules] == [
            f"batch.tu{i}" for i in range(len(BATCH))
        ]


class TestWarmSkipsWork:
    def test_warm_cache_skips_frontend_over_benchsuite(self, tmp_path,
                                                       monkeypatch):
        """Acceptance: warm compile_and_link over the 15-program suite
        never re-enters the front-end and is byte-identical to cold.

        The skipped work is asserted directly (front-end call count)
        rather than by wall clock, which is noisy under a loaded test
        runner; the strict speedup gate lives in
        ``benchmarks/cache_warm_check.py`` (run by CI) and in the
        warm/cold timing printed there.
        """
        from repro.driver import pipelines

        calls = {"frontend": 0}
        real_compile_source = pipelines.compile_source

        def counting_compile_source(source, name):
            calls["frontend"] += 1
            return real_compile_source(source, name)

        monkeypatch.setattr(pipelines, "compile_source",
                            counting_compile_source)

        cache = BytecodeCache(str(tmp_path))
        sources = {name: load_source(name) for name in benchmark_names()}

        cold = {
            name: write_bytecode(
                compile_and_link([source], name, 2, lto=False, cache=cache))
            for name, source in sources.items()
        }
        assert calls["frontend"] == len(sources)

        warm = {
            name: write_bytecode(
                compile_and_link([source], name, 2, lto=False, cache=cache))
            for name, source in sources.items()
        }

        assert warm == cold
        assert calls["frontend"] == len(sources)  # zero warm front-end runs
        stats = cache.statistics()
        assert stats["cache-misses"] == len(sources)
        assert stats["cache-hits"] == len(sources)


class TestReloadedModulesLintIdentically:
    def test_lint_identical_through_cache(self, tmp_path):
        """Acceptance: diagnostics on a cache-reloaded module match the
        in-memory ones, locs included (the roundtrip fixes at work)."""
        cache = BytecodeCache(str(tmp_path))
        source = load_source("parser")
        fresh = compile_and_link([source], "parser", 2, cache=cache)
        reloaded = compile_and_link([source], "parser", 2, cache=cache)
        assert cache.statistics()["cache-hits"] == 1
        fresh_diags = [d.render("parser") for d in run_checkers(fresh)]
        reloaded_diags = [d.render("parser") for d in run_checkers(reloaded)]
        assert reloaded_diags == fresh_diags
        assert print_module(reloaded) == print_module(fresh)


class TestProgramEntries:
    """The whole-program entry (ISSUE 23): the answer to one entire
    request, read and written by ``compile_to_bytecode`` alone and
    counted under ``program-*`` — the per-TU counters above never see
    it."""

    SOURCES = [MAIN] + HELPERS

    def _tu_lookups(self, cache) -> int:
        stats = cache.statistics()
        return stats["cache-hits"] + stats["cache-misses"]

    def test_repeat_is_one_read_and_the_same_bytes(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        reference = write_bytecode(compile_and_link(self.SOURCES, "p", 2),
                                   strip_names=False)
        cold = compile_to_bytecode(self.SOURCES, "p", 2, cache=cache)
        stats = cache.statistics()
        assert (stats["program-misses"], stats["program-stores"]) == (1, 1)
        lookups = self._tu_lookups(cache)
        assert lookups == len(self.SOURCES)

        warm = compile_to_bytecode(self.SOURCES, "p", 2, cache=cache,
                                   policy=FaultPolicy())
        stats = cache.statistics()
        assert stats["program-hits"] == 1
        assert self._tu_lookups(cache) == lookups  # no TU was looked up
        assert stats["cache-stores"] == len(self.SOURCES)
        assert cold == warm == reference

    def test_key_covers_everything_the_build_depends_on(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        one, two = HELPERS[0], HELPERS[1]
        builds = [
            dict(sources=[one, two], name="p", level=2, lto=True),
            dict(sources=[one, two], name="p", level=1, lto=True),
            dict(sources=[one, two], name="p", level=2, lto=False),
            dict(sources=[one, two], name="q", level=2, lto=True),
            dict(sources=[one, two + " "], name="p", level=2, lto=True),
            dict(sources=[two, one], name="p", level=2, lto=True),
            # Same text, cut into translation units elsewhere.
            dict(sources=[one + "\n" + two], name="p", level=2, lto=True),
        ]
        for build in builds:
            compile_to_bytecode(cache=cache, **build)
        stats = cache.statistics()
        assert stats["program-hits"] == 0
        assert stats["program-stores"] == len(builds)
        for build in builds:
            compile_to_bytecode(cache=cache, **build)
        assert cache.statistics()["program-hits"] == len(builds)

    def test_faulted_build_is_answered_but_never_stored(self, tmp_path):
        """A transient fault must not become the cached answer: the
        build it touched is returned to its caller and dropped; the
        next, clean build is what gets stored."""
        cache = BytecodeCache(str(tmp_path))
        policy = FaultPolicy(reduce_testcases=False)
        with faultinject.injected("pass:gvn", 1) as plan:
            faulted = compile_to_bytecode(self.SOURCES, "p", 2, cache=cache,
                                          policy=policy)
        assert plan.fired
        assert policy.statistics()["passes.rolled_back"] == 1
        assert read_bytecode(faulted).functions["main"].blocks
        assert cache.statistics()["program-stores"] == 0

        clean_policy = FaultPolicy(reduce_testcases=False)
        clean = compile_to_bytecode(self.SOURCES, "p", 2, cache=cache,
                                    policy=clean_policy)
        stats = cache.statistics()
        assert (stats["program-hits"], stats["program-misses"],
                stats["program-stores"]) == (0, 2, 1)
        assert clean_policy.statistics()["passes.rolled_back"] == 0
        assert clean == write_bytecode(
            compile_and_link(self.SOURCES, "p", 2), strip_names=False)
        assert compile_to_bytecode(self.SOURCES, "p", 2,
                                   cache=cache) == clean
        assert cache.statistics()["program-hits"] == 1

    def test_real_pass_crash_never_reaches_the_stored_program(
            self, tmp_path, monkeypatch):
        """Not even by way of the per-TU entries: a build that lost an
        optimization to a crash stores nothing, so the clean build
        after it starts from source."""
        from repro.transforms import GVN

        cache = BytecodeCache(str(tmp_path))
        reference = write_bytecode(compile_and_link(self.SOURCES, "p", 2),
                                   strip_names=False)

        def crash(self, function):
            raise RuntimeError("planted bug")

        with monkeypatch.context() as patch:
            patch.setattr(GVN, "run_on_function", crash)
            policy = FaultPolicy(reduce_testcases=False)
            compile_to_bytecode(self.SOURCES, "p", 2, cache=cache,
                                policy=policy)
            assert policy.statistics()["passes.poisoned"] >= 1
        assert len(cache) == 0
        assert compile_to_bytecode(self.SOURCES, "p", 2,
                                   cache=cache) == reference

    def test_flipped_byte_is_evicted_and_recompiled(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        good = compile_to_bytecode([HELPERS[0]], "p", 2, cache=cache)
        with faultinject.injected("cache.read", 7) as plan:
            again = compile_to_bytecode([HELPERS[0]], "p", 2, cache=cache)
        assert plan.fired and again == good
        stats = cache.statistics()
        assert stats["program-evictions"] == 1
        assert stats["program-misses"] == 2 and stats["program-stores"] == 2
        assert stats["cache-evictions"] == 0 and stats["cache-hits"] == 1
        assert compile_to_bytecode([HELPERS[0]], "p", 2, cache=cache) == good
        assert cache.statistics()["program-hits"] == 1

    def test_program_entries_share_the_byte_budget(self, tmp_path):
        """An entry like any other under ``max_bytes``: least recently
        used goes first, whatever its kind."""
        import time as _time

        cache = BytecodeCache(str(tmp_path), max_bytes=220)
        program = cache.key("a", 2, tag="program")
        cache.store_program(program, bytes(64))   # ~84 framed bytes each
        _time.sleep(0.02)
        tu = cache.key("b", 2)
        cache.store_bytes(tu, bytes(64))
        _time.sleep(0.02)
        assert cache.load_program(program) is not None  # now the newest
        _time.sleep(0.02)
        cache.store_program(cache.key("c", 2, tag="program"), bytes(64))
        assert cache.statistics()["cache-lru-evictions"] == 1
        assert cache.load_bytes(tu) is None             # the LRU went
        assert cache.load_program(program) is not None
        cache.store_bytes(cache.key("d", 2), bytes(64))
        cache.store_bytes(cache.key("e", 2), bytes(64))
        assert cache.load_program(program) is None      # and so does this


class TestLifelongSessionCache:
    def test_session_uses_and_invalidates_cache(self, tmp_path):
        """The session and the cache (re-pinned by ISSUE 23): a session
        reads and writes the whole-program entry through
        ``compile_to_bytecode``, and never rewrites it — an entry is a
        function of its sources, not of one session's profile."""
        cache = BytecodeCache(str(tmp_path))
        sources = [
            # A biased hot loop, so that the reoptimizer forms a trace.
            "int compute(int x) { int s = 0; int i;"
            " for (i = 0; i < x; i++) {"
            " if (i % 8 == 0) { s = s + 3; } else { s = s + i; } }"
            " return s; }",
            "int compute(int x); int main() { return compute(130) % 251; }",
        ]
        first = LifelongSession(sources, "prog", 2, cache=cache)
        stats = cache.statistics()
        assert stats["cache-misses"] == len(sources)
        assert (stats["program-misses"], stats["program-stores"]) == (1, 1)
        static = compile_to_bytecode(sources, "prog", 2, cache=cache)
        assert write_bytecode(read_bytecode(static)) == first.bytecode

        second = LifelongSession(sources, "prog", 2, cache=cache)
        assert second.bytecode == first.bytecode
        stats = cache.statistics()
        assert stats["program-hits"] == 2
        assert stats["cache-hits"] == 0  # a program hit looks up no TU

        # The idle-time reoptimizer rewrites the session's IR, and only
        # the session's: the entry still answers with the static build.
        for _ in range(3):
            second.run()
        assert second.reoptimize().traces_formed == 1
        assert second.bytecode != first.bytecode
        third = LifelongSession(sources, "prog", 2, cache=cache)
        assert third.bytecode == first.bytecode
        assert compile_to_bytecode(sources, "prog", 2, cache=cache) == static
        stats = cache.statistics()
        assert stats["program-hits"] == 4
        assert stats["program-evictions"] == stats["cache-evictions"] == 0

    def test_session_runs_correctly_from_cache(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        sources = ["int main() { return 17 + 25; }"]
        LifelongSession(sources, "p", 2, cache=cache)
        warm = LifelongSession(sources, "p", 2, cache=cache)
        assert warm.run().exit_value == 42


class TestBoundedCacheLRU:
    """``max_bytes`` eviction: least-recently-used entries go first,
    the just-stored entry is never its own victim, and the counters
    surface through ``-stats`` (the lc-serverd shared-cache contract,
    docs/SERVING.md)."""

    def _store(self, cache, label: str, size: int = 64) -> str:
        key = cache.key(label, 2)
        cache.store_bytes(key, bytes(size))
        return key

    def test_oldest_entry_is_evicted_first(self, tmp_path):
        cache = BytecodeCache(str(tmp_path), max_bytes=220)
        first = self._store(cache, "a")    # ~84 framed bytes each
        second = self._store(cache, "b")
        third = self._store(cache, "c")    # budget blown: "a" must go
        assert cache.load_bytes(first) is None
        assert cache.load_bytes(second) is not None
        assert cache.load_bytes(third) is not None
        assert cache.statistics()["cache-lru-evictions"] == 1

    def test_hit_bumps_recency(self, tmp_path):
        import time as _time

        cache = BytecodeCache(str(tmp_path), max_bytes=220)
        first = self._store(cache, "a")
        second = self._store(cache, "b")
        _time.sleep(0.02)  # let the utime bump order the mtimes
        assert cache.load_bytes(first) is not None  # "a" is now newest
        _time.sleep(0.02)
        self._store(cache, "c")
        assert cache.load_bytes(second) is None  # "b" was the LRU
        assert cache.load_bytes(first) is not None

    def test_oversized_entry_still_caches(self, tmp_path):
        """The entry being stored is never its own victim: a single
        artifact bigger than the whole budget still caches (and evicts
        everything else)."""
        cache = BytecodeCache(str(tmp_path), max_bytes=100)
        small = self._store(cache, "small", size=16)
        big = self._store(cache, "big", size=4096)
        assert cache.load_bytes(big) is not None
        assert cache.load_bytes(small) is None

    def test_unbounded_cache_never_lru_evicts(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        for index in range(8):
            self._store(cache, f"entry{index}", size=4096)
        assert cache.statistics()["cache-lru-evictions"] == 0
        assert len(cache) == 8

    def test_disk_eviction_tolerates_vanished_victims(self, tmp_path):
        """Multi-process safety: a concurrent evictor deleting the
        victim between scan and unlink must not break eviction."""
        cache = BytecodeCache(str(tmp_path), max_bytes=220)
        first = self._store(cache, "a")
        self._store(cache, "b")
        # Simulate the other daemon winning the race for "a".
        os.unlink(tmp_path / f"{first}.bc")
        third = self._store(cache, "c")  # must not raise
        assert cache.load_bytes(third) is not None

    def test_sidecars_share_the_budget(self, tmp_path):
        """A summary sidecar is an entry like any other: it counts
        against ``max_bytes`` and is evicted in the same LRU order."""
        cache = BytecodeCache(str(tmp_path), max_bytes=220)
        summary = cache.key("a", 2, tag="ipa-summary")
        cache.store_summary(summary, "s" * 64)
        self._store(cache, "b")
        self._store(cache, "c")
        assert cache.load_summary(summary) is None
        assert cache.statistics()["cache-lru-evictions"] == 1


class TestSidecarIntegrity:
    """Sidecars carry the same SHA-256 frame as bytecode: corruption is
    a counted miss and eviction in the cache, never a parser's
    exception in the caller."""

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-3] + bytes([data[-3] ^ 0x10]) + data[-2:],
        lambda data: data[:-7],
    ], ids=["flipped-byte", "torn-tail"])
    def test_damaged_sidecar_is_a_miss_and_an_eviction(self, tmp_path,
                                                      damage):
        cache = BytecodeCache(str(tmp_path))
        key = cache.key("int f;", 2, tag="ipa-summary")
        cache.store_summary(key, '{"format": 1, "functions": []}')
        assert cache.load_summary(key) == '{"format": 1, "functions": []}'
        path = tmp_path / f"{key}.bc"
        path.write_bytes(damage(path.read_bytes()))
        assert cache.load_summary(key) is None
        stats = cache.statistics()
        assert (stats["summary-hits"], stats["summary-misses"],
                stats["summary-evictions"]) == (1, 1, 1)
        assert stats["cache-misses"] == stats["cache-evictions"] == 0
        assert not path.exists()


class TestCacheLatencyStats:
    def test_hit_rate_and_latency_counters(self, tmp_path):
        cache = BytecodeCache(str(tmp_path))
        key = cache.key("x", 2)
        cache.store_bytes(key, b"payload")
        assert cache.load_bytes(key) == b"payload"
        assert cache.load_bytes(cache.key("missing", 2)) is None
        stats = cache.statistics()
        assert stats["cache-hit-rate-pct"] == 50  # 1 hit / 2 lookups
        assert stats["cache-lookup-avg-us"] >= 0
        assert stats["cache-store-avg-us"] >= 0
        assert "cache-lru-evictions" in stats

    def test_hit_rate_with_no_lookups_is_zero(self, tmp_path):
        stats = BytecodeCache(str(tmp_path)).statistics()
        assert stats["cache-hit-rate-pct"] == 0
