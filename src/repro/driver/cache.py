"""Content-addressed bytecode cache: the incremental compilation layer.

The paper's lifelong model (Figure 4) keeps the IR alive between
compiler invocations precisely so later stages can *skip work that is
already done*.  This module applies that idea to the front of the
pipeline: per-translation-unit bytecode, produced after per-module
optimization, is stored under a SHA-256 key of

    (toolchain fingerprint, optimization level, source text)

so an unchanged TU costs one hash plus one bytecode deserialization
instead of a front-end run plus the whole -O pipeline.  This is sound
only because of two representation-equivalence guarantees:

* :func:`repro.bitcode.write_bytecode` is deterministic — equal modules
  serialize to equal bytes, so cache artifacts are stable; and
* the bytecode round-trip is lossless (including ``Instruction.loc``),
  so a module coming out of the cache is indistinguishable from the
  freshly compiled one — lint diagnostics, link results and native code
  are byte-for-byte the same.

Entries live one-per-file under a cache directory (``<key>.bc``), in
one framed format, and come in three kinds, counted apart: per-TU
bytecode (``cache-*``), analysis-summary sidecars (``summary-*``) and
whole-program bytecode (``program-*``), the answer to one entire
request (:func:`repro.driver.pipelines.compile_to_bytecode`).
Writes go through a temp file + ``os.replace`` so concurrent compilers
never observe torn entries.
With ``max_bytes`` set the cache is bounded: every store enforces the
budget by evicting least-recently-used entries (recency is bumped on
every hit), and deletes are atomic and multi-process-safe — two
daemons evicting over one directory may race for the same victim, and
whoever loses the ``unlink`` simply finds the file already gone
(``cache.evict-race`` in the fault matrix pins this).  Lookup and
store latency plus the hit rate are tracked for ``-stats``, because a
shared cache serving a daemon is a performance citizen, not just a
correctness one.
Every entry is framed with a SHA-256 integrity digest, so *any*
corruption — a truncated file, a flipped bit, a partial disk write, an
entry written by a newer toolchain — is detected on read and handled
the same way: the entry is evicted and reported as a miss, and the
caller simply recompiles.  A corrupt cache can cost time; it can never
change the output (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from typing import Optional

from ..bitcode import read_bytecode, write_bytecode
from ..bitcode.writer import VERSION as BYTECODE_VERSION
from ..core.module import Module
from ..stats import Stats

#: Bump when the standard pipelines change in a way that alters the IR
#: they produce; it participates in every cache key, so old entries are
#: automatically ignored (and eventually evicted) after an upgrade.
PIPELINE_VERSION = 3

#: On-disk entry framing: magic + 16 bytes of SHA-256 over the payload.
_FRAME_MAGIC = b"lcC\x01"
_DIGEST_BYTES = 16


def _frame(payload: bytes) -> bytes:
    digest = hashlib.sha256(payload).digest()[:_DIGEST_BYTES]
    return _FRAME_MAGIC + digest + payload


def _unframe(data: bytes) -> Optional[bytes]:
    """The payload, or None if the frame or digest does not check out
    (foreign file, torn write, bit rot, newer frame format)."""
    head = len(_FRAME_MAGIC) + _DIGEST_BYTES
    if len(data) < head or data[:len(_FRAME_MAGIC)] != _FRAME_MAGIC:
        return None
    payload = data[head:]
    if hashlib.sha256(payload).digest()[:_DIGEST_BYTES] != data[len(_FRAME_MAGIC):head]:
        return None
    return payload


def _fault_hooks():
    """The fault-injection module, imported lazily so the driver does
    not pull the fuzz package in until a fault plan could exist."""
    from ..fuzz import faultinject

    return faultinject


def hit_rate_pct(rows: dict) -> int:
    """The hit percentage of the cache's counters.  A rate is derived
    from sums, never stored or added: the daemon applies this to the
    totals over all of its workers."""
    lookups = rows["cache-hits"] + rows["cache-misses"]
    return 100 * rows["cache-hits"] // lookups if lookups else 0


def toolchain_fingerprint() -> str:
    """The version component of every cache key."""
    return f"lc-bc{BYTECODE_VERSION}-pipe{PIPELINE_VERSION}"


#: The three kinds of entry — the prefix of their ``-stats`` counters —
#: and the fault sites that corrupt a stored entry of that kind before
#: its frame is checked, exactly like real disk corruption would: the
#: digest catches any flip deterministically.
_CORRUPTION_SITES = {
    "cache": ("cache.read", "bytecode.corrupt"),
    "summary": ("sidecar.corrupt",),
    "program": ("cache.read", "bytecode.corrupt"),
}


class BytecodeCache:
    """Keyed storage of serialized modules, with hit/miss accounting.

    Entries persist under ``directory`` and are shared between compiler
    processes.  The counter names mirror pass statistics so the cache
    plugs into the same ``-stats`` reporting (see :meth:`statistics`).
    """

    name = "bytecode-cache"

    def __init__(self, directory: str, max_bytes: Optional[int] = None):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: Byte budget for stored entries; None means unbounded.
        #: Enforced on every store by LRU eviction (the entry being
        #: stored is never its own victim).
        self.max_bytes = max_bytes
        #: The cache's ``-stats`` rows, under :attr:`name`, and the
        #: seconds and runs of ``cache-lookup`` / ``cache-store``.
        self.stats = Stats()
        self.stats.declare(
            self.name, "cache-hits", "cache-misses", "cache-stores",
            "cache-evictions", "cache-lru-evictions", "summary-hits",
            "summary-misses", "summary-stores", "summary-evictions",
            "program-hits", "program-misses", "program-stores",
            "program-evictions")

    def _count(self, name: str, delta: int = 1) -> None:
        self.stats.count(self.name, name, delta)

    # -- keys ---------------------------------------------------------------

    def key(self, source: str, level: int, tag: str = "tu") -> str:
        """Content-addressed key for one compilation.

        ``tag`` separates key spaces that share source text — per-TU
        entries (``"tu"``), whole-program entries (``"program"`` /
        ``"program-lto"``) and analysis summaries (``"ipa-summary"``).
        """
        digest = hashlib.sha256()
        digest.update(toolchain_fingerprint().encode("utf-8"))
        digest.update(b"\0")
        digest.update(f"{tag}:{level}".encode("utf-8"))
        digest.update(b"\0")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    # -- entries ------------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.bc")

    def _load(self, key: str, kind: str) -> Optional[bytes]:
        """The payload stored under ``key``, or None; counted as a
        ``<kind>-hits`` or ``<kind>-misses``.

        The integrity frame is verified here: an entry that fails it —
        torn write, bit flip, foreign or newer format — is evicted and
        reported as a miss, never handed to a decoder.  A hit bumps the
        file's mtime, which is what the LRU eviction of a bounded cache
        orders by.
        """
        started = time.perf_counter()
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            data = None
        if data is not None:
            try:
                os.utime(path)
            except OSError:
                pass  # raced with an eviction; the bytes are ours
            hooks = _fault_hooks()
            for site in _CORRUPTION_SITES[kind]:
                data = hooks.mangle(site, data)
            data = _unframe(data)
            if data is None:
                self._evict(key, kind)
        self._count(f"{kind}-misses" if data is None else f"{kind}-hits")
        self.stats.time("cache-lookup", time.perf_counter() - started)
        return data

    def _store(self, key: str, data: bytes, kind: str) -> None:
        """Frame and store ``data`` atomically (last writer wins); with
        ``max_bytes`` set, then evict LRU entries past the budget."""
        started = time.perf_counter()
        fd, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_frame(data))
            os.replace(temp_path, self._path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._enforce_budget(keep=key)
        self._count(f"{kind}-stores")
        self.stats.time("cache-store", time.perf_counter() - started)

    def load_bytes(self, key: str) -> Optional[bytes]:
        """The stored artifact, or None (counted as a miss)."""
        return self._load(key, "cache")

    def store_bytes(self, key: str, data: bytes) -> None:
        """Store an artifact (see :meth:`_store`)."""
        self._store(key, data, "cache")

    def load_summary(self, key: str) -> Optional[str]:
        """An analysis-summary sidecar (the paper's section 3.3
        summaries "attached to the bytecode"): an entry like any other,
        counted under ``summary-*``."""
        data = self._load(key, "summary")
        return None if data is None else data.decode("utf-8")

    def store_summary(self, key: str, text: str) -> None:
        """Store an analysis-summary sidecar (see :meth:`_store`)."""
        self._store(key, text.encode("utf-8"), "summary")

    def load_program(self, key: str) -> Optional[bytes]:
        """A whole-program entry — bytes the integrity frame vouches
        for, not decoded here — counted under ``program-*``."""
        return self._load(key, "program")

    def store_program(self, key: str, data: bytes) -> None:
        """Store a whole-program entry (see :meth:`_store`)."""
        self._store(key, data, "program")

    def _evict(self, key: str, kind: str) -> bool:
        try:
            os.unlink(self._path(key))
        except OSError:
            return False
        self._count(f"{kind}-evictions")
        return True

    def invalidate(self, key: str) -> bool:
        """Drop one per-TU entry; True if an entry existed."""
        return self._evict(key, "cache")

    # -- bounded-cache eviction ---------------------------------------------

    def _enforce_budget(self, keep: str) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        Multi-process safe by construction: the scan tolerates files
        vanishing mid-walk and the delete tolerates losing the unlink
        race to a concurrent evictor (``cache.evict-race`` injects
        exactly that race) — either way the entry is gone, which is
        all eviction promises.  The just-stored entry (``keep``) is
        never its own victim, so a single oversized artifact still
        caches.
        """
        if self.max_bytes is None:
            return
        entries = []
        for name in os.listdir(self.directory):
            if not name.endswith(".bc"):
                continue
            path = os.path.join(self.directory, name)
            try:
                status = os.stat(path)
            except OSError:
                continue  # vanished under us: a concurrent evictor
            entries.append((status.st_mtime_ns, status.st_size, path))
        total = sum(size for _, size, _ in entries)
        entries.sort()
        keep_path = self._path(keep)
        hooks = _fault_hooks()
        evicted = 0
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep_path:
                continue
            # Injected race: a concurrent daemon deletes the victim
            # between our scan and our unlink.
            hooks.race_delete("cache.evict-race", path)
            try:
                os.unlink(path)
            except OSError:
                pass  # lost the race; the entry is gone either way
            total -= size
            evicted += 1
        if evicted:
            self._count("cache-lru-evictions", evicted)

    # -- modules ------------------------------------------------------------

    def load(self, key: str) -> Optional[Module]:
        """Deserialize a cached module; a corrupted entry — including
        bytecode written by a *newer* toolchain version, which decodes
        to :class:`~repro.bitcode.BytecodeError` — is evicted and
        reported as a miss, so callers simply recompile."""
        data = self.load_bytes(key)
        if data is None:
            return None
        # Injected truncation lands *after* the frame check, driving the
        # decoder's own error path (every strict prefix of valid
        # bytecode raises BytecodeError — tests/test_robustness.py).
        data = _fault_hooks().mangle("bytecode.truncate", data)
        try:
            return read_bytecode(data)
        except Exception:
            # BytecodeError (truncation, corruption, unsupported newer
            # version) and anything else alike: the load_bytes hit was
            # illusory — reclassify it and evict.
            self._count("cache-hits", -1)
            self._count("cache-misses")
            self.invalidate(key)
            return None

    def store(self, key: str, module: Module) -> bytes:
        """Serialize and store a module; returns the bytes (names kept,
        so cached modules lint identically to fresh ones)."""
        data = write_bytecode(module, strip_names=False)
        self.store_bytes(key, data)
        return data

    # -- observability ------------------------------------------------------

    def statistics(self) -> dict[str, int]:
        """Counters in the shape the ``-stats`` machinery expects.

        Besides the raw hit/miss/store/eviction counts this derives the
        rates a daemon operator actually watches: the hit percentage
        and the average lookup and store latency in microseconds.
        """
        rows = self.stats.view(self.name)
        rows["cache-hit-rate-pct"] = hit_rate_pct(rows)
        for activity in ("cache-lookup", "cache-store"):
            runs = self.stats.runs.get(activity, 0)
            rows[f"{activity}-avg-us"] = (
                int(self.stats.seconds[activity] * 1e6) // runs
                if runs else 0)
        return rows

    def __len__(self) -> int:
        return sum(1 for entry in os.listdir(self.directory)
                   if entry.endswith(".bc"))
