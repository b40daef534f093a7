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

Entries live one-per-file under a cache directory (``<key>.bc``), or in
memory when no directory is given.  Writes go through a temp file +
``os.replace`` so concurrent compilers never observe torn entries.
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
import threading
import time
from collections import OrderedDict
from typing import Optional

from ..bitcode import read_bytecode, write_bytecode
from ..bitcode.writer import VERSION as BYTECODE_VERSION
from ..core.module import Module
from ..stats import Stats

#: Bump when the standard pipelines change in a way that alters the IR
#: they produce; it participates in every cache key, so old entries are
#: automatically ignored (and eventually evicted) after an upgrade.
PIPELINE_VERSION = 2

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


class BytecodeCache:
    """Keyed storage of serialized modules, with hit/miss accounting.

    ``directory=None`` keeps entries in memory (useful for tests and
    single-process batch runs); otherwise entries persist on disk and
    are shared between compiler processes.  The counter names mirror
    pass statistics so the cache plugs into the same ``-stats``
    reporting (see :meth:`statistics`).
    """

    name = "bytecode-cache"

    def __init__(self, directory: Optional[str] = None,
                 max_bytes: Optional[int] = None):
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        #: Byte budget for stored bytecode; None means unbounded.
        #: Enforced on every store by LRU eviction (the entry being
        #: stored is never its own victim).
        self.max_bytes = max_bytes
        self._memory: OrderedDict[str, bytes] = OrderedDict()
        self._memory_text: dict[str, str] = {}
        self._lock = threading.Lock()
        #: The cache's ``-stats`` rows, under :attr:`name`, and the
        #: seconds and runs of ``cache-lookup`` / ``cache-store``.
        self.stats = Stats()
        self.stats.declare(
            self.name, "cache-hits", "cache-misses", "cache-stores",
            "cache-evictions", "cache-lru-evictions", "summary-hits",
            "summary-misses", "summary-stores", "summary-evictions")

    def _count(self, name: str, delta: int = 1) -> None:
        self.stats.count(self.name, name, delta)

    # -- keys ---------------------------------------------------------------

    def key(self, source: str, level: int, tag: str = "tu") -> str:
        """Content-addressed key for one compilation.

        ``tag`` separates key spaces that share source text — per-TU
        entries (``"tu"``) vs whole-program entries (``"program"``,
        used by the lifelong session).
        """
        digest = hashlib.sha256()
        digest.update(toolchain_fingerprint().encode("utf-8"))
        digest.update(b"\0")
        digest.update(f"{tag}:{level}".encode("utf-8"))
        digest.update(b"\0")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    # -- raw bytes ----------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.bc")

    def load_bytes(self, key: str) -> Optional[bytes]:
        """The stored artifact, or None (counted as a miss).

        The integrity frame is verified here: an entry that fails it —
        torn write, bit flip, foreign or newer format — is evicted and
        reported as a miss, never handed to the decoder.

        A hit also bumps the entry's recency (in-memory order, or the
        file mtime on disk), which is what the LRU eviction of a
        bounded cache orders by.
        """
        started = time.perf_counter()
        if self.directory is None:
            with self._lock:
                data = self._memory.get(key)
                if data is not None:
                    self._memory.move_to_end(key)
        else:
            try:
                with open(self._path(key), "rb") as handle:
                    data = handle.read()
            except OSError:
                data = None
            if data is not None:
                try:
                    os.utime(self._path(key))
                except OSError:
                    pass  # raced with an eviction; the bytes are ours
        if data is not None:
            # Injected corruption of the *stored entry* lands before the
            # frame check, exactly like real disk corruption would: the
            # digest catches any flip deterministically.
            hooks = _fault_hooks()
            data = hooks.mangle("cache.read", data)
            data = hooks.mangle("bytecode.corrupt", data)
            data = _unframe(data)
            if data is None:
                self.invalidate(key)
        self._count("cache-misses" if data is None else "cache-hits")
        self.stats.time("cache-lookup", time.perf_counter() - started)
        return data

    def store_bytes(self, key: str, data: bytes) -> None:
        """Store an artifact atomically (last writer wins); with
        ``max_bytes`` set, then evict LRU entries past the budget."""
        started = time.perf_counter()
        data = _frame(data)
        if self.directory is None:
            with self._lock:
                self._memory[key] = data
                self._memory.move_to_end(key)
        else:
            fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(temp_path, self._path(key))
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        self._enforce_budget(keep=key)
        self._count("cache-stores")
        self.stats.time("cache-store", time.perf_counter() - started)

    # -- bounded-cache eviction ---------------------------------------------

    def _enforce_budget(self, keep: Optional[str] = None) -> None:
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
        evicted = 0
        if self.directory is None:
            with self._lock:
                total = sum(len(blob) for blob in self._memory.values())
                for victim in list(self._memory):
                    if total <= self.max_bytes:
                        break
                    if victim == keep:
                        continue
                    total -= len(self._memory.pop(victim))
                    self._memory_text.pop(victim, None)
                    evicted += 1
        else:
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
            keep_path = self._path(keep) if keep is not None else None
            hooks = _fault_hooks()
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
                try:
                    os.unlink(path[:-len(".bc")] + ".json")
                except OSError:
                    pass
                total -= size
                evicted += 1
        if evicted:
            self._count("cache-lru-evictions", evicted)

    def invalidate(self, key: str) -> bool:
        """Drop one entry (used by the reoptimizer when it rewrites the
        IR an entry was derived from); True if an entry existed."""
        if self.directory is None:
            existed = self._memory.pop(key, None) is not None
        else:
            try:
                os.unlink(self._path(key))
                existed = True
            except OSError:
                existed = False
        if existed:
            self._count("cache-evictions")
        return existed

    # -- sidecar text artifacts ---------------------------------------------

    def _text_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def load_text(self, key: str) -> Optional[str]:
        """A sidecar artifact stored next to the bytecode (``<key>.json``)
        — analysis summaries attached per the paper's section 3.3."""
        if self.directory is None:
            text = self._memory_text.get(key)
        else:
            try:
                with open(self._text_path(key), "r",
                          encoding="utf-8") as handle:
                    text = handle.read()
            except OSError:
                text = None
        if text is not None:
            text = _fault_hooks().mangle_text("sidecar.corrupt", text)
        self._count("summary-misses" if text is None else "summary-hits")
        return text

    def store_text(self, key: str, text: str) -> None:
        """Store a sidecar artifact atomically (last writer wins)."""
        if self.directory is None:
            self._memory_text[key] = text
        else:
            fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                             suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(temp_path, self._text_path(key))
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        self._count("summary-stores")

    def evict_text(self, key: str) -> bool:
        """Drop one sidecar (used when its content is unparseable —
        e.g. written by a newer toolchain); True if one existed."""
        if self.directory is None:
            existed = self._memory_text.pop(key, None) is not None
        else:
            try:
                os.unlink(self._text_path(key))
                existed = True
            except OSError:
                existed = False
        if existed:
            self._count("summary-evictions")
        return existed

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
        if self.directory is None:
            return len(self._memory)
        return sum(1 for entry in os.listdir(self.directory)
                   if entry.endswith(".bc"))
