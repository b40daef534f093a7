"""The one statistics record behind ``-stats`` and ``-time-passes``.

The paper's evaluation (Table 2 and its section 4.2 note: per-pass
link-time seconds, "inline inlines 1368 functions in 176.gcc") is a
per-pass timing-and-counter report.  Every producer of such a number —
pass managers, the fault policy, the bytecode cache, the daemon's
supervisor and its worker processes — writes into a :class:`Stats`, and
``-stats``, ``-time-passes``, ``LifelongSession.statistics()``,
lc-bench's pass table and the daemon's ``stats`` op are views of one.

A number is a **counter**, which adds, or a **level**, which is set (a
loaded-rule count, a queue depth).  The kind is fixed by the first write
— :meth:`Stats.count` or :meth:`Stats.gauge` — and everything
downstream (:meth:`Stats.merge`, :meth:`Stats.delta`) asks the record,
never the spelling of the name.  Rates and averages are not stored at
all: whoever reports one derives it from the record's sums, so summing
records from several processes cannot produce a 133 % hit rate.

Hot paths do not call in here.  A pass bumps a plain ``dict`` of its own
and the pass manager folds the difference in when the pass finishes
(see ``PassManager.run``), so the record can afford a lock, which the
two threaded owners — a :class:`~repro.driver.passmanager.FaultPolicy`
and the daemon's supervisor — need.
"""

from __future__ import annotations

import threading
from typing import Mapping


class Stats:
    """Named integers per source, plus seconds and runs per pass."""

    def __init__(self):
        self._lock = threading.Lock()
        #: source -> name -> value, both in first-write order.
        self._rows: dict[str, dict[str, int]] = {}
        #: The (source, name) pairs that are levels; the rest count.
        self._levels: set[tuple[str, str]] = set()
        self.seconds: dict[str, float] = {}
        self.runs: dict[str, int] = {}

    # Locks cannot cross the daemon's worker pipe; the numbers can.
    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items()
                if key != "_lock"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- writes -------------------------------------------------------------

    def count(self, source: str, name: str, delta: int = 1) -> None:
        """Add to a counter."""
        with self._lock:
            if (source, name) in self._levels:
                raise ValueError(f"{source} {name} is a level, not a counter")
            row = self._rows.setdefault(source, {})
            row[name] = row.get(name, 0) + delta

    def declare(self, source: str, *names: str) -> None:
        """Counters that are in every view, at zero, from the start (CI
        gates and benchmarks index them without a default)."""
        for name in names:
            self.count(source, name, 0)

    def gauge(self, source: str, name: str, value: int) -> None:
        """Set a level."""
        with self._lock:
            row = self._rows.setdefault(source, {})
            if name in row and (source, name) not in self._levels:
                raise ValueError(f"{source} {name} is a counter, not a level")
            self._levels.add((source, name))
            row[name] = value

    def time(self, name: str, seconds: float, runs: int = 1) -> None:
        """Bill wall-clock time to a pass."""
        with self._lock:
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.runs[name] = self.runs.get(name, 0) + runs

    def merge(self, other: "Stats") -> "Stats":
        """Fold ``other`` in: counters and timings add, levels are kept
        as they stand in ``other``.  Returns ``self``."""
        return self._add(other, Stats())

    def delta(self, since: "Stats") -> "Stats":
        """What happened after ``since``, an earlier copy of this
        record: ``since.merge(self.delta(since))`` equals ``self``.
        Names that did not move are still present, at zero."""
        return Stats()._add(self, since)

    def _add(self, other: "Stats", since: "Stats") -> "Stats":
        """Add ``other`` minus ``since`` (levels: as in ``other``)."""
        for source, row in other.views().items():
            earlier = since._rows.get(source, {})
            for name, value in row.items():
                if (source, name) in other._levels:
                    self.gauge(source, name, value)
                else:
                    self.count(source, name, value - earlier.get(name, 0))
        for name, seconds in list(other.seconds.items()):
            self.time(name, seconds - since.seconds.get(name, 0.0),
                      other.runs[name] - since.runs.get(name, 0))
        return self

    # -- views --------------------------------------------------------------

    def view(self, source: str) -> dict[str, int]:
        """One source's names and values (a copy)."""
        with self._lock:
            return dict(self._rows.get(source, {}))

    def views(self) -> dict[str, dict[str, int]]:
        """Every source's view, in first-write order."""
        with self._lock:
            return {source: dict(row) for source, row in self._rows.items()}


def format_stats(rows: Mapping[str, Mapping[str, int]]) -> str:
    """The LLVM ``-stats`` style report, one line per (source, name);
    empty when there is nothing to report."""
    lines = [f"{value:8d} {source:<18s} {name}"
             for source, row in rows.items()
             for name, value in sorted(row.items())]
    if lines:
        lines.insert(0, "===" + "-" * 20 + " statistics " + "-" * 20 + "===")
    return "\n".join(lines)


def format_timings(stats: Stats) -> str:
    """The ``-time-passes`` report (paper Table 2 style); empty when no
    pass ran."""
    lines = [f"{name:24s} {seconds:8.4f}s ({stats.runs[name]} runs)"
             for name, seconds in sorted(stats.seconds.items())]
    if lines:
        lines.insert(0, "===" + "-" * 18 + " pass timings " + "-" * 18 + "===")
    return "\n".join(lines)
