"""One analysis cache, where every pass takes its analyses from: a
function's (dominators, frontiers, loops) while its epoch holds, a
module's (DSA, Mod/Ref, call graph) for one :func:`pass_sweep`.  A
cached analysis is read-only: a pass that edits the IR fetches again.
See docs/DRIVER.md, "Analyses"."""

from __future__ import annotations

import threading
from contextlib import contextmanager

#: The open sweep's memo, per thread: ``(kind, module) -> analysis``.
_sweep = threading.local()


def _cached(function) -> dict:
    # The analyses kept for ``function``'s current epoch, by kind.
    if function.analyses is None or function.analyses[0] != function.epoch:
        function.analyses = (function.epoch, {})
    return function.analyses[1]


def function_analysis(function, kind):
    """``kind(function)``, built once per epoch of ``function``."""
    cached = _cached(function)
    if kind not in cached:
        cached[kind] = kind(function)
    return cached[kind]


def remember(function, analysis):
    """Keep and return ``analysis``, just built over ``function``: the
    verifier's tree (the verifier never reads the cache)."""
    _cached(function)[type(analysis)] = analysis
    return analysis


def module_analysis(module, kind):
    """``kind(module)``, built once per open :func:`pass_sweep`."""
    memo = getattr(_sweep, "memo", None)
    if memo is None:
        return kind(module)
    if (kind, module) not in memo:
        memo[kind, module] = kind(module)
    return memo[kind, module]


@contextmanager
def pass_sweep():
    """Memoize module analyses for the units of one pass; yields the
    memo, which the caller clears when it rolls a unit back."""
    outer, _sweep.memo = getattr(_sweep, "memo", None), {}
    try:
        yield _sweep.memo
    finally:
        _sweep.memo = outer
