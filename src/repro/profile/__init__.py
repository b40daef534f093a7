"""Lifelong optimization: runtime profiling, trace formation, and the
offline profile-guided reoptimizer (paper sections 3.5 and 3.6)."""

from .collector import ProfileData
from .reoptimizer import OfflineReoptimizer, ReoptimizationReport
from .tracer import TraceFormation

__all__ = [
    "ProfileData", "OfflineReoptimizer", "ReoptimizationReport",
    "TraceFormation",
]
