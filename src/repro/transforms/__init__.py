"""Transformations: scalar passes, SSA construction, and IPO.

The standard pipelines (what ``-O1``/``-O3`` mean here) live in
:mod:`repro.driver.pipelines`.
"""

from .dce import AggressiveDCE, DeadCodeElimination
from .gvn import GVN
from .instcombine import InstCombine
from .licm import LICM
from .mem2reg import PromoteMem2Reg
from .passmanager import (
    FunctionPassAdaptor, ModulePassAdaptor, PassManager,
)
from .rangeopt import RangeOpt
from .reassociate import Reassociate
from .simplifycfg import SimplifyCFG
from .sroa import ScalarReplAggregates
from .tailrec import TailRecursionElimination

__all__ = [
    "AggressiveDCE", "DeadCodeElimination", "GVN", "InstCombine", "LICM",
    "PromoteMem2Reg", "FunctionPassAdaptor", "ModulePassAdaptor",
    "PassManager", "RangeOpt", "Reassociate", "SimplifyCFG",
    "ScalarReplAggregates", "TailRecursionElimination",
]
