"""Compilation drivers: the standard pass pipelines and the end-to-end
compile/link/execute flows of paper Figure 4."""

from .cache import BytecodeCache, toolchain_fingerprint
from .passmanager import (
    CrashReport, FaultPolicy, PassBudgetExceeded,
    TranslationValidationError,
)
from .pipelines import (
    compile_and_link, compile_to_bytecode,
    compile_translation_units, link_time_optimize, lint_whole_program,
    lto_pipeline, optimize_module, standard_pipeline,
)
from .lifelong import LifelongSession
from ..transforms.passmanager import restore_module, snapshot_module

__all__ = [
    "BytecodeCache", "CrashReport", "FaultPolicy", "PassBudgetExceeded",
    "TranslationValidationError",
    "compile_and_link", "compile_to_bytecode",
    "compile_translation_units", "link_time_optimize",
    "lint_whole_program", "lto_pipeline", "optimize_module",
    "restore_module", "snapshot_module", "standard_pipeline",
    "toolchain_fingerprint", "LifelongSession",
]
