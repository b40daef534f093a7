"""The Execution Engine: interpreter, flat memory model, and the runtime
library of external functions (paper section 3.4)."""

from .interpreter import (
    ExecutionError, ExitCalled, Interpreter, StepLimitExceeded,
    UndefinedFunction, UnhandledUnwind,
)
from .jit import JITEngine
from .memory import Memory, MemoryFault
from .tracejit import CompiledTrace, TraceJITStats, TraceManager, Untraceable

__all__ = [
    "ExecutionError", "ExitCalled", "Interpreter", "JITEngine",
    "StepLimitExceeded", "UndefinedFunction", "UnhandledUnwind",
    "Memory", "MemoryFault",
    "CompiledTrace", "TraceJITStats", "TraceManager", "Untraceable",
]
