"""The just-in-time Execution Engine (paper section 3.4).

"Alternatively, a just-in-time Execution Engine can be used which
invokes the appropriate code generator at runtime, translating one
function at a time for execution."

This engine loads a *bytecode* image and materialises function bodies
lazily: a function is decoded from the binary representation the first
time it is about to run (our "code generation" step is IR
materialisation — the interpreter is the back end).  Functions never
reached stay undecoded, which is the property the JIT design buys.
``lc-run`` executes every module this way.

With ``jit_traces=True`` the engine layers the trace-compiling tier
(:mod:`repro.execution.tracejit`) on top: hot blocks are recorded and
compiled to specialized Python closures, guarded so every side exit
falls back into this interpreter with exact state.  "The JIT
translator can also insert the same instrumentation" as the offline
code generator: here both are the tier's block event, so
``trace_manager.profile`` counts every body that runs, and the image
is never rewritten to be profiled.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..bitcode.reader import read_bytecode_lazy
from ..core.module import Function
from .interpreter import Interpreter
from .tracejit import TraceManager


class JITEngine:
    """Function-at-a-time lazy execution of a bytecode image."""

    def __init__(self, bytecode: bytes, step_limit: int = 50_000_000,
                 extra_externals=None, jit_traces: bool = False,
                 trace_threshold: int = 50):
        self.module, self._decoder = read_bytecode_lazy(bytecode)
        #: Names that arrived with a body, decoded or not — the image's
        #: definitions, as opposed to external declarations or typos.
        self._image_names = frozenset(self._decoder.pending_bodies)
        self.functions_in_image = len(self._image_names)
        self.functions_materialized = 0
        self.interpreter = Interpreter(self.module, step_limit=step_limit,
                                       extra_externals=extra_externals)
        self.interpreter.lazy_loader = self._materialize
        self.trace_manager: Optional[TraceManager] = None
        if jit_traces:
            self.trace_manager = TraceManager(hot_threshold=trace_threshold)
            self.trace_manager.attach(self.interpreter)

    # -- lazy materialisation -------------------------------------------------

    def _materialize(self, function: Function) -> bool:
        """Decode one function on first call."""
        if not self._decoder.materialize(function):
            return False
        self.functions_materialized += 1
        return True

    def materialized(self, name: str) -> bool:
        """Has this function's body been decoded yet?

        Only names that actually carried a body in the image can be
        materialized; external declarations and unknown names are
        False, not "not pending, therefore decoded".
        """
        return (name in self._image_names
                and name not in self._decoder.pending_bodies)

    # -- running --------------------------------------------------------------

    def run(self, function: str = "main", args: Sequence = ()):
        target = self.module.functions.get(function)
        if target is not None and target.is_declaration:
            self._materialize(target)
        return self.interpreter.run(function, args)

    @property
    def output(self) -> list[str]:
        return self.interpreter.output

    @property
    def steps(self) -> int:
        return self.interpreter.steps
