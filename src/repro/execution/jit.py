"""The just-in-time Execution Engine (paper section 3.4).

"Alternatively, a just-in-time Execution Engine can be used which
invokes the appropriate code generator at runtime, translating one
function at a time for execution."

This engine loads a *bytecode* image and materialises function bodies
lazily: a function is decoded from the binary representation the first
time it is about to run (our "code generation" step is IR
materialisation — the interpreter is the back end).  Functions never
reached stay undecoded, which is the property the JIT design buys.
``preload`` names functions decoded eagerly at image load (the shape a
partially-eager image would have).

It can also insert the same profiling instrumentation as the offline
code generator ("The JIT translator can also insert the same
instrumentation"), so the lifelong-optimization loop works identically
in both modes.  Instrumentation covers *every* decoded body — both the
preloaded ones (swept at construction) and the lazily-materialised
ones (instrumented as they decode).

With ``jit_traces=True`` the engine layers the trace-compiling tier
(:mod:`repro.execution.tracejit`) on top: hot blocks are recorded and
compiled to specialized Python closures, guarded so every side exit
falls back into this interpreter with exact state.
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
                 instrument: bool = False, extra_externals=None,
                 preload: Sequence[str] = (), jit_traces: bool = False,
                 trace_threshold: int = 50):
        self.module, self._decoder = read_bytecode_lazy(bytecode)
        self.functions_in_image = len(self._decoder.pending_bodies)
        self.functions_materialized = 0
        #: Names that arrived with a body, decoded or not — the image's
        #: definitions, as opposed to external declarations or typos.
        self._image_names = frozenset(self._decoder.pending_bodies)
        for name in preload:
            target = self.module.functions.get(name)
            if target is not None and self._decoder.materialize(target):
                self.functions_materialized += 1
        self.profile = None
        externals = dict(extra_externals or {})
        if instrument:
            from ..profile import Granularity, ProfileData, ProfileInstrumentation

            self._instrumentation = ProfileInstrumentation(Granularity.BLOCKS)
            self.profile = ProfileData(self._instrumentation.profile_map)
            externals.update(self.profile.externals())
            # Sweep bodies that were already decoded at image load:
            # lazy materialisation only instruments what *it* decodes,
            # and an uncounted hot function would silently starve
            # trace selection of its block counts.
            counter_fn = self.module.get_or_insert_function(
                _counter_type(), "__profile_count"
            )
            for function in self.module.functions.values():
                if not function.is_declaration:
                    self._instrumentation._instrument_function(
                        function, counter_fn)
        else:
            self._instrumentation = None
        self.interpreter = Interpreter(self.module, step_limit=step_limit,
                                       extra_externals=externals)
        self.interpreter.lazy_loader = self._materialize
        if jit_traces:
            self.trace_manager: Optional[TraceManager] = TraceManager(
                hot_threshold=trace_threshold)
            self.trace_manager.attach(self.interpreter)
        else:
            self.trace_manager = None

    # -- lazy materialisation -------------------------------------------------

    def _materialize(self, function: Function) -> bool:
        """Decode (and instrument) one function on first call."""
        if not self._decoder.materialize(function):
            return False
        self.functions_materialized += 1
        if self._instrumentation is not None:
            counter_fn = self.module.get_or_insert_function(
                _counter_type(), "__profile_count"
            )
            self._instrumentation._instrument_function(function, counter_fn)
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


def _counter_type():
    from ..core import types

    return types.function(types.VOID, [types.UINT])
