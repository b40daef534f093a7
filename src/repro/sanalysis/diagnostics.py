"""Structured diagnostics for the static checker suite.

Every checker reports findings as :class:`Diagnostic` values rather than
printing text, so the same result can drive the ``lc-lint`` CLI, the
driver's post-link analyze stage, or a test asserting golden output.
Source locations come from the ``loc`` field the LC front-end stamps on
instructions; IR that was parsed or built by hand simply has no line.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..core.instructions import Instruction


class Severity(enum.IntEnum):
    """Diagnostic severities, ordered so ``max()`` picks the worst."""

    NOTE = 0      #: advisory (e.g. a type-unsafe but working cast)
    WARNING = 1   #: suspicious code that still has defined behaviour
    ERROR = 2     #: code whose execution is a definite memory/type error

    def __str__(self) -> str:
        return self.name.lower()


class Diagnostic:
    """One finding: what is wrong, where, and how severe it is."""

    __slots__ = ("severity", "checker", "message", "function", "block",
                 "instruction", "line", "fixit", "file")

    def __init__(self, severity: Severity, checker: str, message: str,
                 function: Optional[str] = None, block: Optional[str] = None,
                 instruction: Optional[Instruction] = None,
                 line: Optional[int] = None, fixit: Optional[str] = None,
                 file: Optional[str] = None):
        self.severity = severity
        self.checker = checker
        self.message = message
        self.function = function
        self.block = block
        self.instruction = instruction
        #: Explicit line wins; otherwise taken from the instruction.
        if line is None and instruction is not None:
            line = instruction.loc
        self.line = line
        #: Optional human-readable suggested fix.
        self.fixit = fixit
        #: Originating translation unit, when known (whole-program mode
        #: stamps this; per-TU callers pass the filename to render()).
        self.file = file

    @property
    def is_error(self) -> bool:
        return self.severity == Severity.ERROR

    def render(self, filename: str = "<module>") -> str:
        """One-line clang-style rendering: ``file:line: sev: msg [checker]``."""
        name = self.file or filename
        where = name if self.line is None else f"{name}:{self.line}"
        text = f"{where}: {self.severity}: {self.message} [{self.checker}]"
        context = []
        if self.function:
            context.append(f"function %{self.function}")
        if self.block:
            context.append(f"block %{self.block}")
        if context:
            text += f" ({', '.join(context)})"
        if self.fixit:
            text += f"\n{where}: note: fix-it: {self.fixit}"
        return text

    def to_dict(self, filename: Optional[str] = None) -> dict:
        """The machine-readable record behind ``lc-lint --format=json``."""
        return {
            "file": self.file or filename,
            "line": self.line,
            "checker": self.checker,
            "severity": str(self.severity),
            "message": self.message,
            "function": self.function,
            "block": self.block,
            "fixit": self.fixit,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Diagnostic {self.severity} [{self.checker}] {self.message!r}>"


class Reporter:
    """Accumulates diagnostics across checkers, in a stable order."""

    def __init__(self):
        self.diagnostics: list[Diagnostic] = []

    def report(self, severity: Severity, checker: str, message: str,
               instruction: Optional[Instruction] = None,
               function=None, block=None, line: Optional[int] = None,
               fixit: Optional[str] = None) -> Diagnostic:
        fn_name = getattr(function, "name", function)
        block_name = getattr(block, "name", block)
        if instruction is not None:
            if block_name is None and instruction.parent is not None:
                block_name = instruction.parent.name
            if fn_name is None and instruction.function is not None:
                fn_name = instruction.function.name
        diag = Diagnostic(severity, checker, message, fn_name, block_name,
                          instruction, line, fixit)
        self.diagnostics.append(diag)
        return diag

    def error(self, checker: str, message: str, **kwargs) -> Diagnostic:
        return self.report(Severity.ERROR, checker, message, **kwargs)

    def warning(self, checker: str, message: str, **kwargs) -> Diagnostic:
        return self.report(Severity.WARNING, checker, message, **kwargs)

    def note(self, checker: str, message: str, **kwargs) -> Diagnostic:
        return self.report(Severity.NOTE, checker, message, **kwargs)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    def sorted(self) -> list[Diagnostic]:
        """Diagnostics ordered by function, source line, then severity."""
        return sorted(
            self.diagnostics,
            key=lambda d: (d.function or "", d.line or 0, -int(d.severity),
                           d.checker, d.message),
        )


def stable_order(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Multi-file ordering: (file, line, checker, …), independent of
    checker scheduling."""
    return sorted(
        diagnostics,
        key=lambda d: (d.file or "", d.line or 0, d.checker,
                       -int(d.severity), d.message, d.function or "",
                       d.block or ""),
    )


def dedupe(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Drop diagnostics identical in everything but originating file.

    Linking clones a function defined in several translation units; its
    findings would otherwise repeat once per copy.
    """
    seen = set()
    unique: list[Diagnostic] = []
    for diag in diagnostics:
        key = (diag.checker, int(diag.severity), diag.message,
               diag.function, diag.block, diag.line, diag.fixit)
        if key in seen:
            continue
        seen.add(key)
        unique.append(diag)
    return unique
