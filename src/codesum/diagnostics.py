"""Diagnostics shared by every pipeline stage."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Diagnostic(NamedTuple):
    """One problem report. ``line``/``column`` are 1-based; 0 means no position."""

    severity: Severity
    message: str
    file: str = ""
    line: int = 0
    column: int = 0

    def __str__(self) -> str:
        where = self.file or "<model>"
        if self.line:
            where = f"{where}:{self.line}:{self.column}"
        return f"{where}: {self.severity.value}: {self.message}"


def error(message: str, file: str = "", line: int = 0, column: int = 0) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, file, line, column)


def warning(message: str, file: str = "", line: int = 0, column: int = 0) -> Diagnostic:
    return Diagnostic(Severity.WARNING, message, file, line, column)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
