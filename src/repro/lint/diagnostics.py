"""Diagnostic records emitted by lint rules.

A :class:`Diagnostic` pins a finding to a file/line/column, carries the rule
code (``RPR001``…) and a human-readable message, and knows how to render
itself for terminals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Severity(enum.Enum):
    """How seriously a finding counts toward the exit status.

    ``ERROR`` findings fail the run; ``WARNING`` findings are reported but do
    not affect the exit code.  Rules declare a default severity; RPR008
    reports a stale manifest as a warning.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, what rule, what is wrong."""

    path: str  #: posix-style path relative to the lint root
    line: int  #: 1-based line number
    col: int  #: 0-based column offset (ast convention)
    code: str  #: rule code, e.g. ``RPR001``
    message: str
    severity: Severity = Severity.ERROR

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        """``path:line:col: CODE [severity] message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity.value}] {self.message}"
        )
