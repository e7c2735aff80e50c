"""Diagnostics with source locations, rendered as file:line:col-col."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Loc:
    """A source span on a single line. Columns are 1-based and inclusive."""

    file: str
    line: int
    col: int
    end_col: int

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}-{self.end_col}"


@dataclass(frozen=True)
class Diagnostic:
    message: str
    loc: Loc

    def render(self) -> str:
        return f"{self.loc.render()}: error: {self.message}"


def error(message: str, loc: Loc) -> Diagnostic:
    return Diagnostic(message, loc)
