"""Diagnostics with source locations, rendered as file:line:col-col."""

from __future__ import annotations

from typing import NamedTuple


class Loc(NamedTuple):
    """A source span on a single line. Columns are 1-based and inclusive."""

    file: str
    line: int
    col: int
    end_col: int

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}-{self.end_col}"


class Diagnostic(NamedTuple):
    message: str
    loc: Loc

    def render(self) -> str:
        return f"{self.loc.render()}: error: {self.message}"


class ParseError(Exception):
    """A lexical or syntax error, the first one met in a source."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic
