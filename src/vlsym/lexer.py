"""Lexer for VL source text.

Tokens carry 1-based line/column positions and tile the input: every
non-whitespace, non-comment character belongs to exactly one token.
Decimal literals denote exact rationals (0.1 is 1/10, not a float).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .diagnostics import Diagnostic, Loc, error


class TokKind(enum.Enum):
    IDENT = "identifier"
    INT_LIT = "integer literal"
    DEC_LIT = "decimal literal"
    STR_LIT = "string literal"
    KEYWORD = "keyword"
    PUNCT = "punctuation"
    EOF = "end of input"


KEYWORDS = frozenset(
    {
        "func",
        "input",
        "var",
        "int",
        "real",
        "if",
        "else",
        "while",
        "for",
        "return",
        "assert",
        "assume",
        "choose_int",
        "equals",
        "len",
        "print",
    }
)

# longest-match first
PUNCTS = (
    "&&",
    "||",
    "==",
    "!=",
    "<=",
    ">=",
    "++",
    "->",
    "<",
    ">",
    "=",
    "!",
    "+",
    "-",
    "*",
    "/",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
)


class Token(NamedTuple):
    kind: TokKind
    lexeme: str
    line: int
    col: int
    file: str

    @property
    def loc(self) -> Loc:
        width = max(1, len(self.lexeme))
        return Loc(self.file, self.line, self.col, self.col + width - 1)

    def is_kw(self, word: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.lexeme == word

    def is_punct(self, p: str) -> bool:
        return self.kind is TokKind.PUNCT and self.lexeme == p


class LexError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


def decimal_to_fraction(lexeme: str) -> Fraction:
    whole, frac = lexeme.split(".")
    scale = 10 ** len(frac)
    return Fraction(int(whole) * scale + int(frac), scale)


def _is_digit(c: str) -> bool:
    """An ASCII digit; str.isdigit also takes the likes of '²' and '٣'."""
    return "0" <= c <= "9"


def _is_name_start(c: str) -> bool:
    """An ASCII letter or '_'; str.isalpha also takes the likes of 'Ñ',
    which no -input option could then name."""
    return "a" <= c <= "z" or "A" <= c <= "Z" or c == "_"


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    """Tokenize VL source. Raises LexError at the first lexical error."""
    toks: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def here(width: int = 1) -> Loc:
        return Loc(file, line, col, col + width - 1)

    def fail(msg: str, width: int = 1) -> LexError:
        return LexError(error(msg, here(width)))

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            i += 2
            col += 2
            while i < n and not source.startswith("*/", i):
                if source[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i >= n:
                raise LexError(
                    error("unterminated block comment", Loc(file, start_line, start_col, start_col + 1))
                )
            i += 2
            col += 2
            continue
        if _is_digit(c):
            start = i
            start_col = col
            while i < n and _is_digit(source[i]):
                i += 1
                col += 1
            if i < n and source[i] == ".":
                i += 1
                col += 1
                if i >= n or not _is_digit(source[i]):
                    raise fail("malformed decimal literal: digit expected after '.'")
                while i < n and _is_digit(source[i]):
                    i += 1
                    col += 1
                toks.append(Token(TokKind.DEC_LIT, source[start:i], line, start_col, file))
            else:
                toks.append(Token(TokKind.INT_LIT, source[start:i], line, start_col, file))
            continue
        if _is_name_start(c):
            start = i
            start_col = col
            while i < n and (_is_name_start(source[i]) or _is_digit(source[i])):
                i += 1
                col += 1
            word = source[start:i]
            kind = TokKind.KEYWORD if word in KEYWORDS else TokKind.IDENT
            toks.append(Token(kind, word, line, start_col, file))
            continue
        if c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chars: list[str] = []
            while i < n and source[i] not in '"\n':
                chars.append(source[i])
                i += 1
                col += 1
            if i >= n or source[i] == "\n":
                raise LexError(
                    error("unterminated string literal", Loc(file, start_line, start_col, start_col))
                )
            i += 1
            col += 1
            toks.append(Token(TokKind.STR_LIT, "".join(chars), start_line, start_col, file))
            continue
        for p in PUNCTS:
            if source.startswith(p, i):
                toks.append(Token(TokKind.PUNCT, p, line, col, file))
                i += len(p)
                col += len(p)
                break
        else:
            raise fail(f"unknown character {c!r}")

    toks.append(Token(TokKind.EOF, "", line, col, file))
    return toks
