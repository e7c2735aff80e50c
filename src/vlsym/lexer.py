"""Lexer for VL source text.

Tokens carry 1-based line/column positions and tile the input: every
non-whitespace, non-comment character belongs to exactly one token.
Decimal literals denote exact rationals (0.1 is 1/10, not a float).
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from typing import NamedTuple

from .diagnostics import Diagnostic, Loc, ParseError


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

class Token(NamedTuple):
    kind: TokKind
    lexeme: str
    line: int
    col: int
    file: str

    @property
    def loc(self) -> Loc:
        # a string's lexeme leaves out its quotes; the end of input is one column
        width = len(self.lexeme) + 2 if self.kind is TokKind.STR_LIT else max(1, len(self.lexeme))
        return Loc(self.file, self.line, self.col, self.col + width - 1)

    def is_kw(self, word: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.lexeme == word

    def is_punct(self, p: str) -> bool:
        return self.kind is TokKind.PUNCT and self.lexeme == p


def decimal_to_fraction(lexeme: str) -> Fraction:
    whole, frac = lexeme.split(".")
    scale = 10 ** len(frac)
    return Fraction(int(whole) * scale + int(frac), scale)


# One alternative per kind of match, tried in order at each offset: text
# to skip, a token, or the start of a lexical error. Only ASCII digits make
# a number (str.isdigit also takes '²') and only ASCII letters, digits and
# '_' a name (str.isalpha also takes 'Ñ', which no -input option could
# name). The last alternative takes any character, so matches tile the input.
_TOKEN = re.compile(
    r"""
    (?P<SKIP> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )
  | (?P<OPEN_COMMENT> /\* )
  | (?P<DEC_LIT> [0-9]+\.[0-9]+ )
  | (?P<BAD_DEC> [0-9]+\. )
  | (?P<INT_LIT> [0-9]+ )
  | (?P<IDENT> [A-Za-z_][A-Za-z0-9_]* )
  | (?P<STR_LIT> "[^"\n]*" )
  | (?P<OPEN_STR> " )
  | (?P<PUNCT> && | \|\| | == | != | <= | >= | \+\+ | -> | [<>=!+\-*/(){}\[\];,] )
  | (?P<UNKNOWN> . )
    """,
    re.VERBOSE | re.DOTALL,
)
_KINDS = {kind.name: kind for kind in TokKind}
_ERRORS = {
    "OPEN_COMMENT": "unterminated block comment",
    "BAD_DEC": "malformed decimal literal: digit expected after '.'",
    "OPEN_STR": "unterminated string literal",
}


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    """Tokenize VL source. Raises ParseError at the first lexical error."""
    toks: list[Token] = []
    line = 1
    line_start = 0  # the offset at which the line starts
    for m in _TOKEN.finditer(source):
        group, text, start = m.lastgroup, m.group(), m.start()
        if group == "SKIP":
            last_newline = text.rfind("\n")
            if last_newline >= 0:
                line += text.count("\n")
                line_start = start + last_newline + 1
            continue
        col = start - line_start + 1
        kind = _KINDS.get(group)
        if kind is None:  # an error alternative
            if group == "BAD_DEC":
                col += len(text)  # where a digit was expected
            message = _ERRORS.get(group) or f"unknown character {text!r}"
            end = col + 1 if group == "OPEN_COMMENT" else col
            raise ParseError(Diagnostic(message, Loc(file, line, col, end)))
        if kind is TokKind.IDENT and text in KEYWORDS:
            kind = TokKind.KEYWORD
        elif kind is TokKind.STR_LIT:
            text = text[1:-1]
        toks.append(Token(kind, text, line, col, file))
    toks.append(Token(TokKind.EOF, "", line, len(source) - line_start + 1, file))
    return toks
