from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vlsym.lexer import LexError, TokKind, Token, decimal_to_fraction, tokenize


def kinds_and_lexemes(toks):
    return [(t.kind, t.lexeme) for t in toks if t.kind is not TokKind.EOF]


def test_statement_tokens():
    toks = tokenize("s = x*y+s;")
    assert kinds_and_lexemes(toks) == [
        (TokKind.IDENT, "s"),
        (TokKind.PUNCT, "="),
        (TokKind.IDENT, "x"),
        (TokKind.PUNCT, "*"),
        (TokKind.IDENT, "y"),
        (TokKind.PUNCT, "+"),
        (TokKind.IDENT, "s"),
        (TokKind.PUNCT, ";"),
    ]


def test_empty_input_is_just_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind is TokKind.EOF


def test_keywords_vs_identifiers():
    toks = tokenize("while whilex _while for4")
    assert kinds_and_lexemes(toks) == [
        (TokKind.KEYWORD, "while"),
        (TokKind.IDENT, "whilex"),
        (TokKind.IDENT, "_while"),
        (TokKind.IDENT, "for4"),
    ]


def test_two_char_puncts_take_priority():
    toks = tokenize("a<=b && c++ -> d")
    lexemes = [t.lexeme for t in toks if t.kind is TokKind.PUNCT]
    assert lexemes == ["<=", "&&", "++", "->"]


def test_decimal_literal_exact():
    toks = tokenize("0.1")
    assert toks[0].kind is TokKind.DEC_LIT
    assert decimal_to_fraction(toks[0].lexeme) == Fraction(1, 10)
    assert decimal_to_fraction("2.50") == Fraction(5, 2)


def test_only_ascii_digits_make_a_number():
    # str.isdigit takes both of these, and int('²') raises
    for source, char in (("var int x = ²;", "²"), ("var int x = ٣;", "٣")):
        with pytest.raises(LexError) as exc:
            tokenize(source)
        assert exc.value.diagnostic.message == f"unknown character {char!r}"
        assert exc.value.diagnostic.loc.col == 13
    assert kinds_and_lexemes(tokenize("7.25")) == [(TokKind.DEC_LIT, "7.25")]


def test_double_dot_is_a_lex_error():
    with pytest.raises(LexError) as exc:
        tokenize("x = 1..2;")
    assert "decimal" in exc.value.diagnostic.message


def test_bare_dot_is_unknown():
    with pytest.raises(LexError):
        tokenize("a . b")


def test_line_and_column_positions():
    toks = tokenize("ab\n  cd")
    a, c = toks[0], toks[1]
    assert (a.line, a.col) == (1, 1)
    assert (c.line, c.col) == (2, 3)
    assert c.loc.render() == "<input>:2:3-4"


def test_comments_are_skipped():
    toks = tokenize("a // trailing\nb /* span\nlines */ c")
    assert [t.lexeme for t in toks if t.kind is TokKind.IDENT] == ["a", "b", "c"]


def test_unterminated_block_comment():
    with pytest.raises(LexError) as exc:
        tokenize("a /* never closed")
    assert "unterminated block comment" in exc.value.diagnostic.message


def test_string_literal_for_print():
    toks = tokenize('print("n: ", n);')
    strs = [t for t in toks if t.kind is TokKind.STR_LIT]
    assert len(strs) == 1
    assert strs[0].lexeme == "n: "


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('print("oops);')


IDENT_CHARS = st.text("abcdefgxyz_", min_size=1, max_size=6)


@given(st.lists(IDENT_CHARS, min_size=0, max_size=20))
def test_idents_round_trip_through_whitespace(words):
    src = "  ".join(words)
    toks = tokenize(src)
    lexed = [t.lexeme for t in toks if t.kind in (TokKind.IDENT, TokKind.KEYWORD)]
    assert lexed == words


@given(st.text(alphabet="abc019 \n\t=<>!&|+-*/(){}[];,", max_size=80))
def test_arbitrary_soup_never_crashes(src):
    # either a token list or a LexError; nothing else
    try:
        toks = tokenize(src)
    except LexError:
        return
    assert toks[-1].kind is TokKind.EOF
