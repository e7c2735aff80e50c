from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from vlsym.diagnostics import Loc, ParseError
from vlsym.lexer import TokKind, Token, decimal_to_fraction, tokenize


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
        with pytest.raises(ParseError) as exc:
            tokenize(source)
        assert exc.value.diagnostic.message == f"unknown character {char!r}"
        assert exc.value.diagnostic.loc.col == 13
    assert kinds_and_lexemes(tokenize("7.25")) == [(TokKind.DEC_LIT, "7.25")]


def test_only_ascii_letters_digits_and_underscores_make_a_name():
    # str.isalpha takes 'Ñ' and str.isalnum '²', but an -input option can
    # name only an ASCII identifier
    for source, char, col in (
        ("input int Ñ = 2;", "Ñ", 11),
        ("var int x² = 1;", "²", 10),
        ("var int é;", "é", 9),
    ):
        with pytest.raises(ParseError) as exc:
            tokenize(source)
        assert exc.value.diagnostic.message == f"unknown character {char!r}"
        assert exc.value.diagnostic.loc.col == col
    assert kinds_and_lexemes(tokenize("_a9Z z_0")) == [
        (TokKind.IDENT, "_a9Z"),
        (TokKind.IDENT, "z_0"),
    ]


def test_double_dot_is_a_lex_error():
    with pytest.raises(ParseError) as exc:
        tokenize("x = 1..2;")
    assert "decimal" in exc.value.diagnostic.message


def test_bare_dot_is_unknown():
    with pytest.raises(ParseError):
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
    with pytest.raises(ParseError) as exc:
        tokenize("a /* never closed")
    assert "unterminated block comment" in exc.value.diagnostic.message


@pytest.mark.parametrize(
    "source, message, loc",
    [
        # at the second dot, the character where a digit was expected
        ("x = 1..2;", "malformed decimal literal: digit expected after '.'", (1, 7, 7)),
        # past the end of the input
        ("x = 1.", "malformed decimal literal: digit expected after '.'", (1, 7, 7)),
        # at the opening quote, also where the line ends first
        ('print("oops);', "unterminated string literal", (1, 7, 7)),
        ('a\n  print("ab\nc");', "unterminated string literal", (2, 9, 9)),
        # at the '/*', two columns wide
        ("a\n b /* never closed", "unterminated block comment", (2, 4, 5)),
        ("a /*/", "unterminated block comment", (1, 3, 4)),
        ("a\n\tb $", "unknown character '$'", (2, 4, 4)),
        ("a . b", "unknown character '.'", (1, 3, 3)),
    ],
)
def test_lex_error_message_and_loc(source, message, loc):
    with pytest.raises(ParseError) as exc:
        tokenize(source, "f.vl")
    assert exc.value.diagnostic.message == message
    assert exc.value.diagnostic.loc == Loc("f.vl", *loc)


def positions(toks):
    return [(t.kind, t.lexeme, t.line, t.col) for t in toks]


def test_positions_after_a_block_comment_spanning_lines():
    toks = tokenize("a /* one\ntwo\n */ b\n  c")
    assert positions(toks) == [
        (TokKind.IDENT, "a", 1, 1),
        (TokKind.IDENT, "b", 3, 5),
        (TokKind.IDENT, "c", 4, 3),
        (TokKind.EOF, "", 4, 4),
    ]


def test_positions_after_crlf():
    # '\r' takes a column, as a space does, and '\n' starts the next line
    toks = tokenize("a\r\nb\r\n c \r")
    assert positions(toks) == [
        (TokKind.IDENT, "a", 1, 1),
        (TokKind.IDENT, "b", 2, 1),
        (TokKind.IDENT, "c", 3, 2),
        (TokKind.EOF, "", 3, 5),
    ]


def test_eof_after_a_trailing_line_comment():
    assert positions(tokenize("a // end")) == [
        (TokKind.IDENT, "a", 1, 1),
        (TokKind.EOF, "", 1, 9),
    ]
    assert positions(tokenize("a\n// end\n"))[-1] == (TokKind.EOF, "", 3, 1)


def test_string_literal_for_print():
    toks = tokenize('print("n: ", n);')
    strs = [t for t in toks if t.kind is TokKind.STR_LIT]
    assert len(strs) == 1
    assert strs[0].lexeme == "n: "


def test_unterminated_string():
    with pytest.raises(ParseError):
        tokenize('print("oops);')


IDENT_CHARS = st.text("abcdefgxyz_", min_size=1, max_size=6)


@given(st.lists(IDENT_CHARS, min_size=0, max_size=20))
def test_idents_round_trip_through_whitespace(words):
    src = "  ".join(words)
    toks = tokenize(src)
    lexed = [t.lexeme for t in toks if t.kind in (TokKind.IDENT, TokKind.KEYWORD)]
    assert lexed == words


@given(st.text(alphabet='abc019 .\n\t\r"=<>!&|+-*/(){}[];,Ñ²', max_size=80))
def test_arbitrary_soup_never_crashes(src):
    # either a token list or a ParseError; nothing else
    try:
        toks = tokenize(src)
    except ParseError:
        return
    assert toks[-1].kind is TokKind.EOF
