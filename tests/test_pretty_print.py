from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vlsym import ast
from vlsym.ast import frac_to_decimal, pretty_print, render_expr
from vlsym.diagnostics import Loc
from vlsym.parser import parse_program

SAMPLES = [
    "func main() {}",
    "input int N_B = 3;\ninput int N;\ninput real V[N_B];\nfunc main() { assume(1 <= N); }",
    """
func f(int n, real[] v) -> real {
  var real s = 0.0;
  var int i;
  for (i = 0; i < n; i++) {
    if (v[i] < 0.0) {
      s = s - v[i];
    } else if (v[i] < 1.0) {
      s = s + 1.0;
    } else {
      s = s + v[i];
    }
  }
  return s;
}
func main() {
  var int x;
  x = choose_int(4);
  while (0 < x) {
    x = x - 1;
  }
  print("x: ", x);
}
""",
    "func main() { var int x = (1 + 2) * 3 - (4 - 5); assert(!(x < 0) || x == 0); }",
    "func main() { var real a[3]; a[0] = 0.5; assert(equals(a, a) && len(a) == 3); }",
    """
func clear(int[] a) {
  if (a[0] < 0) {
    return;
  }
  a[0] = 0;
}
func main() {
  var int a[1];
  a[0] = 1;
  clear(a);
}
""",
]


@pytest.mark.parametrize("src", SAMPLES)
def test_round_trip(src):
    prog = parse_program(src)
    printed = pretty_print(prog)
    again = parse_program(printed)
    assert again == prog


@pytest.mark.parametrize("src", SAMPLES)
def test_idempotent(src):
    printed = pretty_print(parse_program(src))
    assert pretty_print(parse_program(printed)) == printed


@pytest.mark.parametrize(
    "spellings, printed",
    [
        (
            [
                "if (a < 1) { a = 2; } else if (a < 2) { a = 3; }",
                "if (a < 1) { a = 2; } else { if (a < 2) { a = 3; } }",
            ],
            ["if (a < 1) {", "  a = 2;", "} else if (a < 2) {", "  a = 3;", "}"],
        ),
        (
            [
                "if (a < 1) {} else if (a < 2) {} else { a = 4; }",
                "if (a < 1) {} else { if (a < 2) {} else { a = 4; } }",
            ],
            ["if (a < 1) {", "} else if (a < 2) {", "} else {", "  a = 4;", "}"],
        ),
        (["if (a < 1) {}", "if (a < 1) {} else {}"], ["if (a < 1) {", "}"]),
        (
            # an else block that holds an if and more stays a block
            ["if (a < 1) {} else { if (a < 2) {} a = 5; }"],
            ["if (a < 1) {", "} else {", "  if (a < 2) {", "  }", "  a = 5;", "}"],
        ),
    ],
    ids=["else-if", "else-if-else", "no-else", "else-block"],
)
def test_each_spelling_of_an_else_is_one_tree_that_prints_one_way(spellings, printed):
    progs = [parse_program(f"func main() {{ var int a = 1; {s} }}") for s in spellings]
    assert all(prog == progs[0] for prog in progs)
    want = "\n".join(["func main() {", "  var int a = 1;", *("  " + line for line in printed), "}", ""])
    for prog in progs:
        text = pretty_print(prog)
        assert text == want
        assert parse_program(text) == prog


def test_minimal_parens():
    out = pretty_print(parse_program("func main() { var int x = 1 + 2 * 3; }"))
    assert "var int x = 1 + 2 * 3;" in out
    out = pretty_print(parse_program("func main() { var int x = (1 + 2) * 3; }"))
    assert "var int x = (1 + 2) * 3;" in out
    out = pretty_print(parse_program("func main() { var int x = 1 - (2 - 3); }"))
    assert "var int x = 1 - (2 - 3);" in out
    out = pretty_print(parse_program("func main() { var int x = 1 - 2 - 3; }"))
    assert "var int x = 1 - 2 - 3;" in out


def test_flipped_comparison_prints_flipped():
    out = pretty_print(parse_program("func main() { var int a = 1; assert(a > 0); }"))
    assert "assert(0 < a);" in out


def test_decimal_rendering():
    assert frac_to_decimal(Fraction(1, 10)) == "0.1"
    assert frac_to_decimal(Fraction(5, 2)) == "2.5"
    assert frac_to_decimal(Fraction(2)) == "2.0"
    assert frac_to_decimal(Fraction(0)) == "0.0"
    assert frac_to_decimal(Fraction(125, 1000)) == "0.125"
    with pytest.raises(ValueError):
        frac_to_decimal(Fraction(1, 3))


@given(st.integers(0, 10**6), st.integers(0, 6))
def test_decimal_round_trips(num, places):
    v = Fraction(num, 10**places)
    text = frac_to_decimal(v)
    whole, frac = text.split(".")
    assert Fraction(int(whole + frac), 10 ** len(frac)) == v


def test_for_desugar_round_trips():
    src = (
        "func main() {\n"
        "  var int s = 0;\n"
        "  {\n"
        "    var int i = 0;\n"
        "    while (i < 4) {\n"
        "      s = s + i;\n"
        "      i = i + 1;\n"
        "    }\n"
        "  }\n"
        "  print(s);\n"
        "}\n"
    )
    prog = parse_program(
        "func main() { var int s = 0;"
        " for (var int i = 0; i < 4; i++) { s = s + i; } print(s); }"
    )
    assert pretty_print(prog) == src
    assert pretty_print(parse_program(src)) == src


LOC = Loc("<tree>", 1, 1, 1)  # locations take no part in a tree's equality
NAMES = st.sampled_from(["a", "x1", "row_ptr"]).map(lambda n: ast.Name(n, LOC))
LEAVES = st.one_of(
    st.integers(0, 10**6).map(lambda v: ast.IntLit(v, LOC)),
    st.builds(Fraction, st.integers(0, 10**6), st.sampled_from([1, 10, 100, 1000]))
    .map(lambda v: ast.DecLit(v, LOC)),
    NAMES,
)


def _wider(sub):
    return st.one_of(
        st.builds(ast.Index, NAMES, sub, st.just(LOC)),
        st.builds(ast.Unary, st.sampled_from("-!"), sub, st.just(LOC)),
        st.builds(
            ast.Binary,
            st.sampled_from([op for level in ast.BINARY_LEVELS for op in level]),
            sub,
            sub,
            st.just(LOC),
        ),
        st.builds(ast.EqualsCall, sub, sub, st.just(LOC)),
        st.builds(ast.LenCall, sub, st.just(LOC)),
    )


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.recursive(LEAVES, _wider, max_leaves=12))
def test_every_expression_tree_prints_to_source_that_parses_back_to_it(tree):
    # the printer's parentheses follow ast.BINARY_LEVELS, as the parser does
    (stmt,) = parse_program(f"func main() {{ x = {render_expr(tree)}; }}").funcs[0].body.stmts
    assert stmt.value == tree
