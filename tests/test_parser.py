import pytest

from vlsym import ast, parser
from vlsym.diagnostics import Diagnostic, Loc
from vlsym.parser import ParseError, load_program, parse_files, parse_program


def body_of(src, name="main"):
    prog = parse_program(src)
    return prog.func(name).body.stmts


def test_minimal_program():
    prog = parse_program("func main() {}")
    assert prog.inputs == []
    assert len(prog.funcs) == 1
    assert prog.funcs[0].name == "main"
    assert prog.funcs[0].ret is ast.Type.VOID
    assert prog.funcs[0].body.stmts == []


def test_input_forms():
    prog = parse_program(
        "input int N_B = 3;\ninput int N;\ninput real V[N_B];\nfunc main() {}"
    )
    nb, n, v = prog.inputs
    assert (nb.name, nb.default) == ("N_B", 3)
    assert (n.name, n.default) == ("N", None)
    assert v.ty is ast.Type.REAL_ARRAY
    assert isinstance(v.extent, ast.Name) and v.extent.name == "N_B"


def test_params_and_return_type():
    prog = parse_program("func f(int n, real[] v, int[] p) -> int { return n; }\nfunc main() {}")
    f = prog.func("f")
    assert [p.ty for p in f.params] == [ast.Type.INT, ast.Type.REAL_ARRAY, ast.Type.INT_ARRAY]
    assert f.ret is ast.Type.INT


def test_for_desugars_to_while():
    stmts = body_of(
        "func main() { var int i; var int s = 0; for (i = 0; i < 3; i++) { s = s + 1; } }"
    )
    init, loop = stmts[2], stmts[3]
    assert isinstance(init, ast.Assign)
    assert init.target.name == "i"
    assert isinstance(loop, ast.While)
    assert isinstance(loop.cond, ast.Binary) and loop.cond.op == "<"
    body, update = loop.body.stmts
    assert isinstance(update, ast.Assign)
    assert update.target.name == "i"
    assert isinstance(update.value, ast.Binary) and update.value.op == "+"


def test_for_without_init():
    stmts = body_of("func main() { var int h = 0; for (; h < 2; h++) {} }")
    assert len(stmts) == 2
    assert isinstance(stmts[1], ast.While)
    assert len(stmts[1].body.stmts) == 1  # just the update


def test_greater_than_flips():
    stmts = body_of("func main() { var int a = 1; var int b = 2; if (a > b) {} if (a >= b) {} }")
    gt, ge = stmts[2].cond, stmts[3].cond
    assert gt.op == "<" and gt.lhs.name == "b" and gt.rhs.name == "a"
    assert ge.op == "<=" and ge.lhs.name == "b" and ge.rhs.name == "a"


def test_comparison_chain_rejected():
    with pytest.raises(ParseError, match="do not chain"):
        parse_program("func main() { var int a = 1; if (a < a < a) {} }")


def test_choose_int_only_as_whole_rhs():
    parse_program("func main() { var int x; x = choose_int(3); }")
    with pytest.raises(ParseError, match="choose_int"):
        parse_program("func main() { var int x; x = choose_int(3) + 1; }")
    with pytest.raises(ParseError, match="choose_int"):
        parse_program("func main() { var int x; x = 1 + choose_int(3); }")


def test_calls_are_statement_only():
    stmts = body_of("func f() -> int { return 1; }\nfunc main() { var int x; x = f(); f(); }")
    call1, call2 = stmts[1], stmts[2]
    assert isinstance(call1, ast.CallStmt) and call1.target.name == "x"
    assert isinstance(call2, ast.CallStmt) and call2.target is None
    with pytest.raises(ParseError, match="only allowed as statements"):
        parse_program("func main() { var int x; x = f() + 1; }")


def test_string_only_in_print():
    parse_program('func main() { print("x: ", 1); }')
    with pytest.raises(ParseError, match="string"):
        parse_program('func main() { var int x; x = "no"; }')


def test_a_string_literal_spans_its_quotes():
    for literal, end_col in (('"abc"', 31), ('""', 28)):
        with pytest.raises(ParseError) as exc:
            parse_program(f"func main() {{ var int x = {literal}; }}")
        assert exc.value.diagnostic.loc.render() == f"<input>:1:27-{end_col}"
    stmts = body_of('func main() { print("n: ", 1); }')
    assert stmts[0].args[0].loc.render() == "<input>:1:21-25"


def test_else_if_chain():
    stmts = body_of(
        "func main() { var int a = 1; if (a < 1) {} else if (a < 2) {} else {} }"
    )
    node = stmts[1]
    # the else side is always a block; for else if, a block of just the
    # inner if, located at it
    assert isinstance(node.els, ast.Block)
    (inner,) = node.els.stmts
    assert isinstance(inner, ast.If)
    assert node.els.loc == inner.loc and inner.loc.render() == "<input>:1:49-58"
    assert isinstance(inner.els, ast.Block) and inner.els.stmts == []
    (no_else,) = body_of("func main() { if (1 < 2) {} }")
    assert isinstance(no_else.els, ast.Block) and no_else.els.stmts == []


def test_precedence():
    stmts = body_of("func main() { var int x = 1 + 2 * 3; }")
    init = stmts[0].init
    assert init.op == "+"
    assert isinstance(init.rhs, ast.Binary) and init.rhs.op == "*"


def test_unary_binds_tighter_than_mul():
    stmts = body_of("func main() { var int x = -1 * 2; }")
    init = stmts[0].init
    assert init.op == "*"
    assert isinstance(init.lhs, ast.Unary)


def test_error_has_location():
    with pytest.raises(ParseError) as exc:
        parse_program("func main() {\n  var int x = ;\n}")
    loc = exc.value.diagnostic.loc
    assert (loc.line, loc.col) == (2, 15)


def test_parse_files_merges():
    prog = parse_files(
        [
            ("a.vl", "input int N;\nfunc f() {}\n"),
            ("b.vl", "func main() { f(); }\n"),
        ]
    )
    assert isinstance(prog, ast.Program)
    assert [f.name for f in prog.funcs] == ["f", "main"]
    assert prog.funcs[0].loc.file == "a.vl"


def test_parse_files_reports_diagnostics():
    result = parse_files([("bad.vl", "func main( {}")])
    assert isinstance(result, list)
    assert result[0].loc.file == "bad.vl"


def test_deep_nesting_fails_cleanly():
    src = "func main() { var int x = " + "(" * 300 + "1" + ")" * 300 + "; }"
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_program(src)


def parenthesised(levels):
    return [("deep.vl", "func main() { var int x = " + "(" * levels + "1" + ")" * levels + "; }")]


def test_nesting_within_the_limit_parses():
    (stmt,) = parse_files(parenthesised(90)).func("main").body.stmts
    assert stmt.init == ast.IntLit(1, None)


@pytest.mark.parametrize("levels", [99, 120, 400])
def test_nesting_past_the_limit_is_refused_where_parsing_stopped(levels):
    (diag,) = parse_files(parenthesised(levels))
    assert diag.message == "nesting too deep"
    assert diag.loc.line == 1 and diag.loc.col > 1


def test_running_out_of_stack_reports_nesting_too_deep_at_the_token_reached(monkeypatch):
    def out_of_stack(self):
        raise RecursionError

    monkeypatch.setattr(parser._Parser, "primary", out_of_stack)
    (diag,) = parse_files([("r.vl", "func main() {\n  var int x = 7;\n}")])
    assert diag == Diagnostic("nesting too deep", Loc("r.vl", 2, 15, 15))


CHAINS = {
    "+": "func main() { var int x = %s; }",
    "||": "input int N; func main() { assert(%s); }",
}
TERMS = {"+": "1", "||": "N == 0"}


@pytest.mark.parametrize("op", ["+", "||"])
def test_long_operator_chains_count_toward_the_nesting_limit(op):
    # a chain is parsed in a loop but builds a tree as deep as it is long,
    # which validation and the engine walk recursively
    def chained(n):
        return [("chain.vl", CHAINS[op] % f" {op} ".join([TERMS[op]] * n))]

    assert isinstance(load_program(chained(150)), ast.Program)
    (diag,) = load_program(chained(600))
    assert diag.message == "nesting too deep"


def test_long_else_if_chains_count_toward_the_nesting_limit():
    # each else if is a block of the next if, so a chain builds a tree as
    # deep as it is long, which validation walks recursively
    def chained(n):
        links = "".join(f"else if (a < {i}) {{}} " for i in range(n))
        return [("chain.vl", f"func main() {{ var int a = 1; if (a < 0) {{}} {links}}}")]

    assert isinstance(load_program(chained(150)), ast.Program)
    (diag,) = load_program(chained(600))
    assert diag.message == "nesting too deep"


def test_missing_brace():
    with pytest.raises(ParseError, match="before end of input"):
        parse_program("func main() { var int x = 1;")


def test_for_with_var_init_scopes_the_loop_variable():
    prog = parse_program(
        """
        func main() {
          for (var int i = 0; i < 2; i++) {
            print(i);
          }
        }
        """
    )
    (wrapper,) = prog.func("main").body.stmts
    assert isinstance(wrapper, ast.Block)
    decl, loop = wrapper.stmts
    assert isinstance(decl, ast.VarDecl) and decl.name == "i"
    assert isinstance(loop, ast.While)


def test_sibling_for_loops_can_reuse_the_variable():
    prog = parse_program(
        """
        func main() {
          var int s = 0;
          for (var int i = 0; i < 2; i++) { s = s + i; }
          for (var int i = 0; i < 3; i++) { s = s + i; }
        }
        """
    )
    assert ast.validate(prog) == []


def test_bare_block_statement():
    prog = parse_program(
        """
        func main() {
          var int x = 1;
          {
            var int y = x + 1;
            print(y);
          }
        }
        """
    )
    stmts = prog.func("main").body.stmts
    assert isinstance(stmts[1], ast.Block)
    assert ast.validate(prog) == []


def test_for_init_with_bad_type_is_a_parse_error():
    with pytest.raises(ParseError, match="expected 'int' or 'real'"):
        parse_program("func main() { for (var bogus i = 0; i < 3; i++) {} }")
