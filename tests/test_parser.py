import pytest

from vlsym import ast
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


def test_else_if_chain():
    stmts = body_of(
        "func main() { var int a = 1; if (a < 1) {} else if (a < 2) {} else {} }"
    )
    node = stmts[1]
    assert isinstance(node.els, ast.If)
    assert isinstance(node.els.els, ast.Block)


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
