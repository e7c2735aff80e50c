import pytest

from vlsym import ast
from vlsym.ast import Type, validate
from vlsym.diagnostics import Loc
from vlsym.engine import SearchConfig, Stats, explore
from vlsym.parser import load_program, parse_program


def diags_for(src):
    return [d.message for d in validate(parse_program(src))]


def located(src):
    """Each diagnostic of src as (line:col-end_col, message)."""
    return located_in(parse_program(src))


def located_in(prog):
    """Each diagnostic of a parsed program as (line:col-end_col, message)."""
    return [(f"{d.loc.line}:{d.loc.col}-{d.loc.end_col}", d.message) for d in validate(prog)]


def test_valid_program_is_clean():
    src = """
input int N_B = 3;
input int N;
input real V[N_B];

func sum(real[] v, int n) -> real {
  var real s = 0.0;
  var int i;
  for (i = 0; i < n; i++) {
    s = s + v[i];
  }
  return s;
}

func main() {
  assume(1 <= N && N <= N_B);
  var real t;
  t = sum(V, N);
  assert(equals(V, V));
  print("t: ", t);
}
"""
    assert diags_for(src) == []


def test_missing_main():
    assert "missing function 'main'" in diags_for("func f() {}")


def test_main_shape():
    assert "main must take no parameters" in diags_for("func main(int x) {}")
    assert "main must not return a value" in diags_for("func main() -> int { return 1; }")


def test_duplicates():
    assert "duplicate input 'N'" in diags_for("input int N;\ninput int N;\nfunc main() {}")
    assert "duplicate function 'f'" in diags_for("func f() {}\nfunc f() {}\nfunc main() {}")
    assert "'f' is already declared as an input" in diags_for(
        "input int f;\nfunc f() {}\nfunc main() {}"
    )


def test_int_division_rejected():
    msgs = diags_for("func main() { var int x = 4 / 2; }")
    assert any("'/' requires real operands" in m for m in msgs)


def test_no_implicit_conversion():
    msgs = diags_for("func main() { var real r = 1.0; var int x = 1; var real y = r + x; }")
    assert any("same type" in m for m in msgs)


def test_assign_to_input_rejected():
    msgs = diags_for("input int N;\nfunc main() { N = 3; }")
    assert "cannot assign to input 'N'" in msgs
    msgs = diags_for("input int N;\ninput real V[N];\nfunc main() { V[0] = 1.0; }")
    assert "cannot assign to input 'V'" in msgs


def test_aliased_input_write_is_not_static():
    # writing through a parameter is a runtime matter, not a static error
    src = """
input int N;
input real V[N];
func poke(real[] a) { a[0] = 1.0; }
func main() { poke(V); }
"""
    assert diags_for(src) == []


def test_recursion_rejected():
    msgs = diags_for("func f() { g(); }\nfunc g() { f(); }\nfunc main() {}")
    assert any("recursive call cycle" in m for m in msgs)
    msgs = diags_for("func f() { f(); }\nfunc main() {}")
    assert any("recursive call cycle" in m for m in msgs)


def call_chain(last, closed=False):
    """f0 calls f1, ... calls f<last>, which calls f0 if closed."""
    funcs = [f"func f{i}() {{ f{i + 1}(); }}" for i in range(last)]
    funcs.append(f"func f{last}() {{ {'f0();' if closed else ''} }}")
    return [("chain.vl", "\n".join([*funcs, "func main() { f0(); }"]))]


def test_a_long_call_chain_is_validated_without_a_frame_per_call():
    prog = load_program(call_chain(1200))
    assert isinstance(prog, ast.Program), prog
    assert explore(prog, SearchConfig()).stats == Stats(states=1201, terminals=1)


def test_a_long_call_cycle_is_reported_once_from_its_first_function():
    (diag,) = load_program(call_chain(1200, closed=True))
    names = " -> ".join(f"f{i}" for i in range(1201))
    assert diag.message == f"recursive call cycle: {names} -> f0"
    assert diag.loc == Loc("chain.vl", 1, 1, 9)


def test_all_paths_must_return():
    src = """
func f(int n) -> int {
  if (n < 0) {
    return 0;
  }
}
func main() {}
"""
    assert any("return a value on all paths" in m for m in diags_for(src))
    src_ok = """
func f(int n) -> int {
  if (n < 0) {
    return 0;
  } else {
    return 1;
  }
}
func main() {}
"""
    assert diags_for(src_ok) == []


def test_unknown_names():
    assert "unknown name 'y'" in diags_for("func main() { var int x = y; }")
    assert "unknown function 'g'" in diags_for("func main() { g(); }")
    # a call to an unknown function is bound to nothing
    prog = parse_program("func f() {}\nfunc main() { g(); f(); }")
    assert [d.message for d in validate(prog)] == ["unknown function 'g'"]
    unknown, known = prog.func("main").body.stmts
    assert unknown.callee is None
    assert known.callee is prog.func("f")


def calls_in(stmts):
    """Every CallStmt among stmts and the statements nested in them."""
    for s in stmts:
        if isinstance(s, ast.CallStmt):
            yield s
        elif isinstance(s, ast.Block):
            yield from calls_in(s.stmts)
        elif isinstance(s, ast.If):
            yield from calls_in([s.then, s.els])
        elif isinstance(s, ast.While):
            yield from calls_in(s.body.stmts)


def test_each_call_is_bound_to_its_callee_across_files():
    lib = """
func inc(int x) -> int {
  return x + 1;
}
func twice(int[] a) {
  a[0] = 0;
  while (a[0] < 2) {
    var int t;
    t = inc(a[0]);
    a[0] = t;
  }
}
"""
    driver = """
func main() {
  var int a[1];
  twice(a);
  if (a[0] == 2) {
    var int y;
    y = inc(a[0]);
  } else {
    twice(a);
  }
}
"""
    prog = load_program([("driver.vl", driver), ("lib.vl", lib)])
    assert isinstance(prog, ast.Program), prog
    calls = [c for f in prog.funcs for c in calls_in(f.body.stmts)]
    assert [(c.loc.file, c.name) for c in calls] == [
        ("driver.vl", "twice"), ("driver.vl", "inc"), ("driver.vl", "twice"), ("lib.vl", "inc"),
    ]
    for c in calls:
        assert c.callee is prog.func(c.name)


def test_call_arity_and_types():
    src = "func f(int x) {}\nfunc main() { f(1, 2); }"
    assert any("expects 1 argument" in m for m in diags_for(src))
    src = "func f(real x) {}\nfunc main() { f(1); }"
    assert any("expects real, got int" in m for m in diags_for(src))
    src = "func f() {}\nfunc main() { var int x; x = f(); }"
    assert "'f' does not return a value" in diags_for(src)
    src = "func f() -> int {\n  return 1;\n}\nfunc main() {\n  var real x;\n  x = f();\n}"
    assert located(src) == [("6:3-10", "cannot assign int result to real")]


def test_return_statements_match_their_function():
    src = "func f() -> int {\n  return;\n}\nfunc main() {}"
    assert located(src) == [("2:3-9", "'f' must return an int")]
    src = "func f() -> real {\n  return;\n}\nfunc main() {}"
    assert located(src) == [("2:3-9", "'f' must return a real")]
    src = "func main() {\n  return 1;\n}"
    assert located(src) == [("2:3-11", "'main' does not return a value")]
    src = "func f() -> int {\n  return 1.0;\n}\nfunc main() {}"
    assert located(src) == [("2:3-13", "return type mismatch: expected int, got real")]


def test_an_if_else_if_else_returns_only_when_every_branch_does():
    src = """func f(int x) -> int {
  if (x < 0) {
    return 0;
  } else if (x < 5) {
    return 1;
  } else {
    return 2;
  }
}
func main() {}"""
    assert located(src) == []
    src = src.replace("    return 1;\n", "")
    assert located(src) == [("1:1-20", "function 'f' must return a value on all paths")]


def test_a_string_literal_outside_print_is_one_diagnostic_at_the_literal():
    src = 'func main() {\n  var int x = "a";\n}'
    (d,) = load_program([("<input>", src)])
    assert (d.loc.render(), d.message) == (
        "<input>:2:15-17", "string literals are only allowed in print",
    )


def test_equals_needs_matching_arrays():
    src = """
func main() {
  var int a[2];
  var real b[2];
  assert(equals(a, b));
}
"""
    assert any("equals expects two arrays" in m for m in diags_for(src))


def test_len_needs_array():
    assert any(
        "len expects an array" in m
        for m in diags_for("func main() { var int x = len(3); }")
    )


def test_choose_int_typing():
    msgs = diags_for("func main() { var real r; r = choose_int(3); }")
    assert "choose_int target must be an int variable" in msgs
    msgs = diags_for("func main() { var int x; x = choose_int(1.5); }")
    assert "choose_int expects an int" in msgs


def test_extent_scope_is_prior_int_inputs():
    msgs = diags_for("input real V[M];\ninput int M;\nfunc main() {}")
    assert "unknown name 'M'" in msgs
    msgs = diags_for("input real A[2];\ninput real V[A];\nfunc main() {}")
    assert "unknown name 'A'" in msgs  # real inputs are not in extent scope


def test_default_must_be_positive():
    msgs = diags_for("input int N = 0;\nfunc main() {}")
    assert any("must be positive" in m for m in msgs)


def test_shadowing_rules():
    # inner block may shadow an outer local
    src = """
func main() {
  var int x = 1;
  if (x < 2) {
    var int x = 2;
    print(x);
  }
}
"""
    assert diags_for(src) == []
    msgs = diags_for("func main() { var int x = 1; var int x = 2; }")
    assert "variable 'x' already declared in this scope" in msgs
    msgs = diags_for("input int N;\nfunc main() { var int N = 1; }")
    assert "'N' shadows an input or function" in msgs
    src = "input int N;\nfunc f(int N) {}\nfunc main() {}"
    assert located(src) == [("2:8-12", "parameter 'N' shadows an input or function")]


def test_arrays_cannot_be_reassigned():
    src = "func main() { var int a[2]; var int b[2]; a = b; }"
    assert any("arrays cannot be reassigned" in m for m in diags_for(src))


def test_condition_types():
    msgs = diags_for("func main() { if (1) {} }")
    assert "condition must be a bool" in msgs
    msgs = diags_for("func main() { assert(3); }")
    assert "assert expects a bool" in msgs
    msgs = diags_for("func main() { assume(2.0); }")
    assert "assume expects a bool" in msgs


def test_operator_operand_types():
    src = "func main() {\n  var int x = 1;\n  assert(!x);\n}"
    assert located(src) == [("3:10-11", "'!' requires a bool operand")]
    src = "func main() {\n  var int y = -(1 < 2);\n}"
    assert located(src) == [("2:15-21", "unary '-' requires an int or real operand")]
    src = "func main() {\n  assert(1 && 2 < 3);\n}"
    assert located(src) == [("2:10-19", "'&&' requires bool operands")]


def test_print_rejects_bool():
    msgs = diags_for("func main() { print(1 < 2); }")
    assert "cannot print a bool" in msgs


def test_annotations_are_set():
    prog = parse_program("func main() { var real s = 0.5; var real t = s * s; }")
    assert prog.func("main").slots is None
    assert validate(prog) == []
    init = prog.func("main").body.stmts[1].init
    assert init.ty is Type.REAL
    assert init.lhs.ty is Type.REAL
    assert prog.func("main").slots == ("s", "t")

    # every name is bound to its frame slot, or to None for an input
    src = """
input int N;
func f(int n, real[] v) -> int {
  var int k = n + N;
  {
    var int k = k;
    var int a[k];
    a[0] = n;
  }
  while (k < n) {
    var real k2 = v[0];
  }
  return k;
}
func main() {}
"""
    prog = parse_program(src)
    assert validate(prog) == []
    f = prog.func("f")
    # parameters first, then each declaration in the order it is met
    assert f.slots == ("n", "v", "k", "k", "a", "k2")
    outer, block, loop, ret = f.body.stmts
    assert outer.slot == 2
    assert (outer.init.lhs.slot, outer.init.rhs.slot) == (0, None)  # N is an input
    inner, arr, write = block.stmts
    # the initializer reads the outer k; the block's k shadows it after
    assert (inner.slot, inner.init.slot) == (3, 2)
    assert (arr.slot, arr.extent.slot) == (4, 3)
    assert (write.target.base.slot, write.value.slot) == (4, 0)
    assert (loop.cond.lhs.slot, loop.cond.rhs.slot) == (2, 0)
    (decl,) = loop.body.stmts
    assert (decl.slot, decl.init.base.slot) == (5, 1)
    assert ret.value.slot == 2
    assert prog.func("main").slots == ()


def test_diagnostics_sorted_by_location():
    src = "func main() {\n  var int a = y;\n  var int b = z;\n}"
    diags = validate(parse_program(src))
    lines = [d.loc.line for d in diags]
    assert lines == sorted(lines)


@pytest.mark.parametrize(
    "src, diags",
    [
        ("func f(int a, int a) {} func main() {}", [("1:15-19", "duplicate parameter 'a'")]),
        ("func main() { var int x; x = 1.0; }", [("1:26-33", "cannot assign real to int")]),
        (
            # the arguments of an unknown function are still checked
            "func main() { g(1 + 2.0); }",
            [
                ("1:15-25", "unknown function 'g'"),
                ("1:17-23", "'+' requires int or real operands of the same type"),
            ],
        ),
        ("func main() { var int x = 1; var int y = x[0]; }", [("1:42-42", "cannot index int 'x'")]),
        (
            "func main() { var int x = 1; if (x < 1.0) {} }",
            [("1:34-40", "'<' requires int or real operands of the same type")],
        ),
        # an unknown operand gives no second error for its comparison
        ("func main() { if (q < 1) {} }", [("1:19-19", "unknown name 'q'")]),
        # nor does an unknown array for its indexing, whose index is still checked
        ("func main() { var int y = q[0]; }", [("1:27-27", "unknown name 'q'")]),
        (
            "func main() { var int y = q[1 + 2.0]; }",
            [
                ("1:27-27", "unknown name 'q'"),
                ("1:29-35", "'+' requires int or real operands of the same type"),
            ],
        ),
    ],
    ids=[
        "duplicate-param", "real-to-int", "unknown-call", "index-int", "int-vs-real", "unknown-name",
        "unknown-array", "unknown-array-bad-index",
    ],
)
def test_each_check_reports_its_one_diagnostic_where_it_fails(src, diags):
    assert located(src) == diags
