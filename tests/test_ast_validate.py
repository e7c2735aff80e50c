from vlsym import ast
from vlsym.ast import Type, validate
from vlsym.parser import parse_program


def diags_for(src):
    return [d.message for d in validate(parse_program(src))]


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


def test_call_arity_and_types():
    src = "func f(int x) {}\nfunc main() { f(1, 2); }"
    assert any("expects 1 argument" in m for m in diags_for(src))
    src = "func f(real x) {}\nfunc main() { f(1); }"
    assert any("expects real, got int" in m for m in diags_for(src))
    src = "func f() {}\nfunc main() { var int x; x = f(); }"
    assert "'f' does not return a value" in diags_for(src)


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
