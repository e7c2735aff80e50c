import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vlsym.values import (
    DivisionByZero,
    MissingAssignment,
    NonConstantDivisor,
    Poly,
    SymConst,
    SymKind,
    SymInt,
    make_int,
)


def real_sym(name, index, ordinal):
    return SymConst(name, index, SymKind.REAL, ordinal)


XA0 = real_sym("A", 0, 10)
XA1 = real_sym("A", 1, 11)
XA2 = real_sym("A", 2, 12)
XV0 = real_sym("V", 0, 20)
XV1 = real_sym("V", 1, 21)

SYMS = [XA0, XA1, XA2, XV0, XV1]


def sym(s):
    return Poly.symbol(s)


def const(x):
    return Poly.const(x)


# --- independent oracle: random expression trees evaluated directly ---------

OPS = ("add", "sub", "mul", "neg")
POLY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ("const", Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return ("sym", rng.choice(SYMS))
    op = rng.choice(OPS)
    if op == "neg":
        return (op, random_tree(rng, depth - 1))
    return (op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def tree_to_poly(t):
    if t[0] == "const":
        return const(t[1])
    if t[0] == "sym":
        return sym(t[1])
    if t[0] == "neg":
        return -tree_to_poly(t[1])
    return POLY_OPS[t[0]](tree_to_poly(t[1]), tree_to_poly(t[2]))


def tree_eval(t, point):
    if t[0] == "const":
        return t[1]
    if t[0] == "sym":
        return point[t[1]]
    if t[0] == "neg":
        return -tree_eval(t[1], point)
    a, b = tree_eval(t[1], point), tree_eval(t[2], point)
    return {"add": a + b, "sub": a - b, "mul": a * b}[t[0]]


def random_point(rng):
    return {s: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for s in SYMS}


def test_poly_matches_direct_tree_evaluation():
    rng = random.Random(7)
    for _ in range(400):
        t = random_tree(rng, 3)
        p = tree_to_poly(t)
        for _ in range(3):
            point = random_point(rng)
            assert p.eval(point) == tree_eval(t, point)


# --- spec'd arithmetic cases -------------------------------------------------


def test_add_then_sub_cancels_to_zero():
    p = sym(XA0) * sym(XV0) + sym(XA1) * sym(XV1)
    assert (p - p).is_zero()
    assert (p - p) == Poly()


def test_mul_distributes_over_sum():
    got = (sym(XA0) + const(2)) * sym(XV0)
    want = sym(XA0) * sym(XV0) + const(2) * sym(XV0)
    assert got == want


def test_mul_commutes_on_random_inputs():
    rng = random.Random(13)
    for _ in range(200):
        a = tree_to_poly(random_tree(rng, 3))
        b = tree_to_poly(random_tree(rng, 3))
        assert a * b == b * a


def test_div_by_constant_scales():
    assert sym(XA0).scale(2).div(const(2)) == sym(XA0)


def test_div_by_zero_poly():
    with pytest.raises(DivisionByZero):
        sym(XA0).div(Poly())


def test_div_by_symbolic_divisor():
    with pytest.raises(NonConstantDivisor):
        sym(XA0).div(sym(XV0))


def test_eval_simple_product():
    p = sym(XA0) * sym(XV0)
    assert p.eval({XA0: 1, XV0: 1}) == 1


def test_eval_zero_poly_is_zero():
    assert Poly().eval({}) == 0
    assert Poly().eval({XA0: 5}) == 0


def test_eval_missing_symbol_raises():
    with pytest.raises(MissingAssignment):
        (sym(XA0) * sym(XV0)).eval({XA0: 1})


# --- ring axioms (hypothesis) ------------------------------------------------

poly_strategy = st.builds(
    tree_to_poly,
    st.builds(lambda seed: random_tree(random.Random(seed), 3), st.integers(0, 10**9)),
)


@given(poly_strategy, poly_strategy, poly_strategy)
@settings(max_examples=200)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a + Poly() == a
    assert a * const(1) == a


# --- canonical form iff point agreement (Schwartz-Zippel style) --------------


def test_zero_diff_iff_agreement_at_random_points():
    rng = random.Random(99)
    for _ in range(100):
        t = random_tree(rng, 3)
        p = tree_to_poly(t)
        q = tree_to_poly(random_tree(rng, 3))

        def agree_everywhere(x, y):
            pts = [random_point(random.Random(1000 + k)) for k in range(64)]
            return all(x.eval(pt) == y.eval(pt) for pt in pts)

        if (p - q).is_zero():
            assert agree_everywhere(p, q)
        else:
            assert not agree_everywhere(p, q)
        # a structurally different build of the same function still compares equal
        p2 = tree_to_poly(("add", t, ("const", Fraction(0))))
        assert (p - p2).is_zero()
        assert agree_everywhere(p, p2)


def test_coefficients_stay_normalized():
    p = const(Fraction(2, 4)) * sym(XA0) + const(Fraction(-3, 6)) * sym(XA0)
    assert p.is_zero()
    q = const(Fraction(6, 4)).scale(Fraction(2, 3))
    assert q.const_value() == 1
    for coeff in (sym(XA0).scale(Fraction(10, -15))).terms.values():
        assert coeff.denominator > 0
        import math

        assert math.gcd(abs(coeff.numerator), coeff.denominator) == 1


# --- rendering ---------------------------------------------------------------


def test_render_matches_trace_style():
    assert (sym(XA0) * sym(XV0) + const(2)).render() == "X_A[0]*X_V[0] + 2"
    assert sym(XA0).render() == "X_A[0]"
    assert Poly().render() == "0"
    assert (const(-2) + sym(XA1).scale(-1)).render() == "-X_A[1] - 2"
    n = SymConst("N", None, SymKind.INT, 0)
    assert Poly.symbol(n).render() == "N"


def test_make_int_collapses_constants():
    n = SymConst("N", None, SymKind.INT, 0)
    v = make_int(Poly.const(3))
    assert type(v) is int and v == 3
    v = make_int(Poly.symbol(n))
    assert isinstance(v, SymInt)
    v = make_int(Poly.symbol(n) - Poly.symbol(n))
    assert type(v) is int and v == 0


# --- symbol hashing ------------------------------------------------------------


def test_equal_symbols_built_apart_hash_equal():
    for make in (lambda: real_sym("A", 2, 12), lambda: SymConst("N", None, SymKind.INT, 0)):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_symbol_keys_survive_a_process_with_another_hash_seed(tmp_path):
    syms = SYMS + [SymConst("N", None, SymKind.INT, 0), SymConst("M", None, SymKind.INT, 1)]
    keyed = {s: Fraction(i, 7) for i, s in enumerate(syms)}
    (tmp_path / "keyed.pickle").write_bytes(pickle.dumps(keyed))
    # the child rebuilds every symbol, looks each up in the loaded dict and
    # prints the hashes it computes
    code = (
        "import pickle, sys\n"
        "from vlsym.values import SymConst\n"
        "keyed = pickle.load(open(sys.argv[1], 'rb'))\n"
        "for s in keyed:\n"
        "    fresh = SymConst(s.name, s.index, s.kind, s.ord)\n"
        "    print(fresh.render(), hash(fresh), keyed[fresh])\n"
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "keyed.pickle")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True,
        )
        assert proc.stdout.splitlines() == [
            f"{s.render()} {hash(s)} {value}" for s, value in keyed.items()
        ]
