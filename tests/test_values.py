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
    RealVal,
    SymConst,
    SymKind,
    int_poly,
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


# --- int-or-Fraction coefficients against a plain dict model ------------------
#
# The model maps each monomial to a Fraction and drops zeros; it knows nothing
# of the int path, so each Poly result must equal it term by term, and its
# coefficients must be ints exactly where the model's are integral.

def _norm(terms):
    return {m: Fraction(c) for m, c in terms.items() if c != 0}


def m_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _norm(out)


def m_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(sorted(ma + mb, key=lambda s: s.ord))
            out[m] = out.get(m, 0) + ca * cb
    return _norm(out)


def m_scale(a, k):
    return _norm({m: c * k for m, c in a.items()})


def m_substitute(a, assignment):
    out = {}
    for m, c in a.items():
        rest = tuple(s for s in m if s not in assignment)
        for s in m:
            if s in assignment:
                c = c * assignment[s]
        out[rest] = out.get(rest, 0) + c
    return _norm(out)


def m_eval(a, point):
    total = Fraction(0)
    for m, c in a.items():
        for s in m:
            c = c * point[s]
        total += c
    return total


def m_render(a):
    parts = []
    for m in sorted(a, key=lambda m: (len(m), [s.ord for s in m]), reverse=True):
        c = a[m]
        mono = "*".join(s.render() for s in m)
        body = str(abs(c)) if not m else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = "" if c > 0 else "-"
        parts.append(f"{sign}{body}" if not parts else f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) or "0"


def assert_matches(p, model):
    assert p.terms == model
    for c in p.terms.values():
        assert c != 0
        assert (type(c) is int) == (Fraction(c).denominator == 1), c
        assert type(c) in (int, Fraction)
    # the same poly with every coefficient held as a Fraction, as a solver
    # memo or Atom hash built by the Fraction path would see it
    as_fractions = object.__new__(Poly)
    as_fractions.terms = {m: Fraction(c) for m, c in p.terms.items()}
    assert as_fractions == p and hash(as_fractions) == hash(p)
    assert p.render() == as_fractions.render() == m_render(model)


# coefficients integral or not, written as ints or as Fractions
coefficients = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
monomials = st.lists(st.sampled_from(SYMS), max_size=2).map(
    lambda ss: tuple(sorted(ss, key=lambda s: s.ord))
)
models = st.dictionaries(monomials, coefficients, max_size=4).map(_norm)


def build(model, route):
    """A Poly for the model, built term by term through the operators: on
    the int route from int constants where the coefficient is integral, on
    the Fraction route from a third of it times 3."""
    p = Poly()
    for m, c in model.items():
        if route == "int":
            term = const(int(c) if c.denominator == 1 else c)
        else:
            term = const(c / 3) * const(3)
        for s in m:
            term = term * Poly.symbol(s)
        p = p + term
    return p


@given(models, models, coefficients, st.sampled_from(["int", "fraction"]),
       st.dictionaries(st.sampled_from(SYMS), coefficients, max_size=3),
       st.fixed_dictionaries({s: coefficients for s in SYMS}))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_coefficient_rules_match_a_fraction_model(ma, mb, k, route, assignment, point):
    a, b = build(ma, route), build(mb, route)
    assert_matches(a, ma)
    assert_matches(b, mb)
    # the int route and the Fraction route build equal polys, hashed alike
    for model, p in ((ma, a), (mb, b)):
        other = build(model, "fraction" if route == "int" else "int")
        assert_matches(other, model)
        assert other == p and hash(other) == hash(p)
    assert_matches(a + b, m_add(ma, mb))
    assert_matches(a - b, m_add(ma, m_scale(mb, -1)))
    assert_matches(-a, m_scale(ma, -1))
    assert_matches(a * b, m_mul(ma, mb))
    assert_matches(a.scale(k), m_scale(ma, Fraction(k)))
    if k != 0:
        assert_matches(a.div(Poly.const(k)), m_scale(ma, 1 / Fraction(k)))
    assert_matches(a.substitute(assignment), m_substitute(ma, assignment))
    value = a.eval(point)
    assert value == m_eval(ma, point)
    if all(type(c) is int for c in a.terms.values()) and all(
        type(x) is int for x in point.values()
    ):
        assert type(value) is int


def test_eval_at_an_int_point_stays_on_ints():
    n = SymConst("N", None, SymKind.INT, 0)
    m = SymConst("M", None, SymKind.INT, 1)
    p = Poly.symbol(n) * Poly.symbol(m).scale(3) + Poly.symbol(n).scale(2) - const(5)
    assert all(type(c) is int for c in p.terms.values())
    value = p.eval({n: 2, m: 3})
    assert type(value) is int and value == 17
    assert type(Poly().eval({})) is int
    # a Fraction anywhere makes a Fraction, and an integral one still equals
    assert p.eval({n: Fraction(2), m: 3}) == 17


def test_integral_results_of_fraction_arithmetic_go_back_to_ints():
    half = const(Fraction(1, 2))
    x = sym(XA0)
    for p in (half + half, (half * x) * const(2), x.scale(Fraction(1, 2)).scale(2),
              x.div(const(Fraction(1, 3))), (x * half).substitute({XA0: 4}),
              half - const(Fraction(-1, 2))):
        assert all(type(c) is int for c in p.terms.values()), p.terms
    assert type(const(Fraction(4, 2)).const_value()) is int
    assert type(const(Fraction(1, 2)).const_value()) is Fraction
    assert type(Poly().const_value()) is int


def test_a_zero_operand_leaves_the_other_unchanged():
    x, zero = sym(XA0), Poly()
    assert (x + zero) == x and (zero + x) == x and (x - zero) == x
    assert (x * zero).is_zero() and (zero * x).is_zero()
    assert x.terms == {(XA0,): 1}  # untouched by any of the above


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
    assert type(v) is Poly and v == Poly.symbol(n)
    v = make_int(Poly.symbol(n) - Poly.symbol(n))
    assert type(v) is int and v == 0


def test_int_poly_takes_an_int_or_a_poly_only():
    p = Poly.symbol(SymConst("N", None, SymKind.INT, 0))
    assert int_poly(3) == Poly.const(3)
    assert int_poly(p) is p
    for bad in (RealVal(p), True, Fraction(1, 2)):
        with pytest.raises(TypeError):
            int_poly(bad)


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
