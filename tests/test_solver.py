import os
import pickle
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

from vlsym.solver import (
    Atom,
    EnumerationBudgetExceeded,
    PathCondition,
    Rel,
    SatStatus,
    UnboundedSymbol,
    pc_sat,
)
from vlsym.values import Poly, SymConst, SymKind

N = SymConst("N", None, SymKind.INT, 0)
M = SymConst("M", None, SymKind.INT, 1)
X0 = SymConst("X_A", 0, SymKind.REAL, 10)
X1 = SymConst("X_A", 1, SymKind.REAL, 11)


def ipoly(coeffs, const=0):
    """Linear int poly from {sym: coeff} plus a constant."""
    p = Poly.const(Fraction(const))
    for sym, c in coeffs.items():
        p = p + Poly.symbol(sym).scale(Fraction(c))
    return p


def atom(rel, coeffs, const=0, kind=SymKind.INT):
    return Atom(kind, rel, ipoly(coeffs, const))


def bounded(sym, lo, hi):
    # lo <= s and s <= hi as atoms
    return [
        atom(Rel.LE, {sym: -1}, lo),
        atom(Rel.LE, {sym: 1}, -hi),
    ]


def pc_of(atoms):
    pc = PathCondition()
    for a in atoms:
        pc = pc.add(a)
    return pc


def test_box_extraction():
    pc = pc_of(bounded(N, 1, 3))
    assert pc.bounds(N) == (1, 3)
    assert not pc.unsat


def test_strict_bounds_round_correctly():
    # N < 4 gives hi 3; N > 0 gives lo 1
    pc = pc_of([atom(Rel.LT, {N: 1}, -4), atom(Rel.LT, {N: -1})])
    assert pc.bounds(N) == (1, 3)


def test_pin_via_equality():
    pc = pc_of(bounded(N, 1, 5) + [atom(Rel.EQ, {N: 1}, -2)])
    assert pc.bounds(N) == (2, 2)


def test_non_integral_equality_is_unsat():
    pc = pc_of([atom(Rel.EQ, {N: 2}, -1)])  # 2N == 1
    assert pc.unsat
    assert pc_sat(pc).status is SatStatus.UNSAT


def test_linear_int_bounds_are_exact():
    # every coefficient here is an int, and int / int would give a float:
    # 2N == 7 has no integer solution, 2N == 8 pins N to 4, 3N <= 7 caps N at 2
    assert type(atom(Rel.EQ, {N: 2}, -7).poly.terms[(N,)]) is int
    assert pc_of(bounded(N, 0, 10) + [atom(Rel.EQ, {N: 2}, -7)]).unsat
    assert pc_of(bounded(N, 0, 10) + [atom(Rel.EQ, {N: 2}, -8)]).bounds(N) == (4, 4)
    assert pc_of(bounded(N, 0, 10) + [atom(Rel.LE, {N: 3}, -7)]).bounds(N) == (0, 2)
    # 3N < 7 gives N <= 2; -3N + 7 < 0 gives N >= 3
    assert pc_of(bounded(N, 0, 10) + [atom(Rel.LT, {N: 3}, -7)]).bounds(N) == (0, 2)
    assert pc_of(bounded(N, 0, 10) + [atom(Rel.LT, {N: -3}, 7)]).bounds(N) == (3, 10)


def test_linear_int_bounds_with_rational_coefficients():
    def cond(rel, slope, k):
        return Atom(SymKind.INT, rel, Poly.symbol(N).scale(slope) - Poly.const(k))

    # N/2 == 2 pins N to 4; N/2 == 3/4 has no integer solution; 4N/3 <= 5 gives N <= 3
    assert pc_of(bounded(N, 0, 10) + [cond(Rel.EQ, Fraction(1, 2), 2)]).bounds(N) == (4, 4)
    assert pc_of(bounded(N, 0, 10) + [cond(Rel.EQ, Fraction(1, 2), Fraction(3, 4))]).unsat
    assert pc_of(bounded(N, 0, 10) + [cond(Rel.LE, Fraction(4, 3), 5)]).bounds(N) == (0, 3)


def test_constant_atoms_fold():
    pc = pc_of([Atom(SymKind.INT, Rel.LE, Poly.const(Fraction(-1)))])
    assert pc.atoms == ()
    pc = pc_of([Atom(SymKind.INT, Rel.LE, Poly.const(Fraction(1)))])
    assert pc.unsat


def test_sat_first_witness_is_smallest():
    res = pc_sat(pc_of(bounded(N, 1, 3)))
    assert res.status is SatStatus.SAT
    assert res.witness == {N: 1}


def test_empty_range_unsat():
    pc = pc_of(bounded(N, 3, 1))
    assert pc_sat(pc).status is SatStatus.UNSAT


def test_multi_symbol_enumeration():
    # N + M <= 3 with both in [1, 3]; smallest lexicographic pair first
    atoms = bounded(N, 1, 3) + bounded(M, 1, 3) + [atom(Rel.LE, {N: 1, M: 1}, -3)]
    res = pc_sat(pc_of(atoms))
    assert res.status is SatStatus.SAT
    assert res.witness == {N: 1, M: 1}


def test_ne_filters_enumeration():
    atoms = bounded(N, 1, 3) + [atom(Rel.NE, {N: 1}, -1)]
    res = pc_sat(pc_of(atoms))
    assert res.witness == {N: 2}


def test_unbounded_symbol_raises():
    pc = pc_of([atom(Rel.LE, {N: -1}, 1)])  # only a lower bound
    with pytest.raises(UnboundedSymbol):
        pc_sat(pc)


def test_budget_enforced():
    atoms = bounded(N, 0, 10**7)
    with pytest.raises(EnumerationBudgetExceeded):
        pc_sat(pc_of(atoms), budget=10**6)


def test_real_ne_witnessed_by_ones():
    pc = pc_of([Atom(SymKind.REAL, Rel.NE, Poly.symbol(X0))])
    res = pc_sat(pc)
    assert res.status is SatStatus.SAT
    assert res.witness == {X0: Fraction(1)}


def test_real_product_ne():
    p = Poly.symbol(X0) * Poly.symbol(X1) - Poly.const(Fraction(1))
    pc = pc_of([Atom(SymKind.REAL, Rel.NE, p)])
    # all-ones makes the product exactly 1, so trial 0 fails; sampling succeeds
    res = pc_sat(pc)
    assert res.status is SatStatus.SAT
    x0, x1 = res.witness[X0], res.witness[X1]
    assert x0 * x1 != 1


def test_real_contradiction_is_unknown_not_unsat():
    # X < 0 and -X < 0 cannot both hold; sampling cannot prove that
    pc = pc_of(
        [
            Atom(SymKind.REAL, Rel.LT, Poly.symbol(X0)),
            Atom(SymKind.REAL, Rel.LT, -Poly.symbol(X0)),
        ]
    )
    assert pc_sat(pc).status is SatStatus.UNKNOWN


@pytest.mark.parametrize("rel", [Rel.EQ, Rel.LT])
def test_a_real_atom_and_its_negation_are_unsat(rel):
    a = Atom(SymKind.REAL, rel, Poly.symbol(X0) - Poly.symbol(X1))
    assert PathCondition().add(a).add(a.negated()).unsat
    # compared by value: the negation of an equal atom built apart
    copy = Atom(SymKind.REAL, rel, Poly.symbol(X0) - Poly.symbol(X1))
    pc = PathCondition().add(copy.negated()).add(a)
    assert pc.unsat and pc_sat(pc).status is SatStatus.UNSAT


def test_zero_poly_atoms_are_constant():
    zero = Poly.symbol(X0) - Poly.symbol(X0)
    pc = pc_of([Atom(SymKind.REAL, Rel.EQ, zero)])
    assert pc.atoms == ()
    pc = pc_of([Atom(SymKind.REAL, Rel.NE, zero)])
    assert pc.unsat


def test_mixed_int_and_real():
    atoms = bounded(N, 2, 2) + [Atom(SymKind.REAL, Rel.NE, Poly.symbol(X0))]
    res = pc_sat(pc_of(atoms))
    assert res.status is SatStatus.SAT
    assert res.witness == {N: 2, X0: Fraction(1)}


def test_implication_valid():
    pc = pc_of(bounded(N, 1, 3))
    claim = atom(Rel.LE, {N: 1}, -5)  # N <= 5
    res = pc_sat(pc.add(claim.negated()))
    assert res.status is SatStatus.UNSAT


def test_implication_counterexample():
    pc = pc_of(bounded(N, 1, 3))
    claim = atom(Rel.LE, {N: 1}, -2)  # N <= 2 fails at N = 3
    res = pc_sat(pc.add(claim.negated()))
    assert res.status is SatStatus.SAT
    assert res.witness == {N: 3}


def test_negation_table():
    a = atom(Rel.LT, {N: 1}, -3)  # N - 3 < 0
    n = a.negated()  # 3 - N <= 0
    assert n.rel is Rel.LE
    assert n.poly == ipoly({N: -1}, 3)
    assert atom(Rel.EQ, {N: 1}).negated().rel is Rel.NE
    back = a.negated().negated()
    assert back == a


def test_an_atom_keeps_its_negation():
    for a in (atom(Rel.LT, {N: 1}, -3), atom(Rel.LE, {N: 2}), atom(Rel.EQ, {N: 1})):
        n = a.negated()
        assert a.negated() is n
        assert n.negated() is a
        fresh = Atom(a.kind, a.rel, a.poly).negated()
        assert n == fresh and hash(n) == hash(fresh)
        back = pickle.loads(pickle.dumps(n))
        assert back == n and back._neg is None


def test_a_sample_value_is_an_int_when_it_is_integral():
    ones = pc_sat(pc_of([Atom(SymKind.REAL, Rel.NE, Poly.symbol(X0))]))
    assert ones.witness[X0].__class__ is int
    # X < 0 fails at the all-ones point, so the witness is the first
    # negative draw of the seeded sampler
    pc = pc_of([Atom(SymKind.REAL, Rel.LT, Poly.symbol(X0))])
    kinds = set()
    for seed in range(200):
        rng = Random(seed)
        while True:
            draw = Fraction(rng.randint(-999, 999), rng.randint(1, 64))
            if draw < 0:
                break
        got = pc_sat(pc, seed=seed).witness[X0]
        assert got == draw
        assert got.__class__ is (int if draw.denominator == 1 else Fraction)
        kinds.add(got.__class__)
    assert kinds == {int, Fraction}


def test_determinism_fresh_rng_per_call():
    p = Poly.symbol(X0) * Poly.symbol(X1) - Poly.const(Fraction(1))
    pc = pc_of([Atom(SymKind.REAL, Rel.NE, p)])
    first = pc_sat(pc, seed=7)
    # interleave an unrelated call; the answer must not shift
    pc_sat(pc_of(bounded(N, 1, 3)), seed=7)
    second = pc_sat(pc, seed=7)
    assert first.witness == second.witness


def test_fuzzed_witnesses_self_verify():
    rng = Random(20260819)
    syms = [SymConst(f"s{i}", None, SymKind.INT, i) for i in range(3)]
    for _ in range(300):
        atoms = []
        for s in syms:
            lo = rng.randint(-4, 2)
            hi = lo + rng.randint(0, 5)
            atoms.extend(bounded(s, lo, hi))
        for _ in range(rng.randint(0, 3)):
            coeffs = {s: rng.randint(-2, 2) for s in rng.sample(syms, rng.randint(1, 3))}
            rel = rng.choice([Rel.LT, Rel.LE, Rel.EQ, Rel.NE])
            atoms.append(atom(rel, coeffs, rng.randint(-3, 3)))
        pc = pc_of(atoms)
        res = pc_sat(pc)
        if res.status is SatStatus.SAT:
            assert all(a.holds(res.witness) for a in pc.atoms)


def test_an_atom_hashed_here_is_found_in_a_process_with_another_hash_seed(tmp_path):
    atoms = [
        Atom(SymKind.INT, Rel.LE, ipoly({N: 1}, -3)),
        Atom(SymKind.INT, Rel.NE, ipoly({N: 2, M: -1})),
        Atom(SymKind.REAL, Rel.LT, Poly.symbol(X0) * Poly.symbol(X1)),
    ]
    keyed = {a: i for i, a in enumerate(atoms)}  # hashes every atom here
    (tmp_path / "keyed.pickle").write_bytes(pickle.dumps(keyed))
    # the child rebuilds every atom from its parts and looks it up
    code = (
        "import pickle, sys\n"
        "from vlsym.solver import Atom\n"
        "from vlsym.values import Poly\n"
        "keyed = pickle.load(open(sys.argv[1], 'rb'))\n"
        "for a in keyed:\n"
        "    print(keyed[Atom(a.kind, a.rel, Poly(a.poly.terms))])\n"
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "keyed.pickle")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True,
        )
        assert proc.stdout.split() == ["0", "1", "2"]


def real_poly(terms) -> Poly:
    """The real poly of {(power of X0, power of X1): coefficient}."""
    p = Poly()
    for (i, j), c in terms.items():
        m = Poly.const(c)
        for sym, power in ((X0, i), (X1, j)):
            for _ in range(power):
                m = m * Poly.symbol(sym)
        p = p + m
    return p


@pytest.mark.parametrize(
    "rel, terms, refuted",
    [
        (Rel.LT, {(2, 0): 1}, True),  # V0^2 < 0
        (Rel.LE, {(2, 0): 1, (0, 4): 3, (0, 0): 1}, True),  # V0^2 + 3 V1^4 + 1 <= 0
        (Rel.EQ, {(2, 0): -1, (0, 0): -1}, True),  # -V0^2 - 1 == 0
        (Rel.LE, {(2, 0): 1}, False),  # V0^2 <= 0 holds at 0
        (Rel.LT, {(2, 0): 1, (0, 0): -1}, False),  # V0^2 - 1 < 0: the signs differ
        (Rel.LT, {(1, 1): 1}, False),  # V0 V1 < 0: odd powers
        (Rel.LT, {(3, 0): 1}, False),  # V0^3 < 0
        (Rel.NE, {(2, 0): 1}, False),  # V0^2 != 0 is never ruled out
    ],
)
def test_the_signs_of_the_terms_refute_an_atom(rel, terms, refuted):
    pc = pc_of([Atom(SymKind.REAL, rel, real_poly(terms))])
    assert not pc.unsat  # ruled out by pc_sat, not when it was added
    status = pc_sat(pc).status
    assert (status is SatStatus.UNSAT) is refuted


def test_an_atom_the_signs_refute_holds_at_no_point():
    # sums of even powers of X0 and X1 whose coefficients share a sign
    rng = Random(20261020)
    seen = set()
    for _ in range(300):
        sign = rng.choice([1, -1])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            powers = (2 * rng.randint(0, 2), 2 * rng.randint(0, 2))
            terms[powers] = sign * Fraction(rng.randint(1, 9), rng.randint(1, 4))
        a = Atom(SymKind.REAL, rng.choice([Rel.LT, Rel.LE, Rel.EQ]), real_poly(terms))
        if a.poly.is_const() or pc_sat(pc_of([a])).status is not SatStatus.UNSAT:
            continue
        seen.add((a.rel, sign))
        for _ in range(64):
            point = {s: Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for s in (X0, X1)}
            assert not a.holds(point)
    # each case that the rule refutes occurs
    assert seen == {(Rel.LT, 1), (Rel.LE, 1), (Rel.EQ, 1), (Rel.EQ, -1)}
