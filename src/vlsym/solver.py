"""Decision procedures over path conditions.

A path condition is a conjunction of atoms `poly rel 0`, each over
integer or real symbols (the type system keeps the two apart). Integer
atoms are settled by exact enumeration over the finite box that the
condition's univariate linear bounds imply. Real atoms are only sampled:
the point where every symbol is 1, then SAMPLE_TRIALS - 1 seeded random
rationals. Answers are conservative: SAT always carries a checked
witness, and a real question that no sample satisfies is UNKNOWN. UNSAT
is reported only for a condition that holds

- a false constant, or an atom together with its negation;
- an atom that the signs of its terms rule out at every point (see
  _signs_refute): `V*V < 0`, or `V*V + 1 <= 0`, or `-V*V - 1 == 0`;
- integer atoms that enumeration rules out,

never because sampling missed a real atom.

A sample point follows the rule of Poly coefficients: a value is a Python
int when it is integral and a Fraction only when it is not. The first
point is the int 1 for every symbol; a random one draws, for each symbol
in `ord` order, a numerator `randint(-999, 999)` and then a denominator
`randint(1, 64)`. So a witness, and every atom checked against it, runs
on ints wherever it can.
"""

from __future__ import annotations

import enum
import itertools
import math
from fractions import Fraction
from random import Random

from .values import Poly, SymConst, SymKind

DEFAULT_BUDGET = 10**6
SAMPLE_TRIALS = 64


class Rel(enum.Enum):
    LT = "<"
    LE = "<="
    EQ = "=="
    NE = "!="


_FLIP = {Rel.LT: Rel.LE, Rel.LE: Rel.LT, Rel.EQ: Rel.NE, Rel.NE: Rel.EQ}


class Atom:
    """The constraint `poly rel 0` over symbols of a single kind. Atoms
    compare by value."""

    __slots__ = ("kind", "rel", "poly", "_hash", "_neg")

    def __init__(self, kind: SymKind, rel: Rel, poly: Poly):
        self.kind = kind
        self.rel = rel
        self.poly = poly
        self._hash = None
        self._neg = None

    def __eq__(self, other):
        if other.__class__ is not Atom:
            return NotImplemented
        return self.kind == other.kind and self.rel == other.rel and self.poly == other.poly

    def __hash__(self) -> int:
        # a solver memo keyed on a path condition's atoms hashes each atom
        # on every query, and hashing a Poly builds a frozenset of its terms,
        # so the first hash is kept
        h = self._hash
        if h is None:
            h = self._hash = hash((self.kind, self.rel, self.poly))
        return h

    def __reduce__(self):
        # the kept hash includes Enum hashes, which differ between processes;
        # the kept negation is rebuilt on demand
        return Atom, (self.kind, self.rel, self.poly)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Atom({self.poly.render()} {self.rel.value} 0)"

    def negated(self) -> "Atom":
        """The atom's negation, built once and kept on both atoms, so that a
        memoized atom's negation keeps its hash from path to path."""
        neg = self._neg
        if neg is None:
            if self.rel in (Rel.EQ, Rel.NE):
                neg = Atom(self.kind, _FLIP[self.rel], self.poly)
            else:
                # not (p < 0) is -p <= 0; not (p <= 0) is -p < 0
                neg = Atom(self.kind, _FLIP[self.rel], -self.poly)
            neg._neg = self
            self._neg = neg
        return neg

    def holds(self, assign) -> bool:
        v = self.poly.eval(assign)
        if self.rel is Rel.LT:
            return v < 0
        if self.rel is Rel.LE:
            return v <= 0
        if self.rel is Rel.EQ:
            return v == 0
        return v != 0


Bounds = tuple["int | None", "int | None"]


def _linear(poly: Poly) -> tuple[SymConst, Fraction | int, Fraction | int] | None:
    """Decompose a univariate degree-1 poly as a*s + b."""
    syms = poly.symbols()
    if len(syms) != 1 or poly.degree() != 1:
        return None
    s = next(iter(syms))
    return s, poly.terms[(s,)], poly.terms.get((), 0)


class PathCondition:
    """Immutable conjunction of atoms plus the integer box they imply."""

    __slots__ = ("atoms", "box", "unsat")

    def __init__(
        self,
        atoms: tuple[Atom, ...] = (),
        box: dict[SymConst, Bounds] | None = None,
        unsat: bool = False,
    ):
        self.atoms = atoms
        self.box = box if box is not None else {}
        self.unsat = unsat

    def add(self, atom: Atom) -> "PathCondition":
        if self.unsat:
            return self
        const = atom.poly.is_const()
        if const and atom.holds({}) or atom in self.atoms:
            return self
        if const or atom.negated() in self.atoms:
            # p rel 0 and its negation never both hold
            return PathCondition(self.atoms, self.box, True)
        box = self.box
        unsat = False
        if atom.kind is SymKind.INT and atom.rel is not Rel.NE:
            lin = _linear(atom.poly)
            if lin is not None:
                s, a, b = lin
                lo, hi = box.get(s, (None, None))
                lo, hi, unsat = _tighten(lo, hi, a, b, atom.rel)
                box = dict(box)
                box[s] = (lo, hi)
        return PathCondition(self.atoms + (atom,), box, unsat)

    def bounds(self, sym: SymConst) -> Bounds:
        return self.box.get(sym, (None, None))


def _tighten(
    lo: int | None, hi: int | None, a: Fraction | int, b: Fraction | int, rel: Rel
) -> tuple[int | None, int | None, bool]:
    """Tighten [lo, hi] with a*s + b rel 0; returns (lo, hi, unsat)."""
    bound = Fraction(-b, a)  # exact, where int / int would be a float
    if rel is Rel.EQ:
        if bound.denominator != 1:
            return lo, hi, True
        v = int(bound)
        lo = v if lo is None else max(lo, v)
        hi = v if hi is None else min(hi, v)
    elif a > 0:
        new_hi = math.floor(bound) if rel is Rel.LE else math.ceil(bound) - 1
        hi = new_hi if hi is None else min(hi, new_hi)
    else:
        new_lo = math.ceil(bound) if rel is Rel.LE else math.floor(bound) + 1
        lo = new_lo if lo is None else max(lo, new_lo)
    unsat = lo is not None and hi is not None and lo > hi
    return lo, hi, unsat


class SatStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SatResult:
    """The solver's answer. texts holds the text of each value rendered so
    far under witness (see engine._render_value), so that a result shared
    by every query of one path condition renders each value once."""

    __slots__ = ("status", "witness", "texts")

    def __init__(self, status: SatStatus, witness: dict[SymConst, int | Fraction] | None = None):
        self.status = status
        self.witness = witness
        self.texts: dict = {}


class SearchLimit(Exception):
    """A limit of the search met on one path; it ends that path only."""


class UnboundedSymbol(SearchLimit):
    def __init__(self, sym: SymConst):
        super().__init__(f"no finite bounds for '{sym.render()}'")


class EnumerationBudgetExceeded(SearchLimit):
    def __init__(self, size: int, budget: int):
        super().__init__(f"{size} assignments exceed the budget of {budget}")


def _signs_refute(atom: Atom) -> bool:
    """Whether atom `p rel 0` holds at no point because of the signs of its
    terms. When every monomial of p is a product of even powers and every
    coefficient has one sign s, s*p >= 0 everywhere, and s*p > 0 everywhere
    when p has a constant term. That rules out `<` when s > 0, `<=` when
    s > 0 and p has a constant term, and `==` when p has a constant term,
    for int and real symbols alike; it never rules out `!=`."""
    if atom.rel is Rel.NE:
        return False
    signs = set()
    for m, c in atom.poly.terms.items():
        # a monomial is sorted by ord, so each of its symbols occurs an
        # even number of times exactly when its pairs match
        if m[::2] != m[1::2]:
            return False
        signs.add(c > 0)
    if len(signs) != 1:
        return False
    constant = () in atom.poly.terms
    if atom.rel is Rel.EQ:
        return constant
    return signs == {True} and (atom.rel is Rel.LT or constant)


def pc_sat(pc: PathCondition, budget: int = DEFAULT_BUDGET, seed: int = 0) -> SatResult:
    """Decide satisfiability; a fresh RNG per call keeps results stable
    no matter in which order the paths make their calls."""
    if pc.unsat or any(_signs_refute(a) for a in pc.atoms):
        return SatResult(SatStatus.UNSAT)

    int_atoms = [a for a in pc.atoms if a.kind is SymKind.INT]
    real_atoms = [a for a in pc.atoms if a.kind is SymKind.REAL]

    assign: dict[SymConst, int | Fraction] = {}
    if int_atoms:
        int_syms = sorted(
            {s for a in int_atoms for s in a.poly.symbols()}, key=lambda s: s.ord
        )
        ranges = []
        total = 1
        for s in int_syms:
            lo, hi = pc.bounds(s)
            if lo is None or hi is None:
                raise UnboundedSymbol(s)
            total *= hi - lo + 1
            if total > budget:
                raise EnumerationBudgetExceeded(total, budget)
            ranges.append(range(lo, hi + 1))
        for combo in itertools.product(*ranges):
            candidate = dict(zip(int_syms, combo))
            if all(a.holds(candidate) for a in int_atoms):
                assign = dict(candidate)
                break
        else:
            return SatResult(SatStatus.UNSAT)

    if real_atoms:
        real_syms = sorted(
            {s for a in real_atoms for s in a.poly.symbols()}, key=lambda s: s.ord
        )
        rng = Random(seed)
        found = False
        for trial in range(SAMPLE_TRIALS):
            if trial == 0:
                sample = dict.fromkeys(real_syms, 1)
            else:
                sample = {}
                for s in real_syms:
                    num, den = rng.randint(-999, 999), rng.randint(1, 64)
                    sample[s] = num // den if num % den == 0 else Fraction(num, den)
            if all(a.holds(sample) for a in real_atoms):
                assign.update(sample)
                found = True
                break
        if not found:
            return SatResult(SatStatus.UNKNOWN)

    if not all(a.holds(assign) for a in pc.atoms):
        raise AssertionError("witness failed its own atoms; solver bug")
    return SatResult(SatStatus.SAT, assign)
