"""Decision procedures over path conditions.

A path condition is a conjunction of atoms `poly rel 0`, each over
integer or real symbols (the type system keeps the two apart). Integer
atoms are settled by exact enumeration over the finite box that the
condition's univariate linear bounds imply. Real atoms are only sampled:
the point where every symbol is 1, then SAMPLE_TRIALS - 1 seeded random
rationals. Answers are conservative: SAT always carries a checked
witness; UNSAT is reported only for a condition that holds a false
constant or whose integer atoms enumeration rules out, never because of
a real atom; and a real question that no sample satisfies is UNKNOWN.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Atom:
    """The constraint `poly rel 0` over symbols of a single kind."""

    kind: SymKind
    rel: Rel
    poly: Poly

    def __hash__(self) -> int:
        # a solver memo keyed on a path condition's atoms hashes each atom
        # on every query, and hashing a Poly builds a frozenset of its terms,
        # so the first hash is kept
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.kind, self.rel, self.poly))
            return h

    def __getstate__(self) -> dict:
        # the kept hash includes Enum hashes, which differ between processes
        return {"kind": self.kind, "rel": self.rel, "poly": self.poly}

    def negated(self) -> "Atom":
        if self.rel in (Rel.EQ, Rel.NE):
            return Atom(self.kind, _FLIP[self.rel], self.poly)
        # not (p < 0) is -p <= 0; not (p <= 0) is -p < 0
        return Atom(self.kind, _FLIP[self.rel], -self.poly)

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
    a = poly.terms.get((s,), 0)
    b = poly.terms.get((), 0)
    if a == 0:
        return None
    return s, a, b


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
        if atom.poly.is_const():
            if atom.holds({}):
                return self
            return PathCondition(self.atoms, self.box, True)
        if atom in self.atoms:
            return self
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


@dataclass
class SatResult:
    status: SatStatus
    witness: dict[SymConst, "int | Fraction"] | None = None


class UnboundedSymbol(Exception):
    def __init__(self, sym: SymConst):
        super().__init__(f"no finite bounds for '{sym.render()}'")
        self.sym = sym


class EnumerationBudgetExceeded(Exception):
    def __init__(self, size: int, budget: int):
        super().__init__(f"{size} assignments exceed the budget of {budget}")
        self.size = size
        self.budget = budget


def pc_sat(pc: PathCondition, budget: int = DEFAULT_BUDGET, seed: int = 0) -> SatResult:
    """Decide satisfiability; a fresh RNG per call keeps results stable
    no matter in which order the paths make their calls."""
    if pc.unsat:
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
            if hi < lo:
                return SatResult(SatStatus.UNSAT)
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
                sample = {s: Fraction(1) for s in real_syms}
            else:
                sample = {
                    s: Fraction(rng.randint(-999, 999), rng.randint(1, 64))
                    for s in real_syms
                }
            if all(a.holds(sample) for a in real_atoms):
                assign.update(sample)
                found = True
                break
        if not found:
            return SatResult(SatStatus.UNKNOWN)

    if not all(a.holds(assign) for a in pc.atoms):
        raise AssertionError("witness failed its own atoms; solver bug")
    return SatResult(SatStatus.SAT, assign)
