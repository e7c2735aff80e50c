"""Exact symbolic value algebra: rationals, symbolic constants, polynomials.

Every numeric value in the engine is exact. Reals are multivariate
polynomials over symbolic constants with rational coefficients; a concrete
real is just a constant polynomial. Integers are either concrete Python
ints or integer-valued polynomials over int-kind symbols. No floats appear
anywhere.

Polynomials are kept in canonical expanded form (a map from monomial to
nonzero coefficient), so two polynomials denote the same function iff they
compare equal. That makes equality of symbolic reals decidable by
structural comparison, which is what the solver's zero test relies on.
A coefficient is a Python int when it is integral and a Fraction only when
it is not, so integer arithmetic, which is nearly all of it, never builds
a Fraction. `Poly.__init__` is the one place that writes this form. An int and the Fraction of the same value compare and hash
equal and print the same, so the choice shows in no comparison or report.

A RealVal, unlike a Poly, compares and hashes by identity: one object is
one value computed once, and the engine keys its memo of real arithmetic
by the operand objects. Nothing rewrites a RealVal's poly or a Poly's
terms after construction, so a result found under its operands is the
one a new computation would give. Compare real values through `.poly`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping


class SymKind(enum.Enum):
    INT = "int"
    REAL = "real"


class SymConst:
    """A symbolic constant, e.g. the array cell X_A[2] or the scalar N.

    `ord` is the global declaration position (input order, then flat index
    within an array input); it fixes the monomial order independent of how
    the search happens to visit states. Symbols compare by value.
    """

    __slots__ = ("name", "index", "kind", "ord")

    def __init__(self, name: str, index: int | None, kind: SymKind, ord: int):
        self.name = name
        self.index = index
        self.kind = kind
        self.ord = ord

    def __eq__(self, other):
        if other.__class__ is not SymConst:
            return NotImplemented
        return (
            self.name == other.name
            and self.index == other.index
            and self.kind == other.kind
            and self.ord == other.ord
        )

    def __hash__(self) -> int:
        # every Poly term lookup hashes its symbols, so hash the int ord
        # alone rather than all four fields and the Enum; equal symbols
        # share an ord, and the hash is the same in every process
        return self.ord

    def render(self) -> str:
        if self.index is None:
            return self.name
        return f"X_{self.name}[{self.index}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymConst({self.render()})"


# A monomial is a tuple of SymConsts sorted by ord, with repetition for powers.
Monomial = tuple[SymConst, ...]

_ONE: Monomial = ()


def _mono_key(m: Monomial) -> tuple:
    # graded lexicographic: degree first, then symbol order
    return (len(m), tuple(s.ord for s in m))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b, key=lambda s: s.ord))


class DivisionByZero(ArithmeticError):
    """Divisor is the zero polynomial."""


class NonConstantDivisor(ArithmeticError):
    """Divisor is symbolic; quotients of polynomials are not represented."""


class MissingAssignment(KeyError):
    """A polynomial was evaluated at a point that misses one of its symbols."""


class Poly:
    """Canonical multivariate polynomial with exact rational coefficients.

    The constructor is the one place that writes canonical form: it drops
    every zero coefficient and holds an integral one as an int, so every
    operator builds its result through it. Nothing writes to `terms`
    after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        self.terms: dict[Monomial, Fraction | int] = {}
        if terms:
            for m, c in terms.items():
                if c.__class__ is not int and c.denominator == 1:
                    c = c.numerator
                if c:
                    self.terms[m] = c

    @classmethod
    def const(cls, value: Fraction | int) -> Poly:
        return cls({_ONE: value})

    @classmethod
    def symbol(cls, sym: SymConst) -> Poly:
        return cls({(sym,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE in self.terms)

    def const_value(self) -> Fraction | int:
        """Value of a constant polynomial (the zero poly evaluates to 0):
        an int when it is integral, else a Fraction."""
        if not self.is_const():
            raise ValueError(f"polynomial is not constant: {self.render()}")
        return self.terms.get(_ONE, 0)

    def symbols(self) -> set[SymConst]:
        out: set[SymConst] = set()
        for m in self.terms:
            out.update(m)
        return out

    def degree(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def __add__(self, other: Poly) -> Poly:
        res = dict(self.terms)
        for m, c in other.terms.items():
            res[m] = res.get(m, 0) + c
        return Poly(res)

    def __sub__(self, other: Poly) -> Poly:
        return self + -other

    def __neg__(self) -> Poly:
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Poly) -> Poly:
        res: dict[Monomial, Fraction | int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                res[m] = res.get(m, 0) + ca * cb
        return Poly(res)

    def scale(self, c: Fraction | int) -> Poly:
        return Poly({m: k * c for m, k in self.terms.items()})

    def div(self, divisor: Poly) -> Poly:
        """Divide by a constant polynomial.

        Raises DivisionByZero for the zero divisor and NonConstantDivisor
        when the divisor is symbolic; rational functions are deliberately
        not represented (callers escalate instead of guessing).
        """
        if divisor.is_zero():
            raise DivisionByZero()
        if not divisor.is_const():
            raise NonConstantDivisor()
        return self.scale(Fraction(1) / divisor.const_value())

    def substitute(self, assignment: Mapping[SymConst, Fraction | int]) -> Poly:
        """Replace the given symbols by constants; others stay symbolic."""
        res: dict[Monomial, Fraction | int] = {}
        for m, c in self.terms.items():
            rest: list[SymConst] = []
            for s in m:
                if s in assignment:
                    c = c * assignment[s]
                else:
                    rest.append(s)
            key = tuple(rest)
            res[key] = res.get(key, 0) + c
        return Poly(res)

    def eval(self, point: Mapping[SymConst, Fraction | int]) -> Fraction | int:
        """Exact evaluation; every symbol must be assigned. The value is an
        int when every coefficient and every value used is an int."""
        total = 0
        for m, c in self.terms.items():
            v = c
            for s in m:
                if s not in point:
                    raise MissingAssignment(s.render())
                v *= point[s]
            total += v
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        """Report-style rendering: `X_A[0]*X_V[0] + 2`, `-X_A[1] + 1/2`."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m in sorted(self.terms, key=_mono_key, reverse=True):
            c = self.terms[m]
            if m == _ONE:
                body = str(abs(c))
            else:
                mono = "*".join(s.render() for s in m)
                body = mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Poly({self.render()})"


# ---------------------------------------------------------------------------
# Runtime values: a concrete int is a Python int, a symbolic one a
# non-constant Poly over int symbols, and these hold the rest


class RealVal:
    """A real value: a polynomial over real symbols. It compares and hashes
    by identity, so that the engine can key its memo of real arithmetic by
    operand objects; compare two values through their polys."""

    __slots__ = ("poly",)

    def __init__(self, poly: Poly):
        self.poly = poly

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RealVal({self.poly.render()})"


class UndefinedVal:
    """The value of storage that was never written. Reading it is an error."""

    _instance: "UndefinedVal | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


UNDEFINED = UndefinedVal()


def make_int(poly: Poly) -> "int | Poly":
    """An integer-valued polynomial as a value: an int when it is constant."""
    if poly.is_const():
        c = poly.const_value()
        assert c.__class__ is int, "integer poly with non-integer constant"
        return c
    return poly


def int_poly(v: "int | Poly") -> Poly:
    if v.__class__ is int:
        return Poly.const(v)
    if v.__class__ is Poly:
        return v
    raise TypeError(f"not an integer value: {v!r}")
