"""Bundled verification corpus plus plain-Python reference oracles.

The .vl sources next to this module form the sparse matrix-vector case:
a driver that enumerates every compressed-row matrix within small
bounds, the kernel under test, a trusted dense reference, and two buggy
variants. The Python functions here recompute the same products
directly on lists of Fractions so tests can cross-check the executor
against an implementation that shares none of its code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from ..engine import ChooseInt, ConcretizeInt, Decision

CLEAN_FILES = ("driver.vl", "matrix.vl", "sparse.vl")
SWAP_FILES = ("driver.vl", "matrix.vl", "sparse_bug_swap.vl")
COLMAX_FILES = ("driver_bug_colmax.vl", "matrix.vl", "sparse.vl")


def corpus_dir() -> Path:
    return Path(__file__).resolve().parent


def load_sources(names) -> list[tuple[str, str]]:
    root = corpus_dir()
    return [(name, (root / name).read_text()) for name in names]


def dense_matvec_native(mat, v, n: int, m: int) -> list[Fraction]:
    """Row-major dense product; the ground truth for both kernels."""
    out = []
    for i in range(n):
        s = Fraction(0)
        for j in range(m):
            s += mat[i * m + j] * v[j]
        out.append(s)
    return out


def crs_matvec_native(val, col_ind, row_ptr, v, n: int) -> list[Fraction]:
    out = []
    for i in range(n):
        s = Fraction(0)
        for k in range(row_ptr[i], row_ptr[i + 1]):
            s += val[k] * v[col_ind[k]]
        out.append(s)
    return out


def crs_to_dense_native(val, col_ind, row_ptr, n: int, m: int) -> list[Fraction]:
    dense = [Fraction(0)] * (n * m)
    for i in range(n):
        for k in range(row_ptr[i], row_ptr[i + 1]):
            dense[i * m + col_ind[k]] = val[k]
    return dense


class Skeleton(NamedTuple):
    """The structural part of one compressed-row matrix: sizes and
    positions, with the stored values left open."""

    n: int
    m: int
    row_ptr: tuple[int, ...]
    col_ind: tuple[int, ...]
    trail: tuple[Decision, ...]

    @property
    def nz(self) -> int:
        return self.row_ptr[-1]


def _skeleton_trail(n, m, n_bound, m_bound, steps, rows) -> tuple[Decision, ...]:
    """The decision sequence the driver takes to build this skeleton."""
    trail: list[Decision] = [
        ConcretizeInt("N", n, n_bound),
        ConcretizeInt("M", m, m_bound),
    ]
    trail.extend(ChooseInt(step, m + 1) for step in steps)
    for cols in rows:
        count = len(cols)
        for i, col in enumerate(cols):
            a = 0 if i == 0 else cols[i - 1] + 1
            b = (m - 1) - count + i + 1
            trail.append(ChooseInt(col - a, b - a + 1))
    return tuple(trail)


def enumerate_skeletons(n_bound: int = 3, m_bound: int = 3) -> list[Skeleton]:
    """All skeletons within the bounds, in the order the search visits
    them: sizes ascending, then per-row entry counts, then columns in
    lexicographic order."""
    out = []
    for n in range(1, n_bound + 1):
        for m in range(1, m_bound + 1):
            for steps in itertools.product(range(m + 1), repeat=n):
                row_ptr = [0]
                for step in steps:
                    row_ptr.append(row_ptr[-1] + step)
                per_row = [itertools.combinations(range(m), k) for k in steps]
                for rows in itertools.product(*per_row):
                    col_ind = tuple(c for row in rows for c in row)
                    out.append(
                        Skeleton(
                            n,
                            m,
                            tuple(row_ptr),
                            col_ind,
                            _skeleton_trail(n, m, n_bound, m_bound, steps, rows),
                        )
                    )
    return out
