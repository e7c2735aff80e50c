"""The bundled corpus and its plain-Python reference oracles."""

import random
from fractions import Fraction

from vlsym.corpus import (
    CLEAN_FILES,
    COLMAX_FILES,
    SWAP_FILES,
    Skeleton,
    corpus_dir,
    crs_matvec_native,
    crs_to_dense_native,
    dense_matvec_native,
    enumerate_skeletons,
    load_sources,
)
from vlsym import ast
from vlsym.engine import SearchConfig, run_path
from vlsym.parser import load_program


def test_corpus_files_exist_and_load():
    root = corpus_dir()
    for names in (CLEAN_FILES, SWAP_FILES, COLMAX_FILES):
        for name in names:
            assert (root / name).is_file()
        prog = load_program(load_sources(names))
        assert isinstance(prog, ast.Program), prog


def test_skeleton_counts_match_closed_form():
    def closed_form(n_bound, m_bound):
        return sum((2**m) ** n for n in range(1, n_bound + 1) for m in range(1, m_bound + 1))

    assert len(enumerate_skeletons(3, 3)) == closed_form(3, 3) == 682
    assert len(enumerate_skeletons(3, 4)) == closed_form(3, 4) == 5050
    assert len(enumerate_skeletons(1, 1)) == 2
    assert len(enumerate_skeletons(2, 2)) == 26


def test_skeletons_are_wellformed_and_distinct():
    seen = set()
    for sk in enumerate_skeletons(3, 3):
        assert 1 <= sk.n <= 3 and 1 <= sk.m <= 3
        assert sk.row_ptr[0] == 0 and len(sk.row_ptr) == sk.n + 1
        assert sk.nz == len(sk.col_ind)
        for i in range(sk.n):
            row = sk.col_ind[sk.row_ptr[i] : sk.row_ptr[i + 1]]
            assert len(row) <= sk.m
            assert all(0 <= c < sk.m for c in row)
            assert all(a < b for a, b in zip(row, row[1:]))
        key = (sk.n, sk.m, sk.row_ptr, sk.col_ind)
        assert key not in seen
        seen.add(key)


def test_dense_matvec_native_hand_example():
    # [[1, 2], [3, 4]] * [5, 6] = [17, 39]
    mat = [Fraction(x) for x in (1, 2, 3, 4)]
    v = [Fraction(5), Fraction(6)]
    assert dense_matvec_native(mat, v, 2, 2) == [Fraction(17), Fraction(39)]


def test_crs_natives_agree_on_hand_example():
    # [[0, 7, 0], [5, 0, 9]] stored by rows
    val = [Fraction(7), Fraction(5), Fraction(9)]
    col_ind = (1, 0, 2)
    row_ptr = (0, 1, 3)
    v = [Fraction(1), Fraction(2), Fraction(3)]
    dense = crs_to_dense_native(val, col_ind, row_ptr, 2, 3)
    assert dense == [Fraction(x) for x in (0, 7, 0, 5, 0, 9)]
    assert crs_matvec_native(val, col_ind, row_ptr, v, 2) == [Fraction(14), Fraction(32)]
    assert dense_matvec_native(dense, v, 2, 3) == [Fraction(14), Fraction(32)]


def test_natives_agree_on_random_skeletons():
    rng = random.Random(11)
    skeletons = enumerate_skeletons(3, 3)
    for sk in rng.sample(skeletons, 40):
        val = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(sk.nz)]
        v = [Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for _ in range(sk.m)]
        dense = crs_to_dense_native(val, sk.col_ind, sk.row_ptr, sk.n, sk.m)
        assert crs_matvec_native(val, sk.col_ind, sk.row_ptr, v, sk.n) == dense_matvec_native(
            dense, v, sk.n, sk.m
        )


def cells(state, name):
    ref = state.lookup(name)
    return [c.poly.const_value() for c in state.heap[ref.addr].cells]


def test_skeleton_trails_replay_through_the_driver():
    rng = random.Random(3)
    prog = load_program(load_sources(CLEAN_FILES))
    skeletons = enumerate_skeletons(3, 3)
    for sk in rng.sample(skeletons, 12):
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        out = run_path(prog, SearchConfig(), trail=list(sk.trail), reals={"V": v, "A": a})
        assert out.state is not None and not out.violations
        val = a[: sk.nz]
        assert cells(out.state, "actual") == crs_matvec_native(
            val, sk.col_ind, sk.row_ptr, v, sk.n
        )
        dump = out.prints
        assert dump[1] == f"n: {sk.n} m: {sk.m}"
        assert dump[4] == "row_ptr: " + (
            "[ " + " ".join(str(x) for x in sk.row_ptr) + " ]"
        )


def test_mutants_differ_from_clean_sources_minimally():
    root = corpus_dir()
    clean = (root / "sparse.vl").read_text().splitlines()
    swapped = (root / "sparse_bug_swap.vl").read_text().splitlines()
    clean_code = [l for l in clean if not l.lstrip().startswith("//")]
    swapped_code = [l for l in swapped if not l.lstrip().startswith("//")]
    assert sorted(clean_code) == sorted(swapped_code)  # same lines, different order
    assert clean_code != swapped_code

    driver = (root / "driver.vl").read_text().splitlines()
    colmax = (root / "driver_bug_colmax.vl").read_text().splitlines()
    driver_code = [l for l in driver if not l.lstrip().startswith("//")]
    colmax_code = [l for l in colmax if not l.lstrip().startswith("//")]
    changed = [
        (a, b) for a, b in zip(driver_code, colmax_code) if a != b
    ]
    assert len(changed) == 1
    assert "m - 1" in changed[0][0] and "m)" in changed[0][1]
