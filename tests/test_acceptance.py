"""End-to-end checks, one test per shipped guarantee.

Each test pins down one externally visible behavior of the package: the
clean corpus verifies at the default and widened bounds, both injected
bugs are caught with usable evidence, concrete runs agree with the
plain-Python reference functions, the solver and polynomial layers hold
up under fuzzing, reports are deterministic across worker counts, and
the parser survives garbage input. Run with -v to get one pass/fail
line per guarantee.
"""

import importlib.util
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from vlsym import cli
from vlsym.corpus import (
    CLEAN_FILES,
    COLMAX_FILES,
    SWAP_FILES,
    corpus_dir,
    crs_matvec_native,
    crs_to_dense_native,
    dense_matvec_native,
    enumerate_skeletons,
    load_sources,
)
from vlsym.engine import Certainty, Property, SearchConfig, Stats, explore, run_path
from vlsym.parser import load_program, parse_program
from vlsym.ast import Program, pretty_print
from vlsym.solver import Atom, PathCondition, Rel, SatStatus, pc_sat
from vlsym.values import Poly, SymConst, SymKind

ALL_CORPUS = (
    "driver.vl",
    "matrix.vl",
    "sparse.vl",
    "sparse_bug_swap.vl",
    "driver_bug_colmax.vl",
)


def corpus_argv(names):
    root = corpus_dir()
    return [str(root / name) for name in names]


def loaded(names):
    program = load_program(load_sources(names))
    assert isinstance(program, Program), program
    return program


def array_values(state, name):
    """Read a real array out of a finished concrete run as Fractions."""
    storage = state.heap[state.lookup(name).addr]
    return [cell.poly.const_value() for cell in storage.cells]


def skeleton_count(n_bound, m_bound):
    # Each row independently picks a set of columns out of m, so a fixed
    # (n, m) contributes (2^m)^n structurally distinct matrices.
    return sum((2 ** m) ** n for n in range(1, n_bound + 1) for m in range(1, m_bound + 1))


def test_criterion_1_clean_corpus_verifies_in_682_paths(capsys):
    t0 = time.monotonic()
    rc = cli.main(["verify", *corpus_argv(CLEAN_FILES)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert "terminal paths  : 682" in out
    assert "=== Violations ===" not in out
    for row in (
        "Assertion violations",
        "Out of bounds accesses",
        "Division by zero",
        "Reads of undefined values",
        "Writes to input variables",
    ):
        assert f" + {row}" in out
    # the deterministic counters are the equivalence check for speed work
    assert "states explored : 150633" in out
    assert "pruned branches : 0" in out
    assert "solver calls    : 13" in out
    # two independent counts of the expected path total
    assert skeleton_count(3, 3) == 682
    assert len(enumerate_skeletons(3, 3)) == 682
    assert elapsed < 60.0
    print(f"criterion 1 PASS: clean verify, 682 paths, {elapsed:.1f}s")


def test_search_limits_keep_their_counters(capsys):
    # --max-depth cuts paths per statement and --first stops at the first
    # violation; both must stop at the same state as before
    rc = cli.main(["verify", "--max-depth", "6", *corpus_argv(CLEAN_FILES)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "states explored : 6994" in out
    assert "terminal paths  : 31" in out
    assert "pruned branches : 0" in out
    assert "solver calls    : 13" in out

    rc = cli.main(["verify", "--first", *corpus_argv(SWAP_FILES)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "states explored : 177" in out
    assert "terminal paths  : 1" in out
    assert "pruned branches : 0" in out
    assert "solver calls    : 8" in out
    assert out.count("(property: ASSERTION_VIOLATION, certainty: PROVEABLE) at") == 1


def test_criterion_2_widened_bound_verifies_in_5050_paths(capsys):
    t0 = time.monotonic()
    rc = cli.main(["verify", "-inputM_B=4", *corpus_argv(CLEAN_FILES)])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert "M_B = 4 (override)" in out
    assert "terminal paths  : 5050" in out
    assert "=== Violations ===" not in out
    assert skeleton_count(3, 4) == 5050
    assert len(enumerate_skeletons(3, 4)) == 5050
    assert elapsed < 600.0
    print(f"criterion 2 PASS: M_B=4 verify, 5050 paths, {elapsed:.1f}s")


def test_criterion_3_swapped_loads_give_a_proveable_witness():
    program = loaded(SWAP_FILES)
    result = explore(program, SearchConfig())
    assert result.stats == Stats(states=134115, terminals=9, pruned=0, solver_calls=686)
    assert result.violations
    first = result.violations[0]
    assert first.prop is Property.ASSERTION_VIOLATION
    assert first.certainty is Certainty.PROVEABLE
    assert first.loc.file == "driver.vl"
    assert first.witness

    # the earliest counterexample is already the smallest matrix
    named = {sym.render(): value for sym, value in first.witness.items()}
    assert named["N"] == 1
    assert named["M"] == 1

    by_trail = {sk.trail: sk for sk in enumerate_skeletons(3, 3)}
    sk = by_trail[tuple(first.trail)]
    assert (sk.n, sk.m, sk.nz) == (1, 1, 1)
    assert sk.row_ptr == (0, 1)
    assert sk.col_ind == (0,)

    # substitute the witness: the reference result is the product of the
    # single stored value and the single vector entry, and it separates
    # the two sides as exact rationals
    a0 = Fraction(named["X_A[0]"])
    v0 = Fraction(named["X_V[0]"])
    assert crs_matvec_native([a0], sk.col_ind, sk.row_ptr, [v0], 1) == [a0 * v0]
    assert a0 * v0 != 0

    shown = dict(first.detail)
    assert shown["expected"] == f"[ {a0 * v0} ]"
    assert shown["actual"] == "[ 0 ]"
    assert shown["actual"] != shown["expected"]

    # rerunning that one path with the witness values plugged in trips
    # the same assertion concretely
    reals = {"V": [Fraction(0)] * 3, "A": [Fraction(0)] * 9}
    for sym, value in first.witness.items():
        if sym.index is not None:
            reals[sym.name][sym.index] = Fraction(value)
    outcome = run_path(program, SearchConfig(), trail=list(first.trail), reals=reals)
    assert outcome.state is None
    assert any(v.prop is Property.ASSERTION_VIOLATION for v in outcome.violations)
    print(f"criterion 3 PASS: swap bug witnessed at n=m=1, {a0 * v0} vs 0")


def test_criterion_4_column_bound_bug_is_located_at_the_vector_read():
    program = loaded(COLMAX_FILES)
    result = explore(program, SearchConfig())
    assert result.stats == Stats(states=427061, terminals=682, pruned=0, solver_calls=3384)
    lines = (corpus_dir() / "sparse.vl").read_text().splitlines()
    vector_read = next(i for i, text in enumerate(lines, 1) if "v[j]" in text)
    hits = [
        v
        for v in result.violations
        if v.prop is Property.OUT_OF_BOUNDS and v.loc.file == "sparse.vl"
    ]
    assert hits
    assert {v.loc.line for v in hits} == {vector_read}
    assert all(v.certainty is Certainty.PROVEABLE for v in hits)
    assert "outside 'v'" in hits[0].message
    # the overrun column only exists at full width
    named = {sym.render(): value for sym, value in hits[0].witness.items()}
    assert named["M"] == 3
    print(f"criterion 4 PASS: {len(hits)} out-of-bounds reads at sparse.vl:{vector_read}")


def test_criterion_5_concrete_runs_match_the_reference_functions():
    program = loaded(CLEAN_FILES)
    skeletons = enumerate_skeletons(3, 3)
    assert len(skeletons) == 682
    rng = Random(108)
    checked = 0
    for sk in skeletons:
        for _ in range(3):
            v = [Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for _ in range(3)]
            a = [Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for _ in range(9)]
            outcome = run_path(
                program, SearchConfig(), trail=list(sk.trail), reals={"V": v, "A": a}
            )
            assert outcome.state is not None, sk
            assert not outcome.violations, sk
            val = a[: sk.nz]
            want = crs_matvec_native(val, sk.col_ind, sk.row_ptr, v, sk.n)
            dense = crs_to_dense_native(val, sk.col_ind, sk.row_ptr, sk.n, sk.m)
            assert dense_matvec_native(dense, v, sk.n, sk.m) == want
            assert array_values(outcome.state, "actual") == want
            assert array_values(outcome.state, "expected") == want
            checked += 1
    assert checked == 682 * 3
    print(f"criterion 5 PASS: {checked} concrete runs match the references exactly")


def _linear(coeffs, const=0):
    p = Poly.const(Fraction(const))
    for sym, c in coeffs.items():
        p = p + Poly.symbol(sym).scale(Fraction(c))
    return p


def test_criterion_6a_fuzzed_witnesses_satisfy_their_path_conditions():
    rng = Random(61)
    ints = [SymConst(f"n{i}", None, SymKind.INT, i) for i in range(3)]
    reals = [SymConst("X", i, SymKind.REAL, 10 + i) for i in range(2)]
    rels = [Rel.LT, Rel.LE, Rel.EQ, Rel.NE]
    sat = unsat = unknown = 0
    for _ in range(10_000):
        atoms = []
        for s in ints:
            lo = rng.randint(-3, 2)
            hi = lo + rng.randint(0, 4)
            atoms.append(Atom(SymKind.INT, Rel.LE, _linear({s: -1}, lo)))
            atoms.append(Atom(SymKind.INT, Rel.LE, _linear({s: 1}, -hi)))
        for _ in range(rng.randint(0, 3)):
            picked = rng.sample(ints, rng.randint(1, 3))
            coeffs = {s: rng.randint(-2, 2) for s in picked}
            atoms.append(Atom(SymKind.INT, rng.choice(rels), _linear(coeffs, rng.randint(-3, 3))))
        for _ in range(rng.randint(0, 2)):
            p = _linear({s: rng.randint(-3, 3) for s in reals}, rng.randint(-4, 4))
            if rng.random() < 0.3:
                p = p * _linear({reals[0]: 1}, rng.randint(-2, 2))
            atoms.append(Atom(SymKind.REAL, rng.choice(rels), p))
        pc = PathCondition()
        for atom in atoms:
            pc = pc.add(atom)
        res = pc_sat(pc)
        if res.status is SatStatus.SAT:
            sat += 1
            assert all(atom.holds(res.witness) for atom in pc.atoms)
        elif res.status is SatStatus.UNSAT:
            unsat += 1
        else:
            unknown += 1
    assert sat + unsat + unknown == 10_000
    assert sat > 0 and unsat > 0
    print(f"criterion 6a PASS: 10000 path conditions, {sat} sat, {unsat} unsat, {unknown} unknown")


def _random_poly(rng, syms):
    p = Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    for _ in range(rng.randrange(4)):
        term = Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for s in rng.sample(syms, rng.randint(1, 2)):
            term = term * Poly.symbol(s)
        p = p + term
    return p


def test_criterion_6b_polynomials_satisfy_ring_axioms():
    rng = Random(62)
    syms = [SymConst(f"x{i}", None, SymKind.REAL, i) for i in range(3)]
    zero = Poly.const(0)
    one = Poly.const(1)
    for _ in range(10_000):
        a = _random_poly(rng, syms)
        b = _random_poly(rng, syms)
        c = _random_poly(rng, syms)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero()
        assert (a * zero).is_zero()
    print("criterion 6b PASS: ring axioms on 10000 random polynomial pairs")


def test_criterion_6c_zero_polynomial_iff_agreement_at_64_points():
    rng = Random(63)
    syms = [SymConst(f"x{i}", None, SymKind.REAL, i) for i in range(3)]
    for round_no in range(500):
        a = _random_poly(rng, syms)
        if round_no % 2 == 0:
            # structurally equal by a different construction order
            d = _random_poly(rng, syms)
            b = (a + d) - d
            assert (a - b).is_zero()
        else:
            b = _random_poly(rng, syms)
        points = [
            {s: Fraction(rng.randint(-999, 999), rng.randint(1, 7)) for s in syms}
            for _ in range(64)
        ]
        agrees = all(a.eval(pt) == b.eval(pt) for pt in points)
        assert agrees == (a - b).is_zero()
    print("criterion 6c PASS: zero polynomial iff 64-point agreement, both directions")


def test_criterion_7_reports_are_identical_across_worker_counts(capsys, tmp_path):
    rc1 = cli.main(["verify", "--workers", "1", *corpus_argv(CLEAN_FILES)])
    out1 = capsys.readouterr().out
    rc2 = cli.main(["verify", "--workers", "4", *corpus_argv(CLEAN_FILES)])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0

    def stable(text):
        return "\n".join(ln for ln in text.splitlines() if not ln.startswith("time (s)"))

    assert stable(out1) == stable(out2)

    # colmax has violations: the report, the summaries on stderr and the
    # emitted trails all match between the serial and the forked search
    runs = []
    for workers in ("1", "2", "3"):
        trails = tmp_path / f"trails-{workers}"
        argv = ["verify", "--workers", workers, "--emit-trails", str(trails)]
        rc = cli.main([*argv, *corpus_argv(COLMAX_FILES)])
        captured = capsys.readouterr()
        emitted = {p.name: p.read_text() for p in trails.iterdir()}
        runs.append((rc, stable(captured.out), captured.err, emitted))
    assert runs[0] == runs[1] == runs[2]
    rc, _, err, emitted = runs[0]
    assert rc == 2
    assert len(emitted) == len(err.splitlines()) == 3371
    print("criterion 7 PASS: workers 1, 2, 3 and 4 produce the same report")


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_workloads():
    """bench/workloads.py, loaded by path: the benchmark's workloads and oracle."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _bench_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_reports_keep_their_recorded_bytes(name, capsys, monkeypatch):
    # the report prints file names as given, so run where the benchmark
    # does: in the corpus directory, with bare names
    w = workloads.WORKLOADS[name]
    monkeypatch.chdir(corpus_dir())
    rc = cli.main(["verify", *w.argv])
    outcome = workloads.parse_report(capsys.readouterr().out.encode())
    assert workloads.check(w, rc, outcome) == []
    recorded = json.loads((BENCH / "recorded.json").read_text())[name]
    assert outcome.counters == recorded["counters"]
    assert outcome.digest == recorded["report_sha256"]


TOKEN_SOUP = [
    "func", "input", "var", "int", "real", "if", "else", "while", "for",
    "return", "assert", "assume", "print", "len", "equals", "choose_int",
    "main", "x", "row_ptr", "(", ")", "{", "}", "[", "]", ";", ",", "=",
    "==", "!=", "<", "<=", ">", ">=", "&&", "||", "!", "+", "-", "*", "/",
    "++", "->", "0", "1", "42", "3.5", "0.0", '"text"', '"', "\n", " ",
]


# the fuzz inputs that criterion 8 draws from its seeded Random: no fewer
# than the most that 60 seconds of fuzzing reached with CI's warning flags
# on a 2-CPU host, 137,303 (100,560 at a slower time)
FUZZ_INPUTS = 140_000


def test_criterion_8_parser_survives_fuzzing_and_round_trips():
    rng = Random(20260819)
    corpus_texts = [(corpus_dir() / name).read_text() for name in ALL_CORPUS]
    for _ in range(FUZZ_INPUTS):
        kind = rng.randrange(3)
        if kind == 0:
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(400)))
            text = raw.decode("utf-8", "replace")
        elif kind == 1:
            text = "".join(rng.choice(TOKEN_SOUP) for _ in range(rng.randrange(150)))
        else:
            base = rng.choice(corpus_texts)
            i, j = sorted((rng.randrange(len(base)), rng.randrange(len(base))))
            text = base[:i] + base[j:]
        out = load_program([("fuzz.vl", text)])
        assert isinstance(out, (Program, list)), out
        if isinstance(out, list):
            assert out, "an error result must carry diagnostics"

    for name, text in zip(ALL_CORPUS, corpus_texts):
        prog = parse_program(text, name)
        printed = pretty_print(prog)
        assert parse_program(printed, name) == prog
        assert pretty_print(parse_program(printed, name)) == printed
    print(f"criterion 8 PASS: {FUZZ_INPUTS} fuzz inputs survived, corpus round-trips")
