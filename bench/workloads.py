"""The benchmark's workloads, and the oracle every run is checked against.

Each workload is one `vlsym verify` command line over the bundled corpus.
Its expected outcome is written down here without running vlsym: path and
violation counts come from closed forms over the compressed-row (CRS)
matrix skeletons that the corpus drivers enumerate, and the verdict marks
and exit code follow from which violations exist.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass

# Rows of the report's verdict table, in report order.
VERDICT_ROWS = (
    "Assertion violations",
    "Out of bounds accesses",
    "Division by zero",
    "Reads of undefined values",
    "Writes to input variables",
)

# The report's deterministic counters, keyed by their label in `=== Stats ===`.
COUNTER_LABELS = {
    "states explored": "states",
    "terminal paths": "terminals",
    "pruned branches": "pruned",
    "solver calls": "solver_calls",
}

TIME_LINE = re.compile(rb"^time \(s\) *: .*$", re.MULTILINE)
_STAT = re.compile(r"^(.+?) *: (\d+)$")
_MARK = re.compile(r"^ ([+\- ]) (.+)$")
_VIOLATION = re.compile(r"^\(property: (\w+), certainty: (\w+)\) at$")
_LOC = re.compile(r"^([^:|]+):(\d+):")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # arguments after `vlsym verify`, without --seed
    exit_code: int
    marks: tuple[str, ...]  # one of '+', '-' per VERDICT_ROWS entry
    terminals: int
    # (property, certainty, "file:line") -> number of violations reported there
    violations: dict

    @property
    def workers(self) -> int:
        if "--workers" in self.argv:
            return int(self.argv[self.argv.index("--workers") + 1])
        return 1


def skeletons(n_bound: int, m_bound: int) -> int:
    """CRS skeletons with 1..n_bound rows and 1..m_bound columns: each row
    stores any subset of the m columns, so an n x m shape has (2^m)^n."""
    return sum((2**m) ** n for n in range(1, n_bound + 1) for m in range(1, m_bound + 1))


def _colmax_violations(n_bound: int, m_bound: int) -> dict:
    """driver_bug_colmax.vl draws columns from 0..m instead of 0..m-1, so a
    row stores any subset of m+1 positions with at most m entries:
    2^(m+1) - 1 choices, of which 2^m - 1 use the phantom column m.

    A path that never uses column m is a clean skeleton and ends normally.
    Otherwise the first error on the path is:
    - m == M_B: the kernel reads V[m], past V's M_B cells (sparse.vl:15);
    - m < M_B and the last row uses column m: crs_to_dense writes past the
      n*m cells of dense (driver_bug_colmax.vl:56);
    - m < M_B, only earlier rows use it: the entry lands in column 0 of the
      next row, and the final assertion fails (driver_bug_colmax.vl:96).
    """
    kernel_read = dense_write = wrong_result = 0
    for n in range(1, n_bound + 1):
        for m in range(1, m_bound + 1):
            rows, phantom_rows = 2 ** (m + 1) - 1, 2**m - 1
            bad = rows**n - (2**m) ** n
            if m == m_bound:
                kernel_read += bad
            else:
                last_row_bad = rows ** (n - 1) * phantom_rows
                dense_write += last_row_bad
                wrong_result += bad - last_row_bad
    return {
        ("OUT_OF_BOUNDS", "PROVEABLE", "sparse.vl:15"): kernel_read,
        ("OUT_OF_BOUNDS", "PROVEABLE", "driver_bug_colmax.vl:56"): dense_write,
        ("ASSERTION_VIOLATION", "PROVEABLE", "driver_bug_colmax.vl:96"): wrong_result,
    }


WORKLOADS = {
    w.name: w
    for w in (
        # 5050 paths and 1.29M states with almost no solver work: engine
        # dispatch, Poly/Fraction arithmetic and cloning, on the only path
        # that goes through the parallel search.
        Workload(
            name="clean_m4_w2",
            argv=("driver.vl", "matrix.vl", "sparse.vl", "-inputM_B=4", "--workers", "2"),
            exit_code=0,
            marks=("+", "+", "+", "+", "+"),
            terminals=skeletons(3, 4),
            violations={},
        ),
        # Every non-empty skeleton fails the final assertion; only the nine
        # empty ones (one per shape) end normally. Real-atom solver calls,
        # sampling and witnesses, serial.
        Workload(
            name="swap_bug",
            argv=("driver.vl", "matrix.vl", "sparse_bug_swap.vl"),
            exit_code=2,
            marks=("-", "+", "+", "+", "+"),
            terminals=3 * 3,
            violations={
                ("ASSERTION_VIOLATION", "PROVEABLE", "driver.vl:100"): skeletons(3, 3) - 3 * 3,
            },
        ),
        # 3371 violations found by integer enumeration and a report of about
        # 1 MB: the report, trail sorting and the integer solver, serial.
        Workload(
            name="colmax_bug",
            argv=("driver_bug_colmax.vl", "matrix.vl", "sparse.vl"),
            exit_code=2,
            marks=("-", "-", "+", "+", "+"),
            terminals=skeletons(3, 3),
            violations=_colmax_violations(3, 3),
        ),
    )
}


@dataclass
class Outcome:
    """What one `vlsym verify` run reported."""

    counters: dict
    marks: tuple
    violations: Counter
    digest: str  # sha256 of the report with the time line masked
    masked_bytes: int  # report size without the time line

    def fingerprint(self, rc: int) -> tuple:
        """Everything that must repeat exactly across runs of one workload."""
        return (rc, tuple(sorted(self.counters.items())), self.digest)


def parse_report(data: bytes) -> Outcome:
    time_line = TIME_LINE.search(data)
    time_len = len(time_line[0]) if time_line else 0
    counters: dict = {}
    marks: dict = {}
    violations: Counter = Counter()
    pending = None
    for line in data.decode(errors="replace").splitlines():
        if pending is not None:
            loc = _LOC.match(line)
            violations[(*pending, f"{loc[1]}:{loc[2]}" if loc else line)] += 1
            pending = None
            continue
        m = _STAT.match(line)
        if m and m[1] in COUNTER_LABELS:
            counters[COUNTER_LABELS[m[1]]] = int(m[2])
            continue
        m = _MARK.match(line)
        if m and m[2] in VERDICT_ROWS:
            marks[m[2]] = m[1]
            continue
        m = _VIOLATION.match(line)
        if m:
            pending = (m[1], m[2])
    return Outcome(
        counters=counters,
        marks=tuple(marks.get(row, "?") for row in VERDICT_ROWS),
        violations=violations,
        digest=hashlib.sha256(TIME_LINE.sub(b"time (s)", data)).hexdigest(),
        masked_bytes=len(data) - time_len,
    )


def check(w: Workload, rc: int, out: Outcome) -> list[str]:
    """Disagreements between one run and the workload's oracle."""
    problems = []
    if rc != w.exit_code:
        problems.append(f"exit code {rc}, expected {w.exit_code}")
    if out.marks != w.marks:
        problems.append(f"verdict marks {''.join(out.marks)}, expected {''.join(w.marks)}")
    if set(out.counters) != set(COUNTER_LABELS.values()):
        problems.append(f"report counters {sorted(out.counters)} are incomplete")
    elif out.counters["terminals"] != w.terminals:
        problems.append(f"{out.counters['terminals']} terminal paths, expected {w.terminals}")
    if dict(out.violations) != w.violations:
        problems.append(f"violations {dict(out.violations)}, expected {w.violations}")
    return problems
