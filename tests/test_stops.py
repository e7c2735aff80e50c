"""Paths that stop in the middle of a function: on an error, on a limit,
on a decided or repeated condition, with the counters, verdicts and the
report's verdict rows pinned, and the few executor members that
translated code may touch."""

import ast
import re

import pytest
from test_block_entries import NESTS
from test_engine import TWO_PINS

from vlsym import engine
from vlsym.ast import Program
from vlsym.corpus import CLEAN_FILES, COLMAX_FILES, SWAP_FILES, load_sources
from vlsym.engine import SearchConfig, Stats, explore, render_trail
from vlsym.parser import load_program
from vlsym.report import render_report

ALL_PLUS = [
    " + Assertion violations",
    " + Out of bounds accesses",
    " + Division by zero",
    " + Reads of undefined values",
    " + Writes to input variables",
]
# the rows of a search that was cut short, and its note
UNMARKED = ["   " + row[3:] for row in ALL_PLUS]
CUT_SHORT = "note: the search was cut short; unmarked categories were not fully checked."


def load(src: str) -> Program:
    prog = load_program([("<input>", src)])
    assert isinstance(prog, Program), prog
    return prog


def search(src: str, **kw):
    """The search's result under SearchConfig(**kw), its terminal states,
    and the lines of its report."""
    terminals = []
    r = explore(load(src), SearchConfig(**kw), on_terminal=terminals.append)
    return r, terminals, render_report(["<input>"], [], 0.0, r, {"<input>": src}).splitlines()


def rows(report: list[str]) -> list[str]:
    """The five rows of a report's verdict table."""
    at = report.index("=== Result ===")
    return report[at + 2 : at + 7]


def findings(r) -> list:
    return [
        (v.prop.name, v.certainty.name, v.loc.render(), v.message, v.depth) for v in r.violations
    ]


# --- a real condition that the path already holds, or its negation ---


def test_an_assumed_real_equality_proves_the_same_assertion():
    r, terminals, report = search(
        "input real V[2];\n"
        "func main() {\n"
        "  assume(V[0] == V[1]);\n"
        "  assert(V[0] == V[1]);\n"
        "}\n"
    )
    assert r.stats == Stats(2, 1, 0, 2)
    assert findings(r) == [] and not r.incomplete
    assert [st.prints for st in terminals] == [[]]
    assert rows(report) == ALL_PLUS


def test_an_assumed_real_comparison_no_longer_hides_the_write_after_it():
    r, terminals, report = search(
        "input real V[2];\n"
        "func main() {\n"
        "  assume(V[0] < V[1]);\n"
        "  assert(V[0] < V[1]);\n"
        "  var int a[1];\n"
        "  a[1] = 0;\n"
        "}\n"
    )
    assert r.stats == Stats(4, 0, 0, 3)
    assert findings(r) == [
        ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:6:3-6", "index 1 outside 'a' of length 1", 0)
    ]
    assert terminals == []
    assert rows(report) == [ALL_PLUS[0], " - Out of bounds accesses", *ALL_PLUS[2:]]


def test_a_repeated_real_test_prunes_its_dead_side():
    r, terminals, report = search(
        "input real V[2];\n"
        "func main() {\n"
        "  if (V[0] < V[1]) {\n"
        "    if (V[0] < V[1]) {\n"
        '      print("in");\n'
        "    } else {\n"
        "      var int a[1];\n"
        "      a[1] = 0;\n"
        "    }\n"
        "  }\n"
        "}\n"
    )
    assert r.stats == Stats(3, 2, 1, 4)
    assert findings(r) == []
    assert sorted(([d.render() for d in st.trail], st.prints) for st in terminals) == [
        (["B e"], []),
        (["B t", "B t"], ["in"]),
    ]
    assert rows(report) == ALL_PLUS


# --- errors and limits that end a path ---


def test_a_negative_extent_is_a_proved_out_of_bounds_at_the_extent():
    r, terminals, report = search("input int N = 1;\nfunc main() {\n  var int a[N - 3];\n}\n")
    assert r.stats == Stats(1, 0, 0, 1)
    assert findings(r) == [
        ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:3:13-17", "negative extent -2 for 'a'", 0)
    ]
    assert "witness: (any input)" in report
    assert terminals == [] and not r.incomplete
    assert rows(report) == [ALL_PLUS[0], " - Out of bounds accesses", *ALL_PLUS[2:]]


def test_a_limit_on_the_first_part_of_a_condition_cuts_the_path_at_the_test():
    r, terminals, report = search(
        "input int N;\n"
        "input int M;\n"
        "func main() {\n"
        "  assume(0 <= M && M <= 3);\n"
        '  if (N < 3 && M < 2) {\n    print("in");\n  }\n'
        "}\n"
    )
    assert r.stats == Stats(2, 0, 0, 2)
    assert findings(r) == [
        ("ENUM_BUDGET", "MAYBE", "<input>:5:3-21", "no finite bounds for 'N'", 0)
    ]
    assert r.incomplete and terminals == []
    assert rows(report) == UNMARKED


PIN_AT_THE_BUDGET = (
    "input int N;\n"
    "func main() {\n"
    "  assume(0 <= N && N <= 20);\n"
    "  var int a[N];\n"
    "  a[0] = 1;\n"
    "}\n"
)


def test_a_symbol_past_the_budget_is_stopped_by_the_solver_before_its_pin():
    # N has 21 values: the solver's product of int ranges passes a budget of
    # 20 at the assume, so the path stops there, before the extent pins N
    r, terminals, report = search(PIN_AT_THE_BUDGET, budget=20)
    assert r.stats == Stats(1, 0, 0, 1)
    assert findings(r) == [
        ("ENUM_BUDGET", "MAYBE", "<input>:3:3-28", "21 assignments exceed the budget of 20", 0)
    ]
    assert r.incomplete and terminals == []
    assert rows(report) == UNMARKED


def test_a_symbol_within_the_budget_is_pinned_to_each_of_its_values():
    r, terminals, report = search(PIN_AT_THE_BUDGET, budget=21)
    assert r.stats == Stats(44, 20, 0, 23)
    assert findings(r) == [
        ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:5:3-6", "index 0 outside 'a' of length 0", 1)
    ]
    assert [render_trail(v.trail) for v in r.violations] == ["# trail v1\nZ N=0/21\n"]
    assert not r.incomplete and len(terminals) == 20
    assert rows(report) == [ALL_PLUS[0], " - Out of bounds accesses", *ALL_PLUS[2:]]


def test_an_assertion_the_sampler_cannot_decide_is_a_maybe():
    # it fails only at V[0] = +-sqrt(2), which no rational sample reaches;
    # the MAYBE ends the path undecided, so no other row is claimed
    r, terminals, report = search(
        "input real V[1];\nfunc main() {\n  assert(V[0] * V[0] != 2.0);\n}\n"
    )
    assert r.stats == Stats(1, 0, 0, 1)
    assert findings(r) == [
        ("ASSERTION_VIOLATION", "MAYBE", "<input>:3:3-29", "asserted condition cannot be proved", 0)
    ]
    assert terminals == [] and r.incomplete
    assert rows(report) == [" - Assertion violations", *UNMARKED[1:]]
    assert CUT_SHORT in report


def test_a_square_that_is_never_negative_proves_the_assertion():
    r, terminals, report = search(
        "input real V[2];\nfunc main() {\n  assert(0.0 <= V[0] * V[0]);\n}\n"
    )
    assert r.stats == Stats(1, 1, 0, 1)
    assert findings(r) == [] and not r.incomplete
    assert [st.prints for st in terminals] == [[]]
    assert rows(report) == ALL_PLUS


def test_a_proved_square_no_longer_hides_the_write_after_it():
    r, terminals, report = search(
        "input real V[2];\n"
        "func main() {\n"
        "  var int a[1];\n"
        "  assert(0.0 <= V[0] * V[0]);\n"
        "  a[1] = 0;\n"
        "}\n"
    )
    assert r.stats == Stats(3, 0, 0, 2)
    assert findings(r) == [
        ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:5:3-6", "index 1 outside 'a' of length 1", 0)
    ]
    assert terminals == [] and not r.incomplete
    assert rows(report) == [ALL_PLUS[0], " - Out of bounds accesses", *ALL_PLUS[2:]]


def test_a_maybe_division_leaves_the_rows_of_the_code_after_it_unmarked():
    # the write is out of bounds wherever V[0] != 0, but the path ends at
    # the division, so the table claims nothing for it
    r, terminals, report = search(
        "input real V[2];\n"
        "func main() {\n"
        "  var int a[1];\n"
        "  var real x = 1.0 / V[0];\n"
        "  a[1] = 0;\n"
        "}\n"
    )
    assert r.stats == Stats(2, 0, 0, 1)
    assert findings(r) == [
        (
            "DIVISION_BY_ZERO",
            "MAYBE",
            "<input>:4:16-25",
            "cannot show the divisor X_V[0] is never zero",
            0,
        )
    ]
    assert terminals == [] and r.incomplete
    assert rows(report) == [*UNMARKED[:2], " - Division by zero", *UNMARKED[3:]]
    assert CUT_SHORT in report


def test_an_assumed_disjunction_keeps_each_side_that_holds():
    r, terminals, report = search(
        "input int N;\n"
        "func main() {\n"
        "  assume(0 <= N && N <= 5);\n"
        "  assume(N < 2 || 4 < N);\n"
        "  var int a[N];\n"
        "  print(N);\n"
        "}\n"
    )
    assert r.stats == Stats(10, 3, 1, 8)
    assert findings(r) == []
    assert [([d.render() for d in st.trail], st.prints) for st in terminals] == [
        (["B t", "Z N=0/2"], ["0"]),
        (["B t", "Z N=1/2"], ["1"]),
        (["B e", "B t", "Z N=5/1"], ["5"]),
    ]
    assert rows(report) == ALL_PLUS


def test_a_decided_false_assumption_ends_the_path_without_the_solver():
    r, terminals, report = search("func main() {\n  assume(1 < 0);\n}\n")
    assert r.stats == Stats(1, 0, 1, 0)
    assert findings(r) == [] and terminals == []
    assert rows(report) == ALL_PLUS


def test_a_negated_decided_condition_is_decided_on_the_general_code():
    # N is symbolic, so main runs its general code, where the negation of
    # a decided comparison is the negation of True
    r, terminals, report = search(
        "input int N;\n"
        "func main() {\n"
        "  if (!(1 < 2)) {\n"
        '    print("no");\n'
        "  }\n"
        '  print("yes");\n'
        "}\n"
    )
    assert r.stats == Stats(2, 1, 0, 0)
    assert findings(r) == []
    assert [st.prints for st in terminals] == [["yes"]]
    assert rows(report) == ALL_PLUS


# --- the statement that a stop is charged to ---

# each stop is on a line of its statement's code that is not the first:
# the else of a write in a loop, a nested line of an &&, a pin there, from
# where the pinned copies run the statement again on the concrete code,
# and a pin inside nine nested loops, one more than a translation runs as
# Python loops
WRITE_IN_A_LOOP = """\
func main() {
  var int a[2];
  var int i = 0;
  while (i < 3) {
    a[i] = i;
    i = i + 1;
  }
}
"""
READ_IN_AN_AND = """\
func main() {
  var int a[1];
  a[0] = 0;
  var int u;
  if (a[0] == 0 && u == 1) {
    a[0] = 1;
  }
}
"""
PIN_IN_AN_AND = """\
input int N;
func main() {
  assume(0 <= N && N <= 1);
  var int a[1];
  a[0] = 0;
  if (a[0] == 0 && a[N] == 0) {
    print("hit");
  }
}
"""
PIN_IN_NINE_LOOPS = """\
input int N;
func main() {
  var int i = 0;
  while (i < 2) { var int j = 0; while (j < 2) { var int k = 0; while (k < 2) { var int l = 0; while (l < 2) { var int m = 0; while (m < 2) {
    var int o = 0; while (o < 2) { var int p = 0; while (p < 2) { var int q = 0; while (q < 2) { var int r = 0; while (r < 2) {
      var int a[2]; if (r == 1 && q == 1 && p == 1) { assume(0 <= N && N <= 1); a[N + 1] = 1; }
      r = r + 1; } q = q + 1; } p = p + 1; } o = o + 1; } m = m + 1; } l = l + 1; } k = k + 1; } j = j + 1; } i = i + 1; }
}
"""


@pytest.mark.parametrize(
    "src, stats, found, trail, ends",
    [
        (
            WRITE_IN_A_LOOP,
            Stats(10, 0, 0, 1),
            ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:5:5-8", "index 2 outside 'a' of length 2", 0),
            [],
            [],
        ),
        (
            READ_IN_AN_AND,
            Stats(4, 0, 0, 1),
            ("READ_UNDEFINED", "PROVEABLE", "<input>:5:20-20", "'u' is read before assignment", 0),
            [],
            [],
        ),
        (
            PIN_IN_AN_AND,
            Stats(7, 1, 0, 4),
            ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:6:20-23", "index 1 outside 'a' of length 1", 1),
            ["Z N=1/2"],
            [(["Z N=0/2"], ["hit"])],
        ),
        (
            PIN_IN_NINE_LOOPS,
            Stats(4220, 1, 0, 4),
            ("OUT_OF_BOUNDS", "PROVEABLE", "<input>:6:81-88", "index 2 outside 'a' of length 2", 1),
            ["Z N=1/2"],
            [(["Z N=0/2"], [])],
        ),
    ],
    ids=["write-in-a-loop", "read-in-an-and", "pin-in-an-and", "pin-in-nine-loops"],
)
def test_a_stop_is_charged_to_the_statement_whose_line_raised(src, stats, found, trail, ends):
    r, terminals, _ = search(src)
    assert r.stats == stats and not r.incomplete
    assert findings(r) == [found]
    assert [d.render() for d in r.violations[0].trail] == trail
    assert [([d.render() for d in st.trail], st.prints) for st in terminals] == ends


# --- what translated code touches of its executor ---

WORKLOADS = (
    (CLEAN_FILES, {"overrides": {"M_B": 4}}),
    (SWAP_FILES, {}),
    (COLMAX_FILES, {}),
)


def compiled(monkeypatch, searches) -> list:
    """The lines and the constants of each source that engine._compile
    compiles in the explores of searches, each (sources, SearchConfig
    keywords)."""
    written = []
    real_compile = engine._compile

    def compile_(lines, filename, consts):
        written.append((lines, consts))
        return real_compile(lines, filename, consts)

    monkeypatch.setattr(engine, "_compile", compile_)
    for sources, kw in searches:
        explore(load_program(sources), SearchConfig(**kw))
    return written


def workloads() -> list:
    return [(load_sources(files), kw) for files, kw in WORKLOADS]

# the executor members that translated code may use: it forks through the first
# four, ends a stopped path through _stopped and counts its states
BLOCK_USES = {"choose", "branch", "check_assert", "apply_assume", "_stopped", "stats.states"}


def test_blocks_touch_their_executor_only_to_fork_count_and_stop(monkeypatch):
    written = ["\n".join(lines) for lines, _ in compiled(monkeypatch, workloads())]
    assert len(written) == 36
    uses = {m for source in written for m in re.findall(r"\bex\.(\w+(?:\.\w+)*)", source)}
    assert uses <= BLOCK_USES, uses - BLOCK_USES
    bare = {
        line.strip()
        for source in written
        for line in source.splitlines()
        if re.search(r"\bex\b(?!\.)", line)
    }
    assert bare == {"def run(ex, state, frame):"}


# --- the statement that each line of translated code belongs to ---

# a statement's line of translated code ends in its flat index
MARKER = re.compile(r"  # (\d+)$")


def test_each_line_that_may_raise_names_its_statement(monkeypatch):
    searches = [*workloads(), ([("<input>", NESTS)], {}), ([("<input>", TWO_PINS)], {})]
    written = compiled(monkeypatch, searches)
    functions = [w for w in written if w[0][0] == "def run(ex, state, frame):"]
    assert len(functions) == 39
    for lines, consts in functions:
        source = "\n".join(lines)
        run = ast.parse(source).body[0]
        (tried,) = [s for s in run.body if isinstance(s, ast.Try)]
        (handler,) = tried.handlers
        marked = {i + 1: int(m[1]) for i, line in enumerate(lines) if (m := MARKER.search(line))}
        # the handler first looks up its table, the markers by line number,
        # which _compile puts one line lower; each marker is a statement of
        # the function
        first = lines[handler.lineno]
        table = consts[int(re.fullmatch(r"  k = C(\d+)\[exc\.__traceback__\.tb_lineno\]", first)[1])]
        locs = consts[int(re.search(r"ex\._stopped\(state, C(\d+)\[k\], exc\)", source)[1])]
        assert table == {at + 1: q for at, q in marked.items()}
        assert set(marked.values()) <= set(range(len(locs)))
        calls = {n.lineno for s in tried.body for n in ast.walk(s) if isinstance(n, ast.Call)}
        assert calls and calls <= marked.keys(), [lines[at - 1] for at in calls - marked.keys()]
        stores = [
            n.lineno
            for n in ast.walk(run)
            if isinstance(n, ast.Name) and n.id == "k" and isinstance(n.ctx, ast.Store)
        ]
        assert stores == [handler.body[0].lineno]
