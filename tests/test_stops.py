"""Paths that stop in the middle of a function: on an error, on a limit,
on a decided or repeated condition, with the counters, verdicts and the
report's verdict rows pinned, and the few executor members that
translated code may touch."""

import re

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


# --- what translated code touches of its executor ---

# the executor members that translated code may use: it forks through the first
# four, ends a stopped path through _stopped and counts its states
BLOCK_USES = {"choose", "branch", "check_assert", "apply_assume", "_stopped", "stats.states"}


def test_blocks_touch_their_executor_only_to_fork_count_and_stop(monkeypatch):
    written = []
    real_compile = engine._compile

    def compile_(lines, filename, consts):
        written.append("\n".join(lines))
        return real_compile(lines, filename, consts)

    monkeypatch.setattr(engine, "_compile", compile_)
    for files, kw in (
        (CLEAN_FILES, {"overrides": {"M_B": 4}}),
        (SWAP_FILES, {}),
        (COLMAX_FILES, {}),
    ):
        explore(load_program(load_sources(files)), SearchConfig(**kw))
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
