"""Report rendering: section layout, markers, violation blocks."""

from vlsym import cli
from vlsym.diagnostics import Loc
from vlsym.engine import (
    Branch,
    Certainty,
    ChooseInt,
    ConcretizeInt,
    Property,
    SearchResult,
    Stats,
    Violation,
)
from vlsym.report import render_report, render_violation, violation_summary
from vlsym.values import SymConst, SymKind


def make_result(violations=(), incomplete=False):
    return SearchResult(
        list(violations),
        Stats(states=10, terminals=3, pruned=1, solver_calls=2),
        incomplete,
        ["N_B = 3 (default)", "N : int, symbolic"],
    )


def make_violation(prop=Property.ASSERTION_VIOLATION, certainty=Certainty.PROVEABLE, **kw):
    defaults = dict(
        loc=Loc("t.vl", 2, 3, 10),
        message="asserted condition fails",
        trail=(ConcretizeInt("N", 1, 3), ChooseInt(0, 2), Branch(True)),
        witness={SymConst("N", None, SymKind.INT, 0): 1},
        detail=None,
    )
    defaults.update(kw)
    return Violation(prop, certainty, **defaults)


SOURCES = {"t.vl": "func main() {\n  assert(1 == 2);\n}\n"}


def test_clean_report_layout():
    text = render_report(["t.vl"], ["N_B = 3 (default)"], 1.234, make_result(), SOURCES)
    lines = text.splitlines()
    assert lines[0] == "=== Source files ==="
    assert "t.vl" in lines
    assert "=== Inputs ===" in lines
    assert "N_B = 3 (default)" in lines
    assert "time (s)        : 1.23" in lines
    assert "states explored : 10" in lines
    assert "terminal paths  : 3" in lines
    assert "pruned branches : 1" in lines
    assert "solver calls    : 2" in lines
    assert "All errors marked with '+' are absent on all executions." in lines
    for label in (
        "Assertion violations",
        "Out of bounds accesses",
        "Division by zero",
        "Reads of undefined values",
        "Writes to input variables",
    ):
        assert f" + {label}" in lines
    assert "=== Violations ===" not in text


def test_violated_category_gets_minus_marker():
    v = make_violation()
    text = render_report(["t.vl"], [], 0.5, make_result([v]), SOURCES)
    assert " - Assertion violations" in text
    assert " + Out of bounds accesses" in text
    assert "=== Violations ===" in text


def test_incomplete_search_blanks_unchecked_categories():
    text = render_report(["t.vl"], [], 0.5, make_result(incomplete=True), SOURCES)
    assert "   Assertion violations" in text
    assert " + " not in text
    assert "cut short" in text


def test_violation_block_contents():
    block = render_violation(0, make_violation(), SOURCES)
    lines = block.splitlines()
    assert lines[0] == "Violation 0 encountered at depth 3:"
    assert lines[1] == "(property: ASSERTION_VIOLATION, certainty: PROVEABLE) at"
    assert lines[2] == "t.vl:2:3-10 | assert(1 == 2);"
    assert lines[3] == "cause: asserted condition fails"
    assert lines[4] == "witness: N = 1"
    assert lines[5] == "trail:"
    assert lines[6:] == ["  Z N=1/3", "  C 0/2", "  B t"]


def test_maybe_violation_has_no_witness():
    v = make_violation(certainty=Certainty.MAYBE, witness=None, trail=())
    block = render_violation(2, v, SOURCES)
    assert "witness: (none)" in block
    assert "trail:" not in block
    assert "depth 0" in block


def test_empty_witness_reads_any_input():
    block = render_violation(0, make_violation(witness={}), SOURCES)
    assert block.splitlines()[4] == "witness: (any input)"


def test_a_finding_on_a_path_without_conditions_has_any_input_as_witness(tmp_path, capsys):
    src = tmp_path / "undef.vl"
    src.write_text("func main() { var int x; print(x); }\n")
    assert cli.main(["verify", str(src)]) == 2
    assert "\nwitness: (any input)\n" in capsys.readouterr().out
    assert cli.main(["run", str(src)]) == 2
    assert "\nwitness: (any input)\n" in capsys.readouterr().err


def test_detail_rows_follow_the_witness():
    v = make_violation(detail=[("actual", "[ 0 ]"), ("expected", "[ 1 ]")])
    block = render_violation(0, v, SOURCES)
    w = block.index("witness:")
    assert block.index("actual: [ 0 ]") > w
    assert block.index("expected: [ 1 ]") > w


def test_unknown_source_falls_back_to_bare_location():
    v = make_violation(loc=Loc("gone.vl", 9, 1, 2))
    block = render_violation(0, v, SOURCES)
    assert "gone.vl:9:1-2" in block
    assert "|" not in block.splitlines()[2]


def test_summary_line():
    line = violation_summary(4, make_violation())
    assert line == "violation 4: ASSERTION_VIOLATION (PROVEABLE) at t.vl:2:3-10"
