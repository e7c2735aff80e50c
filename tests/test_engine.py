"""Executor behavior: path enumeration, forks, violations, replay."""

import os
import re
import select
import signal
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies
from test_block_entries import NESTS

from vlsym import cli, engine
from vlsym.ast import Program, validate
from vlsym.corpus import CLEAN_FILES, COLMAX_FILES, SWAP_FILES, load_sources
from vlsym.engine import (
    Certainty,
    ChooseInt,
    Property,
    SearchConfig,
    TrailMismatch,
    explore,
    parse_trail,
    render_trail,
    run_path,
)
from vlsym.parser import load_program, parse_program
from vlsym.report import render_violation
from vlsym.solver import Atom, PathCondition, Rel, SatStatus
from vlsym.values import Poly, RealVal, SymConst, SymKind


def load(src: str) -> Program:
    """The validated program, as the engine's entry points expect it."""
    prog = load_program([("<input>", src)])
    assert isinstance(prog, Program), prog
    return prog


def search(src: str, **kw) -> SimpleNamespace:
    """The fields of the search's SearchResult, plus terminal_states, each
    terminal state in the order the search reached it."""
    terminals = []
    cfg = SearchConfig(**kw)
    result = explore(load(src), cfg, on_terminal=terminals.append)
    fields = {name: getattr(result, name) for name in result.__slots__}
    return SimpleNamespace(**fields, terminal_states=terminals)


def test_straight_line_single_path():
    r = search(
        """
        func main() {
          var int x = 2;
          var int y = x * 3 + 1;
          print("y=", y);
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations
    (st,) = r.terminal_states
    assert st.prints == ["y=7"]
    assert st.trail == []


def test_symbolic_extent_fans_out():
    r = search(
        """
        input int N;
        func main() {
          assume(1 <= N && N <= 3);
          var int a[N];
          a[0] = N;
        }
        """
    )
    assert r.stats.terminals == 3
    trails = sorted(render_trail(st.trail) for st in r.terminal_states)
    assert trails == [
        "# trail v1\nZ N=1/3\n",
        "# trail v1\nZ N=2/3\n",
        "# trail v1\nZ N=3/3\n",
    ]


def test_choose_int_fans_out():
    r = search(
        """
        func main() {
          var int x;
          x = choose_int(3);
          print(x);
        }
        """
    )
    assert r.stats.terminals == 3
    assert sorted(st.prints[0] for st in r.terminal_states) == ["0", "1", "2"]
    assert {render_trail(st.trail) for st in r.terminal_states} == {
        "# trail v1\nC 0/3\n",
        "# trail v1\nC 1/3\n",
        "# trail v1\nC 2/3\n",
    }


def test_choose_int_zero_alternatives_prunes():
    r = search(
        """
        func main() {
          var int x;
          x = choose_int(0);
          print(x);
        }
        """
    )
    assert r.stats.terminals == 0
    assert r.stats.pruned == 1
    assert not r.violations


def test_symbolic_branch_explores_both_sides():
    r = search(
        """
        input int N;
        func main() {
          assume(0 <= N && N <= 1);
          var int x = 0;
          if (N == 0) {
            x = 5;
          }
          assert(x == 5 || N == 1);
        }
        """
    )
    assert r.stats.terminals == 2
    assert not r.violations
    assert {render_trail(st.trail) for st in r.terminal_states} == {
        "# trail v1\nB t\n",
        "# trail v1\nB e\n",
    }


def test_infeasible_branch_pruned():
    r = search(
        """
        input int N;
        func main() {
          assume(2 <= N && N <= 3);
          if (N < 2) {
            assert(1 == 2);
          }
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations
    assert r.stats.pruned >= 1


def test_symbolic_choice_bound():
    # the choose fanout depends on the pinned value of M
    r = search(
        """
        input int M;
        func main() {
          assume(1 <= M && M <= 2);
          var int x;
          x = choose_int(M);
        }
        """
    )
    assert r.stats.terminals == 3  # M=1 gives 1 path, M=2 gives 2
    assert {render_trail(st.trail) for st in r.terminal_states} == {
        "# trail v1\nZ M=1/2\nC 0/1\n",
        "# trail v1\nZ M=2/2\nC 0/2\n",
        "# trail v1\nZ M=2/2\nC 1/2\n",
    }


def test_assert_violation_with_witness():
    r = search(
        """
        input int N;
        func main() {
          assume(0 <= N && N <= 5);
          assert(N != 3);
        }
        """
    )
    assert len(r.violations) == 1
    v = r.violations[0]
    assert v.prop is Property.ASSERTION_VIOLATION
    assert v.certainty is Certainty.PROVEABLE
    assert v.loc.line == 5
    [(sym, val)] = list(v.witness.items())
    assert sym.name == "N" and val == 3
    assert r.stats.terminals == 0  # the violating path is abandoned


def test_assert_that_holds_adds_no_fork():
    r = search(
        """
        input int N;
        func main() {
          assume(0 <= N && N <= 5);
          assert(N <= 5);
          assert(0 <= N);
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations


@pytest.mark.parametrize(
    "n, and_one_more, certainty, message, solver_calls",
    [
        (12, False, Certainty.PROVEABLE, "asserted condition fails", 1),
        (13, False, Certainty.MAYBE, "condition is too large to check", 0),
        (12, True, Certainty.MAYBE, "condition is too large to check", 0),
    ],
    ids=["4096-disjuncts", "8192-disjuncts", "4096-disjuncts-or-one-more"],
)
def test_an_assertion_whose_negation_has_too_many_disjuncts_is_not_checked(
    n, and_one_more, certainty, message, solver_calls
):
    # the negation of n disjuncts `(V[2i] < 0.0 && V[2i+1] < 0.0)` has 2^n
    # disjuncts: 4096 is at the cut and is checked, 8192 is past it. Joined
    # by && to one more comparison, whose negation is one more disjunct,
    # the 4096 go past the cut in the negation's disjunction
    assert 2**12 == engine.MAX_DNF_DISJUNCTS
    cond = " || ".join(f"(V[{2 * i}] < 0.0 && V[{2 * i + 1}] < 0.0)" for i in range(n))
    cells = 2 * n
    if and_one_more:
        cond = f"({cond}) && V[{cells}] < 0.0"
        cells += 1
    r = search(f"input real V[{cells}];\nfunc main() {{\n  assert({cond});\n}}\n")
    assert r.stats == engine.Stats(states=1, terminals=0, pruned=0, solver_calls=solver_calls)
    # an assertion left unchecked ends its path undecided
    assert r.incomplete is (certainty is Certainty.MAYBE)
    [v] = r.violations
    assert (v.prop, v.certainty, v.message) == (Property.ASSERTION_VIOLATION, certainty, message)
    assert (v.loc.line, v.trail) == (3, ())
    if certainty is Certainty.PROVEABLE:
        # the first disjunct of the negation: every even cell is at least 0
        assert {s.render(): x for s, x in v.witness.items()} == {
            f"X_V[{2 * i}]": 1 for i in range(n)
        }
    else:
        assert v.witness is None


def test_out_of_bounds_read_and_write():
    r = search(
        """
        func main() {
          var int a[2];
          a[0] = 1;
          a[1] = 2;
          a[5] = 3;
        }
        """
    )
    assert len(r.violations) == 1
    v = r.violations[0]
    assert v.prop is Property.OUT_OF_BOUNDS
    assert v.certainty is Certainty.PROVEABLE
    assert "index 5" in v.message and "'a'" in v.message

    r = search(
        """
        func main() {
          var int a[2];
          a[0] = 1;
          var int x = a[2];
        }
        """
    )
    assert r.violations[0].prop is Property.OUT_OF_BOUNDS
    assert "index 2" in r.violations[0].message


def test_an_index_target_split_across_lines_is_reported_from_its_name_to_its_bracket():
    r = search("func main() {\n  var int abcdef[1];\n  abcdef[\n1] = 0;\n}")
    (v,) = r.violations
    assert v.prop is Property.OUT_OF_BOUNDS
    assert v.loc.render() == "<input>:3:3-8"


def test_read_of_undefined_scalar_and_cell():
    r = search(
        """
        func main() {
          var int x;
          var int y = x + 1;
        }
        """
    )
    assert r.violations[0].prop is Property.READ_UNDEFINED
    assert "'x'" in r.violations[0].message

    r = search(
        """
        func main() {
          var real a[2];
          a[0] = 1.5;
          var real y = a[1];
        }
        """
    )
    assert r.violations[0].prop is Property.READ_UNDEFINED
    assert "a[1]" in r.violations[0].message


def test_write_to_input_through_alias():
    r = search(
        """
        input real V[2];
        func poke(real[] p) {
          p[0] = 1.0;
        }
        func main() {
          poke(V);
        }
        """
    )
    assert r.violations[0].prop is Property.WRITE_TO_INPUT
    assert "'V'" in r.violations[0].message


def test_division_by_zero_concrete_and_symbolic():
    r = search(
        """
        func main() {
          var real x = 1.0 / 0.0;
        }
        """
    )
    assert r.violations[0].prop is Property.DIVISION_BY_ZERO
    assert r.violations[0].certainty is Certainty.PROVEABLE

    r = search(
        """
        input real V[1];
        func main() {
          var real x = 1.0 / V[0];
        }
        """
    )
    assert r.violations[0].prop is Property.DIVISION_BY_ZERO
    assert r.violations[0].certainty is Certainty.MAYBE
    assert r.violations[0].witness is None


def test_division_violations_keep_their_certainty_and_message():
    def only_violation(src):
        (v,) = search(src).violations
        return v.prop, v.certainty, v.message

    maybe = (Property.DIVISION_BY_ZERO, Certainty.MAYBE)
    proveable = (Property.DIVISION_BY_ZERO, Certainty.PROVEABLE)
    assert only_violation(
        """
        input real V[1];
        func main() {
          var real x = 1.0 / (V[0] * 2.0);
        }
        """
    ) == (*maybe, "cannot show the divisor 2*X_V[0] is never zero")
    assert only_violation(
        """
        func main() {
          var real x = 2.5 / 0.0;
        }
        """
    ) == (*proveable, "division by zero")
    # a symbolic divisor that cancels to the zero polynomial is a plain zero
    assert only_violation(
        """
        input real V[1];
        func main() {
          var real x = 1.0 / (V[0] - V[0]);
        }
        """
    ) == (*proveable, "division by zero")


def test_division_folds_exactly():
    r = search(
        """
        func main() {
          var real x = 1.0 / 3.0;
          assert(x * 3.0 == 1.0);
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations


def test_unbounded_symbol_reports_budget_violation():
    r = search(
        """
        input int N;
        func main() {
          var int a[N];
        }
        """
    )
    assert r.violations[0].prop is Property.ENUM_BUDGET
    assert r.violations[0].certainty is Certainty.MAYBE
    assert r.incomplete


def test_wide_choose_int_costs_one_option_in_run_and_replay():
    # building all 2^20 options would take over 100 MB; a path that takes
    # one option builds just that one
    k = 1 << 20
    prog = load(
        f"""
        func main() {{
          var int x;
          x = choose_int({k});
          print(x);
        }}
        """
    )
    last = parse_trail(f"C {k - 1}/{k}")
    tracemalloc.start()
    try:
        ran = run_path(prog, SearchConfig(seed=3))
        replayed = run_path(prog, SearchConfig(), last, reals={})
        with pytest.raises(TrailMismatch, match=f"^trail has C {k}/{k} where the path offers {k} "):
            run_path(prog, SearchConfig(), parse_trail(f"C {k}/{k}"), reals={})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert not ran.violations
    (line,) = ran.prints
    assert ran.state.trail == [ChooseInt(int(line), k)]
    assert replayed.prints == [str(k - 1)]
    assert replayed.state.trail == last


def test_every_path_that_takes_one_choice_holds_the_same_decision_object():
    # the report renders each decision object once, so paths that took the
    # same option of the same choose_int share it
    r = search(
        """
        func main() {
          for (var int i = 0; i < 3; i++) {
            var int c;
            c = choose_int(i + 2);
          }
        }
        """
    )
    assert (r.stats.terminals, r.stats.states) == (24, 85)
    steps = [d for st in r.terminal_states for d in st.trail]
    assert len(steps) == 72
    assert len({id(d) for d in steps}) == len(set(steps)) == 2 + 3 + 4


def test_concrete_loop_accumulates():
    r = search(
        """
        func main() {
          var int s = 0;
          for (var int i = 0; i < 5; i++) {
            s = s + i;
          }
          assert(s == 10);
          print(s);
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations
    assert r.terminal_states[0].prints == ["10"]


def test_call_returns_value_and_aliases_arrays():
    r = search(
        """
        func triple(int a) -> int {
          return a * 3;
        }
        func fill(int[] p, int v) {
          p[0] = v;
        }
        func main() {
          var int x;
          x = triple(2);
          assert(x == 6);
          var int a[1];
          fill(a, x);
          assert(a[0] == 6);
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations


PIN_ISOLATION = """
input int N;
input int K;
func probe(int p, int[] slots, int pick) {
  slots[p] = pick;
  if (K == 0) {
    print("probe t p=", p, " N=", N);
  } else {
    print("probe e p=", p, " N=", N);
  }
}
func main() {
  assume(0 <= N && N <= 2 && 0 <= K && K <= 1);
  var int local = N + 1;
  var int cells[1];
  cells[0] = N * 2;
  var int pick;
  pick = choose_int(2);
  var int slots[3];
  probe(N, slots, pick);
  if (K == 0) {
    print("main t g=", N, " l=", local, " c=", cells[0], " s=", slots[N]);
  } else {
    print("main e g=", N, " l=", local, " c=", cells[0], " s=", slots[N]);
  }
}
"""


def test_each_path_sees_only_its_own_pin():
    # N is still symbolic when the choose_int forks the path, so the sibling
    # states share their globals; it is then pinned by an index inside the
    # callee, and read from a global, a local of the caller, an array cell
    # and the callee's parameter on both sides of a later branch
    r = search(PIN_ISOLATION)
    assert not r.violations
    assert r.stats.terminals == 12
    seen = set()
    for st in r.terminal_states:
        choice, pin, probe_side, main_side = st.trail
        assert isinstance(choice, engine.ChooseInt) and isinstance(pin, engine.ConcretizeInt)
        assert probe_side == main_side
        n, k = pin.value, choice.index
        side = "t" if probe_side.side == 0 else "e"
        assert st.prints == [
            f"probe {side} p={n} N={n}",
            f"main {side} g={n} l={n + 1} c={2 * n} s={k}",
        ]
        seen.add((n, k, side))
    assert len(seen) == 12


def test_programs_explored_in_sequence_keep_their_own_results():
    # structurally alike programs, parsed and dropped one after another, so
    # the node objects of one may reuse the memory of the other's
    first = """
        func main() {
          var int x = 2;
          print("x=", x * 3);
        }
        """
    second = """
        input int N;
        func main() {
          assume(1 <= N && N <= 3);
          var int x = N;
          var int a[x];
          print("x=", x - 1);
        }
        """
    for _ in range(3):
        r = search(first)
        assert [st.prints for st in r.terminal_states] == [["x=6"]]
        r = search(second)
        assert sorted(st.prints[0] for st in r.terminal_states) == ["x=0", "x=1", "x=2"]


def test_recursion_is_rejected_at_load():
    src = """
        func f(int a) -> int {
          var int r;
          r = f(a);
          return r;
        }
        func main() {
          var int x;
          x = f(1);
        }
        """
    diags = load_program([("<input>", src)])
    assert not isinstance(diags, Program)
    assert any("recursive call cycle" in d.message for d in diags)


def test_fork_isolates_heap():
    # a write on the then side must not leak into the else side
    r = search(
        """
        input int N;
        func main() {
          assume(0 <= N && N <= 1);
          var int a[1];
          a[0] = 0;
          if (N == 0) {
            a[0] = 9;
          }
          if (N == 1) {
            assert(a[0] == 0);
          }
        }
        """
    )
    assert r.stats.terminals == 2
    assert not r.violations


def test_equals_violation_carries_array_detail():
    r = search(
        """
        input real V[2];
        func main() {
          var real a[2];
          var real b[2];
          a[0] = V[0];
          a[1] = V[1];
          b[0] = V[0];
          b[1] = V[1] + 1.0;
          assert(equals(a, b));
        }
        """
    )
    v = r.violations[0]
    assert v.prop is Property.ASSERTION_VIOLATION
    assert v.certainty is Certainty.PROVEABLE
    assert v.detail is not None
    names = [name for name, _ in v.detail]
    assert names == ["a", "b"]
    # under the (empty) witness the two renderings differ in cell 1
    assert v.detail[0][1] != v.detail[1][1]


def test_equals_length_mismatch_is_false():
    r = search(
        """
        func main() {
          var int a[1];
          var int b[2];
          a[0] = 1;
          b[0] = 1;
          b[1] = 1;
          assert(!equals(a, b));
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations


def test_equals_reading_an_undefined_cell_is_a_read_of_undefined():
    r = search(
        """
        func main() {
          var real a[2];
          var real b[2];
          a[0] = 1.0;
          b[0] = 1.0;
          b[1] = 2.0;
          assert(equals(a, b));
        }
        """
    )
    assert r.stats == engine.Stats(states=6, terminals=0, pruned=0, solver_calls=1)
    assert not r.incomplete
    (v,) = r.violations
    assert (v.prop, v.certainty) == (Property.READ_UNDEFINED, Certainty.PROVEABLE)
    assert v.loc.render() == "<input>:8:18-29"
    assert v.message == "'a[1]' is read before assignment"
    assert v.trail == ()
    assert r.terminal_states == []


def test_guard_short_circuits_after_pinning():
    # once i is pinned the left side folds, so the right side is skipped
    r = search(
        """
        input int N;
        func main() {
          assume(2 <= N && N <= 2);
          var int a[2];
          a[0] = 1;
          a[1] = 1;
          var int i = N;
          if (i < 2 && a[i] == 1) {
            assert(1 == 2);
          }
        }
        """
    )
    assert r.stats.terminals == 1
    assert not r.violations


@pytest.mark.parametrize(
    "cells, stats", [(500, (2008, 2, 499, 1001)), (1100, (4408, 2, 1099, 2201))]
)
def test_a_condition_with_many_conjuncts_is_walked_without_a_frame_per_conjunct(cells, stats):
    # equals() of two arrays is one conjunct per cell pair, each N == 0:
    # the first forks, and every later one is implied on its then side
    r = search(
        f"""
        input int N;
        func main() {{
          assume(0 <= N && N <= 9);
          var int a[{cells}];
          var int b[{cells}];
          var int i = 0;
          while (i < len(a)) {{
            a[i] = N;
            b[i] = 0;
            i = i + 1;
          }}
          if (equals(a, b)) {{
            print("same");
          }} else {{
            print("differ");
          }}
        }}
        """
    )
    assert r.stats == engine.Stats(*stats)
    assert [st.prints for st in r.terminal_states] == [["same"], ["differ"]]
    assert not r.violations


@pytest.mark.parametrize("op, goes_on, cut", [("&&", "else", "B t"), ("||", "then", "B e")])
def test_limit_inside_and_or_cuts_short_only_the_copy_that_meets_it(op, goes_on, cut):
    # the head forks on N; M has no bounds, so deciding the rest on the
    # copy that needs it meets a limit, and the other copy goes on
    r = search(
        f"""
        input int N;
        input int M;
        func main() {{
          assume(0 <= N && N <= 9);
          if (N < 5 {op} M < 3) {{
            print("then");
          }} else {{
            print("else");
          }}
        }}
        """
    )
    assert [st.prints for st in r.terminal_states] == [[goes_on]]
    (v,) = r.violations
    assert v.prop is Property.ENUM_BUDGET and v.certainty is Certainty.MAYBE
    assert v.message == "no finite bounds for 'M'"
    assert [d.render() for d in v.trail] == [cut]
    assert (v.loc.line, v.loc.col) == (6, 11)
    assert r.incomplete


def test_max_depth_marks_incomplete():
    r = search(
        """
        func main() {
          var int x;
          x = choose_int(2);
          var int y;
          y = choose_int(2);
        }
        """,
        max_depth=1,
    )
    assert r.incomplete
    assert r.stats.terminals == 0


def test_trail_round_trip_text():
    trail = parse_trail("# trail v1\nC 1/3\nB t\nZ N=2/3\nB e\n")
    assert render_trail(trail) == "# trail v1\nC 1/3\nB t\nZ N=2/3\nB e\n"
    with pytest.raises(engine.TrailFormatError):
        parse_trail("Q 1/2\n")
    with pytest.raises(engine.TrailFormatError):
        parse_trail("B maybe\n")


SMALL = """
input int N;
func main() {
  assume(1 <= N && N <= 2);
  var int a[N];
  var int i = 0;
  while (i < N) {
    var int c;
    c = choose_int(2);
    a[i] = c;
    i = i + 1;
  }
  var int s = 0;
  i = 0;
  while (i < N) {
    s = s + a[i];
    i = i + 1;
  }
  print("sum=", s);
}
"""


def test_replay_reproduces_each_terminal():
    r = search(SMALL)
    assert r.stats.terminals == 6  # 2 + 4
    for st in r.terminal_states:
        out = run_path(load(SMALL), SearchConfig(), list(st.trail), reals={})
        assert out.state is not None
        assert out.prints == st.prints
        assert not out.violations


def test_replay_rejects_leftover_and_mismatched_decisions():
    prog = load(SMALL)
    trail = parse_trail("# trail v1\nZ N=1/2\nC 0/2\nC 1/2\n")
    with pytest.raises(TrailMismatch, match=re.escape("path finished with 1 unused")):
        run_path(prog, SearchConfig(), trail, reals={})
    trail = parse_trail("# trail v1\nZ N=1/2\n")
    with pytest.raises(TrailMismatch):
        run_path(prog, SearchConfig(), trail, reals={})
    trail = parse_trail("# trail v1\nC 0/2\n")
    with pytest.raises(TrailMismatch):
        run_path(prog, SearchConfig(), trail, reals={})

    pinning_n = "the path offers 2 decision(s): Z N=1/2, Z N=2/2"
    choosing = "the path offers 2 decision(s): C 0/2, C 1/2"
    cases = [
        ("B t", f"trail has B t where {pinning_n}"),  # wrong kind
        ("Z N=7/2", f"trail has Z N=7/2 where {pinning_n}"),  # infeasible value
        ("Z N=1/2\nC 0/3", f"trail has C 0/3 where {choosing}"),  # wrong fanout
        ("Z N=1/2\nC 5/2", f"trail has C 5/2 where {choosing}"),  # index out of range
        ("Z N=1/2", f"trail ended where {choosing}"),  # too short
    ]
    for text, message in cases:
        with pytest.raises(TrailMismatch, match=f"^{re.escape(message)}$"):
            run_path(prog, SearchConfig(), parse_trail(text), reals={})

    # the message stays short at a wide fork
    src = """
        func main() {
          var int x;
          x = choose_int(100000);
        }
        """
    with pytest.raises(TrailMismatch) as caught:
        run_path(load(src), SearchConfig(), parse_trail("C 0/99999"), reals={})
    message = str(caught.value)
    assert message.startswith(
        "trail has C 0/99999 where the path offers 100000 decision(s): C 0/100000"
    )
    assert len(message) < 200


def test_replay_reaches_recorded_violation():
    src = """
        input int N;
        func main() {
          assume(1 <= N && N <= 3);
          var int a[N];
          a[N - 1] = 0;
          assert(a[N - 1] == N);
        }
        """
    r = search(src)
    assert r.violations
    v = r.violations[0]
    out = run_path(load(src), SearchConfig(), list(v.trail), reals={})
    assert out.state is None
    assert out.violations
    assert out.violations[0].prop is Property.ASSERTION_VIOLATION
    assert out.violations[0].loc == v.loc
    assert out.violations[0].trail == v.trail

    # N is the second symbol; its pin read back from a trail file equals
    # the one that the search recorded, and the replayed trail matches it
    src = """
        input int M;
        input int N;
        func main() {
          assume(1 <= N && N <= 3);
          var int a[N];
          a[N - 1] = 0;
          assert(a[N - 1] == N);
        }
        """
    v = search(src).violations[0]
    assert tuple(parse_trail(render_trail(v.trail))) == v.trail
    out = run_path(load(src), SearchConfig(), parse_trail(render_trail(v.trail)), reals={})
    assert out.violations[0].loc == v.loc
    assert out.violations[0].trail == v.trail


def test_unvalidated_program_is_refused_when_the_engine_is_built():
    with pytest.raises(engine.EngineInitError, match="not validated"):
        explore(parse_program(SMALL), SearchConfig())
    # a function with no expression in it is refused too
    with pytest.raises(engine.EngineInitError, match="not validated"):
        explore(parse_program("func main() { var int x; }"), SearchConfig())
    # and so is a program that validation found faults in
    prog = parse_program("func main() { print(y); }")
    assert validate(prog)
    with pytest.raises(engine.EngineInitError, match="not validated"):
        explore(prog, SearchConfig())
    # even after a search of it translated it while it was valid
    prog = load(SMALL)
    explore(prog, SearchConfig())
    prog.funcs.append(prog.funcs[0])
    assert validate(prog)
    with pytest.raises(engine.EngineInitError, match="not validated"):
        explore(prog, SearchConfig())


def test_first_only_stops_early():
    src = """
        func main() {
          var int x;
          x = choose_int(4);
          assert(x != x);
        }
        """
    full = search(src)
    one = search(src, first_only=True)
    assert len(full.violations) == 4
    assert len(one.violations) == 1
    assert one.stats.states < full.stats.states


def test_run_path_without_trail_is_deterministic_per_seed():
    prog_src = """
        input int N;
        input real V[3];
        func main() {
          assume(1 <= N && N <= 3);
          var int k;
          k = choose_int(N);
          print("k=", k, " v=", V[k]);
        }
        """
    a = run_path(load(prog_src), SearchConfig(seed=7))
    b = run_path(load(prog_src), SearchConfig(seed=7))
    c = run_path(load(prog_src), SearchConfig(seed=8))
    assert a.prints == b.prints
    assert a.prints != c.prints or a.state.trail != c.state.trail
    # the random stream itself: a changed draw order shows up here
    assert a.prints == ["k=0 v=-17/5"]
    assert c.prints == ["k=0 v=-41/12"]
    assert run_path(load(prog_src), SearchConfig(seed=9)).prints == ["k=1 v=-31/5"]

    # a branch, a pin and a choice with one option each still draw from the
    # stream, which the last choice shows
    src = """
        input int N;
        func main() {
          assume(N == 2);
          var int y = 0;
          if (N < 5) {
            y = 1;
          }
          var int a[N];
          var int x;
          x = choose_int(1);
          y = choose_int(1000);
          print("y=", y);
        }
        """
    for seed, y in ((7, 666), (8, 129), (9, 141)):
        out = run_path(load(src), SearchConfig(seed=seed))
        assert render_trail(out.state.trail) == f"# trail v1\nB t\nZ N=2/1\nC 0/1\nC {y}/1000\n"
        assert out.prints == [f"y={y}"]


def test_run_path_pins_reals():
    src = """
        input real V[2];
        func main() {
          var real s = V[0] + V[1];
          print("s=", s);
        }
        """
    out = run_path(
        load(src),
        SearchConfig(),
        trail=[],
        reals={"V": [Fraction(1, 2), Fraction(1, 3)]},
    )
    assert out.state is not None
    assert out.prints == ["s=5/6"]


def test_input_overrides_change_bounds():
    src = """
        input int N_B = 2;
        input int N;
        func main() {
          assume(1 <= N && N <= N_B);
          var int a[N];
          a[0] = 1;
        }
        """
    r = search(src)
    assert r.stats.terminals == 2
    r = search(src, overrides={"N_B": 4})
    assert r.stats.terminals == 4
    with pytest.raises(engine.EngineInitError):
        search(src, overrides={"V": 1})


def test_symbolic_print_renders_polynomials():
    r = search(
        """
        input int N;
        input real V[1];
        func main() {
          assume(1 <= N && N <= 1);
          print("n=", N, " x=", V[0]);
        }
        """
    )
    (st,) = r.terminal_states
    assert st.prints == ["n=N x=X_V[0]"]


def test_real_unary_minus_is_decided_without_the_solver():
    r = search(
        """
        input real V[1];
        func main() {
          var real x = -V[0];
          print(x);
          assert(x + V[0] == 0.0);
        }
        """
    )
    assert r.stats == engine.Stats(states=3, terminals=1, pruned=0, solver_calls=0)
    assert not r.violations
    (st,) = r.terminal_states
    assert st.prints == ["-X_V[0]"]
    assert st.trail == []


def test_a_pin_value_that_the_condition_rules_out_is_pruned():
    r = search(
        """
        input int N;
        func main() {
          assume(0 <= N && N <= 3);
          assume(N != 2);
          var int a[N + 1];
          print(len(a));
        }
        """
    )
    # N's box is 0..3: four pin conditions, of which N == 2 is unsat
    assert r.stats == engine.Stats(states=9, terminals=3, pruned=1, solver_calls=6)
    assert not r.violations
    got = [(render_trail(st.trail), st.prints) for st in r.terminal_states]
    assert got == [
        ("# trail v1\nZ N=0/3\n", ["1"]),
        ("# trail v1\nZ N=1/3\n", ["2"]),
        ("# trail v1\nZ N=3/3\n", ["4"]),
    ]


@pytest.mark.parametrize(
    "cond, pruned, pins",
    [("2 * N == 7", 1, []), ("2 * N == 8", 0, [4]), ("3 * N <= 7", 0, [0, 1, 2])],
)
def test_linear_assumptions_bound_an_int_input_exactly(cond, pruned, pins):
    # the slope and the constant are ints, so the bound must be an exact
    # quotient: a non-integral equality prunes, an integral one pins
    r = search(
        f"""
        input int N;
        func main() {{
          assume(0 <= N && N <= 10);
          assume({cond});
          var int a[N];
          print(N);
        }}
        """
    )
    assert r.stats.terminals == len(pins) and r.stats.pruned == pruned
    assert not r.violations
    got = sorted((render_trail(st.trail), st.prints) for st in r.terminal_states)
    assert got == [(f"# trail v1\nZ N={v}/{len(pins)}\n", [str(v)]) for v in pins]


def test_values_under_a_witness_render_as_exact_rationals():
    n = SymConst("N", None, SymKind.INT, 0)
    a0 = SymConst("A", 0, SymKind.REAL, 1)
    v0 = SymConst("V", 0, SymKind.REAL, 4)
    prod = Poly.symbol(a0) * Poly.symbol(v0)
    half = Poly.const(Fraction(1, 2))
    cases = [
        (RealVal(prod + half), {a0: Fraction(3, 2), v0: 2}, "7/2"),
        (RealVal(prod + half), {a0: Fraction(1), v0: Fraction(1)}, "3/2"),
        (RealVal(prod.scale(2)), {a0: Fraction(3, 2), v0: 1}, "3"),
        (RealVal(prod - half.scale(3)), {a0: Fraction(-1, 4), v0: 1}, "-7/4"),
        (RealVal(Poly.symbol(v0) + Poly.const(2)), {}, "2"),
        (Poly.symbol(n).scale(3) + Poly.const(1), {n: 2}, "7"),
        (Poly.symbol(n).scale(-3), {n: 2}, "-6"),
    ]
    for value, witness, want in cases:
        assert engine._render_value(value, witness, {}) == want
    assert engine._render_value(RealVal(prod + half)) == "X_A[0]*X_V[0] + 1/2"


SAMPLED_WITNESS = """
input real V[2];
func main() {
  assume(V[0] + 2.0 < 0.0);
  var real a[1];
  var real b[1];
  a[0] = V[0] * V[1];
  b[0] = V[1];
  assert(equals(a, b));
}
"""


def test_the_sampler_keeps_its_draws():
    # the all-ones point fails the assume, so the witness is the seed-0
    # sampler's first random point that satisfies it
    r = search(SAMPLED_WITNESS, seed=0)
    (v,) = r.violations
    assert v.certainty is Certainty.PROVEABLE
    text = render_violation(0, v, {"<input>": SAMPLED_WITNESS})
    assert "witness: X_V[0] = -917/34, X_V[1] = 326/21" in text.splitlines()
    assert "a: [ -21353/51 ]" in text.splitlines()
    assert v.witness
    for value in v.witness.values():
        integral = Fraction(value).denominator == 1
        assert value.__class__ is (int if integral else Fraction)


def test_a_clone_shares_its_inputs_and_copies_every_writable_storage():
    prog = load("input real V[2]; input real W[1]; func main() { }")
    st = engine.Engine(prog, SearchConfig()).init_state()
    st.alloc(engine.ArrayStorage([1, 2], SymKind.INT))
    st.alloc(engine.ArrayStorage([RealVal(Poly.const(1))], SymKind.REAL))
    copy = st.clone()
    assert len(copy.heap) == len(st.heap)
    assert sum(s.read_only for s in st.heap) == 2
    for addr, storage in enumerate(st.heap):
        if storage.read_only:
            assert copy.heap[addr] is storage
        else:
            assert copy.heap[addr] is not storage
            assert copy.heap[addr].cells is not storage.cells
            assert copy.heap[addr].cells == storage.cells


def test_a_write_to_an_input_on_a_cloned_path_is_refused():
    r = search(
        """
        input int N;
        input real V[2];
        func poke(real[] p, int i) {
          p[i] = 1.0;
        }
        func main() {
          assume(0 <= N && N <= 1);
          if (N == 0) { poke(V, 0); } else { poke(V, 1); }
        }
        """
    )
    # the branch runs one of its two paths on a copy of the state
    assert [(v.prop, render_trail(v.trail)) for v in r.violations] == [
        (Property.WRITE_TO_INPUT, "# trail v1\nB t\n"),
        (Property.WRITE_TO_INPUT, "# trail v1\nB e\n"),
    ]
    assert r.stats.terminals == 0


_SYMS = [SymConst("V", i, SymKind.REAL, i) for i in range(3)]
_NUMBERS = strategies.one_of(
    strategies.integers(-50, 50),
    strategies.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    terms=strategies.lists(
        strategies.tuples(_NUMBERS, strategies.lists(strategies.sampled_from(_SYMS), max_size=3)),
        max_size=5,
    ),
    witness=strategies.dictionaries(strategies.sampled_from(_SYMS), _NUMBERS),
)
def test_a_value_under_a_witness_is_its_poly_evaluated_there(terms, witness):
    poly = Poly()
    for c, syms in terms:
        mono = Poly.const(c)
        for s in syms:
            mono = mono * Poly.symbol(s)
        poly = poly + mono
    want = str(poly.eval({s: witness.get(s, 0) for s in poly.symbols()}))
    assert str(engine._value_at(poly, witness)) == want
    assert engine._render_value(RealVal(poly), witness, {}) == want
    value, texts = RealVal(poly), {}
    assert engine._render_value(value, witness, texts) == want
    assert texts == {value: want}


def test_start_state_errors_are_the_same_in_every_mode():
    cases = [
        (
            "input int N; input real V[N];",
            {},
            "extent of input 'V' depends on 'N', which has no concrete value; "
            "give it a default or an -input override",
        ),
        ("input int K = 2; input real V[K - 3];", {}, "extent of input 'V' is negative (-1)"),
        ("input real V[1048577];", {}, "extent of input 'V' is too large (1048577)"),
        ("input real V[2];", {"V": 1}, "-inputV does not name an int input"),
        ("input real V[2];", {"W": 1}, "-inputW does not name an int input"),
    ]
    for decls, overrides, message in cases:
        prog = load(decls + " func main() { }")
        cfg = SearchConfig(overrides=overrides)
        for start in (
            lambda: explore(prog, cfg),
            lambda: run_path(prog, cfg, [], reals={}),
            lambda: run_path(prog, cfg),
        ):
            with pytest.raises(engine.EngineInitError, match=f"^{re.escape(message)}$"):
                start()


def test_run_path_refuses_a_wrong_number_of_given_reals():
    prog = load("input real V[2]; func main() { }")
    with pytest.raises(engine.EngineInitError, match=r"^input 'V' needs 2 values, got 1$"):
        run_path(prog, SearchConfig(), reals={"V": [Fraction(1)]})


def test_run_path_draws_reals_in_declaration_order():
    prog = load(
        """
        input real A[2];
        input int N;
        input real B[1];
        func main() {
          assume(1 <= N && N <= 3);
          var int k;
          k = choose_int(N);
          print("a=", A[0] + A[1], " b=", B[0], " k=", k);
        }
        """
    )
    assert run_path(prog, SearchConfig(seed=7)).prints == ["a=-12/5 b=-81/4 k=0"]
    assert run_path(prog, SearchConfig(seed=8)).prints == ["a=-241/60 b=-25 k=0"]
    # an input that reals leaves out stays symbolic
    given = run_path(prog, SearchConfig(seed=7), reals={"A": [Fraction(1, 2), Fraction(1, 3)]})
    assert given.prints == ["a=5/6 b=X_B[0] k=0"]


def test_input_extent_pins_its_earliest_declared_symbol():
    # the extent is evaluated as any int expression is: a symbolic one
    # names its earliest declared symbol, and one that folds to a
    # constant needs no concrete input
    prog = load("input int N; input int M; input real V[M * N]; func main() { }")
    with pytest.raises(engine.EngineInitError, match="^extent of input 'V' depends on 'N', "):
        explore(prog, SearchConfig())
    r = search("input int N; input real V[N - N]; func main() { print(len(V)); }")
    assert r.inputs_desc == ["N : int, symbolic", "V : real[0], symbolic"]
    assert [st.prints for st in r.terminal_states] == [["0"]]


def test_run_path_refuses_reals_that_name_no_real_input():
    prog = load("input real V[2]; input int N = 2; func main() { print(V[0]); }")
    for name in ("W", "N"):
        with pytest.raises(
            engine.EngineInitError, match=f"^reals= names '{name}', which is not a real input$"
        ):
            run_path(prog, SearchConfig(), reals={name: [Fraction(1), Fraction(2)]})


def test_a_serial_search_sorts_its_findings_by_trail():
    # branch_walk of the || cuts the else side short on the unbounded M
    # before the then side reaches the assertion, so the depth-first
    # search records B e first; explore returns the findings in trail order
    r = search(
        """
        input int N;
        input int M;
        func main() {
          assume(0 <= N && N <= 10);
          if (N < 5 || M < 3) {
            assert(N != 2);
          }
        }
        """
    )
    assert [(v.prop, render_trail(v.trail)) for v in r.violations] == [
        (Property.ASSERTION_VIOLATION, "# trail v1\nB t\n"),
        (Property.ENUM_BUDGET, "# trail v1\nB e\n"),
    ]


# --- the search over forked workers ---


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that os.fork starts. The parent counts a
    fork before it happens, so a child sees its own number in the count."""
    pids = []
    real_fork = os.fork

    def fork():
        pids.append(None)
        pid = real_fork()
        if pid:
            pids[-1] = pid
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def corpus_program(names) -> Program:
    prog = load_program(load_sources(names))
    assert isinstance(prog, Program), prog
    return prog


def forked_matches_serial(prog, workers=2, **kw) -> engine.SearchResult:
    serial = explore(prog, SearchConfig(workers=1, **kw))
    # the merge of a forked search's findings relies on this: one search's
    # findings have pairwise distinct trails, so one sort by trail orders them
    trails = [v.trail for v in serial.violations]
    assert len(set(trails)) == len(trails)
    forked = explore(prog, SearchConfig(workers=workers, **kw))
    assert forked.stats == serial.stats
    assert forked.incomplete == serial.incomplete
    # value equality: prop, certainty, loc, message, trail, witness and
    # detail of every violation, in order
    assert forked.violations == serial.violations
    assert forked.inputs_desc == serial.inputs_desc
    return forked


@pytest.mark.parametrize(
    "names, kw",
    [
        (SWAP_FILES, {}),
        (COLMAX_FILES, {}),
        # three processes on a 2-CPU host: more processes than CPUs
        (SWAP_FILES, {"workers": 3}),
        (COLMAX_FILES, {"workers": 3}),
        # at depth 12 the breadth-first phase meets the limit itself; at 13,
        # with M_B = 4, only the processes that search the frontier do, so
        # their incomplete flags must survive the merge (at the default
        # M_B = 3 the breadth-first phase meets every limit below 15 itself,
        # and no path meets one from 15 on)
        (CLEAN_FILES, {"max_depth": 12}),
        (CLEAN_FILES, {"max_depth": 13, "overrides": {"M_B": 4}}),
    ],
    ids=["swap", "colmax", "swap-3", "colmax-3", "clean-depth-12", "clean-m4-depth-13"],
)
def test_forked_search_matches_serial_on_the_corpus(forks, names, kw):
    r = forked_matches_serial(corpus_program(names), **kw)
    assert len(forks) == kw.get("workers", 2) - 1
    if "max_depth" in kw:
        assert r.incomplete
    else:
        assert r.violations and not r.incomplete


def test_forked_search_keeps_a_budget_cut_met_inside_a_worker(forks, monkeypatch):
    # the frontier is the 300 choices; every path from k = 280 on then
    # meets the enumeration budget. The parent holds its first claim until
    # its child has searched the last frontier state, so the child searches
    # every path that meets the budget, and the parent none of them
    src = """
        input int N;
        func main() {
          var int k;
          k = choose_int(300);
          if (k >= 280) {
            assume(0 <= N && N <= 50);
          }
          print(k);
        }
        """
    parent, last = os.getpid(), ChooseInt(299, 300)
    searched_here = []
    real_dfs = engine._Executor.dfs
    done, done_w = os.pipe()

    def dfs(self, root, on_terminal=None):
        if os.getpid() == parent and root.trail:
            if not searched_here and root.trail[-1] != last:
                ready, _, _ = select.select([done], [], [], 60)
                assert ready, "the child did not search the last frontier state"
                os.read(done, 1)
            searched_here.append(root.trail[-1].index)
        real_dfs(self, root, on_terminal)
        if os.getpid() != parent and root.trail[-1] == last:
            os.write(done_w, b"!")

    monkeypatch.setattr(engine._Executor, "dfs", dfs)
    try:
        r = forked_matches_serial(load(src), budget=20)
    finally:
        os.close(done)
        os.close(done_w)
    assert len(forks) == 1
    assert searched_here and max(searched_here) < 280
    assert r.incomplete
    assert r.stats.terminals == 280
    assert [v.trail for v in r.violations] == [(ChooseInt(k, 300),) for k in range(280, 300)]
    assert {(v.prop, v.certainty) for v in r.violations} == {
        (Property.ENUM_BUDGET, Certainty.MAYBE)
    }


@pytest.mark.parametrize("workers", [2, 3])
def test_a_frontier_wider_than_one_pipe_write_of_single_claims(forks, monkeypatch, workers):
    # 5000 frontier states: 4-byte single-state claims would take 20,000
    # bytes, more than one PIPE_BUF write, so claims group several states
    # and the parent writes them all at once, before it forks
    assert 5000 * engine.CLAIM_BYTES > select.PIPE_BUF
    writes = []
    real_write = os.write

    def write(fd, data):
        writes.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    src = """
        func main() {
          var int k;
          k = choose_int(5000);
          if (k < 2500) {
            assert(k != 1234);
          } else {
            assert(k != 4999);
          }
        }
        """
    r = forked_matches_serial(load(src), workers=workers)
    assert len(forks) == workers - 1
    assert len(writes) == 1 and writes[0] <= select.PIPE_BUF
    assert r.stats.terminals == 4998
    assert [v.trail for v in r.violations] == [(ChooseInt(k, 5000),) for k in (1234, 4999)]


def test_search_that_ends_before_the_frontier_fills_forks_nothing(forks):
    src = "func main() { var int k; k = choose_int(10); assert(k != 7); }"
    r = forked_matches_serial(load(src))
    assert forks == []
    assert r.stats.terminals == 9
    assert [v.trail for v in r.violations] == [(ChooseInt(7, 10),)]


def test_first_only_and_on_terminal_stay_serial(forks):
    src = "func main() { var int k; k = choose_int(100); assert(k != 70); }"
    prog = load(src)
    one = explore(prog, SearchConfig(workers=2, first_only=True))
    serial = explore(prog, SearchConfig(first_only=True))
    assert (one.violations, one.stats) == (serial.violations, serial.stats)
    seen = []
    every = explore(prog, SearchConfig(workers=2), on_terminal=seen.append)
    assert every.stats.terminals == len(seen) == 99
    assert forks == []


@pytest.mark.parametrize("how", ["raises", "is killed"])
def test_a_failed_worker_fails_the_search_and_no_worker_outlives_it(
    forks, monkeypatch, capsys, tmp_path, how
):
    parent = os.getpid()
    started_r, started_w = os.pipe()
    children_seen = [0]

    def dfs(self, root, on_terminal=None):
        if os.getpid() == parent:
            # the parent's own share ends at once, as soon as every child
            # forked so far holds a claim of its own
            while children_seen[0] < len(forks):
                ready, _, _ = select.select([started_r], [], [], 30)
                assert ready, "a child did not start its search"
                children_seen[0] += len(os.read(started_r, 1))
            return
        os.write(started_w, b"!")
        if len(forks) % 2 == 1:  # child 1 of either search
            if how == "raises":
                raise RuntimeError("worker fault")
            os.kill(os.getpid(), signal.SIGKILL)
        # child 2 is still searching when child 1 fails, and must be
        # killed; it gives up after a minute, so a missed kill cannot hang
        time.sleep(60)
        raise RuntimeError("worker 2 was not killed")

    monkeypatch.setattr(engine._Executor, "dfs", dfs)
    failure = (
        "search worker 1 of 3 exited with status 1"
        if how == "raises"
        else "search worker 1 of 3 was killed by SIGKILL"
    )
    src = tmp_path / "fan.vl"
    src.write_text("func main() { var int k; k = choose_int(300); }\n")
    started = time.monotonic()
    try:
        with pytest.raises(engine.WorkerFailed, match=f"^{failure}$"):
            explore(load(src.read_text()), SearchConfig(workers=3))
        assert cli.main(["verify", "--workers", "3", str(src)]) == 1
    finally:
        os.close(started_r)
        os.close(started_w)
    assert capsys.readouterr().err.endswith(f"vlsym: {failure}\n")
    assert time.monotonic() - started < 30
    assert len(forks) == 4
    for pid in forks:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# --- one solver answer per distinct path condition ---


def uncached_sat(self, pc):
    """_Executor.sat without its memo: every query runs the solver."""
    self.stats.solver_calls += 1
    return engine.pc_sat(pc, self.eng.config.budget, self.eng.config.seed)


@pytest.fixture
def solver_runs(monkeypatch):
    """The number of times the engine runs pc_sat, in a one-item list."""
    runs = [0]
    real_pc_sat = engine.pc_sat

    def counting(*args, **kwargs):
        runs[0] += 1
        return real_pc_sat(*args, **kwargs)

    monkeypatch.setattr(engine, "pc_sat", counting)
    return runs


@pytest.mark.parametrize(
    "names, queries, distinct",
    [(COLMAX_FILES, 3384, 22), (SWAP_FILES, 686, 46)],
    ids=["colmax", "swap"],
)
def test_each_distinct_path_condition_is_solved_once(solver_runs, names, queries, distinct):
    r = explore(corpus_program(names), SearchConfig())
    assert r.stats.solver_calls == queries
    assert solver_runs[0] == distinct


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("names", [COLMAX_FILES, SWAP_FILES], ids=["colmax", "swap"])
def test_kept_answers_give_the_findings_of_the_uncached_solver(monkeypatch, names, workers):
    prog = corpus_program(names)
    kept = explore(prog, SearchConfig(workers=workers))
    with monkeypatch.context() as m:
        m.setattr(engine._Executor, "sat", uncached_sat)
        fresh = explore(prog, SearchConfig(workers=workers))
    assert kept.stats == fresh.stats
    assert kept.incomplete == fresh.incomplete
    # value equality: prop, certainty, loc, message, trail, witness and
    # detail of every violation, in order
    assert kept.violations == fresh.violations
    assert kept.violations


@pytest.mark.parametrize(
    "names, kw, found",
    [
        (CLEAN_FILES, {}, 0),
        (SWAP_FILES, {}, 0),
        (COLMAX_FILES, {}, 3215),
        (CLEAN_FILES, {"overrides": {"M_B": 4}, "workers": 2}, 0),
    ],
    ids=["clean", "swap", "colmax", "clean-m4-w2"],
)
def test_a_finding_stops_its_path_on_a_condition_that_needs_no_solving(
    monkeypatch, names, kw, found
):
    # so _stopped's counted sat call only reads what is kept, and meets no
    # limit; a forked worker that fails the assertion fails the search
    seen = [0]
    real_stopped = engine._Executor._stopped

    def stopped(self, state, loc, exc):
        if isinstance(exc, engine.Violating):
            pc = state.pc
            assert not pc.atoms or pc.unsat or pc.atoms in self.answers
            seen[0] += 1
        return real_stopped(self, state, loc, exc)

    monkeypatch.setattr(engine._Executor, "_stopped", stopped)
    explore(corpus_program(names), SearchConfig(**kw))
    assert seen[0] == found


def test_each_distinct_value_is_rendered_once_per_witness(monkeypatch):
    evaluated = []
    value_at = engine._value_at

    def counting(poly, witness):
        evaluated.append((poly, witness))
        return value_at(poly, witness)

    monkeypatch.setattr(engine, "_value_at", counting)
    r = explore(corpus_program(SWAP_FILES), SearchConfig())
    shown = [text for v in r.violations for _, text in v.detail or ()]
    assert len(r.violations) == 673
    assert sum(len(text.split()) - 2 for text in shown) == 3832
    assert len(evaluated) == 372


TWO_WITNESSES = """
input int N;
input real V[1];
func main() {
  assume(0 <= N && N <= 1);
  var real a[1];
  var real b[1];
  a[0] = V[0] * 2.0;
  b[0] = 1.0;
  if (N == 0) { assume(V[0] < 0.0); }
  assert(equals(a, b));
}
"""


def test_one_value_under_two_witnesses_renders_each_witness_value():
    r = search(TWO_WITNESSES)
    v0 = SymConst("V", 0, SymKind.REAL, 1)
    shown = {}
    for v in r.violations:
        assert v.certainty is Certainty.PROVEABLE
        (_, a), _ = v.detail
        assert a == f"[ {2 * v.witness[v0]} ]"
        shown[v.witness[v0] < 0] = a
    # the same value of a[0], under the sampled negative V[0] and under 1
    assert len(shown) == 2 and shown[False] == "[ 2 ]"


def test_a_false_constant_is_unsat_after_its_condition_was_answered_sat(solver_runs):
    n = Poly.symbol(SymConst("N", None, SymKind.INT, 0))
    pc = PathCondition()
    for atom in (Atom(SymKind.INT, Rel.LE, -n), Atom(SymKind.INT, Rel.LE, n - Poly.const(3))):
        pc = pc.add(atom)
    ex = engine._Executor(engine.Engine(load("func main() { }"), SearchConfig()), None)
    assert ex.sat(pc).status is SatStatus.SAT
    dead = pc.add(Atom(SymKind.INT, Rel.LT, Poly.const(1)))
    assert dead.atoms == pc.atoms and dead.unsat
    assert ex.sat(dead).status is SatStatus.UNSAT
    assert ex.sat(pc).status is SatStatus.SAT
    assert ex.stats.solver_calls == 3
    assert solver_runs == [1]


# --- prints are rendered when read ---

PRINT_THEN_CHANGE = """
input int N;
func main() {
  assume(0 <= N && N <= 2);
  var int a[2];
  a[0] = 1;
  var real r[1];
  r[0] = 1.5;
  var int x = 5;
  print("N=", N, " x=", x, " a=", a, " r=", r);
  a[1] = 3;
  if (x > 0) {
    var int b[N];
  }
  a[0] = 7;
  r[0] = 2.5;
  x = 9;
  print("N=", N, " x=", x, " a=", a, " r=", r);
}
"""


def test_prints_show_the_values_as_they_were_when_each_print_ran():
    prog = load(PRINT_THEN_CHANGE)
    r = search(PRINT_THEN_CHANGE)
    assert r.stats.terminals == 3 and not r.violations
    for st in r.terminal_states:
        (pin,) = st.trail
        expected = ["N=N x=5 a=[ 1 undef ] r=[ 3/2 ]", f"N={pin.value} x=9 a=[ 7 3 ] r=[ 5/2 ]"]
        assert st.prints == expected
        for out in (
            run_path(prog, SearchConfig(), list(st.trail), reals={}),
            run_path(prog, SearchConfig(), trail=list(st.trail)),
        ):
            assert out.state is not None
            assert out.prints == out.state.prints == expected


@pytest.mark.parametrize(
    "body, read, prop",
    [
        ('var int a[2]; var int i = 2; print("a=", a[i]);', "a[i]", Property.OUT_OF_BOUNDS),
        ('var int x; print("x=", x);', "x)", Property.READ_UNDEFINED),
    ],
    ids=["out-of-bounds", "unwritten-local"],
)
def test_a_bad_read_in_a_print_is_found_at_the_print(body, read, prop):
    src = 'func main() { print("before"); ' + body + " }"
    prog = load(src)
    r = explore(prog, SearchConfig())
    (v,) = r.violations
    assert (v.prop, v.certainty) == (prop, Certainty.PROVEABLE)
    assert (v.loc.line, v.loc.col) == (1, src.index(read) + 1)
    out = run_path(prog, SearchConfig())
    assert out.state is None
    assert out.prints == ["before"]
    assert [(w.prop, w.loc) for w in out.violations] == [(prop, v.loc)]


LOOP_LOCAL_AND_SHADOW = """
func main() {
  var int x = 1;
  {
    var int x = 7;
    print(x);
  }
  print(x);
  var int i = 0;
  while (i < 2) {
    var int y;
    if (0 < i) {
      print(y);
    }
    y = 3;
    i = i + 1;
  }
}
"""


def test_a_loop_local_is_undefined_again_on_each_iteration_and_a_block_shadows():
    # each entry of the loop body declares y afresh, so the value the first
    # iteration wrote is gone when the second one reads it
    prog = load(LOOP_LOCAL_AND_SHADOW)
    r = explore(prog, SearchConfig())
    assert (r.stats.states, r.stats.terminals) == (15, 0)
    (v,) = r.violations
    assert (v.prop, v.certainty) == (Property.READ_UNDEFINED, Certainty.PROVEABLE)
    assert (v.loc.line, v.message) == (13, "'y' is read before assignment")
    out = run_path(prog, SearchConfig())
    assert out.state is None
    assert out.prints == ["7", "1"]


SHADOWED_NAMES = """
func shifted(int x) -> int {
  var int r = x;
  {
    var int x = x + 10;
    r = r + x;
  }
  return r;
}
func main() {
  var int x = 1;
  {
    var int x = x + 1;
    print(x);
  }
  var int y;
  y = shifted(x);
  print(x, " ", y);
  var int s = 0;
  for (var int i = 0; i < 3; i++) {
    s = s + i;
  }
  for (var int i = 0; i < 2; i++) {
    s = s + 1;
  }
  print(s);
  print(x + 1);
}
"""


def test_each_name_reads_the_declaration_in_scope():
    # an initializer reads the outer x before its own x is declared, the
    # callee shadows its parameter the same way, and each sibling loop has
    # an i of its own; the outer x is untouched by all of them
    prog = load(SHADOWED_NAMES)
    assert run_path(prog, SearchConfig()).prints == ["2", "1 12", "5", "2"]
    r = explore(prog, SearchConfig())
    assert (r.stats.states, r.stats.terminals) == (36, 1)
    assert not r.violations


EMPTY_SIDES_AND_CALLS = """
input int N;
func tick(int[] c) {
  c[0] = c[0] + 1;
}
func find(int[] a, int k) -> int {
  var int j = 0;
  while (j < 3) {
    if (a[j] == k) {
      return j;
    }
    j = j + 1;
  }
  return -1;
}
func main() {
  assume(0 <= N && N <= 2);
  var int a[3];
  a[0] = 5;
  a[1] = 6;
  a[2] = 7;
  var int r = 0;
  if (N == 0) {
  } else if (N == 1) {
    r = 1;
  } else {
  }
  while (r > 5) {
  }
  {}
  var int k = 0;
  while (k < N) {
    k = k + 1;
  }
  var int c[1];
  c[0] = 0;
  var int i = 0;
  while (i < 2) {
    i = i + 1;
    tick(c);
  }
  var int f;
  f = find(a, a[N]);
  print(r, " ", c[0], " ", f);
}
"""


def test_empty_blocks_void_calls_and_returns_from_loops_keep_their_steps():
    # entering a block, an if or while test and a return each take one
    # step; the end of a block, empty or not, and the jump past an else or
    # out of a callee's loop take none
    prog = load(EMPTY_SIDES_AND_CALLS)
    r = search(EMPTY_SIDES_AND_CALLS)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        96, 3, 6, 20,
    )
    assert not r.violations
    assert sorted(st.prints[0] for st in r.terminal_states) == ["0 2 0", "0 2 2", "1 2 1"]
    for st in r.terminal_states:
        out = run_path(prog, SearchConfig(), trail=list(st.trail))
        assert out.prints == st.prints


SYMBOLIC_INDEX_MID_RUN = """
input int N;
func main() {
  assume(0 <= N && N <= 2);
  var int a[3];
  a[0] = 10;
  a[1] = 11;
  a[2] = 12;
  var int x = 1;
  var int y = x + a[N];
  x = y * 2;
  print(x, " ", y);
}
"""


def test_a_pin_in_the_middle_of_a_run_runs_only_that_statement_again():
    # seven statements up to the read of a[N], which stops to pin N; each
    # of the three pinned copies runs that statement again and the two
    # after it: 7 + 3 * 3 states
    r = search(SYMBOLIC_INDEX_MID_RUN)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        16, 3, 0, 4,
    )
    assert not r.violations
    assert sorted(st.prints[0] for st in r.terminal_states) == ["22 11", "24 12", "26 13"]


OUT_OF_BOUNDS_MID_RUN = """
input int N;
func main() {
  assume(0 <= N && N <= 3);
  var int a[3];
  a[0] = 1;
  a[1] = 2;
  a[2] = 3;
  var int s = 4;
  a[1] = s + 1;
  print("s=", s, " a=", a);
  var int t = a[N - 1];
  s = t;
  print("t=", t);
}
"""


@pytest.mark.parametrize(
    "first_only, counts, terminals",
    [(False, (19, 3, 0, 6), ["t=1", "t=3", "t=5"]), (True, (10, 0, 0, 6), [])],
    ids=["full", "first"],
)
def test_an_out_of_bounds_read_in_the_middle_of_a_run_keeps_the_writes_before_it(
    first_only, counts, terminals
):
    # N=0 reads a[-1]; the writes and the print before the read, in the
    # same run of statements, are on the path the violation replays
    prog = load(OUT_OF_BOUNDS_MID_RUN)
    r = search(OUT_OF_BOUNDS_MID_RUN, first_only=first_only)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == counts
    (v,) = r.violations
    assert (v.prop, v.certainty, v.loc.line, v.loc.col) == (
        Property.OUT_OF_BOUNDS, Certainty.PROVEABLE, 12, 15,
    )
    assert v.message == "index -1 outside 'a' of length 3"
    assert render_trail(v.trail) == "# trail v1\nZ N=0/4\n"
    assert sorted(st.prints[1] for st in r.terminal_states) == terminals
    trail = list(v.trail)
    for reals in ({}, None):
        out = run_path(prog, SearchConfig(), trail, reals)
        assert out.state is None
        assert out.prints == ["s=4 a=[ 1 5 3 ]"]
        assert [w.message for w in out.violations] == [v.message]


def test_max_depth_met_where_a_block_starts_counts_that_statement():
    # the choose_int leaves the code; on each of its two copies the depth is
    # reached at the declaration of y, which counts one state and runs not
    src = """
    func main() {
      var int x;
      x = choose_int(2);
      var int y = x + 1;
      print(y);
    }
    """
    full = search(src)
    assert (full.stats.states, full.stats.terminals, full.incomplete) == (6, 2, False)
    r = search(src, max_depth=1)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        4, 0, 0, 0,
    )
    assert r.incomplete and not r.violations


def test_a_decided_loop_goes_round_within_its_block():
    # two declarations, five rounds of test, body and increment, the final
    # test and the print
    src = """
    func main() {
      var int i = 0;
      var int s = 0;
      while (i < 5) {
        s = s + i;
        i = i + 1;
      }
      print(s);
    }
    """
    r = search(src)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        19, 1, 0, 0,
    )
    (st,) = r.terminal_states
    assert st.prints == ["10"]


# every local below is named like a name of the engine's generated code
# or a Python keyword or builtin, and the first print's string is one
# that would end a quoted Python string; neither may reach that code as
# anything but a value
NAMES_LIKE_THE_GENERATED_CODE = r"""
input int C0 = 2;
input int S;

func _make(int state, int frame, int[] ex) {
  var int self = state + frame;
  ex[0] = self * C0;
}

func block(int k, int n) {
  var int t1 = k - n;
  print("x'); import os; ('\{0}", t1);
  return;
}

func main() {
  assume(0 <= S && S <= 1);
  var int state = 1;
  var int frame = 2;
  var int ex = 3;
  var int self = 4;
  var int k = 5;
  var int n = 6;
  var int t1 = 7;
  var int None = 8;
  var int True = 9;
  var int lambda = 10;
  var int import = 11;
  var int __class__ = 12;
  var int e;
  e = choose_int(2);
  var int r[3];
  r[S] = state + frame * ex - self + k * n + t1 + None - True + lambda + import - __class__;
  _make(None, True, r);
  block(__class__, lambda);
  print("r=", r, " e=", e, " S=", S);
  assert(r[S] != 48 || e == 1);
}
"""


def test_names_and_strings_never_become_generated_code(capsys, tmp_path):
    prog = load(NAMES_LIKE_THE_GENERATED_CODE)
    r = search(NAMES_LIKE_THE_GENERATED_CODE)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        59, 3, 0, 6,
    )
    (v,) = r.violations
    assert (v.prop, v.certainty, v.loc.line, v.loc.col) == (
        Property.ASSERTION_VIOLATION, Certainty.PROVEABLE, 37, 3,
    )
    assert render_trail(v.trail) == "# trail v1\nC 0/2\nZ S=1/2\n"
    assert {sym.render(): value for sym, value in v.witness.items()} == {"S": 1}
    said = "x'); import os; ('\\{0}2"
    assert sorted(st.prints for st in r.terminal_states) == [
        [said, "r=[ 34 48 undef ] e=1 S=1"],
        [said, "r=[ 34 undef undef ] e=0 S=0"],
        [said, "r=[ 34 undef undef ] e=1 S=0"],
    ]
    assert run_path(prog, SearchConfig(seed=4)).prints == [said, "r=[ 34 48 undef ] e=0 S=1"]
    src = tmp_path / "names.vl"
    src.write_text(NAMES_LIKE_THE_GENERATED_CODE)
    assert cli.main(["run", "--seed", "3", str(src)]) == 0
    assert capsys.readouterr().out == f"{said}\nr=[ 34 undef undef ] e=0 S=0\n"


# --- the memo of real arithmetic ---


@pytest.fixture
def engines(monkeypatch):
    """Every Engine built while the test runs, in order."""
    made = []
    real_init = engine.Engine.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(engine.Engine, "__init__", init)
    return made


@pytest.fixture
def products(monkeypatch):
    """The number of Poly products computed while the test runs."""
    count = [0]
    real_mul = Poly.__mul__

    def mul(a, b):
        count[0] += 1
        return real_mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", mul)
    return count


# 2^14 paths; the products are the same two on every path, but each path
# builds sums of its own, 32,766 in all, more than a memo holds
SUMS_OF_SQUARES = """
input real A[2];
func main() {
  var real s = 0.0;
  for (var int i = 0; i < 14; i++) {
    var int c;
    c = choose_int(2);
    s = s + A[c] * A[c];
  }
  print(s);
}
"""


def test_real_memos_stay_bounded_and_each_path_keeps_its_own_value(products):
    # the real memos belong to the process, so they start with what earlier
    # searches left in them
    engine._real_mul.cache_clear()
    engine._real_add.cache_clear()
    a0, a1 = (Poly.symbol(SymConst("A", i, SymKind.REAL, i)) for i in (0, 1))
    # the value a path's own choices imply, by how many of its 14 picked
    # c = 1: c = 0 adds A[0]^2 and c = 1 adds A[1]^2
    want = [(a0 * a0).scale(14 - ones) + (a1 * a1).scale(ones) for ones in range(15)]
    wrong = []

    def check(st):
        # the printed value itself, compared as a Poly: rendering every
        # path's print would take most of the test's time under tracemalloc
        assert all(d.fanout == 2 for d in st.trail) and len(st.trail) == 14
        ((s,),) = st.printed
        if s.poly != want[sum(d.index for d in st.trail)]:
            wrong.append((render_trail(st.trail), st.prints))

    prog = load(SUMS_OF_SQUARES)
    tracemalloc.start()
    try:
        r = explore(prog, SearchConfig(), on_terminal=check)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.stats == engine.Stats(147452, 16384, 0, 0)
    assert not r.violations
    assert wrong == []
    # the two distinct products are computed once each
    assert products[0] == 2 + 2 * len(want)
    assert engine._real_mul.cache_info().currsize == 2
    assert 0 < engine._real_add.cache_info().currsize <= engine.REAL_MEMO_ENTRIES
    # 0.17 MB without the memo, 12.5 MB with memos that are never emptied
    assert peak < 4_000_000


def test_the_bounded_memos_give_the_same_report_with_workers(tmp_path, capsys):
    src = tmp_path / "squares.vl"
    src.write_text(SUMS_OF_SQUARES)
    reports = []
    for workers in ("1", "2"):
        assert cli.main(["verify", "--workers", workers, str(src)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        reports.append(re.sub(r"(?m)^time \(s\) *: .*$", "time", out.out))
    assert reports[0] == reports[1]
    assert "states explored : 147452\nterminal paths  : 16384\n" in reports[0]


def test_each_search_computes_its_real_values_in_memos_of_its_own(products):
    prog = load(
        """
        input real A[2];
        func main() {
          var int c;
          c = choose_int(2);
          var real p = A[0] * A[1];
          print(p);
        }
        """
    )
    first = explore(prog, SearchConfig())
    after_first = products[0]
    second = explore(prog, SearchConfig())
    assert first.stats == second.stats == engine.Stats(6, 2, 0, 0)
    # both paths of a search share the product; the second search computes
    # it again, since its operands are its own objects
    assert (after_first, products[0]) == (1, 2)


# --- one translation per program ---


@pytest.fixture
def compiles(monkeypatch):
    """The number of functions that engine._compile has compiled while the
    test runs: the functions' translations and the real inputs' extents."""
    count = [0]
    real_compile = engine._compile

    def compile_(lines, filename, consts):
        count[0] += 1
        return real_compile(lines, filename, consts)

    monkeypatch.setattr(engine, "_compile", compile_)
    return count


# a pin after a symbolic branch, a choose_int, a call, real sums and
# products, prints and findings: every way out of a translation, in both
WEIGHED = """
input int K;
input int W = 2;
input real V[W];
func weigh(real[] v, int c) -> real {
  var real s = 0.0;
  for (var int i = 0; i < len(v); i++) {
    s = s + v[i] * 2.0;
  }
  if (c < 20) {
    s = s + V[0];
  }
  return s;
}
func main() {
  assume(0 <= K && K <= 3);
  if (K < 2) {
    print("small");
  }
  var int a[K + 1];
  var int c;
  c = choose_int(70);
  a[0] = c;
  var real p;
  p = weigh(V, c);
  print("c=", a[0], " p=", p);
  assert(c != 7 || K != 2);
  assert(p < 10.0 || c != 9);
}
"""


def test_only_the_first_engine_of_a_program_compiles_anything(compiles):
    prog = load(WEIGHED)
    first = explore(prog, SearchConfig())
    compiled = compiles[0]
    # main's two translations, the concrete one of weigh, which runs only
    # after the pin of K, and V's extent
    assert compiled == 4
    again = explore(prog, SearchConfig())
    assert (again.stats, again.violations) == (first.stats, first.violations)
    (v,) = [v for v in first.violations if v.trail[-1] == ChooseInt(7, 70)]
    out = run_path(prog, SearchConfig(), list(v.trail))
    assert out.state is None and [w.loc for w in out.violations] == [v.loc]
    out = run_path(prog, SearchConfig(), list(v.trail), reals={})
    assert out.state is None and out.violations == [v]
    assert compiles[0] == compiled


def weighed_outcome(prog, cfg):
    """What a search of prog under cfg gives: its stats, whether it is
    incomplete, its findings (trails included) and, for a serial search,
    each terminal path's trail and prints."""
    terminals = []
    on_terminal = terminals.append if cfg.workers == 1 else None
    r = explore(prog, cfg, on_terminal=on_terminal)
    paths = [(render_trail(st.trail), st.prints) for st in terminals]
    return r.stats, r.incomplete, r.violations, paths


WEIGHED_CONFIGS = [
    {},
    # every int input given, so main starts concrete, and V has 3 cells
    {"overrides": {"K": 2, "W": 3}},
    {"first_only": True},
    {"max_depth": 3},
    {"workers": 2},
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_searches_of_one_program_agree_with_searches_of_fresh_copies(forks, order):
    shared = load(WEIGHED)
    for kw in WEIGHED_CONFIGS[::order]:
        cfg = SearchConfig(**kw)
        got = weighed_outcome(shared, cfg)
        assert got == weighed_outcome(load(WEIGHED), cfg), kw
        stats, incomplete, violations, paths = got
        # each search finds something or stops at the depth limit
        assert violations or incomplete
    # both searches under workers=2 forked their one child
    assert len(forks) == 2


# --- the concrete translation ---


def frame_codes(eng, state) -> list[str]:
    """Which of its function's two translations each frame of state runs."""
    kinds = {}
    for f in eng.program.funcs:
        kinds[id(f.translation.code)] = f"{f.name} general"
        kinds[id(f.translation.concrete)] = f"{f.name} concrete"
    return [kinds[id(frame.code)] for frame in state.frames]


def translated(code) -> bool:
    """Whether a function's translation has been written out, in place of
    the stub that writes it."""
    return code.__name__ == "run"


ALL_INTS_GIVEN = """
input int N = 3;
input int K;
input real V[N];
func sq(int x) -> int {
  return x * x;
}
func main() {
  var int a[N];
  var int s = 0;
  for (var int i = 0; i < N; i++) {
    var int q;
    q = sq(i);
    a[i] = q - K;
    if (!(a[i] < 0) && i != 1 || i == 0) {
      s = s + a[i];
    }
  }
  var real x = V[0] + V[N - 1];
  print(s, " ", a, " ", -s);
  assert(s != 4 || x != 2.0);
}
"""


def test_a_program_whose_int_inputs_are_all_given_starts_on_the_concrete_code(engines):
    prog = load(ALL_INTS_GIVEN)
    r = search(ALL_INTS_GIVEN, overrides={"K": 0})
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        31, 0, 0, 1,
    )
    (v,) = r.violations
    assert (v.prop, v.certainty, v.loc.line) == (
        Property.ASSERTION_VIOLATION, Certainty.PROVEABLE, 21,
    )
    assert render_trail(v.trail) == "# trail v1\n"
    assert {sym.render(): value for sym, value in v.witness.items()} == {
        "X_V[0]": 1, "X_V[2]": 1,
    }
    r = search(ALL_INTS_GIVEN, overrides={"K": 1})
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        31, 1, 0, 0,
    )
    assert not r.violations
    (st,) = r.terminal_states
    assert st.prints == ["2 [ -1 0 3 ] -2"]
    assert len(engines) == 2
    for eng in engines:
        # main starts on its concrete code, so no general translation is ever written
        assert frame_codes(eng, eng.init_state()) == ["main concrete"]
        assert not any(translated(f.translation.code) for f in eng.program.funcs)
        assert all(translated(f.translation.concrete) for f in eng.program.funcs)
    assert run_path(prog, SearchConfig(overrides={"K": 1})).prints == ["2 [ -1 0 3 ] -2"]


EQUALS_IN_CONCRETE_CODE = """
input int N = 2;
input real V[N];
func main() {
  var int a[N];
  var int b[N];
  var real c[N];
  for (var int i = 0; i < N; i++) {
    a[i] = i;
    b[i] = i * i;
    c[i] = V[i];
  }
  if (equals(a, b)) {
    print("a is b");
  }
  c[1] = 1.0;
  if (!equals(V, c)) {
    print("V is not c");
  } else {
    print("V is c");
  }
}
"""


def test_an_equals_condition_in_concrete_code_is_walked_as_a_condition(engines):
    # an equals() call is no int comparison, bare or under !, so the
    # concrete code walks both conditions as the general code does: the
    # int arrays are decided equal, and the real ones fork on V[1]
    r = search(EQUALS_IN_CONCRETE_CODE)
    assert r.stats == engine.Stats(states=22, terminals=2, pruned=0, solver_calls=2)
    assert not r.violations and not r.incomplete
    got = [(render_trail(st.trail), st.prints) for st in r.terminal_states]
    assert got == [
        ("# trail v1\nB t\n", ["a is b", "V is not c"]),
        ("# trail v1\nB e\n", ["a is b", "V is c"]),
    ]
    (eng,) = engines
    assert frame_codes(eng, eng.init_state()) == ["main concrete"]


def test_lookup_of_an_input_name_on_a_start_state_gives_the_input():
    prog = load("input int N = 2;\ninput real V[N];\nfunc main() { var int x = N; }")
    state = engine.Engine(prog, SearchConfig()).init_state()
    ref = state.lookup("V")
    assert isinstance(ref, engine.ArrayRef)
    assert [c.poly.render() for c in state.heap[ref.addr].cells] == ["X_V[0]", "X_V[1]"]
    assert state.lookup("N") == 2


# N is pinned by main's array extent, then walk's loop test forks on M
# while M is still symbolic, and walk's array extent pins M: from there on
# main and walk run their concrete code, and total is called from it
TWO_PINS = """
input int N;
input int M;
input real V[2];
func total(int[] b, int m) -> int {
  var int s = 0;
  for (var int j = 0; j < m; j++) {
    s = s + b[j];
  }
  return s;
}
func walk(int[] a, int[] out) {
  var int i = 0;
  while (i < M) {
    print("round ", i);
    i = i + 1;
  }
  var int b[M];
  for (var int j = 0; j < M; j++) {
    b[j] = N * 10 + j;
  }
  var int s;
  s = total(b, M);
  out[0] = s;
  out[1] = a[M - 1];
}
func main() {
  assume(1 <= N && N <= 2 && 1 <= M && M <= 2);
  var int a[N];
  a[0] = 7;
  if (1 < N) {
    a[1] = 8;
  }
  var int out[2];
  walk(a, out);
  var real x = V[0] * V[1];
  assert(out[0] != 41 || x != 1.0);
  print("N=", N, " M=", M, " out=", out);
}
"""


def test_a_path_moves_to_the_concrete_code_at_the_pin_of_its_last_symbolic_int(
    monkeypatch, engines, tmp_path, capsys
):
    seen = []
    real_concretize, real_branch = engine._Executor._concretize, engine._Executor.branch

    def concretize(self, state, sym):
        before = frame_codes(self.eng, state)
        out = real_concretize(self, state, sym)
        seen.append((f"pin {sym.name}", before, [frame_codes(self.eng, st) for st in out]))
        return out

    def branch(self, state, f, loc, other):
        seen.append(("branch", frame_codes(self.eng, state)))
        return real_branch(self, state, f, loc, other)

    monkeypatch.setattr(engine._Executor, "_concretize", concretize)
    monkeypatch.setattr(engine._Executor, "branch", branch)
    r = search(TWO_PINS)
    assert (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls) == (
        129, 2, 4, 21,
    )
    general, concrete = ["main general", "walk general"], ["main concrete", "walk concrete"]
    to_m = ("pin M", general, [concrete])
    # each value of N: the loop tests 0 < M, 1 < M and, where 1 < M, 2 < M;
    # then each side of 1 < M pins M
    per_n = [("branch", general)] * 3 + [to_m] * 2
    assert seen == [("pin N", ["main general"], [["main general"]] * 2), *per_n, *per_n]
    (eng,) = engines
    total = eng.program.func("total").translation
    assert translated(total.concrete) and not translated(total.code)
    oob, failed = r.violations
    assert (oob.prop, oob.certainty, oob.loc.line, oob.loc.col) == (
        Property.OUT_OF_BOUNDS, Certainty.PROVEABLE, 25, 12,
    )
    assert oob.message == "index 1 outside 'a' of length 1"
    assert render_trail(oob.trail) == "# trail v1\nZ N=1/2\nB t\nB t\nB e\nZ M=2/1\n"
    assert (failed.prop, failed.certainty, failed.loc.line) == (
        Property.ASSERTION_VIOLATION, Certainty.PROVEABLE, 37,
    )
    assert render_trail(failed.trail) == "# trail v1\nZ N=2/2\nB t\nB t\nB e\nZ M=2/1\n"
    assert {sym.render(): value for sym, value in failed.witness.items()} == {
        "N": 2, "M": 2, "X_V[0]": 1, "X_V[1]": 1,
    }
    assert sorted((render_trail(st.trail), st.prints) for st in r.terminal_states) == [
        ("# trail v1\nZ N=1/2\nB t\nB e\nZ M=1/1\n", ["round 0", "N=1 M=1 out=[ 10 7 ]"]),
        ("# trail v1\nZ N=2/2\nB t\nB e\nZ M=1/1\n", ["round 0", "N=2 M=1 out=[ 20 7 ]"]),
    ]
    src = tmp_path / "two_pins.vl"
    src.write_text(TWO_PINS)
    assert cli.main(["verify", str(src)]) == 2
    out = capsys.readouterr().out
    table = out[out.index("=== Result ===") :].splitlines()[2:7]
    assert table == [
        " - Assertion violations",
        " - Out of bounds accesses",
        " + Division by zero",
        " + Reads of undefined values",
        " + Writes to input variables",
    ]


# every int input given, so main runs on the concrete code, whose ifs and
# whiles with &&, || or ! are written as the general code writes them; the
# right side of the loop's && reads a[i] only while i < n
COMPOUND_INT_TESTS = """
input int N = 4;
input int K = 1;
input real V[N];
func main() {
  var int a[N];
  for (var int c = 0; c < N; c++) {
    a[c] = c + 1;
  }
  var int z;
  z = choose_int(N + 1);
  if (z < N) {
    a[z] = 0;
  }
  var int n = N;
  var int i = 0;
  while (i < n && a[i] != 0) {
    i = i + 1;
  }
  var int j;
  j = choose_int(3);
  if (!(i < 2) || j == 1) {
    print("far ", i, " ", j);
  } else {
    print("near ", i, " ", j);
  }
  var int k = K - j;
  if (!(k == 0)) {
    print("k=", k);
  }
  assert(i != 3 || j != 2 || V[0] != 1.0);
}
"""


# two ways to run the same program on less of the writer: with no Python
# loops, so every back edge leaves the code, and with no concrete
# translation, so every path stays on the general one
WRITER_CONFIGS = {
    "default": lambda mp: None,
    "no-python-loops": lambda mp: mp.setattr(engine, "_MAX_LOOPS", 0),
    "general-only": lambda mp: mp.setattr(engine.Engine, "settle", lambda self, state: None),
}


@pytest.mark.parametrize(
    "sources",
    [
        *(load_sources(names) for names in (CLEAN_FILES, SWAP_FILES, COLMAX_FILES)),
        [("<input>", TWO_PINS)],
        [("<input>", NESTS)],
        [("<input>", COMPOUND_INT_TESTS)],
    ],
    ids=["clean", "swap", "colmax", "two-pins", "nests", "compound-int-tests"],
)
def test_the_writer_gives_the_same_search_without_python_loops_or_concrete_blocks(
    monkeypatch, sources
):
    real_compile = engine._compile
    outcomes = {}
    for name, patch in WRITER_CONFIGS.items():
        written = []

        def compile_(lines, filename, consts):
            written.append("\n".join(lines))
            return real_compile(lines, filename, consts)

        with monkeypatch.context() as mp:
            mp.setattr(engine, "_compile", compile_)
            patch(mp)
            # a fresh copy, since a program's first engine translates it
            prog = load_program(sources)
            outcomes[name] = weighed_outcome(prog, SearchConfig())
        loops = any("while True:" in source for source in written)
        concrete = any(translated(f.translation.concrete) for f in prog.funcs)
        # each patch takes effect, and the default uses what it takes away
        assert (loops, concrete) == {
            "default": (True, True),
            "no-python-loops": (False, True),
            "general-only": (True, False),
        }[name]
    default = outcomes.pop("default")
    stats, incomplete, violations, paths = default
    assert violations or paths
    for name, outcome in outcomes.items():
        assert outcome == default, name


def test_replay_and_run_path_across_the_switch_give_the_verify_path():
    prog = load(TWO_PINS)
    r = search(TWO_PINS)
    for st in r.terminal_states:
        trail = list(st.trail)
        for reals in ({}, None):
            out = run_path(prog, SearchConfig(), trail, reals)
            assert out.state is not None and not out.violations
            assert out.prints == st.prints
    assert len(r.violations) == 2
    for v in r.violations:
        trail = list(v.trail)
        out = run_path(prog, SearchConfig(), trail, reals={})
        assert out.state is None and out.violations == [v]
        assert out.prints == ["round 0", "round 1"]
        out = run_path(prog, SearchConfig(), trail, reals={"V": [1, 1]})
        assert out.state is None and out.prints == ["round 0", "round 1"]
        (w,) = out.violations
        assert (w.prop, w.certainty, w.loc, w.message, w.trail) == (
            v.prop, Certainty.PROVEABLE, v.loc, v.message, v.trail,
        )


# N is only computed with and compared, and never stands in a strict
# position: every extent, choose_int count and index is computed from the
# choices, so no path pins N and main runs its general translation alone,
# which computes every int on polynomials: int +, - and *, unary -, each
# comparison, a read and a write at computed indices, a computed count and
# extent, and equals() of int arrays
NEVER_PINNED = """
input int N;
func main() {
  assume(-2 <= N && N <= 2);
  var int k;
  k = choose_int(2);
  var int a[k + 2];
  var int b[k + 2];
  a[0] = -N;
  b[0] = N - 2 * N;
  a[k + 1] = N * k - 1;
  b[k + 1] = k * N + 1 - 2;
  if (k == 1) {
    a[1] = N * N;
    b[1] = N;
  }
  var int c;
  c = choose_int(k + 1);
  var int x = a[c + 1] + N;
  if (x >= 1 && N <= 0 || -N > k) {
    print("x=", x);
  }
  if (x != N - 1) {
    x = x - 1;
  }
  assert(!equals(a, b) || N < 1);
  print(a, " ", b, " ", x);
  var int y = b[2 * c + 1];
}
"""


def test_a_path_that_never_pins_an_int_input_runs_the_general_code_alone(engines):
    r = search(NEVER_PINNED)
    assert r.stats == engine.Stats(states=69, terminals=3, pruned=11, solver_calls=50)
    assert not r.incomplete
    assert all(v.certainty is Certainty.PROVEABLE for v in r.violations)
    got = [
        (v.prop, v.loc.line, v.loc.col, v.message, render_trail(v.trail)[len("# trail v1\n"):])
        for v in r.violations
    ]
    failed, oob = Property.ASSERTION_VIOLATION, Property.OUT_OF_BOUNDS
    fails, past = "asserted condition fails", "index 3 outside 'b' of length 3"
    assert got == [
        (failed, 26, 3, fails, "C 0/2\nC 0/1\nB t\nB e\nB e\n"),
        (failed, 26, 3, fails, "C 0/2\nC 0/1\nB e\nB e\n"),
        (failed, 26, 3, fails, "C 1/2\nC 0/2\nB t\nB e\nB e\nB t\n"),
        (failed, 26, 3, fails, "C 1/2\nC 1/2\nB t\nB e\nB e\nB t\n"),
        (oob, 28, 15, past, "C 1/2\nC 1/2\nB e\nB t\nB t\n"),
        (oob, 28, 15, past, "C 1/2\nC 1/2\nB e\nB e\nB t\n"),
        (oob, 28, 15, past, "C 1/2\nC 1/2\nB e\nB e\nB e\n"),
    ]
    witnesses = [{sym.render(): value for sym, value in v.witness.items()} for v in r.violations]
    assert witnesses == [{"N": n} for n in (2, 1, 1, 1, -2, -1, 0)]
    assert [(render_trail(st.trail), st.prints) for st in r.terminal_states] == [
        ("# trail v1\nC 0/2\nC 0/1\nB e\nB t\n", ["x=N - 1", "[ -N -1 ] [ -N -1 ] N - 1"]),
        (
            "# trail v1\nC 1/2\nC 0/2\nB t\nB t\nB t\n",
            ["x=N*N + N", "[ -N N*N N - 1 ] [ -N N N - 1 ] N*N + N - 1"],
        ),
        (
            "# trail v1\nC 1/2\nC 0/2\nB e\nB e\nB t\n",
            ["[ -N N*N N - 1 ] [ -N N N - 1 ] N*N + N - 1"],
        ),
    ]
    (eng,) = engines
    assert all(translated(f.translation.code) for f in eng.program.funcs)
    assert not any(translated(f.translation.concrete) for f in eng.program.funcs)


@pytest.mark.parametrize(
    "sources",
    [
        *(load_sources(names) for names in (CLEAN_FILES, SWAP_FILES, COLMAX_FILES)),
        [("<input>", NAMES_LIKE_THE_GENERATED_CODE)],
        [("<input>", TWO_PINS)],
        [("<input>", ALL_INTS_GIVEN)],
        [("<input>", COMPOUND_INT_TESTS)],
        [("<input>", NEVER_PINNED)],
    ],
    ids=[
        "clean", "swap", "colmax", "names", "two-pins", "all-ints-given", "compound-int-tests",
        "never-pinned",
    ],
)
def test_every_block_translates_both_ways_and_the_concrete_one_tests_no_int(monkeypatch, sources):
    # a function is written only when a path enters it, so a search would
    # leave a fault in a translation that no path reaches unseen
    written = []
    real_compile = engine._compile

    def compile_(lines, filename, consts):
        written.append("\n".join(lines))
        return real_compile(lines, filename, consts)

    monkeypatch.setattr(engine, "_compile", compile_)
    prog = load_program(sources)
    engine.Engine(prog, SearchConfig())  # sets each FuncDecl.translation
    for fn in (f.translation for f in prog.funcs):
        both = []
        for concrete in (False, True):
            written.clear()
            run = engine._Writer(fn, concrete).function()
            assert callable(run)
            (source,) = written
            both.append(source)
        general, concrete = both
        for general_only in ("__class__ is int", "make_int", "int_poly", "_strict"):
            assert general_only not in concrete, (fn.name, concrete)
        # the general translation computes every int on polynomials
        assert "__class__ is int" not in general, (fn.name, general)
        # a pinned copy resumes in the concrete translation where it
        # stopped in the general one, so both have the same segments
        assert re.findall(r"if e <= (\d+):", general) == re.findall(r"if e <= (\d+):", concrete)


@pytest.mark.parametrize(
    "names, kw",
    [(CLEAN_FILES, {"overrides": {"M_B": 4}}), (SWAP_FILES, {}), (COLMAX_FILES, {})],
    ids=["clean-m4", "swap", "colmax"],
)
def test_the_general_code_runs_26_statements_of_each_benchmark_search(monkeypatch, names, kw):
    # the driver fixes the matrix's sizes before anything else, so every
    # statement after its first pins runs in the concrete translation; the
    # general one, which computes every int on polynomials, has no fast
    # path, and a change that moves this count may want one back
    ran = {}
    real_function = engine._Writer.function

    def function(self):
        run = real_function(self)
        if self.concrete:
            return run

        def counted(ex, state, frame):
            before = ex.stats.states
            out = run(ex, state, frame)
            ran[self.fn.name] = ran.get(self.fn.name, 0) + ex.stats.states - before
            return out

        return counted

    monkeypatch.setattr(engine._Writer, "function", function)
    r = explore(load_program(load_sources(names)), SearchConfig(**kw))
    assert r.stats.terminals
    assert ran == {"main": 8, "make_row_ptr": 18}
