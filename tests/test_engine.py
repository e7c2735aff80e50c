"""Executor behavior: path enumeration, forks, violations, replay."""

import os
import re
import signal
import time
import tracemalloc
from fractions import Fraction

import pytest

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
    replay,
    run_path,
    trail_key,
)
from vlsym.parser import load_program, parse_program
from vlsym.solver import Atom, PathCondition, Rel, SatStatus
from vlsym.values import Poly, RealVal, SymConst, SymInt, SymKind


def load(src: str) -> Program:
    """The validated program, as the engine's entry points expect it."""
    prog = load_program([("<input>", src)])
    assert isinstance(prog, Program), prog
    return prog


def search(src: str, **kw) -> engine.SearchResult:
    terminals = []
    cfg = SearchConfig(**kw)
    result = explore(load(src), cfg, on_terminal=terminals.append)
    result.terminal_states = terminals
    return result


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
    "n, certainty, message, solver_calls",
    [
        (12, Certainty.PROVEABLE, "asserted condition fails", 1),
        (13, Certainty.MAYBE, "condition is too large to check", 0),
    ],
    ids=["4096-disjuncts", "8192-disjuncts"],
)
def test_an_assertion_whose_negation_has_too_many_disjuncts_is_not_checked(
    n, certainty, message, solver_calls
):
    # the negation of n disjuncts `(V[2i] < 0.0 && V[2i+1] < 0.0)` has 2^n
    # disjuncts: 4096 is at the cut and is checked, 8192 is past it
    assert 2**12 == engine.MAX_DNF_DISJUNCTS
    cond = " || ".join(f"(V[{2 * i}] < 0.0 && V[{2 * i + 1}] < 0.0)" for i in range(n))
    r = search(f"input real V[{2 * n}];\nfunc main() {{\n  assert({cond});\n}}\n")
    assert r.stats == engine.Stats(states=1, terminals=0, pruned=0, solver_calls=solver_calls)
    assert not r.incomplete
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
        replayed = replay(prog, SearchConfig(), last)
        with pytest.raises(TrailMismatch, match=f"^trail has C {k}/{k} where the path offers {k} "):
            replay(prog, SearchConfig(), parse_trail(f"C {k}/{k}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert not ran.violations
    (line,) = ran.prints
    assert ran.state.trail == [ChooseInt(int(line), k)]
    assert replayed.prints == [str(k - 1)]
    assert replayed.state.trail == last


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
        side = "t" if probe_side.then_taken else "e"
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
        out = replay(load(SMALL), SearchConfig(), list(st.trail))
        assert out.state is not None
        assert out.prints == st.prints
        assert not out.violations


def test_replay_rejects_leftover_and_mismatched_decisions():
    prog = load(SMALL)
    trail = parse_trail("# trail v1\nZ N=1/2\nC 0/2\nC 1/2\n")
    with pytest.raises(TrailMismatch, match=re.escape("path finished with 1 unused")):
        replay(prog, SearchConfig(), trail)
    trail = parse_trail("# trail v1\nZ N=1/2\n")
    with pytest.raises(TrailMismatch):
        replay(prog, SearchConfig(), trail)
    trail = parse_trail("# trail v1\nC 0/2\n")
    with pytest.raises(TrailMismatch):
        replay(prog, SearchConfig(), trail)

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
            replay(prog, SearchConfig(), parse_trail(text))

    # the message stays short at a wide fork
    src = """
        func main() {
          var int x;
          x = choose_int(100000);
        }
        """
    with pytest.raises(TrailMismatch) as caught:
        replay(load(src), SearchConfig(), parse_trail("C 0/99999"))
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
    out = replay(load(src), SearchConfig(), list(v.trail))
    assert out.state is None
    assert out.violations
    assert out.violations[0].prop is Property.ASSERTION_VIOLATION
    assert out.violations[0].loc == v.loc
    assert trail_key(out.violations[0].trail) == trail_key(v.trail)

    # N is the second symbol; its pin read back from a trail file sorts as
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
    assert trail_key(parse_trail(render_trail(v.trail))) == trail_key(v.trail)
    out = replay(load(src), SearchConfig(), parse_trail(render_trail(v.trail)))
    assert out.violations[0].loc == v.loc
    assert trail_key(out.violations[0].trail) == trail_key(v.trail)


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
        (SymInt(Poly.symbol(n).scale(3) + Poly.const(1)), {n: 2}, "7"),
        (SymInt(Poly.symbol(n).scale(-3)), {n: 2}, "-6"),
    ]
    for value, witness, want in cases:
        assert engine._render_value(value, witness) == want
    assert engine._render_value(RealVal(prod + half)) == "X_A[0]*X_V[0] + 1/2"


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
            lambda: replay(prog, cfg, []),
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


# --- the search over forked workers ---


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that os.fork starts. The parent counts a
    fork before it happens, so a worker sees its own number in the count."""
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


def forked_matches_serial(prog, **kw) -> engine.SearchResult:
    serial = explore(prog, SearchConfig(workers=1, **kw))
    forked = explore(prog, SearchConfig(workers=2, **kw))
    assert forked.stats == serial.stats
    assert forked.incomplete == serial.incomplete
    # dataclass equality: prop, certainty, loc, message, trail, witness and
    # detail of every violation, in order
    assert forked.violations == serial.violations
    assert forked.inputs_desc == serial.inputs_desc
    return forked


@pytest.mark.parametrize(
    "names, kw",
    [
        (SWAP_FILES, {}),
        (COLMAX_FILES, {}),
        # at depth 6 the breadth-first phase meets the limit itself; at 7
        # only the workers do, so their incomplete flag must survive the merge
        (CLEAN_FILES, {"max_depth": 6}),
        (CLEAN_FILES, {"max_depth": 7}),
    ],
    ids=["swap", "colmax", "clean-depth-6", "clean-depth-7"],
)
def test_forked_search_matches_serial_on_the_corpus(forks, names, kw):
    r = forked_matches_serial(corpus_program(names), **kw)
    assert len(forks) == 2
    if "max_depth" in kw:
        assert r.incomplete
    else:
        assert r.violations and not r.incomplete


def test_forked_search_keeps_a_budget_cut_met_inside_a_worker(forks):
    # the frontier is the 80 choices; every path below k = 40 then meets
    # the enumeration budget in a worker
    src = """
        input int N;
        func main() {
          var int k;
          k = choose_int(80);
          if (k < 40) {
            assume(0 <= N && N <= 50);
          }
          print(k);
        }
        """
    r = forked_matches_serial(load(src), budget=20)
    assert len(forks) == 2
    assert r.incomplete
    assert r.stats.terminals == 40
    assert [v.trail for v in r.violations] == [(ChooseInt(k, 80),) for k in range(40)]
    assert {(v.prop, v.certainty) for v in r.violations} == {
        (Property.ENUM_BUDGET, Certainty.MAYBE)
    }


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
    def dfs(self, root, on_terminal=None):
        if len(forks) % 2 == 1:  # worker 0 of either search
            if how == "raises":
                raise RuntimeError("worker fault")
            os.kill(os.getpid(), signal.SIGKILL)
        # worker 1 is still searching when worker 0 fails, and must be
        # killed; it gives up after a minute, so a missed kill cannot hang
        time.sleep(60)
        raise RuntimeError("worker 1 was not killed")

    monkeypatch.setattr(engine._Executor, "dfs", dfs)
    failure = (
        "search worker 0 of 2 exited with status 1"
        if how == "raises"
        else "search worker 0 of 2 was killed by SIGKILL"
    )
    src = tmp_path / "fan.vl"
    src.write_text("func main() { var int k; k = choose_int(100); }\n")
    started = time.monotonic()
    with pytest.raises(engine.WorkerFailed, match=f"^{failure}$"):
        explore(load(src.read_text()), SearchConfig(workers=2))
    assert cli.main(["verify", "--workers", "2", str(src)]) == 1
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
    # dataclass equality: prop, certainty, loc, message, trail, witness and
    # detail of every violation, in order
    assert kept.violations == fresh.violations
    assert kept.violations


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
            replay(prog, SearchConfig(), list(st.trail)),
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
    for out in (replay(prog, SearchConfig(), trail), run_path(prog, SearchConfig(), trail)):
        assert out.state is None
        assert out.prints == ["s=4 a=[ 1 5 3 ]"]
        assert [w.message for w in out.violations] == [v.message]


def test_max_depth_met_where_a_block_starts_counts_that_statement():
    # the choose_int ends a block; on each of its two copies the depth is
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


# every local below is named like a name of the engine's generated block
# code or a Python keyword or builtin, and the first print's string is one
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
