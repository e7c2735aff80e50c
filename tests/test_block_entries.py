"""Paths that resume in the middle of a function: before, inside and after
a loop nest, and after each kind of statement that may stop a path there
(a symbolic if, an assume, an assert, the pin of a symbolic int), with
the counters, trails, prints and verdicts pinned."""

import pytest

from vlsym.ast import Program
from vlsym.engine import ArrayRef, SearchConfig, _render_print_arg, explore, render_trail, run_path
from vlsym.parser import load_program


def load(src: str) -> Program:
    prog = load_program([("<input>", src)])
    assert isinstance(prog, Program), prog
    return prog


def search(prog: Program, **kw):
    terminals = []
    r = explore(prog, SearchConfig(**kw), on_terminal=terminals.append)
    return r, terminals


def counts(r) -> tuple:
    return (r.stats.states, r.stats.terminals, r.stats.pruned, r.stats.solver_calls)


def steps(trail) -> str:
    """A trail's decisions, one a line, without the trail file's header."""
    text = render_trail(trail)
    assert text.startswith("# trail v1\n")
    return text[len("# trail v1\n") :]


def verdicts(r) -> list:
    return [
        (v.prop.name, v.certainty.name, v.loc.line, v.message, steps(v.trail))
        for v in r.violations
    ]


def outcomes(terminals) -> list:
    return sorted((steps(st.trail), st.prints) for st in terminals)


def replays_agree(prog: Program, r, terminals, **kw) -> None:
    """Every terminal and every finding comes out the same when its path
    is replayed alone."""
    for st in terminals:
        out = run_path(prog, SearchConfig(**kw), list(st.trail), reals={})
        assert out.state is not None and not out.violations
        assert out.prints == st.prints
    for v in r.violations:
        out = run_path(prog, SearchConfig(**kw), list(v.trail), reals={})
        assert out.state is None and out.violations == [v]


# A path resumes in main's code after the symbolic if before the first
# nest, after the symbolic int if in the inner loop, after the pin of N in
# the outer loop's body (from where the path runs the concrete code, in
# the middle of the nest), after the assume and the assert in that body,
# and after the symbolic if that follows the nest. In the second nest
# each inner loop is the last statement of its parent's body or of an
# if's side, with an else after it, and the last loop's exit goes on past
# an else.
# bump ends at its loop's test in the middle of its code, nop has no
# statement at all, and note ends at its return or its last statement,
# after which main, whose last statement called it, ends too.
NESTS = """
input int N;
input real V[3];

func bump(int[] a, int n) {
  var int i = 0;
  while (i < n) {
    if (a[i] < 2) {
      a[i] = a[i] + 3;
    } else {
      a[i] = a[i] - 1;
    }
    i = i + 1;
  }
}

func note(int[] a, real y) {
  if (y < V[2]) {
    a[0] = a[0] * 2;
    return;
  }
  a[1] = a[1] * 2;
}

func nop() {
}

func main() {
  assume(0 <= N && N <= 3);
  var int a[3];
  a[0] = 1;
  a[1] = 2;
  a[2] = 0;
  var real x = V[0];
  var int s = 0;
  if (x < V[1]) {
    s = 1;
  }
  var int i = 0;
  while (i < 3) {
    var int j = 0;
    while (j < i) {
      s = s + a[j];
      if (j < N) {
        s = s + 1;
      }
      j = j + 1;
    }
    if (i == 1) {
      s = s + a[N - 1];
    }
    assume(x < V[2] + 4.0);
    assert(s < N + 8);
    i = i + 1;
  }
  if (V[2] < x) {
    print("after ", s);
  }
  var int k = 0;
  while (k < 2) {
    k = k + 1;
    var int m = 0;
    while (m < k) {
      m = m + 1;
      s = s + m;
    }
  }
  while (k < 5) {
    k = k + 1;
    if (k == 4) {
      var int m = 0;
      while (m < k) {
        m = m + 1;
        s = s + 1;
      }
    } else {
      s = s + 10;
    }
  }
  var int z = 0;
  if (z < 1) {
    while (z < 3) {
      z = z + 1;
    }
  } else {
    s = s + 100;
  }
  s = s + z;
  bump(a, 3);
  nop();
  print(s, " ", a);
  note(a, x);
}
"""


COUNTS = (963, 20, 0, 64)
VERDICTS = [
    ("ASSERTION_VIOLATION", "PROVEABLE", 53, "asserted condition fails", "B t\nB t\nZ N=2/3\n"),
    ("OUT_OF_BOUNDS", "PROVEABLE", 50, "index -1 outside 'a' of length 3", "B t\nB e\nZ N=0/1\n"),
    ("OUT_OF_BOUNDS", "PROVEABLE", 50, "index -1 outside 'a' of length 3", "B e\nB e\nZ N=0/1\n"),
]
OUTCOMES = [
    ("B e\nB t\nZ N=1/3\nB e\nB e\n", ["38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=1/3\nB e\nB t\n", ["38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=1/3\nB t\nB e\n", ["after 7", "38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=1/3\nB t\nB t\n", ["after 7", "38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=2/3\nB e\nB e\n", ["40 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=2/3\nB e\nB t\n", ["40 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=2/3\nB t\nB e\n", ["after 9", "40 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=2/3\nB t\nB t\n", ["after 9", "40 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=3/3\nB e\nB e\n", ["38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=3/3\nB e\nB t\n", ["38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=3/3\nB t\nB e\n", ["after 7", "38 [ 4 1 3 ]"]),
    ("B e\nB t\nZ N=3/3\nB t\nB t\n", ["after 7", "38 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=1/3\nB e\nB e\n", ["39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=1/3\nB e\nB t\n", ["39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=1/3\nB t\nB e\n", ["after 8", "39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=1/3\nB t\nB t\n", ["after 8", "39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=3/3\nB e\nB e\n", ["39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=3/3\nB e\nB t\n", ["39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=3/3\nB t\nB e\n", ["after 8", "39 [ 4 1 3 ]"]),
    ("B t\nB t\nZ N=3/3\nB t\nB t\n", ["after 8", "39 [ 4 1 3 ]"]),
]


def test_paths_resume_before_inside_and_after_a_loop_nest_in_one_block():
    prog = load(NESTS)
    r, terminals = search(prog)
    assert counts(r) == COUNTS
    assert verdicts(r) == VERDICTS
    assert outcomes(terminals) == OUTCOMES
    replays_agree(prog, r, terminals)


CONCRETE_COUNTS = (241, 4, 0, 15)
CONCRETE_VERDICTS = [
    ("ASSERTION_VIOLATION", "PROVEABLE", 53, "asserted condition fails", "B t\n"),
]
CONCRETE_OUTCOMES = [
    ("B e\nB e\nB e\n", ["40 [ 4 1 3 ]"]),
    ("B e\nB e\nB t\n", ["40 [ 4 1 3 ]"]),
    ("B e\nB t\nB e\n", ["after 9", "40 [ 4 1 3 ]"]),
    ("B e\nB t\nB t\n", ["after 9", "40 [ 4 1 3 ]"]),
]


def test_a_loop_nest_runs_the_same_on_the_concrete_code_from_the_start():
    prog = load(NESTS)
    r, terminals = search(prog, overrides={"N": 2})
    assert counts(r) == CONCRETE_COUNTS
    assert verdicts(r) == CONCRETE_VERDICTS
    assert outcomes(terminals) == CONCRETE_OUTCOMES
    replays_agree(prog, r, terminals, overrides={"N": 2})


# put returns, which ends twice as well when its second call was twice's
# last statement; main returns from within its loop on one path and runs
# to its end, a call of nop, on the other
RETURNS = """
input int N;
func put(int[] out, int v) {
  out[0] = v;
  return;
}
func twice(int[] out, int v) {
  put(out, v);
  put(out, v + v);
}
func nop() {
}
func main() {
  assume(0 <= N && N <= 1);
  var int out[1];
  var int s = 0;
  while (s < 10) {
    s = s + 3;
    if (s == 6 + 3 * N && N == 0) {
      twice(out, s);
      print(s, " ", out);
      s = s + 1;
      return;
    }
  }
  print(s);
  nop();
}
"""


@pytest.mark.parametrize(
    "overrides, expected, s",
    [
        (
            {},
            (
                (28, 2, 5, 13),
                [("B e\nB e\nB t\nB e\nB e\n", ["12"]), ("B e\nB t\nB t\n", ["6 [ 12 ]"])],
            ),
            [7, 12],
        ),
        ({"N": 1}, ((18, 1, 0, 0), [("", ["12"])]), [12]),
    ],
    ids=["general", "concrete"],
)
def test_returns_and_function_ends_pop_every_frame_that_has_ended(overrides, expected, s):
    prog = load(RETURNS)
    r, terminals = search(prog, overrides=overrides)
    assert (counts(r), outcomes(terminals)) == expected
    assert not r.violations
    # main's frame keeps what it wrote, whichever way it ended
    assert sorted(st.lookup("s") for st in terminals) == s
    replays_agree(prog, r, terminals, overrides=overrides)


def deep_loops(loops: int, ands: int, nested: bool) -> str:
    """main with loops nested while loops, the outermost and the innermost
    going round twice and the others once, and in the innermost an if
    whose condition is ands comparisons joined by &&: a left-deep chain,
    or one nested in parentheses to the right. The last comparison reads
    the symbolic N, so each test of it leaves the code and the path
    resumes inside the nest."""
    out = ["input int N;", "func main() {", "assume(0 <= N && N <= 1);", "var int s = 0;"]
    for d in range(loops):
        out.append(f"var int i{d} = 0;")
        out.append(f"while (i{d} < {2 if d in (0, loops - 1) else 1}) {{")
    parts = [f"s < {100 + k}" for k in range(ands - 1)] + ["s < N + 3"]
    cond = parts[-1]
    for p in reversed(parts[:-1]):
        cond = f"{p} && ({cond})" if nested else f"{p} && {cond}"
    out.append(f"if ({cond}) {{ s = s + 1; }}")
    for d in reversed(range(loops)):
        out.append(f"i{d} = i{d} + 1;")
        out.append("}")
    out += ["print(s);", "}"]
    return "\n".join(out)


# N = 0 fails the last comparison when s is 3, in the second round of the
# outermost loop; with N given, the path runs the concrete code throughout
BOTH_SIDES = [("B t\nB t\nB t\nB e\n", ["3"]), ("B t\nB t\nB t\nB t\n", ["4"])]


@pytest.mark.parametrize(
    "loops, ands, nested, general, concrete",
    [
        (25, 60, False, ((264, 2, 3, 9), BOTH_SIDES), ((213, 1, 0, 0), [("", ["4"])])),
        (25, 49, True, ((264, 2, 3, 9), BOTH_SIDES), ((213, 1, 0, 0), [("", ["4"])])),
        (9, 60, True, ((104, 2, 3, 9), BOTH_SIDES), ((85, 1, 0, 0), [("", ["4"])])),
    ],
    ids=["25-loops-60-chained", "25-loops-49-nested", "9-loops-60-nested"],
)
def test_deeply_nested_loops_and_conditions_keep_their_counts(
    loops, ands, nested, general, concrete
):
    # 25 loops is more than CPython compiles as nested loops of one
    # function, and 60 && nested in parentheses is about as deep as the
    # parser accepts
    prog = load(deep_loops(loops, ands, nested))
    r, terminals = search(prog)
    assert (counts(r), outcomes(terminals)) == general
    assert not r.violations
    r, terminals = search(prog, overrides={"N": 1})
    assert (counts(r), outcomes(terminals)) == concrete
    assert not r.violations


# Programs whose frames end in each way a function can end: a call to a
# function with no statements, in the middle of main and as its last
# statement; a chain of calls, each its caller's last statement, whose
# innermost ends on an if without an else; a void callee whose last
# statement is a symbolic if without an else, so that its else side goes
# on at the callee's end; main returning before its end; a function with
# a value called with and without a target; and a loop whose body holds a
# choose_int and a call, so that it goes round through a frame's end.
FRAME_ENDS = {
    "empty-callee": """
input int N;
func nop() {
}
func main() {
  assume(0 <= N && N <= 2);
  var int s = 0;
  if (N == 1) {
    nop();
  }
  s = s + 1;
  nop();
  if (N == 2) {
    s = s + 2;
  }
  print(s);
  nop();
}
""",
    "chain": """
input int N;
func c(int[] out) {
  print("c ", out);
  if (out[0] < N) {
    out[0] = out[0] + 1;
  }
}
func b(int[] out) {
  out[0] = out[0] + 10;
  c(out);
}
func a(int[] out) {
  b(out);
}
func main() {
  assume(0 <= N && N <= 20);
  var int out[1];
  out[0] = 5;
  a(out);
}
""",
    "void-if-end": """
input real V[2];
func clamp(real[] x) {
  var int k = 0;
  if (x[0] < V[1]) {
    k = 1;
    x[0] = V[1];
    print("raised");
  }
}
func main() {
  var real y[1];
  y[0] = V[0];
  clamp(y);
  print("after ", y);
  y[0] = y[0] - 1.0;
  clamp(y);
}
""",
    "main-returns": """
input int N;
func main() {
  assume(0 <= N && N <= 3);
  var int s = 0;
  while (s < 4) {
    s = s + 1;
    if (s == N) {
      print("early ", s);
      return;
    }
  }
  print("end ", s);
}
""",
    "value-callee": """
input int N;
func sq(int x) -> int {
  if (x < N) {
    return x * x;
  }
  return x;
}
func main() {
  assume(0 <= N && N <= 4);
  var int s = 0;
  s = sq(2);
  sq(s);
  var int t;
  t = sq(s + 1);
  print(s, " ", t);
}
""",
    "loop-choose-call": """
func add(int[] a, int v) {
  a[0] = a[0] * 2 + v;
}
func main() {
  var int a[1];
  a[0] = 0;
  var int i = 0;
  while (i < 3) {
    var int c;
    c = choose_int(2);
    add(a, c);
    i = i + 1;
  }
  print(a);
}
""",
}

# by program and --max-depth (0 for none): the counts, whether the search
# is incomplete, and each terminal's trail, prints and main's slots as
# they were at its end. The else side of a test that ends a function goes
# on to its caller's end before the depth limit is tested again.
EMPTY_CALLEE = [
    ("B e\nB e\n", ["1"], ["1"]),
    ("B e\nB t\n", ["3"], ["3"]),
    ("B t\nB e\n", ["1"], ["1"]),
]
CHAIN = [("B e\n", ["c [ 15 ]"], ["[ 15 ]"]), ("B t\n", ["c [ 15 ]"], ["[ 16 ]"])]
VOID_IF_END = [
    ("B e\nB e\n", ["after [ X_V[0] ]"], ["[ X_V[0] - 1 ]"]),
    ("B e\nB t\n", ["after [ X_V[0] ]", "raised"], ["[ X_V[1] ]"]),
    ("B t\n", ["raised", "after [ X_V[1] ]", "raised"], ["[ X_V[1] ]"]),
]
MAIN_RETURNS = [
    ("B e\nB e\nB e\nB e\n", ["end 4"], ["4"]),
    ("B e\nB e\nB t\n", ["early 3"], ["3"]),
    ("B e\nB t\n", ["early 2"], ["2"]),
    ("B t\n", ["early 1"], ["1"]),
]
FRAME_END_OUTCOMES = {
    "empty-callee": {
        0: ((17, 3, 1, 7), False, EMPTY_CALLEE),
        1: ((5, 0, 0, 3), True, []),
        2: ((13, 0, 1, 7), True, []),
        3: ((17, 3, 1, 7), False, EMPTY_CALLEE),
    },
    "chain": {
        0: ((10, 2, 0, 3), False, CHAIN),
        1: ((10, 1, 0, 3), True, CHAIN[:1]),
        2: ((10, 2, 0, 3), False, CHAIN),
        3: ((10, 2, 0, 3), False, CHAIN),
    },
    "void-if-end": {
        0: ((24, 3, 0, 4), False, VOID_IF_END),
        1: ((7, 0, 0, 2), True, []),
        2: ((22, 2, 0, 4), True, [VOID_IF_END[0], VOID_IF_END[2]]),
        3: ((24, 3, 0, 4), False, VOID_IF_END),
    },
    "main-returns": {
        0: ((22, 4, 1, 9), False, MAIN_RETURNS),
        1: ((7, 0, 0, 3), True, []),
        2: ((12, 1, 0, 5), True, MAIN_RETURNS[3:]),
        3: ((17, 2, 0, 7), True, MAIN_RETURNS[2:]),
    },
    "value-callee": {
        0: (
            (22, 2, 4, 11),
            False,
            [("B e\nB e\nB e\n", ["2 3"], ["2", "3"]), ("B t\nB e\nB e\n", ["4 5"], ["4", "5"])],
        ),
        1: ((6, 0, 0, 3), True, []),
        2: ((12, 0, 2, 7), True, []),
        3: ((20, 0, 4, 11), True, []),
    },
    "loop-choose-call": {
        # a[0] holds the three choices read as binary digits
        0: (
            (82, 8, 0, 0),
            False,
            [
                (
                    f"C {i >> 2}/2\nC {i >> 1 & 1}/2\nC {i & 1}/2\n",
                    [f"[ {i} ]"],
                    [f"[ {i} ]", "3", str(i & 1)],
                )
                for i in range(8)
            ],
        ),
        1: ((8, 0, 0, 0), True, []),
        2: ((22, 0, 0, 0), True, []),
        3: ((50, 0, 0, 0), True, []),
    },
}


def main_slots(st) -> list:
    """The values of main's slots in a terminal state, as print shows
    them, with an array's cells for the array."""
    frame = st.frames[0]
    assert frame.fn.name == "main"
    shown = []
    for v in frame.slots:
        if isinstance(v, ArrayRef):
            v = tuple(st.heap[v.addr].cells)
        shown.append(None if v is None else _render_print_arg(v))
    return shown


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(FRAME_ENDS))
def test_every_way_a_frame_ends_keeps_the_search(name, depth):
    prog = load(FRAME_ENDS[name])
    r, terminals = search(prog, max_depth=depth)
    paths = sorted((steps(st.trail), st.prints, main_slots(st)) for st in terminals)
    assert (counts(r), r.incomplete, paths) == FRAME_END_OUTCOMES[name][depth]
    assert not r.violations
    replays_agree(prog, r, terminals, max_depth=depth)


@pytest.mark.parametrize("name", list(FRAME_ENDS))
def test_every_way_a_frame_ends_keeps_the_search_over_two_processes(name):
    # each program ends before the frontier fills, so the breadth-first
    # phase of the forked search runs every path
    r = explore(load(FRAME_ENDS[name]), SearchConfig(workers=2))
    expected_counts, incomplete, paths = FRAME_END_OUTCOMES[name][0]
    assert (counts(r), r.incomplete, r.violations) == (expected_counts, incomplete, [])
