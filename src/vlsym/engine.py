"""Symbolic executor for VL programs.

One stepper drives three modes from one start state, in which every real
input cell holds a symbol; run alone then writes values into those cells.
Every decision point hands its feasible decisions to one fork, which asks
a choice policy which of them to take and records each taken decision on
its path's trail. The modes differ only in the policy: verify takes every
option, replay takes the one its trail names, and run takes one at random
unless it is given a trail. Decisions come in three flavors and make up
the trail of a path:

- ``C i/k``   a choose_int picked i out of k alternatives
- ``B t|e``   a symbolic branch took the then or else side
- ``Z N=v/k`` a symbolic int was pinned to v, one of k feasible values

Each function is lowered once into one flat tuple of statement closures,
each of which names the index of the statement that runs after it. Names
are not resolved here: validation gave each parameter and local
declaration a slot of its own and each name the slot it refers to, and
lowering translates that checked tree. A frame is its function's code,
its slots and the index of its next statement.
States are mutated in place along straight-line code and cloned only
where paths fork. Integer inputs stay symbolic until a strict position
(array extent, array index, choose_int argument) forces a value, at
which point the path fans out over the feasible range.

verify searches depth first. With more than one worker it first runs the
search breadth first until FRONTIER_STATES paths are live, then forks one
process per worker over that frontier: a worker inherits the lowered
program and the live states, searches every N-th of them depth first, and
sends back only its counts and findings, which the parent adds up and
sorts by trail as the serial search does.
"""

from __future__ import annotations

import enum
import operator
import os
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction
from random import Random

from . import ast
from .diagnostics import Loc
from .solver import (
    DEFAULT_BUDGET,
    Atom,
    EnumerationBudgetExceeded,
    PathCondition,
    Rel,
    SatResult,
    SatStatus,
    UnboundedSymbol,
    pc_sat,
)
from .values import (
    UNDEFINED,
    DivisionByZero,
    NonConstantDivisor,
    Poly,
    RealVal,
    SymConst,
    SymInt,
    SymKind,
    int_poly,
    make_int,
)

MAX_ARRAY_CELLS = 1 << 20
MAX_DNF_DISJUNCTS = 4096
# live states the breadth-first phase gathers before it forks workers: 16
# leaves the workers unevenly loaded, and more grows the parent's memory
# without a faster search
FRONTIER_STATES = 64


class Property(enum.Enum):
    ASSERTION_VIOLATION = "ASSERTION_VIOLATION"
    OUT_OF_BOUNDS = "OUT_OF_BOUNDS"
    DIVISION_BY_ZERO = "DIVISION_BY_ZERO"
    READ_UNDEFINED = "READ_UNDEFINED"
    WRITE_TO_INPUT = "WRITE_TO_INPUT"
    ENUM_BUDGET = "ENUM_BUDGET"


class Certainty(enum.Enum):
    PROVEABLE = "PROVEABLE"
    MAYBE = "MAYBE"


# ---------------------------------------------------------------------------
# decisions and trails


@dataclass(frozen=True)
class ChooseInt:
    index: int
    fanout: int

    def render(self) -> str:
        return f"C {self.index}/{self.fanout}"

    def key(self) -> int:
        return self.index


@dataclass(frozen=True)
class Branch:
    then_taken: bool

    def render(self) -> str:
        return f"B {'t' if self.then_taken else 'e'}"

    def key(self) -> int:
        return 0 if self.then_taken else 1


@dataclass(frozen=True)
class ConcretizeInt:
    name: str
    value: int
    fanout: int

    def render(self) -> str:
        return f"Z {self.name}={self.value}/{self.fanout}"

    def key(self) -> int:
        return self.value


Decision = ChooseInt | Branch | ConcretizeInt
_THEN, _ELSE = Branch(True), Branch(False)


def trail_key(trail) -> tuple:
    """The sort key of a trail: each decision's position among the options
    it was taken from. Two trails of one search first differ at a decision
    point that both reached from the same state, so there both offered the
    same options, of one kind and one fanout, and only the position taken
    can tell them apart."""
    return tuple(d.key() for d in trail)


class TrailFormatError(Exception):
    pass


class TrailMismatch(Exception):
    pass


def render_trail(decisions) -> str:
    lines = ["# trail v1"]
    lines.extend(d.render() for d in decisions)
    return "\n".join(lines) + "\n"


def parse_trail(text: str) -> list[Decision]:
    out: list[Decision] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            kind, rest = line.split(None, 1)
            if kind == "C":
                i, k = rest.split("/")
                out.append(ChooseInt(int(i), int(k)))
            elif kind == "B":
                if rest not in ("t", "e"):
                    raise ValueError(rest)
                out.append(Branch(rest == "t"))
            elif kind == "Z":
                name, tail = rest.split("=")
                v, k = tail.split("/")
                out.append(ConcretizeInt(name.strip(), int(v), int(k)))
            else:
                raise ValueError(kind)
        except ValueError:
            raise TrailFormatError(f"line {lineno}: cannot parse {line!r}") from None
    return out


# ---------------------------------------------------------------------------
# boolean formulas (kept in negation normal form by construction): a
# solver Atom is a leaf, and a decided formula is the bool True or False


@dataclass(frozen=True)
class FAnd:
    parts: tuple


@dataclass(frozen=True)
class FOr:
    parts: tuple


def f_and(parts) -> object:
    flat = []
    for p in parts:
        if p is True:
            continue
        if p is False:
            return False
        if isinstance(p, FAnd):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return True
    if len(flat) == 1:
        return flat[0]
    return FAnd(tuple(flat))


def f_or(parts) -> object:
    flat = []
    for p in parts:
        if p is False:
            continue
        if p is True:
            return True
        if isinstance(p, FOr):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return False
    if len(flat) == 1:
        return flat[0]
    return FOr(tuple(flat))


def f_not(f) -> object:
    if f is True:
        return False
    if f is False:
        return True
    if isinstance(f, Atom):
        return f.negated()
    if isinstance(f, FAnd):
        return f_or(tuple(f_not(p) for p in f.parts))
    return f_and(tuple(f_not(p) for p in f.parts))


class _DnfBlowup(Exception):
    pass


def dnf(f) -> list[list[Atom]]:
    """Disjunctive normal form as a list of atom conjunctions."""
    if f is True:
        return [[]]
    if f is False:
        return []
    if isinstance(f, Atom):
        return [[f]]
    if isinstance(f, FOr):
        out = []
        for p in f.parts:
            out.extend(dnf(p))
            if len(out) > MAX_DNF_DISJUNCTS:
                raise _DnfBlowup
        return out
    out = [[]]
    for p in f.parts:
        step = dnf(p)
        out = [left + right for left in out for right in step]
        if len(out) > MAX_DNF_DISJUNCTS:
            raise _DnfBlowup
    return out


# ---------------------------------------------------------------------------
# runtime state


@dataclass(frozen=True)
class ArrayRef:
    addr: int


class ArrayStorage:
    __slots__ = ("cells", "elem_kind", "read_only", "label")

    def __init__(self, cells, elem_kind: SymKind, read_only: bool = False, label: str = ""):
        self.cells = cells
        self.elem_kind = elem_kind
        self.read_only = read_only
        self.label = label

    def clone(self) -> "ArrayStorage":
        return ArrayStorage(list(self.cells), self.elem_kind, self.read_only, self.label)


class Frame:
    """One call of a function: the function's flat code, the name of each
    of its slots, the slots' values and pc, the index in code of the
    statement that runs next (len(code) once the function has ended)."""

    __slots__ = ("code", "names", "slots", "pc", "ret_slot")

    def __init__(self, code: tuple, names: tuple, slots: list, ret_slot=None, pc=0):
        self.code = code
        self.names = names
        self.slots = slots
        # the slot of the caller's frame that receives the result
        self.ret_slot = ret_slot
        self.pc = pc

    def clone(self) -> "Frame":
        return Frame(self.code, self.names, list(self.slots), self.ret_slot, self.pc)


class ExecState:
    """One path's state. printed holds each print's evaluated arguments, as
    a tuple of literal strings, values and snapshots (tuples) of printed
    arrays' cells; prints renders them, so a search that never reads its
    output never renders it."""

    __slots__ = (
        "frames",
        "heap",
        "next_addr",
        "globals",
        "pc",
        "trail",
        "printed",
        "done",
    )

    def __init__(self, frames, heap, next_addr, globals_, pc, trail, printed):
        self.frames = frames
        self.heap = heap
        self.next_addr = next_addr
        self.globals = globals_
        self.pc = pc
        self.trail = trail
        self.printed = printed
        self.done = False

    @property
    def prints(self) -> list[str]:
        """The lines that the path's prints wrote, as they were when each ran."""
        return ["".join([_render_print_arg(p) for p in parts]) for parts in self.printed]

    def clone(self) -> "ExecState":
        st = ExecState(
            [f.clone() for f in self.frames],
            {addr: s.clone() for addr, s in self.heap.items()},
            self.next_addr,
            self.globals,
            self.pc,
            list(self.trail),
            list(self.printed),
        )
        return st

    def alloc(self, storage: ArrayStorage) -> ArrayRef:
        addr = self.next_addr
        self.next_addr += 1
        self.heap[addr] = storage
        return ArrayRef(addr)

    def lookup(self, name: str):
        """The value of name in the top frame, from the latest-declared slot
        of that name, or else the input of that name."""
        frame = self.frames[-1]
        for i in range(len(frame.names) - 1, -1, -1):
            if frame.names[i] == name:
                return frame.slots[i]
        return self.globals.get(name)


# ---------------------------------------------------------------------------
# violations


@dataclass
class Violation:
    prop: Property
    certainty: Certainty
    loc: Loc
    message: str
    trail: tuple
    witness: "dict[SymConst, int | Fraction] | None"
    detail: "list[tuple[str, str]] | None" = None

    @property
    def depth(self) -> int:
        return len(self.trail)


class Violating(Exception):
    """Raised inside evaluation when a path hits a definite error site."""

    def __init__(self, prop: Property, loc: Loc, message: str, force_maybe: bool = False):
        super().__init__(message)
        self.prop = prop
        self.loc = loc
        self.message = message
        self.force_maybe = force_maybe


class NeedsConcretize(Exception):
    """A strict position needs a concrete int; carries the symbol to pin."""

    def __init__(self, sym: SymConst):
        super().__init__(sym.render())
        self.sym = sym


class EngineInitError(Exception):
    pass


class WorkerFailed(Exception):
    """A search worker process failed, so the search has no result."""


# ---------------------------------------------------------------------------
# choice policies


class ExploreAll:
    def pick(self, options: Sequence[Decision]) -> range:
        return range(len(options))


class RandomPolicy:
    def __init__(self, rng: Random):
        self.rng = rng

    def pick(self, options: Sequence[Decision]) -> list[int]:
        return [self.rng.randrange(len(options))]


class TrailPolicy:
    def __init__(self, trail: list[Decision]):
        self.trail = trail
        self.pos = 0

    def pick(self, options: Sequence[Decision]) -> list[int]:
        """The index of the trail's next decision among the options; one
        equality test covers kind, fanout, index, name and feasibility."""
        if self.pos >= len(self.trail):
            raise TrailMismatch(f"trail ended where {_offered(options)}")
        d = self.trail[self.pos]
        try:
            i = options.index(d)
        except ValueError:
            raise TrailMismatch(f"trail has {d.render()} where {_offered(options)}") from None
        self.pos += 1
        return [i]


def _offered(options: Sequence[Decision]) -> str:
    shown = ", ".join(d.render() for d in options[:3])
    more = ", ..." if len(options) > 3 else ""
    return f"the path offers {len(options)} decision(s): {shown}{more}"


# ---------------------------------------------------------------------------
# stats and configuration


@dataclass
class Stats:
    states: int = 0
    terminals: int = 0
    pruned: int = 0
    solver_calls: int = 0

    def add(self, other: "Stats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class SearchConfig:
    budget: int = DEFAULT_BUDGET
    seed: int = 0
    max_depth: int = 0  # 0 means unlimited
    first_only: bool = False
    workers: int = 1
    overrides: dict = field(default_factory=dict)


@dataclass
class SearchResult:
    violations: list
    stats: Stats
    incomplete: bool
    inputs_desc: list


class Engine:
    """Holds a program that load_program returned, lowered once, plus
    everything shared across paths. Lowering reads the types and slots
    that validation annotated, so it refuses a function that has none."""

    def __init__(self, program: ast.Program, config: SearchConfig):
        self.program = program
        self.config = config
        # a call finds its callee's code and slot names here when it runs,
        # so a body may call a function that is lowered after it
        self.bodies = {f.name: _lower_function(f) for f in program.funcs}
        self.inputs_desc: list[str] = []

    # --- initial state ---

    def init_state(self) -> ExecState:
        """The one start state of verify, replay and run. An int input holds
        its -input override, else its default, else a symbol; every cell of
        a real input holds a symbol, which run_path may then overwrite with
        a value. Symbols are numbered in declaration order."""
        overrides = self.config.overrides
        int_inputs = {d.name for d in self.program.inputs if d.ty is ast.Type.INT}
        for name in overrides:
            if name not in int_inputs:
                raise EngineInitError(f"-input{name} does not name an int input")
        code, names = self.bodies["main"]
        frame = Frame(code, names, [None] * len(names))
        state = ExecState([frame], {}, 0, {}, PathCondition(), [], [])
        self.inputs_desc = desc = []
        ordinal = 0
        for decl in self.program.inputs:
            name = decl.name
            if decl.ty is ast.Type.INT:
                if name in overrides:
                    state.globals[name] = overrides[name]
                    desc.append(f"{name} = {overrides[name]} (override)")
                elif decl.default is not None:
                    state.globals[name] = decl.default
                    desc.append(f"{name} = {decl.default} (default)")
                else:
                    sym = SymConst(name, None, SymKind.INT, ordinal)
                    ordinal += 1
                    state.globals[name] = SymInt(Poly.symbol(sym))
                    desc.append(f"{name} : int, symbolic")
                continue
            n = self._extent(decl, state)
            cells = [
                RealVal(Poly.symbol(SymConst(name, i, SymKind.REAL, ordinal + i)))
                for i in range(n)
            ]
            ordinal += n
            storage = ArrayStorage(cells, SymKind.REAL, read_only=True, label=name)
            state.globals[name] = state.alloc(storage)
            desc.append(f"{name} : real[{n}], symbolic")
        _normalize(state)
        return state

    def _extent(self, decl: ast.InputDecl, state: ExecState) -> int:
        """The extent of a real input, from the inputs declared before it."""
        try:
            n = _strict(_lower_value(decl.extent)(state))
        except NeedsConcretize as exc:
            raise EngineInitError(
                f"extent of input '{decl.name}' depends on '{exc.sym.name}', which has no "
                f"concrete value; give it a default or an -input override"
            ) from None
        if n < 0:
            raise EngineInitError(f"extent of input '{decl.name}' is negative ({n})")
        if n > MAX_ARRAY_CELLS:
            raise EngineInitError(f"extent of input '{decl.name}' is too large ({n})")
        return n


# ---------------------------------------------------------------------------
# lowering: every expression and statement becomes a closure, once per Engine
#
# A value closure maps a state to a value (an int, a SymInt, a RealVal or
# an array's ArrayRef) and a condition closure maps a state to a formula;
# neither mutates the state. A statement closure takes the executor and
# the state, and returns None when the same state simply goes on, or the
# list of successors when the path forks or ends; its source location is
# its `loc` attribute. A function's statements are laid out in one flat
# tuple, each statement followed by those of the blocks it holds, and a
# closure's `next` attribute is the index of the statement that runs after
# it: the first one of the block it enters, or else the one after it, where
# the end of a block goes on after the block and the end of a loop body at
# the loop's test. The frame's pc is at next before a statement runs, so a
# statement only pushes the frames it enters, and if and while set the pc
# themselves when their condition fails. A statement that raises has left
# the state as it was. Validation gave every parameter and local
# declaration a slot of its own in the frame and every name the slot it
# reads or writes, so lowering keeps no scopes: it translates the checked
# tree as it stands. A slot keeps its value after its block ends, but no
# read reaches it then: a read of a local follows the write of its
# declaration in the same entry of its block. Two concrete ints are
# combined as Python ints, without a Poly; a test of `v.__class__ is int`
# never takes a bool for an int. make_int, int_poly and the Poly operators
# are looked up through this module when a closure runs.

_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_COMPARE = {
    "<": (Rel.LT, operator.lt),
    "<=": (Rel.LE, operator.le),
    "==": (Rel.EQ, operator.eq),
    "!=": (Rel.NE, operator.ne),
}


def _lower_load(e: ast.Name):
    """A closure that reads e, whatever it holds (arrays included)."""
    name, slot = e.name, e.slot
    if slot is None:
        return lambda state: state.globals[name]
    return lambda state: state.frames[-1].slots[slot]


def _strict(v: "int | SymInt") -> int:
    """The value of an int in a strict position; a symbolic one is pinned
    first, by its earliest declared symbol."""
    if v.__class__ is int:
        return v
    raise NeedsConcretize(min(v.poly.symbols(), key=lambda s: s.ord))


def _atom_formula(atom: Atom):
    if atom.poly.is_const():
        return atom.holds({})
    return atom


_UNVALIDATED = "the program was not validated; pass one that load_program returned"


def _lower_value(e: ast.Expr):
    if isinstance(e, ast.IntLit):
        lit = e.value
        return lambda state: lit
    if isinstance(e, ast.DecLit):
        dec = RealVal(Poly.const(e.value))
        return lambda state: dec
    if isinstance(e, ast.Name):
        return _lower_name(e)
    if isinstance(e, ast.Index):
        return _lower_index(e)
    if isinstance(e, ast.Unary):
        assert e.op == "-", "boolean operators are lowered as conditions"
        operand = _lower_value(e.operand)
        if e.ty is ast.Type.REAL:
            return lambda state: RealVal(-operand(state).poly)

        def negate(state):
            v = operand(state)
            if v.__class__ is int:
                return -v
            return make_int(-int_poly(v))

        return negate
    if isinstance(e, ast.Binary):
        lhs, rhs = _lower_value(e.lhs), _lower_value(e.rhs)
        if e.op == "/":
            return _lower_quotient(lhs, rhs, e.loc)
        op = _ARITH[e.op]
        if e.ty is ast.Type.REAL:
            return lambda state: RealVal(op(lhs(state).poly, rhs(state).poly))

        def arith(state):
            a = lhs(state)
            b = rhs(state)
            if a.__class__ is int and b.__class__ is int:
                return op(a, b)
            return make_int(op(int_poly(a), int_poly(b)))

        return arith
    if isinstance(e, ast.LenCall):
        array = _lower_load(e.arg)
        return lambda state: len(state.heap[array(state).addr].cells)
    raise AssertionError(f"not a value: {type(e).__name__}")


def _lower_name(e: ast.Name):
    name, loc, slot = e.name, e.loc, e.slot
    if slot is None:
        # inputs always hold a value
        return lambda state: state.globals[name]

    def read(state):
        v = state.frames[-1].slots[slot]
        if v is UNDEFINED:
            raise Violating(Property.READ_UNDEFINED, loc, f"'{name}' is read before assignment")
        return v

    return read


def _lower_index(e: ast.Index):
    base, loc = e.base.name, e.loc
    array, index = _lower_load(e.base), _lower_value(e.index)

    def read(state):
        cells = state.heap[array(state).addr].cells
        i = _strict(index(state))
        if i < 0 or i >= len(cells):
            raise Violating(
                Property.OUT_OF_BOUNDS, loc, f"index {i} outside '{base}' of length {len(cells)}"
            )
        cell = cells[i]
        if cell is UNDEFINED:
            raise Violating(
                Property.READ_UNDEFINED, loc, f"'{base}[{i}]' is read before assignment"
            )
        return cell

    return read


def _lower_quotient(lhs, rhs, loc: Loc):
    def divide(state):
        dividend = lhs(state).poly
        divisor = rhs(state).poly
        try:
            return RealVal(dividend.div(divisor))
        except NonConstantDivisor:
            raise Violating(
                Property.DIVISION_BY_ZERO,
                loc,
                f"cannot show the divisor {divisor.render()} is never zero",
                force_maybe=True,
            ) from None
        except DivisionByZero:
            raise Violating(Property.DIVISION_BY_ZERO, loc, "division by zero") from None

    return divide


def _lower_cond(e: ast.Expr):
    if isinstance(e, ast.Unary) and e.op == "!":
        operand = _lower_cond(e.operand)
        return lambda state: f_not(operand(state))
    if isinstance(e, ast.Binary) and e.op in ("&&", "||"):
        lhs, rhs = _lower_cond(e.lhs), _lower_cond(e.rhs)
        # short-circuit on a decided left side so guarded accesses on the
        # right stay unevaluated, matching run-time behavior
        if e.op == "&&":

            def conj(state):
                left = lhs(state)
                if left is False:
                    return False
                return f_and((left, rhs(state)))

            return conj

        def disj(state):
            left = lhs(state)
            if left is True:
                return True
            return f_or((left, rhs(state)))

        return disj
    if isinstance(e, ast.Binary) and e.op in _COMPARE:
        rel, test = _COMPARE[e.op]
        lhs, rhs = _lower_value(e.lhs), _lower_value(e.rhs)
        if e.lhs.ty is ast.Type.REAL:
            return lambda state: _atom_formula(
                Atom(SymKind.REAL, rel, lhs(state).poly - rhs(state).poly)
            )

        def compare(state):
            a = lhs(state)
            b = rhs(state)
            if a.__class__ is int and b.__class__ is int:
                return test(a, b)
            return _atom_formula(Atom(SymKind.INT, rel, int_poly(a) - int_poly(b)))

        return compare
    if isinstance(e, ast.EqualsCall):
        return _lower_equals(e)
    raise AssertionError(f"not a condition: {type(e).__name__}")


def _lower_equals(e: ast.EqualsCall):
    assert isinstance(e.lhs, ast.Name) and isinstance(e.rhs, ast.Name)
    lname, rname, loc = e.lhs.name, e.rhs.name, e.loc
    left, right = _lower_load(e.lhs), _lower_load(e.rhs)

    def equals(state):
        a = state.heap[left(state).addr]
        b = state.heap[right(state).addr]
        if len(a.cells) != len(b.cells):
            return False
        parts = []
        for i in range(len(a.cells)):
            for arr, name in ((a, lname), (b, rname)):
                if arr.cells[i] is UNDEFINED:
                    raise Violating(
                        Property.READ_UNDEFINED, loc, f"'{name}[{i}]' is read before assignment"
                    )
            va, vb = a.cells[i], b.cells[i]
            if a.elem_kind is SymKind.REAL:
                poly = va.poly - vb.poly
            else:
                poly = int_poly(va) - int_poly(vb)
            parts.append(_atom_formula(Atom(a.elem_kind, Rel.EQ, poly)))
        return f_and(parts)

    return equals


def _lower_function(f: ast.FuncDecl) -> tuple[tuple, tuple]:
    """A function's flat code and the names of its slots."""
    if f.slots is None:
        raise EngineInitError(_UNVALIDATED)
    code: list = []
    end = _size(f.body.stmts)
    _lower_block(f.body.stmts, code, end)
    assert len(code) == end
    return tuple(code), f.slots


def _size(stmts) -> int:
    """How many statements stmts take in the flat code: one each, plus
    those of the blocks that each holds."""
    n = len(stmts)
    for s in stmts:
        if isinstance(s, ast.Block):
            n += _size(s.stmts)
        elif isinstance(s, ast.If):
            n += _size(s.then.stmts) + _size(_else_stmts(s))
        elif isinstance(s, ast.While):
            n += _size(s.body.stmts)
    return n


def _else_stmts(s: ast.If):
    """The statements of an if's else side; an else-if is one statement."""
    if s.els is None:
        return ()
    if isinstance(s.els, ast.If):
        return (s.els,)
    return s.els.stmts


def _lower_block(stmts, code: list, after: int) -> int:
    """Append a block's statements to code, the last of them going on at
    after; the index where the block starts, which is after when the block
    is empty."""
    if not stmts:
        return after
    start = len(code)
    last = len(stmts) - 1
    for i, s in enumerate(stmts):
        _lower_stmt(s, code, after if i == last else len(code) + _size((s,)))
    return start


def _lower_stmt(s: ast.Stmt, code: list, nxt: int) -> None:
    """Append s to code, followed by the statements of the blocks that it
    holds; nxt is the index of the statement after s."""
    at = len(code)
    code.append(None)
    if isinstance(s, ast.Block):

        def run(ex, state):
            return None  # entering a block is a step of its own

        run.next = _lower_block(s.stmts, code, nxt)
    elif isinstance(s, ast.If):
        cond = _lower_cond(s.cond)
        then = _lower_block(s.then.stmts, code, nxt)
        run = _branch(cond, s.loc, _lower_block(_else_stmts(s), code, nxt))
        run.next = then
    elif isinstance(s, ast.While):
        run = _branch(_lower_cond(s.cond), s.loc, nxt)
        run.next = _lower_block(s.body.stmts, code, at)  # the body ends at the test
    else:
        run = _LOWER_STMT[type(s)](s)
        run.next = nxt
    run.loc = s.loc
    code[at] = run


def _lower_var_decl(s: ast.VarDecl):
    init = _lower_value(s.init) if s.init is not None else None
    slot = s.slot

    def run(ex, state):
        v = init(state) if init is not None else UNDEFINED
        state.frames[-1].slots[slot] = v

    return run


def _lower_arr_decl(s: ast.ArrDecl):
    name, extent, extent_loc = s.name, _lower_value(s.extent), s.extent.loc
    kind = SymKind.INT if s.elem_ty is ast.Type.INT else SymKind.REAL
    loc, slot = s.loc, s.slot

    def run(ex, state):
        n = _strict(extent(state))
        if n < 0:
            raise Violating(Property.OUT_OF_BOUNDS, extent_loc, f"negative extent {n} for '{name}'")
        if n > MAX_ARRAY_CELLS:
            message = f"extent {n} of array '{name}' exceeds the cap of {MAX_ARRAY_CELLS} cells"
            ex.cut_short(state, loc, message)
            return []
        storage = ArrayStorage([UNDEFINED] * n, kind, False, name)
        state.frames[-1].slots[slot] = state.alloc(storage)

    return run


def _lower_assign(s: ast.Assign):
    value, target = _lower_value(s.value), s.target
    if isinstance(target, ast.Name):
        slot = target.slot

        def run(ex, state):
            state.frames[-1].slots[slot] = value(state)

        return run
    base, loc, stmt_loc = target.base.name, target.loc, s.loc
    array, index = _lower_load(target.base), _lower_value(target.index)

    def run_cell(ex, state):
        v = value(state)
        storage = state.heap[array(state).addr]
        i = _strict(index(state))
        cells = storage.cells
        if i < 0 or i >= len(cells):
            raise Violating(
                Property.OUT_OF_BOUNDS, loc, f"index {i} outside '{base}' of length {len(cells)}"
            )
        if storage.read_only:
            raise Violating(
                Property.WRITE_TO_INPUT, stmt_loc, f"write to input '{storage.label}'"
            )
        cells[i] = v

    return run_cell


class _Choices(Sequence):
    """The k options of a choose_int, each built only when read, so a
    policy that takes one of them costs O(1) whatever k is."""

    __slots__ = ("fanout",)

    def __init__(self, fanout: int):
        self.fanout = fanout

    def __len__(self) -> int:
        return self.fanout

    def __getitem__(self, i):
        picked = range(self.fanout)[i]
        if isinstance(picked, range):
            return [ChooseInt(j, self.fanout) for j in picked]
        return ChooseInt(picked, self.fanout)

    def index(self, d: Decision) -> int:
        if isinstance(d, ChooseInt) and d.fanout == self.fanout and 0 <= d.index < d.fanout:
            return d.index
        raise ValueError(d)


def _lower_choose(s: ast.ChooseAssign):
    arg, slot = _lower_value(s.arg), s.target.slot

    def run(ex, state):
        k = _strict(arg(state))
        if k <= 0:
            ex.stats.pruned += 1
            return []
        out = []
        for st, i in ex.fork(state, _Choices(k)):
            st.frames[-1].slots[slot] = i
            out.append(st)
        return out

    return run


def _lower_call(s: ast.CallStmt):
    # validation fixed the arity, so the arguments fill the callee's
    # parameter slots and its locals follow them
    name, nargs = s.name, len(s.args)
    args = tuple(_lower_value(a) for a in s.args)
    ret_slot = s.target.slot if s.target is not None else None

    def run(ex, state):
        code, names = ex.eng.bodies[name]
        slots = [a(state) for a in args] + [None] * (len(names) - nargs)
        state.frames.append(Frame(code, names, slots, ret_slot))

    return run


def _branch(cond, loc: Loc, other: int):
    """The statement of an if or a while: it goes on at its next where cond
    holds and at other where cond fails."""

    def run(ex, state):
        f = cond(state)
        if f is True:
            return None
        if f is False:
            state.frames[-1].pc = other
            return None
        out = []
        for st, truth in ex.branch_walk(state, f, loc):
            if not truth:
                st.frames[-1].pc = other
            out.append(st)
        return out

    return run


def _lower_assert(s: ast.Assert):
    cond, c, loc = _lower_cond(s.cond), s.cond, s.loc
    # a failed equals() of two named arrays shows both under the witness
    shown = None
    if isinstance(c, ast.EqualsCall):
        shown = tuple((n.name, _lower_load(n)) for n in (c.lhs, c.rhs))

    def run(ex, state):
        neg = f_not(cond(state))
        if neg is False:
            return None
        return ex.check_assert(state, neg, loc, shown)

    return run


def _lower_assume(s: ast.Assume):
    cond, loc = _lower_cond(s.cond), s.loc

    def run(ex, state):
        f = cond(state)
        if f is True:
            return None
        return ex.apply_assume(state, f, loc)

    return run


def _lower_return(s: ast.Return):
    value = _lower_value(s.value) if s.value is not None else None

    def run(ex, state):
        v = value(state) if value is not None else None
        frames = state.frames
        if len(frames) == 1:
            state.done = True
            return None
        ret_slot = frames.pop().ret_slot
        if ret_slot is not None:
            frames[-1].slots[ret_slot] = v

    return run


def _lower_print(s: ast.Print):
    parts = tuple(_lower_print_arg(a) for a in s.args)

    def run(ex, state):
        # every argument is evaluated here, so that a bad read is found at
        # the print; ExecState.prints renders them when it is read
        state.printed.append(tuple([part(state) for part in parts]))

    return run


def _lower_print_arg(a: ast.Expr):
    if isinstance(a, ast.StrLit):
        text = a.value
        return lambda state: text
    if a.ty.is_array():
        assert isinstance(a, ast.Name)
        array = _lower_load(a)
        return lambda state: tuple(state.heap[array(state).addr].cells)
    return _lower_value(a)


_LOWER_STMT = {
    ast.VarDecl: _lower_var_decl,
    ast.ArrDecl: _lower_arr_decl,
    ast.Assign: _lower_assign,
    ast.ChooseAssign: _lower_choose,
    ast.CallStmt: _lower_call,
    ast.Assert: _lower_assert,
    ast.Assume: _lower_assume,
    ast.Return: _lower_return,
    ast.Print: _lower_print,
}


def _pin(state: ExecState, sym: SymConst, value: int) -> None:
    """Substitute a pinned symbol into every int the state holds, so that
    reads need no substitution. Clones share their globals, so the state
    gets a rewritten copy of them; its frames and heap are its own."""
    assignment = {sym: value}

    def subst(v):
        if v.__class__ is SymInt:
            return make_int(v.poly.substitute(assignment))
        return v

    for frame in state.frames:
        frame.slots = [subst(v) for v in frame.slots]
    for storage in state.heap.values():
        if storage.elem_kind is SymKind.INT:
            storage.cells = [subst(v) for v in storage.cells]
    state.globals = {name: subst(v) for name, v in state.globals.items()}


_STOPS = (NeedsConcretize, Violating, UnboundedSymbol, EnumerationBudgetExceeded)
_UNSAT = SatResult(SatStatus.UNSAT)


class _Executor:
    """The context of one search or one path: a policy, stats and findings."""

    def __init__(self, engine: Engine, policy):
        self.eng = engine
        self.policy = policy
        self.stats = Stats()
        self.violations: list[Violation] = []
        self.incomplete = False
        self.max_depth = engine.config.max_depth
        # pc_sat's answer for each path condition's atoms
        self.answers: dict[tuple[Atom, ...], SatResult] = {}

    def sat(self, pc: PathCondition) -> SatResult:
        """The solver's answer for pc. Stats count every query, but each
        distinct condition is solved once per executor, and the forked
        workers inherit the answers found before the fork. That is sound
        because pc_sat depends only on the atoms (its integer box is built
        from them), the budget and the seed, which are fixed per engine, and
        it seeds a fresh Random per call: a kept answer, witness included,
        is the one a new call would give, and no caller changes a witness.
        A condition that PathCondition.add made unsat with a false constant
        keeps its parent's atoms, so it is answered before the lookup; a
        call that raises keeps nothing."""
        self.stats.solver_calls += 1
        if pc.unsat:
            return _UNSAT
        res = self.answers.get(pc.atoms)
        if res is None:
            res = pc_sat(pc, self.eng.config.budget, self.eng.config.seed)
            self.answers[pc.atoms] = res
        return res

    # --- forks ---

    def fork(self, state: ExecState, options: Sequence[Decision]) -> list[tuple[ExecState, int]]:
        """Every decision point goes through here with its feasible options.
        The policy picks which to take; each pick gets a working copy of
        state (the original is reused as the last one) with the option on
        its trail, paired with the option's index."""
        if not options:
            return []
        picks = self.policy.pick(options)
        last = len(picks) - 1
        out = []
        for j, i in enumerate(picks):
            st = state if j == last else state.clone()
            st.trail.append(options[i])
            out.append((st, i))
        return out

    def branch_walk(self, state: ExecState, f, loc: Loc) -> list[tuple[ExecState, bool]]:
        """The successors of state under formula f, each with the truth of f
        on it. A limit met on a copy that a fork made cuts that copy short
        at loc, the statement's location; one met before any fork is the
        statement's."""
        if f is True or f is False:
            return [(state, f)]
        if isinstance(f, Atom):
            options, pcs = [], []
            for side, atom in ((_THEN, f), (_ELSE, f.negated())):
                pc2 = state.pc.add(atom)
                if self.sat(pc2).status is SatStatus.UNSAT:
                    self.stats.pruned += 1
                    continue
                options.append(side)
                pcs.append(pc2)
            out = []
            for st, i in self.fork(state, options):
                st.pc = pcs[i]
                out.append((st, options[i].then_taken))
            return out
        # a conjunction or a disjunction: one truth of its head settles it,
        # the other leaves the rest of it to decide
        settles = isinstance(f, FOr)
        head, rest = f.parts[0], (f_or if settles else f_and)(f.parts[1:])
        out = []
        for st, truth in self.branch_walk(state, head, loc):
            if truth is settles:
                out.append((st, truth))
                continue
            try:
                out.extend(self.branch_walk(st, rest, loc))
            except (UnboundedSymbol, EnumerationBudgetExceeded) as exc:
                self.cut_short(st, loc, str(exc))
        return out

    def _concretize(self, state: ExecState, sym: SymConst) -> list[ExecState]:
        lo, hi = state.pc.bounds(sym)
        if lo is None or hi is None:
            raise UnboundedSymbol(sym)
        if hi - lo + 1 > self.eng.config.budget:
            raise EnumerationBudgetExceeded(hi - lo + 1, self.eng.config.budget)
        values, pcs = [], []
        for v in range(lo, hi + 1):
            pin = Atom(SymKind.INT, Rel.EQ, Poly.symbol(sym) - Poly.const(v))
            pc2 = state.pc.add(pin)
            if self.sat(pc2).status is SatStatus.UNSAT:
                self.stats.pruned += 1
                continue
            values.append(v)
            pcs.append(pc2)
        name, fanout = sym.render(), len(values)
        options = [ConcretizeInt(name, v, fanout) for v in values]
        out = []
        for st, i in self.fork(state, options):
            st.pc = pcs[i]
            _pin(st, sym, values[i])
            out.append(st)
        return out

    # --- violations ---

    def _record(
        self,
        state: ExecState,
        prop: Property,
        certainty: Certainty,
        loc: Loc,
        message: str,
        witness=None,
        detail=None,
    ) -> None:
        """The one place a finding becomes a Violation, with state's trail."""
        self.violations.append(
            Violation(prop, certainty, loc, message, tuple(state.trail), witness, detail)
        )

    def _violation_from_exc(self, state: ExecState, exc: Violating) -> None:
        res = self.sat(state.pc)
        if res.status is SatStatus.UNSAT:
            self.stats.pruned += 1
            return
        if res.status is SatStatus.SAT and not exc.force_maybe:
            certainty, witness = Certainty.PROVEABLE, res.witness
        else:
            certainty, witness = Certainty.MAYBE, None
        self._record(state, exc.prop, certainty, exc.loc, exc.message, witness)

    def cut_short(self, state: ExecState, loc: Loc, message: str) -> None:
        """A limit ends the path of state: a MAYBE finding, and the search
        is incomplete."""
        self.incomplete = True
        self._record(state, Property.ENUM_BUDGET, Certainty.MAYBE, loc, message)

    # --- statements ---

    def _advance(self, state: ExecState) -> "list[ExecState] | None":
        """Run the next statement of state. None means the same state goes
        on; otherwise the list of successors (empty when the path ends).
        The frame's pc moves to the statement's next before it runs, and
        back onto the statement when it needs a symbol pinned, so that each
        pinned copy runs it again."""
        self.stats.states += 1
        if self.max_depth and len(state.trail) >= self.max_depth:
            self.incomplete = True
            return []
        frame = state.frames[-1]
        pc = frame.pc
        run = frame.code[pc]
        frame.pc = run.next
        try:
            succs = run(self, state)
        except _STOPS as exc:
            if exc.__class__ is NeedsConcretize:
                frame.pc = pc
            return self._stopped(state, run.loc, exc)
        if succs is None:
            # _normalize does nothing unless the top frame has ended
            frame = state.frames[-1]
            if frame.pc == len(frame.code):
                _normalize(state)
        else:
            for st in succs:
                _normalize(st)
        return succs

    def _stopped(self, state: ExecState, loc: Loc, exc: Exception) -> list[ExecState]:
        """Successors of a statement that raised: the pinned copies of state
        when a strict position needs a concrete int, else none."""
        if isinstance(exc, NeedsConcretize):
            try:
                return self._concretize(state, exc.sym)
            except (UnboundedSymbol, EnumerationBudgetExceeded) as budget_exc:
                self.cut_short(state, loc, str(budget_exc))
        elif isinstance(exc, Violating):
            try:
                self._violation_from_exc(state, exc)
            except (UnboundedSymbol, EnumerationBudgetExceeded) as budget_exc:
                self.cut_short(state, exc.loc, str(budget_exc))
        else:
            self.cut_short(state, loc, str(exc))
        return []

    def apply_assume(self, state: ExecState, f, loc: Loc) -> list[ExecState]:
        if f is False:
            self.stats.pruned += 1
            return []
        conjuncts = f.parts if isinstance(f, FAnd) else (f,)
        if all(isinstance(p, Atom) for p in conjuncts):
            pc = state.pc
            for p in conjuncts:
                pc = pc.add(p)
            if self.sat(pc).status is SatStatus.UNSAT:
                self.stats.pruned += 1
                return []
            state.pc = pc
            return [state]
        out = []
        for st, truth in self.branch_walk(state, f, loc):
            if truth:
                out.append(st)
            else:
                self.stats.pruned += 1
        return out

    def check_assert(self, state: ExecState, neg, loc: Loc, shown) -> list[ExecState]:
        """Successors of an assert whose negated condition neg is not False;
        shown names the two arrays of an equals() condition, or is None."""
        try:
            disjuncts = dnf(neg)
        except _DnfBlowup:
            self._record(
                state,
                Property.ASSERTION_VIOLATION,
                Certainty.MAYBE,
                loc,
                "condition is too large to check",
            )
            return []
        saw_unknown = False
        for atoms in disjuncts:
            pc = state.pc
            for a in atoms:
                pc = pc.add(a)
            res = self.sat(pc)
            if res.status is SatStatus.SAT:
                self._record(
                    state,
                    Property.ASSERTION_VIOLATION,
                    Certainty.PROVEABLE,
                    loc,
                    "asserted condition fails",
                    res.witness,
                    _assert_detail(state, shown, res.witness),
                )
                return []
            if res.status is SatStatus.UNKNOWN:
                saw_unknown = True
        if saw_unknown:
            self._record(
                state,
                Property.ASSERTION_VIOLATION,
                Certainty.MAYBE,
                loc,
                "asserted condition cannot be proved",
            )
            return []
        return [state]

    # --- search ---

    def _run(self, st: ExecState) -> "tuple[ExecState, list[ExecState] | None]":
        """Advance st along its path until the path forks, stops or ends.
        Returns the state that ran last with the fork's successors, with []
        when the path stopped, or with None when it ran to its end, which
        counts as a terminal. With --first, a finding stops the path at the
        statement that made it."""
        first_only = self.eng.config.first_only
        while not st.done:
            succs = self._advance(st)
            if first_only and self.violations:
                return st, []
            if succs is None:
                continue
            if len(succs) != 1:
                return st, succs
            st = succs[0]
        self.stats.terminals += 1
        return st, None

    def dfs(self, root: ExecState, on_terminal=None) -> None:
        first_only = self.eng.config.first_only
        stack = [root]
        while stack:
            st, succs = self._run(stack.pop())
            if first_only and self.violations:
                return
            if succs is not None:
                stack.extend(reversed(succs))
            elif on_terminal is not None:
                on_terminal(st)

    def dfs_forked(self, root: ExecState) -> None:
        """dfs over worker processes: grow a frontier of live states breadth
        first, then let each of config.workers processes search every N-th
        of them. The workers' findings follow the parent's in frontier
        order, so that a stable sort by trail keeps the serial order of
        ties."""
        frontier = self._frontier(root)
        workers = min(self.eng.config.workers, len(frontier))
        found = []
        for stats, tagged, incomplete in _run_workers(self, frontier, workers):
            self.stats.add(stats)
            self.incomplete |= incomplete
            found.extend(tagged)
        found.sort(key=lambda t: t[0])
        self.violations.extend(v for _, v in found)

    def _frontier(self, root: ExecState) -> list[ExecState]:
        """Run the search breadth first from root, counting as dfs does,
        until at least FRONTIER_STATES paths are live or none is; the live
        states, in the order they were reached."""
        queue = deque([root])
        while queue and len(queue) < FRONTIER_STATES:
            _, succs = self._run(queue.popleft())
            queue.extend(succs or ())
        return list(queue)


def _run_workers(ex: _Executor, frontier: list[ExecState], workers: int) -> list[tuple]:
    """Fork workers over the frontier, worker w searching the states w,
    w+workers, ...; the result that each sent, in worker order. A worker
    that fails raises WorkerFailed, and no worker outlives this call."""
    # imported only when a search forks, so that they add nothing to the
    # start-up time of every other run
    import pickle
    import signal

    pipes, pids = [], {}
    try:
        for w in range(workers):
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(wfd)
                raise
            if pid == 0:
                _worker(ex, frontier, w, workers, wfd, pipes)
            os.close(wfd)
            pids[w] = pid
        results = []
        for w, pipe in enumerate(pipes):
            data = pipe.read()
            _, status = os.waitpid(pids[w], 0)
            del pids[w]
            code = os.waitstatus_to_exitcode(status)
            if code > 0:
                raise WorkerFailed(f"search worker {w} of {workers} exited with status {code}")
            if code < 0:
                name = signal.Signals(-code).name
                raise WorkerFailed(f"search worker {w} of {workers} was killed by {name}")
            results.append(pickle.loads(data))
        return results
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _worker(ex: _Executor, frontier, first: int, step: int, wfd: int, pipes) -> None:
    """The body of a forked worker: search frontier[first::step] with fresh
    counts and findings, send (stats, [(frontier index, violation), ...],
    incomplete) down wfd and exit, without flushing the stdio buffers or
    running the exit handlers inherited from the parent. An interrupt is
    the parent's to handle; it kills its workers."""
    import pickle
    import signal
    import traceback

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for pipe in pipes:
            pipe.close()
        ex.stats, ex.violations, ex.incomplete = Stats(), [], False
        tagged = []
        for i in range(first, len(frontier), step):
            start = len(ex.violations)
            ex.dfs(frontier[i])
            tagged.extend((i, v) for v in ex.violations[start:])
        with open(wfd, "wb") as out:
            pickle.dump((ex.stats, tagged, ex.incomplete), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _normalize(state: ExecState) -> None:
    """Pop the frames of void functions that fell off their end; mark the
    state done at main's end."""
    frames = state.frames
    while frames[-1].pc == len(frames[-1].code):
        if len(frames) == 1:
            state.done = True
            return
        frames.pop()


def _assert_detail(state: ExecState, shown, witness) -> "list[tuple[str, str]] | None":
    if shown is None:
        return None
    return [
        (name, _render_cells(state.heap[array(state).addr].cells, witness)) for name, array in shown
    ]


def _render_print_arg(p) -> str:
    """One print argument as ExecState.printed holds it, rendered."""
    if p.__class__ is str:
        return p
    if p.__class__ is tuple:
        return _render_cells(p)
    return _render_value(p)


def _render_cells(cells, witness=None) -> str:
    vals = [_render_value(c, witness) for c in cells]
    return "[ " + " ".join(vals) + " ]" if vals else "[ ]"


def _render_value(v, witness=None) -> str:
    """v as print shows it; under a witness, its symbols take their values
    (0 for a symbol the witness leaves out)."""
    if v is UNDEFINED:
        return "undef"
    if v.__class__ is int:
        return str(v)
    poly = v.poly
    if witness is None:
        return poly.render()
    point = {sym: witness.get(sym, 0) for sym in poly.symbols()}
    return str(poly.eval(point))


# ---------------------------------------------------------------------------
# entry points


def explore(program: ast.Program, config: SearchConfig, on_terminal=None) -> SearchResult:
    """Search every path of a program that load_program returned, depth
    first; violations come out sorted by trail. More than one worker forks
    worker processes, unless the search stops at its first finding, sees
    every terminal state, or runs where there is no os.fork."""
    eng = Engine(program, config)
    ex = _Executor(eng, ExploreAll())
    root = eng.init_state()
    if (
        config.workers > 1
        and on_terminal is None
        and not config.first_only
        and hasattr(os, "fork")
    ):
        ex.dfs_forked(root)
    else:
        ex.dfs(root, on_terminal=on_terminal)
    ex.violations.sort(key=lambda v: trail_key(v.trail))
    return SearchResult(ex.violations, ex.stats, ex.incomplete, eng.inputs_desc)


@dataclass
class PathOutcome:
    state: "ExecState | None"
    violations: list
    prints: list


def _follow(ex: _Executor, state: ExecState) -> PathOutcome:
    """Run the one path that the policy of ex picks. A trail policy must
    use up its trail by the end of the path."""
    state, succs = ex._run(state)
    if succs is not None:
        assert not succs, "policy must yield a single successor"
        return PathOutcome(None, ex.violations, state.prints)
    policy = ex.policy
    unused = len(policy.trail) - policy.pos if isinstance(policy, TrailPolicy) else 0
    if unused:
        raise TrailMismatch(f"path finished with {unused} unused trail decision(s)")
    return PathOutcome(state, ex.violations, state.prints)


def replay(program: ast.Program, config: SearchConfig, trail: list[Decision]) -> PathOutcome:
    """Follow a trail symbolically through a program that load_program
    returned."""
    eng = Engine(program, config)
    return _follow(_Executor(eng, TrailPolicy(trail)), eng.init_state())


def run_path(
    program: ast.Program,
    config: SearchConfig,
    trail: "list[Decision] | None" = None,
    reals: "dict[str, list[Fraction]] | None" = None,
) -> PathOutcome:
    """Execute one path of a program that load_program returned. The real
    input cells of the start state get the values that reals gives, where
    a real input left out of reals stays symbolic; without reals, every
    cell gets a seeded random value, drawn in declaration order. The path
    follows the trail if given and random choices if not."""
    eng = Engine(program, config)
    state = eng.init_state()
    real_inputs = {d.name for d in program.inputs if d.ty is not ast.Type.INT}
    for name in reals or ():
        if name not in real_inputs:
            raise EngineInitError(f"reals= names '{name}', which is not a real input")
    rng = Random(config.seed)
    for decl in program.inputs:
        if decl.ty is ast.Type.INT:
            continue
        storage = state.heap[state.globals[decl.name].addr]
        n = len(storage.cells)
        if reals is None:
            values = [Fraction(rng.randint(-99, 99), rng.randint(1, 16)) for _ in range(n)]
        elif decl.name in reals:
            values = reals[decl.name]
            if len(values) != n:
                raise EngineInitError(f"input '{decl.name}' needs {n} values, got {len(values)}")
        else:
            continue
        storage.cells = [RealVal(Poly.const(Fraction(v))) for v in values]
    policy = TrailPolicy(trail) if trail is not None else RandomPolicy(rng)
    return _follow(_Executor(eng, policy), state)
