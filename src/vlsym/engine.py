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

Each function's statements are laid out in one flat array, and the whole
array is translated into the Python source of one function, compiled the
first time a path of the program enters the function: every later search
or path of that program runs the same translation. It runs from any entry
statement, holds the frame's slots in Python locals, runs each loop as a
Python loop, follows the jumps of the tests it decides, counts the
statements it ran and leaves where a path forks, calls, returns or stops.
Names are not resolved here: validation gave each parameter and local
declaration a slot of its own, each name the slot it refers to and each
call its callee, and translation writes that checked tree out. A frame is
its function's code, its slots and the index of its next statement; it has
ended when that index is at the end of the flat array, where the code
leaves it at a return or after the last statement, and the loop that runs
a path's code is the one place that pops it. Each function is translated
two ways: in general, computing every int on polynomials, and for a path
whose ints are all Python ints, computing on those; a path's frames move
to the second once no int input is symbolic.
States are mutated in place along straight-line code and cloned only
where paths fork, and a clone shares the values its cells hold; the
engine keeps each real sum and product under its operand objects, so a
search computes each distinct one once. Integer inputs stay symbolic until
a strict position (array extent, array index, choose_int argument) forces
a value, at which point the path fans out over the feasible range.

verify searches depth first. With N workers it first runs the search
breadth first until FRONTIER_STATES paths are live, then searches that
frontier in N processes: itself and N - 1 forked children, which inherit
the functions translated so far and the live states. Before it forks, it
writes the frontier's claims, contiguous ranges of frontier indexes, into
one pipe; each process takes the next claim whenever it has searched its
last, depth first, until none is left. A child sends back only its
counts, its findings and whether its search was incomplete. The parent
adds the counts, appends the findings to its own and sorts them all by
trail once, as the serial search does: the findings of one search have
distinct trails.
"""

from __future__ import annotations

import enum
import os
from collections import deque
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import NamedTuple

from . import ast
from .diagnostics import Loc
from .solver import (
    DEFAULT_BUDGET,
    Atom,
    PathCondition,
    Rel,
    SatResult,
    SatStatus,
    SearchLimit,
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
    SymKind,
    int_poly,
    make_int,
)

MAX_ARRAY_CELLS = 1 << 20
MAX_DNF_DISJUNCTS = 4096
# live states the breadth-first phase gathers before it forks workers: 64
# leaves the processes unevenly loaded at the end of the search, and more
# grows the breadth-first phase and the parent's memory without a faster
# search
FRONTIER_STATES = 256
# bytes of one claim in the claims pipe of a forked search: the first
# frontier index of its range, little endian
CLAIM_BYTES = 4
# entries each real memo (_real_add, _real_mul, _real_eq) holds
# before it drops the least recently used; the corpus at -inputM_B=5 needs
# under a thousand in the largest of them
REAL_MEMO_ENTRIES = 1 << 12


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


# A decision is a tuple whose fields order it by its position among the
# options it was taken from, so a trail is its own sort key. Two trails of
# one search first differ at a decision point that both reached from the
# same state: there both were offered the same options, of one kind, one
# fanout and, for a pin, one symbol, so the two decisions compare by the
# position each took. The kinds have 2, 1 and 3 fields, so no two kinds
# compare equal, and a trail policy finds a decision among the options by
# equality.


class ChooseInt(NamedTuple):
    index: int
    fanout: int

    def render(self) -> str:
        return f"C {self.index}/{self.fanout}"


class Branch(NamedTuple):
    side: int  # 0 for then, 1 for else

    def render(self) -> str:
        return "B t" if self.side == 0 else "B e"


class ConcretizeInt(NamedTuple):
    name: str
    value: int
    fanout: int

    def render(self) -> str:
        return f"Z {self.name}={self.value}/{self.fanout}"


Decision = ChooseInt | Branch | ConcretizeInt
# the two sides of a symbolic branch, then first
_SIDES = (Branch(0), Branch(1))


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
                out.append(Branch(0 if rest == "t" else 1))
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
# solver Atom is a leaf, and a decided formula is the bool True or False.
# The connectives compare by identity.


class FAnd:
    __slots__ = ("parts",)


class FOr:
    __slots__ = ("parts",)


ast.init_from_slots(FAnd)
ast.init_from_slots(FOr)


def _join(cls, parts, unit: bool) -> object:
    """parts joined by cls, FAnd with unit True or FOr with unit False: a
    part that is unit is dropped, the other decided value decides the
    join, the parts of a nested cls are taken in order, and a single part
    is returned as itself."""
    flat = []
    for p in parts:
        if p is unit:
            continue
        if p.__class__ is bool:
            return p
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else cls(tuple(flat))


def f_and(parts) -> object:
    return _join(FAnd, parts, True)


def f_or(parts) -> object:
    return _join(FOr, parts, False)


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
# runtime state: plain classes, which compare by identity, each declared
# by its fields alone, as its __slots__, with its constructor from them
# (ast.init_from_slots), as are the choice policies and search settings


class ArrayRef:
    """The address of an array in a state's heap."""

    __slots__ = ("addr",)


class ArrayStorage:
    __slots__ = ("cells", "elem_kind", "read_only", "label")


class Frame:
    """One call of a function: the code it runs (fn.code or fn.concrete),
    the _Function fn, the slots' values, ret_slot, the slot of the
    caller's frame that receives the result, and pc, the index in fn.flat
    of the statement that runs next. The call has ended exactly when pc is
    fn.end; _Executor._run then pops the frame, or ends the path at main's
    end."""

    __slots__ = ("code", "fn", "slots", "ret_slot", "pc")


class ExecState:
    """One path's state. frames holds the frames of the calls that have
    not ended, main's first; a path that has run to its end keeps main's.
    heap lists the arrays' storages in the order they were allocated, so an
    address is the number of arrays allocated before it.
    printed holds each print's evaluated arguments, as a tuple of literal
    strings, values and snapshots (tuples) of printed arrays' cells; prints
    renders them, so a search that never reads its output never renders
    it."""

    __slots__ = ("frames", "heap", "globals", "pc", "trail", "printed")

    @property
    def prints(self) -> list[str]:
        """The lines that the path's prints wrote, as they were when each ran."""
        return ["".join([_render_print_arg(p) for p in parts]) for parts in self.printed]

    def clone(self) -> "ExecState":
        # an input's cells are never written (run_path fills them before the
        # first clone, and _pin rewrites int storages only): paths share them
        return ExecState(
            [Frame(f.code, f.fn, list(f.slots), f.ret_slot, f.pc) for f in self.frames],
            [
                s if s.read_only else ArrayStorage(list(s.cells), s.elem_kind, False, s.label)
                for s in self.heap
            ],
            self.globals,
            self.pc,
            list(self.trail),
            list(self.printed),
        )

    def alloc(self, storage: ArrayStorage) -> ArrayRef:
        self.heap.append(storage)
        return ArrayRef(len(self.heap) - 1)

    def lookup(self, name: str):
        """The value of name in the top frame, from the latest-declared slot
        of that name, or else the input of that name."""
        frame = self.frames[-1]
        names = frame.fn.names
        for i in range(len(names) - 1, -1, -1):
            if names[i] == name:
                return frame.slots[i]
        return self.globals.get(name)


ast.init_from_slots(ArrayRef)
ast.init_from_slots(ArrayStorage, (False, ""))
ast.init_from_slots(Frame, (None, 0))
ast.init_from_slots(ExecState)


# ---------------------------------------------------------------------------
# violations


class Violation(ast.Record, defaults=(None,)):
    """One finding, a record (ast.Record) that compares by every field, loc
    among them, since it names its defaults. witness: each symbol's value,
    or None; detail: the (label, text) lines of an equals() finding, or
    None, its default."""

    __slots__ = ("prop", "certainty", "loc", "message", "trail", "witness", "detail")

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
    __slots__ = ("rng",)

    def pick(self, options: Sequence[Decision]) -> list[int]:
        return [self.rng.randrange(len(options))]


class TrailPolicy:
    """Follows trail; pos is the index of its next decision."""

    __slots__ = ("trail", "pos")

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


ast.init_from_slots(RandomPolicy)
ast.init_from_slots(TrailPolicy, (0,))


def _offered(options: Sequence[Decision]) -> str:
    shown = ", ".join(d.render() for d in options[:3])
    more = ", ..." if len(options) > 3 else ""
    return f"the path offers {len(options)} decision(s): {shown}{more}"


# ---------------------------------------------------------------------------
# stats and configuration


class Stats(ast.Record, defaults=(0, 0, 0, 0)):
    """A search's counts, a record (ast.Record) whose counts start at 0."""

    __slots__ = ("states", "terminals", "pruned", "solver_calls")

    def add(self, other: "Stats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class SearchConfig:
    """A search's settings. max_depth 0 means unlimited; overrides maps an
    int input's name to its -input value, and None means no overrides."""

    __slots__ = ("budget", "seed", "max_depth", "first_only", "workers", "overrides")


class SearchResult:
    __slots__ = ("violations", "stats", "incomplete", "inputs_desc")


ast.init_from_slots(SearchConfig, (DEFAULT_BUDGET, 0, 0, False, 1, None))
ast.init_from_slots(SearchResult)


class Engine:
    """Holds a program that load_program returned, plus everything shared
    across the paths of one search. Translation reads the types, slots and
    callees that validation annotated, so the engine refuses a function
    that has none. The first engine of a program translates it, into
    FuncDecl.translation, for every later one."""

    def __init__(self, program: ast.Program, config: SearchConfig):
        self.program = program
        self.config = config
        for f in program.funcs:
            if f.translation is None:  # this is the program's first engine
                f.translation = _Function(f)
        self.inputs_desc: list[str] = []

    # --- initial state ---

    def init_state(self) -> ExecState:
        """The one start state of verify, replay and run. An int input holds
        its -input override, else its default, else a symbol; every cell of
        a real input holds a symbol, which run_path may then overwrite with
        a value. Symbols are numbered in declaration order."""
        overrides = self.config.overrides or {}
        int_inputs = {d.name for d in self.program.inputs if d.ty is ast.Type.INT}
        for name in overrides:
            if name not in int_inputs:
                raise EngineInitError(f"-input{name} does not name an int input")
        main = self.program.func("main").translation
        frame = Frame(main.code, main, [None] * len(main.names))
        state = ExecState([frame], [], {}, PathCondition(), [], [])
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
                    state.globals[name] = Poly.symbol(sym)
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
        self.settle(state)
        return state

    def settle(self, state: ExecState) -> None:
        """Move every frame of state onto its function's concrete code once
        no int input in state.globals is symbolic. That is sound because a
        symbolic int is only ever a polynomial over the symbols of int
        inputs (every other int source, a literal, len(), choose_int or the
        index a fork picks, is a Python int, and no operation turns a real
        into an int), and _pin substitutes a pinned symbol into every int
        that the state holds: frame slots, int heap cells and globals. Once
        the last symbolic int input is pinned, no int that the path holds
        or later computes is a Poly, so the concrete translation computes on
        Python ints alone. A state settles at most once, in init_state or at
        the pin of its last symbolic int input, and never goes back."""
        if any(v.__class__ is Poly for v in state.globals.values()):
            return
        for frame in state.frames:
            frame.code = frame.fn.concrete

    def _extent(self, decl: ast.InputDecl, state: ExecState) -> int:
        """The extent of a real input, from the inputs declared before it."""
        if decl.translation is None:
            decl.translation = _compile_value(decl.extent)
        try:
            n = _strict(decl.translation(state))
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
# translation: each function becomes one Python function
#
# A function's statements are laid out in one flat array, each followed by
# those of the blocks it holds, and each names where it goes on (next): the
# end of a block goes on after the block and the end of a loop body at the
# loop's test; an if or a while goes to other when its condition fails.
# Validation gave every parameter and local declaration a slot of its own
# and every name the slot it reads or writes, so translation keeps no
# scopes. The whole array is written out as the source of one Python
# function the first time a path enters the function, and that code runs
# from the frame's pc, its entry (e): its statements are split at the
# possible entries into segments, each run only when the entry lies at or
# before it. Each while, up to _MAX_LOOPS deep, is a Python `while True:`
# loop, entered only while the entry lies before the loop's end. The code
# follows a decided jump itself: a loop's back edge goes round the Python
# loop that holds it, testing only that loop's segments again, a loop's
# exit breaks out of it, and a jump forward goes on past the segments
# before its target. It leaves with the pc on any other target: the
# function's end, where a return leaves too, and the test of a loop nested
# deeper than _MAX_LOOPS; it never pops a frame. It also leaves where a
# path may fork or end, through the executor's methods, where it calls,
# with the callee's frame pushed, and on an error or a limit, through
# _stopped with the pc on the statement that raised (k), so that each
# pinned copy runs it again: every line that calls anything is some
# statement's and ends in a comment of its index, and the handler finds k
# by the line the error passed through. The code holds the frame's slots
# in locals and writes the ones it writes back to the frame before it
# leaves. A run of the code executes the statements from its entry to
# where it leaves; each counts one state, added up in n as it jumps and as
# it leaves.
#
# An expression becomes Python statements that leave its value in a temp;
# a leaf is read where it is used. The general translation computes every
# int on polynomials (int_poly, make_int, _int_atom) and takes the Python
# int of a strict position that is no literal (an extent, a count or an
# index) from _strict; the concrete one (Engine.settle) computes on Python
# ints, and neither tests an operand's type. A real + or * calls the real
# memo of that operator (_real_add, _real_mul), which computes only on a
# miss; a real - is computed each time. The code finds make_int, int_poly
# and the helpers below, and the Poly operators, through this module's
# globals. VL names and strings never enter its source: they reach it as
# constants, and slots as indices.

# statements that never leave the code and go on at their next; a path
# may enter at the next of every other statement, where it goes on after a
# fork, a call or a test
_INLINE = (ast.VarDecl, ast.Assign, ast.Print, ast.ArrDecl, ast.Block)


def _strict(v: "int | Poly") -> int:
    """The value of an int in a strict position; a symbolic one is pinned
    first, by its earliest declared symbol."""
    if v.__class__ is int:
        return v
    raise NeedsConcretize(min(v.symbols(), key=lambda s: s.ord))


def _atom_formula(atom: Atom):
    if atom.poly.is_const():
        return atom.holds({})
    return atom


def _int_atom(rel: Rel, a, b):
    return _atom_formula(Atom(SymKind.INT, rel, int_poly(a) - int_poly(b)))


def _real_atom(rel: Rel, a: RealVal, b: RealVal):
    return _atom_formula(Atom(SymKind.REAL, rel, a.poly - b.poly))


# The real memos: each distinct real sum and product, and the formula of
# each real cell pair of equals(), is computed with the Poly operators only
# on a miss. A RealVal compares by identity, and clones share the values
# they hold, so every path that reaches the same operands, whatever its
# decisions, gets the same result object. A kept result is the one a
# new computation would give: nothing rewrites a RealVal or a Poly, and a
# cache holds its keys alive, so no id is reused. The caches belong to the
# process, not to a search, and forked workers inherit them; a search's
# operands are its own objects, so a second search computes its values.


@lru_cache(REAL_MEMO_ENTRIES)
def _real_add(a: RealVal, b: RealVal) -> RealVal:
    return RealVal(a.poly + b.poly)


@lru_cache(REAL_MEMO_ENTRIES)
def _real_mul(a: RealVal, b: RealVal) -> RealVal:
    return RealVal(a.poly * b.poly)


@lru_cache(REAL_MEMO_ENTRIES)
def _real_eq(a: RealVal, b: RealVal):
    return _real_atom(Rel.EQ, a, b)


_REAL_MEMO = {"+": "_real_add", "*": "_real_mul"}


def _unset(name: str, loc: Loc):
    raise Violating(Property.READ_UNDEFINED, loc, f"'{name}' is read before assignment")


def _bad_cell(storage: ArrayStorage, i, base: str, loc: Loc, write_loc: "Loc | None" = None):
    """Raise the error of a read of cell i, a Python int, of storage, or of
    a write to it by the statement at write_loc, that is not a plain one."""
    n = len(storage.cells)
    if i < 0 or i >= n:
        raise Violating(Property.OUT_OF_BOUNDS, loc, f"index {i} outside '{base}' of length {n}")
    if write_loc is None:
        raise Violating(Property.READ_UNDEFINED, loc, f"'{base}[{i}]' is read before assignment")
    raise Violating(Property.WRITE_TO_INPUT, write_loc, f"write to input '{storage.label}'")


def _divide(dividend: Poly, divisor: Poly, loc: Loc) -> RealVal:
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


def _equals(state: ExecState, left: ArrayRef, right: ArrayRef, lname: str, rname: str, loc: Loc):
    """The formula of equals() on two arrays."""
    a, b = state.heap[left.addr], state.heap[right.addr]
    if len(a.cells) != len(b.cells):
        return False
    real = a.elem_kind is SymKind.REAL
    parts = []
    for i, (va, vb) in enumerate(zip(a.cells, b.cells)):
        for v, name in ((va, lname), (vb, rname)):
            if v is UNDEFINED:
                raise Violating(
                    Property.READ_UNDEFINED, loc, f"'{name}[{i}]' is read before assignment"
                )
        parts.append(_real_eq(va, vb) if real else _int_atom(Rel.EQ, va, vb))
    return f_and(parts)


class ArrayTooLarge(SearchLimit):
    """An array declaration's extent is above MAX_ARRAY_CELLS."""


def _bad_extent(n: int, name: str, extent_loc: Loc):
    """Raise the error of an array declaration whose extent n is negative
    or above the cap."""
    if n < 0:
        raise Violating(Property.OUT_OF_BOUNDS, extent_loc, f"negative extent {n} for '{name}'")
    raise ArrayTooLarge(f"extent {n} of array '{name}' exceeds the cap of {MAX_ARRAY_CELLS} cells")


class _Stmt:
    """One statement of a function's flat code: where it goes on (for a
    test, where its condition holds), where a test's condition fails, the
    flat indices of the statements of each block it holds, and end, the
    flat index after the last of them."""

    __slots__ = ("node", "next", "other", "blocks", "end")

    def __init__(self, node: ast.Stmt):
        self.node = node
        self.next = self.other = None
        self.blocks: list[list[int]] = []


def _flatten(stmts, flat: list) -> list[int]:
    """Append stmts to flat, each followed by the statements of the blocks
    it holds; the flat index of each of stmts."""
    at = []
    for s in stmts:
        at.append(len(flat))
        entry = _Stmt(s)
        flat.append(entry)
        if isinstance(s, ast.Block):
            entry.blocks.append(_flatten(s.stmts, flat))
        elif isinstance(s, ast.If):
            entry.blocks.append(_flatten(s.then.stmts, flat))
            entry.blocks.append(_flatten(s.els.stmts, flat))
        elif isinstance(s, ast.While):
            entry.blocks.append(_flatten(s.body.stmts, flat))
        entry.end = len(flat)
    return at


def _link(flat: list, at: list[int], after: int) -> int:
    """Set where each statement of one block goes on, the last of them at
    after; the index where the block starts, which is after when it is
    empty."""
    for j, i in enumerate(at):
        s = flat[i]
        nxt = at[j + 1] if j + 1 < len(at) else after
        if isinstance(s.node, ast.If):
            s.next = _link(flat, s.blocks[0], nxt)
            s.other = _link(flat, s.blocks[1], nxt)
        elif isinstance(s.node, ast.While):
            s.next = _link(flat, s.blocks[0], i)  # the body ends at the test
            s.other = nxt
        elif isinstance(s.node, ast.Block):
            s.next = _link(flat, s.blocks[0], nxt)
        else:
            s.next = nxt
    return at[0] if at else after


_UNVALIDATED = "the program was not validated; pass one that load_program returned"


class _Function:
    """A function's flat code and the names of its slots, the first params
    of which are its parameters. code is the Python function of the whole
    flat code, which computes every int on polynomials; until a path first
    enters the function, it is a stub that translates it. concrete is the
    same code, with the same entries, computing on Python ints, for a path
    whose ints are all Python ints (see Engine.settle). A call reaches its callee's _Function through the
    FuncDecl that validation bound the call to. It serves every engine of
    its program (FuncDecl.translation)."""

    def __init__(self, f: ast.FuncDecl):
        if f.slots is None:
            raise EngineInitError(_UNVALIDATED)
        self.name = f.name
        self.names = f.slots
        self.params = len(f.params)
        self.flat: list[_Stmt] = []
        flat = self.flat
        _link(flat, _flatten(f.body.stmts, flat), len(flat))
        self.end = len(flat)
        self.locs = tuple(s.node.loc for s in flat)
        # the slots that a declaration without an initializer leaves
        # undefined; no other local slot is ever read undefined
        self.unset = {
            s.node.slot for s in flat if isinstance(s.node, ast.VarDecl) and s.node.init is None
        }
        # where a path may enter the code other than from the statement
        # before it: the first statement, a jump's target and where a path
        # goes on after a fork or a call (the writer adds each statement
        # that a pinned copy runs again)
        self.entries = {0}
        for i, s in enumerate(flat):
            if s.next != i + 1 or not isinstance(s.node, _INLINE):
                self.entries.add(s.next)
            if s.other is not None:
                self.entries.add(s.other)
        self.code = self._translate_on_entry("code")
        self.concrete = self._translate_on_entry("concrete")

    def _translate_on_entry(self, attr: str):
        """The stub of translation attr: the first entry writes it, keeps it
        as attr and as the frame's code, and runs it; a frame cloned before
        then still holds the stub, which then only forwards."""

        def enter(ex, state, frame):
            run = getattr(self, attr)
            if run is enter:
                run = _Writer(self, attr == "concrete").function()
                setattr(self, attr, run)
            frame.code = run
            return run(ex, state, frame)

        return enter


# the most Python loops that a translation nests: CPython compiles at most
# 20 statically nested blocks in one function, its try among them, and the
# indentation of a loop nest adds to that of a deep condition
_MAX_LOOPS = 8


class _Writer:
    """Writes the Python source of fn's whole flat code and compiles it. A
    run of it holds the frame slots that the function reads or writes in
    locals, bound once as it starts, along with each input it reads, the
    storage, cells and length of each array that a parameter or an input
    holds: none is ever reassigned, and no run replaces a storage's cells.
    So its source depends on fn's tree alone. It writes back the slots it
    writes before every way out (a jump out, a call's frame push, a
    return, an executor method that may fork, and an error). Each while,
    up to _MAX_LOOPS deep, runs as a Python loop of its own, entered only
    while the entry lies before the loop's end: its back edge goes round
    that loop alone and its exit breaks out of it. The general translation
    computes every int on polynomials, the concrete one, for a path whose
    ints are all Python ints, on those. Its segments, entries and state
    counts are those of the general one, since a pinned copy resumes in it
    at the statement that stopped to have the pin."""

    def __init__(self, fn: _Function, concrete=False):
        self.fn = fn
        self.concrete = concrete
        self.consts: list = []
        self.const_names: dict[int, str] = {}
        self.lines: list[str] = []
        self.indent = ""
        self.temps = 0
        # the frame slots that the code holds in locals, and the local
        # that each other value it binds as it starts goes in, by source
        self.slots: set[int] = set()
        self.bound: dict[str, str] = {}
        # the code that writes the function's written slots back
        self.put_back = ""
        # for each statement, the (test, end) of each Python loop that
        # holds it, innermost last, and the end of each Python loop by test
        self.loops: dict[int, tuple] = {}
        self.heads: dict[int, int] = {}
        # whether the statement being written may stop to have a symbolic
        # int pinned
        self.pins = False

    def function(self):
        fn = self.fn
        locs = self.const(fn.locs)
        held: list[tuple[int, int]] = []
        written = set()
        for q in range(fn.end):
            while held and held[-1][1] <= q:
                held.pop()
            s = fn.flat[q]
            node = s.node
            if isinstance(node, ast.While) and len(held) < _MAX_LOOPS:
                held.append((q, s.end))
                self.heads[q] = s.end
            self.loops[q] = tuple(held)
            if isinstance(node, (ast.VarDecl, ast.ArrDecl)):
                written.add(node.slot)
            elif isinstance(node, ast.Assign) and isinstance(node.target, ast.Name):
                written.add(node.target.slot)
        if written:
            written = sorted(written)
            self.slots.update(written)
            self.put_back = ", ".join(f"S[{i}]" for i in written) + " = "
            self.put_back += ", ".join(f"s{i}" for i in written) + "; "
        code, entries = {}, [0]
        for q in range(fn.end):
            self.lines, self.pins = [], False
            self.write(q)
            code[q] = [f"{line}  # {q}" for line in self.lines]
            if q and (q in fn.entries or self.pins):
                entries.append(q)
        body = self.region(0, fn.end, code, entries)
        head = ["def run(ex, state, frame):", " S = frame.slots", *self.prelude(" ")]
        head += [" e = frame.pc", " n = -e", " try:"]
        lines = head + ["  " + line for line in body]
        # the statement of each marked line, by its number in _compile's source
        at = {i + 2: int(x.rpartition("# ")[2]) for i, x in enumerate(lines) if "# " in x}
        handler = [" except _STOPS as exc:", f"  k = {self.const(at)}[exc.__traceback__.tb_lineno]"]
        handler += [f"  {self.put_back}frame.pc = k", "  ex.stats.states += n + k + 1"]
        handler.append(f"  return ex._stopped(state, {locs}[k], exc)")
        return _compile(lines + handler, f"<vl {fn.name}>", self.consts)

    def region(self, lo: int, hi: int, code: dict, entries: list[int]) -> list[str]:
        """The code of statements lo..hi-1: a Python loop for each loop
        that starts there, and between them segments, cut at the entries.
        A segment or a loop runs only when the entry lies at or before it,
        which it tests only where an entry lies after it."""
        out, q = [], lo
        while q < hi:
            end = self.heads.get(q)
            if end is not None:
                body = self.guard(f"if e <= {q}:", code[q], entries, q + 1, end)
                body += self.region(q + 1, end, code, entries)
                loop = ["while True:", *(" " + line for line in body), *self.after(q)]
                out += self.guard(f"if e < {end}:", loop, entries, end, hi)
                q = end
                continue
            nxt = q + 1
            while nxt < hi and nxt not in entries and nxt not in self.heads:
                nxt += 1
            lines = [line for x in range(q, nxt) for line in code[x]]
            out += self.guard(f"if e <= {q}:", lines, entries, q + 1, hi)
            q = nxt
        return out

    @staticmethod
    def guard(test: str, lines: list[str], entries: list[int], lo: int, hi: int) -> list[str]:
        """lines, under test where an entry lies in lo..hi-1."""
        if lines and any(lo <= x < hi for x in entries):
            return [test, *(" " + line for line in lines)]
        return lines

    def prelude(self, indent: str) -> list[str]:
        """The lines that bind the code's locals as a run starts."""
        lines = []
        if self.slots:
            names = [f"s{i}" if i in self.slots else "_" for i in range(len(self.fn.names))]
            lines.append(f"{', '.join(names)}, = S")
        lines += [f"{name} = {source}" for source, name in self.bound.items()]
        return [indent + line for line in lines]

    # --- output ---

    def put(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def const(self, value) -> str:
        name = self.const_names.get(id(value))
        if name is None:
            name = self.const_names[id(value)] = f"C{len(self.consts)}"
            self.consts.append(value)
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def bind(self, source: str) -> str:
        """The local that a run sets to source as it starts."""
        name = self.bound.get(source)
        if name is None:
            name = self.bound[source] = f"v{len(self.bound)}"
        return name

    # --- control ---

    def jump(self, q: int, target: int) -> str:
        """The code by which statement q goes on at target."""
        step = f"n += {q + 1 - target}; " if q + 1 != target else ""
        held = self.loops[q]
        if held and target < self.fn.end and not held[-1][0] <= target < held[-1][1]:
            return f"{step}break"  # q is the loop's test, and after() goes on
        return step + self.go(held, q + 1, target)

    def after(self, w: int) -> list[str]:
        """The code after the Python loop of the while at w, which its exit
        breaks out to."""
        s = self.fn.flat[w]
        if s.other == self.fn.end:
            return []  # the test leaves the code itself
        go = self.go(self.loops[w][:-1], s.end, s.other)
        return [go] if go else []

    def go(self, held: tuple, at: int, target: int) -> str:
        """The code that goes on at target, where n counts the statements
        before it, from the code of statement at within the Python loops
        held: round the innermost of them, on past the segments before
        target, or out of the code with the frame's pc on target, which
        is fn.end at the function's end."""
        if target < self.fn.end:
            if held and target == held[-1][0]:
                return f"e = {target}; continue"
            if target > at:
                return f"e = {target}"
            if target == at:
                return ""
        return f"{self.put_back}frame.pc = {target}; ex.stats.states += n + {target}; return None"

    def leave(self, q: int, call: str) -> str:
        """The code by which statement q leaves with call's result."""
        return f"{self.put_back}r = {call}; ex.stats.states += n + {q + 1}; return r"

    # --- statements ---

    def write(self, q: int) -> None:
        """Write statement q. function() marks each of its lines with q,
        the statement that the error handler stops at if that line raises."""
        s = self.fn.flat[q]
        node = s.node
        if isinstance(node, ast.VarDecl):
            value = "UNDEFINED" if node.init is None else self.value(node.init)
            self.put(f"{self.slot(node.slot)} = {value}")
        elif isinstance(node, ast.Assign):
            self.assign(node)
        elif isinstance(node, ast.Print):
            args = [self.print_arg(a) for a in node.args]
            self.put(f"state.printed.append(({''.join(a + ', ' for a in args)}))")
        elif isinstance(node, ast.ArrDecl):
            n = self.strict(node.extent)
            bad = f"_bad_extent({n}, {self.const(node.name)}, {self.const(node.extent.loc)})"
            self.put(f"if not 0 <= {n} <= MAX_ARRAY_CELLS: {bad}")
            kind = "INT" if node.elem_ty is ast.Type.INT else "REAL"
            cells = f"[UNDEFINED] * {n}, SymKind.{kind}, False, {self.const(node.name)}"
            self.put(f"{self.slot(node.slot)} = state.alloc(ArrayStorage({cells}))")
        elif isinstance(node, ast.ChooseAssign):
            n = self.strict(node.arg)
            self.put(f"frame.pc = {s.next}")
            self.put(self.leave(q, f"ex.choose(state, {n}, {node.target.slot})"))
            return
        elif isinstance(node, ast.CallStmt):
            f = node.callee.translation
            args = [self.value(a) for a in node.args] + ["None"] * (len(f.names) - len(node.args))
            callee = self.const(f)
            code = f"{callee}.concrete" if self.concrete else f"{callee}.code"
            ret_slot = node.target.slot if node.target is not None else None
            self.put(f"frame.pc = {s.next}; {self.put_back}")
            self.put(f"state.frames.append(Frame({code}, {callee}, [{', '.join(args)}], {ret_slot}))")
            self.put(f"ex.stats.states += n + {q + 1}; return None")
            return
        elif isinstance(node, ast.Return):
            if node.value is not None:
                # main is void, so a function with a value has a caller
                v = self.value(node.value)
                into = "state.frames[-2].slots[frame.ret_slot]"
                self.put(f"if frame.ret_slot is not None: {into} = {v}")
            self.put(self.jump(q, self.fn.end))
            return
        elif isinstance(node, (ast.If, ast.While)):
            # each side ends in its own jump, since one that goes on past
            # the segments before its target runs on to the next line
            e = node.cond
            compare = isinstance(e, ast.Binary) and e.op in ast.COMPARISONS
            if self.concrete and compare and e.lhs.ty is ast.Type.INT:
                # one comparison of Python ints is a Python bool
                a, b = self.value(e.lhs), self.value(e.rhs)
                self.put(f"if not {a} {e.op} {b}: {self.jump(q, s.other) or 'pass'}")
            else:
                c = self.cond(e)
                self.put(f"if {c} is not True:")
                self.put(f" if {c} is False: {self.jump(q, s.other) or 'pass'}")
                call = f"ex.branch(state, {c}, {self.const(node.loc)}, {s.other})"
                self.put(f" else: frame.pc = {s.next}; {self.leave(q, call)}")
            if s.next != q + 1 or q + 1 == self.fn.end:
                self.put(f"else: {self.jump(q, s.next) or 'pass'}")
            return
        elif isinstance(node, ast.Assert):
            c = self.cond(node.cond)
            shown = "None"
            if isinstance(node.cond, ast.EqualsCall):
                # a failed equals() of two named arrays shows both under the witness
                a, b = node.cond.lhs, node.cond.rhs
                shown = f"(({self.const(a.name)}, {self.load(a)}), "
                shown += f"({self.const(b.name)}, {self.load(b)}))"
            call = f"ex.check_assert(state, f_not({c}), {self.const(node.loc)}, {shown})"
            self.put(f"if {c} is not True: frame.pc = {s.next}; {self.leave(q, call)}")
        elif isinstance(node, ast.Assume):
            c = self.cond(node.cond)
            call = f"ex.apply_assume(state, {c}, {self.const(node.loc)})"
            self.put(f"if {c} is not True: frame.pc = {s.next}; {self.leave(q, call)}")
        else:
            assert isinstance(node, ast.Block)  # entering a block is a step of its own
        if s.next != q + 1 or q + 1 == self.fn.end:
            jump = self.jump(q, s.next)
            if jump:
                self.put(jump)

    def assign(self, s: ast.Assign) -> None:
        v = self.value(s.value)
        target = s.target
        if isinstance(target, ast.Name):
            self.put(f"{self.slot(target.slot)} = {v}")
            return
        i = self.strict(target.index)
        storage, cells, n = self.array(target.base)
        self.put(f"if 0 <= {i} < {n} and not {storage}.read_only: {cells}[{i}] = {v}")
        where = f"{self.const(target.base.name)}, {self.const(target.loc)}, {self.const(s.loc)}"
        self.put(f"else: _bad_cell({storage}, {i}, {where})")

    def print_arg(self, a: ast.Expr) -> str:
        # every argument is evaluated here, so that a bad read is found at
        # the print; ExecState.prints renders them when it is read
        if isinstance(a, ast.StrLit):
            return self.const(a.value)
        if a.ty.is_array():
            return f"tuple({self.array(a)[1]})"
        return self.value(a)

    # --- expressions ---

    def slot(self, i: int) -> str:
        """The local that holds frame slot i."""
        self.slots.add(i)
        return f"s{i}"

    def load(self, e: ast.Name) -> str:
        """The local that holds e's value, whatever it is (arrays included)."""
        if e.slot is None:
            return self.bind(f"state.globals[{self.const(e.name)}]")
        return self.slot(e.slot)

    def array(self, e: ast.Name) -> tuple[str, str, str]:
        """The storage, cells and length of the array that e names: a
        parameter's or an input's array has them bound as a run starts,
        and a local array's are looked up where they are used."""
        ref = self.load(e)
        if e.slot is None or e.slot < self.fn.params:
            storage = self.bind(f"state.heap[{ref}.addr]")
            cells = self.bind(f"{storage}.cells")
            return storage, cells, self.bind(f"len({cells})")
        storage = self.temp()
        self.put(f"{storage} = state.heap[{ref}.addr]")
        return storage, f"{storage}.cells", f"len({storage}.cells)"

    def strict(self, e: ast.Expr) -> str:
        """The Python int of e in a strict position: an extent, a count or an index."""
        v = self.value(e)
        if isinstance(e, ast.IntLit):
            return v
        self.pins = True
        if self.concrete:
            return v
        t = self.temp()
        self.put(f"{t} = _strict({v})")
        return t

    def value(self, e: ast.Expr) -> str:
        if isinstance(e, ast.IntLit):
            return repr(e.value)
        if isinstance(e, ast.DecLit):
            return self.const(RealVal(Poly.const(e.value)))
        if isinstance(e, ast.Name):
            v = self.load(e)
            if e.slot is not None and e.slot in self.fn.unset:
                # inputs always hold a value, and so do parameters
                self.put(f"if {v} is UNDEFINED: _unset({self.const(e.name)}, {self.const(e.loc)})")
            return v
        t = self.temp()
        if isinstance(e, ast.Index):
            i = self.strict(e.index)
            storage, cells, n = self.array(e.base)
            bad = f"_bad_cell({storage}, {i}, {self.const(e.base.name)}, {self.const(e.loc)})"
            self.put(f"if not (0 <= {i} < {n}) or ({t} := {cells}[{i}]) is UNDEFINED: {bad}")
        elif isinstance(e, ast.Unary):
            assert e.op == "-", "boolean operators are translated as conditions"
            x = self.value(e.operand)
            if e.ty is ast.Type.REAL:
                self.put(f"{t} = RealVal(-{x}.poly)")
            elif self.concrete:
                self.put(f"{t} = -{x}")
            else:
                self.put(f"{t} = make_int(-int_poly({x}))")
        elif isinstance(e, ast.Binary):
            a, b = self.value(e.lhs), self.value(e.rhs)
            if e.op == "/":
                self.put(f"{t} = _divide({a}.poly, {b}.poly, {self.const(e.loc)})")
            elif e.ty is ast.Type.REAL:
                if e.op == "-":
                    self.put(f"{t} = RealVal({a}.poly - {b}.poly)")
                else:
                    self.put(f"{t} = {_REAL_MEMO[e.op]}({a}, {b})")
            elif self.concrete:
                self.put(f"{t} = {a} {e.op} {b}")
            else:
                self.put(f"{t} = make_int(int_poly({a}) {e.op} int_poly({b}))")
        elif isinstance(e, ast.LenCall):
            return self.array(e.arg)[2]
        else:
            raise AssertionError(f"not a value: {type(e).__name__}")
        return t

    def cond(self, e: ast.Expr) -> str:
        """A temp holding e's formula; a decided one is True or False."""
        if isinstance(e, ast.Unary) and e.op == "!":
            x = self.cond(e.operand)
            self.put(f"{x} = f_not({x})")
            return x
        if isinstance(e, ast.Binary) and e.op in ast.LOGICAL:
            # short-circuit on a decided left side so guarded accesses on
            # the right stay unevaluated, matching run-time behavior
            x = self.cond(e.lhs)
            settled, join = ("False", "f_and") if e.op == "&&" else ("True", "f_or")
            self.put(f"if {x} is not {settled}:")
            self.indent += " "
            y = self.cond(e.rhs)
            self.put(f"{x} = {join}(({x}, {y}))")
            self.indent = self.indent[:-1]
            return x
        t = self.temp()
        if isinstance(e, ast.Binary) and e.op in ast.COMPARISONS:
            a, b = self.value(e.lhs), self.value(e.rhs)
            rel = f"Rel.{Rel(e.op).name}"
            if e.lhs.ty is ast.Type.REAL:
                self.put(f"{t} = _real_atom({rel}, {a}, {b})")
            elif self.concrete:
                self.put(f"{t} = {a} {e.op} {b}")
            else:
                self.put(f"{t} = _int_atom({rel}, {a}, {b})")
        elif isinstance(e, ast.EqualsCall):
            names = f"{self.const(e.lhs.name)}, {self.const(e.rhs.name)}"
            arrays = f"{self.load(e.lhs)}, {self.load(e.rhs)}"
            self.put(f"{t} = _equals(state, {arrays}, {names}, {self.const(e.loc)})")
        else:
            raise AssertionError(f"not a condition: {type(e).__name__}")
        return t


def _compile(lines: list[str], filename: str, consts: list):
    """The function run that lines define, compiled with consts as C0, C1,
    ... and this module's globals."""
    params = ", ".join(f"C{i}" for i in range(len(consts)))
    source = "\n".join([f"def _make({params}):", *(" " + line for line in lines), " return run"])
    made: dict = {}
    exec(compile(source + "\n", filename, "exec"), globals(), made)
    return made["_make"](*consts)


def _compile_value(e: ast.Expr):
    """A function of a state that evaluates e, an expression over inputs."""
    w = _Writer(None)
    v = w.value(e)
    lines = ["def run(state):", *w.prelude(" "), *(" " + line for line in w.lines), f" return {v}"]
    return _compile(lines, "<vl extent>", w.consts)


class _Choices(Sequence):
    """The k options of a choose_int, each built when it is first read and
    then kept, so a policy that takes one of them costs O(1) whatever k is,
    and every path that takes one option holds the same decision object."""

    __slots__ = ("fanout", "built")

    def __init__(self, fanout: int):
        self.fanout = fanout
        self.built: dict[int, ChooseInt] = {}

    def __len__(self) -> int:
        return self.fanout

    def __getitem__(self, i):
        picked = range(self.fanout)[i]
        if isinstance(picked, range):
            return [self[j] for j in picked]
        d = self.built.get(picked)
        if d is None:
            d = self.built[picked] = ChooseInt(picked, self.fanout)
        return d

    def index(self, d: Decision) -> int:
        if isinstance(d, ChooseInt) and d.fanout == self.fanout and 0 <= d.index < d.fanout:
            return d.index
        raise ValueError(d)


def _pin(state: ExecState, sym: SymConst, value: int) -> None:
    """Substitute a pinned symbol into every int the state holds, so that
    reads need no substitution. Clones share their globals, so the state
    gets a rewritten copy of them; its frames and heap are its own."""
    assignment = {sym: value}

    def subst(v):
        if v.__class__ is Poly:
            return make_int(v.substitute(assignment))
        return v

    for frame in state.frames:
        frame.slots = [subst(v) for v in frame.slots]
    for storage in state.heap:
        if storage.elem_kind is SymKind.INT:
            storage.cells = [subst(v) for v in storage.cells]
    state.globals = {name: subst(v) for name, v in state.globals.items()}


_STOPS = (NeedsConcretize, Violating, SearchLimit)
_UNSAT = SatResult(SatStatus.UNSAT)


class _Executor:
    """The context of one search or one path: a policy, stats and findings."""

    def __init__(self, engine: Engine, policy):
        self.eng = engine
        self.policy = policy
        self.stats = Stats()
        self.violations: list[Violation] = []
        self.incomplete = False
        # pc_sat's answer for each path condition's atoms
        self.answers: dict[tuple[Atom, ...], SatResult] = {}
        # the options of each choose_int fanout met so far
        self.choices: dict[int, _Choices] = {}

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

    def fork(
        self, state: ExecState, options: Sequence[Decision], pcs=None
    ) -> list[tuple[ExecState, int]]:
        """Every decision point goes through here with its feasible options,
        and with the path condition of each when the options narrow it. The
        policy picks which to take; each pick gets a working copy of state
        (the original is reused as the last one) with the option on its
        trail and its path condition, paired with the option's index."""
        picks = self.policy.pick(options)
        last = len(picks) - 1
        out = []
        for j, i in enumerate(picks):
            st = state if j == last else state.clone()
            st.trail.append(options[i])
            if pcs is not None:
                st.pc = pcs[i]
            out.append((st, i))
        return out

    def _feasible(self, pcs) -> list[tuple[int, PathCondition]]:
        """The one pruning step: the index and condition of each candidate
        path condition in pcs that the solver does not rule out, asked in
        order; each one it rules out counts as a pruned branch."""
        kept = []
        for i, pc in enumerate(pcs):
            if self.sat(pc).status is SatStatus.UNSAT:
                self.stats.pruned += 1
            else:
                kept.append((i, pc))
        return kept

    def branch_walk(self, state: ExecState, f, loc: Loc) -> list[tuple[ExecState, bool]]:
        """The successors of state under formula f, each with the truth of f
        on it. A limit met on a copy that a fork made cuts that copy short
        at loc, the statement's location; one met before any fork is the
        statement's."""
        if isinstance(f, Atom):
            kept = self._feasible((state.pc.add(f), state.pc.add(f.negated())))
            options = [_SIDES[i] for i, _ in kept]
            pcs = [pc for _, pc in kept]
            return [(st, options[i].side == 0) for st, i in self.fork(state, options, pcs)]
        # a conjunction or a disjunction, part by part: one truth of a part
        # settles it, the other leaves the parts after it to decide. Each
        # entry of todo is a copy, its truth so far and the next part to
        # walk on it, with the copy to walk next on top
        settles, parts = isinstance(f, FOr), f.parts
        out = []
        todo = [(state, None, 0)]
        while todo:
            st, truth, i = todo.pop()
            if truth is settles or i == len(parts):
                out.append((st, truth))
                continue
            try:
                walked = self.branch_walk(st, parts[i], loc)
            except SearchLimit as exc:
                if i == 0:
                    raise
                self.cut_short(st, loc, str(exc))
                continue
            todo.extend((s, t, i + 1) for s, t in reversed(walked))
        return out

    def _concretize(self, state: ExecState, sym: SymConst) -> list[ExecState]:
        """Fork state over each feasible value of sym. The solver answered
        state's path condition without raising, so a symbol that it bounds
        has at most the budget's values: pc_sat multiplies the ranges of
        the symbols its atoms mention and stops above the budget."""
        lo, hi = state.pc.bounds(sym)
        if lo is None or hi is None:
            raise UnboundedSymbol(sym)
        s = Poly.symbol(sym)
        pins = (Atom(SymKind.INT, Rel.EQ, s - Poly.const(v)) for v in range(lo, hi + 1))
        kept = self._feasible(state.pc.add(pin) for pin in pins)
        name, fanout = sym.render(), len(kept)
        options = [ConcretizeInt(name, lo + i, fanout) for i, _ in kept]
        out = []
        for st, i in self.fork(state, options, [pc for _, pc in kept]):
            _pin(st, sym, options[i].value)
            self.eng.settle(st)
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
        """The one place a finding becomes a Violation, with state's trail.
        A MAYBE finding ends its path undecided, so the search is
        incomplete: the code after it was not checked."""
        if certainty is Certainty.MAYBE:
            self.incomplete = True
        self.violations.append(
            Violation(prop, certainty, loc, message, tuple(state.trail), witness, detail)
        )

    def cut_short(self, state: ExecState, loc: Loc, message: str) -> None:
        """A limit ends the path of state: a MAYBE finding."""
        self._record(state, Property.ENUM_BUDGET, Certainty.MAYBE, loc, message)

    # --- statements ---

    def choose(self, state: ExecState, k: int, slot: int) -> list[ExecState]:
        """Successors of a choose_int of k alternatives into slot; the
        frame's pc is already on the statement after it."""
        if k <= 0:
            self.stats.pruned += 1
            return []
        choices = self.choices.get(k)
        if choices is None:
            choices = self.choices[k] = _Choices(k)
        out = []
        for st, i in self.fork(state, choices):
            st.frames[-1].slots[slot] = i
            out.append(st)
        return out

    def branch(self, state: ExecState, f, loc: Loc, other: int) -> list[ExecState]:
        """Successors of an if or a while test whose condition f is not
        decided: those where f holds go on at the frame's pc, which the
        code set to where it holds, and those where it fails at other."""
        out = []
        for st, truth in self.branch_walk(state, f, loc):
            if not truth:
                st.frames[-1].pc = other
            out.append(st)
        return out

    def _stopped(self, state: ExecState, loc: Loc, exc: Exception) -> list[ExecState]:
        """Successors of the statement at loc that raised exc: the pinned
        copies of state when a strict position needs a concrete int, else
        none. A Violating is a finding at its own location, PROVEABLE with
        the witness of state's condition unless that is undecided or the
        finding is MAYBE by itself. A limit that the statement raised or
        that pinning met cuts the path short at loc; only a copy that a
        fork of branch_walk made is cut short elsewhere, by branch_walk."""
        if isinstance(exc, Violating):
            # a live state's condition is empty or was already answered,
            # SAT or UNKNOWN, by this memoized sat, so this counted call
            # only reads that answer, or finds an empty condition SAT
            res = self.sat(state.pc)
            if res.status is SatStatus.SAT and not exc.force_maybe:
                certainty, witness = Certainty.PROVEABLE, res.witness
            else:
                certainty, witness = Certainty.MAYBE, None
            self._record(state, exc.prop, certainty, exc.loc, exc.message, witness)
            return []
        if isinstance(exc, NeedsConcretize):
            try:
                return self._concretize(state, exc.sym)
            except SearchLimit as limit:
                exc = limit
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
            if not self._feasible((pc,)):
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
                    _assert_detail(state, shown, res),
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
        """Run the code of st's top frame, again and again, until its path
        forks, stops or ends. A frame has ended when its pc is its
        function's end, and this is the one place that pops it, before the
        depth limit is tested; the end of main's frame, which stays, ends
        the path. Returns the state that ran last with the fork's successors, with []
        when the path stopped, or with None when it ran to its end, which
        counts as a terminal. With --first, a finding stops the path at the
        statement that made it."""
        first_only = self.eng.config.first_only
        max_depth = self.eng.config.max_depth
        while True:
            frames = st.frames
            frame = frames[-1]
            if frame.pc == frame.fn.end:
                if len(frames) == 1:
                    self.stats.terminals += 1
                    return st, None
                frames.pop()
                continue
            if max_depth and len(st.trail) >= max_depth:
                # the statement where the path stops counts one state
                self.stats.states += 1
                self.incomplete = True
                return st, []
            succs = frame.code(self, st, frame)
            if first_only and self.violations:
                return st, []
            if succs is None:
                continue
            if len(succs) != 1:
                return st, succs
            st = succs[0]

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
        """dfs over config.workers processes, this one included: grow a
        frontier of live states breadth first, then search it in
        _run_workers, which appends every process's findings to
        self.violations. explore's one sort by trail then orders them as
        the serial search does. Each fork gives each copy a different
        option, so findings on different paths have different trails. Two
        findings share a trail only if one path made both with no decision
        between them: one process made them, in that order and after every
        finding of the breadth-first phase, and the sort is stable."""
        frontier = self._frontier(root)
        if frontier:
            _run_workers(self, frontier, min(self.eng.config.workers, len(frontier)))

    def _frontier(self, root: ExecState) -> list[ExecState]:
        """Run the search breadth first from root, counting as dfs does,
        until at least FRONTIER_STATES paths are live or none is; the live
        states, in the order they were reached."""
        queue = deque([root])
        while queue and len(queue) < FRONTIER_STATES:
            _, succs = self._run(queue.popleft())
            queue.extend(succs or ())
        return list(queue)

    def search_claims(self, frontier: list[ExecState], claims: int, size: int) -> None:
        """Search, depth first, the frontier states of each claim read from
        the fd claims, the size states from its first index on, until the
        pipe is empty."""
        while claim := os.read(claims, CLAIM_BYTES):
            first = int.from_bytes(claim, "little")
            for i in range(first, min(first + size, len(frontier))):
                self.dfs(frontier[i])


def _run_workers(ex: _Executor, frontier: list[ExecState], workers: int) -> None:
    """Search the frontier in workers processes: this one and workers - 1
    forked children. Before the fork, this process writes every claim into
    one pipe in a single write and closes the pipe's write end; each process
    then reads the next claim whenever it has searched its last, until the
    pipe is empty, so a process that runs faster searches more. A claim
    holds as many states as keep that write within select.PIPE_BUF bytes,
    so it cannot block however wide the frontier is. This process adds its
    own counts and findings to ex's as it searches, and then each child's
    counts, findings and incomplete flag. A child that fails raises
    WorkerFailed, and no child outlives this call."""
    # imported only when a search forks, so that they add nothing to the
    # start-up time of every other run
    import pickle
    import select
    import signal

    # states per claim: the fewest that leave at most PIPE_BUF // CLAIM_BYTES claims
    size = -(-len(frontier) // (select.PIPE_BUF // CLAIM_BYTES))
    firsts = range(0, len(frontier), size)
    claims, wfd = os.pipe()
    pipes, pids = [], {}
    try:
        try:
            os.write(wfd, b"".join(i.to_bytes(CLAIM_BYTES, "little") for i in firsts))
        finally:
            os.close(wfd)
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(wfd)
                raise
            if pid == 0:
                _worker(ex, frontier, claims, size, wfd, pipes)
            os.close(wfd)
            pids[w] = pid
        ex.search_claims(frontier, claims, size)
        for w, pipe in enumerate(pipes, 1):
            data = pipe.read()
            _, status = os.waitpid(pids[w], 0)
            del pids[w]
            code = os.waitstatus_to_exitcode(status)
            if code > 0:
                raise WorkerFailed(f"search worker {w} of {workers} exited with status {code}")
            if code < 0:
                name = signal.Signals(-code).name
                raise WorkerFailed(f"search worker {w} of {workers} was killed by {name}")
            stats, found, incomplete = pickle.loads(data)
            ex.stats.add(stats)
            ex.incomplete |= incomplete
            ex.violations.extend(found)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        os.close(claims)


def _worker(ex: _Executor, frontier, claims: int, size: int, wfd: int, pipes) -> None:
    """The body of a forked child: search the claims it reads from the fd
    claims with fresh counts and findings, send (stats, violations,
    incomplete) down wfd and exit, without flushing the stdio buffers or
    running the exit handlers inherited from the parent. An interrupt is
    the parent's to handle; it kills its children."""
    import pickle
    import signal

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        for pipe in pipes:
            pipe.close()
        ex.stats, ex.violations, ex.incomplete = Stats(), [], False
        ex.search_claims(frontier, claims, size)
        with open(wfd, "wb") as out:
            pickle.dump((ex.stats, ex.violations, ex.incomplete), out, pickle.HIGHEST_PROTOCOL)
        code = 0
    except BaseException:
        # imported here, on the failure path only: it costs about 3 ms at
        # the start of every child
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _assert_detail(state: ExecState, shown, res: SatResult) -> "list[tuple[str, str]] | None":
    """The two arrays of a failed equals() under the witness of res."""
    if shown is None:
        return None
    w, texts = res.witness, res.texts
    return [(name, _render_cells(state.heap[ref.addr].cells, w, texts)) for name, ref in shown]


def _render_print_arg(p) -> str:
    """One print argument as ExecState.printed holds it, rendered."""
    if p.__class__ is str:
        return p
    if p.__class__ is tuple:
        return _render_cells(p)
    return _render_value(p)


def _render_cells(cells, witness=None, texts=None) -> str:
    vals = [_render_value(c, witness, texts) for c in cells]
    return "[ " + " ".join(vals) + " ]" if vals else "[ ]"


def _render_value(v, witness=None, texts=None) -> str:
    """v as print shows it; under a witness, its symbols take their values
    (0 for a symbol the witness leaves out). texts, given with a witness,
    is the cache of values already rendered under it (a SatResult's texts): a
    RealVal is found there by identity and an int Poly by its terms, so a
    value met again, on this path or on another that shares the witness,
    is not evaluated again."""
    if v is UNDEFINED:
        return "undef"
    if v.__class__ is int:
        return str(v)
    poly = v if v.__class__ is Poly else v.poly
    if witness is None:
        return poly.render()
    text = texts.get(v)
    if text is None:
        text = texts[v] = str(_value_at(poly, witness))
    return text


def _value_at(poly: Poly, witness) -> "int | Fraction":
    """poly.eval at the point where each symbol has its witness value, or 0
    where the witness leaves it out, read straight from the terms."""
    total = 0
    get = witness.get
    for m, c in poly.terms.items():
        for sym in m:
            c = c * get(sym, 0)
        total += c
    return total


# ---------------------------------------------------------------------------
# entry points


def explore(program: ast.Program, config: SearchConfig, on_terminal=None) -> SearchResult:
    """Search every path of a program that load_program returned, depth
    first; violations come out sorted by trail. More than one worker
    searches in that many processes, this one included, unless the search
    stops at its first finding, sees every terminal state, or runs where
    there is no os.fork."""
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
    ex.violations.sort(key=lambda v: v.trail)
    return SearchResult(ex.violations, ex.stats, ex.incomplete, eng.inputs_desc)


class PathOutcome:
    """What the one path of run_path did; state is None when the path was
    infeasible and abandoned."""

    __slots__ = ("state", "violations", "prints")


ast.init_from_slots(PathOutcome)


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
    follows the trail if given, and must use it up, and random choices if
    not. So reals={} with a trail replays that trail symbolically, and
    draws nothing from the seeded Random."""
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
    ex = _Executor(eng, policy)
    state, succs = ex._run(state)
    if succs is not None:
        assert not succs, "policy must yield a single successor"
        return PathOutcome(None, ex.violations, state.prints)
    if trail is not None and policy.pos < len(trail):
        unused = len(trail) - policy.pos
        raise TrailMismatch(f"path finished with {unused} unused trail decision(s)")
    return PathOutcome(state, ex.violations, state.prints)
