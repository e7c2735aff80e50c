"""The contract of every class whose constructor comes from its __slots__:
the syntax tree's node classes, the engine's records and its plain state
classes. Constructors, defaults, equality, hashing."""

import inspect

import pytest

from vlsym import ast, engine
from vlsym.diagnostics import Loc

DECLS = [ast.Param, ast.FuncDecl, ast.InputDecl, ast.Program]
NODES = [*ast.Expr.__args__, *ast.Stmt.__args__, *DECLS]
RECORDS = [engine.Violation, engine.Stats]
STATES = [
    engine.FAnd,
    engine.FOr,
    engine.ArrayRef,
    engine.ArrayStorage,
    engine.Frame,
    engine.ExecState,
    engine.SearchConfig,
    engine.SearchResult,
    engine.PathOutcome,
    engine.RandomPolicy,
    engine.TrailPolicy,
]
# the default of each field that a record or a state class may leave out
DEFAULTS = {
    engine.Violation: {"detail": None},
    engine.Stats: {"states": 0, "terminals": 0, "pruned": 0, "solver_calls": 0},
    engine.ArrayStorage: {"read_only": False, "label": ""},
    engine.Frame: {"ret_slot": None, "pc": 0},
    engine.TrailPolicy: {"pos": 0},
    engine.SearchConfig: {
        "budget": engine.DEFAULT_BUDGET,
        "seed": 0,
        "max_depth": 0,
        "first_only": False,
        "workers": 1,
        "overrides": None,
    },
}


@pytest.mark.parametrize("cls", NODES + RECORDS + STATES, ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls.__slots__)
    required = [p.name for p in params if p.default is p.empty]
    filled = [p.name for p in params if p.default is not p.empty]
    defaults = {p.name: p.default for p in params if p.default is not p.empty}
    assert issubclass(cls, ast.Record) == (cls not in STATES)
    if cls in NODES:
        # what validation fills in: an expression's type, a name's or a
        # declaration's frame slot(s) and a call's callee; and what the
        # first engine of a program fills in: a function's or an input's
        # translation
        assert set(filled) <= {"ty", "slot", "slots", "callee", "translation"}
        assert ("callee" in filled) == (cls is ast.CallStmt)
        assert ("translation" in filled) == (cls in (ast.FuncDecl, ast.InputDecl))
        assert set(defaults.values()) <= {None}
    else:
        assert defaults == DEFAULTS.get(cls, {})
    values = {name: object() for name in required}
    if "loc" in values:
        values["loc"] = Loc("a.vl", 1, 1, 1)
    node = cls(**values)
    for name, default in defaults.items():
        assert getattr(node, name) == default

    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in values.items() if k != name})

    # keywords and positions build the same object
    positional = cls(*values.values())
    assert all(getattr(positional, f) is getattr(node, f) for f in cls.__slots__)

    if cls in STATES:
        # a state class compares and hashes by identity, whatever its fields
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        assert node == node and positional != node
        assert hash(node) == object.__hash__(node)
        return
    assert positional == node
    if cls in NODES:
        # equal whatever the location and what validation filled in
        ignored = {"loc", *filled}
        elsewhere = dict(values, **{name: object() for name in filled})
        if "loc" in values:
            elsewhere["loc"] = Loc("b.vl", 2, 3, 4)
        assert node == cls(**elsewhere)
    else:
        ignored = set()
    # but every other field counts
    for name in cls.__slots__:
        if name not in ignored:
            assert node != cls(**dict(values, **{name: object()}))

    with pytest.raises(TypeError):
        hash(node)


def test_a_class_gets_its_constructor_from_its_slots():
    class Pair(ast.Record):
        __slots__ = ("left", "right", "loc", "note")

    loc = Loc("a.vl", 1, 1, 1)
    assert list(inspect.signature(Pair).parameters) == ["left", "right", "loc", "note"]
    pair = Pair(1, 2, loc)
    assert (pair.left, pair.right, pair.loc, pair.note) == (1, 2, loc, None)
    noted = Pair(left=1, right=2, loc=loc, note="x")
    assert noted.note == "x"
    # the field after loc is left out of == and repr
    assert noted == pair and Pair(1, 2, loc, "y") == pair
    assert repr(noted) == repr(pair) == "Pair(left=1, right=2)"
    assert pair != Pair(1, 3, loc)
    with pytest.raises(TypeError):
        Pair(1, 2)
    with pytest.raises(TypeError):
        Pair(1, 2, loc, "x", "y")
    with pytest.raises(TypeError):
        Pair(1, 2, loc, colour="red")
    with pytest.raises(TypeError):
        hash(pair)

    class Count(ast.Record, defaults=(0,)):
        __slots__ = ("label", "n")

    assert list(inspect.signature(Count).parameters) == ["label", "n"]
    assert Count("a").n == 0 and Count("a", n=2).n == 2
    # every field of a record counts, and it shows each in its repr
    assert Count("a") != Count("a", 1)
    assert repr(Count("a", 1)) == "Count(label='a', n=1)"
    with pytest.raises(TypeError):
        Count()
    with pytest.raises(TypeError):
        hash(Count("a"))

    # a class that names its defaults compares every field, loc among them
    class Found(ast.Record, defaults=(None,)):
        __slots__ = ("what", "loc", "note")

    assert list(inspect.signature(Found).parameters) == ["what", "loc", "note"]
    assert Found("a", loc).note is None
    assert Found("a", loc) != Found("a", Loc("b.vl", 2, 3, 4))
    assert Found("a", loc) != Found("a", loc, "x")
    assert repr(Found("a", loc, "x")) == f"Found(what='a', loc={loc!r}, note='x')"
    with pytest.raises(TypeError):
        Found("a")
