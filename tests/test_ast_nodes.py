"""The contract of the syntax tree's node classes: constructors, equality, hashing."""

import inspect

import pytest

from vlsym import ast
from vlsym.diagnostics import Loc

DECLS = [ast.Param, ast.FuncDecl, ast.InputDecl, ast.Program]
NODES = [*ast.Expr.__args__, *ast.Stmt.__args__, *DECLS]


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    params = inspect.signature(cls).parameters.values()
    required = [p.name for p in params if p.default is p.empty]
    # what validation fills in: an expression's type and a name's or a
    # declaration's frame slot(s)
    filled = [p.name for p in params if p.default is not p.empty]
    assert set(filled) <= {"ty", "slot", "slots"}
    values = {name: object() for name in required}
    if "loc" in values:
        values["loc"] = Loc("a.vl", 1, 1, 1)
    node = cls(**values)

    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in values.items() if k != name})

    # equal whatever the location and what validation filled in
    elsewhere = dict(values, **{name: object() for name in filled})
    if "loc" in values:
        elsewhere["loc"] = Loc("b.vl", 2, 3, 4)
    assert node == cls(**elsewhere)
    # but every other field counts
    for name in required:
        if name != "loc":
            assert node != cls(**dict(values, **{name: object()}))

    with pytest.raises(TypeError):
        hash(node)
