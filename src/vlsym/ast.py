"""Abstract syntax for VL programs: node types, static checks, printing.

Nodes compare structurally. Source locations and what validation fills
in (inferred types and frame slots) are excluded from equality, so a
parse -> print -> parse round trip yields equal trees.

Validation is the one place that resolves names. Each parameter and
local declaration of a function gets a slot of its own in the function's
frame: the parameters 0..n-1 in order, then each declaration in the
order the checker meets it, an initializer before its own declaration.
Every Name records the slot it reads or writes (None for an input), each
declaration its own slot, and each function the names of its slots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .diagnostics import Diagnostic, Loc, error


class Type(enum.Enum):
    INT = "int"
    REAL = "real"
    BOOL = "bool"
    INT_ARRAY = "int[]"
    REAL_ARRAY = "real[]"
    STRING = "string"
    VOID = "void"

    def is_array(self) -> bool:
        return self in (Type.INT_ARRAY, Type.REAL_ARRAY)

    def elem(self) -> "Type":
        if self is Type.INT_ARRAY:
            return Type.INT
        if self is Type.REAL_ARRAY:
            return Type.REAL
        raise ValueError(f"{self.value} has no element type")


# ---------------------------------------------------------------------------
# expressions


@dataclass
class IntLit:
    value: int
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class DecLit:
    value: Fraction
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class StrLit:
    value: str
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class Name:
    name: str
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)
    slot: int | None = field(default=None, compare=False, repr=False)


@dataclass
class Index:
    base: Name
    index: "Expr"
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class Unary:
    op: str  # "-" or "!"
    operand: "Expr"
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class Binary:
    op: str  # + - * / < <= == != && ||
    lhs: "Expr"
    rhs: "Expr"
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class EqualsCall:
    lhs: "Expr"
    rhs: "Expr"
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


@dataclass
class LenCall:
    arg: "Expr"
    loc: Loc = field(compare=False)
    ty: Type | None = field(default=None, compare=False, repr=False)


Expr = IntLit | DecLit | StrLit | Name | Index | Unary | Binary | EqualsCall | LenCall


# ---------------------------------------------------------------------------
# statements


@dataclass
class VarDecl:
    name: str
    ty: Type  # INT or REAL
    init: Expr | None
    loc: Loc = field(compare=False)
    slot: int | None = field(default=None, compare=False, repr=False)


@dataclass
class ArrDecl:
    name: str
    elem_ty: Type  # INT or REAL
    extent: Expr
    loc: Loc = field(compare=False)
    slot: int | None = field(default=None, compare=False, repr=False)


@dataclass
class Assign:
    target: Name | Index
    value: Expr
    loc: Loc = field(compare=False)


@dataclass
class ChooseAssign:
    target: Name
    arg: Expr
    loc: Loc = field(compare=False)


@dataclass
class CallStmt:
    name: str
    args: list[Expr]
    target: Name | None
    loc: Loc = field(compare=False)


@dataclass
class Block:
    stmts: list["Stmt"]
    loc: Loc = field(compare=False)


@dataclass
class If:
    cond: Expr
    then: Block
    els: "Block | If | None"
    loc: Loc = field(compare=False)


@dataclass
class While:
    cond: Expr
    body: Block
    loc: Loc = field(compare=False)


@dataclass
class Assert:
    cond: Expr
    loc: Loc = field(compare=False)


@dataclass
class Assume:
    cond: Expr
    loc: Loc = field(compare=False)


@dataclass
class Return:
    value: Expr | None
    loc: Loc = field(compare=False)


@dataclass
class Print:
    args: list[Expr]
    loc: Loc = field(compare=False)


Stmt = (
    VarDecl
    | ArrDecl
    | Assign
    | ChooseAssign
    | CallStmt
    | Block
    | If
    | While
    | Assert
    | Assume
    | Return
    | Print
)


# ---------------------------------------------------------------------------
# declarations


@dataclass
class Param:
    name: str
    ty: Type  # INT, REAL, INT_ARRAY or REAL_ARRAY
    loc: Loc = field(compare=False)


@dataclass
class FuncDecl:
    name: str
    params: list[Param]
    ret: Type  # INT, REAL or VOID
    body: Block
    loc: Loc = field(compare=False)
    # the name of each frame slot; None until validation sets it
    slots: tuple[str, ...] | None = field(default=None, compare=False, repr=False)


@dataclass
class InputDecl:
    name: str
    ty: Type  # INT (scalar) or REAL_ARRAY
    extent: Expr | None  # for arrays
    default: int | None  # for ints
    loc: Loc = field(compare=False)


@dataclass
class Program:
    inputs: list[InputDecl]
    funcs: list[FuncDecl]

    def func(self, name: str) -> FuncDecl:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# static validation


class _Scope:
    """The names that one block declares, each with its type and its frame
    slot (None for an input), inside the scope that holds the block."""

    def __init__(self, parent: "_Scope | None" = None):
        self.names: dict[str, tuple[Type, int | None]] = {}
        self.parent = parent

    def lookup(self, name: str) -> tuple[Type, int | None] | None:
        s: _Scope | None = self
        while s is not None:
            if name in s.names:
                return s.names[name]
            s = s.parent
        return None

    def declared_here(self, name: str) -> bool:
        return name in self.names


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list[Diagnostic] = []
        self.inputs: dict[str, InputDecl] = {}
        self.funcs: dict[str, FuncDecl] = {}
        self.calls: dict[str, set[str]] = {}
        self.current: FuncDecl | None = None
        # the name of each slot of the current function's frame
        self.slots: list[str] = []

    def err(self, message: str, loc: Loc) -> None:
        self.diags.append(error(message, loc))

    # --- top level ---

    def run(self) -> None:
        for decl in self.program.inputs:
            if decl.name in self.inputs:
                self.err(f"duplicate input '{decl.name}'", decl.loc)
                continue
            self.check_input(decl)
            self.inputs[decl.name] = decl
        for f in self.program.funcs:
            if f.name in self.funcs:
                self.err(f"duplicate function '{f.name}'", f.loc)
                continue
            if f.name in self.inputs:
                self.err(f"'{f.name}' is already declared as an input", f.loc)
                continue
            self.funcs[f.name] = f
        self.check_main()
        for f in self.funcs.values():
            self.calls[f.name] = set()
            self.check_func(f)
        self.check_recursion()

    def check_input(self, decl: InputDecl) -> None:
        if decl.ty is Type.INT:
            if decl.default is not None and decl.default <= 0:
                self.err(f"default for input '{decl.name}' must be positive", decl.loc)
        else:
            scope = _Scope()
            for name, prior in self.inputs.items():
                if prior.ty is Type.INT:
                    scope.names[name] = (Type.INT, None)
            assert decl.extent is not None
            ty = self.expr(decl.extent, scope)
            if ty is not None and ty is not Type.INT:
                self.err(f"extent of input '{decl.name}' must be an int", decl.extent.loc)

    def check_main(self) -> None:
        main = self.funcs.get("main")
        if main is None:
            loc = self.program.funcs[0].loc if self.program.funcs else NO_LOC_MAIN
            self.err("missing function 'main'", loc)
            return
        if main.params:
            self.err("main must take no parameters", main.loc)
        if main.ret is not Type.VOID:
            self.err("main must not return a value", main.loc)

    def check_recursion(self) -> None:
        state: dict[str, int] = {}  # 0 visiting, 1 done

        def visit(name: str, trail: list[str]) -> None:
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                cycle = trail[trail.index(name):]
                self.err(
                    f"recursive call cycle: {' -> '.join(cycle + [name])}",
                    self.funcs[name].loc,
                )
                return
            state[name] = 0
            for callee in sorted(self.calls.get(name, ())):
                if callee in self.funcs:
                    visit(callee, trail + [name])
            state[name] = 1

        for name in self.funcs:
            visit(name, [])

    # --- functions ---

    def check_func(self, f: FuncDecl) -> None:
        self.current = f
        self.slots = [p.name for p in f.params]
        scope = _Scope()
        for decl in self.inputs.values():
            scope.names[decl.name] = (decl.ty, None)
        local = _Scope(scope)
        for slot, p in enumerate(f.params):
            if p.name in self.inputs or p.name in self.funcs:
                self.err(f"parameter '{p.name}' shadows an input or function", p.loc)
            elif local.declared_here(p.name):
                self.err(f"duplicate parameter '{p.name}'", p.loc)
            else:
                local.names[p.name] = (p.ty, slot)
        self.block(f.body, local)
        if f.ret is not Type.VOID and not _returns(f.body):
            self.err(f"function '{f.name}' must return a value on all paths", f.loc)
        f.slots = tuple(self.slots)
        self.current = None

    # --- statements ---

    def block(self, b: Block, outer: _Scope) -> None:
        scope = _Scope(outer)
        for s in b.stmts:
            self.stmt(s, scope)

    def declare(self, name: str, ty: Type, scope: _Scope, loc: Loc) -> int:
        """The next slot of the frame, which name now resolves to in scope."""
        slot = len(self.slots)
        self.slots.append(name)
        if name in self.inputs or name in self.funcs:
            self.err(f"'{name}' shadows an input or function", loc)
        elif scope.declared_here(name):
            self.err(f"variable '{name}' already declared in this scope", loc)
        else:
            scope.names[name] = (ty, slot)
        return slot

    def stmt(self, s: Stmt, scope: _Scope) -> None:
        if isinstance(s, VarDecl):
            if s.init is not None:
                ty = self.expr(s.init, scope)
                if ty is not None and ty is not s.ty:
                    self.err(f"cannot initialize {s.ty.value} '{s.name}' with {ty.value}", s.loc)
            s.slot = self.declare(s.name, s.ty, scope, s.loc)
        elif isinstance(s, ArrDecl):
            ty = self.expr(s.extent, scope)
            if ty is not None and ty is not Type.INT:
                self.err("array extent must be an int", s.extent.loc)
            arr_ty = Type.INT_ARRAY if s.elem_ty is Type.INT else Type.REAL_ARRAY
            s.slot = self.declare(s.name, arr_ty, scope, s.loc)
        elif isinstance(s, Assign):
            self.check_assign(s, scope)
        elif isinstance(s, ChooseAssign):
            tty = self.lvalue(s.target, scope)
            if tty is not None and tty is not Type.INT:
                self.err("choose_int target must be an int variable", s.target.loc)
            aty = self.expr(s.arg, scope)
            if aty is not None and aty is not Type.INT:
                self.err("choose_int expects an int", s.arg.loc)
        elif isinstance(s, CallStmt):
            self.check_call(s, scope)
        elif isinstance(s, Block):
            self.block(s, scope)
        elif isinstance(s, If):
            cty = self.expr(s.cond, scope)
            if cty is not None and cty is not Type.BOOL:
                self.err("condition must be a bool", s.cond.loc)
            self.block(s.then, scope)
            if isinstance(s.els, Block):
                self.block(s.els, scope)
            elif isinstance(s.els, If):
                self.stmt(s.els, scope)
        elif isinstance(s, While):
            cty = self.expr(s.cond, scope)
            if cty is not None and cty is not Type.BOOL:
                self.err("condition must be a bool", s.cond.loc)
            self.block(s.body, scope)
        elif isinstance(s, Assert):
            cty = self.expr(s.cond, scope)
            if cty is not None and cty is not Type.BOOL:
                self.err("assert expects a bool", s.cond.loc)
        elif isinstance(s, Assume):
            cty = self.expr(s.cond, scope)
            if cty is not None and cty is not Type.BOOL:
                self.err("assume expects a bool", s.cond.loc)
        elif isinstance(s, Return):
            self.check_return(s, scope)
        elif isinstance(s, Print):
            for a in s.args:
                if isinstance(a, StrLit):
                    a.ty = Type.STRING
                    continue
                ty = self.expr(a, scope)
                if ty is Type.BOOL:
                    self.err("cannot print a bool", a.loc)
        else:
            raise AssertionError(f"unhandled statement {s!r}")

    def check_assign(self, s: Assign, scope: _Scope) -> None:
        tty = self.lvalue(s.target, scope)
        vty = self.expr(s.value, scope)
        if tty is not None and tty.is_array():
            self.err("arrays cannot be reassigned; write elements instead", s.target.loc)
            return
        if tty is not None and vty is not None and tty is not vty:
            self.err(f"cannot assign {vty.value} to {tty.value}", s.loc)

    def lvalue(self, target: Name | Index, scope: _Scope) -> Type | None:
        base = target if isinstance(target, Name) else target.base
        if base.name in self.inputs:
            self.err(f"cannot assign to input '{base.name}'", base.loc)
            return None
        return self.expr(target, scope)

    def check_call(self, s: CallStmt, scope: _Scope) -> None:
        self.calls.setdefault(self.current.name if self.current else "?", set()).add(s.name)
        f = self.funcs.get(s.name)
        if f is None:
            self.err(f"unknown function '{s.name}'", s.loc)
            for a in s.args:
                self.expr(a, scope)
            return
        if len(s.args) != len(f.params):
            self.err(
                f"'{s.name}' expects {len(f.params)} argument(s), got {len(s.args)}", s.loc
            )
        for a, p in zip(s.args, f.params):
            aty = self.expr(a, scope)
            if aty is not None and aty is not p.ty:
                self.err(
                    f"argument '{p.name}' of '{s.name}' expects {p.ty.value}, got {aty.value}",
                    a.loc,
                )
        if s.target is not None:
            tty = self.lvalue(s.target, scope)
            if f.ret is Type.VOID:
                self.err(f"'{s.name}' does not return a value", s.loc)
            elif tty is not None and tty is not f.ret:
                self.err(f"cannot assign {f.ret.value} result to {tty.value}", s.loc)

    def check_return(self, s: Return, scope: _Scope) -> None:
        assert self.current is not None
        ret = self.current.ret
        if s.value is None:
            if ret is not Type.VOID:
                self.err(f"'{self.current.name}' must return a {ret.value}", s.loc)
            return
        vty = self.expr(s.value, scope)
        if ret is Type.VOID:
            self.err(f"'{self.current.name}' does not return a value", s.loc)
        elif vty is not None and vty is not ret:
            self.err(f"return type mismatch: expected {ret.value}, got {vty.value}", s.loc)

    # --- expressions ---

    def expr(self, e: Expr, scope: _Scope) -> Type | None:
        ty = self._expr(e, scope)
        e.ty = ty
        return ty

    def _expr(self, e: Expr, scope: _Scope) -> Type | None:
        if isinstance(e, IntLit):
            return Type.INT
        if isinstance(e, DecLit):
            return Type.REAL
        if isinstance(e, StrLit):
            self.err("string literals are only allowed in print", e.loc)
            return None
        if isinstance(e, Name):
            found = scope.lookup(e.name)
            if found is None:
                self.err(f"unknown name '{e.name}'", e.loc)
                return None
            ty, e.slot = found
            return ty
        if isinstance(e, Index):
            bty = self.expr(e.base, scope)
            ity = self.expr(e.index, scope)
            if ity is not None and ity is not Type.INT:
                self.err("array index must be an int", e.index.loc)
            if bty is None:
                return None
            if not bty.is_array():
                self.err(f"cannot index {bty.value} '{e.base.name}'", e.base.loc)
                return None
            return bty.elem()
        if isinstance(e, Unary):
            oty = self.expr(e.operand, scope)
            if e.op == "!":
                if oty is not None and oty is not Type.BOOL:
                    self.err("'!' requires a bool operand", e.loc)
                return Type.BOOL
            if oty is not None and oty not in (Type.INT, Type.REAL):
                self.err("unary '-' requires an int or real operand", e.loc)
                return None
            return oty
        if isinstance(e, Binary):
            lty = self.expr(e.lhs, scope)
            rty = self.expr(e.rhs, scope)
            op = e.op
            if op in ("&&", "||"):
                for side in (lty, rty):
                    if side is not None and side is not Type.BOOL:
                        self.err(f"'{op}' requires bool operands", e.loc)
                return Type.BOOL
            if lty is None or rty is None:
                return Type.BOOL if op in ("<", "<=", "==", "!=") else None
            if op in ("<", "<=", "==", "!="):
                if lty is not rty or lty not in (Type.INT, Type.REAL):
                    self.err(f"'{op}' requires int or real operands of the same type", e.loc)
                return Type.BOOL
            if op == "/":
                if lty is not Type.REAL or rty is not Type.REAL:
                    self.err("'/' requires real operands", e.loc)
                return Type.REAL
            # + - *
            if lty is not rty or lty not in (Type.INT, Type.REAL):
                self.err(f"'{op}' requires int or real operands of the same type", e.loc)
                return None
            return lty
        if isinstance(e, EqualsCall):
            lty = self.expr(e.lhs, scope)
            rty = self.expr(e.rhs, scope)
            ok = (
                lty is not None
                and rty is not None
                and lty.is_array()
                and lty is rty
            )
            if lty is not None and rty is not None and not ok:
                self.err("equals expects two arrays with the same element type", e.loc)
            return Type.BOOL
        if isinstance(e, LenCall):
            aty = self.expr(e.arg, scope)
            if aty is not None and not aty.is_array():
                self.err("len expects an array", e.arg.loc)
            return Type.INT
        raise AssertionError(f"unhandled expression {e!r}")


NO_LOC_MAIN = Loc("<program>", 1, 1, 1)


def _returns(b: Block) -> bool:
    return any(_stmt_returns(s) for s in b.stmts)


def _stmt_returns(s: Stmt) -> bool:
    if isinstance(s, Return):
        return True
    if isinstance(s, Block):
        return _returns(s)
    if isinstance(s, If) and s.els is not None:
        then_ok = _returns(s.then)
        if isinstance(s.els, Block):
            return then_ok and _returns(s.els)
        return then_ok and _stmt_returns(s.els)
    return False


def validate(program: Program) -> list[Diagnostic]:
    """Run all static checks; annotate expression types and frame slots.
    Returns diagnostics. A program with any leaves every FuncDecl.slots
    None, which the engine refuses."""
    checker = _Checker(program)
    checker.run()
    if checker.diags:
        for f in program.funcs:
            f.slots = None
    return sorted(checker.diags, key=lambda d: (d.loc.file, d.loc.line, d.loc.col))


# ---------------------------------------------------------------------------
# pretty printing

_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
}

_UNARY_PREC = 6


def frac_to_decimal(v: Fraction) -> str:
    """Render a nonnegative rational whose denominator divides a power of ten."""
    den = v.denominator
    two = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    five = 0
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1 or v < 0:
        raise ValueError(f"{v} has no finite decimal form")
    k = max(two, five)
    scaled = v.numerator * 10**k // v.denominator
    if k == 0:
        return f"{scaled}.0"
    digits = str(scaled).rjust(k + 1, "0")
    return digits[:-k] + "." + digits[-k:]


def _expr_prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _PREC[e.op]
    if isinstance(e, Unary):
        return _UNARY_PREC
    return 9


def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, DecLit):
        return frac_to_decimal(e.value)
    if isinstance(e, StrLit):
        return f'"{e.value}"'
    if isinstance(e, Name):
        return e.name
    if isinstance(e, Index):
        return f"{e.base.name}[{render_expr(e.index)}]"
    if isinstance(e, Unary):
        inner = render_expr(e.operand)
        if _expr_prec(e.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return e.op + inner
    if isinstance(e, Binary):
        p = _PREC[e.op]
        lhs = render_expr(e.lhs)
        rhs = render_expr(e.rhs)
        lp = _expr_prec(e.lhs)
        rp = _expr_prec(e.rhs)
        if lp < p or (lp == p and p == 3):
            lhs = f"({lhs})"
        if rp < p or (rp == p):
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, EqualsCall):
        return f"equals({render_expr(e.lhs)}, {render_expr(e.rhs)})"
    if isinstance(e, LenCall):
        return f"len({render_expr(e.arg)})"
    raise AssertionError(f"unhandled expression {e!r}")


def _render_stmt(s: Stmt, ind: str, out: list[str]) -> None:
    if isinstance(s, VarDecl):
        if s.init is None:
            out.append(f"{ind}var {s.ty.value} {s.name};")
        else:
            out.append(f"{ind}var {s.ty.value} {s.name} = {render_expr(s.init)};")
    elif isinstance(s, ArrDecl):
        out.append(f"{ind}var {s.elem_ty.value} {s.name}[{render_expr(s.extent)}];")
    elif isinstance(s, Assign):
        out.append(f"{ind}{render_expr(s.target)} = {render_expr(s.value)};")
    elif isinstance(s, ChooseAssign):
        out.append(f"{ind}{s.target.name} = choose_int({render_expr(s.arg)});")
    elif isinstance(s, CallStmt):
        args = ", ".join(render_expr(a) for a in s.args)
        head = f"{s.target.name} = " if s.target is not None else ""
        out.append(f"{ind}{head}{s.name}({args});")
    elif isinstance(s, Block):
        out.append(f"{ind}{{")
        _render_body(s, ind, out)
        out.append(f"{ind}}}")
    elif isinstance(s, If):
        _render_if(s, ind, out)
    elif isinstance(s, While):
        out.append(f"{ind}while ({render_expr(s.cond)}) {{")
        _render_body(s.body, ind, out)
        out.append(f"{ind}}}")
    elif isinstance(s, Assert):
        out.append(f"{ind}assert({render_expr(s.cond)});")
    elif isinstance(s, Assume):
        out.append(f"{ind}assume({render_expr(s.cond)});")
    elif isinstance(s, Return):
        if s.value is None:
            out.append(f"{ind}return;")
        else:
            out.append(f"{ind}return {render_expr(s.value)};")
    elif isinstance(s, Print):
        args = ", ".join(render_expr(a) for a in s.args)
        out.append(f"{ind}print({args});")
    else:
        raise AssertionError(f"unhandled statement {s!r}")


def _render_body(b: Block, ind: str, out: list[str]) -> None:
    for s in b.stmts:
        _render_stmt(s, ind + "  ", out)


def _render_if(s: If, ind: str, out: list[str]) -> None:
    out.append(f"{ind}if ({render_expr(s.cond)}) {{")
    _render_body(s.then, ind, out)
    node = s
    while isinstance(node.els, If):
        node = node.els
        out.append(f"{ind}}} else if ({render_expr(node.cond)}) {{")
        _render_body(node.then, ind, out)
    if isinstance(node.els, Block):
        out.append(f"{ind}}} else {{")
        _render_body(node.els, ind, out)
    out.append(f"{ind}}}")


def pretty_print(program: Program) -> str:
    out: list[str] = []
    for decl in program.inputs:
        if decl.ty is Type.INT:
            if decl.default is None:
                out.append(f"input int {decl.name};")
            else:
                out.append(f"input int {decl.name} = {decl.default};")
        else:
            assert decl.extent is not None
            out.append(f"input real {decl.name}[{render_expr(decl.extent)}];")
    for f in program.funcs:
        if out:
            out.append("")
        params = ", ".join(f"{p.ty.value} {p.name}" for p in f.params)
        arrow = "" if f.ret is Type.VOID else f" -> {f.ret.value}"
        if f.body.stmts:
            out.append(f"func {f.name}({params}){arrow} {{")
            _render_body(f.body, "", out)
            out.append("}")
        else:
            out.append(f"func {f.name}({params}){arrow} {{}}")
    return "\n".join(out) + "\n"
