"""Abstract syntax for VL programs: node types, static checks, printing.

A node class is a Record, declared by its fields alone, as its __slots__:
the fields up to and including `loc` are the constructor's required
parameters, in order, and those after `loc` are optional and default to
None. Nodes compare structurally. Source locations and what validation fills
in (inferred types and frame slots) are excluded from equality, so a
parse -> print -> parse round trip yields equal trees. The else side of an
If is always a Block: an empty one where there is no else, and one that
holds just the inner If for `else if`, so that `if (c) {}` equals
`if (c) {} else {}` and `else if (c) {}` equals `else { if (c) {} }`.

Validation is the one place that resolves names. Each parameter and
local declaration of a function gets a slot of its own in the function's
frame: the parameters 0..n-1 in order, then each declaration in the
order the checker meets it, an initializer before its own declaration.
Every Name records the slot it reads or writes (None for an input), each
declaration its own slot, each call the FuncDecl it calls, and each
function the names of its slots.
"""

from __future__ import annotations

import enum
from collections import ChainMap
from fractions import Fraction

from .diagnostics import Diagnostic, Loc


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


def init_from_slots(cls, defaults: tuple = ()) -> None:
    """Give cls a constructor that takes its __slots__ as parameters, in
    order, and stores each in its slot; the last len(defaults) of them may
    be left out and then take those defaults. It is a real function, so
    keywords, the TypeError of a missing field and inspect.signature are
    those of a hand-written one."""
    fields = cls.__slots__
    body = "".join(f"\n self.{f} = {f}" for f in fields) or " pass"
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init


class Record:
    """The one base of the syntax nodes and the engine's value records. A
    record class declares its fields as its __slots__, and its constructor
    takes them in that order (init_from_slots).
    - A class that names the defaults of its last fields with the class
      keyword `defaults` requires the others, and == and repr use all of
      its fields.
    - Otherwise, as a node, the fields up to and including `loc` are
      required; those after it, which validation fills in, default to
      None; and == and repr use the fields before `loc`, the node's
      structure. A class without `loc` requires and compares all of its
      fields.
    Records are mutable, so they are unhashable unless a class says
    otherwise."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()  # the fields that == and repr use, per class

    def __init_subclass__(cls, defaults: tuple | None = None) -> None:
        slots = cls.__slots__
        if defaults is None and "loc" in slots:
            loc = slots.index("loc")
            cls._compared = slots[:loc]
            defaults = (None,) * (len(slots) - loc - 1)
        else:
            cls._compared = slots
        init_from_slots(cls, defaults or ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._compared)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# expressions


class IntLit(Record):
    __slots__ = ("value", "loc", "ty")


class DecLit(Record):
    __slots__ = ("value", "loc", "ty")  # value: a Fraction


class StrLit(Record):
    __slots__ = ("value", "loc", "ty")


class Name(Record):
    __slots__ = ("name", "loc", "ty", "slot")


class Index(Record):
    __slots__ = ("base", "index", "loc", "ty")  # base: a Name


class Unary(Record):
    __slots__ = ("op", "operand", "loc", "ty")  # op: "-" or "!"


class Binary(Record):
    __slots__ = ("op", "lhs", "rhs", "loc", "ty")  # op: one of BINARY_LEVELS


class EqualsCall(Record):
    __slots__ = ("lhs", "rhs", "loc", "ty")


class LenCall(Record):
    __slots__ = ("arg", "loc", "ty")


Expr = IntLit | DecLit | StrLit | Name | Index | Unary | Binary | EqualsCall | LenCall

# VL's binary operators by precedence level, loosest first, each level left
# associative but the comparisons, which do not chain; unary - and ! bind
# tighter. The parser reads a > b as b < a and a >= b as b <= a.
BINARY_LEVELS = (("||",), ("&&",), ("<", "<=", "==", "!="), ("+", "-"), ("*", "/"))
LOGICAL = BINARY_LEVELS[0] + BINARY_LEVELS[1]
COMPARISONS = BINARY_LEVELS[2]


# ---------------------------------------------------------------------------
# statements


class VarDecl(Record):
    __slots__ = ("name", "ty", "init", "loc", "slot")  # ty: INT or REAL; init may be None


class ArrDecl(Record):
    __slots__ = ("name", "elem_ty", "extent", "loc", "slot")  # elem_ty: INT or REAL


class Assign(Record):
    __slots__ = ("target", "value", "loc")  # target: a Name or an Index


class ChooseAssign(Record):
    __slots__ = ("target", "arg", "loc")  # target: a Name


class CallStmt(Record):
    # target: a Name or None; callee: the FuncDecl that validation found
    __slots__ = ("name", "args", "target", "loc", "callee")


class Block(Record):
    __slots__ = ("stmts", "loc")


class If(Record):
    __slots__ = ("cond", "then", "els", "loc")  # els: a Block, empty where there is no else


class While(Record):
    __slots__ = ("cond", "body", "loc")


class Assert(Record):
    __slots__ = ("cond", "loc")


class Assume(Record):
    __slots__ = ("cond", "loc")


class Return(Record):
    __slots__ = ("value", "loc")  # value may be None


class Print(Record):
    __slots__ = ("args", "loc")


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


class Param(Record):
    __slots__ = ("name", "ty", "loc")  # ty: INT, REAL, INT_ARRAY or REAL_ARRAY


class FuncDecl(Record):
    # ret: INT, REAL or VOID; slots: the name of each frame slot;
    # translation, as an InputDecl's: made by the program's first Engine
    __slots__ = ("name", "params", "ret", "body", "loc", "slots", "translation")


class InputDecl(Record):
    # ty: INT (scalar, with an optional default) or REAL_ARRAY (with an extent)
    __slots__ = ("name", "ty", "extent", "default", "loc", "translation")


class Program(Record):
    __slots__ = ("inputs", "funcs")

    def func(self, name: str) -> FuncDecl:
        for f in self.funcs:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# static validation


class _Checker:
    """A scope is a ChainMap from each name in it to its type and its frame
    slot (None for an input): maps[0] holds the names that its block
    declares, and new_child() opens the scope of a block inside it."""

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
        self.diags.append(Diagnostic(message, loc))

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
        inputs = ChainMap({d.name: (d.ty, None) for d in self.inputs.values()})
        for f in self.funcs.values():
            self.calls[f.name] = set()
            self.check_func(f, inputs)
        self.check_recursion()

    def check_input(self, decl: InputDecl) -> None:
        if decl.ty is Type.INT:
            if decl.default is not None and decl.default <= 0:
                self.err(f"default for input '{decl.name}' must be positive", decl.loc)
        else:
            ints = {n: (Type.INT, None) for n, d in self.inputs.items() if d.ty is Type.INT}
            assert decl.extent is not None
            message = f"extent of input '{decl.name}' must be an int"
            self.want(decl.extent, ChainMap(ints), Type.INT, message)

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
        """Report each cycle that a depth-first walk of the call graph meets,
        from each function not yet reached, in declaration order, to its
        callees in name order, with the path and its callees left on stacks."""
        state: dict[str, bool] = {}  # False while on the path, True once done
        for root in self.funcs:
            if root in state:
                continue
            state[root] = False
            path, callees = [root], [iter(sorted(self.calls[root]))]
            while path:
                name = next(callees[-1], None)
                if name is None:
                    state[path.pop()] = True
                    callees.pop()
                elif state.get(name) is False:
                    cycle = path[path.index(name):] + [name]
                    self.err(f"recursive call cycle: {' -> '.join(cycle)}", self.funcs[name].loc)
                elif name in self.funcs and name not in state:
                    state[name] = False
                    path.append(name)
                    callees.append(iter(sorted(self.calls[name])))

    # --- functions ---

    def check_func(self, f: FuncDecl, inputs: ChainMap) -> None:
        self.current = f
        self.slots = [p.name for p in f.params]
        local = inputs.new_child()
        for slot, p in enumerate(f.params):
            if p.name in self.inputs or p.name in self.funcs:
                self.err(f"parameter '{p.name}' shadows an input or function", p.loc)
            elif p.name in local.maps[0]:
                self.err(f"duplicate parameter '{p.name}'", p.loc)
            else:
                local[p.name] = (p.ty, slot)
        self.block(f.body, local)
        if f.ret is not Type.VOID and not _returns(f.body):
            self.err(f"function '{f.name}' must return a value on all paths", f.loc)
        f.slots = tuple(self.slots)
        self.current = None

    # --- statements ---

    def block(self, b: Block, outer: ChainMap) -> None:
        scope = outer.new_child()
        for s in b.stmts:
            self.stmt(s, scope)

    def declare(self, name: str, ty: Type, scope: ChainMap, loc: Loc) -> int:
        """The next slot of the frame, which name now resolves to in scope."""
        slot = len(self.slots)
        self.slots.append(name)
        if name in self.inputs or name in self.funcs:
            self.err(f"'{name}' shadows an input or function", loc)
        elif name in scope.maps[0]:
            self.err(f"variable '{name}' already declared in this scope", loc)
        else:
            scope[name] = (ty, slot)
        return slot

    def stmt(self, s: Stmt, scope: ChainMap) -> None:
        if isinstance(s, VarDecl):
            if s.init is not None:
                ty = self.expr(s.init, scope)
                if ty is not None and ty is not s.ty:
                    self.err(f"cannot initialize {s.ty.value} '{s.name}' with {ty.value}", s.loc)
            s.slot = self.declare(s.name, s.ty, scope, s.loc)
        elif isinstance(s, ArrDecl):
            self.want(s.extent, scope, Type.INT, "array extent must be an int")
            arr_ty = Type.INT_ARRAY if s.elem_ty is Type.INT else Type.REAL_ARRAY
            s.slot = self.declare(s.name, arr_ty, scope, s.loc)
        elif isinstance(s, Assign):
            self.check_assign(s, scope)
        elif isinstance(s, ChooseAssign):
            tty = self.lvalue(s.target, scope)
            if tty is not None and tty is not Type.INT:
                self.err("choose_int target must be an int variable", s.target.loc)
            self.want(s.arg, scope, Type.INT, "choose_int expects an int")
        elif isinstance(s, CallStmt):
            self.check_call(s, scope)
        elif isinstance(s, Block):
            self.block(s, scope)
        elif isinstance(s, If):
            self.want(s.cond, scope, Type.BOOL, "condition must be a bool")
            self.block(s.then, scope)
            self.block(s.els, scope)
        elif isinstance(s, While):
            self.want(s.cond, scope, Type.BOOL, "condition must be a bool")
            self.block(s.body, scope)
        elif isinstance(s, (Assert, Assume)):
            self.want(s.cond, scope, Type.BOOL, f"{type(s).__name__.lower()} expects a bool")
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

    def check_assign(self, s: Assign, scope: ChainMap) -> None:
        tty = self.lvalue(s.target, scope)
        vty = self.expr(s.value, scope)
        if tty is not None and tty.is_array():
            self.err("arrays cannot be reassigned; write elements instead", s.target.loc)
            return
        if tty is not None and vty is not None and tty is not vty:
            self.err(f"cannot assign {vty.value} to {tty.value}", s.loc)

    def lvalue(self, target: Name | Index, scope: ChainMap) -> Type | None:
        base = target if isinstance(target, Name) else target.base
        if base.name in self.inputs:
            self.err(f"cannot assign to input '{base.name}'", base.loc)
            return None
        return self.expr(target, scope)

    def check_call(self, s: CallStmt, scope: ChainMap) -> None:
        self.calls[self.current.name].add(s.name)
        s.callee = f = self.funcs.get(s.name)
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

    def check_return(self, s: Return, scope: ChainMap) -> None:
        assert self.current is not None
        ret = self.current.ret
        if s.value is None:
            if ret is not Type.VOID:
                article = "an" if ret.value[0] in "aeiou" else "a"
                self.err(f"'{self.current.name}' must return {article} {ret.value}", s.loc)
            return
        vty = self.expr(s.value, scope)
        if ret is Type.VOID:
            self.err(f"'{self.current.name}' does not return a value", s.loc)
        elif vty is not None and vty is not ret:
            self.err(f"return type mismatch: expected {ret.value}, got {vty.value}", s.loc)

    # --- expressions ---

    def expr(self, e: Expr, scope: ChainMap) -> Type | None:
        ty = self._expr(e, scope)
        e.ty = ty
        return ty

    def want(self, e: Expr, scope: ChainMap, ty: Type, message: str) -> None:
        """Check e; report message at e if its type is known and not ty."""
        found = self.expr(e, scope)
        if found is not None and found is not ty:
            self.err(message, e.loc)

    def _expr(self, e: Expr, scope: ChainMap) -> Type | None:
        if isinstance(e, IntLit):
            return Type.INT
        if isinstance(e, DecLit):
            return Type.REAL
        if isinstance(e, Name):
            found = scope.get(e.name)
            if found is None:
                self.err(f"unknown name '{e.name}'", e.loc)
                return None
            ty, e.slot = found
            return ty
        if isinstance(e, Index):
            bty = self.expr(e.base, scope)
            self.want(e.index, scope, Type.INT, "array index must be an int")
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
            if op in LOGICAL:
                for side in (lty, rty):
                    if side is not None and side is not Type.BOOL:
                        self.err(f"'{op}' requires bool operands", e.loc)
                return Type.BOOL
            if lty is None or rty is None:
                return Type.BOOL if op in COMPARISONS else None
            if op in COMPARISONS:
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
    if isinstance(s, If):
        return _returns(s.then) and _returns(s.els)
    return False


def validate(program: Program) -> list[Diagnostic]:
    """Run all static checks; annotate expression types and frame slots,
    and drop the translations that an engine made from earlier ones.
    Returns diagnostics. A program with any leaves every FuncDecl.slots
    None, which the engine refuses."""
    for decl in (*program.inputs, *program.funcs):
        decl.translation = None
    checker = _Checker(program)
    checker.run()
    if checker.diags:
        for f in program.funcs:
            f.slots = None
    return sorted(checker.diags, key=lambda d: (d.loc.file, d.loc.line, d.loc.col))


# ---------------------------------------------------------------------------
# pretty printing

_PREC = {op: p for p, ops in enumerate(BINARY_LEVELS, 1) for op in ops}
_UNARY_PREC = len(BINARY_LEVELS) + 1


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
        if lp < p or (lp == p and e.op in COMPARISONS):
            lhs = f"({lhs})"
        if rp <= p:
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
    els = s.els
    while len(els.stmts) == 1 and isinstance(els.stmts[0], If):
        s = els.stmts[0]
        out.append(f"{ind}}} else if ({render_expr(s.cond)}) {{")
        _render_body(s.then, ind, out)
        els = s.els
    if els.stmts:
        out.append(f"{ind}}} else {{")
        _render_body(els, ind, out)
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
