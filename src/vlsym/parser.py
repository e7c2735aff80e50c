"""Recursive-descent parser for VL.

`for` loops are rewritten into `while` loops here, and `>` / `>=`
comparisons are stored as `<` / `<=` with the operands flipped, so later
stages only ever see the smaller statement and operator sets.
"""

from __future__ import annotations

from . import ast
from .diagnostics import Diagnostic, Loc, error
from .lexer import LexError, TokKind, Token, decimal_to_fraction, tokenize

MAX_DEPTH = 200


class ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, toks: list[Token], file: str):
        self.toks = toks
        self.file = file
        self.i = 0
        self.depth = 0

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokKind.EOF:
            self.i += 1
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(error(message, tok.loc))

    def expect_punct(self, p: str) -> Token:
        tok = self.peek()
        if not tok.is_punct(p):
            raise self.fail(f"expected '{p}' but found {self.describe(tok)}")
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        tok = self.peek()
        if not tok.is_kw(word):
            raise self.fail(f"expected '{word}' but found {self.describe(tok)}")
        return self.advance()

    def expect_ident(self, what: str = "name") -> Token:
        tok = self.peek()
        if tok.kind is not TokKind.IDENT:
            raise self.fail(f"expected {what} but found {self.describe(tok)}")
        return self.advance()

    @staticmethod
    def describe(tok: Token) -> str:
        if tok.kind is TokKind.EOF:
            return "end of input"
        return f"'{tok.lexeme}'"

    def span(self, start: Token) -> Loc:
        last = self.toks[max(0, self.i - 1)]
        if last.line == start.line and last.loc.end_col >= start.col:
            return Loc(self.file, start.line, start.col, last.loc.end_col)
        return start.loc

    def guard(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.fail("nesting too deep")

    def scalar_type(self, message: str) -> ast.Type:
        """The type that the next token, 'int' or 'real', names; message is
        the error where it is neither."""
        tok = self.peek()
        if tok.is_kw("int"):
            ty = ast.Type.INT
        elif tok.is_kw("real"):
            ty = ast.Type.REAL
        else:
            raise self.fail(message)
        self.advance()
        return ty

    def paren_list(self, item) -> list:
        """A parenthesised, comma-separated list of what item parses."""
        self.expect_punct("(")
        items = []
        if not self.peek().is_punct(")"):
            items.append(item())
            while self.peek().is_punct(","):
                self.advance()
                items.append(item())
        self.expect_punct(")")
        return items

    # --- declarations ---

    def program(self) -> tuple[list[ast.InputDecl], list[ast.FuncDecl]]:
        inputs: list[ast.InputDecl] = []
        funcs: list[ast.FuncDecl] = []
        while True:
            tok = self.peek()
            if tok.kind is TokKind.EOF:
                return inputs, funcs
            if tok.is_kw("input"):
                inputs.append(self.input_decl())
            elif tok.is_kw("func"):
                funcs.append(self.func_decl())
            else:
                raise self.fail(f"expected 'input' or 'func' but found {self.describe(tok)}")

    def input_decl(self) -> ast.InputDecl:
        start = self.expect_kw("input")
        tok = self.peek()
        if tok.is_kw("int"):
            self.advance()
            name = self.expect_ident("input name")
            default = None
            if self.peek().is_punct("="):
                self.advance()
                lit = self.peek()
                if lit.kind is not TokKind.INT_LIT:
                    raise self.fail("input default must be an integer literal")
                self.advance()
                default = int(lit.lexeme)
            self.expect_punct(";")
            return ast.InputDecl(name.lexeme, ast.Type.INT, None, default, self.span(start))
        if tok.is_kw("real"):
            self.advance()
            name = self.expect_ident("input name")
            self.expect_punct("[")
            extent = self.expr()
            self.expect_punct("]")
            self.expect_punct(";")
            return ast.InputDecl(name.lexeme, ast.Type.REAL_ARRAY, extent, None, self.span(start))
        raise self.fail("input must be 'int name;' or 'real name[extent];'")

    def func_decl(self) -> ast.FuncDecl:
        start = self.expect_kw("func")
        name = self.expect_ident("function name")
        params = self.paren_list(self.param)
        ret = ast.Type.VOID
        if self.peek().is_punct("->"):
            self.advance()
            ret = self.scalar_type("return type must be 'int' or 'real'")
        header = self.span(start)
        body = self.block()
        return ast.FuncDecl(name.lexeme, params, ret, body, header)

    def param(self) -> ast.Param:
        tok = self.peek()
        ty = self.scalar_type("parameter type must be 'int' or 'real'")
        if self.peek().is_punct("["):
            self.advance()
            self.expect_punct("]")
            ty = ast.Type.INT_ARRAY if ty is ast.Type.INT else ast.Type.REAL_ARRAY
        name = self.expect_ident("parameter name")
        return ast.Param(name.lexeme, ty, self.span(tok))

    # --- statements ---

    def block(self) -> ast.Block:
        self.guard()
        start = self.expect_punct("{")
        stmts: list[ast.Stmt] = []
        while not self.peek().is_punct("}"):
            if self.peek().kind is TokKind.EOF:
                raise self.fail("expected '}' before end of input")
            stmts.extend(self.stmt())
        self.expect_punct("}")
        self.depth -= 1
        return ast.Block(stmts, start.loc)

    def stmt(self) -> list[ast.Stmt]:
        self.guard()
        try:
            return self._stmt()
        finally:
            self.depth -= 1

    def _stmt(self) -> list[ast.Stmt]:
        tok = self.peek()
        if tok.is_punct("{"):
            return [self.block()]
        if tok.is_kw("var"):
            return [self.var_decl()]
        if tok.is_kw("if"):
            return [self.if_stmt()]
        if tok.is_kw("while"):
            return [self.while_stmt()]
        if tok.is_kw("for"):
            return self.for_stmt()
        if tok.is_kw("return"):
            self.advance()
            value = None
            if not self.peek().is_punct(";"):
                value = self.expr()
            self.expect_punct(";")
            return [ast.Return(value, self.span(tok))]
        if tok.is_kw("assert") or tok.is_kw("assume"):
            self.advance()
            self.expect_punct("(")
            cond = self.expr()
            self.expect_punct(")")
            self.expect_punct(";")
            loc = self.span(tok)
            return [ast.Assert(cond, loc) if tok.lexeme == "assert" else ast.Assume(cond, loc)]
        if tok.is_kw("print"):
            self.advance()
            args = self.paren_list(self.print_arg)
            self.expect_punct(";")
            return [ast.Print(args, self.span(tok))]
        if tok.kind is TokKind.IDENT:
            return [self.call_or_assign()]
        raise self.fail(f"expected a statement but found {self.describe(tok)}")

    def var_decl(self) -> ast.Stmt:
        start = self.expect_kw("var")
        ty = self.scalar_type("variable type must be 'int' or 'real'")
        name = self.expect_ident("variable name")
        if self.peek().is_punct("["):
            self.advance()
            extent = self.expr()
            self.expect_punct("]")
            self.expect_punct(";")
            return ast.ArrDecl(name.lexeme, ty, extent, self.span(start))
        init = None
        if self.peek().is_punct("="):
            self.advance()
            init = self.expr()
        self.expect_punct(";")
        return ast.VarDecl(name.lexeme, ty, init, self.span(start))

    def if_stmt(self) -> ast.If:
        start = self.expect_kw("if")
        self.expect_punct("(")
        cond = self.expr()
        self.expect_punct(")")
        header = self.span(start)
        then = self.block()
        els: ast.Block | ast.If | None = None
        if self.peek().is_kw("else"):
            self.advance()
            if self.peek().is_kw("if"):
                els = self.if_stmt()
            else:
                els = self.block()
        return ast.If(cond, then, els, header)

    def while_stmt(self) -> ast.While:
        start = self.expect_kw("while")
        self.expect_punct("(")
        cond = self.expr()
        self.expect_punct(")")
        header = self.span(start)
        body = self.block()
        return ast.While(cond, body, header)

    def for_stmt(self) -> list[ast.Stmt]:
        start = self.expect_kw("for")
        self.expect_punct("(")
        init: ast.Assign | ast.VarDecl | None = None
        if self.peek().is_kw("var"):
            var_tok = self.advance()
            ty = self.scalar_type("expected 'int' or 'real'")
            name = self.expect_ident("loop variable")
            self.expect_punct("=")
            value = self.expr()
            init = ast.VarDecl(name.lexeme, ty, value, self.span(var_tok))
        elif not self.peek().is_punct(";"):
            name = self.expect_ident("loop variable")
            self.expect_punct("=")
            value = self.expr()
            init = ast.Assign(ast.Name(name.lexeme, name.loc), value, self.span(name))
        self.expect_punct(";")
        cond = self.expr()
        self.expect_punct(";")
        update: ast.Assign | None = None
        if not self.peek().is_punct(")"):
            name = self.expect_ident("loop variable")
            plus = self.expect_punct("++")
            update = ast.Assign(
                ast.Name(name.lexeme, name.loc),
                ast.Binary(
                    "+",
                    ast.Name(name.lexeme, name.loc),
                    ast.IntLit(1, plus.loc),
                    plus.loc,
                ),
                self.span(name),
            )
        self.expect_punct(")")
        header = self.span(start)
        body = self.block()
        stmts = list(body.stmts)
        if update is not None:
            stmts.append(update)
        loop = ast.While(cond, ast.Block(stmts, body.loc), header)
        if isinstance(init, ast.VarDecl):
            # scope the loop variable so sibling loops can reuse its name
            return [ast.Block([init, loop], header)]
        return [init, loop] if init is not None else [loop]

    def call_or_assign(self) -> ast.Stmt:
        name = self.expect_ident()
        nxt = self.peek()
        if nxt.is_punct("("):
            args = self.paren_list(self.expr)
            self.expect_punct(";")
            return ast.CallStmt(name.lexeme, args, None, self.span(name))
        if nxt.is_punct("["):
            self.advance()
            index = self.expr()
            close = self.expect_punct("]")
            target = ast.Index(
                ast.Name(name.lexeme, name.loc),
                index,
                Loc(self.file, name.line, name.col, close.loc.end_col),
            )
            self.expect_punct("=")
            value = self.expr()
            self.expect_punct(";")
            return ast.Assign(target, value, self.span(name))
        if nxt.is_punct("="):
            self.advance()
            target = ast.Name(name.lexeme, name.loc)
            if self.peek().is_kw("choose_int"):
                self.advance()
                self.expect_punct("(")
                arg = self.expr()
                self.expect_punct(")")
                if not self.peek().is_punct(";"):
                    raise self.fail(
                        "choose_int may only appear as the whole right-hand side of an assignment"
                    )
                self.advance()
                return ast.ChooseAssign(target, arg, self.span(name))
            if self.peek().kind is TokKind.IDENT and self.peek(1).is_punct("("):
                callee = self.advance()
                args = self.paren_list(self.expr)
                if not self.peek().is_punct(";"):
                    raise self.fail("function calls are only allowed as statements")
                self.advance()
                return ast.CallStmt(callee.lexeme, args, target, self.span(name))
            value = self.expr()
            self.expect_punct(";")
            return ast.Assign(target, value, self.span(name))
        raise self.fail(f"expected '(', '[' or '=' but found {self.describe(nxt)}")

    def print_arg(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokKind.STR_LIT:
            self.advance()
            return ast.StrLit(tok.lexeme, tok.loc)
        return self.expr()

    # --- expressions ---

    def expr(self) -> ast.Expr:
        self.guard()
        try:
            return self.or_expr()
        finally:
            self.depth -= 1

    def chain(self, ops: tuple[str, ...], operand) -> ast.Expr:
        """operand (op operand)* for op in ops, as a left-deep tree. Each
        operator adds a level to that tree, so each one counts toward
        MAX_DEPTH until the chain ends."""
        e = operand()
        depth = self.depth
        try:
            while self.peek().kind is TokKind.PUNCT and self.peek().lexeme in ops:
                op = self.advance()
                self.guard()
                rhs = operand()
                e = ast.Binary(op.lexeme, e, rhs, self.binop_loc(e, rhs))
            return e
        finally:
            self.depth = depth

    def or_expr(self) -> ast.Expr:
        return self.chain(("||",), self.and_expr)

    def and_expr(self) -> ast.Expr:
        return self.chain(("&&",), self.cmp_expr)

    def cmp_expr(self) -> ast.Expr:
        e = self.add_expr()
        tok = self.peek()
        if tok.kind is TokKind.PUNCT and tok.lexeme in ("<", "<=", ">", ">=", "==", "!="):
            self.advance()
            rhs = self.add_expr()
            loc = self.binop_loc(e, rhs)
            if tok.lexeme == ">":
                e = ast.Binary("<", rhs, e, loc)
            elif tok.lexeme == ">=":
                e = ast.Binary("<=", rhs, e, loc)
            else:
                e = ast.Binary(tok.lexeme, e, rhs, loc)
            after = self.peek()
            if after.kind is TokKind.PUNCT and after.lexeme in ("<", "<=", ">", ">=", "==", "!="):
                raise self.fail("comparisons do not chain; use parentheses")
        return e

    def add_expr(self) -> ast.Expr:
        return self.chain(("+", "-"), self.mul_expr)

    def mul_expr(self) -> ast.Expr:
        return self.chain(("*", "/"), self.unary_expr)

    def unary_expr(self) -> ast.Expr:
        self.guard()
        try:
            tok = self.peek()
            if tok.kind is TokKind.PUNCT and tok.lexeme in ("-", "!"):
                self.advance()
                operand = self.unary_expr()
                return ast.Unary(tok.lexeme, operand, self.merge(tok.loc, operand.loc))
            return self.primary()
        finally:
            self.depth -= 1

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokKind.INT_LIT:
            self.advance()
            return ast.IntLit(int(tok.lexeme), tok.loc)
        if tok.kind is TokKind.DEC_LIT:
            self.advance()
            return ast.DecLit(decimal_to_fraction(tok.lexeme), tok.loc)
        if tok.kind is TokKind.STR_LIT:
            raise self.fail("string literals are only allowed in print")
        if tok.is_kw("choose_int"):
            raise self.fail(
                "choose_int may only appear as the whole right-hand side of an assignment"
            )
        if tok.is_kw("equals"):
            self.advance()
            self.expect_punct("(")
            lhs = self.expr()
            self.expect_punct(",")
            rhs = self.expr()
            close = self.expect_punct(")")
            return ast.EqualsCall(lhs, rhs, self.merge(tok.loc, close.loc))
        if tok.is_kw("len"):
            self.advance()
            self.expect_punct("(")
            arg = self.expr()
            close = self.expect_punct(")")
            return ast.LenCall(arg, self.merge(tok.loc, close.loc))
        if tok.kind is TokKind.IDENT:
            self.advance()
            if self.peek().is_punct("["):
                self.advance()
                index = self.expr()
                close = self.expect_punct("]")
                return ast.Index(
                    ast.Name(tok.lexeme, tok.loc),
                    index,
                    self.merge(tok.loc, close.loc),
                )
            if self.peek().is_punct("("):
                raise self.fail("function calls are only allowed as statements", tok)
            return ast.Name(tok.lexeme, tok.loc)
        if tok.is_punct("("):
            self.advance()
            e = self.expr()
            self.expect_punct(")")
            return e
        raise self.fail(f"expected an expression but found {self.describe(tok)}")

    def binop_loc(self, lhs: ast.Expr, rhs: ast.Expr) -> Loc:
        return self.merge(lhs.loc, rhs.loc)

    def merge(self, a: Loc, b: Loc) -> Loc:
        if a.line == b.line:
            return Loc(a.file, a.line, a.col, max(a.end_col, b.end_col))
        return a


def parse_files(files: list[tuple[str, str]]) -> ast.Program | list[Diagnostic]:
    """Parse one or more named sources into a single merged program.

    Returns the program on success, else the diagnostics for the first
    error encountered.
    """
    inputs: list[ast.InputDecl] = []
    funcs: list[ast.FuncDecl] = []
    for name, text in files:
        try:
            toks = tokenize(text, name)
            file_inputs, file_funcs = _Parser(toks, name).program()
        except LexError as exc:
            return [exc.diagnostic]
        except ParseError as exc:
            return [exc.diagnostic]
        except RecursionError:
            return [error("nesting too deep", Loc(name, 1, 1, 1))]
        inputs.extend(file_inputs)
        funcs.extend(file_funcs)
    return ast.Program(inputs, funcs)


def parse_program(text: str, file: str = "<input>") -> ast.Program:
    """Parse a single source, raising on any error. Test convenience."""
    result = parse_files([(file, text)])
    if isinstance(result, list):
        raise ParseError(result[0])
    return result


def load_program(files: list[tuple[str, str]]) -> ast.Program | list[Diagnostic]:
    """Parse and validate; returns the annotated program or diagnostics."""
    result = parse_files(files)
    if isinstance(result, list):
        return result
    diags = ast.validate(result)
    if diags:
        return diags
    return result
