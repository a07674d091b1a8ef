"""Recursive-descent parser for MiniOO.

Grammar (EBNF):

    program    = { class_decl } ;
    class_decl = "class" IDENT [ ":" IDENT ] "{" { member } "}" ;
    member     = field_decl | method_decl ;
    field_decl = vis [ "static" ] [ "const" ] type IDENT ";" ;
    method_decl= vis [ "static" ] type IDENT "(" [ param { "," param } ] ")" block ;
    param      = type IDENT ;
    block      = "{" { stmt } "}" ;
    stmt       = type IDENT [ "=" expr ] ";"
               | lvalue "=" expr ";"
               | call ";"
               | "return" [ expr ] ";" ;
    lvalue     = [ "this" "." ] IDENT ;
    expr       = call | lvalue | INT | STRING ;
    call       = [ "this" "." ] IDENT "(" [ expr { "," expr } ] ")" ;
    vis        = "public" | "protected" | "private" ;
    type       = IDENT ;

On a syntax error the parser records the error with its span and re-syncs at
the next member or statement boundary, so one pass reports every problem; it
never returns a partial tree silently.

Blocks do not nest, so calls inside call arguments are the only nesting. It
is bounded by MAX_NESTING, far below the interpreter's recursion limit, so
neither this parser nor the recursive walkers over its trees can overflow
the stack; a deeper call is a syntax error at its opening parenthesis.
"""

from __future__ import annotations

from ..diagnostics import Code, MiniOoError, SourceError
from ..model import _VISIBILITIES
from . import ast
from .lexer import EOF, IDENT, INT, KEYWORD, PUNCT, STRING, Token, describe, tokenize

MAX_NESTING = 200
_PASSED = 4096  # tokens kept behind the parser's position until a member or class boundary


def parse(source: str) -> ast.Program:
    """Parse MiniOO source; raises MiniOoError listing every syntax error."""
    parser = _Parser(tokenize(source))
    program = parser.program()
    if parser.errors:
        raise MiniOoError(parser.errors)
    return program


class _SyncPoint(Exception):
    """Internal signal: abandon the current construct and re-sync."""


class _Parser:
    """Walks the token tuples by index. `pos` only moves past a token that is
    not EOF, and a second EOF pads the list, so tokens[pos + 1] always exists.
    At a member or class boundary, once more than `_PASSED` tokens lie behind
    `pos`, they are deleted and `pos` starts again at 0: every lookahead and
    error recovery stays within one member, so the tree and the tokens still
    ahead are what a parse holds, not the whole token list.

    A keyword or punctuation mark is matched by its text alone plus a check
    that the token is no string literal: no identifier, integer or EOF token
    can carry such a text."""

    __slots__ = ("tokens", "pos", "errors")

    def __init__(self, tokens: list[Token]) -> None:
        tokens.append(tokens[-1])
        self.tokens = tokens
        self.pos = 0
        self.errors: list[SourceError] = []

    # token plumbing

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[1] == text and tok[0] is not STRING

    def accept(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok[1] == text and tok[0] is not STRING:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[1] == text and tok[0] is not STRING:
            self.pos += 1
            return tok
        self.fail(f"expected '{text}' before {describe(tok)}")

    def expect_ident(self, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] is IDENT:
            self.pos += 1
            return tok
        self.fail(f"expected {what} before {describe(tok)}")

    def let_go(self) -> None:
        """Delete the tokens behind `pos` once there are more than `_PASSED`."""
        if self.pos > _PASSED:
            del self.tokens[:self.pos]
            self.pos = 0

    def fail(self, message: str) -> None:
        _, _, line, column = self.tokens[self.pos]
        self.errors.append(SourceError(Code.E_PARSE, message, line, column))
        raise _SyncPoint()

    def skip_until(self, *texts: str) -> None:
        """Advance past tokens until one of `texts` or EOF; consumes a ';'."""
        tokens, pos = self.tokens, self.pos
        while True:
            kind, text, _, _ = tokens[pos]
            if kind is EOF or (kind is not STRING and text in texts):
                break
            pos += 1
            if kind is PUNCT and text == ";":
                break
        self.pos = pos

    # grammar

    def program(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        while (tok := self.tokens[self.pos])[0] is not EOF:
            self.let_go()  # `tok` stays the token at `pos`
            if tok[1] == "class" and tok[0] is KEYWORD:
                try:
                    classes.append(self.class_decl())
                except _SyncPoint:
                    self.skip_until("class")
            else:
                self.errors.append(SourceError(
                    Code.E_PARSE, f"expected 'class' before {describe(tok)}",
                    tok[2], tok[3]))
                self.pos += 1
                self.skip_until("class")
        return ast.Program(tuple(classes))

    def class_decl(self) -> ast.ClassDecl:
        start = self.expect("class")
        name = self.expect_ident("class name")[1]
        parent = None
        if self.accept(":"):
            parent = self.expect_ident("parent class name")[1]
        self.expect("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while (tok := self.tokens[self.pos])[0] is not EOF and not (
                tok[1] == "}" and tok[0] is PUNCT):
            self.let_go()
            try:
                member = self.member()
            except _SyncPoint:
                self.skip_until("}", "public", "protected", "private")
                continue
            (fields if isinstance(member, ast.FieldDecl) else methods).append(member)
        self.expect("}")
        return ast.ClassDecl(_span(start), name, parent, tuple(fields), tuple(methods))

    def member(self) -> ast.FieldDecl | ast.MethodDecl:
        start = self.tokens[self.pos]
        vis = _VISIBILITIES.get(start[1]) if start[0] is KEYWORD else None
        if vis is None:
            self.fail(f"expected visibility before {describe(start)}")
        self.pos += 1
        is_static = self.accept("static")
        is_const = self.accept("const")
        type_name = self.expect_ident("type")[1]
        name = self.expect_ident("member name")[1]
        if not is_const and self.accept("("):
            params: list[ast.Param] = []
            if not self.at(")"):
                while True:
                    ptype = self.expect_ident("parameter type")
                    pname = self.expect_ident("parameter name")[1]
                    params.append(ast.Param(_span(ptype), ptype[1], pname))
                    if not self.accept(","):
                        break
            self.expect(")")
            return ast.MethodDecl(_span(start), vis, is_static, type_name, name,
                                  tuple(params), self.block())
        self.expect(";")
        return ast.FieldDecl(_span(start), vis, is_static, is_const, type_name, name)

    def block(self) -> tuple[ast.Stmt, ...]:
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while (tok := self.tokens[self.pos])[0] is not EOF and not (
                tok[1] == "}" and tok[0] is PUNCT):
            try:
                stmts.append(self.statement())
            except _SyncPoint:
                self.skip_until("}")
        self.expect("}")
        return tuple(stmts)

    def statement(self) -> ast.Stmt:
        pos = self.pos
        tok = self.tokens[pos]
        kind, text = tok[0], tok[1]
        if kind is IDENT:
            after = self.tokens[pos + 1]
            if after[0] is IDENT:
                # local declaration: type name [= expr] ;
                self.pos = pos + 2
                init = self.expression() if self.accept("=") else None
                self.expect(";")
                return ast.LocalDecl(_span(tok), text, after[1], init)
            if after[0] is PUNCT and after[1] == "=":
                self.pos = pos + 2
                value = self.expression()
                self.expect(";")
                span = _span(tok)
                return ast.Assign(span, ast.NameExpr(span, text), value)
            if after[0] is PUNCT and after[1] == "(":
                self.pos = pos + 1
                call = self.call_rest(ast.NameExpr(_span(tok), text))
                self.expect(";")
                return ast.CallStmt(call.span, call)
        elif kind is KEYWORD:
            if text == "return":
                self.pos = pos + 1
                value = None if self.at(";") else self.expression()
                self.expect(";")
                return ast.Return(_span(tok), value)
            if text == "this":
                target = self.this_name()
                if self.at("("):
                    call = self.call_rest(target)
                    self.expect(";")
                    return ast.CallStmt(call.span, call)
                self.expect("=")
                value = self.expression()
                self.expect(";")
                return ast.Assign(target.span, target, value)
        self.fail(f"expected a statement before {describe(tok)}")

    def this_name(self) -> ast.NameExpr:
        start = self.expect("this")
        self.expect(".")
        name = self.expect_ident("feature name")[1]
        return ast.NameExpr(_span(start), name, True)

    def call_rest(self, callee: ast.NameExpr, depth: int = 1) -> ast.CallExpr:
        """The rest of a call; depth counts the calls it is nested in, itself
        included."""
        if depth > MAX_NESTING:
            self.fail(f"calls nest deeper than {MAX_NESTING} levels")
        self.expect("(")
        args: list[ast.Expr] = []
        if not self.at(")"):
            while True:
                args.append(self.expression(depth))
                if not self.accept(","):
                    break
        self.expect(")")
        return ast.CallExpr(callee.span, callee.name, tuple(args), callee.this_qualified)

    def expression(self, depth: int = 0) -> ast.Expr:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind is IDENT:
            self.pos += 1
            expr = ast.NameExpr(_span(tok), tok[1])
        elif kind is KEYWORD and tok[1] == "this":
            expr = self.this_name()
        elif kind is INT:
            try:
                value = int(tok[1])
            except ValueError:  # more digits than int() converts
                self.fail(f"integer literal of {len(tok[1])} digits is too long")
            self.pos += 1
            return ast.IntLit(_span(tok), value)
        elif kind is STRING:
            self.pos += 1
            return ast.StrLit(_span(tok), tok[1])
        else:
            self.fail(f"expected an expression before {describe(tok)}")
        if self.at("("):
            return self.call_rest(expr, depth + 1)
        return expr


def _span(tok: Token) -> ast.Span:
    return tuple.__new__(ast.Span, tok[2:])  # skips Span's Python-level __new__
