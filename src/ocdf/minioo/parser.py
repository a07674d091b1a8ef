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
from ..model import Visibility
from . import ast
from .lexer import Token, TokKind, tokenize

MAX_NESTING = 200

_VISIBILITIES = {"public": Visibility.PUBLIC,
                 "protected": Visibility.PROTECTED,
                 "private": Visibility.PRIVATE}


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
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.errors: list[SourceError] = []

    # token plumbing

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind in (TokKind.PUNCT, TokKind.KEYWORD) and tok.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.next()
        self.fail(f"expected '{text}' before {self.peek().describe()}")

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind is TokKind.IDENT:
            return self.next()
        self.fail(f"expected {what} before {tok.describe()}")

    def fail(self, message: str) -> None:
        tok = self.peek()
        self.errors.append(SourceError(Code.E_PARSE, message, tok.line, tok.column))
        raise _SyncPoint()

    def skip_until(self, *texts: str) -> None:
        """Advance past tokens until one of `texts` or EOF; consumes a ';'."""
        while self.peek().kind is not TokKind.EOF:
            if self.at(";"):
                self.next()
                return
            if any(self.at(t) for t in texts):
                return
            self.next()

    # grammar

    def program(self) -> ast.Program:
        classes: list[ast.ClassDecl] = []
        while self.peek().kind is not TokKind.EOF:
            if self.at("class"):
                try:
                    classes.append(self.class_decl())
                except _SyncPoint:
                    self.skip_until("class")
            else:
                tok = self.peek()
                self.errors.append(SourceError(
                    Code.E_PARSE, f"expected 'class' before {tok.describe()}",
                    tok.line, tok.column))
                self.next()
                self.skip_until("class")
        return ast.Program(classes=tuple(classes))

    def class_decl(self) -> ast.ClassDecl:
        start = self.expect("class")
        name = self.expect_ident("class name")
        parent = None
        if self.accept(":"):
            parent = self.expect_ident("parent class name").text
        self.expect("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self.at("}") and self.peek().kind is not TokKind.EOF:
            try:
                member = self.member()
            except _SyncPoint:
                self.skip_until("}", "public", "protected", "private")
                continue
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self.expect("}")
        return ast.ClassDecl(span=_span(start), name=name.text, parent=parent,
                             fields=tuple(fields), methods=tuple(methods))

    def member(self) -> ast.FieldDecl | ast.MethodDecl:
        start = self.peek()
        vis = _VISIBILITIES.get(start.text) if start.kind is TokKind.KEYWORD else None
        if vis is None:
            self.fail(f"expected visibility before {start.describe()}")
        self.next()
        is_static = self.accept("static")
        is_const = self.accept("const")
        type_name = self.expect_ident("type").text
        name = self.expect_ident("member name").text
        if not is_const and self.at("("):
            return self.method_rest(start, vis, is_static, type_name, name)
        self.expect(";")
        return ast.FieldDecl(span=_span(start), visibility=vis, is_static=is_static,
                             is_const=is_const, type_name=type_name, name=name)

    def method_rest(self, start: Token, vis: Visibility, is_static: bool,
                    return_type: str, name: str) -> ast.MethodDecl:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                ptype = self.expect_ident("parameter type")
                pname = self.expect_ident("parameter name")
                params.append(ast.Param(span=_span(ptype), type_name=ptype.text,
                                        name=pname.text))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.block()
        return ast.MethodDecl(span=_span(start), visibility=vis, is_static=is_static,
                              return_type=return_type, name=name,
                              params=tuple(params), body=tuple(body))

    def block(self) -> list[ast.Stmt]:
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.at("}") and self.peek().kind is not TokKind.EOF:
            try:
                stmts.append(self.statement())
            except _SyncPoint:
                self.skip_until("}")
        self.expect("}")
        return stmts

    def statement(self) -> ast.Stmt:
        tok = self.peek()
        if self.at("return"):
            self.next()
            value = None if self.at(";") else self.expression()
            self.expect(";")
            return ast.Return(span=_span(tok), value=value)
        if self.at("this"):
            target = self.this_name()
            if self.at("("):
                call = self.call_rest(target)
                self.expect(";")
                return ast.CallStmt(span=_span(tok), call=call)
            self.expect("=")
            value = self.expression()
            self.expect(";")
            return ast.Assign(span=_span(tok), target=target, value=value)
        if tok.kind is TokKind.IDENT:
            after = self.peek(1)
            if after.kind is TokKind.IDENT:
                # local declaration: type name [= expr] ;
                self.next()
                name = self.next()
                init = self.expression() if self.accept("=") else None
                self.expect(";")
                return ast.LocalDecl(span=_span(tok), type_name=tok.text,
                                     name=name.text, init=init)
            if after.kind is TokKind.PUNCT and after.text == "=":
                self.next()
                self.next()
                value = self.expression()
                self.expect(";")
                target = ast.NameExpr(span=_span(tok), name=tok.text)
                return ast.Assign(span=_span(tok), target=target, value=value)
            if after.kind is TokKind.PUNCT and after.text == "(":
                name = ast.NameExpr(span=_span(tok), name=self.next().text)
                call = self.call_rest(name)
                self.expect(";")
                return ast.CallStmt(span=_span(tok), call=call)
        self.fail(f"expected a statement before {tok.describe()}")

    def this_name(self) -> ast.NameExpr:
        start = self.expect("this")
        self.expect(".")
        name = self.expect_ident("feature name")
        return ast.NameExpr(span=_span(start), name=name.text, this_qualified=True)

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
        return ast.CallExpr(span=callee.span, name=callee.name, args=tuple(args),
                            this_qualified=callee.this_qualified)

    def expression(self, depth: int = 0) -> ast.Expr:
        tok = self.peek()
        if tok.kind is TokKind.INT:
            self.next()
            return ast.IntLit(span=_span(tok), value=int(tok.text))
        if tok.kind is TokKind.STRING:
            self.next()
            return ast.StrLit(span=_span(tok), value=tok.text)
        if self.at("this"):
            name = self.this_name()
            if self.at("("):
                return self.call_rest(name, depth + 1)
            return name
        if tok.kind is TokKind.IDENT:
            self.next()
            name = ast.NameExpr(span=_span(tok), name=tok.text)
            if self.at("("):
                return self.call_rest(name, depth + 1)
            return name
        self.fail(f"expected an expression before {tok.describe()}")


def _span(tok: Token) -> ast.Span:
    return ast.Span(line=tok.line, column=tok.column)
