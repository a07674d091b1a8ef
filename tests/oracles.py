"""Independent oracles the test suite checks the library against.

Everything here is deliberately written as straight-line brute force, with
no code shared with the package internals it judges.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from ocdf.analysis import RaceHazard, SubstructureReport
from ocdf.diagnostics import (Code, Diagnostic, MiniOoError, ModelError, SourceError, Subject,
                              TokenEnum)
from ocdf.minioo import ast
from ocdf.minioo.lexer import KEYWORDS, TokKind
from ocdf.minioo.parser import MAX_NESTING
from ocdf.model import (FORMAT_VERSION, Feature, FeatureKind, Flow, FlowKind, OcdfClass,
                        OcdfModel, Visibility)


# --- flow oracle: event-recording interpreter over MiniOO bodies ---------

def interpreted_flows(program: ast.Program, class_name: str,
                      include_inherited: bool) -> set[tuple[str, str, str]]:
    """Every (kind, source, target) flow a literal statement walk produces.

    Records raw read/write/call events per method body, then maps events to
    flows. With include_inherited=False, flows touching parent-chain features
    are discarded afterwards.
    """
    decl_class = {c.name: c for c in program.classes}
    cls = decl_class[class_name]

    # ancestry, nearest first
    ancestors: list[ast.ClassDecl] = []
    cursor = cls
    while cursor.parent is not None and cursor.parent in decl_class:
        cursor = decl_class[cursor.parent]
        if cursor in ancestors or cursor is cls:
            break
        ancestors.append(cursor)

    own_names = {f.name for f in cls.fields} | {m.name for m in cls.methods}

    def feature_kind(name: str) -> str | None:
        """'field' or 'method' at the nearest declaring level, else None."""
        for level in [cls, *ancestors]:
            if any(f.name == name for f in level.fields):
                return "field"
            if any(m.name == name for m in level.methods):
                return "method"
        return None

    events: list[tuple] = []  # ("read"|"write", field, method) | ("call", caller, callee, nargs, consumed)

    def record_expr(expr: ast.Expr, method: str, scope: set[str], consumed: bool) -> None:
        if isinstance(expr, ast.NameExpr):
            if not expr.this_qualified and expr.name in scope:
                return
            if feature_kind(expr.name) == "field":
                events.append(("read", expr.name, method))
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                record_expr(arg, method, scope, True)
            if feature_kind(expr.name) == "method":
                events.append(("call", method, expr.name, len(expr.args), consumed))

    for method in cls.methods:
        scope = {p.name for p in method.params}
        for stmt in method.body:
            if isinstance(stmt, ast.LocalDecl):
                if stmt.init is not None:
                    record_expr(stmt.init, method.name, scope, True)
                scope = scope | {stmt.name}
            elif isinstance(stmt, ast.Assign):
                record_expr(stmt.value, method.name, scope, True)
                target = stmt.target
                skip = not target.this_qualified and target.name in scope
                if not skip and feature_kind(target.name) == "field":
                    events.append(("write", target.name, method.name))
            elif isinstance(stmt, ast.CallStmt):
                record_expr(stmt.call, method.name, scope, False)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                record_expr(stmt.value, method.name, scope, True)

    flows: set[tuple[str, str, str]] = set()
    for event in events:
        if event[0] == "read":
            flows.add(("data", event[1], event[2]))
        elif event[0] == "write":
            flows.add(("data", event[2], event[1]))
        else:
            _, caller, callee, nargs, consumed = event
            flows.add(("control", caller, callee))
            if nargs:
                flows.add(("data", caller, callee))
            if consumed:
                flows.add(("data", callee, caller))

    if not include_inherited:
        flows = {f for f in flows if f[1] in own_names and f[2] in own_names}
    return flows


def resolvable_parent_features(program: ast.Program, class_name: str) -> set[str]:
    """Transitive walk of the parent chain: names visible by inheritance
    (not shadowed by the class's own declarations)."""
    decl_class = {c.name: c for c in program.classes}
    cls = decl_class[class_name]
    shadowed = {f.name for f in cls.fields} | {m.name for m in cls.methods}
    visible: set[str] = set()
    cursor = cls
    seen = {cls.name}
    while cursor.parent is not None and cursor.parent in decl_class:
        cursor = decl_class[cursor.parent]
        if cursor.name in seen:
            break
        seen.add(cursor.name)
        for name in [f.name for f in cursor.fields] + [m.name for m in cursor.methods]:
            if name not in shadowed:
                visible.add(name)
                shadowed.add(name)
    return visible


# --- component oracle: fixpoint set merging -------------------------------

def brute_components(cls: OcdfClass) -> set[frozenset[str]]:
    groups = [{f.id} for f in cls.features]
    changed = True
    while changed:
        changed = False
        for flow in cls.flows:
            a = next(g for g in groups if flow.source in g)
            b = next(g for g in groups if flow.target in g)
            if a is not b:
                a.update(b)
                groups.remove(b)
                changed = True
    return {frozenset(g) for g in groups}


# --- race oracle: exhaustive reachability enumeration ---------------------

def brute_reaches(cls: OcdfClass) -> set[tuple[str, str]]:
    """All (a, b) with a control-flow path a ->* b, including empty paths."""
    nodes = [f.id for f in cls.features]
    edges = {(f.source, f.target) for f in cls.flows if f.kind.value == "control"}
    reaches = {(n, n) for n in nodes} | edges
    changed = True
    while changed:
        changed = False
        for a in nodes:
            for b in nodes:
                if (a, b) in reaches:
                    continue
                for c in nodes:
                    if (a, c) in reaches and (c, b) in reaches:
                        reaches.add((a, b))
                        changed = True
                        break
    return reaches


def brute_race_members(cls: OcdfClass) -> set[str]:
    """Member ids with a hazard, by quadruple enumeration over the model."""
    features = {f.id: f for f in cls.features}
    reaches = brute_reaches(cls)
    entry_ids = [f.id for f in cls.features if f.kind is FeatureKind.INTERFACE_METHOD]

    hazards: set[str] = set()
    for member in cls.features:
        if member.kind is not FeatureKind.MEMBER or member.is_const:
            continue
        writers = set()
        readers = set()
        for flow in cls.flows:
            if flow.kind.value != "data":
                continue
            src, tgt = features.get(flow.source), features.get(flow.target)
            if (flow.target == member.id and src is not None
                    and src.kind is not FeatureKind.MEMBER and not src.is_constructor):
                writers.add(flow.source)
            if (flow.source == member.id and tgt is not None
                    and tgt.kind is not FeatureKind.MEMBER):
                readers.add(flow.target)
        conflicting = writers | readers
        if not (len(writers) >= 2 or (len(writers) >= 1 and len(readers - writers) >= 1)):
            continue
        found = False
        for m1 in conflicting:
            for m2 in conflicting:
                if m1 == m2 or (m1 not in writers and m2 not in writers):
                    continue
                for e1 in entry_ids:
                    for e2 in entry_ids:
                        if e1 != e2 and (e1, m1) in reaches and (e2, m2) in reaches:
                            found = True
        if found:
            hazards.add(member.id)
    return hazards


# --- reference analyses: the original quadratic implementations -----------
#
# Kept verbatim from before the analyses were rewritten to run near-linear
# time (indexed accessors, one SCC condensation with entry bitsets, token
# histograms), so the rewrites can be compared on full reports.

def reference_substructures(cls: OcdfClass) -> SubstructureReport:
    """Connected components of the undirected feature/flow graph."""
    parent = {f.id: f.id for f in cls.features}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for flow in cls.flows:
        a, b = find(flow.source), find(flow.target)
        if a != b:
            parent[b] = a

    groups: dict[str, list[str]] = {}
    for f in cls.features:
        groups.setdefault(find(f.id), []).append(f.id)
    components = sorted((tuple(sorted(ids)) for ids in groups.values()),
                        key=lambda c: c[0])

    suggestions = []
    names = {f.id: f.name for f in cls.features}
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            count = sum(
                1
                for a in components[i]
                for b in components[j]
                if _name_token(names[a]) == _name_token(names[b])
            )
            if count:
                suggestions.append(((i, j), count))
    suggestions.sort(key=lambda s: (-s[1], s[0]))

    return SubstructureReport(components=tuple(components),
                              cut_suggestions=tuple(suggestions))


def _name_token(name: str) -> str:
    """Leading name token: up to the first underscore or camelCase hump."""
    for i, ch in enumerate(name):
        if ch == "_":
            return name[:i].lower()
        if i and ch.isupper():
            return name[:i].lower()
    return name.lower()


def reference_races(cls: OcdfClass) -> list[RaceHazard]:
    """Report each non-const member whose accessors conflict.

    A member conflicts when it has two non-constructor writers, or one writer
    plus a distinct reader; the hazard is reported only if two of the
    conflicting methods are reachable over control flows from distinct
    interface methods (an interface method reaches itself by definition).
    """
    features = cls.feature_map()
    entries = _entry_points(cls, features)

    hazards: list[RaceHazard] = []
    for member in cls.features:
        if member.kind is not FeatureKind.MEMBER or member.is_const:
            continue
        writers: set[str] = set()
        readers: set[str] = set()
        for flow in cls.flows:
            if flow.kind is not FlowKind.DATA:
                continue
            if flow.target == member.id:
                source = features.get(flow.source)
                if (source is not None and source.kind is not FeatureKind.MEMBER
                        and not source.is_constructor):
                    writers.add(source.id)
            if flow.source == member.id:
                target = features.get(flow.target)
                if target is not None and target.kind is not FeatureKind.MEMBER:
                    readers.add(target.id)
        if not (len(writers) >= 2 or (writers and readers - writers)):
            continue
        conflicting = writers | readers
        if not _distinct_entries(conflicting, writers, entries):
            continue
        reached = sorted({e for m in conflicting for e in entries.get(m, ())})
        hazards.append(RaceHazard(member=member.id,
                                  writers=tuple(sorted(writers)),
                                  readers=tuple(sorted(readers)),
                                  entry_points=tuple(reached)))
    hazards.sort(key=lambda h: h.member)
    return hazards


def _entry_points(cls: OcdfClass, features: dict[str, Feature]) -> dict[str, set[str]]:
    """For each method, the interface methods that reach it over control
    flows. Roots are the interface methods themselves."""
    succ: dict[str, list[str]] = {}
    for flow in cls.flows:
        if flow.kind is FlowKind.CONTROL:
            succ.setdefault(flow.source, []).append(flow.target)

    entries: dict[str, set[str]] = {}
    for root in cls.features:
        if root.kind is not FeatureKind.INTERFACE_METHOD:
            continue
        stack = [root.id]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            feature = features.get(node)
            if feature is not None and feature.kind is not FeatureKind.MEMBER:
                entries.setdefault(node, set()).add(root.id)
            stack.extend(succ.get(node, ()))
    return entries


def _distinct_entries(conflicting: set[str], writers: set[str],
                      entries: dict[str, set[str]]) -> bool:
    methods = sorted(conflicting)
    for a in methods:
        for b in methods:
            if a >= b or (a not in writers and b not in writers):
                continue
            ea, eb = entries.get(a, set()), entries.get(b, set())
            if ea and eb and len(ea | eb) >= 2:
                return True
    return False


# --- reference front end: the original character-loop lexer and parser ------
#
# Kept verbatim from before the lexer became one regular expression and the
# parser an index walk over plain token tuples, so the rewrite can be compared
# on tokens, trees and error lists. Two differences are intended: the
# reference lexes any str.isdigit() run as an integer, and it passes every
# integer literal to int(), so a non-ASCII digit or a literal over int()'s
# digit limit raises ValueError here. They share only the token kinds, the
# keyword set and the nesting bound with the package.

_REF_PUNCT = frozenset("{}();,=:.")


@dataclass(frozen=True, slots=True)
class _RefToken:
    kind: TokKind
    text: str
    line: int
    column: int

    def describe(self) -> str:
        if self.kind is TokKind.EOF:
            return "end of input"
        return f"'{self.text}'"


def reference_tokenize(source: str) -> list[_RefToken]:
    """Lex the whole input; raises MiniOoError on the first bad character."""
    tokens: list[_RefToken] = []
    errors: list[SourceError] = []
    line, col = 1, 1
    i = 0
    n = len(source)

    def advance(text: str) -> None:
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(ch)
            i += 1
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            end = n if end == -1 else end
            advance(source[i:end])
            i = end
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokKind.KEYWORD if text in KEYWORDS else TokKind.IDENT
            tokens.append(_RefToken(kind, text, start_line, start_col))
            advance(text)
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(_RefToken(TokKind.INT, source[i:j], start_line, start_col))
            advance(source[i:j])
            i = j
            continue
        if ch == '"':
            j = i + 1
            value = []
            terminated = False
            while j < n:
                c = source[j]
                if c == "\\" and j + 1 < n:
                    value.append(source[j + 1])
                    j += 2
                    continue
                if c == '"':
                    terminated = True
                    j += 1
                    break
                if c == "\n":
                    break
                value.append(c)
                j += 1
            if not terminated:
                errors.append(SourceError(Code.E_PARSE, "unterminated string literal",
                                          start_line, start_col))
                advance(source[i:j])
                i = j
                continue
            tokens.append(_RefToken(TokKind.STRING, "".join(value), start_line, start_col))
            advance(source[i:j])
            i = j
            continue
        if ch in _REF_PUNCT:
            tokens.append(_RefToken(TokKind.PUNCT, ch, start_line, start_col))
            advance(ch)
            i += 1
            continue
        errors.append(SourceError(Code.E_PARSE, f"unexpected character {ch!r}",
                                  start_line, start_col))
        advance(ch)
        i += 1

    if errors:
        raise MiniOoError(errors)
    tokens.append(_RefToken(TokKind.EOF, "", line, col))
    return tokens


_REF_VISIBILITIES = {"public": Visibility.PUBLIC,
                 "protected": Visibility.PROTECTED,
                 "private": Visibility.PRIVATE}


def reference_parse(source: str) -> ast.Program:
    """Parse MiniOO source; raises MiniOoError listing every syntax error."""
    parser = _RefParser(reference_tokenize(source))
    program = parser.program()
    if parser.errors:
        raise MiniOoError(parser.errors)
    return program


class _RefSyncPoint(Exception):
    """Internal signal: abandon the current construct and re-sync."""


class _RefParser:
    def __init__(self, tokens: list[_RefToken]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.errors: list[SourceError] = []

    # token plumbing

    def peek(self, offset: int = 0) -> _RefToken:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> _RefToken:
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

    def expect(self, text: str) -> _RefToken:
        if self.at(text):
            return self.next()
        self.fail(f"expected '{text}' before {self.peek().describe()}")

    def expect_ident(self, what: str) -> _RefToken:
        tok = self.peek()
        if tok.kind is TokKind.IDENT:
            return self.next()
        self.fail(f"expected {what} before {tok.describe()}")

    def fail(self, message: str) -> None:
        tok = self.peek()
        self.errors.append(SourceError(Code.E_PARSE, message, tok.line, tok.column))
        raise _RefSyncPoint()

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
                except _RefSyncPoint:
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
            except _RefSyncPoint:
                self.skip_until("}", "public", "protected", "private")
                continue
            if isinstance(member, ast.FieldDecl):
                fields.append(member)
            else:
                methods.append(member)
        self.expect("}")
        return ast.ClassDecl(span=_ref_span(start), name=name.text, parent=parent,
                             fields=tuple(fields), methods=tuple(methods))

    def member(self) -> ast.FieldDecl | ast.MethodDecl:
        start = self.peek()
        vis = _REF_VISIBILITIES.get(start.text) if start.kind is TokKind.KEYWORD else None
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
        return ast.FieldDecl(span=_ref_span(start), visibility=vis, is_static=is_static,
                             is_const=is_const, type_name=type_name, name=name)

    def method_rest(self, start: _RefToken, vis: Visibility, is_static: bool,
                    return_type: str, name: str) -> ast.MethodDecl:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.at(")"):
            while True:
                ptype = self.expect_ident("parameter type")
                pname = self.expect_ident("parameter name")
                params.append(ast.Param(span=_ref_span(ptype), type_name=ptype.text,
                                        name=pname.text))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.block()
        return ast.MethodDecl(span=_ref_span(start), visibility=vis, is_static=is_static,
                              return_type=return_type, name=name,
                              params=tuple(params), body=tuple(body))

    def block(self) -> list[ast.Stmt]:
        self.expect("{")
        stmts: list[ast.Stmt] = []
        while not self.at("}") and self.peek().kind is not TokKind.EOF:
            try:
                stmts.append(self.statement())
            except _RefSyncPoint:
                self.skip_until("}")
        self.expect("}")
        return stmts

    def statement(self) -> ast.Stmt:
        tok = self.peek()
        if self.at("return"):
            self.next()
            value = None if self.at(";") else self.expression()
            self.expect(";")
            return ast.Return(span=_ref_span(tok), value=value)
        if self.at("this"):
            target = self.this_name()
            if self.at("("):
                call = self.call_rest(target)
                self.expect(";")
                return ast.CallStmt(span=_ref_span(tok), call=call)
            self.expect("=")
            value = self.expression()
            self.expect(";")
            return ast.Assign(span=_ref_span(tok), target=target, value=value)
        if tok.kind is TokKind.IDENT:
            after = self.peek(1)
            if after.kind is TokKind.IDENT:
                # local declaration: type name [= expr] ;
                self.next()
                name = self.next()
                init = self.expression() if self.accept("=") else None
                self.expect(";")
                return ast.LocalDecl(span=_ref_span(tok), type_name=tok.text,
                                     name=name.text, init=init)
            if after.kind is TokKind.PUNCT and after.text == "=":
                self.next()
                self.next()
                value = self.expression()
                self.expect(";")
                target = ast.NameExpr(span=_ref_span(tok), name=tok.text)
                return ast.Assign(span=_ref_span(tok), target=target, value=value)
            if after.kind is TokKind.PUNCT and after.text == "(":
                name = ast.NameExpr(span=_ref_span(tok), name=self.next().text)
                call = self.call_rest(name)
                self.expect(";")
                return ast.CallStmt(span=_ref_span(tok), call=call)
        self.fail(f"expected a statement before {tok.describe()}")

    def this_name(self) -> ast.NameExpr:
        start = self.expect("this")
        self.expect(".")
        name = self.expect_ident("feature name")
        return ast.NameExpr(span=_ref_span(start), name=name.text, this_qualified=True)

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
            return ast.IntLit(span=_ref_span(tok), value=int(tok.text))
        if tok.kind is TokKind.STRING:
            self.next()
            return ast.StrLit(span=_ref_span(tok), value=tok.text)
        if self.at("this"):
            name = self.this_name()
            if self.at("("):
                return self.call_rest(name, depth + 1)
            return name
        if tok.kind is TokKind.IDENT:
            self.next()
            name = ast.NameExpr(span=_ref_span(tok), name=tok.text)
            if self.at("("):
                return self.call_rest(name, depth + 1)
            return name
        self.fail(f"expected an expression before {tok.describe()}")


def _ref_span(tok: _RefToken) -> ast.Span:
    return ast.Span(line=tok.line, column=tok.column)


# --- reference loader: the per-record document loader ------------------------
#
# Kept, with its structural checks, from before the loader gained a fast
# path for regular records, so the two can be compared on models and on
# diagnostics lists; since then both report an empty feature id (E_PARSE).
# It shares only the model types, the diagnostic types and FORMAT_VERSION
# with the package.

_REF_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _ref_check_class(name: str, features: Iterable[Feature], flows: Iterable[Flow],
                     problems: list[Diagnostic]) -> tuple[dict[str, Feature], tuple[Flow, ...]]:
    """The structural rules of one class, owned here for build, load and the
    validator alike: feature ids are unique (E_DUP_ID) and every flow
    endpoint names a feature (E_DANGLING_REF). Violations are appended to
    ``problems`` in input order. Returns the id->feature map (the last
    feature wins a repeated id) and the flows with set semantics over
    Flow.key(), first occurrence kept."""
    feature_map: dict[str, Feature] = {}
    for feat in features:
        if feat.id in feature_map:
            problems.append(_ref_error(Code.E_DUP_ID, name, (feat.id,),
                                       f"duplicate feature id '{feat.id}'"))
        feature_map[feat.id] = feat
    kept: dict[tuple[FlowKind, str, str], Flow] = {}
    for flow in flows:
        source, target = flow.source, flow.target
        if source not in feature_map:
            problems.append(_ref_dangling(name, source))
        if target not in feature_map:
            problems.append(_ref_dangling(name, target))
        key = (flow.kind, source, target)  # Flow.key(), inlined on this hot path
        if key not in kept:
            kept[key] = flow
    return feature_map, tuple(kept.values())


def _ref_dangling(class_name: str, endpoint: str) -> Diagnostic:
    return _ref_error(Code.E_DANGLING_REF, class_name, (endpoint,),
                      f"flow endpoint '{endpoint}' does not name a feature")


def _ref_check_class_names(classes: Iterable[OcdfClass], problems: list[Diagnostic]) -> None:
    """Class names are unique within a model (E_DUP_ID)."""
    seen: set[str] = set()
    for cls in classes:
        if cls.name in seen:
            problems.append(_ref_error(Code.E_DUP_ID, cls.name, (),
                                       f"duplicate class name '{cls.name}'"))
        seen.add(cls.name)


def _ref_error(code: Code, class_name: str, ids: tuple[str, ...], message: str) -> Diagnostic:
    return Diagnostic(code, message, (Subject(class_name, ids),))


def reference_deserialize(data: bytes | str) -> OcdfModel:
    """Load a model document, checking every structural rule.

    Raises ModelError carrying E_PARSE (malformed or too deeply nested
    document, an over-long integer, an unpaired surrogate), E_BAD_ENUM
    (unknown kind/visibility token), E_DUP_ID, or E_DANGLING_REF.
    """
    if isinstance(data, str):  # one strict decode for both: a raw lone surrogate fails it
        data = data.encode("utf-8", "surrogatepass")
    try:
        data = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError([_ref_parse_problem(f"not valid UTF-8: {exc}")]) from exc
    loader = _RefLoader()
    try:
        model = loader.model(_ref_json_document(data))
    except RecursionError as exc:
        raise ModelError([_ref_parse_problem("document nests too deeply")]) from exc
    if loader.problems:
        raise ModelError(loader.problems)
    return model


def _ref_json_document(data: str) -> object:
    """`json.loads`, where a value Python cannot hold or write is an E_PARSE
    like malformed JSON. Nesting too deep raises RecursionError."""
    try:
        doc = json.loads(data)
        if _REF_SURROGATE_ESCAPE.search(data):  # a paired escape decodes to one encodable character
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except json.JSONDecodeError as exc:
        message = f"malformed JSON: {exc}"
    except UnicodeEncodeError:
        message = "malformed JSON: a string holds an unpaired surrogate"
    except ValueError:  # the rest: an integer past int()'s digit limit
        message = "malformed JSON: an integer has too many digits"
    raise ModelError([_ref_parse_problem(message)])


def _ref_parse_problem(message: str, class_name: str = "") -> Diagnostic:
    subjects = (Subject(class_name),) if class_name else ()
    return Diagnostic(Code.E_PARSE, message, subjects)


class _RefLoader:
    """Document-to-model lowering that collects problems instead of stopping
    at the first one, so a load failure reports everything wrong at once."""

    def __init__(self) -> None:
        self.problems: list[Diagnostic] = []

    def model(self, doc: object) -> OcdfModel:
        if not isinstance(doc, dict):
            self.problems.append(_ref_parse_problem("document root must be an object"))
            return OcdfModel()
        version = doc.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            self.problems.append(_ref_parse_problem(
                f"unsupported format_version {version!r} (expected {FORMAT_VERSION})"))
        raw_classes = doc.get("classes")
        if not isinstance(raw_classes, list):
            self.problems.append(_ref_parse_problem("'classes' must be a list"))
            return OcdfModel()
        classes = tuple(self.clazz(c, i) for i, c in enumerate(raw_classes))
        _ref_check_class_names(classes, self.problems)
        return OcdfModel(classes=classes)

    def clazz(self, raw: object, index: int) -> OcdfClass:
        if not isinstance(raw, dict):
            self.problems.append(_ref_parse_problem(f"classes[{index}] must be an object"))
            return OcdfClass(name=f"<classes[{index}]>")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            self.problems.append(_ref_parse_problem(f"classes[{index}] is missing a name"))
            name = f"<classes[{index}]>"

        features = tuple(self.feature(f, name, i)
                         for i, f in enumerate(self._list(raw, "features", name)))
        _, flows = _ref_check_class(name, features, self.flows(raw, name), self.problems)
        return OcdfClass(name=name, features=features, flows=flows)

    def flows(self, raw: dict, class_name: str) -> Iterator[Flow]:
        """Yield the well-formed flows one at a time, so that each flow's parse
        problems are reported just before its dangling endpoints. A flow
        already reported as malformed is left out."""
        for i, f in enumerate(self._list(raw, "flows", class_name)):
            flow = self.flow(f, class_name, i)
            if flow is not None:
                yield flow

    def _list(self, raw: dict, key: str, class_name: str) -> list:
        value = raw.get(key, [])
        if not isinstance(value, list):
            self.problems.append(_ref_parse_problem(f"'{key}' must be a list", class_name))
            return []
        return value

    def feature(self, raw: object, class_name: str, index: int) -> Feature:
        if not isinstance(raw, dict):
            self.problems.append(_ref_parse_problem(f"features[{index}] must be an object",
                                                    class_name))
            return Feature(id=f"<features[{index}]>", kind=FeatureKind.MEMBER, name="")
        get = raw.get
        fid, name, decl = get("id"), get("name"), get("decl")
        if not isinstance(fid, str):
            fid = self._not_str("id", class_name, f"features[{index}]", "")
        elif not fid:
            self.problems.append(_ref_parse_problem(f"features[{index}] has an empty id",
                                                    class_name))
        if not isinstance(name, str):
            name = self._not_str("name", class_name, f"features[{index}]", "")
        if not isinstance(decl, str):
            decl = self._not_str("decl", class_name, f"features[{index}]", "")
        where = fid or f"features[{index}]"  # how the diagnostics below name the feature
        try:
            kind = _REF_FEATURE_KINDS[get("kind")]
        except (KeyError, TypeError):
            kind = self._bad_token(raw, "kind", class_name, where, FeatureKind.MEMBER)
        try:
            visibility = _REF_VISIBILITIES[get("visibility")]
        except (KeyError, TypeError):
            visibility = self._bad_token(raw, "visibility", class_name, where, Visibility.PRIVATE)
        flags = (get("is_static", False), get("is_const", False),
                 get("is_constructor", False), get("inherited", False))
        # one test for all four flags (bool has no subclasses)
        if not (type(flags[0]) is type(flags[1]) is type(flags[2]) is type(flags[3]) is bool):
            flags = tuple(self._flag(value, key, class_name, where)
                          for value, key in zip(flags, _REF_FLAG_KEYS))
        return Feature(fid or f"<features[{index}]>", kind, name, decl, visibility, *flags)

    def flow(self, raw: object, class_name: str, index: int) -> Flow | None:
        if not isinstance(raw, dict):
            self.problems.append(_ref_parse_problem(f"flows[{index}] must be an object",
                                                    class_name))
            return None
        get = raw.get
        try:
            kind = _REF_FLOW_KINDS[get("kind")]
        except (KeyError, TypeError):
            kind = self._bad_token(raw, "kind", class_name, f"flows[{index}]", FlowKind.DATA)
        source, target, label = get("source"), get("target"), get("label")
        if not isinstance(source, str):
            source = self._not_str("source", class_name, f"flows[{index}]", None)
        if not isinstance(target, str):
            target = self._not_str("target", class_name, f"flows[{index}]", None)
        if label is not None and not isinstance(label, str):
            self.problems.append(_ref_parse_problem(
                f"flows[{index}] label must be a string or null", class_name))
            label = None
        if source is None or target is None:
            return None
        return Flow(kind, source, target, label)

    # These record a diagnostic; they run only once a field has failed its check.

    def _not_str(self, key: str, class_name: str, where: str, missing: str | None) -> str | None:
        self.problems.append(_ref_parse_problem(f"{where} is missing string field '{key}'",
                                                class_name))
        return missing

    def _flag(self, value: object, key: str, class_name: str, where: str) -> bool:
        if type(value) is bool:
            return value
        self.problems.append(_ref_parse_problem(f"{where}: '{key}' must be a boolean", class_name))
        return False

    def _bad_token(self, raw: dict, key: str, class_name: str, where: str,
                   default: TokenEnum) -> TokenEnum:
        self.problems.append(_ref_error(Code.E_BAD_ENUM, class_name, (where,),
                                        f"{where}: unknown {key} token {raw.get(key)!r}"))
        return default


# Token -> member tables for the loader; a miss raises KeyError, or TypeError
# for an unhashable token such as a JSON list.
_REF_FEATURE_KINDS = FeatureKind._value2member_map_
_REF_VISIBILITIES = Visibility._value2member_map_
_REF_FLOW_KINDS = FlowKind._value2member_map_
_REF_FLAG_KEYS = ("is_static", "is_const", "is_constructor", "inherited")


# --- reference validator: one feature lookup per flow endpoint ---------------
#
# Kept verbatim from before the validator's constraint walk tested endpoints
# against per-class id sets, so the two can be compared on findings lists.
# It shares only the diagnostic records with the package; the structural
# rules come from the reference loader's copy above.

def reference_validate(cls: OcdfClass) -> list[Diagnostic]:
    """The findings of one class, unsorted, in the order the walk finds them."""
    findings: list[Diagnostic] = []
    features, flows = _ref_check_class(cls.name, cls.features, cls.flows, findings)
    for feat in cls.features:
        if feat.kind is FeatureKind.INTERFACE_METHOD and feat.visibility is not Visibility.PUBLIC:
            findings.append(_ref_error(
                Code.E_IFACE_VIS, cls.name, (feat.id,),
                f"interface method '{feat.id}' has {feat.visibility} visibility; "
                "an interface method must be public"))
        elif feat.kind is FeatureKind.METHOD and feat.visibility is Visibility.PUBLIC:
            findings.append(_ref_error(
                Code.E_METHOD_VIS, cls.name, (feat.id,),
                f"method '{feat.id}' has public visibility; "
                "a non-interface method must be non-public"))

    for flow in flows:
        source = features.get(flow.source)
        target = features.get(flow.target)
        if source is None or target is None:
            continue  # reported as E_DANGLING_REF

        if flow.kind is FlowKind.CONTROL:
            if source.kind is FeatureKind.MEMBER or target.kind is FeatureKind.MEMBER:
                findings.append(_ref_error(
                    Code.E_CF_ENDPOINT, cls.name, (flow.source, flow.target),
                    f"control flow {flow.source}->{flow.target} touches a data member; "
                    "control flow connects only method instances"))
        else:
            if source.kind is FeatureKind.MEMBER and target.kind is FeatureKind.MEMBER:
                findings.append(_ref_error(
                    Code.E_DF_ENDPOINT, cls.name, (flow.source, flow.target),
                    f"data flow {flow.source}->{flow.target} connects two data members; "
                    "data flow connects two methods or a method and a data member"))
            elif (target.kind is FeatureKind.MEMBER and target.is_const
                  and source.kind is not FeatureKind.MEMBER and not source.is_constructor):
                # Fires only on writes (const member as target); reads are fine.
                findings.append(_ref_error(
                    Code.E_CONST_WRITE, cls.name, (flow.source, flow.target),
                    f"non-constructor '{flow.source}' writes constant member '{flow.target}'; "
                    "only constructors may modify constant data members"))
    return findings


# --- reference writers: a dict per record, then json.dumps -------------------
#
# Kept from before the package wrote its JSON by hand: the canonical model
# document, and the indented reports `validate` and `analyze --format json`
# print.

def reference_serialize(model: OcdfModel) -> bytes:
    """Canonical UTF-8 JSON bytes, built as dicts in the canonical field
    order and written by json.dumps."""
    doc = {
        "format_version": FORMAT_VERSION,
        "classes": [
            {
                "name": cls.name,
                "features": [
                    {
                        "id": f.id,
                        "kind": f.kind.value,
                        "name": f.name,
                        "decl": f.decl,
                        "visibility": f.visibility.value,
                        "is_static": f.is_static,
                        "is_const": f.is_const,
                        "is_constructor": f.is_constructor,
                        "inherited": f.inherited,
                    }
                    for f in cls.features
                ],
                "flows": [
                    {"kind": f.kind.value, "source": f.source, "target": f.target,
                     "label": f.label}
                    for f in cls.flows
                ],
            }
            for cls in model.classes
        ],
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def reference_findings_json(findings: Iterable[Diagnostic]) -> str:
    """The findings as json.dumps(..., indent=2) writes their dicts."""
    return json.dumps([
        {
            "code": d.code.value,
            "severity": "error",
            "message": d.message,
            "subjects": [{"class": s.class_name, "ids": list(s.ids)} for s in d.subjects],
        }
        for d in findings
    ], indent=2)


def reference_analyze_json(model: OcdfModel) -> str:
    """The `analyze --format json` report as json.dumps(..., indent=2) writes
    the dicts the analyses' records once built with `to_dict`, from the
    reference analyses above."""
    report = []
    for cls in model.classes:
        parts = reference_substructures(cls)
        report.append({
            "name": cls.name,
            "substructures": {
                "components": [list(c) for c in parts.components],
                "cut_suggestions": [
                    {"components": [a, b], "shared_prefix_count": n}
                    for (a, b), n in parts.cut_suggestions
                ],
            },
            "races": [
                {
                    "member": h.member,
                    "writers": list(h.writers),
                    "readers": list(h.readers),
                    "entry_points": list(h.entry_points),
                }
                for h in reference_races(cls)
            ],
        })
    return json.dumps(report, indent=2)
