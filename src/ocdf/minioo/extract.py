"""Lowering from MiniOO syntax trees to class flow models.

Rules, per method body:

* reading a field yields a data flow field->method;
* assigning a field yields a data flow method->field;
* calling a method yields a control flow caller->callee, one data flow
  caller->callee when the call passes arguments, and a data flow
  callee->caller when the call's value is consumed (assigned, returned,
  or passed on as an argument);
* locals propagate one level only: a local loaded from field f inside m and
  later passed to n yields f->m and m->n, never f->n.

Every field declaration becomes one member feature and every method
declaration one method feature (public methods become interface methods;
a method named like its class is a constructor). extract() keeps only the
class's own features and the flows between them; extract_lazy_inherited()
additionally includes each parent-chain feature the bodies actually
reference, marked inherited, together with the flows that touch it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..diagnostics import Code, MiniOoError, SourceError
from ..model import Feature, FeatureKind, Flow, FlowKind, OcdfClass, Visibility, build_class
from . import ast


def extract(program: ast.Program, class_name: str) -> OcdfClass:
    """Model a class from its own declarations and body-level flows."""
    return _extract(program, class_name, include_inherited=False)


def extract_lazy_inherited(program: ast.Program, class_name: str) -> OcdfClass:
    """Like extract(), plus lazily included parent features: a parent field or
    method appears (inherited=true) only when some body references it."""
    return _extract(program, class_name, include_inherited=True)


@dataclass(frozen=True, slots=True)
class _Binding:
    """Resolution result: where a name lives and what declares it."""

    scope: str  # "param" | "local" | "field" | "method"
    decl: ast.FieldDecl | ast.MethodDecl | None = None
    owner: ast.ClassDecl | None = None

    @property
    def inherited(self) -> bool:
        return self.owner is not None


def _extract(program: ast.Program, class_name: str, include_inherited: bool) -> OcdfClass:
    cls = program.find_class(class_name)
    if cls is None:
        raise MiniOoError([SourceError(Code.E_NO_CLASS,
                                       f"no class named '{class_name}' in the source",
                                       1, 1)])
    chain = _parent_chain(program, cls)
    walker = _Walker(cls, chain)
    walker.run()
    if walker.errors:
        raise MiniOoError(walker.errors)

    features = [_field_feature(f, inherited=False) for f in cls.fields]
    features += [_method_feature(m, cls.name, inherited=False) for m in cls.methods]
    own_ids = {f.id for f in features}

    if include_inherited:
        for binding in walker.inherited_order:
            if isinstance(binding.decl, ast.FieldDecl):
                features.append(_field_feature(binding.decl, inherited=True))
            else:
                features.append(_method_feature(binding.decl, binding.owner.name,
                                                inherited=True))
        flows = walker.flows
    else:
        flows = [f for f in walker.flows if f.source in own_ids and f.target in own_ids]

    return build_class(cls.name, features, flows)


def _field_feature(decl: ast.FieldDecl, inherited: bool) -> Feature:
    return Feature(id=decl.name, kind=FeatureKind.MEMBER, name=decl.name,
                   decl=decl.type_name, visibility=decl.visibility,
                   is_static=decl.is_static, is_const=decl.is_const,
                   inherited=inherited)


def _method_feature(decl: ast.MethodDecl, owner_name: str, inherited: bool) -> Feature:
    public = decl.visibility is Visibility.PUBLIC
    return Feature(id=decl.name,
                   kind=FeatureKind.INTERFACE_METHOD if public else FeatureKind.METHOD,
                   name=decl.name, decl=decl.signature(), visibility=decl.visibility,
                   is_static=decl.is_static, is_constructor=decl.name == owner_name,
                   inherited=inherited)


def _parent_chain(program: ast.Program, cls: ast.ClassDecl) -> list[ast.ClassDecl]:
    """Ancestors from nearest to farthest. A parent that is not declared in
    the program simply ends the chain; a cycle is an error."""
    chain: list[ast.ClassDecl] = []
    visited = {cls.name}
    current = cls
    while current.parent is not None:
        if current.parent in visited:
            raise MiniOoError([SourceError(
                Code.E_INHERIT_CYCLE,
                f"inheritance cycle through '{current.parent}'",
                current.span.line, current.span.column)])
        parent = program.find_class(current.parent)
        if parent is None:
            break
        chain.append(parent)
        visited.add(parent.name)
        current = parent
    return chain


class _Walker:
    """Single pass over all method bodies collecting flows and errors."""

    def __init__(self, cls: ast.ClassDecl, chain: list[ast.ClassDecl]) -> None:
        self.cls = cls
        self.chain = chain
        self.errors: list[SourceError] = []
        self.flows: list[Flow] = []
        self.inherited_order: list[_Binding] = []
        self._inherited_seen: set[str] = set()
        self._own_fields = {f.name: f for f in cls.fields}
        self._own_methods = {m.name: m for m in cls.methods}
        self._check_declarations()

    def _check_declarations(self) -> None:
        seen: dict[str, ast.Span] = {}
        for decl in (*self.cls.fields, *self.cls.methods):
            if decl.name in seen:
                self.errors.append(SourceError(
                    Code.E_DUP_ID, f"duplicate declaration of '{decl.name}'",
                    decl.span.line, decl.span.column))
            else:
                seen[decl.name] = decl.span

    def run(self) -> None:
        for method in self.cls.methods:
            self._walk_method(method)

    # name resolution: params and locals shadow features; own features shadow
    # the parent chain level by level, regardless of field/method kind

    def _lookup_feature(self, name: str) -> _Binding | None:
        if name in self._own_fields:
            return _Binding("field", self._own_fields[name])
        if name in self._own_methods:
            return _Binding("method", self._own_methods[name])
        for ancestor in self.chain:
            for field in ancestor.fields:
                if field.name == name:
                    return _Binding("field", field, ancestor)
            for method in ancestor.methods:
                if method.name == name:
                    return _Binding("method", method, ancestor)
        return None

    def _resolve(self, name: str, this_qualified: bool, span: ast.Span,
                 params: dict[str, ast.Param], locals_: set[str]) -> _Binding | None:
        if not this_qualified:
            if name in params:
                return _Binding("param")
            if name in locals_:
                return _Binding("local")
        binding = self._lookup_feature(name)
        if binding is None:
            self.errors.append(SourceError(
                Code.E_RESOLVE, f"name '{name}' does not resolve to anything "
                f"in '{self.cls.name}' or its ancestors",
                span.line, span.column))
        return binding

    def _note_inherited(self, binding: _Binding) -> None:
        if binding.inherited and binding.decl.name not in self._inherited_seen:
            self._inherited_seen.add(binding.decl.name)
            self.inherited_order.append(binding)

    def _add_flow(self, kind: FlowKind, source: str, target: str) -> None:
        # repeats are kept; build_class collapses them in first-occurrence order
        self.flows.append(Flow(kind=kind, source=source, target=target))

    # body traversal

    def _walk_method(self, method: ast.MethodDecl) -> None:
        params = {p.name: p for p in method.params}
        locals_: set[str] = set()
        for stmt in method.body:
            if isinstance(stmt, ast.LocalDecl):
                if stmt.init is not None:
                    self._walk_expr(stmt.init, method, params, locals_, consumed=True)
                locals_.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                self._walk_expr(stmt.value, method, params, locals_, consumed=True)
                self._walk_store(stmt.target, method, params, locals_)
            elif isinstance(stmt, ast.CallStmt):
                self._walk_expr(stmt.call, method, params, locals_, consumed=False)
            elif isinstance(stmt, ast.Return):
                if stmt.value is not None:
                    self._walk_expr(stmt.value, method, params, locals_, consumed=True)

    def _walk_store(self, target: ast.NameExpr, method: ast.MethodDecl,
                    params: dict[str, ast.Param], locals_: set[str]) -> None:
        binding = self._resolve(target.name, target.this_qualified, target.span,
                                params, locals_)
        if binding is None or binding.scope in ("param", "local"):
            return
        if binding.scope == "method":
            self.errors.append(SourceError(
                Code.E_RESOLVE, f"cannot assign to method '{target.name}'",
                target.span.line, target.span.column))
            return
        self._note_inherited(binding)
        self._add_flow(FlowKind.DATA, method.name, binding.decl.name)

    def _walk_expr(self, expr: ast.Expr, method: ast.MethodDecl,
                   params: dict[str, ast.Param], locals_: set[str],
                   consumed: bool) -> None:
        if isinstance(expr, ast.NameExpr):
            binding = self._resolve(expr.name, expr.this_qualified, expr.span,
                                    params, locals_)
            if binding is None or binding.scope in ("param", "local"):
                return
            if binding.scope == "method":
                self.errors.append(SourceError(
                    Code.E_RESOLVE, f"method '{expr.name}' used as a value",
                    expr.span.line, expr.span.column))
                return
            self._note_inherited(binding)
            self._add_flow(FlowKind.DATA, binding.decl.name, method.name)
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                self._walk_expr(arg, method, params, locals_, consumed=True)
            binding = self._resolve(expr.name, expr.this_qualified, expr.span,
                                    params, locals_)
            if binding is None:
                return
            if binding.scope != "method":
                self.errors.append(SourceError(
                    Code.E_RESOLVE, f"'{expr.name}' is not a method",
                    expr.span.line, expr.span.column))
                return
            self._note_inherited(binding)
            callee = binding.decl.name
            self._add_flow(FlowKind.CONTROL, method.name, callee)
            if expr.args:
                self._add_flow(FlowKind.DATA, method.name, callee)
            if consumed:
                self._add_flow(FlowKind.DATA, callee, method.name)
        # literals carry no flow
