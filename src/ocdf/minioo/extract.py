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

Name resolution: a parameter or local shadows any feature of the same name
unless the name is `this.`-qualified. Features resolve in the class's own
declarations first, then in each ancestor's, nearest first, so a nearer
level shadows a farther one whatever the kinds; within one class a field
shadows a method of the same name. Each of these is an E_RESOLVE error: a
name that resolves to nothing, calling a parameter, local or field,
assigning to a method, and using a method as a value.

Every field declaration becomes one member feature and every method
declaration one method feature (public methods become interface methods;
a method named like its class is a constructor). extract() keeps only the
class's own features and the flows between them; extract_lazy_inherited()
additionally includes each parent-chain feature the bodies actually
reference, marked inherited, together with the flows that touch it.
"""

from __future__ import annotations

from ..diagnostics import Code, MiniOoError, SourceError
from ..model import (CONTROL, DATA, INTERFACE_METHOD, MEMBER, METHOD, PUBLIC, Feature, Flow,
                     OcdfClass, build_class)
from . import ast

_Decl = ast.FieldDecl | ast.MethodDecl


def extract(program: ast.Program, class_name: str) -> OcdfClass:
    """Model a class from its own declarations and body-level flows."""
    return _extract(program, class_name, include_inherited=False)


def extract_lazy_inherited(program: ast.Program, class_name: str) -> OcdfClass:
    """Like extract(), plus lazily included parent features: a parent field or
    method appears (inherited=true) only when some body references it."""
    return _extract(program, class_name, include_inherited=True)


def _extract(program: ast.Program, class_name: str, include_inherited: bool) -> OcdfClass:
    classes: dict[str, list[ast.ClassDecl]] = {}  # name -> its declarations, in source order
    for decl in program.classes:
        classes.setdefault(decl.name, []).append(decl)
    cls = _find_class(classes, class_name)
    if cls is None:
        raise MiniOoError([SourceError(Code.E_NO_CLASS,
                                       f"no class named '{class_name}' in the source",
                                       1, 1)])
    walker = _Walker(cls, _parent_chain(classes, cls))
    walker.run()
    if walker.errors:
        raise MiniOoError(walker.errors)

    features = [_field_feature(f, inherited=False) for f in cls.fields]
    features += [_method_feature(m, cls.name, inherited=False) for m in cls.methods]
    own_ids = {f.id for f in features}

    if include_inherited:
        for decl, owner in walker.inherited.values():
            if isinstance(decl, ast.FieldDecl):
                features.append(_field_feature(decl, inherited=True))
            else:
                features.append(_method_feature(decl, owner.name, inherited=True))
        flows = walker.flows
    else:
        flows = [f for f in walker.flows if f.source in own_ids and f.target in own_ids]

    return build_class(cls.name, features, flows)


def _field_feature(decl: ast.FieldDecl, inherited: bool) -> Feature:
    return Feature(id=decl.name, kind=MEMBER, name=decl.name, decl=decl.type_name,
                   visibility=decl.visibility, is_static=decl.is_static,
                   is_const=decl.is_const, inherited=inherited)


def _method_feature(decl: ast.MethodDecl, owner_name: str, inherited: bool) -> Feature:
    kind = INTERFACE_METHOD if decl.visibility is PUBLIC else METHOD
    return Feature(id=decl.name, kind=kind, name=decl.name, decl=decl.signature(),
                   visibility=decl.visibility, is_static=decl.is_static,
                   is_constructor=decl.name == owner_name, inherited=inherited)


def _find_class(classes: dict[str, list[ast.ClassDecl]], name: str) -> ast.ClassDecl | None:
    """The class extraction reads under `name`. Class names are unique in a
    program, so a second declaration is E_DUP_ID at that declaration."""
    found = classes.get(name, ())
    if len(found) > 1:
        span = found[1].span
        raise MiniOoError([SourceError(Code.E_DUP_ID, f"duplicate class name '{name}'",
                                       span.line, span.column)])
    return found[0] if found else None


def _parent_chain(classes: dict[str, list[ast.ClassDecl]],
                  cls: ast.ClassDecl) -> list[ast.ClassDecl]:
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
        parent = _find_class(classes, current.parent)
        if parent is None:
            break
        chain.append(parent)
        visited.add(parent.name)
        current = parent
    return chain


class _Walker:
    """Single pass over all method bodies collecting flows and errors.

    `features` maps every feature name the class can see to its declaration
    and the ancestor declaring it (None for the class's own): own fields, own
    methods, then each ancestor's fields and methods, nearest first, the
    first declaration of a name winning.
    """

    def __init__(self, cls: ast.ClassDecl, chain: list[ast.ClassDecl]) -> None:
        self.cls = cls
        self.errors: list[SourceError] = []
        self.flows: list[Flow] = []
        self.features: dict[str, tuple[_Decl, ast.ClassDecl | None]] = {}
        self.inherited: dict[str, tuple[_Decl, ast.ClassDecl]] = {}  # in first-use order
        for decl in (*cls.fields, *cls.methods):
            if decl.name in self.features:
                self.errors.append(SourceError(
                    Code.E_DUP_ID, f"duplicate declaration of '{decl.name}'",
                    decl.span.line, decl.span.column))
            else:
                self.features[decl.name] = (decl, None)
        for ancestor in chain:
            for decl in (*ancestor.fields, *ancestor.methods):
                self.features.setdefault(decl.name, (decl, ancestor))

    def run(self) -> None:
        for method in self.cls.methods:
            self._walk_method(method)

    def _error(self, node: ast.NameExpr | ast.CallExpr, message: str) -> None:
        self.errors.append(SourceError(Code.E_RESOLVE, message,
                                       node.span.line, node.span.column))

    def _resolve(self, node: ast.NameExpr | ast.CallExpr,
                 scope: set[str]) -> _Decl | str | None:
        """The feature declaration a name denotes, the name itself for a
        parameter or local, or None (with an error) when nothing matches."""
        if not node.this_qualified and node.name in scope:
            return node.name
        found = self.features.get(node.name)
        if found is None:
            self._error(node, f"name '{node.name}' does not resolve to anything "
                              f"in '{self.cls.name}' or its ancestors")
            return None
        if found[1] is not None:
            self.inherited.setdefault(node.name, found)
        return found[0]

    # body traversal; repeated flows are kept, build_class collapses them in
    # first-occurrence order

    def _walk_method(self, method: ast.MethodDecl) -> None:
        scope = {p.name for p in method.params}
        for stmt in method.body:
            if isinstance(stmt, ast.LocalDecl):
                if stmt.init is not None:
                    self._walk_expr(stmt.init, method.name, scope, consumed=True)
                scope.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                self._walk_expr(stmt.value, method.name, scope, consumed=True)
                target = stmt.target
                decl = self._resolve(target, scope)
                if isinstance(decl, ast.MethodDecl):
                    self._error(target, f"cannot assign to method '{target.name}'")
                elif isinstance(decl, ast.FieldDecl):
                    self.flows.append(Flow(DATA, method.name, decl.name))
            elif isinstance(stmt, ast.CallStmt):
                self._walk_expr(stmt.call, method.name, scope, consumed=False)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                self._walk_expr(stmt.value, method.name, scope, consumed=True)

    def _walk_expr(self, expr: ast.Expr, caller: str, scope: set[str],
                   consumed: bool) -> None:
        if isinstance(expr, ast.NameExpr):
            decl = self._resolve(expr, scope)
            if isinstance(decl, ast.MethodDecl):
                self._error(expr, f"method '{expr.name}' used as a value")
            elif isinstance(decl, ast.FieldDecl):
                self.flows.append(Flow(DATA, decl.name, caller))
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                self._walk_expr(arg, caller, scope, consumed=True)
            decl = self._resolve(expr, scope)
            if isinstance(decl, ast.MethodDecl):
                self.flows.append(Flow(CONTROL, caller, decl.name))
                if expr.args:
                    self.flows.append(Flow(DATA, caller, decl.name))
                if consumed:
                    self.flows.append(Flow(DATA, decl.name, caller))
            elif decl is not None:
                self._error(expr, f"'{expr.name}' is not a method")
        # literals carry no flow
