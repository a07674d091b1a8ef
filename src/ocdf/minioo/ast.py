"""MiniOO syntax tree. Every node carries the source span of its first token.

Nodes are named tuples, like the package's other records. Through the
``diagnostics._Node`` mixin, equality also compares the node type, so
``IntLit(s, 1) != StrLit(s, 1)``.
"""

from __future__ import annotations

from collections import namedtuple

from ..diagnostics import _Node


class Span(_Node, namedtuple("Span", "line column")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class NameExpr(_Node, namedtuple("NameExpr", "span name this_qualified", defaults=(False,))):
    __slots__ = ()


class IntLit(_Node, namedtuple("IntLit", "span value", defaults=(0,))):
    __slots__ = ()


class StrLit(_Node, namedtuple("StrLit", "span value", defaults=("",))):
    __slots__ = ()


class CallExpr(_Node, namedtuple("CallExpr", "span name args this_qualified",
                                 defaults=("", (), False))):
    __slots__ = ()


Expr = NameExpr | IntLit | StrLit | CallExpr


class LocalDecl(_Node, namedtuple("LocalDecl", "span type_name name init",
                                  defaults=("", "", None))):
    __slots__ = ()


class Assign(_Node, namedtuple("Assign", "span target value", defaults=(None, None))):
    __slots__ = ()


class CallStmt(_Node, namedtuple("CallStmt", "span call", defaults=(None,))):
    __slots__ = ()


class Return(_Node, namedtuple("Return", "span value", defaults=(None,))):
    __slots__ = ()


Stmt = LocalDecl | Assign | CallStmt | Return


class Param(_Node, namedtuple("Param", "span type_name name")):
    __slots__ = ()


class FieldDecl(_Node, namedtuple("FieldDecl",
                                  "span visibility is_static is_const type_name name")):
    __slots__ = ()


class MethodDecl(_Node, namedtuple("MethodDecl",
                                   "span visibility is_static return_type name params body",
                                   defaults=((), ()))):
    __slots__ = ()

    def signature(self) -> str:
        params = ", ".join(f"{p.type_name} {p.name}" for p in self.params)
        return f"{self.name}({params})"


class ClassDecl(_Node, namedtuple("ClassDecl", "span name parent fields methods",
                                  defaults=(None, (), ()))):
    __slots__ = ()


class Program(_Node, namedtuple("Program", "classes", defaults=((),))):
    __slots__ = ()
