"""Core data model: classes, features and flows.

A model is a directed graph per class: features (members, methods, interface
methods) are the nodes, control/data flows are the edges. Instances are
immutable after construction and safe to share across threads.

Structural rules (unique ids, resolvable flow endpoints, known enum tokens)
are enforced here on build and load; the validator reuses the same checks.
Constraint rules (endpoint kinds, visibility, const writes) are
representable on purpose and judged by the validator, so that non-conforming
documents can still be loaded and checked.

The canonical JSON form is written by `ocdf.writer` and read by
`ocdf.loader`, so a stage compiles only the half it runs.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter
from typing import Iterable

from .diagnostics import Code, Diagnostic, ModelError, Subject, TokenEnum, _Node

FORMAT_VERSION = 1


class FeatureKind(TokenEnum):
    MEMBER = "member"
    METHOD = "method"
    INTERFACE_METHOD = "interface_method"


class FlowKind(TokenEnum):
    CONTROL = "control"
    DATA = "data"


class Visibility(TokenEnum):
    PUBLIC = "public"
    PROTECTED = "protected"
    PRIVATE = "private"


# The members as module globals, for the loops that test one per feature or
# per flow: on CPython 3.11, reading `FlowKind.DATA` off its class costs
# about ten times as much as reading a global.
MEMBER, METHOD = FeatureKind.MEMBER, FeatureKind.METHOD
INTERFACE_METHOD = FeatureKind.INTERFACE_METHOD
CONTROL, DATA = FlowKind.CONTROL, FlowKind.DATA
PUBLIC = Visibility.PUBLIC

METHOD_KINDS = frozenset({METHOD, INTERFACE_METHOD})


class Feature(_Node, namedtuple(
        "Feature", "id kind name decl visibility is_static is_const is_constructor inherited",
        defaults=("", Visibility.PRIVATE, False, False, False, False))):
    """A node of the class graph.

    ``decl`` holds the type annotation for members and the signature text for
    methods. ``is_const`` is meaningful only for members, ``is_constructor``
    only for method kinds; the other flag is carried but ignored.
    """

    __slots__ = ()


class Flow(_Node, namedtuple("Flow", "kind source target label", defaults=(None,))):
    """A directed edge: control is caller->callee, data is provider->consumer."""

    __slots__ = ()

    def key(self) -> tuple[FlowKind, str, str]:
        """Identity triple; flows within a class have set semantics over it."""
        return _KEY(self)


class OcdfClass(_Node, namedtuple("OcdfClass", "name features flows", defaults=((), ()))):
    __slots__ = ()

    def feature_map(self) -> dict[str, Feature]:
        return {f.id: f for f in self.features}


class OcdfModel(_Node, namedtuple("OcdfModel", "classes", defaults=((),))):
    __slots__ = ()


def build_class(name: str, features: Iterable[Feature], flows: Iterable[Flow]) -> OcdfClass:
    """Assemble a class, checking structural rules and deduplicating flows.

    Raises ModelError with E_DUP_ID for repeated feature ids and
    E_DANGLING_REF for flows naming unknown features. All findings are
    collected before raising.
    """
    features = tuple(features)
    problems: list[Diagnostic] = []
    _, kept = _check_class(name, features, flows, problems)
    if problems:
        raise ModelError(problems)
    return OcdfClass(name=name, features=features, flows=kept)


def build_model(classes: Iterable[OcdfClass]) -> OcdfModel:
    """Wrap classes into a model, rejecting duplicate class names."""
    classes = tuple(classes)
    problems: list[Diagnostic] = []
    _check_class_names(classes, problems)
    if problems:
        raise ModelError(problems)
    return OcdfModel(classes=classes)


def _check_class(name: str, features: tuple[Feature, ...], flows: Iterable[Flow],
                 problems: list[Diagnostic]) -> tuple[dict[str, Feature], tuple[Flow, ...]]:
    """The structural rules of one class, owned here for build, load and the
    validator alike: feature ids are unique (E_DUP_ID) and every flow
    endpoint names a feature (E_DANGLING_REF). Violations are appended to
    ``problems`` in input order. Returns the id->feature map (the last
    feature wins a repeated id) and the flows with set semantics over
    Flow.key(), first occurrence kept.

    A class whose flows come as a tuple or list is first tested whole, one
    set operation per rule; only a class that fails that test is walked one
    feature and one flow at a time to find and report its violations. When
    no flow has a label, each flow is its own key, so no key is built."""
    if type(flows) is tuple or type(flows) is list:
        feature_map = dict(zip(map(_ID, features), features))
        if (len(feature_map) == len(features)
                and feature_map.keys() >= {*map(_SOURCE, flows), *map(_TARGET, flows)}):
            if {*map(_LABEL, flows)} <= {None}:
                return feature_map, tuple(dict.fromkeys(flows))
            if len(set(map(_KEY, flows))) == len(flows):
                return feature_map, tuple(flows)
    feature_map = {}
    for feat in features:
        if feat.id in feature_map:
            problems.append(_error(Code.E_DUP_ID, name, (feat.id,),
                                   f"duplicate feature id '{feat.id}'"))
        feature_map[feat.id] = feat
    kept: dict[tuple[FlowKind, str, str], Flow] = {}
    for flow in flows:
        if flow.source not in feature_map:
            problems.append(_dangling(name, flow.source))
        if flow.target not in feature_map:
            problems.append(_dangling(name, flow.target))
        kept.setdefault(flow.key(), flow)
    return feature_map, tuple(kept.values())


_ID = attrgetter("id")
_SOURCE = attrgetter("source")
_TARGET = attrgetter("target")
_LABEL = attrgetter("label")
_KEY = attrgetter("kind", "source", "target")  # Flow.key()


def _dangling(class_name: str, endpoint: str) -> Diagnostic:
    return _error(Code.E_DANGLING_REF, class_name, (endpoint,),
                  f"flow endpoint '{endpoint}' does not name a feature")


def _check_class_names(classes: Iterable[OcdfClass], problems: list[Diagnostic]) -> None:
    """Class names are unique within a model (E_DUP_ID)."""
    seen: set[str] = set()
    for cls in classes:
        if cls.name in seen:
            problems.append(_error(Code.E_DUP_ID, cls.name, (),
                                   f"duplicate class name '{cls.name}'"))
        seen.add(cls.name)


def _roles(feature_map: dict[str, Feature]) -> tuple[set[str], set[str], set[str]]:
    """The ids of the methods, the writers (methods that are not constructors)
    and the constant members in an id->feature map, the last feature winning
    a repeated id: the validator and detect_races test flow endpoints against them."""
    methods: set[str] = set()
    writers: set[str] = set()
    const_members: set[str] = set()
    for fid, feat in feature_map.items():
        if feat.kind in METHOD_KINDS:
            methods.add(fid)
            if not feat.is_constructor:
                writers.add(fid)
        elif feat.kind is MEMBER and feat.is_const:
            const_members.add(fid)
    return methods, writers, const_members


def _error(code: Code, class_name: str, ids: tuple[str, ...], message: str) -> Diagnostic:
    return Diagnostic(code, message, (Subject(class_name, ids),))


# A feature's four flags, in field order: the writer and the loader name them so.
_FLAG_KEYS = ("is_static", "is_const", "is_constructor", "inherited")


# Visibility token -> member, read by the loader and the MiniOO parser; a
# miss raises KeyError, or TypeError for an unhashable token such as a JSON
# list.
_VISIBILITIES = Visibility._value2member_map_
