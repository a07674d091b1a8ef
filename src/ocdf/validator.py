"""Constraint checks over loaded models.

Each checkable rule has one code, and _RULES words each rule once for
explain(). A finding's message names its subjects and is built where the
check finds it. Findings are data, not failures: validate() always returns
a list.
"""

from __future__ import annotations

from .diagnostics import Code, Diagnostic, ModelError
from .model import (CONTROL, INTERFACE_METHOD, METHOD, PUBLIC, OcdfClass, OcdfModel,
                    _check_class, _check_class_names, _error, _roles)

# One entry per code: the rule the code enforces, worded once.
_RULES: dict[Code, str] = {
    Code.E_CF_ENDPOINT: "control flow may occur only between method instances",
    Code.E_DF_ENDPOINT: "data flow may occur only between two methods or a method and a data member",
    Code.E_CONST_WRITE: "only constructors may modify constant data members",
    Code.E_IFACE_VIS: "an interface method must have public visibility",
    Code.E_METHOD_VIS: "a non-interface method must have non-public visibility",
    Code.E_DANGLING_REF: "every flow endpoint must name a feature of the owning class",
    Code.E_DUP_ID: "feature ids and class names must be unique within their container",
    Code.E_BAD_ENUM: "kind and visibility tokens must come from the documented enumerations",
    Code.E_PARSE: "the document or source text must be well-formed",
    Code.E_NO_CLASS: "the requested class must be declared in the source",
    Code.E_RESOLVE: "a name must resolve to a parameter, local, or a field/method of the class or its ancestors",
    Code.E_INHERIT_CYCLE: "the parent chain of a class must be acyclic",
}


def explain(code: Code | str) -> str:
    """Human-readable rule text for a diagnostic code."""
    try:
        code = Code(code)
    except ValueError:
        raise ModelError([Diagnostic(Code.E_BAD_ENUM,
                                     f"unknown diagnostic code {code!r}")]) from None
    return _RULES[code]


def validate(model: OcdfModel) -> list[Diagnostic]:
    """Check every constraint; returns all violations sorted by
    (class name, code, subject ids). Empty list means the model conforms."""
    findings: list[Diagnostic] = []
    _check_class_names(model.classes, findings)
    for cls in model.classes:
        findings.extend(_validate_class(cls))
    findings.sort(key=Diagnostic.sort_key)
    return findings


def validate_class(cls: OcdfClass) -> list[Diagnostic]:
    """Validate a single class as if it were the whole model."""
    return validate(OcdfModel(classes=(cls,)))


def _validate_class(cls: OcdfClass) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    features, flows = _check_class(cls.name, cls.features, cls.flows, findings)
    for feat in cls.features:
        if feat.kind is INTERFACE_METHOD and feat.visibility is not PUBLIC:
            findings.append(_error(
                Code.E_IFACE_VIS, cls.name, (feat.id,),
                f"interface method '{feat.id}' has {feat.visibility} visibility; "
                "an interface method must be public"))
        elif feat.kind is METHOD and feat.visibility is PUBLIC:
            findings.append(_error(
                Code.E_METHOD_VIS, cls.name, (feat.id,),
                f"method '{feat.id}' has public visibility; "
                "a non-interface method must be non-public"))

    methods, writing, const = _roles(features)
    for flow in flows:
        source, target = flow.source, flow.target
        if flow.kind is CONTROL:
            if source not in methods or target not in methods:
                if source in features and target in features:  # else an E_DANGLING_REF
                    findings.append(_error(
                        Code.E_CF_ENDPOINT, cls.name, (source, target),
                        f"control flow {source}->{target} touches a data member; "
                        "control flow connects only method instances"))
        elif source not in methods and target not in methods:
            if source in features and target in features:  # else an E_DANGLING_REF
                findings.append(_error(
                    Code.E_DF_ENDPOINT, cls.name, (source, target),
                    f"data flow {source}->{target} connects two data members; "
                    "data flow connects two methods or a method and a data member"))
        elif target in const and source in writing:
            # Fires only on writes (const member as target); reads are fine.
            findings.append(_error(
                Code.E_CONST_WRITE, cls.name, (source, target),
                f"non-constructor '{source}' writes constant member '{target}'; "
                "only constructors may modify constant data members"))
    return findings
