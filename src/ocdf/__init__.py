"""Toolkit for intra-class control/data-flow models: build, serialize,
validate, extract from MiniOO source, analyze, and render as DOT."""

from .analysis import (
    AbstractionLevel,
    RaceHazard,
    SubstructureReport,
    detect_races,
    project,
    substructures,
)
from .diagnostics import Code, Diagnostic, MiniOoError, ModelError, OcdfError, Subject
from .dotcheck import check_dot
from .minioo import extract, extract_lazy_inherited, parse
from .model import (
    Feature,
    FeatureKind,
    Flow,
    FlowKind,
    OcdfClass,
    OcdfModel,
    Visibility,
    build_class,
    build_model,
    deserialize,
    serialize,
)
from .render import RankDir, RenderOptions, render_dot, render_model_dot
from .validator import explain, validate, validate_class

__version__ = "0.1.0"

__all__ = [
    "AbstractionLevel",
    "Code",
    "Diagnostic",
    "Feature",
    "FeatureKind",
    "Flow",
    "FlowKind",
    "MiniOoError",
    "ModelError",
    "OcdfClass",
    "OcdfError",
    "OcdfModel",
    "RaceHazard",
    "RankDir",
    "RenderOptions",
    "Subject",
    "SubstructureReport",
    "build_class",
    "build_model",
    "check_dot",
    "deserialize",
    "detect_races",
    "explain",
    "extract",
    "extract_lazy_inherited",
    "parse",
    "project",
    "render_dot",
    "render_model_dot",
    "serialize",
    "substructures",
    "validate",
    "validate_class",
]
