"""Toolkit for intra-class control/data-flow models: build, serialize,
validate, extract from MiniOO source, analyze, and render as DOT.

`import ocdf` loads no submodule: each public name imports its module on
first access (PEP 562), so a caller pays only for the layers it uses.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    **dict.fromkeys(("RaceHazard", "SubstructureReport", "detect_races", "substructures"),
                    "analysis"),
    **dict.fromkeys(("Code", "Diagnostic", "MiniOoError", "ModelError", "OcdfError",
                     "Subject"), "diagnostics"),
    "check_dot": "dotcheck",
    **dict.fromkeys(("extract", "extract_lazy_inherited", "parse"), "minioo"),
    **dict.fromkeys(("Feature", "FeatureKind", "Flow", "FlowKind", "OcdfClass", "OcdfModel",
                     "Visibility", "build_class", "build_model"), "model"),
    "deserialize": "loader",
    "serialize": "writer",
    **dict.fromkeys(("AbstractionLevel", "RankDir", "RenderOptions", "project", "render_dot",
                     "render_model_dot"), "render"),
    **dict.fromkeys(("explain", "validate", "validate_class"), "validator"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # `from .module import name`; unlike importlib's path, -X importtime reports it
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
