"""DOT output for class flow models.

Notation: members are plain boxes labeled "<vis> name : type"; methods are
rounded boxes labeled with their signature; interface methods additionally
get a light gray fill. Control flows are dashed arrows (labeled when a label
is set), data flows solid arrows from provider to consumer. Inherited
features get a dashed border and static features a "static " label prefix;
both are conventions of this renderer, not of the notation.

Output is deterministic: LF line endings, two-space indentation, nodes and
edges in model order.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable

from .analysis import AbstractionLevel, project
from .diagnostics import TokenEnum, _Node
from .model import CONTROL, INTERFACE_METHOD, MEMBER, Feature, OcdfClass, OcdfModel, Visibility


class RankDir(TokenEnum):
    """Graph direction; the values are DOT's rankdir tokens."""

    TOP_DOWN = "TB"
    LEFT_RIGHT = "LR"


class RenderOptions(_Node, namedtuple("RenderOptions", "level show_inherited rankdir",
                                      defaults=(AbstractionLevel.L3, True, RankDir.TOP_DOWN))):
    __slots__ = ()


_VIS_SYMBOL = {Visibility.PUBLIC: "+", Visibility.PROTECTED: "#", Visibility.PRIVATE: "-"}


def render_dot(cls: OcdfClass, opts: RenderOptions = RenderOptions()) -> str:
    """One class as a complete DOT document."""
    return render_model_dot(OcdfModel(classes=(cls,)), opts)


def render_model_dot(model: OcdfModel, opts: RenderOptions = RenderOptions()) -> str:
    """All classes of a model in one digraph, one cluster per class."""
    lines = ["digraph ocdf {"]
    lines.append(f"  rankdir={opts.rankdir.value};")
    node_id, cluster_id = _dot_ids(), _dot_ids()  # unique across the digraph
    for cls in model.classes:
        lines.extend(_render_class(cls, opts, node_id, cluster_id))
    lines += ("}", "")  # the empty last line ends the text with a newline
    return "\n".join(lines)


def _render_class(cls: OcdfClass, opts: RenderOptions, node_id: Callable[[str], str],
                  cluster_id: Callable[[str], str]) -> list[str]:
    cls = project(cls, opts.level)
    features = [f for f in cls.features if opts.show_inherited or not f.inherited]
    ids = {feat.id: node_id(feat.id) for feat in features}
    # No edge for a flow to a hidden feature, or to none (the validator's E_DANGLING_REF).
    flows = [f for f in cls.flows if f.source in ids and f.target in ids]
    lines = [f"  subgraph cluster_{cluster_id(cls.name)} {{",
             f'    label="{_escape(cls.name)}";']
    for feat in features:
        attrs = [f'label="{_escape(_label(feat))}"', "shape=box"]
        style = _style(feat)
        if style:
            attrs.append(f'style="{style}"')
        if feat.kind is INTERFACE_METHOD:
            attrs.append("fillcolor=lightgray")
        lines.append(f"    {ids[feat.id]} [{', '.join(attrs)}];")
    for flow in flows:
        attrs = []
        if flow.kind is CONTROL:
            attrs.append("style=dashed")
        if flow.label is not None:
            attrs.append(f'label="{_escape(flow.label)}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"    {ids[flow.source]} -> {ids[flow.target]}{suffix};")
    lines.append("  }")
    return lines


def _label(feat: Feature) -> str:
    symbol = _VIS_SYMBOL[feat.visibility]
    static = "static " if feat.is_static else ""
    if feat.kind is MEMBER:
        typed = f" : {feat.decl}" if feat.decl else ""
        return f"{symbol} {static}{feat.name}{typed}"
    signature = feat.decl or f"{feat.name}()"
    return f"{symbol} {static}{signature}"


def _style(feat: Feature) -> str:
    parts = []
    if feat.kind is not MEMBER:
        parts.append("rounded")
    if feat.kind is INTERFACE_METHOD:
        parts.append("filled")
    if feat.inherited:
        parts.append("dashed")
    return ",".join(parts)


def _dot_ids() -> Callable[[str], str]:
    """A function that gives each identifier a DOT id that it has not given
    before: the identifier with each character outside [A-Za-z0-9_] made
    `_` and an `f_` prefix before a leading digit, or if that is taken, its
    smallest free suffix from 2 up. `used` only grows, so the search for a
    base resumes where its last one stopped."""
    used: set[str] = set()
    next_suffix: dict[str, int] = {}

    def dot_id(identifier: str) -> str:
        base = re.sub(r"[^A-Za-z0-9_]", "_", identifier)
        if not base or base[0].isdigit():
            base = f"f_{base}"
        candidate = base
        suffix = next_suffix.get(base, 2)
        while candidate in used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        next_suffix[base] = suffix
        used.add(candidate)
        return candidate

    return dot_id


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
