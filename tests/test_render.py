import random
import re

from ocdf.analysis import AbstractionLevel, project
from ocdf.dotcheck import check_dot
from ocdf.minioo import extract, extract_lazy_inherited, parse
from ocdf.model import (
    Feature,
    FeatureKind,
    Flow,
    FlowKind,
    OcdfClass,
    Visibility,
    build_class,
    build_model,
)
from ocdf.render import RankDir, RenderOptions, render_dot, render_model_dot

from generators import random_valid_class, random_valid_model


SAMPLE = build_class(
    "C",
    [Feature(id="x", kind=FeatureKind.MEMBER, name="x", decl="int",
             visibility=Visibility.PRIVATE),
     Feature(id="run", kind=FeatureKind.INTERFACE_METHOD, name="run", decl="run()",
             visibility=Visibility.PUBLIC)],
    [Flow(FlowKind.DATA, "x", "run")],
)


def test_notation_for_member_interface_and_data_flow():
    dot = render_dot(SAMPLE)
    assert 'x [label="- x : int", shape=box];' in dot
    assert 'run [label="+ run()", shape=box, style="rounded,filled", fillcolor=lightgray];' in dot
    assert "x -> run;" in dot
    assert "style=dashed" not in dot


def test_empty_class_is_just_a_cluster():
    dot = render_dot(build_class("Empty", [], []))
    assert "subgraph cluster_Empty {" in dot
    assert "->" not in dot
    assert check_dot(dot) == []


def test_rendering_is_deterministic():
    assert render_dot(SAMPLE) == render_dot(SAMPLE)


def test_control_flows_are_dashed_and_labeled():
    cls = build_class(
        "C",
        [Feature(id="f", kind=FeatureKind.METHOD, name="f", decl="f()",
                 visibility=Visibility.PRIVATE),
         Feature(id="g", kind=FeatureKind.METHOD, name="g", decl="g()",
                 visibility=Visibility.PRIVATE)],
        [Flow(FlowKind.CONTROL, "f", "g", label="retry"),
         Flow(FlowKind.DATA, "f", "g")],
    )
    dot = render_dot(cls)
    assert 'f -> g [style=dashed, label="retry"];' in dot
    assert "\n    f -> g;" in dot


def test_visibility_symbols():
    cls = build_class(
        "C",
        [Feature(id="a", kind=FeatureKind.MEMBER, name="a", decl="int",
                 visibility=Visibility.PUBLIC),
         Feature(id="b", kind=FeatureKind.MEMBER, name="b", decl="int",
                 visibility=Visibility.PROTECTED),
         Feature(id="c", kind=FeatureKind.MEMBER, name="c", decl="int",
                 visibility=Visibility.PRIVATE)],
        [],
    )
    dot = render_dot(cls)
    assert 'label="+ a : int"' in dot
    assert 'label="# b : int"' in dot
    assert 'label="- c : int"' in dot


def test_static_prefix_and_inherited_dashes():
    cls = build_class(
        "C",
        [Feature(id="n", kind=FeatureKind.MEMBER, name="n", decl="int",
                 visibility=Visibility.PRIVATE, is_static=True),
         Feature(id="h", kind=FeatureKind.METHOD, name="h", decl="h()",
                 visibility=Visibility.PROTECTED, inherited=True)],
        [],
    )
    dot = render_dot(cls)
    assert 'label="- static n : int"' in dot
    assert 'style="rounded,dashed"' in dot


def test_hide_inherited_drops_nodes_and_their_flows():
    cls = build_class(
        "C",
        [Feature(id="p", kind=FeatureKind.MEMBER, name="p", decl="int",
                 visibility=Visibility.PROTECTED, inherited=True),
         Feature(id="get", kind=FeatureKind.INTERFACE_METHOD, name="get",
                 decl="get()", visibility=Visibility.PUBLIC)],
        [Flow(FlowKind.DATA, "p", "get")],
    )
    dot = render_dot(cls, RenderOptions(show_inherited=False))
    assert "p [" not in dot
    assert "->" not in dot


def test_dangling_flow_draws_no_edge():
    cls = OcdfClass("C", (Feature("a", FeatureKind.METHOD, "a"),),
                    (Flow(FlowKind.DATA, "a", "zz"),))
    for show_inherited in (True, False):
        dot = render_dot(cls, RenderOptions(show_inherited=show_inherited))
        assert check_dot(dot) == []
        assert "->" not in dot and "zz" not in dot


def test_rankdir_option():
    assert "rankdir=TB;" in render_dot(SAMPLE)
    assert "rankdir=LR;" in render_dot(SAMPLE, RenderOptions(rankdir=RankDir.LEFT_RIGHT))


def test_node_ids_are_sanitized_without_colliding():
    cls = build_class(
        "C",
        [Feature(id="a.b", kind=FeatureKind.MEMBER, name="a.b", decl="int",
                 visibility=Visibility.PRIVATE),
         Feature(id="a_b", kind=FeatureKind.MEMBER, name="a_b", decl="int",
                 visibility=Visibility.PRIVATE),
         Feature(id="9lives", kind=FeatureKind.MEMBER, name="9lives", decl="int",
                 visibility=Visibility.PRIVATE)],
        [Flow(FlowKind.DATA, "a.b", "a_b")],
    )
    dot = render_dot(cls)
    assert check_dot(dot) == []
    assert "a_b [" in dot and "a_b_2 [" in dot
    assert "f_9lives [" in dot


def _declared_nodes(dot: str) -> list[str]:
    return re.findall(r"^    (\w+) \[", dot, re.MULTILINE)


def test_node_and_cluster_ids_are_unique_across_the_digraph():
    """Graphviz merges a node or cluster that is declared twice, so classes
    that share feature ids, or whose names sanitize alike, take suffixes."""
    def sample(name):
        return build_class(name, SAMPLE.features, SAMPLE.flows)

    dot = render_model_dot(build_model([sample("A-B"), sample("A_B")]))
    assert check_dot(dot) == []
    assert _declared_nodes(dot) == ["x", "run", "x_2", "run_2"]
    assert "subgraph cluster_A_B {" in dot and "subgraph cluster_A_B_2 {" in dot
    assert "    x -> run;" in dot and "    x_2 -> run_2;" in dot
    # generated classes all number their features f0, f1, ...
    rng = random.Random(609)
    for _ in range(25):
        model = random_valid_model(rng)
        declared = _declared_nodes(render_model_dot(model))
        assert len(set(declared)) == len(declared) == sum(len(c.features) for c in model.classes)


def test_label_escaping():
    cls = build_class(
        "C",
        [Feature(id="s", kind=FeatureKind.MEMBER, name='say"hi"', decl='string',
                 visibility=Visibility.PRIVATE)],
        [],
    )
    dot = render_dot(cls)
    assert '\\"hi\\"' in dot
    assert check_dot(dot) == []


def test_node_and_edge_counts_after_projection():
    rng = random.Random(606)
    for _ in range(25):
        cls = random_valid_class(rng)
        for level in AbstractionLevel:
            dot = render_dot(cls, RenderOptions(level=level))
            projected = project(cls, level)
            node_lines = [l for l in dot.splitlines() if "shape=box" in l]
            edge_lines = [l for l in dot.splitlines() if "->" in l]
            assert len(node_lines) == len(projected.features)
            assert len(edge_lines) == len(projected.flows)


def test_dashed_iff_control():
    rng = random.Random(607)
    for _ in range(25):
        cls = random_valid_class(rng)
        dot = render_dot(cls)
        controls = sum(1 for f in cls.flows if f.kind is FlowKind.CONTROL)
        dashed = sum(1 for l in dot.splitlines() if "->" in l and "style=dashed" in l)
        assert dashed == controls


def test_emitted_documents_pass_dot_checker():
    rng = random.Random(608)
    for _ in range(25):
        assert check_dot(render_dot(random_valid_class(rng))) == []


def test_corpus_class_render_parses():
    program = parse("""
class Sample {
  private int x;
  public int get() { return this.x; }
}
""")
    dot = render_dot(extract(program, "Sample"))
    assert check_dot(dot) == []


def test_checker_rejects_malformed_documents():
    assert check_dot("graph g { }") != []
    assert check_dot("digraph g { a -> ; }") != []
    assert check_dot("digraph g { a [label=\"unterminated ]; }") != []
    assert check_dot("digraph g {") != []
    assert check_dot("digraph g { } trailing") != []
