import pytest

from ocdf.diagnostics import Code, MiniOoError
from ocdf.minioo import extract, extract_lazy_inherited, parse
from ocdf.model import FeatureKind, Visibility, build_model
from ocdf.validator import validate

from corpus_util import corpus_classes, corpus_programs
from oracles import interpreted_flows, resolvable_parent_features


def flow_set(cls):
    return {(f.kind.value, f.source, f.target) for f in cls.flows}


def test_single_field_read():
    program = parse("""
class C {
  private int x;
  public int get() { return this.x; }
}
""")
    cls = extract(program, "C")
    assert {f.id for f in cls.features} == {"x", "get"}
    assert flow_set(cls) == {("data", "x", "get")}


def test_call_with_argument_and_returned_result():
    program = parse("""
class C {
  public int run(int v) { return this.calc(v); }
  private int calc(int v) { return v; }
}
""")
    cls = extract(program, "C")
    assert flow_set(cls) == {
        ("control", "run", "calc"),
        ("data", "run", "calc"),
        ("data", "calc", "run"),
    }


def test_bare_call_result_not_consumed():
    program = parse("""
class C {
  public void run() { this.tick(); }
  private void tick() { }
}
""")
    cls = extract(program, "C")
    assert flow_set(cls) == {("control", "run", "tick")}


def test_constructor_writing_const_field_is_clean():
    program = parse("""
class C {
  private const int x;
  public void C(int v) { this.x = v; }
}
""")
    cls = extract(program, "C")
    ctor = cls.feature_map()["C"]
    assert ctor.is_constructor
    assert flow_set(cls) == {("data", "C", "x")}
    # the validator is the oracle here: a constructor write must not be flagged
    assert validate(build_model([cls])) == []


def test_non_constructor_const_write_is_extracted_and_flagged():
    program = parse("""
class C {
  private const int x;
  public void poke() { this.x = 1; }
}
""")
    cls = extract(program, "C")
    assert flow_set(cls) == {("data", "poke", "x")}
    assert [d.code for d in validate(build_model([cls]))] == [Code.E_CONST_WRITE]


def test_visibility_maps_to_kind():
    program = parse("""
class C {
  public void api() { }
  protected void guarded() { }
  private void hidden() { }
}
""")
    cls = extract(program, "C")
    kinds = {f.id: f.kind for f in cls.features}
    assert kinds == {
        "api": FeatureKind.INTERFACE_METHOD,
        "guarded": FeatureKind.METHOD,
        "hidden": FeatureKind.METHOD,
    }


def test_private_constructor_is_plain_method():
    program = parse("""
class C {
  private void C() { }
  public static void make() { this.C(); }
}
""")
    cls = extract(program, "C")
    ctor = cls.feature_map()["C"]
    assert (ctor.kind, ctor.is_constructor) == (FeatureKind.METHOD, True)


def test_local_propagation_is_one_level():
    program = parse("""
class C {
  private int f;
  public void m() { int t = this.f; this.n(t); }
  private void n(int v) { }
}
""")
    cls = extract(program, "C")
    assert flow_set(cls) == {
        ("data", "f", "m"),       # the field read lands on the reader
        ("control", "m", "n"),
        ("data", "m", "n"),       # argument passing from the caller
    }                              # and never ("data", "f", "n")


def test_recursion_keeps_self_loops():
    program = parse("""
class C {
  private void spin() { this.spin(); }
}
""")
    cls = extract(program, "C")
    assert flow_set(cls) == {("control", "spin", "spin")}


def test_unknown_class():
    program = parse("class C { }")
    with pytest.raises(MiniOoError) as err:
        extract(program, "Nope")
    assert err.value.errors[0].code == Code.E_NO_CLASS


def test_unresolved_name():
    program = parse("""
class C {
  public int get() { return this.ghost; }
}
""")
    with pytest.raises(MiniOoError) as err:
        extract(program, "C")
    error = err.value.errors[0]
    assert error.code == Code.E_RESOLVE
    assert (error.line, error.column) == (3, 29)


def test_method_used_as_value_is_resolution_error():
    program = parse("""
class C {
  private int f() { return 0; }
  public int get() { return this.f; }
}
""")
    with pytest.raises(MiniOoError) as err:
        extract(program, "C")
    assert err.value.errors[0].code == Code.E_RESOLVE


def test_duplicate_declaration():
    program = parse("""
class C {
  private int x;
  private string x;
}
""")
    with pytest.raises(MiniOoError) as err:
        extract(program, "C")
    assert err.value.errors[0].code == Code.E_DUP_ID


def test_inheritance_cycle():
    program = parse("class A : B { } class B : A { }")
    with pytest.raises(MiniOoError) as err:
        extract(program, "A")
    assert err.value.errors[0].code == Code.E_INHERIT_CYCLE


@pytest.mark.parametrize("source, selected, repeated, position", [
    # the selected class: the second body is not silently dropped
    ("class A { }\nclass A { private int x; }\n", "A", "A", (2, 1)),
    # an ancestor on the selected class's parent chain
    ("class P { }\n  class P { private int x; }\n"
     "class C : P { public int f() { return x; } }\n", "C", "P", (2, 3)),
])
@pytest.mark.parametrize("extractor", [extract, extract_lazy_inherited])
def test_repeated_class_is_a_duplicate_at_its_second_declaration(
        source, selected, repeated, position, extractor):
    with pytest.raises(MiniOoError) as err:
        extractor(parse(source), selected)
    (error,) = err.value.errors
    assert (error.code, error.message) == (Code.E_DUP_ID,
                                           f"duplicate class name '{repeated}'")
    assert (error.line, error.column) == position


def test_repeated_class_off_the_parent_chain_is_not_read():
    program = parse("class A { } class A { } class B { private int x; }")
    assert [f.id for f in extract(program, "B").features] == ["x"]


MISUSE_BASE = "class Base { protected void helper() { } }\n"


@pytest.mark.parametrize("body, message, position", [
    ("private int f(int a) { return a(); }", "'a' is not a method", (3, 31)),
    ("private void f() { int t = 1; t(); }", "'t' is not a method", (3, 31)),
    ("private int x;\nprivate void f() { this.x(); }", "'x' is not a method", (4, 20)),
    ("private void g() { }\nprivate void f() { this.g = 1; }",
     "cannot assign to method 'g'", (4, 20)),
    ("private int f() { return this.helper; }",
     "method 'helper' used as a value", (3, 26)),
], ids=["called_parameter", "called_local", "called_field", "assigned_method",
        "inherited_method_as_value"])
def test_name_misuse_is_one_resolution_error(body, message, position):
    program = parse(MISUSE_BASE + "class C : Base {\n" + body + "\n}\n")
    for extractor in (extract, extract_lazy_inherited):
        with pytest.raises(MiniOoError) as err:
            extractor(program, "C")
        assert [(e.code, e.message, (e.line, e.column)) for e in err.value.errors] == [
            (Code.E_RESOLVE, message, position)]


# lazy inheritance

LAZY_SOURCE = """
class Base {
  protected int p;
  protected int q;
  protected void helper() { }
}

class Child : Base {
  public int read() { return this.p; }
}
"""


def test_lazy_includes_only_referenced_parent_features():
    program = parse(LAZY_SOURCE)
    cls = extract_lazy_inherited(program, "Child")
    by_id = cls.feature_map()
    assert set(by_id) == {"read", "p"}
    assert by_id["p"].inherited
    assert not by_id["read"].inherited
    assert flow_set(cls) == {("data", "p", "read")}


def test_lazy_with_no_parent_references():
    program = parse("""
class Base {
  protected int a;
  protected int b;
  protected int c;
  protected void u() { }
  protected void v() { }
}
class Child : Base {
  private int own;
  public int get() { return this.own; }
}
""")
    cls = extract_lazy_inherited(program, "Child")
    assert all(not f.inherited for f in cls.features)
    assert {f.id for f in cls.features} == {"own", "get"}


def test_plain_extract_drops_parent_flows():
    program = parse(LAZY_SOURCE)
    cls = extract(program, "Child")
    assert {f.id for f in cls.features} == {"read"}
    assert flow_set(cls) == set()


def test_lazy_reaches_through_chain():
    program = parse("""
class A { protected int f; }
class B : A { protected int g; }
class C : B {
  public int sum() { int t = this.f; return this.g; }
}
""")
    cls = extract_lazy_inherited(program, "C")
    by_id = cls.feature_map()
    assert by_id["f"].inherited and by_id["g"].inherited
    # oracle: the parent-chain walk must agree that f and g are visible
    visible = resolvable_parent_features(program, "C")
    assert {"f", "g"} <= visible
    inherited_ids = {f.id for f in cls.features if f.inherited}
    assert inherited_ids <= visible


def test_own_declaration_shadows_parent():
    program = parse("""
class Base {
  protected int v;
  protected string speak() { return "base"; }
}
class Sub : Base {
  private int v;
  public int get() { return this.v; }
  public string talk() { return this.speak(); }
  protected string speak() { return "sub"; }
}
""")
    cls = extract_lazy_inherited(program, "Sub")
    assert all(not f.inherited for f in cls.features)
    assert ("data", "v", "get") in flow_set(cls)
    assert ("control", "talk", "speak") in flow_set(cls)


@pytest.mark.parametrize("source, features, flows", [
    # a nearer level shadows a farther one, whatever the kinds
    ("""class A { protected int v; }
class B : A { protected int v() { return 1; } }
class C : B { public int get() { return this.v(); } }""",
     [("get", "interface_method", False), ("v", "method", True)],
     {("control", "get", "v"), ("data", "v", "get")}),
    ("""class A { protected int v() { return 1; } }
class B : A { protected int v; }
class C : B { public int get() { return this.v; } }""",
     [("get", "interface_method", False), ("v", "member", True)],
     {("data", "v", "get")}),
    # within one ancestor, its field wins over its method of the same name
    ("""class A { protected void v() { } protected int v; }
class C : A { public int get() { return this.v; } }""",
     [("get", "interface_method", False), ("v", "member", True)],
     {("data", "v", "get")}),
    # this.-qualified names skip parameters and locals
    ("""class C {
  private int x;
  private int y;
  public int get(int x) { int y = x; this.y = y; return this.x; }
}""",
     [("x", "member", False), ("y", "member", False), ("get", "interface_method", False)],
     {("data", "get", "y"), ("data", "x", "get")}),
    # inherited features are listed in first-use order
    ("""class A { protected int a; protected int b; protected void c() { } }
class C : A { public int get() { this.c(); this.a = this.b; return this.a; } }""",
     [("get", "interface_method", False), ("c", "method", True), ("b", "member", True),
      ("a", "member", True)],
     {("control", "get", "c"), ("data", "b", "get"), ("data", "get", "a"),
      ("data", "a", "get")}),
], ids=["nearer_method_shadows_field", "nearer_field_shadows_method",
        "field_wins_within_a_level", "this_skips_scope", "first_use_order"])
def test_name_resolution_order(source, features, flows):
    cls = extract_lazy_inherited(parse(source), "C")
    assert [(f.id, f.kind.value, f.inherited) for f in cls.features] == features
    assert flow_set(cls) == flows


def test_inherited_const_write_left_to_validator():
    program = parse("""
class Base { protected const int k; }
class Sub : Base {
  public void poke() { this.k = 1; }
}
""")
    cls = extract_lazy_inherited(program, "Sub")
    assert flow_set(cls) == {("data", "poke", "k")}
    assert [d.code for d in validate(build_model([cls]))] == [Code.E_CONST_WRITE]


# corpus-wide properties

def test_feature_counts_match_declarations_everywhere():
    for path, program, name in corpus_classes():
        decl = next(c for c in program.classes if c.name == name)
        cls = extract(program, name)
        members = [f for f in cls.features if f.kind is FeatureKind.MEMBER]
        methods = [f for f in cls.features if f.kind is not FeatureKind.MEMBER]
        assert len(members) == len(decl.fields), f"{path}:{name}"
        assert len(methods) == len(decl.methods), f"{path}:{name}"


def test_extraction_matches_interpreter_on_corpus():
    for path, program, name in corpus_classes():
        for lazy in (False, True):
            extractor = extract_lazy_inherited if lazy else extract
            cls = extractor(program, name)
            expected = interpreted_flows(program, name, include_inherited=lazy)
            assert flow_set(cls) == expected, f"{path}:{name} lazy={lazy}"


def test_extraction_is_validator_clean_on_corpus():
    # corpus sources never write const fields outside constructors
    for path, program, name in corpus_classes():
        cls = extract_lazy_inherited(program, name)
        assert validate(build_model([cls])) == [], f"{path}:{name}"


def test_extraction_is_deterministic():
    for path, program in corpus_programs():
        source = path.read_text(encoding="utf-8")
        again = parse(source)
        for cls_decl in program.classes:
            first = extract(program, cls_decl.name)
            second = extract(again, cls_decl.name)
            assert first == second
