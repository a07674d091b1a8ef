import pytest

from ocdf.diagnostics import Code, MiniOoError
from ocdf.minioo import ast, extract, parse
from ocdf.minioo.parser import MAX_NESTING
from ocdf.model import Visibility


def test_empty_class():
    program = parse("class C { }")
    assert len(program.classes) == 1
    cls = program.classes[0]
    assert (cls.name, cls.parent, cls.fields, cls.methods) == ("C", None, (), ())


def test_const_field_with_parent():
    program = parse("class C : B { private const int x; }")
    cls = program.classes[0]
    assert cls.parent == "B"
    field = cls.fields[0]
    assert (field.visibility, field.is_const, field.is_static) == (
        Visibility.PRIVATE, True, False)
    assert (field.type_name, field.name) == ("int", "x")


def test_missing_semicolon_reports_at_closing_brace():
    with pytest.raises(MiniOoError) as err:
        parse("class C { private int x }")
    errors = err.value.errors
    assert len(errors) == 1
    assert errors[0].code == Code.E_PARSE
    assert "';'" in errors[0].message
    assert (errors[0].line, errors[0].column) == (1, 25)  # the '}' token


def test_method_declaration():
    program = parse("""
class C {
  protected static int calc(int a, string b) { return a; }
}
""")
    method = program.classes[0].methods[0]
    assert method.visibility is Visibility.PROTECTED
    assert method.is_static
    assert method.return_type == "int"
    assert [p.name for p in method.params] == ["a", "b"]
    assert method.signature() == "calc(int a, string b)"
    assert isinstance(method.body[0], ast.Return)


def test_statement_shapes():
    program = parse("""
class C {
  private int x;
  private void f(int p) {
    int local = 3;
    local = p;
    this.x = local;
    x = 4;
    this.f(1);
    f(p);
    return;
  }
}
""")
    body = program.classes[0].methods[0].body
    kinds = [type(s).__name__ for s in body]
    assert kinds == ["LocalDecl", "Assign", "Assign", "Assign",
                     "CallStmt", "CallStmt", "Return"]
    assert body[2].target.this_qualified
    assert not body[3].target.this_qualified
    assert body[4].call.args == (ast.IntLit(span=body[4].call.args[0].span, value=1),)


def test_nested_call_and_string_argument():
    program = parse("""
class C {
  private int g(int a) { return a; }
  private int h() { return this.g(this.g(0)); }
  private void s(string t) { this.s("quoted \\" ok"); }
}
""")
    ret = program.classes[0].methods[1].body[0]
    call = ret.value
    assert isinstance(call, ast.CallExpr)
    assert isinstance(call.args[0], ast.CallExpr)
    stmt = program.classes[0].methods[2].body[0]
    assert stmt.call.args[0].value == 'quoted " ok'


def test_comments_are_skipped():
    program = parse("// header\nclass C { // trailing\n}\n")
    assert program.classes[0].name == "C"


def test_spans_are_recorded():
    program = parse("class C {\n  private int x;\n}")
    field = program.classes[0].fields[0]
    assert (field.span.line, field.span.column) == (2, 3)


def test_multiple_errors_reported_in_one_pass():
    source = """
class A { private int x }
class B { private int ; }
"""
    with pytest.raises(MiniOoError) as err:
        parse(source)
    assert len(err.value.errors) >= 2
    assert all(e.code == Code.E_PARSE for e in err.value.errors)
    assert all(e.line > 0 and e.column > 0 for e in err.value.errors)


def test_unexpected_character():
    with pytest.raises(MiniOoError) as err:
        parse("class C { private int x; $ }")
    assert any("unexpected character" in e.message for e in err.value.errors)


def test_unterminated_string():
    with pytest.raises(MiniOoError) as err:
        parse('class C { private void f() { this.f("oops); } }')
    assert any("unterminated" in e.message for e in err.value.errors)


def test_keywords_cannot_name_classes():
    with pytest.raises(MiniOoError):
        parse("class class { }")


def test_toplevel_garbage():
    with pytest.raises(MiniOoError) as err:
        parse("42 class C { }")
    assert any("expected 'class'" in e.message for e in err.value.errors)


def nested_calls(depth):
    """A class whose method returns f(f(...f(a)...)) with depth calls."""
    return ("class C {\n  private int f(int a) {\n    return " + "f(" * depth + "a"
            + ")" * depth + ";\n  }\n  private int g() { return 1; }\n}\n")


def test_calls_nest_up_to_the_bound():
    program = parse(nested_calls(MAX_NESTING))
    expr, depth = program.classes[0].methods[0].body[0].value, 0
    while isinstance(expr, ast.CallExpr):
        expr, depth = expr.args[0], depth + 1
    assert depth == MAX_NESTING
    flows = {(f.kind.value, f.source, f.target) for f in extract(program, "C").flows}
    assert flows == {("control", "f", "f"), ("data", "f", "f")}


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_deeper_nesting_is_one_parse_error_at_its_parenthesis(depth):
    with pytest.raises(MiniOoError) as err:
        parse(nested_calls(depth))
    # "    return " is 11 columns; each "f(" is two more
    assert [(e.code, e.line, e.column) for e in err.value.errors] == [
        (Code.E_PARSE, 3, 13 + 2 * MAX_NESTING)]
