"""Hypothesis strategies for MiniOO programs, built from the grammar in
`ocdf.minioo.parser`'s docstring, so that a failing program shrinks.

`programs()` draws a program one production at a time. With `errors=True`
it also puts a stray token run at member and statement boundaries, where
the parser reports a syntax error and re-syncs. Names are drawn from an
alphabet that spells no keyword and holds no non-ASCII digit, which the
reference lexer in `oracles.py` reads differently (see
`test_minioo_differential`)."""

from hypothesis import strategies as st

# the first character of a name, then the rest; no keyword can be spelled
names = st.builds("".join, st.tuples(st.sampled_from("abxyzéK_"),
                                     st.text("abxyzé_09", max_size=3)))
types = st.sampled_from(["int", "void", "string"]) | names
visibilities = st.sampled_from(["public", "protected", "private"])
# token runs that are no member and no statement; a string or comment may
# hold what a token may not
junk = st.sampled_from([";", "}", ")", "= 1", "public", "static int", "42", '"s;}"',
                        "this .", "class", ",", "x . y", "int x = ;", "// } ;\n"])
# what separates two tokens: spaces, line breaks, a comment
gaps = st.sampled_from([" ", "  ", "\n", "\n\t", " // note\n", "\r\n"])


def _join(draw, parts) -> str:
    text = ""
    for part in parts:
        text += (draw(gaps) if text else "") + part
    return text


def _qualified(draw) -> str:
    return "this . " if draw(st.booleans()) else ""


@st.composite
def lvalues(draw) -> str:
    return _qualified(draw) + draw(names)


@st.composite
def calls(draw, args) -> str:
    arguments = draw(st.lists(args, max_size=3))
    return f"{_qualified(draw)}{draw(names)}({', '.join(arguments)})"


literals = st.integers(0, 10 ** 12).map(str) | st.sampled_from(['"s"', '"a\\"b"', '"}"', '";"'])
expressions = st.recursive(lvalues() | literals, lambda inner: calls(inner), max_leaves=6)


@st.composite
def statements(draw) -> str:
    form = draw(st.integers(0, 3))
    if form == 0:
        value = draw(st.none() | expressions)
        return f"{draw(types)} {draw(names)}{'' if value is None else ' = ' + value};"
    if form == 1:
        return f"{draw(lvalues())} = {draw(expressions)};"
    if form == 2:
        return f"{draw(calls(expressions))};"
    value = draw(st.none() | expressions)
    return f"return{'' if value is None else ' ' + value};"


@st.composite
def members(draw, errors: bool) -> str:
    head = [draw(visibilities)]
    if draw(st.booleans()):
        head.append("static")
    if draw(st.booleans()):  # a field
        if draw(st.booleans()):
            head.append("const")
        return _join(draw, [*head, draw(types), draw(names), ";"])
    params = draw(st.lists(st.builds("{} {}".format, types, names), max_size=3))
    body = draw(st.lists(_maybe_junk(statements(), errors), max_size=5))
    return _join(draw, [*head, draw(types), draw(names), f"({', '.join(params)})",
                        "{", *body, "}"])


@st.composite
def classes(draw, errors: bool) -> str:
    parent = draw(st.none() | names)
    head = ["class", draw(names)] + ([] if parent is None else [":", parent])
    body = draw(st.lists(_maybe_junk(members(errors), errors), max_size=5))
    return _join(draw, [*head, "{", *body, "}"])


def _maybe_junk(strategy, errors: bool):
    return strategy | junk if errors else strategy


@st.composite
def programs(draw, errors: bool = False) -> str:
    """MiniOO source: valid under the grammar, or with `errors` also with
    stray tokens at member and statement boundaries."""
    return _join(draw, draw(st.lists(classes(errors), max_size=3))) + draw(gaps)
