"""Seeded random generators used by property and acceptance tests.

Generated models always satisfy every constraint: interface methods are
public, methods are non-public, flows respect endpoint rules, and const
members are only ever written by constructors.

Generated MiniOO sources follow the grammar in ``ocdf.minioo.parser`` and
every name in them resolves, so they parse and extract cleanly; mutate_source
then damages them to reach the error paths.
"""

from __future__ import annotations

import itertools
import random

from ocdf.model import (
    Feature,
    FeatureKind,
    Flow,
    FlowKind,
    OcdfClass,
    OcdfModel,
    Visibility,
    build_class,
    build_model,
)

_NAME_STEMS = ["cache", "index", "paint", "sync", "parse", "load", "emit",
               "queue", "merge", "track"]


def random_feature(rng: random.Random, index: int) -> Feature:
    kind = rng.choice([FeatureKind.MEMBER, FeatureKind.METHOD,
                       FeatureKind.INTERFACE_METHOD])
    name = f"{rng.choice(_NAME_STEMS)}_{index}"
    if kind is FeatureKind.INTERFACE_METHOD:
        visibility = Visibility.PUBLIC
    elif kind is FeatureKind.METHOD:
        visibility = rng.choice([Visibility.PROTECTED, Visibility.PRIVATE])
    else:
        visibility = rng.choice(list(Visibility))
    return Feature(
        id=f"f{index}",
        kind=kind,
        name=name,
        decl="int" if kind is FeatureKind.MEMBER else f"{name}()",
        visibility=visibility,
        is_static=rng.random() < 0.2,
        is_const=kind is FeatureKind.MEMBER and rng.random() < 0.3,
        is_constructor=kind is not FeatureKind.MEMBER and rng.random() < 0.15,
        inherited=rng.random() < 0.1,
    )


def random_valid_class(rng: random.Random, name: str = "C",
                       max_features: int = 12) -> OcdfClass:
    features = [random_feature(rng, i) for i in range(rng.randint(1, max_features))]
    members = [f for f in features if f.kind is FeatureKind.MEMBER]
    methods = [f for f in features if f.kind is not FeatureKind.MEMBER]
    constructors = [f for f in methods if f.is_constructor]

    flows: list[Flow] = []
    for _ in range(rng.randint(0, 2 * len(features))):
        roll = rng.random()
        if roll < 0.35 and len(methods) >= 1:
            a, b = rng.choice(methods), rng.choice(methods)
            label = rng.choice([None, None, None, "calls"])
            flows.append(Flow(FlowKind.CONTROL, a.id, b.id, label))
        elif roll < 0.55 and members and methods:
            flows.append(Flow(FlowKind.DATA, rng.choice(members).id,
                              rng.choice(methods).id))
        elif roll < 0.75 and members and methods:
            member = rng.choice(members)
            pool = constructors if member.is_const else methods
            if pool:
                flows.append(Flow(FlowKind.DATA, rng.choice(pool).id, member.id))
        elif len(methods) >= 1:
            a, b = rng.choice(methods), rng.choice(methods)
            flows.append(Flow(FlowKind.DATA, a.id, b.id))
    return build_class(name, features, flows)


def random_valid_model(rng: random.Random) -> OcdfModel:
    count = rng.choice([0, 1, 1, 1, 2, 3])
    classes = [random_valid_class(rng, name=f"Class{i}") for i in range(count)]
    return build_model(classes)


# --- MiniOO sources ----------------------------------------------------------

# Identifier stems, non-ASCII ones among them: a letter with a diacritic, a
# sharp s, CJK, and a superscript digit, which may continue an identifier
# but not start one.
_MINIOO_STEMS = ["count", "size", "é", "straße", "变量", "x²", "_tmp", "Δt", "naïve"]
_COMMENTS = ["note", "TODO: split é/ß", "变量 // nested", "\"quoted\"", "x² ½"]
# string values, some spelled like a keyword or punctuation
_STRINGS = ['plain', 'say \\"hi\\"', 'back\\\\slash', 'esc\\t', 'line\\\nbreak', 'ünï',
            ';', ')', ',', '}', 'this', 'return']


def random_minioo_source(rng: random.Random, max_classes: int = 4) -> str:
    """A MiniOO program of 1 to max_classes classes. Later classes may extend
    earlier ones or a class that is not declared, so parent chains form;
    names are unique in the whole program, so every reference resolves."""
    serial = itertools.count()
    lines: list[str] = []
    declared: dict[str, tuple[str | None, list[str], list[str]]] = {}  # parent, fields, methods

    def fresh(stem: str | None = None) -> str:
        return f"{stem or rng.choice(_MINIOO_STEMS)}{next(serial)}"

    def comment() -> str:
        return f"  // {rng.choice(_COMMENTS)}" if rng.random() < 0.2 else ""

    for _ in range(rng.randint(1, max_classes)):
        name = fresh("Kläss" if rng.random() < 0.3 else "C")
        parent = None
        if declared and rng.random() < 0.7:
            parent = rng.choice(list(declared))
        elif rng.random() < 0.1:
            parent = "Undeclared"
        own_fields = [fresh() for _ in range(rng.randint(0, 4))]
        own_methods = [fresh() for _ in range(rng.randint(1, 4))]
        # names visible in this class: its own and its declared ancestors'
        fields, methods = list(own_fields), list(own_methods)
        ancestor = parent
        while ancestor in declared:
            ancestor, more_fields, more_methods = declared[ancestor]
            fields += more_fields
            methods += more_methods
        if rng.random() < 0.3:
            lines.append(f"// {rng.choice(_COMMENTS)}")
        lines.append(f"class {name}{f' : {parent}' if parent else ''} {{{comment()}")
        for field in own_fields:
            vis = rng.choice(["public", "protected", "private"])
            quals = "".join(q for q in ("static ", "const ") if rng.random() < 0.2)
            lines.append(f"  {vis} {quals}int {field};{comment()}")
        for method in own_methods:
            vis = rng.choice(["public", "protected", "private"])
            static = "static " if rng.random() < 0.1 else ""
            params = [fresh("p") for _ in range(rng.randint(0, 2))]
            signature = ", ".join(f"int {p}" for p in params)
            lines.append(f"  {vis} {static}{rng.choice(['int', 'void', 'string'])} "
                         f"{method}({signature}) {{{comment()}")
            scope = list(params)
            for _ in range(rng.randint(0, 5)):
                lines.append(f"    {_minioo_stmt(rng, fields, methods, scope, fresh)}{comment()}")
            lines.append("  }")
        lines.append("}")
        declared[name] = (parent, own_fields, own_methods)
    newline = "\r\n" if rng.random() < 0.1 else "\n"
    indent = "\t" if rng.random() < 0.2 else "  "
    return newline.join(line.replace("  ", indent) for line in lines) + newline


def _minioo_stmt(rng, fields, methods, scope, fresh) -> str:
    roll = rng.random()
    if roll < 0.3:
        local = fresh("t")
        init = f" = {_minioo_expr(rng, fields, methods, scope, 0)}" if rng.random() < 0.8 else ""
        scope.append(local)
        return f"int {local}{init};"
    if roll < 0.55 and (fields or scope):
        pool = [f"this.{f}" for f in fields] + fields + scope
        return f"{rng.choice(pool)} = {_minioo_expr(rng, fields, methods, scope, 0)};"
    if roll < 0.8:
        return f"{_minioo_call(rng, fields, methods, scope, 0)};"
    value = "" if rng.random() < 0.3 else " " + _minioo_expr(rng, fields, methods, scope, 0)
    return f"return{value};"


def _minioo_call(rng, fields, methods, scope, depth) -> str:
    args = ", ".join(_minioo_expr(rng, fields, methods, scope, depth + 1)
                     for _ in range(rng.randint(0, 2)))
    callee = rng.choice(methods)
    return f"{'this.' if rng.random() < 0.6 else ''}{callee}({args})"


def _minioo_expr(rng, fields, methods, scope, depth) -> str:
    roll = rng.random()
    if roll < 0.3 and fields:
        return f"{'this.' if rng.random() < 0.6 else ''}{rng.choice(fields)}"
    if roll < 0.5 and scope:
        return rng.choice(scope)
    if roll < 0.7 and depth < 3:
        return _minioo_call(rng, fields, methods, scope, depth)
    if roll < 0.85:
        return str(rng.randint(0, 10 ** rng.randint(1, 12)))
    return f'"{rng.choice(_STRINGS)}"'


# characters mutate_source inserts: structure, string and comment starts,
# non-ASCII letters and digits, and characters no token starts with
_MUTATION_CHARS = list('{}();,=:."\\/ \n\t_a9') + ["é", "变", "²", "½", "٣", "$", "#"]


def mutate_source(rng: random.Random, source: str, edits: int = 3) -> str:
    """Apply 1 to `edits` random deletions, insertions and swaps of
    adjacent characters."""
    chars = list(source)
    for _ in range(rng.randint(1, edits)):
        i = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.35 and i < len(chars):
            del chars[i]
        elif roll < 0.7 or i + 1 >= len(chars):
            chars.insert(i, rng.choice(_MUTATION_CHARS))
        else:
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def wide_race_class(entry_points: int, members: int) -> OcdfClass:
    """A class whose analysis report is large for its size: `entry_points`
    interface methods e_i each call one writer and one reader method, which
    write and read `members` members m_j. Each member is a race hazard that
    names every interface method as an entry point."""
    roots = [Feature(f"e{i}", FeatureKind.INTERFACE_METHOD, f"e{i}",
                     visibility=Visibility.PUBLIC) for i in range(entry_points)]
    accessors = [Feature("put", FeatureKind.METHOD, "put"),
                 Feature("get", FeatureKind.METHOD, "get")]
    fields = [Feature(f"m{j}", FeatureKind.MEMBER, f"m{j}", "int") for j in range(members)]
    flows = [Flow(FlowKind.CONTROL, root.id, accessor.id)
             for root in roots for accessor in accessors]
    flows += [flow for field in fields for flow in (Flow(FlowKind.DATA, "put", field.id),
                                                    Flow(FlowKind.DATA, field.id, "get"))]
    return build_class("Wide", [*roots, *accessors, *fields], flows)
