"""Independent oracles the test suite checks the library against.

Everything here is deliberately written as straight-line brute force, with
no code shared with the package internals it judges.
"""

from __future__ import annotations

from ocdf.analysis import RaceHazard, SubstructureReport
from ocdf.minioo import ast
from ocdf.model import Feature, FeatureKind, FlowKind, OcdfClass


# --- flow oracle: event-recording interpreter over MiniOO bodies ---------

def interpreted_flows(program: ast.Program, class_name: str,
                      include_inherited: bool) -> set[tuple[str, str, str]]:
    """Every (kind, source, target) flow a literal statement walk produces.

    Records raw read/write/call events per method body, then maps events to
    flows. With include_inherited=False, flows touching parent-chain features
    are discarded afterwards.
    """
    decl_class = {c.name: c for c in program.classes}
    cls = decl_class[class_name]

    # ancestry, nearest first
    ancestors: list[ast.ClassDecl] = []
    cursor = cls
    while cursor.parent is not None and cursor.parent in decl_class:
        cursor = decl_class[cursor.parent]
        if cursor in ancestors or cursor is cls:
            break
        ancestors.append(cursor)

    own_names = {f.name for f in cls.fields} | {m.name for m in cls.methods}

    def feature_kind(name: str) -> str | None:
        """'field' or 'method' at the nearest declaring level, else None."""
        for level in [cls, *ancestors]:
            if any(f.name == name for f in level.fields):
                return "field"
            if any(m.name == name for m in level.methods):
                return "method"
        return None

    events: list[tuple] = []  # ("read"|"write", field, method) | ("call", caller, callee, nargs, consumed)

    def record_expr(expr: ast.Expr, method: str, scope: set[str], consumed: bool) -> None:
        if isinstance(expr, ast.NameExpr):
            if not expr.this_qualified and expr.name in scope:
                return
            if feature_kind(expr.name) == "field":
                events.append(("read", expr.name, method))
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                record_expr(arg, method, scope, True)
            if feature_kind(expr.name) == "method":
                events.append(("call", method, expr.name, len(expr.args), consumed))

    for method in cls.methods:
        scope = {p.name for p in method.params}
        for stmt in method.body:
            if isinstance(stmt, ast.LocalDecl):
                if stmt.init is not None:
                    record_expr(stmt.init, method.name, scope, True)
                scope = scope | {stmt.name}
            elif isinstance(stmt, ast.Assign):
                record_expr(stmt.value, method.name, scope, True)
                target = stmt.target
                skip = not target.this_qualified and target.name in scope
                if not skip and feature_kind(target.name) == "field":
                    events.append(("write", target.name, method.name))
            elif isinstance(stmt, ast.CallStmt):
                record_expr(stmt.call, method.name, scope, False)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                record_expr(stmt.value, method.name, scope, True)

    flows: set[tuple[str, str, str]] = set()
    for event in events:
        if event[0] == "read":
            flows.add(("data", event[1], event[2]))
        elif event[0] == "write":
            flows.add(("data", event[2], event[1]))
        else:
            _, caller, callee, nargs, consumed = event
            flows.add(("control", caller, callee))
            if nargs:
                flows.add(("data", caller, callee))
            if consumed:
                flows.add(("data", callee, caller))

    if not include_inherited:
        flows = {f for f in flows if f[1] in own_names and f[2] in own_names}
    return flows


def resolvable_parent_features(program: ast.Program, class_name: str) -> set[str]:
    """Transitive walk of the parent chain: names visible by inheritance
    (not shadowed by the class's own declarations)."""
    decl_class = {c.name: c for c in program.classes}
    cls = decl_class[class_name]
    shadowed = {f.name for f in cls.fields} | {m.name for m in cls.methods}
    visible: set[str] = set()
    cursor = cls
    seen = {cls.name}
    while cursor.parent is not None and cursor.parent in decl_class:
        cursor = decl_class[cursor.parent]
        if cursor.name in seen:
            break
        seen.add(cursor.name)
        for name in [f.name for f in cursor.fields] + [m.name for m in cursor.methods]:
            if name not in shadowed:
                visible.add(name)
                shadowed.add(name)
    return visible


# --- component oracle: fixpoint set merging -------------------------------

def brute_components(cls: OcdfClass) -> set[frozenset[str]]:
    groups = [{f.id} for f in cls.features]
    changed = True
    while changed:
        changed = False
        for flow in cls.flows:
            a = next(g for g in groups if flow.source in g)
            b = next(g for g in groups if flow.target in g)
            if a is not b:
                a.update(b)
                groups.remove(b)
                changed = True
    return {frozenset(g) for g in groups}


# --- race oracle: exhaustive reachability enumeration ---------------------

def brute_reaches(cls: OcdfClass) -> set[tuple[str, str]]:
    """All (a, b) with a control-flow path a ->* b, including empty paths."""
    nodes = [f.id for f in cls.features]
    edges = {(f.source, f.target) for f in cls.flows if f.kind.value == "control"}
    reaches = {(n, n) for n in nodes} | edges
    changed = True
    while changed:
        changed = False
        for a in nodes:
            for b in nodes:
                if (a, b) in reaches:
                    continue
                for c in nodes:
                    if (a, c) in reaches and (c, b) in reaches:
                        reaches.add((a, b))
                        changed = True
                        break
    return reaches


def brute_race_members(cls: OcdfClass) -> set[str]:
    """Member ids with a hazard, by quadruple enumeration over the model."""
    features = {f.id: f for f in cls.features}
    reaches = brute_reaches(cls)
    entry_ids = [f.id for f in cls.features if f.kind is FeatureKind.INTERFACE_METHOD]

    hazards: set[str] = set()
    for member in cls.features:
        if member.kind is not FeatureKind.MEMBER or member.is_const:
            continue
        writers = set()
        readers = set()
        for flow in cls.flows:
            if flow.kind.value != "data":
                continue
            src, tgt = features.get(flow.source), features.get(flow.target)
            if (flow.target == member.id and src is not None
                    and src.kind is not FeatureKind.MEMBER and not src.is_constructor):
                writers.add(flow.source)
            if (flow.source == member.id and tgt is not None
                    and tgt.kind is not FeatureKind.MEMBER):
                readers.add(flow.target)
        conflicting = writers | readers
        if not (len(writers) >= 2 or (len(writers) >= 1 and len(readers - writers) >= 1)):
            continue
        found = False
        for m1 in conflicting:
            for m2 in conflicting:
                if m1 == m2 or (m1 not in writers and m2 not in writers):
                    continue
                for e1 in entry_ids:
                    for e2 in entry_ids:
                        if e1 != e2 and (e1, m1) in reaches and (e2, m2) in reaches:
                            found = True
        if found:
            hazards.add(member.id)
    return hazards


# --- reference analyses: the original quadratic implementations -----------
#
# Kept verbatim from before the analyses were rewritten to run near-linear
# time (indexed accessors, one SCC condensation with entry bitsets, token
# histograms), so the rewrites can be compared on full reports.

def reference_substructures(cls: OcdfClass) -> SubstructureReport:
    """Connected components of the undirected feature/flow graph."""
    parent = {f.id: f.id for f in cls.features}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for flow in cls.flows:
        a, b = find(flow.source), find(flow.target)
        if a != b:
            parent[b] = a

    groups: dict[str, list[str]] = {}
    for f in cls.features:
        groups.setdefault(find(f.id), []).append(f.id)
    components = sorted((tuple(sorted(ids)) for ids in groups.values()),
                        key=lambda c: c[0])

    suggestions = []
    names = {f.id: f.name for f in cls.features}
    for i in range(len(components)):
        for j in range(i + 1, len(components)):
            count = sum(
                1
                for a in components[i]
                for b in components[j]
                if _name_token(names[a]) == _name_token(names[b])
            )
            if count:
                suggestions.append(((i, j), count))
    suggestions.sort(key=lambda s: (-s[1], s[0]))

    return SubstructureReport(components=tuple(components),
                              cut_suggestions=tuple(suggestions))


def _name_token(name: str) -> str:
    """Leading name token: up to the first underscore or camelCase hump."""
    for i, ch in enumerate(name):
        if ch == "_":
            return name[:i].lower()
        if i and ch.isupper():
            return name[:i].lower()
    return name.lower()


def reference_races(cls: OcdfClass) -> list[RaceHazard]:
    """Report each non-const member whose accessors conflict.

    A member conflicts when it has two non-constructor writers, or one writer
    plus a distinct reader; the hazard is reported only if two of the
    conflicting methods are reachable over control flows from distinct
    interface methods (an interface method reaches itself by definition).
    """
    features = cls.feature_map()
    entries = _entry_points(cls, features)

    hazards: list[RaceHazard] = []
    for member in cls.features:
        if member.kind is not FeatureKind.MEMBER or member.is_const:
            continue
        writers: set[str] = set()
        readers: set[str] = set()
        for flow in cls.flows:
            if flow.kind is not FlowKind.DATA:
                continue
            if flow.target == member.id:
                source = features.get(flow.source)
                if source is not None and source.is_method_kind and not source.is_constructor:
                    writers.add(source.id)
            if flow.source == member.id:
                target = features.get(flow.target)
                if target is not None and target.is_method_kind:
                    readers.add(target.id)
        if not (len(writers) >= 2 or (writers and readers - writers)):
            continue
        conflicting = writers | readers
        if not _distinct_entries(conflicting, writers, entries):
            continue
        reached = sorted({e for m in conflicting for e in entries.get(m, ())})
        hazards.append(RaceHazard(member=member.id,
                                  writers=tuple(sorted(writers)),
                                  readers=tuple(sorted(readers)),
                                  entry_points=tuple(reached)))
    hazards.sort(key=lambda h: h.member)
    return hazards


def _entry_points(cls: OcdfClass, features: dict[str, Feature]) -> dict[str, set[str]]:
    """For each method, the interface methods that reach it over control
    flows. Roots are the interface methods themselves."""
    succ: dict[str, list[str]] = {}
    for flow in cls.flows:
        if flow.kind is FlowKind.CONTROL:
            succ.setdefault(flow.source, []).append(flow.target)

    entries: dict[str, set[str]] = {}
    for root in cls.features:
        if root.kind is not FeatureKind.INTERFACE_METHOD:
            continue
        stack = [root.id]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            feature = features.get(node)
            if feature is not None and feature.is_method_kind:
                entries.setdefault(node, set()).add(root.id)
            stack.extend(succ.get(node, ()))
    return entries


def _distinct_entries(conflicting: set[str], writers: set[str],
                      entries: dict[str, set[str]]) -> bool:
    methods = sorted(conflicting)
    for a in methods:
        for b in methods:
            if a >= b or (a not in writers and b not in writers):
                continue
            ea, eb = entries.get(a, set()), entries.get(b, set())
            if ea and eb and len(ea | eb) >= 2:
                return True
    return False
