"""Analyses over a class flow model.

Three views, all pure:

* project() narrows a class to one of three abstraction levels;
* substructures() partitions features into connected components -- the
  tightly bound substructures whose boundaries suggest how to split the
  class during refactoring;
* detect_races() reports members that distinct entry points can reach with
  conflicting reads/writes -- a syntactic may-happen heuristic with no lock
  modeling.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict, namedtuple
from itertools import chain, count, repeat
from operator import itemgetter

from .diagnostics import TokenEnum, _Node
from .model import CONTROL, DATA, INTERFACE_METHOD, MEMBER, Flow, OcdfClass, _roles


class AbstractionLevel(TokenEnum):
    """L1: only data flows touching a data member. L2: L1 plus all control
    flows. L3: everything, including method-to-method data flows."""

    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


def project(cls: OcdfClass, level: AbstractionLevel) -> OcdfClass:
    """Narrow the flow set to the given level; features are never removed."""
    if level is AbstractionLevel.L3:
        return cls
    members = {f.id for f in cls.features if f.kind is MEMBER}

    def keep(flow: Flow) -> bool:
        if flow.kind is DATA:
            return flow.source in members or flow.target in members
        return level is AbstractionLevel.L2

    return OcdfClass(name=cls.name, features=cls.features,
                     flows=tuple(f for f in cls.flows if keep(f)))


class SubstructureReport(_Node, namedtuple("SubstructureReport", "components cut_suggestions")):
    """components partition the feature ids; every flow stays inside one
    component. cut_suggestions pairs components whose feature names share
    leading name tokens (advisory: nominally related pieces that the flow
    graph keeps apart), strongest affinity first."""

    __slots__ = ()


def substructures(cls: OcdfClass) -> SubstructureReport:
    """Connected components of the undirected feature/flow graph.

    Each component is one list of its ids, and `owner` maps every id to its
    component's list. A flow joining two components moves the smaller list
    into the larger, so no id moves more than log2(features) times and the
    cost is O((features + flows) log features) (weighted union; Tarjan,
    "Efficiency of a Good But Not Linear Set Union Algorithm", JACM 1975).

    Cut suggestions count, for each pair of components, the feature pairs
    across them whose names share a leading token: one token histogram per
    component, summing n_i * n_j over the components that share a token.
    """
    names = {f.id: f.name for f in cls.features}  # the last feature wins a repeated id
    owner = {fid: [fid] for fid in names}
    get = owner.get
    for flow in cls.flows:
        a, b = get(flow.source), get(flow.target)
        # a flow naming no feature is the validator's to report; skip it here
        if a is b or a is None or b is None:
            continue
        if len(a) < len(b):
            a, b = b, a
        a += b
        for fid in b:
            owner[fid] = a

    groups = {id(ids): ids for ids in owner.values()}.values()  # each list once
    if len(names) < len(cls.features):  # a repeated id is listed once per feature
        repeats = Counter(f.id for f in cls.features)
        groups = [[fid for fid in ids for _ in range(repeats[fid])] for ids in groups]
    components = sorted((tuple(sorted(ids)) for ids in groups), key=itemgetter(0))

    tokens = {fid: _leading(name)[0].lower() if name.isascii() else _name_token(name)
              for fid, name in names.items()}
    # one histogram of (component index, token) over all components at once
    indexes = chain.from_iterable(map(repeat, count(), map(len, components)))
    histogram = Counter(zip(indexes, map(tokens.__getitem__, chain.from_iterable(components))))
    holders: dict[str, list[tuple[int, int]]] = {}
    for (i, token), n in histogram.items():
        holders.setdefault(token, []).append((i, n))
    counts: dict[tuple[int, int], int] = {}
    for held in holders.values():
        for k, (i, n_i) in enumerate(held):
            for j, n_j in held[k + 1:]:
                counts[i, j] = counts.get((i, j), 0) + n_i * n_j
    suggestions = sorted(counts.items(), key=lambda s: (-s[1], s[0]))

    return SubstructureReport(components=tuple(components),
                              cut_suggestions=tuple(suggestions))


# The leading name token of an ASCII name, before lowering: _name_token's
# loop as one match, which is empty for a name that starts with "_".
_leading = re.compile(r"(?:[^_][^_A-Z]*)?").match


def _name_token(name: str) -> str:
    """Leading name token: up to the first underscore or camelCase hump."""
    for i, ch in enumerate(name):
        if ch == "_":
            return name[:i].lower()
        if i and ch.isupper():
            return name[:i].lower()
    return name.lower()


class RaceHazard(_Node, namedtuple("RaceHazard", "member writers readers entry_points")):
    """A non-const member with conflicting accessors reachable from distinct
    entry points. writers excludes constructors; readers does not."""

    __slots__ = ()


def detect_races(cls: OcdfClass) -> list[RaceHazard]:
    """Report each non-const member whose accessors conflict.

    A member conflicts when it has two non-constructor writers, or one writer
    plus a distinct reader; the hazard is reported only if two of the
    conflicting methods are reachable over control flows from distinct
    interface methods (an interface method reaches itself by definition).

    One pass over the flows indexes the accessors, testing each data flow's
    endpoints against the class's sets of method and writer ids, and
    collects the control graph; reachability comes from one SCC condensation
    of that graph, so the cost is near-linear in features plus flows.
    """
    methods, writing, _ = _roles(cls.feature_map())
    # the ids the member loop below asks for: every non-const member feature's,
    # also where a later feature repeats the id
    members = {f.id for f in cls.features if f.kind is MEMBER and not f.is_const}
    writers: defaultdict[str, set[str]] = defaultdict(set)
    readers: defaultdict[str, set[str]] = defaultdict(set)
    calls: defaultdict[str, list[str]] = defaultdict(list)
    for flow in cls.flows:
        source, target = flow.source, flow.target
        if flow.kind is DATA:
            if target in members and source in writing:
                writers[target].add(source)
            if source in members and target in methods:
                readers[source].add(target)
        elif flow.kind is CONTROL:
            calls[source].append(target)
    roots, entries = _entry_points(cls, calls)
    named: dict[int, tuple[str, ...]] = {}  # hazards share few bitsets; name each once

    hazards: list[RaceHazard] = []
    for member in cls.features:
        written = writers.get(member.id)
        if written is None or member.kind is not MEMBER or member.is_const:
            continue
        read = readers.get(member.id, set())
        if len(written) < 2 and read <= written:
            continue
        # Some pair of reached conflicting methods, one a writer, has distinct
        # entry points iff the reached ones include a writer, number two or
        # more, and carry two or more bits between them: a writer with one
        # bit pairs with any method that carries another.
        reached = [m for m in written | read if m in entries]
        mask = 0
        for m in reached:
            mask |= entries[m]
        if len(reached) < 2 or written.isdisjoint(reached) or mask.bit_count() < 2:
            continue
        entry_points = named.get(mask)
        if entry_points is None:  # roots of the set bits, one step per bit, lowest first
            points, bits = [], mask
            while bits:
                low = bits & -bits
                points.append(roots[low.bit_length() - 1])
                bits ^= low
            entry_points = named[mask] = tuple(points)
        hazards.append(RaceHazard(member.id, tuple(sorted(written)), tuple(sorted(read)),
                                  entry_points))
    hazards.sort(key=lambda h: h.member)
    return hazards


def _entry_points(cls: OcdfClass,
                  succ: dict[str, list[str]]) -> tuple[list[str], dict[str, int]]:
    """The sorted interface method ids, and for each node reachable from one
    over control flows (`succ`, each source's callees), the non-zero bitset
    of those that reach it (bit i is roots[i]; an interface method reaches
    itself).

    One iterative Tarjan pass (Tarjan 1972) from the roots condenses the
    control graph into strongly connected components, emitted sinks first;
    the bits are then ORed forward through the components in topological
    order, so every node of a component gets the same set.
    """
    roots = sorted({f.id for f in cls.features if f.kind is INTERFACE_METHOD})

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    component_of: dict[str, int] = {}
    components: list[list[str]] = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ.get(nxt, ()))))
                    break
                if nxt in on_stack and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component_of[w] = len(components)
                        component.append(w)
                        if w == node:
                            break
                    components.append(component)

    seed = {root: 1 << i for i, root in enumerate(roots)}
    bits = [0] * len(components)
    entries: dict[str, int] = {}
    for c in range(len(components) - 1, -1, -1):
        mask = bits[c]
        for node in components[c]:
            mask |= seed.get(node, 0)
        for node in components[c]:
            entries[node] = mask
            for nxt in succ.get(node, ()):
                d = component_of[nxt]
                if d != c:
                    bits[d] |= mask
    return roots, entries
