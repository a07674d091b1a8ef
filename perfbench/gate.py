"""Correctness gate: checks one pass's outputs against independent references.

Runs outside the timed region. Every check returns a list of mismatch
descriptions; the benchmark counts them as ``output_mismatches``.

References:
* extracted flows: ``tests/oracles.interpreted_flows`` (an event-recording
  interpreter over the parsed bodies), plain or lazy as the workload runs it;
* components, cut suggestions and race hazards: a reimplementation on
  networkx, indexed by member, written from the documented rules;
* validator findings: the set the generator planted;
* DOT: ``check_dot`` plus node and edge counts of an independent projection.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict

import networkx as nx

_EDGE_RE = re.compile(r"^\s+[A-Za-z_]\w* -> [A-Za-z_]\w*")
_NODE_RE = re.compile(r"^\s+[A-Za-z_]\w* \[")


def load_documents(blobs: list[bytes]) -> list[dict]:
    return [json.loads(b) for b in blobs]


def model_features(docs: list[dict]) -> int:
    return sum(len(c["features"]) for d in docs for c in d["classes"])


# --- extraction --------------------------------------------------------------

def check_extraction(sources: dict[str, bytes], docs: list[dict], class_name: str | None,
                     lazy: bool) -> list[str]:
    from ocdf.minioo import parse
    from oracles import interpreted_flows

    problems = []
    if len(docs) != len(sources):
        return [f"extract: {len(docs)} documents for {len(sources)} sources"]
    for (path, source), doc in zip(sources.items(), docs):
        program = parse(source.decode("utf-8"))
        name = class_name or program.classes[0].name
        expected = interpreted_flows(program, name, include_inherited=lazy)
        (cls,) = doc["classes"]
        got = {(f["kind"], f["source"], f["target"]) for f in cls["flows"]}
        if got != expected:
            problems.append(f"extract {path}: {len(got ^ expected)} flows differ from the oracle")
        decl = next(c for c in program.classes if c.name == name)
        own = {f.name for f in decl.fields} | {m.name for m in decl.methods}
        used = {e for flow in expected for e in flow[1:]} - own
        features = {f["id"]: f["inherited"] for f in cls["features"]}
        if cls["name"] != name or features != {**dict.fromkeys(own, False),
                                               **dict.fromkeys(used, True)}:
            problems.append(f"extract {path}: feature set differs from declarations")
    return problems


# --- analysis ----------------------------------------------------------------

def _name_token(name: str) -> str:
    """Leading name token: up to the first underscore, or to an upper-case
    letter after the first character."""
    head = name.split("_", 1)[0]
    for i in range(1, len(head)):
        if head[i].isupper():
            head = head[:i]
            break
    return head.lower()


def expected_analysis(cls: dict) -> list[str]:
    """The text block ``ocdf analyze`` must print for one class."""
    feats = {f["id"]: f for f in cls["features"]}
    graph = nx.Graph()
    graph.add_nodes_from(feats)
    graph.add_edges_from((f["source"], f["target"]) for f in cls["flows"])
    components = sorted((tuple(sorted(c)) for c in nx.connected_components(graph)),
                        key=lambda c: c[0])
    lines = [f"class {cls['name']}"]
    lines += [f"  component: {' '.join(c)}" for c in components]

    # shared leading tokens between component pairs, by token histogram
    holders = defaultdict(list)  # token -> [(component index, count)]
    for index, comp in enumerate(components):
        for token, n in Counter(_name_token(feats[i]["name"]) for i in comp).items():
            holders[token].append((index, n))
    pairs = Counter()
    for held in holders.values():
        for x, (i, ni) in enumerate(held):
            for j, nj in held[x + 1:]:
                pairs[(i, j)] += ni * nj
    for (i, j), n in sorted(pairs.items(), key=lambda p: (-p[1], p[0])):
        lines.append(f"  related components {i} and {j}: {n} shared name token pair(s)")

    for member, writers, readers, entries in _hazards(cls, feats):
        lines.append(f"  warning: possible race on '{member}' "
                     f"(writers: {', '.join(writers) or '-'}; "
                     f"readers: {', '.join(readers) or '-'}; "
                     f"entry points: {', '.join(entries) or '-'})")
    return lines


def _hazards(cls: dict, feats: dict[str, dict]):
    def is_method(fid: str) -> bool:
        return fid in feats and feats[fid]["kind"] != "member"

    control = nx.DiGraph()
    control.add_edges_from((f["source"], f["target"]) for f in cls["flows"]
                           if f["kind"] == "control")
    entries = defaultdict(set)  # method -> interface methods reaching it
    for fid, f in feats.items():
        if f["kind"] == "interface_method":
            reach = nx.descendants(control, fid) if fid in control else set()
            for m in reach | {fid}:
                if is_method(m):
                    entries[m].add(fid)

    writers, readers = defaultdict(set), defaultdict(set)
    for f in cls["flows"]:
        if f["kind"] != "data":
            continue
        src, tgt = f["source"], f["target"]
        if is_method(src) and not feats[src]["is_constructor"]:
            writers[tgt].add(src)
        if is_method(tgt):
            readers[src].add(tgt)

    for member in sorted(fid for fid, f in feats.items()
                         if f["kind"] == "member" and not f["is_const"]):
        w, r = writers[member], readers[member]
        if not (len(w) >= 2 or (w and r - w)):
            continue
        methods = sorted(w | r)
        found = any(
            (a in w or b in w) and entries[a] and entries[b]
            and len(entries[a] | entries[b]) >= 2
            for x, a in enumerate(methods) for b in methods[x + 1:])
        if found:
            reached = sorted(set().union(*(entries[m] for m in methods)))
            yield member, sorted(w), sorted(r), reached


def check_analysis(docs: list[dict], text: str) -> list[str]:
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("class "):
            blocks.append([])
        if not blocks:
            return ["analyze: output does not start with a class line"]
        blocks[-1].append(line)
    classes = [c for d in docs for c in d["classes"]]
    if len(blocks) != len(classes):
        return [f"analyze: {len(blocks)} class blocks for {len(classes)} classes"]
    problems = []
    for cls, got in zip(classes, blocks):
        expected = expected_analysis(cls)
        for kind, prefix in (("components", "  component:"),
                             ("cut suggestions", "  related components"),
                             ("hazards", "  warning:")):
            want = [x for x in expected if x.startswith(prefix)]
            have = [x for x in got if x.startswith(prefix)]
            if want != have:
                problems.append(f"analyze {cls['name']}: {kind} differ "
                                f"({len(have)} reported, {len(want)} expected)")
        if got[0] != expected[0] or len(got) != len(expected):
            problems.append(f"analyze {cls['name']}: unexpected lines in block")
    return problems


# --- validation --------------------------------------------------------------

def check_validation(docs: list[dict], planted: list[list], text: str,
                     as_json: bool) -> list[str]:
    if not as_json:
        return [] if text == "" else ["validate: findings on a clean workload"]
    decoder = json.JSONDecoder()
    reports, pos = [], 0
    while pos < len(text):
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    if len(reports) != len(docs):
        return [f"validate: {len(reports)} reports for {len(docs)} documents"]
    problems = []
    for index, (report, want) in enumerate(zip(reports, planted)):
        got = Counter((d["code"], s["class"], tuple(s["ids"]))
                      for d in report for s in d["subjects"][:1])
        if got != Counter((code, cls, tuple(ids)) for code, cls, ids in want):
            problems.append(f"validate document {index}: findings differ from the planted set")
    return problems


# --- rendering ---------------------------------------------------------------

def check_render(docs: list[dict], text: str, level: str) -> list[str]:
    from ocdf.dotcheck import check_dot

    graphs = re.split(r"(?m)^(?=digraph )", text)[1:]
    if len(graphs) != len(docs):
        return [f"render: {len(graphs)} graphs for {len(docs)} documents"]
    problems = []
    for index, (graph, doc) in enumerate(zip(graphs, docs)):
        syntax = check_dot(graph)
        if syntax:
            problems.append(f"render document {index}: {syntax[0]}")
        counts = []
        for line in graph.splitlines():
            if line.startswith("  subgraph cluster_"):
                counts.append([0, 0])
            elif _EDGE_RE.match(line):
                counts[-1][1] += 1
            elif _NODE_RE.match(line):
                counts[-1][0] += 1
        expected = []
        for cls in doc["classes"]:
            members = {f["id"] for f in cls["features"] if f["kind"] == "member"}
            flows = cls["flows"] if level == "L3" else [
                f for f in cls["flows"]
                if f["kind"] == "data" and (f["source"] in members or f["target"] in members)
                or f["kind"] == "control" and level == "L2"]
            expected.append([len(cls["features"]), len(flows)])
        if counts != expected:
            problems.append(f"render document {index}: node/edge counts differ "
                            "from the projected model")
    return problems
