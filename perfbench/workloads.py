"""Seeded input generators for the three benchmark workloads.

Each generator takes a ``random.Random`` and returns a ``Workload``: the
input files as bytes, the CLI stages to run over them, the exit code each
stage must return, and a shape record (bytes, features, flows and planted
findings per input) that the correctness and determinism checks read.

The generators write MiniOO text and model JSON directly; they import
nothing from the package under test, so the program sees only the files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Two-syllable name stems. Feature names are "<stem>_<n>", so a name's leading
# token is its stem; 144 stems keep the cut-suggestion pairs sparse.
_HEADS = ["ca", "in", "pa", "sy", "lo", "em", "qu", "me", "tr", "fe", "ro", "di"]
_TAILS = ["che", "dex", "int", "nc", "ad", "it", "eue", "rge", "ack", "tch", "ute", "ff"]
STEMS = [h + t for h in _HEADS for t in _TAILS]


@dataclass
class Stage:
    """One CLI command: its subcommand, options, and the exit code it must
    return. Inputs are the workload's MiniOO files for ``extract`` and its
    model documents for every other subcommand."""

    subcommand: str
    options: list[str]
    expect_code: int


@dataclass
class Workload:
    name: str
    sources: dict[str, bytes] = field(default_factory=dict)    # MiniOO inputs
    documents: dict[str, bytes] = field(default_factory=dict)  # JSON inputs
    stages: list[Stage] = field(default_factory=list)
    extract_class: str | None = None
    lazy: bool = False
    render_level: str = "L3"
    # planted validator findings per document, as (code, class, ids) triples
    planted: dict[str, list[tuple[str, str, tuple[str, ...]]]] = field(default_factory=dict)
    shape: list[dict] = field(default_factory=list)

    def shape_summary(self) -> dict:
        """Totals over the shape records, for reports and seed comparison."""
        keys = ("bytes", "classes", "features", "flows", "planted")
        totals = {k: sum(rec.get(k, 0) for rec in self.shape) for k in keys}
        totals["inputs"] = len(self.shape)
        return totals


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced values from lo to hi, in seeded order. Sizes drawn this
    way vary between inputs but sum to the same total for every seed, so a
    seed changes which input is large, not how much work a pass does."""
    values = [lo + (hi - lo) * i / max(n - 1, 1) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return {"monolith": monolith, "codebase": codebase, "documents": documents}[name](rng)


# --- monolith: one oversized MiniOO class ----------------------------------

MONO_FIELDS = 1000
MONO_METHODS = 1000
MONO_STMTS = 10
MONO_PUBLIC = 0.3
MONO_CONST = 0.1


def monolith(rng: random.Random) -> Workload:
    fields = [f"{rng.choice(STEMS)}_f{i}" for i in range(MONO_FIELDS)]
    const = set(rng.sample(fields, round(MONO_CONST * MONO_FIELDS)))
    writable = [f for f in fields if f not in const]
    methods = [f"{rng.choice(STEMS)}_m{i}" for i in range(MONO_METHODS)]
    public = set(rng.sample(methods, round(MONO_PUBLIC * MONO_METHODS)))
    ctor = "Mono"
    lines = ["// generated monolith class", f"class {ctor} {{"]
    for f in fields:
        qual = "const " if f in const else ""
        lines.append(f"  {rng.choice(['private', 'protected'])} {qual}int {f};")
    lines.append(f"  public void {ctor}(int s) {{")
    for f in sorted(const):
        lines.append(f"    this.{f} = s;")
    lines.append("  }")
    for i, m in enumerate(methods):
        vis = "public" if m in public else rng.choice(["private", "protected"])
        lines.append(f"  {vis} int {m}(int a) {{")
        # every field is touched by its own method, so no feature is isolated
        anchor = fields[i % len(fields)]
        lines.append(f"    int t0 = this.{anchor};" if anchor in const
                     else f"    this.{anchor} = a;")
        locals_ = ["a"]
        for k in range(1, MONO_STMTS - 1):
            lines.append("    " + _mono_stmt(rng, k, fields, writable, methods, locals_))
        lines.append(f"    return {_mono_expr(rng, fields, methods, locals_)};")
        lines.append("  }")
    lines.append("}")
    source = ("\n".join(lines) + "\n").encode("utf-8")
    w = Workload(
        name="monolith",
        sources={"mono.moo": source},
        stages=[Stage("extract", [], 0), Stage("validate", [], 0),
                Stage("analyze", [], 0), Stage("render", ["--level", "L3"], 0)],
        render_level="L3",
    )
    w.shape.append({"input": "mono.moo", "bytes": len(source), "classes": 1,
                    "features": len(fields) + len(methods) + 1, "planted": 0})
    return w


def _mono_expr(rng: random.Random, fields: list[str], methods: list[str],
               locals_: list[str]) -> str:
    """A value: a field read (qualified or not), a consumed call, or a
    parameter or local already in scope."""
    roll = rng.random()
    if roll < 0.45:
        return f"this.{rng.choice(fields)}"
    if roll < 0.55:
        return rng.choice(fields)
    if roll < 0.8:
        return f"this.{rng.choice(methods)}({_mono_expr(rng, fields, [], locals_)})" \
            if methods else rng.choice(locals_)
    return rng.choice(locals_)


def _mono_stmt(rng: random.Random, k: int, fields: list[str], writable: list[str],
               methods: list[str], locals_: list[str]) -> str:
    roll = rng.random()
    if roll < 0.4:
        stmt = f"int t{k} = {_mono_expr(rng, fields, methods, locals_)};"
        locals_.append(f"t{k}")
    elif roll < 0.75:
        stmt = f"this.{rng.choice(writable)} = {_mono_expr(rng, fields, methods, locals_)};"
    elif roll < 0.9:
        stmt = f"this.{rng.choice(methods)}({rng.choice(locals_)});"
    else:
        stmt = f"{rng.choice(methods)}();"
    return stmt


# --- codebase: ~100 files, each a parent chain and a leaf class --------------

CODEBASE_FILES = 100
CHAIN_DEPTH = (2, 8)
LEAF_FEATURES = (20, 150)
LEAF = "Leaf"


def codebase(rng: random.Random) -> Workload:
    w = Workload(
        name="codebase",
        stages=[Stage("extract", ["--class", LEAF, "--lazy"], 0), Stage("validate", [], 0),
                Stage("analyze", [], 0), Stage("render", [], 0)],
        extract_class=LEAF, lazy=True, render_level="L3",
    )
    depths = _strata(rng, *CHAIN_DEPTH, CODEBASE_FILES)
    sizes = _strata(rng, *LEAF_FEATURES, CODEBASE_FILES)
    for i in range(CODEBASE_FILES):
        name = f"unit{i:03d}.moo"
        source, features = _codebase_file(rng, round(depths[i]), round(sizes[i]))
        w.sources[name] = source
        w.shape.append({"input": name, "bytes": len(source), "classes": features[0],
                        "features": features[1], "planted": 0})
    return w


def _codebase_file(rng: random.Random, depth: int, total: int) -> tuple[bytes, tuple[int, int]]:
    lines = ["// generated parent chain and leaf"]
    anc_fields: list[str] = []     # writable ancestor fields
    anc_consts: list[str] = []     # read-only ancestor fields
    anc_methods: list[str] = []
    for level in range(depth):
        parent = f" : A{level - 1}" if level else ""
        lines.append(f"class A{level}{parent} {{")
        own_fields = []
        for n in range(rng.randint(3, 8)):
            fname = f"{rng.choice(STEMS)}_a{level}f{n}"
            if rng.random() < 0.2:
                lines.append(f"  protected const int {fname};")
                anc_consts.append(fname)
            else:
                lines.append(f"  protected int {fname};")
                anc_fields.append(fname)
            own_fields.append(fname)
        for n in range(rng.randint(2, 5)):
            mname = f"{rng.choice(STEMS)}_a{level}m{n}"
            vis = rng.choice(["public", "protected"])
            lines.append(f"  {vis} int {mname}(int a) {{")
            lines.append(f"    return this.{rng.choice(own_fields)};")
            lines.append("  }")
            anc_methods.append(mname)
        lines.append("}")

    n_fields = max(2, total // 2)
    n_methods = max(2, total - n_fields - 1)  # the constructor is one more
    fields = [f"{rng.choice(STEMS)}_f{n}" for n in range(n_fields)]
    consts = [f for f in fields if rng.random() < 0.15]
    writable = [f for f in fields if f not in consts]
    methods = [f"{rng.choice(STEMS)}_m{n}" for n in range(n_methods)]
    readable = fields + anc_fields + anc_consts
    stores = writable + anc_fields
    callees = methods + anc_methods

    lines.append(f"class {LEAF} : A{depth - 1} {{")
    for f in fields:
        qual = "const " if f in consts else ""
        lines.append(f"  private {qual}int {f};")
    lines.append(f"  public void {LEAF}(int s) {{")
    for f in consts:
        lines.append(f"    this.{f} = s;")
    lines.append("  }")
    for m in methods:
        vis = "public" if rng.random() < 0.3 else "private"
        lines.append(f"  {vis} int {m}(int a) {{")
        n_stmts = rng.randint(3, 8)
        for k in range(1, n_stmts):
            roll = rng.random()
            if roll < 0.35:
                lines.append(f"    int t{k} = this.{rng.choice(readable)};")
            elif roll < 0.65:
                lines.append(f"    this.{rng.choice(stores)} = this.{rng.choice(readable)};")
            elif roll < 0.85:
                lines.append(f"    int t{k} = this.{rng.choice(callees)}(a);")
            else:
                lines.append(f"    int t{k} = 0; this.{rng.choice(callees)}(t{k});")
        lines.append(f"    return {rng.choice(['a', 'this.' + rng.choice(readable)])};")
        lines.append("  }")
    lines.append("}")
    source = ("\n".join(lines) + "\n").encode("utf-8")
    return source, (depth + 1, n_fields + n_methods + 1)


# --- documents: canonical model JSON with sparse flows and planted findings --

DOCUMENTS = 24
CLASSES_PER_DOC = (1, 2)
CLASS_FEATURES = (100, 400)
FLOWS_PER_FEATURE = (0.3, 0.5)
PLANTED_SHARE = 0.1


def documents(rng: random.Random) -> Workload:
    w = Workload(
        name="documents",
        stages=[Stage("validate", ["--format", "json"], 1), Stage("analyze", [], 0),
                Stage("render", ["--level", "L1"], 0)],
        render_level="L1",
    )
    per_doc = [CLASSES_PER_DOC[i % 2] for i in range(DOCUMENTS)]
    rng.shuffle(per_doc)
    sizes = _strata(rng, *CLASS_FEATURES, sum(per_doc))
    # density follows the size rank, so large classes are not sparse by chance
    rank = {i: r for r, i in enumerate(sorted(range(len(sizes)), key=sizes.__getitem__))}
    step = (FLOWS_PER_FEATURE[1] - FLOWS_PER_FEATURE[0]) / max(len(sizes) - 1, 1)
    densities = [FLOWS_PER_FEATURE[0] + step * (rank[i] * 7 % len(sizes))
                 for i in range(len(sizes))]
    k = 0
    for d in range(DOCUMENTS):
        name = f"doc{d:02d}.json"
        classes, planted, flows = [], [], 0
        for c in range(per_doc[d]):
            cls, cls_planted = _document_class(rng, f"Doc{d}Part{c}", round(sizes[k]),
                                               densities[k])
            k += 1
            classes.append(cls)
            planted.extend(cls_planted)
            flows += len(cls["flows"])
        doc = {"format_version": 1, "classes": classes}
        data = json.dumps(doc, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
        w.documents[name] = data
        w.planted[name] = planted
        w.shape.append({"input": name, "bytes": len(data), "classes": len(classes),
                        "features": sum(len(c["features"]) for c in classes),
                        "flows": flows, "planted": len(planted)})
    return w


def _document_class(rng: random.Random, name: str, n: int,
                    density: float) -> tuple[dict, list]:
    kinds = rng.choices(["member", "method", "interface_method"], weights=[4, 4, 2], k=n)
    feats = []
    for i, kind in enumerate(kinds):
        vis = ("public" if kind == "interface_method"
               else rng.choice(["protected", "private"]) if kind == "method"
               else rng.choice(["public", "protected", "private"]))
        fname = f"{rng.choice(STEMS)}_{i}"
        feats.append({
            "id": f"x{i}", "kind": kind, "name": fname,
            "decl": "int" if kind == "member" else f"{fname}()",
            "visibility": vis, "is_static": rng.random() < 0.1,
            "is_const": kind == "member" and rng.random() < 0.2,
            "is_constructor": kind != "member" and rng.random() < 0.03,
            "inherited": rng.random() < 0.1,
        })
    members = [f for f in feats if f["kind"] == "member"]
    methods = [f for f in feats if f["kind"] != "member"]
    ctors = [f for f in methods if f["is_constructor"]]
    plain = [f for f in methods if not f["is_constructor"]]

    # planted findings: wrong visibility on a method kind, or a const write
    planted = []
    const_writes = []
    for f in rng.sample(feats, round(n * PLANTED_SHARE)):
        if f["kind"] == "interface_method":
            f["visibility"] = rng.choice(["protected", "private"])
            planted.append(("E_IFACE_VIS", name, (f["id"],)))
        elif f["kind"] == "method":
            f["visibility"] = "public"
            planted.append(("E_METHOD_VIS", name, (f["id"],)))
        elif plain:
            f["is_const"] = True
            writer = rng.choice(plain)
            const_writes.append((writer["id"], f["id"]))
            planted.append(("E_CONST_WRITE", name, (writer["id"], f["id"])))

    flows = []
    keys = set()

    def add(kind: str, source: str, target: str, label=None) -> None:
        if (kind, source, target) not in keys:
            keys.add((kind, source, target))
            flows.append({"kind": kind, "source": source, "target": target, "label": label})

    for source, target in const_writes:
        add("data", source, target)
    for _ in range(round(n * density)):
        roll = rng.random()
        if roll < 0.3 and methods:
            add("control", rng.choice(methods)["id"], rng.choice(methods)["id"],
                rng.choice([None, None, "calls"]))
        elif roll < 0.6 and members and methods:
            add("data", rng.choice(members)["id"], rng.choice(methods)["id"])
        elif roll < 0.85 and members and methods:
            member = rng.choice(members)
            pool = ctors if member["is_const"] else methods
            if pool:
                add("data", rng.choice(pool)["id"], member["id"])
        elif methods:
            add("data", rng.choice(methods)["id"], rng.choice(methods)["id"])
    return {"name": name, "features": feats, "flows": flows}, planted
