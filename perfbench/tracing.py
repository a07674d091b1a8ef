"""In-process tracing of ``ocdf.cli.main`` at the package's layer boundaries.

The tracer replaces module attributes with wrappers for the duration of a
traced run and restores them afterwards; no file of the package changes. It
wraps the names through which one layer calls another (``ocdf.cli.parse``,
``ocdf.minioo.parser.tokenize``, ``ocdf.render.project`` ...), so each span
is one call across a layer boundary.

Spans are kept in memory as (name, start, end, parent, thread, input)
records. The CLI runs several inputs on pool threads, so the span stack is
thread-local and shared state is updated under a lock; a span opened on a
thread with an empty stack gets the running ``main`` span as its parent.

A span's self time is its duration minus its children's, both measured in
the CPU time of the span's own thread. With one input this equals wall time
less I/O and preemption. With pool threads, which take turns holding the
interpreter lock, wall-clock spans overlap and would count the same second
once per waiting thread; thread CPU time makes the layers' self times add up
to the process's busy time instead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    cpu: float  # thread CPU seconds between start and end
    parent: int | None
    thread: int
    input: str | None


def _len(result, args) -> int:
    return len(result)


# (module, attribute, layer, timing metric, counters: {metric: fn(result, args)})
BOUNDARIES = [
    ("ocdf.cli", "main", "cli", "cli.self_ms", {}),
    ("ocdf.cli", "_run_extract", "cli", "cli.self_ms", {"cli.inputs": lambda r, a: 1}),
    ("ocdf.cli", "_run_validate", "cli", "cli.self_ms", {"cli.inputs": lambda r, a: 1}),
    ("ocdf.cli", "_run_analyze", "cli", "cli.self_ms", {"cli.inputs": lambda r, a: 1}),
    ("ocdf.cli", "_run_render", "cli", "cli.self_ms", {"cli.inputs": lambda r, a: 1}),
    ("ocdf.minioo.parser", "tokenize", "minioo.lexer", "lexer.self_ms",
     {"lexer.tokens": _len}),
    ("ocdf.cli", "parse", "minioo.parser", "parser.self_ms", {
        "parser.classes": lambda r, a: len(r.classes),
        "parser.methods": lambda r, a: sum(len(c.methods) for c in r.classes)}),
    ("ocdf.cli", "extract", "minioo.extract", "extract.self_ms", {
        "extract.flows": lambda r, a: len(r.flows)}),
    ("ocdf.cli", "extract_lazy_inherited", "minioo.extract", "extract.self_ms", {
        "extract.flows": lambda r, a: len(r.flows),
        "extract.inherited_features": lambda r, a: sum(f.inherited for f in r.features)}),
    ("ocdf.minioo.extract", "build_class", "model", "model.build_ms", {}),
    ("ocdf.cli", "build_model", "model", "model.build_ms", {}),
    ("ocdf.cli", "serialize", "model", "model.serialize_ms", {}),
    ("ocdf.cli", "deserialize", "model", "model.deserialize_ms",
     {"model.doc_bytes": lambda r, a: len(a[0])}),
    ("ocdf.cli", "validate", "validator", "validator.self_ms", {"validator.findings": _len}),
    ("ocdf.cli", "substructures", "analysis", "analysis.substructures_ms", {
        "analysis.components": lambda r, a: len(r.components),
        "analysis.cut_suggestions": lambda r, a: len(r.cut_suggestions)}),
    ("ocdf.cli", "detect_races", "analysis", "analysis.races_ms", {"analysis.hazards": _len}),
    ("ocdf.render", "project", "analysis", "analysis.project_ms", {}),
    ("ocdf.cli", "render_model_dot", "render", "render.self_ms",
     {"render.dot_bytes": lambda r, a: len(r.encode("utf-8"))}),
]

# layer -> short metric prefix, for <prefix>.errors
LAYER_PREFIX = {"cli": "cli", "minioo.lexer": "lexer", "minioo.parser": "parser",
                "minioo.extract": "extract", "model": "model", "validator": "validator",
                "analysis": "analysis", "render": "render"}
TIME_METRICS = sorted({b[3] for b in BOUNDARIES})
COUNT_METRICS = sorted({k for b in BOUNDARIES for k in b[4]}
                       | {f"{p}.errors" for p in LAYER_PREFIX.values()})


class Tracer:
    """Installs wrappers on construction; ``close()`` restores the originals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: int | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._metric_of: dict[str, str] = {}
        self._patched = []
        for module_name, attr, layer, metric, counters in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            name = f"{module_name}.{attr}"
            self._metric_of[name] = metric
            setattr(module, attr, self._wrap(original, name, layer, counters))
            self._patched.append((module, attr, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> tuple[list[Span], Counter]:
        """Spans and counts recorded since the last call."""
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        return spans, counts

    def _wrap(self, original, name: str, layer: str, counters: dict):
        prefix = LAYER_PREFIX[layer]
        is_main = name == "ocdf.cli.main"
        is_handler = name.startswith("ocdf.cli._run_")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            if stack:
                parent, input_id = stack[-1]
            else:
                parent, input_id = self._root, None
            if is_handler:
                input_id = args[2]  # (args, content, path)
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            if is_main:
                self._root = span_id
            stack.append((span_id, input_id))
            start, cpu_start = time.perf_counter(), time.thread_time()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                with self._lock:
                    self.counts[f"{prefix}.errors"] += 1
                raise
            finally:
                end, cpu = time.perf_counter(), time.thread_time() - cpu_start
                stack.pop()
                if is_main:
                    self._root = None
                with self._lock:
                    self.spans.append(Span(span_id, name, start, end, cpu, parent,
                                           threading.get_ident(), input_id))
            counted = {metric: fn(result, args) for metric, fn in counters.items()}
            with self._lock:
                self.counts.update(counted)
            return result

        return wrapper

    def self_times(self, spans: list[Span]) -> dict[str, float]:
        """Seconds of self time per timing metric: each span's thread CPU time
        less that of its children on the same thread."""
        by_id = {s.id: s for s in spans}
        totals: dict[str, float] = dict.fromkeys(TIME_METRICS, 0.0)
        for s in spans:
            totals[self._metric_of[s.name]] += s.cpu
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                totals[self._metric_of[parent.name]] -= s.cpu
        return totals


def run_main(argv: list[str]) -> tuple[int | None, str]:
    """Call ``ocdf.cli.main`` in-process; returns (exit code, stderr text).
    The exit code is None when an exception escaped ``main``."""
    import ocdf.cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = ocdf.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback: recorded as a failed command
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
            code = None
    return code, err.getvalue()
