"""ocdf benchmark: the real CLI pipeline on generated inputs.

    python3 perfbench/run.py --workload monolith --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``, the extraction oracle from ``tests/``). The benchmark generates the
workload's inputs from ``--seed``, then repeats passes of the workload through
its ``ocdf`` stages for ``--seconds`` (at least two passes).

``--trace 0``: each stage is one ``python -m ocdf`` subprocess, run one at a
time; the end-to-end metrics are reported. Their timings are the CPU time
(user + system) of those processes: on a shared virtual machine, wall time
also counts the time the hypervisor runs other guests on the vCPU, and that
steal time dominated the run-to-run spread. Wall times are printed beside
them. ``--trace 1``: untraced
subprocess passes alternate with passes that call ``ocdf.cli.main``
in-process with the same arguments and a tracer at each layer boundary; the
per-layer metrics are reported.

Outside the timed region, the first pass's outputs go through the
correctness gate (``gate.py``) and every later pass must reproduce them byte
for byte. The last line of stdout is one JSON object: ``correct``,
``attempted`` and ``failed`` (stage commands), and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("monolith", "codebase", "documents")
MIN_PASSES = 2
SETUP_SAMPLES_PER_PASS = 3
SHAPE_TOLERANCE = 0.25  # a second seed may move a shape total by this share


@dataclass
class StageRun:
    subcommand: str
    code: int | None
    err: str
    wall_s: float
    cpu_s: float  # user + system time of the stage's process
    rss_mb: float = 0.0


@dataclass
class Pass:
    stages: list[StageRun] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)
    doc_paths: list[Path] = field(default_factory=list)
    layer_s: dict[str, dict[str, float]] = field(default_factory=dict)  # traced only
    counts: dict[str, int] = field(default_factory=dict)                # traced only

    @property
    def pipeline_s(self) -> float:
        return sum(s.cpu_s for s in self.stages)

    @property
    def pipeline_wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/ocdf/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a source checkout of ocdf: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    launcher = Launcher(env)  # started first, while this process is still small
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work, launcher)
        return bench.run(bool(args.trace))
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)


class Launcher:
    """Client of ``launcher.py``, which runs each child command in turn."""

    def __init__(self, env: dict[str, str]) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)

    def run(self, cmd: list[str], stderr: Path) -> tuple[int, float, float, float]:
        """(exit code, wall seconds, CPU seconds, max RSS in MiB) of one child."""
        self.proc.stdin.write(json.dumps({"cmd": cmd, "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(reply)
        return reply["code"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 launcher: Launcher) -> None:
        import workloads

        self.seconds = seconds
        self.work = work
        self.launcher = launcher
        self.wl = workloads.generate(workload, seed)
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}  # per-layer counts of the first traced pass

        again = workloads.generate(workload, seed)
        if (again.sources, again.documents) != (self.wl.sources, self.wl.documents):
            self.mismatches.append("inputs: the same seed generated different bytes")
        self.shape_lines = self._compare_shape(workloads.generate(workload, seed + 1))

        inputs = work / "in"
        inputs.mkdir()
        self.source_paths = []
        for name, data in self.wl.sources.items():
            (inputs / name).write_bytes(data)
            self.source_paths.append(inputs / name)
        self.document_paths = []
        for name, data in self.wl.documents.items():
            (inputs / name).write_bytes(data)
            self.document_paths.append(inputs / name)

    # --- running stages ------------------------------------------------------

    def _spawn(self, name: str, cmd: list[str]) -> StageRun:
        """Run one child to completion."""
        err_path = self.work / "stderr"
        code, wall, cpu, rss = self.launcher.run(cmd, err_path)
        return StageRun(name, code, err_path.read_text(errors="replace"), wall, cpu, rss)

    def setup_probe(self) -> StageRun:
        run = self._spawn("setup", [sys.executable, "-c", "import ocdf.cli"])
        if run.code != 0:
            raise RuntimeError(f"import ocdf.cli failed: {run.err.strip()}")
        return run

    def subprocess_stage(self, argv: list[str]) -> StageRun:
        return self._spawn(argv[0], [sys.executable, "-m", "ocdf", *argv])

    def run_pass(self, run_stage, out: Path) -> Pass:
        out.mkdir()
        result = Pass(doc_paths=self.document_paths)
        for stage in self.wl.stages:
            target = out / f"{stage.subcommand}.out"
            inputs = self.source_paths if stage.subcommand == "extract" else result.doc_paths
            run = run_stage([stage.subcommand, *stage.options, "--output", str(target),
                             *map(str, inputs)])
            result.stages.append(run)
            self.attempted += 1
            if run.code != stage.expect_code or run.err:  # a traceback, or a message
                self.failed += 1
                self.mismatches.append(f"{stage.subcommand}: exit {run.code}, expected "
                                       f"{stage.expect_code}; stderr {run.err[:200]!r}")
            result.outputs[stage.subcommand] = target.read_bytes() if target.exists() else b""
            if stage.subcommand == "extract":
                result.doc_paths = self._split_documents(result.outputs["extract"], out)
        return result

    @staticmethod
    def _split_documents(data: bytes, out: Path) -> list[Path]:
        """``extract`` writes one document per line; later stages take files."""
        paths = []
        for index, line in enumerate(data.splitlines()):
            path = out / f"doc{index:03d}.json"
            path.write_bytes(line)
            paths.append(path)
        return paths

    # --- the run -------------------------------------------------------------

    def run(self, traced: bool) -> int:
        self.setup_probe()  # warm-up: byte-code caches are written once
        setup: list[StageRun] = []
        plain: list[Pass] = []
        traced_passes: list[Pass] = []
        tracer = None
        if traced:
            import tracing
            tracer = tracing.Tracer()
        start = time.perf_counter()
        last_pass_s = 0.0
        try:
            # stop before a pass that would end after --seconds, judged by the last one
            while (len(plain) < MIN_PASSES
                   or time.perf_counter() - start + last_pass_s <= self.seconds):
                pass_start = time.perf_counter()
                setup += [self.setup_probe() for _ in range(SETUP_SAMPLES_PER_PASS)]
                plain.append(self.run_pass(self.subprocess_stage,
                                           self.work / f"pass{len(plain)}"))
                self._compare(plain[0], plain[-1], f"pass {len(plain) - 1}")
                if tracer is not None:
                    traced_passes.append(self.traced_pass(
                        tracer, self.work / f"traced{len(traced_passes)}"))
                    self._compare(plain[0], traced_passes[-1],
                                  f"traced pass {len(traced_passes) - 1}")
                last_pass_s = time.perf_counter() - pass_start
        finally:
            if tracer is not None:
                tracer.close()
        self.check(plain[0])

        if traced:
            metrics = self.report_layers(traced_passes, plain, setup)
        else:
            metrics = self.report_end_to_end(plain, setup)
        print(json.dumps({"correct": not self.mismatches, "attempted": self.attempted,
                          "failed": self.failed, "metrics": metrics}))
        return 0

    def traced_pass(self, tracer, out: Path) -> Pass:
        import tracing

        per_stage: dict[str, dict[str, float]] = {}
        counts: dict[str, int] = {}

        def run_stage(argv: list[str]) -> StageRun:
            # like a fresh CLI process, the collector should not rescan the
            # benchmark's own objects
            gc.collect()
            gc.freeze()
            tracer.take()
            start, cpu_start = time.perf_counter(), time.process_time()
            code, err = tracing.run_main(argv)
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
            spans, stage_counts = tracer.take()
            per_stage[argv[0]] = tracer.self_times(spans)
            for key, value in stage_counts.items():
                counts[key] = counts.get(key, 0) + value
            return StageRun(argv[0], code, err, wall, cpu)

        result = self.run_pass(run_stage, out)
        result.layer_s, result.counts = per_stage, counts
        return result

    # --- correctness ---------------------------------------------------------

    def _compare(self, first: Pass, later: Pass, label: str) -> None:
        """Determinism: a later pass over the same inputs must reproduce the
        first pass's output bytes, and traced passes the same counts."""
        if later is not first:
            for name, data in later.outputs.items():
                if data != first.outputs[name]:
                    self.mismatches.append(f"{label}: {name} output differs from pass 0")
            later.outputs = {}
        if later.counts:
            self.counts = self.counts or later.counts
            for key in sorted(set(self.counts) | set(later.counts)):
                if self.counts.get(key) != later.counts.get(key):
                    self.mismatches.append(f"{label}: count {key} is {later.counts.get(key)}, "
                                           f"the first traced pass had {self.counts.get(key)}")

    def check(self, first: Pass) -> None:
        """The correctness gate, on the first pass's outputs."""
        import gate

        wl = self.wl
        self.digest = hashlib.sha256(b"".join(
            first.outputs[s.subcommand] for s in wl.stages)).hexdigest()[:16]
        self.features = 0
        try:
            docs = gate.load_documents(first.outputs["extract"].splitlines()
                                       if "extract" in first.outputs
                                       else list(wl.documents.values()))
            self.features = gate.model_features(docs)
        except (ValueError, KeyError, TypeError) as exc:
            self.mismatches.append(f"extract: output is not one model document per line: {exc!r}")
            return
        validate = next(s for s in wl.stages if s.subcommand == "validate")
        checks = {
            "validate": lambda: gate.check_validation(
                docs, [wl.planted[n] for n in wl.documents],
                first.outputs["validate"].decode(), as_json="json" in validate.options),
            "analyze": lambda: gate.check_analysis(docs, first.outputs["analyze"].decode()),
            "render": lambda: gate.check_render(docs, first.outputs["render"].decode(),
                                                wl.render_level),
        }
        if "extract" in first.outputs:
            checks["extract"] = lambda: gate.check_extraction(
                wl.sources, docs, wl.extract_class, wl.lazy)
        for name, check in checks.items():
            try:
                self.mismatches += check()
            except Exception as exc:  # output too malformed to compare: one mismatch
                self.mismatches.append(f"{name}: output could not be checked: {exc!r}")

    def _compare_shape(self, other) -> list[str]:
        mine, theirs = self.wl.shape_summary(), other.shape_summary()
        lines = [f"shape (seed)   {mine}", f"shape (seed+1) {theirs}"]
        for key, value in mine.items():
            limit = 0 if key == "inputs" else SHAPE_TOLERANCE * max(value, 1)
            if abs(theirs[key] - value) > limit:
                self.mismatches.append(f"shape: {key} is {theirs[key]} for the next seed, "
                                       f"{value} for this one")
        return lines

    # --- reporting -----------------------------------------------------------

    def report_end_to_end(self, passes: list[Pass], setup: list[StageRun]) -> dict:
        runs = {"setup_s": setup, **{f"{s.subcommand}_s": [p.stages[i] for p in passes]
                                     for i, s in enumerate(self.wl.stages)}}
        cpu = {k: [r.cpu_s for r in v] for k, v in runs.items()}
        wall = {k: [r.wall_s for r in v] for k, v in runs.items()}
        cpu["pipeline_s"] = [p.pipeline_s for p in passes]
        wall["pipeline_s"] = [p.pipeline_wall_s for p in passes]
        metrics = {k: (statistics.median(v), "s") for k, v in cpu.items()}
        metrics["features_per_s"] = (self.features / metrics["pipeline_s"][0], "features/s")
        metrics["peak_rss_mb"] = (max(s.rss_mb for p in passes for s in p.stages), "MB")

        self._header()
        print("timings are CPU seconds (user + system) of the child processes; "
              "wall seconds, which include hypervisor steal, are shown beside them")
        print(f"{'metric':<18} {'value':>12} {'unit':<11} {'wall':>8}  samples (CPU)")
        for name in ("setup_s", "pipeline_s", "extract_s", "validate_s", "analyze_s",
                     "render_s", "features_per_s", "peak_rss_mb"):
            if name not in metrics:
                print(f"{name:<18} {'n/a':>12} {'s':<11} (no such stage on this workload)")
                continue
            value, unit = metrics[name]
            shown = f"{statistics.median(wall[name]):>8.4f}" if name in wall else " " * 8
            print(f"{name:<18} {value:>12.4f} {unit:<11} {shown}  {_spread(cpu.get(name))}")
        print(f"{'errors_ratio':<18} {self.failed / max(self.attempted, 1):>12.4f} "
              f"{'ratio':<11} {self.failed} of {self.attempted} stage commands")
        print(f"{'output_mismatches':<18} {len(self.mismatches):>12d} {'count':<11}")
        self._footer()
        # extract_s is printed, not returned: the documents workload has no
        # extract stage, and every workload must report the same metrics
        metrics.pop("extract_s", None)
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def report_layers(self, traced: list[Pass], plain: list[Pass],
                      setup: list[StageRun]) -> dict:
        import tracing

        def total(p: Pass, metric: str) -> float:
            return sum(stage[metric] for stage in p.layer_s.values())

        counts = traced[0].counts
        ms = {m: statistics.median(total(p, m) for p in traced) * 1000
              for m in tracing.TIME_METRICS}
        lexer_s = [total(p, "lexer.self_ms") for p in traced]
        load_s = [total(p, "model.deserialize_ms") for p in traced]
        untraced = statistics.median(p.pipeline_s for p in plain)
        traced_main = statistics.median(p.pipeline_s for p in traced)
        startup = statistics.median(r.cpu_s for r in setup)
        overhead = (traced_main + startup * len(self.wl.stages)) / untraced - 1

        metrics = {m: (ms[m], "ms") for m in tracing.TIME_METRICS}
        metrics.update({m: (counts.get(m, 0), "count") for m in tracing.COUNT_METRICS})
        metrics["model.doc_bytes"] = (counts.get("model.doc_bytes", 0), "bytes")
        metrics["render.dot_bytes"] = (counts.get("render.dot_bytes", 0), "bytes")
        metrics["lexer.tokens_per_s"] = (statistics.median(
            counts.get("lexer.tokens", 0) / s if s else 0.0 for s in lexer_s), "tokens/s")
        metrics["model.deserialize_mb_per_s"] = (statistics.median(
            counts.get("model.doc_bytes", 0) / 2**20 / s if s else 0.0 for s in load_s), "MB/s")
        metrics["trace.overhead_pct"] = (overhead * 100, "%")

        self._header()
        print(f"traced passes: {len(traced)}; untraced passes: {len(plain)}; "
              f"tracing overhead {overhead * 100:+.1f}% in CPU time (traced in-process "
              f"pipeline {traced_main:.3f} s + {len(self.wl.stages)} x setup {startup:.3f} s "
              f"vs untraced {untraced:.3f} s)")
        for name in sorted(metrics):
            value, unit = metrics[name]
            print(f"  {name:<30} {value:>14.3f} {unit}")
        self._accounting(traced, plain, startup)
        self._footer()
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def _accounting(self, traced: list[Pass], plain: list[Pass], startup: float) -> None:
        """Per stage, in CPU seconds: untraced process = startup + traced layer
        self times + residual."""
        import tracing

        layers = {m: m.split(".")[0] for m in tracing.TIME_METRICS}
        columns = sorted(set(layers.values()), key=list(tracing.LAYER_PREFIX.values()).index)
        print("stage accounting, CPU seconds (medians; layer columns are traced self time):")
        print(f"  {'stage':<9} {'process':>7} {'startup':>8} "
              + " ".join(f"{c:>9}" for c in columns) + f" {'residual':>9}")
        for i, stage in enumerate(self.wl.stages):
            name = stage.subcommand
            process = statistics.median(p.stages[i].cpu_s for p in plain)
            per_layer = {c: statistics.median(
                sum(v for m, v in p.layer_s[name].items() if layers[m] == c) for p in traced)
                for c in columns}
            residual = process - startup - sum(per_layer.values())
            print(f"  {name:<9} {process:>7.3f} {startup:>8.3f} "
                  + " ".join(f"{per_layer[c]:>9.3f}" for c in columns) + f" {residual:>9.3f}")

    def _header(self) -> None:
        print(f"workload {self.wl.name}: {self.features} features in the models; "
              f"output digest {self.digest}")
        for line in self.shape_lines:
            print(line)

    def _footer(self) -> None:
        kinds = Counter(p.split(":")[0].split()[0] for p in self.mismatches)
        for kind, n in sorted(kinds.items()):
            print(f"MISMATCH {kind}: {n}")
        for problem in self.mismatches[:10]:
            print(f"MISMATCH {problem}")


def _spread(values: list[float] | None) -> str:
    """Sample count with the highest percentile that has ten samples above it
    (the maximum when there are fewer than eleven samples)."""
    if not values:
        return ""
    n = len(values)
    if n < 11:
        return f"n={n} max={max(values):.4f}"
    pct = math.floor(100 * (n - 10) / n)
    return f"n={n} p{pct}={sorted(values)[math.ceil(pct / 100 * n) - 1]:.4f}"


if __name__ == "__main__":
    sys.exit(main())
