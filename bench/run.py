#!/usr/bin/env python3
"""citegraph benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload dense --seed 1 --seconds 10 --trace 0

Run from the root of a citegraph checkout; the program is imported from its
`src` directory. One process per step, one at a time:

  set-up  a child generates the workload's synthetic corpus and writes its
          CSVs (with --trace 0 at least 3 times and for a quarter of
          --seconds, reporting the median; once, traced, with --trace 1)
  run     children run `citegraph run` on the corpus, back to back, for
          --seconds (at least 3 runs); each is timed from spawn to exit and
          its peak RSS is read from its own rusage
  check   every run must exit 0 and produce report files that match its
          manifest and every other run's; the shared checks (planted-motif
          recall, a50pc oracle sample, `sparse` drop accounting and equality
          with the clean dialect) run once, outside timing

With --trace 1 half of --seconds goes to untraced runs and half to traced
in-process runs (child.py trace-run), and the result holds the per-layer
metrics instead of the end-to-end ones. The last line of stdout is the result
object; the line before it records the code, interpreter, machine and corpus
sizes the result was measured on. Work files live under .bench_work/ in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import CORPUS_FILES, RUN_SEED, WORKLOADS, write_dialect

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_TIMED_RUNS = 3
MIN_TRACED_RUNS = 2
ORACLE_SAMPLE = 10
CHILD_TIMEOUT_S = 150
#: No further timed run starts once an invocation is this old, so that the
#: whole invocation ends well inside three minutes on a slow machine.
LAUNCH_DEADLINE_S = 110

END_TO_END = {
    "run_s": "s",
    "rows_per_s": "1/s",
    "run_peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
}
PER_LAYER = {
    "ingest.parse_papers.s": "s",
    "ingest.parse_papers.rows_per_s": "1/s",
    "ingest.parse_authorships.s": "s",
    "ingest.parse_authorships.rows_per_s": "1/s",
    "ingest.parse_citations.s": "s",
    "ingest.parse_citations.rows_per_s": "1/s",
    "ingest.dropped_rows": "count",
    "corpus.build_index.s": "s",
    "corpus.edges_per_s": "1/s",
    "corpus.index_rss_mb": "MB",
    "cohort.eligible_authors.s": "s",
    "cohort.candidates_per_s": "1/s",
    "cohort.assign_fields.s": "s",
    "metrics.h_c_over_h2.s": "s",
    "metrics.a50pc_greedy.s": "s",
    "metrics.a50pc_greedy.p50_ms": "ms",
    "metrics.a50pc_greedy.max_ms": "ms",
    "metrics.a50_coauthors.s": "s",
    "metrics.compute_all_metrics.s": "s",
    "metrics.compute_all_metrics.authors_per_s": "1/s",
    "stats.tail_members.s": "s",
    "stats.histogram.s": "s",
    "stats.cooccurrence.s": "s",
    "cli.self_s": "s",
    "cli.run_pipeline.s": "s",
    "share.ingest_index": "%",
    "share.cohort": "%",
    "share.metrics": "%",
    "share.reports": "%",
    "synth.generate.s": "s",
    "synth.write_corpus.s": "s",
    "tracing.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not proceed; no result is printed."""


@dataclass
class Child:
    rc: int
    wall_s: float
    peak_rss_mb: float


@dataclass
class Run:
    out: Path
    child: Child
    spans: Path | None = None  # span file of a traced run


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rows_read(manifest: dict) -> int:
    """Data rows (headers excluded) of papers, authorships and citations read."""
    ingest = manifest["ingest"]
    return sum(ingest[f]["rows_read"] - 1 for f in ("papers", "authorships", "citations"))


def _get(manifest: dict, *path: str) -> int:
    node = manifest
    for key in path:
        node = node.get(key, {})
    return node if isinstance(node, int) else 0


class Bench:
    """One workload at one seed, in its own work directory under the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, scale: str = "bench"):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.scale_name = scale
        self.scale = self.workload.scales[scale]
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-{scale}-{seed}-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.corpus = self.work / "corpus"
        self.inputs = self.corpus
        self.started = time.perf_counter()
        self.setups: list[Child] = []
        self.setup_spans: Path | None = None
        self.runs: list[Run] = []
        self.problems: list[str] = []
        self.injected: Counter = Counter()
        self.reference: dict | None = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def log(self, message: str) -> None:
        print(f"[bench {self.workload.name} seed={self.seed}] {message}", file=sys.stderr)

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion; wall time is spawn to exit, RSS is the child's own peak."""
        with open(self.work / "children.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                killer.join()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            self.log(f"exit {proc.returncode}: {' '.join(argv[1:4])} ...; see children.log:")
            tail = (self.work / "children.log").read_text(errors="replace").splitlines()[-5:]
            for line in tail:
                self.log(f"  {line}")
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024)

    def _citegraph_argv(self, corpus: Path, out: Path) -> list[str]:
        args = ["run"]
        for name in CORPUS_FILES:
            args += [f"--{name}", str(corpus / f"{name}.csv")]
        return args + ["--out", str(out), "--seed", str(RUN_SEED), *self.scale.run_args]

    # -- steps ---------------------------------------------------------------

    def setup(self, repeats: int, seconds: float = 0, traced: bool = False) -> None:
        digests = set()
        start = time.perf_counter()
        while len(self.setups) < repeats or time.perf_counter() - start < seconds:
            argv = [
                sys.executable, str(BENCH_DIR / "child.py"), "setup",
                "--workload", self.workload.name, "--scale", self.scale_name,
                "--seed", str(self.seed), "--out", str(self.corpus),
            ]
            if traced:
                self.setup_spans = self.work / "setup_spans.json"
                argv += ["--trace-out", str(self.setup_spans)]
            child = self.spawn(argv)
            if child.rc != 0:
                raise BenchError("set-up failed")
            self.setups.append(child)
            digests.add(tuple(_sha256(p) for p in sorted(self.corpus.iterdir())))
        if len(digests) != 1:
            self.problems.append("set-up wrote different corpora for the same seed")

    def prepare(self) -> None:
        """Untimed: the `sparse` dialect rewrite and its clean-dialect reference run."""
        if not self.workload.dialect:
            return
        self.inputs = self.work / "dialect"
        self.injected = write_dialect(self.corpus, self.inputs, self.seed, self.scale.odd_papers)
        out = self.work / "reference"
        child = self.spawn([sys.executable, "-m", "citegraph.cli", *self._citegraph_argv(self.corpus, out)])
        if child.rc == 0:
            self.reference = json.loads((out / "manifest.json").read_text())
        else:
            self.problems.append("clean-dialect reference run failed")

    def timed_runs(self, seconds: float, minimum: int, traced: bool = False) -> None:
        start = time.perf_counter()
        n = 0
        while n < minimum or time.perf_counter() - start < seconds:
            if n >= minimum and time.perf_counter() - self.started > LAUNCH_DEADLINE_S:
                break
            i = len(self.runs)
            out = self.work / f"run{i:03d}"
            argv = self._citegraph_argv(self.inputs, out)
            if traced:
                spans = self.work / f"spans{i:03d}.json"
                argv = [sys.executable, str(BENCH_DIR / "child.py"), "trace-run",
                        "--trace-out", str(spans), "--", *argv]
            else:
                spans = None
                argv = [sys.executable, "-m", "citegraph.cli", *argv]
            self.runs.append(Run(out, self.spawn(argv), spans))
            n += 1

    # -- checks --------------------------------------------------------------

    def _outputs(self, run: Run) -> dict | None:
        """The run's manifest `outputs`, or None if it failed or a file does not match."""
        if run.child.rc != 0:
            return None
        try:
            outputs = json.loads((run.out / "manifest.json").read_text())["outputs"]
            bad = [name for name, digest in outputs.items() if _sha256(run.out / name) != digest]
        except (OSError, ValueError, KeyError) as exc:
            self.log(f"{run.out.name}: unreadable manifest or report: {exc}")
            return None
        if bad:
            self.log(f"{run.out.name}: report files differ from their manifest digest: {bad}")
            return None
        return outputs

    def _check_recall(self, out: Path) -> list[str]:
        from citegraph import cli

        dest = self.work / "evaluation.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["evaluate", "--truth", str(self.corpus / "truth.csv"),
                           "--run-dir", str(out), "--out", str(dest)])
        if rc != 0:
            return ["citegraph evaluate failed"]
        with open(dest, encoding="utf-8", newline="") as fh:
            planted = [r for r in csv.DictReader(fh) if int(r["n_planted"]) > 0]
        if not planted:
            return ["no planted motif to evaluate"]
        return [
            f"recall of {r['motif']} is {r['recall']}, not 1"
            for r in planted
            if r["recall"] != "1.000000"
        ]

    def _check_oracle(self, out: Path) -> list[str]:
        child = self.spawn([
            sys.executable, str(BENCH_DIR / "child.py"), "oracle",
            "--corpus", str(self.inputs), "--metrics", str(out / "metrics.csv"),
            "--seed", str(self.seed), "--sample", str(ORACLE_SAMPLE),
        ])
        return [] if child.rc == 0 else ["a50pc_oracle disagrees with metrics.csv"]

    def _check_dialect(self, out: Path) -> list[str]:
        """`sparse`: reports equal the clean run's; drop counts equal the injected counts."""
        if self.reference is None:
            return []
        manifest = json.loads((out / "manifest.json").read_text())
        ref, inj = self.reference, self.injected
        problems = []
        if manifest["outputs"] != ref["outputs"]:
            problems.append("reports differ from the clean-dialect run")
        expected = {
            ("ingest", "papers", "rows_read"): inj["papers.duplicate"] + inj["papers.odd"],
            ("ingest", "authorships", "rows_read"):
                inj["authorships.duplicate"] + inj["authorships.unknown_paper"],
            ("ingest", "citations", "rows_read"): inj["citations.duplicate"]
                + inj["citations.self_loop"] + inj["citations.unknown_paper"],
            ("ingest", "citations", "dropped", "self_loop"): inj["citations.self_loop"],
            ("index", "n_papers"): inj["papers.odd"],
            ("index", "n_citation_edges"): 0,
            ("index", "dropped_self_loops"): 0,
            ("index", "dropped_unknown_edges"): inj["citations.unknown_paper"],
            ("index", "dropped_unknown_authorships"): inj["authorships.unknown_paper"],
        }
        for path, added in expected.items():
            got, want = _get(manifest, *path), _get(ref, *path) + added
            if got != want:
                problems.append(f"manifest {'.'.join(path)} is {got}, expected {want}")
        return problems

    def check(self) -> list[bool]:
        """Whether each run failed. A failed shared check fails every run."""
        outputs = [self._outputs(run) for run in self.runs]
        seen = Counter(json.dumps(o, sort_keys=True) for o in outputs if o is not None)
        canonical = json.loads(seen.most_common(1)[0][0]) if seen else None
        problems = list(self.problems)
        if canonical is None:
            problems.append("no run produced a consistent report set")
        else:
            out = next(r.out for r, o in zip(self.runs, outputs) if o == canonical)
            if self.workload.check_recall:
                problems += self._check_recall(out)
            problems += self._check_oracle(out)
            if self.workload.dialect:
                problems += self._check_dialect(out)
        for problem in problems:
            self.log(problem)
        for run, o in zip(self.runs, outputs):
            if o is not None and o != canonical:
                self.log(f"{run.out.name}: reports differ from the other runs")
        return [o is None or o != canonical or bool(problems) for o in outputs]

    # -- metrics -------------------------------------------------------------

    def _manifest(self) -> dict | None:
        for run in self.runs:
            path = run.out / "manifest.json"
            if run.child.rc == 0 and path.is_file():
                return json.loads(path.read_text())
        return None

    def end_to_end(self) -> dict[str, float]:
        manifest = self._manifest()
        rows = _rows_read(manifest) if manifest else 0
        timed = [r.child for r in self.runs if r.spans is None]
        return {
            "run_s": _median(c.wall_s for c in timed),
            "rows_per_s": _median(rows / c.wall_s for c in timed),
            "run_peak_rss_mb": _median(c.peak_rss_mb for c in timed),
            "setup_s": _median(c.wall_s for c in self.setups),
            "setup_peak_rss_mb": _median(c.peak_rss_mb for c in self.setups),
        }

    def per_layer(self) -> dict[str, float]:
        manifest = self._manifest()
        traced = [r for r in self.runs if r.spans is not None and r.spans.is_file()]
        samples = [layer_metrics(json.loads(r.spans.read_text()), manifest) for r in traced]
        values = {name: _median(s.get(name, 0.0) for s in samples) for name in PER_LAYER}
        if self.setup_spans is not None and self.setup_spans.is_file():
            for span in json.loads(self.setup_spans.read_text()):
                values[f"{span['name']}.s"] = span["end"] - span["start"]
        untraced = [r.child.wall_s for r in self.runs if r.spans is None]
        values["tracing.overhead_s"] = _median(r.child.wall_s for r in traced) - _median(untraced)
        return values

    def info(self, trace: int) -> dict:
        manifest = self._manifest() or {}
        index = manifest.get("index", {})
        return {
            "workload": self.workload.name,
            "scale": self.scale_name,
            "seed": self.seed,
            "trace": trace,
            "git_sha": git_sha(self.root),
            "src_sha256": src_digest(self.root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "papers": index.get("n_papers"),
            "authorships": _get(manifest, "ingest", "authorships", "emitted")
            - index.get("dropped_unknown_authorships", 0)
            - self.injected["authorships.duplicate"],
            "edges": index.get("n_citation_edges"),
            "cohort": manifest.get("cohort", {}).get("n_eligible"),
            "rows_read": _rows_read(manifest) if manifest else None,
            "injected": dict(sorted(self.injected.items())),
            "run_s_samples": [round(r.child.wall_s, 4) for r in self.runs if r.spans is None],
            "traced_s_samples": [round(r.child.wall_s, 4) for r in self.runs if r.spans],
            "setup_s_samples": [round(c.wall_s, 4) for c in self.setups],
        }

    def execute(self, seconds: float, trace: int) -> tuple[dict, dict]:
        if trace:
            self.setup(1, traced=True)
            self.prepare()
            self.timed_runs(seconds / 2, MIN_TRACED_RUNS)
            self.timed_runs(seconds / 2, MIN_TRACED_RUNS, traced=True)
        else:
            self.setup(SETUP_REPEATS, seconds / 4)
            self.prepare()
            self.timed_runs(seconds, MIN_TIMED_RUNS)
        failed = self.check()
        values = self.per_layer() if trace else self.end_to_end()
        units = PER_LAYER if trace else END_TO_END
        result = {
            "correct": not any(failed),
            "attempted": len(failed),
            "failed": sum(failed),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        return result, self.info(trace)


def layer_metrics(spans: list[dict], manifest: dict | None) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer whose span is absent reads 0."""
    by_id = {s["id"]: s for s in spans}

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def named(name: str, parent: str | None = None) -> list[dict]:
        return [
            s for s in spans
            if s["name"] == name
            and (parent is None or by_id.get(s["parent"], {}).get("name") == parent)
        ]

    def one(name: str) -> dict | None:
        found = named(name)
        return found[0] if found else None

    def rate(span: dict | None) -> float:
        return span.get("count", 0) / dur(span) if span and dur(span) > 0 else 0.0

    root = one("cli.run_pipeline")
    if root is None:
        return {}
    pipeline = dur(root)
    m: dict[str, float] = {"cli.run_pipeline.s": pipeline}
    for role in ("papers", "authorships", "citations"):
        span = one(f"ingest.parse_{role}")
        m[f"ingest.parse_{role}.s"] = dur(span) if span else 0.0
        m[f"ingest.parse_{role}.rows_per_s"] = rate(span)
    if manifest:
        m["ingest.dropped_rows"] = sum(
            sum(f["dropped"].values()) for f in manifest["ingest"].values()
        ) + sum(v for k, v in manifest["index"].items() if k.startswith("dropped_"))
    build = one("corpus.build_index")
    if build:
        m["corpus.build_index.s"] = dur(build)
        m["corpus.edges_per_s"] = rate(build)
        m["corpus.index_rss_mb"] = build["rss_end_mb"] - build["rss_start_mb"]
    eligible = one("cohort.eligible_authors")
    if eligible:
        m["cohort.eligible_authors.s"] = dur(eligible)
        m["cohort.candidates_per_s"] = rate(eligible)
    m["cohort.assign_fields.s"] = sum(dur(s) for s in named("cohort.assign_fields"))

    # Per-author spans report thread CPU time: with 2 workers their wall time
    # would include waiting for the interpreter lock held by the other worker.
    per_author = "metrics.compute_author_metrics"

    def cpu(name: str) -> list[float]:
        return [s["cpu_s"] for s in named(name, per_author)]

    m["metrics.h_c_over_h2.s"] = sum(
        sum(cpu(f"metrics.{n}")) for n in ("citation_counts", "h_index", "c_over_h2")
    )
    a50pc = cpu("metrics.a50pc_greedy")
    m["metrics.a50pc_greedy.s"] = sum(a50pc)
    m["metrics.a50pc_greedy.p50_ms"] = _median(a50pc) * 1000
    m["metrics.a50pc_greedy.max_ms"] = max(a50pc, default=0.0) * 1000
    m["metrics.a50_coauthors.s"] = sum(cpu("metrics.a50_coauthors"))
    compute = one("metrics.compute_all_metrics")
    if compute:
        m["metrics.compute_all_metrics.s"] = dur(compute)
        m["metrics.compute_all_metrics.authors_per_s"] = rate(compute)

    for name in ("tail_members", "histogram", "cooccurrence"):
        m[f"stats.{name}.s"] = sum(dur(s) for s in named(f"stats.{name}", "cli.run_pipeline"))
    m["cli.self_s"] = pipeline - sum(dur(s) for s in spans if s["parent"] == root["id"])

    def share(*names: str) -> float:
        return 100 * sum(sum(dur(s) for s in named(n, "cli.run_pipeline")) for n in names) / pipeline

    m["share.ingest_index"] = share("cli._parse_inputs")
    m["share.cohort"] = share("cohort.eligible_authors", "cohort.assign_fields")
    m["share.metrics"] = share("metrics.compute_all_metrics")
    m["share.reports"] = 100 - m["share.ingest_index"] - m["share.cohort"] - m["share.metrics"]
    return m


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_digest(root: Path) -> str:
    """sha256 over the program's source files, identifying the code without git."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "citegraph" / "cli.py").is_file():
        print("error: src/citegraph not found; run from the root of a citegraph checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    compileall.compile_dir(root / "src", quiet=1)
    bench = Bench(root, args.workload, args.seed)
    try:
        result, info = bench.execute(args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
