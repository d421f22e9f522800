"""The benchmark's child entry points still find what they use of citegraph.

bench/child.py replaces module attributes of citegraph with span-recording
wrappers. The first test runs its `trace-run` entry point on a tiny corpus,
in a separate process as the benchmark does, and checks that every
per-author indicator is traced once per cohort author, inside that author's
metrics.compute_author_metrics span. The second runs its `setup` entry point,
which calls synth.generate and synth.write_corpus, and checks the files it
writes against an in-process write of the same workload config. The third
runs its `oracle` entry point, which calls metrics.a50pc_oracle(index,
author_id) on a corpus it indexes itself, against a run's metrics.csv and a
copy with one a50pc value changed. None writes anything under bench/.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from citegraph.cli import main
from citegraph.synth import SynthConfig, generate, write_corpus

ROOT = Path(__file__).resolve().parents[1]
# citation_counts is not among them: eligibility counts each author's citations
# once and hands the counts to the kernel.
INDICATORS = ("h_index", "c_over_h2", "a50pc_greedy", "a50_coauthors")


def _child_env() -> dict[str, str]:
    """The environment the benchmark starts its children in: src on the path, no bytecode."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}


def _bench_workloads():
    """bench/workloads.py's WORKLOADS, imported without writing bytecode under bench/."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses look the module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.WORKLOADS


def test_trace_run_nests_each_indicator_under_the_per_author_kernel(tmp_path):
    corpus = tmp_path / "corpus"
    synth = [
        "synth", "--out", str(corpus), "--background", "60", "--self-citers", "2",
        "--cartels", "1", "--cartel-size", "2", "--team-size", "10", "--joint-papers", "60",
    ]
    assert main(synth) == 0
    run = ["run", "--out", str(tmp_path / "run"), "--min-citations", "100", "--pct", "50"]
    for name in ("papers", "authorships", "citations", "taxonomy"):
        run += [f"--{name}", str(corpus / f"{name}.csv")]

    trace = tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace-run",
         "--trace-out", str(trace), "--", *run],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

    spans = json.loads(trace.read_text())
    kernels = sorted(s["id"] for s in spans if s["name"] == "metrics.compute_author_metrics")
    n_cohort = json.loads((tmp_path / "run" / "manifest.json").read_text())["cohort"]["n_eligible"]
    assert n_cohort > 0 and len(kernels) == n_cohort
    for indicator in INDICATORS:
        parents = [s["parent"] for s in spans if s["name"] == f"metrics.{indicator}"]
        assert Counter(parents) == Counter(kernels), indicator


def test_setup_writes_the_corpus_that_synth_writes_in_process(tmp_path):
    seed = 1
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "setup", "--workload", "collab",
         "--scale", "toy", "--seed", str(seed), "--out", str(tmp_path / "child")],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

    scale = _bench_workloads()["collab"].scales["toy"]
    expected = write_corpus(generate(SynthConfig(seed=seed, **scale.synth)), tmp_path / "direct")
    assert len(expected) == 5
    for name, path in expected.items():
        assert (tmp_path / "child" / path.name).read_bytes() == path.read_bytes(), name


def test_oracle_passes_a_runs_metrics_and_fails_a_tampered_copy(tmp_path):
    corpus = tmp_path / "corpus"
    synth = [
        "synth", "--out", str(corpus), "--background", "60", "--self-citers", "2",
        "--cartels", "1", "--cartel-size", "2", "--team-size", "10", "--joint-papers", "60",
    ]
    assert main(synth) == 0
    run = ["run", "--out", str(tmp_path / "run"), "--min-citations", "100", "--pct", "50"]
    for name in ("papers", "authorships", "citations", "taxonomy"):
        run += [f"--{name}", str(corpus / f"{name}.csv")]
    assert main(run) == 0

    reported = tmp_path / "run" / "metrics.csv"
    with open(reported, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    bumped = rows[len(rows) // 2]
    bumped["a50pc"] = str(int(bumped["a50pc"]) + 1)
    tampered = tmp_path / "tampered.csv"
    with open(tampered, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    for metrics_csv, expected_rc in ((reported, 0), (tampered, 1)):
        done = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "child.py"), "oracle", "--corpus", str(corpus),
             "--metrics", str(metrics_csv), "--seed", "1", "--sample", str(len(rows))],
            env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == expected_rc, done.stdout + done.stderr
        assert done.stdout.startswith(f"oracle checked {len(rows)} authors"), done.stdout
