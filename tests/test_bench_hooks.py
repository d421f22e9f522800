"""The benchmark's traced run still finds the functions it wraps by name.

bench/child.py replaces module attributes of citegraph with span-recording
wrappers. This runs its `trace-run` entry point on a tiny corpus, in a
separate process as the benchmark does, and checks that every per-author
indicator is traced once per cohort author, inside that author's
metrics.compute_author_metrics span. It writes nothing under bench/.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from citegraph.cli import main

ROOT = Path(__file__).resolve().parents[1]
INDICATORS = ("citation_counts", "h_index", "c_over_h2", "a50pc_greedy", "a50_coauthors")


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
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace-run",
         "--trace-out", str(trace), "--", *run],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

    spans = json.loads(trace.read_text())
    kernels = sorted(s["id"] for s in spans if s["name"] == "metrics.compute_author_metrics")
    n_cohort = json.loads((tmp_path / "run" / "manifest.json").read_text())["cohort"]["n_eligible"]
    assert n_cohort > 0 and len(kernels) == n_cohort
    for indicator in INDICATORS:
        parents = [s["parent"] for s in spans if s["name"] == f"metrics.{indicator}"]
        assert Counter(parents) == Counter(kernels), indicator
