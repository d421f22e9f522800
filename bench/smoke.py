#!/usr/bin/env python3
"""Toy-scale self-test of the benchmark; runs in seconds.

    python3 bench/smoke.py

Run from the root of the checkout. Every workload runs at toy scale in both
modes, through the same code as the timed benchmark: all three generators,
the `sparse` dialect rewrite, every correctness check and every metric.
Then outputs are corrupted in ways each check must catch, and the test
asserts they are counted as failed. Exits 0 when everything holds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import run
from workloads import WORKLOADS

SEED = 3


@contextmanager
def _forged(bench: run.Bench, name: str, edit):
    """Rewrite report `name` in every run and re-sign it in the manifest, so
    that only the content checks, not the digest checks, can catch it; the
    original files are restored on exit."""
    saved = {}
    for r in bench.runs:
        path, manifest_path = r.out / name, r.out / "manifest.json"
        saved[path], saved[manifest_path] = path.read_bytes(), manifest_path.read_bytes()
        path.write_text(edit(path.read_text()))
        manifest = json.loads(manifest_path.read_text())
        manifest["outputs"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    try:
        yield
    finally:
        for path, data in saved.items():
            path.write_bytes(data)


def _bump_a50pc(text: str) -> str:
    lines = text.splitlines()
    col = lines[0].split(",").index("a50pc")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = str(int(cells[col]) + 1)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _check_result(name: str, trace: int, result: dict, info: dict) -> None:
    units = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0, (name, trace, result)
    assert result["attempted"] >= (2 * run.MIN_TRACED_RUNS if trace else run.MIN_TIMED_RUNS)
    assert set(result["metrics"]) == set(units), (name, trace)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == units[metric] and math.isfinite(entry["value"]), (name, metric)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        for metric in ("cli.run_pipeline.s", "ingest.parse_citations.s", "corpus.build_index.s",
                       "metrics.compute_all_metrics.s", "metrics.a50pc_greedy.s",
                       "synth.generate.s", "synth.write_corpus.s"):
            assert values[metric] > 0, (name, metric)
        shares = sum(values[k] for k in units if k.startswith("share."))
        assert abs(shares - 100) < 1e-6, (name, shares)
    else:
        assert all(v > 0 for v in values.values()), (name, values)
    for key in ("git_sha", "src_sha256", "python", "nproc", "seed", "papers", "authorships",
                "edges", "cohort"):
        assert key in info, key
    assert info["papers"] and info["edges"] and info["cohort"], info


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))

    spec = json.loads((root / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

    for name, workload in WORKLOADS.items():
        for trace in (1, 0):
            bench = run.Bench(root, name, SEED, scale="toy")
            try:
                result, info = bench.execute(0, trace)
                _check_result(name, trace, result, info)
                if workload.dialect:
                    assert all(info["injected"].values()) and len(info["injected"]) == 7, info
                if trace:
                    continue
                n = len(bench.runs)

                # A report file changed after the run no longer matches its digest.
                tail = bench.runs[1].out / "tail_a50.csv"
                original = tail.read_bytes()
                tail.write_bytes(original + b"x,1\n")
                assert bench.check() == [False, True] + [False] * (n - 2)
                tail.write_bytes(original)
                assert bench.check() == [False] * n

                # Re-signed but wrong reports are caught by the shared checks.
                failed_all = [True] * n
                with _forged(bench, "metrics.csv", _bump_a50pc):
                    assert bench.check() == failed_all, "a50pc oracle not checked"
                if workload.check_recall:
                    with _forged(bench, "tail_c_over_h2.csv", lambda t: t.splitlines()[0] + "\n"):
                        assert bench.check() == failed_all, "planted recall not checked"
                if workload.dialect:
                    with _forged(bench, "hist_a50.csv", lambda t: t + "999,1\n"):
                        assert bench.check() == failed_all, "clean-dialect equality not checked"
                    bench.injected["citations.self_loop"] += 1
                    assert bench.check() == failed_all, "drop accounting not checked"
            finally:
                bench.close()
            print(f"smoke ok: {name} trace={trace}")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
