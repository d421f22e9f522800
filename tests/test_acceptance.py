"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The heavyweight fixtures (default-scale corpus and pipeline run, throughput
corpus) are built once per module and shared.
"""

from __future__ import annotations

import csv
import json
import random
import time
from decimal import Decimal
from types import SimpleNamespace

import pytest

from citegraph.cli import main as cli_main
from citegraph.metrics import (
    UndefinedMetricError,
    a50pc_greedy,
    a50pc_oracle,
    h_index,
)
from citegraph.stats import ContingencyTable, round_sig2
from citegraph.synth import (
    LABEL_CARTEL,
    LABEL_HYPERTEAM,
    LABEL_SELF_CITER,
    SynthConfig,
    evaluate_detection,
    generate,
    write_corpus,
)

from conftest import brute_force_h, coauthor_counts, full_of, random_corpus

ACCEPT_SEED = 20240801


def _report(num: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {label}: {status}{suffix}")


def _run_cli(corpus_dir, out_dir, *extra: str) -> int:
    return cli_main(
        [
            "run",
            "--papers", str(corpus_dir / "papers.csv"),
            "--authorships", str(corpus_dir / "authorships.csv"),
            "--citations", str(corpus_dir / "citations.csv"),
            "--taxonomy", str(corpus_dir / "taxonomy.csv"),
            "--out", str(out_dir),
            *extra,
        ]
    )


def _tail_sets(run_dir) -> dict[str, frozenset[str]]:
    out = {}
    for metric in ("c_over_h2", "a50pc", "a50"):
        with open(run_dir / f"tail_{metric}.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            out[metric] = frozenset(row[0] for row in reader if row)
    return out


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Default-config corpus generated, written, and run end to end, timed."""
    base = tmp_path_factory.mktemp("accept_default")
    corpus_dir = base / "corpus"
    run_dir = base / "run"
    t0 = time.perf_counter()
    corpus = generate(SynthConfig(seed=ACCEPT_SEED))
    truth = corpus.truth
    write_corpus(corpus, corpus_dir)
    del corpus
    rc = _run_cli(corpus_dir, run_dir, "--seed", "11")
    elapsed = time.perf_counter() - t0
    assert rc == 0
    return SimpleNamespace(corpus_dir=corpus_dir, run_dir=run_dir, truth=truth, elapsed=elapsed)


@pytest.fixture(scope="module")
def throughput_run(tmp_path_factory):
    """100k authors / ~1M citation edges, generated and run once."""
    base = tmp_path_factory.mktemp("accept_throughput")
    cfg = SynthConfig(
        seed=ACCEPT_SEED + 1,
        n_background_authors=100_000,
        established_fraction=0.0035,
        light_citations=(0, 8),
        n_self_citers=0,
        n_cartels=0,
        n_hyperteams=0,
    )
    corpus_dir = base / "corpus"
    write_corpus(generate(cfg), corpus_dir)
    run_dir = base / "run"
    assert _run_cli(corpus_dir, run_dir, "--seed", "11") == 0
    return SimpleNamespace(corpus_dir=corpus_dir, run_dir=run_dir)


# ---------------------------------------------------------------------------
# criterion 1: golden 2x2 tables reproduce published odds ratios and CIs
# ---------------------------------------------------------------------------

def test_criterion_1_odds_ratio_tables():
    golden = [
        ((659, 12566, 10618, 1298809), "6.4", "5.9", "6.9"),
        ((11, 13214, 12004, 1297423), "0.09", "0.05", "0.16"),
        ((151, 11126, 11864, 1299511), "1.5", "1.3", "1.7"),
    ]
    t0 = time.perf_counter()
    failures = []
    for cells, or_exp, lo_exp, hi_exp in golden:
        table = ContingencyTable.from_counts(*cells)
        got = (round_sig2(table.odds_ratio), round_sig2(table.ci_low), round_sig2(table.ci_high))
        want = (Decimal(or_exp), Decimal(lo_exp), Decimal(hi_exp))
        if got != want:
            failures.append(f"cells={cells}: got {got}, want {want}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, "odds-ratio table reproduction", ok, f"{elapsed:.3f}s")
    assert not failures, failures
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: enrichment folds from the published share table
# ---------------------------------------------------------------------------

def test_criterion_2_enrichment_folds():
    from test_stats import _report_from_shares
    from citegraph.stats import enrichment_flags

    ratio_report = _report_from_shares(
        {
            "Chemistry": (0.0613, 0.1380),
            "Clinical Medicine": (0.3871, 0.2920),
            "Information & Communication Technologies": (0.0382, 0.0106),
        }
    )
    chem = next(a for a in ratio_report.field_allocation if a.field_id == "Chemistry")
    chem_ok = abs(chem.fold - 2.25) <= 0.01
    flags_ratio = enrichment_flags(ratio_report)

    a50_report = _report_from_shares(
        {
            "Clinical Medicine": (0.3871, 0.7329),
            "Biomedical Research": (0.1266, 0.0903),
            "Engineering": (0.0375, 0.0117),
        }
    )
    clin = next(a for a in a50_report.field_allocation if a.field_id == "Clinical Medicine")
    clin_ok = abs(clin.fold - 1.89) <= 0.01
    flags_a50 = enrichment_flags(a50_report)

    ok = (
        chem_ok
        and clin_ok
        and flags_ratio == {"Chemistry"}
        and flags_a50 == {"Clinical Medicine"}
    )
    _report(2, "enrichment folds", ok, f"chem fold={chem.fold:.4f}, clinical fold={clin.fold:.4f}")
    assert chem_ok, chem.fold
    assert clin_ok, clin.fold
    assert flags_ratio == {"Chemistry"}
    assert flags_a50 == {"Clinical Medicine"}


# ---------------------------------------------------------------------------
# criterion 3: oracle equivalence at scale
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(ACCEPT_SEED)
    mismatches = 0
    corpora = 0
    compared = 0
    while corpora < 1000:
        idx = random_corpus(rng)
        corpora += 1
        for author in sorted(idx.papers_of)[:2]:
            try:
                expected = a50pc_oracle(idx, author)
            except UndefinedMetricError:
                continue
            if a50pc_greedy(idx, full_of(idx, author)) != expected:
                mismatches += 1
            compared += 1

    h_checked = 0
    for _ in range(10_000):
        counts = [rng.randint(0, 100) for _ in range(rng.randint(0, 60))]
        if h_index(counts) != brute_force_h(counts):
            mismatches += 1
        h_checked += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        3,
        "oracle equivalence",
        ok,
        f"{corpora} corpora / {compared} a50pc pairs / {h_checked} h vectors in {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert compared > 800
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: structural invariants, zero violations
# ---------------------------------------------------------------------------

def test_criterion_4_structural_invariants(default_run, throughput_run):
    violations = 0
    rows_checked = 0
    for run in (default_run, throughput_run):
        with open(run.run_dir / "metrics.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                citations = int(row["citations"])
                h = int(row["h_index"])
                if citations < h * h or int(row["a50pc"]) < 1:
                    violations += 1
                rows_checked += 1

    rng = random.Random(77)
    sym_checked = 0
    for _ in range(40):
        idx = random_corpus(rng, max_authors=15, max_edges=60)
        over = {
            a: {b for b, n in coauthor_counts(idx, a).items() if n > 0}
            for a in idx.papers_of
        }
        for a, partners in over.items():
            for b in partners:
                if a not in over[b]:
                    violations += 1
                sym_checked += 1

    ok = violations == 0 and rows_checked > 3000
    _report(
        4,
        "structural invariants",
        ok,
        f"{rows_checked} eligible rows, {sym_checked} symmetry pairs, {violations} violations",
    )
    assert violations == 0
    assert rows_checked > 3000
    assert sym_checked > 100


# ---------------------------------------------------------------------------
# criterion 5: planted-behavior detection at default scale
# ---------------------------------------------------------------------------

def test_criterion_5_planted_detection(default_run):
    tails = _tail_sets(default_run.run_dir)
    results = {r.motif: r for r in evaluate_detection(default_run.truth, tails)}
    team_recall = results[LABEL_HYPERTEAM].recall
    self_recall = results[LABEL_SELF_CITER].recall
    cartel_recall = results[LABEL_CARTEL].recall
    small_scale = default_run.truth.authors_with(LABEL_SELF_CITER) | default_run.truth.authors_with(
        LABEL_CARTEL
    )
    combined_recall = len(small_scale & tails["c_over_h2"]) / len(small_scale)
    ok = (
        team_recall == 1.0
        and combined_recall >= 0.9
        and self_recall >= 0.9
        and cartel_recall >= 0.9
        and default_run.elapsed < 300.0
    )
    _report(
        5,
        "planted-behavior detection",
        ok,
        f"team={team_recall} self={self_recall} cartel={cartel_recall} "
        f"end-to-end {default_run.elapsed:.0f}s",
    )
    assert team_recall == 1.0
    assert combined_recall >= 0.9
    assert self_recall >= 0.9
    assert cartel_recall >= 0.9
    assert default_run.elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 6: byte-identical outputs across thread counts
# ---------------------------------------------------------------------------

def test_criterion_6_determinism_across_threads(tmp_path):
    cfg = SynthConfig(seed=ACCEPT_SEED + 2, n_background_authors=600, established_fraction=0.5)
    corpus_dir = tmp_path / "corpus"
    write_corpus(generate(cfg), corpus_dir)
    run_a = tmp_path / "run_t1"
    run_b = tmp_path / "run_t8"
    assert _run_cli(corpus_dir, run_a, "--seed", "11", "--threads", "1") == 0
    assert _run_cli(corpus_dir, run_b, "--seed", "11", "--threads", "8") == 0

    names_a = {p.name for p in run_a.iterdir()}
    names_b = {p.name for p in run_b.iterdir()}
    mismatched = []
    if names_a != names_b:
        mismatched.append("file sets differ")
    for name in sorted(names_a & names_b):
        if name == "timings.json":
            continue
        if (run_a / name).read_bytes() != (run_b / name).read_bytes():
            mismatched.append(name)
    ok = not mismatched
    _report(6, "determinism across threads", ok, f"{len(names_a) - 1} files compared")
    assert not mismatched, mismatched


# ---------------------------------------------------------------------------
# criterion 7: desk-scale throughput within time and memory budget
# ---------------------------------------------------------------------------

def test_criterion_7_throughput(throughput_run):
    manifest = json.loads((throughput_run.run_dir / "manifest.json").read_text())
    timings = json.loads((throughput_run.run_dir / "timings.json").read_text())
    n_authors = manifest["index"]["n_authors"]
    n_edges = manifest["index"]["n_citation_edges"]
    stages = timings["stages_s"]
    core_time = stages["ingest_and_index"] + stages["cohort"] + stages["metrics"]
    peak_mb = timings["peak_rss_mb"]
    ok = (
        n_authors >= 100_000
        and 900_000 <= n_edges <= 1_100_000
        and core_time < 60.0
        and peak_mb is not None
        and peak_mb < 4096.0
    )
    _report(
        7,
        "desk-scale throughput",
        ok,
        f"{n_authors} authors, {n_edges} edges, ingest+index+metrics {core_time:.1f}s, "
        f"peak {peak_mb} MB",
    )
    assert n_authors >= 100_000
    assert 900_000 <= n_edges <= 1_100_000
    assert core_time < 60.0
    assert peak_mb < 4096.0
