"""Command-line pipeline: ingest -> cohort -> metrics -> tail reports.

Subcommands:

    synth         write a synthetic corpus (plus ground-truth labels)
    ingest-check  parse and index the four input files, report row accounting
    run           full pipeline; writes metrics.csv, per-metric tail,
                  allocation and histogram CSVs, cooccur.csv, manifest.json,
                  and timings.json into the output directory
    evaluate      recall/precision of planted behaviors against a run's tails

Every CSV goes through `ingest`: reports are written by `ingest.write_rows`,
and `evaluate` reads truth.csv and the tail files by `ingest.read_rows`,
with the corpus files' header, width, CSV and UTF-8 checks and messages.

Report files are pure functions of (inputs, config, seed): reruns produce
byte-identical bytes. Volatile facts (durations, peak memory overall and
after each stage) go to timings.json only; manifest.json carries the config
echo, row accounting, and sha256 of every report file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from . import cohort as cohort_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import stats as stats_mod
from . import synth as synth_mod
from .corpus import CorpusIndex, build_index
from .errors import CitegraphError

METRICS_CSV_HEADER = [
    "author_id",
    "field_id",
    "subfield_id",
    "n_full_papers",
    "citations",
    "h_index",
    "c_over_h2",
    "a50pc",
    "a50",
]

TAIL_CSV_HEADER = ["author_id", "value"]

COOCCURRENCE_PAIRS = (("c_over_h2", "a50pc"), ("c_over_h2", "a50"), ("a50pc", "a50"))

#: Histogram display range and bin width, (lo, hi, width), per indicator.
HIST_SPECS: Mapping[str, tuple[Fraction, Fraction, Fraction]] = {
    "c_over_h2": (Fraction(0), Fraction(20), Fraction(1, 4)),
    "a50pc": (Fraction(0), Fraction(200), Fraction(1)),
    "a50": (Fraction(0), Fraction(40), Fraction(1)),
}


@dataclass(frozen=True)
class RunConfig:
    papers_path: str
    authorships_path: str
    citations_path: str
    taxonomy_path: str
    out_dir: str
    eligibility: cohort_mod.EligibilityConfig = cohort_mod.EligibilityConfig()
    percentile: Fraction = Fraction(1)
    excluded_fields: frozenset[str] = frozenset()
    a50_threshold: int = 50

    def tail_specs(self) -> dict[str, stats_mod.TailSpec]:
        """Lower tails for c_over_h2 and a50pc, upper for a50; exclusions apply
        to the two tails that large collaborations would otherwise swamp."""
        return {
            "c_over_h2": stats_mod.TailSpec("c_over_h2", "lower", self.percentile),
            "a50pc": stats_mod.TailSpec("a50pc", "lower", self.percentile, self.excluded_fields),
            "a50": stats_mod.TailSpec("a50", "upper", self.percentile, self.excluded_fields),
        }


def _require_file(path: str, role: str) -> None:
    if not Path(path).is_file():
        raise CitegraphError(f"{role} file not found: {path}")


def _fmt_value(metric: str, value) -> str:
    if metric == "c_over_h2":
        return metrics_mod.format_2dp(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> str:
    ingest_mod.write_rows(path, header, rows)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_inputs(cfg: RunConfig, report: ingest_mod.IngestReport) -> CorpusIndex:
    for role, path in (
        ("papers", cfg.papers_path),
        ("authorships", cfg.authorships_path),
        ("citations", cfg.citations_path),
        ("taxonomy", cfg.taxonomy_path),
    ):
        _require_file(path, role)

    with open(cfg.taxonomy_path, "rb") as fh:
        taxonomy = ingest_mod.parse_taxonomy(fh, report.stats_for("taxonomy"))

    # The three record parsers are generators; consume them inside the open.
    with open(cfg.papers_path, "rb") as fp, open(cfg.authorships_path, "rb") as fa, open(
        cfg.citations_path, "rb"
    ) as fc:
        return build_index(
            ingest_mod.parse_papers(fp, report.stats_for("papers")),
            ingest_mod.parse_authorships(fa, report.stats_for("authorships")),
            ingest_mod.parse_citations(fc, report.stats_for("citations")),
            taxonomy,
        )


def _vm_hwm_mb() -> float | None:
    """This process's peak resident set so far (VmHWM), or None where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 1)
    except OSError:
        pass
    return None


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute the full pipeline; returns the output directory."""
    specs = cfg.tail_specs()  # rejects a bad percentile before any work is done
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    stages_peak: dict[str, float | None] = {}
    t_total = time.perf_counter()

    report = ingest_mod.IngestReport()
    t = time.perf_counter()
    index = _parse_inputs(cfg, report)
    timings["ingest_and_index"] = time.perf_counter() - t
    timings["index_finalise"] = index.finalise_s  # part of ingest_and_index
    stages_peak["ingest_and_index"] = _vm_hwm_mb()

    t = time.perf_counter()
    cohort = cohort_mod.eligible_authors(index, cfg.eligibility)
    timings["cohort"] = time.perf_counter() - t
    stages_peak["cohort"] = _vm_hwm_mb()

    t = time.perf_counter()
    all_metrics = metrics_mod.compute_all_metrics(index, cohort, a50_threshold=cfg.a50_threshold)
    timings["metrics"] = time.perf_counter() - t
    stages_peak["metrics"] = _vm_hwm_mb()

    # Every report table is computed before the first file is written, so a
    # run that fails while reporting leaves no partial report set behind.
    t = time.perf_counter()
    tables: dict[str, tuple[list[str], list[list]]] = {}
    tables["metrics.csv"] = (
        METRICS_CSV_HEADER,
        [
            [
                m.author_id,
                m.field_id,
                m.subfield_id,
                m.n_full_papers,
                m.citations,
                m.h_index,
                metrics_mod.format_2dp(m.c_over_h2),
                m.a50pc,
                m.a50,
            ]
            for m in (all_metrics[a] for a in sorted(all_metrics))
        ],
    )

    # Report files are written even for an empty cohort (header-only), so the
    # output file set never depends on the data.
    hist_overflow: dict[str, dict[str, int]] = {}
    tail_reports: dict[str, stats_mod.TailReport] = {}
    for metric, spec in specs.items():
        tail_report = stats_mod.tail_members(all_metrics, spec) if all_metrics else None
        members = sorted(tail_report.members) if tail_report else []
        allocation = tail_report.field_allocation if tail_report else ()
        flagged = stats_mod.enrichment_flags(tail_report) if tail_report else set()
        if tail_report:
            tail_reports[metric] = tail_report
        tables[f"tail_{metric}.csv"] = (
            TAIL_CSV_HEADER,
            [[a, _fmt_value(metric, getattr(all_metrics[a], metric))] for a in members],
        )
        tables[f"allocation_{metric}.csv"] = (
            [
                "field_id",
                "field_name",
                "cohort_count",
                "cohort_share",
                "tail_count",
                "tail_share",
                "fold",
                "flagged",
            ],
            [
                [
                    alloc.field_id or "",
                    index.taxonomy.field_name(alloc.field_id) or "" if alloc.field_id else "",
                    alloc.cohort_count,
                    f"{alloc.cohort_share:.6f}",
                    alloc.tail_count,
                    f"{alloc.tail_share:.6f}",
                    "inf" if alloc.fold == float("inf") else f"{alloc.fold:.4f}",
                    str(alloc.field_id in flagged).lower(),
                ]
                for alloc in allocation
            ],
        )

    for metric, (lo, hi, width) in HIST_SPECS.items():
        hist = stats_mod.histogram(
            [getattr(m, metric) for m in all_metrics.values()], width, lo, hi
        )
        hist_overflow[metric] = {"below": hist.n_below, "above": hist.n_above}
        tables[f"hist_{metric}.csv"] = (
            ["bin_start", "count"],
            [[f"{float(start):g}", count] for start, count in hist.bins],
        )

    cooccur_rows = []
    if all_metrics:
        for name_a, name_b in COOCCURRENCE_PAIRS:
            table = stats_mod.cooccurrence(all_metrics, specs[name_a], specs[name_b])
            cooccur_rows.append(
                [
                    name_a,
                    name_b,
                    table.a,
                    table.b,
                    table.c,
                    table.d,
                    "" if table.odds_ratio is None else str(stats_mod.round_sig2(table.odds_ratio)),
                    "" if table.ci_low is None else str(stats_mod.round_sig2(table.ci_low)),
                    "" if table.ci_high is None else str(stats_mod.round_sig2(table.ci_high)),
                    ""
                    if table.odds_ratio is None
                    else f"{table.odds_ratio.numerator}/{table.odds_ratio.denominator}",
                    "" if table.ci_low is None else f"{table.ci_low:.10g}",
                    "" if table.ci_high is None else f"{table.ci_high:.10g}",
                    str(table.degenerate).lower(),
                ]
            )
    tables["cooccur.csv"] = (
        [
            "metric_a",
            "metric_b",
            "a",
            "b",
            "c",
            "d",
            "odds_ratio",
            "ci_low",
            "ci_high",
            "odds_ratio_exact",
            "ci_low_raw",
            "ci_high_raw",
            "degenerate",
        ],
        cooccur_rows,
    )

    checksums = {
        name: _write_csv(out / name, header, rows) for name, (header, rows) in tables.items()
    }
    timings["reports"] = time.perf_counter() - t
    stages_peak["reports"] = _vm_hwm_mb()

    manifest = {
        "schema": "citegraph-run-manifest@1",
        "config": {
            "papers": cfg.papers_path,
            "authorships": cfg.authorships_path,
            "citations": cfg.citations_path,
            "taxonomy": cfg.taxonomy_path,
            "min_full_papers": cfg.eligibility.min_full_papers,
            "min_citations": cfg.eligibility.min_citations,
            "seed": cfg.eligibility.seed,
            "percentile": float(cfg.percentile),
            "a50_threshold": cfg.a50_threshold,
            "excluded_fields": sorted(cfg.excluded_fields),
            "histograms": {
                m: {"lo": f"{float(lo):g}", "hi": f"{float(hi):g}", "width": f"{float(w):g}"}
                for m, (lo, hi, w) in HIST_SPECS.items()
            },
        },
        "ingest": {
            name: {
                "rows_read": st.rows_read,
                "emitted": st.emitted,
                "dropped": dict(sorted(st.dropped.items())),
            }
            for name, st in sorted(report.files.items())
        },
        "index": {
            "n_papers": len(index.paper_ids),
            "n_authors": len(index.author_ids),
            "n_citation_edges": index.n_edges,
            "dropped_unknown_edges": index.dropped_unknown_edges,
            "dropped_self_loops": index.dropped_self_loops,
            "dropped_unknown_authorships": index.dropped_unknown_authorships,
        },
        "cohort": {"n_eligible": len(all_metrics)},
        "tails": {
            metric: {
                "threshold": _fmt_value(metric, rep.threshold),
                "members": len(rep.members),
                "cohort_size": rep.cohort_size,
                "median": _fmt_value(metric, rep.median),
                "iqr": [_fmt_value(metric, rep.iqr[0]), _fmt_value(metric, rep.iqr[1])],
            }
            for metric, rep in sorted(tail_reports.items())
        },
        "histogram_overflow": hist_overflow,
        "outputs": dict(sorted(checksums.items())),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    timings["total"] = time.perf_counter() - t_total
    runtime = {
        "stages_s": {k: round(v, 3) for k, v in timings.items()},
        "peak_rss_mb": _vm_hwm_mb(),
        "stages_peak_rss_mb": stages_peak,
        "ingest_file_s": {
            name: round(st.duration_s, 3) for name, st in sorted(report.files.items())
        },
    }
    (out / "timings.json").write_text(json.dumps(runtime, indent=2, sort_keys=True) + "\n")
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        papers_path=args.papers,
        authorships_path=args.authorships,
        citations_path=args.citations,
        taxonomy_path=args.taxonomy,
        out_dir=args.out,
        eligibility=cohort_mod.EligibilityConfig(
            min_full_papers=args.min_papers,
            min_citations=args.min_citations,
            seed=args.seed,
        ),
        percentile=args.pct,
        excluded_fields=frozenset(args.exclude_field or ()),
        a50_threshold=args.a50_threshold,
    )
    out = run_pipeline(cfg)
    print(f"run complete: {out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = synth_mod.SynthConfig(
        seed=args.seed,
        n_background_authors=args.background,
        established_fraction=args.established_fraction,
        n_self_citers=args.self_citers,
        n_cartels=args.cartels,
        cartel_size=args.cartel_size,
        n_hyperteams=args.hyperteams,
        team_size=args.team_size,
        joint_papers=args.joint_papers,
    )
    corpus = synth_mod.generate(cfg)
    paths = synth_mod.write_corpus(corpus, args.out)
    print(
        f"synth complete: {corpus.n_papers} papers, "
        f"{len(corpus.citing)} citation edges -> {Path(args.out)}"
    )
    for name in ("papers", "authorships", "citations", "taxonomy", "truth"):
        print(f"  {paths[name]}")
    return 0


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    cfg = RunConfig(
        papers_path=args.papers,
        authorships_path=args.authorships,
        citations_path=args.citations,
        taxonomy_path=args.taxonomy,
        out_dir=".",
    )
    report = ingest_mod.IngestReport()
    index = _parse_inputs(cfg, report)
    for name, st in sorted(report.files.items()):
        dropped = ", ".join(f"{k}={v}" for k, v in sorted(st.dropped.items())) or "none"
        print(f"{name}: rows_read={st.rows_read} emitted={st.emitted} dropped=[{dropped}]")
    print(
        f"index: papers={len(index.paper_ids)} authors={len(index.author_ids)} "
        f"edges={index.n_edges} dropped_unknown_edges={index.dropped_unknown_edges} "
        f"dropped_self_loops={index.dropped_self_loops} "
        f"dropped_unknown_authorships={index.dropped_unknown_authorships}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    truth = synth_mod.read_truth(args.truth)
    run_dir = Path(args.run_dir)
    members: dict[str, frozenset[str]] = {}
    for metric in stats_mod.METRIC_NAMES:
        tail_path = run_dir / f"tail_{metric}.csv"
        if not tail_path.is_file():
            continue
        with open(tail_path, "rb") as fh:
            rows = ingest_mod.read_rows(fh, TAIL_CSV_HEADER)
            members[metric] = frozenset(author_id for _, (author_id, _) in rows)
    if not members:
        raise CitegraphError(f"no tail_<metric>.csv files found in {run_dir}")
    results = synth_mod.evaluate_detection(truth, members)
    for r in results:
        recall = "n/a" if r.recall is None else f"{r.recall:.4f}"
        precision = "n/a" if r.precision is None else f"{r.precision:.4f}"
        print(
            f"{r.motif}: planted={r.n_planted} detected={r.n_detected} "
            f"recall={recall} tail_size={r.tail_size} precision={precision}"
        )
    if args.out:
        _write_csv(
            Path(args.out),
            ["motif", "tail_metric", "n_planted", "n_detected", "recall", "tail_size", "precision"],
            (
                [
                    r.motif,
                    r.tail_metric,
                    r.n_planted,
                    r.n_detected,
                    "" if r.recall is None else f"{r.recall:.6f}",
                    r.tail_size,
                    "" if r.precision is None else f"{r.precision:.6f}",
                ]
                for r in results
            ),
        )
    return 0


def _rational(text: str) -> Fraction:
    """argparse type for --pct; a zero denominator is a usage error, not a crash."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--papers", required=True, help="papers.csv path")
    p.add_argument("--authorships", required=True, help="authorships.csv path")
    p.add_argument("--citations", required=True, help="citations.csv path")
    p.add_argument("--taxonomy", required=True, help="taxonomy.csv path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citegraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline to an output directory")
    _add_input_args(p_run)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--min-papers", type=int, default=5, help="strict lower bound on full papers")
    p_run.add_argument("--min-citations", type=int, default=1000)
    p_run.add_argument("--seed", type=int, default=0, help="seed for field tie-breaks")
    p_run.add_argument(
        "--exclude-field", action="append", default=[], help="field_id excluded from a50pc/a50 tails"
    )
    p_run.add_argument(
        "--pct", type=_rational, default=Fraction(1), help="tail percentile, read as an exact rational"
    )
    p_run.add_argument("--a50-threshold", type=int, default=50)
    p_run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: the per-author work holds the GIL, "
        "so a thread pool only made runs slower",
    )
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--background", type=int, default=10_000)
    p_synth.add_argument("--established-fraction", type=float, default=0.38)
    p_synth.add_argument("--self-citers", type=int, default=20)
    p_synth.add_argument("--cartels", type=int, default=3)
    p_synth.add_argument("--cartel-size", type=int, default=5)
    p_synth.add_argument("--hyperteams", type=int, default=1)
    p_synth.add_argument("--team-size", type=int, default=10)
    p_synth.add_argument("--joint-papers", type=int, default=60)
    p_synth.set_defaults(func=_cmd_synth)

    p_check = sub.add_parser("ingest-check", help="parse inputs and report accounting")
    _add_input_args(p_check)
    p_check.set_defaults(func=_cmd_ingest_check)

    p_eval = sub.add_parser("evaluate", help="planted-behavior recall against a run")
    p_eval.add_argument("--truth", required=True, help="truth.csv from synth")
    p_eval.add_argument("--run-dir", required=True, help="output directory of a run")
    p_eval.add_argument("--out", default=None, help="optional evaluation.csv path")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CitegraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
