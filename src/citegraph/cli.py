"""Command-line pipeline: ingest -> cohort -> metrics -> tail reports.

Subcommands:

    synth         write a synthetic corpus (plus ground-truth labels)
    ingest-check  parse and index the four input files; print the run manifest's
                  row accounting (its ingest, index and data_quality sections)
                  as JSON
    run           full pipeline; writes metrics.csv, per-metric tail,
                  allocation and histogram CSVs, cooccur.csv, manifest.json,
                  and timings.json into the output directory
    evaluate      recall/precision of planted behaviors against a run's tails

Every CSV goes through `ingest`: reports are written by `ingest.write_rows`,
and `evaluate` reads truth.csv and the tail files by `ingest.read_rows`,
with the corpus files' header, width, CSV and UTF-8 checks and messages.
metrics.csv and evaluation.csv have one column per field of `metrics.AuthorMetrics`
and `synth.DetectionResult`; `_cell` formats their values and those of the tails.

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
from contextlib import ExitStack
from dataclasses import dataclass, fields
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import BinaryIO, Mapping

from . import cohort as cohort_mod
from . import ingest as ingest_mod
from . import metrics as metrics_mod
from . import stats as stats_mod
from . import synth as synth_mod
from .corpus import CorpusIndex, FieldTaxonomy, build_index
from .errors import CitegraphError

METRICS_CSV_HEADER = [f.name for f in fields(metrics_mod.AuthorMetrics)]

TAIL_CSV_HEADER = ["author_id", "value"]

ALLOCATION_CSV_HEADER = [
    "field_id",
    "field_name",
    "cohort_count",
    "cohort_share",
    "tail_count",
    "tail_share",
    "fold",
    "flagged",
]

#: The four input files by role: `--<role>` fills `RunConfig.<role>_path`.
INPUT_ROLES = ("papers", "authorships", "citations", "taxonomy")

#: Per indicator: its tail, whether --exclude-field applies to that tail, and
#: its histogram's display range and bin width (lo, hi, width). Exclusions
#: apply to the a50pc and a50 tails only, which large collaborations would
#: otherwise swamp. Co-occurrence is reported for every pair, in this order.
INDICATORS: Mapping[str, tuple[str, bool, tuple[Fraction, Fraction, Fraction]]] = {
    "c_over_h2": ("lower", False, (Fraction(0), Fraction(20), Fraction(1, 4))),
    "a50pc": ("lower", True, (Fraction(0), Fraction(200), Fraction(1))),
    "a50": ("upper", True, (Fraction(0), Fraction(40), Fraction(1))),
}


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs and settings; each field's default is its flag's default."""

    papers_path: str
    authorships_path: str
    citations_path: str
    taxonomy_path: str
    out_dir: str
    eligibility: cohort_mod.EligibilityConfig = cohort_mod.EligibilityConfig()
    percentile: Fraction = Fraction(1)
    excluded_fields: frozenset[str] = frozenset()
    a50_threshold: int = metrics_mod.A50_THRESHOLD

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded_fields", frozenset(self.excluded_fields))
        if self.a50_threshold < 0:
            raise CitegraphError("a50 threshold must be >= 0")

    def tail_specs(self) -> dict[str, stats_mod.TailSpec]:
        """Each indicator's tail as INDICATORS declares it, at this run's percentile."""
        return {
            metric: stats_mod.TailSpec(
                metric, tail, self.percentile, self.excluded_fields if excludable else ()
            )
            for metric, (tail, excludable, _) in INDICATORS.items()
        }


def _open_input(path: str | Path, role: str) -> BinaryIO:
    """`path` opened for binary reading, so a pipe or a process substitution is
    read too; a missing path or any other OSError is an error naming `role`."""
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise CitegraphError(f"{role} file not found: {path}") from None
    except OSError as exc:
        raise CitegraphError(f"{role} file {path}: {exc.strerror}") from None


def _cell(value, places: int = 2) -> str:
    """A report cell: an exact rational with `places` decimals, rounded half to
    even (2 unless its column asks for more: 6 for a share, recall or
    precision, 4 for a fold), a Decimal in plain notation (never 4.2E+2),
    None empty."""
    if isinstance(value, Fraction):
        return metrics_mod.format_fixed(value, places)
    if isinstance(value, Decimal):
        return format(value, "f")
    return "" if value is None else str(value)


def _cells(records, header: list[str], places: int = 2) -> list[list[str]]:
    return [[_cell(getattr(r, name), places) for name in header] for r in records]


def _allocation_rows(report: stats_mod.TailReport, taxonomy: FieldTaxonomy) -> list[list]:
    """The rows of `allocation_<metric>.csv`: shares at 6 decimals, the fold at 4."""
    flagged = stats_mod.enrichment_flags(report)
    return [
        [
            _cell(alloc.field_id),
            _cell(taxonomy.field_name(alloc.field_id)),
            alloc.cohort_count,
            _cell(alloc.cohort_share, 6),
            alloc.tail_count,
            _cell(alloc.tail_share, 6),
            _cell(alloc.fold, 4),
            str(alloc.field_id in flagged).lower(),
        ]
        for alloc in report.field_allocation
    ]


def _write_csv(path: Path, header: list[str], rows) -> str:
    ingest_mod.write_rows(path, header, rows)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse_inputs(cfg: RunConfig, report: ingest_mod.IngestReport) -> CorpusIndex:
    """The index of the four input files. All four are opened first, in role
    order, so a bad path fails before anything is parsed; then the taxonomy
    is read, so an --exclude-field id that is not among its field_ids fails
    before any record file is read."""
    with ExitStack() as stack:
        fp, fa, fc, ft = (
            stack.enter_context(_open_input(getattr(cfg, f"{role}_path"), role))
            for role in INPUT_ROLES
        )
        taxonomy = ingest_mod.parse_taxonomy(ft, report.stats_for("taxonomy"))
        unknown = sorted(f for f in cfg.excluded_fields if taxonomy.field_name(f) is None)
        if unknown:
            raise CitegraphError(
                f"--exclude-field {', '.join(unknown)}: not a field_id of {cfg.taxonomy_path}"
            )
        # The three record parsers are generators; consume them inside the open.
        return build_index(
            ingest_mod.parse_papers(fp, report.stats_for("papers")),
            ingest_mod.parse_authorships(fa, report.stats_for("authorships")),
            ingest_mod.parse_citations(fc, report.stats_for("citations")),
            taxonomy,
        )


def _accounting(report: ingest_mod.IngestReport, index: CorpusIndex) -> dict[str, dict]:
    """The manifest's row accounting: its `ingest`, `index` and `data_quality`
    sections, which `ingest-check` prints as they are."""
    return {
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
        "data_quality": {
            "papers_with_unknown_subfield": index.papers_with_unknown_subfield,
            "unknown_subfield_ids": index.unknown_subfield_ids,
        },
    }


def _memory_mb() -> tuple[float | None, float | None]:
    """This process's (VmHWM, VmRSS) in MB: its peak resident set so far and
    its resident set now; (None, None) where /proc is missing."""
    found: dict[str, float] = {}
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key in ("VmHWM", "VmRSS"):
                    found[key] = round(int(value.split()[0]) / 1024.0, 1)
    except OSError:
        pass
    return found.get("VmHWM"), found.get("VmRSS")


def run_pipeline(cfg: RunConfig) -> Path:
    """Execute the full pipeline; returns the output directory."""
    specs = cfg.tail_specs()  # rejects a bad percentile before any work is done
    out = Path(cfg.out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise CitegraphError(f"--out {out}: {existing} is not a directory")
    timings: dict[str, float] = {}
    stages_peak: dict[str, float | None] = {}
    stages_rss: dict[str, float | None] = {}
    t_total = time.perf_counter()

    def end_stage(name: str, start: float) -> None:
        timings[name] = time.perf_counter() - start
        stages_peak[name], stages_rss[name] = _memory_mb()

    report = ingest_mod.IngestReport()
    t = time.perf_counter()
    index = _parse_inputs(cfg, report)
    end_stage("ingest_and_index", t)
    # the part outside every file's parse: numbering, CSR rows, teams, file opens
    timings["index_finalise"] = timings["ingest_and_index"] - sum(
        st.duration_s for st in report.files.values()
    )

    t = time.perf_counter()
    cohort = cohort_mod.eligible_authors(index, cfg.eligibility)
    end_stage("cohort", t)

    t = time.perf_counter()
    all_metrics = metrics_mod.compute_all_metrics(index, cohort, a50_threshold=cfg.a50_threshold)
    end_stage("metrics", t)

    # Every report table is computed before the output directory is made, so
    # a run that fails leaves no directory and no partial report set behind.
    t = time.perf_counter()
    tables: dict[str, tuple[list[str], list[list]]] = {}
    tables["metrics.csv"] = (METRICS_CSV_HEADER, _cells(all_metrics.values(), METRICS_CSV_HEADER))

    # An empty tail cohort is reported like any other, as a cohort of size 0,
    # so the output file set never depends on the data.
    tails: dict[str, dict] = {}
    hist_overflow: dict[str, dict[str, int]] = {}
    for metric, (_, _, (lo, hi, width)) in INDICATORS.items():
        tail_report = stats_mod.tail_members(all_metrics, specs[metric])
        tails[metric] = {
            "threshold": _cell(tail_report.threshold),
            "members": len(tail_report.members),
            "cohort_size": tail_report.cohort_size,
            "median": _cell(tail_report.median),
            "iqr": [_cell(tail_report.iqr[0]), _cell(tail_report.iqr[1])],
        }
        tables[f"tail_{metric}.csv"] = (
            TAIL_CSV_HEADER,
            [[a, _cell(getattr(all_metrics[a], metric))] for a in sorted(tail_report.members)],
        )
        tables[f"allocation_{metric}.csv"] = (
            ALLOCATION_CSV_HEADER,
            _allocation_rows(tail_report, index.taxonomy),
        )
        hist = stats_mod.histogram(
            [getattr(m, metric) for m in all_metrics.values()], width, lo, hi
        )
        hist_overflow[metric] = {"below": hist.n_below, "above": hist.n_above}
        tables[f"hist_{metric}.csv"] = (
            ["bin_start", "count"],
            [[f"{float(start):g}", count] for start, count in hist.bins],
        )

    cooccur_rows = []
    for name_a, name_b in combinations(INDICATORS, 2):
        table = stats_mod.cooccurrence(all_metrics, specs[name_a], specs[name_b])
        ratio, ci = table.odds_ratio, (table.ci_low, table.ci_high)
        cooccur_rows.append(
            [name_a, name_b, table.a, table.b, table.c, table.d]
            + ["" if v is None else _cell(stats_mod.round_sig2(v)) for v in (ratio, *ci)]
            + ["" if ratio is None else f"{ratio.numerator}/{ratio.denominator}"]
            + ["" if v is None else f"{v:.10g}" for v in ci]
            + [str(table.degenerate).lower()]
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

    out.mkdir(parents=True, exist_ok=True)
    checksums = {
        name: _write_csv(out / name, header, rows) for name, (header, rows) in tables.items()
    }
    end_stage("reports", t)

    manifest = {
        "schema": "citegraph-run-manifest@1",
        "config": {
            **{role: getattr(cfg, f"{role}_path") for role in INPUT_ROLES},
            "min_full_papers": cfg.eligibility.min_full_papers,
            "min_citations": cfg.eligibility.min_citations,
            "seed": cfg.eligibility.seed,
            "percentile": float(cfg.percentile),
            "a50_threshold": cfg.a50_threshold,
            "excluded_fields": sorted(cfg.excluded_fields),
            "histograms": {
                m: {"lo": f"{float(lo):g}", "hi": f"{float(hi):g}", "width": f"{float(w):g}"}
                for m, (_, _, (lo, hi, w)) in INDICATORS.items()
            },
        },
        **_accounting(report, index),
        "cohort": {"n_eligible": len(all_metrics)},
        "tails": tails,
        "histogram_overflow": hist_overflow,
        "outputs": dict(sorted(checksums.items())),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    timings["total"] = time.perf_counter() - t_total
    runtime = {
        "stages_s": {k: round(v, 3) for k, v in timings.items()},
        "peak_rss_mb": _memory_mb()[0],
        "stages_peak_rss_mb": stages_peak,
        "stages_rss_mb": stages_rss,
        "ingest_file_s": {
            name: round(st.duration_s, 3) for name, st in sorted(report.files.items())
        },
    }
    (out / "timings.json").write_text(json.dumps(runtime, indent=2, sort_keys=True) + "\n")
    return out


def _record(record_type, args: argparse.Namespace, **given):
    """`record_type` from `given` and the parsed flags named after its fields;
    a flag left out is absent from `args`, so its field keeps its default."""
    names = {f.name for f in fields(record_type)}
    return record_type(**{k: v for k, v in vars(args).items() if k in names}, **given)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _record(RunConfig, args, eligibility=_record(cohort_mod.EligibilityConfig, args))
    out = run_pipeline(cfg)
    print(f"run complete: {out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    corpus = synth_mod.generate(_record(synth_mod.SynthConfig, args))
    paths = synth_mod.write_corpus(corpus, args.out)
    print(
        f"synth complete: {corpus.n_papers} papers, "
        f"{len(corpus.citing)} citation edges -> {Path(args.out)}"
    )
    for path in paths.values():
        print(f"  {path}")
    return 0


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    report = ingest_mod.IngestReport()
    index = _parse_inputs(_record(RunConfig, args, out_dir="."), report)
    print(json.dumps(_accounting(report, index), indent=2, sort_keys=True))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    with _open_input(args.truth, "truth") as fh:
        truth = synth_mod.read_truth(fh)
    run_dir = Path(args.run_dir)
    members: dict[str, frozenset[str]] = {}
    for metric in stats_mod.METRIC_NAMES:
        with _open_input(run_dir / f"tail_{metric}.csv", "tail") as fh:
            rows = ingest_mod.read_rows(fh, TAIL_CSV_HEADER)
            members[metric] = frozenset(author_id for _, (author_id, _) in rows)
    results = synth_mod.evaluate_detection(truth, members)
    for r in results:
        recall = "n/a" if r.recall is None else _cell(r.recall, 4)
        precision = "n/a" if r.precision is None else _cell(r.precision, 4)
        print(
            f"{r.motif}: planted={r.n_planted} detected={r.n_detected} "
            f"recall={recall} tail_size={r.tail_size} precision={precision}"
        )
    if args.out:
        header = [f.name for f in fields(synth_mod.DetectionResult)]
        ingest_mod.write_rows(Path(args.out), header, _cells(results, header, 6))
    return 0


def _rational(text: str) -> Fraction:
    """argparse type for --pct; a zero denominator is a usage error, not a crash."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _add_input_args(p: argparse.ArgumentParser) -> None:
    for role in INPUT_ROLES:
        p.add_argument(f"--{role}", dest=f"{role}_path", required=True, help=f"{role}.csv path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="citegraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # A `run` or `synth` flag's dest is the config field it fills, and a flag
    # left out sets nothing, so every default is the field's own (see _record).
    p_run = sub.add_parser(
        "run", help="full pipeline to an output directory", argument_default=argparse.SUPPRESS
    )
    _add_input_args(p_run)
    p_run.add_argument("--out", dest="out_dir", required=True, help="output directory")
    p_run.add_argument(
        "--min-papers", dest="min_full_papers", type=int, help="strict lower bound on full papers"
    )
    p_run.add_argument("--min-citations", type=int)
    p_run.add_argument("--seed", type=int, help="seed for field tie-breaks")
    p_run.add_argument(
        "--exclude-field",
        dest="excluded_fields",
        action="append",
        help="field_id excluded from a50pc/a50 tails",
    )
    p_run.add_argument(
        "--pct", dest="percentile", type=_rational, help="tail percentile, read as an exact rational"
    )
    p_run.add_argument("--a50-threshold", type=int)
    p_run.add_argument(
        "--threads",
        type=int,
        help="accepted for compatibility and ignored: the per-author work holds the GIL, "
        "so a thread pool only made runs slower",
    )
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser(
        "synth", help="generate a synthetic corpus", argument_default=argparse.SUPPRESS
    )
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--background", dest="n_background_authors", type=int)
    p_synth.add_argument("--established-fraction", type=float)
    p_synth.add_argument("--self-citers", dest="n_self_citers", type=int)
    p_synth.add_argument("--cartels", dest="n_cartels", type=int)
    p_synth.add_argument("--cartel-size", type=int)
    p_synth.add_argument("--hyperteams", dest="n_hyperteams", type=int)
    p_synth.add_argument("--team-size", type=int)
    p_synth.add_argument("--joint-papers", type=int)
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
