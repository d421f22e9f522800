"""Child-process entry points of the benchmark; run.py starts one at a time.

    setup      synth.generate then synth.write_corpus for one workload
    trace-run  `citegraph run` in process, with spans around each layer
    oracle     metrics.a50pc_oracle against metrics.csv on a seeded sample

Each runs in its own process so that its peak RSS (read by the parent from
rusage) is its own. citegraph is imported from PYTHONPATH, which run.py
points at the checkout's `src`.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
from pathlib import Path

from citegraph import cli, cohort, corpus, ingest, metrics, stats, synth
from spans import Tracer
from workloads import WORKLOADS


def _setup(args: argparse.Namespace) -> int:
    scale = WORKLOADS[args.workload].scales[args.scale]
    cfg = synth.SynthConfig(seed=args.seed, **scale.synth)
    tracer = Tracer()
    with tracer.span("synth.generate", rss=True):
        generated = synth.generate(cfg)
    with tracer.span("synth.write_corpus", rss=True):
        synth.write_corpus(generated, args.out)
    if args.trace_out:
        tracer.dump(Path(args.trace_out))
    return 0


def _traced_parse_inputs(tracer: Tracer):
    """cli._parse_inputs with each file parsed to a list in its own span.

    The untraced pipeline streams all three record files into one
    build_index call, so no per-file time exists there; here each file is
    materialised first. Row accounting lands in the same IngestReport, so the
    manifest is byte-identical to an untraced run's.
    """

    def parse_inputs(cfg, report):
        with tracer.span("cli._parse_inputs", rss=True):
            with tracer.span("ingest.parse_taxonomy"), open(cfg.taxonomy_path, "rb") as fh:
                taxonomy = ingest.parse_taxonomy(fh, report.stats_for("taxonomy"))
            records = {}
            for role, parse in (
                ("papers", ingest.parse_papers),
                ("authorships", ingest.parse_authorships),
                ("citations", ingest.parse_citations),
            ):
                path = getattr(cfg, f"{role}_path")
                with tracer.span(f"ingest.parse_{role}", rss=True) as rec, open(path, "rb") as fh:
                    records[role] = list(parse(fh, report.stats_for(role)))
                    rec["count"] = report.stats_for(role).rows_read - 1
            with tracer.span("corpus.build_index", rss=True) as rec:
                index = corpus.build_index(
                    records["papers"], records["authorships"], records["citations"], taxonomy
                )
                rec["count"] = index.n_edges
            records.clear()
        return index

    return parse_inputs


def _trace_run(args: argparse.Namespace) -> int:
    tracer = Tracer()
    cli._parse_inputs = _traced_parse_inputs(tracer)
    tracer.wrap(cli, "run_pipeline", "cli.run_pipeline", rss=True)
    tracer.wrap(
        cohort, "eligible_authors", "cohort.eligible_authors", count=lambda a, r: len(a[0].papers_of)
    )
    tracer.wrap(cohort, "assign_fields", "cohort.assign_fields", count=lambda a, r: len(r))
    tracer.wrap(
        metrics, "compute_all_metrics", "metrics.compute_all_metrics", count=lambda a, r: len(r)
    )
    for name in ("compute_author_metrics", "citation_counts", "h_index", "c_over_h2",
                 "a50pc_greedy", "a50_coauthors"):
        tracer.wrap(metrics, name, f"metrics.{name}")
    for name in ("tail_members", "enrichment_flags", "histogram", "cooccurrence"):
        tracer.wrap(stats, name, f"stats.{name}")
    rc = cli.main(args.run_argv)
    tracer.dump(Path(args.trace_out))
    return rc


def _oracle(args: argparse.Namespace) -> int:
    """Exit 0 when a50pc_oracle agrees with metrics.csv on every sampled author."""
    with open(args.metrics, encoding="utf-8", newline="") as fh:
        reported = {row["author_id"]: int(row["a50pc"]) for row in csv.DictReader(fh)}
    sample = random.Random(f"oracle:{args.seed}").sample(
        sorted(reported), min(args.sample, len(reported))
    )
    d = Path(args.corpus)
    with open(d / "papers.csv", "rb") as fp, open(d / "authorships.csv", "rb") as fa, open(
        d / "citations.csv", "rb"
    ) as fc, open(d / "taxonomy.csv", "rb") as ft:
        index = corpus.build_index(
            ingest.parse_papers(fp),
            ingest.parse_authorships(fa),
            ingest.parse_citations(fc),
            ingest.parse_taxonomy(ft),
        )
    bad = [a for a in sample if metrics.a50pc_oracle(index, a) != reported[a]]
    print(f"oracle checked {len(sample)} authors, {len(bad)} disagree: {bad}")
    return 1 if bad or not sample else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--scale", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=_setup)
    p = sub.add_parser("trace-run")
    p.add_argument("--trace-out", required=True)
    p.add_argument("run_argv", nargs=argparse.REMAINDER, help="citegraph arguments, after --")
    p.set_defaults(func=_trace_run)
    p = sub.add_parser("oracle")
    p.add_argument("--corpus", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--sample", required=True, type=int)
    p.set_defaults(func=_oracle)
    args = parser.parse_args(argv)
    if getattr(args, "run_argv", None) and args.run_argv[0] == "--":
        args.run_argv = args.run_argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
