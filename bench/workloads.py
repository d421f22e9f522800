"""Workload definitions and the second CSV dialect used by `sparse`.

Each workload is a synth config plus the `citegraph run` flags it is
analysed with. Every workload has two scales: `bench`, the size the timed
benchmark runs, and `toy`, a corpus small enough for the smoke test to run
every generator and every check in seconds.

The benchmark scales are a fixed fraction of the corpora they stand for, so
that one run takes a few seconds and a whole benchmark invocation stays well
inside its time budget, while each workload keeps the layer split it was
chosen for (see README.md).
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

#: `citegraph run --seed`: the field tie-break seed, fixed for every workload.
RUN_SEED = 11

CORPUS_FILES = ("papers", "authorships", "citations", "taxonomy")


@dataclass(frozen=True)
class Scale:
    synth: dict  # SynthConfig overrides; the workload seed is added at set-up
    run_args: tuple[str, ...]  # extra `citegraph run` flags
    odd_papers: int = 0  # author-less noise papers added by the dialect rewrite


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scales: dict[str, Scale]
    dialect: bool = False  # analyse the rewritten, noisy copy of the corpus
    check_recall: bool = False  # every planted motif must be found in its tail


# Planted counts in `dense` are sized so that, at 1% tails over the ~386
# cohort authors, the 3 c_over_h2 plants stay strictly below the rank-4
# threshold and the 3 hyperteam members strictly above the a50 threshold.
_DENSE_PLANTS = dict(n_self_citers=1, n_cartels=1, cartel_size=2, n_hyperteams=1, team_size=3)
_SPARSE_SHAPE = dict(
    established_fraction=0.0035,
    light_citations=(0, 8),
    n_self_citers=0,
    n_cartels=0,
    n_hyperteams=0,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense",
            why="default synth shape at 1/10 scale: citations parse and index build dominate the run",
            scales={
                "bench": Scale(dict(n_background_authors=1000, **_DENSE_PLANTS), ("--threads", "1")),
                "toy": Scale(
                    dict(n_background_authors=120, **_DENSE_PLANTS),
                    ("--threads", "1", "--pct", "10"),
                ),
            },
            check_recall=True,
        ),
        Workload(
            name="sparse",
            why="15k authors, few citations, quoted CRLF dialect with noise rows: papers, authorships and eligibility dominate",
            scales={
                "bench": Scale(
                    dict(n_background_authors=15_000, **_SPARSE_SHAPE), ("--threads", "1"), 2000
                ),
                "toy": Scale(dict(n_background_authors=2000, **_SPARSE_SHAPE), ("--threads", "1"), 40),
            },
            dialect=True,
        ),
        Workload(
            name="collab",
            why="a 90-author hyperteam cites itself: a50pc and a50 dominate, --pct 50 tails, 2 workers",
            scales={
                "bench": Scale(
                    dict(n_background_authors=200, n_hyperteams=1, team_size=90, joint_papers=300),
                    ("--pct", "50", "--threads", "2"),
                ),
                # Fewer plants than the default 35, so that they stay under the
                # median of the ~37 toy cohort authors.
                "toy": Scale(
                    dict(n_background_authors=60, n_self_citers=2, n_cartels=1, cartel_size=2,
                         n_hyperteams=1, team_size=10, joint_papers=60),
                    ("--pct", "50", "--threads", "2"),
                ),
            },
            check_recall=True,
        ),
    )
}


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def write_dialect(src: Path, dst: Path, seed: int, odd_papers: int) -> Counter:
    """Rewrite the corpus in `src` into `dst` in a second valid CSV dialect.

    Every field is quoted and lines end in CRLF. About 30% of doc_type values
    are upper-cased. Seeded noise rows are interleaved: duplicate rows in all
    three record files, self-loop citations, citations and authorships that
    reference unknown papers, and author-less papers with odd ids and doc
    types. None of them may change a report file; the returned counter holds
    how many of each kind were written, for the manifest's drop accounting.
    """
    rng = random.Random(f"dialect:{seed}")
    dst.mkdir(parents=True, exist_ok=True)
    injected: Counter = Counter()

    def write(name: str, header: list[str], rows: list[list[str]]) -> None:
        with open(dst / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(rows)

    header, rows = _read_rows(src / "taxonomy.csv")
    subfields = [r[0] for r in rows]
    write("taxonomy", header, rows)

    header, rows = _read_rows(src / "papers.csv")
    paper_ids = [r[0] for r in rows]
    out: list[list[str]] = []
    for row in rows:
        if rng.random() < 0.3:
            row[1] = row[1].upper()
        out.append(row)
        if rng.random() < 0.01:
            out.append(list(row))
            injected["papers.duplicate"] += 1
    odd_types = ("Erratum", "LETTER", " editorial ", "", "Correction")
    for i in range(odd_papers):
        odd = [f"x{i:06d}, erratum", rng.choice(odd_types), rng.choice(("", *subfields))]
        out.insert(rng.randrange(len(out) + 1), odd)
    injected["papers.odd"] = odd_papers
    write("papers", header, out)

    header, rows = _read_rows(src / "authorships.csv")
    out = []
    for row in rows:
        out.append(row)
        r = rng.random()
        if r < 0.01:
            out.append(list(row))
            injected["authorships.duplicate"] += 1
        elif r < 0.015:
            out.append([f"u{injected['authorships.unknown_paper']:06d}", row[1]])
            injected["authorships.unknown_paper"] += 1
    write("authorships", header, out)

    header, rows = _read_rows(src / "citations.csv")
    out = []
    for row in rows:
        out.append(row)
        r = rng.random()
        if r < 0.01:
            out.append(list(row))
            injected["citations.duplicate"] += 1
        elif r < 0.015:
            p = rng.choice(paper_ids)
            out.append([p, p])
            injected["citations.self_loop"] += 1
        elif r < 0.02:
            unknown = f"u{injected['citations.unknown_paper']:06d}"
            out.append([unknown, row[1]] if rng.random() < 0.5 else [row[0], unknown])
            injected["citations.unknown_paper"] += 1
    write("citations", header, out)
    return injected
