"""Deterministic synthetic-corpus generator with planted citation behaviors.

Produces a corpus in the ingest schema plus per-author ground-truth labels,
for end-to-end validation of the detectors. Three behaviors are planted by
explicit edge construction (never sampled), so their extremeness against the
background is guaranteed:

  self_citer        all citations come from the author's own papers, placed
                    exactly where they raise the h-index, so c_over_h2 is
                    exactly 1.0
  cartel_member     closed groups whose members receive all citations from
                    each other's papers, again at c_over_h2 exactly 1.0 and
                    with at most cartel_size contributors covering half the
                    citations
  hyperteam_member  teams whose members co-author every one of joint_papers
                    (> 50) papers with dense within-team citation, so each
                    member shares more than 50 full papers with team_size - 1
                    co-authors

Background authors come in two tiers: established authors are constructed to
be eligible (more than 5 full papers, at least 1000 citations) with
c_over_h2 = citations / h**2 drawn from a right-skewed distribution hard
floored at 2.2, and light authors with few citations that mostly serve as
the citing crowd. The 2.2 floor against the plants' 1.0 is what makes
lower-tail recall deterministic.

Generation is single-seeded and ordered, so a fixed config yields
byte-identical files on every run.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import (
    AuthorshipRecord,
    CitationEdge,
    DocType,
    FieldTaxonomy,
    PaperRecord,
    SubfieldInfo,
)
from .errors import CitegraphError
from .ingest import write_authorships, write_citations, write_papers, write_taxonomy
from .stats import TailReport

LABEL_BACKGROUND = "background"
LABEL_SELF_CITER = "self_citer"
LABEL_CARTEL = "cartel_member"
LABEL_HYPERTEAM = "hyperteam_member"

#: Which tail is expected to catch each planted behavior.
MOTIF_TAILS = {
    LABEL_SELF_CITER: "c_over_h2",
    LABEL_CARTEL: "c_over_h2",
    LABEL_HYPERTEAM: "a50",
}

TRUTH_HEADER = ["author_id", "label", "group_id"]

# Eligibility floor the planted authors are built against.
_MIN_ELIGIBLE_CITATIONS = 1000
_PLANT_H = 32  # smallest h with h*h >= _MIN_ELIGIBLE_CITATIONS
_BACKGROUND_RATIO_FLOOR = 2.2
_TEAM_H = 25
_TEAM_CITATIONS = 2300


class SynthConfigError(CitegraphError):
    pass


DEFAULT_TAXONOMY_ROWS = [
    ("s101", "molecular biology", "F01", "Life Sciences"),
    ("s102", "ecology", "F01", "Life Sciences"),
    ("s103", "genetics", "F01", "Life Sciences"),
    ("s201", "cardiology", "F02", "Clinical Research"),
    ("s202", "oncology", "F02", "Clinical Research"),
    ("s203", "neurology", "F02", "Clinical Research"),
    ("s301", "organic chemistry", "F03", "Chemistry & Materials"),
    ("s302", "polymer science", "F03", "Chemistry & Materials"),
    ("s303", "inorganic chemistry", "F03", "Chemistry & Materials"),
    ("s401", "particle physics", "F04", "Physics & Space"),
    ("s402", "astrophysics", "F04", "Physics & Space"),
    ("s403", "condensed matter", "F04", "Physics & Space"),
    ("s501", "machine learning", "F05", "Computing & Information"),
    ("s502", "data systems", "F05", "Computing & Information"),
    ("s503", "networks", "F05", "Computing & Information"),
    ("s601", "economics", "F06", "Social & Behavioral"),
    ("s602", "sociology", "F06", "Social & Behavioral"),
    ("s603", "psychology", "F06", "Social & Behavioral"),
]


def default_taxonomy() -> FieldTaxonomy:
    return FieldTaxonomy(SubfieldInfo(*row) for row in DEFAULT_TAXONOMY_ROWS)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 1
    n_background_authors: int = 10_000
    established_fraction: float = 0.38
    papers_per_author: tuple[int, int] = (4, 56)
    h_range: tuple[int, int] = (15, 24)
    attachment_exponent: float = 1.3
    citing_batch: tuple[int, int] = (2, 6)
    light_citations: tuple[int, int] = (0, 40)
    n_self_citers: int = 20
    n_cartels: int = 3
    cartel_size: int = 5
    n_hyperteams: int = 1
    team_size: int = 10
    joint_papers: int = 60

    def __post_init__(self) -> None:
        if min(self.n_background_authors, self.n_self_citers, self.n_cartels, self.n_hyperteams) < 0:
            raise SynthConfigError("author and group counts must be >= 0")
        if not 0.0 <= self.established_fraction <= 1.0:
            raise SynthConfigError("established_fraction must be in [0, 1]")
        if self.n_cartels > 0 and self.cartel_size < 2:
            raise SynthConfigError("cartels need cartel_size >= 2")
        if self.n_hyperteams > 0:
            if self.team_size < 2:
                raise SynthConfigError("hyperteams need team_size >= 2")
            if not 50 < self.joint_papers <= 400:
                raise SynthConfigError("hyperteams need joint_papers in (50, 400]")
        if self.n_established > 0 and self.n_background_authors < 2:
            raise SynthConfigError("established authors need at least 2 background authors")
        if self.citing_batch[0] < 1 or self.citing_batch[0] > self.citing_batch[1]:
            raise SynthConfigError("citing_batch bounds must satisfy 1 <= lo <= hi")
        if self.h_range[0] < 8 or self.h_range[0] > self.h_range[1]:
            raise SynthConfigError("h_range bounds must satisfy 8 <= lo <= hi")
        if self.papers_per_author[1] < self.h_range[1] + 6:
            raise SynthConfigError("papers_per_author upper bound must be at least h_range upper + 6")
        if self.light_citations[0] < 0 or self.light_citations[0] > self.light_citations[1]:
            raise SynthConfigError("light_citations bounds must satisfy 0 <= lo <= hi")

    @property
    def n_established(self) -> int:
        return round(self.n_background_authors * self.established_fraction)


@dataclass(frozen=True)
class GroundTruth:
    """Per-author label and group id; labels partition the author set."""

    labels: Mapping[str, tuple[str, str]]

    def authors_with(self, label: str) -> frozenset[str]:
        return frozenset(a for a, (lab, _) in self.labels.items() if lab == label)

    def label_of(self, author_id: str) -> str:
        return self.labels[author_id][0]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SynthCorpus:
    papers: list[PaperRecord]
    authorships: list[AuthorshipRecord]
    citations: list[CitationEdge]
    taxonomy: FieldTaxonomy
    truth: GroundTruth


@dataclass
class _Builder:
    rng: random.Random
    taxonomy: FieldTaxonomy
    papers: list[PaperRecord] = field(default_factory=list)
    authorships: list[AuthorshipRecord] = field(default_factory=list)
    citations: list[CitationEdge] = field(default_factory=list)
    labels: dict[str, tuple[str, str]] = field(default_factory=dict)
    _counter: int = 0
    _fields: list[str] = field(default_factory=list)
    _subfields_by_field: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for entry in self.taxonomy:
            self._subfields_by_field.setdefault(entry.field_id, []).append(entry.subfield_id)
        self._fields = sorted(self._subfields_by_field)

    def pick_home_field(self) -> str:
        return self.rng.choice(self._fields)

    def paper_subfield(self, home_field: str, classified_only: bool = False) -> str | None:
        r = self.rng.random()
        if not classified_only and r < 0.03:
            return None
        if r < 0.10:
            other = self.rng.choice(self._fields)
            return self.rng.choice(self._subfields_by_field[other])
        return self.rng.choice(self._subfields_by_field[home_field])

    def new_paper(
        self, authors: Iterable[str], doc_type: DocType, subfield_id: str | None
    ) -> str:
        pid = f"p{self._counter:07d}"
        self._counter += 1
        self.papers.append(PaperRecord(pid, doc_type, subfield_id))
        for author_id in authors:
            self.authorships.append(AuthorshipRecord(pid, author_id))
        return pid

    def cite(self, citing: str, cited: str) -> None:
        self.citations.append(CitationEdge(citing, cited))


def _top_allocation(budget: int, n: int, alpha: float) -> list[int]:
    """Split budget across n ranks with weight (rank+1)**-alpha, exactly."""
    weights = [(r + 1) ** -alpha for r in range(n)]
    total = sum(weights)
    shares = [int(budget * w / total) for w in weights]
    for r in range(budget - sum(shares)):
        shares[r] += 1
    return shares


def _schedule_batches(rng: random.Random, targets: list[tuple[str, int]], batch: tuple[int, int]):
    """Yield batches of distinct papers whose multiplicities realize the targets exactly."""
    remaining = [(pid, c) for pid, c in targets if c > 0]
    while remaining:
        round_papers = [pid for pid, _ in remaining]
        i = 0
        while i < len(round_papers):
            k = rng.randint(batch[0], batch[1])
            yield round_papers[i : i + k]
            i += k
        remaining = [(pid, c - 1) for pid, c in remaining if c > 1]


class _CitingPool:
    """Draws citing papers from the background population, never from the cited author."""

    def __init__(self, rng: random.Random, papers_by_author: list[list[str]]):
        self.rng = rng
        self.papers_by_author = papers_by_author

    def draw(self, exclude_author_index: int | None, used: set[str]) -> str | None:
        n = len(self.papers_by_author)
        if n == 0 or (n == 1 and exclude_author_index == 0):
            return None
        for _ in range(1000):
            j = self.rng.randrange(n)
            if j == exclude_author_index:
                continue
            plist = self.papers_by_author[j]
            if not plist:
                continue
            u = plist[self.rng.randrange(len(plist))]
            if u in used:
                continue
            used.add(u)
            return u
        return None


def _place_from_pool(
    builder: _Builder,
    pool: _CitingPool,
    exclude_author_index: int | None,
    targets: list[tuple[str, int]],
    batch: tuple[int, int],
) -> None:
    used: set[str] = set()
    for papers in _schedule_batches(builder.rng, targets, batch):
        u = pool.draw(exclude_author_index, used)
        if u is None:
            return
        for p in papers:
            builder.cite(u, p)


def _build_background(builder: _Builder, cfg: SynthConfig) -> tuple[list[list[str]], list[int]]:
    """Create background authors and their papers.

    Returns the per-author full-paper lists and, for established authors,
    the h value their citations will be built around (0 for light authors).
    """
    rng = builder.rng
    n = cfg.n_background_authors
    n_established = cfg.n_established
    papers_by_author: list[list[str]] = []
    h_by_author: list[int] = []
    for i in range(n):
        author_id = f"b{i:06d}"
        builder.labels[author_id] = (LABEL_BACKGROUND, "")
        home = builder.pick_home_field()
        if i < n_established:
            h = rng.randint(*cfg.h_range)
            n_full = min(h + rng.randint(6, 20), cfg.papers_per_author[1])
            n_other = rng.choice((0, 0, 0, 1, 2))
        else:
            h = 0
            n_full = rng.randint(cfg.papers_per_author[0], min(12, cfg.papers_per_author[1]))
            n_other = 1 if rng.random() < 0.1 else 0
        full = [
            builder.new_paper([author_id], DocType.ARTICLE, builder.paper_subfield(home))
            for _ in range(n_full)
        ]
        for _ in range(n_other):
            builder.new_paper([author_id], DocType.OTHER, builder.paper_subfield(home))
        papers_by_author.append(full)
        h_by_author.append(h)

    # Sprinkle co-authored, uncited papers over some established pairs so the
    # shared-paper machinery sees real pairs without disturbing citation totals.
    for i in range(0, max(n_established - 1, 0), 20):
        a, b = f"b{i:06d}", f"b{i + 1:06d}"
        home = builder.pick_home_field()
        for _ in range(rng.randint(6, 12)):
            builder.new_paper([a, b], DocType.ARTICLE, builder.paper_subfield(home))
    return papers_by_author, h_by_author


def _cite_background(
    builder: _Builder,
    cfg: SynthConfig,
    papers_by_author: list[list[str]],
    h_by_author: list[int],
) -> None:
    rng = builder.rng
    pool = _CitingPool(rng, papers_by_author)
    n_established = cfg.n_established
    for i, full in enumerate(papers_by_author):
        if i < n_established:
            h = h_by_author[i]
            ratio = _BACKGROUND_RATIO_FLOOR + min(rng.lognormvariate(0.35, 0.55), 3.8)
            citations = max(_MIN_ELIGIBLE_CITATIONS, math.ceil(ratio * h * h))
            budget = citations - h * h
            tail_counts = []
            acc = 0
            for _ in range(len(full) - h):
                c = rng.randint(0, 6)
                if acc + c > budget // 3:
                    c = 0
                tail_counts.append(c)
                acc += c
            top_extra = _top_allocation(budget - acc, h, cfg.attachment_exponent)
            targets = [(full[r], h + top_extra[r]) for r in range(h)]
            targets += [(full[h + t], c) for t, c in enumerate(tail_counts) if c > 0]
        else:
            total = rng.randint(*cfg.light_citations)
            if total == 0 or not full:
                continue
            base, rem = divmod(total, len(full))
            targets = [(p, base + (1 if t < rem else 0)) for t, p in enumerate(full)]
        _place_from_pool(builder, pool, i, targets, cfg.citing_batch)


def _build_self_citers(builder: _Builder, cfg: SynthConfig) -> None:
    h = _PLANT_H
    n_papers = h + 4
    for i in range(cfg.n_self_citers):
        author_id = f"s{i:04d}"
        builder.labels[author_id] = (LABEL_SELF_CITER, author_id)
        home = builder.pick_home_field()
        papers = [
            builder.new_paper([author_id], DocType.ARTICLE, builder.paper_subfield(home, True))
            for _ in range(n_papers)
        ]
        # Each of the h top papers is cited by h distinct other papers of the
        # same author: citations land exactly where they raise h, and
        # citations == h*h, the floor of c_over_h2.
        for j in range(h):
            for t in range(1, h + 1):
                builder.cite(papers[(j + t) % n_papers], papers[j])


def _build_cartels(builder: _Builder, cfg: SynthConfig) -> None:
    h = _PLANT_H
    n_papers = h + 1
    for c in range(cfg.n_cartels):
        group = f"cartel{c:02d}"
        members = [f"c{c:02d}m{k:02d}" for k in range(cfg.cartel_size)]
        member_papers: list[list[str]] = []
        for author_id in members:
            builder.labels[author_id] = (LABEL_CARTEL, group)
            home = builder.pick_home_field()
            member_papers.append(
                [
                    builder.new_paper([author_id], DocType.ARTICLE, builder.paper_subfield(home, True))
                    for _ in range(n_papers)
                ]
            )
        # Every member's h top papers are each cited by h citing papers drawn
        # round-robin from the other members, and each citing paper cites all
        # h top papers, so a few partners cover all citations.
        per_partner = math.ceil(h / (cfg.cartel_size - 1))
        for k in range(cfg.cartel_size):
            citing: list[str] = []
            for j in range(cfg.cartel_size):
                if j != k:
                    citing.extend(member_papers[j][:per_partner])
            citing = citing[:h]
            for u in citing:
                for p in member_papers[k][:h]:
                    builder.cite(u, p)


def _build_hyperteams(
    builder: _Builder, cfg: SynthConfig, pool_papers: list[list[str]]
) -> None:
    rng = builder.rng
    pool = _CitingPool(rng, pool_papers)
    for t in range(cfg.n_hyperteams):
        group = f"team{t:02d}"
        members = [f"t{t:02d}m{k:02d}" for k in range(cfg.team_size)]
        for author_id in members:
            builder.labels[author_id] = (LABEL_HYPERTEAM, group)
        home = builder.pick_home_field()
        papers = [
            builder.new_paper(members, DocType.ARTICLE, builder.paper_subfield(home, True))
            for _ in range(cfg.joint_papers)
        ]
        n = cfg.joint_papers
        h = _TEAM_H
        budget = _TEAM_CITATIONS - h * h - 4 * (n - h)
        base, rem = divmod(budget, h)
        counts = [h + base + (1 if r < rem else 0) for r in range(h)] + [4] * (n - h)
        for j, c in enumerate(counts):
            n_intra = min(n - 1, c)
            for s in range(n_intra):
                builder.cite(papers[(j + 1 + s) % n], papers[j])
            n_extern = c - n_intra
            if n_extern > 0:
                used: set[str] = set()
                for _ in range(n_extern):
                    u = pool.draw(None, used)
                    if u is None:
                        break
                    builder.cite(u, papers[j])


def generate(cfg: SynthConfig) -> SynthCorpus:
    """Build the full synthetic corpus for a config; same config, same corpus."""
    taxonomy = default_taxonomy()
    builder = _Builder(rng=random.Random(cfg.seed), taxonomy=taxonomy)
    background_papers, background_h = _build_background(builder, cfg)
    _build_self_citers(builder, cfg)
    _build_cartels(builder, cfg)
    _build_hyperteams(builder, cfg, background_papers)
    _cite_background(builder, cfg, background_papers, background_h)
    return SynthCorpus(
        papers=builder.papers,
        authorships=builder.authorships,
        citations=builder.citations,
        taxonomy=taxonomy,
        truth=GroundTruth(labels=builder.labels),
    )


def write_truth(path: str | Path, truth: GroundTruth) -> int:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRUTH_HEADER)
        n = 0
        for author_id in sorted(truth.labels):
            label, group = truth.labels[author_id]
            writer.writerow([author_id, label, group])
            n += 1
    return n


def read_truth(path: str | Path) -> GroundTruth:
    labels: dict[str, tuple[str, str]] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRUTH_HEADER:
            raise SynthConfigError(f"{path}: expected header {','.join(TRUTH_HEADER)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(TRUTH_HEADER):
                raise SynthConfigError(
                    f"{path}: line {reader.line_num}: expected {len(TRUTH_HEADER)} fields, got {len(row)}"
                )
            if row[0] in first_line:
                raise SynthConfigError(
                    f"{path}: line {reader.line_num}: duplicate author_id {row[0]!r} "
                    f"(first on line {first_line[row[0]]})"
                )
            first_line[row[0]] = reader.line_num
            labels[row[0]] = (row[1], row[2])
    return GroundTruth(labels=labels)


def write_corpus(corpus: SynthCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write papers/authorships/citations/taxonomy/truth CSVs; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "papers": out / "papers.csv",
        "authorships": out / "authorships.csv",
        "citations": out / "citations.csv",
        "taxonomy": out / "taxonomy.csv",
        "truth": out / "truth.csv",
    }
    write_papers(str(paths["papers"]), corpus.papers)
    write_authorships(str(paths["authorships"]), corpus.authorships)
    write_citations(str(paths["citations"]), corpus.citations)
    write_taxonomy(str(paths["taxonomy"]), corpus.taxonomy)
    write_truth(paths["truth"], corpus.truth)
    return paths


@dataclass(frozen=True)
class DetectionResult:
    motif: str
    tail_metric: str
    n_planted: int
    n_detected: int
    recall: float | None
    tail_size: int
    precision: float | None


def evaluate_detection(
    truth: GroundTruth, reports: Mapping[str, "TailReport | frozenset[str] | set[str]"]
) -> tuple[DetectionResult, ...]:
    """Recall and precision of each planted behavior in its designated tail.

    recall is the fraction of planted authors found inside the tail, None
    when nothing was planted. precision is the fraction of tail members that
    carry the motif label, None for an empty tail.
    """
    results = []
    for motif, metric in MOTIF_TAILS.items():
        report = reports.get(metric)
        if report is None:
            continue
        members = report.members if isinstance(report, TailReport) else frozenset(report)
        planted = truth.authors_with(motif)
        detected = len(planted & members)
        results.append(
            DetectionResult(
                motif=motif,
                tail_metric=metric,
                n_planted=len(planted),
                n_detected=detected,
                recall=(detected / len(planted)) if planted else None,
                tail_size=len(members),
                precision=(detected / len(members)) if members else None,
            )
        )
    return tuple(results)
