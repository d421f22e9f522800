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

The corpus is held as columns, with no Python object per paper or per edge.
A paper is its number, the order in which it was created; its id is
`"p%07d" % number` and is never stored. Its DocType and subfield
are one byte, a position in `SynthCorpus.kinds`. Authorships are an
`array('i')` of paper numbers beside a list that references the author-id
strings, and citations are two `array('i')` of citing and cited paper
numbers, so an edge costs 8 bytes. The per-author paper lists that drive
the citation placement are one pair of `array('i')`, offsets and paper
numbers, not one list per author.

Background citations are placed a batch at a time (`_place_from_pool`):
each round over the cited papers whose counts are not yet met is cut into
batches of `randint(2, 6)` papers, one citing paper drawn from the pool
cites a whole batch, and the batch is appended to both citation arrays at
once. The planted behaviors append their edges the same way. Every index is
drawn by the rule of CPython's `randrange`, written out inline
(`_CitingPool`), so the corpus is the one `randint` and `randrange` calls
would give, without their Python frames.

`write_corpus` formats each record row straight from the columns, one
`%` formatting per row, without the csv module: every field it writes
(the `p`/`b`/`s`/`c..m`/`t..m` ids, DocType codes and the default
subfield ids) holds no comma, quote or line break, so the bytes equal what
`csv.writer` would write. `SynthCorpus.paper_rows`, `authorship_rows` and
`citation_rows` yield the tuples that the ingest parsers yield, formatting
ids as they go, for `corpus.build_index` and for checks against the files.
taxonomy.csv and truth.csv go through `ingest.write_rows`, and `read_truth`
reads truth.csv back through `ingest.read_rows`. The background's shape
(h and paper-count ranges, attachment exponent, citing batch) is fixed in
module constants; `SynthConfig` holds only what callers vary.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .corpus import (
    AuthorshipRow,
    CitationRow,
    DocType,
    FieldTaxonomy,
    PaperRow,
    SubfieldInfo,
)
from .errors import CitegraphError
from .ingest import AUTHORSHIPS_HEADER, CITATIONS_HEADER, PAPERS_HEADER
from .ingest import read_rows, write_rows, write_taxonomy

LABEL_BACKGROUND = "background"
LABEL_SELF_CITER = "self_citer"
LABEL_CARTEL = "cartel_member"
LABEL_HYPERTEAM = "hyperteam_member"
LABELS = (LABEL_BACKGROUND, LABEL_SELF_CITER, LABEL_CARTEL, LABEL_HYPERTEAM)

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
_LIGHT_PAPERS = (4, 12)  # full papers of a light background author
_H_RANGE = (15, 24)  # h of an established author, who has h + 6 to h + 20 full papers
_ATTACHMENT_EXPONENT = 1.3  # top paper r's share of the extra citations is ~ (r + 1) ** -1.3
_CITING_BATCH = (2, 6)  # papers cited by each citing paper drawn from the pool

_paper_id = "p%07d".__mod__  # the id of paper number n


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

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SynthCorpus:
    """A generated corpus in columns; paper numbers index the paper columns.

    Paper n has id `"p%07d" % n` and kind `kinds[paper_kinds[n]]`,
    a `(DocType, subfield_id or None)` pair; kinds holds every pair the
    taxonomy allows. Authorship k is (paper authorship_papers[k], author
    authorship_authors[k]) and citation k is (paper citing[k] cites paper
    cited[k]), both in creation order.
    """

    taxonomy: FieldTaxonomy
    truth: GroundTruth = field(default_factory=lambda: GroundTruth(labels={}))
    kinds: tuple[tuple[DocType, str | None], ...] = field(init=False)
    paper_kinds: bytearray = field(default_factory=bytearray)
    authorship_papers: array = field(default_factory=lambda: array("i"))
    authorship_authors: list[str] = field(default_factory=list)
    citing: array = field(default_factory=lambda: array("i"))
    cited: array = field(default_factory=lambda: array("i"))

    def __post_init__(self) -> None:
        subfield_ids = [None, *(entry.subfield_id for entry in self.taxonomy)]
        self.kinds = tuple((d, s) for d in DocType for s in subfield_ids)
        if len(self.kinds) > 256:
            raise SynthConfigError(
                f"{len(self.kinds)} (doc_type, subfield) kinds do not fit in one byte per paper"
            )

    @property
    def n_papers(self) -> int:
        return len(self.paper_kinds)

    def paper_rows(self) -> Iterator[PaperRow]:
        """`(paper_id, DocType, subfield_id or None)` per paper, in creation order."""
        kinds = self.kinds
        return ((_paper_id(n), *kinds[k]) for n, k in enumerate(self.paper_kinds))

    def authorship_rows(self) -> Iterator[AuthorshipRow]:
        """`(paper_id, author_id)` per authorship, in creation order."""
        return zip(map(_paper_id, self.authorship_papers), self.authorship_authors)

    def citation_rows(self) -> Iterator[CitationRow]:
        """`(citing_paper_id, cited_paper_id)` per citation edge, in creation order."""
        return zip(map(_paper_id, self.citing), map(_paper_id, self.cited))


@dataclass
class _Builder:
    rng: random.Random
    corpus: SynthCorpus
    labels: dict[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Derive the field and kind lookups from the corpus's taxonomy."""
        self._subfields_by_field: dict[str, list[str]] = {}
        for entry in self.corpus.taxonomy:
            self._subfields_by_field.setdefault(entry.field_id, []).append(entry.subfield_id)
        self._fields = sorted(self._subfields_by_field)
        self._kind_code = {kind: code for code, kind in enumerate(self.corpus.kinds)}

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
    ) -> int:
        """Add a paper and its authorships; returns the paper number."""
        corpus = self.corpus
        paper = len(corpus.paper_kinds)
        corpus.paper_kinds.append(self._kind_code[doc_type, subfield_id])
        for author_id in authors:
            corpus.authorship_papers.append(paper)
            corpus.authorship_authors.append(author_id)
        return paper

    def plant(self, members: list[str], label: str, group: str, n_papers: int) -> list[int]:
        """Label `members` with a planted behavior, pick one home field and add
        n_papers classified articles they all author; returns the paper numbers."""
        for author_id in members:
            self.labels[author_id] = (label, group)
        home = self.pick_home_field()
        return [
            self.new_paper(members, DocType.ARTICLE, self.paper_subfield(home, True))
            for _ in range(n_papers)
        ]


def _top_allocation(budget: int, n: int, alpha: float) -> list[int]:
    """Split budget across n ranks with weight (rank+1)**-alpha, exactly."""
    weights = [(r + 1) ** -alpha for r in range(n)]
    total = sum(weights)
    shares = [int(budget * w / total) for w in weights]
    for r in range(budget - sum(shares)):
        shares[r] += 1
    return shares


class _CitingPool:
    """Draws citing papers from the background population, never from the cited author.

    Author j's papers are `papers[starts[j]:starts[j + 1]]`. A draw picks an
    author index and then a position in that author's papers. Each index
    below n is drawn as `random.Random.randrange(n)` draws it in CPython 3.10
    to 3.13: `getrandbits(n.bit_length())`, drawn again while it is >= n.
    `randint(lo, hi)` is lo plus such a draw below hi - lo + 1. The rule is
    written out inline here and in `_place_from_pool`, so the same seed
    consumes the generator exactly as those calls would, without their
    Python frames.
    """

    def __init__(self, rng: random.Random, starts: array, papers: array):
        self.rng = rng
        self.starts = starts
        self.papers = papers
        self.n_authors = len(starts) - 1
        self.author_bits = self.n_authors.bit_length()

    def draw(self, exclude_author_index: int | None, used: set[int]) -> int | None:
        n = self.n_authors
        if n == 0 or (n == 1 and exclude_author_index == 0):
            return None
        getrandbits = self.rng.getrandbits
        author_bits = self.author_bits
        starts = self.starts
        for _ in range(1000):
            j = getrandbits(author_bits)
            while j >= n:
                j = getrandbits(author_bits)
            if j == exclude_author_index:
                continue
            start = starts[j]
            n_papers = starts[j + 1] - start
            if not n_papers:
                continue
            paper_bits = n_papers.bit_length()
            r = getrandbits(paper_bits)
            while r >= n_papers:
                r = getrandbits(paper_bits)
            u = self.papers[start + r]
            if u in used:
                continue
            used.add(u)
            return u
        return None


def _place_from_pool(
    builder: _Builder,
    pool: _CitingPool,
    exclude_author_index: int | None,
    targets: list[tuple[int, int]],
) -> None:
    """Cite each target paper as many times as its count, from distinct pool papers.

    Each round cites every paper whose count is not yet met once, in target
    order, in batches of `randint(*_CITING_BATCH)` papers; one pool paper
    cites a whole batch, and no pool paper is drawn twice for one call.
    Round r cites the papers whose count is above r, so one list of them
    serves every round up to the next distinct count.
    Each batch size is drawn before its citing paper. Placement stops when
    the pool gives up.
    """
    lo, hi = _CITING_BATCH
    span = hi - lo + 1
    span_bits = span.bit_length()
    getrandbits = builder.rng.getrandbits
    draw = pool.draw
    citing = builder.corpus.citing
    cited = builder.corpus.cited
    used: set[int] = set()
    done = 0
    for level in sorted({c for _, c in targets if c > 0}):
        round_papers = [p for p, c in targets if c >= level]
        n = len(round_papers)
        for _ in range(level - done):
            i = 0
            while i < n:
                k = getrandbits(span_bits)
                while k >= span:
                    k = getrandbits(span_bits)
                batch = round_papers[i : i + lo + k]
                i += lo + k
                u = draw(exclude_author_index, used)
                if u is None:
                    return
                citing.extend(repeat(u, len(batch)))
                cited.extend(batch)
        done = level


def _build_background(builder: _Builder, cfg: SynthConfig) -> tuple[array, array, list[int]]:
    """Create background authors and their papers.

    Returns the per-author full-paper numbers as one offsets/papers pair
    (author i's are `papers[starts[i]:starts[i + 1]]`) and, for established
    authors, the h value their citations will be built around (0 for light
    authors).
    """
    rng = builder.rng
    n = cfg.n_background_authors
    n_established = cfg.n_established
    starts = array("i", [0])
    papers = array("i")
    h_by_author: list[int] = []
    for i in range(n):
        author_id = f"b{i:06d}"
        builder.labels[author_id] = (LABEL_BACKGROUND, "")
        home = builder.pick_home_field()
        if i < n_established:
            h = rng.randint(*_H_RANGE)
            n_full = h + rng.randint(6, 20)
            n_other = rng.choice((0, 0, 0, 1, 2))
        else:
            h = 0
            n_full = rng.randint(*_LIGHT_PAPERS)
            n_other = 1 if rng.random() < 0.1 else 0
        for _ in range(n_full):
            subfield_id = builder.paper_subfield(home)
            papers.append(builder.new_paper([author_id], DocType.ARTICLE, subfield_id))
        starts.append(len(papers))
        for _ in range(n_other):
            builder.new_paper([author_id], DocType.OTHER, builder.paper_subfield(home))
        h_by_author.append(h)

    # Sprinkle co-authored, uncited papers over some established pairs so the
    # shared-paper machinery sees real pairs without disturbing citation totals.
    for i in range(0, max(n_established - 1, 0), 20):
        a, b = f"b{i:06d}", f"b{i + 1:06d}"
        home = builder.pick_home_field()
        for _ in range(rng.randint(6, 12)):
            builder.new_paper([a, b], DocType.ARTICLE, builder.paper_subfield(home))
    return starts, papers, h_by_author


def _cite_background(
    builder: _Builder, cfg: SynthConfig, pool: _CitingPool, h_by_author: list[int]
) -> None:
    rng = builder.rng
    starts, papers = pool.starts, pool.papers
    n_established = cfg.n_established
    for i, h in enumerate(h_by_author):
        full = papers[starts[i] : starts[i + 1]]
        if i < n_established:
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
            top_extra = _top_allocation(budget - acc, h, _ATTACHMENT_EXPONENT)
            targets = [(full[r], h + top_extra[r]) for r in range(h)]
            targets += [(full[h + t], c) for t, c in enumerate(tail_counts) if c > 0]
        else:
            total = rng.randint(*cfg.light_citations)
            if total == 0 or not full:
                continue
            base, rem = divmod(total, len(full))
            targets = [(p, base + (1 if t < rem else 0)) for t, p in enumerate(full)]
        _place_from_pool(builder, pool, i, targets)


def _build_self_citers(builder: _Builder, cfg: SynthConfig) -> None:
    corpus = builder.corpus
    h = _PLANT_H
    n_papers = h + 4
    for i in range(cfg.n_self_citers):
        author_id = f"s{i:04d}"
        papers = builder.plant([author_id], LABEL_SELF_CITER, author_id, n_papers)
        # Each of the h top papers is cited by h distinct other papers of the
        # same author: citations land exactly where they raise h, and
        # citations == h*h, the floor of c_over_h2.
        for j in range(h):
            corpus.citing.extend(papers[(j + t) % n_papers] for t in range(1, h + 1))
            corpus.cited.extend(repeat(papers[j], h))


def _build_cartels(builder: _Builder, cfg: SynthConfig) -> None:
    corpus = builder.corpus
    h = _PLANT_H
    n_papers = h + 1
    for c in range(cfg.n_cartels):
        group = f"cartel{c:02d}"
        member_papers = [
            builder.plant([f"c{c:02d}m{k:02d}"], LABEL_CARTEL, group, n_papers)
            for k in range(cfg.cartel_size)
        ]
        # Every member's h top papers are each cited by h citing papers drawn
        # round-robin from the other members, and each citing paper cites all
        # h top papers, so a few partners cover all citations.
        per_partner = math.ceil(h / (cfg.cartel_size - 1))
        for k in range(cfg.cartel_size):
            citing_papers: list[int] = []
            for j in range(cfg.cartel_size):
                if j != k:
                    citing_papers.extend(member_papers[j][:per_partner])
            top = member_papers[k][:h]
            for u in citing_papers[:h]:
                corpus.citing.extend(repeat(u, h))
                corpus.cited.extend(top)


def _build_hyperteams(builder: _Builder, cfg: SynthConfig, pool: _CitingPool) -> None:
    corpus = builder.corpus
    for t in range(cfg.n_hyperteams):
        group = f"team{t:02d}"
        members = [f"t{t:02d}m{k:02d}" for k in range(cfg.team_size)]
        papers = builder.plant(members, LABEL_HYPERTEAM, group, cfg.joint_papers)
        n = cfg.joint_papers
        h = _TEAM_H
        budget = _TEAM_CITATIONS - h * h - 4 * (n - h)
        base, rem = divmod(budget, h)
        counts = [h + base + (1 if r < rem else 0) for r in range(h)] + [4] * (n - h)
        for j, c in enumerate(counts):
            n_intra = min(n - 1, c)
            citers = [papers[(j + 1 + s) % n] for s in range(n_intra)]
            used: set[int] = set()
            for _ in range(c - n_intra):
                u = pool.draw(None, used)
                if u is None:
                    break
                citers.append(u)
            corpus.citing.extend(citers)
            corpus.cited.extend(repeat(papers[j], len(citers)))


def generate(cfg: SynthConfig) -> SynthCorpus:
    """Build the full synthetic corpus for a config; same config, same corpus."""
    builder = _Builder(rng=random.Random(cfg.seed), corpus=SynthCorpus(default_taxonomy()))
    starts, papers, background_h = _build_background(builder, cfg)
    pool = _CitingPool(builder.rng, starts, papers)
    _build_self_citers(builder, cfg)
    _build_cartels(builder, cfg)
    _build_hyperteams(builder, cfg, pool)
    _cite_background(builder, cfg, pool, background_h)
    builder.corpus.truth = GroundTruth(labels=builder.labels)
    return builder.corpus


def write_truth(path: str | Path, truth: GroundTruth) -> None:
    write_rows(path, TRUTH_HEADER, ((a, *truth.labels[a]) for a in sorted(truth.labels)))


def read_truth(path: str | Path) -> GroundTruth:
    """Read truth.csv through ingest's checked reader; ids unique, labels in `LABELS`."""
    labels: dict[str, tuple[str, str]] = {}
    first_line: dict[str, int] = {}
    with open(path, "rb") as fh:
        for line, (author_id, label, group_id) in read_rows(fh, TRUTH_HEADER):
            if author_id in first_line:
                raise SynthConfigError(
                    f"{path}: line {line}: duplicate author_id {author_id!r} "
                    f"(first on line {first_line[author_id]})"
                )
            if label not in LABELS:
                raise SynthConfigError(f"{path}: line {line}: unknown label {label!r}")
            first_line[author_id] = line
            labels[author_id] = (label, group_id)
    return GroundTruth(labels=labels)


def _write_lines(path: Path, header: list[str], lines: Iterable[str]) -> None:
    """Write a header row and then lines that are already CSV rows with no quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


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
    kind_fields = [f"{doc_type.name.lower()},{subfield or ''}" for doc_type, subfield in corpus.kinds]
    kind_field = kind_fields.__getitem__
    _write_lines(
        paths["papers"],
        PAPERS_HEADER,
        map("p%07d,%s\n".__mod__, zip(range(corpus.n_papers), map(kind_field, corpus.paper_kinds))),
    )
    _write_lines(
        paths["authorships"],
        AUTHORSHIPS_HEADER,
        map("p%07d,%s\n".__mod__, zip(corpus.authorship_papers, corpus.authorship_authors)),
    )
    _write_lines(
        paths["citations"],
        CITATIONS_HEADER,
        map("p%07d,p%07d\n".__mod__, zip(corpus.citing, corpus.cited)),
    )
    write_taxonomy(str(paths["taxonomy"]), corpus.taxonomy)
    write_truth(paths["truth"], corpus.truth)
    return paths


@dataclass(frozen=True)
class DetectionResult:
    motif: str
    tail_metric: str
    n_planted: int
    n_detected: int
    recall: Fraction | None
    tail_size: int
    precision: Fraction | None


def evaluate_detection(
    truth: GroundTruth, tails: Mapping[str, frozenset[str] | set[str]]
) -> tuple[DetectionResult, ...]:
    """Recall and precision of each planted behavior in its designated tail.

    `tails` maps each metric of MOTIF_TAILS to its tail's members.
    recall is the exact fraction of planted authors found inside the tail,
    None when nothing was planted. precision is the exact fraction of tail
    members that carry the motif label, None for an empty tail.
    """
    results = []
    for motif, metric in MOTIF_TAILS.items():
        members = tails[metric]
        planted = truth.authors_with(motif)
        detected = len(planted & members)
        results.append(
            DetectionResult(
                motif=motif,
                tail_metric=metric,
                n_planted=len(planted),
                n_detected=detected,
                recall=Fraction(detected, len(planted)) if planted else None,
                tail_size=len(members),
                precision=Fraction(detected, len(members)) if members else None,
            )
        )
    return tuple(results)
