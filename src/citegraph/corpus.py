"""Domain records and the immutable integer-id corpus index.

Everything downstream (cohort selection, indicators, tail statistics) reads
from a single CorpusIndex built once from flat row streams. The index is
read-only after construction, and that is enforced: CorpusIndex and CsrRows
are frozen dataclasses, so assigning to an attribute raises
`dataclasses.FrozenInstanceError`. It is safe to share across threads. Their
repr is the plain object repr: a generated one would print every array.

Inside the index every paper and every author is a dense int id: its
position in the sorted list of the string ids. Int order is therefore
string order, so anything ordered or tie-broken by id comes out exactly as
it would over the strings. Adjacency is stored in CSR form, an offsets
array and a targets array per relation, so a row is one slice of one
`array` and the index holds no Python object per edge. Both are built from
per-row 4-byte `array('i')` buffers, one per author id and one per cited
paper, by one routine, `_csr`, which sorts and deduplicates each row; the
teams are read off the finished author rows. There is no
string-keyed read path: callers map a string id to its int with
`author_index` and back through `paper_ids` and `author_ids`.
"""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import accumulate, pairwise
from typing import Iterable, Iterator

from .errors import CitegraphError

logger = logging.getLogger(__name__)


class CorpusError(CitegraphError):
    """Inconsistent input records that cannot form a valid index."""


class DocType(IntEnum):
    """A paper's document type. Its value is the paper's byte in
    `CorpusIndex.doc_types`; its lower-cased name is its papers.csv code."""

    ARTICLE = 0
    CONFERENCE_PAPER = 1
    REVIEW = 2
    OTHER = 3

    @classmethod
    def from_string(cls, raw: str) -> "DocType":
        """Map an input code to a document type; unknown codes become OTHER."""
        return _DOC_TYPE_CODES.get(raw.strip().lower(), cls.OTHER)


_DOC_TYPE_CODES = {member.name.lower(): member for member in DocType}

#: Document types that count as full papers everywhere in the pipeline. As
#: DocType is an int, a CorpusIndex doc-type byte is tested against it directly.
FULL_PAPER_TYPES = frozenset({DocType.ARTICLE, DocType.CONFERENCE_PAPER, DocType.REVIEW})


#: Row shapes that build_index consumes and that the ingest parsers and a
#: synth corpus's row iterators yield.
PaperRow = tuple[str, DocType, str | None]
AuthorshipRow = tuple[str, str]
CitationRow = tuple[str, str]


@dataclass(frozen=True, slots=True)
class SubfieldInfo:
    subfield_id: str
    subfield_name: str
    field_id: str
    field_name: str


class FieldTaxonomy:
    """Subfield classification: each subfield belongs to exactly one field."""

    def __init__(self, entries: Iterable[SubfieldInfo]):
        by_subfield: dict[str, SubfieldInfo] = {}
        field_names: dict[str, str] = {}
        for entry in entries:
            existing = by_subfield.get(entry.subfield_id)
            if existing is not None:
                if existing != entry:
                    raise CorpusError(
                        f"conflicting taxonomy rows for subfield_id {entry.subfield_id!r}"
                    )
                continue
            known_name = field_names.get(entry.field_id)
            if known_name is not None and known_name != entry.field_name:
                raise CorpusError(
                    f"field_id {entry.field_id!r} has conflicting names "
                    f"{known_name!r} and {entry.field_name!r}"
                )
            field_names[entry.field_id] = entry.field_name
            by_subfield[entry.subfield_id] = entry
        self._by_subfield = by_subfield
        self._field_names = field_names

    def lookup(self, subfield_id: str) -> SubfieldInfo | None:
        return self._by_subfield.get(subfield_id)

    def field_name(self, field_id: str) -> str | None:
        return self._field_names.get(field_id)

    def __len__(self) -> int:
        return len(self._by_subfield)

    def __iter__(self) -> Iterator[SubfieldInfo]:
        return iter(sorted(self._by_subfield.values(), key=lambda e: e.subfield_id))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CorpusIndex:
    """Integer-id CSR index over a de-duplicated publication corpus.

    Paper int ids are positions in `paper_ids` and author int ids positions
    in `author_ids`; both lists are sorted and hold the id strings as read.
    Per paper p:

        doc_types[p]      its DocType's value
        subfields[p]      its taxonomy SubfieldInfo, or None when unclassified
                          or when its subfield_id is not in the taxonomy
        team_of[p]        id of its distinct sorted author tuple, or -1 for
                          a paper without authors
        citers of p       citer_targets[citer_offsets[p]:citer_offsets[p + 1]]

    Per author a, their papers are
    paper_targets[paper_offsets[a]:paper_offsets[a + 1]], and `teams[t]` is
    the tuple of author ids of team t, stored once however many papers
    share it. Every CSR row and every team is strictly increasing, so
    identical inputs in any row order build identical arrays. Offsets are
    64-bit, targets 32-bit.

    A paper with an unknown subfield_id counts toward its authors' papers
    and citations but not toward their field vote; `unknown_subfield_ids`
    counts the distinct such ids and `papers_with_unknown_subfield` the
    papers that carry one.

    `papers_of[a]` and `citers_of[p]` serve those two rows by int id, one
    slice each, for the a50pc oracle and the benchmark; the hot paths slice
    the arrays themselves.

    Every slot follows from the input rows and the taxonomy alone, with no
    clock reading among them, so the same input builds equal slots.
    """

    paper_ids: list[str]
    author_ids: list[str]
    doc_types: bytes
    subfields: list[SubfieldInfo | None]
    team_of: array
    teams: list[tuple[int, ...]]
    citer_offsets: array
    citer_targets: array
    paper_offsets: array
    paper_targets: array
    taxonomy: FieldTaxonomy
    n_edges: int
    dropped_unknown_edges: int
    dropped_self_loops: int
    dropped_unknown_authorships: int
    papers_with_unknown_subfield: int
    unknown_subfield_ids: int

    def author_index(self, author_id: str) -> int | None:
        """Int id of `author_id`, or None for an author with no indexed paper."""
        ids = self.author_ids
        i = bisect_left(ids, author_id)
        return i if i < len(ids) and ids[i] == author_id else None

    def full_papers(self, author: int) -> list[int]:
        """Int ids of author `author`'s articles, conference papers and reviews, increasing."""
        offsets = self.paper_offsets
        doc_types = self.doc_types
        return [
            p
            for p in self.paper_targets[offsets[author]:offsets[author + 1]]
            if doc_types[p] in FULL_PAPER_TYPES
        ]

    @property
    def papers_of(self) -> CsrRows:
        """Int-indexed rows of author -> increasing paper ids."""
        return CsrRows(self.paper_offsets, self.paper_targets)

    @property
    def citers_of(self) -> CsrRows:
        """Int-indexed rows of paper -> increasing citing paper ids."""
        return CsrRows(self.citer_offsets, self.citer_targets)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CsrRows(Sequence):
    """Read-only rows of one CSR relation: row i is targets[offsets[i]:offsets[i + 1]]."""

    offsets: array
    targets: array

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> array:
        if not 0 <= i < len(self):
            raise IndexError(i)
        offsets = self.offsets
        return self.targets[offsets[i]:offsets[i + 1]]


def build_index(
    papers: Iterable[PaperRow],
    authorships: Iterable[AuthorshipRow],
    citations: Iterable[CitationRow],
    taxonomy: FieldTaxonomy,
) -> CorpusIndex:
    """Build the integer-id index from row streams.

    Rows are plain tuples, the shapes the ingest parsers yield:

        papers       (paper_id, DocType, subfield_id or None)
        authorships  (paper_id, author_id)
        citations    (citing_paper_id, cited_paper_id)

    The streams are drained in that order. Once the papers are read, their
    ids are sorted and numbered, so each later row maps its paper ids to
    final int ids with one dict lookup. Each author id, and each cited
    paper only, collects its row in an `array('i')` buffer, four bytes per
    target, repeats included. Once a relation's rows are in, the author
    ids are sorted and numbered, and each buffer is sorted, deduplicated
    and copied into the relation's arrays; the author rows and the teams
    read off them are done before the first citation is read. Ids are
    stored as the rows hold them, one string per kept id. Each distinct
    subfield id is looked up in `taxonomy` once, and its papers share the
    SubfieldInfo found, or None. Nothing here is timed: a run reads the
    build's own time as what its ingest and index took outside every
    file's parse.

    Duplicate rows collapse. A paper_id appearing twice with a different
    doc_type or subfield_id is a hard error. Citation edges or authorships
    that reference unknown paper_ids are dropped and counted, so partial
    corpora stay analyzable.
    """
    # paper_id -> (DocType, subfield_id) while reading, then -> int id. Papers
    # of one doc type and subfield share one tuple.
    paper_map: dict[str, object] = {}
    kinds: dict[tuple[DocType, str | None], tuple[DocType, str | None]] = {}
    shared = kinds.setdefault
    for pid, doc_type, subfield_id in papers:
        kind = (doc_type, subfield_id)
        existing = paper_map.get(pid)
        if existing is None:
            paper_map[pid] = shared(kind, kind)
        elif existing != kind:
            raise CorpusError(f"conflicting duplicate paper record for paper_id {pid!r}")

    paper_ids = sorted(paper_map)
    records = [paper_map[pid] for pid in paper_ids]
    doc_types = bytes(doc_type for doc_type, _ in records)
    resolved = {s: None if s is None else taxonomy.lookup(s) for _, s in kinds}
    unknown = {s for s, info in resolved.items() if s is not None and info is None}
    subfields = [resolved[s] for _, s in records]
    papers_with_unknown_subfield = sum(s in unknown for _, s in records) if unknown else 0
    del records
    n_papers = len(paper_ids)
    paper_map.update(zip(paper_ids, range(n_papers)))
    paper_of = paper_map.get

    author_rows: defaultdict[str, array] = defaultdict(partial(array, "i"))
    dropped_unknown_authorships = 0
    for pid, aid in authorships:
        p = paper_of(pid)
        if p is None:
            dropped_unknown_authorships += 1
            continue
        author_rows[aid].append(p)

    author_ids = sorted(author_rows)
    paper_offsets, paper_targets = _csr(
        ((a, author_rows.pop(aid)) for a, aid in enumerate(author_ids)), len(author_ids)
    )
    team_of, teams = _teams(paper_offsets, paper_targets, n_papers)

    citer_rows: defaultdict[int, array] = defaultdict(partial(array, "i"))
    dropped_unknown_edges = 0
    dropped_self_loops = 0
    for citing, cited in citations:
        if citing == cited:
            dropped_self_loops += 1
            continue
        u = paper_of(citing)
        v = paper_of(cited)
        if u is None or v is None:
            dropped_unknown_edges += 1
            continue
        citer_rows[v].append(u)
    del paper_map, paper_of

    citer_offsets, citer_targets = _csr(
        ((v, citer_rows.pop(v)) for v in sorted(citer_rows)), n_papers
    )

    if dropped_unknown_edges:
        logger.warning("dropped %d citation edges referencing unknown papers", dropped_unknown_edges)
    if dropped_self_loops:
        logger.warning("dropped %d self-loop citation edges", dropped_self_loops)
    if dropped_unknown_authorships:
        logger.warning("dropped %d authorships referencing unknown papers", dropped_unknown_authorships)

    return CorpusIndex(
        paper_ids=paper_ids,
        author_ids=author_ids,
        doc_types=doc_types,
        subfields=subfields,
        team_of=team_of,
        teams=teams,
        citer_offsets=citer_offsets,
        citer_targets=citer_targets,
        paper_offsets=paper_offsets,
        paper_targets=paper_targets,
        taxonomy=taxonomy,
        n_edges=len(citer_targets),
        dropped_unknown_edges=dropped_unknown_edges,
        dropped_self_loops=dropped_self_loops,
        dropped_unknown_authorships=dropped_unknown_authorships,
        papers_with_unknown_subfield=papers_with_unknown_subfield,
        unknown_subfield_ids=len(unknown),
    )


def _csr(rows: Iterable[tuple[int, Iterable[int]]], n_rows: int) -> tuple[array, array]:
    """CSR offsets and targets of rows 0 .. n_rows - 1 from (row id, buffer) pairs.

    The pairs come in increasing row id; a row id not given is an empty
    row. Each buffer may hold its targets in any order and more than once:
    it is sorted and deduplicated here, just before its row is copied, and
    dropped right after, so a lazy `rows` frees every buffer before the next
    one is copied. Rebuilding them all in a pass of their own adds ~4 MB to
    the peak.
    """
    counts = [0] * (n_rows + 1)
    targets = array("i")
    for r, row in rows:
        row = sorted(set(row))
        counts[r + 1] = len(row)
        targets.extend(row)
    return array("q", accumulate(counts)), targets


_LOW_32 = (1 << 32) - 1


def _teams(
    paper_offsets: array, paper_targets: array, n_papers: int
) -> tuple[array, list[tuple[int, ...]]]:
    """team_of and teams read off the finished author rows.

    Sorting one `paper << 32 | author` int per authorship groups each
    paper's authors, in increasing id, and the papers in increasing id, so
    teams are numbered in the order of their first paper.
    """
    rows = enumerate(pairwise(paper_offsets))
    pairs = sorted([p << 32 | a for a, (lo, hi) in rows for p in paper_targets[lo:hi]])
    team_of = array("i", [-1]) * n_papers
    team_ids: dict[tuple[int, ...], int] = {}
    number = team_ids.setdefault
    team: list[int] = []
    paper = -1
    for pair in pairs:
        p = pair >> 32
        a = pair & _LOW_32
        if p == paper:
            team.append(a)
            continue
        if team:
            team_of[paper] = number(tuple(team), len(team_ids))
        team = [a]
        paper = p
    if team:
        team_of[paper] = number(tuple(team), len(team_ids))
    return team_of, list(team_ids)
