"""Domain records and the immutable integer-id corpus index.

Everything downstream (cohort selection, indicators, tail statistics) reads
from a single CorpusIndex built once from flat row streams. The index is
read-only after construction and safe to share across threads.

Inside the index every paper and every author is a dense int id: its
position in the sorted list of the string ids. Int order is therefore
string order, so anything ordered or tie-broken by id comes out exactly as
it would over the strings. Adjacency is stored in CSR form, an offsets
array and a targets array per relation, so a row is one slice of one
`array` and the index holds no Python object per edge. There is no
string-keyed read path: callers map a string id to its int with
`author_index` and back through `paper_ids` and `author_ids`.
"""

from __future__ import annotations

import gc
import logging
import sys
import time
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import CitegraphError

logger = logging.getLogger(__name__)


class CorpusError(CitegraphError):
    """Inconsistent input records that cannot form a valid index."""


class DocType(Enum):
    ARTICLE = "article"
    CONFERENCE_PAPER = "conference_paper"
    REVIEW = "review"
    OTHER = "other"

    @classmethod
    def from_string(cls, raw: str) -> "DocType":
        """Map an input code to a document type; unknown codes become OTHER."""
        return _DOC_TYPE_CODES.get(raw.strip().lower(), cls.OTHER)


_DOC_TYPE_CODES = {member.value: member for member in DocType}

#: Document types that count as full papers everywhere in the pipeline.
FULL_PAPER_TYPES = frozenset({DocType.ARTICLE, DocType.CONFERENCE_PAPER, DocType.REVIEW})

#: The per-paper doc-type byte of a CorpusIndex is a position in this tuple.
DOC_TYPES = tuple(DocType)
_DOC_TYPE_BYTE = {doc_type: code for code, doc_type in enumerate(DOC_TYPES)}
#: Doc-type bytes of the full-paper types.
FULL_DOC_CODES = frozenset(_DOC_TYPE_BYTE[doc_type] for doc_type in FULL_PAPER_TYPES)


#: Row shapes that build_index consumes, the ingest parsers yield and the
#: ingest writers and a synth corpus's row iterators produce.
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

    def field_of(self, subfield_id: str) -> str | None:
        info = self._by_subfield.get(subfield_id)
        return None if info is None else info.field_id

    def field_name(self, field_id: str) -> str | None:
        return self._field_names.get(field_id)

    def __len__(self) -> int:
        return len(self._by_subfield)

    def __iter__(self) -> Iterator[SubfieldInfo]:
        return iter(sorted(self._by_subfield.values(), key=lambda e: e.subfield_id))


class CorpusIndex:
    """Integer-id CSR index over a de-duplicated publication corpus.

    Paper int ids are positions in `paper_ids` and author int ids positions
    in `author_ids`; both lists are sorted and hold the interned id strings.
    Per paper p:

        doc_types[p]      byte code of its DocType, a position in DOC_TYPES
        subfields[p]      its subfield_id, or None when unclassified
        team_of[p]        id of its distinct sorted author tuple, or -1 for
                          a paper without authors
        citers of p       citer_targets[citer_offsets[p]:citer_offsets[p + 1]]

    Per author a, their papers are
    paper_targets[paper_offsets[a]:paper_offsets[a + 1]], and `teams[t]` is
    the tuple of author ids of team t, stored once however many papers
    share it. Every CSR row and every team is strictly increasing, so
    identical inputs in any row order build identical arrays. Offsets are
    64-bit, targets 32-bit.

    `papers_of[a]` and `citers_of[p]` serve those two rows by int id, one
    slice each, for the a50pc oracle and the benchmark; the hot paths slice
    the arrays themselves.

    `finalise_s` is the wall time build_index spent turning the collected
    rows into the arrays: sorting and numbering the ids, deduplicating each
    row and inverting authorships into teams and author rows.
    """

    __slots__ = (
        "paper_ids",
        "author_ids",
        "doc_types",
        "subfields",
        "team_of",
        "teams",
        "citer_offsets",
        "citer_targets",
        "paper_offsets",
        "paper_targets",
        "taxonomy",
        "n_edges",
        "dropped_unknown_edges",
        "dropped_self_loops",
        "dropped_unknown_authorships",
        "finalise_s",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields[name])

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
            if doc_types[p] in FULL_DOC_CODES
        ]

    @property
    def papers_of(self) -> CsrRows:
        """Int-indexed rows of author -> increasing paper ids."""
        return CsrRows(self.paper_offsets, self.paper_targets)

    @property
    def citers_of(self) -> CsrRows:
        """Int-indexed rows of paper -> increasing citing paper ids."""
        return CsrRows(self.citer_offsets, self.citer_targets)


class CsrRows(Sequence):
    """Read-only rows of one CSR relation: row i is targets[offsets[i]:offsets[i + 1]]."""

    __slots__ = ("_offsets", "_targets")

    def __init__(self, offsets: array, targets: array):
        self._offsets = offsets
        self._targets = targets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i: int) -> array:
        if not 0 <= i < len(self):
            raise IndexError(i)
        offsets = self._offsets
        return self._targets[offsets[i]:offsets[i + 1]]


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
    final int ids with one dict lookup. Authorships are kept as flat
    (paper, author) int pairs and turned into teams and author rows before
    the first citation is read; each cited paper collects its citing ids in
    one list, sorted and deduplicated into the CSR once all citations are
    in. Every kept id string is interned once; dropped rows intern nothing.

    Duplicate rows collapse. A paper_id appearing twice with a different
    doc_type or subfield_id is a hard error. Citation edges or authorships
    that reference unknown paper_ids are dropped and counted, so partial
    corpora stay analyzable.

    The build allocates one list per cited paper and one tuple per team
    that live until the build ends or as long as the index, so the cyclic
    garbage collector is paused while it runs: each collection would
    re-traverse them and find nothing to free. The collector is re-enabled
    afterwards only if it was enabled before.
    """
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_index(papers, authorships, citations, taxonomy)
    finally:
        if collector_was_enabled:
            gc.enable()


def _build_index(
    papers: Iterable[PaperRow],
    authorships: Iterable[AuthorshipRow],
    citations: Iterable[CitationRow],
    taxonomy: FieldTaxonomy,
) -> CorpusIndex:
    intern = sys.intern
    clock = time.perf_counter

    # paper_id -> (DocType, subfield_id) while reading, then -> int id. Papers
    # of one doc type and subfield share one tuple.
    paper_map: dict[str, object] = {}
    kinds: dict[tuple[DocType, str | None], tuple[DocType, str | None]] = {}
    for pid, doc_type, subfield_id in papers:
        existing = paper_map.get(pid)
        if existing is None:
            kind = (doc_type, subfield_id)
            shared = kinds.get(kind)
            if shared is None:
                if subfield_id is not None:
                    kind = (doc_type, intern(subfield_id))
                shared = kinds[kind] = kind
            paper_map[intern(pid)] = shared
        elif existing[0] is not doc_type or existing[1] != subfield_id:
            raise CorpusError(f"conflicting duplicate paper record for paper_id {pid!r}")

    started = clock()
    paper_ids = sorted(paper_map)
    records = [paper_map[pid] for pid in paper_ids]
    doc_types = bytes([_DOC_TYPE_BYTE[doc_type] for doc_type, _ in records])
    subfields: list[str | None] = [subfield_id for _, subfield_id in records]
    del records
    n_papers = len(paper_ids)
    paper_map.update(zip(paper_ids, range(n_papers)))
    paper_of = paper_map.get
    finalise_s = clock() - started

    # Authorships as flat (paper, author) pairs; authors numbered as first seen.
    first_seen: dict[str, int] = {}
    ship_papers = array("i")
    ship_authors = array("i")
    dropped_unknown_authorships = 0
    for pid, aid in authorships:
        p = paper_of(pid)
        if p is None:
            dropped_unknown_authorships += 1
            continue
        a = first_seen.get(aid)
        if a is None:
            a = first_seen[intern(aid)] = len(first_seen)
        ship_papers.append(p)
        ship_authors.append(a)

    started = clock()
    author_ids = sorted(first_seen)
    renumber = array("i", bytes(4 * len(author_ids)))
    for a, aid in enumerate(author_ids):
        renumber[first_seen[aid]] = a
    del first_seen
    # One int per authorship, paper in the high bits: sorting them groups each
    # paper's authors, in increasing author id, with repeated rows adjacent.
    pairs = sorted([p << 32 | renumber[a] for p, a in zip(ship_papers, ship_authors)])
    del ship_papers, ship_authors, renumber
    team_of, teams, paper_offsets, paper_targets = _invert_authorships(
        pairs, n_papers, len(author_ids)
    )
    del pairs
    finalise_s += clock() - started

    citer_lists: defaultdict[int, list[int]] = defaultdict(list)
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
        citer_lists[v].append(u)
    del paper_map, paper_of

    started = clock()
    citer_counts = [0] * (n_papers + 1)
    citer_targets = array("i")
    for v in sorted(citer_lists):
        citers = sorted(set(citer_lists.pop(v)))
        citer_targets.extend(citers)
        citer_counts[v + 1] = len(citers)
    citer_offsets = array("q", accumulate(citer_counts))
    finalise_s += clock() - started

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
        finalise_s=finalise_s,
    )


_LOW_32 = (1 << 32) - 1


def _invert_authorships(
    pairs: list[int], n_papers: int, n_authors: int
) -> tuple[array, list[tuple[int, ...]], array, array]:
    """team_of, teams and the author CSR from sorted `paper << 32 | author` ints.

    The pairs come grouped by paper in increasing id, so each paper's team
    and each author's row come out sorted; a repeated pair is skipped.
    """
    team_of = array("i", [-1]) * n_papers
    team_ids: dict[tuple[int, ...], int] = {}
    number = team_ids.setdefault
    rows = [array("i") for _ in range(n_authors)]
    team: list[int] = []
    paper = -1
    last = -1
    for pair in pairs:
        if pair == last:
            continue
        last = pair
        p = pair >> 32
        a = pair & _LOW_32
        rows[a].append(p)
        if p == paper:
            team.append(a)
            continue
        if team:
            team_of[paper] = number(tuple(team), len(team_ids))
        team = [a]
        paper = p
    if team:
        team_of[paper] = number(tuple(team), len(team_ids))
    paper_offsets = array("q", accumulate(map(len, rows), initial=0))
    paper_targets = array("i", b"".join(rows))
    return team_of, list(team_ids), paper_offsets, paper_targets
