"""Domain records and the immutable cross-linked corpus index.

Everything downstream (cohort selection, indicators, tail statistics) reads
from a single CorpusIndex built once from flat row streams. The index is
read-only after construction and safe to share across threads.
"""

from __future__ import annotations

import gc
import logging
import sys
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True, slots=True)
class PaperRecord:
    paper_id: str
    doc_type: DocType
    subfield_id: str | None = None


@dataclass(frozen=True, slots=True)
class AuthorshipRecord:
    paper_id: str
    author_id: str


@dataclass(frozen=True, slots=True)
class CitationEdge:
    citing_paper_id: str
    cited_paper_id: str


#: Row shapes that build_index consumes and the ingest parsers yield.
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


def is_full_paper(paper: PaperRecord) -> bool:
    """True iff the record is an article, conference paper, or review."""
    return paper.doc_type in FULL_PAPER_TYPES


class CorpusIndex:
    """Cross-linked read-only maps over a de-duplicated publication corpus.

    Attributes
    ----------
    papers : paper_id -> PaperRecord
    authors_of : paper_id -> sorted tuple of author_id (papers with authors only)
    papers_of : author_id -> sorted tuple of paper_id
    citers_of : paper_id -> sorted tuple of citing paper_id (cited papers only)
    taxonomy : FieldTaxonomy

    authors_of and papers_of are mutual inverses, every id in citers_of is a
    known paper, and all adjacency tuples are sorted, so identical inputs in
    any row order build identical indexes.
    """

    __slots__ = (
        "papers",
        "authors_of",
        "papers_of",
        "citers_of",
        "taxonomy",
        "n_edges",
        "dropped_unknown_edges",
        "dropped_self_loops",
        "dropped_unknown_authorships",
    )

    def __init__(
        self,
        papers: dict[str, PaperRecord],
        authors_of: dict[str, tuple[str, ...]],
        papers_of: dict[str, tuple[str, ...]],
        citers_of: dict[str, tuple[str, ...]],
        taxonomy: FieldTaxonomy,
        n_edges: int,
        dropped_unknown_edges: int,
        dropped_self_loops: int,
        dropped_unknown_authorships: int,
    ):
        self.papers: Mapping[str, PaperRecord] = MappingProxyType(papers)
        self.authors_of: Mapping[str, tuple[str, ...]] = MappingProxyType(authors_of)
        self.papers_of: Mapping[str, tuple[str, ...]] = MappingProxyType(papers_of)
        self.citers_of: Mapping[str, tuple[str, ...]] = MappingProxyType(citers_of)
        self.taxonomy = taxonomy
        self.n_edges = n_edges
        self.dropped_unknown_edges = dropped_unknown_edges
        self.dropped_self_loops = dropped_self_loops
        self.dropped_unknown_authorships = dropped_unknown_authorships


def build_index(
    papers: Iterable[PaperRow],
    authorships: Iterable[AuthorshipRow],
    citations: Iterable[CitationRow],
    taxonomy: FieldTaxonomy,
) -> CorpusIndex:
    """Build the cross-linked index from row streams.

    Rows are plain tuples, the shapes the ingest parsers yield:

        papers       (paper_id, DocType, subfield_id or None)
        authorships  (paper_id, author_id)
        citations    (citing_paper_id, cited_paper_id)

    A PaperRecord is built only for the first row of each paper_id, and its
    paper_id is interned then. Every later paper id in an authorship or
    citation row costs one lookup in the paper map, and the record it finds
    supplies the canonical id string, so all maps share one string object per
    paper. Each kept authorship interns its author_id; dropped rows intern
    nothing.

    Duplicate rows collapse. A paper_id appearing twice with a different
    doc_type or subfield_id is a hard error. Citation edges or authorships
    that reference unknown paper_ids are dropped and counted, so partial
    corpora stay analyzable.

    The build allocates hundreds of thousands of sets and records that all
    live until the index is dropped, so the cyclic garbage collector is paused
    while it runs: each collection would re-traverse them and find nothing to
    free. The collector is re-enabled afterwards only if it was enabled before.
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
    paper_map: dict[str, PaperRecord] = {}
    for pid, doc_type, subfield_id in papers:
        existing = paper_map.get(pid)
        if existing is None:
            pid = intern(pid)
            if subfield_id is not None:
                subfield_id = intern(subfield_id)
            paper_map[pid] = PaperRecord(pid, doc_type, subfield_id)
        elif existing.doc_type is not doc_type or existing.subfield_id != subfield_id:
            raise CorpusError(f"conflicting duplicate paper record for paper_id {pid!r}")
    paper_of = paper_map.get

    author_sets: defaultdict[str, set[str]] = defaultdict(set)
    dropped_unknown_authorships = 0
    for pid, aid in authorships:
        paper = paper_of(pid)
        if paper is None:
            dropped_unknown_authorships += 1
            continue
        author_sets[paper.paper_id].add(intern(aid))

    citer_sets: defaultdict[str, set[str]] = defaultdict(set)
    dropped_unknown_edges = 0
    dropped_self_loops = 0
    for citing, cited in citations:
        if citing == cited:
            dropped_self_loops += 1
            continue
        citing_paper = paper_of(citing)
        cited_paper = paper_of(cited)
        if citing_paper is None or cited_paper is None:
            dropped_unknown_edges += 1
            continue
        citer_sets[cited_paper.paper_id].add(citing_paper.paper_id)
    n_edges = sum(map(len, citer_sets.values()))

    authors_of = {pid: tuple(sorted(s)) for pid, s in author_sets.items()}
    papers_by_author: dict[str, list[str]] = {}
    for pid, aids in authors_of.items():
        for aid in aids:
            papers_by_author.setdefault(aid, []).append(pid)
    papers_of = {aid: tuple(sorted(ps)) for aid, ps in papers_by_author.items()}
    citers_of = {pid: tuple(sorted(s)) for pid, s in citer_sets.items()}

    if dropped_unknown_edges:
        logger.warning("dropped %d citation edges referencing unknown papers", dropped_unknown_edges)
    if dropped_self_loops:
        logger.warning("dropped %d self-loop citation edges", dropped_self_loops)
    if dropped_unknown_authorships:
        logger.warning("dropped %d authorships referencing unknown papers", dropped_unknown_authorships)

    return CorpusIndex(
        papers=paper_map,
        authors_of=authors_of,
        papers_of=papers_of,
        citers_of=citers_of,
        taxonomy=taxonomy,
        n_edges=n_edges,
        dropped_unknown_edges=dropped_unknown_edges,
        dropped_self_loops=dropped_self_loops,
        dropped_unknown_authorships=dropped_unknown_authorships,
    )
