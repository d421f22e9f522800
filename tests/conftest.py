from __future__ import annotations

import random
from typing import NamedTuple

from citegraph.corpus import (
    CorpusIndex,
    DocType,
    FieldTaxonomy,
    SubfieldInfo,
    build_index,
)
from citegraph.metrics import CohortAuthor, a50_coauthors, citation_counts, shared_coauthor_counts

TAXONOMY_ROWS = [
    ("102", "nuclear & particle physics", "F18", "Physics & Astronomy"),
    ("103", "astrophysics", "F18", "Physics & Astronomy"),
    ("201", "organic chemistry", "F05", "Chemistry"),
    ("202", "polymer science", "F05", "Chemistry"),
    ("301", "cardiology", "F06", "Clinical Medicine"),
]


def tiny_taxonomy() -> FieldTaxonomy:
    return FieldTaxonomy(SubfieldInfo(*row) for row in TAXONOMY_ROWS)


def make_index(papers, authorships, citations, taxonomy=None) -> CorpusIndex:
    """Index from terse tuples: papers (pid, doc_type, subfield), ships (pid, aid), edges (citing, cited)."""
    return build_index(
        [(p, d if isinstance(d, DocType) else DocType.from_string(d), s) for p, d, s in papers],
        list(authorships),
        list(citations),
        taxonomy or tiny_taxonomy(),
    )


class DecodedIndex(NamedTuple):
    """A CorpusIndex as plain string-keyed dicts; see decode_index."""

    papers: dict[str, tuple[DocType, str | None]]
    papers_of: dict[str, tuple[str, ...]]
    citers_of: dict[str, tuple[str, ...]]
    authors_of: dict[str, tuple[str, ...]]


def decode_index(index: CorpusIndex) -> DecodedIndex:
    """Every relation of `index` decoded once into string-keyed dicts:

        papers      every paper -> (DocType, subfield_id of its SubfieldInfo or None)
        papers_of   every author -> their sorted paper ids
        citers_of   each cited paper -> its sorted citing paper ids
        authors_of  each paper with authors -> its sorted author ids
    """
    pids = index.paper_ids
    aids = index.author_ids
    return DecodedIndex(
        papers={
            pid: (DocType(code), info and info.subfield_id)
            for pid, code, info in zip(pids, index.doc_types, index.subfields)
        },
        papers_of={aid: tuple(pids[p] for p in index.papers_of[a]) for a, aid in enumerate(aids)},
        citers_of={
            pids[p]: tuple(pids[u] for u in citers)
            for p, citers in enumerate(index.citers_of)
            if citers
        },
        authors_of={
            pid: tuple(aids[a] for a in index.teams[team])
            for pid, team in zip(pids, index.team_of)
            if team >= 0
        },
    )


def full_of(index: CorpusIndex, author_id: str) -> list[int]:
    """Int ids of the full papers of `author_id`, an author of `index`."""
    return index.full_papers(index.author_index(author_id))


def a50_of(index: CorpusIndex, author_id: str, threshold: int = 50) -> int:
    """metrics.a50_coauthors of `author_id`, an author of `index`."""
    return a50_coauthors(index, index.author_index(author_id), full_of(index, author_id), threshold)


def coauthor_counts(index: CorpusIndex, author_id: str) -> dict[str, int]:
    """metrics.shared_coauthor_counts of `author_id`, keyed by string author id."""
    author = index.author_index(author_id)
    counts = shared_coauthor_counts(index, author, index.full_papers(author))
    return {index.author_ids[other]: n for other, n in counts.items()}


def no_fields(index: CorpusIndex, authors) -> dict[str, CohortAuthor]:
    """A compute_all_metrics cohort of `authors`, authors of `index`, none of
    them assigned a field."""
    cohort = {}
    for author_id in authors:
        full = full_of(index, author_id)
        cohort[author_id] = CohortAuthor(
            index.author_index(author_id), full, citation_counts(index, full), (None, None)
        )
    return cohort


def random_corpus(rng: random.Random, max_authors: int = 50, max_edges: int = 300) -> CorpusIndex:
    """Small random corpus for property tests; drawn entirely from rng."""
    n_authors = rng.randint(2, max_authors)
    authors = [f"a{i:02d}" for i in range(n_authors)]
    doc_types = [DocType.ARTICLE] * 8 + [DocType.REVIEW, DocType.OTHER]
    subfields = [row[0] for row in TAXONOMY_ROWS] + [None]

    papers = []
    ships = []
    n_papers = rng.randint(n_authors, max(n_authors, min(120, 3 * n_authors)))
    for j in range(n_papers):
        pid = f"p{j:03d}"
        papers.append((pid, rng.choice(doc_types), rng.choice(subfields)))
        for a in rng.sample(authors, k=min(rng.choice((1, 1, 1, 2, 2, 3)), n_authors)):
            ships.append((pid, a))

    edges = []
    for _ in range(rng.randint(0, max_edges)):
        u = f"p{rng.randrange(n_papers):03d}"
        v = f"p{rng.randrange(n_papers):03d}"
        if u != v:
            edges.append((u, v))
    return make_index(papers, ships, edges)


def brute_force_h(counts) -> int:
    """Definitional h-index check: largest h with at least h entries >= h."""
    values = list(counts)
    for h in range(min(len(values), max(values, default=0)), -1, -1):
        if sum(1 for c in values if c >= h) >= h:
            return h
    return 0
