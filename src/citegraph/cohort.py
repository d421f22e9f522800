"""Eligibility filtering and per-author field assignment.

An author enters the analysis cohort when they have strictly more than
`min_full_papers` full papers, at least `min_citations` citations on those
papers, and an assignable field. Field assignment is majority vote over the
author's classified full papers, with ties broken first by citations received
in each tied field and finally by a deterministic draw keyed on
(seed, author_id), so assignments are stable under cohort changes.

eligible_authors reads each author's full papers once, votes the field of
each author passing both checks, and returns the cohort that
metrics.compute_all_metrics takes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .corpus import CorpusIndex
from .errors import CitegraphError
from .metrics import citation_counts


class CohortConfigError(CitegraphError):
    pass


@dataclass(frozen=True)
class EligibilityConfig:
    min_full_papers: int = 5   # comparison is strict: n_full_papers > min_full_papers
    min_citations: int = 1000  # comparison is inclusive: citations >= min_citations
    seed: int = 0

    def __post_init__(self) -> None:
        if self.min_full_papers < 0 or self.min_citations < 0:
            raise CohortConfigError("eligibility thresholds must be >= 0")


def _seeded_pick(candidates: list[str], seed: int, author_id: str, level: str) -> str:
    """Deterministic draw among tied candidates, keyed on (seed, author_id)."""
    ordered = sorted(candidates)
    digest = hashlib.blake2b(
        f"{seed}:{author_id}:{level}".encode("utf-8"), digest_size=8
    ).digest()
    return ordered[int.from_bytes(digest, "big") % len(ordered)]


def _majority_pick(
    paper_counts: dict[str, int],
    citation_sums: dict[str, int],
    seed: int,
    author_id: str,
    level: str,
) -> str:
    top_papers = max(paper_counts.values())
    tied = [k for k, n in paper_counts.items() if n == top_papers]
    if len(tied) == 1:
        return tied[0]
    top_citations = max(citation_sums[k] for k in tied)
    tied = [k for k in tied if citation_sums[k] == top_citations]
    if len(tied) == 1:
        return tied[0]
    return _seeded_pick(tied, seed, author_id, level)


def _vote_field(
    index: CorpusIndex, author_id: str, full: list[int], counts: list[int], seed: int
) -> tuple[str, str] | None:
    """(field_id, subfield_id) voted over the author's full papers `full` (int
    ids) and their citation `counts`, or None if no full paper is classified.

    The field with the most of the author's classified full papers wins;
    ties go to the field whose papers received the most citations, then to
    the seeded draw. The subfield is chosen the same way within the winning
    field.
    """
    taxonomy = index.taxonomy
    subfields = index.subfields
    field_papers: dict[str, int] = {}
    field_citations: dict[str, int] = {}
    by_field_subfield: dict[str, dict[str, int]] = {}
    by_field_subfield_cites: dict[str, dict[str, int]] = {}

    for p, cites in zip(full, counts):
        subfield_id = subfields[p]
        if subfield_id is None:
            continue
        info = taxonomy.lookup(subfield_id)
        if info is None:
            continue
        fid = info.field_id
        field_papers[fid] = field_papers.get(fid, 0) + 1
        field_citations[fid] = field_citations.get(fid, 0) + cites
        sub_counts = by_field_subfield.setdefault(fid, {})
        sub_counts[subfield_id] = sub_counts.get(subfield_id, 0) + 1
        sub_cites = by_field_subfield_cites.setdefault(fid, {})
        sub_cites[subfield_id] = sub_cites.get(subfield_id, 0) + cites

    if not field_papers:
        return None
    field_id = _majority_pick(field_papers, field_citations, seed, author_id, "field")
    subfield_id = _majority_pick(
        by_field_subfield[field_id],
        by_field_subfield_cites[field_id],
        seed,
        author_id,
        f"subfield:{field_id}",
    )
    return field_id, subfield_id


def assign_fields(
    index: CorpusIndex, authors: Iterable[str], seed: int
) -> dict[str, tuple[str, str]]:
    """Field vote of each of `authors` (string ids), omitting those with no
    classified full paper. The pipeline votes inside eligible_authors and
    never calls this; it stays because the benchmark's traced run
    (bench/child.py) wraps it."""
    out: dict[str, tuple[str, str]] = {}
    for author_id in authors:
        author = index.author_index(author_id)
        full = [] if author is None else index.full_papers(author)
        assigned = _vote_field(index, author_id, full, citation_counts(index, full), seed)
        if assigned is not None:
            out[author_id] = assigned
    return out


def eligible_authors(index: CorpusIndex, cfg: EligibilityConfig) -> dict[str, tuple[str, str]]:
    """(field_id, subfield_id) of every author passing the paper-count, citation,
    and field requirements; each candidate's field is voted once."""
    selected: dict[str, tuple[str, str]] = {}
    for author, author_id in enumerate(index.author_ids):
        full = index.full_papers(author)
        if len(full) <= cfg.min_full_papers:
            continue
        counts = citation_counts(index, full)
        if sum(counts) < cfg.min_citations:
            continue
        assigned = _vote_field(index, author_id, full, counts, cfg.seed)
        if assigned is not None:
            selected[author_id] = assigned
    return selected
