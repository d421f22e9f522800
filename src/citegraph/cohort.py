"""Eligibility filtering and per-author field assignment.

An author enters the analysis cohort when they have strictly more than
`min_full_papers` full papers, at least `min_citations` citations on those
papers, and an assignable field. Field assignment is majority vote over the
author's classified full papers, with ties broken first by citations received
in each tied field and finally by a deterministic draw keyed on
(seed, author_id), so assignments are stable under cohort changes.

eligible_authors reads each author's full papers once, votes the field of
each author passing both checks, and returns the cohort that
metrics.compute_all_metrics takes: a metrics.CohortAuthor record per author,
carrying the papers and citation counts it read.

The vote reads each paper's SubfieldInfo from `CorpusIndex.subfields`,
resolved once by corpus.build_index; this module never reads the taxonomy.
A paper whose subfield_id is not in the taxonomy has None there, as an
unclassified paper does: it counts toward papers and citations but not
toward the vote.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from .corpus import CorpusIndex
from .errors import CitegraphError
from .metrics import CohortAuthor, citation_counts


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


def _majority_pick(tally: dict[str, list[int]], seed: int, author_id: str, level: str) -> str:
    """The key with the largest `[papers, citations]` tally; the seeded draw breaks a full tie."""
    top = max(tally.values())
    tied = [k for k, counts in tally.items() if counts == top]
    if len(tied) == 1:
        return tied[0]
    return _seeded_pick(tied, seed, author_id, level)


def _vote_field(
    index: CorpusIndex, author_id: str, full: list[int], counts: list[int], seed: int
) -> tuple[str, str] | None:
    """(field_id, subfield_id) voted over the author's full papers `full` (int
    ids) and their citation `counts`, or None if no full paper has a subfield
    of the taxonomy (`index.subfields` holds None for every other paper).

    The field with the most of the author's classified full papers wins;
    ties go to the field whose papers received the most citations, then to
    the seeded draw. The subfield is chosen the same way within the winning
    field.
    """
    subfields = index.subfields
    # [papers, citations] per field, and per subfield within each field.
    by_field: dict[str, list[int]] = {}
    by_subfield: dict[str, dict[str, list[int]]] = {}
    for p, cites in zip(full, counts):
        info = subfields[p]
        if info is None:
            continue
        fid = info.field_id
        field_tally = by_field.setdefault(fid, [0, 0])
        field_tally[0] += 1
        field_tally[1] += cites
        subfield_tally = by_subfield.setdefault(fid, {}).setdefault(info.subfield_id, [0, 0])
        subfield_tally[0] += 1
        subfield_tally[1] += cites

    if not by_field:
        return None
    field_id = _majority_pick(by_field, seed, author_id, "field")
    subfield_id = _majority_pick(by_subfield[field_id], seed, author_id, f"subfield:{field_id}")
    return field_id, subfield_id


def assign_fields(
    index: CorpusIndex, authors: Iterable[str], seed: int
) -> dict[str, tuple[str, str]]:
    """Field vote of each of `authors` (string ids), in the order given: the
    vote of eligible_authors with no floors, so an author with no classified
    full paper, or unknown to the index, is omitted. The pipeline never calls
    this; it stays because the benchmark's traced run (bench/child.py) wraps
    it."""
    voted = eligible_authors(index, EligibilityConfig(min_full_papers=0, min_citations=0, seed=seed))
    return {a: voted[a].field for a in authors if a in voted}


def eligible_authors(index: CorpusIndex, cfg: EligibilityConfig) -> dict[str, CohortAuthor]:
    """The CohortAuthor record of every author passing the paper-count, citation,
    and field requirements; each candidate's field is voted once."""
    selected: dict[str, CohortAuthor] = {}
    for author, author_id in enumerate(index.author_ids):
        full = index.full_papers(author)
        if len(full) <= cfg.min_full_papers:
            continue
        counts = citation_counts(index, full)
        if sum(counts) < cfg.min_citations:
            continue
        assigned = _vote_field(index, author_id, full, counts, cfg.seed)
        if assigned is not None:
            selected[author_id] = CohortAuthor(author, full, counts, assigned)
    return selected
