"""Per-author citation indicators computed against a CorpusIndex.

Four computed quantities per author (column names match metrics.csv):

    citations   number of citation edges received by the author's full papers
    h_index     largest h with at least h papers cited at least h times
    c_over_h2   citations / h_index**2, kept as an exact rational
    a50pc       citing authors needed to account for half the citations,
                selected greedily, consuming each citing paper at most once
    a50         co-authors sharing strictly more than `threshold` full papers

A citing paper that references k of the author's full papers contributes k
citations. Citing papers may be of any document type; only full papers of
the examined author receive countable citations.

All operations are pure reads over the index, so each author's values do not
depend on which other authors are computed, or in what order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .corpus import CorpusIndex, is_full_paper
from .errors import CitegraphError


class UndefinedMetricError(CitegraphError):
    """An indicator was requested for an author it is not defined for."""


@dataclass(frozen=True, slots=True)
class AuthorMetrics:
    author_id: str
    n_full_papers: int
    citations: int
    h_index: int
    c_over_h2: Fraction
    a50pc: int
    a50: int
    field_id: str | None = None
    subfield_id: str | None = None


def full_papers(index: CorpusIndex, author_id: str) -> tuple[str, ...]:
    """The author's papers that are articles, conference papers, or reviews."""
    papers = index.papers
    return tuple(p for p in index.papers_of.get(author_id, ()) if is_full_paper(papers[p]))


def citation_counts(index: CorpusIndex, papers: tuple[str, ...]) -> list[int]:
    """Citation count of each paper in `papers`: its citing papers, of any type.

    Callers pass an author's full papers, as returned by full_papers.
    """
    citers_of = index.citers_of
    return [len(citers_of.get(p, ())) for p in papers]


def citation_total(index: CorpusIndex, author_id: str) -> int:
    return sum(citation_counts(index, full_papers(index, author_id)))


def h_index(counts: Iterable[int]) -> int:
    """Largest h such that at least h of the counts are >= h; 0 for no counts."""
    ordered = sorted(counts, reverse=True)
    h = 0
    for i, c in enumerate(ordered, start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def c_over_h2(citations: int, h: int) -> Fraction:
    """Exact rational citations / h**2; undefined when h is 0."""
    if h <= 0:
        raise UndefinedMetricError("c_over_h2 is undefined for h_index 0")
    return Fraction(citations, h * h)


def format_2dp(value: Fraction | int) -> str:
    """Render a nonnegative rational with exactly 2 decimals, rounding half to even."""
    frac = Fraction(value)
    if frac < 0:
        raise ValueError("negative values not supported")
    scaled = frac * 100
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q % 2 == 1):
        q += 1
    return f"{q // 100}.{q % 100:02d}"


def _citing_weights(index: CorpusIndex, author_id: str) -> dict[str, int]:
    """Map each citing paper to the number of the author's full papers it cites."""
    weights: dict[str, int] = {}
    for p in full_papers(index, author_id):
        for u in index.citers_of.get(p, ()):
            weights[u] = weights.get(u, 0) + 1
    return weights


def a50pc_greedy(index: CorpusIndex, author_id: str) -> int:
    """Citing authors needed to account for at least half of the received citations.

    Repeatedly selects the citing author whose still-unconsumed citing papers
    carry the most citation edges to the examined author (ties broken by
    lexicographically smallest author id, and the examined author is a
    candidate like any other). Selecting an author consumes all their citing
    papers, so no citing paper is counted twice. Stops once the selected
    authors account for at least 50% of the citations, by the exact integer
    test 2 * explained >= citations.

    Uses a lazy max-heap over incrementally maintained contributions; see
    a50pc_oracle for the from-scratch reference used to cross-check it.
    """
    weights = _citing_weights(index, author_id)
    total = sum(weights.values())
    if total == 0:
        raise UndefinedMetricError(f"author {author_id!r} has no citations")

    contrib: dict[str, int] = {}
    papers_by_author: dict[str, list[str]] = {}
    authors_of = index.authors_of
    attributed = 0
    for u, k in weights.items():
        candidates = authors_of.get(u, ())
        if candidates:
            attributed += k
        for x in candidates:
            contrib[x] = contrib.get(x, 0) + k
            papers_by_author.setdefault(x, []).append(u)
    if 2 * attributed < total:
        raise UndefinedMetricError(
            f"author {author_id!r}: citing papers without recorded authors carry "
            f"{total - attributed} of {total} citations; half cannot be attributed"
        )

    heap = [(-c, x) for x, c in contrib.items()]
    heapq.heapify(heap)
    consumed: set[str] = set()
    explained = 0
    selections = 0
    while 2 * explained < total:
        while True:
            neg, x = heapq.heappop(heap)
            current = contrib.get(x)
            if current is not None and current == -neg:
                break
        gain = contrib.pop(x)
        explained += gain
        selections += 1
        for u in papers_by_author.pop(x):
            if u in consumed:
                continue
            consumed.add(u)
            k = weights[u]
            for y in authors_of.get(u, ()):
                if y in contrib:
                    updated = contrib[y] - k
                    contrib[y] = updated
                    heapq.heappush(heap, (-updated, y))
    return selections


def a50pc_oracle_selections(index: CorpusIndex, author_id: str) -> list[tuple[str, int]]:
    """Reference selection trace for a50pc, recomputed from scratch each round.

    Deliberately naive: every iteration rebuilds all candidate contributions
    over the remaining citing papers, with no shared state with a50pc_greedy.
    Returns the (author_id, contribution) pairs in selection order.
    """
    papers = index.papers
    remaining: dict[str, int] = {}
    total = 0
    for p in index.papers_of.get(author_id, ()):
        if not is_full_paper(papers[p]):
            continue
        for u in index.citers_of.get(p, ()):
            remaining[u] = remaining.get(u, 0) + 1
            total += 1
    if total == 0:
        raise UndefinedMetricError(f"author {author_id!r} has no citations")

    selections: list[tuple[str, int]] = []
    explained = 0
    while 2 * explained < total:
        scores: dict[str, int] = {}
        for u, k in remaining.items():
            for x in index.authors_of.get(u, ()):
                scores[x] = scores.get(x, 0) + k
        if not scores:
            raise UndefinedMetricError(
                f"author {author_id!r}: remaining citing papers have no recorded authors"
            )
        best = min(scores.items(), key=lambda item: (-item[1], item[0]))
        selections.append(best)
        explained += best[1]
        remaining = {
            u: k for u, k in remaining.items() if best[0] not in index.authors_of.get(u, ())
        }
    return selections


def a50pc_oracle(index: CorpusIndex, author_id: str) -> int:
    return len(a50pc_oracle_selections(index, author_id))


def shared_coauthor_counts(index: CorpusIndex, author_id: str) -> dict[str, int]:
    """Full papers co-authored with each distinct other author."""
    shared: dict[str, int] = {}
    for p in full_papers(index, author_id):
        for other in index.authors_of.get(p, ()):
            if other != author_id:
                shared[other] = shared.get(other, 0) + 1
    return shared


def a50_coauthors(index: CorpusIndex, author_id: str, threshold: int = 50) -> int:
    """Distinct co-authors sharing strictly more than `threshold` full papers."""
    return sum(1 for n in shared_coauthor_counts(index, author_id).values() if n > threshold)


def compute_author_metrics(
    index: CorpusIndex,
    author_id: str,
    *,
    a50_threshold: int = 50,
    field_assignment: tuple[str, str] | None = None,
) -> AuthorMetrics:
    counts = citation_counts(index, full_papers(index, author_id))
    citations = sum(counts)
    h = h_index(counts)
    field_id, subfield_id = field_assignment if field_assignment else (None, None)
    return AuthorMetrics(
        author_id=author_id,
        n_full_papers=len(counts),
        citations=citations,
        h_index=h,
        c_over_h2=c_over_h2(citations, h),
        a50pc=a50pc_greedy(index, author_id),
        a50=a50_coauthors(index, author_id, a50_threshold),
        field_id=field_id,
        subfield_id=subfield_id,
    )


def compute_all_metrics(
    index: CorpusIndex,
    cohort: Iterable[str],
    *,
    field_assignments: Mapping[str, tuple[str, str]] | None = None,
    a50_threshold: int = 50,
) -> dict[str, AuthorMetrics]:
    """Metrics for every cohort author, keyed and computed in sorted author order.

    The GIL serialises this pure-Python work, so it runs on one thread: a
    thread pool here measured slower than the plain loop.
    """
    assignments = field_assignments or {}
    return {
        a: compute_author_metrics(
            index, a, a50_threshold=a50_threshold, field_assignment=assignments.get(a)
        )
        for a in sorted(set(cohort))
    }
