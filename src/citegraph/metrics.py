"""Per-author citation indicators computed against a CorpusIndex.

Five computed quantities per author (column names match metrics.csv):

    citations   number of citation edges received by the author's full papers
    h_index     largest h with at least h papers cited at least h times
    c_over_h2   citations / h_index**2, kept as an exact rational
    a50pc       citing authors needed to account for half the citations,
                selected greedily, consuming each citing paper at most once
    a50         co-authors sharing strictly more than `threshold` full papers

A citing paper that references k of the author's full papers contributes k
citations. Citing papers may be of any document type; only full papers of
the examined author receive countable citations.

compute_author_metrics is the one per-author kernel: it takes the
CohortAuthor record eligibility built and hands its lists to every indicator.

a50pc and a50 work over teams, the distinct author tuples the index numbers,
rather than over every (paper, author) pair: papers of the same team are
merged and their weights summed, which on large teams collapses most of the
work. Both read the index's int arrays directly; authors are compared by int
id, which orders them as their string ids do. a50pc is a greedy max-coverage
over the teams. A candidate whose only citing team is its own single-author
team has a fixed contribution, since no other selection consumes that team.
Only the members of multi-author teams go through a lazy greedy heap
(Minoux 1978). The count is the shortest prefix of all the gains, fixed and
heap, sorted largest first, that explains half. a50pc_oracle is the naive
reference it is cross-checked against. It reads the same index by int id,
one row at a time, and names its selections by string id.

All operations are pure reads over the index, so each author's values do not
depend on which other authors are computed, or in what order.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Mapping

from .corpus import FULL_PAPER_TYPES, CorpusIndex
from .errors import CitegraphError


#: The paper's a50 threshold: a50 counts co-authors sharing strictly more than
#: this many of the author's full papers.
A50_THRESHOLD = 50


class UndefinedMetricError(CitegraphError):
    """An indicator was requested for an author it is not defined for."""


@dataclass(frozen=True, slots=True)
class AuthorMetrics:
    """One row of metrics.csv: the fields, in order, are its columns."""

    author_id: str
    field_id: str | None
    subfield_id: str | None
    n_full_papers: int
    citations: int
    h_index: int
    c_over_h2: Fraction
    a50pc: int
    a50: int


@dataclass(frozen=True, slots=True)
class CohortAuthor:
    """One cohort author as eligibility read them: their int id, their full
    papers (int ids, increasing), the citation count of each, and their
    voted (field_id, subfield_id)."""

    author: int
    full: list[int]
    counts: list[int]
    field: tuple[str, str]


def citation_counts(index: CorpusIndex, papers: Iterable[int]) -> list[int]:
    """Citation count of each paper in `papers`: its citing papers, of any type.

    Callers pass an author's full papers, as returned by CorpusIndex.full_papers.
    """
    offsets = index.citer_offsets
    return [offsets[p + 1] - offsets[p] for p in papers]


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


def format_fixed(value: Fraction | int, places: int) -> str:
    """Render a nonnegative rational with exactly `places` (>= 1) decimals,
    rounding the exact value half to even, never its float."""
    frac = Fraction(value)
    if frac < 0:
        raise ValueError("negative values not supported")
    unit = 10**places
    whole, decimals = divmod(round(frac * unit), unit)
    return f"{whole}.{decimals:0{places}d}"


def a50pc_greedy(index: CorpusIndex, full: list[int]) -> int:
    """Citing authors needed to account for at least half of the citations
    received by `full`, an author's full papers (int ids).

    Repeatedly selects the citing author whose still-unconsumed citing papers
    carry the most citation edges to the examined author (ties broken by
    lexicographically smallest author id, and the examined author is a
    candidate like any other). Selecting an author consumes all their citing
    papers, so no citing paper is counted twice. Stops once the selected
    authors account for at least 50% of the citations, by the exact integer
    test 2 * explained >= citations.

    Citing papers with the same author tuple (one team id in the index) are
    merged into one group whose weight is their summed citation edges;
    papers without authors join no group. Any selection consumes all papers
    of a group together, and they add the same amount to each candidate's
    gain, so merging changes no selection. Candidates then split in two:

    - A candidate in no multi-author group has a fixed contribution, the
      weight of its own single-author group: no other selection consumes
      that group. Each goes straight into the list of gains.
    - A candidate in some multi-author group goes into a lazy greedy
      max-coverage heap (Minoux 1978, "Accelerated greedy algorithms for
      maximizing submodular set functions"), its single-author group's
      weight folded into its contribution. The heap holds one
      (-contribution, author) entry per such candidate; consuming a group
      only lowers its members' contributions, and an entry whose value has
      gone stale is pushed back with its current value. Each selection
      appends its gain to the list, until `unassigned`, the attributed
      weight not yet in the list, is 0.

    The count is the length of the shortest prefix of the gains, largest
    first, that explains half. It is the greedy's count because:

    - selecting a fixed candidate changes no other contribution, so fixed
      and heap selections commute;
    - heap contributions only fall, so the heap's gains come out
      non-increasing;
    - so the greedy's gains, in selection order, are the union of the two
      sorted in descending order; which side of a tie goes first does not
      change the prefix length;
    - while `unassigned` is positive, some unconsumed group or own weight
      still sits with a candidate in the heap, so the heap is never empty;
      once it is 0, every remaining contribution is 0.

    When every group is single-author, the gains are the weights themselves,
    and the check for that case skips the loop that splits the candidates:
    it would be a Python step per single-author group, and most cohort
    authors have nothing else. Authors are int ids, ordered as their string
    ids, and ties go to the smaller one.

    See a50pc_oracle for the from-scratch reference used to cross-check it.
    """
    offsets = index.citer_offsets
    citers = index.citer_targets
    # Citation edges per citing team; -1 collects the author-less citing papers.
    citing = chain.from_iterable(citers[offsets[p]:offsets[p + 1]] for p in full)
    weights = Counter(map(index.team_of.__getitem__, citing))
    total = sum(weights.values())
    if total == 0:
        raise UndefinedMetricError("a50pc is undefined without citations")

    unattributed = weights.pop(-1, 0)
    if 2 * (total - unattributed) < total:
        raise UndefinedMetricError(
            f"citing papers without recorded authors carry {unattributed} of {total} "
            "citations; half cannot be attributed"
        )

    teams = index.teams
    half = total - total // 2  # the least explained count with 2 * explained >= total
    gains = weights.values()
    if max(map(len, map(teams.__getitem__, weights))) > 1:
        fixed: dict[int, int] = {}
        contrib: dict[int, int] = {}
        groups_of: dict[int, list[int]] = {}
        for team, k in weights.items():
            members = teams[team]
            if len(members) == 1:
                fixed[members[0]] = k
                continue
            for x in members:
                contrib[x] = contrib.get(x, 0) + k
                groups_of.setdefault(x, []).append(team)
        for x in contrib:
            contrib[x] += fixed.pop(x, 0)

        gains = list(fixed.values())
        unassigned = total - unattributed - sum(gains)  # attributed weight not in gains
        heap = [(-c, x) for x, c in contrib.items()]
        heapq.heapify(heap)
        while unassigned:
            neg, x = heap[0]
            current = contrib[x]
            if current != -neg:
                heapq.heapreplace(heap, (-current, x))
                continue
            heapq.heappop(heap)
            gains.append(current)
            unassigned -= current
            for team in groups_of[x]:
                k = weights.pop(team, 0)
                if k:
                    for y in teams[team]:
                        contrib[y] -= k
    return bisect_left(list(accumulate(sorted(gains, reverse=True))), half) + 1


def a50pc_oracle_selections(index: CorpusIndex, author_id: str) -> list[tuple[str, int]]:
    """Reference selection trace for a50pc, recomputed from scratch each round.

    Deliberately naive: every iteration rebuilds all candidate contributions
    over the remaining citing papers, with no shared state with a50pc_greedy.
    Returns the (author_id, contribution) pairs in selection order.
    """
    teams = index.teams
    team_of = index.team_of

    def authors_of(u: int) -> tuple[int, ...]:
        return () if team_of[u] < 0 else teams[team_of[u]]

    author = index.author_index(author_id)
    papers = () if author is None else index.papers_of[author]
    remaining: dict[int, int] = {}
    total = 0
    for p in papers:
        if index.doc_types[p] not in FULL_PAPER_TYPES:
            continue
        for u in index.citers_of[p]:
            remaining[u] = remaining.get(u, 0) + 1
            total += 1
    if total == 0:
        raise UndefinedMetricError(f"author {author_id!r} has no citations")

    selections: list[tuple[str, int]] = []
    explained = 0
    while 2 * explained < total:
        scores: dict[int, int] = {}
        for u, k in remaining.items():
            for x in authors_of(u):
                scores[x] = scores.get(x, 0) + k
        if not scores:
            raise UndefinedMetricError(
                f"author {author_id!r}: remaining citing papers have no recorded authors"
            )
        best, gain = min(scores.items(), key=lambda item: (-item[1], item[0]))
        selections.append((index.author_ids[best], gain))
        explained += gain
        remaining = {u: k for u, k in remaining.items() if best not in authors_of(u)}
    return selections


def a50pc_oracle(index: CorpusIndex, author_id: str) -> int:
    return len(a50pc_oracle_selections(index, author_id))


def shared_coauthor_counts(index: CorpusIndex, author: int, full: list[int]) -> Counter[int]:
    """Full papers in `full`, author `author`'s, co-authored with each other
    author, by int id; each distinct team (author tuple) is expanded once."""
    teams = index.teams
    shared: Counter[int] = Counter()
    for team, n in Counter(map(index.team_of.__getitem__, full)).items():
        for other in teams[team]:
            shared[other] += n
    shared.pop(author, None)
    return shared


def a50_coauthors(
    index: CorpusIndex, author: int, full: list[int], threshold: int = A50_THRESHOLD
) -> int:
    """Distinct co-authors sharing strictly more than `threshold` of the full papers `full`."""
    return sum(1 for n in shared_coauthor_counts(index, author, full).values() if n > threshold)


def compute_author_metrics(
    index: CorpusIndex, cohort_author: CohortAuthor, *, a50_threshold: int = A50_THRESHOLD
) -> AuthorMetrics:
    """Every indicator of one cohort author, from the full papers and citation
    counts in their record; neither is read again, nor changed. An
    UndefinedMetricError from any indicator is re-raised naming the author."""
    author = cohort_author.author
    author_id = index.author_ids[author]
    full = cohort_author.full
    citations = sum(cohort_author.counts)
    h = h_index(cohort_author.counts)
    try:
        return AuthorMetrics(
            author_id=author_id,
            n_full_papers=len(full),
            citations=citations,
            h_index=h,
            c_over_h2=c_over_h2(citations, h),
            a50pc=a50pc_greedy(index, full),
            a50=a50_coauthors(index, author, full, a50_threshold),
            field_id=cohort_author.field[0],
            subfield_id=cohort_author.field[1],
        )
    except UndefinedMetricError as exc:
        raise UndefinedMetricError(f"author {author_id!r}: {exc}") from exc


def compute_all_metrics(
    index: CorpusIndex, cohort: Mapping[str, CohortAuthor], *, a50_threshold: int = A50_THRESHOLD
) -> dict[str, AuthorMetrics]:
    """Metrics for every cohort author, keyed and computed in sorted author order.

    `cohort` maps author ids to CohortAuthor records, as eligible_authors
    returns it. The GIL serialises this pure-Python work, so it runs on one thread: a
    thread pool here measured slower than the plain loop.
    """
    return {
        a: compute_author_metrics(index, cohort[a], a50_threshold=a50_threshold)
        for a in sorted(cohort)
    }
