from __future__ import annotations

import random
from fractions import Fraction

import pytest

from citegraph.metrics import (
    UndefinedMetricError,
    a50pc_greedy,
    a50pc_oracle,
    a50pc_oracle_selections,
    c_over_h2,
    citation_counts,
    compute_all_metrics,
    format_2dp,
    h_index,
)

from conftest import (
    a50_of,
    brute_force_h,
    coauthor_counts,
    decode_index,
    full_of,
    make_index,
    no_fields,
    random_corpus,
)


# ---------------------------------------------------------------------------
# h_index
# ---------------------------------------------------------------------------

def test_h_index_known_values():
    assert h_index([25, 8, 5, 3, 3]) == 3  # brute_force_h agrees, frozen below
    assert brute_force_h([25, 8, 5, 3, 3]) == 3
    assert h_index([]) == 0
    assert h_index([7] * 7) == 7
    assert h_index([0, 0, 0]) == 0


def test_h_index_matches_brute_force_up_to_length_200():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(0, 200)
        counts = [rng.randint(0, 120) for _ in range(n)]
        assert h_index(counts) == brute_force_h(counts)


# ---------------------------------------------------------------------------
# c_over_h2
# ---------------------------------------------------------------------------

def test_c_over_h2_values():
    assert c_over_h2(1000, 20) == Fraction(5, 2)
    assert c_over_h2(400, 20) == 1
    assert c_over_h2(2450, 31) == Fraction(2450, 961)


def test_c_over_h2_undefined_for_zero_h():
    with pytest.raises(UndefinedMetricError):
        c_over_h2(100, 0)


def test_format_2dp_rounds_half_to_even():
    assert format_2dp(Fraction(5, 2)) == "2.50"
    assert format_2dp(Fraction(21, 8)) == "2.62"   # 2.625 ties to even
    assert format_2dp(Fraction(527, 200)) == "2.64"  # 2.635 ties to even
    assert format_2dp(Fraction(2450, 961)) == "2.55"
    assert format_2dp(Fraction(1, 3)) == "0.33"
    assert format_2dp(7) == "7.00"


# ---------------------------------------------------------------------------
# a50pc
# ---------------------------------------------------------------------------

def _single_contributor_index():
    papers = [("e1", "article", None), ("u1", "article", None), ("u2", "article", None)]
    ships = [("e1", "E"), ("u1", "X"), ("u2", "X")]
    edges = [("u1", "e1"), ("u2", "e1")]
    return make_index(papers, ships, edges)


def test_a50pc_single_contributor_covers_everything():
    idx = _single_contributor_index()
    assert a50pc_greedy(idx, full_of(idx, "E")) == 1
    assert a50pc_oracle(idx, "E") == 1


def test_a50pc_multi_paper_contributions():
    # P1 by X and Y cites two of E's papers, P2 by X cites one, P3 by Z cites
    # one: X accounts for 3 of 4 citations, so one selection suffices.
    papers = [
        ("e1", "article", None),
        ("e2", "article", None),
        ("P1", "article", None),
        ("P2", "article", None),
        ("P3", "article", None),
    ]
    ships = [("e1", "E"), ("e2", "E"), ("P1", "X"), ("P1", "Y"), ("P2", "X"), ("P3", "Z")]
    edges = [("P1", "e1"), ("P1", "e2"), ("P2", "e1"), ("P3", "e2")]
    idx = make_index(papers, ships, edges)
    assert a50pc_greedy(idx, full_of(idx, "E")) == 1
    assert a50pc_oracle(idx, "E") == 1


def test_a50pc_ten_equal_contributors_need_five():
    papers = [("e1", "article", None)] + [(f"u{i}", "article", None) for i in range(10)]
    ships = [("e1", "E")] + [(f"u{i}", f"x{i}") for i in range(10)]
    edges = [(f"u{i}", "e1") for i in range(10)]
    idx = make_index(papers, ships, edges)
    assert a50pc_greedy(idx, full_of(idx, "E")) == 5
    assert a50pc_oracle(idx, "E") == 5


def test_a50pc_self_citer_selected_first():
    # Six of the ten citations come from the author's own papers.
    papers = [("s0", "article", None)]
    papers += [(f"s{i}", "article", None) for i in range(1, 7)]
    papers += [(f"x{i}", "article", None) for i in range(4)]
    ships = [(f"s{i}", "S") for i in range(7)] + [(f"x{i}", f"other{i}") for i in range(4)]
    edges = [(f"s{i}", "s0") for i in range(1, 7)] + [(f"x{i}", "s0") for i in range(4)]
    idx = make_index(papers, ships, edges)
    assert a50pc_greedy(idx, full_of(idx, "S")) == 1
    assert a50pc_oracle(idx, "S") == 1


def test_a50pc_undefined_without_citations():
    idx = make_index([("p1", "article", None)], [("p1", "A")], [])
    with pytest.raises(UndefinedMetricError):
        a50pc_greedy(idx, full_of(idx, "A"))
    with pytest.raises(UndefinedMetricError):
        a50pc_oracle(idx, "A")


def test_a50pc_errors_when_half_cannot_be_attributed():
    # Citing papers without any recorded author can never be consumed.
    papers = [
        ("e1", "article", None),
        ("e2", "article", None),
        ("u1", "article", None),
        ("u2", "article", None),
    ]
    ships = [("e1", "E"), ("e2", "E"), ("u1", "X")]  # u2 has no authors
    edges = [("u1", "e1"), ("u2", "e1"), ("u2", "e2")]
    idx = make_index(papers, ships, edges)
    with pytest.raises(UndefinedMetricError):
        a50pc_greedy(idx, full_of(idx, "E"))
    with pytest.raises(UndefinedMetricError):
        a50pc_oracle(idx, "E")


def test_a50pc_tie_breaks_lexicographically():
    papers = [("e1", "article", None), ("u1", "article", None), ("u2", "article", None)]
    ships = [("e1", "E"), ("u1", "zz"), ("u2", "aa")]
    edges = [("u1", "e1"), ("u2", "e1")]
    idx = make_index(papers, ships, edges)
    assert a50pc_oracle_selections(idx, "E")[0][0] == "aa"


def test_a50pc_greedy_equals_oracle_on_random_corpora():
    rng = random.Random(2024)
    checked = 0
    for _ in range(150):
        idx = random_corpus(rng)
        authors = idx.author_ids[:4]
        for author in authors:
            try:
                expected = a50pc_oracle(idx, author)
            except UndefinedMetricError:
                with pytest.raises(UndefinedMetricError):
                    a50pc_greedy(idx, full_of(idx, author))
                continue
            assert a50pc_greedy(idx, full_of(idx, author)) == expected
            checked += 1
    assert checked > 100


def test_a50pc_stopping_rule_is_tight():
    rng = random.Random(7)
    checked = 0
    for _ in range(60):
        idx = random_corpus(rng, max_authors=20, max_edges=120)
        views = decode_index(idx)
        for author in idx.author_ids[:3]:
            try:
                selections = a50pc_oracle_selections(idx, author)
            except UndefinedMetricError:
                continue
            total = sum(
                len(views.citers_of.get(p, ()))
                for p in views.papers_of[author]
                if p in views.citers_of and _is_full(views, p)
            )
            gains = [g for _, g in selections]
            assert 2 * sum(gains) >= total
            assert 2 * sum(gains[:-1]) < total
            checked += 1
    assert checked > 30


def _is_full(views, pid):
    from citegraph.corpus import FULL_PAPER_TYPES

    return views.papers[pid][0] in FULL_PAPER_TYPES


# ---------------------------------------------------------------------------
# a50
# ---------------------------------------------------------------------------

def test_a50_solo_author_is_zero():
    papers = [(f"p{i}", "article", None) for i in range(60)]
    ships = [(f"p{i}", "A") for i in range(60)]
    idx = make_index(papers, ships, [])
    assert a50_of(idx, "A") == 0


def test_a50_threshold_is_strict():
    papers = [(f"p{i}", "article", None) for i in range(101)]
    ships = []
    for i in range(51):  # 51 shared with B
        ships += [(f"p{i}", "A"), (f"p{i}", "B")]
    for i in range(51, 101):  # exactly 50 shared with C
        ships += [(f"p{i}", "A"), (f"p{i}", "C")]
    idx = make_index(papers, ships, [])
    assert coauthor_counts(idx, "A") == {"B": 51, "C": 50}
    assert a50_of(idx, "A") == 1
    assert a50_of(idx, "A", threshold=49) == 2


def test_a50_nine_person_team():
    authors = [f"m{k}" for k in range(9)]
    papers = [(f"p{i}", "article", None) for i in range(60)]
    ships = [(f"p{i}", a) for i in range(60) for a in authors]
    idx = make_index(papers, ships, [])
    for a in authors:
        assert a50_of(idx, a) == 8


def test_a50_only_counts_full_papers():
    papers = [(f"p{i}", "other", None) for i in range(60)]
    ships = [(f"p{i}", a) for i in range(60) for a in ("A", "B")]
    idx = make_index(papers, ships, [])
    assert a50_of(idx, "A") == 0


def test_a50_symmetry_on_random_corpora():
    rng = random.Random(99)
    for _ in range(40):
        idx = random_corpus(rng, max_authors=12, max_edges=50)
        threshold = rng.choice((0, 1, 2))
        over = {
            a: {b for b, n in coauthor_counts(idx, a).items() if n > threshold}
            for a in idx.author_ids
        }
        for a, partners in over.items():
            for b in partners:
                assert a in over[b]


# ---------------------------------------------------------------------------
# compute_all_metrics
# ---------------------------------------------------------------------------

def test_compute_all_metrics_empty_cohort():
    idx = make_index([("p1", "article", None)], [("p1", "A")], [])
    assert compute_all_metrics(idx, {}) == {}


def test_compute_all_metrics_order_and_thread_invariance():
    idx = _single_contributor_index()
    cohort = ["E"]
    m1 = compute_all_metrics(idx, no_fields(cohort))
    m2 = compute_all_metrics(idx, no_fields(reversed(cohort)))
    assert m1 == m2
    assert m1["E"].citations == 2
    assert m1["E"].h_index == 1
    assert m1["E"].c_over_h2 == 2
    assert m1["E"].a50pc == 1


def test_citing_full_only_excludes_non_full_citers():
    papers = [("e1", "article", None), ("u1", "article", None), ("u2", "other", None)]
    ships = [("e1", "E"), ("u1", "X"), ("u2", "Y")]
    edges = [("u1", "e1"), ("u2", "e1")]
    idx = make_index(papers, ships, edges)
    assert sum(citation_counts(idx, full_of(idx, "E"))) == 2  # any doc type may cite


def test_only_full_papers_receive_countable_citations():
    papers = [("e1", "other", None), ("u1", "article", None)]
    ships = [("e1", "E"), ("u1", "X")]
    idx = make_index(papers, ships, [("u1", "e1")])
    assert sum(citation_counts(idx, full_of(idx, "E"))) == 0


def test_compute_all_metrics_composes_per_op_values():
    # One corpus holding the worked examples: a single-contributor author,
    # the ten-equal-contributors author, and the multi-paper-citer author.
    papers, ships, edges = [], [], []
    papers += [("e1", "article", None), ("q1", "article", None), ("q2", "article", None)]
    ships += [("e1", "E"), ("q1", "X"), ("q2", "X")]
    edges += [("q1", "e1"), ("q2", "e1")]
    papers += [("f1", "article", None)] + [(f"u{i}", "article", None) for i in range(10)]
    ships += [("f1", "F")] + [(f"u{i}", f"x{i}") for i in range(10)]
    edges += [(f"u{i}", "f1") for i in range(10)]
    papers += [("g1", "article", None), ("g2", "article", None), ("P1", "article", None),
               ("P2", "article", None), ("P3", "article", None)]
    ships += [("g1", "G"), ("g2", "G"), ("P1", "W"), ("P1", "Y"), ("P2", "W"), ("P3", "Z")]
    edges += [("P1", "g1"), ("P1", "g2"), ("P2", "g1"), ("P3", "g2")]
    idx = make_index(papers, ships, edges)

    metrics = compute_all_metrics(idx, no_fields({"E", "F", "G"}))
    assert metrics["E"].a50pc == 1 and metrics["E"].citations == 2 and metrics["E"].h_index == 1
    assert metrics["F"].a50pc == 5 and metrics["F"].citations == 10
    assert metrics["G"].a50pc == 1 and metrics["G"].citations == 4
    assert metrics["G"].h_index == 2
    assert metrics["G"].c_over_h2 == 1


def test_compute_all_metrics_invariants_on_random_corpora():
    rng = random.Random(11)
    checked = 0
    for _ in range(50):
        idx = random_corpus(rng)
        views = decode_index(idx)
        cohort = [
            a
            for a in views.papers_of
            if any(views.citers_of.get(p) for p in views.papers_of[a])
        ][:5]
        try:
            metrics = compute_all_metrics(idx, no_fields(cohort))
        except UndefinedMetricError:
            continue
        for m in metrics.values():
            assert m.h_index <= m.n_full_papers
            if m.h_index > 0:
                assert m.citations >= m.h_index**2
                assert m.c_over_h2 >= 1
            assert m.a50pc >= 1
            assert m.a50 >= 0
            checked += 1
    assert checked > 50
