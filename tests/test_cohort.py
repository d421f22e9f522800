from __future__ import annotations

import pytest

from citegraph.cohort import (
    CohortConfigError,
    EligibilityConfig,
    assign_fields,
    eligible_authors,
)

from conftest import make_index


def _corpus_with_author(n_papers: int, n_citations: int, subfield="102"):
    """One author A with n_papers articles; all citations land on the first paper."""
    papers = [(f"p{i}", "article", subfield) for i in range(n_papers)]
    ships = [(f"p{i}", "A") for i in range(n_papers)]
    papers += [(f"x{i}", "article", None) for i in range(n_citations)]
    ships += [(f"x{i}", "X") for i in range(n_citations)]
    edges = [(f"x{i}", "p0") for i in range(n_citations)]
    return make_index(papers, ships, edges)


def test_eligible_at_exact_thresholds():
    idx = _corpus_with_author(6, 1000)
    assert "A" in eligible_authors(idx, EligibilityConfig())


def test_paper_threshold_is_strict():
    idx = _corpus_with_author(5, 10_000)
    assert "A" not in eligible_authors(idx, EligibilityConfig())


def test_citation_threshold_is_inclusive_boundary():
    idx = _corpus_with_author(20, 999)
    assert "A" not in eligible_authors(idx, EligibilityConfig())


def test_authors_without_field_are_excluded():
    idx = _corpus_with_author(6, 1000, subfield=None)
    assert "A" not in eligible_authors(idx, EligibilityConfig())


def test_unclassified_citing_author_excluded_by_its_own_metrics():
    idx = _corpus_with_author(6, 1000)
    # X has plenty of papers but none classified and few citations anyway
    assert eligible_authors(idx, EligibilityConfig()).keys() == {"A"}


def test_only_full_papers_count_toward_eligibility():
    papers = [(f"p{i}", "other", "102") for i in range(10)]
    ships = [(f"p{i}", "A") for i in range(10)]
    idx = make_index(papers, ships, [])
    assert "A" not in eligible_authors(idx, EligibilityConfig(min_citations=0))


def test_thresholds_are_configurable():
    idx = _corpus_with_author(3, 5)
    assert "A" in eligible_authors(idx, EligibilityConfig(min_full_papers=2, min_citations=5))


def test_negative_thresholds_rejected():
    with pytest.raises(CohortConfigError):
        EligibilityConfig(min_full_papers=-1)


def _field_corpus(field_papers, citations_per_paper=None):
    """field_papers: list of (paper_id, subfield); author A owns them all."""
    papers = [(pid, "article", sub) for pid, sub in field_papers]
    ships = [(pid, "A") for pid, _ in field_papers]
    edges = []
    if citations_per_paper:
        n = 0
        for pid, count in citations_per_paper.items():
            for _ in range(count):
                papers.append((f"c{n}", "article", None))
                ships.append((f"c{n}", "C"))
                edges.append((f"c{n}", pid))
                n += 1
    return make_index(papers, ships, edges)


def voted_field(idx, author_id, seed):
    """The field eligible_authors votes for `author_id` with no paper or
    citation threshold, or None when the author is not in the cohort."""
    cfg = EligibilityConfig(min_full_papers=0, min_citations=0, seed=seed)
    voted = eligible_authors(idx, cfg).get(author_id)
    return None if voted is None else voted.field


def test_assign_field_majority():
    idx = _field_corpus([("p1", "102"), ("p2", "103"), ("p3", "102"), ("p4", "201"), ("p5", "201")])
    field, subfield = voted_field(idx, "A", seed=0)
    assert field == "F18"
    assert subfield == "102"


def test_assign_field_citation_tie_break():
    idx = _field_corpus(
        [("p1", "102"), ("p2", "102"), ("p3", "201"), ("p4", "201")],
        citations_per_paper={"p1": 6, "p2": 4, "p3": 3, "p4": 2},
    )
    assert voted_field(idx, "A", seed=0)[0] == "F18"

    idx2 = _field_corpus(
        [("p1", "102"), ("p2", "102"), ("p3", "201"), ("p4", "201")],
        citations_per_paper={"p1": 1, "p3": 9},
    )
    assert voted_field(idx2, "A", seed=0)[0] == "F05"


def test_assign_field_random_tie_break_is_deterministic():
    idx = _field_corpus([("p1", "102"), ("p2", "201")])
    first = voted_field(idx, "A", seed=123)
    for _ in range(5):
        assert voted_field(idx, "A", seed=123) == first
    picks = {voted_field(idx, "A", seed=s)[0] for s in range(40)}
    assert picks == {"F18", "F05"}  # both sides reachable across seeds


def test_assign_subfield_random_tie_break_is_deterministic():
    # F18 wins outright; its subfields 102 and 103 tie on papers and on citations.
    idx = _field_corpus(
        [("p1", "102"), ("p2", "103"), ("p3", "201")],
        citations_per_paper={"p1": 2, "p2": 2},
    )
    picks = [voted_field(idx, "A", seed=s) for s in range(40)]
    assert [voted_field(idx, "A", seed=s) for s in range(40)] == picks
    assert set(picks) == {("F18", "102"), ("F18", "103")}  # both subfields reachable across seeds


def test_assign_field_strict_majority_unaffected_by_seed():
    idx = _field_corpus([("p1", "102"), ("p2", "102"), ("p3", "201")])
    assert {voted_field(idx, "A", seed=s) for s in range(20)} == {("F18", "102")}


def test_assign_subfield_majority_within_field():
    idx = _field_corpus([("p1", "102"), ("p2", "103"), ("p3", "103"), ("p4", "201")])
    field, subfield = voted_field(idx, "A", seed=0)
    assert (field, subfield) == ("F18", "103")


def test_assign_field_none_without_classified_papers():
    idx = _field_corpus([("p1", None), ("p2", None)])
    assert voted_field(idx, "A", seed=0) is None


def test_assign_field_ignores_non_full_papers():
    papers = [("p1", "other", "102"), ("p2", "article", "201")]
    ships = [("p1", "A"), ("p2", "A")]
    idx = make_index(papers, ships, [])
    assert voted_field(idx, "A", seed=0) == ("F05", "201")


def test_assign_field_unknown_subfield_treated_as_unclassified():
    idx = _field_corpus([("p1", "999"), ("p2", "201")])
    assert voted_field(idx, "A", seed=0) == ("F05", "201")


def test_assign_fields_batch_omits_unclassified():
    idx = _field_corpus([("p1", "102")])
    out = assign_fields(idx, ["A", "C"], seed=0)
    assert out == {"A": ("F18", "102")}
