from __future__ import annotations

import dataclasses
import gc
import random

import pytest

from citegraph.corpus import (
    CorpusError,
    DocType,
    FULL_PAPER_TYPES,
    FieldTaxonomy,
    SubfieldInfo,
    build_index,
)

from conftest import decode_index, make_index, random_corpus, tiny_taxonomy


def test_build_small_index():
    idx = make_index(
        papers=[("p1", "article", "102"), ("p2", "article", None), ("p3", "review", "201")],
        authorships=[("p1", "a1"), ("p2", "a2"), ("p3", "a1"), ("p3", "a2")],
        citations=[("p2", "p1"), ("p3", "p1")],
    )
    views = decode_index(idx)
    assert len(views.papers) == 3
    assert views.citers_of["p1"] == ("p2", "p3")
    assert views.papers_of["a1"] == ("p1", "p3")
    assert views.authors_of["p3"] == ("a1", "a2")
    assert idx.n_edges == 2
    assert idx.dropped_unknown_edges == 0


@pytest.mark.parametrize("name", ["n_edges", "subfields", "papers_with_unknown_subfield"])
def test_index_refuses_assignment(name):
    idx = make_index(
        papers=[("p1", "article", "102"), ("p2", "article", None)],
        authorships=[("p1", "a1")],
        citations=[("p2", "p1")],
    )
    before = getattr(idx, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(idx, name, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        idx.citers_of.targets = None
    assert getattr(idx, name) is before
    assert repr(idx).startswith("<citegraph.corpus.CorpusIndex object at ")


def test_edge_to_unknown_paper_dropped_with_count():
    idx = make_index(
        papers=[("p1", "article", None)],
        authorships=[("p1", "a1")],
        citations=[("p1", "p9"), ("p9", "p1")],
    )
    assert idx.n_edges == 0
    assert idx.dropped_unknown_edges == 2


def test_duplicate_rows_collapse():
    idx = make_index(
        papers=[("p1", "article", "102"), ("p1", "article", "102"), ("p2", "article", None)],
        authorships=[("p1", "a1"), ("p1", "a1")],
        citations=[("p2", "p1"), ("p2", "p1")],
    )
    views = decode_index(idx)
    assert views.papers_of["a1"] == ("p1",)
    assert views.citers_of["p1"] == ("p2",)
    assert idx.n_edges == 1


def test_conflicting_duplicate_paper_is_hard_error():
    with pytest.raises(CorpusError, match="p1"):
        make_index(
            papers=[("p1", "article", "102"), ("p1", "review", "102")],
            authorships=[],
            citations=[],
        )
    with pytest.raises(CorpusError, match="p1"):
        make_index(
            papers=[("p1", "article", "102"), ("p1", "article", "201")],
            authorships=[],
            citations=[],
        )
    with pytest.raises(CorpusError, match="p1"):
        make_index(
            papers=[("p1", "article", "102"), ("p1", "article", None)],
            authorships=[],
            citations=[],
        )


def test_self_loop_edges_dropped_at_build():
    idx = make_index(
        papers=[("p1", "article", None)],
        authorships=[("p1", "a1")],
        citations=[("p1", "p1")],
    )
    assert idx.n_edges == 0
    assert idx.dropped_self_loops == 1


def test_authorship_for_unknown_paper_dropped_with_count():
    idx = make_index(
        papers=[("p1", "article", None)],
        authorships=[("p1", "a1"), ("p9", "a1")],
        citations=[],
    )
    assert decode_index(idx).papers_of["a1"] == ("p1",)
    assert idx.dropped_unknown_authorships == 1


@pytest.mark.parametrize(
    "doc_type,expected",
    [
        (DocType.ARTICLE, True),
        (DocType.CONFERENCE_PAPER, True),
        (DocType.REVIEW, True),
        (DocType.OTHER, False),
    ],
    ids=lambda v: f"DocType.{v.name}" if isinstance(v, DocType) else None,
)
def test_is_full_paper(doc_type, expected):
    assert (doc_type in FULL_PAPER_TYPES) is expected


def test_doc_type_from_string_folds_case_and_defaults_to_other():
    assert DocType.from_string("Article") is DocType.ARTICLE
    assert DocType.from_string("REVIEW") is DocType.REVIEW
    assert DocType.from_string("conference_paper") is DocType.CONFERENCE_PAPER
    assert DocType.from_string("editorial") is DocType.OTHER
    assert DocType.from_string("") is DocType.OTHER


def test_doc_type_bytes_are_doc_type_values():
    papers = [
        ("p3", DocType.OTHER, None),
        ("p1", DocType.REVIEW, "102"),
        ("p4", DocType.ARTICLE, "201"),
        ("p2", DocType.CONFERENCE_PAPER, None),
    ]
    idx = build_index(papers, [], [], tiny_taxonomy())
    # Papers in sorted id order: p1, p2, p3, p4.
    assert list(idx.doc_types) == [DocType.REVIEW, DocType.CONFERENCE_PAPER, DocType.OTHER, DocType.ARTICLE]


def test_round_trip_reproduces_deduplicated_records():
    papers = [("p1", DocType.ARTICLE, "102"), ("p2", DocType.REVIEW, None)]
    ships = [("p1", "a1"), ("p2", "a1"), ("p1", "a2")]
    edges = [("p2", "p1")]
    idx = build_index(papers + papers, ships + ships, edges + edges, tiny_taxonomy())
    views = decode_index(idx)
    assert views.papers == {
        "p1": (DocType.ARTICLE, "102"),
        "p2": (DocType.REVIEW, None),
    }
    assert views.authors_of == {"p1": ("a1", "a2"), "p2": ("a1",)}
    assert views.citers_of == {"p1": ("p2",)}
    assert idx.n_edges == 1


def test_inverse_maps_and_determinism_on_random_corpora():
    for seed in range(30):
        rng = random.Random(seed)
        idx = decode_index(random_corpus(rng, max_authors=20, max_edges=80))
        for author, papers in idx.papers_of.items():
            for p in papers:
                assert author in idx.authors_of[p]
        for p, authors in idx.authors_of.items():
            for a in authors:
                assert p in idx.papers_of[a]
        for cited, citers in idx.citers_of.items():
            assert cited in idx.papers
            for u in citers:
                assert u in idx.papers


def test_identical_inputs_any_order_build_identical_indexes():
    rng = random.Random(5)
    papers = [(f"p{i}", "article", None) for i in range(10)]
    ships = [(f"p{i}", f"a{i % 3}") for i in range(10)]
    edges = [(f"p{i}", f"p{(i + 1) % 10}") for i in range(10)]
    idx1 = make_index(papers, ships, edges)
    shuffled = (list(papers), list(ships), list(edges))
    for part in shuffled:
        rng.shuffle(part)
    idx2 = make_index(*shuffled)
    views1, views2 = decode_index(idx1), decode_index(idx2)
    assert views1.authors_of == views2.authors_of
    assert views1.papers_of == views2.papers_of
    assert views1.citers_of == views2.citers_of


def test_taxonomy_conflicting_subfield_errors():
    rows = [
        SubfieldInfo("102", "x", "F18", "Physics & Astronomy"),
        SubfieldInfo("102", "x", "F05", "Chemistry"),
    ]
    with pytest.raises(CorpusError, match="102"):
        FieldTaxonomy(rows)


def test_taxonomy_lookup():
    tax = tiny_taxonomy()
    info = tax.lookup("102")
    assert info.field_id == "F18"
    assert tax.lookup("201").field_id == "F05"
    assert tax.field_name("F06") == "Clinical Medicine"
    assert tax.lookup("999") is None
    assert len(tax) == 5


def test_subfields_hold_the_taxonomy_entry_and_unknown_ids_are_counted():
    """Subfields 102 (known), 999, 999 and 888 (unknown) and one empty value
    (unclassified, so not counted) give 3 papers over 2 unknown ids."""
    tax = tiny_taxonomy()
    subfields = ["102", "999", "999", "888", ""]
    idx = make_index([(f"p{i}", "article", s or None) for i, s in enumerate(subfields)], [], [])
    assert idx.subfields == [tax.lookup("102"), None, None, None, None]
    assert idx.papers_with_unknown_subfield == 3
    assert idx.unknown_subfield_ids == 2
    known = make_index([("p1", "article", "102"), ("p2", "review", None)], [], [])
    assert (known.papers_with_unknown_subfield, known.unknown_subfield_ids) == (0, 0)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_build_index_leaves_collector_as_found(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        make_index(papers=[("p1", "article", "102")], authorships=[("p1", "a1")], citations=[])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_build_index_reenables_collector_after_corpus_error():
    assert gc.isenabled()
    with pytest.raises(CorpusError):
        make_index(
            papers=[("p1", "article", "102"), ("p1", "review", "102")], authorships=[], citations=[]
        )
    assert gc.isenabled()
