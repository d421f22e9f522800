"""Property tests: CSV text -> ingest parsers -> build_index, against a naive set-based reference."""

from __future__ import annotations

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.corpus import DocType, build_index
from citegraph.ingest import (
    AUTHORSHIPS_HEADER,
    CITATIONS_HEADER,
    PAPERS_HEADER,
    FileIngestStats,
    parse_authorships,
    parse_citations,
    parse_papers,
)

from conftest import decode_index, tiny_taxonomy

# A small id pool makes duplicates, self loops and unknown ids common. Two ids
# need CSV quoting.
PAPER_IDS = ["p0", "p1", "p2", "p3", "p4", 'x,"5', "p 6"]
AUTHOR_IDS = ["a0", "a1", "a2", "a,3"]
SUBFIELDS = ["102", "201", "301", ""]
SPELLINGS = {
    DocType.ARTICLE: ["article", "Article", " ARTICLE "],
    DocType.CONFERENCE_PAPER: ["conference_paper", "Conference_Paper"],
    DocType.REVIEW: ["review", "REVIEW"],
    DocType.OTHER: ["other", "editorial", ""],
}


def _csv(header: list[str], rows: list[tuple[str, ...]], quoting: int, newline: str) -> io.BytesIO:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator=newline)
    writer.writerow(header)
    writer.writerows(rows)
    return io.BytesIO(buf.getvalue().encode("utf-8"))


@st.composite
def corpora(draw):
    """Raw CSV rows of a small corpus, the expected (DocType, subfield) per paper and a CSV dialect."""
    papers = draw(
        st.dictionaries(
            st.sampled_from(PAPER_IDS),
            st.tuples(st.sampled_from(list(SPELLINGS)), st.sampled_from(SUBFIELDS)),
            max_size=len(PAPER_IDS) - 1,
        )
    )
    paper_rows = []
    for pid, (doc_type, subfield) in papers.items():
        for _ in range(draw(st.integers(1, 3))):
            paper_rows.append((pid, draw(st.sampled_from(SPELLINGS[doc_type])), subfield))
    ship_rows = draw(
        st.lists(st.tuples(st.sampled_from(PAPER_IDS), st.sampled_from(AUTHOR_IDS)), max_size=30)
    )
    edge_rows = draw(
        st.lists(st.tuples(st.sampled_from(PAPER_IDS), st.sampled_from(PAPER_IDS)), max_size=40)
    )
    expected = {
        pid: (doc_type, subfield or None)
        for pid, (doc_type, subfield) in papers.items()
    }
    dialect = (
        draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        draw(st.sampled_from(["\n", "\r\n", "\r"])),
    )
    return paper_rows, ship_rows, edge_rows, expected, dialect


def _ingest(paper_rows, ship_rows, edge_rows, dialect):
    stats = {name: FileIngestStats() for name in ("papers", "authorships", "citations")}
    index = build_index(
        parse_papers(_csv(PAPERS_HEADER, paper_rows, *dialect), stats["papers"]),
        parse_authorships(_csv(AUTHORSHIPS_HEADER, ship_rows, *dialect), stats["authorships"]),
        parse_citations(_csv(CITATIONS_HEADER, edge_rows, *dialect), stats["citations"]),
        tiny_taxonomy(),
    )
    return index, stats


def _reference(paper_rows, ship_rows, edge_rows, expected):
    """Every index field and parser stat, computed with sets and no streaming."""
    ships = {(p, a) for p, a in ship_rows if p in expected}
    edges = {(u, v) for u, v in edge_rows if u != v and u in expected and v in expected}
    n_self = sum(1 for u, v in edge_rows if u == v)
    index = {
        "papers": expected,
        "authors_of": {p: tuple(sorted(a for q, a in ships if q == p)) for p, _ in ships},
        "papers_of": {a: tuple(sorted(p for p, b in ships if b == a)) for _, a in ships},
        "citers_of": {v: tuple(sorted(u for u, w in edges if w == v)) for _, v in edges},
        "n_edges": len(edges),
        "dropped_unknown_edges": sum(
            1 for u, v in edge_rows if u != v and (u not in expected or v not in expected)
        ),
        "dropped_self_loops": 0,  # parse_citations drops them first
        "dropped_unknown_authorships": sum(1 for p, _ in ship_rows if p not in expected),
    }
    stats = {
        "papers": (len(paper_rows) + 1, len(paper_rows), {}),
        "authorships": (len(ship_rows) + 1, len(ship_rows), {}),
        "citations": (
            len(edge_rows) + 1,
            len(edge_rows) - n_self,
            {"self_loop": n_self} if n_self else {},
        ),
    }
    return index, stats


def _fields(index) -> dict:
    views = decode_index(index)
    return {
        "papers": views.papers,
        "authors_of": views.authors_of,
        "papers_of": views.papers_of,
        "citers_of": views.citers_of,
        "n_edges": index.n_edges,
        "dropped_unknown_edges": index.dropped_unknown_edges,
        "dropped_self_loops": index.dropped_self_loops,
        "dropped_unknown_authorships": index.dropped_unknown_authorships,
    }


@settings(max_examples=200, deadline=None)
@given(corpora(), st.randoms(use_true_random=False))
def test_ingest_to_index_matches_set_reference_in_any_row_order(corpus, rng):
    paper_rows, ship_rows, edge_rows, expected, dialect = corpus
    want_index, want_stats = _reference(paper_rows, ship_rows, edge_rows, expected)
    shuffled = [rng.sample(rows, len(rows)) for rows in (paper_rows, ship_rows, edge_rows)]
    for rows in ((paper_rows, ship_rows, edge_rows), shuffled):
        index, stats = _ingest(*rows, dialect)
        assert _fields(index) == want_index
        got_stats = {n: (s.rows_read, s.emitted, s.dropped) for n, s in stats.items()}
        assert got_stats == want_stats


def _arrays(index) -> dict:
    return {
        name: getattr(index, name)
        for name in (
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
        )
    }


def _strictly_increasing(seq) -> bool:
    return all(a < b for a, b in zip(seq, seq[1:]))


def _check_csr(offsets, targets, n_rows: int) -> None:
    # The documented layout: 64-bit offsets and 4-byte targets.
    assert (offsets.typecode, targets.typecode) == ("q", "i")
    assert len(offsets) == n_rows + 1
    assert offsets[0] == 0
    assert all(a <= b for a, b in zip(offsets, offsets[1:]))
    assert offsets[-1] == len(targets)
    for i in range(n_rows):
        assert _strictly_increasing(targets[offsets[i]:offsets[i + 1]])


@settings(max_examples=200, deadline=None)
@given(corpora(), st.randoms(use_true_random=False))
def test_csr_arrays_are_canonical_in_any_row_order(corpus, rng):
    paper_rows, ship_rows, edge_rows, expected, dialect = corpus
    authored = {p for p, _ in ship_rows if p in expected}
    shuffled = [rng.sample(rows, len(rows)) for rows in (paper_rows, ship_rows, edge_rows)]
    built = []
    for rows in ((paper_rows, ship_rows, edge_rows), shuffled):
        index, _ = _ingest(*rows, dialect)
        # Int ids are positions in the sorted string ids.
        assert index.paper_ids == tuple(sorted(expected))
        assert index.author_ids == tuple(sorted({a for p, a in ship_rows if p in expected}))
        n_papers, n_authors = len(index.paper_ids), len(index.author_ids)
        _check_csr(index.citer_offsets, index.citer_targets, n_papers)
        _check_csr(index.paper_offsets, index.paper_targets, n_authors)
        assert all(_strictly_increasing(team) for team in index.teams)
        assert len(set(index.teams)) == len(index.teams)
        assert index.team_of.typecode == "i"
        assert len(index.team_of) == n_papers
        for p, pid in enumerate(index.paper_ids):
            assert (index.team_of[p] == -1) == (pid not in authored)
        built.append(_arrays(index))
    assert built[0] == built[1]
