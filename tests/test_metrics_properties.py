"""Property tests: a50pc and a50 on team-shaped corpora, against naive references.

Each corpus has one examined author "e" and a small pool of citing authors
that includes "e". Citing papers come in groups that share one author tuple:
a multi-author team tuple (often many papers), single authors, other small
sets, and no authors at all. Citing papers may be of any document type, and
so may the examined author's own papers.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.corpus import FULL_PAPER_TYPES
from citegraph.metrics import (
    UndefinedMetricError,
    a50pc_greedy,
    a50pc_oracle,
)

from conftest import coauthor_counts, decode_index, full_of, make_index

EXAMINED = "e"
POOL = ["a", "b", "c", "d", EXAMINED, "f"]
DOC_TYPES = ["article", "article", "conference_paper", "review", "other"]


def _tie_groups(draw, team: tuple[str, ...]) -> list[tuple[tuple[str, ...], int]]:
    """A team member x tied with two authors y and z, plus author-less papers.

    x shares w1 papers with y and w2 with z; y and z each add single-author
    papers up to x's w1 + w2. The author-less papers are just enough that y
    and z together explain half, while x and either of them do not, so on its
    own the group set needs one more selection when x wins the tie.
    """
    x = draw(st.sampled_from(team))
    others = st.sampled_from([a for a in POOL if a != x])
    y, z = draw(st.lists(others, min_size=2, max_size=2, unique=True))
    w1, w2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [
        (tuple(sorted((x, y))), w1),
        (tuple(sorted((x, z))), w2),
        ((y,), w2),
        ((z,), w1),
        ((), draw(st.integers(2 * max(w1, w2) + 1, 2 * (w1 + w2)))),
    ]


@st.composite
def team_corpora(draw):
    """(papers, authorships, citations) rows of a small team-shaped corpus."""
    team = tuple(sorted(draw(st.sets(st.sampled_from(POOL), min_size=2, max_size=5))))
    author_sets = st.one_of(
        st.just(team),
        st.sampled_from(POOL).map(lambda a: (a,)),
        st.just(()),
        st.sets(st.sampled_from(POOL), max_size=3).map(lambda s: tuple(sorted(s))),
    )

    papers, ships, edges = [], [], []
    own = [f"own{i}" for i in range(draw(st.integers(1, 3)))]
    for i, pid in enumerate(own):
        # own0 is always a full paper: each tie-group paper cites it alone.
        papers.append((pid, "article" if i == 0 else draw(st.sampled_from(DOC_TYPES)), None))
        ships.extend((pid, a) for a in {EXAMINED, *draw(author_sets)})

    def add_citing(authors, cited):
        pid = f"cit{len(papers):02d}"
        papers.append((pid, draw(st.sampled_from(DOC_TYPES)), None))
        ships.extend((pid, a) for a in authors)
        edges.extend((pid, v) for v in cited)

    if draw(st.booleans()):
        for authors, n_papers in _tie_groups(draw, team):
            for _ in range(n_papers):
                add_citing(authors, ["own0"])
    groups = [(team, draw(st.integers(0, 12)))]
    groups += draw(st.lists(st.tuples(author_sets, st.integers(1, 3)), max_size=6))
    cited_sets = st.lists(st.sampled_from(own), min_size=1, max_size=2, unique=True)
    for authors, n_papers in groups:
        for _ in range(n_papers):
            add_citing(authors, draw(cited_sets))
    # The examined author's own papers may cite each other.
    edges.extend(draw(st.lists(st.tuples(st.sampled_from(own), st.sampled_from(own)), max_size=4)))
    return papers, ships, edges


def _a50pc_or_undefined(fn, index):
    try:
        return fn(index, EXAMINED)
    except UndefinedMetricError:
        return "undefined"


@settings(max_examples=300, deadline=None)
@given(team_corpora())
def test_a50pc_greedy_matches_oracle_on_team_corpora(rows):
    index = make_index(*rows)
    greedy = _a50pc_or_undefined(lambda idx, a: a50pc_greedy(idx, full_of(idx, a)), index)
    assert greedy == _a50pc_or_undefined(a50pc_oracle, index)


@settings(max_examples=300, deadline=None)
@given(team_corpora())
def test_shared_coauthor_counts_matches_per_paper_count(rows):
    index = make_index(*rows)
    views = decode_index(index)
    expected: dict[str, int] = {}
    for p in views.papers_of.get(EXAMINED, ()):
        if views.papers[p][0] not in FULL_PAPER_TYPES:
            continue
        for other in views.authors_of[p]:
            if other != EXAMINED:
                expected[other] = expected.get(other, 0) + 1
    assert coauthor_counts(index, EXAMINED) == expected
