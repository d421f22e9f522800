"""Property tests: a50pc and a50 on team-shaped corpora, against naive references.

Each generated corpus has one examined author "e" and a small pool of citing
authors that includes "e". Citing papers come in groups that share one
author tuple: a multi-author team tuple (often many papers), single authors,
other small sets, and no authors at all. Citing papers may be of any
document type, and so may the examined author's own papers.

a50pc_greedy takes the gain of a candidate whose only citing team is its own
as it is, and every other candidate's from a heap, then counts the shortest
prefix of all the gains, sorted, that explains half. Separate corpora tie a
candidate of each kind, or have no multi-author citing team at all. The last
test checks every cohort author of a small synth corpus with a hyperteam.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph.cohort import EligibilityConfig, eligible_authors
from citegraph.corpus import FULL_PAPER_TYPES, build_index
from citegraph.metrics import (
    UndefinedMetricError,
    a50pc_greedy,
    a50pc_oracle,
)
from citegraph.synth import SynthConfig, generate

from conftest import coauthor_counts, decode_index, full_of, make_index

EXAMINED = "e"
POOL = ["a", "b", "c", "d", EXAMINED, "f"]
DOC_CODES = ["article", "article", "conference_paper", "review", "other"]


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
        papers.append((pid, "article" if i == 0 else draw(st.sampled_from(DOC_CODES)), None))
        ships.extend((pid, a) for a in {EXAMINED, *draw(author_sets)})

    def add_citing(authors, cited):
        pid = f"cit{len(papers):02d}"
        papers.append((pid, draw(st.sampled_from(DOC_CODES)), None))
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


def _cite_one_paper(groups: list[tuple[tuple[str, ...], int]]):
    """(papers, authorships, citations) rows in which "e" has one full paper
    and each (authors, n) group adds n citing papers by `authors`, citing it."""
    papers, ships, edges = [("own0", "article", None)], [("own0", EXAMINED)], []
    for authors, n_papers in groups:
        for _ in range(n_papers):
            pid = f"cit{len(papers):02d}"
            papers.append((pid, "article", None))
            ships.extend((pid, a) for a in authors)
            edges.append((pid, "own0"))
    return papers, ships, edges


def _a50pc_or_undefined(fn, index):
    try:
        return fn(index, EXAMINED)
    except UndefinedMetricError:
        return "undefined"


@settings(max_examples=300, deadline=None)
@given(team_corpora())
# selecting "a" assigns the team's weight; "b" and "c" have nothing of their
# own, so their entries are left stale at 0 when the heap loop stops
@example(_cite_one_paper([(("a", "b", "c"), 5), (("d",), 2), ((), 3)]))
def test_a50pc_greedy_matches_oracle_on_team_corpora(rows):
    index = make_index(*rows)
    greedy = _a50pc_or_undefined(lambda idx, a: a50pc_greedy(idx, full_of(idx, a)), index)
    assert greedy == _a50pc_or_undefined(a50pc_oracle, index)


@st.composite
def fixed_tie_corpora(draw):
    """Rows where the fixed contribution of f, whose only team is its own,
    equals the heap contribution of x, a member of the team (x, y); or, with
    no multi-author team, where f and x tie on single-author papers alone.

    f, x and y are drawn in any order, so either side of the tie may hold the
    smaller id. Other pool authors add single-author papers that may tie as
    well, and author-less papers fill up to no more than half the citations.
    Which side of a tie goes first cannot change the count, since selecting
    f lowers no other contribution; these corpora check that pooling the
    gains of the two sides neither skips nor double counts a candidate.
    """
    f, x, y, *rest = draw(st.permutations(POOL))
    w = draw(st.integers(1, 4))
    if draw(st.booleans()):
        groups = [((f,), w), ((x,), w), ((y,), draw(st.integers(0, w)))]
    else:
        shared = draw(st.integers(1, w))
        groups = [((f,), w), (tuple(sorted((x, y))), shared), ((x,), w - shared)]
        groups.append(((y,), draw(st.integers(0, w - shared))))
    groups += [((a,), draw(st.integers(0, w))) for a in rest]
    groups.append(((), draw(st.integers(0, 2 * w))))
    return _cite_one_paper(groups)


@settings(max_examples=300, deadline=None)
@given(fixed_tie_corpora())
# "c" (fixed) ties "a" and "b" (heap); the heap holds the smaller ids
@example(_cite_one_paper([(("a", "b"), 2), (("a",), 1), (("b",), 1), (("c",), 3), ((), 4)]))
# "a" (fixed) ties "c" (heap); the fixed side holds the smaller id
@example(_cite_one_paper([(("c", "d"), 2), (("c",), 1), (("a",), 3), (("d",), 1), ((), 3)]))
# "a" (heap) also has a paper of its own, whose weight it carries once
@example(_cite_one_paper([(("a", "b"), 1), (("a",), 2), (("c",), 3), (("d",), 1), (("f",), 1), ((), 8)]))
# "a" (heap) ties "d" (fixed) and its selection assigns every multi-author
# citation, so fixed candidates decide the rest of the count
@example(_cite_one_paper([(("a", "b"), 2), (("a", "c"), 2), (("d",), 4), (("f",), 2), ((), 10)]))
# every citing team is single-author, and three of them tie
@example(_cite_one_paper([(("a",), 2), (("b",), 2), (("c",), 2), (("d",), 1), ((), 3)]))
def test_a50pc_greedy_matches_oracle_when_fixed_and_heap_candidates_tie(rows):
    index = make_index(*rows)
    greedy = _a50pc_or_undefined(lambda idx, a: a50pc_greedy(idx, full_of(idx, a)), index)
    assert greedy == _a50pc_or_undefined(a50pc_oracle, index)


def test_a50pc_greedy_matches_oracle_on_every_cohort_author_of_a_team_corpus():
    """The toy collab corpus: a hyperteam of 10 with 60 joint papers, two
    self-citers and a cartel. Some cohort authors have a multi-author citing
    team and some have none, so a50pc_greedy runs its heap for some and takes
    the team weights as the gains for the rest."""
    corpus = generate(
        SynthConfig(seed=1, n_background_authors=60, n_self_citers=2, n_cartels=1,
                    cartel_size=2, n_hyperteams=1, team_size=10, joint_papers=60)
    )
    index = build_index(
        corpus.paper_rows(), corpus.authorship_rows(), corpus.citation_rows(), corpus.taxonomy
    )
    cohort = eligible_authors(index, EligibilityConfig())
    offsets, citers, teams = index.citer_offsets, index.citer_targets, index.teams

    def has_multi_author_citing_team(full):
        citing = {u for p in full for u in citers[offsets[p]:offsets[p + 1]]}
        return any(index.team_of[u] >= 0 and len(teams[index.team_of[u]]) > 1 for u in citing)

    assert {has_multi_author_citing_team(c.full) for c in cohort.values()} == {True, False}
    for author_id, cohort_author in cohort.items():
        assert a50pc_greedy(index, cohort_author.full) == a50pc_oracle(index, author_id), author_id


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
