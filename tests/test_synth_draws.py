"""The background citation placement consumes the RNG exactly as `randint`
and `randrange` would.

`synth._place_from_pool` and `_CitingPool.draw` write the draws of
`randint(2, 6)` and `randrange(n)` out inline. The reference below is the
placement written with those calls: a batch generator, a pool draw, and a
loop that cites one edge at a time. Same seed, same inputs: the same edges
in the same order, and the generator left in the same state.
"""

from __future__ import annotations

import random
from array import array

from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph.synth import (
    _CITING_BATCH,
    SynthCorpus,
    _Builder,
    _CitingPool,
    _place_from_pool,
    default_taxonomy,
)


def _reference_schedule_batches(rng: random.Random, targets):
    remaining = [(pid, c) for pid, c in targets if c > 0]
    while remaining:
        round_papers = [pid for pid, _ in remaining]
        i = 0
        while i < len(round_papers):
            k = rng.randint(*_CITING_BATCH)
            yield round_papers[i : i + k]
            i += k
        remaining = [(pid, c - 1) for pid, c in remaining if c > 1]


def _reference_draw(rng: random.Random, starts, papers, exclude_author_index, used):
    n = len(starts) - 1
    if n == 0 or (n == 1 and exclude_author_index == 0):
        return None
    for _ in range(1000):
        j = rng.randrange(n)
        if j == exclude_author_index:
            continue
        start = starts[j]
        n_papers = starts[j + 1] - start
        if not n_papers:
            continue
        u = papers[start + rng.randrange(n_papers)]
        if u in used:
            continue
        used.add(u)
        return u
    return None


def _reference_place(rng: random.Random, starts, papers, exclude_author_index, targets):
    citing, cited = array("i"), array("i")
    used: set[int] = set()
    for batch in _reference_schedule_batches(rng, targets):
        u = _reference_draw(rng, starts, papers, exclude_author_index, used)
        if u is None:
            break
        for p in batch:
            citing.append(u)
            cited.append(p)
    return citing, cited


def _pool_arrays(paper_counts: list[int]) -> tuple[array, array]:
    """One author per count, owning that many consecutive paper numbers from 100."""
    starts, papers = array("i", [0]), array("i")
    for count in paper_counts:
        papers.extend(range(100 + len(papers), 100 + len(papers) + count))
        starts.append(len(papers))
    return starts, papers


def _builder(seed: int) -> _Builder:
    return _Builder(rng=random.Random(seed), corpus=SynthCorpus(default_taxonomy()))


@st.composite
def placements(draw):
    """(seed, per-author paper counts, excluded author index, targets)."""
    paper_counts = draw(st.lists(st.integers(0, 6), min_size=0, max_size=12))
    n = len(paper_counts)
    excluded = draw(
        st.sampled_from([None, 0, n - 1, *range(n)]) if n else st.sampled_from([None, 0])
    )
    targets = draw(
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 9)), max_size=14)
    )
    return draw(st.integers(0, 2**32 - 1)), paper_counts, excluded, targets


@settings(max_examples=300, deadline=None)
@given(placements())
# A one-author pool that is also the excluded author: no draw at all.
@example((3, [4], 0, [(1, 3), (2, 5)]))
# One author with one paper: the second batch spends the 1000-try cap.
@example((5, [1], None, [(p, 2) for p in range(10)]))
# Authors without papers beside an excluded last author.
@example((11, [0, 2, 0, 3], 3, [(7, 0), (8, 4), (9, 0), (10, 6)]))
def test_placement_consumes_the_rng_as_randint_and_randrange_do(case):
    seed, paper_counts, excluded, targets = case
    starts, papers = _pool_arrays(paper_counts)
    builder = _builder(seed)
    _place_from_pool(builder, _CitingPool(builder.rng, starts, papers), excluded, targets)

    reference = random.Random(seed)
    citing, cited = _reference_place(reference, starts, papers, excluded, targets)
    assert builder.corpus.citing == citing
    assert builder.corpus.cited == cited
    assert builder.rng.getstate() == reference.getstate()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 5), min_size=0, max_size=8),
    st.data(),
)
def test_pool_draw_matches_the_reference_with_any_used_set(seed, paper_counts, data):
    """Used sets from empty to every pool paper; a full one spends the cap."""
    starts, papers = _pool_arrays(paper_counts)
    n = len(paper_counts)
    excluded = data.draw(st.sampled_from([None, *range(n)]) if n else st.just(None))
    used = set(data.draw(st.lists(st.sampled_from(papers.tolist())) if papers else st.just([])))
    if data.draw(st.booleans()):
        used = set(papers)
    rng, reference = random.Random(seed), random.Random(seed)
    pool = _CitingPool(rng, starts, papers)
    used_ref = set(used)
    for _ in range(3):
        assert pool.draw(excluded, used) == _reference_draw(
            reference, starts, papers, excluded, used_ref
        )
        assert used == used_ref
        assert rng.getstate() == reference.getstate()


# ---------------------------------------------------------------------------
# The rule, pinned to this interpreter's randrange and randint
# ---------------------------------------------------------------------------

SIZES = sorted({1, 2, 3, 5, 1000, *(2**k + d for k in (1, 2, 3, 7, 10, 16) for d in (-1, 0, 1))})
SEEDS = (0, 1, 7, 20240801)


def test_author_draw_equals_randrange():
    """n authors with one paper each, the paper numbered by its author: a
    draw returns randrange(n), then spends randrange(1) on the paper."""
    for n in SIZES:
        starts, papers = array("i", range(n + 1)), array("i", range(n))
        for seed in SEEDS:
            rng, reference = random.Random(seed), random.Random(seed)
            pool = _CitingPool(rng, starts, papers)
            drawn = [pool.draw(None, set()) for _ in range(20)]
            expected = [(reference.randrange(n), reference.randrange(1))[0] for _ in range(20)]
            assert drawn == expected, n
            assert rng.getstate() == reference.getstate(), n


def test_paper_draw_equals_randrange():
    """One author with n papers: a draw spends randrange(1) on the author,
    then returns paper randrange(n)."""
    for n in SIZES:
        starts, papers = array("i", [0, n]), array("i", range(n))
        for seed in SEEDS:
            rng, reference = random.Random(seed), random.Random(seed)
            pool = _CitingPool(rng, starts, papers)
            drawn = [pool.draw(None, set()) for _ in range(20)]
            expected = [(reference.randrange(1), reference.randrange(n))[1] for _ in range(20)]
            assert drawn == expected, n
            assert rng.getstate() == reference.getstate(), n


def test_batch_size_equals_randint():
    """A pool of one paper cites the first batch and then gives up, so the
    first batch's length is the first randint(*_CITING_BATCH)."""
    lo, hi = _CITING_BATCH
    starts, papers = array("i", [0, 1]), array("i", [100])
    targets = [(p, 1) for p in range(hi + 1)]
    sizes = set()
    for seed in range(40):
        builder = _builder(seed)
        _place_from_pool(builder, _CitingPool(builder.rng, starts, papers), None, targets)
        size = random.Random(seed).randint(lo, hi)
        assert len(builder.corpus.citing) == size, seed
        sizes.add(size)
    assert sizes == set(range(lo, hi + 1))
