"""Property tests: tail membership and co-occurrence cells against independent counts.

Cohorts are small random author -> AuthorMetrics mappings with many tied
values, a few fields, and exact-rational c_over_h2. The references here
recompute the nearest-rank threshold (the value at 1-based rank
ceil(p/100 * n) of the ascending sort) and every membership from scratch.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.metrics import AuthorMetrics
from citegraph.stats import (
    METRIC_NAMES,
    ContingencyTable,
    TailReport,
    TailSpec,
    cooccurrence,
    tail_members,
)

FIELDS = ("F1", "F2", "F3")

percentiles = st.one_of(
    st.integers(1, 50).map(Fraction),
    st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40),
)


@st.composite
def cohorts(draw) -> dict[str, AuthorMetrics]:
    n = draw(st.integers(1, 40))
    out = {}
    for i in range(n):
        author_id = f"a{i:02d}"
        out[author_id] = AuthorMetrics(
            author_id=author_id,
            n_full_papers=10,
            citations=100,
            h_index=5,
            c_over_h2=Fraction(draw(st.integers(4, 40)), draw(st.sampled_from((1, 2, 4)))),
            a50pc=draw(st.integers(1, 8)),
            a50=draw(st.integers(0, 5)),
            field_id=draw(st.sampled_from(FIELDS)),
            subfield_id=None,
        )
    return out


@st.composite
def specs(draw) -> TailSpec:
    return TailSpec(
        draw(st.sampled_from(METRIC_NAMES)),
        draw(st.sampled_from(("lower", "upper"))),
        draw(percentiles),
        frozenset(draw(st.sets(st.sampled_from(FIELDS), max_size=2))),
    )


def _nearest_rank(values: list, p: Fraction):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def _members(cohort: dict[str, AuthorMetrics], spec: TailSpec) -> set[str]:
    """Tail members of `spec` over `cohort`, whose exclusions are already applied."""
    values = {a: getattr(m, spec.metric) for a, m in cohort.items()}
    p = Fraction(spec.percentile)
    if spec.tail == "lower":
        threshold = _nearest_rank(list(values.values()), p)
        return {a for a, v in values.items() if v < threshold}
    threshold = _nearest_rank(list(values.values()), 100 - p)
    return {a for a, v in values.items() if v > threshold}


@settings(max_examples=300, deadline=None)
@given(cohorts(), specs())
def test_tail_members_lie_strictly_beyond_the_nearest_rank_threshold(metrics, spec):
    cohort = {a: m for a, m in metrics.items() if m.field_id not in spec.excluded_fields}
    report = tail_members(metrics, spec)
    if not cohort:
        assert report == TailReport(
            cohort_size=0,
            threshold=None,
            members=frozenset(),
            median=None,
            iqr=(None, None),
            field_allocation=(),
        )
        return
    p = Fraction(spec.percentile)
    values = [getattr(m, spec.metric) for m in cohort.values()]
    rank_p = p if spec.tail == "lower" else 100 - p
    assert report.threshold == _nearest_rank(values, rank_p)
    assert report.cohort_size == len(cohort)
    assert report.members <= cohort.keys()
    for a, m in cohort.items():
        value = getattr(m, spec.metric)
        if spec.tail == "lower":
            assert (a in report.members) == (value < report.threshold)
        else:
            assert (a in report.members) == (value > report.threshold)


@settings(max_examples=300, deadline=None)
@given(cohorts(), specs(), specs())
def test_cooccurrence_cells_count_joint_membership_on_the_shared_cohort(metrics, spec_a, spec_b):
    excluded = spec_a.excluded_fields | spec_b.excluded_fields
    shared = {a: m for a, m in metrics.items() if m.field_id not in excluded}
    table = cooccurrence(metrics, spec_a, spec_b)
    if not shared:
        assert table == ContingencyTable(
            a=0, b=0, c=0, d=0, odds_ratio=None, ci_low=None, ci_high=None, degenerate=True
        )
        return
    in_a, in_b = _members(shared, spec_a), _members(shared, spec_b)
    expected = (
        len(in_a & in_b),
        len(in_a - in_b),
        len(in_b - in_a),
        len(shared.keys() - in_a - in_b),
    )
    cells = (table.a, table.b, table.c, table.d)
    assert min(cells) >= 0
    assert cells == expected
