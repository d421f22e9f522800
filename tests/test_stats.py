from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from citegraph.metrics import AuthorMetrics
from citegraph.stats import (
    ContingencyTable,
    FieldAllocation,
    StatsError,
    TailReport,
    TailSpec,
    cooccurrence,
    enrichment_flags,
    histogram,
    percentile_threshold,
    round_sig2,
    tail_members,
)


def _author(author_id, *, ratio=Fraction(4), a50pc=30, a50=0, field="F01"):
    return AuthorMetrics(
        author_id=author_id,
        n_full_papers=10,
        citations=1000,
        h_index=15,
        c_over_h2=Fraction(ratio),
        a50pc=a50pc,
        a50=a50,
        field_id=field,
        subfield_id=None,
    )


# ---------------------------------------------------------------------------
# percentile_threshold
# ---------------------------------------------------------------------------

def test_percentile_on_uniform_ranks():
    values = list(range(1, 101))
    assert percentile_threshold(values, 1) == 1
    assert percentile_threshold(values, 50) == 50
    assert percentile_threshold(values, 99) == 99
    assert percentile_threshold(values, Fraction(1, 2)) == 1


def test_percentile_constant_data():
    assert percentile_threshold([5, 5, 5, 5], 25) == 5


def test_percentile_permutation_invariant_and_bounded():
    rng = random.Random(3)
    for _ in range(50):
        values = [rng.randint(0, 50) for _ in range(rng.randint(1, 40))]
        p = rng.choice((1, 5, 25, 50, 75, 99))
        shuffled = values[:]
        rng.shuffle(shuffled)
        t = percentile_threshold(values, p)
        assert t == percentile_threshold(shuffled, p)
        assert min(values) <= t <= max(values)


def test_percentile_rejects_bad_input():
    with pytest.raises(StatsError):
        percentile_threshold([], 50)
    with pytest.raises(StatsError):
        percentile_threshold([1], 0)
    with pytest.raises(StatsError):
        percentile_threshold([1], 100)


def test_percentile_refuses_floats():
    # Fraction(0.1) is 0.1000000000000000055..., whose nearest rank of 1000 is 2, not 1.
    assert percentile_threshold(range(1, 1001), Fraction(1, 10)) == 1
    with pytest.raises(StatsError, match="float"):
        percentile_threshold(range(1, 1001), 0.1)
    with pytest.raises(StatsError, match="float"):
        TailSpec("c_over_h2", "lower", 1.0)


# ---------------------------------------------------------------------------
# tail_members
# ---------------------------------------------------------------------------

def _planted_metrics():
    metrics = {}
    for i in range(398):
        metrics[f"bg{i:03d}"] = _author(f"bg{i:03d}", ratio=Fraction(3) + Fraction(i, 100))
    metrics["low0"] = _author("low0", ratio=Fraction(1))
    metrics["low1"] = _author("low1", ratio=Fraction(11, 10), field="F02")
    return metrics


def test_lower_tail_contains_planted_authors():
    metrics = _planted_metrics()
    report = tail_members(metrics, TailSpec("c_over_h2", "lower", 1))
    # rank ceil(1% of 400) = 4, so the threshold is the second background value
    assert report.threshold == Fraction(301, 100)
    assert {"low0", "low1"} <= report.members
    assert report.members == {"low0", "low1", "bg000"}
    assert report.cohort_size == 400


def test_tail_membership_is_strict():
    metrics = {f"a{i:03d}": _author(f"a{i:03d}", ratio=Fraction(i)) for i in range(1, 101)}
    report = tail_members(metrics, TailSpec("c_over_h2", "lower", 2))
    # threshold is the rank-2 value (2); only the value strictly below is in
    assert report.threshold == 2
    assert report.members == {"a001"}
    upper = tail_members(metrics, TailSpec("c_over_h2", "upper", 2))
    # threshold is the rank-98 value; members lie strictly above it
    assert upper.threshold == 98
    assert upper.members == {"a099", "a100"}


def test_excluded_fields_removed_before_thresholding():
    metrics = _planted_metrics()
    report = tail_members(metrics, TailSpec("c_over_h2", "lower", 1, frozenset({"F02"})))
    assert all(metrics[a].field_id != "F02" for a in report.members)
    assert report.cohort_size == 399
    assert "low1" not in report.members


def test_allocation_shares_sum_to_one():
    metrics = _planted_metrics()
    report = tail_members(metrics, TailSpec("c_over_h2", "lower", 5))
    assert math.isclose(sum(a.cohort_share for a in report.field_allocation), 1.0, abs_tol=1e-9)
    assert math.isclose(sum(a.tail_share for a in report.field_allocation), 1.0, abs_tol=1e-9)
    assert sum(a.tail_count for a in report.field_allocation) == len(report.members)
    assert sum(a.cohort_count for a in report.field_allocation) == report.cohort_size


def test_median_and_iqr_use_nearest_rank():
    metrics = {f"a{i}": _author(f"a{i}", ratio=Fraction(i)) for i in range(1, 101)}
    report = tail_members(metrics, TailSpec("c_over_h2", "lower", 1))
    assert report.median == 50
    assert report.iqr == (25, 75)


def test_fold_is_one_for_proportional_field():
    # two fields with identical tail and cohort proportions
    metrics = {}
    for i in range(50):
        metrics[f"x{i:02d}"] = _author(f"x{i:02d}", ratio=Fraction(i), field="F01")
        metrics[f"y{i:02d}"] = _author(f"y{i:02d}", ratio=Fraction(i), field="F02")
    report = tail_members(metrics, TailSpec("c_over_h2", "lower", 10))
    for alloc in report.field_allocation:
        assert math.isclose(alloc.fold, 1.0)


def test_tail_spec_validation():
    with pytest.raises(StatsError):
        TailSpec("nope", "lower", 1)
    with pytest.raises(StatsError):
        TailSpec("a50", "sideways", 1)
    with pytest.raises(StatsError):
        TailSpec("a50", "upper", 51)


# ---------------------------------------------------------------------------
# enrichment
# ---------------------------------------------------------------------------

def _report_from_shares(shares):
    """shares: field -> (cohort_share, tail_share); counts scaled to 10000."""
    allocation = tuple(
        FieldAllocation(
            field_id=field,
            cohort_count=round(cs * 10_000),
            tail_count=round(ts * 10_000),
            cohort_share=cs,
            tail_share=ts,
        )
        for field, (cs, ts) in sorted(shares.items())
    )
    return TailReport(
        cohort_size=10_000,
        threshold=Fraction(1),
        members=frozenset(),
        median=Fraction(4),
        iqr=(Fraction(3), Fraction(6)),
        field_allocation=allocation,
    )


def test_enrichment_folds_from_reference_shares():
    report = _report_from_shares(
        {
            "Chemistry": (0.0613, 0.1380),
            "Clinical Medicine": (0.3871, 0.2920),
            "Biomedical Research": (0.1266, 0.1219),
        }
    )
    chem = next(a for a in report.field_allocation if a.field_id == "Chemistry")
    assert abs(chem.fold - 2.25) <= 0.01
    assert enrichment_flags(report) == {"Chemistry"}


def test_enrichment_requires_nonzero_tail_count():
    report = _report_from_shares({"F01": (0.00001, 0.0)})
    assert enrichment_flags(report) == set()


def test_enrichment_equal_shares_not_flagged():
    report = _report_from_shares({"F01": (0.5, 0.5), "F02": (0.5, 0.5)})
    assert enrichment_flags(report) == set()


def test_enrichment_cutoff_is_strict():
    report = _report_from_shares({"F01": (0.2, 0.3000001), "F02": (0.8, 0.6999999)})
    assert enrichment_flags(report) == {"F01"}
    report2 = _report_from_shares({"F01": (0.2, 0.3), "F02": (0.8, 0.7)})
    assert enrichment_flags(report2) == set()  # fold exactly 1.5


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_counts_and_exclusions():
    hist = histogram([1, 1, 2, 9], 1, 0, 5)
    assert hist.bins == ((0, 0), (1, 2), (2, 1), (3, 0), (4, 0))
    assert hist.n_above == 1
    assert hist.n_below == 0


def test_histogram_empty_values_all_zero_bins():
    hist = histogram([], 1, 0, 3)
    assert hist.bins == ((0, 0), (1, 0), (2, 0))


def test_histogram_fraction_values_and_width():
    values = [Fraction(1, 4), Fraction(1, 2), Fraction(19, 4), Fraction(39, 2)]
    hist = histogram(values, Fraction(1, 4), 0, 20)
    assert hist.bins[1] == (Fraction(1, 4), 1)
    assert hist.bins[2] == (Fraction(1, 2), 1)
    assert hist.n_above == 0
    assert len(hist.bins) == 80


def test_histogram_boundary_values():
    hist = histogram([0, 5, -1], 1, 0, 5)
    assert hist.bins[0] == (0, 1)  # min is included
    assert hist.n_above == 1  # max is excluded
    assert hist.n_below == 1


def test_histogram_validation():
    with pytest.raises(StatsError):
        histogram([1], 0, 0, 5)
    with pytest.raises(StatsError):
        histogram([1], 1, 5, 5)


# ---------------------------------------------------------------------------
# contingency tables
# ---------------------------------------------------------------------------

REFERENCE_TABLES = [
    ((659, 12566, 10618, 1298809), Decimal("6.4"), Decimal("5.9"), Decimal("6.9")),
    ((11, 13214, 12004, 1297423), Decimal("0.09"), Decimal("0.05"), Decimal("0.16")),
    ((151, 11126, 11864, 1299511), Decimal("1.5"), Decimal("1.3"), Decimal("1.7")),
]


@pytest.mark.parametrize("cells,or_2sf,lo_2sf,hi_2sf", REFERENCE_TABLES)
def test_reference_odds_ratios(cells, or_2sf, lo_2sf, hi_2sf):
    table = ContingencyTable.from_counts(*cells)
    assert table.odds_ratio == Fraction(cells[0] * cells[3], cells[1] * cells[2])
    assert round_sig2(table.odds_ratio) == or_2sf
    assert round_sig2(table.ci_low) == lo_2sf
    assert round_sig2(table.ci_high) == hi_2sf
    assert not table.degenerate


def test_symmetric_table_or_is_one():
    table = ContingencyTable.from_counts(10, 10, 10, 10)
    assert table.odds_ratio == 1
    assert table.ci_low < 1 < table.ci_high


def test_zero_cell_is_degenerate_without_silent_correction():
    table = ContingencyTable.from_counts(0, 10, 10, 10)
    assert table.degenerate
    assert table.odds_ratio == 0
    assert table.ci_low is None and table.ci_high is None
    table2 = ContingencyTable.from_counts(10, 0, 10, 10)
    assert table2.degenerate
    assert table2.odds_ratio is None


def _cooccur_metrics():
    rng = random.Random(17)
    metrics = {}
    for i in range(400):
        low_ratio = i < 60
        low_a50pc = (i < 40) or (100 <= i < 120)
        metrics[f"a{i:03d}"] = _author(
            f"a{i:03d}",
            ratio=Fraction(2) + (0 if low_ratio else Fraction(2 + rng.randint(0, 50), 10)),
            a50pc=3 if low_a50pc else 40 + rng.randint(0, 60),
            field="F01" if i % 4 else "F02",
        )
    return metrics


def test_cooccurrence_cells_partition_cohort_and_or_is_transpose_invariant():
    metrics = _cooccur_metrics()
    spec_a = TailSpec("c_over_h2", "lower", 20)
    spec_b = TailSpec("a50pc", "lower", 20)
    table = cooccurrence(metrics, spec_a, spec_b)
    assert table.a + table.b + table.c + table.d == len(metrics)
    flipped = cooccurrence(metrics, spec_b, spec_a)
    assert table.odds_ratio == flipped.odds_ratio
    assert (table.b, table.c) == (flipped.c, flipped.b)


def test_cooccurrence_uses_union_of_exclusions():
    metrics = _cooccur_metrics()
    spec_a = TailSpec("c_over_h2", "lower", 20)
    spec_b = TailSpec("a50pc", "lower", 20, frozenset({"F02"}))
    table = cooccurrence(metrics, spec_a, spec_b)
    n_f01 = sum(1 for m in metrics.values() if m.field_id == "F01")
    assert table.a + table.b + table.c + table.d == n_f01


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_round_sig2():
    assert round_sig2(6.414915) == Decimal("6.4")
    assert round_sig2(0.089973) == Decimal("0.09")
    assert round_sig2(0.049801) == Decimal("0.05")
    assert round_sig2(6.95) == Decimal("7.0")
    assert round_sig2(1.25) == Decimal("1.2")  # half to even
    assert round_sig2(1.35) == Decimal("1.4")
    assert round_sig2(Fraction(1024, 1024)) == Decimal("1.0")
    assert round_sig2(0) == 0
