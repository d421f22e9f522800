"""Percentile tails, field enrichment, histograms, and tail co-occurrence.

All functions here are pure over a materialized author -> AuthorMetrics
mapping. Thresholds use the nearest-rank percentile (the value at 1-based
rank ceil(p/100 * n) of the ascending sort), which is exact on integer-valued
indicators and needs no interpolation. Tail membership is strict: lower-tail
members lie strictly below the threshold, upper-tail members strictly above.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CitegraphError
from .metrics import AuthorMetrics

METRIC_NAMES = ("c_over_h2", "a50pc", "a50")
TAILS = ("lower", "upper")
#: A field is enriched in a tail when its fold is strictly above this.
FOLD_CUTOFF = Fraction(3, 2)


class StatsError(CitegraphError):
    pass


@dataclass(frozen=True)
class TailSpec:
    """Which extreme of which indicator to report, and on which cohort."""

    metric: str
    tail: str
    percentile: Fraction | int = 1
    excluded_fields: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.metric not in METRIC_NAMES:
            raise StatsError(f"unknown metric {self.metric!r}; expected one of {METRIC_NAMES}")
        if self.tail not in TAILS:
            raise StatsError(f"unknown tail {self.tail!r}; expected 'lower' or 'upper'")
        if not 0 < _exact(self.percentile) <= 50:
            raise StatsError("percentile must be in (0, 50]")
        object.__setattr__(self, "excluded_fields", frozenset(self.excluded_fields))


@dataclass(frozen=True)
class FieldAllocation:
    """One field's share of the cohort versus its share of the tail, as exact
    fractions of the counts, so the fold compares with FOLD_CUTOFF exactly."""

    field_id: str | None
    cohort_count: int
    tail_count: int
    cohort_share: Fraction
    tail_share: Fraction

    @property
    def fold(self) -> Fraction:
        return self.tail_share / self.cohort_share


@dataclass(frozen=True)
class TailReport:
    """One tail on its cohort; a cohort of size 0 has None statistics and no rows."""

    cohort_size: int
    threshold: Fraction | int | None
    members: frozenset[str]
    median: Fraction | int | None
    iqr: tuple[Fraction | int | None, Fraction | int | None]
    field_allocation: tuple[FieldAllocation, ...]


def _exact(p: Fraction | int) -> Fraction:
    """`p` as a Fraction; a float is refused, since Fraction() takes its binary value."""
    if isinstance(p, float):
        raise StatsError(f"percentile {p!r} is a float; pass a Fraction or an int")
    return Fraction(p)


def percentile_threshold(values: Sequence, p: Fraction | int):
    """Nearest-rank percentile: element at 1-based rank ceil(p/100 * n)."""
    if not values:
        raise StatsError("percentile of empty values is undefined")
    frac = _exact(p)
    if not 0 < frac < 100:
        raise StatsError("percentile must be in (0, 100)")
    ordered = sorted(values)
    scaled = frac * len(ordered) / 100
    rank = scaled.numerator // scaled.denominator
    if scaled.numerator % scaled.denominator:
        rank += 1
    return ordered[max(rank, 1) - 1]


def tail_members(metrics: Mapping[str, AuthorMetrics], spec: TailSpec) -> TailReport:
    """Threshold, members, summary, and per-field allocation for one tail.

    The threshold and summary statistics are computed on the cohort after
    removing authors in excluded fields. Fold is a field's tail share divided
    by its cohort share. A cohort left empty, by the exclusions or because no
    author is eligible, gives a report of size 0 with no statistics.
    """
    cohort = {a: m for a, m in metrics.items() if m.field_id not in spec.excluded_fields}
    if not cohort:
        return TailReport(
            cohort_size=0,
            threshold=None,
            members=frozenset(),
            median=None,
            iqr=(None, None),
            field_allocation=(),
        )
    values = {a: getattr(m, spec.metric) for a, m in cohort.items()}
    ordered = sorted(values.values())

    if spec.tail == "lower":
        threshold = percentile_threshold(ordered, spec.percentile)
        members = frozenset(a for a, v in values.items() if v < threshold)
    else:
        threshold = percentile_threshold(ordered, 100 - Fraction(spec.percentile))
        members = frozenset(a for a, v in values.items() if v > threshold)

    cohort_fields = Counter(m.field_id for m in cohort.values())
    tail_fields = Counter(cohort[a].field_id for a in members)
    n_cohort = len(cohort)
    n_tail = len(members)
    allocation = tuple(
        FieldAllocation(
            field_id=fid,
            cohort_count=cohort_fields[fid],
            tail_count=tail_fields[fid],
            cohort_share=Fraction(cohort_fields[fid], n_cohort),
            tail_share=Fraction(tail_fields[fid], n_tail) if n_tail else Fraction(0),
        )
        for fid in sorted(cohort_fields, key=lambda f: (f is None, f))
    )
    return TailReport(
        cohort_size=n_cohort,
        threshold=threshold,
        members=members,
        median=percentile_threshold(ordered, 50),
        iqr=(percentile_threshold(ordered, 25), percentile_threshold(ordered, 75)),
        field_allocation=allocation,
    )


def enrichment_flags(report: TailReport) -> set[str]:
    """Fields over-represented in the tail: fold above FOLD_CUTOFF and tail count > 0."""
    return {
        alloc.field_id
        for alloc in report.field_allocation
        if alloc.field_id is not None and alloc.tail_count > 0 and alloc.fold > FOLD_CUTOFF
    }


@dataclass(frozen=True)
class Histogram:
    bins: tuple[tuple[Fraction, int], ...]
    n_below: int
    n_above: int


def histogram(values: Sequence, bin_width, lo, hi) -> Histogram:
    """Left-closed right-open bins over [lo, hi); out-of-range values counted separately."""
    width = Fraction(bin_width)
    low = Fraction(lo)
    high = Fraction(hi)
    if width <= 0:
        raise StatsError("bin_width must be > 0")
    if low >= high:
        raise StatsError("min must be < max")
    span = (high - low) / width
    n_bins = span.numerator // span.denominator + (1 if span.numerator % span.denominator else 0)
    counts = [0] * n_bins
    n_below = 0
    n_above = 0
    for v in values:
        frac = Fraction(v)
        if frac < low:
            n_below += 1
        elif frac >= high:
            n_above += 1
        else:
            counts[int((frac - low) / width)] += 1
    bins = tuple((low + i * width, counts[i]) for i in range(n_bins))
    return Histogram(bins=bins, n_below=n_below, n_above=n_above)


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 joint tail membership with odds ratio and 95% confidence interval.

    Cells: a = in both tails, b = first tail only, c = second tail only,
    d = neither. The interval is computed on the log scale with the log
    odds-ratio variance estimated as 1/a - 1/(a+b) + 1/c - 1/(c+d) and
    z = 1.96. Any zero cell marks the table degenerate: the ratio and
    interval are omitted rather than silently continuity-corrected.
    """

    a: int
    b: int
    c: int
    d: int
    odds_ratio: Fraction | None
    ci_low: float | None
    ci_high: float | None
    degenerate: bool

    @classmethod
    def from_counts(cls, a: int, b: int, c: int, d: int) -> "ContingencyTable":
        if min(a, b, c, d) < 0:
            raise StatsError("contingency cells must be >= 0")
        degenerate = min(a, b, c, d) == 0
        odds_ratio = Fraction(a * d, b * c) if b * c > 0 else None
        ci_low = ci_high = None
        if not degenerate:
            log_or = math.log(a) + math.log(d) - math.log(b) - math.log(c)
            var = 1.0 / a - 1.0 / (a + b) + 1.0 / c - 1.0 / (c + d)
            half = 1.96 * math.sqrt(var)
            ci_low = math.exp(log_or - half)
            ci_high = math.exp(log_or + half)
        return cls(
            a=a, b=b, c=c, d=d,
            odds_ratio=odds_ratio,
            ci_low=ci_low,
            ci_high=ci_high,
            degenerate=degenerate,
        )


def cooccurrence(
    metrics: Mapping[str, AuthorMetrics], spec_a: TailSpec, spec_b: TailSpec
) -> ContingencyTable:
    """Joint tail membership of two specs, evaluated on one shared cohort.

    Both tails are recomputed on the cohort that excludes the union of the
    two specs' excluded fields, so every author is classified by both specs
    and the four cells partition the whole cohort.
    """
    excluded = spec_a.excluded_fields | spec_b.excluded_fields
    report_a = tail_members(metrics, replace(spec_a, excluded_fields=excluded))
    report_b = tail_members(metrics, replace(spec_b, excluded_fields=excluded))
    in_a = report_a.members
    in_b = report_b.members
    n = report_a.cohort_size
    a = len(in_a & in_b)
    b = len(in_a) - a
    c = len(in_b) - a
    d = n - a - b - c
    return ContingencyTable.from_counts(a, b, c, d)


def round_sig2(value: Fraction | float | int) -> Decimal:
    """Round to 2 significant figures, half to even."""
    if value == 0:
        return Decimal(0)
    if value < 0:
        raise StatsError("negative values not supported")
    if isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(repr(float(value)))
    q = dec.quantize(Decimal(1).scaleb(dec.adjusted() - 1), rounding=ROUND_HALF_EVEN)
    if q.adjusted() > dec.adjusted():  # carried into the next power of ten: 10.0 -> 10
        q = q.quantize(Decimal(1).scaleb(q.adjusted() - 1))
    return q
