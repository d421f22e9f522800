"""Citation-graph analytics: per-author indicators, tail reports, synthetic corpora."""

from .cohort import EligibilityConfig, assign_fields, eligible_authors
from .corpus import (
    CorpusError,
    CorpusIndex,
    DocType,
    FieldTaxonomy,
    SubfieldInfo,
    build_index,
)
from .errors import CitegraphError
from .ingest import (
    IngestError,
    IngestReport,
    parse_authorships,
    parse_citations,
    parse_papers,
    parse_taxonomy,
)
from .metrics import (
    AuthorMetrics,
    UndefinedMetricError,
    a50_coauthors,
    a50pc_greedy,
    a50pc_oracle,
    c_over_h2,
    compute_all_metrics,
    h_index,
)
from .stats import (
    ContingencyTable,
    FieldAllocation,
    Histogram,
    TailReport,
    TailSpec,
    cooccurrence,
    enrichment_flags,
    histogram,
    percentile_threshold,
    tail_members,
)
from .synth import GroundTruth, SynthConfig, evaluate_detection, generate, write_corpus

__version__ = "0.1.0"

__all__ = [
    "AuthorMetrics",
    "CitegraphError",
    "ContingencyTable",
    "CorpusError",
    "CorpusIndex",
    "DocType",
    "EligibilityConfig",
    "FieldAllocation",
    "FieldTaxonomy",
    "GroundTruth",
    "Histogram",
    "IngestError",
    "IngestReport",
    "SubfieldInfo",
    "SynthConfig",
    "TailReport",
    "TailSpec",
    "UndefinedMetricError",
    "a50_coauthors",
    "a50pc_greedy",
    "a50pc_oracle",
    "assign_fields",
    "build_index",
    "c_over_h2",
    "compute_all_metrics",
    "cooccurrence",
    "eligible_authors",
    "enrichment_flags",
    "evaluate_detection",
    "generate",
    "h_index",
    "histogram",
    "parse_authorships",
    "parse_citations",
    "parse_papers",
    "parse_taxonomy",
    "percentile_threshold",
    "tail_members",
    "write_corpus",
]
