from __future__ import annotations

import hashlib
import statistics
import tracemalloc
from fractions import Fraction

import pytest

from citegraph.cohort import EligibilityConfig, eligible_authors
from citegraph.corpus import DocType, FieldTaxonomy, SubfieldInfo, build_index
from citegraph.ingest import parse_authorships, parse_citations, parse_papers
from citegraph.metrics import compute_all_metrics
from citegraph.synth import (
    LABEL_BACKGROUND,
    LABEL_CARTEL,
    LABEL_HYPERTEAM,
    LABEL_SELF_CITER,
    GroundTruth,
    SynthConfig,
    SynthConfigError,
    SynthCorpus,
    evaluate_detection,
    generate,
    read_truth,
    write_corpus,
    write_truth,
)

from conftest import coauthor_counts, decode_index

SMALL = SynthConfig(
    seed=7,
    n_background_authors=400,
    established_fraction=0.5,
    n_self_citers=3,
    n_cartels=1,
    cartel_size=4,
    n_hyperteams=1,
    team_size=6,
    joint_papers=55,
)


# sha256 of each file write_corpus(generate(SMALL)) writes. Any change to the
# order of RNG calls or to the written format shows up here.
SMALL_DIGESTS = {
    "papers": "3d9284ebf55942b2c62b6b2ae0a20ed3e5fefde79a3ed84ff4289156adc295ce",
    "authorships": "405ec8db42171fb02cfbcff8f95d7a5ec5d6fd42b8a714692af61e2930d55db2",
    "citations": "b653be054564c27930b90d6e9704e7aec4e6a2b54bc4f8a113baec55283b913b",
    "taxonomy": "3c3669597f344de7204e8dea25b9247b9f20d105ce9ebcbd6af41c25b5874eb2",
    "truth": "00e95d0c65275662465fd7232328e4109ce2a4942eb9b5d1746af96deab0b22f",
}


def _index(corpus):
    """build_index over a synth corpus's row iterators."""
    return build_index(
        corpus.paper_rows(), corpus.authorship_rows(), corpus.citation_rows(), corpus.taxonomy
    )


@pytest.fixture(scope="module")
def small_corpus():
    return generate(SMALL)


@pytest.fixture(scope="module")
def small_analysis(small_corpus):
    idx = _index(small_corpus)
    cohort = eligible_authors(idx, EligibilityConfig(seed=3))
    metrics = compute_all_metrics(idx, cohort)
    return idx, metrics


def test_same_seed_twice_is_byte_identical(tmp_path):
    cfg = SynthConfig(
        seed=5, n_background_authors=60, established_fraction=0.1,
        n_self_citers=1, n_cartels=1, cartel_size=3, n_hyperteams=0,
    )
    paths_a = write_corpus(generate(cfg), tmp_path / "a")
    paths_b = write_corpus(generate(cfg), tmp_path / "b")
    for name in paths_a:
        assert paths_a[name].read_bytes() == paths_b[name].read_bytes()


def test_different_seeds_differ(tmp_path):
    cfg_a = SynthConfig(seed=5, n_background_authors=60, established_fraction=0.1, n_self_citers=0, n_cartels=0, n_hyperteams=0)
    cfg_b = SynthConfig(seed=6, n_background_authors=60, established_fraction=0.1, n_self_citers=0, n_cartels=0, n_hyperteams=0)
    a = write_corpus(generate(cfg_a), tmp_path / "a")
    b = write_corpus(generate(cfg_b), tmp_path / "b")
    assert a["citations"].read_bytes() != b["citations"].read_bytes()


def test_small_corpus_files_match_golden_digests(tmp_path, small_corpus):
    paths = write_corpus(small_corpus, tmp_path)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == SMALL_DIGESTS


def test_generate_holds_at_most_16_bytes_per_citation_edge():
    tracemalloc.start()
    try:
        corpus = generate(SMALL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_edges = len(corpus.citing)
    assert n_edges > 300_000
    assert peak / n_edges <= 16, f"{peak / n_edges:.1f} bytes per edge"


def test_generate_holds_at_most_80_bytes_per_paper():
    # The sparse shape: many light authors with few citations, so papers,
    # not edges, dominate what generate holds.
    cfg = SynthConfig(
        seed=3, n_background_authors=2000, established_fraction=0.0035, light_citations=(0, 8),
        n_self_citers=0, n_cartels=0, n_hyperteams=0,
    )
    tracemalloc.start()
    try:
        corpus = generate(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.n_papers > 10_000
    assert peak / corpus.n_papers <= 80, f"{peak / corpus.n_papers:.1f} bytes per paper"


def test_written_files_parse_back_to_the_row_iterators(tmp_path, small_corpus):
    paths = write_corpus(small_corpus, tmp_path)
    for parse, name, rows in (
        (parse_papers, "papers", small_corpus.paper_rows),
        (parse_authorships, "authorships", small_corpus.authorship_rows),
        (parse_citations, "citations", small_corpus.citation_rows),
    ):
        with open(paths[name], "rb") as fh:
            assert list(parse(fh)) == list(rows()), name
    kinds = {(doc_type, subfield_id) for _, doc_type, subfield_id in small_corpus.paper_rows()}
    assert any(doc_type is DocType.OTHER for doc_type, _ in kinds)
    assert any(subfield_id is None for _, subfield_id in kinds)


def test_labels_partition_author_set(small_corpus):
    truth = small_corpus.truth
    authors = {author_id for _, author_id in small_corpus.authorship_rows()}
    assert set(truth.labels) == authors
    n = sum(len(truth.authors_with(l)) for l in
            (LABEL_BACKGROUND, LABEL_SELF_CITER, LABEL_CARTEL, LABEL_HYPERTEAM))
    assert n == len(truth)


def test_generated_corpus_indexes_cleanly(small_corpus):
    idx = _index(small_corpus)
    assert idx.dropped_unknown_edges == 0
    assert idx.dropped_self_loops == 0
    assert idx.dropped_unknown_authorships == 0
    assert idx.n_edges == len(small_corpus.citing)  # no duplicate edges generated


def test_planted_authors_are_eligible_and_extreme(small_corpus, small_analysis):
    _, metrics = small_analysis
    truth = small_corpus.truth
    small_scale = truth.authors_with(LABEL_SELF_CITER) | truth.authors_with(LABEL_CARTEL)
    background = truth.authors_with(LABEL_BACKGROUND)
    assert small_scale <= set(metrics)  # all eligible
    top_of_plants = max(metrics[a].c_over_h2 for a in small_scale)
    floor_of_background = min(metrics[a].c_over_h2 for a in background & set(metrics))
    assert top_of_plants <= Fraction(3, 2)
    assert floor_of_background > top_of_plants


def test_self_citers_receive_only_own_citations(small_corpus, small_analysis):
    idx = decode_index(small_analysis[0])
    for author in sorted(small_corpus.truth.authors_with(LABEL_SELF_CITER)):
        papers = idx.papers_of[author]
        citers = {u for p in papers for u in idx.citers_of.get(p, ())}
        assert citers  # they do have citations
        assert all(author in idx.authors_of[u] for u in citers)


def test_cartel_members_need_few_contributors(small_corpus, small_analysis):
    _, metrics = small_analysis
    for author in small_corpus.truth.authors_with(LABEL_CARTEL):
        assert metrics[author].a50pc <= SMALL.cartel_size


def test_hyperteam_members_share_papers(small_corpus, small_analysis):
    idx, metrics = small_analysis
    team = small_corpus.truth.authors_with(LABEL_HYPERTEAM)
    for author in team:
        assert metrics[author].a50 == SMALL.team_size - 1
        shared = coauthor_counts(idx, author)
        for other in team - {author}:
            assert shared[other] >= SMALL.joint_papers


def test_eligible_metric_invariants(small_analysis):
    _, metrics = small_analysis
    for m in metrics.values():
        assert m.citations >= m.h_index**2
        assert m.c_over_h2 >= 1
        assert m.a50pc >= 1


def test_background_ratio_distribution_shape(small_corpus, small_analysis):
    _, metrics = small_analysis
    background = small_corpus.truth.authors_with(LABEL_BACKGROUND)
    ratios = [float(metrics[a].c_over_h2) for a in background & set(metrics)]
    assert statistics.median(ratios) > 3
    assert min(ratios) >= 2.2


def test_truth_round_trip(tmp_path, small_corpus):
    path = tmp_path / "truth.csv"
    write_truth(path, small_corpus.truth)
    loaded = read_truth(path)
    assert dict(loaded.labels) == dict(small_corpus.truth.labels)


def test_infeasible_configs_rejected():
    with pytest.raises(SynthConfigError):
        SynthConfig(n_cartels=1, cartel_size=0)
    with pytest.raises(SynthConfigError):
        SynthConfig(n_hyperteams=1, joint_papers=50)
    with pytest.raises(SynthConfigError):
        SynthConfig(established_fraction=1.5)
    with pytest.raises(SynthConfigError):
        SynthConfig(n_background_authors=-1)


def test_paper_kinds_must_fit_in_one_byte():
    # 4 doc types x (63 subfields + unclassified) = 256 kinds fit; one more subfield does not.
    def taxonomy(n):
        return FieldTaxonomy(SubfieldInfo(f"s{i:03d}", "name", "F01", "field") for i in range(n))

    assert len(SynthCorpus(taxonomy(63)).kinds) == 256
    with pytest.raises(SynthConfigError, match="one byte per paper"):
        SynthCorpus(taxonomy(64))


def test_evaluate_detection_full_recall(small_corpus):
    truth = small_corpus.truth
    reports = {
        "c_over_h2": truth.authors_with(LABEL_SELF_CITER) | truth.authors_with(LABEL_CARTEL),
        "a50": truth.authors_with(LABEL_HYPERTEAM),
    }
    results = {r.motif: r for r in evaluate_detection(truth, reports)}
    assert results[LABEL_SELF_CITER].recall == 1.0
    assert results[LABEL_CARTEL].recall == 1.0
    assert results[LABEL_HYPERTEAM].recall == 1.0
    assert results[LABEL_HYPERTEAM].precision == 1.0


def test_evaluate_detection_without_plants_is_not_applicable():
    truth = GroundTruth(labels={"b1": (LABEL_BACKGROUND, "")})
    results = evaluate_detection(truth, {"c_over_h2": {"b1"}, "a50": set()})
    for r in results:
        assert r.recall is None
        assert r.n_planted == 0
    empty_tail = [r for r in results if r.tail_metric == "a50"]
    assert empty_tail[0].precision is None
