from __future__ import annotations

import csv
import dataclasses
import importlib
import json
import os
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph import cli, stats, synth
from citegraph.cli import RunConfig, main
from citegraph.cohort import EligibilityConfig
from citegraph.synth import SynthConfig

from conftest import full_of

SYNTH_ARGS = [
    "synth",
    "--seed", "21",
    "--background", "300",
    "--established-fraction", "0.4",
    "--self-citers", "2",
    "--cartels", "1",
    "--cartel-size", "3",
    "--hyperteams", "1",
    "--team-size", "4",
    "--joint-papers", "52",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(SYNTH_ARGS + ["--out", str(out)]) == 0
    return out


def _run_args(corpus_dir: Path, out_dir: Path, extra=()):
    return [
        "run",
        "--papers", str(corpus_dir / "papers.csv"),
        "--authorships", str(corpus_dir / "authorships.csv"),
        "--citations", str(corpus_dir / "citations.csv"),
        "--taxonomy", str(corpus_dir / "taxonomy.csv"),
        "--out", str(out_dir),
        *extra,
    ]


@pytest.fixture(scope="module")
def run_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(_run_args(corpus_dir, out)) == 0
    return out


def test_run_writes_all_report_files(run_dir):
    expected = {"metrics.csv", "cooccur.csv", "manifest.json", "timings.json"}
    for metric in ("c_over_h2", "a50pc", "a50"):
        expected |= {f"tail_{metric}.csv", f"allocation_{metric}.csv", f"hist_{metric}.csv"}
    assert expected <= {p.name for p in run_dir.iterdir()}


def test_metrics_csv_schema_and_sorting(run_dir):
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "cohort should not be empty"
    assert list(rows[0].keys()) == [
        "author_id", "field_id", "subfield_id", "n_full_papers",
        "citations", "h_index", "c_over_h2", "a50pc", "a50",
    ]
    ids = [r["author_id"] for r in rows]
    assert ids == sorted(ids)
    for r in rows:
        assert int(r["citations"]) >= 1000
        assert int(r["n_full_papers"]) > 5
        assert r["field_id"]
        float(r["c_over_h2"])
        assert len(r["c_over_h2"].split(".")[1]) == 2


def test_manifest_checksums_match_files(run_dir):
    manifest = json.loads((run_dir / "manifest.json").read_text())
    import hashlib

    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest
    assert manifest["index"]["dropped_unknown_edges"] == 0
    assert manifest["cohort"]["n_eligible"] == len(
        (run_dir / "metrics.csv").read_text().splitlines()
    ) - 1


def test_cooccur_has_three_pairs(run_dir):
    with open(run_dir / "cooccur.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["metric_a"], r["metric_b"]) for r in rows] == [
        ("c_over_h2", "a50pc"), ("c_over_h2", "a50"), ("a50pc", "a50"),
    ]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    n = manifest["cohort"]["n_eligible"]
    for r in rows:
        assert int(r["a"]) + int(r["b"]) + int(r["c"]) + int(r["d"]) == n


def test_cooccur_rounded_cells_are_plain_decimals():
    """An odds ratio of 3797/9 rounds to Decimal('4.2E+2'), whose str() is
    scientific; the cell spells it out."""
    table = stats.ContingencyTable.from_counts(20, 18, 10, 3797)
    cells = [cli._cell(stats.round_sig2(v)) for v in (table.odds_ratio, table.ci_low, table.ci_high)]
    assert cells == ["420", "210", "840"]
    assert [cli._cell(Decimal(v)) for v in ("0.09", "7.0", "1.2E-7", "0")] == [
        "0.09", "7.0", "0.00000012", "0",
    ]
    # rounding that carries into the next power of ten keeps two figures
    assert [cli._cell(stats.round_sig2(v)) for v in (9.96, 0.0996, 0.995, 99.7)] == [
        "10", "0.10", "1.0", "100",
    ]


def _exact_cell(num: int, den: int, places: int) -> str:
    """num/den with `places` decimals, the exact value rounded half to even."""
    rounded = round(Fraction(num, den), places)
    return f"{Decimal(rounded.numerator) / Decimal(rounded.denominator):.{places}f}"


@st.composite
def field_counts(draw):
    """(field_id, cohort count, tail count) per field; tails are cohort subsets."""
    rows = []
    for field_id in draw(st.lists(st.sampled_from(["F01", "F02", "F03", None]), min_size=1, unique=True)):
        cohort_count = draw(st.integers(1, 20_000))
        rows.append((field_id, cohort_count, draw(st.integers(0, cohort_count))))
    return rows


@settings(max_examples=300, deadline=None)
@given(field_counts())
# 1/640 of the cohort: the float of the share prints 0.001563.
@example([("F01", 1, 0), ("F02", 639, 1)])
# A fold of 49/160: its float prints 0.3063.
@example([("F01", 40, 1), ("F02", 9, 3)])
# A fold of exactly 3/2 is not flagged.
@example([("F01", 10, 5), ("F02", 11, 2)])
def test_allocation_cells_equal_cells_from_exact_counts(rows):
    n_cohort = sum(c for _, c, _ in rows)
    n_tail = sum(t for _, _, t in rows)
    report = stats.TailReport(
        cohort_size=n_cohort,
        threshold=1,
        members=frozenset(),
        median=1,
        iqr=(1, 1),
        field_allocation=tuple(
            stats.FieldAllocation(
                field_id=f,
                cohort_count=c,
                tail_count=t,
                cohort_share=Fraction(c, n_cohort),
                tail_share=Fraction(t, n_tail) if n_tail else Fraction(0),
            )
            for f, c, t in rows
        ),
    )
    printed = cli._allocation_rows(report, synth.default_taxonomy())
    expected = [
        [
            f or "",
            synth.default_taxonomy().field_name(f) or "",
            c,
            _exact_cell(c, n_cohort, 6),
            t,
            _exact_cell(t, max(n_tail, 1), 6),
            _exact_cell(t * n_cohort, c * max(n_tail, 1), 4),
            str(f is not None and t > 0 and 2 * t * n_cohort > 3 * c * n_tail).lower(),
        ]
        for f, c, t in rows
    ]
    assert printed == expected


def test_evaluate_prints_exact_recall_and_precision(tmp_path, capsys):
    """1 of 160 planted members found: recall 1/160 = 0.00625 exactly, whose
    float prints 0.0063 at 4 decimals and 0.006250 at 6."""
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "author_id,label,group_id\n"
        + "".join(f"t{k:03d},hyperteam_member,team00\n" for k in range(160))
    )
    run = tmp_path / "run"
    run.mkdir()
    for metric in ("c_over_h2", "a50pc"):
        (run / f"tail_{metric}.csv").write_text("author_id,value\n")
    (run / "tail_a50.csv").write_text("author_id,value\nt000,60\n")
    out = tmp_path / "evaluation.csv"
    args = ["evaluate", "--truth", str(truth), "--run-dir", str(run), "--out", str(out)]
    assert main(args) == 0
    assert "hyperteam_member: planted=160 detected=1 recall=0.0062 tail_size=1 precision=1.0000" in (
        capsys.readouterr().out
    )
    assert out.read_bytes().endswith(b"\nhyperteam_member,a50,160,1,0.006250,1,1.000000\n")


def test_rerun_is_byte_identical_except_timings(corpus_dir, run_dir, tmp_path):
    out2 = tmp_path / "run2"
    assert main(_run_args(corpus_dir, out2, extra=("--threads", "4"))) == 0
    for path in sorted(run_dir.iterdir()):
        if path.name == "timings.json":
            continue
        assert (out2 / path.name).read_bytes() == path.read_bytes(), path.name


def test_missing_input_file_fails_with_single_line_error(corpus_dir, tmp_path, capsys):
    args = _run_args(corpus_dir, tmp_path / "x")
    idx = args.index("--citations")
    args[idx + 1] = str(corpus_dir / "nope.csv")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: citations file not found: {corpus_dir / 'nope.csv'}\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads a pipe as /dev/fd/N")
@pytest.mark.parametrize("role", ["citations", "taxonomy"])
def test_run_reads_an_input_from_a_pipe(corpus_dir, run_dir, tmp_path, role):
    """A pipe or process substitution (`--citations <(cat citations.csv)`) is
    read like the file: the same row accounting, index and report bytes."""
    data = (corpus_dir / f"{role}.csv").read_bytes()
    read_fd, write_fd = os.pipe()

    def feed() -> None:
        # From a daemon thread, so that a run which stops reading early
        # cannot block the suite on a full pipe buffer.
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    threading.Thread(target=feed, daemon=True).start()
    args = _run_args(corpus_dir, tmp_path / "piped")
    args[args.index(f"--{role}") + 1] = f"/dev/fd/{read_fd}"
    try:
        assert main(args) == 0
    finally:
        os.close(read_fd)
    piped = json.loads((tmp_path / "piped" / "manifest.json").read_text())
    filed = json.loads((run_dir / "manifest.json").read_text())
    for section in ("ingest", "index", "outputs"):
        assert piped[section] == filed[section], section


def test_ingest_check_reports_accounting(corpus_dir, capsys):
    rc = main(
        [
            "ingest-check",
            "--papers", str(corpus_dir / "papers.csv"),
            "--authorships", str(corpus_dir / "authorships.csv"),
            "--citations", str(corpus_dir / "citations.csv"),
            "--taxonomy", str(corpus_dir / "taxonomy.csv"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "papers: rows_read=" in out
    assert "index: papers=" in out


def test_evaluate_prints_motif_lines(corpus_dir, run_dir, tmp_path, capsys):
    eval_csv = tmp_path / "evaluation.csv"
    rc = main(
        [
            "evaluate",
            "--truth", str(corpus_dir / "truth.csv"),
            "--run-dir", str(run_dir),
            "--out", str(eval_csv),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    for motif in ("self_citer", "cartel_member", "hyperteam_member"):
        assert f"{motif}: planted=" in out
    with open(eval_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["motif"] for r in rows} == {"self_citer", "cartel_member", "hyperteam_member"}


def test_evaluate_accepts_a_utf8_bom_in_truth_and_tail_files(corpus_dir, run_dir, tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    truth = tmp_path / "truth.csv"
    truth.write_bytes(bom + (corpus_dir / "truth.csv").read_bytes())
    bom_run = tmp_path / "run"
    bom_run.mkdir()
    for path in run_dir.glob("tail_*.csv"):
        (bom_run / path.name).write_bytes(bom + path.read_bytes())
    rc = main(["evaluate", "--truth", str(corpus_dir / "truth.csv"), "--run-dir", str(run_dir)])
    assert rc == 0
    expected = capsys.readouterr().out
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(bom_run)])
    assert rc == 0
    assert capsys.readouterr().out == expected


def test_evaluate_short_truth_row_fails_with_single_line_error(run_dir, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text("author_id,label,group_id\na1\n", encoding="utf-8")
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(run_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {truth}: line 2: expected 3 fields, got 1\n"


def test_evaluate_duplicate_truth_author_fails_with_single_line_error(run_dir, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "author_id,label,group_id\nh000000,self_citer,g1\nh000000,background,\n", encoding="utf-8"
    )
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(run_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {truth}: line 3: duplicate author_id 'h000000' (first on line 2)\n"


def test_evaluate_unknown_truth_label_fails_with_single_line_error(run_dir, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "author_id,label,group_id\nh000000,background,\nh000001,self-citer,h000001\n",
        encoding="utf-8",
    )
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(run_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {truth}: line 3: unknown label 'self-citer'\n"


def test_evaluate_non_utf8_truth_fails_with_single_line_error(run_dir, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(b"author_id,label,group_id\nh0\xff,self_citer,g1\n")
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(run_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {truth}: line 2: byte 0xff is not valid UTF-8\n"


def test_evaluate_non_utf8_tail_file_fails_with_single_line_error(
    corpus_dir, run_dir, tmp_path, capsys
):
    bad_run = tmp_path / "run"
    bad_run.mkdir()
    for path in run_dir.glob("tail_*.csv"):
        (bad_run / path.name).write_bytes(path.read_bytes())
    tail = bad_run / "tail_a50.csv"
    tail.write_bytes(tail.read_bytes() + b"h\xff,60\n")
    rc = main(["evaluate", "--truth", str(corpus_dir / "truth.csv"), "--run-dir", str(bad_run)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {tail}: line 2: byte 0xff is not valid UTF-8\n"


def test_evaluate_missing_tail_file_fails_with_single_line_error(
    corpus_dir, run_dir, tmp_path, capsys
):
    bad_run = tmp_path / "run"
    bad_run.mkdir()
    for path in run_dir.glob("tail_*.csv"):
        (bad_run / path.name).write_bytes(path.read_bytes())
    tail = bad_run / "tail_a50.csv"
    tail.unlink()
    eval_csv = tmp_path / "evaluation.csv"
    rc = main(
        [
            "evaluate",
            "--truth", str(corpus_dir / "truth.csv"),
            "--run-dir", str(bad_run),
            "--out", str(eval_csv),
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: tail file not found: {tail}\n"
    assert captured.out == ""
    assert not eval_csv.exists()


@pytest.mark.parametrize(
    "name, header, row",
    [
        ("truth.csv", "author_id,label,group_id", "h0,self_citer,g1"),
        ("tail_a50.csv", "author_id,value", "h0,60"),
    ],
    ids=["truth", "tail"],
)
def test_evaluate_missing_header_fails_with_single_line_error(
    corpus_dir, run_dir, tmp_path, capsys, name, header, row
):
    bad_run = tmp_path / "run"
    bad_run.mkdir()
    for path in run_dir.glob("tail_*.csv"):
        (bad_run / path.name).write_bytes(path.read_bytes())
    truth = tmp_path / "truth.csv"
    truth.write_bytes((corpus_dir / "truth.csv").read_bytes())
    # The header line is missing, so a data row comes first.
    headless = truth if name == "truth.csv" else bad_run / name
    headless.write_text(row + "\n" + headless.read_text().partition("\n")[2])
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(bad_run)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {headless}: line 1: expected header {header!r}, got {row!r}\n"


#: An unterminated quote on line 3, then enough rows to pass the csv field limit.
UNTERMINATED_QUOTE = b'"h1,x,y\n' + b"h2,a,b\n" * 20_000


def test_evaluate_malformed_truth_csv_fails_with_single_line_error(run_dir, tmp_path, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(b"author_id,label,group_id\nh0,self_citer,g1\n" + UNTERMINATED_QUOTE)
    rc = main(["evaluate", "--truth", str(truth), "--run-dir", str(run_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {truth}: line 3: malformed CSV: field larger than field limit (131072)\n"
    )


def test_evaluate_malformed_tail_csv_fails_with_single_line_error(
    corpus_dir, run_dir, tmp_path, capsys
):
    bad_run = tmp_path / "run"
    bad_run.mkdir()
    for path in run_dir.glob("tail_*.csv"):
        (bad_run / path.name).write_bytes(path.read_bytes())
    tail = bad_run / "tail_a50.csv"
    tail.write_bytes(b"author_id,value\nh0,60\n" + UNTERMINATED_QUOTE)
    rc = main(["evaluate", "--truth", str(corpus_dir / "truth.csv"), "--run-dir", str(bad_run)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {tail}: line 3: malformed CSV: field larger than field limit (131072)\n"
    )


def test_exclude_field_flag_removes_field_from_tails(corpus_dir, tmp_path):
    out = tmp_path / "excl"
    assert main(_run_args(corpus_dir, out, extra=("--exclude-field", "F04"))) == 0
    with open(out / "allocation_a50.csv", newline="") as fh:
        fields = {r["field_id"] for r in csv.DictReader(fh)}
    assert "F04" not in fields
    # the c_over_h2 tail keeps every field
    with open(out / "allocation_c_over_h2.csv", newline="") as fh:
        fields_ratio = {r["field_id"] for r in csv.DictReader(fh)}
    assert "F04" in fields_ratio


def test_tail_values_match_metrics(run_dir):
    with open(run_dir / "metrics.csv", newline="") as fh:
        by_author = {r["author_id"]: r for r in csv.DictReader(fh)}
    with open(run_dir / "tail_a50.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            assert row["value"] == by_author[row["author_id"]]["a50"]


def test_cli_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_empty_cohort_still_writes_full_report_set(tmp_path):
    corpus = tmp_path / "tiny"
    corpus.mkdir()
    (corpus / "papers.csv").write_text("paper_id,doc_type,subfield_id\np1,article,s101\n")
    (corpus / "authorships.csv").write_text("paper_id,author_id\np1,a1\n")
    (corpus / "citations.csv").write_text("citing_paper_id,cited_paper_id\n")
    (corpus / "taxonomy.csv").write_text(
        "subfield_id,subfield_name,field_id,field_name\ns101,x,F01,Life Sciences\n"
    )
    out = tmp_path / "out"
    assert main(_run_args(corpus, out)) == 0
    names = {p.name for p in out.iterdir()}
    assert "cooccur.csv" in names and "tail_a50.csv" in names
    assert (out / "metrics.csv").read_text().count("\n") == 1  # header only
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cohort"]["n_eligible"] == 0


def _one_field_corpus(tmp_path: Path) -> Path:
    """Three single-paper authors in field F01; a1 and a2 are cited, a3 is not."""
    corpus = tmp_path / "one_field"
    corpus.mkdir()
    (corpus / "papers.csv").write_text(
        "paper_id,doc_type,subfield_id\np1,article,s101\np2,article,s101\np3,article,s101\n"
    )
    (corpus / "authorships.csv").write_text("paper_id,author_id\np1,a1\np2,a2\np3,a3\n")
    (corpus / "citations.csv").write_text(
        "citing_paper_id,cited_paper_id\np2,p1\np3,p1\np3,p2\n"
    )
    (corpus / "taxonomy.csv").write_text(
        "subfield_id,subfield_name,field_id,field_name\ns101,x,F01,Life Sciences\n"
    )
    return corpus


ONE_FIELD_EXCLUDED = ("--min-papers", "0", "--min-citations", "1", "--exclude-field", "F01")

ALLOCATION_HEADER = (
    "field_id,field_name,cohort_count,cohort_share,tail_count,tail_share,fold,flagged\n"
)


def test_exclusion_that_empties_a_tail_writes_header_only_files(tmp_path, capsys):
    """Excluding the one field both cohort authors (a1, a2) are in leaves the
    a50pc and a50 tails a cohort of size 0: the run succeeds and says so."""
    out = tmp_path / "out"
    assert main(_run_args(_one_field_corpus(tmp_path), out, ONE_FIELD_EXCLUDED)) == 0
    assert capsys.readouterr().err == ""
    tails = json.loads((out / "manifest.json").read_text())["tails"]
    for metric in ("a50pc", "a50"):
        assert (out / f"tail_{metric}.csv").read_text() == "author_id,value\n"
        assert (out / f"allocation_{metric}.csv").read_text() == ALLOCATION_HEADER
        assert tails[metric] == {
            "cohort_size": 0, "members": 0, "threshold": "", "median": "", "iqr": ["", ""],
        }
    assert tails["c_over_h2"]["cohort_size"] == 2
    with open(out / "allocation_c_over_h2.csv", newline="") as fh:
        assert [r["cohort_count"] for r in csv.DictReader(fh)] == ["2"]


@pytest.mark.parametrize("case", ["synth", "no_eligible_author", "exclusion_empties_tails"])
def test_output_shape_does_not_depend_on_the_data(corpus_dir, tmp_path, case):
    """Every run writes the same 13 files, three manifest tails and three
    cooccur.csv rows; a tail's files are header-only exactly when its cohort
    is empty, and a pair whose shared cohort is empty has all-zero cells."""
    out = tmp_path / "out"
    if case == "synth":
        args, expected_sizes = _run_args(corpus_dir, out), None
    elif case == "no_eligible_author":
        args = _run_args(corpus_dir, out, ("--min-citations", str(10**9)))
        expected_sizes = {"c_over_h2": 0, "a50pc": 0, "a50": 0}
    else:
        args = _run_args(_one_field_corpus(tmp_path), out, ONE_FIELD_EXCLUDED)
        expected_sizes = {"c_over_h2": 2, "a50pc": 0, "a50": 0}
    assert main(args) == 0

    expected_files = {"metrics.csv", "cooccur.csv", "manifest.json", "timings.json"}
    for metric in ("c_over_h2", "a50pc", "a50"):
        expected_files |= {f"tail_{metric}.csv", f"allocation_{metric}.csv", f"hist_{metric}.csv"}
    assert len(expected_files) == 13
    assert {p.name for p in out.iterdir()} == expected_files

    tails = json.loads((out / "manifest.json").read_text())["tails"]
    assert sorted(tails) == ["a50", "a50pc", "c_over_h2"]
    sizes = {metric: tail["cohort_size"] for metric, tail in tails.items()}
    if expected_sizes is None:
        assert min(sizes.values()) > 0
    else:
        assert sizes == expected_sizes
    for metric, tail in tails.items():
        with open(out / f"tail_{metric}.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == tail["members"]
        with open(out / f"allocation_{metric}.csv", newline="") as fh:
            assert (len(list(csv.DictReader(fh))) == 0) == (tail["cohort_size"] == 0)
        if tail["cohort_size"] == 0:
            assert tail["members"] == 0
            assert [tail["threshold"], tail["median"], *tail["iqr"]] == ["", "", "", ""]

    with open(out / "cooccur.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["metric_a"], r["metric_b"]) for r in rows] == [
        ("c_over_h2", "a50pc"), ("c_over_h2", "a50"), ("a50pc", "a50"),
    ]
    for r in rows:
        # the a50pc and a50 cohorts are one subset of the c_over_h2 cohort
        shared = min(sizes[r["metric_a"]], sizes[r["metric_b"]])
        assert sum(int(r[cell]) for cell in "abcd") == shared
        if shared == 0:
            assert r["degenerate"] == "true"
            assert [r[k] for k in rows[0] if k.startswith(("odds", "ci_"))] == [""] * 6


def test_negative_a50_threshold_fails_before_any_work(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(_run_args(corpus_dir, out, ("--a50-threshold", "-1"))) == 2
    assert capsys.readouterr().err == "error: a50 threshold must be >= 0\n"
    assert not out.exists()


def test_unknown_exclude_field_fails_and_writes_nothing(
    corpus_dir, tmp_path, capsys, monkeypatch
):
    """A typo in --exclude-field would otherwise leave the a50pc and a50
    tails unexcluded without a word. It fails once the taxonomy is read,
    before any record file is."""
    monkeypatch.setattr(cli, "build_index", lambda *args: pytest.fail("records were read"))
    out = tmp_path / "out"
    flags = ("--exclude-field", "NOPE", "--exclude-field", "F04", "--exclude-field", "F99")
    assert main(_run_args(corpus_dir, out, flags)) == 2
    taxonomy = corpus_dir / "taxonomy.csv"
    expected = f"error: --exclude-field F99, NOPE: not a field_id of {taxonomy}\n"
    assert capsys.readouterr().err == expected
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("report",)])
def test_out_at_or_under_a_file_fails_before_any_work(corpus_dir, capsys, monkeypatch, below):
    monkeypatch.setattr(cli, "_parse_inputs", lambda *args: pytest.fail("inputs were parsed"))
    papers = corpus_dir / "papers.csv"
    out = papers.joinpath(*below)
    assert main(_run_args(corpus_dir, out)) == 2
    assert capsys.readouterr().err == f"error: --out {out}: {papers} is not a directory\n"


def test_outputs_identical_across_separate_processes(tmp_path):
    """Fresh interpreters get different hash seeds; outputs must not care."""
    import os
    import subprocess
    import sys

    # A bare `python -m pytest` finds citegraph through pytest's pythonpath
    # setting, which child interpreters do not inherit.
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    synth_args = [
        sys.executable, "-m", "citegraph.cli", "synth",
        "--seed", "31", "--background", "80", "--established-fraction", "0.1",
        "--self-citers", "1", "--cartels", "0", "--hyperteams", "0",
    ]
    dirs = [tmp_path / "proc_a", tmp_path / "proc_b"]
    for d in dirs:
        subprocess.run(
            synth_args + ["--out", str(d / "corpus")], check=True, capture_output=True, env=env
        )
        run_args = [
            sys.executable, "-m", "citegraph.cli", "run",
            "--papers", str(d / "corpus" / "papers.csv"),
            "--authorships", str(d / "corpus" / "authorships.csv"),
            "--citations", str(d / "corpus" / "citations.csv"),
            "--taxonomy", str(d / "corpus" / "taxonomy.csv"),
            "--out", str(d / "run"),
            "--min-citations", "500",
        ]
        subprocess.run(run_args, check=True, capture_output=True, env=env)

    for name in ("papers.csv", "authorships.csv", "citations.csv", "taxonomy.csv", "truth.csv"):
        assert (dirs[0] / "corpus" / name).read_bytes() == (dirs[1] / "corpus" / name).read_bytes()
    for path in sorted((dirs[0] / "run").iterdir()):
        if path.name == "timings.json":
            continue
        rel = path.name
        a, b = path.read_bytes(), (dirs[1] / "run" / rel).read_bytes()
        # the two runs used different corpus paths; normalize them out of the manifest
        if rel == "manifest.json":
            a = a.replace(str(dirs[0]).encode(), b"BASE")
            b = b.replace(str(dirs[1]).encode(), b"BASE")
        assert a == b, rel


def test_malformed_csv_fails_with_line_number(tmp_path, corpus_dir, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text('paper_id,doc_type,subfield_id\n"p1,article,s101\n')
    args = _run_args(corpus_dir, tmp_path / "x")
    idx = args.index("--papers")
    args[idx + 1] = str(bad)
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert "line" in err


GOLDEN_PATH = Path(__file__).with_name("golden_cli_manifests.json")
#: Flag sets pinned by the golden test; the digests were recorded on this
#: module's synth corpus and must not change under refactoring.
GOLDEN_RUNS = {
    "default": (),
    "pct5_exclude_f01": ("--pct", "5", "--exclude-field", "F01"),
    "low_thresholds": ("--min-citations", "20", "--min-papers", "3", "--a50-threshold", "3"),
    "pct50_threads4": ("--pct", "50", "--threads", "4"),
}
#: Manifest sections that depend only on inputs and flags: every report
#: file's sha256 plus the row, index, cohort, tail and histogram accounting.
GOLDEN_SECTIONS = ("outputs", "ingest", "index", "cohort", "tails", "histogram_overflow")


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_manifest_sections(corpus_dir, tmp_path, name):
    out = tmp_path / name
    assert main(_run_args(corpus_dir, out, GOLDEN_RUNS[name])) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    for section in GOLDEN_SECTIONS:
        assert manifest[section] == golden[section], section


def test_run_votes_each_candidate_field_once(corpus_dir, tmp_path, monkeypatch):
    """One run casts one field vote per author passing the paper and citation checks.

    Every vote with a classified paper, as all of this corpus's candidates
    have, makes exactly one field-level _majority_pick call, so counting those
    counts votes whichever function casts them.
    """
    from citegraph import cli, cohort, ingest, metrics

    cfg = cli.RunConfig(
        papers_path=str(corpus_dir / "papers.csv"),
        authorships_path=str(corpus_dir / "authorships.csv"),
        citations_path=str(corpus_dir / "citations.csv"),
        taxonomy_path=str(corpus_dir / "taxonomy.csv"),
        out_dir=str(tmp_path / "votes"),
    )
    index = cli._parse_inputs(cfg, ingest.IngestReport())
    candidates = [
        a
        for a in index.author_ids
        if len(full_of(index, a)) > cfg.eligibility.min_full_papers
        and sum(metrics.citation_counts(index, full_of(index, a)))
        >= cfg.eligibility.min_citations
    ]
    voted = []
    pick = cohort._majority_pick

    def counting_pick(*args):
        if args[-1] == "field":
            voted.append(args[-2])
        return pick(*args)

    monkeypatch.setattr(cohort, "_majority_pick", counting_pick)
    cli.run_pipeline(cfg)
    assert len(candidates) > 100
    assert sorted(voted) == sorted(candidates)


def test_run_reads_each_authors_full_papers_once_per_run(corpus_dir, tmp_path, monkeypatch):
    """Eligibility reads every author's full papers once and hands the cohort's
    to the metrics kernel; nothing else reads them, and no author id is looked
    up by bisection."""
    from citegraph import cli
    from citegraph.corpus import CorpusIndex

    calls = []
    lookups = []
    full_papers = CorpusIndex.full_papers
    author_index = CorpusIndex.author_index

    def counting_full_papers(self, author):
        calls.append(author)
        return full_papers(self, author)

    def counting_author_index(self, author_id):
        lookups.append(author_id)
        return author_index(self, author_id)

    monkeypatch.setattr(CorpusIndex, "full_papers", counting_full_papers)
    monkeypatch.setattr(CorpusIndex, "author_index", counting_author_index)
    cfg = cli.RunConfig(
        papers_path=str(corpus_dir / "papers.csv"),
        authorships_path=str(corpus_dir / "authorships.csv"),
        citations_path=str(corpus_dir / "citations.csv"),
        taxonomy_path=str(corpus_dir / "taxonomy.csv"),
        out_dir=str(tmp_path / "reads"),
    )
    out = cli.run_pipeline(cfg)
    manifest = json.loads((out / "manifest.json").read_text())
    n_authors = manifest["index"]["n_authors"]
    n_cohort = manifest["cohort"]["n_eligible"]
    assert n_cohort > 100
    assert len(calls) == n_authors
    assert lookups == []


def test_ingest_file_durations_are_disjoint(run_dir):
    timings = json.loads((run_dir / "timings.json").read_text())
    per_file = timings["ingest_file_s"]
    # each value is rounded to 1 ms, so allow half of that per file
    record_files = per_file["papers"] + per_file["authorships"] + per_file["citations"]
    assert record_files <= timings["stages_s"]["ingest_and_index"] + 3 * 0.0005
    # index_finalise is ingest_and_index less the four file times: six rounded values
    outside = timings["stages_s"]["ingest_and_index"] - sum(per_file.values())
    assert timings["stages_s"]["index_finalise"] == pytest.approx(outside, abs=6 * 0.0005)
    assert "threads" not in timings


def test_timings_hold_the_peak_rss_after_each_stage(run_dir):
    timings = json.loads((run_dir / "timings.json").read_text())
    stages = timings["stages_peak_rss_mb"]
    assert list(stages) == ["cohort", "ingest_and_index", "metrics", "reports"]  # sorted keys
    in_order = [stages[k] for k in ("ingest_and_index", "cohort", "metrics", "reports")]
    if None in in_order:  # no /proc/self/status on this platform
        assert set(in_order) == {None}
        return
    assert in_order == sorted(in_order)
    assert in_order[-1] <= timings["peak_rss_mb"] + 0.1


def test_timings_hold_the_rss_after_each_stage_below_its_peak(run_dir):
    timings = json.loads((run_dir / "timings.json").read_text())
    peaks, now = timings["stages_peak_rss_mb"], timings["stages_rss_mb"]
    assert list(now) == list(peaks)
    if None in now.values():  # no /proc/self/status on this platform
        assert set(now.values()) == {None}
        return
    for stage, rss in now.items():
        assert 0 < rss <= peaks[stage], stage


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_peak_rss_excludes_the_launchers_peak(corpus_dir, tmp_path):
    """A launcher that touched 150 MB and then execs `citegraph run`: Linux
    carries its high-water mark into ru_maxrss, but not into VmHWM."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run_argv = [sys.executable, "-m", "citegraph.cli", *_run_args(corpus_dir, tmp_path / "run")]
    launcher = (
        "import os, sys\n"
        "ballast = b'x' * (150 << 20)\n"
        "os.execv(sys.executable, sys.argv[1:])\n"
    )
    subprocess.run(
        [sys.executable, "-c", launcher, *run_argv],
        check=True, capture_output=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    timings = json.loads((tmp_path / "run" / "timings.json").read_text())
    assert timings["peak_rss_mb"] < 100
    assert timings["stages_peak_rss_mb"]["reports"] <= timings["peak_rss_mb"]


@pytest.mark.parametrize("pct, n, rank", [("0.1", 1_000, 1), ("1.1", 10_000, 110)])
def test_pct_flag_is_exact(pct, n, rank):
    from citegraph.cli import build_parser
    from citegraph.stats import percentile_threshold

    args = build_parser().parse_args(_run_args(Path("c"), Path("o"), ("--pct", pct)))
    assert percentile_threshold(range(1, n + 1), args.percentile) == rank


@pytest.mark.parametrize("pct", ["0", "60"])
def test_pct_out_of_range_fails_before_any_work(corpus_dir, tmp_path, capsys, pct):
    out = tmp_path / "out"
    assert main(_run_args(corpus_dir, out, ("--pct", pct))) == 2
    assert capsys.readouterr().err == "error: percentile must be in (0, 50]\n"
    assert not (out / "metrics.csv").exists()


def test_pct_flag_rejects_non_numbers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(Path("c"), Path("o"), ("--pct", "one")))
    assert exc.value.code == 2
    assert "--pct" in capsys.readouterr().err


def test_pct_zero_denominator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(_run_args(Path("c"), Path("o"), ("--pct", "1/0")))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--pct" in err and "Traceback" not in err


def test_undefined_metric_names_the_author(tmp_path, capsys):
    """An eligible author with no citations has no c_over_h2; the one-line
    error says which author it is."""
    corpus = tmp_path / "uncited"
    corpus.mkdir()
    (corpus / "papers.csv").write_text(
        "paper_id,doc_type,subfield_id\n" + "".join(f"p{i},article,s101\n" for i in range(6))
    )
    (corpus / "authorships.csv").write_text(
        "paper_id,author_id\n" + "".join(f"p{i},a1\n" for i in range(6))
    )
    (corpus / "citations.csv").write_text("citing_paper_id,cited_paper_id\n")
    (corpus / "taxonomy.csv").write_text(
        "subfield_id,subfield_name,field_id,field_name\ns101,x,F01,Life Sciences\n"
    )
    assert main(_run_args(corpus, tmp_path / "out", ("--min-citations", "0"))) == 2
    assert capsys.readouterr().err == "error: author 'a1': c_over_h2 is undefined for h_index 0\n"


def test_non_utf8_input_fails_with_single_line_error(tmp_path, corpus_dir, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"paper_id,doc_type,subfield_id\np1,article,s101\np\xff2,article,s101\n")
    args = _run_args(corpus_dir, tmp_path / "x")
    args[args.index("--papers") + 1] = str(bad)
    assert main(args) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {bad}: ")
    assert "UTF-8" in err


@pytest.mark.parametrize("failure", ["missing_input", "directory_input", "undefined_metric"])
def test_failed_run_creates_no_output_directory(corpus_dir, tmp_path, capsys, failure):
    out = tmp_path / "out"
    if failure == "missing_input":
        args = _run_args(corpus_dir, out)
        args[args.index("--citations") + 1] = str(corpus_dir / "nope.csv")
    elif failure == "directory_input":
        args = _run_args(corpus_dir, out)
        args[args.index("--citations") + 1] = str(corpus_dir)
    else:  # an eligible author with no citations has no c_over_h2
        corpus = tmp_path / "uncited"
        corpus.mkdir()
        (corpus / "papers.csv").write_text("paper_id,doc_type,subfield_id\np1,article,s101\n")
        (corpus / "authorships.csv").write_text("paper_id,author_id\np1,a1\n")
        (corpus / "citations.csv").write_text("citing_paper_id,cited_paper_id\n")
        (corpus / "taxonomy.csv").write_text(
            "subfield_id,subfield_name,field_id,field_name\ns101,x,F01,Life Sciences\n"
        )
        args = _run_args(corpus, out, ("--min-papers", "0", "--min-citations", "0"))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_evaluation_csv_bytes(tmp_path):
    """One row per motif: recall and precision with 6 decimals, and an empty
    cell where either is undefined (nothing planted, or an empty tail)."""
    synth_args = list(SYNTH_ARGS)
    synth_args[synth_args.index("--self-citers") + 1] = "0"
    synth_args[synth_args.index("--cartels") + 1] = "0"
    corpus, run, evaluation = tmp_path / "corpus", tmp_path / "run", tmp_path / "evaluation.csv"
    assert main(synth_args + ["--out", str(corpus)]) == 0
    assert main(_run_args(corpus, run)) == 0
    eval_args = ["evaluate", "--truth", str(corpus / "truth.csv"), "--run-dir", str(run)]
    assert main(eval_args + ["--out", str(evaluation)]) == 0
    header = b"motif,tail_metric,n_planted,n_detected,recall,tail_size,precision\n"
    assert evaluation.read_bytes() == header + (
        b"self_citer,c_over_h2,0,0,,1,0.000000\n"
        b"cartel_member,c_over_h2,0,0,,1,0.000000\n"
        b"hyperteam_member,a50,4,0,0.000000,0,\n"
    )
    # Two of the four team members in a tail of three: recall 2/4, precision 2/3.
    (run / "tail_a50.csv").write_text("author_id,value\nb000000,9\nt00m00,9\nt00m01,9\n")
    assert main(eval_args + ["--out", str(evaluation)]) == 0
    assert evaluation.read_bytes().endswith(b"\nhyperteam_member,a50,4,2,0.500000,3,0.666667\n")


def test_data_quality_counts_papers_with_unknown_subfields(tmp_path):
    """Subfields 102 (known), 999, 999 and 888 (unknown) and one empty value
    (unclassified, so not counted) give 3 papers over 2 unknown ids."""
    corpus = tmp_path / "unknown_subfields"
    corpus.mkdir()
    subfields = ["102", "999", "999", "888", ""]
    (corpus / "papers.csv").write_text(
        "paper_id,doc_type,subfield_id\n"
        + "".join(f"p{i},article,{s}\n" for i, s in enumerate(subfields))
    )
    (corpus / "authorships.csv").write_text(
        "paper_id,author_id\n" + "".join(f"p{i},a1\n" for i in range(len(subfields)))
    )
    (corpus / "citations.csv").write_text("citing_paper_id,cited_paper_id\n")
    (corpus / "taxonomy.csv").write_text(
        "subfield_id,subfield_name,field_id,field_name\n102,x,F01,Life Sciences\n"
    )
    out = tmp_path / "out"
    assert main(_run_args(corpus, out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["data_quality"] == {"papers_with_unknown_subfield": 3, "unknown_subfield_ids": 2}


class _Captured(Exception):
    """Carries the config a stubbed pipeline entry point was handed."""


def _config_built_by(monkeypatch, module, name, argv):
    """The config `main(argv)` hands to `module.name`, stubbed to stop there."""

    def capture(cfg, *_):
        raise _Captured(cfg)

    monkeypatch.setattr(module, name, capture)
    with pytest.raises(_Captured) as exc:
        main(argv)
    return exc.value.args[0]


#: The RunConfig that `_run_args(Path("c"), Path("o"))` alone must build.
DEFAULT_RUN_CONFIG = RunConfig(
    *(str(Path("c") / f"{role}.csv") for role in ("papers", "authorships", "citations", "taxonomy")),
    out_dir="o",
    eligibility=EligibilityConfig(),
)


@pytest.mark.parametrize(
    "flags, eligibility, changes",
    [
        ((), {}, {}),
        (("--threads", "4"), {}, {}),
        (("--min-papers", "3"), {"min_full_papers": 3}, {}),
        (("--min-citations", "20"), {"min_citations": 20}, {}),
        (("--seed", "7"), {"seed": 7}, {}),
        (("--pct", "5/2"), {}, {"percentile": Fraction(5, 2)}),
        (
            ("--exclude-field", "F02", "--exclude-field", "F01"),
            {},
            {"excluded_fields": frozenset({"F01", "F02"})},
        ),
        (("--a50-threshold", "3"), {}, {"a50_threshold": 3}),
    ],
)
def test_run_flags_fill_their_config_fields(monkeypatch, flags, eligibility, changes):
    """A flag left out leaves its field at the record's default; each given
    flag lands in its own field and nowhere else."""
    expected = dataclasses.replace(
        DEFAULT_RUN_CONFIG, eligibility=EligibilityConfig(**eligibility), **changes
    )
    argv = _run_args(Path("c"), Path("o"), flags)
    assert _config_built_by(monkeypatch, cli, "run_pipeline", argv) == expected


@pytest.mark.parametrize(
    "flag, value, field, parsed",
    [
        (None, None, None, None),
        ("--seed", "5", "seed", 5),
        ("--background", "300", "n_background_authors", 300),
        ("--established-fraction", "0.5", "established_fraction", 0.5),
        ("--self-citers", "2", "n_self_citers", 2),
        ("--cartels", "4", "n_cartels", 4),
        ("--cartel-size", "3", "cartel_size", 3),
        ("--hyperteams", "2", "n_hyperteams", 2),
        ("--team-size", "4", "team_size", 4),
        ("--joint-papers", "52", "joint_papers", 52),
    ],
)
def test_synth_flags_fill_their_config_fields(monkeypatch, flag, value, field, parsed):
    argv = ["synth", "--out", "x"] + ([flag, value] if flag else [])
    expected = SynthConfig(**({field: parsed} if flag else {}))
    assert _config_built_by(monkeypatch, synth, "generate", argv) == expected


def test_ingest_check_builds_a_run_config_with_out_dir_dot(monkeypatch):
    argv = ["ingest-check"] + _run_args(Path("c"), Path("o"))[1:-2]
    expected = dataclasses.replace(DEFAULT_RUN_CONFIG, out_dir=".")
    assert _config_built_by(monkeypatch, cli, "_parse_inputs", argv) == expected


def test_console_script_entry_names_the_cli_main():
    """The `[project.scripts]` entry behind an installed `citegraph` command
    names an importable callable. pyproject.toml is read with a regex, as
    Python 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    entries = dict(re.findall(r'^(\S+)\s*=\s*"([^"]*)"', section.group(1), re.M))
    assert list(entries) == ["citegraph"]
    module, _, name = entries["citegraph"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert callable(target) and target is main
