from __future__ import annotations

import gc
import io

import pytest

from citegraph.corpus import CorpusError, DocType
from citegraph.ingest import (
    FileIngestStats,
    IngestError,
    parse_authorships,
    parse_citations,
    parse_papers,
    parse_taxonomy,
    read_rows,
)


def _stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("utf-8"))


def test_parse_papers_happy_path():
    recs = list(parse_papers(_stream("paper_id,doc_type,subfield_id\np1,article,102\n")))
    assert recs == [("p1", DocType.ARTICLE, "102")]


def test_parse_papers_case_fold_and_empty_subfield():
    recs = list(parse_papers(_stream("paper_id,doc_type,subfield_id\np2,Review,\n")))
    assert recs == [("p2", DocType.REVIEW, None)]


def test_parse_papers_unknown_type_maps_to_other():
    recs = list(parse_papers(_stream("paper_id,doc_type,subfield_id\np3,editorial,102\n")))
    assert recs[0][1] is DocType.OTHER


def test_parse_papers_empty_id_errors_with_line_number():
    stream = _stream("paper_id,doc_type,subfield_id\n,article,\n")
    with pytest.raises(IngestError, match="line 2"):
        list(parse_papers(stream))


def test_parse_papers_wrong_field_count_errors_with_line_number():
    stream = _stream("paper_id,doc_type,subfield_id\np1,article\n")
    with pytest.raises(IngestError, match="line 2"):
        list(parse_papers(stream))


def test_parse_papers_bad_header_rejected():
    with pytest.raises(IngestError, match="header"):
        list(parse_papers(_stream("id,type,sub\np1,article,\n")))


def test_quoted_fields_with_commas():
    text = 'subfield_id,subfield_name,field_id,field_name\n102,"nuclear, particle",F18,"Physics & Astronomy"\n'
    tax = parse_taxonomy(_stream(text))
    assert tax.lookup("102").subfield_name == "nuclear, particle"


def test_crlf_equivalent_to_lf():
    lf = list(parse_authorships(_stream("paper_id,author_id\np1,a9\np2,a8\n")))
    crlf = list(parse_authorships(_stream("paper_id,author_id\r\np1,a9\r\np2,a8\r\n")))
    assert lf == crlf


def test_duplicate_authorship_rows_pass_through():
    rows = list(parse_authorships(_stream("paper_id,author_id\np1,a9\np1,a9\n")))
    assert len(rows) == 2


def test_parse_citations_drops_self_loops_with_count():
    stats = FileIngestStats()
    edges = list(parse_citations(_stream("citing_paper_id,cited_paper_id\np1,p1\np2,p1\n"), stats))
    assert edges == [("p2", "p1")]
    assert stats.dropped == {"self_loop": 1}


def test_authorship_whose_ids_are_equal_is_kept():
    """Only citations drop a row whose two ids are equal."""
    stats = FileIngestStats()
    rows = list(parse_authorships(_stream("paper_id,author_id\nx1,x1\np2,a1\n"), stats))
    assert rows == [("x1", "x1"), ("p2", "a1")]
    assert (stats.rows_read, stats.emitted, stats.dropped) == (3, 2, {})


def test_parse_citations_empty_file_yields_nothing():
    assert list(parse_citations(_stream("citing_paper_id,cited_paper_id\n"))) == []


def test_row_accounting_invariant():
    stats = FileIngestStats()
    list(parse_citations(_stream("citing_paper_id,cited_paper_id\np1,p1\np2,p1\np3,p1\n"), stats))
    assert stats.rows_read == stats.emitted + stats.n_dropped + 1


def test_taxonomy_consistent_duplicates_collapse():
    text = (
        "subfield_id,subfield_name,field_id,field_name\n"
        "102,nuclear,F18,Physics & Astronomy\n"
        "102,nuclear,F18,Physics & Astronomy\n"
    )
    tax = parse_taxonomy(_stream(text))
    assert len(tax) == 1


def test_taxonomy_conflicting_duplicates_error():
    text = (
        "subfield_id,subfield_name,field_id,field_name\n"
        "102,nuclear,F18,Physics & Astronomy\n"
        "102,nuclear,F05,Chemistry\n"
    )
    with pytest.raises(CorpusError, match="102"):
        parse_taxonomy(_stream(text))


def test_byte_identical_files_yield_identical_records():
    text = "paper_id,doc_type,subfield_id\np1,article,102\np2,review,\n"
    assert list(parse_papers(_stream(text))) == list(parse_papers(_stream(text)))


@pytest.mark.parametrize(
    "header",
    ['paper_id,doc_type,subfield_id', '"paper_id","doc_type","subfield_id"'],
    ids=["plain", "quoted"],
)
def test_utf8_bom_before_header_is_ignored(header):
    data = b"\xef\xbb\xbf" + f"{header}\r\n\"p1\",\"article\",\"102\"\r\n".encode("utf-8")
    assert list(parse_papers(io.BytesIO(data))) == [("p1", DocType.ARTICLE, "102")]


def _named_stream(name: str, data: bytes) -> io.BytesIO:
    stream = io.BytesIO(data)
    stream.name = name
    return stream


def _consume(parse, stream) -> None:
    result = parse(stream)
    if parse is not parse_taxonomy:
        list(result)


#: A quote opened mid-file swallows the rest into one field until the csv
#: module's field size limit trips.
UNTERMINATED_QUOTE = ("citing_paper_id,cited_paper_id\np1,p2\n\"p3,p4\n" + "p5,p6\n" * 22_000).encode()

#: (parser, file name, bytes, the full IngestError text).
MALFORMED_INPUTS = {
    "missing_header": (parse_papers, "papers.csv", b"", "papers.csv: line 1: missing header row"),
    "wrong_header": (
        parse_authorships,
        "authorships.csv",
        b"paper,author\np1,a1\n",
        "authorships.csv: line 1: expected header 'paper_id,author_id', got 'paper,author'",
    ),
    "width_papers": (
        parse_papers,
        "papers.csv",
        b"paper_id,doc_type,subfield_id\np1,article,102\np2,article\n",
        "papers.csv: line 3: expected 3 fields, got 2",
    ),
    "width_authorships": (
        parse_authorships,
        "authorships.csv",
        b"paper_id,author_id\np1,a1,x\n",
        "authorships.csv: line 2: expected 2 fields, got 3",
    ),
    "width_citations": (
        parse_citations,
        "citations.csv",
        b"citing_paper_id,cited_paper_id\np1\n",
        "citations.csv: line 2: expected 2 fields, got 1",
    ),
    "width_taxonomy": (
        parse_taxonomy,
        "taxonomy.csv",
        b"subfield_id,subfield_name,field_id,field_name\n102,nuclear,F18\n",
        "taxonomy.csv: line 2: expected 4 fields, got 3",
    ),
    "empty_papers": (
        parse_papers,
        "papers.csv",
        b"paper_id,doc_type,subfield_id\n,article,102\n",
        "papers.csv: line 2: empty paper_id",
    ),
    "empty_authorships": (
        parse_authorships,
        "authorships.csv",
        b"paper_id,author_id\np1,\n",
        "authorships.csv: line 2: empty paper_id or author_id",
    ),
    "empty_citations": (
        parse_citations,
        "citations.csv",
        b"citing_paper_id,cited_paper_id\n,p1\n",
        "citations.csv: line 2: empty citing_paper_id or cited_paper_id",
    ),
    "empty_taxonomy": (
        parse_taxonomy,
        "taxonomy.csv",
        b"subfield_id,subfield_name,field_id,field_name\n102,nuclear,,Physics\n",
        "taxonomy.csv: line 2: empty subfield_id or field_id",
    ),
    "unterminated_quote": (
        parse_citations,
        "citations.csv",
        UNTERMINATED_QUOTE,
        "citations.csv: line 3: malformed CSV: field larger than field limit (131072)",
    ),
    "non_utf8": (
        parse_authorships,
        "authorships.csv",
        b"paper_id,author_id\np1,a1\np\xff2,a2\n",
        "authorships.csv: line 3: byte 0xff is not valid UTF-8",
    ),
    "after_two_line_quoted_field": (
        parse_papers,
        "papers.csv",
        b'paper_id,doc_type,subfield_id\n"p\n1",article,102\np2,article,102,extra\n',
        "papers.csv: line 4: expected 3 fields, got 4",
    ),
    "after_blank_lines": (
        parse_citations,
        "citations.csv",
        b"citing_paper_id,cited_paper_id\n\n\np1,p2\n\np3\n",
        "citations.csv: line 6: expected 2 fields, got 1",
    ),
    "stray_quote_quoted_crlf": (
        parse_citations,
        "citations.csv",
        b'"citing_paper_id","cited_paper_id"\r\n"p1","p2"\r\n"p3,p4\r\n"p5","p6"\r\n',
        "citations.csv: line 3: malformed CSV: ',' expected after '\"'",
    ),
    "quote_open_at_end_of_file": (
        parse_citations,
        "citations.csv",
        b'citing_paper_id,cited_paper_id\np1,p2\np3,"p4\n',
        "citations.csv: line 3: malformed CSV: unexpected end of data",
    ),
    "non_utf8_after_two_line_quoted_field": (
        parse_papers,
        "papers.csv",
        b'paper_id,doc_type,subfield_id\n"p\n1",article,102\np\xff2,article,102\n',
        "papers.csv: line 4: byte 0xff is not valid UTF-8",
    ),
    "non_utf8_header": (
        parse_papers,
        "papers.csv",
        b"paper_\xffid,doc_type,subfield_id\np1,article,102\n",
        "papers.csv: line 1: byte 0xff is not valid UTF-8",
    ),
    "non_utf8_lone_cr": (
        parse_citations,
        "citations.csv",
        b"citing_paper_id,cited_paper_id\rp1,p2\rp2,p3\rp3,p\xff4\r",
        "citations.csv: line 4: byte 0xff is not valid UTF-8",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_ingest_error_messages_are_exact(case):
    parse, name, data, message = MALFORMED_INPUTS[case]
    with pytest.raises(IngestError) as exc:
        _consume(parse, _named_stream(name, data))
    assert str(exc.value) == message


class _UnseekableStream(io.RawIOBase):
    """A readable byte stream that cannot seek, like a pipe."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        return self._data.readinto(buffer)


def test_non_utf8_error_in_a_stream_that_cannot_seek_keeps_the_readers_line():
    stream = _UnseekableStream(b"paper_id,author_id\np1,a1\np\xff2,a2\n")
    assert not stream.seekable()
    with pytest.raises(IngestError) as exc:
        list(parse_authorships(stream))
    assert str(exc.value) == "after line 0: byte 0xff is not valid UTF-8"


def test_stats_are_recorded_when_parser_is_closed_early():
    stats = FileIngestStats()
    text = "citing_paper_id,cited_paper_id\np1,p1\np2,p1\np3,p1\np4,p1\n"
    rows = parse_citations(_stream(text), stats)
    assert [next(rows), next(rows)] == [("p2", "p1"), ("p3", "p1")]
    rows.close()
    assert (stats.rows_read, stats.emitted, stats.dropped) == (4, 2, {"self_loop": 1})
    assert stats.rows_read == stats.emitted + stats.n_dropped + 1


def test_emitted_is_zero_before_a_header_is_read():
    assert FileIngestStats().emitted == 0


_HEADER = b"citing_paper_id,cited_paper_id\n"

#: Each reader, every way it can end: (input bytes, rows to take before closing, or None for all).
_STREAM_ENDINGS = {
    "full_read": (_HEADER + b"p1,p2\np3,p4\n", None),
    "early_close": (_HEADER + b"p1,p2\np3,p4\n", 1),
    "short_row": (_HEADER + b"p1\n", None),
    "bad_byte": (_HEADER + b"p\xff1,p2\n", None),
    "stray_quote": (_HEADER + b'p1,p2\n"p3,p4\n', None),
    "wrong_header": (b"citing,cited\np1,p2\n", None),
    "empty_file": (b"", None),
}


@pytest.mark.parametrize(
    "read",
    [parse_citations, lambda source: read_rows(source, ["citing_paper_id", "cited_paper_id"])],
    ids=["parse_citations", "read_rows"],
)
@pytest.mark.parametrize("ending", sorted(_STREAM_ENDINGS))
def test_readers_leave_the_callers_stream_open(read, ending):
    data, take = _STREAM_ENDINGS[ending]
    stream = io.BytesIO(data)
    rows = read(stream)
    failed = False
    try:
        if take is None:
            list(rows)
        else:
            for _ in range(take):
                next(rows)
            rows.close()
    except IngestError:
        failed = True
    assert failed == (ending not in ("full_read", "early_close"))
    del rows
    gc.collect()  # a text wrapper still attached to the stream would close it here
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == data
