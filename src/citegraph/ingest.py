"""Streaming CSV parsers for the four corpus files, and the taxonomy writer.

Formats (UTF-8 with an optional BOM, RFC 4180 quoting, header row required):

    papers.csv       paper_id,doc_type,subfield_id
    authorships.csv  paper_id,author_id
    citations.csv    citing_paper_id,cited_paper_id
    taxonomy.csv     subfield_id,subfield_name,field_id,field_name

The three record parsers are generators over one pass of the input and
never materialize a whole file, so corpora with 1e8 rows stream in constant
memory. They yield plain tuples, no record object per row:

    parse_papers       (paper_id, DocType, subfield_id or None)
    parse_authorships  (paper_id, author_id)
    parse_citations    (citing_paper_id, cited_paper_id)

Each parser takes a csv reader whose header has been checked, then runs a
single `for row in reader` loop that checks the width (by unpacking the
row), the required ids and, for citations, drops self loops, all inline:
one generator frame per row. Row counts, dropped rows by reason among
them, are kept in locals and written to the per-file stats when the loop
ends or the generator is closed; the file's parse time, from header to last
row, is recorded there too. Every
IngestError carries the line and, when the source has a name, starts with
it.

Ids are yielded as read; corpus.build_index interns the ones it keeps.

`write_taxonomy` writes taxonomy.csv through `csv.writer`, since names are
free text. The three record files of a synthetic corpus are written by
`synth.write_corpus` straight from its columns, and the parsers yield back
exactly its `paper_rows()`, `authorship_rows()` and `citation_rows()`.
"""

from __future__ import annotations

import csv
import io
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Iterator

from .corpus import (
    AuthorshipRow,
    CitationRow,
    DocType,
    FieldTaxonomy,
    PaperRow,
    SubfieldInfo,
)
from .errors import CitegraphError, not_utf8

PAPERS_HEADER = ["paper_id", "doc_type", "subfield_id"]
AUTHORSHIPS_HEADER = ["paper_id", "author_id"]
CITATIONS_HEADER = ["citing_paper_id", "cited_paper_id"]
TAXONOMY_HEADER = ["subfield_id", "subfield_name", "field_id", "field_name"]


class IngestError(CitegraphError):
    """Malformed input file; message always carries the offending line number."""


@dataclass
class FileIngestStats:
    """Row accounting for one parsed file: rows_read = emitted + dropped + header.

    duration_s runs from reading the header to reading the last row, so it
    includes whatever the consumer did with the rows in between.
    """

    rows_read: int = 0
    emitted: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())


@dataclass
class IngestReport:
    files: dict[str, FileIngestStats] = field(default_factory=dict)

    def stats_for(self, name: str) -> FileIngestStats:
        return self.files.setdefault(name, FileIngestStats())


def _text_stream(source: IO) -> IO[str]:
    if isinstance(source, io.TextIOBase):
        return source
    return io.TextIOWrapper(source, encoding="utf-8-sig", newline="")


def _header_checked_reader(source: IO, expected_header: list[str]) -> Iterator[list[str]]:
    """A csv reader over `source` whose header row has been read and checked."""
    reader = csv.reader(_text_stream(source))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise _malformed(source, exc, 1) from exc
    except UnicodeDecodeError as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    if header is None:
        raise IngestError(_named(source, "line 1: missing header row"))
    if [col.strip() for col in header] != expected_header:
        raise IngestError(
            _named(
                source,
                f"line 1: expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
            )
        )
    return reader


def _malformed(source: IO, exc: csv.Error | UnicodeDecodeError, line_num: int) -> IngestError:
    if isinstance(exc, UnicodeDecodeError):
        message = not_utf8(exc, line_num)
    else:
        message = f"line {line_num}: malformed CSV: {exc}"
    return IngestError(_named(source, message))


def _bad_row(source: IO, reader, problem: str) -> IngestError:
    return IngestError(_named(source, f"line {reader.line_num}: {problem}"))


def _named(source: IO, message: str) -> str:
    name = getattr(source, "name", None)
    return message if name is None else f"{name}: {message}"


def parse_papers(source: IO, stats: FileIngestStats | None = None) -> Iterator[PaperRow]:
    """Yield `(paper_id, DocType, subfield_id or None)` per data row; duplicates pass through."""
    stats = stats if stats is not None else FileIngestStats()
    start = time.perf_counter()
    reader = _header_checked_reader(source, PAPERS_HEADER)
    doc_type_of = DocType.from_string
    rows_read = 1
    emitted = 0
    try:
        for row in reader:
            try:
                paper_id, doc_type, subfield_id = row
            except ValueError:
                if not row:
                    continue
                raise _bad_row(source, reader, f"expected 3 fields, got {len(row)}") from None
            rows_read += 1
            if not paper_id:
                raise _bad_row(source, reader, "empty paper_id")
            emitted += 1
            yield paper_id, doc_type_of(doc_type), subfield_id or None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    finally:
        stats.rows_read += rows_read
        stats.emitted += emitted
    stats.duration_s = time.perf_counter() - start


def parse_authorships(source: IO, stats: FileIngestStats | None = None) -> Iterator[AuthorshipRow]:
    """Yield `(paper_id, author_id)` per data row; duplicates pass through."""
    stats = stats if stats is not None else FileIngestStats()
    start = time.perf_counter()
    reader = _header_checked_reader(source, AUTHORSHIPS_HEADER)
    rows_read = 1
    emitted = 0
    try:
        for row in reader:
            try:
                paper_id, author_id = row
            except ValueError:
                if not row:
                    continue
                raise _bad_row(source, reader, f"expected 2 fields, got {len(row)}") from None
            rows_read += 1
            if not paper_id or not author_id:
                raise _bad_row(source, reader, "empty paper_id or author_id")
            emitted += 1
            yield paper_id, author_id
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    finally:
        stats.rows_read += rows_read
        stats.emitted += emitted
    stats.duration_s = time.perf_counter() - start


def parse_citations(source: IO, stats: FileIngestStats | None = None) -> Iterator[CitationRow]:
    """Yield `(citing_paper_id, cited_paper_id)` per data row.

    Self-loop rows are dropped and counted, not errors; duplicates pass through.
    """
    stats = stats if stats is not None else FileIngestStats()
    start = time.perf_counter()
    reader = _header_checked_reader(source, CITATIONS_HEADER)
    rows_read = 1
    emitted = 0
    self_loops = 0
    try:
        for row in reader:
            try:
                citing, cited = row
            except ValueError:
                if not row:
                    continue
                raise _bad_row(source, reader, f"expected 2 fields, got {len(row)}") from None
            rows_read += 1
            if not citing or not cited:
                raise _bad_row(source, reader, "empty citing_paper_id or cited_paper_id")
            if citing == cited:
                self_loops += 1
                continue
            emitted += 1
            yield citing, cited
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    finally:
        stats.rows_read += rows_read
        stats.emitted += emitted
        if self_loops:
            stats.dropped["self_loop"] = stats.dropped.get("self_loop", 0) + self_loops
    stats.duration_s = time.perf_counter() - start


def parse_taxonomy(source: IO, stats: FileIngestStats | None = None) -> FieldTaxonomy:
    stats = stats if stats is not None else FileIngestStats()
    start = time.perf_counter()
    reader = _header_checked_reader(source, TAXONOMY_HEADER)
    entries = []
    rows_read = 1
    try:
        for row in reader:
            try:
                subfield_id, subfield_name, field_id, field_name = row
            except ValueError:
                if not row:
                    continue
                raise _bad_row(source, reader, f"expected 4 fields, got {len(row)}") from None
            rows_read += 1
            if not subfield_id or not field_id:
                raise _bad_row(source, reader, "empty subfield_id or field_id")
            entries.append(
                SubfieldInfo(
                    subfield_id=sys.intern(subfield_id),
                    subfield_name=subfield_name,
                    field_id=sys.intern(field_id),
                    field_name=field_name,
                )
            )
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    finally:
        stats.rows_read += rows_read
        stats.emitted += len(entries)
    stats.duration_s = time.perf_counter() - start
    return FieldTaxonomy(entries)


def write_taxonomy(path: str, taxonomy: FieldTaxonomy) -> int:
    """Write taxonomy.csv with csv quoting, since subfield and field names are free text."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TAXONOMY_HEADER)
        for e in taxonomy:
            writer.writerow((e.subfield_id, e.subfield_name, e.field_id, e.field_name))
            n += 1
    return n
