"""The one CSV reader and writer: the four corpus files and every small table.

Formats (UTF-8 with an optional BOM, strict RFC 4180 quoting, header row required):

    papers.csv       paper_id,doc_type,subfield_id
    authorships.csv  paper_id,author_id
    citations.csv    citing_paper_id,cited_paper_id
    taxonomy.csv     subfield_id,subfield_name,field_id,field_name

Readers take binary streams. The three record parsers are generators over
one pass of the input and never materialize a whole file, so corpora with
1e8 rows stream in constant memory. They yield plain tuples, no record
object per row:

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

Ids are yielded as read, and corpus.build_index stores them as they are.

`read_rows` reads every small table (taxonomy.csv, truth.csv, the tail
files) with the same checks and messages, and `write_rows` writes every CSV
but the three record files of a synthetic corpus, which
`synth.write_corpus` writes straight from its columns; the parsers yield
back exactly its `paper_rows()`, `authorship_rows()` and `citation_rows()`.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator

from .corpus import (
    AuthorshipRow,
    CitationRow,
    DocType,
    FieldTaxonomy,
    PaperRow,
    SubfieldInfo,
)
from .errors import CitegraphError

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


def _header_checked_reader(source: IO[bytes], expected_header: list[str]) -> Iterator[list[str]]:
    """A csv reader over binary `source` whose header row has been read and checked."""
    reader = _csv_reader(source)
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


def _csv_reader(source: IO[bytes], errors: str = "strict"):
    """A strict RFC 4180 csv reader over binary `source`, UTF-8 with an optional BOM."""
    text = io.TextIOWrapper(source, encoding="utf-8-sig", errors=errors, newline="")
    return csv.reader(text, strict=True)


def _malformed(source: IO, exc: csv.Error | UnicodeDecodeError, line_num: int) -> IngestError:
    """The error for `exc`, naming the line where the bad record or byte starts.

    That line is found here, on the error path only, by reading a seekable
    `source` again from the top; a source that cannot seek is named by the
    reader's `line_num`.
    """
    line = _error_line(source, exc) if source.seekable() else None
    if isinstance(exc, UnicodeDecodeError):
        problem = f"byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
        if line is None:
            # Text streams decode ahead in blocks, so the line is only a lower bound.
            message = f"after line {line_num}: {problem}"
        else:
            message = f"line {line}: {problem}"
    else:
        message = f"line {line_num if line is None else line}: malformed CSV: {exc}"
    return IngestError(_named(source, message))


def _error_line(source: IO[bytes], exc: csv.Error | UnicodeDecodeError) -> int | None:
    """The line of seekable `source` where the byte or record that raised `exc` starts.

    A bad byte is found by decoding raw lines one at a time; a bad record by
    a fresh reader, which decodes with replacement so that only the csv
    error can stop it.
    """
    source.seek(0)
    if isinstance(exc, UnicodeDecodeError):
        for line, raw in enumerate(source, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line
        return None
    reader = _csv_reader(source, errors="replace")
    start = 1
    try:
        for _ in reader:
            start = reader.line_num + 1
    except csv.Error:
        return start
    return None


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


def read_rows(
    source: IO[bytes], header: list[str], stats: FileIngestStats | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line, row)` per data row of a small table, every row `len(header)` wide.

    Blank lines are skipped; every error is an IngestError that names the line.
    """
    stats = stats if stats is not None else FileIngestStats()
    start = time.perf_counter()
    reader = _header_checked_reader(source, header)
    width = len(header)
    rows_read = 1
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise _bad_row(source, reader, f"expected {width} fields, got {len(row)}")
            rows_read += 1
            yield reader.line_num, row
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    finally:
        stats.rows_read += rows_read
        stats.emitted += rows_read - 1
    stats.duration_s = time.perf_counter() - start


def parse_taxonomy(source: IO[bytes], stats: FileIngestStats | None = None) -> FieldTaxonomy:
    entries = []
    for line, (subfield_id, subfield_name, field_id, field_name) in read_rows(
        source, TAXONOMY_HEADER, stats
    ):
        if not subfield_id or not field_id:
            raise IngestError(_named(source, f"line {line}: empty subfield_id or field_id"))
        entries.append(SubfieldInfo(subfield_id, subfield_name, field_id, field_name))
    return FieldTaxonomy(entries)


def write_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write `header` and then `rows` as UTF-8 CSV, csv-quoted, one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_taxonomy(path: str | Path, taxonomy: FieldTaxonomy) -> None:
    """Write taxonomy.csv; SubfieldInfo's fields are in TAXONOMY_HEADER order."""
    write_rows(path, TAXONOMY_HEADER, map(astuple, taxonomy))
