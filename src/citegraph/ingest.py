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

Every reader runs inside one frame, `_records`, which checks the header,
turns a csv or decoding error into an IngestError that names the line,
detaches its text wrapper however the reader ends, and records the file's
parse time, from header to last row, when the reader ends normally. Inside
it each parser runs a single `for row in reader` loop that checks the
width (by unpacking the row), the required ids and, for citations, drops
self loops, all inline: one generator frame per row. Authorships and
citations, the two id-pair files, share one such loop, `_id_pairs`. The
rows read and the dropped rows by reason are kept in locals and written to
the per-file stats when the loop ends or the generator is closed (the rows
emitted follow from them). Every IngestError carries the line and, when
the source has a name, starts with it. Readers never close the stream they
are given.

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
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields
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
TAXONOMY_HEADER = [f.name for f in fields(SubfieldInfo)]


class IngestError(CitegraphError):
    """Malformed input file; message always carries the offending line number."""


@dataclass
class FileIngestStats:
    """Row accounting for one parsed file: rows_read = emitted + dropped + header.

    duration_s runs from reading the header to reading the last row, so it
    includes whatever the consumer did with the rows in between.
    """

    rows_read: int = 0
    dropped: dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def emitted(self) -> int:
        """Data rows passed on: 0 until a header has been read."""
        return self.rows_read - 1 - self.n_dropped if self.rows_read else 0


@dataclass
class IngestReport:
    files: dict[str, FileIngestStats] = field(default_factory=dict)

    def stats_for(self, name: str) -> FileIngestStats:
        return self.files.setdefault(name, FileIngestStats())


@contextmanager
def _records(source: IO[bytes], header: list[str], stats: FileIngestStats | None):
    """The frame of every reader: yields `(reader, stats)` once `header` is checked.

    `stats` is fresh when None, and its `duration_s` is set, from before
    the header to after the last row, only when the caller's loop ends
    normally. A csv or decoding error, in the header or any row, becomes
    the IngestError of `_malformed`, and `text` is released however the
    frame ends.
    """
    stats = stats if stats is not None else FileIngestStats()
    start = time.perf_counter()
    text, reader = _csv_reader(source)
    try:
        found = next(reader, None)
        if found is None:
            raise IngestError(_named(source, "line 1: missing header row"))
        if [col.strip() for col in found] != header:
            raise IngestError(
                _named(
                    source,
                    f"line 1: expected header {','.join(header)!r}, got {','.join(found)!r}",
                )
            )
        yield reader, stats
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _malformed(source, exc, reader.line_num) from exc
    finally:
        _release(text)
    stats.duration_s = time.perf_counter() - start


def _csv_reader(source: IO[bytes], errors: str = "strict"):
    """`(text, reader)`: binary `source` as UTF-8 with an optional BOM, read by strict RFC 4180."""
    text = io.TextIOWrapper(source, encoding="utf-8-sig", errors=errors, newline="")
    return text, csv.reader(text, strict=True)


def _release(text: io.TextIOWrapper) -> None:
    """Detach `text` so that dropping it leaves its stream open; a closed stream is left alone."""
    if not text.closed:
        text.detach()


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

    `source` is decoded again with surrogateescape, which cannot fail, and
    split into lines as the reader splits it, at `\\n`, `\\r\\n` or a lone
    `\\r`. A bad byte's line is the first whose text does not encode back to
    UTF-8; a bad record's is found by a fresh reader, which only the csv
    error can stop.
    """
    source.seek(0)
    text, reader = _csv_reader(source, errors="surrogateescape")
    try:
        if isinstance(exc, UnicodeDecodeError):
            for line, decoded in enumerate(text, 1):
                try:
                    decoded.encode("utf-8")
                except UnicodeEncodeError:
                    return line
            return None
        start = 1
        for _ in reader:
            start = reader.line_num + 1
    except csv.Error:
        return start
    finally:
        _release(text)
    return None


def _bad_row(source: IO, reader, problem: str) -> IngestError:
    return IngestError(_named(source, f"line {reader.line_num}: {problem}"))


def _named(source: IO, message: str) -> str:
    name = getattr(source, "name", None)
    return message if name is None else f"{name}: {message}"


def parse_papers(source: IO, stats: FileIngestStats | None = None) -> Iterator[PaperRow]:
    """Yield `(paper_id, DocType, subfield_id or None)` per data row; duplicates pass through."""
    doc_type_of = DocType.from_string
    rows_read = 1
    with _records(source, PAPERS_HEADER, stats) as (reader, stats):
        try:
            for row in reader:
                try:
                    paper_id, doc_type, subfield_id = row
                except ValueError:
                    if not row:
                        continue
                    raise _bad_row(source, reader, f"expected 3 fields, got {len(row)}") from None
                if not paper_id:
                    raise _bad_row(source, reader, "empty paper_id")
                rows_read += 1
                yield paper_id, doc_type_of(doc_type), subfield_id or None
        finally:
            stats.rows_read += rows_read


def parse_authorships(source: IO, stats: FileIngestStats | None = None) -> Iterator[AuthorshipRow]:
    """Yield `(paper_id, author_id)` per data row; duplicates pass through."""
    return _id_pairs(source, stats, AUTHORSHIPS_HEADER, drop_self_loops=False)


def parse_citations(source: IO, stats: FileIngestStats | None = None) -> Iterator[CitationRow]:
    """Yield `(citing_paper_id, cited_paper_id)` per data row.

    Self-loop rows are dropped and counted, not errors; duplicates pass through.
    """
    return _id_pairs(source, stats, CITATIONS_HEADER, drop_self_loops=True)


def _id_pairs(
    source: IO, stats: FileIngestStats | None, header: list[str], drop_self_loops: bool
) -> Iterator[tuple[str, str]]:
    """Yield the two non-empty ids of each data row of a two-column id file.

    With `drop_self_loops`, a row whose ids are equal is dropped and counted
    as a `self_loop`; the flag is read only on such a row.
    """
    empty_id = f"empty {header[0]} or {header[1]}"
    rows_read = 1
    self_loops = 0
    with _records(source, header, stats) as (reader, stats):
        try:
            for row in reader:
                try:
                    first, second = row
                except ValueError:
                    if not row:
                        continue
                    raise _bad_row(source, reader, f"expected 2 fields, got {len(row)}") from None
                if not first or not second:
                    raise _bad_row(source, reader, empty_id)
                rows_read += 1
                if first == second and drop_self_loops:
                    self_loops += 1
                    continue
                yield first, second
        finally:
            stats.rows_read += rows_read
            if self_loops:
                stats.dropped["self_loop"] = stats.dropped.get("self_loop", 0) + self_loops


def read_rows(
    source: IO[bytes], header: list[str], stats: FileIngestStats | None = None
) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line, row)` per data row of a small table, every row `len(header)` wide.

    Blank lines are skipped; every error is an IngestError that names the line.
    """
    width = len(header)
    rows_read = 1
    with _records(source, header, stats) as (reader, stats):
        try:
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise _bad_row(source, reader, f"expected {width} fields, got {len(row)}")
                rows_read += 1
                yield reader.line_num, row
        finally:
            stats.rows_read += rows_read


def parse_taxonomy(source: IO[bytes], stats: FileIngestStats | None = None) -> FieldTaxonomy:
    entries = []
    for line, row in read_rows(source, TAXONOMY_HEADER, stats):
        entry = SubfieldInfo(*row)
        if not entry.subfield_id or not entry.field_id:
            raise IngestError(_named(source, f"line {line}: empty subfield_id or field_id"))
        entries.append(entry)
    return FieldTaxonomy(entries)


def write_rows(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write `header` and then `rows` as UTF-8 CSV, csv-quoted, one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_taxonomy(path: str | Path, taxonomy: FieldTaxonomy) -> None:
    """Write taxonomy.csv, one row per SubfieldInfo."""
    write_rows(path, TAXONOMY_HEADER, map(astuple, taxonomy))
