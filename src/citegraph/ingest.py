"""Streaming CSV parsers and writers for the four corpus files.

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

Ids are yielded as read; corpus.build_index interns the ones it keeps.
Every dropped row is counted by reason in the per-file stats, and each
file's parse time is recorded there too.
"""

from __future__ import annotations

import csv
import io
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from .corpus import (
    AuthorshipRecord,
    AuthorshipRow,
    CitationEdge,
    CitationRow,
    DocType,
    FieldTaxonomy,
    PaperRecord,
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

    def drop(self, reason: str) -> None:
        self.dropped[reason] = self.dropped.get(reason, 0) + 1

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


def _rows(
    source: IO, expected_header: list[str], required: tuple[int, ...], stats: FileIngestStats
) -> Iterator[list[str]]:
    """Data rows of one CSV file, checked for width and non-empty `required` columns.

    Every IngestError carries the line and, when the source has a name, starts
    with it.
    """
    start = time.perf_counter()
    reader = csv.reader(_text_stream(source))
    width = len(expected_header)
    header = None
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError(_named(source, "line 1: missing header row"))
        stats.rows_read += 1
        if [col.strip() for col in header] != expected_header:
            raise IngestError(
                _named(
                    source,
                    f"line 1: expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
                )
            )
        empty = f"empty {' or '.join(expected_header[i] for i in required)}"
        for row in reader:
            if not row:
                continue
            stats.rows_read += 1
            if len(row) != width:
                raise IngestError(
                    _named(source, f"line {reader.line_num}: expected {width} fields, got {len(row)}")
                )
            for i in required:
                if not row[i]:
                    raise IngestError(_named(source, f"line {reader.line_num}: {empty}"))
            yield row
    except csv.Error as exc:
        line = reader.line_num if header is not None else 1
        raise IngestError(_named(source, f"line {line}: malformed CSV: {exc}")) from exc
    except UnicodeDecodeError as exc:
        # The decoder reads ahead in blocks, so only a lower bound on the line is known.
        bad = f"after line {reader.line_num}: byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
        raise IngestError(_named(source, bad)) from exc
    stats.duration_s = time.perf_counter() - start


def _named(source: IO, message: str) -> str:
    name = getattr(source, "name", None)
    return message if name is None else f"{name}: {message}"


def parse_papers(source: IO, stats: FileIngestStats | None = None) -> Iterator[PaperRow]:
    """Yield `(paper_id, DocType, subfield_id or None)` per data row; duplicates pass through."""
    stats = stats if stats is not None else FileIngestStats()
    for paper_id, doc_type, subfield_id in _rows(source, PAPERS_HEADER, (0,), stats):
        stats.emitted += 1
        yield paper_id, DocType.from_string(doc_type), subfield_id or None


def parse_authorships(source: IO, stats: FileIngestStats | None = None) -> Iterator[AuthorshipRow]:
    """Yield `(paper_id, author_id)` per data row; duplicates pass through."""
    stats = stats if stats is not None else FileIngestStats()
    for paper_id, author_id in _rows(source, AUTHORSHIPS_HEADER, (0, 1), stats):
        stats.emitted += 1
        yield paper_id, author_id


def parse_citations(source: IO, stats: FileIngestStats | None = None) -> Iterator[CitationRow]:
    """Yield `(citing_paper_id, cited_paper_id)` per data row.

    Self-loop rows are dropped and counted, not errors; duplicates pass through.
    """
    stats = stats if stats is not None else FileIngestStats()
    for citing, cited in _rows(source, CITATIONS_HEADER, (0, 1), stats):
        if citing == cited:
            stats.drop("self_loop")
            continue
        stats.emitted += 1
        yield citing, cited


def parse_taxonomy(source: IO, stats: FileIngestStats | None = None) -> FieldTaxonomy:
    stats = stats if stats is not None else FileIngestStats()
    entries = []
    for subfield_id, subfield_name, field_id, field_name in _rows(
        source, TAXONOMY_HEADER, (0, 2), stats
    ):
        stats.emitted += 1
        entries.append(
            SubfieldInfo(
                subfield_id=sys.intern(subfield_id),
                subfield_name=subfield_name,
                field_id=sys.intern(field_id),
                field_name=field_name,
            )
        )
    return FieldTaxonomy(entries)


def _write_rows(path: str, header: list[str], rows: Iterable[Iterable[str]]) -> int:
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
            n += 1
    return n


def write_papers(path: str, records: Iterable[PaperRecord]) -> int:
    return _write_rows(
        path,
        PAPERS_HEADER,
        ((r.paper_id, r.doc_type.value, r.subfield_id or "") for r in records),
    )


def write_authorships(path: str, records: Iterable[AuthorshipRecord]) -> int:
    return _write_rows(path, AUTHORSHIPS_HEADER, ((r.paper_id, r.author_id) for r in records))


def write_citations(path: str, records: Iterable[CitationEdge]) -> int:
    return _write_rows(
        path, CITATIONS_HEADER, ((r.citing_paper_id, r.cited_paper_id) for r in records)
    )


def write_taxonomy(path: str, taxonomy: FieldTaxonomy) -> int:
    return _write_rows(
        path,
        TAXONOMY_HEADER,
        ((e.subfield_id, e.subfield_name, e.field_id, e.field_name) for e in taxonomy),
    )
