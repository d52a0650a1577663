"""Data model and ingestion for reviews, calendar quarters, and revenue series."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Quarter",
    "Review",
    "RevenueSeries",
    "CorpusError",
    "iter_reviews",
    "parse_reviews",
    "parse_revenue",
    "quarter_rows",
    "csv_bytes",
]

_QUARTER_RE = re.compile(r"^(\d{4})Q([1-4])$")


class CorpusError(ValueError):
    """Malformed review/revenue input."""


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter, ordered by (year, index)."""

    year: int
    index: int

    def __post_init__(self):
        if self.index not in (1, 2, 3, 4):
            raise CorpusError(f"invalid quarter index: {self.index}")

    @classmethod
    def parse(cls, label: str) -> "Quarter":
        """The quarter a ``YYYYQn`` label names."""
        m = _QUARTER_RE.match(label.strip())
        if not m:
            raise CorpusError(f"invalid quarter label: {label!r} (expected YYYYQn)")
        return cls(int(m.group(1)), int(m.group(2)))

    def next(self) -> "Quarter":
        if self.index == 4:
            return Quarter(self.year + 1, 1)
        return Quarter(self.year, self.index + 1)

    def __str__(self) -> str:
        return f"{self.year}Q{self.index}"


class _ReviewFields(NamedTuple):
    id: str
    quarter: Quarter
    text: str
    source: str | None = None


class Review(_ReviewFields):
    """One customer review tied to a calendar quarter: an immutable named tuple."""

    __slots__ = ()

    def __new__(cls, id: str, quarter: Quarter, text: str, source: str | None = None):
        if not text.strip():
            raise CorpusError(f"review {id!r} has empty text")
        return super().__new__(cls, id, quarter, text, source)


@dataclass(frozen=True)
class RevenueSeries:
    """Contiguous quarterly revenue, millions USD, all values positive."""

    quarters: tuple[Quarter, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.quarters) != len(self.values):
            raise CorpusError("quarters and values length mismatch")
        for q, v in zip(self.quarters, self.values):
            if v <= 0:
                raise CorpusError(f"non-positive revenue for {q}: {v}")
        for prev, cur in zip(self.quarters, self.quarters[1:]):
            expected = prev.next()
            if cur != expected:
                raise CorpusError(f"missing {expected} in revenue series")

    def __len__(self) -> int:
        return len(self.quarters)


def _build_review(idx, rid, qlabel, text, source, seen_ids, quarters):
    """The Review of the record at line ``idx``, every field checked.

    ``seen_ids`` holds the ids read so far and ``quarters`` the quarter of
    each label read so far, both for one parse. The checks done, the tuple is
    built without ``Review``'s own.
    """
    if rid is None or rid == "":
        raise CorpusError(f"line {idx}: missing review id")
    if isinstance(rid, (list, dict)):
        raise CorpusError(f"line {idx}: review id must be a string or a number, not {rid!r}")
    # ids compare as the string the Review carries, so 5 and "5" are one id
    review_id = str(rid)
    if review_id in seen_ids:
        raise CorpusError(f"line {idx}: duplicate review id {rid!r}")
    if text is None or not (text := str(text)) or text.isspace():
        raise CorpusError(f"line {idx}: empty text for review {rid!r}")
    try:
        quarter = quarters[qlabel]
    except (KeyError, TypeError):  # a label not read before, or one that is no dict key
        try:
            quarter = quarters[qlabel] = Quarter.parse(str(qlabel))
        except CorpusError as e:
            raise CorpusError(f"line {idx}: {e}") from None
    seen_ids.add(review_id)
    return tuple.__new__(Review, (review_id, quarter, text, source or None))


def iter_reviews(stream, format: str = "jsonl") -> Iterator[Review]:
    """The reviews of a binary ``stream`` (JSONL or CSV), one record at a time.

    JSONL lines carry ``id``/``quarter``/``text`` and optional ``source``, one
    record per line ending in ``\\n``, ``\\r\\n`` or ``\\r``; CSV needs an
    ``id,quarter,text`` header. A UTF-8 byte-order mark that opens the stream
    is dropped; one anywhere else is a character. A record is decoded,
    parsed and yielded before the next one is read, so neither the file's
    text nor its reviews are ever held at once. A bad record raises CorpusError carrying its 1-based line
    number when the iteration reaches it; the reviews before it have been
    yielded. ``stream`` is left open.
    """
    if format not in ("jsonl", "csv"):
        raise CorpusError(f"unknown review format: {format!r}")
    # JSONL lines end in any of the three line ends, which the wrapper turns
    # into "\n"; csv reads each line's own end. utf-8-sig drops a byte-order
    # mark that opens the file, as spreadsheet "CSV UTF-8" exports write one.
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", newline=None if format == "jsonl" else "")
    try:
        yield from _jsonl_reviews(text) if format == "jsonl" else _csv_reviews(text)
    except UnicodeDecodeError as e:
        raise CorpusError(f"not valid UTF-8 ({e.reason})") from None
    finally:
        text.detach()  # else closing the wrapper would close ``stream``


def parse_reviews(data: bytes, format: str = "jsonl") -> list[Review]:
    """Every review of a file's bytes (JSONL or CSV), as ``iter_reviews`` reads them.

    The first bad record raises its CorpusError, so the list is all or nothing.
    """
    return list(iter_reviews(io.BytesIO(data), format))


def _jsonl_reviews(lines) -> Iterator[Review]:
    seen: set[str] = set()
    quarters: dict = {}
    scan = json.JSONDecoder().scan_once  # json.loads' C scanner, without its Python wrapper
    for idx, line in enumerate(lines, start=1):
        try:
            obj, end = scan(line, 0)
        except Exception:  # no value at the line's start, or a broken one
            end = -1
        # A value that fills its line, up to the "\n", is what json.loads reads
        # there. Any other line takes json.loads itself: it is blank, padded
        # with whitespace, opens with a BOM, holds more or is broken.
        if end < 0 or line[end:] not in ("\n", ""):
            if not line.strip():
                continue
            try:
                # without its "\n", so a broken record reads as it would alone
                obj = json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as e:
                raise CorpusError(f"line {idx}: malformed JSON ({e.msg})") from None
            except RecursionError:
                raise CorpusError(f"line {idx}: malformed JSON (nested too deeply)") from None
        if not isinstance(obj, dict):
            raise CorpusError(f"line {idx}: expected a JSON object")
        get = obj.get
        yield _build_review(idx, get("id"), get("quarter"), get("text"), get("source"), seen, quarters)


def _csv_reviews(lines) -> Iterator[Review]:
    seen: set[str] = set()
    quarters: dict = {}
    reader = csv.DictReader(lines)
    with _csv_errors(reader.reader):
        if reader.fieldnames is None or not {"id", "quarter", "text"} <= set(reader.fieldnames):
            raise CorpusError("CSV header must contain id,quarter,text")
        for idx, row in enumerate(reader, start=2):
            get = row.get
            yield _build_review(idx, get("id"), get("quarter"), get("text"), get("source"), seen, quarters)


@contextmanager
def _csv_errors(reader, error=CorpusError):
    """A ``csv.Error`` in the block, such as a field over the csv module's size
    limit, raises ``error("line N: malformed CSV (...)")`` at ``reader``'s line.

    ``reader`` is a ``csv.reader``: a ``DictReader``'s own ``line_num`` keeps
    the last good row's line, so pass its ``.reader``.
    """
    try:
        yield
    except csv.Error as e:
        raise error(f"line {reader.line_num}: malformed CSV ({e})") from None


def quarter_rows(data: bytes, columns=None, error=CorpusError):
    """The value columns and rows of a quarter-keyed CSV's bytes: revenue, features or predictions.

    The first line is the header. It must name ``quarter`` and each of
    ``columns``, which default to every other header column, and name no
    column twice; the names of the columns read come back first. The rows
    come second, as an iterator of ``(line, quarter, values)``: ``line`` is
    the row's physical line and ``values`` holds the row's ``columns`` as
    finite floats, in order. A leading byte-order mark is dropped and blank
    lines are skipped.

    A header fault raises ``error("line 1: ...")`` here, so before any row
    fault. A row with another field count than the header's, a bad quarter
    label or value, or a quarter named twice raises ``error("line N: ...")``
    when the iteration reaches it.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig")))
    with _csv_errors(reader, error):
        header = next(reader, [])
    missing = [c for c in ("quarter", *(columns or ())) if c not in header]
    if missing:
        raise error(f"line 1: missing columns {missing}")
    duplicate = sorted({c for c in header if header.count(c) > 1})
    if duplicate:
        raise error(f"line 1: duplicate columns {duplicate}")
    if columns is None:
        positions = [i for i, c in enumerate(header) if c != "quarter"]
    else:
        positions = [header.index(c) for c in columns]
    return [header[i] for i in positions], _quarter_rows(reader, header, positions, error)


def _quarter_rows(reader, header, positions, error):
    at = header.index("quarter")
    seen = set()
    with _csv_errors(reader, error):
        for row in reader:
            if not row:  # a blank line
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise error(f"line {line}: {len(row)} fields, header has {len(header)}")
            try:
                quarter = Quarter.parse(row[at])
            except CorpusError as e:
                raise error(f"line {line}: {e}") from None
            if quarter in seen:
                raise error(f"line {line}: duplicate quarter {quarter}")
            seen.add(quarter)
            values = []
            for i in positions:
                try:
                    value = float(row[i])
                except ValueError as e:
                    raise error(f"line {line}: {e} in column {header[i]!r}") from None
                if not math.isfinite(value):
                    raise error(f"line {line}: non-finite value {row[i]!r} in column {header[i]!r}")
                values.append(value)
            yield line, quarter, values


def parse_revenue(data: bytes) -> RevenueSeries:
    """Parse a ``quarter,revenue`` CSV, read by ``quarter_rows``, into a sorted, contiguous RevenueSeries."""
    rows = []
    for line, quarter, (value,) in quarter_rows(data, ["revenue"])[1]:
        if value <= 0:
            raise CorpusError(f"line {line}: non-positive revenue for {quarter}")
        rows.append((quarter, value))
    rows.sort()  # the quarters differ, so no two values are compared
    return RevenueSeries(quarters=tuple(q for q, _ in rows), values=tuple(v for _, v in rows))


def csv_bytes(header, rows) -> bytes:
    """UTF-8 CSV of ``header`` then ``rows``, every line ending in ``\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def reviews_to_jsonl(reviews: list[Review]) -> bytes:
    """Serialize reviews back to JSONL (inverse of parse_reviews)."""
    lines = []
    for r in reviews:
        obj = {"id": r.id, "quarter": str(r.quarter), "text": r.text}
        if r.source:
            obj["source"] = r.source
        lines.append(json.dumps(obj, ensure_ascii=False))
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
