"""Labeled packet-record datasets: ingestion, histograms, synthesis.

A dataset is an ordered sequence of protocol-labeled records, stored
as a column of class codes with a label table, plus passthrough
attributes left in the input text until something asks for them.
Labels are opaque strings compared exactly (case-sensitively) after
whitespace trimming; everything else a row carries is kept as
passthrough attributes.  The reference ingestion schema is a
Wireshark-style CSV export (``No., Time, Source, Destination, Protocol,
Length, Info``) with the label in the ``Protocol`` column.
"""

from __future__ import annotations

import csv
import io
import json
import re
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO

from pktsample import kernels
from pktsample.errors import (
    EmptyDataset,
    EmptyLabel,
    HistogramSpecError,
    InvalidUtf8,
    MalformedRow,
    MissingLabelColumn,
    ZeroTotal,
)

DEFAULT_LABEL_COLUMN = "Protocol"
_LINE_BREAK = re.compile(rb"\r\n?|\n")
_ROW_CHUNK = 256  # CSV rows parsed per step of a whole-input attribute pass


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One labeled traffic record.

    ``position`` is the 1-based ordinal within its dataset; ``attributes``
    are opaque key/value string pairs carried through from ingestion.
    """

    position: int
    label: str
    attributes: tuple[tuple[str, str], ...] = ()


class _SourceRows:
    """Passthrough attributes left in the input, parsed when asked for.

    ``source`` is the whole input as read (``bytes``, or ``str`` from a
    text stream).  ``keys`` are the CSV attribute keys (``None`` for
    NDJSON, whose keys vary by record) and ``label`` is the CSV label
    index or the NDJSON label column.  Each access parses the attributes
    of every record in one pass over the source; nothing is kept per
    record.
    """

    __slots__ = ("source", "keys", "label")

    def __init__(self, source: bytes | str, keys, label):
        self.source = source
        self.keys = keys
        self.label = label

    def rows(self) -> Iterable[tuple[tuple[str, str], ...]]:
        """The attributes of each record, in record order; endless empty
        ones where there are no CSV keys."""
        if self.keys is None:
            label = self.label
            return [
                tuple((key, _stringify(value)) for key, value in obj.items() if key != label)
                for _, obj in _ndjson_objects(self.source, _text(self.source))
            ]
        if not self.keys:
            return repeat(())
        return [tuple(zip(self.keys, values)) for values in zip(*self.csv_columns())]

    def csv_columns(self) -> list[list[str]]:
        """One value list per CSV attribute key, from one pass of
        ``csv.reader`` over the source.  Rows are taken a few hundred at a
        time, so the collector never tracks one list per record."""
        reader = csv.reader(_text(self.source))
        next(reader)
        rows = filter(None, reader)
        columns: list[list[str]] = [[] for _ in range(len(self.keys) + 1)]
        for chunk in iter(lambda: list(islice(rows, _ROW_CHUNK)), []):
            for column, values in zip(columns, zip(*chunk)):
                column.extend(values)
        del columns[self.label]
        return columns


def _code_array(codes: Iterable[int], nclasses: int) -> array:
    """Class codes in the narrowest unsigned ``array`` that holds
    ``nclasses`` codes, as the native label scanners return them."""
    if nclasses <= 0x100:
        return array("B", bytes(codes))  # bytes() converts a list of ints in C
    return array("H" if nclasses <= 0x10000 else "I", codes)


def _encoded(labels: Iterable[str]) -> tuple[array, tuple[str, ...]]:
    """The class code of each label and the label table, labels in
    first-appearance order."""
    index: dict[str, int] = {}
    codes = [index.setdefault(label, len(index)) for label in labels]
    return _code_array(codes, len(index)), tuple(index)


def _recoded(codes: array, mapping: Sequence[int], nclasses: int) -> array:
    """``codes`` with each code c replaced by ``mapping[c]``, a code below
    ``nclasses``."""
    if codes.typecode == "B":
        recoded = array("B")
        recoded.frombytes(codes.tobytes().translate(bytes(mapping).ljust(256, b"\0")))
        return recoded
    return _code_array([mapping[code] for code in codes], nclasses)


class TraceDataset:
    """Ordered, immutable sequence of records; the population being sampled.

    The dataset is stored as a column of class codes, not as one object
    per record: record k is of class ``codes[k - 1]``, whose label is
    ``table[codes[k - 1]]``.  ``codes`` is an unsigned ``array`` (typecode
    ``B`` up to 256 classes, wider beyond) and ``table`` lists the labels
    in first-appearance order.  A parsed dataset keeps its passthrough
    attributes in the input it was read from and parses them only when
    they are asked for.  ``labels`` and ``records`` are lazy library views
    built on first access.
    """

    def __init__(self, records: Iterable[PacketRecord]):
        records = tuple(records)
        for i, record in enumerate(records, start=1):
            if record.position != i:
                raise ValueError(
                    f"record positions must be contiguous 1..P; "
                    f"found {record.position} at index {i - 1}"
                )
            if not record.label:
                raise ValueError(f"record at position {i} has an empty label")
        self.codes, self.table = _encoded(record.label for record in records)
        self._attributes = tuple(record.attributes for record in records)
        self.__dict__["records"] = records  # the cached view is these records

    @classmethod
    def _from_codes(
        cls, codes: array, table: tuple[str, ...], attributes: _SourceRows
    ) -> "TraceDataset":
        """A dataset over an already validated code column, its label table
        and its attribute store (no per-record objects)."""
        dataset = cls.__new__(cls)
        dataset.codes = codes
        dataset.table = table
        dataset._attributes = attributes
        return dataset

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The label of each record (one shared ``str`` per distinct
        label), built on first access."""
        table = self.table
        return tuple([table[code] for code in self.codes])

    @cached_property
    def records(self) -> tuple[PacketRecord, ...]:
        """One ``PacketRecord`` per record, built on first access."""
        attributes = self._attributes
        if isinstance(attributes, _SourceRows):
            attributes = attributes.rows()
        return tuple(
            PacketRecord(position=i, label=label, attributes=pairs)
            for i, (label, pairs) in enumerate(zip(self.labels, attributes), start=1)
        )

    @cached_property
    def _histogram(self) -> "ClassHistogram":
        counts, _ = self.strata
        return ClassHistogram.from_counts(zip(self.table, counts))

    @cached_property
    def strata(self) -> tuple[list[int], array]:
        """``kernels.group_by_code`` of the codes: the number of records of
        each code, and the 1-based positions of the records grouped by
        code, ascending within a code, as ``array('q')``."""
        return kernels.group_by_code(self.codes, len(self.table))

    def attribute_columns(self) -> tuple[tuple[str, ...], Sequence[Sequence[str]]]:
        """The attribute keys and one value column per key.

        Raises ``ValueError`` when records carry differing key layouts.
        """
        rows = self._attributes
        if isinstance(rows, _SourceRows):
            if rows.keys is not None:  # CSV: every record has the header's keys
                return rows.keys, rows.csv_columns() if rows.keys else ()
            rows = rows.rows()
        keys = tuple(key for key, _ in rows[0]) if rows else ()
        if any(tuple(key for key, _ in row) != keys for row in rows):
            raise ValueError("records carry differing attribute layouts")
        return keys, [[row[j][1] for row in rows] for j in range(len(keys))]

    @property
    def population(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other):
        if not isinstance(other, TraceDataset):
            return NotImplemented
        return (
            self.table == other.table
            and self.codes == other.codes
            and self.records == other.records
        )


@dataclass(frozen=True)
class ClassHistogram:
    """Per-label instance counts, ordered by first appearance."""

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for label, count in self.entries:
            if not label or label != label.strip():
                raise ValueError(f"bad histogram label {label!r}")
            if count < 1:
                raise ValueError(f"class {label!r} has non-positive count {count}")
            if label in seen:
                raise ValueError(f"duplicate class {label!r}")
            seen.add(label)

    @property
    def class_count(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def counts(self) -> tuple[int, ...]:
        return tuple(count for _, count in self.entries)

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    @classmethod
    def from_counts(cls, items: Iterable[tuple[str, int]]) -> "ClassHistogram":
        return cls(entries=tuple((label, int(count)) for label, count in items))


def histogram(dataset: TraceDataset) -> ClassHistogram:
    """Count records per label, ordered by first appearance.

    Computed once per dataset; later calls return the same histogram.
    """
    if dataset.population == 0:
        raise EmptyDataset("cannot build a histogram of an empty dataset")
    return dataset._histogram


_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def _stringify(value: object) -> str:
    if isinstance(value, str):
        return value
    return _encode(value)


def _undecodable(source: bytes) -> InvalidUtf8:
    r"""The error naming the line that holds the first non-UTF-8 byte of
    ``source``: one more than the ``\r\n``, ``\r`` and ``\n`` breaks
    before it."""
    start = len(source)
    try:
        source.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    line = sum(1 for _ in _LINE_BREAK.finditer(source, 0, start)) + 1
    return InvalidUtf8(f"line {line}: input is not valid UTF-8")


def _scanned(scan, source: bytes | str, decode, *args):
    """The class codes and label table that a native label scanner reads
    from ``source``, or ``None`` where there is no scanner, the source is
    text or the scanner hands the input back to the Python parser.

    Each distinct raw token is decoded and stripped once, and the codes
    of tokens that decode to one label (`` TCP`` and ``TCP``) are merged;
    a blank label or one no report can write as UTF-8 also goes back to
    the Python parser, which raises its error.
    """
    if scan is None or not isinstance(source, bytes):
        return None
    scanned = scan(source, *args)
    if scanned is None:
        return None
    codes, tokens = scanned
    index: dict[str, int] = {}
    mapping = []
    for token in tokens:
        try:
            label = decode(token).strip()
            label.encode("utf-8")
        except ValueError:  # a JSON escape of a lone surrogate
            return None
        if not label:
            return None
        mapping.append(index.setdefault(label, len(index)))
    if len(index) < len(mapping):
        codes = _recoded(codes, mapping, len(index))
    return codes, tuple(index)


def _parse_csv(source: bytes | str, text: IO[str], label_column: str) -> TraceDataset:
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("input has no header row") from None
    except UnicodeDecodeError:
        raise _undecodable(source) from None
    except csv.Error as exc:
        raise MalformedRow(f"header (line {reader.line_num}): {exc}") from None
    if label_column not in header:
        raise MissingLabelColumn(
            f"header {header!r} lacks label column {label_column!r}"
        )
    label_index = header.index(label_column)
    width = len(header)
    keys = tuple(key for i, key in enumerate(header) if i != label_index)
    codes, table = _scanned(
        kernels.scan_csv_labels, source, bytes.decode,
        label_index, width, csv.field_size_limit(),
    ) or _read_csv_labels(source, reader, label_index, width)
    attributes = _SourceRows(source, keys, label_index)
    return TraceDataset._from_codes(codes, table, attributes)


def _read_csv_labels(source, reader, label_index: int, width: int):
    """The Python CSV parser: class codes and label table of the rows
    after the header."""
    codes: list[int] = []
    index: dict[str, int] = {}
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise MalformedRow(
                    f"row {len(codes) + 1} (line {reader.line_num}): expected "
                    f"{width} columns, got {len(row)}"
                )
            label = row[label_index].strip()
            if not label:
                raise EmptyLabel(
                    f"row {len(codes) + 1} (line {reader.line_num}): blank label"
                )
            codes.append(index.setdefault(label, len(index)))
    except UnicodeDecodeError:
        raise _undecodable(source) from None
    except csv.Error as exc:
        raise MalformedRow(
            f"row {len(codes) + 1} (line {reader.line_num}): {exc}"
        ) from None
    if not codes:
        raise EmptyDataset("input has no data rows")
    return _code_array(codes, len(index)), tuple(index)


def _parse_ndjson(source: bytes | str, text: IO[str], label_column: str) -> TraceDataset:
    codes, table = _scanned(
        kernels.scan_ndjson_labels, source, json.loads, label_column
    ) or _read_ndjson_labels(source, text, label_column)
    attributes = _SourceRows(source, None, label_column)
    return TraceDataset._from_codes(codes, table, attributes)


def _ndjson_objects(source: bytes | str, text: IO[str]):
    """The Python NDJSON parser: ``(line number, object)`` for each line of
    ``text`` that is not blank after ``str.strip()``."""
    try:
        for line_num, line in enumerate(text, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRow(
                    f"line {line_num}: invalid JSON ({exc.msg})"
                ) from None
            except RecursionError:
                raise MalformedRow(
                    f"line {line_num}: invalid JSON (nested too deeply)"
                ) from None
            except ValueError:  # an integer past int's digit limit
                raise MalformedRow(
                    f"line {line_num}: invalid JSON (number has too many digits)"
                ) from None
            if not isinstance(obj, dict):
                raise MalformedRow(f"line {line_num}: expected a JSON object")
            yield line_num, obj
    except UnicodeDecodeError:
        raise _undecodable(source) from None


def _read_ndjson_labels(source, text: IO[str], label_column: str):
    """The class codes and label table of the Python NDJSON parser."""
    codes: list[int] = []
    index: dict[str, int] = {}
    for line_num, obj in _ndjson_objects(source, text):
        if label_column not in obj:
            raise MissingLabelColumn(
                f"line {line_num}: object lacks label column {label_column!r}"
            )
        label = _stringify(obj[label_column]).strip()
        if not label:
            raise EmptyLabel(f"line {line_num}: blank label")
        if label not in index:
            _check_encodable(label, line_num)
            index[label] = len(index)
        codes.append(index[label])
    if not codes:
        raise EmptyDataset("input has no data rows")
    return _code_array(codes, len(index)), tuple(index)


def _check_encodable(label: str, line_num: int) -> None:
    r"""A JSON ``\ud800`` escape decodes to a lone surrogate, which no
    report can write as UTF-8."""
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise MalformedRow(
            f"line {line_num}: label is not valid Unicode (lone surrogate)"
        ) from None


def parse_records(
    stream: IO[bytes] | IO[str],
    format: str = "csv",
    label_column: str = DEFAULT_LABEL_COLUMN,
) -> TraceDataset:
    """Parse a UTF-8 byte (or text) stream of labeled records.

    ``format`` is ``csv`` (header row required) or ``ndjson`` (one object
    per line).  Row order is preserved: record k corresponds to data row k.
    A leading byte-order mark is skipped; bytes that are not UTF-8 raise
    ``InvalidUtf8`` naming the line.  The stream is read once and kept:
    only the labels are parsed here, each record's other fields when they
    are asked for.
    """
    if format not in ("csv", "ndjson"):
        raise ValueError(f"unknown format {format!r} (use 'csv' or 'ndjson')")
    source = stream.read()
    parse = _parse_csv if format == "csv" else _parse_ndjson
    return parse(source, _text(source), label_column)


def _text(source: bytes | str) -> IO[str]:
    """The input as the parsers read it: UTF-8 with a leading BOM skipped,
    line endings kept."""
    if isinstance(source, str):
        return io.StringIO(source, newline="")
    return io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="")


def load_dataset(
    path: str | Path,
    format: str | None = None,
    label_column: str = DEFAULT_LABEL_COLUMN,
) -> TraceDataset:
    """Parse a dataset file; format inferred from the extension by default."""
    path = Path(path)
    if format is None:
        format = "ndjson" if path.suffix.lower() in (".ndjson", ".jsonl") else "csv"
    with open(path, "rb") as stream:
        return parse_records(stream, format=format, label_column=label_column)


def synthesize(
    spec: ClassHistogram,
    seed: int = 0,
    arrangement: str = "shuffled",
) -> TraceDataset:
    """Generate a dataset with exactly the spec's per-class counts.

    ``grouped`` emits classes contiguously in histogram order;
    ``shuffled`` applies one seeded Fisher-Yates permutation to the
    grouped sequence.  Output is byte-stable for equal inputs.
    """
    if spec.total < 1:
        raise ZeroTotal("histogram spec has zero total")
    if arrangement not in ("shuffled", "grouped"):
        raise ValueError(f"unknown arrangement {arrangement!r}")
    codes: list[int] = []
    for code, count in enumerate(spec.counts()):
        codes += [code] * count
    if arrangement == "shuffled" and len(codes) > 1:
        # itemgetter gathers in C; given one index it returns the item
        # itself, and one record has nothing to shuffle
        codes = itemgetter(*kernels.permutation(len(codes), seed))(codes)
    codes, table = _renumbered(_code_array(codes, spec.class_count), spec.labels())
    return TraceDataset._from_codes(codes, table, _SourceRows("", (), 0))


def _renumbered(codes: array, table: tuple[str, ...]) -> tuple[array, tuple[str, ...]]:
    """``codes`` and ``table`` renumbered so that the table lists the
    labels in the order in which they first appear; every code appears."""
    if codes.typecode == "B":  # one memchr per class
        data = codes.tobytes()
        seen = sorted(range(len(table)), key=data.find)
    else:
        seen = list(dict.fromkeys(codes))
    mapping = [0] * len(table)
    for code, old in enumerate(seen):
        mapping[old] = code
    return _recoded(codes, mapping, len(table)), tuple(table[old] for old in seen)


def parse_histogram_spec(text: str) -> ClassHistogram:
    """Parse ``label,count`` lines; ``#`` starts a comment, blanks ignored.

    Each count and their total lie below the kernels' ``SIZE_LIMIT``.
    """
    entries = []
    seen = set()
    total = 0
    for line_num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label_part, _, count_part = line.rpartition(",")
        label = label_part.strip()
        if not label:
            raise HistogramSpecError(f"line {line_num}: missing label")
        try:
            count = int(count_part.strip())
        except ValueError:
            raise HistogramSpecError(
                f"line {line_num}: bad count {count_part.strip()!r}"
            ) from None
        if count < 1:
            raise HistogramSpecError(f"line {line_num}: count must be >= 1")
        if count >= kernels.SIZE_LIMIT:
            raise HistogramSpecError(f"line {line_num}: count must be < 2**63")
        total += count
        if total >= kernels.SIZE_LIMIT:
            raise HistogramSpecError(f"line {line_num}: counts must total < 2**63")
        if label in seen:
            raise HistogramSpecError(f"line {line_num}: duplicate label {label!r}")
        seen.add(label)
        entries.append((label, count))
    if not entries:
        raise HistogramSpecError("histogram spec has no entries")
    return ClassHistogram.from_counts(entries)


def load_histogram_spec(path: str | Path) -> ClassHistogram:
    """Parse a UTF-8 histogram spec file; a leading BOM is skipped."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise HistogramSpecError(str(_undecodable(data))) from None
    return parse_histogram_spec(text)


def pu_tds_histogram() -> ClassHistogram:
    """The bundled PU-TDS histogram: 30000 packets over 25 protocols."""
    text = resources.files("pktsample").joinpath("data/pu_tds.hist").read_text("utf-8")
    return parse_histogram_spec(text)
