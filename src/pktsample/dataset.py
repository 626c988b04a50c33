"""Labeled packet-record datasets: ingestion, histograms, synthesis.

A dataset is an ordered sequence of protocol-labeled records, stored
as a label column plus passthrough attributes left in the input text
until something asks for them.  Labels are opaque
strings compared exactly (case-sensitively) after whitespace trimming;
everything else a row carries is kept as passthrough attributes.  The
reference ingestion schema is a Wireshark-style CSV export (``No.,
Time, Source, Destination, Protocol, Length, Info``) with the label in
the ``Protocol`` column.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import re
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
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
    """Passthrough attributes left in the input, parsed one record at a time.

    ``source`` is the whole input as read (``bytes``, or ``str`` from a
    text stream), and ``ends[k]`` is the physical line on which record k
    ends; ``ends[0]`` is the CSV header's last line (0 for NDJSON).  A CSV
    record's text runs from the line after ``ends[k - 1]`` through
    ``ends[k]``, so it may hold blank lines and quoted line breaks, and it
    parses as it did in the whole file; an NDJSON record is its one line.
    ``keys`` are the CSV attribute keys (``None`` for NDJSON, whose keys
    vary by record) and ``label`` is the CSV label index or the NDJSON
    label column.  Line offsets are found on first access.
    """

    __slots__ = ("source", "ends", "keys", "label", "_starts")

    def __init__(self, source: bytes | str, ends: array, keys, label):
        self.source = source
        self.ends = ends
        self.keys = keys
        self.label = label
        self._starts: array | None = None

    def _line_starts(self) -> array:
        r"""The offset at which each physical line starts, then the end of
        the source; lines end at ``\r\n``, ``\r`` or ``\n``, as in
        ``TextIOWrapper(newline="")``.  A BOM is skipped only at offset 0."""
        source = self.source
        if isinstance(source, str):
            breaks = re.finditer(r"\r\n?|\n", source)
            first = 0
        else:
            breaks = re.finditer(rb"\r\n?|\n", source)
            first = len(codecs.BOM_UTF8) if source.startswith(codecs.BOM_UTF8) else 0
        starts = array("q", [first])
        starts.extend(match.end() for match in breaks)
        if starts[-1] != len(source):
            starts.append(len(source))
        return starts

    def __getitem__(self, index: int) -> tuple[tuple[str, str], ...]:
        if self.keys == ():
            return ()
        if self._starts is None:
            self._starts = self._line_starts()
        last = self.ends[index + 1]
        first = last if self.keys is None else self.ends[index] + 1
        text = self.source[self._starts[first - 1] : self._starts[last]]
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        if self.keys is None:
            return tuple(
                (key, _stringify(value))
                for key, value in json.loads(text).items()
                if key != self.label
            )
        row = next(filter(None, csv.reader(io.StringIO(text, newline=""))))
        del row[self.label]
        return tuple(zip(self.keys, row))


class TraceDataset:
    """Ordered, immutable sequence of records; the population being sampled.

    The dataset is stored as a label column, not as one object per
    record: ``labels[k - 1]`` is the label of record k (one shared ``str``
    per distinct label).  A parsed dataset keeps its passthrough
    attributes in the input it was read from, with the line on which each
    record ends, and parses a record's attributes only when they are
    asked for.  ``records`` is a lazy library view that builds
    ``PacketRecord`` objects on first access.
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
        self.labels = tuple(record.label for record in records)
        self._attributes = tuple(record.attributes for record in records)
        self.__dict__["records"] = records  # the cached view is these records

    @classmethod
    def _from_labels(
        cls, labels: Iterable[str], attributes: _SourceRows
    ) -> "TraceDataset":
        """A dataset over an already validated label column and its
        attribute store (no per-record objects)."""
        dataset = cls.__new__(cls)
        dataset.labels = tuple(labels)
        dataset._attributes = attributes
        return dataset

    @cached_property
    def records(self) -> tuple[PacketRecord, ...]:
        """One ``PacketRecord`` per record, built on first access."""
        attributes = self._attributes
        return tuple(
            PacketRecord(position=i, label=label, attributes=attributes[i - 1])
            for i, label in enumerate(self.labels, start=1)
        )

    @cached_property
    def _histogram(self) -> "ClassHistogram":
        return ClassHistogram.from_counts(Counter(self.labels).items())

    @cached_property
    def strata(self) -> tuple[tuple[str, array], ...]:
        """Each label with the ascending 1-based positions of its records,
        labels in first-appearance order."""
        strata = {label: array("q") for label in dict.fromkeys(self.labels)}
        appends = {label: positions.append for label, positions in strata.items()}
        for position, label in enumerate(self.labels, start=1):
            appends[label](position)
        return tuple(strata.items())

    def attribute_columns(self) -> tuple[tuple[str, ...], Sequence[Sequence[str]]]:
        """The attribute keys and one value column per key.

        Raises ``ValueError`` when records carry differing key layouts.
        """
        if isinstance(self._attributes, _SourceRows) and self._attributes.keys == ():
            return (), ()
        rows = [self._attributes[i] for i in range(self.population)]
        keys = tuple(key for key, _ in rows[0]) if rows else ()
        if any(tuple(key for key, _ in row) != keys for row in rows):
            raise ValueError("records carry differing attribute layouts")
        return keys, [[row[j][1] for row in rows] for j in range(len(keys))]

    @property
    def population(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other):
        if not isinstance(other, TraceDataset):
            return NotImplemented
        return self.labels == other.labels and self.records == other.records


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


def _stringify(value: object) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"), ensure_ascii=False)


def _undecodable(exc: UnicodeDecodeError, lines_read: int) -> InvalidUtf8:
    """The error naming the line that holds the first non-UTF-8 byte.

    The text layer decodes a chunk only once it has handed out every
    complete line before it, so that line is ``lines_read`` plus the
    line breaks that precede the bad byte in the chunk.
    """
    line = lines_read + exc.object.count(b"\n", 0, exc.start) + 1
    return InvalidUtf8(f"line {line}: input is not valid UTF-8")


def _parse_csv(source: bytes | str, text: IO[str], label_column: str) -> TraceDataset:
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("input has no header row") from None
    except UnicodeDecodeError as exc:
        raise _undecodable(exc, reader.line_num) from None
    except csv.Error as exc:
        raise MalformedRow(f"header (line {reader.line_num}): {exc}") from None
    if label_column not in header:
        raise MissingLabelColumn(
            f"header {header!r} lacks label column {label_column!r}"
        )
    label_index = header.index(label_column)
    width = len(header)
    keys = tuple(key for i, key in enumerate(header) if i != label_index)
    labels: list[str] = []
    ends = array("q", [reader.line_num])
    shared: dict[str, str] = {}
    try:
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise MalformedRow(
                    f"row {len(labels) + 1} (line {reader.line_num}): expected "
                    f"{width} columns, got {len(row)}"
                )
            label = row[label_index].strip()
            if not label:
                raise EmptyLabel(
                    f"row {len(labels) + 1} (line {reader.line_num}): blank label"
                )
            labels.append(shared.setdefault(label, label))
            ends.append(reader.line_num)
    except UnicodeDecodeError as exc:
        raise _undecodable(exc, reader.line_num) from None
    except csv.Error as exc:
        raise MalformedRow(
            f"row {len(labels) + 1} (line {reader.line_num}): {exc}"
        ) from None
    if not labels:
        raise EmptyDataset("input has no data rows")
    return TraceDataset._from_labels(
        labels, _SourceRows(source, ends, keys, label_index)
    )


def _parse_ndjson(source: bytes | str, text: IO[str], label_column: str) -> TraceDataset:
    labels: list[str] = []
    ends = array("q", [0])
    shared: dict[str, str] = {}
    line_num = 0
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
            if label_column not in obj:
                raise MissingLabelColumn(
                    f"line {line_num}: object lacks label column {label_column!r}"
                )
            label = _stringify(obj[label_column]).strip()
            if not label:
                raise EmptyLabel(f"line {line_num}: blank label")
            if label not in shared:
                _check_encodable(label, line_num)
                shared[label] = label
            labels.append(shared[label])
            ends.append(line_num)
    except UnicodeDecodeError as exc:
        raise _undecodable(exc, line_num) from None
    if not labels:
        raise EmptyDataset("input has no data rows")
    return TraceDataset._from_labels(
        labels, _SourceRows(source, ends, None, label_column)
    )


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
    text: IO[str]
    if isinstance(source, str):
        text = io.StringIO(source, newline="")
    else:
        text = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="")
    parse = _parse_csv if format == "csv" else _parse_ndjson
    return parse(source, text, label_column)


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
    labels = []
    for label, count in spec.entries:
        labels.extend([label] * count)
    if arrangement == "shuffled":
        order = kernels.permutation(len(labels), seed)
        labels = [labels[i] for i in order]
    return TraceDataset._from_labels(labels, _SourceRows("", array("q"), (), 0))


def parse_histogram_spec(text: str) -> ClassHistogram:
    """Parse ``label,count`` lines; ``#`` starts a comment, blanks ignored."""
    entries = []
    seen = set()
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
        if label in seen:
            raise HistogramSpecError(f"line {line_num}: duplicate label {label!r}")
        seen.add(label)
        entries.append((label, count))
    if not entries:
        raise HistogramSpecError("histogram spec has no entries")
    return ClassHistogram.from_counts(entries)


def load_histogram_spec(path: str | Path) -> ClassHistogram:
    return parse_histogram_spec(Path(path).read_text(encoding="utf-8"))


def pu_tds_histogram() -> ClassHistogram:
    """The bundled PU-TDS histogram: 30000 packets over 25 protocols."""
    text = resources.files("pktsample").joinpath("data/pu_tds.hist").read_text("utf-8")
    return parse_histogram_spec(text)
