"""Dataset ingestion, histogram, and synthesis tests."""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsample import dataset as dataset_module
from pktsample import kernels
from pktsample.dataset import (
    ClassHistogram,
    PacketRecord,
    TraceDataset,
    histogram,
    load_dataset,
    parse_histogram_spec,
    parse_records,
    pu_tds_histogram,
    synthesize,
)
from pktsample.errors import (
    EmptyDataset,
    EmptyLabel,
    HistogramSpecError,
    InvalidUtf8,
    MalformedRow,
    MissingLabelColumn,
    PktSampleError,
    SourceChanged,
    ZeroTotal,
)
from pktsample.report import dataset_to_csv
from tests.conftest import PU_TDS_COUNTS
from tests.test_cli import bad_input

WIRESHARK_CSV = (
    '"No.","Time","Source","Destination","Protocol","Length","Info"\n'
    '"1","0.000","10.0.0.1","10.0.0.2","TCP","60","SYN"\n'
    '"2","0.004","10.0.0.2","10.0.0.1","TCP","60","SYN, ACK"\n'
    '"3","0.009","10.0.0.3","Broadcast","ARP","42","Who has 10.0.0.9?"\n'
)


def test_parse_csv_counts_and_order():
    """3-row export parses to P=3 with histogram {TCP:2, ARP:1}."""
    dataset = parse_records(io.BytesIO(WIRESHARK_CSV.encode()), format="csv")
    assert dataset.population == 3
    assert [r.position for r in dataset.records] == [1, 2, 3]
    assert [r.label for r in dataset.records] == ["TCP", "TCP", "ARP"]
    hist = histogram(dataset)
    assert hist.entries == (("TCP", 2), ("ARP", 1))
    assert hist.total == 3


def test_parse_csv_keeps_attributes_in_header_order():
    dataset = parse_records(io.BytesIO(WIRESHARK_CSV.encode()), format="csv")
    first = dataset.records[0]
    assert first.attributes == (
        ("No.", "1"),
        ("Time", "0.000"),
        ("Source", "10.0.0.1"),
        ("Destination", "10.0.0.2"),
        ("Length", "60"),
        ("Info", "SYN"),
    )


def test_parse_csv_missing_label_column():
    text = "No.,Time\n1,0.0\n"
    with pytest.raises(MissingLabelColumn):
        parse_records(io.BytesIO(text.encode()), format="csv", label_column="Protocol")


def test_parse_csv_blank_label_rejects_file_with_row_number():
    text = "No.,Protocol\n1,TCP\n2,   \n3,ARP\n"
    with pytest.raises(EmptyLabel, match="row 2"):
        parse_records(io.BytesIO(text.encode()), format="csv")


def test_parse_csv_malformed_row_reports_line():
    text = "No.,Protocol\n1,TCP\n2,TCP,extra\n"
    with pytest.raises(MalformedRow, match="line 3"):
        parse_records(io.BytesIO(text.encode()), format="csv")


def test_parse_csv_empty_dataset():
    with pytest.raises(EmptyDataset):
        parse_records(io.BytesIO(b"No.,Protocol\n"), format="csv")


def test_parse_csv_label_whitespace_trimmed_case_preserved():
    text = "Protocol\n  tcp \nTCP\n"
    dataset = parse_records(io.BytesIO(text.encode()), format="csv")
    assert [r.label for r in dataset.records] == ["tcp", "TCP"]
    assert histogram(dataset).class_count == 2


def test_parse_ndjson():
    lines = (
        '{"proto": "TCP", "len": 60, "ok": true}\n'
        '{"proto": "ARP", "len": 42, "ok": null}\n'
    )
    dataset = parse_records(
        io.BytesIO(lines.encode()), format="ndjson", label_column="proto"
    )
    assert dataset.population == 2
    assert dataset.records[0].label == "TCP"
    assert dataset.records[0].attributes == (("len", "60"), ("ok", "true"))
    assert dataset.records[1].attributes == (("len", "42"), ("ok", "null"))


def test_parse_ndjson_errors():
    with pytest.raises(MalformedRow, match="line 1"):
        parse_records(io.BytesIO(b"not-json\n"), format="ndjson", label_column="p")
    with pytest.raises(MissingLabelColumn, match="line 2"):
        parse_records(
            io.BytesIO(b'{"p": "TCP"}\n{"q": 1}\n'), format="ndjson", label_column="p"
        )
    with pytest.raises(EmptyLabel):
        parse_records(io.BytesIO(b'{"p": "  "}\n'), format="ndjson", label_column="p")
    with pytest.raises(EmptyDataset):
        parse_records(io.BytesIO(b"\n\n"), format="ndjson", label_column="p")


def _eager_records(text: str, format: str, label_column: str):
    """Reference parser: one PacketRecord with its attributes per row."""
    records = []
    if format == "csv":
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader)
        index = header.index(label_column)
        for row in filter(None, reader):
            attributes = tuple((header[i], row[i]) for i in range(len(row)) if i != index)
            records.append((row[index].strip(), attributes))
    else:
        for line in filter(str.strip, io.StringIO(text, newline="")):
            obj = json.loads(line)
            label = obj[label_column]
            label = label if isinstance(label, str) else json.dumps(label)
            attributes = tuple(
                (key, value if isinstance(value, str) else
                 json.dumps(value, separators=(",", ":"), ensure_ascii=False))
                for key, value in obj.items()
                if key != label_column
            )
            records.append((label.strip(), attributes))
    return tuple(
        PacketRecord(position=i, label=label, attributes=attributes)
        for i, (label, attributes) in enumerate(records, start=1)
    )


@pytest.mark.parametrize(
    "text,format,label_column",
    [
        (WIRESHARK_CSV, "csv", "Protocol"),
        ('a,proto,a\r\n1," UDP ","x\ny"\r\n\r\n2,DNS,\r\n', "csv", "proto"),
        ('{"p": 1, "v": {"k": [1, "é"]}, "w": null}\n\n'
         '{"w": "s", "p": "ARP ", "f": 1.5, "b": true}\n', "ndjson", "p"),
    ],
)
def test_lazy_records_match_eager_parse(text, format, label_column):
    """The columnar dataset's lazy ``records`` view equals what building one
    record object per row at parse time gives."""
    dataset = parse_records(
        io.BytesIO(text.encode()), format=format, label_column=label_column
    )
    expected = _eager_records(text, format, label_column)
    assert dataset.records == expected
    assert dataset.labels == tuple(record.label for record in expected)
    assert dataset == TraceDataset(records=expected)


@pytest.mark.parametrize(
    "data,format",
    [
        (b"\xef\xbb\xbfProtocol,No.\nTCP,1\nARP,2\n", "csv"),
        (b'\xef\xbb\xbf{"Protocol": "TCP", "No.": 1}\n{"Protocol": "ARP", "No.": 2}\n',
         "ndjson"),
    ],
)
def test_parse_skips_byte_order_mark(data, format):
    dataset = parse_records(io.BytesIO(data), format=format)
    assert dataset.labels == ("TCP", "ARP")
    assert dataset.records[1].attributes == (("No.", "2"),)


@pytest.mark.parametrize("format", ["csv", "ndjson"])
@pytest.mark.parametrize(
    "bad_line,ending",
    [
        pytest.param(bad_line, ending, id=f"{bad_line}{name}")
        for bad_line in (1, 2, 7000)
        for ending, name in ((b"\n", ""), (b"\r\n", "-crlf"), (b"\r", "-cr"))
    ],
)
def test_parse_invalid_utf8_names_line(format, bad_line, ending):
    """The reported line is exact even when the bad byte lies many
    decoding chunks into the input, whatever ends its lines."""
    if format == "csv":
        lines = [b"Protocol,Info"] + [b"TCP,%d" % i for i in range(1, 9000)]
    else:
        lines = [b'{"Protocol": "TCP", "Info": %d}' % i for i in range(1, 9000)]
    lines[bad_line - 1] = lines[bad_line - 1][:-1] + b"\xff"
    data = ending.join(lines) + ending
    with pytest.raises(InvalidUtf8, match=f"^line {bad_line}: input is not valid UTF-8$"):
        parse_records(io.BytesIO(data), format=format)


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_records(io.BytesIO(b"x"), format="pcap")


def test_load_dataset_infers_format(tmp_path):
    csv_path = tmp_path / "trace.csv"
    csv_path.write_text("Protocol\nTCP\n", encoding="utf-8")
    assert load_dataset(csv_path).population == 1
    nd_path = tmp_path / "trace.ndjson"
    nd_path.write_text('{"Protocol": "ARP"}\n', encoding="utf-8")
    assert load_dataset(nd_path).records[0].label == "ARP"


def test_load_holds_codes_not_the_file(tmp_path):
    """A load and its histogram hold the class codes and one window, not
    the file: under tracemalloc a 10 MB, 400k-record CSV peaks below
    4 MB."""
    path = tmp_path / "big.csv"
    labels = ("TCP", "UDP", "ARP", "DNS", "ICMP")
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write("No.,Protocol,Info\n")
        out.writelines(f"{i},{labels[i % 5]},{'x' * 14}\n" for i in range(400_000))
    assert path.stat().st_size > 10**7
    tracemalloc.start()
    try:
        counts = histogram(load_dataset(path)).counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (80_000,) * 5
    assert peak < 4 * 2**20


@pytest.mark.parametrize("change", ["append a row", "touch"])
def test_attributes_of_a_changed_file_raise_source_changed(tmp_path, change):
    """Attributes are re-read from the file; once its size or modification
    time differs from load time, asking for them raises SourceChanged,
    while the labels, read at load time, stay."""
    path = tmp_path / "trace.csv"
    path.write_text("No.,Protocol\n1,TCP\n", encoding="utf-8")
    dataset = load_dataset(path)
    assert dataset.attribute_columns() == (("No.",), [["1"]])
    if change == "touch":
        info = path.stat()
        os.utime(path, ns=(info.st_atime_ns, info.st_mtime_ns + 10**9))
    else:
        with open(path, "a", encoding="utf-8") as out:
            out.write("2,UDP\n")
    with pytest.raises(SourceChanged, match=r"changed after it was loaded$"):
        dataset.records
    with pytest.raises(SourceChanged):
        dataset.attribute_columns()
    assert dataset.labels == ("TCP",)


def test_trace_dataset_validates_positions():
    with pytest.raises(ValueError):
        TraceDataset(records=(PacketRecord(position=2, label="TCP"),))


def test_histogram_of_empty_dataset():
    with pytest.raises(EmptyDataset):
        histogram(TraceDataset(records=()))


def test_histogram_single_class():
    dataset = synthesize(ClassHistogram.from_counts([("TCP", 9)]), seed=1)
    hist = histogram(dataset)
    assert hist.entries == (("TCP", 9),)
    assert hist.class_count == 1


def test_class_histogram_validation():
    with pytest.raises(ValueError):
        ClassHistogram.from_counts([("TCP", 0)])
    with pytest.raises(ValueError):
        ClassHistogram.from_counts([("TCP", 2), ("TCP", 3)])
    with pytest.raises(ValueError):
        ClassHistogram.from_counts([(" TCP", 2)])


def test_pu_tds_bundled_histogram(pu_hist):
    """The shipped spec carries the full reference distribution."""
    assert pu_hist.entries == PU_TDS_COUNTS
    assert pu_hist.total == 30000
    assert pu_hist.class_count == 25
    assert pu_hist.as_dict()["TCP"] == 11735
    assert pu_hist.as_dict()["IAPP"] == 1


def test_synthesize_pu_tds(pu_hist, pu_dataset):
    assert pu_dataset.population == 30000
    hist = histogram(pu_dataset)
    assert hist.as_dict() == pu_hist.as_dict()
    assert hist.class_count == 25


def test_synthesize_grouped_blocks(pu_hist, pu_grouped):
    """Grouped arrangement emits classes contiguously in histogram order."""
    assert histogram(pu_grouped).entries == pu_hist.entries
    assert [r.label for r in pu_grouped.records[:346]] == ["DHCP"] * 346
    assert pu_grouped.records[346].label == "ARP"
    assert pu_grouped.records[-1].label == "XID"


def test_synthesize_singleton():
    dataset = synthesize(
        ClassHistogram.from_counts([("A", 1)]), seed=99, arrangement="grouped"
    )
    assert dataset.population == 1
    assert dataset.records[0] == PacketRecord(position=1, label="A")


def test_synthesize_zero_total():
    with pytest.raises(ZeroTotal):
        synthesize(ClassHistogram(entries=()), seed=0)


def test_synthesize_bad_arrangement(small_hist):
    with pytest.raises(ValueError):
        synthesize(small_hist, seed=0, arrangement="sorted")


def test_synthesize_deterministic(small_hist):
    a = synthesize(small_hist, seed=5, arrangement="shuffled")
    b = synthesize(small_hist, seed=5, arrangement="shuffled")
    assert a == b
    c = synthesize(small_hist, seed=6, arrangement="shuffled")
    assert a != c


def test_synthesize_byte_identical_csv(pu_hist):
    a = dataset_to_csv(synthesize(pu_hist, seed=3))
    b = dataset_to_csv(synthesize(pu_hist, seed=3))
    assert a == b


def test_round_trip_parse_preserves_rows(pu_dataset, tmp_path):
    """Row k of the written file parses back as record k."""
    path = tmp_path / "pu.csv"
    path.write_text(dataset_to_csv(pu_dataset), encoding="utf-8", newline="")
    parsed = load_dataset(path)
    assert parsed.population == pu_dataset.population
    assert [r.label for r in parsed.records] == [r.label for r in pu_dataset.records]
    hist = histogram(parsed)
    assert hist.as_dict()["TCP"] == 11735
    assert hist.as_dict()["IAPP"] == 1


label_strategy = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZv6/-", min_size=1, max_size=8
).filter(lambda s: s == s.strip())


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(label_strategy, st.integers(min_value=1, max_value=20)),
        min_size=1,
        max_size=6,
        unique_by=lambda pair: pair[0],
    ),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    arrangement=st.sampled_from(["shuffled", "grouped"]),
)
def test_histogram_synthesize_round_trip(entries, seed, arrangement):
    """histogram(synthesize(h)) == h up to entry order."""
    hist = ClassHistogram.from_counts(entries)
    rebuilt = histogram(synthesize(hist, seed=seed, arrangement=arrangement))
    assert rebuilt.as_dict() == hist.as_dict()
    assert rebuilt.total == hist.total


@pytest.mark.parametrize("arrangement", ["shuffled", "grouped"])
def test_synthesized_table_in_first_appearance_order(arrangement):
    """The label table, the histogram and the strata follow the order in
    which classes first appear in the synthesized records."""
    hist = ClassHistogram.from_counts([("A", 5), ("B", 9), ("C", 1), ("D", 3)])
    dataset = synthesize(hist, seed=11, arrangement=arrangement)
    labels = dataset.labels
    assert dataset.table == tuple(dict.fromkeys(labels))
    assert histogram(dataset).labels() == dataset.table
    assert histogram(dataset).as_dict() == hist.as_dict()
    counts, positions = dataset.strata
    assert [labels[p - 1] for p in positions] == sorted(
        labels, key=dataset.table.index
    )
    assert counts == [labels.count(label) for label in dataset.table]


def test_codes_and_lazy_labels():
    """A dataset holds one class code per record, in one byte up to 256
    classes and wider beyond, and builds its label tuple only when asked."""
    narrow = parse_records(io.BytesIO(b"Protocol\nB\nA\nB\n"))
    assert (narrow.codes.typecode, list(narrow.codes)) == ("B", [0, 1, 0])
    assert narrow.table == ("B", "A")
    assert "labels" not in vars(narrow)
    assert narrow.labels == ("B", "A", "B") and "labels" in vars(narrow)
    text = "Protocol\n" + "".join(f"L{i}\n" for i in range(300)) + "L7\n"
    wide = parse_records(io.BytesIO(text.encode()))
    assert wide.codes.typecode == "H" and wide.codes[-1] == 7 and len(wide.table) == 300
    built = TraceDataset(PacketRecord(i, label) for i, label in enumerate("xyx", 1))
    assert (list(built.codes), built.table) == ([0, 1, 0], ("x", "y"))
    assert built.labels == ("x", "y", "x")


def test_histogram_spec_parsing():
    hist = parse_histogram_spec("# comment\nTCP,2\n\nIPX RIP,1\n")
    assert hist.entries == (("TCP", 2), ("IPX RIP", 1))


@pytest.mark.parametrize(
    "text",
    ["", "# only comments\n", "TCP,zero\n", "TCP,0\n", ",4\n", "TCP,1\nTCP,2\n"],
)
def test_histogram_spec_errors(text):
    with pytest.raises(HistogramSpecError):
        parse_histogram_spec(text)


def test_bundled_spec_loads_fresh_each_call():
    assert pu_tds_histogram() == pu_tds_histogram()


# --- source-backed attributes ------------------------------------------------

FIELD_TEXT = st.text(alphabet='ab é,"\r\n\x85 ', max_size=6)
CSV_LABEL = st.text(alphabet="TCPUDvé6 ", min_size=1, max_size=4).filter(str.strip)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _csv_field(value: str, quote: bool) -> str:
    if quote or any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def csv_sources(draw):
    """CSV text with quoted fields holding line breaks and ``""`` escapes,
    blank lines between rows and mixed line endings; the label column's
    name and its index."""
    width = draw(st.integers(1, 4))
    label_index = draw(st.integers(0, width - 1))
    header = [f"k{i}" for i in range(width)]
    header[label_index] = "proto"
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.lists(FIELD_TEXT, min_size=width, max_size=width))
        row[label_index] = draw(CSV_LABEL)
        rows.append(row)
    text = ""
    for row in [header] + rows:
        text += draw(st.lists(LINE_ENDS, max_size=2).map("".join)) if text else ""
        text += ",".join(_csv_field(value, draw(st.booleans())) for value in row)
        text += draw(LINE_ENDS)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, "proto"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False) | FIELD_TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from("xyz"), children, max_size=3),
    max_leaves=6,
)


@st.composite
def ndjson_sources(draw):
    """NDJSON text with blank lines, mixed line endings and varying keys."""
    text = ""
    for _ in range(draw(st.integers(1, 6))):
        obj = draw(st.dictionaries(st.sampled_from(["a", "b", "é"]), JSON_VALUES, max_size=3))
        obj["p"] = draw(CSV_LABEL | st.integers(-5, 5))
        if draw(st.booleans()):
            obj = dict(reversed(list(obj.items())))
        # "\x0c" and "\xa0" lines are blank to str.strip(), not to JSON
        text += draw(st.sampled_from(["", " \t", "\n", "\x0c\n", "\xa0\n"]))
        text += json.dumps(obj, ensure_ascii=draw(st.booleans()))
        text += draw(LINE_ENDS)
    return text, "p"


def _outcome(call):
    """``call()``'s result with columns as lists, or ValueError if it raised one."""
    try:
        result = call()
    except ValueError:
        return ValueError
    if isinstance(result, tuple):
        keys, columns = result
        return keys, [list(column) for column in columns]
    return result


@settings(max_examples=150, deadline=None)
@given(
    source=st.one_of(
        st.tuples(csv_sources(), st.just("csv")),
        st.tuples(ndjson_sources(), st.just("ndjson")),
    ),
    as_text=st.booleans(),
    bom=st.booleans(),
)
def test_source_backed_attributes_match_eager_parse(source, as_text, bom):
    """``records``, ``attribute_columns()`` and ``dataset_to_csv`` of a
    parsed dataset equal what the eager reference parse gives, for byte
    streams (a BOM skipped) and text streams alike."""
    (text, label_column), format = source
    if as_text:
        stream = io.StringIO(text, newline="")
    else:
        stream = io.BytesIO(codecs.BOM_UTF8 * bom + text.encode())
    dataset = parse_records(stream, format=format, label_column=label_column)
    expected = _eager_records(text, format, label_column)
    reference = TraceDataset(records=expected)
    assert dataset.labels == reference.labels
    assert dataset.records == expected
    assert _outcome(dataset.attribute_columns) == _outcome(reference.attribute_columns)
    assert _outcome(lambda: dataset_to_csv(dataset)) == _outcome(
        lambda: dataset_to_csv(reference)
    )


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_source_backed_attributes_across_decoding_chunks(ending):
    """Line offsets agree with the text layer's lines when line breaks and
    multi-byte characters fall on its decoding-chunk boundaries."""
    rows = [f'{i},TCP,"é{"x" * (i % 97)}{ending}{i}"' for i in range(3000)]
    text = ending.join(["No.,Protocol,Info", *rows]) + ending
    dataset = parse_records(io.BytesIO(text.encode()), format="csv")
    assert dataset.records == _eager_records(text, "csv", "Protocol")


def test_synthesized_dataset_has_no_attribute_columns():
    dataset = synthesize(ClassHistogram.from_counts([("A", 2), ("B", 1)]), seed=0)
    assert dataset.attribute_columns() == ((), ())
    assert all(record.attributes == () for record in dataset.records)


# --- native label scanners ---------------------------------------------------

try:
    from pktsample.kernels import _native
except ImportError:  # the extension was not built
    _native = None

needs_native = pytest.mark.skipif(_native is None, reason="native kernels not built")


class Trickle(io.RawIOBase):
    """A seekable byte stream whose ``readinto`` returns 1 to 7 bytes a
    call, so that records, line breaks and UTF-8 sequences straddle the
    windows a scanner reads.  ``read1``, which the text layer of the
    Python parser reads, returns whole chunks, as from a file: which of
    two errors in one chunk that parser reports depends on its chunks."""

    def __init__(self, data: bytes, phase: int = 0):
        self._data = io.BytesIO(data)
        self._sizes = itertools.islice(itertools.cycle(range(1, 8)), phase, None)

    def readable(self):
        return True

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        return self._data.seek(offset, whence)

    def readinto(self, buffer):
        return self._data.readinto(memoryview(buffer)[: next(self._sizes)])

    def read1(self, size=-1):
        return self._data.read1(size)


def _parse_with(scanners, data: bytes, format: str, label_column: str, trickle=False):
    """``parse_records``' labels and records, or its error's type and
    message, with the native label scanners, or with the Python parser
    alone when ``scanners`` is None.  With ``trickle`` the parsers read
    the input bytes through a ``Trickle``."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("scan_csv_labels", "scan_ndjson_labels"):
            patch.setattr(kernels, name, scanners and getattr(scanners, name))
        if trickle:
            patch.setattr(dataset_module, "_stream", _trickled)
        try:
            dataset = parse_records(io.BytesIO(data), format=format, label_column=label_column)
        except PktSampleError as exc:
            return type(exc), str(exc)
    labels = dataset.labels
    assert len({id(label) for label in labels}) == len(set(labels))  # one str per label
    return labels, dataset.records


@st.composite
def scanner_inputs(draw):
    """(bytes, format, label column): valid CSV and NDJSON with a BOM or
    not, or a defective input from the CLI robustness property."""
    kind = draw(st.sampled_from(["csv", "ndjson", "defective"]))
    if kind == "defective":
        name, data = draw(bad_input())
        return data, name.rpartition(".")[2], "Protocol"
    text, label_column = draw(csv_sources() if kind == "csv" else ndjson_sources())
    return codecs.BOM_UTF8 * draw(st.booleans()) + text.encode(), kind, label_column


@needs_native
@settings(max_examples=300, deadline=None)
@given(source=scanner_inputs())
def test_scanners_match_python_parser(source):
    """The native scanners give the Python parser's labels and records,
    or its error, with the same message, on every input; valid CSV never
    goes back to the Python parser."""
    data, format, label_column = source
    native = _parse_with(_native, data, format, label_column)
    assert native == _parse_with(None, data, format, label_column)
    if format == "csv" and label_column == "proto":
        header = next(csv.reader(io.StringIO(data.decode("utf-8-sig"), newline="")))
        limit = csv.field_size_limit()
        assert _native.scan_csv_labels(
            io.BytesIO(data), header.index("proto"), len(header), limit
        )


_whole_stream = dataset_module._stream


def _trickled(source):
    return Trickle(source) if isinstance(source, bytes) else _whole_stream(source)


def _scan_stream(stream, data: bytes, format: str, label_column: str):
    """The native scanner's raw result for ``data`` read from ``stream``, or
    ``"no header"`` where the Python parser finds no CSV header holding
    the label column."""
    if format == "ndjson":
        return _native.scan_ndjson_labels(stream, label_column)
    try:
        header = next(csv.reader(io.StringIO(data.decode("utf-8-sig"), newline="")))
        label_index = header.index(label_column)
    except (StopIteration, ValueError, csv.Error):
        return "no header"
    return _native.scan_csv_labels(stream, label_index, len(header), csv.field_size_limit())


@needs_native
@settings(max_examples=300, deadline=None)
@given(source=scanner_inputs())
def test_scanners_match_whole_read_over_trickle(source):
    """The inputs of ``test_scanners_match_python_parser``, read 1 to 7
    bytes at a time from each of seven phases: the scanners return what
    they return for one whole read, and ``parse_records`` gives the same
    labels and records, or the same error."""
    data, format, label_column = source
    whole = _scan_stream(io.BytesIO(data), data, format, label_column)
    for phase in range(7):
        assert _scan_stream(Trickle(data, phase), data, format, label_column) == whole
    assert _parse_with(_native, data, format, label_column, trickle=True) == _parse_with(
        _native, data, format, label_column
    )


def _straddling(filler, row: bytes, at: int, offset: int) -> bytes:
    """Rows of ``filler(length)`` bytes, then ``row``, such that byte
    ``at`` of ``row`` lies at ``offset``."""
    length = 100
    count, rest = divmod(offset - at, length)
    return filler(length) * (count - 1) + filler(length + rest) + row


def _csv_filler(length: int) -> bytes:
    return b"0,TCP," + b"x" * (length - 7) + b"\n"


def _ndjson_filler(length: int) -> bytes:
    return b'{"Protocol":"TCP","x":"' + b"x" * (length - 26) + b'"}\n'


@pytest.mark.parametrize("delta", range(-3, 4))
@pytest.mark.parametrize(
    "format,row,marker,label",
    [
        pytest.param("csv", b'1,"A\r\nB",i\n', b"\r", "A\r\nB", id="quoted CRLF label"),
        pytest.param("csv", b"1,\xf0\x9f\x98\x80,i\n", b"\xf0", "\U0001f600",
                     id="4-byte UTF-8 label"),
        pytest.param("csv", b"1,UDP,i\r\n", b"\r", "UDP", id="CRLF line end"),
        pytest.param("ndjson", b'{"Protocol":"A\\"B"}\n', b"\\", 'A"B',
                     id="JSON escaped quote"),
    ],
)
def test_load_dataset_across_the_window_boundary(tmp_path, format, row, marker, label, delta):
    """A file whose marked byte lies 0 to 3 bytes either side of the end
    of the first 1 MiB window loads as the Python parser reads it, and
    the native scanner reads it without handing it over."""
    filler = _csv_filler if format == "csv" else _ndjson_filler
    head = b"No.,Protocol,Info\n" if format == "csv" else b""
    data = head + _straddling(filler, row, row.index(marker), 2**20 + delta - len(head))
    data += filler(100)
    assert data.index(row) + row.index(marker) == 2**20 + delta
    path = tmp_path / f"trace.{format}"
    path.write_bytes(data)
    dataset = load_dataset(path)
    assert (dataset.labels, dataset.records) == _parse_with(None, data, format, "Protocol")
    assert dataset.labels[-2] == label
    if _native is not None:
        with open(path, "rb") as stream:
            assert _scan_stream(stream, data, format, "Protocol") is not None


def _scan(data: bytes, format: str):
    """What ``parse_records`` takes from the native scanner for a
    ``No.,Protocol`` CSV or a ``Protocol``-labelled NDJSON input: its
    labels, or None where the Python parser reads it."""
    if format == "csv":
        scanned = dataset_module._scanned(
            _native.scan_csv_labels, io.BytesIO(data), data, bytes.decode,
            1, 2, csv.field_size_limit(),
        )
    else:
        scanned = dataset_module._scanned(
            _native.scan_ndjson_labels, io.BytesIO(data), data, json.loads, "Protocol"
        )
    if scanned is None:
        return None
    codes, table = scanned
    return tuple(map(table.__getitem__, codes))


HEADER = b"No.,Protocol\n"


@needs_native
@pytest.mark.parametrize(
    "format,data",
    [
        pytest.param("csv", HEADER + b"1,TCP\n2,TCP,x\n", id="ragged row"),
        pytest.param("csv", HEADER + b"\n\r\n", id="no data rows"),
        pytest.param("csv", HEADER + b"1, \n", id="blank label"),
        pytest.param("csv", HEADER + b'1,"' + b"x" * 131073 + b'"\n',
                     id="field over the field size limit"),
        pytest.param("csv", HEADER + b"1,T\x00CP\n", id="NUL byte"),
        pytest.param("csv", HEADER + b'1,T"CP\n', id="quote in unquoted field"),
        pytest.param("csv", HEADER + b'1,"TCP"x\n', id="text after closing quote"),
        pytest.param("csv", HEADER + b'1,"TCP\n', id="quote left open"),
        pytest.param("csv", HEADER + b"1,TCP\n\xe9,TCP\n", id="invalid UTF-8"),
        pytest.param("csv", HEADER + b"\xed\xa0\x80,TCP\n", id="encoded surrogate"),
        pytest.param("csv", HEADER + b'"\xf4\x90\x80\x80",TCP\n', id="past U+10FFFF"),
        pytest.param("csv", HEADER + b"\xe0\x9f\xbf,TCP\n", id="overlong form"),
        pytest.param("csv", HEADER + b"1\xc3,TCP\n", id="truncated sequence"),
        pytest.param("ndjson", b'{"Protocol": 1}\n', id="label not a string"),
        pytest.param("ndjson", b'{"Protocol": "A", "x": NaN}\n', id="NaN"),
        pytest.param("ndjson", b'{"Protocol": "A", "x": [-Infinity]}\n', id="Infinity"),
        pytest.param("ndjson", b'{"Protocol": "A", "x": ' + b"9" * 4301 + b"}\n",
                     id="integer over 4300 digits"),
        pytest.param("ndjson", b'{"Protocol": "A", "Proto\\u0063ol": "B"}\n',
                     id="key with backslash"),
        pytest.param("ndjson", b'{"Protocol": "A", "x": ' + b"[" * 65 + b"]" * 65 + b"}\n",
                     id="nested too deeply"),
        pytest.param("ndjson", b'{"Protocol": "A"}\n[1]\n', id="line not an object"),
        pytest.param("ndjson", b'{"Protocol": "A"}\n\x0c\n', id="other whitespace"),
        pytest.param("ndjson", b'{"Protocol": "A"}\n\xc2\xa0\n', id="no-break space line"),
        pytest.param("ndjson", b'{"Protocol": "A",}\n', id="trailing comma"),
        pytest.param("ndjson", b'{"Protocol": "A"} x\n', id="text after the object"),
        pytest.param("ndjson", b'{"Protocol":\n"A"}\n', id="object across lines"),
        pytest.param("ndjson", b'{"Protocol": "A\tB"}\n', id="control character"),
        pytest.param("ndjson", b'{"Protocol": "A", "x": 01}\n', id="leading zero"),
        pytest.param("ndjson", b'{"proto": "A"}\n', id="no label member"),
        pytest.param("ndjson", b'{"Protocol": "\\ud800"}\n', id="lone surrogate label"),
        pytest.param("ndjson", b'{"Protocol": " "}\n', id="blank label"),
        pytest.param("ndjson", b'{"Protocol": "A", "x": "\xed\xb0\x80"}\n',
                     id="invalid UTF-8"),
        pytest.param("ndjson", b"\n \n", id="no records"),
    ],
)
def test_scanner_hands_over(format, data):
    """Each input the scanner cannot be sure of goes to the Python parser,
    and the outcome is the Python parser's."""
    assert _scan(data, format) is None
    label_column = "Protocol"
    assert _parse_with(_native, data, format, label_column) == _parse_with(
        None, data, format, label_column
    )


@needs_native
@pytest.mark.parametrize(
    "format,data,labels",
    [
        pytest.param("ndjson", b'{"Protocol": "A", "x": {"Protocol": 1}, "Protocol": "B"}\n',
                     ("B",), id="last duplicate key wins"),
        pytest.param("csv", HEADER + b'1, TCP\n2,TCP \r\n3,"TCP"\r\r4,"\tTCP"\n',
                     ("TCP",) * 4, id="equal after stripping"),
        pytest.param("ndjson", b'{"Protocol": " A"}\r{"Protocol": "\\u0041"}\r\n'
                     b'\t\n{"Protocol":"A "}', ("A",) * 3, id="equal after decoding"),
        pytest.param("csv", HEADER + b'1,"x ""y"",\r\nz"\n', ('x "y",\r\nz',),
                     id="quoted label"),
        pytest.param("csv", codecs.BOM_UTF8 + HEADER + b"1,\xc3\xa9\n", ("é",), id="BOM"),
        pytest.param("csv", b'"N\r\no.",Protocol\r1,TCP\n', ("TCP",),
                     id="header across lines"),
        pytest.param("csv", HEADER + b"".join(b"%d,L%d\n" % (i, i % 300) for i in range(600)),
                     tuple(f"L{i % 300}" for i in range(600)), id="300 labels"),
        pytest.param("ndjson", b"".join(b'{"Protocol": "L%d"}\n' % i for i in range(70000)),
                     tuple(f"L{i}" for i in range(70000)), id="70000 labels"),
    ],
)
def test_scanner_reads_what_python_reads(format, data, labels):
    scanned = _scan(data, format)
    assert scanned == labels
    assert _parse_with(_native, data, format, "Protocol") == _parse_with(
        None, data, format, "Protocol"
    )


@needs_native
@pytest.mark.parametrize("distinct", [3, 300])
def test_scanned_codes_merge_equal_labels(distinct):
    """Raw tokens that decode to one label share one code, in the
    narrowest array that holds the merged codes."""
    rows = b"".join(b"%d, L%d\n%d,L%d\n" % (i, i, i, i) for i in range(distinct // 2))
    codes, table = _scan_codes(HEADER + rows)
    assert list(codes) == [i // 2 for i in range(len(codes))]
    assert codes.typecode == "B"
    assert table == tuple(f"L{i}" for i in range(distinct // 2))


def _scan_codes(data: bytes):
    return dataset_module._scanned(
        _native.scan_csv_labels, io.BytesIO(data), data, bytes.decode,
        1, 2, csv.field_size_limit(),
    )


@needs_native
def test_scanner_result_shape():
    """Codes in first-appearance order and each distinct raw token as
    ``bytes``."""
    codes, tokens = _native.scan_csv_labels(
        io.BytesIO(HEADER + b'1,B\n\n2,"A"\r\n3,B\r4,"""A"\n'), 1, 2, 100
    )
    assert (codes.typecode, list(codes)) == ("B", [0, 1, 0, 2])
    assert tokens == [b"B", b"A", b'"A']
    codes, tokens = _native.scan_ndjson_labels(
        io.BytesIO(b'{"p": "\\u0041"}\n{"p": "A"}'), "p"
    )
    assert list(codes) == [0, 1] and tokens == [b'"\\u0041"', b'"A"']
