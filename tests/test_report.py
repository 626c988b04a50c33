"""Rendering tests: goldens, rounding, schema validation, round trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from pktsample.dataset import ClassHistogram, synthesize
from pktsample.errors import EmptySeries, NonMonotonicAxis
from pktsample.metrics import class_report, identity_report
from pktsample.report import (
    ComparisonMatrix,
    MatrixColumn,
    dataset_to_csv,
    format_decimal,
    missing_series_export,
    render_sample_csv,
    render_table,
    report_schema,
    round_half_up,
)
from pktsample.samplers import (
    SampleSpec,
    draw,
    random_sample,
    stratified_sample,
    under_over_sample,
)

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

GOLDEN = Path(__file__).parent / "golden"


# --- rounding -----------------------------------------------------------------

@pytest.mark.parametrize(
    "value,decimals,expected",
    [
        (1.1535, 3, "1.154"),  # half-up, not banker's
        (2.675, 2, "2.68"),
        (0.0008, 5, "0.00080"),
        (39.11666666, 3, "39.117"),
        (4.0, 3, "4.000"),
        (0.5, 0, "1"),
        (11735.0, 3, "11735.000"),
        # past the 28 digits of the default decimal context
        (99.99, 40, "99.99" + "0" * 38),
        (1e20, 30, "1" + "0" * 20 + "." + "0" * 30),
        (9.5, 0, "10"),
        (2 / 3, 50, "0.6666666666666666" + "0" * 34),
        (0.1 + 0.2, 29, "0.30000000000000004" + "0" * 12),
    ],
)
def test_format_decimal_half_up(value, decimals, expected):
    assert format_decimal(value, decimals) == expected


def test_round_half_up_value():
    assert round_half_up(11735 / 30000, 5) == 0.39117


# --- imbalance report rendering --------------------------------------------------

def test_identity_markdown_matches_golden(pu_hist):
    rendered = render_table(identity_report(pu_hist), "markdown")
    assert rendered == (GOLDEN / "identity_report.md").read_text()


def test_identity_csv_matches_golden(pu_hist):
    rendered = render_table(identity_report(pu_hist), "csv")
    assert rendered == (GOLDEN / "identity_report.csv").read_text()


def test_identity_markdown_shows_5dp_probability(pu_hist):
    rendered = render_table(identity_report(pu_hist), "markdown")
    assert "| TCP | 11735 | 11735 | 39.117 | 0.39117 |" in rendered
    assert "| IAPP | 1 | 1 | 0.003 | 0.00003 |" in rendered


def test_report_markdown_lists_missing_classes(pu_hist, pu_dataset):
    report = class_report(pu_hist, random_sample(pu_dataset, 40, seed=0))
    rendered = render_table(report, "markdown")
    assert f"missing classes ({report.missing_count}):" in rendered
    for label in report.missing_classes:
        assert label in rendered
    assert "- run: random n=40, seed=0" in rendered


def test_report_csv_has_header_and_rows(pu_hist):
    rendered = render_table(identity_report(pu_hist), "csv")
    lines = rendered.strip().split("\n")
    assert lines[0] == (
        "label,source_count,sampled_count,sampled_percent,selection_probability"
    )
    assert len(lines) == 26
    assert lines[5] == "TCP,11735,11735,39.117,0.39117"
    assert lines[6] == "UDP,585,585,1.950,0.01950"


def test_report_json_round_trips_full_precision(pu_hist, pu_dataset):
    report = class_report(pu_hist, stratified_sample(pu_dataset, 7))
    envelope = json.loads(render_table(report, "json"))
    assert envelope["kind"] == "imbalance_report"
    assert envelope["schema_version"] == "1.0"
    assert envelope["totals"]["sampled"] == 4297
    assert envelope["spec"] == {"family": "stratified", "interval": 7}
    by_label = {row["label"]: row for row in envelope["per_class"]}
    for row in report.per_class:
        stored = by_label[row.label]
        assert stored["sampled_percent"] == row.sampled_percent  # exact
        assert stored["selection_probability"] == row.selection_probability
    assert envelope["missing"] == []


SPEC_JSON_CASES = [
    (SampleSpec.random(3, seed=5),
     {"family": "random", "n": 3, "with_replacement": False, "seed": 5}),
    (SampleSpec.random(3, with_replacement=True, seed=5),
     {"family": "random", "n": 3, "with_replacement": True, "seed": 5}),
    (SampleSpec.systematic(2), {"family": "systematic", "interval": 2}),
    (SampleSpec.by_count(4), {"family": "bycount", "n": 4}),
    (SampleSpec.stratified(2), {"family": "stratified", "interval": 2}),
    (SampleSpec.under_over(2, seed=6), {"family": "underover", "k": 2, "seed": 6}),
]


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
@pytest.mark.parametrize("spec,expected", SPEC_JSON_CASES)
def test_report_json_spec_object_per_family(small_hist, small_dataset, spec, expected):
    report = class_report(small_hist, draw(small_dataset, spec))
    envelope = json.loads(render_table(report, "json"))
    assert list(envelope["spec"].items()) == list(expected.items())  # key order too
    jsonschema.validate(envelope, report_schema())


def test_report_json_identity_spec_null(pu_hist):
    envelope = json.loads(render_table(identity_report(pu_hist), "json"))
    assert envelope["spec"] is None


def test_render_rejects_unknown_format(pu_hist):
    with pytest.raises(ValueError):
        render_table(identity_report(pu_hist), "yaml")
    with pytest.raises(TypeError):
        render_table("not a report")  # type: ignore[arg-type]


def test_rendering_is_deterministic(pu_hist, pu_dataset):
    report = class_report(pu_hist, under_over_sample(pu_dataset, 100, seed=0))
    for fmt in ("markdown", "csv", "json"):
        assert render_table(report, fmt) == render_table(report, fmt)


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
def test_json_envelopes_validate_against_shipped_schema(pu_hist, pu_dataset):
    schema = report_schema()
    report = class_report(pu_hist, stratified_sample(pu_dataset, 5))
    jsonschema.validate(json.loads(render_table(report, "json")), schema)
    jsonschema.validate(
        json.loads(render_table(identity_report(pu_hist), "json")), schema
    )
    matrix = ComparisonMatrix.from_reports(
        [class_report(pu_hist, stratified_sample(pu_dataset, i)) for i in (5, 6)]
    )
    jsonschema.validate(json.loads(render_table(matrix, "json")), schema)


# --- comparison matrix ------------------------------------------------------------

def test_stratified_comparison_matches_golden(pu_hist, pu_dataset):
    reports = [
        class_report(pu_hist, stratified_sample(pu_dataset, i)) for i in range(5, 11)
    ]
    rendered = render_table(ComparisonMatrix.from_reports(reports), "markdown")
    assert rendered == (GOLDEN / "stratified_comparison.md").read_text()


def test_matrix_column_titles_carry_run_and_size(pu_hist, pu_dataset):
    from pktsample.samplers import systematic_by_count, systematic_sample

    reports = [
        class_report(pu_hist, stratified_sample(pu_dataset, 5)),
        class_report(pu_hist, under_over_sample(pu_dataset, 100, seed=3)),
        class_report(pu_hist, random_sample(pu_dataset, 500, seed=1)),
        class_report(pu_hist, systematic_sample(pu_dataset, 7)),
        class_report(pu_hist, systematic_by_count(pu_dataset, 4286)),
    ]
    matrix = ComparisonMatrix.from_reports(reports)
    titles = [column.title for column in matrix.columns]
    assert titles[0] == "stratified I=5, n=6012"
    assert titles[1] == "underover k=100 seed=3, n=2500"
    assert titles[2] == "random seed=1, n=500"
    assert titles[3] == "systematic I=7, n=4286"
    assert titles[4] == "bycount, n=4286"
    assert [c.seed for c in matrix.columns] == [None, 3, 1, None, None]
    assert [c.parameter for c in matrix.columns] == [
        "I=5", "k=100", "n=500", "I=7", "n=4286",
    ]


def test_matrix_column_title_random_with_replacement(small_hist, small_dataset):
    report = class_report(
        small_hist, random_sample(small_dataset, 30, with_replacement=True, seed=4)
    )
    column = ComparisonMatrix.from_reports([report]).columns[0]
    assert column.title == "random wr seed=4, n=30"
    assert (column.family, column.parameter, column.seed) == ("random", "n=30", 4)


def test_matrix_csv_footer(pu_hist, pu_dataset):
    matrix = ComparisonMatrix.from_reports(
        [class_report(pu_hist, stratified_sample(pu_dataset, 5))]
    )
    lines = render_table(matrix, "csv").strip().split("\n")
    assert lines[0].startswith("protocol,")
    assert len(lines) == 27
    assert lines[-1] == "missing_classes,0"


def test_matrix_rejects_zero_columns():
    with pytest.raises(ValueError):
        ComparisonMatrix.from_reports([])
    with pytest.raises(ValueError):
        ComparisonMatrix(
            row_labels=("A",), source_counts=(1,), source_population=1, columns=()
        )


def test_matrix_rejects_mismatched_rows(pu_hist, pu_dataset):
    other = ClassHistogram.from_counts([("TCP", 3)])
    other_ds = synthesize(other, seed=0)
    reports = [
        class_report(pu_hist, stratified_sample(pu_dataset, 5)),
        class_report(other, stratified_sample(other_ds, 1)),
    ]
    with pytest.raises(ValueError):
        ComparisonMatrix.from_reports(reports)


def test_matrix_rejects_percents_not_summing_to_100():
    column = MatrixColumn(
        title="bad",
        family="random",
        parameter="n=2",
        seed=0,
        sampled_total=2,
        missing_count=0,
        percents=(60.0, 20.0),
    )
    with pytest.raises(ValueError):
        ComparisonMatrix(
            row_labels=("A", "B"),
            source_counts=(1, 1),
            source_population=2,
            columns=(column,),
        )


def test_matrix_percent_columns_sum_to_100(pu_hist, pu_dataset):
    reports = [
        class_report(pu_hist, stratified_sample(pu_dataset, i)) for i in range(5, 11)
    ]
    matrix = ComparisonMatrix.from_reports(reports)
    for column in matrix.columns:
        assert sum(column.percents) == pytest.approx(100.0, abs=0.01)


# --- missing series --------------------------------------------------------------

def test_missing_series_rows():
    text = missing_series_export(
        [(500, 9, 8.5), (1000, 7, 7.3), (2000, None, 5.9), (3000, 4.25, None)]
    )
    lines = text.strip().split("\n")
    assert lines[0] == "x,observed_missing,expected_missing"
    assert lines[1] == "500,9,8.5"
    assert lines[3] == "2000,,5.9"
    assert lines[4] == "3000,4.25,"


def test_missing_series_single_point():
    assert missing_series_export([(5, 1, None)]).count("\n") == 2


def test_missing_series_six_interval_rows():
    series = [(i, 2, None) for i in range(5, 11)]
    assert missing_series_export(series).count("\n") == 7


def test_missing_series_errors():
    with pytest.raises(EmptySeries):
        missing_series_export([])
    with pytest.raises(NonMonotonicAxis):
        missing_series_export([(5, 1, None), (5, 1, None)])
    with pytest.raises(NonMonotonicAxis):
        missing_series_export([(10, 1, None), (5, 1, None)])


# --- sample and dataset CSV --------------------------------------------------------

def test_sample_csv_golden(pu_dataset):
    rendered = render_sample_csv(random_sample(pu_dataset, 20, seed=0))
    assert rendered == (GOLDEN / "random_n20_seed0.csv").read_text()


def test_sample_csv_quotes_awkward_labels():
    hist = ClassHistogram.from_counts([('SA,Y "HI"', 2)])
    dataset = synthesize(hist, seed=0, arrangement="grouped")
    rendered = render_sample_csv(random_sample(dataset, 2, seed=0))
    assert '"SA,Y ""HI"""' in rendered


def test_synth_csv_golden():
    hist = ClassHistogram.from_counts(
        [("TCP", 6), ("ARP", 3), ("ICMP", 2), ("XID", 1)]
    )
    rendered = dataset_to_csv(synthesize(hist, seed=0, arrangement="shuffled"))
    assert rendered == (GOLDEN / "synth_small_seed0.csv").read_text()


def test_underover_sample_csv_golden():
    hist = ClassHistogram.from_counts(
        [("TCP", 6), ("ARP", 3), ("ICMP", 2), ("XID", 1)]
    )
    dataset = synthesize(hist, seed=0, arrangement="shuffled")
    rendered = render_sample_csv(under_over_sample(dataset, 4, seed=0))
    assert rendered == (GOLDEN / "underover_small_seed0.csv").read_text()
    assert rendered.count("true") == (4 - 3) + (4 - 2) + (4 - 1)


def test_markdown_escapes_pipes_in_labels():
    hist = ClassHistogram.from_counts([("A|B", 3), ("C", 1)])
    dataset = synthesize(hist, seed=0, arrangement="grouped")
    report = class_report(hist, stratified_sample(dataset, 2))
    matrix = ComparisonMatrix.from_reports([report, identity_report(hist)])
    for text in (render_table(report), render_table(matrix)):
        rows = [line for line in text.splitlines() if line.startswith("| A")]
        assert len(rows) == 1
        assert rows[0].startswith("| A\\|B | ")
        cells = rows[0].replace("\\|", "").count("|")
        header = [line for line in text.splitlines() if line.startswith("| Protocol")]
        assert cells == header[0].count("|")


def test_dataset_csv_preserves_parsed_attributes(tmp_path):
    from pktsample.dataset import load_dataset

    source = 'No.,Time,Protocol\n7,0.1,TCP\n9,0.2,ARP\n'
    path = tmp_path / "t.csv"
    path.write_text(source, encoding="utf-8")
    rendered = dataset_to_csv(load_dataset(path))
    # original No. values kept verbatim, Time carried through
    assert rendered == "No.,Protocol,Time\n7,TCP,0.1\n9,ARP,0.2\n"


def test_dataset_csv_rejects_ragged_attributes():
    from pktsample.dataset import PacketRecord, TraceDataset

    records = (
        PacketRecord(position=1, label="TCP", attributes=(("a", "1"),)),
        PacketRecord(position=2, label="TCP", attributes=(("b", "1"),)),
    )
    with pytest.raises(ValueError):
        dataset_to_csv(TraceDataset(records=records))
