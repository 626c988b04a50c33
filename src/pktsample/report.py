"""Rendering: markdown tables, CSV, and a versioned JSON envelope.

Display rounding is half-up at ``render_table``'s ``decimals``
(default 3), the one rounding knob; probability columns get two extra
places so the default report shows 5-decimal probabilities.  JSON
output always carries full precision.  All text output uses LF line
endings, and every CSV goes through ``_csv_text``, one ``csv.writer``
with RFC-4180-style quoting, so byte-identical golden files hold on
every platform.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from importlib import resources
from itertools import chain, islice

from pktsample.dataset import TraceDataset
from pktsample.errors import EmptySeries, NonMonotonicAxis
from pktsample.metrics import ImbalanceReport
from pktsample.samplers import FAMILIES, SampleResult, SampleSpec

SCHEMA_VERSION = "1.0"
_JOIN_ROWS = 8192  # sample CSV rows joined per step


def format_decimal(value: float, decimals: int) -> str:
    """Fixed-point half-up rounding of a float's shortest decimal form.

    The rounding runs at a precision that holds every digit of the
    result, so any number of decimals works.
    """
    exact = Decimal(repr(float(value)))
    with localcontext() as context:
        # the digits before the point, one more for a carry, then decimals
        context.prec = max(context.prec, exact.adjusted() + 2 + decimals)
        quantum = Decimal(1).scaleb(-decimals)
        return str(exact.quantize(quantum, rounding=ROUND_HALF_UP))


def round_half_up(value: float, decimals: int) -> float:
    return float(format_decimal(value, decimals))


@dataclass(frozen=True, slots=True)
class MatrixColumn:
    """One sampler run in a comparison: descriptor plus per-class shares."""

    title: str
    family: str
    parameter: str
    seed: int | None
    sampled_total: int
    missing_count: int
    percents: tuple[float, ...]


@dataclass(frozen=True)
class ComparisonMatrix:
    """Per-class sampled-percent matrix across several sampler runs."""

    row_labels: tuple[str, ...]
    source_counts: tuple[int, ...]
    source_population: int
    columns: tuple[MatrixColumn, ...]

    def __post_init__(self):
        if not self.columns:
            raise ValueError("a comparison needs at least one run")
        if len(self.source_counts) != len(self.row_labels):
            raise ValueError("source_counts must align with row_labels")
        for column in self.columns:
            if len(column.percents) != len(self.row_labels):
                raise ValueError(f"column {column.title!r} row count mismatch")
            if column.sampled_total > 0:
                total = sum(column.percents)
                if abs(total - 100.0) > 0.01:
                    raise ValueError(
                        f"column {column.title!r} percents sum to {total}, not 100"
                    )

    @classmethod
    def from_reports(cls, reports: list[ImbalanceReport]) -> "ComparisonMatrix":
        if not reports:
            raise ValueError("a comparison needs at least one run")
        first = reports[0]
        labels = tuple(row.label for row in first.per_class)
        counts = tuple(row.source_count for row in first.per_class)
        columns = []
        for report in reports:
            if tuple(row.label for row in report.per_class) != labels:
                raise ValueError("all runs must share the same source classes")
            spec, total = report.spec, report.total_sampled
            columns.append(
                MatrixColumn(
                    title=spec.column_title(total) if spec else f"identity, n={total}",
                    family=spec.family if spec else "identity",
                    parameter=spec.parameter if spec else "identity",
                    seed=spec.seed if spec and FAMILIES[spec.family].seeded else None,
                    sampled_total=total,
                    missing_count=report.missing_count,
                    percents=tuple(row.sampled_percent for row in report.per_class),
                )
            )
        return cls(
            row_labels=labels,
            source_counts=counts,
            source_population=first.source_population,
            columns=tuple(columns),
        )


def _spec_json(spec: SampleSpec | None) -> dict | None:
    if spec is None:
        return None
    entry = FAMILIES[spec.family]
    body: dict[str, object] = {"family": spec.family, entry.size: spec.size}
    if entry.with_replacement:
        body["with_replacement"] = spec.with_replacement
    if entry.seeded:
        body["seed"] = spec.seed
    return body


def _run_line(spec: SampleSpec | None) -> str:
    return spec.describe() if spec is not None else "identity (full dataset)"


def _csv_text(rows) -> str:
    """``rows`` as CSV text: the csv module's quoting, LF line ends."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _md_cell(text: str) -> str:
    """Text for a markdown table cell: a ``|`` would start a new cell."""
    return text.replace("|", "\\|")


def _report_markdown(report: ImbalanceReport, decimals: int) -> str:
    prob_decimals = decimals + 2
    missing = ", ".join(report.missing_classes) if report.missing_classes else "none"
    lines = [
        "# Imbalance report",
        "",
        f"- run: {_run_line(report.spec)}",
        f"- sampled: {report.total_sampled} of {report.source_population} "
        f"({format_decimal(report.size_percent, decimals)}% of source)",
        f"- imbalance ratio: {format_decimal(report.imbalance_ratio, decimals)}",
        f"- missing classes ({report.missing_count}): {missing}",
        "",
        "| Protocol | Source Count | Sampled Count | Sampled % | P(s) |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for row in report.per_class:
        lines.append(
            f"| {_md_cell(row.label)} | {row.source_count} | {row.sampled_count} "
            f"| {format_decimal(row.sampled_percent, decimals)} "
            f"| {format_decimal(row.selection_probability, prob_decimals)} |"
        )
    return "\n".join(lines) + "\n"


def _report_csv(report: ImbalanceReport, decimals: int) -> str:
    return _csv_text([
        ["label", "source_count", "sampled_count", "sampled_percent",
         "selection_probability"],
        *(
            [
                row.label,
                row.source_count,
                row.sampled_count,
                format_decimal(row.sampled_percent, decimals),
                format_decimal(row.selection_probability, decimals + 2),
            ]
            for row in report.per_class
        ),
    ])


def _source_json(report: ImbalanceReport) -> dict:
    return {
        "population": report.source_population,
        "classes": [
            {"label": row.label, "count": row.source_count}
            for row in report.per_class
        ],
    }


def _report_json(report: ImbalanceReport) -> str:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "kind": "imbalance_report",
        "source": _source_json(report),
        "spec": _spec_json(report.spec),
        "per_class": [
            {
                "label": row.label,
                "source_count": row.source_count,
                "sampled_count": row.sampled_count,
                "sampled_percent": row.sampled_percent,
                "selection_probability": row.selection_probability,
            }
            for row in report.per_class
        ],
        "totals": {
            "sampled": report.total_sampled,
            "size_percent": report.size_percent,
            "imbalance_ratio": report.imbalance_ratio,
            "missing_count": report.missing_count,
        },
        "missing": list(report.missing_classes),
    }
    return json.dumps(envelope, indent=2) + "\n"


def _matrix_markdown(matrix: ComparisonMatrix, decimals: int) -> str:
    lines = [
        "# Sampler comparison",
        "",
        f"Source: {matrix.source_population} packets, "
        f"{len(matrix.row_labels)} classes. Cells are per-class sampled %.",
        "",
        "| Protocol | " + " | ".join(c.title for c in matrix.columns) + " |",
        "| --- |" + " ---: |" * len(matrix.columns),
    ]
    for r, label in enumerate(matrix.row_labels):
        cells = " | ".join(
            format_decimal(c.percents[r], decimals) for c in matrix.columns
        )
        lines.append(f"| {_md_cell(label)} | {cells} |")
    lines.append(
        "| missing classes | "
        + " | ".join(str(c.missing_count) for c in matrix.columns)
        + " |"
    )
    return "\n".join(lines) + "\n"


def _matrix_csv(matrix: ComparisonMatrix, decimals: int) -> str:
    return _csv_text([
        ["protocol"] + [c.title for c in matrix.columns],
        *(
            [label] + [format_decimal(c.percents[r], decimals) for c in matrix.columns]
            for r, label in enumerate(matrix.row_labels)
        ),
        ["missing_classes"] + [str(c.missing_count) for c in matrix.columns],
    ])


def _matrix_json(matrix: ComparisonMatrix) -> str:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "kind": "comparison",
        "source": {
            "population": matrix.source_population,
            "classes": [
                {"label": label, "count": count}
                for label, count in zip(matrix.row_labels, matrix.source_counts)
            ],
        },
        "rows": list(matrix.row_labels),
        "columns": [
            {
                "title": c.title,
                "family": c.family,
                "parameter": c.parameter,
                "seed": c.seed,
                "sampled_total": c.sampled_total,
                "missing_count": c.missing_count,
            }
            for c in matrix.columns
        ],
        "cells": [list(c.percents) for c in matrix.columns],
    }
    return json.dumps(envelope, indent=2) + "\n"


def render_table(
    table: ImbalanceReport | ComparisonMatrix,
    format: str = "markdown",
    decimals: int = 3,
) -> str:
    """Render a report or comparison; deterministic bytes for equal input.

    ``decimals`` is the one display-rounding knob; JSON ignores it.
    """
    if isinstance(table, ImbalanceReport):
        if format == "markdown":
            return _report_markdown(table, decimals)
        if format == "csv":
            return _report_csv(table, decimals)
        if format == "json":
            return _report_json(table)
    elif isinstance(table, ComparisonMatrix):
        if format == "markdown":
            return _matrix_markdown(table, decimals)
        if format == "csv":
            return _matrix_csv(table, decimals)
        if format == "json":
            return _matrix_json(table)
    else:
        raise TypeError(f"cannot render {type(table).__name__}")
    raise ValueError(f"unknown format {format!r} (use markdown, csv or json)")


def _series_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def missing_series_export(
    series: list[tuple[int, float | int | None, float | None]],
) -> str:
    """Missing-class series as CSV: x, observed, expected (blank if n/a)."""
    if not series:
        raise EmptySeries("series must contain at least one point")
    xs = [point[0] for point in series]
    for left, right in zip(xs, xs[1:]):
        if right <= left:
            raise NonMonotonicAxis(f"x-values must strictly increase ({left} !< {right})")
    return _csv_text([
        ["x", "observed_missing", "expected_missing"],
        *([x, _series_cell(observed), _series_cell(expected)]
          for x, observed, expected in series),
    ])


def render_sample_csv(result: SampleResult) -> str:
    """Sample entries as CSV (source_position, label, synthetic).

    A row is its position followed by a cell that depends only on the
    entry's class and synthetic flag; each cell is written once by
    ``csv.writer``, so the quoting is the csv module's.  Rows are joined
    a few thousand at a time, so the text is held about twice, not as
    one string object per row.
    """
    classes = len(result.table)
    cells = [
        _csv_text([["", label, flag]])
        for flag in ("false", "true")
        for label in result.table
    ]
    keys = result.codes
    if result.synthetic is not None:
        keys = [code + classes * flag for code, flag in zip(keys, result.synthetic)]
    rows = (str(position) + cells[key] for position, key in zip(result.positions, keys))
    chunks = iter(lambda: "".join(islice(rows, _JOIN_ROWS)), "")
    return "".join([_csv_text([["source_position", "label", "synthetic"]]), *chunks])


def dataset_to_csv(dataset: TraceDataset) -> str:
    """Dataset as CSV with a No. column, the Protocol label, and attributes.

    All records must share one attribute-key layout.  An original "No."
    attribute (from a parsed capture export) is kept verbatim; otherwise
    the record position is written.  Where a key repeats, its last
    column is written.
    """
    keys, columns = dataset.attribute_columns()
    column_of = dict(zip(keys, columns))
    extra = [key for key in keys if key not in ("No.", "Protocol")]
    numbers = column_of.get("No.", range(1, dataset.population + 1))
    rows = zip(numbers, dataset.labels, *(column_of[key] for key in extra))
    return _csv_text(chain([["No.", "Protocol"] + extra], rows))


def report_schema() -> dict:
    """The shipped JSON schema for report/comparison envelopes."""
    text = (
        resources.files("pktsample")
        .joinpath("data/report_schema.json")
        .read_text("utf-8")
    )
    return json.loads(text)
