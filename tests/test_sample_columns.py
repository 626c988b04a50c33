"""Column samplers against a reference eager implementation.

The samplers keep a sample as columns of positions and class codes and
build ``SampledRecord`` objects only when ``entries`` is read.  The
reference below is the eager implementation they replaced: one
``SampledRecord`` per entry, per-label strata built from the label
tuple, counts and reports read from the entries, and one ``csv.writer``
row per entry.  Every family must give the same entries, counts, report
and CSV bytes on both kernel backends.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsample import kernels
from pktsample.dataset import PacketRecord, TraceDataset, histogram, parse_records
from pktsample.errors import TargetExceedsPopulation, UnknownLabelInSample
from pktsample.kernels import pure
from pktsample.metrics import _report_from_counts, class_report
from pktsample.report import render_sample_csv
from pktsample.samplers import FAMILIES, SampledRecord, SampleResult, SampleSpec, draw

try:
    from pktsample.kernels import _native
except ImportError:
    _native = None

BACKENDS = [pure] if _native is None else [pure, _native]
KERNELS = ("derive_seed", "sample_without_replacement", "sample_with_replacement",
           "group_by_code")

# Labels a CSV writer has to quote, and one a markdown table has to escape.
SPECIAL_LABELS = ["TCP", "a,b", 'say "hi"', "two\nlines", "p|q", ",", '"', "|", "é"]
WIDE_LABELS = SPECIAL_LABELS + [f"L{i}" for i in range(260)]


# --- the reference eager implementation ---------------------------------------

def _reference_strata(labels):
    strata: dict[str, list[int]] = {}
    for position, label in enumerate(labels, start=1):
        strata.setdefault(label, []).append(position)
    return strata.items()


def reference_draw(labels: tuple[str, ...], spec: SampleSpec) -> list[SampledRecord]:
    population = len(labels)
    if spec.family == "random":
        if spec.with_replacement:
            positions = kernels.sample_with_replacement(population, spec.n, spec.seed)
        else:
            positions = kernels.sample_without_replacement(
                population, min(spec.n, population), spec.seed
            )
        return [SampledRecord(source_position=p, label=labels[p - 1]) for p in positions]
    if spec.family == "systematic":
        return [
            SampledRecord(source_position=p, label=labels[p - 1])
            for p in range(1, population + 1, spec.interval)
        ]
    if spec.family == "bycount":
        if spec.n > population:
            raise TargetExceedsPopulation(f"target {spec.n} exceeds population {population}")
        positions = range(1, population + 1, population // spec.n)
        return [
            SampledRecord(source_position=p, label=labels[p - 1])
            for _, p in zip(range(spec.n), positions)
        ]
    if spec.family == "stratified":
        return [
            SampledRecord(source_position=p, label=label)
            for label, positions in _reference_strata(labels)
            for p in positions[:: spec.interval]
        ]
    entries = []
    for index, (label, positions) in enumerate(_reference_strata(labels)):
        sub_seed = kernels.derive_seed(spec.seed, index)
        size, k = len(positions), spec.k
        if size > k:
            picks = kernels.sample_without_replacement(size, k, sub_seed)
            entries.extend(
                SampledRecord(source_position=positions[i - 1], label=label) for i in picks
            )
        else:
            entries.extend(SampledRecord(source_position=p, label=label) for p in positions)
            if size < k:
                extras = kernels.sample_with_replacement(size, k - size, sub_seed)
                entries.extend(
                    SampledRecord(source_position=positions[i - 1], label=label,
                                  synthetic=True)
                    for i in extras
                )
    return entries


def reference_label_counts(entries) -> dict[str, int]:
    counts: dict[str, int] = {}
    for entry in entries:
        counts[entry.label] = counts.get(entry.label, 0) + 1
    return counts


def reference_class_report(source_histogram, spec, entries):
    known = set(source_histogram.labels())
    for entry in entries:
        if entry.label not in known:
            raise UnknownLabelInSample(
                f"sample contains label {entry.label!r} absent from the source"
            )
    return _report_from_counts(source_histogram, reference_label_counts(entries), spec)


def reference_render(entries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["source_position", "label", "synthetic"])
    for entry in entries:
        writer.writerow(
            [entry.source_position, entry.label, "true" if entry.synthetic else "false"]
        )
    return out.getvalue()


# --- the property -----------------------------------------------------------------

@st.composite
def labelled_datasets(draw_from):
    """A label column, and a dataset over it: built from records, or parsed
    from a CSV so that the native label scanner reads it."""
    if draw_from(st.booleans()):  # more than 256 classes: codes wider than a byte
        labels = WIDE_LABELS + draw_from(st.lists(st.sampled_from(WIDE_LABELS), max_size=40))
        labels = draw_from(st.permutations(labels))
    else:
        labels = draw_from(st.lists(st.sampled_from(SPECIAL_LABELS), min_size=1, max_size=50))
    labels = tuple(labels)
    if draw_from(st.booleans()):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["No.", "Protocol"])
        writer.writerows(enumerate(labels, start=1))
        dataset = parse_records(io.BytesIO(out.getvalue().encode()))
    else:
        dataset = TraceDataset(
            PacketRecord(position=i, label=label) for i, label in enumerate(labels, start=1)
        )
    return labels, dataset


@st.composite
def specs(draw_from):
    family = draw_from(st.sampled_from(sorted(FAMILIES)))
    entry = FAMILIES[family]
    params = {entry.size: draw_from(st.integers(1, 40))}
    if entry.seeded:
        params["seed"] = draw_from(st.integers(-(2**64), 2**64))
    if entry.with_replacement:
        params["with_replacement"] = draw_from(st.booleans())
    return SampleSpec(family=family, **params)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TargetExceedsPopulation as exc:
        return TargetExceedsPopulation, str(exc)


def backend_id(impl) -> str:
    return "pure" if impl is pure else "native"


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
@settings(max_examples=150, deadline=None)
@given(source=labelled_datasets(), spec=specs())
def test_column_samplers_match_reference(impl, source, spec):
    labels, dataset = source
    with pytest.MonkeyPatch.context() as patch:
        for name in KERNELS:
            patch.setattr(kernels, name, getattr(impl, name))
        expected = _outcome(reference_draw, labels, spec)
        result = _outcome(draw, dataset, spec)
    if isinstance(expected, tuple):
        assert result == expected
        return
    assert result.entries == tuple(expected)
    assert len(result) == len(expected)
    assert list(result.label_counts().items()) == list(
        reference_label_counts(expected).items()
    )
    hist = histogram(dataset)
    assert class_report(hist, result) == reference_class_report(hist, spec, expected)
    assert render_sample_csv(result) == reference_render(expected)


def test_sample_from_entries_matches_columns(pu_dataset):
    """A sample built from its entries reads as the one drawn as columns."""
    drawn = draw(pu_dataset, SampleSpec.under_over(40, seed=3))
    rebuilt = SampleResult(
        spec=drawn.spec,
        entries=list(drawn.entries),
        source_population=drawn.source_population,
        source_class_count=drawn.source_class_count,
    )
    assert rebuilt == drawn
    assert rebuilt.label_counts() == drawn.label_counts()
    assert render_sample_csv(rebuilt) == render_sample_csv(drawn)
    assert class_report(histogram(pu_dataset), rebuilt) == class_report(
        histogram(pu_dataset), drawn
    )
