"""Metrics tests: formulas, reports, analytic-vs-enumeration oracles."""

from __future__ import annotations

import itertools
import math
import statistics
from fractions import Fraction

import pytest

from pktsample import kernels
from pktsample.dataset import ClassHistogram, histogram, synthesize
from pktsample.errors import (
    CountExceedsPopulation,
    TargetExceedsPopulation,
    UnknownLabelInSample,
    ZeroPopulation,
)
from pktsample.metrics import (
    class_report,
    expected_missing_series,
    identity_report,
    mc_class_sampled_totals,
    mc_missing_class_counts,
    miss_probability_analytic,
    sample_size_percent,
    sampling_interval,
    selection_probability,
    stratified_totals,
)
from pktsample.report import round_half_up
from pktsample.samplers import (
    SampledRecord,
    SampleResult,
    SampleSpec,
    random_sample,
    stratified_sample,
    systematic_sample,
    under_over_sample,
)
from tests.conftest import PU_TDS_PROBABILITIES


# --- elementary ratios --------------------------------------------------------

def test_selection_probability_values():
    assert round_half_up(selection_probability(11735, 30000), 5) == 0.39117
    assert selection_probability(30000, 30000) == 1.0
    assert round_half_up(selection_probability(1, 30000), 5) == 0.00003
    assert selection_probability(0, 10) == 0.0


def test_selection_probability_errors():
    with pytest.raises(ZeroPopulation):
        selection_probability(1, 0)
    with pytest.raises(CountExceedsPopulation):
        selection_probability(11, 10)
    with pytest.raises(ValueError):
        selection_probability(-1, 10)


def test_sample_size_percent_values():
    assert round_half_up(sample_size_percent(6012, 30000), 2) == 20.04
    assert sample_size_percent(0, 123) == 0.0
    assert round_half_up(sample_size_percent(3235, 30000), 3) == 10.783
    # over-sampling can legitimately exceed the population
    assert sample_size_percent(200, 100) == 200.0


def test_sample_size_percent_errors():
    with pytest.raises(ZeroPopulation):
        sample_size_percent(5, 0)


def test_sampling_interval_values():
    assert sampling_interval(10000, 1000) == 10
    assert sampling_interval(500, 500) == 1
    # 4286 * 7 = 30002 > 30000, so the floor interval is 6
    assert sampling_interval(30000, 4286) == 6
    assert sampling_interval(30000, 4285) == 7


def test_sampling_interval_errors():
    with pytest.raises(TargetExceedsPopulation):
        sampling_interval(10, 11)
    with pytest.raises(ValueError):
        sampling_interval(10, 0)


def test_stratified_totals_values(pu_hist):
    for interval, expected in ((5, 6012), (10, 3015)):
        counts = [math.ceil(c / interval) for c in pu_hist.counts()]
        totals = stratified_totals(counts, 30000)
        assert totals.total_sampled == expected
        assert totals.size_percent == pytest.approx(100 * expected / 30000)
        assert totals.probabilities == tuple(c / 30000 for c in counts)
    assert round_half_up(stratified_totals(
        [math.ceil(c / 10) for c in pu_hist.counts()], 30000
    ).size_percent, 2) == 10.05


def test_stratified_totals_zeros():
    totals = stratified_totals([0, 0], 10)
    assert totals.total_sampled == 0
    assert totals.probabilities == (0.0, 0.0)
    assert totals.size_percent == 0.0
    with pytest.raises(ZeroPopulation):
        stratified_totals([1], 0)
    with pytest.raises(ValueError):
        stratified_totals([-1], 10)


# --- class_report -------------------------------------------------------------

def test_identity_report_matches_source_shares(pu_hist):
    report = identity_report(pu_hist)
    assert report.total_sampled == 30000
    assert report.size_percent == 100.0
    assert report.missing_count == 0
    assert report.imbalance_ratio == 11735.0
    for row in report.per_class:
        assert row.sampled_count == row.source_count
        assert round_half_up(row.selection_probability, 5) == (
            PU_TDS_PROBABILITIES[row.label]
        )
    assert sum(row.sampled_percent for row in report.per_class) == pytest.approx(100.0)


def test_class_report_of_whole_dataset_equals_identity(pu_dataset, pu_hist):
    sample = systematic_sample(pu_dataset, 1)
    report = class_report(pu_hist, sample)
    ident = identity_report(pu_hist)
    assert [
        (r.label, r.sampled_count, r.sampled_percent) for r in report.per_class
    ] == [(r.label, r.sampled_count, r.sampled_percent) for r in ident.per_class]
    assert report.missing_count == 0


def test_class_report_stratified_dhcp_share(pu_dataset, pu_hist):
    report = class_report(pu_hist, stratified_sample(pu_dataset, 5))
    dhcp = report.per_class[0]
    assert dhcp.label == "DHCP"
    assert dhcp.sampled_count == 70
    assert round_half_up(dhcp.sampled_percent, 3) == 1.164


def test_class_report_under_over_balanced(pu_dataset, pu_hist):
    report = class_report(pu_hist, under_over_sample(pu_dataset, 100, seed=0))
    assert report.total_sampled == 2500
    assert report.imbalance_ratio == 1.0
    assert report.missing_count == 0
    for row in report.per_class:
        assert row.sampled_percent == 4.0


def test_class_report_missing_classes_listed(pu_dataset, pu_hist):
    report = class_report(pu_hist, random_sample(pu_dataset, 30, seed=0))
    assert report.total_sampled == 30
    assert report.missing_count == len(report.missing_classes)
    assert report.missing_count >= 1
    sampled_labels = {r.label for r in report.per_class if r.sampled_count > 0}
    assert sampled_labels.isdisjoint(report.missing_classes)
    # rows stay in source order even when empty
    assert [r.label for r in report.per_class] == list(pu_hist.labels())


def test_class_report_unknown_label_rejected(pu_hist):
    rogue = SampleResult(
        spec=SampleSpec.systematic(1),
        entries=(SampledRecord(source_position=1, label="QUIC"),),
        source_population=30000,
        source_class_count=25,
    )
    with pytest.raises(UnknownLabelInSample):
        class_report(pu_hist, rogue)


def test_report_totals_match_entry_count(pu_dataset, pu_hist):
    for sample in (
        random_sample(pu_dataset, 777, seed=2),
        systematic_sample(pu_dataset, 9),
        stratified_sample(pu_dataset, 8),
        under_over_sample(pu_dataset, 55, seed=2),
    ):
        report = class_report(pu_hist, sample)
        assert report.total_sampled == len(sample.entries)
        assert sum(r.sampled_count for r in report.per_class) == len(sample.entries)


def test_identity_selection_probabilities_sum_to_one(pu_hist):
    report = identity_report(pu_hist)
    total = sum(row.selection_probability for row in report.per_class)
    assert total == pytest.approx(1.0, abs=1e-12)
    for row in report.per_class:
        assert row.selection_probability == pytest.approx(
            selection_probability(row.source_count, 30000)
        )


# --- analytic miss probabilities ----------------------------------------------

def brute_force_miss_probability(counts: list[int], class_index: int, n: int) -> Fraction:
    """Exhaustive enumeration over all C(P, n) subsets."""
    population = sum(counts)
    start = sum(counts[:class_index])
    members = set(range(start, start + counts[class_index]))
    missing = 0
    total = 0
    for subset in itertools.combinations(range(population), n):
        total += 1
        if members.isdisjoint(subset):
            missing += 1
    return Fraction(missing, total)


@pytest.mark.parametrize("counts", [[3, 2, 1], [5, 4, 2, 1], [1, 1, 1], [12]])
def test_analytic_matches_enumeration(counts):
    hist = ClassHistogram.from_counts(
        [(f"C{i}", c) for i, c in enumerate(counts)]
    )
    population = sum(counts)
    for n in range(0, population + 1):
        table = miss_probability_analytic(hist, n)
        for index, row in enumerate(table.rows):
            exact = brute_force_miss_probability(counts, index, n)
            assert row.miss_probability == pytest.approx(float(exact), abs=1e-12)


def test_single_member_class_miss_telescopes(pu_hist):
    table = miss_probability_analytic(pu_hist, 500)
    by_label = {row.label: row for row in table.rows}
    # log-gamma at 30000-scale arguments carries ~1e-10 absolute error
    assert by_label["IAPP"].miss_probability == pytest.approx(
        (30000 - 500) / 30000, abs=1e-9
    )


def test_zero_sample_misses_everything(pu_hist):
    table = miss_probability_analytic(pu_hist, 0)
    assert all(row.miss_probability == 1.0 for row in table.rows)
    assert table.expected_missing == 25.0


def test_full_sample_misses_nothing(pu_hist):
    table = miss_probability_analytic(pu_hist, 30000)
    assert table.expected_missing == 0.0


def test_expected_missing_pu_tds_500(pu_hist):
    expected = miss_probability_analytic(pu_hist, 500).expected_missing
    assert 8.0 <= expected <= 9.0
    assert expected == pytest.approx(8.545259, abs=1e-4)


def test_with_replacement_formula(pu_hist):
    table = miss_probability_analytic(pu_hist, 500, with_replacement=True)
    by_label = {row.label: row for row in table.rows}
    assert by_label["IAPP"].miss_probability == pytest.approx(
        (1 - 1 / 30000) ** 500, abs=1e-15
    )
    # replacement misses are always at least as likely as without
    strict = miss_probability_analytic(pu_hist, 500)
    for a, b in zip(table.rows, strict.rows):
        assert a.miss_probability >= b.miss_probability


def test_miss_probability_errors(pu_hist):
    with pytest.raises(CountExceedsPopulation):
        miss_probability_analytic(pu_hist, 30001)
    with pytest.raises(ValueError):
        miss_probability_analytic(pu_hist, -1)
    # with replacement any n >= 0 is fine; two singleton classes keep
    # miss probability (1 - 1/30000)**60000 ~ e**-2 each
    oversized = miss_probability_analytic(pu_hist, 60000, with_replacement=True)
    assert 0.0 < oversized.expected_missing < 0.5


def test_miss_probability_monotone_in_n_and_count(pu_hist):
    previous = None
    for n in (0, 100, 500, 2500, 10000, 29999):
        table = miss_probability_analytic(pu_hist, n)
        if previous is not None:
            assert table.expected_missing <= previous
        previous = table.expected_missing
        by_count = sorted(table.rows, key=lambda row: row.source_count)
        for a, b in zip(by_count, by_count[1:]):
            assert a.miss_probability >= b.miss_probability - 1e-15


def test_expected_missing_series_strictly_decreasing(pu_hist):
    ns = [500, 1000, 2000, 3000, 5000, 10000, 15000, 20000]
    series = expected_missing_series(pu_hist, ns)
    assert [n for n, _ in series] == ns
    values = [v for _, v in series]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1.0
    assert expected_missing_series(pu_hist, [30000])[0][1] == 0.0


# --- Monte Carlo cross-checks ---------------------------------------------------

def test_mc_trial_matches_sampler_path(pu_hist, pu_grouped):
    """The trial kernel and the full sampler agree bit for bit on a
    grouped dataset when fed the same derived seed."""
    for base_seed in (0, 321):
        trial_counts = mc_missing_class_counts(pu_hist, 500, trials=3, seed=base_seed)
        for trial in range(3):
            seed = kernels.derive_seed(base_seed, trial)
            sample = random_sample(pu_grouped, 500, seed=seed)
            report = class_report(pu_hist, sample)
            assert trial_counts[trial] == report.missing_count


def test_mc_mean_agrees_with_analytic_small():
    """200-record, 8-class dataset: MC mean within 3 SE of the formula."""
    hist = ClassHistogram.from_counts(
        [("A", 80), ("B", 50), ("C", 30), ("D", 20),
         ("E", 10), ("F", 6), ("G", 3), ("H", 1)]
    )
    for n in (1, 5, 20, 50, 120, 200):
        counts = mc_missing_class_counts(hist, n, trials=10000, seed=5)
        expected = miss_probability_analytic(hist, n).expected_missing
        mean = statistics.mean(counts)
        spread = statistics.pstdev(counts)
        stderr = spread / math.sqrt(len(counts))
        assert abs(mean - expected) <= 3 * stderr + 1e-9, (n, mean, expected)


def test_mc_with_replacement_agrees_with_analytic():
    hist = ClassHistogram.from_counts([("A", 8), ("B", 3), ("C", 1)])
    counts = mc_missing_class_counts(
        hist, 6, trials=20000, seed=11, with_replacement=True
    )
    expected = miss_probability_analytic(hist, 6, with_replacement=True)
    mean = statistics.mean(counts)
    stderr = statistics.pstdev(counts) / math.sqrt(len(counts))
    assert abs(mean - expected.expected_missing) <= 3 * stderr + 1e-9


def test_mc_class_totals_unbiased(pu_hist):
    totals = mc_class_sampled_totals(pu_hist, 3000, trials=500, seed=1)
    assert sum(totals) == 3000 * 500
    for (label, count), total in zip(pu_hist.entries, totals):
        expected = 500 * 3000 * count / 30000
        spread = math.sqrt(500 * 3000 * (count / 30000) * (1 - count / 30000))
        assert abs(total - expected) <= 5 * spread + 5, label


def test_mc_empty_histogram():
    empty = ClassHistogram(entries=())
    with pytest.raises(ValueError, match="empty population"):
        mc_missing_class_counts(empty, 5, 2, 0, True)
    with pytest.raises(ValueError, match="empty population"):
        mc_class_sampled_totals(empty, 5, 2, 0, True)
    assert mc_missing_class_counts(empty, 5, 2, 0) == [0, 0]
    assert mc_class_sampled_totals(empty, 5, 2, 0) == []
