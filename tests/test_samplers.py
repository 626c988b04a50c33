"""Sampler contract tests: size laws, determinism, statistical behavior."""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsample import kernels
from pktsample.dataset import ClassHistogram, histogram, synthesize
from pktsample.errors import EmptyDataset, TargetExceedsPopulation
from pktsample.metrics import (
    class_report,
    mc_class_sampled_totals,
    mc_missing_class_counts,
    miss_probability_analytic,
)
from pktsample.samplers import (
    FAMILIES,
    SampleSpec,
    draw,
    random_sample,
    stratified_sample,
    systematic_by_count,
    systematic_sample,
    under_over_sample,
)
from pktsample.dataset import TraceDataset

# Small multi-class datasets for exhaustive checks (P <= 12).
SMALL_SHAPES = [
    [("A", 1)],
    [("A", 12)],
    [("A", 6), ("B", 6)],
    [("A", 5), ("B", 4), ("C", 2), ("D", 1)],
    [("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E", 1)],
    [("A", 9), ("B", 1), ("C", 1)],
]


def small_datasets():
    for shape in SMALL_SHAPES:
        hist = ClassHistogram.from_counts(shape)
        yield synthesize(hist, seed=13, arrangement="shuffled")


# --- SampleSpec -------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(family="bogus", n=1)
    with pytest.raises(ValueError):
        SampleSpec.random(0)
    with pytest.raises(ValueError):
        SampleSpec.systematic(0)
    with pytest.raises(ValueError):
        SampleSpec.under_over(0)
    with pytest.raises(ValueError):
        SampleSpec(family="stratified", interval=2, with_replacement=True)


def test_spec_rejects_size_parameter_the_family_does_not_take():
    with pytest.raises(ValueError, match="systematic sampling takes interval, not n"):
        SampleSpec(family="systematic", interval=3, n=5)
    with pytest.raises(ValueError, match="random sampling takes n, not k"):
        SampleSpec(family="random", n=3, k=2)
    with pytest.raises(ValueError, match="underover sampling takes k, not interval"):
        SampleSpec(family="underover", k=3, interval=2)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_drawn_spec_is_the_requested_spec(pu_dataset, family):
    """A report names the spec that was asked for: a family that takes no
    seed stores seed 0 however it was given one."""
    spec = SampleSpec(family, **{FAMILIES[family].size: 50}, seed=3)
    assert draw(pu_dataset, spec).spec == spec
    assert spec.seed == (3 if FAMILIES[family].seeded else 0)


def test_spec_sizes_below_2_63():
    """Sizes at or above the kernels' 2**63 bound are rejected when the
    spec is built, before anything is drawn or allocated."""
    for build, name in (
        (lambda size: SampleSpec.random(size, True), "random sampling needs n"),
        (SampleSpec.systematic, "systematic sampling needs interval"),
        (SampleSpec.by_count, "bycount sampling needs n"),
        (SampleSpec.stratified, "stratified sampling needs interval"),
        (SampleSpec.under_over, "underover sampling needs k"),
    ):
        assert build(2**63 - 1).size == 2**63 - 1
        for size in (2**63, 2**70):
            with pytest.raises(ValueError, match=rf"^{name} < 2\*\*63$"):
                build(size)


def test_spec_describe():
    assert SampleSpec.random(500).describe() == "random n=500, seed=0"
    assert SampleSpec.random(5, True, 9).describe() == "random wr n=5, seed=9"
    assert SampleSpec.stratified(5).describe() == "stratified I=5"
    assert SampleSpec.under_over(100, seed=2).describe() == "underover k=100, seed=2"


def test_spec_describe_systematic_families_and_replacement():
    assert SampleSpec.systematic(7).describe() == "systematic I=7"
    assert SampleSpec.by_count(100).describe() == "bycount n=100"
    assert (
        SampleSpec.random(5, with_replacement=True, seed=9).describe()
        == "random wr n=5, seed=9"
    )


def test_samplers_reject_empty_dataset():
    empty = TraceDataset(records=())
    with pytest.raises(EmptyDataset):
        random_sample(empty, 1)
    with pytest.raises(EmptyDataset):
        systematic_sample(empty, 1)
    with pytest.raises(EmptyDataset):
        stratified_sample(empty, 1)
    with pytest.raises(EmptyDataset):
        under_over_sample(empty, 1)


# --- random -----------------------------------------------------------------

def test_random_whole_population_is_identity(small_dataset):
    result = random_sample(small_dataset, small_dataset.population, seed=3)
    assert [e.source_position for e in result.entries] == list(
        range(1, small_dataset.population + 1)
    )
    assert random_sample(small_dataset, 999, seed=3).entries == result.entries


def test_random_without_replacement_contract(pu_dataset):
    result = random_sample(pu_dataset, 500, seed=1)
    positions = [e.source_position for e in result.entries]
    assert len(positions) == 500
    assert positions == sorted(positions)
    assert len(set(positions)) == 500
    assert all(1 <= p <= 30000 for p in positions)
    assert result.source_population == 30000
    assert result.source_class_count == 25
    assert not any(e.synthetic for e in result.entries)


def test_random_with_replacement_contract(small_dataset):
    result = random_sample(small_dataset, 40, with_replacement=True, seed=2)
    assert len(result.entries) == 40
    assert result.spec.with_replacement


def test_random_deterministic(pu_dataset):
    a = random_sample(pu_dataset, 100, seed=5)
    b = random_sample(pu_dataset, 100, seed=5)
    assert a.entries == b.entries
    assert random_sample(pu_dataset, 100, seed=6).entries != a.entries


def test_random_labels_match_source(pu_dataset):
    result = random_sample(pu_dataset, 50, seed=8)
    for entry in result.entries:
        assert pu_dataset.records[entry.source_position - 1].label == entry.label


def test_random_single_runs_can_miss_nine_classes(pu_hist):
    """At n=500 some seeds miss exactly 9 of 25 classes; the long-run
    mean tracks the analytic expectation."""
    counts = mc_missing_class_counts(pu_hist, 500, trials=400, seed=0)
    assert 9 in counts
    expected = miss_probability_analytic(pu_hist, 500).expected_missing
    stderr = statistics.pstdev(counts) / math.sqrt(len(counts))
    assert abs(statistics.mean(counts) - expected) < 3 * stderr + 1e-9


def test_random_mean_tcp_share_matches_probability(pu_hist):
    """Mean TCP share at n=15000 over 1000 derived-seed runs ~ 11735/30000."""
    totals = mc_class_sampled_totals(pu_hist, 15000, trials=1000, seed=0)
    tcp_index = pu_hist.labels().index("TCP")
    share = totals[tcp_index] / (1000 * 15000)
    assert abs(share - 11735 / 30000) < 0.005


def test_random_inclusion_frequencies_uniform():
    """Inclusion frequency of each record over 10000 seeds stays within
    4 standard errors of n/P."""
    hist = ClassHistogram.from_counts([("A", 100)])
    dataset = synthesize(hist, seed=0, arrangement="grouped")
    hits = [0] * 101
    for seed in range(10000):
        for e in random_sample(dataset, 10, seed=seed).entries:
            hits[e.source_position] += 1
    se = math.sqrt(0.1 * 0.9 / 10000)
    for position in range(1, 101):
        assert abs(hits[position] / 10000 - 0.1) < 4 * se


# --- systematic -------------------------------------------------------------

@pytest.mark.parametrize(
    "interval,expected", [(5, 6000), (6, 5000), (7, 4286), (8, 3750), (9, 3334), (10, 3000)]
)
def test_systematic_totals_on_pu_tds(pu_dataset, interval, expected):
    assert len(systematic_sample(pu_dataset, interval)) == expected


def test_systematic_identity_interval(small_dataset):
    result = systematic_sample(small_dataset, 1)
    assert [e.source_position for e in result.entries] == list(
        range(1, small_dataset.population + 1)
    )


def test_systematic_positions_congruent(pu_dataset):
    result = systematic_sample(pu_dataset, 7)
    assert all((e.source_position - 1) % 7 == 0 for e in result.entries)
    positions = [e.source_position for e in result.entries]
    assert positions == sorted(positions)


def test_systematic_size_law_exhaustive():
    for dataset in small_datasets():
        P = dataset.population
        for interval in range(1, P + 1):
            assert len(systematic_sample(dataset, interval)) == math.ceil(P / interval)


# --- systematic by count ----------------------------------------------------

def test_by_count_exact_sizes(pu_dataset):
    result = systematic_by_count(pu_dataset, 4286)
    assert len(result) == 4286
    # interval floor(30000/4286) = 6, so selected positions step by 6
    assert [e.source_position for e in result.entries[:3]] == [1, 7, 13]


def test_by_count_every_tenth(pu_dataset):
    hist10k = ClassHistogram.from_counts([("A", 10000)])
    dataset = synthesize(hist10k, seed=0, arrangement="grouped")
    result = systematic_by_count(dataset, 1000)
    assert len(result) == 1000
    assert [e.source_position for e in result.entries[:3]] == [1, 11, 21]


def test_by_count_whole_population(small_dataset):
    result = systematic_by_count(small_dataset, small_dataset.population)
    assert len(result) == small_dataset.population


def test_by_count_target_exceeds_population(small_dataset):
    with pytest.raises(TargetExceedsPopulation):
        systematic_by_count(small_dataset, small_dataset.population + 1)


def test_by_count_size_law_exhaustive():
    for dataset in small_datasets():
        P = dataset.population
        for n in range(1, P + 1):
            result = systematic_by_count(dataset, n)
            assert len(result) == n
            interval = P // n
            assert [e.source_position for e in result.entries] == [
                1 + i * interval for i in range(n)
            ]


# --- stratified ---------------------------------------------------------

@pytest.mark.parametrize(
    "interval,expected", [(5, 6012), (6, 5010), (7, 4297), (8, 3763), (9, 3347), (10, 3015)]
)
def test_stratified_totals_on_pu_tds(pu_dataset, pu_hist, interval, expected):
    result = stratified_sample(pu_dataset, interval)
    assert len(result) == expected
    # independent oracle: sum of ceil(n_i / I) over the source histogram
    assert len(result) == sum(
        math.ceil(count / interval) for count in pu_hist.counts()
    )


def test_stratified_per_class_sizes(pu_dataset, pu_hist, interval=7):
    counts = class_report(pu_hist, stratified_sample(pu_dataset, interval)).per_class
    for row in counts:
        assert row.sampled_count == math.ceil(row.source_count / interval)


def test_stratified_singleton_classes_always_kept(pu_dataset, pu_hist):
    for interval in (1, 4, 10, 100, 30000):
        result = stratified_sample(pu_dataset, interval)
        sampled = result.label_counts()
        assert sampled["IAPP"] == 1
        assert sampled["HTTP/XML"] == 1


def test_stratified_zero_missing_classes(pu_dataset, pu_hist):
    for interval in (2, 9, 500):
        result = stratified_sample(pu_dataset, interval)
        assert set(result.label_counts()) == set(pu_hist.labels())


def test_stratified_order_is_strata_then_position(small_dataset):
    result = stratified_sample(small_dataset, 2)
    first_appearance = []
    for record in small_dataset.records:
        if record.label not in first_appearance:
            first_appearance.append(record.label)
    seen_labels = []
    for entry in result.entries:
        if entry.label not in seen_labels:
            seen_labels.append(entry.label)
    assert seen_labels == first_appearance
    by_label: dict[str, list[int]] = {}
    for entry in result.entries:
        by_label.setdefault(entry.label, []).append(entry.source_position)
    for positions in by_label.values():
        assert positions == sorted(positions)


def test_stratified_size_law_exhaustive():
    for dataset in small_datasets():
        hist = histogram(dataset)
        for interval in range(1, dataset.population + 1):
            result = stratified_sample(dataset, interval)
            counts = result.label_counts()
            for label, source_count in hist.entries:
                assert counts[label] == math.ceil(source_count / interval)


# --- under-over -------------------------------------------------------------

def test_under_over_pu_tds_balance(pu_dataset, pu_hist):
    result = under_over_sample(pu_dataset, 100, seed=0)
    assert len(result) == 2500
    counts = result.label_counts()
    assert set(counts) == set(pu_hist.labels())
    assert all(count == 100 for count in counts.values())


def test_under_over_class_at_quota_keeps_originals_unflagged(small_dataset):
    # small_dataset has a class with exactly 3 members
    hist = histogram(small_dataset)
    quota = hist.as_dict()["ARP"]
    result = under_over_sample(small_dataset, quota, seed=4)
    arp_entries = [e for e in result.entries if e.label == "ARP"]
    assert len(arp_entries) == quota
    assert not any(e.synthetic for e in arp_entries)
    source_arp = [r.position for r in small_dataset.records if r.label == "ARP"]
    assert [e.source_position for e in arp_entries] == source_arp


def test_under_over_minority_topped_up_with_synthetic(pu_dataset):
    result = under_over_sample(pu_dataset, 700, seed=0)
    assert len(result) == 700 * 25
    iapp = [e for e in result.entries if e.label == "IAPP"]
    assert len(iapp) == 700
    originals = [e for e in iapp if not e.synthetic]
    synthetic = [e for e in iapp if e.synthetic]
    assert len(originals) == 1
    assert len(synthetic) == 699
    assert {e.source_position for e in synthetic} == {originals[0].source_position}


def test_under_over_majority_undersampled_distinct(pu_dataset):
    result = under_over_sample(pu_dataset, 100, seed=1)
    tcp = [e.source_position for e in result.entries if e.label == "TCP"]
    assert len(tcp) == 100
    assert len(set(tcp)) == 100
    assert tcp == sorted(tcp)
    assert not any(
        e.synthetic for e in result.entries if e.label == "TCP"
    )


def test_under_over_substreams_stable_when_class_added():
    """Extending the dataset with a new trailing class must not change
    the draws of earlier classes."""
    base = ClassHistogram.from_counts([("A", 8), ("B", 5)])
    extended = ClassHistogram.from_counts([("A", 8), ("B", 5), ("C", 2)])
    ds_base = synthesize(base, seed=0, arrangement="grouped")
    ds_ext = synthesize(extended, seed=0, arrangement="grouped")
    r_base = under_over_sample(ds_base, 3, seed=9)
    r_ext = under_over_sample(ds_ext, 3, seed=9)
    ab_base = [e for e in r_base.entries if e.label in ("A", "B")]
    ab_ext = [e for e in r_ext.entries if e.label in ("A", "B")]
    assert ab_base == ab_ext


def test_under_over_size_law_exhaustive():
    for dataset in small_datasets():
        hist = histogram(dataset)
        for quota in range(1, 16):
            result = under_over_sample(dataset, quota, seed=2)
            counts = result.label_counts()
            assert len(result) == quota * hist.class_count
            assert all(count == quota for count in counts.values())
            for entry in result.entries:
                assert 1 <= entry.source_position <= dataset.population
                assert (
                    dataset.records[entry.source_position - 1].label == entry.label
                )


# --- cross-family properties -------------------------------------------------

def test_conservation_no_position_out_of_range(pu_dataset):
    for spec in (
        SampleSpec.random(77, seed=3),
        SampleSpec.random(77, True, 3),
        SampleSpec.systematic(11),
        SampleSpec.by_count(123),
        SampleSpec.stratified(11),
        SampleSpec.under_over(9, seed=3),
    ):
        result = draw(pu_dataset, spec)
        positions = [e.source_position for e in result.entries]
        assert all(1 <= p <= 30000 for p in positions)
        non_synthetic = [
            e.source_position for e in result.entries if not e.synthetic
        ]
        if not (spec.family == "random" and spec.with_replacement):
            assert len(set(non_synthetic)) == len(non_synthetic)


label_strategy = st.sampled_from(["TCP", "UDP", "ARP", "ICMP", "DNS", "SSL", "XID"])
hist_strategy = st.lists(
    st.tuples(label_strategy, st.integers(min_value=1, max_value=25)),
    min_size=1,
    max_size=5,
    unique_by=lambda pair: pair[0],
).map(ClassHistogram.from_counts)


@settings(max_examples=80, deadline=None)
@given(
    hist=hist_strategy,
    seed=st.integers(min_value=0, max_value=2**32),
    interval=st.integers(min_value=1, max_value=40),
)
def test_stratified_completeness_property(hist, seed, interval):
    dataset = synthesize(hist, seed=seed, arrangement="shuffled")
    result = stratified_sample(dataset, interval)
    assert set(result.label_counts()) == set(hist.labels())


@settings(max_examples=80, deadline=None)
@given(
    hist=hist_strategy,
    seed=st.integers(min_value=0, max_value=2**32),
    quota=st.integers(min_value=1, max_value=30),
)
def test_under_over_balance_property(hist, seed, quota):
    dataset = synthesize(hist, seed=seed, arrangement="shuffled")
    counts = under_over_sample(dataset, quota, seed=seed).label_counts()
    assert all(count == quota for count in counts.values())
    assert max(counts.values()) / min(counts.values()) == 1


@settings(max_examples=40, deadline=None)
@given(
    hist=hist_strategy,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_every_family_deterministic(hist, seed):
    dataset = synthesize(hist, seed=seed)
    for spec in (
        SampleSpec.random(3, seed=seed),
        SampleSpec.random(3, True, seed),
        SampleSpec.systematic(2),
        SampleSpec.by_count(min(3, dataset.population)),
        SampleSpec.stratified(2),
        SampleSpec.under_over(2, seed=seed),
    ):
        assert draw(dataset, spec) == draw(dataset, spec)
