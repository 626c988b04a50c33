"""Imbalance and information-loss metrics.

Covers the whole reporting surface: selection probabilities, sample-size
percentages, systematic intervals, stratified totals, per-class sample
reports (counts, shares, missing classes, imbalance ratio), and an
analytic table of per-class miss probabilities under uniform random
sampling with its expected-missing-class sum.

All math is done at full precision; display rounding belongs to the
report layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from pktsample import kernels
from pktsample.dataset import ClassHistogram
from pktsample.errors import (
    CountExceedsPopulation,
    TargetExceedsPopulation,
    UnknownLabelInSample,
    ZeroPopulation,
)
from pktsample.samplers import SampleResult, SampleSpec


@dataclass(frozen=True, slots=True)
class ClassRow:
    """Per-class line of an imbalance report."""

    label: str
    source_count: int
    sampled_count: int
    sampled_percent: float
    selection_probability: float


@dataclass(frozen=True)
class ImbalanceReport:
    """Machine form of a per-class sample analysis table.

    ``selection_probability`` is the per-stratum sampling probability
    sampled_count / source_population; for the identity sample it equals
    the class share of the source.  ``imbalance_ratio`` is the largest
    nonzero sampled count over the smallest (0.0 when nothing sampled).
    """

    per_class: tuple[ClassRow, ...]
    total_sampled: int
    size_percent: float
    missing_classes: tuple[str, ...]
    imbalance_ratio: float
    source_population: int
    spec: SampleSpec | None = None

    @property
    def missing_count(self) -> int:
        return len(self.missing_classes)

    @property
    def class_count(self) -> int:
        return len(self.per_class)


@dataclass(frozen=True, slots=True)
class MissRow:
    label: str
    source_count: int
    miss_probability: float


@dataclass(frozen=True)
class MissProbabilityTable:
    """Analytic per-class miss probabilities for a random sample of n."""

    rows: tuple[MissRow, ...]
    n: int
    population: int
    with_replacement: bool

    @property
    def expected_missing(self) -> float:
        return sum(row.miss_probability for row in self.rows)


@dataclass(frozen=True)
class StratifiedTotals:
    """Aggregate quantities of a stratified sample."""

    total_sampled: int
    probabilities: tuple[float, ...]
    size_percent: float


def selection_probability(n: int, population: int) -> float:
    """Probability of a record entering an n-of-P uniform sample: n / P."""
    if population < 1:
        raise ZeroPopulation("population must be >= 1")
    if n < 0:
        raise ValueError("count must be >= 0")
    if n > population:
        raise CountExceedsPopulation(f"count {n} exceeds population {population}")
    return n / population


def sample_size_percent(n: int, population: int) -> float:
    """Sample size as a percentage of the population: 100 * n / P."""
    if population < 1:
        raise ZeroPopulation("population must be >= 1")
    if n < 0:
        raise ValueError("count must be >= 0")
    return 100.0 * n / population


def sampling_interval(population: int, n: int) -> int:
    """Systematic interval floor(P / n) for a target of n records."""
    if n < 1:
        raise ValueError("target count must be >= 1")
    if n > population:
        raise TargetExceedsPopulation(f"target {n} exceeds population {population}")
    return population // n


def stratified_totals(
    per_stratum_counts: list[int], population: int
) -> StratifiedTotals:
    """Total sampled, per-stratum probabilities, and size percentage."""
    if population < 1:
        raise ZeroPopulation("population must be >= 1")
    if any(count < 0 for count in per_stratum_counts):
        raise ValueError("stratum counts must be >= 0")
    total = sum(per_stratum_counts)
    return StratifiedTotals(
        total_sampled=total,
        probabilities=tuple(count / population for count in per_stratum_counts),
        size_percent=100.0 * total / population,
    )


def _report_from_counts(
    source_histogram: ClassHistogram,
    sampled_counts: dict[str, int],
    spec: SampleSpec | None,
) -> ImbalanceReport:
    total = sum(sampled_counts.values())
    population = source_histogram.total
    rows = []
    missing = []
    for label, source_count in source_histogram.entries:
        count = sampled_counts.get(label, 0)
        if count == 0:
            missing.append(label)
        rows.append(
            ClassRow(
                label=label,
                source_count=source_count,
                sampled_count=count,
                sampled_percent=(100.0 * count / total) if total else 0.0,
                selection_probability=count / population,
            )
        )
    nonzero = [row.sampled_count for row in rows if row.sampled_count > 0]
    ratio = (max(nonzero) / min(nonzero)) if nonzero else 0.0
    return ImbalanceReport(
        per_class=tuple(rows),
        total_sampled=total,
        size_percent=100.0 * total / population,
        missing_classes=tuple(missing),
        imbalance_ratio=ratio,
        source_population=population,
        spec=spec,
    )


def class_report(
    source_histogram: ClassHistogram, sample: SampleResult
) -> ImbalanceReport:
    """Per-class analysis of a sample against its source histogram."""
    known = set(source_histogram.labels())
    counts = sample.label_counts()
    for label in counts:
        if label not in known:
            raise UnknownLabelInSample(
                f"sample contains label {label!r} absent from the source"
            )
    return _report_from_counts(source_histogram, counts, sample.spec)


def identity_report(source_histogram: ClassHistogram) -> ImbalanceReport:
    """Report for the identity sample (the whole dataset)."""
    return _report_from_counts(source_histogram, source_histogram.as_dict(), None)


def _log_choose(total: int, taken: int) -> float:
    return (
        math.lgamma(total + 1)
        - math.lgamma(taken + 1)
        - math.lgamma(total - taken + 1)
    )


def miss_probability_analytic(
    source_histogram: ClassHistogram,
    n: int,
    with_replacement: bool = False,
) -> MissProbabilityTable:
    """Analytic probability each class is absent from a random n-sample.

    Without replacement the miss probability of a class with c members
    is C(P-c, n) / C(P, n), evaluated as a log-gamma difference and
    clamped to [0, 1] (exactly 0 once c > P - n).  With replacement it
    is (1 - c/P)**n.
    """
    population = source_histogram.total
    if n < 0:
        raise ValueError("sample size must be >= 0")
    if not with_replacement and n > population:
        raise CountExceedsPopulation(
            f"sample size {n} exceeds population {population}"
        )
    rows = []
    for label, count in source_histogram.entries:
        if with_replacement:
            miss = (1.0 - count / population) ** n
        elif count > population - n:
            miss = 0.0
        else:
            log_miss = _log_choose(population - count, n) - _log_choose(population, n)
            miss = min(1.0, max(0.0, math.exp(log_miss)))
        rows.append(MissRow(label=label, source_count=count, miss_probability=miss))
    return MissProbabilityTable(
        rows=tuple(rows), n=n, population=population, with_replacement=with_replacement
    )


def expected_missing_series(
    source_histogram: ClassHistogram,
    n_values: list[int],
    with_replacement: bool = False,
) -> list[tuple[int, float]]:
    """Expected missing-class count for each n; non-increasing in n."""
    return [
        (
            n,
            miss_probability_analytic(
                source_histogram, n, with_replacement
            ).expected_missing,
        )
        for n in n_values
    ]


def mc_missing_class_counts(
    source_histogram: ClassHistogram,
    n: int,
    trials: int,
    seed: int = 0,
    with_replacement: bool = False,
) -> list[int]:
    """Monte Carlo cross-check: per-trial missing-class counts.

    Trial t runs on the derived substream ``derive_seed(seed, t)``; the
    aggregate is a list of integers, independent of any scheduling.
    """
    return kernels.missing_class_trials(
        list(source_histogram.counts()), n, trials, seed, with_replacement
    )


def mc_class_sampled_totals(
    source_histogram: ClassHistogram,
    n: int,
    trials: int,
    seed: int = 0,
    with_replacement: bool = False,
) -> list[int]:
    """Monte Carlo cross-check: per-class sampled counts summed over trials."""
    return kernels.class_total_trials(
        list(source_histogram.counts()), n, trials, seed, with_replacement
    )
