"""Deterministic sampling families over trace datasets.

Five families behind one contract:

* ``random``: uniform simple random sampling, with or without
  replacement, seeded.
* ``systematic``: every I-th record starting at the first.
* ``bycount``: systematic sampling sized to an exact target count.
* ``stratified``: two-phase, partition by label then within-stratum
  systematic selection; every class contributes ceil(n_i / I) records,
  so no class can go missing.
* ``underover``: per-class quota k; majority classes are randomly cut
  down to k, minority classes keep all originals and are topped up with
  replacement-drawn duplicates flagged ``synthetic``.

Every sampler is a pure function of (dataset, parameters, seed) and is
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from pktsample import kernels
from pktsample.dataset import TraceDataset, histogram
from pktsample.errors import EmptyDataset, TargetExceedsPopulation

FAMILIES = ("random", "systematic", "bycount", "stratified", "underover")


@dataclass(frozen=True)
class SampleSpec:
    """A sampling request: family, parameters, seed.

    The seed is ignored by the two purely deterministic systematic
    families.
    """

    family: str
    n: int | None = None
    interval: int | None = None
    k: int | None = None
    with_replacement: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        needs = {
            "random": ("n",),
            "systematic": ("interval",),
            "bycount": ("n",),
            "stratified": ("interval",),
            "underover": ("k",),
        }[self.family]
        for name in needs:
            value = getattr(self, name)
            if value is None or value < 1:
                raise ValueError(f"{self.family} sampling needs {name} >= 1")
        if self.with_replacement and self.family != "random":
            raise ValueError("with_replacement applies to random sampling only")

    @classmethod
    def random(cls, n: int, with_replacement: bool = False, seed: int = 0):
        return cls(family="random", n=n, with_replacement=with_replacement, seed=seed)

    @classmethod
    def systematic(cls, interval: int):
        return cls(family="systematic", interval=interval)

    @classmethod
    def by_count(cls, n: int):
        return cls(family="bycount", n=n)

    @classmethod
    def stratified(cls, interval: int):
        return cls(family="stratified", interval=interval)

    @classmethod
    def under_over(cls, k: int, seed: int = 0):
        return cls(family="underover", k=k, seed=seed)

    def describe(self) -> str:
        """Short human-readable form, e.g. ``stratified I=5``."""
        if self.family == "random":
            tag = "random wr" if self.with_replacement else "random"
            return f"{tag} n={self.n}, seed={self.seed}"
        if self.family == "systematic":
            return f"systematic I={self.interval}"
        if self.family == "bycount":
            return f"bycount n={self.n}"
        if self.family == "stratified":
            return f"stratified I={self.interval}"
        return f"underover k={self.k}, seed={self.seed}"


@dataclass(frozen=True, slots=True)
class SampledRecord:
    """One sample entry; ``synthetic`` marks over-sampling duplicates."""

    source_position: int
    label: str
    synthetic: bool = False


@dataclass(frozen=True)
class SampleResult:
    """A sample with full provenance about its source."""

    spec: SampleSpec
    entries: tuple[SampledRecord, ...]
    source_population: int
    source_class_count: int

    def __len__(self) -> int:
        return len(self.entries)

    def label_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.label] = counts.get(entry.label, 0) + 1
        return counts


def _result(dataset: TraceDataset, spec: SampleSpec, entries) -> SampleResult:
    return SampleResult(
        spec=spec,
        entries=tuple(entries),
        source_population=dataset.population,
        source_class_count=histogram(dataset).class_count,
    )


def _require_nonempty(dataset: TraceDataset):
    if dataset.population == 0:
        raise EmptyDataset("cannot sample an empty dataset")


def random_sample(
    dataset: TraceDataset,
    n: int,
    with_replacement: bool = False,
    seed: int = 0,
) -> SampleResult:
    """Uniform random sample of n records.

    Without replacement the result holds min(n, P) distinct records in
    ascending position order; with replacement it holds exactly n draws
    in draw order.
    """
    _require_nonempty(dataset)
    spec = SampleSpec.random(n, with_replacement=with_replacement, seed=seed)
    labels = dataset.labels
    if with_replacement:
        positions = kernels.sample_with_replacement(dataset.population, n, seed)
    else:
        positions = kernels.sample_without_replacement(
            dataset.population, min(n, dataset.population), seed
        )
    entries = (
        SampledRecord(source_position=p, label=labels[p - 1])
        for p in positions
    )
    return _result(dataset, spec, entries)


def systematic_sample(dataset: TraceDataset, interval: int) -> SampleResult:
    """Every ``interval``-th record starting from position 1."""
    _require_nonempty(dataset)
    spec = SampleSpec.systematic(interval)
    labels = dataset.labels
    entries = (
        SampledRecord(source_position=p, label=labels[p - 1])
        for p in range(1, dataset.population + 1, interval)
    )
    return _result(dataset, spec, entries)


def systematic_by_count(dataset: TraceDataset, n: int) -> SampleResult:
    """Systematic sample sized to exactly ``n`` records.

    Uses interval floor(P / n) (never 0), then truncates the systematic
    selection to the first n entries.
    """
    _require_nonempty(dataset)
    spec = SampleSpec.by_count(n)
    if n > dataset.population:
        raise TargetExceedsPopulation(
            f"target {n} exceeds population {dataset.population}"
        )
    interval = dataset.population // n
    labels = dataset.labels
    positions = range(1, dataset.population + 1, interval)
    entries = (
        SampledRecord(source_position=p, label=labels[p - 1])
        for _, p in zip(range(n), positions)
    )
    return _result(dataset, spec, entries)


def stratified_sample(dataset: TraceDataset, interval: int) -> SampleResult:
    """Two-phase sampling: partition by label, systematic within strata.

    Each stratum keeps its dataset order and contributes its 1st,
    (1+I)-th, (1+2I)-th ... members, i.e. ceil(n_i / I) >= 1 records, so
    the result always covers every source class.  Strata are emitted in
    first-appearance order.
    """
    _require_nonempty(dataset)
    spec = SampleSpec.stratified(interval)
    entries = []
    for label, positions in dataset.strata:
        entries.extend(
            SampledRecord(source_position=p, label=label)
            for p in positions[::interval]
        )
    return _result(dataset, spec, entries)


def under_over_sample(dataset: TraceDataset, k: int, seed: int = 0) -> SampleResult:
    """Balance every class to exactly ``k`` records.

    Majority classes (n_i > k) are under-sampled: k distinct records
    drawn uniformly, emitted in ascending position order.  Minority
    classes (n_i < k) keep all originals and append k - n_i uniform
    draws with replacement, flagged synthetic, in draw order.  Each
    class draws from its own substream, so adding a class never perturbs
    earlier classes.
    """
    _require_nonempty(dataset)
    spec = SampleSpec.under_over(k, seed=seed)
    entries = []
    for index, (label, positions) in enumerate(dataset.strata):
        sub_seed = kernels.derive_seed(seed, index)
        size = len(positions)
        if size > k:
            picks = kernels.sample_without_replacement(size, k, sub_seed)
            entries.extend(
                SampledRecord(source_position=positions[i - 1], label=label)
                for i in picks
            )
        else:
            entries.extend(
                SampledRecord(source_position=p, label=label) for p in positions
            )
            if size < k:
                extras = kernels.sample_with_replacement(size, k - size, sub_seed)
                entries.extend(
                    SampledRecord(
                        source_position=positions[i - 1], label=label, synthetic=True
                    )
                    for i in extras
                )
    return _result(dataset, spec, entries)


def draw(dataset: TraceDataset, spec: SampleSpec) -> SampleResult:
    """Run the sampler described by ``spec``."""
    if spec.family == "random":
        return random_sample(
            dataset, spec.n, with_replacement=spec.with_replacement, seed=spec.seed
        )
    if spec.family == "systematic":
        return systematic_sample(dataset, spec.interval)
    if spec.family == "bycount":
        return systematic_by_count(dataset, spec.n)
    if spec.family == "stratified":
        return stratified_sample(dataset, spec.interval)
    return under_over_sample(dataset, spec.k, seed=spec.seed)
