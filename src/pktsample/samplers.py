"""Deterministic sampling families over trace datasets.

Five families behind one contract, one ``FAMILIES`` entry each:

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
bit-reproducible across runs and platforms.  A sample is stored as
columns of source positions and class codes, read straight from the
dataset's code column and strata.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from pktsample import kernels
from pktsample.dataset import TraceDataset, _encoded
from pktsample.errors import EmptyDataset, TargetExceedsPopulation

SIZE_PARAMETERS = ("n", "interval", "k")
SIZE_LIMIT = 2**63  # sizes lie below the kernels' bound


@dataclass(frozen=True)
class SampleSpec:
    """A sampling request: family, parameters, seed.

    A family takes exactly one of the size parameters ``n``, ``interval``
    and ``k``; ``FAMILIES`` says which, whether ``seed`` is used and
    whether ``with_replacement`` applies.
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
        entry = FAMILIES[self.family]
        if self.size is None or self.size < 1:
            raise ValueError(f"{self.family} sampling needs {entry.size} >= 1")
        if self.size >= SIZE_LIMIT:
            raise ValueError(f"{self.family} sampling needs {entry.size} < 2**63")
        for name in SIZE_PARAMETERS:
            if name != entry.size and getattr(self, name) is not None:
                raise ValueError(
                    f"{self.family} sampling takes {entry.size}, not {name}"
                )
        if self.with_replacement and not entry.with_replacement:
            raise ValueError(f"{self.family} sampling does not take with_replacement")

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

    @property
    def size(self) -> int | None:
        """The value of the one size parameter the family takes."""
        return getattr(self, FAMILIES[self.family].size)

    @property
    def parameter(self) -> str:
        """The size parameter in short form, e.g. ``I=5``."""
        return f"{FAMILIES[self.family].short}={self.size}"

    def _format(self, template: str, **extra) -> str:
        name = f"{self.family} wr" if self.with_replacement else self.family
        return template.format(
            name=name, param=self.parameter, seed=self.seed, **extra
        )

    def describe(self) -> str:
        """Short human-readable form, e.g. ``stratified I=5``."""
        return self._format(FAMILIES[self.family].describe)

    def column_title(self, total: int) -> str:
        """Comparison column title for a run that drew ``total`` records."""
        return self._format(FAMILIES[self.family].title, total=total)


@dataclass(frozen=True, slots=True)
class SampledRecord:
    """One sample entry; ``synthetic`` marks over-sampling duplicates."""

    source_position: int
    label: str
    synthetic: bool = False


class SampleResult:
    """A sample with full provenance about its source.

    The sample is stored as columns, not as one object per entry: entry i
    is source record ``positions[i]`` (1-based, an ``array('q')``) of
    class ``codes[i]``, whose label is ``table[codes[i]]``, and is a
    synthetic duplicate where the flag ``synthetic[i]`` is set
    (``synthetic`` is None for a sample that can have none).  ``entries``
    is a lazy library view that builds ``SampledRecord`` objects on first
    access.
    """

    def __init__(
        self,
        spec: SampleSpec,
        entries: Iterable[SampledRecord],
        source_population: int,
        source_class_count: int,
    ):
        entries = tuple(entries)
        codes, table = _encoded(entry.label for entry in entries)
        synthetic = array("B", [entry.synthetic for entry in entries])
        self._set_columns(
            spec, array("q", [entry.source_position for entry in entries]), codes,
            table, synthetic if any(synthetic) else None, source_population,
            source_class_count,
        )
        self.__dict__["entries"] = entries  # the cached view is these entries

    @classmethod
    def _from_columns(cls, *columns) -> "SampleResult":
        """A sample over its columns (no per-entry objects): ``spec``,
        ``positions``, ``codes``, ``table``, ``synthetic``,
        ``source_population`` and ``source_class_count``."""
        result = cls.__new__(cls)
        result._set_columns(*columns)
        return result

    def _set_columns(
        self,
        spec: SampleSpec,
        positions: array,
        codes: array,
        table: tuple[str, ...],
        synthetic: array | None,
        source_population: int,
        source_class_count: int,
    ) -> None:
        self.spec = spec
        self.positions = positions
        self.codes = codes
        self.table = table
        self.synthetic = synthetic
        self.source_population = source_population
        self.source_class_count = source_class_count

    @cached_property
    def entries(self) -> tuple[SampledRecord, ...]:
        """One ``SampledRecord`` per entry, built on first access."""
        labels = map(self.table.__getitem__, self.codes)
        if self.synthetic is None:
            return tuple(map(SampledRecord, self.positions, labels))
        flags = map(bool, self.synthetic)
        return tuple(map(SampledRecord, self.positions, labels, flags))

    def __len__(self) -> int:
        return len(self.positions)

    def __eq__(self, other):
        if not isinstance(other, SampleResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return (self.spec, self.entries, self.source_population, self.source_class_count)

    def label_counts(self) -> dict[str, int]:
        """Entries per label, labels in first-appearance order."""
        table = self.table
        return {table[code]: count for code, count in Counter(self.codes).items()}


def _result(
    dataset: TraceDataset,
    spec: SampleSpec,
    positions: Iterable[int],
    codes: array,
    synthetic: array | None = None,
) -> SampleResult:
    return SampleResult._from_columns(
        spec, array("q", positions), codes, dataset.table, synthetic,
        dataset.population, len(dataset.table),
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
    if with_replacement:
        positions = kernels.sample_with_replacement(dataset.population, n, seed)
    else:
        positions = kernels.sample_without_replacement(
            dataset.population, min(n, dataset.population), seed
        )
    codes = dataset.codes
    picked = array(codes.typecode, [codes[p - 1] for p in positions])
    return _result(dataset, spec, positions, picked)


def systematic_sample(dataset: TraceDataset, interval: int) -> SampleResult:
    """Every ``interval``-th record starting from position 1."""
    _require_nonempty(dataset)
    spec = SampleSpec.systematic(interval)
    positions = range(1, dataset.population + 1, interval)
    return _result(dataset, spec, positions, dataset.codes[::interval])


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
    stop = n * interval
    positions = range(1, stop + 1, interval)
    return _result(dataset, spec, positions, dataset.codes[:stop:interval])


def stratified_sample(dataset: TraceDataset, interval: int) -> SampleResult:
    """Two-phase sampling: partition by label, systematic within strata.

    Each stratum keeps its dataset order and contributes its 1st,
    (1+I)-th, (1+2I)-th ... members, i.e. ceil(n_i / I) >= 1 records, so
    the result always covers every source class.  Strata are emitted in
    first-appearance order.
    """
    _require_nonempty(dataset)
    spec = SampleSpec.stratified(interval)
    counts, order = dataset.strata
    positions = array("q")
    codes = array(dataset.codes.typecode)
    start = 0
    for code, count in enumerate(counts):
        picked = order[start : start + count : interval]
        positions += picked
        codes += array(codes.typecode, [code]) * len(picked)
        start += count
    return _result(dataset, spec, positions, codes)


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
    counts, order = dataset.strata
    positions = array("q")
    codes = array(dataset.codes.typecode)
    synthetic = array("B")
    start = 0
    for code, size in enumerate(counts):
        stratum = order[start : start + size]
        start += size
        sub_seed = kernels.derive_seed(seed, code)
        if size > k:
            picks = kernels.sample_without_replacement(size, k, sub_seed)
            positions.extend([stratum[i - 1] for i in picks])
        else:
            positions += stratum
            if size < k:
                extras = kernels.sample_with_replacement(size, k - size, sub_seed)
                positions.extend([stratum[i - 1] for i in extras])
        codes += array(codes.typecode, [code]) * k
        kept = min(size, k)
        synthetic += array("B", [0]) * kept + array("B", [1]) * (k - kept)
    return _result(dataset, spec, positions, codes, synthetic)


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one sampling family.

    ``describe`` and ``title`` are templates over ``name`` (the family,
    plus `` wr`` with replacement), ``param`` (e.g. ``I=5``), ``seed``
    and, in titles, ``total``: the records drawn, which stands in for a
    requested ``n``.
    """

    size: str  # the one size parameter it takes: n, interval or k
    short: str  # that parameter in run names: n, I or k
    seeded: bool  # takes seed
    with_replacement: bool  # takes with_replacement
    sampler: Callable[..., SampleResult]  # (dataset, size, **seed/replacement)
    describe: str  # SampleSpec.describe()
    title: str  # comparison column title


FAMILIES: dict[str, Family] = {
    "random": Family("n", "n", True, True, random_sample,
                     "{name} {param}, seed={seed}", "{name} seed={seed}, n={total}"),
    "systematic": Family("interval", "I", False, False, systematic_sample,
                         "{name} {param}", "{name} {param}, n={total}"),
    "bycount": Family("n", "n", False, False, systematic_by_count,
                      "{name} {param}", "{name}, n={total}"),
    "stratified": Family("interval", "I", False, False, stratified_sample,
                         "{name} {param}", "{name} {param}, n={total}"),
    "underover": Family("k", "k", True, False, under_over_sample,
                        "{name} {param}, seed={seed}",
                        "{name} {param} seed={seed}, n={total}"),
}


def draw(dataset: TraceDataset, spec: SampleSpec) -> SampleResult:
    """Run the sampler described by ``spec``."""
    entry = FAMILIES[spec.family]
    options = {"seed": spec.seed} if entry.seeded else {}
    if entry.with_replacement:
        options["with_replacement"] = spec.with_replacement
    return entry.sampler(dataset, spec.size, **options)
