"""Kernel tests: PRNG contract, golden vectors, backend equivalence."""

from __future__ import annotations

import json
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsample import kernels
from pktsample.kernels import pure
from tests.conftest import PU_TDS_COUNTS

try:
    from pktsample.kernels import _native
except ImportError:
    _native = None

GOLDEN = Path(__file__).parent / "golden"

# Reference SplitMix64 stream for seed 0 (widely published test vector).
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]

BACKENDS = [pure] if _native is None else [pure, _native]


def backend_id(module) -> str:
    return "native" if module is not pure else "pure"


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_splitmix64_reference_vector(impl):
    """Seed-0 output must match the published SplitMix64 stream."""
    rng = impl.Rng(0)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX64_SEED0


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_prng_golden_vectors(impl):
    vectors = json.loads((GOLDEN / "prng_vectors.json").read_text())
    for stream in vectors["u64_streams"]:
        rng = impl.Rng(stream["seed"])
        assert [rng.next_u64() for _ in range(len(stream["values"]))] == stream["values"]
    for stream in vectors["randbelow_streams"]:
        rng = impl.Rng(stream["seed"])
        got = [rng.randbelow(stream["bound"]) for _ in range(len(stream["values"]))]
        assert got == stream["values"]
    for entry in vectors["derive"]:
        got = [impl.derive_seed(entry["seed"], i) for i in entry["indices"]]
        assert got == entry["values"]
    for entry in vectors["samples"]:
        got = impl.sample_without_replacement(
            entry["population"], entry["count"], entry["seed"]
        )
        assert got == entry["positions"]


def test_seed_taken_mod_2_64():
    assert pure.Rng(2**64).next_u64() == pure.Rng(0).next_u64()
    assert pure.Rng(-1).next_u64() == pure.Rng(2**64 - 1).next_u64()


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_randbelow_bound_one_consumes_nothing(impl):
    rng = impl.Rng(42)
    assert rng.randbelow(1) == 0
    fresh = impl.Rng(42)
    assert rng.next_u64() == fresh.next_u64()


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_randbelow_range(impl):
    rng = impl.Rng(3)
    for bound in (2, 3, 7, 16, 25, 1000):
        for _ in range(200):
            assert 0 <= rng.randbelow(bound) < bound


def test_randbelow_roughly_uniform():
    rng = pure.Rng(11)
    counts = [0] * 5
    for _ in range(50000):
        counts[rng.randbelow(5)] += 1
    for c in counts:
        assert abs(c - 10000) < 400  # ~4.5 sigma


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("bound", [0, -1, -(2**64), 2**64, 2**70])
def test_randbelow_bound_outside_1_to_2_64_rejected(impl, bound):
    rng = impl.Rng(5)
    with pytest.raises(ValueError, match=r"bound must lie in \[1, 2\*\*64\)"):
        rng.randbelow(bound)
    assert rng.next_u64() == impl.Rng(5).next_u64()
    assert 0 <= rng.randbelow(2**64 - 1) < 2**64 - 1


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_permutation_is_permutation(impl):
    perm = impl.permutation(100, 5)
    assert sorted(perm) == list(range(100))
    assert perm == impl.permutation(100, 5)
    assert perm != impl.permutation(100, 6)


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_sample_without_replacement_contract(impl):
    got = impl.sample_without_replacement(50, 10, 9)
    assert got == sorted(got)
    assert len(set(got)) == 10
    assert all(1 <= p <= 50 for p in got)
    # whole population: identity, no PRNG consumed
    assert impl.sample_without_replacement(5, 5, 123) == [1, 2, 3, 4, 5]
    assert impl.sample_without_replacement(5, 9, 123) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_sample_with_replacement_contract(impl):
    got = impl.sample_with_replacement(10, 40, 4)
    assert len(got) == 40
    assert all(1 <= p <= 10 for p in got)
    assert got == impl.sample_with_replacement(10, 40, 4)


def test_missing_trials_match_explicit_sampling():
    """Trial kernel must equal sampling via the public draw kernel."""
    counts = [5, 3, 2, 14]
    bounds = []
    start = 1
    for c in counts:
        bounds.append((start, start + c - 1))
        start += c

    def classes_of(positions):
        found = set()
        for p in positions:
            for idx, (lo, hi) in enumerate(bounds):
                if lo <= p <= hi:
                    found.add(idx)
        return found

    for base_seed in (0, 99):
        reported = kernels.missing_class_trials(counts, 6, 8, base_seed)
        for trial in range(8):
            seed = pure.derive_seed(base_seed, trial)
            positions = pure.sample_without_replacement(sum(counts), 6, seed)
            assert reported[trial] == len(counts) - len(classes_of(positions))


def test_class_totals_match_explicit_sampling():
    counts = [5, 3, 2, 14]
    totals = kernels.class_total_trials(counts, 6, 10, 17)
    assert sum(totals) == 6 * 10
    expected = [0] * len(counts)
    bounds = []
    start = 1
    for c in counts:
        bounds.append((start, start + c - 1))
        start += c
    for trial in range(10):
        seed = pure.derive_seed(17, trial)
        for p in pure.sample_without_replacement(sum(counts), 6, seed):
            for idx, (lo, hi) in enumerate(bounds):
                if lo <= p <= hi:
                    expected[idx] += 1
    assert totals == expected


@pytest.mark.parametrize("with_replacement", [False, True])
def test_class_count_trials_rows_feed_both_metrics(with_replacement):
    counts = [5, 0, 3, 1]
    rows = list(pure.class_count_trials(counts, 4, 6, 21, with_replacement))
    assert len(rows) == 6 and all(sum(row) == 4 for row in rows)
    assert all(row[1] == 0 for row in rows)
    if not with_replacement:
        assert all(c <= limit for row in rows for c, limit in zip(row, counts))
    assert [row.count(0) for row in rows] == kernels.missing_class_trials(
        counts, 4, 6, 21, with_replacement
    )
    assert [sum(column) for column in zip(*rows)] == kernels.class_total_trials(
        counts, 4, 6, 21, with_replacement
    )


def test_trials_clamp_draw_to_population():
    counts = [2, 3]
    assert kernels.missing_class_trials(counts, 50, 3, 0) == [0, 0, 0]
    assert kernels.class_total_trials(counts, 50, 2, 0) == [4, 6]


def test_trial_reductions_without_trials():
    assert kernels.missing_class_trials([2, 3], 1, 0, 0) == []
    assert kernels.class_total_trials([2, 3], 1, 0, 0) == [0, 0]


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("with_replacement", [False, True])
def test_blocked_trial_reductions_equal_one_call(impl, with_replacement, monkeypatch):
    """Trials run in blocks from a first-trial index give the rows and the
    reductions of one unblocked call."""
    counts = [346, 3235, 24, 1, 90]
    rows = impl.class_count_trials(counts, 40, 23, 5, with_replacement)
    assert impl.class_count_trials(counts, 40, 9, 5, with_replacement, 7) == rows[7:16]
    assert impl.class_count_trials(counts, 40, 2, 5, with_replacement, 2**64 + 3) == rows[3:5]
    monkeypatch.setattr(kernels, "_impl", impl)
    monkeypatch.setattr(kernels, "_TRIAL_BLOCK", 5)
    assert kernels.missing_class_trials(counts, 40, 23, 5, with_replacement) == [
        row.count(0) for row in rows
    ]
    assert kernels.class_total_trials(counts, 40, 23, 5, with_replacement) == [
        sum(column) for column in zip(*rows)
    ]


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_trial_reduction_memory_does_not_grow_with_trials(impl, monkeypatch):
    """The reductions hold one block of per-class rows at a time: from 2 to
    8 blocks of trials, the traced peak grows by no more than the returned
    list (twice its size, as a growing list may be copied)."""
    monkeypatch.setattr(kernels, "_impl", impl)
    counts = [count for _, count in PU_TDS_COUNTS]

    def peak_and_size(reduce, trials):
        tracemalloc.start()
        try:
            result = reduce(counts, 2, trials, 0)
            return tracemalloc.get_traced_memory()[1], sys.getsizeof(result)
        finally:
            tracemalloc.stop()

    for reduce in (kernels.missing_class_trials, kernels.class_total_trials):
        small, _ = peak_and_size(reduce, 2 * kernels._TRIAL_BLOCK)
        large, size = peak_and_size(reduce, 8 * kernels._TRIAL_BLOCK)
        assert large - small < 2 * size + 64 * 1024


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_empty_population_draws_rejected(impl):
    with pytest.raises(ValueError, match="empty population"):
        impl.sample_with_replacement(0, 3, 1)
    for counts in ([], [0, 0]):
        with pytest.raises(ValueError, match="empty population"):
            impl.class_count_trials(counts, 5, 2, 0, True)
        assert impl.class_count_trials(counts, 5, 2, 0) == [[0] * len(counts)] * 2
        assert impl.class_count_trials(counts, 0, 2, 0, True) == [[0] * len(counts)] * 2
    assert impl.sample_with_replacement(0, 0, 1) == []
    assert impl.sample_without_replacement(0, 3, 1) == []
    assert impl.permutation(0, 1) == []


SIZE_CALLS = {
    "permutation": lambda impl, size: impl.permutation(size, 0),
    "population": lambda impl, size: impl.sample_without_replacement(size, 2, 0),
    "count": lambda impl, size: impl.sample_without_replacement(5, size, 0),
    "wr_population": lambda impl, size: impl.sample_with_replacement(size, 2, 0),
    "wr_count": lambda impl, size: impl.sample_with_replacement(5, size, 0),
    "counts": lambda impl, size: impl.class_count_trials([1, size], 2, 1, 0),
    "draw": lambda impl, size: impl.class_count_trials([3, 4], size, 1, 0),
    "trials": lambda impl, size: impl.class_count_trials([3, 4], 2, size, 0),
}


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
@pytest.mark.parametrize("argument", sorted(SIZE_CALLS))
@pytest.mark.parametrize("size", [-1, -(2**64), 2**63, 2**64 + 3])
def test_sizes_outside_0_to_2_63_rejected(impl, argument, size):
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*63\)"):
        SIZE_CALLS[argument](impl, size)


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_sizes_up_to_2_63_accepted(impl):
    top = 2**63 - 1
    picks = impl.sample_without_replacement(top, 3, -5)
    assert len(set(picks)) == 3 and all(1 <= p <= top for p in picks)
    assert all(1 <= p <= top for p in impl.sample_with_replacement(top, 3, 2**70))
    rows = impl.class_count_trials([2**62, 2**62 - 1], 3, 2, 9)
    assert len(rows) == 2 and all(sum(row) == 3 for row in rows)
    with pytest.raises(ValueError, match="population"):
        impl.class_count_trials([2**62, 2**62], 1, 1, 0)
    assert impl.derive_seed(2**70 + 5, -3) == pure.derive_seed(5, 2**64 - 3)


@pytest.mark.parametrize("impl", BACKENDS, ids=backend_id)
def test_group_by_code_contract(impl):
    """Counts per code, and 1-based positions grouped by code, ascending
    within a code; codes at or above nclasses and signed codes rejected."""
    counts, positions = impl.group_by_code(array("B", [2, 0, 2, 1, 0, 2]), 4)
    assert counts == [2, 1, 3, 0]
    assert (positions.typecode, list(positions)) == ("q", [2, 5, 4, 1, 3, 6])
    assert impl.group_by_code(array("I"), 0) == ([], array("q"))
    with pytest.raises(ValueError, match=r"codes must lie in \[0, 3\), got 7"):
        impl.group_by_code(array("H", [1, 7, 9]), 3)
    with pytest.raises(ValueError, match=r"nclasses must lie in \[0, 2\*\*63\)"):
        impl.group_by_code(array("B", [0]), 2**63)
    with pytest.raises(TypeError, match="unsigned"):
        impl.group_by_code(array("b", [0]), 1)


@pytest.mark.skipif(_native is None, reason="native kernels not built")
class TestBackendEquivalence:
    """Pure and native kernels must agree bit for bit."""

    SEEDS = [0, 1, 7, 123456789, 2**63 + 11, -42]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams(self, seed):
        a, b = pure.Rng(seed), _native.Rng(seed)
        assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]
        for bound in (2, 3, 10, 25, 30000, 2**40):
            a, b = pure.Rng(seed), _native.Rng(seed)
            assert [a.randbelow(bound) for _ in range(32)] == [
                b.randbelow(bound) for _ in range(32)
            ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampling(self, seed):
        for pop, n in ((1, 1), (10, 3), (100, 99), (30000, 500)):
            assert pure.sample_without_replacement(
                pop, n, seed
            ) == _native.sample_without_replacement(pop, n, seed)
            assert pure.sample_with_replacement(
                pop, n, seed
            ) == _native.sample_with_replacement(pop, n, seed)
        assert pure.permutation(200, seed) == _native.permutation(200, seed)
        assert pure.derive_seed(seed, 3) == _native.derive_seed(seed, 3)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_trials(self, seed, with_replacement):
        counts = [346, 3235, 24, 1, 90]
        assert pure.class_count_trials(
            counts, 40, 25, seed, with_replacement
        ) == _native.class_count_trials(counts, 40, 25, seed, with_replacement)


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or ValueError if it raised one."""
    try:
        return fn(*args)
    except ValueError:
        return ValueError


SEEDS = st.integers(-(2**70), 2**70)


@pytest.mark.skipif(_native is None, reason="native kernels not built")
class TestBackendEquivalenceProperty:
    """Pure and native agree on generated arguments, errors included."""

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 60), max_size=7),
        draw=st.integers(0, 150),
        trials=st.integers(0, 4),
        seed=SEEDS,
        with_replacement=st.booleans(),
    )
    def test_class_count_trials(self, counts, draw, trials, seed, with_replacement):
        args = (counts, draw, trials, seed, with_replacement)
        assert _outcome(pure.class_count_trials, *args) == _outcome(
            _native.class_count_trials, *args
        )

    @settings(max_examples=150, deadline=None)
    @given(population=st.integers(0, 2**40), count=st.integers(0, 200), seed=SEEDS)
    def test_samplers(self, population, count, seed):
        for name in ("sample_without_replacement", "sample_with_replacement"):
            assert _outcome(getattr(pure, name), population, count, seed) == _outcome(
                getattr(_native, name), population, count, seed
            )

    @settings(max_examples=100, deadline=None)
    @given(bound=st.integers(-(2**70), 2**70) | st.integers(2**64 - 2, 2**64 + 1),
           seed=SEEDS)
    def test_randbelow(self, bound, seed):
        def draws(impl):
            rng = impl.Rng(seed)
            return [rng.randbelow(bound) for _ in range(8)]

        assert _outcome(draws, pure) == _outcome(draws, _native)

    @settings(max_examples=150, deadline=None)
    @given(
        typecode=st.sampled_from("BHI"),
        codes=st.lists(st.integers(0, 12) | st.integers(0, 255), max_size=40),
        wide=st.integers(0, 2**32 - 1),
        nclasses=st.integers(-3, 300),
    )
    def test_group_by_code(self, typecode, codes, wide, nclasses):
        if typecode != "B" and codes:
            codes[len(codes) // 2] = wide % (2**16 if typecode == "H" else 2**32)
        codes = array(typecode, codes)
        assert _outcome(pure.group_by_code, codes, nclasses) == _outcome(
            _native.group_by_code, codes, nclasses
        )

    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(0, 300), seed=SEEDS)
    def test_permutation(self, count, seed):
        assert pure.permutation(count, seed) == _native.permutation(count, seed)


def test_backend_name_reported():
    assert kernels.backend_name() in ("pure", "native")
    assert "pure" in kernels.available_backends()


def test_label_scanners_only_on_native_backend():
    """The pure backend has no label scanners, so the dataset module's
    Python parser reads every input there."""
    pure_backend = kernels.backend_name() == "pure"
    assert (kernels.scan_csv_labels is None) == pure_backend
    assert (kernels.scan_ndjson_labels is None) == pure_backend
