#!/usr/bin/env python3
"""Regenerate the committed golden files under tests/golden/.

Run from the repository root after an intentional format or kernel
change, then review the diff carefully: these files pin byte-exact
output for seed 0 across platforms and backends.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from pktsample.dataset import (
    ClassHistogram,
    histogram,
    load_histogram_spec,
    pu_tds_histogram,
    synthesize,
)
from pktsample.kernels import derive_seed, pure
from pktsample.metrics import (
    class_report,
    expected_missing_series,
    identity_report,
    mc_missing_class_counts,
)
from pktsample.report import (
    ComparisonMatrix,
    dataset_to_csv,
    missing_series_export,
    render_sample_csv,
    render_table,
)
from pktsample.samplers import random_sample, stratified_sample, under_over_sample

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

SMALL = ClassHistogram.from_counts([("TCP", 6), ("ARP", 3), ("ICMP", 2), ("XID", 1)])


def write(name: str, text: str) -> None:
    (GOLDEN / name).write_bytes(text.encode("utf-8"))
    print(f"wrote {name}")


def prng_vectors() -> None:
    vectors = {"u64_streams": [], "randbelow_streams": [], "derive": [], "samples": []}
    for seed in (0, 1, 42, 123456789, 2**64 - 1):
        rng = pure.Rng(seed)
        vectors["u64_streams"].append(
            {"seed": seed, "values": [rng.next_u64() for _ in range(8)]}
        )
    for seed, bound in ((0, 25), (7, 2), (42, 30000), (9, 1000)):
        rng = pure.Rng(seed)
        vectors["randbelow_streams"].append(
            {
                "seed": seed,
                "bound": bound,
                "values": [rng.randbelow(bound) for _ in range(16)],
            }
        )
    for seed in (0, 77):
        vectors["derive"].append(
            {
                "seed": seed,
                "indices": [0, 1, 2, 24],
                "values": [pure.derive_seed(seed, i) for i in (0, 1, 2, 24)],
            }
        )
    for pop, count, seed in ((30000, 20, 0), (100, 10, 1), (12, 6, 3)):
        vectors["samples"].append(
            {
                "population": pop,
                "count": count,
                "seed": seed,
                "positions": pure.sample_without_replacement(pop, count, seed),
            }
        )
    write("prng_vectors.json", json.dumps(vectors, indent=1) + "\n")


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    prng_vectors()

    hist = pu_tds_histogram()
    dataset = synthesize(hist, seed=0, arrangement="shuffled")

    write("identity_report.md", render_table(identity_report(hist), "markdown"))
    write("identity_report.csv", render_table(identity_report(hist), "csv"))

    reports = [class_report(hist, stratified_sample(dataset, i)) for i in range(5, 11)]
    matrix = ComparisonMatrix.from_reports(reports)
    write("stratified_comparison.md", render_table(matrix, "markdown"))

    write(
        "random_n20_seed0.csv",
        render_sample_csv(random_sample(dataset, 20, seed=0)),
    )

    small_ds = synthesize(SMALL, seed=0, arrangement="shuffled")
    write("synth_small_seed0.csv", dataset_to_csv(small_ds))
    write(
        "underover_small_seed0.csv",
        render_sample_csv(under_over_sample(small_ds, 4, seed=0)),
    )

    digest = hashlib.sha256(dataset_to_csv(dataset).encode("utf-8")).hexdigest()
    write("pu_synth_seed0.sha256", digest + "\n")

    # synth_wide.hist is an input, not regenerated: 300 classes (two-byte
    # codes), labels the csv module quotes or that are not ASCII, and
    # more than 100k records (six-digit positions)
    wide = synthesize(load_histogram_spec(GOLDEN / "synth_wide.hist"), seed=0)
    digest = hashlib.sha256(dataset_to_csv(wide).encode("utf-8")).hexdigest()
    write("synth_wide_seed0.sha256", digest + "\n")

    # The CLI derives its histogram from the dataset file, so the class
    # order is the shuffled first-appearance order, not the bundled histogram order.
    file_hist = histogram(dataset)
    ns = [500, 1000, 2000, 3000, 5000, 10000, 15000, 20000]
    series = []
    expected = expected_missing_series(file_hist, ns)
    for index, (n, value) in enumerate(expected):
        observed = mc_missing_class_counts(
            file_hist, n, trials=1, seed=derive_seed(0, index)
        )[0]
        series.append((n, observed, value))
    write("oracle_pu_seed0.csv", missing_series_export(series))


if __name__ == "__main__":
    main()
