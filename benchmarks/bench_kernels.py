#!/usr/bin/env python3
"""Benchmark the pure-Python kernels against the compiled extension.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Covers the two hot paths that dominate real workloads: Monte Carlo
trials (the per-trial class counts that the missing-class and class-total
metrics reduce) and bulk without-replacement draws.  Both backends
produce bit-identical output (asserted here), so the only difference is
speed.
"""

from __future__ import annotations

import argparse
import time

from pktsample.dataset import pu_tds_histogram
from pktsample.kernels import pure

try:
    from pktsample.kernels import _native
except ImportError:
    _native = None


def timed(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if _native is None:
        raise SystemExit(
            "native kernels are not built; run `python setup.py build_ext --inplace`"
        )

    counts = list(pu_tds_histogram().counts())
    cases = [
        (
            "class_count_trials(n=500, trials=2000)",
            lambda impl: impl.class_count_trials(counts, 500, 2000, 0),
        ),
        (
            "class_count_trials(n=15000, trials=50)",
            lambda impl: impl.class_count_trials(counts, 15000, 50, 0),
        ),
        (
            "sample_without_replacement(30000, 15000)",
            lambda impl: impl.sample_without_replacement(30000, 15000, 0),
        ),
        (
            "permutation(30000)",
            lambda impl: impl.permutation(30000, 0),
        ),
    ]

    print(f"{'kernel':45s} {'pure':>10s} {'native':>10s} {'speedup':>9s}")
    for name, runner in cases:
        assert runner(pure) == runner(_native), f"backend mismatch in {name}"
        pure_time = timed(lambda: runner(pure), args.repeat)
        native_time = timed(lambda: runner(_native), args.repeat)
        print(
            f"{name:45s} {pure_time * 1000:8.1f}ms {native_time * 1000:8.1f}ms "
            f"{pure_time / native_time:8.1f}x"
        )


if __name__ == "__main__":
    main()
