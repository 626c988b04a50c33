"""Replay one pktsample CLI job in-process, with a span per layer call.

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py --job NAME --spans FILE -- ARGV...
    python3 perfbench/tracer.py --kernel-cases REPEAT

The first form calls ``pktsample.cli.main(ARGV)`` after wrapping, from
outside, the public functions ``cli`` calls in ``dataset``,
``samplers``, ``metrics`` and ``report``, plus the ``kernels`` entry
points those layers call.  Nothing inside ``src/`` changes.  It appends
one JSON object per span to FILE and exits with ``main``'s code.  A span
holds its name, start and end (seconds since the job began), parent span
id, rows in and out, peak RSS, backend, and the CPython GC time and
collections that fell inside it (``gc.callbacks``).

The second form times the four kernel cases of
``benchmarks/bench_kernels.py`` on the active backend and prints
``{"backend": ..., "cases": {name: median seconds}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from pktsample import cli, kernels
from pktsample.dataset import pu_tds_histogram
from pktsample.report import ComparisonMatrix


def current_rss_b() -> int:
    """Resident set size now; falls back to the peak where /proc is absent."""
    try:
        with open("/proc/self/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Span recorder; spans stay in memory until ``write``."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start: float | None = None
        self.t0 = time.perf_counter()

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    def wrap(self, name, fn, counts=None, rss=False):
        """``fn`` timed as a span.  ``name`` may be a function of the call
        arguments; ``counts(args, kwargs, result)`` adds row counts."""

        def traced(*args, **kwargs):
            span = {
                "trace": self.job,
                "id": len(self.spans),
                "parent": self.stack[-1] if self.stack else None,
                "name": name(*args, **kwargs) if callable(name) else name,
                "backend": kernels.backend_name(),
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            gc_s, gc_n = self.gc_s, self.gc_collections
            rss_before = current_rss_b() if rss else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span.update(
                    start=start - self.t0,
                    end=end - self.t0,
                    gc_s=self.gc_s - gc_s,
                    gc_collections=self.gc_collections - gc_n,
                    peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                )
            if rss:
                span["rss_growth_b"] = current_rss_b() - rss_before
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _load_name(path, format=None, **_):
    if format is None:
        format = "ndjson" if str(path).lower().endswith((".ndjson", ".jsonl")) else "csv"
    return f"dataset.load_{format}"


def _draw_name(dataset, spec):
    family = "random_wr" if spec.with_replacement else spec.family
    return f"samplers.draw.{family}"


def _text_out(rows_in):
    return lambda a, kw, text: {"rows_in": rows_in(a), "bytes_out": len(text.encode())}


def _table_rows(table):
    """Class rows of an ImbalanceReport or a ComparisonMatrix."""
    return len(table.per_class if hasattr(table, "per_class") else table.row_labels)


def install(tracer: Tracer) -> None:
    """Replace the layer entry points ``cli`` and the samplers call."""
    wraps = {
        "build_parser": ("cli.build_parser", None),
        "parse_run_matrix": ("cli.parse_run_matrix",
                             lambda a, kw, r: {"rows_out": len(r)}),
        "_write_text": ("cli.write", lambda a, kw, r: {"bytes_out": len(a[1].encode())}),
        "load_dataset": (_load_name, lambda a, kw, r: {"rows_out": r.population}),
        "histogram": ("dataset.histogram",
                      lambda a, kw, r: {"rows_in": a[0].population, "rows_out": r.class_count}),
        "load_histogram_spec": ("dataset.load_histogram_spec",
                                lambda a, kw, r: {"rows_out": r.class_count}),
        "synthesize": ("dataset.synthesize", lambda a, kw, r: {"rows_out": r.population}),
        "draw": (_draw_name,
                 lambda a, kw, r: {"rows_in": a[0].population, "rows_out": len(r)}),
        "class_report": ("metrics.class_report",
                         lambda a, kw, r: {"rows_in": len(a[1]), "rows_out": r.class_count}),
        "identity_report": ("metrics.identity_report",
                            lambda a, kw, r: {"rows_in": a[0].total, "rows_out": r.class_count}),
        "mc_missing_class_counts": ("metrics.mc",
                                    lambda a, kw, r: {"rows_in": a[1] * kw["trials"],
                                                      "rows_out": len(r)}),
        "expected_missing_series": ("metrics.analytic",
                                    lambda a, kw, r: {"rows_in": len(a[1]), "rows_out": len(r)}),
        "render_table": ("report.render_table", _text_out(lambda a: _table_rows(a[0]))),
        "render_sample_csv": ("report.render_sample_csv", _text_out(lambda a: len(a[0]))),
        "missing_series_export": ("report.missing_series_export",
                                  _text_out(lambda a: len(a[0]))),
        "dataset_to_csv": ("report.dataset_to_csv", _text_out(lambda a: a[0].population)),
    }
    for attr, (name, counts) in wraps.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), counts,
                                       rss=attr == "load_dataset"))
    ComparisonMatrix.from_reports = staticmethod(tracer.wrap(
        "report.comparison_matrix", ComparisonMatrix.from_reports,
        lambda a, kw, r: {"rows_in": len(a[0])}))
    for attr in ("permutation", "sample_without_replacement", "sample_with_replacement",
                 "missing_class_trials", "class_total_trials"):
        setattr(kernels, attr, tracer.wrap(f"kernels.{attr}", getattr(kernels, attr),
                                           lambda a, kw, r: {"rows_out": len(r)}))


def replay(job: str, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer(job)
    install(tracer)
    gc.callbacks.append(tracer.on_gc)
    try:
        code = tracer.wrap("cli.main", cli.main)(argv)
    finally:
        gc.callbacks.remove(tracer.on_gc)
    tracer.write(spans_path)
    return code


def kernel_cases(repeat: int) -> dict:
    """The four ``benchmarks/bench_kernels.py`` cases, median of ``repeat``."""
    counts = list(pu_tds_histogram().counts())
    cases = {
        "missing_class_trials": lambda: kernels.missing_class_trials(counts, 500, 2000, 0),
        "class_total_trials": lambda: kernels.class_total_trials(counts, 15000, 50, 0),
        "sample_without_replacement": lambda: kernels.sample_without_replacement(30000, 15000, 0),
        "permutation": lambda: kernels.permutation(30000, 0),
    }
    medians = {}
    for name, case in cases.items():
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            case()
            times.append(time.perf_counter() - start)
        medians[name] = statistics.median(times)
    return {"backend": kernels.backend_name(), "cases": medians}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job")
    parser.add_argument("--spans")
    parser.add_argument("--kernel-cases", type=int, metavar="REPEAT")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.kernel_cases:
        print(json.dumps(kernel_cases(args.kernel_cases)))
        return 0
    return replay(args.job, args.spans, args.argv)


if __name__ == "__main__":
    sys.exit(main())
