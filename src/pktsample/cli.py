"""Command-line interface.

Workflow commands: ``synth`` (histogram spec -> dataset), ``analyze``
(dataset -> identity report), ``sample`` (dataset -> sample + report),
``compare`` (dataset + run matrix -> comparison table), ``oracle``
(dataset -> missing-class series, observed vs analytic).

Exit codes: 0 success, 1 runtime/data error (running out of memory
included), 2 usage/config error;
``main`` alone maps errors to codes and prints the one error line.
Every randomized command takes ``--seed`` (default 0) and is
bit-reproducible for equal invocations; no command mutates its input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from pktsample import __version__, kernels
from pktsample.dataset import (
    DEFAULT_LABEL_COLUMN,
    _undecodable,
    histogram,
    load_dataset,
    load_histogram_spec,
    synthesize,
)
from pktsample.errors import PktSampleError, UsageError
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
from pktsample.samplers import FAMILIES, SIZE_LIMIT, SIZE_PARAMETERS, SampleSpec, draw

MAX_DECIMALS = 50


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _error(message: str) -> None:
    print(f"pktsample: error: {message}", file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error, in a subcommand too, ends in the one ``pktsample:
    error:`` line every other error prints."""

    def error(self, message):
        self.print_usage(sys.stderr)
        _error(message)
        sys.exit(2)


def _decimals(args) -> int:
    if args.decimals < 0:
        raise UsageError("--decimals must be >= 0")
    if args.decimals > MAX_DECIMALS:
        raise UsageError(f"--decimals must be <= {MAX_DECIMALS}")
    return args.decimals


def _load_input(args):
    dataset = load_dataset(
        args.input, format=args.input_format, label_column=args.label_column
    )
    return dataset, histogram(dataset)


def parse_run_matrix(text: str, default_seed: int) -> list[SampleSpec]:
    """Parse a declarative run list: one ``family key=value ...`` per line.

    Keys: the family's size key (n, interval or k) and seed, integers,
    and with_replacement (true/false), each at most once per line.  ``#``
    starts a comment.  Runs of a seeded family without an explicit seed
    inherit ``default_seed``.
    """
    specs = []
    for line_num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        family = tokens[0]
        if family not in FAMILIES:
            raise ValueError(f"runs line {line_num}: unknown family {family!r}")
        values: dict[str, object] = {}
        for token in tokens[1:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(
                    f"runs line {line_num}: expected key=value, got {token!r}"
                )
            if key in values:
                raise ValueError(f"runs line {line_num}: repeated key {key!r}")
            if key in SIZE_PARAMETERS or key == "seed":
                try:
                    values[key] = int(value)
                except ValueError:
                    raise ValueError(
                        f"runs line {line_num}: {key} must be an integer"
                    ) from None
            elif key == "with_replacement":
                if value not in ("true", "false"):
                    raise ValueError(
                        f"runs line {line_num}: with_replacement must be true/false"
                    )
                values[key] = value == "true"
            else:
                raise ValueError(f"runs line {line_num}: unknown key {key!r}")
        seed = values.pop("seed", default_seed)
        try:
            specs.append(SampleSpec(family, seed=seed, **values))  # type: ignore[arg-type]
        except ValueError as exc:
            raise ValueError(f"runs line {line_num}: {exc}") from None
    if not specs:
        raise ValueError("runs file contains no runs")
    return specs


def cmd_synth(args) -> None:
    try:
        spec = load_histogram_spec(args.histogram)
    except FileNotFoundError:
        raise UsageError(f"histogram spec not found: {args.histogram}") from None
    dataset = synthesize(spec, seed=args.seed, arrangement=args.arrangement)
    _write_text(args.out, dataset_to_csv(dataset))
    print(
        f"population={dataset.population} classes={spec.class_count} "
        f"seed={args.seed} arrangement={args.arrangement}",
        file=sys.stderr,
    )


def cmd_analyze(args) -> None:
    decimals = _decimals(args)
    _, hist = _load_input(args)
    report = identity_report(hist)
    _write_text(args.out, render_table(report, format=args.format, decimals=decimals))


def cmd_sample(args) -> None:
    decimals = _decimals(args)
    try:
        spec = SampleSpec(
            args.family, n=args.n, interval=args.interval, k=args.k,
            with_replacement=args.with_replacement, seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dataset, hist = _load_input(args)
    result = draw(dataset, spec)
    _write_text(args.out, render_sample_csv(result))
    report = class_report(hist, result)
    rendered = render_table(report, format=args.format, decimals=decimals)
    if args.report is not None:
        _write_text(args.report, rendered)
    elif args.out != "-":
        sys.stdout.write(rendered)


def cmd_compare(args) -> None:
    decimals = _decimals(args)
    try:
        data = Path(args.runs).read_bytes()
    except FileNotFoundError:
        raise UsageError(f"runs file not found: {args.runs}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise UsageError(f"runs {_undecodable(data)}") from None
    try:
        specs = parse_run_matrix(text, default_seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    dataset, hist = _load_input(args)
    reports = [class_report(hist, draw(dataset, spec)) for spec in specs]
    matrix = ComparisonMatrix.from_reports(reports)
    _write_text(args.out, render_table(matrix, format=args.format, decimals=decimals))


def cmd_oracle(args) -> None:
    try:
        n_values = [int(part) for part in args.n.split(",") if part.strip()]
    except ValueError:
        raise UsageError(
            f"--n must be a comma-separated list of integers: {args.n!r}"
        ) from None
    if not n_values or any(n < 1 for n in n_values):
        raise UsageError("--n values must be >= 1")
    if max(n_values) >= SIZE_LIMIT:
        raise UsageError("--n values must be < 2**63")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise UsageError("--n values must be strictly increasing")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.trials >= SIZE_LIMIT:
        raise UsageError("--trials must be < 2**63")
    dataset, hist = _load_input(args)
    if not args.with_replacement and max(n_values) > dataset.population:
        raise UsageError(
            f"--n values must not exceed the population "
            f"({dataset.population}) without replacement"
        )
    series = []
    expected = expected_missing_series(hist, n_values, args.with_replacement)
    for index, (n, value) in enumerate(expected):
        counts = mc_missing_class_counts(
            hist,
            n,
            trials=args.trials,
            seed=kernels.derive_seed(args.seed, index),
            with_replacement=args.with_replacement,
        )
        observed = counts[0] if args.trials == 1 else sum(counts) / len(counts)
        series.append((n, observed, value))
    _write_text(args.out, missing_series_export(series))


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="dataset file (csv or ndjson)")
    parser.add_argument(
        "--input-format",
        choices=("csv", "ndjson"),
        default=None,
        help="override the format inferred from the file extension",
    )
    parser.add_argument(
        "--label-column",
        default=DEFAULT_LABEL_COLUMN,
        help=f"column holding the protocol label (default {DEFAULT_LABEL_COLUMN})",
    )


def _add_render_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("markdown", "csv", "json"),
        default="markdown",
        help="report rendering (default markdown)",
    )
    parser.add_argument(
        "--decimals", type=int, default=3, help="display decimals (default 3)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="pktsample",
        description="Deterministic sampling and imbalance analysis for "
        "protocol-labeled packet traces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"pktsample {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a dataset from a histogram spec")
    synth.add_argument("--histogram", required=True, help="histogram spec file")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument(
        "--arrangement", choices=("shuffled", "grouped"), default="shuffled"
    )
    synth.add_argument("--out", default="-", help="output CSV path (default stdout)")
    synth.set_defaults(func=cmd_synth)

    analyze = sub.add_parser("analyze", help="per-class report of a dataset")
    _add_input_args(analyze)
    _add_render_args(analyze)
    analyze.add_argument("--out", default="-")
    analyze.set_defaults(func=cmd_analyze)

    sample = sub.add_parser("sample", help="draw one sample and report on it")
    _add_input_args(sample)
    sample.add_argument("--family", required=True, choices=FAMILIES)
    sample.add_argument("--n", type=int, default=None)
    sample.add_argument("--interval", type=int, default=None)
    sample.add_argument("--k", type=int, default=None)
    sample.add_argument("--with-replacement", action="store_true")
    sample.add_argument("--seed", type=int, default=0)
    _add_render_args(sample)
    sample.add_argument("--out", default="-", help="sample CSV path (default stdout)")
    sample.add_argument(
        "--report",
        default=None,
        help="report path (default: stdout when --out is a file)",
    )
    sample.set_defaults(func=cmd_sample)

    compare = sub.add_parser("compare", help="run a matrix of samplers side by side")
    _add_input_args(compare)
    compare.add_argument("--runs", required=True, help="run matrix file")
    compare.add_argument(
        "--seed", type=int, default=0, help="seed for runs without an explicit one"
    )
    _add_render_args(compare)
    compare.add_argument("--out", default="-")
    compare.set_defaults(func=cmd_compare)

    oracle = sub.add_parser(
        "oracle", help="observed vs expected missing classes for random sampling"
    )
    _add_input_args(oracle)
    oracle.add_argument(
        "--n", required=True, help="comma-separated sample sizes, e.g. 500,1000"
    )
    oracle.add_argument("--with-replacement", action="store_true")
    oracle.add_argument(
        "--trials",
        type=int,
        default=1,
        help="observed runs per point; >1 reports the mean (default 1)",
    )
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--out", default="-")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        _error(str(exc))
        return 2
    except (PktSampleError, OSError) as exc:
        _error(str(exc))
        return 1
    except MemoryError:
        _error("out of memory")
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
