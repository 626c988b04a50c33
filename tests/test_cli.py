"""CLI tests: subcommands, exit codes, reproducibility, input immutability."""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pktsample.cli import main, parse_run_matrix
from pktsample.dataset import parse_histogram_spec
from pktsample.samplers import FAMILIES, SampleSpec

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def hist_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("spec") / "pu_tds.hist"
    text = resources.files("pktsample").joinpath("data/pu_tds.hist").read_text("utf-8")
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pu_csv(tmp_path_factory, hist_path) -> Path:
    """The reference dataset file, written once via the CLI itself."""
    out = tmp_path_factory.mktemp("data") / "pu.csv"
    code = main(
        ["synth", "--histogram", str(hist_path), "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    return out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- synth -------------------------------------------------------------------

def test_synth_writes_30000_rows_and_prints_summary(pu_csv, capsys):
    lines = pu_csv.read_text().strip().split("\n")
    assert len(lines) == 30001
    assert lines[0] == "No.,Protocol"


def test_synth_summary_line(hist_path, tmp_path, capsys):
    out = tmp_path / "ds.csv"
    assert main(["synth", "--histogram", str(hist_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "population=30000 classes=25 seed=0 arrangement=shuffled" in err


def test_synth_matches_committed_checksum(pu_csv):
    expected = (GOLDEN / "pu_synth_seed0.sha256").read_text().strip()
    assert sha256(pu_csv) == expected


def test_synth_single_row(tmp_path):
    spec = tmp_path / "one.hist"
    spec.write_text("A,1\n", encoding="utf-8")
    out = tmp_path / "one.csv"
    assert main(["synth", "--histogram", str(spec), "--out", str(out)]) == 0
    assert out.read_text() == "No.,Protocol\n1,A\n"


def test_synth_is_byte_identical_for_equal_seed(hist_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert (
            main(
                ["synth", "--histogram", str(hist_path), "--seed", "7",
                 "--out", str(out)]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert (
        main(["synth", "--histogram", str(hist_path), "--seed", "8", "--out", str(c)])
        == 0
    )
    assert a.read_bytes() != c.read_bytes()


def assert_usage_error(argv: list[str], message: str, capsys) -> None:
    """``main(argv)`` exits 2 with nothing on stdout and one error line."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pktsample: error: {message}\n"


def test_synth_bad_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.hist"
    bad.write_text("TCP,zero\n", encoding="utf-8")
    assert_usage_error(["synth", "--histogram", str(bad), "--out", "-"],
                       "line 1: bad count 'zero'", capsys)
    missing = tmp_path / "nope.hist"
    assert_usage_error(["synth", "--histogram", str(missing)],
                       f"histogram spec not found: {missing}", capsys)


def test_spec_and_runs_files_skip_byte_order_mark(tmp_path, capsys):
    """A histogram spec or a runs file saved with a BOM reads as the same
    file without one: equal synth bytes and an equal comparison."""
    outputs = []
    for bom in (b"", codecs.BOM_UTF8):
        spec = tmp_path / "spec.hist"
        spec.write_bytes(bom + b"TCP,3\nARP,2\n")
        out = tmp_path / f"synth{len(bom)}.csv"
        assert main(["synth", "--histogram", str(spec), "--out", str(out)]) == 0
        runs = tmp_path / "runs.txt"
        runs.write_bytes(bom + b"random n=2\n")
        assert main(["compare", "--input", str(out), "--runs", str(runs)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert codecs.BOM_UTF8 not in outputs[1][0]


@pytest.mark.parametrize(
    "data,message",
    [
        (b"TCP,3\nA\xff,2\n", "line 2: input is not valid UTF-8"),
        (b"TCP,%d\n" % 2**63, "line 1: count must be < 2**63"),
        (b"TCP,99999999999999999999\n", "line 1: count must be < 2**63"),
        (b"TCP,%d\n# x\nARP,%d\n" % (2**62, 2**62), "line 3: counts must total < 2**63"),
    ],
)
def test_synth_bad_spec_is_one_error_line(data, message, tmp_path, capsys):
    spec = tmp_path / "bad.hist"
    spec.write_bytes(data)
    assert main(["synth", "--histogram", str(spec), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pktsample: error: {message}\n"


def test_spec_total_below_2_63_parses():
    spec = parse_histogram_spec(f"TCP,{2**62}\nARP,{2**62 - 1}\n")
    assert spec.total == 2**63 - 1


# --- analyze -----------------------------------------------------------------

def test_analyze_identity_report(pu_csv, capsys):
    assert main(["analyze", "--input", str(pu_csv)]) == 0
    out = capsys.readouterr().out
    assert "| TCP | 11735 | 11735 | 39.117 | 0.39117 |" in out
    assert "- imbalance ratio: 11735.000" in out
    assert "- missing classes (0): none" in out


def test_analyze_single_class_file(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("Protocol\nTCP\nTCP\n", encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "| TCP | 2 | 2 | 100.000 | 1.00000 |" in out


def test_analyze_json_validates(pu_csv, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from pktsample.report import report_schema

    assert main(["analyze", "--input", str(pu_csv), "--format", "json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    jsonschema.validate(envelope, report_schema())
    assert envelope["source"]["population"] == 30000


def test_analyze_missing_file_exits_1(capsys):
    assert main(["analyze", "--input", "/nonexistent/x.csv"]) == 1


def test_analyze_bad_data_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("Protocol\nTCP\n   \n", encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 1
    assert "blank label" in capsys.readouterr().err


def test_analyze_invalid_utf8_exits_1_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"Protocol\nTCP\nA\xe9\n")
    assert main(["analyze", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pktsample: error: line 3: input is not valid UTF-8\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--decimals", "-1"],
        ["sample", "--family", "systematic", "--interval", "2", "--decimals", "-1"],
        ["compare", "--runs", "RUNS", "--decimals", "-1"],
        ["oracle", "--n", "5", "--trials", "0"],
        ["oracle", "--n", "5", "--trials", "-3"],
        ["oracle", "--n", "abc"],
        ["oracle", "--n", "0"],
        ["oracle", "--n", "40000"],  # above the population
        ["oracle", "--n", "500,400"],
    ],
)
def test_out_of_range_flags_exit_2(argv, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\nTCP\nUDP\n", encoding="utf-8")
    runs = tmp_path / "runs.txt"
    runs.write_text("systematic interval=2\n", encoding="utf-8")
    argv = [str(runs) if arg == "RUNS" else arg for arg in argv]
    assert main(argv[:1] + ["--input", str(data)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pktsample: error: ")
    assert captured.err.count("\n") == 1


SMALL_INPUTS = {
    "small.csv": 'No.,Protocol,Info\n1,TCP,"a, b"\n2,ARP,x\n3,TCP,y\n4,UDP,z\n',
    "small.ndjson": (
        '{"No.": 1, "Protocol": "TCP"}\n{"No.": 2, "Protocol": "ARP"}\n'
        '{"No.": 3, "Protocol": "TCP"}\n{"No.": 4, "Protocol": "UDP", "x": [1]}\n'
    ),
}


def _run_every_command(name: str, tmp_path: Path) -> None:
    """analyze, sample (every family), compare and oracle on a small input."""
    data = tmp_path / name
    data.write_text(SMALL_INPUTS[name], encoding="utf-8")
    runs = tmp_path / "runs.txt"
    runs.write_text(
        "random n=2\nrandom n=9 with_replacement=true\nsystematic interval=2\n"
        "bycount n=3\nstratified interval=2\nunderover k=2\n",
        encoding="utf-8",
    )
    common = ["--input", str(data), "--out", str(tmp_path / "out")]
    assert main(["analyze", *common]) == 0
    for flags in (["random", "--n", "2"], ["systematic", "--interval", "2"],
                  ["bycount", "--n", "3"], ["stratified", "--interval", "2"],
                  ["underover", "--k", "2"]):
        assert main(["sample", *common, "--family", *flags]) == 0
    assert main(["compare", *common, "--runs", str(runs)]) == 0
    assert main(["oracle", *common, "--n", "1,3", "--trials", "2"]) == 0


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
def test_commands_build_no_record_objects(name, tmp_path, monkeypatch, capsys):
    """CLI commands work on the label column alone: constructing a
    PacketRecord anywhere on their path fails the command."""
    import pktsample.dataset

    def no_records(*args, **kwargs):
        raise AssertionError("a CLI path built a PacketRecord")

    monkeypatch.setattr(pktsample.dataset, "PacketRecord", no_records)
    _run_every_command(name, tmp_path)


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
def test_commands_parse_no_attributes(name, tmp_path, monkeypatch, capsys):
    """CLI commands never parse a record's attributes: the attribute
    passes fail the command if called."""
    from pktsample.dataset import _SourceRows

    def no_attributes(*args, **kwargs):
        raise AssertionError("a CLI path parsed record attributes")

    monkeypatch.setattr(_SourceRows, "rows", no_attributes)
    monkeypatch.setattr(_SourceRows, "csv_columns", no_attributes)
    _run_every_command(name, tmp_path)


@pytest.mark.parametrize("name", sorted(SMALL_INPUTS))
def test_commands_build_no_sampled_records(name, tmp_path, monkeypatch, capsys):
    """CLI commands read samples as position and code columns:
    constructing a SampledRecord anywhere on their path fails the
    command."""
    import pktsample.samplers

    def no_entries(*args, **kwargs):
        raise AssertionError("a CLI path built a SampledRecord")

    monkeypatch.setattr(pktsample.samplers, "SampledRecord", no_entries)
    _run_every_command(name, tmp_path)


HUGE = str(2**63)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--n", HUGE, "--with-replacement"], "--n values must be < 2**63"),
        (["oracle", "--n", "5", "--trials", HUGE], "--trials must be < 2**63"),
        (["sample", "--family", "random", "--n", HUGE, "--with-replacement"],
         "random sampling needs n < 2**63"),
        (["sample", "--family", "underover", "--k", HUGE],
         "underover sampling needs k < 2**63"),
        (["sample", "--family", "systematic", "--interval", HUGE],
         "systematic sampling needs interval < 2**63"),
        (["compare", "--runs", "RUNS"], "runs line 1: bycount sampling needs n < 2**63"),
    ],
)
def test_sizes_at_or_above_2_63_exit_2(argv, message, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\n", encoding="utf-8")
    runs = tmp_path / "runs.txt"
    runs.write_text(f"bycount n={HUGE}\n", encoding="utf-8")
    argv = [str(runs) if arg == "RUNS" else arg for arg in argv]
    assert main(argv[:1] + ["--input", str(data)] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pktsample: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["sample", "--family", "stratified", "--interval", "2", "--out", "OUT"],
        ["compare", "--runs", "RUNS"],
    ],
)
def test_wide_decimals(argv, tmp_path, capsys):
    """--decimals works up to 50 (here 30, past the 28 digits of the
    default decimal context) and is a usage error above."""
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\n", encoding="utf-8")
    runs = tmp_path / "runs.txt"
    runs.write_text("systematic interval=2\n", encoding="utf-8")
    paths = {"RUNS": str(runs), "OUT": str(tmp_path / "sample.csv")}
    argv = [paths.get(arg, arg) for arg in argv]
    argv = argv[:1] + ["--input", str(data)] + argv[1:]
    assert main(argv + ["--decimals", "30"]) == 0
    captured = capsys.readouterr()
    assert re.search(r"\| \d+\.\d{30} \|", captured.out)
    assert captured.err == ""
    assert main(argv + ["--decimals", "51"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "pktsample: error: --decimals must be <= 50\n"


# --- sample ------------------------------------------------------------------

def test_sample_stratified_row_count(pu_csv, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert (
        main(
            ["sample", "--input", str(pu_csv), "--family", "stratified",
             "--interval", "5", "--out", str(out)]
        )
        == 0
    )
    assert len(out.read_text().strip().split("\n")) == 6013
    report = capsys.readouterr().out
    assert "- run: stratified I=5" in report
    assert "- sampled: 6012 of 30000" in report


def test_sample_systematic_identity(tmp_path, capsys):
    path = tmp_path / "five.csv"
    path.write_text("Protocol\nA\nB\nA\nB\nA\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert (
        main(
            ["sample", "--input", str(path), "--family", "systematic",
             "--interval", "1", "--out", str(out)]
        )
        == 0
    )
    rows = out.read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4", "5"]


def test_sample_underover_balanced(pu_csv, tmp_path, capsys):
    out = tmp_path / "u.csv"
    assert (
        main(
            ["sample", "--input", str(pu_csv), "--family", "underover",
             "--k", "100", "--out", str(out)]
        )
        == 0
    )
    assert len(out.read_text().strip().split("\n")) == 2501
    report = capsys.readouterr().out
    assert "- imbalance ratio: 1.000" in report


def test_sample_random_seed_reproducible(pu_csv, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert (
            main(
                ["sample", "--input", str(pu_csv), "--family", "random",
                 "--n", "500", "--seed", "11", "--out", str(out)]
            )
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_sample_golden_random_n20(pu_csv, tmp_path):
    out = tmp_path / "g.csv"
    assert (
        main(
            ["sample", "--input", str(pu_csv), "--family", "random",
             "--n", "20", "--seed", "0", "--out", str(out)]
        )
        == 0
    )
    assert out.read_text() == (GOLDEN / "random_n20_seed0.csv").read_text()


def test_sample_report_to_file(pu_csv, tmp_path, capsys):
    out, rep = tmp_path / "s.csv", tmp_path / "r.md"
    assert (
        main(
            ["sample", "--input", str(pu_csv), "--family", "stratified",
             "--interval", "10", "--out", str(out), "--report", str(rep)]
        )
        == 0
    )
    assert capsys.readouterr().out == ""
    assert "- sampled: 3015 of 30000" in rep.read_text()


def test_sample_missing_param_exits_2(pu_csv, capsys):
    assert main(["sample", "--input", str(pu_csv), "--family", "random"]) == 2
    assert (
        main(
            ["sample", "--input", str(pu_csv), "--family", "stratified",
             "--n", "5"]
        )
        == 2
    )
    assert (
        main(
            ["sample", "--input", str(pu_csv), "--family", "systematic",
             "--interval", "5", "--with-replacement"]
        )
        == 2
    )


def test_sample_does_not_mutate_input(pu_csv, tmp_path):
    before = sha256(pu_csv)
    main(
        ["sample", "--input", str(pu_csv), "--family", "random", "--n", "9",
         "--out", str(tmp_path / "x.csv")]
    )
    assert sha256(pu_csv) == before


# --- compare -----------------------------------------------------------------

def test_compare_stratified_matrix_totals(pu_csv, tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    runs.write_text(
        "\n".join(f"stratified interval={i}" for i in range(5, 11)) + "\n",
        encoding="utf-8",
    )
    assert main(["compare", "--input", str(pu_csv), "--runs", str(runs)]) == 0
    out = capsys.readouterr().out
    for total in (6012, 5010, 4297, 3763, 3347, 3015):
        assert f"n={total}" in out
    assert out.count("stratified I=") == 6


def test_compare_single_run(pu_csv, tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    runs.write_text("underover k=100\n", encoding="utf-8")
    assert main(["compare", "--input", str(pu_csv), "--runs", str(runs)]) == 0
    out = capsys.readouterr().out
    assert "underover k=100 seed=0, n=2500" in out


def test_compare_bad_runs_file_exits_2(pu_csv, tmp_path, capsys):
    runs = tmp_path / "runs.txt"
    argv = ["compare", "--input", str(pu_csv), "--runs", str(runs)]
    for data, message in [
        (b"warpdrive x=1\n", "runs line 1: unknown family 'warpdrive'"),
        (b"", "runs file contains no runs"),
        (b"random n=5\nrandom n=\xff\n", "runs line 2: input is not valid UTF-8"),
    ]:
        runs.write_bytes(data)
        assert_usage_error(argv, message, capsys)
    runs.unlink()
    assert_usage_error(argv, f"runs file not found: {runs}", capsys)


def test_parse_run_matrix():
    specs = parse_run_matrix(
        "# table\nrandom n=500 seed=3\nstratified interval=5\n"
        "underover k=10\nbycount n=100\nrandom n=5 with_replacement=true\n",
        default_seed=9,
    )
    assert specs[0] == SampleSpec.random(500, seed=3)
    assert specs[1] == SampleSpec.stratified(5)
    assert specs[2] == SampleSpec.under_over(10, seed=9)
    assert specs[3] == SampleSpec.by_count(100)
    assert specs[4].with_replacement
    with pytest.raises(ValueError):
        parse_run_matrix("random n=oops\n", 0)
    with pytest.raises(ValueError):
        parse_run_matrix("random n=5 bogus=1\n", 0)
    with pytest.raises(ValueError):
        parse_run_matrix("random\n", 0)  # n missing


@pytest.mark.parametrize(
    "line,flags",
    [
        ("random n=7 seed=3", ["random", "--n", "7", "--seed", "3"]),
        ("random n=7 with_replacement=true",
         ["random", "--n", "7", "--with-replacement"]),
        ("systematic interval=3", ["systematic", "--interval", "3"]),
        ("bycount n=4", ["bycount", "--n", "4"]),
        ("stratified interval=2", ["stratified", "--interval", "2"]),
        ("underover k=2", ["underover", "--k", "2"]),
    ],
)
def test_run_matrix_and_sample_flags_build_equal_specs(
    line, flags, tmp_path, monkeypatch
):
    import pktsample.cli

    drawn = []
    real_draw = pktsample.cli.draw

    def recording_draw(dataset, spec):
        drawn.append(spec)
        return real_draw(dataset, spec)

    monkeypatch.setattr(pktsample.cli, "draw", recording_draw)
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\nTCP\nUDP\nARP\n", encoding="utf-8")
    argv = ["sample", "--input", str(data), "--out", str(tmp_path / "s.csv"),
            "--seed", "2", "--family", *flags]
    assert main(argv) == 0
    assert drawn == parse_run_matrix(line + "\n", default_seed=2)


@pytest.mark.parametrize(
    "flags",
    [
        ["systematic", "--interval", "100", "--n", "5", "--k", "3"],
        ["random", "--n", "5", "--interval", "2"],
        ["bycount", "--n", "2", "--k", "1"],
        ["stratified", "--interval", "2", "--n", "3"],
        ["underover", "--k", "2", "--interval", "3"],
    ],
)
def test_sample_rejects_parameter_the_family_does_not_take(flags, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\n", encoding="utf-8")
    assert main(["sample", "--input", str(data), "--family", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("pktsample: error: ")
    assert captured.err.count("\n") == 1


def test_run_matrix_rejects_parameter_the_family_does_not_take(tmp_path, capsys):
    with pytest.raises(ValueError) as excinfo:
        parse_run_matrix("random n=5\nsystematic interval=3 n=5 k=7\n", 0)
    assert str(excinfo.value) == (
        "runs line 2: systematic sampling takes interval, not n"
    )
    with pytest.raises(ValueError, match="^runs line 1: underover sampling takes k"):
        parse_run_matrix("underover k=3 n=5\n", 0)
    specs = parse_run_matrix("systematic interval=3 seed=4\nbycount n=2 seed=1\n", 7)
    assert specs == [SampleSpec.systematic(3), SampleSpec.by_count(2)]
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\n", encoding="utf-8")
    runs = tmp_path / "runs.txt"
    runs.write_text("stratified interval=2 k=3\n", encoding="utf-8")
    assert main(["compare", "--input", str(data), "--runs", str(runs)]) == 2
    assert capsys.readouterr().err == (
        "pktsample: error: runs line 1: stratified sampling takes interval, not k\n"
    )


@pytest.mark.parametrize(
    "line, key",
    [
        ("random n=5 n=6", "n"),
        ("random n=5 with_replacement=true with_replacement=false", "with_replacement"),
        ("underover k=3 seed=1 seed=2", "seed"),
    ],
)
def test_compare_rejects_repeated_run_key(tmp_path, capsys, line, key):
    data = tmp_path / "d.csv"
    data.write_text("Protocol\nTCP\nARP\nTCP\n", encoding="utf-8")
    runs = tmp_path / "runs.txt"
    runs.write_text(f"stratified interval=2\n{line}\n", encoding="utf-8")
    assert main(["compare", "--input", str(data), "--runs", str(runs)]) == 2
    assert capsys.readouterr().err == (
        f"pktsample: error: runs line 2: repeated key {key!r}\n"
    )


def test_compare_random_shares_within_binomial_bands(pu_csv, tmp_path, capsys):
    """Fixed-seed random columns stay inside 99% binomial bands around
    the source proportions (hypergeometric variance is smaller, so the
    band is conservative)."""
    runs = tmp_path / "runs.txt"
    runs.write_text(
        "\n".join(
            f"random n={n}" for n in (500, 1000, 2000, 3000, 5000, 10000, 15000, 20000)
        )
        + "\n",
        encoding="utf-8",
    )
    assert (
        main(
            ["compare", "--input", str(pu_csv), "--runs", str(runs),
             "--seed", "0", "--format", "json"]
        )
        == 0
    )
    envelope = json.loads(capsys.readouterr().out)
    source = {c["label"]: c["count"] for c in envelope["source"]["classes"]}
    population = envelope["source"]["population"]
    z = 2.576
    for column, cells in zip(envelope["columns"], envelope["cells"]):
        n = column["sampled_total"]
        for label, percent in zip(envelope["rows"], cells):
            p = source[label] / population
            share = percent / 100.0
            band = z * (p * (1 - p) / n) ** 0.5 + 1.5 / n
            assert abs(share - p) <= band, (label, n, share, p)


# --- oracle --------------------------------------------------------------------

def test_oracle_golden_series(pu_csv, tmp_path):
    out = tmp_path / "series.csv"
    assert (
        main(
            ["oracle", "--input", str(pu_csv),
             "--n", "500,1000,2000,3000,5000,10000,15000,20000",
             "--seed", "0", "--out", str(out)]
        )
        == 0
    )
    assert out.read_text() == (GOLDEN / "oracle_pu_seed0.csv").read_text()


def test_oracle_expected_column_strictly_decreasing(pu_csv, capsys):
    assert (
        main(
            ["oracle", "--input", str(pu_csv), "--n", "500,1000,5000,20000"]
        )
        == 0
    )
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    expected = [float(row.split(",")[2]) for row in rows]
    assert all(a > b for a, b in zip(expected, expected[1:]))
    assert 8.0 <= expected[0] <= 9.0


def test_oracle_full_population_expects_zero(pu_csv, capsys):
    assert main(["oracle", "--input", str(pu_csv), "--n", "30000"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert float(row.split(",")[2]) == 0.0


def test_oracle_mean_over_trials(pu_csv, capsys):
    assert (
        main(
            ["oracle", "--input", str(pu_csv), "--n", "500", "--trials", "64"]
        )
        == 0
    )
    row = capsys.readouterr().out.strip().split("\n")[1]
    observed = float(row.split(",")[1])
    assert 7.0 < observed < 10.0


# --- malformed inputs and flags ------------------------------------------------

LONG_FIELD = "x" * 131073  # one past the csv module's default field limit
DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("long.csv", f"No.,Protocol,Info\n1,TCP,a\n2,TCP,{LONG_FIELD}\n",
         "row 2 (line 3): field larger than field limit (131072)"),
        ("long_header.csv", f"Protocol,{LONG_FIELD}\nTCP,a\n",
         "header (line 1): field larger than field limit (131072)"),
        ("deep.ndjson", '{"Protocol": "TCP"}\n\n{"Protocol": ' + DEEP_JSON + "}\n",
         "line 3: invalid JSON (nested too deeply)"),
        ("digits.ndjson", '{"Protocol": "TCP", "n": ' + "9" * 5000 + "}\n",
         "line 1: invalid JSON (number has too many digits)"),
        ("surrogate.ndjson", '{"Protocol": "TCP"}\n{"Protocol": "A\\ud800"}\n',
         "line 2: label is not valid Unicode (lone surrogate)"),
    ],
)
def test_input_limits_exit_1_with_one_line(name, text, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"pktsample: error: {message}\n"


SAFE_FIELD = st.text(alphabet='abTCP é,"', max_size=5)
GOOD_LABEL = st.sampled_from(["TCP", "ARP", "UDP", " DNS "])


@st.composite
def bad_csv(draw):
    """A CSV input with at least one defect in it."""
    defect = draw(st.sampled_from(
        ["ragged", "blank label", "no label column", "long field", "empty"]
    ))
    header = ["No.", "Protocol", "Info"]
    rows = [[str(i), draw(GOOD_LABEL), draw(SAFE_FIELD)]
            for i in range(draw(st.integers(1, 4)))]
    bad = draw(st.integers(0, len(rows) - 1))
    if defect == "ragged":
        width = draw(st.sampled_from([1, 2, 4, 5]))
        rows[bad] = (rows[bad] + [draw(SAFE_FIELD)] * 2)[:width]
    elif defect == "blank label":
        rows[bad][1] = draw(st.sampled_from(["", " ", "\t"]))
    elif defect == "no label column":
        header[1] = "proto"
    elif defect == "long field":
        rows[bad][2] = LONG_FIELD
    else:
        rows = []
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return "in.csv", out.getvalue()


@st.composite
def bad_ndjson(draw):
    """An NDJSON input with at least one defect in it."""
    lines = [json.dumps({"No.": i, "Protocol": draw(GOOD_LABEL)})
             for i in range(draw(st.integers(0, 3)))]
    defect = draw(st.sampled_from([
        "not-json", "{", '{"Protocol": }', "[1]", "3", '"TCP"', "null",
        '{"proto": "TCP"}', '{"Protocol": "  "}', '{"Protocol": ' + DEEP_JSON + "}",
        '{"Protocol": 1' + "0" * 5000 + "}", '{"Protocol": "\\udc80"}',
    ]))
    lines.insert(draw(st.integers(0, len(lines))), defect)
    return "in.ndjson", "\n".join(lines) + "\n"


@st.composite
def bad_input(draw):
    """Bytes of a defective input, with line endings, a BOM and bytes that
    are not UTF-8 mixed in."""
    name, text = draw(bad_csv() | bad_ndjson())
    text = text.replace("\n", draw(st.sampled_from(["\n", "\r\n", "\r"])))
    data = text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    return name, data


SIZES = st.integers(-3, 40).map(str)


@st.composite
def command_flags(draw):
    """A command and flags, some of them out of range or malformed."""
    command = draw(st.sampled_from(["analyze", "sample", "compare", "oracle"]))
    flags = []
    if command == "sample":
        flags += ["--family", draw(st.sampled_from([*FAMILIES, "bogus"]))]
        for flag in draw(st.lists(st.sampled_from(["--n", "--interval", "--k"]),
                                  max_size=2, unique=True)):
            flags += [flag, draw(SIZES)]
        if draw(st.booleans()):
            flags.append("--with-replacement")
    elif command == "compare":
        flags += ["--runs", draw(st.sampled_from([
            "random n=5\nstratified interval=2\n", "random n=x\n", "bogus n=1\n",
            "random n=1 n=2\n", "# nothing\n", "systematic k=3\n",
        ]))]
    elif command == "oracle":
        flags += ["--n", draw(st.sampled_from(["1,3", "3,1", "0", "x", "", "2"]))]
        flags += ["--trials", draw(st.integers(-2, 3).map(str))]
        if draw(st.booleans()):
            flags.append("--with-replacement")
    if command != "oracle" and draw(st.booleans()):
        flags += ["--decimals", draw(st.integers(-2, 6).map(str))]
    if command != "analyze" and draw(st.booleans()):
        flags += ["--seed", draw(st.integers(-(2**70), 2**70).map(str))]
    return command, flags


@settings(max_examples=80, deadline=None)
@given(source=bad_input(), command=command_flags())
def test_bad_inputs_and_flags_fail_with_one_error_line(source, command):
    """No defective input, with any flags, ends in a traceback: the exit
    code is 1 or 2 and stderr holds exactly one ``pktsample: error:`` line
    (after argparse's usage lines for a usage error)."""
    (name, data), (command, flags) = source, command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        if "--runs" in flags:
            at = flags.index("--runs") + 1
            runs = Path(tmp) / "runs.txt"
            runs.write_text(flags[at], encoding="utf-8")
            flags[at] = str(runs)
        argv = [command, "--input", str(path), *flags, "--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    stderr = err.getvalue()
    errors = [line for line in stderr.splitlines() if line.startswith("pktsample: error:")]
    assert code in (1, 2)
    assert len(errors) == 1 and stderr.endswith(errors[0] + "\n")
    assert "Traceback" not in stderr
    assert out.getvalue() == ""


# --- process-level checks ---------------------------------------------------------

def test_usage_error_exit_code_is_2():
    proc = subprocess.run(
        [sys.executable, "-m", "pktsample.cli", "bogus-command"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_module_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "pktsample.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("pktsample ")
