"""Seeded inputs and job lists for the three benchmark workloads.

Stdlib only.  Every input is a pure function of the workload seed, so
equal seeds give byte-identical files.  A job is one ``pktsample``
command line (argv after the program name) plus the facts the checker
needs to judge its outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HIST_PATH = Path("src/pktsample/data/pu_tds.hist")
WORKLOADS = ("capture_300k", "oracle_mc", "synth_300k")
CAPTURE_SCALE = 10
ORACLE_N = (500, 1000, 2000, 3000, 5000, 10000, 15000, 20000)
ORACLE_TRIALS = 20
COMPARE_RUNS = (
    "stratified interval=5",
    "stratified interval=10",
    "random n=5000",
    "random n=5000 with_replacement=true",
    "underover k=100",
    "bycount n=4286",
    "systematic interval=7",
)


@dataclass
class Job:
    """One CLI invocation and what its outputs must satisfy."""

    name: str
    kind: str  # analyze | stratified | random | underover | compare | oracle | synth
    argv: list[str]
    outputs: list[Path]
    params: dict = field(default_factory=dict)


@dataclass
class Inputs:
    """Generated inputs of one workload run."""

    labels: list[str]  # label of each input record, by position - 1
    hist: list[tuple[str, int]]  # class histogram, first-appearance order
    files: dict[str, Path]
    jobs: list[Job]

    def digests(self) -> dict[str, str]:
        return {name: sha256_file(path) for name, path in self.files.items()}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_hist(path: Path) -> list[tuple[str, int]]:
    """``label,count`` lines; ``#`` comments and blank lines skipped."""
    entries = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            label, _, count = line.rpartition(",")
            entries.append((label.strip(), int(count)))
    return entries


def first_appearance_hist(labels: list[str]) -> list[tuple[str, int]]:
    counts: dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return list(counts.items())


def _capture_rows(labels: list[str], rng: random.Random):
    clock = 0.0
    for number, label in enumerate(labels, start=1):
        clock += rng.expovariate(2000.0)
        host = rng.randrange(1, 255)
        length = rng.randrange(42, 1515)
        yield {
            "No.": number,
            "Time": f"{clock:.6f}",
            "Source": f"10.0.{host % 16}.{host}",
            "Destination": f"192.168.{rng.randrange(256)}.{rng.randrange(1, 255)}",
            "Protocol": label,
            "Length": length,
            "Info": f"{label} frame {number}, len={length}",
        }


def write_capture(labels: list[str], seed: int, csv_path: Path, ndjson_path: Path):
    """The same records as a Wireshark-style 7-column CSV and as NDJSON."""
    rng = random.Random(f"capture-rows-{seed}")
    columns = ["No.", "Time", "Source", "Destination", "Protocol", "Length", "Info"]
    with open(csv_path, "w", encoding="utf-8", newline="") as csv_out, open(
        ndjson_path, "w", encoding="utf-8", newline=""
    ) as nd_out:
        writer = csv.writer(csv_out, lineterminator="\n")
        writer.writerow(columns)
        for row in _capture_rows(labels, rng):
            writer.writerow([row[c] for c in columns])
            nd_out.write(json.dumps(row, separators=(",", ":")) + "\n")


def _sample_job(name, kind, csv_path, out, flags, params) -> Job:
    report = out.with_suffix(".md")
    argv = ["sample", "--input", str(csv_path), *flags,
            "--out", str(out), "--report", str(report)]
    return Job(name, kind, argv, [out, report], params)


def capture(work: Path, seed: int, hist: list[tuple[str, int]], scale: int) -> Inputs:
    labels = [label for label, count in hist for _ in range(count * scale)]
    random.Random(f"capture-order-{seed}").shuffle(labels)
    csv_path, nd_path = work / "capture.csv", work / "capture.ndjson"
    write_capture(labels, seed, csv_path, nd_path)
    runs_path = work / "runs.txt"
    runs_path.write_text("\n".join(COMPARE_RUNS) + "\n", encoding="utf-8")
    jobs = [
        Job("analyze_csv", "analyze",
            ["analyze", "--input", str(csv_path), "--out", str(work / "analyze_csv.md")],
            [work / "analyze_csv.md"]),
        Job("analyze_ndjson", "analyze",
            ["analyze", "--input", str(nd_path), "--out", str(work / "analyze_nd.md")],
            [work / "analyze_nd.md"]),
        _sample_job("sample_stratified", "stratified", csv_path,
                    work / "stratified.csv", ["--family", "stratified", "--interval", "5"],
                    {"interval": 5}),
        _sample_job("sample_random", "random", csv_path, work / "random.csv",
                    ["--family", "random", "--n", "5000", "--seed", str(seed)],
                    {"n": 5000}),
        _sample_job("sample_underover", "underover", csv_path, work / "underover.csv",
                    ["--family", "underover", "--k", "100", "--seed", str(seed)],
                    {"k": 100}),
        Job("compare", "compare",
            ["compare", "--input", str(csv_path), "--runs", str(runs_path),
             "--seed", str(seed), "--out", str(work / "compare.md")],
            [work / "compare.md"],
            {"stratified": [line.startswith("stratified") for line in COMPARE_RUNS]}),
    ]
    files = {"capture.csv": csv_path, "capture.ndjson": nd_path, "runs.txt": runs_path}
    return Inputs(labels, first_appearance_hist(labels), files, jobs)


def oracle_mc(work: Path, seed: int, run_cli) -> Inputs:
    """Inputs come from ``pktsample synth`` itself; ``run_cli`` runs it."""
    csv_path = work / "pu.csv"
    run_cli(["synth", "--histogram", str(HIST_PATH), "--seed", str(seed),
             "--out", str(csv_path)])
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        column = next(rows).index("Protocol")
        labels = [row[column] for row in rows]
    n_list = ",".join(str(n) for n in ORACLE_N)
    jobs = []
    for name, extra in (("oracle", []), ("oracle_wr", ["--with-replacement"])):
        out = work / f"{name}.csv"
        argv = ["oracle", "--input", str(csv_path), "--n", n_list,
                "--trials", str(ORACLE_TRIALS), "--seed", str(seed), *extra,
                "--out", str(out)]
        jobs.append(Job(name, "oracle", argv, [out],
                        {"n": ORACLE_N, "with_replacement": bool(extra),
                         "trials": ORACLE_TRIALS}))
    return Inputs(labels, first_appearance_hist(labels), {"pu.csv": csv_path}, jobs)


def synth(work: Path, seed: int, hist: list[tuple[str, int]], scale: int) -> Inputs:
    hist_scaled = [(label, count * scale) for label, count in hist]
    hist_path = work / "pu_tds_scaled.hist"
    hist_path.write_text(
        "".join(f"{label},{count}\n" for label, count in hist_scaled), encoding="utf-8"
    )
    out = work / "synth.csv"
    job = Job("synth", "synth",
              ["synth", "--histogram", str(hist_path), "--seed", str(seed),
               "--out", str(out)],
              [out], {"hist": hist_scaled})
    return Inputs([], hist_scaled, {"pu_tds_scaled.hist": hist_path}, [job])


def make_inputs(workload: str, work: Path, seed: int, run_cli,
                scale: int = CAPTURE_SCALE) -> Inputs:
    """Inputs and jobs of ``workload``; ``scale`` multiplies the PU-TDS
    histogram for the capture and synth workloads (10 gives 300k records)."""
    hist = read_hist(HIST_PATH)
    if workload == "capture_300k":
        return capture(work, seed, hist, scale)
    if workload == "oracle_mc":
        return oracle_mc(work, seed, run_cli)
    return synth(work, seed, hist, scale)
