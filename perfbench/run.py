#!/usr/bin/env python3
"""pktsample benchmark: real CLI jobs, timed end to end, plus a traced run.

Usage, from the root of a pktsample checkout::

    python3 perfbench/run.py --workload capture_300k --seed 1 --seconds 30 --trace 0

It builds the package in place (once per source state), generates the
workload's inputs from ``--seed`` under ``.perfbench_work/``, and runs
the workload's job list as ``pktsample`` child processes, one at a time
(a closed loop with one client), pass after pass for ``--seconds``.
Every output is checked by ``checker.py``, which uses no pktsample code.

With ``--trace 0`` it reports the end-to-end metrics (``wall_s``,
``peak_rss_mb``, ``setup_s``); with ``--trace 1`` it runs one untraced
pass, then replays each job in-process under ``tracer.py`` and reports
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Full results,
with context, go to ``.perfbench_out/``; the traced run's spans go there
as JSONL.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import checker
from workloads import HIST_PATH, WORKLOADS, Inputs, Job, make_inputs

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
PROGRAM = [sys.executable, "-c", "from pktsample.cli import run; run()"]
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s
SETUP_SPAWNS = 15
KERNEL_CASE_REPEAT = 3
FAMILIES = ("stratified", "random", "random_wr", "underover", "bycount", "systematic")
# A fixed interpreter-bound loop.  Its time, measured next to every spawn,
# tracks how fast the machine runs Python right now; end-to-end times are
# reported at the speed where it takes REFERENCE_CALIBRATION_S.
CALIBRATION = compile(
    "d = {}\n"
    "n = 0\n"
    "for i in range(300000):\n"
    "    k = i * 2654435761 & 0xFFFFFFFF\n"
    "    d[k & 1023] = str(k)\n"
    "    n += len(d[k & 1023])\n",
    "<calibration>", "exec")
REFERENCE_CALIBRATION_S = 0.2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PKTSAMPLE_KERNELS", None)  # measure the backend picked by default
    return env


@dataclass
class Spawned:
    wall_s: float
    code: int
    maxrss_kb: int
    cpu_s: float


def calibrate() -> float:
    """Seconds the calibration loop takes, averaged over the usable CPUs.

    The benchmark process is pinned to each CPU in turn, because a job may
    land on any of them; children never inherit a pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        start = time.perf_counter()
        exec(CALIBRATION, {})
        return time.perf_counter() - start
    cpus = sorted(os.sched_getaffinity(0))
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            exec(CALIBRATION, {})
            total += time.perf_counter() - start
    finally:
        os.sched_setaffinity(0, cpus)
    return total / len(cpus)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns children one at a time and kills any that outlives the run."""

    def __init__(self, work: Path, deadline: float):
        self.env = child_env()
        self.work = work
        self.deadline = deadline

    def spawn(self, argv: list[str], stdout: str = os.devnull) -> Spawned:
        """Run ``argv`` under ``launch.py``, in a process group of its own."""
        with open(self.work / "stderr.txt", "wb") as stderr:
            proc = subprocess.Popen([sys.executable, str(LAUNCHER), stdout, *argv],
                                    env=self.env, stdout=subprocess.PIPE, stderr=stderr,
                                    start_new_session=True)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                     kill_group, (proc.pid,))
            killer.start()
            try:
                report, _ = proc.communicate()
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                killer.cancel()
        if proc.returncode != 0:
            return Spawned(0.0, proc.returncode, 0, 0.0)
        return Spawned(**json.loads(report))

    def stderr_tail(self) -> str:
        text = (self.work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return text.strip().splitlines()[-1] if text.strip() else ""

    def cli(self, argv: list[str]) -> Spawned:
        result = self.spawn(PROGRAM + argv)
        if result.code != 0:
            raise BenchError(f"pktsample {' '.join(argv)} exited {result.code}: "
                             f"{self.stderr_tail()}")
        return result


# --- build and context -------------------------------------------------------

def build() -> None:
    """``setup.py build_ext --inplace``, rerun only when build inputs change."""
    digest = hashlib.sha256()
    sources = [ROOT / "setup.py", ROOT / "pyproject.toml",
               *sorted((SRC / "pktsample" / "kernels").glob("*.py*"))]
    for path in sources:
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stamp = OUT / "build.stamp"
    if stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    with open(OUT / "build.log", "wb") as log:
        done = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                              cwd=ROOT, env=child_env(), stdout=log, stderr=log,
                              timeout=800)
    if done.returncode != 0:
        raise BenchError(f"build failed (exit {done.returncode}); see {OUT / 'build.log'}")
    stamp.write_text(digest.hexdigest())


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def context(runner: Runner) -> dict:
    probe = runner.work / "probe.json"
    code = ("import json, sys, pktsample, pktsample.kernels as k; "
            "json.dump({'file': pktsample.__file__, 'version': pktsample.__version__, "
            "'backend': k.backend_name(), 'available': k.available_backends()}, "
            "open(sys.argv[1], 'w'))")
    if runner.spawn([sys.executable, "-c", code, str(probe)]).code != 0:
        raise BenchError(f"cannot import pktsample from {SRC}: {runner.stderr_tail()}")
    package = json.loads(probe.read_text())
    if not Path(package["file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"pktsample imported from {package['file']}, not {SRC}")
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "pktsample_version": package["version"],
        "backend": package["backend"],
        "backends_available": package["available"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(os.getloadavg()),
    }


# --- end-to-end passes -------------------------------------------------------

@dataclass
class Pass:
    wall_s: float = 0.0
    peak_rss_kb: int = 0
    cpu_s: float = 0.0
    calibration_s: float = 0.0
    jobs: list[dict] = field(default_factory=list)


class Judge:
    """Checks every job execution; counts attempts and failures."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, list[str]] = {}
        self.first_texts: dict[str, list[str]] = {}

    def judge(self, job: Job, code: int, stderr: str, label: str) -> str | None:
        self.attempted += 1
        problem = None
        try:
            if code != 0:
                raise checker.CheckFailed(f"exit {code}: {stderr}")
            try:
                texts = [path.read_text(encoding="utf-8") for path in job.outputs]
            except (OSError, UnicodeDecodeError) as exc:
                raise checker.CheckFailed(f"unreadable output: {exc}") from None
            checker.check(job.kind, texts, job.params, self.inputs.labels, self.inputs.hist)
        except checker.CheckFailed as exc:
            problem = str(exc)
        else:
            digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
            if self.digests.setdefault(job.name, digests) != digests:
                problem = "output bytes differ from an earlier pass with the same seed"
            self.first_texts.setdefault(job.name, texts)
        if problem:
            self.failures.append(f"{label} {job.name}: {problem}")
        return problem

    def self_test(self) -> list[str]:
        """Corrupt each first valid output; name each corruption accepted."""
        accepted = []
        for job in self.inputs.jobs:
            if job.name in self.first_texts:
                for name in checker.accepted_corruptions(
                        job.kind, self.first_texts[job.name], job.params,
                        self.inputs.labels, self.inputs.hist):
                    accepted.append(f"{job.name}: {name}")
        return accepted


def run_pass(runner: Runner, judge: Judge, label: str) -> Pass:
    result = Pass()
    for job in judge.inputs.jobs:
        calibration = calibrate()
        spawned = runner.spawn(PROGRAM + job.argv)
        problem = judge.judge(job, spawned.code, runner.stderr_tail(), label)
        result.wall_s += spawned.wall_s
        result.peak_rss_kb = max(result.peak_rss_kb, spawned.maxrss_kb)
        result.cpu_s += spawned.cpu_s
        result.calibration_s += calibration
        result.jobs.append({"job": job.name, "wall_s": spawned.wall_s,
                            "maxrss_kb": spawned.maxrss_kb, "cpu_s": spawned.cpu_s,
                            "calibration_s": calibration, "ok": problem is None})
    return result


def setup_seconds(runner: Runner) -> tuple[list[float], list[float]]:
    """Wall times of ``pktsample --version`` after one warm-up spawn, and
    the calibrations measured before and after them."""
    runner.cli(["--version"])
    before = calibrate()
    walls = [runner.cli(["--version"]).wall_s for _ in range(SETUP_SPAWNS)]
    return walls, [before, calibrate()]


# --- traced run --------------------------------------------------------------

def replay(runner: Runner, judge: Judge, spans_path: Path) -> float:
    """Each job once under the tracer; returns the summed child wall time."""
    spans_path.write_text("")
    total = 0.0
    for job in judge.inputs.jobs:
        spawned = runner.spawn([sys.executable, str(TRACER), "--job", job.name,
                                "--spans", str(spans_path), "--", *job.argv])
        judge.judge(job, spawned.code, runner.stderr_tail(), "replay")
        total += spawned.wall_s
    return total


def kernel_cases(runner: Runner) -> dict:
    out = runner.work / "kernel_cases.json"
    spawned = runner.spawn([sys.executable, str(TRACER), "--kernel-cases",
                            str(KERNEL_CASE_REPEAT)], stdout=str(out))
    if spawned.code != 0:
        raise BenchError(f"kernel cases failed: {runner.stderr_tail()}")
    return json.loads(out.read_text())


def layer_metrics(spans: list[dict], e2e: Pass, replay_wall_s: float,
                  kernels: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one replayed pass, and per-job coverage."""
    def dur(span):
        return span["end"] - span["start"]

    seconds: dict[str, float] = defaultdict(float)
    for span in spans:
        seconds[span["name"]] += dur(span)
    roots = {(s["trace"], s["id"]): s for s in spans if s["parent"] is None}
    top = [s for s in spans if (s["trace"], s["parent"]) in roots]
    covered: dict[str, float] = defaultdict(float)
    for span in top:
        covered[span["trace"]] += dur(span)
    coverage = {root["trace"]: covered[root["trace"]] / dur(root) for root in roots.values()}

    def total(prefix, key):
        return sum(s.get(key, 0) for s in spans if s["name"].startswith(prefix))

    main_s = seconds["cli.main"]
    gc_s = sum(root["gc_s"] for root in roots.values())
    loads = [s for s in spans if s["name"] in ("dataset.load_csv", "dataset.load_ndjson")]
    records_in = sum(s["rows_out"] for s in loads)
    mc_s, mc_draws = seconds["metrics.mc"], total("metrics.mc", "rows_in")
    load_csv_gc = seconds["dataset.load_csv"] + gc_s - total("dataset.load_csv", "gc_s")
    m = {
        "cli.main_s": main_s,
        "cli.unattributed_s": main_s - sum(covered.values()),
        "cli.build_parser_s": seconds["cli.build_parser"],
        "cli.write_s": seconds["cli.write"],
        "dataset.load_csv_s": seconds["dataset.load_csv"],
        "dataset.load_ndjson_s": seconds["dataset.load_ndjson"],
        "dataset.histogram_s": seconds["dataset.histogram"],
        "dataset.records_in": records_in,
        "dataset.rss_per_record_b": (sum(s["rss_growth_b"] for s in loads) / records_in
                                     if records_in else 0.0),
        "dataset.synthesize_s": seconds["dataset.synthesize"],
        "runtime.gc_s": gc_s,
        "runtime.gc_collections": sum(root["gc_collections"] for root in roots.values()),
        "runtime.cpu_s": e2e.cpu_s,
        "runtime.calibration_s": e2e.calibration_s / len(e2e.jobs),
        **{f"samplers.draw_s.{f}": seconds[f"samplers.draw.{f}"] for f in FAMILIES},
        "samplers.records_out": total("samplers.draw.", "rows_out"),
        "metrics.class_report_s": seconds["metrics.class_report"],
        "metrics.identity_report_s": seconds["metrics.identity_report"],
        "metrics.mc_s": mc_s,
        "metrics.mc_draws": mc_draws,
        "metrics.mc_draws_per_s": mc_draws / mc_s if mc_s else 0.0,
        "metrics.analytic_s": seconds["metrics.analytic"],
        **{f"kernels.{name}_s": s for name, s in kernels["cases"].items()},
        "kernels.replay_s": sum(dur(s) for s in spans if s["name"].startswith("kernels.")),
        "report.render_sample_csv_s": seconds["report.render_sample_csv"],
        "report.render_table_s": seconds["report.render_table"],
        "report.missing_series_export_s": seconds["report.missing_series_export"],
        "report.dataset_to_csv_s": seconds["report.dataset_to_csv"],
        "report.bytes_out": total("report.", "bytes_out"),
        "trace.coverage": sum(covered.values()) / main_s,
        "trace.overhead_ratio": replay_wall_s / e2e.wall_s,
        "share.load_csv_gc": load_csv_gc / main_s,
        "share.mc": mc_s / main_s,
    }
    return m, coverage


# --- main --------------------------------------------------------------------

def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args, runner: Runner, record: dict) -> dict:
    """Run the workload; fill ``record``; return the reported metrics."""
    inputs = make_inputs(args.workload, runner.work, args.seed, runner.cli)
    judge = Judge(inputs)
    record["inputs"] = {"records": sum(count for _, count in inputs.hist),
                        "sha256": inputs.digests()}
    if args.trace:
        e2e = run_pass(runner, judge, "pass 1")
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        replay_wall = replay(runner, judge, spans_path)
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        metrics, coverage = layer_metrics(spans, e2e, replay_wall, kernel_cases(runner))
        record.update(passes=[e2e.__dict__], coverage_per_job=coverage,
                      spans=str(spans_path.relative_to(ROOT)))
    else:
        setup, setup_calibrations = setup_seconds(runner)
        passes: list[Pass] = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(runner, judge, f"pass {len(passes) + 1}"))
            elapsed = time.monotonic() - start
            if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        measured = {
            "wall_s": statistics.fmean(p.wall_s for p in passes),
            "setup_s": statistics.median(setup),
            "calibration_s": (sum(p.calibration_s for p in passes)
                              / sum(len(p.jobs) for p in passes)),
            "setup_calibration_s": statistics.fmean(setup_calibrations),
        }
        metrics = {
            "wall_s": measured["wall_s"] * REFERENCE_CALIBRATION_S / measured["calibration_s"],
            "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) / 1024,
            "setup_s": (measured["setup_s"] * REFERENCE_CALIBRATION_S
                        / measured["setup_calibration_s"]),
        }
        record.update(passes=[p.__dict__ for p in passes], setup_spawns_s=setup,
                      setup_calibrations_s=setup_calibrations, measured=measured)
    accepted = judge.self_test()
    record.update(attempted=judge.attempted, failures=judge.failures,
                  failed_ratio=len(judge.failures) / judge.attempted,
                  corruptions_accepted=accepted)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "pktsample" / "cli.py").is_file() or not HIST_PATH.is_file():
        print(f"perfbench: error: {ROOT} is not a pktsample checkout "
              "(run from its root; src/pktsample is missing)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        build()
        runner = Runner(work, deadline)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "context": context(runner)}
        metrics = measure(args, runner, record)
        units = declared_units(args.trace)
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                             "BENCHMARK.json")
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    record["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    ctx = record["context"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"backend={ctx['backend']} available={','.join(ctx['backends_available'])} "
          f"python={ctx['python']} nproc={ctx['nproc']} "
          f"loadavg={ctx['loadavg_start'][0]:.2f} git={ctx['git_sha'][:12]}")
    for input_name, digest in record["inputs"]["sha256"].items():
        print(f"  input {input_name} sha256={digest}")
    print(f"  records {record['inputs']['records']}")
    for metric, unit in units.items():
        print(f"  {metric} = {metrics[metric]:.6g} {unit}")
    for key, value in record.get("measured", {}).items():
        print(f"  measured {key} = {value:.6g} s")
    print(f"  failed_ratio = {record['failed_ratio']:.6g} "
          f"({len(record['failures'])} of {record['attempted']} jobs)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for corruption in record["corruptions_accepted"]:
        print(f"  CHECKER ACCEPTED CORRUPTION {corruption}")
    print(f"  details: {(OUT / name).relative_to(ROOT)}")
    correct = not record["failures"] and not record["corruptions_accepted"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
