#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

Usage, from the root of a pktsample checkout::

    python3 perfbench/selftest.py

Runs every job of every workload once through the real CLI on small
inputs (the PU-TDS histogram at scale 1), then asserts that the checker
accepts each real output, rejects every corruption in
``checker.CORRUPTIONS`` (a dropped row, a wrong label or count, a
flipped synthetic flag, ...), and flags a rerun whose bytes differ
under an equal seed.  Exits 1 on the first kind of miss, so
``failed_ratio`` cannot go silently dead.  ``run.py`` repeats the
corruption step on the real outputs of every benchmark run.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

import run
from workloads import WORKLOADS, make_inputs


def altered_oracle(text: str) -> str:
    """A still-valid oracle output whose bytes differ: one trial more missing."""
    lines = text.split("\n")
    x, observed, expected = lines[1].split(",")
    step = 0.05 if float(observed) < 24 else -0.05
    lines[1] = ",".join([x, repr(float(observed) + step), expected])
    return "\n".join(lines)


def main() -> int:
    if not (run.SRC / "pktsample" / "cli.py").is_file():
        print("selftest: error: run from the root of a pktsample checkout", file=sys.stderr)
        return 2
    work = run.WORK_ROOT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    problems = []
    try:
        runner = run.Runner(work, time.monotonic() + 600)
        for workload in WORKLOADS:
            inputs = make_inputs(workload, work, 0, runner.cli, scale=1)
            judge = run.Judge(inputs)
            run.run_pass(runner, judge, "selftest")
            problems += [f"real output rejected: {f}" for f in judge.failures]
            problems += [f"corruption accepted: {c}" for c in judge.self_test()]
            tried = sorted({job.kind for job in inputs.jobs})
            print(f"{workload}: checked {', '.join(tried)}")
            if workload == "oracle_mc":
                job = inputs.jobs[0]
                path = job.outputs[0]
                path.write_text(altered_oracle(path.read_text()), encoding="utf-8")
                if judge.judge(job, 0, "", "rerun") is None:
                    problems.append("changed bytes under an equal seed were accepted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
