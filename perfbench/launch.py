"""Run one command; print its wall time and resource use as one JSON line.

Usage: python3 perfbench/launch.py STDOUT_PATH ARGV...

``run.py`` starts every measured command through this small process.
Linux carries a process's peak RSS across ``exec``, so a command forked
straight from the benchmark would report the benchmark's own peak
whenever that is larger; forked from here, its ``ru_maxrss`` is its own.
The command's standard output goes to STDOUT_PATH; the JSON line holds
``wall_s`` (fork to exit), ``code``, ``maxrss_kb`` and ``cpu_s``.
"""

import json
import os
import subprocess
import sys
import time

stdout_path, *argv = sys.argv[1:]
with open(stdout_path, "wb") as stdout:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "code": os.waitstatus_to_exitcode(status),
    "maxrss_kb": usage.ru_maxrss,
    "cpu_s": usage.ru_utime + usage.ru_stime,
}))
