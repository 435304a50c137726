"""The benchmark harness runs end to end on tiny grids.

`perfbench/run.py --smoke` runs every workload of BENCHMARK.json once, plain
and traced, checks its result lines against the metric schema and its
reference checks, and prints one `smoke <workload> (...): ok` line each.  It
writes only under the git-ignored `.perfbench/`.  Timings are never checked.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_runs_every_workload():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    ok = re.findall(r"^smoke (\S+) \([^)]*\): ok$", run.stdout, flags=re.MULTILINE)
    assert ok == workloads, run.stdout
    assert len(ok) == 4
