"""Benchmark of the weylscatter CLI: seeded workloads, reference checks, per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The program is imported from `src/` next to this directory.  A run writes the
workload's generated configs to `.perfbench/<workload>/` and calls
`weylscatter.cli.main` on them, one command after another in this single
process (a closed loop with one client, no added threads), for as many whole
passes as fit in S seconds.  Afterwards it compares the artifacts with
references computed outside the timed window.

With `--trace 0` the last stdout line reports the end-to-end metrics: the
median pass wall time, the set-up time (median over fresh interpreters that
import `weylscatter.cli` and load the configs, sampled between passes) and
the peak resident memory.  With `--trace 1` the passes alternate between plain
and traced, and the last line reports the per-layer metrics (medians over
traced passes).  The lines before it print every metric with its unit, the
accuracy figures, each failed check and the provenance of the run.

`--smoke` runs every workload once on tiny grids, plain and traced, and checks
the result schema against BENCHMARK.json.  It never gates on timings.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 5  # at least; one more is taken after every pass

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    from weylscatter import cli
except ImportError as exc:
    sys.exit(f"perfbench: cannot import weylscatter from {SRC}: {exc}")
if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
    sys.exit(f"perfbench: imported weylscatter from {cli.__file__}, not from {SRC}")

import workloads  # noqa: E402  (imports weylscatter)
from tracer import Tracer  # noqa: E402

SETUP_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
from weylscatter.cli import load_config
for path in sys.argv[2:]:
    load_config(path)
"""


class Runner:
    """Writes a workload's configs and runs its passes through `cli.main`."""

    def __init__(self, invocations, work: Path):
        self.invocations = invocations
        self.work = work
        self.executions = 0
        self.exit_failures = 0
        self.digests: dict[str, set] = {inv.label: set() for inv in invocations}
        self.artifacts: dict[str, bytes] = {}
        self.setup_times: list[float] = []
        self.setup_failures = 0
        work.mkdir(parents=True, exist_ok=True)
        for inv in invocations:
            self._config(inv).write_text(json.dumps({"command": inv.command, **inv.config}, indent=1))

    def _config(self, inv) -> Path:
        return self.work / f"{inv.label}.json"

    def _out(self, inv) -> Path:
        return self.work / f"{inv.label}.out"

    def run_pass(self) -> tuple[float, int, float]:
        """Wall seconds, minor page faults and system seconds of one pass over every invocation."""
        for inv in self.invocations:
            self._out(inv).unlink(missing_ok=True)
        codes = []
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        for inv in self.invocations:
            argv = [inv.command, "--config", str(self._config(inv)), "--out", str(self._out(inv))]
            try:
                codes.append(cli.main(argv))
            except Exception:  # counted like a nonzero exit; the run goes on
                traceback.print_exc()
                codes.append(-1)
        wall = perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        for inv, code in zip(self.invocations, codes):
            out = self._out(inv)
            data = out.read_bytes() if out.exists() else b""
            self.executions += 1
            self.exit_failures += code != 0
            self.digests[inv.label].add(hashlib.sha256(data).hexdigest())
            self.artifacts.setdefault(inv.label, data)
        return wall, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime

    def sample_setup(self) -> None:
        """Time one fresh interpreter importing the CLI and loading every config."""
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
        argv += [str(self._config(inv)) for inv in self.invocations]
        start = perf_counter()
        proc = subprocess.run(argv, cwd=self.work, capture_output=True, text=True, timeout=120)
        self.setup_times.append(perf_counter() - start)
        if proc.returncode != 0:
            self.setup_failures += 1
            sys.stderr.write(proc.stderr)


def timed_passes(runner: Runner, seconds: float, tracer: Tracer | None, min_setup: int) -> dict:
    """Whole passes while they fit in `seconds`, alternating plain and traced when tracing.

    At least one pass of each kind runs, and a pass starts only if the last
    one of its kind would still end inside the window.  A set-up sample
    follows every pass, so that set-up and passes see the same host load.
    """
    kinds = ("plain", "traced") if tracer else ("plain",)
    walls: dict[str, list] = {kind: [] for kind in kinds}
    usage, layers, spans = [], [], []
    start = perf_counter()
    for i in itertools.count():
        kind = kinds[i % len(kinds)]
        if all(walls.values()) and perf_counter() - start + walls[kind][-1] > seconds:
            break
        if kind == "plain":
            wall, faults, sys_s = runner.run_pass()
            usage.append((faults, sys_s))
        else:
            tracer.reset()
            tracer.install()
            try:
                wall, _, _ = runner.run_pass()
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            spans.append(tracer.spans)
        walls[kind].append(wall)
        runner.sample_setup()
    while len(runner.setup_times) < min_setup:
        runner.sample_setup()
    return {"walls": walls, "usage": usage, "layers": layers, "spans": spans}


def per_layer(passes: dict) -> dict:
    """Medians over traced passes, plus what the plain passes cost the process."""
    layers, walls, usage = passes["layers"], passes["walls"], passes["usage"]
    median = statistics.median
    out = {name: (median(m[name][0] for m in layers), unit) for name, (_, unit) in layers[0].items()}
    out["process.minor_faults"] = (median(faults for faults, _ in usage), "count")
    out["process.sys_s"] = (median(sys_s for _, sys_s in usage), "s")
    out["trace.overhead_ratio"] = (median(walls["traced"]) / median(walls["plain"]), "ratio")
    return out


ACCURACY_UNITS = {
    "m_abs_err": "abs",
    "reflect_abs_err": "prob",
    "packet_gap": "prob",
    "verify_residual_ratio": "ratio",
}


def accuracy(figures: list[dict]) -> dict:
    """Workload-level accuracy: the worst error over invocations, and pooled err-bound misses."""
    out = {}
    for key, unit in ACCURACY_UNITS.items():
        values = [f[key] for f in figures if key in f]
        if values:
            out[key] = (max(values), unit)
    misses = [f["err_bound_misses"] for f in figures if "err_bound_misses" in f]
    if misses:
        missed, rows = map(sum, zip(*misses))
        out["err_bound_miss_ratio"] = (missed / rows, f"of_{rows}_rows")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work = WORK / ("smoke" if smoke else "") / name
    shutil.rmtree(work, ignore_errors=True)
    invocations = workloads.build(name, seed, smoke)
    runner = Runner(invocations, work)
    if not smoke:  # lazy imports and numpy caches fill before timing
        Runner(workloads.build(name, seed, smoke=True), work / "warmup").run_pass()
    passes = timed_passes(runner, seconds, Tracer() if trace else None, 1 if smoke else SETUP_SAMPLES)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if passes["spans"]:
        (work / "spans.json").write_text(json.dumps(passes["spans"]))

    baseline = json.loads((BENCH / "baseline.json").read_text())
    known = {k["check"] for k in baseline["known_failures"] if k["workload"] == name}
    checks, figures = [], []
    for inv in invocations:
        distinct = len(runner.digests[inv.label])
        checks.append(workloads.Check(f"{inv.label}: artifacts differing across passes", distinct - 1, 0))
        found, figure = workloads.check(inv, runner.artifacts[inv.label])
        checks += found
        figures.append(figure)
    failed_checks = [c for c in checks if not c.passed]
    unexpected = [c for c in failed_checks if c.name not in known]
    exit_failures = runner.exit_failures + runner.setup_failures
    attempted = runner.executions + len(runner.setup_times) + len(checks)

    report = accuracy(figures)
    report["check_fail_ratio"] = ((exit_failures + len(failed_checks)) / attempted, "ratio")
    return {
        "name": name,
        "correct": not unexpected and exit_failures == 0,
        "attempted": attempted,
        "failed": exit_failures + len(unexpected),
        "end_to_end": {
            "wall_s": (statistics.median(passes["walls"]["plain"]), "s"),
            "setup_s": (statistics.median(runner.setup_times), "s"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
        },
        "per_layer": per_layer(passes) if trace else {},
        "report": report,
        "failed_checks": [(c, c.name in known) for c in failed_checks],
        "walls": passes["walls"],
        "provenance": provenance(seed, runner),
    }


def result_line(outcome: dict, trace: bool) -> dict:
    metrics = outcome["per_layer"] if trace else outcome["end_to_end"]
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def print_report(outcome: dict) -> None:
    for kind, walls in outcome["walls"].items():
        times = " ".join(f"{t:.3f}" for t in walls)
        print(f"perfbench {outcome['name']}: {len(walls)} {kind} passes, s: {times}")
    for group in ("end_to_end", "report", "per_layer"):
        for name, (value, unit) in outcome[group].items():
            print(f"  {name:32s} {value:.6g} {unit}")
    for check, known in outcome["failed_checks"]:
        tag = "known at the seed commit" if known else "FAILED"
        print(f"  check {tag}: {check.name} = {check.value:.6g} > {check.limit:g}")
    print("perfbench provenance " + json.dumps(outcome["provenance"], sort_keys=True))


# ---------------------------------------------------------------- provenance


def git_sha(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy; None for another BLAS."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int, runner: Runner) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "weylscatter").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "artifacts_sha256": {
            label: hashlib.sha256(data).hexdigest() for label, data in runner.artifacts.items()
        },
    }


# ---------------------------------------------------------------- smoke


def schema_problems(line: dict, expected: list[dict]) -> list[str]:
    """Differences between a result line and the contract's keys, metric names and units."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if not isinstance(line["correct"], bool):
        problems.append("correct is not a boolean")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not (isinstance(line["failed"], int) and line["failed"] >= 0):
        problems.append("failed is not a whole number >= 0")
    want = {m["name"]: m["unit"] for m in expected}
    got = line["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, metric in got.items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            problems.append(f"{name}: value {value!r} is not a number")
        if metric["unit"] != want.get(name, metric["unit"]):
            problems.append(f"{name}: unit {metric['unit']!r}, expected {want[name]!r}")
    return problems


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in spec["workloads"]:
        start = perf_counter()
        outcome = run_workload(workload["name"], seed=0, seconds=0.0, trace=True, smoke=True)
        problems = schema_problems(result_line(outcome, False), spec["end_to_end"])
        problems += schema_problems(result_line(outcome, True), spec["per_layer"])
        if not outcome["correct"]:
            failed = [c.name for c, known in outcome["failed_checks"] if not known]
            problems.append("failed checks or exits: " + "; ".join(failed))
        bad += bool(problems)
        verdict = "ok" if not problems else "; ".join(problems)
        print(f"smoke {workload['name']} ({perf_counter() - start:.1f} s): {verdict}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="all workloads on tiny grids; schema check only"
    )
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    print_report(outcome)
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
