"""Drift pin: CLI artifacts stay within their own error bars of a fixed reference.

Every numeric field of today's artifact must lie within the reference row's
`err`, or within NO_ERR_TOL for artifacts without an `err` column; text
fields must match exactly.  The CSVs under tests/data/drift/ come from two
trees:

* barrier_* and sampled_*: the scalar-loop solver of commit c2c11ad;
* pt2_reflect and gaussian_reflect: the commit that made real-energy
  integration the only boundary-value path (child of efb5e4b).  The earlier
  references came from the eps-ladder, whose `err` understated its own
  error: at lambda=9.71 the ladder's PT nu=2 m missed the closed form by
  3.4e-13 against an `err` of 7.3e-14, and the direct value is nearer the
  closed form at every energy;
* pt2_mfunction, pt2_scatter, gaussian_mfunction and gaussian_scatter:
  commit 8c67693, the first tree whose m-solver takes DOP853 steps.  The
  DP5 values before them lay up to 1.8e-11 (PT nu=2) and 2.4e-12 (Gaussian)
  from the new ones, beyond the new `err`; every new `err` is below the old
  one, and every PT nu=2 m is nearer the closed form;
* *_wavepacket*: commit 7bad95d, the last tree whose split-step kernel ran
  one unsplit numpy FFT per transform.  `t_stop` must match exactly;
* *_verify: commit 720d34a, the first tree whose lattice check inverts
  H - z by tridiagonal elimination.  The references before them, from
  commit 8c67693, differ only in the three `lattice_*` rows, by at most
  3.0e-14.  Their three `lattice_*` rows come from the commit that made
  the check stream D's row blocks from the pivots, never holding D whole
  (child of 365078d).  It takes c from O(N) solves and g from the
  origin column's ratio products, so those rows moved: `lattice_rank_one`
  and `lattice_coefficient` by at most 6.4e-15, the Gaussian's
  `lattice_continuum_g00` by 1.1e-16, the other two not at all.  The
  commit before it (child of 4d33b69) reduced D by einsum, without BLAS:
  the bytes before that held the partial sums of OpenBLAS `vdot` on two
  threads, and moved with the thread count, by up to 2.1e-14.
  The `dynamical_vs_spectral` and `packet_norm_drift` rows of
  gaussian_verify and pt2_truncated_verify come from the commit that
  samples V at the grid nodes where it is smooth and lets a smooth V take a
  longer step (child of e5954ac; the Gaussian's dt 1/24, PT's 1/56).  They
  moved from 2.4504e-4 to 2.5035e-6 and from 3.07e-13 to 6.37e-14
  (Gaussian), and from 3.527e-7 to 2.555e-10 and from 4.04e-13 to 1.63e-13
  (truncated PT nu=2); the barrier's V and dt, and so its rows, are as before.
  The same two rows of barrier_verify come from the commit that joins the
  steps by the rank update on every grid where V sits on at most two rows
  of the split work array (child of 2709a96).  The barrier's 1024-point
  packet left the plain one-FFT step, and the rows moved from
  0.011896410656783096 to 0.011896410656874523 and from 2.7178e-13 to
  5.7732e-15; the wavepacket pins hold within 1e-12 as they are.
  Every row must match byte for byte except two, which the
  earlier references (commit b3d8728) needed: `lattice_rank_one` reports an
  upper bound on sv2/sv1, so its residual may only grow, and must still
  pass; the `spectral_vs_oracle` residual may move by ORACLE_DRIFT, every
  other field of that row staying byte-exact.

Regenerate the references of some potentials or commands from a checkout of
a commit with

    tree=$(mktemp -d) && git archive <commit> | tar -x -C "$tree" \\
        && python tests/test_drift.py "$tree/src" pt2 gaussian

or, for the verify references, `... "$tree/src" verify`.  Names select
potentials and commands select commands; given both, only their pairs are
rewritten, so `... "$tree/src" barrier verify` rewrites barrier_verify.csv
alone.  A word that names neither rewrites nothing and exits 1.
"""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "drift"
SRC = Path(__file__).resolve().parents[1] / "src"
LAMBDAS = [0.23, 1.41, 2.67, 3.9, 5.15, 6.33, 7.58, 9.71]
POTENTIALS = {
    "pt2": {"kind": "poschl_teller", "nu": 2},
    "gaussian": {"kind": "gaussian", "amplitude": 1.0, "sigma": 1.0},
    "sampled": {
        "kind": "sampled",
        "xs": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "vs": [0.0, 1.0, 2.0, 1.0, 0.0],
    },
    "barrier": {"kind": "square_barrier", "height": 2.0, "half_width": 0.5},
}
COMMANDS = ("mfunction", "reflect", "scatter")
# wavepacket runs on the zero-tail potentials, with the default packet and
# with a grid large enough for the split FFT of the propagator
PACKETS = {"": {}, "_8192": {"half_length": 300, "n_points": 8192}}
PACKET_POTENTIALS = ("barrier", "sampled")
# verify runs on the potentials the benchmark verifies, with the drift grid,
# the default packet and seed 0
VERIFY_POTENTIALS = ("barrier", "gaussian", "pt2_truncated")
SPECS = {**POTENTIALS, "pt2_truncated": {"kind": "poschl_teller", "nu": 2, "truncate_tol": 1e-12}}
EXACT_FIELDS = {"side", "in_S_l", "in_S_r", "t_stop"}
NO_ERR_TOL = 1e-12
# |spectral_vs_oracle residual - reference| in the verify pins
ORACLE_DRIFT = 1e-14


# the variables OpenBLAS reads its thread count from, first to last
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
CLI_SNIPPET = "import sys; from weylscatter.cli import main; sys.exit(main(sys.argv[1:]))"


def _config(work: Path, name: str, command: str, packet: str = "") -> Path:
    config = work / f"{name}_{command}{packet}.json"
    raw = {"potential": SPECS[name], "lambda_grid": LAMBDAS, "packet": PACKETS[packet]}
    config.write_text(json.dumps(raw))
    return config


def _artifact(cli, work: Path, name: str, command: str, packet: str = "") -> str:
    config = _config(work, name, command, packet)
    out = config.with_suffix(".csv")
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return out.read_text()


def _assert_within_reference(reference: list[dict], current: list[dict]) -> None:
    for ref, cur in zip(reference, current):
        assert list(cur) == list(ref)
        tol = float(ref["err"]) if "err" in ref else NO_ERR_TOL
        for field, value in ref.items():
            if field in EXACT_FIELDS:
                assert cur[field] == value, (field, ref)
            else:
                assert abs(float(cur[field]) - float(value)) <= tol, (field, ref, cur)


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_artifact_within_reference_err(name, command, tmp_path):
    from weylscatter import cli

    reference = _rows((DATA / f"{name}_{command}.csv").read_text())
    current = _rows(_artifact(cli, tmp_path, name, command))
    assert len(current) == len(reference) == len(LAMBDAS) * (2 if command == "mfunction" else 1)
    _assert_within_reference(reference, current)


@pytest.mark.parametrize("packet", sorted(PACKETS), ids=lambda k: k.strip("_") or "default")
@pytest.mark.parametrize("name", PACKET_POTENTIALS)
def test_wavepacket_within_reference(name, packet, tmp_path):
    from weylscatter import cli

    reference = _rows((DATA / f"{name}_wavepacket{packet}.csv").read_text())
    current = _rows(_artifact(cli, tmp_path, name, "wavepacket", packet))
    assert len(current) == len(reference) == 1
    _assert_within_reference(reference, current)


@pytest.mark.parametrize("name", VERIFY_POTENTIALS)
def test_verify_matches_reference(name, tmp_path):
    from weylscatter import cli

    reference = (DATA / f"{name}_verify.csv").read_text().splitlines()
    current = _artifact(cli, tmp_path, name, "verify").splitlines()
    assert len(current) == len(reference)
    for ref, cur in zip(reference, current):
        if not ref.startswith(("lattice_rank_one,", "spectral_vs_oracle,")):
            assert cur == ref
            continue
        ref_row, cur_row = (_rows(f"{reference[0]}\n{line}\n")[0] for line in (ref, cur))
        if ref_row["check"] == "spectral_vs_oracle":
            # the (u, u') slab product rounds differently from the plane-wave
            # interface loop of earlier references, by at most 8.9e-16
            for field in ("check", "detail", "tolerance", "status"):
                assert cur_row[field] == ref_row[field], field
            assert abs(float(cur_row["residual"]) - float(ref_row["residual"])) <= ORACLE_DRIFT
            continue
        assert "bound" in cur_row["detail"]
        assert cur_row["tolerance"] == ref_row["tolerance"] == "1e-10"
        assert float(ref_row["residual"]) <= float(cur_row["residual"]) <= 1e-10, (ref_row, cur_row)
        assert cur_row["status"] == "pass"


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a fresh interpreter at one BLAS thread and one at the default count
    # write the same bytes, the lattice check's reductions included
    config = _config(tmp_path, "barrier", "verify")
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    artifacts = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"verify_{len(artifacts)}.csv"
        command = [sys.executable, "-c", CLI_SNIPPET, "verify", "--config", str(config), "--out", str(out)]
        subprocess.run(command, env={**env, **threads}, check=True, timeout=300)
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from weylscatter import cli

    cases = [(name, command, "") for name in POTENTIALS for command in COMMANDS]
    cases += [(name, "wavepacket", packet) for name in PACKET_POTENTIALS for packet in PACKETS]
    cases += [(name, "verify", "") for name in VERIFY_POTENTIALS]
    chosen = set(sys.argv[2:])
    names = {name for name, _, _ in cases}
    commands = {command for _, command, _ in cases}
    if chosen - names - commands:
        # a misspelt word would otherwise select nothing and widen to all
        sys.exit(f"unknown potentials or commands: {sorted(chosen - names - commands)}")
    names, commands = (chosen & names or names), (chosen & commands or commands)
    DATA.mkdir(parents=True, exist_ok=True)
    for name, command, packet in cases:
        if name in names and command in commands:
            _artifact(cli, DATA, name, command, packet)
            (DATA / f"{name}_{command}{packet}.json").unlink()
