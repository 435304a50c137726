"""Drift pin: CLI artifacts stay within their own error bars of a fixed reference.

Every numeric field of today's artifact must lie within the reference row's
`err`, or within NO_ERR_TOL for artifacts without an `err` column; text
fields must match exactly.  The CSVs under tests/data/drift/ come from two
trees:

* barrier_* and sampled_*: the scalar-loop solver of commit c2c11ad;
* pt2_* and gaussian_*: the commit that made real-energy integration the
  only boundary-value path (child of efb5e4b).  The earlier references came
  from the eps-ladder, whose `err` understated its own error: at lambda=9.71
  the ladder's PT nu=2 m missed the closed form by 3.4e-13 against an `err`
  of 7.3e-14, and the direct value is nearer the closed form at every energy;
* *_wavepacket*: commit 7bad95d, the last tree whose split-step kernel ran
  one unsplit numpy FFT per transform.  `t_stop` must match exactly.

Regenerate the references of some potentials or commands from a checkout of
a commit with

    tree=$(mktemp -d) && git archive <commit> | tar -x -C "$tree" \\
        && python tests/test_drift.py "$tree/src" pt2 gaussian
"""
import csv
import io
import json
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data" / "drift"
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
EXACT_FIELDS = {"side", "in_S_l", "in_S_r", "t_stop"}
NO_ERR_TOL = 1e-12


def _artifact(cli, work: Path, name: str, command: str, packet: str = "") -> str:
    stem = f"{name}_{command}{packet}"
    config = work / f"{stem}.json"
    raw = {"potential": POTENTIALS[name], "lambda_grid": LAMBDAS, "packet": PACKETS[packet]}
    config.write_text(json.dumps(raw))
    out = work / f"{stem}.csv"
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


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from weylscatter import cli

    cases = [(name, command, "") for name in POTENTIALS for command in COMMANDS]
    cases += [(name, "wavepacket", packet) for name in PACKET_POTENTIALS for packet in PACKETS]
    chosen = set(sys.argv[2:])
    DATA.mkdir(parents=True, exist_ok=True)
    for name, command, packet in cases:
        if not chosen or chosen & {name, command}:
            _artifact(cli, DATA, name, command, packet)
            (DATA / f"{name}_{command}{packet}.json").unlink()
