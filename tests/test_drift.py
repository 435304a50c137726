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
  of 7.3e-14, and the direct value is nearer the closed form at every energy.

Regenerate the references of some potentials from a checkout of a commit with

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
TEXT_FIELDS = {"side", "in_S_l", "in_S_r"}
NO_ERR_TOL = 1e-12


def _artifact(cli, work: Path, name: str, command: str) -> str:
    config = work / f"{name}_{command}.json"
    config.write_text(json.dumps({"potential": POTENTIALS[name], "lambda_grid": LAMBDAS}))
    out = work / f"{name}_{command}.csv"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(POTENTIALS))
def test_artifact_within_reference_err(name, command, tmp_path):
    from weylscatter import cli

    reference = list(csv.DictReader((DATA / f"{name}_{command}.csv").open()))
    current = list(csv.DictReader(io.StringIO(_artifact(cli, tmp_path, name, command))))
    assert len(current) == len(reference) == len(LAMBDAS) * (2 if command == "mfunction" else 1)
    for ref, cur in zip(reference, current):
        assert list(cur) == list(ref)
        tol = float(ref["err"]) if "err" in ref else NO_ERR_TOL
        for field, value in ref.items():
            if field in TEXT_FIELDS:
                assert cur[field] == value, (field, ref)
            else:
                assert abs(float(cur[field]) - float(value)) <= tol, (field, ref, cur)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from weylscatter import cli

    DATA.mkdir(parents=True, exist_ok=True)
    for name in sys.argv[2:] or POTENTIALS:
        for command in COMMANDS:
            _artifact(cli, DATA, name, command)
            (DATA / f"{name}_{command}.json").unlink()
