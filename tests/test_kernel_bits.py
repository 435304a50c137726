"""Bit-exact pin of the lockstep DOP853 kernel.

tests/data/kernel_bits.json holds, as float.hex, the real and imaginary parts
of m and the error bar that `weyl._m_values` returns for six potentials at six
real energies and three complex z, and the raw `weyl._integrate` result of a
batch in which some lanes fail: each survivor's m and each failure's type at
its input index.  The kernel must reproduce every bit, so any change to the
order of a Butcher sum, a cast or the step control shows here.

The file comes from commit 8c67693, the first tree whose kernel takes DOP853
steps; the DP5 bits it replaced came from commit 1aabc7c.  Regenerate it from
a checkout of a commit with

    tree=$(mktemp -d) && git archive <commit> | tar -x -C "$tree" \\
        && python tests/test_kernel_bits.py "$tree/src"
"""
import json
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).parent / "data" / "kernel_bits.json"
LAMBDAS = [0.3, 1.2, 2.5, 4.1, 6.6, 9.3]
ZS = [0.5 + 0.5j, 2.0 + 1.0j, 5.0 + 0.1j]
POTENTIALS = {
    "pt2": {"kind": "poschl_teller", "nu": 2},
    "gaussian": {"kind": "gaussian", "amplitude": 1.0, "sigma": 1.0},
    "pt2_truncated": {"kind": "poschl_teller", "nu": 2, "truncate_tol": 1e-12},
    "sampled": {
        "kind": "sampled",
        "xs": [-2.0, -1.0, 0.0, 1.0, 2.0],
        "vs": [0.0, 1.0, 2.0, 1.0, 0.0],
    },
    "barrier": {"kind": "square_barrier", "height": 2.0, "half_width": 0.5},
    "step": {"kind": "step", "left_value": 0.0, "right_value": 1.5},
}
# a batch of the poisoned potential: every right-side lane fails partway in
POISONED_Z = [0.3, 40.0, 8.8, 0.3, 2.0 + 1.0j, 40.0, 1e-3, 8.8, 1.0 + 0.5j]
POISONED_RIGHT = [True, False, True, False, False, True, False, False, True]
POISONED_SCALE = [1.0, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0, 0.5, 1.0]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _m_values_bits(name: str) -> dict:
    from weylscatter.potential import potential_from_config
    from weylscatter.weyl import SolverOptions, _m_values

    p = potential_from_config(POTENTIALS[name])
    m, err = _m_values(p, LAMBDAS + ZS, ("left", "right"), SolverOptions())
    return {"m_re": _hex(m.real), "m_im": _hex(m.imag), "err": _hex(err)}


def _poisoned_bits() -> dict:
    from test_weyl import _PoisonedPotential
    from weylscatter.weyl import SolverOptions, _integrate

    opts = SolverOptions()
    scale = np.array(POISONED_SCALE)
    m, failures = _integrate(
        _PoisonedPotential(),
        np.array(POISONED_Z, dtype=complex),
        np.array(POISONED_RIGHT),
        opts.rel_ode_tol * scale,
        opts.abs_ode_tol * scale,
        opts,
    )
    return {
        "m_re": _hex(m.real),
        "m_im": _hex(m.imag),
        "failure": [None if f is None else type(f).__name__ for f in failures],
    }


def _current() -> dict:
    bits = {name: _m_values_bits(name) for name in POTENTIALS}
    bits["poisoned"] = _poisoned_bits()
    return bits


def test_kernel_reproduces_pinned_bits():
    reference = json.loads(DATA.read_text())
    current = _current()
    assert sorted(current) == sorted(reference)
    for name, fields in reference.items():
        for field, values in fields.items():
            assert current[name][field] == values, (name, field)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    DATA.parent.mkdir(parents=True, exist_ok=True)
    DATA.write_text(json.dumps(_current(), indent=1) + "\n")
