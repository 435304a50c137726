import math

import numpy as np
import pytest

from weylscatter import (
    GaussianBump,
    MValue,
    PoschlTeller,
    ResonantDenominator,
    SquareBarrier,
    Step,
    Zero,
    ValidationError,
    boundary_m,
    boundary_pair,
    green00,
    interior_m,
    reflectionless_scan,
    scattering_matrix,
    spectral_reflection,
    transfer_reflection,
    transfer_reflection_grid,
    sweep,
    truncated,
)
from weylscatter.scattering import DEFAULT_SUPPORT_THRESHOLD, _reflection_coefficient


def mv(side, m, lam=1.0, err=0.0):
    return MValue(side=side, z=complex(lam), m=m, err_estimate=err)


def radiating_g00(p, z, h, half_width):
    """Independent oracle: tridiagonal resolvent with discrete outgoing closures.

    The boundary rows eliminate u_{+-(n+1)} = zeta u_{+-n} where zeta is the
    decaying root of the constant-tail three-term recurrence, so the finite
    system represents the infinite lattice exactly and converges to the line
    Green function at O(h^2).
    """
    n = int(round(half_width / h))
    x = h * np.arange(-n, n + 1)
    v = np.array([p.mean_value(xi - h / 2, xi + h / 2) for xi in x], dtype=complex)
    size = 2 * n + 1
    off = -1.0 / h**2
    diag = 2.0 / h**2 + v - z
    for side, idx in (("left", 0), ("right", size - 1)):
        a = 1.0 - 0.5 * h**2 * (z - p.tail_value(side))
        zeta = a + 1j * np.sqrt(1 - a * a + 0j)
        if abs(zeta) > 1:
            zeta = a - 1j * np.sqrt(1 - a * a + 0j)
        diag[idx] = diag[idx] + off * zeta
    rhs = np.zeros(size, dtype=complex)
    rhs[n] = 1.0
    d = diag.copy()
    u = rhs.copy()
    for i in range(1, size):
        w = off / d[i - 1]
        d[i] -= w * off
        u[i] -= w * u[i - 1]
    sol = np.zeros(size, dtype=complex)
    sol[-1] = u[-1] / d[-1]
    for i in range(size - 2, -1, -1):
        sol[i] = (u[i] - off * sol[i + 1]) / d[i]
    return sol[n] / h


def test_green00_free_values():
    assert green00(2j, 2j) == pytest.approx(0.25j)
    assert green00(1j, 1j) == pytest.approx(0.5j)


def test_green00_resonant():
    with pytest.raises(ResonantDenominator):
        green00(1.0 + 0j, -1.0 + 0j)


def test_radiating_oracle_free_line():
    z = 1.0 + 1e-4j
    got = radiating_g00(Zero(), z, 0.005, 10.0)
    assert abs(got - 1j / (2 * np.sqrt(z))) < 1e-5


def test_green00_barrier_against_lattice_oracle():
    z = 1.0 + 1e-4j
    b = SquareBarrier(height=2.0, half_width=0.5)
    m_l = interior_m("left", b, z)
    m_r = interior_m("right", b, z)
    g = green00(m_l.m, m_r.m)
    assert g.imag > 0
    # 4000 grid points across [-10, 10]
    ref = radiating_g00(b, z, 0.005, 10.0)
    assert abs(g - ref) < 5e-5


def test_scattering_matrix_free_line():
    s = scattering_matrix(mv("left", 2j, 4.0), mv("right", 2j, 4.0))
    assert s.s_ll == pytest.approx(0.0, abs=1e-15)
    assert s.s_rr == pytest.approx(0.0, abs=1e-15)
    assert s.s_lr == pytest.approx(-1.0, abs=1e-15)
    assert s.s_rl == s.s_lr
    assert s.unitarity_residual() < 1e-15


def test_scattering_matrix_below_spectrum_identity():
    s = scattering_matrix(mv("left", 1.0 + 0j, -1.0), mv("right", 1.0 + 0j, -1.0))
    assert s.s_ll == 1.0 and s.s_rr == 1.0 and s.s_lr == 0.0


def test_scattering_matrix_barrier_matches_oracle():
    b = SquareBarrier(height=2.0, half_width=0.5)
    m_l, m_r = boundary_pair(b, 1.0)
    s, rec = scattering_matrix(m_l, m_r), spectral_reflection(m_l, m_r)
    assert 0.0 < abs(s.s_ll) ** 2 < 1.0
    oracle = transfer_reflection_grid(b, [1.0], 0.01)[0]
    assert abs(s.s_ll) ** 2 == pytest.approx(oracle.reflect_prob, abs=1e-6)
    assert rec.reflect_prob == pytest.approx(oracle.reflect_prob, abs=1e-6)


def test_spectral_reflection_free_values():
    rec = spectral_reflection(mv("left", 2j, 4.0), mv("right", 2j, 4.0))
    assert rec.r_spectral == pytest.approx(0.0, abs=1e-15)
    assert rec.transmit_prob == 1.0
    assert rec.in_S_l and rec.in_S_r
    rec = spectral_reflection(mv("left", 1.0 + 0j, -1.0), mv("right", 1.0 + 0j, -1.0))
    assert rec.r_spectral == 1.0
    assert rec.reflect_prob == 1.0
    assert rec.transmit_prob == 0.0
    assert not rec.in_S_l


def test_identity_s_ll_equals_reflection_on_sweeps():
    grids = {
        Zero(): np.linspace(0.1, 10.0, 25),
        SquareBarrier(height=2.0, half_width=0.5): np.linspace(0.2, 8.0, 25),
        truncated(PoschlTeller(nu=1), 1e-12): np.linspace(0.5, 8.0, 10),
    }
    for p, grid in grids.items():
        for lam in grid:
            m_l, m_r = boundary_pair(p, float(lam))
            s = scattering_matrix(m_l, m_r)
            rec = spectral_reflection(m_l, m_r)
            assert abs(s.s_ll - rec.r_spectral) <= 1e-10
            assert s.unitarity_residual() <= 1e-8
            assert abs(abs(s.s_ll) - abs(s.s_rr)) <= 1e-10
            assert abs(rec.reflect_prob + rec.transmit_prob - 1.0) <= 1e-8


def test_total_reflection_when_right_support_empty():
    # right channel closed: |s_ll| = 1 exactly
    s = scattering_matrix(mv("left", 0.3 + 0.9j), mv("right", -0.7 + 0j))
    assert abs(s.s_ll) == pytest.approx(1.0, abs=1e-15)
    assert s.s_lr == 0.0
    rec = spectral_reflection(mv("left", 0.3 + 0.9j), mv("right", -0.7 + 0j))
    assert rec.in_S_l and not rec.in_S_r
    assert rec.reflect_prob == pytest.approx(1.0, abs=1e-15)


def test_reflection_conjugation_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ml = complex(rng.normal(), abs(rng.normal()) + 0.01)
        mr = complex(rng.normal(), abs(rng.normal()) + 0.01)
        upper = _reflection_coefficient(ml, mr)
        lower = _reflection_coefficient(np.conj(ml), np.conj(mr))
        assert abs(lower - np.conj(upper)) < 1e-12


def test_step_above_both_tails_partial_reflection():
    p = Step(0.0, 1.0)
    rec = spectral_reflection(*boundary_pair(p, 4.0))
    # plane-wave step formula: |r| = (k - k')/(k + k') with k=2, k'=sqrt(3)
    expected = ((2.0 - np.sqrt(3.0)) / (2.0 + np.sqrt(3.0))) ** 2
    assert rec.reflect_prob == pytest.approx(expected, abs=1e-9)
    assert rec.in_S_l and rec.in_S_r


def test_step_between_tails_total_reflection():
    # 0 < lambda < 1: right channel evanescent, left wave fully reflected
    rec = spectral_reflection(*boundary_pair(Step(0.0, 1.0), 0.5))
    assert rec.in_S_l and not rec.in_S_r
    assert rec.reflect_prob == pytest.approx(1.0, abs=1e-9)


def test_reflectionless_scan_free_line():
    grid = np.linspace(0.1, 10.0, 100)
    windows = reflectionless_scan(Zero(), grid)
    assert len(windows) == 1
    w = windows[0]
    assert w.lam_min == grid[0] and w.lam_max == grid[-1]
    assert w.max_reflect_prob <= 1e-10


def test_reflectionless_scan_barrier_empty():
    grid = np.linspace(0.1, 10.0, 40)
    assert reflectionless_scan(SquareBarrier(height=2.0, half_width=0.5), grid) == []


def test_reflectionless_scan_truncated_poschl_teller():
    grid = np.linspace(0.5, 8.0, 16)
    windows = reflectionless_scan(truncated(PoschlTeller(nu=1), 1e-12), grid)
    assert len(windows) == 1
    assert windows[0].lam_min == grid[0] and windows[0].lam_max == grid[-1]


def test_reflectionless_scan_split_window():
    # pick the gap structure by hand: reflective barrier node in the middle
    p = SquareBarrier(height=50.0, half_width=0.5)
    grid = np.linspace(0.5, 4.0, 8)
    assert reflectionless_scan(p, grid) == []


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        reflectionless_scan(Zero(), [2.0, 1.0])
    with pytest.raises(ValueError):
        reflectionless_scan(Zero(), [])


def test_gaussian_bump_records_consistent():
    p = GaussianBump(amplitude=1.0, sigma=1.0)
    m_l, m_r = boundary_pair(p, 2.0)
    s, rec = scattering_matrix(m_l, m_r), spectral_reflection(m_l, m_r)
    assert 0 < rec.reflect_prob < 1
    assert abs(s.s_ll - rec.r_spectral) < 1e-10
    assert s.unitarity_residual() < 1e-8
    oracle = transfer_reflection_grid(p, [np.sqrt(2.0)], 0.002)[0]
    assert rec.reflect_prob == pytest.approx(oracle.reflect_prob, abs=1e-6)


def test_sampled_potential_routes_agree():
    # piecewise-linear bumps: the ODE route integrates through the kinks
    # segment by segment, the oracle slabs them; both are second order
    from weylscatter import Sampled

    cases = [
        (Sampled(xs=[-1.0, 0.0, 1.0], vs=[0.0, 1.0, 0.0]), (0.5, 1.0, 2.0, 4.0)),
        (Sampled(xs=[-0.5, 0.2, 0.8, 1.5], vs=[0.0, 2.0, -1.0, 0.0]), (1.0, 3.0)),
    ]
    for p, lams in cases:
        for lam in lams:
            rec = spectral_reflection(*boundary_pair(p, lam))
            res = transfer_reflection_grid(p, [float(np.sqrt(lam))], 0.002)[0]
            assert rec.reflect_prob == pytest.approx(res.reflect_prob, abs=1e-6)


def _reference(m_l, m_r, err_l, err_r, s_threshold=DEFAULT_SUPPORT_THRESHOLD):
    """The algebra at one energy, in Python complex arithmetic: the per-energy
    formulas the column algebra replaced."""
    ml = complex(m_l.real, max(m_l.imag, 0.0))
    mr = complex(m_r.real, max(m_r.imag, 0.0))
    g = -1.0 / (ml + mr)
    s_off = 2j * g * math.sqrt(ml.imag * mr.imag)
    s = np.array([[1.0 + 2j * g * ml.imag, s_off], [s_off, 1.0 + 2j * g * mr.imag]])
    in_S_l = m_l.imag > s_threshold
    r = complex((mr + np.conj(ml)) / (mr + ml)) if in_S_l else 1.0 + 0.0j
    reflect = min(abs(r) ** 2, 1.0) if in_S_l else 1.0
    return {
        "s": s.ravel(),
        "unitarity": float(np.max(np.abs(s @ s.conj().T - np.eye(2)))),
        "r": r,
        "reflect": reflect,
        "transmit": 1.0 - reflect if in_S_l else 0.0,
        "in_S_l": in_S_l,
        "in_S_r": m_r.imag > s_threshold,
        "err": (err_l + err_r) * (1.0 + 2.0 / abs(ml + mr)),
    }


def _columns():
    """m-value columns from sweeps and from random draws.

    The sweeps include energies off S_l (Step(1, 0) below its left tail) and
    off S_r (Step(0, 1) below its right tail); the draws include Im m < 0,
    which the algebra clamps to 0, and Im m = 0.
    """
    sweeps = [
        (SquareBarrier(height=2.0, half_width=0.5), np.linspace(0.2, 8.0, 16)),
        (GaussianBump(amplitude=1.0, sigma=1.0), np.linspace(0.3, 6.0, 12)),
        (truncated(PoschlTeller(nu=2), 1e-12), np.linspace(0.5, 8.0, 12)),
        (Step(0.0, 1.0), np.array([-0.5, 0.25, 0.5, 0.75, 2.0, 4.0])),
        (Step(1.0, 0.0), np.array([-0.5, 0.25, 0.5, 0.75, 2.0, 4.0])),
    ]
    for p, grid in sweeps:
        yield sweep(p, grid)
    rng = np.random.default_rng(7)
    n = 4000
    im = np.abs(rng.normal(size=(2, n)))
    im[:, :400] = -1e-15 * rng.random((2, 400))  # clamped
    im[0, 400:600] = 0.0  # off S_l
    m = rng.normal(size=(2, n)) + 1j * im
    err = 1e-14 * rng.random((2, n))
    z = np.arange(n) + 0j
    yield MValue("left", z, m[0], err[0]), MValue("right", z, m[1], err[1])


def test_column_algebra_matches_per_energy_reference():
    worst_s = worst_u = 0.0
    for m_l, m_r in _columns():
        s = scattering_matrix(m_l, m_r)
        rec = spectral_reflection(m_l, m_r)
        unitarity = s.unitarity_residual()
        entries = s.as_matrix().reshape(-1, 4)
        assert rec.in_S_l.shape == m_l.m.shape and unitarity.shape == m_l.m.shape
        for i, args in enumerate(zip(m_l.m.tolist(), m_r.m.tolist(), m_l.err_estimate, m_r.err_estimate)):
            ref = _reference(*args)
            assert rec.r_spectral[i] == ref["r"]
            assert rec.reflect_prob[i] == ref["reflect"]
            assert rec.transmit_prob[i] == ref["transmit"]
            assert rec.in_S_l[i] == ref["in_S_l"] and rec.in_S_r[i] == ref["in_S_r"]
            assert rec.err_estimate[i] == ref["err"]
            worst_s = max(worst_s, np.max(np.abs(entries[i] - ref["s"])))
            worst_u = max(worst_u, abs(unitarity[i] - ref["unitarity"]))
    # numpy's complex quotient in -1 / (m_l + m_r) may round differently from
    # Python's; nothing else in the algebra may
    assert worst_s <= 2.3e-16
    assert worst_u <= 4.5e-16


def test_column_call_equals_scalar_call():
    for m_l, m_r in _columns():
        s = scattering_matrix(m_l, m_r)
        rec = spectral_reflection(m_l, m_r)
        unitarity = s.unitarity_residual()
        for i in range(len(m_l.m)):
            s_i = scattering_matrix(m_l[i], m_r[i])
            rec_i = spectral_reflection(m_l[i], m_r[i])
            assert np.array_equal(s_i.as_matrix(), s.as_matrix()[i])
            assert s_i.unitarity_residual() == unitarity[i]
            for name in ("r_spectral", "reflect_prob", "transmit_prob", "in_S_l", "in_S_r", "err_estimate"):
                assert getattr(rec_i, name) == getattr(rec, name)[i], name
                assert np.isscalar(getattr(rec_i, name)), name


def test_resonant_denominator_names_first_resonant_entry():
    m_l = MValue("left", np.zeros(3, dtype=complex), np.array([1j, 1.0 + 0j, 2j]), np.zeros(3))
    m_r = MValue("right", np.zeros(3, dtype=complex), np.array([1j, -1.0 + 0j, 1j]), np.zeros(3))
    for call in (scattering_matrix, spectral_reflection):
        with pytest.raises(ResonantDenominator, match="at entry 1:"):
            call(m_l, m_r)


PT1 = PoschlTeller(nu=1)
BARRIER = SquareBarrier(height=2.0, half_width=0.5)
# each real-axis entry point, with the name of its input, called with a
# complex energy or momentum; a numpy complex used to lose its imaginary part
# with only a ComplexWarning, a Python complex to raise a bare TypeError
REAL_AXIS_ENTRIES = {
    "sweep": ("grid", lambda z: sweep(PT1, np.array([z]))),
    "boundary_m": ("lam", lambda z: boundary_m("left", PT1, z)),
    "reflectionless_scan": ("grid", lambda z: reflectionless_scan(PT1, np.array([z, z + 1]))),
    "transfer_reflection_grid": ("ks", lambda z: transfer_reflection_grid(BARRIER, [z], 0.01)),
    "transfer_reflection": ("k", lambda z: transfer_reflection(BARRIER, z, 0.01)),
}


@pytest.mark.parametrize("z", [np.complex128(2 + 1j), 2 + 1j], ids=["numpy", "python"])
@pytest.mark.parametrize("entry", sorted(REAL_AXIS_ENTRIES))
def test_real_axis_entry_refuses_complex_input(entry, z):
    name, call = REAL_AXIS_ENTRIES[entry]
    with pytest.raises(ValidationError, match=rf"^{name}: .*\(2\+1j\)\)? is not a number"):
        call(z)
