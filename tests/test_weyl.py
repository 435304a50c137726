import cmath
import math
import warnings

import numpy as np
import pytest

from weylscatter import (
    ExtrapolationDivergence,
    GaussianBump,
    NodeAtOrigin,
    OdeStepFailure,
    PoschlTeller,
    Potential,
    Sampled,
    SolverOptions,
    SquareBarrier,
    Step,
    Zero,
    ac_density,
    boundary_m,
    interior_m,
    sweep,
    truncated,
)
from weylscatter.weyl import _m_halfline

OPTS = SolverOptions()


def free_m(z):
    r = cmath.sqrt(z)
    if r.imag < 0:
        r = -r
    return 1j * r


def rk4_log_derivative(p: Potential, z: complex, side: str, x_start: float, n_steps: int = 20000):
    """Brute-force dense-grid integration oracle, independent of the adaptive solver."""
    def vf(xx):
        return float(p.value(xx))

    sign = 1.0 if side == "right" else -1.0
    w = cmath.sqrt(z - p.tail_value(side))
    if w.imag < 0:
        w = -w
    u, du = 1.0 + 0.0j, sign * 1j * w
    x = sign * x_start
    h = -x / n_steps

    def f(xx, uu, dd):
        return dd, (vf(xx) - z) * uu

    for _ in range(n_steps):
        k1 = f(x, u, du)
        k2 = f(x + h / 2, u + h / 2 * k1[0], du + h / 2 * k1[1])
        k3 = f(x + h / 2, u + h / 2 * k2[0], du + h / 2 * k2[1])
        k4 = f(x + h, u + h * k3[0], du + h * k3[1])
        u = u + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        du = du + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        x += h
        scale = max(abs(u), abs(du))
        if scale > 1e100:
            u, du = u / scale, du / scale
    return sign * du / u


def test_interior_free_line_closed_form():
    # the forced solution is e^{i sqrt(z) x}, so m = i sqrt(z) on both sides
    for z in (1j, 4 + 0.01j, 0.3 + 2j, -2 + 0.5j):
        for side in ("left", "right"):
            mv = interior_m(side, Zero(), z, OPTS)
            assert abs(mv.m - free_m(z)) < 1e-10
            assert mv.m.imag > 0


def test_interior_free_at_i():
    mv = interior_m("right", Zero(), 1j, OPTS)
    assert mv.m == pytest.approx(1j * cmath.sqrt(1j), abs=1e-12)


def test_constant_potential_closed_form_grid():
    # V = c shifts the free-line formula: m(z) = i sqrt(z - c)
    c = 1.0
    p = Step(left_value=c, right_value=c)
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = complex(rng.uniform(-3, 8), rng.uniform(0.05, 4.0))
        for side in ("left", "right"):
            mv = interior_m(side, p, z, OPTS)
            assert abs(mv.m - free_m(z - c)) <= 1e-8


def test_interior_step_right_tail():
    mv = interior_m("right", Step(0.0, 1.0), 4 + 0.01j, OPTS)
    assert abs(mv.m - free_m(3 + 0.01j)) < 1e-10


def test_interior_step_against_dense_grid_oracle():
    z = 4 + 0.01j
    p = Step(0.0, 1.0)
    ref = rk4_log_derivative(p, z, "right", 2.0)
    mv = interior_m("right", p, z, OPTS)
    assert abs(mv.m - ref) < 1e-9


def test_interior_rejects_real_z():
    with pytest.raises(ValueError):
        interior_m("right", Zero(), 4.0, OPTS)


def test_boundary_free_line():
    for side in ("left", "right"):
        mv = boundary_m(side, Zero(), 4.0, OPTS)
        assert abs(mv.m - 2j) < 1e-12
    mv = boundary_m("right", Zero(), -1.0, OPTS)
    assert abs(mv.m - (-1.0)) < 1e-12


def test_boundary_barrier_two_interface_oracle():
    # outgoing wave matched analytically through the single barrier slab:
    # u(x) = cosh(kappa (x - w)) + (i k / kappa) sinh(kappa (x - w)) inside
    lam, height, w = 1.0, 2.0, 0.5
    k = math.sqrt(lam)
    kappa = math.sqrt(height - lam)
    u0 = math.cosh(kappa * w) - 1j * (k / kappa) * math.sinh(kappa * w)
    du0 = -kappa * math.sinh(kappa * w) + 1j * k * math.cosh(kappa * w)
    ref = du0 / u0
    assert ref == pytest.approx(-0.761594155955765 + 0.6480542736638853j, abs=1e-15)
    mv = boundary_m("right", SquareBarrier(height=height, half_width=w), lam, OPTS)
    assert abs(mv.m - ref) < 1e-9
    assert mv.m.imag > 0


def test_boundary_barrier_left_right_symmetry():
    p = SquareBarrier(height=2.0, half_width=0.5)
    ml = boundary_m("left", p, 1.0, OPTS)
    mr = boundary_m("right", p, 1.0, OPTS)
    assert abs(ml.m - mr.m) < 1e-9


def test_boundary_poschl_teller_closed_forms():
    # factorization ladder: m(lambda) = i (lambda + 1)/sqrt(lambda) for nu=1
    # and i sqrt(lambda) (lambda + 4)/(lambda + 1) for nu=2, both sides
    for lam in (0.5, 1.0, 3.0, 8.0):
        ref = 1j * (lam + 1.0) / math.sqrt(lam)
        for side in ("left", "right"):
            mv = boundary_m(side, PoschlTeller(nu=1), lam, OPTS)
            assert abs(mv.m - ref) < max(1e-8, 10 * mv.err_estimate)
    for lam in (0.5, 2.0, 8.0):
        ref = 1j * math.sqrt(lam) * (lam + 4.0) / (lam + 1.0)
        mv = boundary_m("right", PoschlTeller(nu=2), lam, OPTS)
        assert abs(mv.m - ref) < max(1e-8, 10 * mv.err_estimate)


def test_boundary_truncated_poschl_teller_fast_path():
    p = truncated(PoschlTeller(nu=1), 1e-12)
    mv = boundary_m("right", p, 1.0, OPTS)
    assert abs(mv.m - 2j) < 1e-9


def test_ac_density_values():
    assert ac_density("right", Zero(), 9.0, OPTS) == pytest.approx(3.0, abs=1e-12)
    assert ac_density("right", Zero(), -1.0, OPTS) == 0.0
    # nu=1 closed form gives Im m = (lambda+1)/sqrt(lambda) = 2 at lambda = 1
    got = ac_density("left", PoschlTeller(nu=1), 1.0, OPTS)
    assert got > 0
    assert got == pytest.approx(2.0, abs=1e-8)


def test_ac_density_epsilon_ladder_stability():
    # brute-force ladder: Im m(lambda + i eps) must approach the boundary value
    lam = 1.0
    vals = [
        _m_halfline("left", PoschlTeller(nu=1), complex(lam, e), OPTS, 1e-10, 1e-12).imag
        for e in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    ]
    gaps = [abs(v - 2.0) for v in vals]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5


def test_herglotz_positivity_random():
    rng = np.random.default_rng(42)
    pool = [
        Zero(),
        SquareBarrier(height=2.0, half_width=0.5),
        SquareBarrier(height=-4.0, half_width=1.0),
        Step(0.0, 1.0),
        GaussianBump(amplitude=1.0, sigma=1.0),
        truncated(PoschlTeller(nu=1), 1e-10),
        Sampled(xs=[-1.0, 0.0, 1.0], vs=[0.5, -1.0, 0.5]),
    ]
    for _ in range(100):
        p = pool[rng.integers(len(pool))]
        z = complex(rng.uniform(-5, 10), rng.uniform(0.1, 5.0))
        side = "left" if rng.integers(2) else "right"
        mv = interior_m(side, p, z, OPTS)
        assert mv.m.imag >= -mv.err_estimate


def test_conjugation_symmetry():
    # m(conj z) = conj(m(z)); the public surface never integrates below the
    # axis, so probe the raw solver directly
    rng = np.random.default_rng(7)
    pool = [Zero(), SquareBarrier(height=2.0, half_width=0.5), GaussianBump(amplitude=1.0, sigma=1.0)]
    for _ in range(20):
        p = pool[rng.integers(len(pool))]
        z = complex(rng.uniform(-2, 8), rng.uniform(0.1, 3.0))
        side = "left" if rng.integers(2) else "right"
        up = _m_halfline(side, p, z, OPTS, 1e-10, 1e-12)
        down = _m_halfline(side, p, z.conjugate(), OPTS, 1e-10, 1e-12)
        assert abs(down - up.conjugate()) <= 1e-9


def test_boundary_err_estimate_scaling():
    # halving the relative tolerance moves the answer by less than 10x err
    p = SquareBarrier(height=2.0, half_width=0.5)
    for lam in (0.7, 1.0, 4.0):
        coarse = boundary_m("right", p, lam, OPTS)
        fine = boundary_m(
            "right", p, lam, SolverOptions(rel_ode_tol=OPTS.rel_ode_tol / 2, abs_ode_tol=OPTS.abs_ode_tol / 2)
        )
        assert abs(fine.m - coarse.m) < 10 * coarse.err_estimate + 1e-14


def test_extrapolation_divergence_at_band_edge():
    # the half-line m of the sech^2 well blows up like lambda^(-1/2) at the
    # band edge, so the eps ladder cannot settle there
    with pytest.raises(ExtrapolationDivergence):
        boundary_m("right", PoschlTeller(nu=1), 0.0, OPTS)


def test_node_at_origin_at_dirichlet_eigenvalue():
    # bisect 1/m to the half-line bound state of a square well; the solver must
    # refuse to divide by the vanishing u(0) once we land on it
    well = SquareBarrier(height=-5.0, half_width=1.0)

    def inv_m(lam):
        return (1.0 / _m_halfline("right", well, complex(lam), OPTS, 1e-10, 1e-12)).real

    a, b = -0.94, -0.92
    fa = inv_m(a)
    assert np.sign(fa) != np.sign(inv_m(b))
    with pytest.raises(NodeAtOrigin):
        while True:
            c = 0.5 * (a + b)
            if c == a or c == b:
                raise AssertionError("bisection exhausted without hitting the pole")
            fc = inv_m(c)
            if np.sign(fc) == np.sign(fa):
                a, fa = c, fc
            else:
                b = c


class _PoisonedPotential(Zero):
    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x > 0.4) & (x < 0.6), np.nan, 0.0)
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return 1.0

    def tolerance_radius(self, tol):
        return 1.0


def test_ode_step_failure_on_unintegrable_values():
    with pytest.raises(OdeStepFailure):
        boundary_m("right", _PoisonedPotential(), 2.0, OPTS)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(rel_ode_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(eps_ladder=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        SolverOptions(renorm_interval=0)


def test_side_validation():
    with pytest.raises(ValueError):
        boundary_m("up", Zero(), 1.0, OPTS)


LANE_POTENTIALS = [
    SquareBarrier(height=2.0, half_width=0.5),
    Sampled(xs=[-2.0, -1.0, 0.0, 1.0, 2.0], vs=[0.0, 1.0, 2.0, 1.0, 0.0]),
    GaussianBump(amplitude=1.0, sigma=1.0),
    truncated(PoschlTeller(nu=2), 1e-12),
    Step(0.0, 1.0),
]


@pytest.mark.parametrize("p", LANE_POTENTIALS, ids=lambda p: type(p).__name__)
def test_sweep_lanes_independent(p):
    # a lane must not feel the rest of its batch: the sweep equals one-energy
    # boundary_m bit for bit, and reversing or subsetting the grid moves no lane
    grid = np.array([0.3, 1.7, 4.4, 8.8])
    m_l, m_r, err_l, err_r = sweep(p, grid, OPTS)
    for i, lam in enumerate(grid):
        left, right = boundary_m("left", p, lam, OPTS), boundary_m("right", p, lam, OPTS)
        assert (m_l[i], err_l[i]) == (left.m, left.err_estimate)
        assert (m_r[i], err_r[i]) == (right.m, right.err_estimate)
    batch = np.array([m_l, m_r, err_l, err_r])
    assert np.array_equal(np.array(sweep(p, grid[::-1], OPTS))[:, ::-1], batch)
    assert np.array_equal(np.array(sweep(p, grid[1::2], OPTS)), batch[:, 1::2])


def test_sweep_emits_no_runtime_warnings():
    # masked lanes (finished, failed, evanescent) must stay silent, and a NaN
    # error estimate must shrink the step into OdeStepFailure, never into a
    # loop or a NaN m
    cases = [
        (PoschlTeller(nu=2), [0.2, 3.0, 9.5]),
        (SquareBarrier(height=-5.0, half_width=1.0), [-2.0, 0.5, 6.0]),
        (Step(0.0, 1.0), [0.5, 2.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p, grid in cases:
            assert all(np.all(np.isfinite(values)) for values in sweep(p, grid, OPTS))
        with pytest.raises(OdeStepFailure, match="underflow"):
            sweep(_PoisonedPotential(), [1.0, 2.0], OPTS)


def test_sweep_error_names_first_failing_energy():
    # every right-side lane of the poisoned potential fails; the error is the
    # first one in grid order, whichever lane failed first in time
    with pytest.raises(OdeStepFailure, match=r"side=right, z=\(3\+0j\)"):
        sweep(_PoisonedPotential(), [3.0, 1.0, 2.0], OPTS)
    with pytest.raises(ExtrapolationDivergence, match=r"lambda=0\.0 \(side=left\)"):
        sweep(PoschlTeller(nu=1), [2.0, 0.0, 1.0], OPTS)
