import cmath
import math
import warnings

import numpy as np
import pytest

from weylscatter import (
    GaussianBump,
    NodeAtOrigin,
    OdeStepFailure,
    PoschlTeller,
    Potential,
    Sampled,
    SolverOptions,
    SpectralSingularity,
    SquareBarrier,
    Step,
    Zero,
    boundary_m,
    interior_m,
    sweep,
    truncated,
)
from weylscatter.weyl import _COLUMNS, _NODES, _integrate

OPTS = SolverOptions()


def one_lane(side, p, z, rtol=OPTS.rel_ode_tol, atol=OPTS.abs_ode_tol):
    """m from one lane of the kernel at these tolerances, any complex z; raises the lane's error."""
    m, failures = _integrate(
        p, np.array([complex(z)]), np.array([side == "right"]), np.array([rtol]), np.array([atol]), OPTS
    )
    if failures[0] is not None:
        raise failures[0]
    return complex(m[0])


def columns(pair):
    """The (left, right) MValue columns of a sweep as one array: m_l, m_r, err_l, err_r."""
    m_l, m_r = pair
    return np.array([m_l.m, m_r.m, m_l.err_estimate, m_r.err_estimate])


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
    # near the threshold m is large (nu=1) or small (nu=2); a plain bound,
    # with no error-bar allowance
    for lam in (1e-4, 1e-3, 1e-2, 0.05):
        for side in ("left", "right"):
            mv = boundary_m(side, PoschlTeller(nu=1), lam, OPTS)
            assert abs(mv.m - 1j * (lam + 1.0) / math.sqrt(lam)) < 1e-8
            mv = boundary_m(side, PoschlTeller(nu=2), lam, OPTS)
            assert abs(mv.m - 1j * math.sqrt(lam) * (lam + 4.0) / (lam + 1.0)) < 1e-8


def test_boundary_truncated_poschl_teller_fast_path():
    p = truncated(PoschlTeller(nu=1), 1e-12)
    mv = boundary_m("right", p, 1.0, OPTS)
    assert abs(mv.m - 2j) < 1e-9


def test_ac_density_values():
    # the a.c. density of the half-line spectral measure is Im m(lambda + i0)
    assert boundary_m("right", Zero(), 9.0, OPTS).m.imag == pytest.approx(3.0, abs=1e-12)
    assert boundary_m("right", Zero(), -1.0, OPTS).m.imag == 0.0
    # nu=1 closed form gives Im m = (lambda+1)/sqrt(lambda) = 2 at lambda = 1
    got = boundary_m("left", PoschlTeller(nu=1), 1.0, OPTS).m.imag
    assert got > 0
    assert got == pytest.approx(2.0, abs=1e-8)


def test_ac_density_epsilon_ladder_stability():
    # brute-force ladder: Im m(lambda + i eps) must approach the boundary value
    lam = 1.0
    vals = [
        one_lane("left", PoschlTeller(nu=1), complex(lam, e)).imag
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
        up = one_lane(side, p, z)
        down = one_lane(side, p, z.conjugate())
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


def test_spectral_singularity_at_band_edge():
    # the half-line m of the sech^2 well blows up like lambda^(-1/2) at the
    # band edge, so the solves at two tolerances disagree at leading order
    with pytest.raises(SpectralSingularity, match=r"lambda=0\.0 \(side=right\)"):
        boundary_m("right", PoschlTeller(nu=1), 0.0, OPTS)
    # -1 is the half-line Dirichlet eigenvalue of the nu=2 well: u(0) = 0
    with pytest.raises(SpectralSingularity, match=r"lambda=-1\.0 \(side=right\)"):
        boundary_m("right", PoschlTeller(nu=2), -1.0, OPTS)


def test_node_at_origin_at_dirichlet_eigenvalue():
    # bisect 1/m to the half-line bound state of a square well; the solver must
    # refuse to divide by the vanishing u(0) once we land on it
    well = SquareBarrier(height=-5.0, half_width=1.0)

    def inv_m(lam):
        return (1.0 / one_lane("right", well, lam)).real

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


def test_tableau_order_conditions():
    # the kernel's coefficients, read back from the columns it multiplies:
    # a transcription error in any of them breaks one of these identities
    sums = np.zeros((14, 12))
    for j, column in enumerate(_COLUMNS):
        assert np.all(column != 0)  # every column is one run of nonzero entries
        sums[j : j + column.shape[0], j] = column[:, 0].real
    a, b, e5, e3 = sums[:11], sums[11], sums[12], sums[13]
    c = np.concatenate([[0.0], _NODES[:, 0]])
    assert np.unique(c[1:]).size == c.size - 1 == 11
    # each bound is a few ulps of the largest coefficient in its sums (43 in a
    # row of A, 5.8 in b, 1.7 in the error weights)
    np.testing.assert_allclose(a.sum(axis=1), c[1:], rtol=0, atol=1e-14)
    for k in range(1, 9):
        assert abs(b @ c ** (k - 1) - 1 / k) < 4e-15, k
    assert abs(e5.sum()) < 2e-15
    assert abs(e3.sum()) < 2e-15


def _barrier_m(lam, height=2.0, w=0.5):
    # the two-interface closed form of test_boundary_barrier_two_interface_oracle,
    # continued to energies above the barrier by a complex kappa
    k, kappa = math.sqrt(lam), cmath.sqrt(height - lam)
    u0 = cmath.cosh(kappa * w) - 1j * (k / kappa) * cmath.sinh(kappa * w)
    du0 = -kappa * cmath.sinh(kappa * w) + 1j * k * cmath.cosh(kappa * w)
    return du0 / u0


@pytest.mark.parametrize(
    "p, closed_form",
    [
        (PoschlTeller(nu=1), lambda lam: 1j * (lam + 1.0) / math.sqrt(lam)),
        (PoschlTeller(nu=2), lambda lam: 1j * math.sqrt(lam) * (lam + 4.0) / (lam + 1.0)),
        (SquareBarrier(height=2.0, half_width=0.5), _barrier_m),
    ],
    ids=["pt1", "pt2", "barrier"],
)
def test_sweep_near_closed_forms_on_drift_grid(p, closed_form):
    # an accuracy guard for the kernel and its tolerance scale, on the energies
    # of tests/test_drift.py: the drift pins bound m only by its own err
    grid = [0.23, 1.41, 2.67, 3.9, 5.15, 6.33, 7.58, 9.71]
    m_l, m_r = sweep(p, grid, OPTS)
    exact = np.array([closed_form(lam) for lam in grid])
    assert np.abs(m_l.m - exact).max() <= 1e-13
    assert np.abs(m_r.m - exact).max() <= 1e-13


def test_sweep_attempt_passes():
    # a work guard: every attempt pass makes one V call on its block of
    # nodes, the only two-dimensional argument V sees
    class CountingWell(PoschlTeller):
        passes = 0

        def value(self, x):
            CountingWell.passes += np.ndim(x) == 2
            return super().value(x)

    sweep(CountingWell(nu=2), np.linspace(0.1, 10, 32), OPTS)
    assert 0 < CountingWell.passes <= 600


class _PoisonedPotential(Zero):
    # smooth on the left; a NaN strip on the right stops every right-side
    # lane partway in, with a step-size underflow
    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0.0, np.sin(np.pi * x) ** 2, 0.0)
        out = np.where((x > 0.4) & (x < 0.6), np.nan, out)
        return out if out.ndim else float(out)

    def tolerance_radius(self, tol):
        return 1.0


def test_ode_step_failure_on_unintegrable_values():
    with pytest.raises(OdeStepFailure):
        boundary_m("right", _PoisonedPotential(), 2.0, OPTS)


def test_failed_lanes_leave_survivors_exact():
    # right-side lanes fail partway in while left-side lanes at very different
    # energies and tolerances run on: each survivor equals its one-lane solve
    # bit for bit, and each failure stays at its own input index
    p = _PoisonedPotential()
    z = np.array([0.3, 40.0, 8.8, 0.3, 2.0 + 1.0j, 40.0, 1e-3, 8.8], dtype=complex)
    right = np.array([True, False, True, False, False, True, False, False])
    scale = np.array([1.0, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0, 0.5])
    rtol, atol = OPTS.rel_ode_tol * scale, OPTS.abs_ode_tol * scale
    m, failures = _integrate(p, z, right, rtol, atol, OPTS)
    for i in range(z.size):
        if right[i]:
            assert isinstance(failures[i], OdeStepFailure)
            assert f"side=right, z={complex(z[i])}" in str(failures[i])
            assert np.isnan(m[i])
        else:
            assert failures[i] is None
            assert m[i] == one_lane("left", p, z[i], rtol[i], atol[i])


class _CountingBump(GaussianBump):
    points = 0  # V evaluations, summed over points, since the last reset

    def value(self, x):
        _CountingBump.points += np.size(x)
        return super().value(x)


def test_sweep_does_no_work_for_finished_lanes():
    # finished lanes are parked and leave the batch once half of it is done;
    # the low-energy lanes finish together, so none may ride along with the
    # high-energy ones
    def points(grid):
        _CountingBump.points = 0
        sweep(_CountingBump(amplitude=1.0, sigma=1.0), grid, OPTS)
        return _CountingBump.points

    assert points([0.3, 8.8]) == points([0.3]) + points([8.8])


MIRROR_CANDIDATES = [
    Zero(),
    PoschlTeller(nu=1),
    PoschlTeller(nu=2),
    SquareBarrier(height=2.0, half_width=0.5),
    SquareBarrier(height=-5.0, half_width=1.0),
    SquareBarrier(height=2.0, half_width=0.5, center=0.3),
    GaussianBump(amplitude=1.0, sigma=1.0),
    GaussianBump(amplitude=-4.0, sigma=0.7),
    GaussianBump(amplitude=1.0, sigma=1.0, center=-0.4),
    truncated(PoschlTeller(nu=2), 1e-12),
    truncated(GaussianBump(amplitude=1.0, sigma=1.0), 1e-10),
    truncated(GaussianBump(amplitude=1.0, sigma=1.0, center=0.5), 1e-10),
    Sampled(xs=[-2.0, -1.0, 0.0, 1.0, 2.0], vs=[0.0, 1.0, 2.0, 1.0, 0.0]),
    Step(0.0, 1.0),
]


def _mirror_id(p):
    inner = getattr(p, "inner", p)
    return f"{type(p).__name__}-{type(inner).__name__}-{getattr(inner, 'center', 0.0)}-{p.lower_bound}"


@pytest.mark.parametrize("p", MIRROR_CANDIDATES, ids=_mirror_id)
def test_mirror_symmetric_flag_means_equal_sides(p):
    # the flag lets _m_values integrate one side for both, so a potential
    # that claims it must give the two sides' lanes the same bits at every z
    centred = getattr(getattr(p, "inner", p), "center", 0.0) == 0.0
    assert p.mirror_symmetric == (centred and not isinstance(p, (Sampled, Step)))
    if not p.mirror_symmetric:
        return
    rng = np.random.default_rng(1616)
    z = np.concatenate(
        [
            rng.uniform(0.05, 12.0, 6),
            rng.uniform(-3.0, 9.0, 4) + 1j * rng.uniform(0.05, 3.0, 4),
            p.lower_bound - rng.uniform(0.1, 4.0, 4),
        ]
    ).astype(complex)
    n = z.size
    tols = np.full(2 * n, 1.0)
    m, failures = _integrate(
        p, np.r_[z, z], np.repeat([False, True], n), OPTS.rel_ode_tol * tols, OPTS.abs_ode_tol * tols, OPTS
    )
    for part in (m.real, m.imag):
        assert [float(v).hex() for v in part[:n]] == [float(v).hex() for v in part[n:]]
    assert [type(f) for f in failures[:n]] == [type(f) for f in failures[n:]]


def test_sweep_integrates_one_side_and_parks_finished_lanes(monkeypatch):
    # a mirror-symmetric potential hands the kernel its left lanes only, and
    # finished lanes are gathered out in a few batches, not one at a time
    from weylscatter import weyl

    batches, fits = [], []
    integrate, fit = weyl._integrate, weyl._Scratch.fit

    def recorded_integrate(p, z, right, rtol, atol, opts):
        batches.append(right.copy())
        return integrate(p, z, right, rtol, atol, opts)

    def recorded_fit(self, z):
        fits.append(z.size)
        fit(self, z)

    monkeypatch.setattr(weyl, "_integrate", recorded_integrate)
    monkeypatch.setattr(weyl._Scratch, "fit", recorded_fit)
    grid = np.random.default_rng(32).uniform(0.1, 10.0, 32)
    sweep(truncated(PoschlTeller(nu=2), 1e-12), grid, OPTS)
    assert len(batches) == 1 and batches[0].size == 64 and not batches[0].any()
    assert fits[0] == 64 and len(fits) <= 10
    batches.clear()
    sweep(Sampled(xs=[-2.0, -1.0, 0.0, 1.0, 2.0], vs=[0.0, 1.0, 2.0, 1.0, 0.0]), grid, OPTS)
    assert len(batches) == 1 and batches[0].size == 128 and batches[0].sum() == 64


def test_solver_options_validation():
    # an infinite tolerance passes every step and a NaN one fails every step
    for name in ("truncation_tol", "rel_ode_tol", "abs_ode_tol"):
        for value in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                SolverOptions(**{name: value})


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_energy_rejected_before_solving(lam):
    # a NaN step size never trips the underflow check: without the guard the
    # kernel spins until its step budget of two million passes runs out
    p = PoschlTeller(nu=2)
    with pytest.raises(ValueError, match="finite"):
        sweep(p, [1.0, lam], OPTS)
    with pytest.raises(ValueError, match="finite"):
        boundary_m("left", p, lam, OPTS)
    with pytest.raises(ValueError, match="finite"):
        interior_m("right", p, complex(lam, 1.0), OPTS)


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
    m_l, m_r = sweep(p, grid, OPTS)
    assert np.array_equal(m_l.z, grid) and np.array_equal(m_r.z, grid)
    for i, lam in enumerate(grid):
        left, right = boundary_m("left", p, lam, OPTS), boundary_m("right", p, lam, OPTS)
        assert m_l[i] == left and m_r[i] == right
    batch = columns((m_l, m_r))
    assert np.array_equal(columns(sweep(p, grid[::-1], OPTS))[:, ::-1], batch)
    assert np.array_equal(columns(sweep(p, grid[1::2], OPTS)), batch[:, 1::2])


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
            assert np.all(np.isfinite(columns(sweep(p, grid, OPTS))))
        with pytest.raises(OdeStepFailure, match="underflow"):
            sweep(_PoisonedPotential(), [1.0, 2.0], OPTS)


def test_sweep_error_names_first_failing_energy():
    # every right-side lane of the poisoned potential fails; the error is the
    # first one in grid order, whichever lane failed first in time
    with pytest.raises(OdeStepFailure, match=r"side=right, z=\(3\+0j\)"):
        sweep(_PoisonedPotential(), [3.0, 1.0, 2.0], OPTS)
    with pytest.raises(SpectralSingularity, match=r"lambda=0\.0 \(side=left\)"):
        sweep(PoschlTeller(nu=1), [2.0, 0.0, 1.0], OPTS)
    # truncation gives exact compact support, yet m keeps its poles: the band
    # edge 0 for nu=1 and the half-line eigenvalue -1 for nu=2
    for nu, pole in ((1, 0.0), (2, -1.0)):
        with pytest.raises(SpectralSingularity, match=rf"lambda={pole} \(side=left\)"):
            sweep(truncated(PoschlTeller(nu=nu), 1e-12), [0.5, pole, 2.0], OPTS)
