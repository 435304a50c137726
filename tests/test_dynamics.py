import math

import numpy as np
import pytest

from weylscatter import (
    BoundaryLeak,
    NotConverged,
    PacketSpec,
    PoschlTeller,
    SplitStepPropagator,
    SquareBarrier,
    Zero,
    evolve_packet,
    momentum_density,
    predicted_reflection,
    truncated,
)

FREE_SPEC = PacketSpec(
    x0=-40.0, k0=2.0, sigma_x=4.0, half_length=120.0, n_points=1024, dt=0.005, t_max=80.0
)
BARRIER_SPEC = PacketSpec(
    x0=-60.0, k0=1.0, sigma_x=8.0, half_length=200.0, n_points=2048, dt=0.005, t_max=150.0
)


def test_momentum_density_gaussian_profile():
    k, rho = momentum_density(FREE_SPEC)
    dk = k[1] - k[0]
    assert float(np.sum(rho) * dk) == pytest.approx(1.0, abs=1e-10)
    s2 = FREE_SPEC.sigma_x**2
    for target in (1.8, 2.0, 2.2):
        i = int(np.argmin(np.abs(k - target)))
        analytic = math.sqrt(2.0 * s2 / math.pi) * math.exp(-2.0 * s2 * (k[i] - FREE_SPEC.k0) ** 2)
        assert rho[i] == pytest.approx(analytic, rel=1e-6)
    assert float(np.sum(rho[k < 0]) * dk) <= 1e-10


def test_packet_spec_validation():
    with pytest.raises(ValueError):
        PacketSpec(x0=-40, k0=2.0, sigma_x=4.0, half_length=120, n_points=1000, dt=0.005, t_max=10)
    with pytest.raises(ValueError):
        PacketSpec(x0=-40, k0=-1.0, sigma_x=4.0, half_length=120, n_points=1024, dt=0.005, t_max=10)
    narrow = PacketSpec(x0=-40, k0=0.5, sigma_x=4.0, half_length=120, n_points=1024, dt=0.005, t_max=10)
    with pytest.raises(ValueError):
        narrow.validate_against(Zero())  # k0 sigma < 4
    overlapping = PacketSpec(x0=-1.0, k0=2.0, sigma_x=4.0, half_length=120, n_points=1024, dt=0.005, t_max=10)
    with pytest.raises(ValueError):
        overlapping.validate_against(SquareBarrier(height=2.0, half_width=0.5))


def test_free_packet_transmits():
    res = evolve_packet(Zero(), FREE_SPEC)
    assert res.left_mass <= 1e-6
    assert res.right_mass == pytest.approx(1.0, abs=1e-6)
    assert res.norm_drift <= 1e-8
    assert res.predicted_reflect <= 1e-10


def test_barrier_packet_matches_prediction():
    res = evolve_packet(SquareBarrier(height=2.0, half_width=0.5), BARRIER_SPEC)
    assert abs(res.left_mass - res.predicted_reflect) <= 1e-2
    # band center value: closed-form barrier transmit 0.41997 at lambda = 1
    assert res.predicted_reflect == pytest.approx(1.0 - 0.4199743416140261, abs=5e-3)
    assert res.left_mass + res.right_mass == pytest.approx(1.0, abs=1e-6)


def test_poschl_teller_packet_reflectionless():
    spec = PacketSpec(
        x0=-60.0, k0=1.5, sigma_x=8.0, half_length=200.0, n_points=2048, dt=0.005, t_max=150.0
    )
    res = evolve_packet(truncated(PoschlTeller(nu=1), 1e-12), spec)
    assert res.left_mass <= 1e-3
    assert res.predicted_reflect <= 1e-6


def test_stepper_norm_preservation_long_run():
    prop = SplitStepPropagator(Zero(), 120.0, 1024, 0.005)
    psi = prop.initial_packet(FREE_SPEC)
    n0 = prop.norm_sq(psi)
    psi = prop.step(psi, 10_000)
    assert abs(prop.norm_sq(psi) - n0) <= 1e-10


@pytest.mark.parametrize("n_points", [2, 1000, 2048, 8192, 8209, 10000, 16384])
def test_step_matches_plain_strang_step(n_points):
    # from 8192 points the propagator splits each FFT in four steps; below
    # that it must reproduce the plain one-FFT step bit for bit
    prop = SplitStepPropagator(SquareBarrier(height=2.0, half_width=0.5), 60.0, n_points, 0.01)
    rng = np.random.default_rng(n_points)
    psi = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    original = psi.copy()
    half_potential = np.exp(-0.5j * prop.dt * prop.v)
    kinetic = np.exp(-1j * prop.dt * prop.k**2)
    expected = psi
    for _ in range(50):
        expected = half_potential * expected
        expected = np.fft.ifft(kinetic * np.fft.fft(expected))
        expected = half_potential * expected
    result = prop.step(psi, 50)
    assert result.shape == (n_points,)
    assert np.array_equal(psi, original)
    assert float(np.max(np.abs(result - expected))) <= 1e-12
    if n_points < 8192:
        assert np.array_equal(result, expected)


def test_time_reversal_recovers_initial_packet():
    prop = SplitStepPropagator(SquareBarrier(height=2.0, half_width=0.5), 200.0, 2048, 0.005)
    psi0 = prop.initial_packet(BARRIER_SPEC)
    forward = prop.step(psi0.copy(), 2000)
    back = np.conj(prop.step(np.conj(forward), 2000))
    err = math.sqrt(float(np.sum(np.abs(back - psi0) ** 2) * prop.dx))
    assert err <= 1e-6


def test_cutoff_choice_independence():
    # once scattering is complete the split point can sit anywhere in the
    # zero-tail region without moving the masses
    p = SquareBarrier(height=2.0, half_width=0.5)
    res = evolve_packet(p, BARRIER_SPEC)
    prop = SplitStepPropagator(p, BARRIER_SPEC.half_length, BARRIER_SPEC.n_points, BARRIER_SPEC.dt)
    psi = prop.initial_packet(BARRIER_SPEC)
    psi = prop.step(psi, int(round(res.t_stop / BARRIER_SPEC.dt)))
    dens = np.abs(psi) ** 2
    masses = [float(np.sum(dens[prop.x < c]) * prop.dx) for c in (-3.0, -1.5, 0.0, 2.0, 3.5)]
    assert max(masses) - min(masses) <= 1e-4
    # left_mass uses the same split, up to the half-weighted origin node
    assert masses[2] == pytest.approx(res.left_mass, abs=1e-6)


def test_trace_rows_emitted():
    res = evolve_packet(Zero(), FREE_SPEC, trace_stride=1)
    assert len(res.trace) >= 2
    t_prev = -1.0
    for t, lm, rm, im in res.trace:
        assert t > t_prev
        assert 0.0 <= lm <= 1.0 + 1e-9 and 0.0 <= rm <= 1.0 + 1e-9
        assert im >= 0.0
        t_prev = t


def test_predicted_reflection_standalone():
    val = predicted_reflection(SquareBarrier(height=2.0, half_width=0.5), BARRIER_SPEC)
    assert 0.5 < val < 0.7


def test_boundary_leak_detected():
    spec = PacketSpec(
        x0=-30.0, k0=2.0, sigma_x=4.0, half_length=50.0, n_points=1024, dt=0.005, t_max=60.0
    )
    with pytest.raises(BoundaryLeak):
        evolve_packet(Zero(), spec)


def test_not_converged_at_short_t_max():
    spec = PacketSpec(
        x0=-40.0, k0=2.0, sigma_x=4.0, half_length=120.0, n_points=1024, dt=0.005, t_max=2.0
    )
    with pytest.raises(NotConverged):
        evolve_packet(Zero(), spec)
