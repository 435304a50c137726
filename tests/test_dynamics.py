import gc
import math
import weakref

import numpy as np
import pytest

from weylscatter import (
    BoundaryLeak,
    GaussianBump,
    InvalidPacket,
    NotConverged,
    PacketSpec,
    PoschlTeller,
    Sampled,
    SplitStepPropagator,
    SquareBarrier,
    Zero,
    evolve_packet,
    momentum_density,
    predicted_reflection,
    truncated,
)
from weylscatter import dynamics
from weylscatter.dynamics import MAX_PACKET_POINTS, plan_packet

FREE_SPEC = PacketSpec(
    x0=-40.0, k0=2.0, sigma_x=4.0, half_length=120.0, n_points=1024, dt=0.005, t_max=80.0
)
BARRIER_SPEC = PacketSpec(
    x0=-60.0, k0=1.0, sigma_x=8.0, half_length=200.0, n_points=2048, dt=0.005, t_max=150.0
)


def _box_spec(half_length, n_points, dt=0.01):
    """A PacketSpec that sets only what the propagator reads: its box, grid and step."""
    return PacketSpec(x0=-1.0, k0=1.0, sigma_x=1.0, half_length=half_length, n_points=n_points, dt=dt, t_max=1.0)


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
    # 2**44 points used to pass both checks; no array is built here
    for n_points in (2 * MAX_PACKET_POINTS, 2**44):
        with pytest.raises(InvalidPacket, match=f"from 2 to {MAX_PACKET_POINTS}"):
            PacketSpec(x0=-40, k0=2.0, sigma_x=4.0, half_length=120, n_points=n_points, dt=0.005, t_max=10)


def test_free_packet_transmits():
    res = evolve_packet(Zero(), FREE_SPEC)
    assert res.left_mass <= 1e-6
    assert res.right_mass == pytest.approx(1.0, abs=1e-6)
    assert res.norm_drift <= 1e-8
    assert predicted_reflection(Zero(), FREE_SPEC) <= 1e-10


def test_barrier_packet_matches_prediction():
    p = SquareBarrier(height=2.0, half_width=0.5)
    res = evolve_packet(p, BARRIER_SPEC)
    predicted = predicted_reflection(p, BARRIER_SPEC)
    assert abs(res.left_mass - predicted) <= 1e-2
    # band center value: closed-form barrier transmit 0.41997 at lambda = 1
    assert predicted == pytest.approx(1.0 - 0.4199743416140261, abs=5e-3)
    assert res.left_mass + res.right_mass == pytest.approx(1.0, abs=1e-6)


def test_poschl_teller_packet_reflectionless():
    spec = PacketSpec(
        x0=-60.0, k0=1.5, sigma_x=8.0, half_length=200.0, n_points=2048, dt=0.005, t_max=150.0
    )
    p = truncated(PoschlTeller(nu=1), 1e-12)
    res = evolve_packet(p, spec)
    assert res.left_mass <= 1e-3
    assert predicted_reflection(p, spec) <= 1e-6


def test_stepper_norm_preservation_long_run():
    prop = SplitStepPropagator(Zero(), _box_spec(120.0, 1024, 0.005))
    psi = prop.initial_packet(FREE_SPEC)
    n0 = prop.norm_sq(psi)
    psi = prop.step(psi, 10_000)
    assert abs(prop.norm_sq(psi) - n0) <= 1e-10


# the barrier's half phase differs from 1 on at most 2 rows of the split work
# array (n1 the largest divisor of n_points not above its square root), so its
# steps are joined by the rank update; the wide bump's differs from 1 over
# |x| < 38, many rows, so it takes the plain one-FFT step
NARROW = SquareBarrier(height=2.0, half_width=0.5)
WIDE = GaussianBump(amplitude=1.0, sigma=1.0)
# n_points -> (n1, rows of the barrier's rank update); the bump keeps n1 = 1
LAYOUTS = {1024: (32, 2), 2048: (32, 2), 4096: (64, 2), 8192: (64, 2), 16384: (128, 2)}


@pytest.mark.parametrize("n_points", sorted(LAYOUTS))
def test_step_layout(n_points):
    n1, rank = LAYOUTS[n_points]
    narrow = SplitStepPropagator(NARROW, _box_spec(60.0, n_points))
    assert narrow._shape == (n1, n_points // n1)
    assert narrow._rank_update.phase_minus_one.shape[0] == rank
    wide = SplitStepPropagator(WIDE, _box_spec(60.0, n_points))
    assert wide._shape == (1, n_points)
    assert wide._rank_update is None


@pytest.mark.parametrize("n_points", [2, 2048, 8192, 16384])
def test_step_matches_plain_strang_step(n_points):
    # the rank path splits each FFT in four steps; the plain path must
    # reproduce the one-FFT Strang step bit for bit
    for potential in (NARROW, WIDE):
        prop = SplitStepPropagator(potential, _box_spec(60.0, n_points))
        rng = np.random.default_rng(n_points)
        psi = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        original = psi.copy()
        half_potential = np.exp(-0.5j * prop.dt * prop.v)
        kinetic = np.exp(-1j * prop.dt * prop.k**2)
        expected = psi
        for _ in range(50):
            expected = half_potential * expected
            # a named spectrum keeps numpy from reusing a temporary of 256 KiB
            # or more as the product's output, which swaps its operands; with
            # FMA the complex product is not bitwise commutative
            spectrum = np.fft.fft(expected)
            expected = np.fft.ifft(kinetic * spectrum)
            expected = half_potential * expected
        result = prop.step(psi, 50)
        assert result.shape == (n_points,)
        assert np.array_equal(psi, original)
        assert float(np.max(np.abs(result - expected))) <= 1e-12, potential
        if prop._rank_update is None:
            assert np.array_equal(result, expected), potential


@pytest.mark.parametrize(
    "potential, n_points, expected",
    [(NARROW, 16384, 52), (WIDE, 16384, 50), (NARROW, 2048, 52), (NARROW, 4096, 52)],
    ids=["narrow", "wide", "narrow_2048", "narrow_4096"],
)
def test_fft_calls_per_batch(potential, n_points, expected, monkeypatch):
    # 2n + 2 FFTs for n steps on the rank path, two per step on the plain one
    prop = SplitStepPropagator(potential, _box_spec(60.0, n_points))
    psi = prop.initial_packet(FREE_SPEC)
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _f=transform, **kw: calls.append(1) or _f(*a, **kw))
    prop.step(psi, 25)
    assert len(calls) == expected


@pytest.mark.parametrize("n_points", [1024, 16384])
def test_dropped_propagator_is_freed_without_cycle_collection(n_points):
    # a propagator holds several n-point arrays; a reference cycle through it
    # would keep each dropped one alive until the next cyclic collection
    gc.disable()
    try:
        prop = SplitStepPropagator(NARROW, _box_spec(300.0, n_points))
        prop.step(prop.initial_packet(FREE_SPEC), 2)
        ref = weakref.ref(prop)
        del prop
        assert ref() is None
    finally:
        gc.enable()


def test_time_reversal_recovers_initial_packet():
    prop = SplitStepPropagator(SquareBarrier(height=2.0, half_width=0.5), BARRIER_SPEC)
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
    prop = SplitStepPropagator(p, BARRIER_SPEC)
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


def test_packet_spec_reads_fields_by_annotation():
    fields = dict(x0=-40, k0=2.0, sigma_x=4.0, half_length=120, dt=0.005, t_max=10)
    spec = PacketSpec(n_points=4096.0, **fields)
    assert spec.n_points == 4096 and isinstance(spec.n_points, int)
    for value in (True, "4096", 4096.5):
        with pytest.raises(ValueError, match="n_points"):
            PacketSpec(n_points=value, **fields)


def test_propagator_reads_fields_by_annotation():
    # the propagator reads its grid and step from a PacketSpec alone, whose
    # fields were read by annotation; a grid no PacketSpec holds cannot reach it
    prop = SplitStepPropagator(Zero(), _box_spec(60, 1024.0))
    assert prop.n_points == 1024 and isinstance(prop.n_points, int)
    assert isinstance(prop.dx, float) and isinstance(prop.dt, float)
    cases = [
        ((60.0, 1024.7, 0.01), "n_points"),
        ((True, 1024, 0.01), "half_length"),
        ((60.0, 1024, math.nan), "dt"),
        ((60.0, 1024, "0.01"), "dt"),
        ((0.0, 1024, 0.01), "positive"),
        ((60.0, 0, 0.01), "power of two"),
        ((60.0, 1000, 0.01), "power of two"),
        ((60.0, 1024, -0.01), "positive"),
    ]
    for args, name in cases:
        with pytest.raises(InvalidPacket, match=name):
            _box_spec(*args)


# the default packets of the benchmark's smooth potentials; each gap is
# |left_mass - predicted_reflect|
GAUSSIAN = GaussianBump(amplitude=1.0, sigma=1.0)
PT2_TRUNCATED = truncated(PoschlTeller(nu=2), 1e-12)


def _default_packet(p, **packet):
    return plan_packet(p, packet)


def _gap(p, spec):
    return abs(evolve_packet(p, spec).left_mass - predicted_reflection(p, spec))


@pytest.mark.parametrize("p, bound", [(GAUSSIAN, 1e-5), (PT2_TRUNCATED, 1e-8)], ids=["gaussian", "pt2"])
def test_node_samples_resolve_smooth_potentials(p, bound):
    # cell averages shift V by dx^2 V''/24 and read 2.45e-4 and 3.5e-7 here
    assert _gap(p, _default_packet(p, dt=0.01)) <= bound


def test_smooth_gap_falls_as_dt_squared():
    # with V's O(dx^2) cell-average error gone the gap is the split step's
    # own O(dt^2) error: about 4x per halving of dt
    gaps = [_gap(GAUSSIAN, _default_packet(GAUSSIAN, dt=dt)) for dt in (0.04, 0.02, 0.01)]
    assert _default_packet(GAUSSIAN).n_points == 1024
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.0 <= coarse / fine <= 5.0, gaps


def test_cells_holding_a_breakpoint_take_the_cell_mean():
    # dx = 0.25, so nodes and cell edges are exact: a breakpoint on node 3
    # lies in cell 3 only, one on the edge between cells 40 and 41 in both
    class Marked(GaussianBump):
        def breakpoints(self):
            return (-8.0 + 3 * 0.25, -8.0 + 40.5 * 0.25)

        def mean_value(self, a, b):
            return np.full(np.shape(a), -1.0)

    prop = SplitStepPropagator(Marked(amplitude=1.0, sigma=3.0), _box_spec(8.0, 64))
    assert np.flatnonzero(prop.v == -1.0).tolist() == [3, 40, 41]
    others = prop.v != -1.0
    assert np.array_equal(prop.v[others], GaussianBump(amplitude=1.0, sigma=3.0).value(prop.x[others]))


def _d4_draw(index):
    """Draw `index` of the ten random sampled potentials of ROADMAP D4."""
    rng = np.random.default_rng(20261020)
    for _ in range(index + 1):
        k = rng.integers(3, 9)
        xs = np.sort(rng.uniform(-3, 3, k))
        vs = rng.uniform(-3, 4, k)
    vs[0] = vs[-1] = 0.0
    return Sampled(xs=xs, vs=vs)


ROUGH = {
    "barrier": SquareBarrier(height=2.0, half_width=0.5),
    "well": SquareBarrier(height=-3.0, half_width=1.2, center=0.4),
    "sampled": Sampled(xs=[-2.0, -1.0, 0.0, 1.0, 2.0], vs=[0.0, 1.0, 2.0, 1.0, 0.0]),
    "d4_draw_3": _d4_draw(3),
    "d4_draw_5": _d4_draw(5),
    "gaussian_4_0.3": GaussianBump(amplitude=4.0, sigma=0.3),
    "gaussian_6_0.2": GaussianBump(amplitude=6.0, sigma=0.2),
}


# the packets the CLI planned before the planning moved into dynamics, field by field
PLANNED = {
    "barrier": (ROUGH["barrier"], {}, dict(x0=-32.5, half_length=132.5, n_points=1024, dt=0.01, t_max=297.0)),
    "gaussian": (
        GAUSSIAN,
        {},
        dict(x0=-39.43384437769968, half_length=139.43384437769967, n_points=1024, dt=1 / 24, t_max=321.9618397597188),
    ),
    "pt2": (
        PT2_TRUNCATED,
        {},
        dict(x0=-47.404537473138205, half_length=147.4045374731382, n_points=1024, dt=1 / 56, t_max=350.6563349032975),
    ),
    "sampled": (ROUGH["sampled"], {}, dict(x0=-34.0, half_length=134.0, n_points=1024, dt=0.01, t_max=302.4)),
    "barrier_resolved": (
        ROUGH["barrier"],
        {"half_length": 300, "n_points": 16384},
        dict(x0=-32.5, half_length=300.0, n_points=16384, dt=0.01, t_max=598.5),
    ),
}


@pytest.mark.parametrize("name", sorted(PLANNED))
def test_planned_packet_fields(name):
    p, given, expected = PLANNED[name]
    assert plan_packet(p, given) == PacketSpec(k0=1.5, sigma_x=6.0, **expected)


@pytest.mark.parametrize(
    "given, message",
    [
        ({"half_length": 1e9}, f"from 2 to {MAX_PACKET_POINTS}"),
        ({"n_points": 2 * MAX_PACKET_POINTS}, f"from 2 to {MAX_PACKET_POINTS}"),
        ({"x0": 0.0}, "zero-tail region"),
        ({"n_points": 128}, "too small"),
    ],
    ids=["half_length", "n_points", "x0", "coarse"],
)
def test_refused_packet_builds_no_grid(given, message, monkeypatch):
    # half_length 1e9 used to derive 2**32 points and sample V on them in
    # default_dt; a packet validate_against refuses samples no V either
    def no_grid(spec):
        raise AssertionError(f"grid of {spec.n_points} points built")

    monkeypatch.setattr(dynamics, "_grid", no_grid)
    with pytest.raises(InvalidPacket, match=message):
        plan_packet(ROUGH["barrier"], given)


def test_plan_packet_refuses_unknown_fields():
    with pytest.raises(ValueError, match="unknown packet fields: trace_stride"):
        plan_packet(ROUGH["barrier"], {"trace_stride": 1})


# the default packet grid and the 8192-point one of the drift pins
GRIDS = {"default": {}, "8192": {"half_length": 300.0, "n_points": 8192}}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", ["barrier", "sampled"])
def test_piecewise_linear_v_is_every_cell_mean(name, grid):
    # constant and linear pieces average to their node value, so the V of
    # the pinned barrier and sampled packets keeps its bits
    p, packet = ROUGH[name], GRIDS[grid]
    spec = _default_packet(p, **packet)
    prop = SplitStepPropagator(p, spec)
    assert spec.n_points == packet.get("n_points", 1024)
    assert np.array_equal(prop.v, p.mean_value(prop.x - 0.5 * prop.dx, prop.x + 0.5 * prop.dx))


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("name", sorted(ROUGH))
def test_rough_potentials_keep_the_default_step(name, grid):
    # jumps, kinks and bumps narrow on the packet's scale feed momenta whose
    # phase dt k^2 a longer step would alias; a narrow bump has no breakpoint
    assert _default_packet(ROUGH[name], **GRIDS[grid]).dt == 0.01


@pytest.mark.parametrize("p, steps", [(GAUSSIAN, 6), (PT2_TRUNCATED, 14)], ids=["gaussian", "pt2"])
def test_smooth_potentials_take_a_longer_step(p, steps):
    # dt = 0.25 / m, the largest with dt * max(k_loc^2, max |V|) <= 0.2:
    # k_loc^2 = (1.5 + 4/6)^2 = 4.69, plus 6 in PT's well
    for packet in GRIDS.values():
        assert _default_packet(p, **packet).dt == 0.25 / steps


def test_explicit_dt_wins():
    assert _default_packet(GAUSSIAN, dt=0.005).dt == 0.005
    assert _default_packet(ROUGH["barrier"], dt=0.02).dt == 0.02
