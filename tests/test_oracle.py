import math
import tracemalloc

import numpy as np
import pytest

from weylscatter import (
    DegenerateEnergy,
    EvanescentOverflow,
    GaussianBump,
    InvalidSlabWidth,
    PoschlTeller,
    Sampled,
    SquareBarrier,
    Step,
    TransferResult,
    Zero,
    boundary_pair,
    closed_form_barrier,
    spectral_reflection,
    transfer_reflection,
    transfer_reflection_grid,
    truncated,
)


def test_free_line_exact():
    res = transfer_reflection(Zero(), 2.0, 0.01)
    assert res.r_amp == 0.0
    assert res.t_amp == 1.0
    assert res.slab_count == 0


def test_barrier_matches_closed_form_exactly():
    # slab edges include the barrier's breakpoints, so the composition is the
    # exact two-interface solution regardless of slab_width
    b = SquareBarrier(height=2.0, half_width=0.5)
    reflect, transmit = closed_form_barrier(1.0, 2.0, 1.0)
    assert transmit == pytest.approx(0.4199743416140261, abs=1e-15)
    for width in (0.5, 0.01, 0.003):
        res = transfer_reflection(b, 1.0, width)
        assert res.transmit_prob == pytest.approx(transmit, abs=1e-12)
        assert res.reflect_prob == pytest.approx(reflect, abs=1e-12)


def test_barrier_above_top_closed_form():
    res = transfer_reflection(SquareBarrier(height=2.0, half_width=0.5), 2.0, 0.01)
    _, transmit = closed_form_barrier(4.0, 2.0, 1.0)
    assert res.transmit_prob == pytest.approx(transmit, abs=1e-12)


def test_closed_form_limits():
    _, transmit = closed_form_barrier(100.0, 2.0, 1.0)
    assert transmit > 0.99
    # vanishing barrier: 1 - transmit is O(V0^2) = O(1e-24), below double eps
    reflect, transmit = closed_form_barrier(1.0, 1e-12, 1.0)
    assert transmit >= 1.0 - 1e-20
    assert reflect <= 1e-20


def test_closed_form_degenerate_energy():
    with pytest.raises(DegenerateEnergy):
        closed_form_barrier(2.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_barrier(-1.0, 2.0, 1.0)


def test_poschl_teller_reflectionless():
    p = truncated(PoschlTeller(nu=1), 1e-12)
    res = transfer_reflection(p, 1.0, 0.005)
    assert res.reflect_prob <= 1e-8
    # refining the slabs keeps it at numerical zero
    finer = transfer_reflection(p, 1.0, 0.0025)
    assert finer.reflect_prob <= 1e-8


def test_flux_conservation_random():
    rng = np.random.default_rng(12)
    pool = [
        Zero(),
        SquareBarrier(height=2.0, half_width=0.5),
        SquareBarrier(height=-4.0, half_width=0.8),
        GaussianBump(amplitude=1.0, sigma=1.0),
        truncated(PoschlTeller(nu=1), 1e-10),
        Sampled(xs=[-1.0, 0.0, 1.0], vs=[0.0, 1.5, 0.0]),
    ]
    for _ in range(50):
        p = pool[rng.integers(len(pool))]
        k = float(rng.uniform(0.2, 4.0))
        res = transfer_reflection(p, k, 0.01)
        assert abs(res.reflect_prob + res.transmit_prob - 1.0) <= 1e-10


def test_slab_refinement_second_order():
    # smooth reflective potential: |r|^2 converges at the midpoint-rule rate
    p = GaussianBump(amplitude=1.0, sigma=1.0)
    k = 1.2
    widths = [0.08, 0.04, 0.02, 0.01]
    probs = [transfer_reflection(p, k, w).reflect_prob for w in widths]
    gaps = [abs(a - b) for a, b in zip(probs, probs[1:])]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    assert min(orders) >= 1.8, orders


def test_momentum_validation():
    with pytest.raises(ValueError):
        transfer_reflection(Zero(), -1.0, 0.01)
    with pytest.raises(InvalidSlabWidth):
        transfer_reflection(Zero(), 1.0, 0.0)


def test_nonzero_tails_rejected():
    with pytest.raises(ValueError):
        transfer_reflection(Step(0.0, 1.0), 2.0, 0.01)


def test_evanescent_overflow_guard():
    monster = SquareBarrier(height=1e6, half_width=400.0)
    with pytest.raises(EvanescentOverflow):
        transfer_reflection(monster, 1.0, 100.0)


def test_grid_variant_matches_scalar():
    p = GaussianBump(amplitude=1.0, sigma=1.0)
    ks = np.array([0.5, 1.0, 2.0])
    batch = transfer_reflection_grid(p, ks, 0.01)
    for k, res in zip(ks, batch):
        single = transfer_reflection(p, float(k), 0.01)
        assert res.r_amp == single.r_amp
        assert res.t_amp == single.t_amp


@pytest.mark.parametrize("amplitude", [1.0, 4.0])
def test_turning_point_second_order(amplitude):
    # lambda = max V puts q = 0 at the centre slab; the gap to the spectral R
    # is the O(w^2) midpoint error alone, a factor 4 per halving
    p = GaussianBump(amplitude=amplitude, sigma=1.0)
    m_l, m_r = boundary_pair(p, amplitude)
    spectral = spectral_reflection(m_l, m_r).reflect_prob
    widths = [0.01, 0.005, 0.0025, 0.00125]
    gaps = [abs(transfer_reflection(p, math.sqrt(amplitude), w).reflect_prob - spectral) for w in widths]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(3.6 <= ratio <= 4.4 for ratio in ratios), (gaps, ratios)


@pytest.mark.parametrize("energy", [2.0 - 1e-4, 2.0 + 1e-4, 2.0 - 1e-8])
def test_barrier_near_top_closed_form(energy):
    res = transfer_reflection(SquareBarrier(height=2.0, half_width=0.5), math.sqrt(energy), 0.005)
    reflect, transmit = closed_form_barrier(energy, 2.0, 1.0)
    assert res.reflect_prob == pytest.approx(reflect, abs=1e-12)
    assert res.transmit_prob == pytest.approx(transmit, abs=1e-12)


def test_barrier_at_top_is_the_limit():
    # E = V0: u is linear across the barrier, T = 1 / (1 + V0 a^2 / 4) = 2/3
    res = transfer_reflection(SquareBarrier(height=2.0, half_width=0.5), math.sqrt(2.0), 0.005)
    assert res.reflect_prob == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert res.reflect_prob + res.transmit_prob == pytest.approx(1.0, abs=1e-12)


def test_many_slabs_small_memory():
    p = GaussianBump(amplitude=1.0, sigma=1.0)
    ks = np.sqrt(np.linspace(0.5, 8.0, 16))
    tracemalloc.start()
    try:
        res = transfer_reflection_grid(p, ks, 2e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 74 339 slabs: one momenta x slabs float array alone would take 9 MiB
    assert res[0].slab_count == 74339
    assert peak < 3 * 2**20


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_non_finite_momentum_refused(k):
    # ks <= 0 is False for NaN, so a NaN or infinite momentum used to end in
    # EvanescentOverflow, which blamed the slab
    with pytest.raises(ValueError, match=rf"momenta must be positive and finite, got .*{k!r}"):
        transfer_reflection_grid(SquareBarrier(height=2.0, half_width=0.5), [1.0, k], 0.01)


@pytest.mark.parametrize("p", [Zero(), SquareBarrier(height=2.0, half_width=0.5)], ids=["zero", "barrier"])
def test_no_momenta_give_empty_columns(p):
    res = transfer_reflection_grid(p, [], 0.01)
    for column in (res.k, res.r_amp, res.t_amp, res.reflect_prob, res.transmit_prob):
        assert column.shape == (0,)
    assert list(res) == []


def _bits(x):
    """The bits of a float or complex, so that 0.0 and -0.0 differ."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


@pytest.mark.parametrize(
    "p",
    [
        SquareBarrier(height=2.0, half_width=0.5),
        GaussianBump(amplitude=4.0, sigma=1.0),
        truncated(PoschlTeller(nu=2), 1e-12),
        Zero(),
    ],
    ids=["barrier", "gaussian", "pt2_truncated", "zero"],
)
def test_columns_match_per_entry_reference(p):
    # each entry, by index and by iteration, has the bits of the one-momentum
    # call and of abs(r) ** 2 in Python complex arithmetic
    ks = np.sqrt(np.linspace(0.5, 8.0, 16))
    res = transfer_reflection_grid(p, ks, 0.005)
    assert res.k.shape == res.r_amp.shape == res.t_amp.shape == ks.shape
    entries = list(res)
    assert len(entries) == len(ks)
    for i, k in enumerate(ks):
        single = transfer_reflection(p, float(k), 0.005)
        r, t = complex(single.r_amp), complex(single.t_amp)
        reference = (
            _bits(float(k)),
            _bits(r),
            _bits(t),
            single.slab_count,
            _bits(abs(r) ** 2),
            _bits(abs(t) ** 2),
            _bits(abs(r) ** 2),
            _bits(abs(t) ** 2),
        )
        for entry in (res[i], entries[i]):
            got = (
                _bits(entry.k),
                _bits(entry.r_amp),
                _bits(entry.t_amp),
                entry.slab_count,
                _bits(entry.reflect_prob),
                _bits(entry.transmit_prob),
                _bits(res.reflect_prob[i]),
                _bits(res.transmit_prob[i]),
            )
            assert got == reference, i
        assert res[i].slab_count == res.slab_count


def test_probabilities_have_python_bits_on_random_amplitudes():
    # numpy's x ** 2 is x * x, which rounds differently from libm's pow for
    # about one value in 1200; the oracle's columns must keep pow's bits
    rng = np.random.default_rng(3)
    r = rng.normal(size=20_000) + 1j * rng.normal(size=20_000)
    t = rng.random(20_000) * np.exp(2j * np.pi * rng.random(20_000))
    res = TransferResult(np.ones(20_000), r, t, 1)
    assert [_bits(x) for x in res.reflect_prob] == [_bits(abs(complex(x)) ** 2) for x in r]
    assert [_bits(x) for x in res.transmit_prob] == [_bits(abs(complex(x)) ** 2) for x in t]
