"""Acceptance suite: one test per release criterion, each printing a verdict line.

Each criterion pins its tolerance and runtime budget explicitly; nothing here
is calibrated after the fact.  Sweeps shared between criteria are computed
once per session.
"""
import json
import math
import time

import numpy as np
import pytest

from weylscatter import (
    GaussianBump,
    LatticeModel,
    PoschlTeller,
    SquareBarrier,
    Sampled,
    Step,
    Zero,
    boundary_pair,
    closed_form_barrier,
    evolve_packet,
    green00,
    interior_m,
    lattice_model_from_potential,
    PacketSpec,
    predicted_reflection,
    resolvent_difference_check,
    scattering_matrix,
    spectral_reflection,
    transfer_reflection_grid,
    truncated,
)
from weylscatter.cli import main as cli_main
from weylscatter.weyl import SolverOptions, _m_values, sweep


def _report(criterion: str, detail: str, elapsed: float) -> None:
    print(f"[PASS] {criterion}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="session")
def sweeps():
    """Boundary m-value columns reused by the algebraic-identity criteria."""
    cases = {
        "free": (Zero(), np.arange(0.1, 10.0 + 1e-9, 0.1)),
        "barrier": (SquareBarrier(height=2.0, half_width=0.5), np.linspace(0.2, 8.0, 40)),
        "pt1": (truncated(PoschlTeller(nu=1), 1e-12), np.linspace(0.5, 8.0, 16)),
        "pt2": (truncated(PoschlTeller(nu=2), 1e-12), np.linspace(0.5, 8.0, 16)),
        "gaussian": (GaussianBump(amplitude=1.0, sigma=1.0), np.linspace(0.3, 6.0, 12)),
        "step": (Step(left_value=0.0, right_value=1.0), np.linspace(0.2, 4.0, 12)),
    }
    out = {}
    for name, (p, grid) in cases.items():
        out[name] = sweep(p, grid)
    return out


def test_criterion_1_free_line_reflectionless():
    # the m-function sweep itself is inside the timed window
    t0 = time.perf_counter()
    worst_s = 0.0
    worst_r = 0.0
    for lam in np.arange(0.1, 10.0 + 1e-9, 0.1):
        m_l, m_r = boundary_pair(Zero(), float(lam))
        s = scattering_matrix(m_l, m_r)
        rec = spectral_reflection(m_l, m_r)
        worst_s = max(worst_s, abs(s.s_ll))
        worst_r = max(worst_r, rec.reflect_prob)
    elapsed = time.perf_counter() - t0
    assert worst_s <= 1e-10
    assert worst_r <= 1e-10
    assert elapsed < 1.0
    _report("criterion 1 free-line reflectionless", f"max |s_ll| {worst_s:.2e}", elapsed)


def test_criterion_2_internal_identity(sweeps):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for m_l, m_r in sweeps.values():
        s = scattering_matrix(m_l, m_r)
        rec = spectral_reflection(m_l, m_r)
        worst = max(worst, np.max(np.abs(s.s_ll - rec.r_spectral), where=rec.in_S_l, initial=0.0))
        count += int(np.count_nonzero(rec.in_S_l))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    _report("criterion 2 s_ll = R_l identity", f"max residual {worst:.2e} over {count} energies", elapsed)


def test_criterion_3_unitarity(sweeps):
    t0 = time.perf_counter()
    worst_u = 0.0
    worst_d = 0.0
    for m_l, m_r in sweeps.values():
        s = scattering_matrix(m_l, m_r)
        worst_u = max(worst_u, np.max(s.unitarity_residual()))
        worst_d = max(worst_d, np.max(np.abs(np.abs(s.s_ll) - np.abs(s.s_rr))))
    elapsed = time.perf_counter() - t0
    assert worst_u <= 1e-8
    assert worst_d <= 1e-10
    _report("criterion 3 unitarity", f"max |ss*-I| {worst_u:.2e}, max diag gap {worst_d:.2e}", elapsed)


def test_criterion_4_barrier_oracle_equivalence():
    t0 = time.perf_counter()
    p = SquareBarrier(height=2.0, half_width=0.5)
    grid = 0.05 + (8.0 - 0.05) / 40.0 * np.arange(1, 41)  # 40 energies in (0.05, 8]
    oracle = transfer_reflection_grid(p, np.sqrt(grid), 0.01)
    worst = 0.0
    for lam, res in zip(grid, oracle):
        m_l, m_r = boundary_pair(p, float(lam))
        rec = spectral_reflection(m_l, m_r)
        worst = max(worst, abs(rec.reflect_prob - res.reflect_prob))
    assert worst <= 1e-6
    # spot energy pinned to the textbook formula
    reflect_cf, transmit_cf = closed_form_barrier(1.0, 2.0, 1.0)
    m_l, m_r = boundary_pair(p, 1.0)
    rec = spectral_reflection(m_l, m_r)
    res = transfer_reflection_grid(p, [1.0], 0.01)[0]
    assert transmit_cf == pytest.approx(0.4199743416140261, abs=1e-12)
    assert rec.transmit_prob == pytest.approx(transmit_cf, abs=1e-4)
    assert res.transmit_prob == pytest.approx(transmit_cf, abs=1e-4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("criterion 4 barrier vs oracle", f"max gap {worst:.2e} over 40 energies", elapsed)


def test_criterion_5_reflectionless_family():
    t0 = time.perf_counter()
    grid = np.linspace(0.5, 8.0, 16)
    worst_spectral = 0.0
    worst_transfer = 0.0
    for nu in (1, 2):
        p = PoschlTeller(nu=nu)
        rec = spectral_reflection(*sweep(p, grid))
        worst_spectral = max(worst_spectral, np.max(rec.reflect_prob))
        oracle = transfer_reflection_grid(p, np.sqrt(grid), 0.004)
        worst_transfer = max(worst_transfer, np.max(oracle.reflect_prob))
    elapsed = time.perf_counter() - t0
    assert worst_spectral <= 1e-6
    assert worst_transfer <= 1e-8
    assert elapsed < 30.0
    _report(
        "criterion 5 sech^2 family reflectionless",
        f"spectral {worst_spectral:.2e}, transfer {worst_transfer:.2e}",
        elapsed,
    )


def test_criterion_6_dynamical_equals_spectral():
    t0 = time.perf_counter()
    barrier_spec = PacketSpec(
        x0=-60.0, k0=1.0, sigma_x=8.0, half_length=200.0, n_points=2048, dt=0.005, t_max=150.0
    )
    barrier = SquareBarrier(height=2.0, half_width=0.5)
    res_b = evolve_packet(barrier, barrier_spec)
    gap = abs(res_b.left_mass - predicted_reflection(barrier, barrier_spec))
    assert gap <= 1e-2

    free_spec = PacketSpec(
        x0=-40.0, k0=2.0, sigma_x=4.0, half_length=120.0, n_points=1024, dt=0.005, t_max=80.0
    )
    res_f = evolve_packet(Zero(), free_spec)
    assert res_f.left_mass <= 1e-3

    pt_spec = PacketSpec(
        x0=-60.0, k0=1.5, sigma_x=8.0, half_length=200.0, n_points=2048, dt=0.005, t_max=150.0
    )
    res_p = evolve_packet(truncated(PoschlTeller(nu=1), 1e-12), pt_spec)
    assert res_p.left_mass <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        "criterion 6 dynamical = spectral",
        f"barrier gap {gap:.2e}, free {res_f.left_mass:.1e}, sech^2 {res_p.left_mass:.1e}",
        elapsed,
    )


def test_criterion_7_rank_one_resolvent():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_sv = 0.0
    worst_coeff = 0.0
    for _ in range(20):
        n = int(rng.integers(60, 140))
        h = float(rng.uniform(0.04, 0.12))
        xs = h * np.arange(-n, n + 1)
        v = np.zeros_like(xs)
        for _ in range(int(rng.integers(1, 4))):
            v += rng.uniform(-2, 3) * np.exp(-((xs - rng.uniform(-1.5, 1.5)) ** 2) / (2 * rng.uniform(0.4, 1.2) ** 2))
        z = complex(rng.uniform(-1, 3), rng.uniform(0.5, 2.5))
        report = resolvent_difference_check(LatticeModel(n=n, h=h, v=v, z=z))
        worst_sv = max(worst_sv, report.sv_ratio)
        worst_coeff = max(worst_coeff, report.coeff_resid)
    assert worst_sv <= 1e-10
    assert worst_coeff <= 1e-8

    p = GaussianBump(amplitude=1.0, sigma=1.0)
    m_l, m_r = boundary_pair(p, -1.0)
    g00 = green00(m_l.m, m_r.m)
    errs = []
    for h in (0.1, 0.05, 0.025):
        model = lattice_model_from_potential(p, int(round(12.0 / h)), h, -1.0)
        errs.append(abs(resolvent_difference_check(model).g00 - g00))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        "criterion 7 rank-one resolvent identity",
        f"max sv ratio {worst_sv:.2e}, coeff {worst_coeff:.2e}, order {min(orders):.2f}",
        elapsed,
    )


def test_criterion_8_herglotz_and_conjugation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    pool = [
        Zero(),
        SquareBarrier(height=2.0, half_width=0.5),
        SquareBarrier(height=-4.0, half_width=1.0),
        Step(0.0, 1.0),
        GaussianBump(amplitude=1.0, sigma=1.0),
        truncated(PoschlTeller(nu=1), 1e-10),
        Sampled(xs=[-1.0, 0.0, 1.0], vs=[0.5, -1.0, 0.5]),
    ]
    opts = SolverOptions()
    worst_conj = 0.0
    for i in range(100):
        p = pool[rng.integers(len(pool))]
        z = complex(rng.uniform(-5, 10), rng.uniform(0.1, 5.0))
        side = "left" if rng.integers(2) else "right"
        mv = interior_m(side, p, z, opts)
        assert mv.m.imag >= -mv.err_estimate
        if i % 5 == 0:
            down = _m_values(p, [z.conjugate()], (side,), opts)[0][0, 0]
            worst_conj = max(worst_conj, abs(down - mv.m.conjugate()))
    assert worst_conj <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 8 Herglotz + conjugation",
        f"100 random (V, z) positive, conj residual {worst_conj:.2e}",
        elapsed,
    )


def test_criterion_9_verify_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "verify.json"
    cfg.write_text(
        json.dumps(
            {
                "potential": {"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12},
                "lambda_grid": {"min": 0.5, "max": 8.0, "count": 5},
                "seed": 2718,
            }
        )
    )
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert cli_main(["verify", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert cli_main(["verify", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    table = out1.read_text().splitlines()
    statuses = [line.split(",")[-1] for line in table[1:]]
    assert all(s == "pass" for s in statuses)
    elapsed = time.perf_counter() - t0
    _report("criterion 9 verify determinism", "byte-identical CSV across reruns", elapsed)
