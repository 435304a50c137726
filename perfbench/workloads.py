"""Seeded workloads of the weylscatter benchmark and the reference checks of their outputs.

A workload is a list of CLI invocations, run one after another.  The seed only
draws inputs: the energy grids and the `seed` field that drives the lattice z
draws of `verify`.  The program sees nothing but the generated config files.

Energy grids take one uniform draw in each of `count` equal strata of
[0.1, 10].  Every draw is still uniform on the range, but each grid covers it
evenly, so the cost of a sweep (RK steps grow with the energy) barely depends
on the seed while the energies themselves change with it.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from weylscatter.cli import auto_packet
from weylscatter.dynamics import momentum_density
from weylscatter.errors import WeylScatterError
from weylscatter.oracle import closed_form_barrier, transfer_reflection_grid
from weylscatter.potential import potential_from_config

LAMBDA_MIN, LAMBDA_MAX = 0.1, 10.0
# 32 energies keep a sweep pass at 2-4 s, so a run holds enough passes for a
# steady median on a host whose speed drifts by tens of percent
SWEEP_ENERGIES = 32
VERIFY_ENERGIES = 16

PT2 = {"kind": "poschl_teller", "nu": 2}
PT2_TRUNCATED = {"kind": "poschl_teller", "nu": 2, "truncate_tol": 1e-12}
PT1_TRUNCATED = {"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12}
GAUSSIAN = {"kind": "gaussian", "amplitude": 1.0, "sigma": 1.0}
BARRIER = {"kind": "square_barrier", "height": 2.0, "half_width": 0.5}
SAMPLED = {"kind": "sampled", "xs": [-2.0, -1.0, 0.0, 1.0, 2.0], "vs": [0.0, 1.0, 2.0, 1.0, 0.0]}
# ROADMAP's converged D4 probe; a larger or wider barrier here raises BoundaryLeak
RESOLVED_PACKET = {"half_length": 300.0, "n_points": 16384}

# Slab of the transfer-oracle references.  Its O(slab^2) discretization error
# is about 3e-8 for `sampled` and 1e-8 for `gaussian` (at the CLI default
# slab 0.005 it is 3e-6 and 1e-6).
REFERENCE_SLAB = 5e-4
M_TOL = 1e-8  # |m - closed form|; observed <= 5e-11 at the solver's rel_ode_tol 1e-10
REFLECT_TOL = 1e-6  # |R - reference|, the bound verify's spectral_vs_oracle uses
REFLECTIONLESS_TOL = 1e-10  # largest R the scan may report for PT nu=1 (observed ~1e-21)
PREDICTED_TOL = 1e-8  # |predicted_reflect - closed-form momentum average|
PACKET_GAP_TOL = 1e-3  # |left_mass - predicted_reflect|; observed 1.6e-4
NORM_TOL = 1e-8  # |left_mass + right_mass - 1|
UNITARITY_TOL = 1e-8  # |s s* - I|, the bound verify's s_matrix_unitarity uses
S_ENTRIES = (("s_ll", "s_lr"), ("s_rl", "s_rr"))

VERIFY_ROWS = (
    "s_matrix_identity",
    "s_matrix_unitarity",
    "s_matrix_diagonal",
    "spectral_vs_oracle",
    "dynamical_vs_spectral",
    "packet_norm_drift",
    "lattice_rank_one",
    "lattice_coefficient",
    "lattice_continuum_g00",
)


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a workload: `weyl-scatter <command> --config <label>.json`."""

    label: str
    command: str
    config: dict


@dataclass(frozen=True)
class Check:
    """A reference comparison: it passes when value <= limit."""

    name: str
    value: float
    limit: float

    @property
    def passed(self) -> bool:
        return self.value <= self.limit


def energies(rng: np.random.Generator, count: int) -> list[float]:
    """Sorted energies, one uniform draw in each of `count` equal strata."""
    edges = np.linspace(LAMBDA_MIN, LAMBDA_MAX, count + 1)
    return (edges[:-1] + rng.uniform(0.0, 1.0, count) * np.diff(edges)).tolist()


def _sweep(label, command, potential, rng, count):
    return Invocation(label, command, {"potential": potential, "lambda_grid": energies(rng, count)})


def _verify(label, potential, rng, count):
    config = {
        "potential": potential,
        "lambda_grid": energies(rng, count),
        "seed": int(rng.integers(0, 2**31)),
    }
    return Invocation(label, "verify", config)


def _sweep_ladder(rng, smoke):
    n = 3 if smoke else SWEEP_ENERGIES
    return [
        _sweep("pt2_mfunction", "mfunction", PT2, rng, n),
        _sweep("gaussian_reflect", "reflect", GAUSSIAN, rng, n),
    ]


def _sweep_compact(rng, smoke):
    n = 3 if smoke else SWEEP_ENERGIES
    return [
        _sweep("barrier_scatter", "scatter", BARRIER, rng, n),
        _sweep("sampled_reflect", "reflect", SAMPLED, rng, n),
        _sweep("pt2_truncated_mfunction", "mfunction", PT2_TRUNCATED, rng, n),
        _sweep("pt1_truncated_scan", "scan", PT1_TRUNCATED, rng, n),
    ]


def _verify_routes(rng, smoke):
    if smoke:
        return [_verify("barrier_verify", BARRIER, rng, 2)]
    return [
        _verify("pt2_truncated_verify", PT2_TRUNCATED, rng, VERIFY_ENERGIES),
        _verify("gaussian_verify", GAUSSIAN, rng, VERIFY_ENERGIES),
        _verify("barrier_verify", BARRIER, rng, VERIFY_ENERGIES),
    ]


def _packet_resolved(rng, smoke):
    packet = {"half_length": 300.0, "n_points": 4096} if smoke else RESOLVED_PACKET
    return [Invocation("barrier_wavepacket", "wavepacket", {"potential": BARRIER, "packet": packet})]


WORKLOADS = {
    "sweep_ladder": _sweep_ladder,
    "sweep_compact": _sweep_compact,
    "verify_routes": _verify_routes,
    "packet_resolved": _packet_resolved,
}


def build(name: str, seed: int, smoke: bool = False) -> list[Invocation]:
    """The invocations of workload `name`; smoke mode shrinks every grid and packet."""
    return WORKLOADS[name](np.random.default_rng(seed), smoke)


# ---------------------------------------------------------------- references


def _rows(artifact: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(artifact.decode())))


def _pt2_m(lam: float) -> complex:
    """Closed-form m(lambda + i0) of -6 sech^2(x), equal on both sides."""
    return 1j * math.sqrt(lam) * (lam + 4.0) / (lam + 1.0)


def _worst(values) -> float:
    """Largest value; infinite when any is NaN or infinite, so it cannot hide behind max()."""
    values = list(values)
    return max(values) if all(map(math.isfinite, values)) else math.inf


def _row_count(inv: Invocation, rows: list, expected: int) -> Check:
    return Check(f"{inv.label}: row count off by", abs(len(rows) - expected), 0)


def _check_mfunction(inv, rows):
    grid = inv.config["lambda_grid"]
    errors = [
        abs(complex(float(r["m_re"]), float(r["m_im"])) - _pt2_m(float(r["lambda"]))) for r in rows
    ]
    misses = sum(e > float(r["err"]) for e, r in zip(errors, rows))
    worst = _worst(errors)
    checks = [
        _row_count(inv, rows, 2 * len(grid)),
        Check(f"{inv.label}: max |m - closed form|", worst, M_TOL),
    ]
    return checks, {"m_abs_err": worst, "err_bound_misses": (misses, len(rows))}


def _check_reflect(inv, rows):
    p = potential_from_config(inv.config["potential"])
    lams = np.array([float(r["lambda"]) for r in rows])
    oracle = transfer_reflection_grid(p, np.sqrt(lams), REFERENCE_SLAB)
    gap = _worst(abs(float(r["reflect_prob"]) - o.reflect_prob) for r, o in zip(rows, oracle))
    checks = [
        _row_count(inv, rows, len(inv.config["lambda_grid"])),
        Check(f"{inv.label}: max |R - oracle at slab {REFERENCE_SLAB:g}|", gap, REFLECT_TOL),
    ]
    return checks, {"reflect_abs_err": gap}


def _check_scatter(inv, rows):
    pot = inv.config["potential"]
    height, width = pot["height"], 2.0 * pot["half_width"]
    gaps, defects = [], []
    for r in rows:
        s = np.array(
            [[complex(float(r[f"{e}_re"]), float(r[f"{e}_im"])) for e in pair] for pair in S_ENTRIES]
        )
        reflect, transmit = closed_form_barrier(float(r["lambda"]), height, width)
        gaps += [abs(abs(s[0, 0]) ** 2 - reflect), abs(abs(s[0, 1]) ** 2 - transmit)]
        defects.append(float(np.max(np.abs(s @ s.conj().T - np.eye(2)))))
    gap = _worst(gaps)
    checks = [
        _row_count(inv, rows, len(inv.config["lambda_grid"])),
        Check(f"{inv.label}: max | |s|^2 - closed form |", gap, REFLECT_TOL),
        Check(f"{inv.label}: max |s s* - I| recomputed", _worst(defects), UNITARITY_TOL),
    ]
    return checks, {"reflect_abs_err": gap}


def _check_scan(inv, rows):
    # PT nu=1 is reflectionless, so the whole grid is one window
    grid = inv.config["lambda_grid"]
    whole = len(rows) == 1 and (float(rows[0]["lam_min"]), float(rows[0]["lam_max"])) == (grid[0], grid[-1])
    worst = _worst(float(r["max_reflect_prob"]) for r in rows) if rows else math.inf
    checks = [
        Check(f"{inv.label}: windows other than the whole grid", 0 if whole else 1, 0),
        Check(f"{inv.label}: max R in the window", worst, REFLECTIONLESS_TOL),
    ]
    return checks, {"reflect_abs_err": worst}


def _check_verify(inv, rows):
    names = [r["check"] for r in rows]
    wrong_status = sum(
        (float(r["residual"]) <= float(r["tolerance"])) != (r["status"] == "pass") for r in rows
    )
    checks = [
        Check(f"{inv.label}: rows missing or unexpected", len(set(names) ^ set(VERIFY_ROWS)), 0),
        Check(f"{inv.label}: status disagreeing with residual", wrong_status, 0),
    ]
    # a row the artifact marks as fail is a failed check, exit status aside
    checks += [
        Check(f"{inv.label}: {r['check']}", float(r["residual"]), float(r["tolerance"])) for r in rows
    ]
    ratio = _worst(float(r["residual"]) / float(r["tolerance"]) for r in rows)
    return checks, {"verify_residual_ratio": ratio}


def _check_wavepacket(inv, rows):
    (row,) = rows
    pot = inv.config["potential"]
    p = potential_from_config(pot)
    spec, _, _ = auto_packet(p, inv.config["packet"])
    k, density = momentum_density(spec)
    dk = k[1] - k[0]
    height, width = pot["height"], 2.0 * pot["half_width"]
    closed = sum(
        closed_form_barrier(float(kk) ** 2, height, width)[0] * rho * dk
        for kk, rho in zip(k, density)
        if kk > 0.0
    )
    left, right = float(row["left_mass"]), float(row["right_mass"])
    predicted = float(row["predicted_reflect"])
    gap = abs(left - predicted)
    checks = [
        Check(
            f"{inv.label}: |predicted_reflect - closed-form average|",
            abs(predicted - closed),
            PREDICTED_TOL,
        ),
        Check(f"{inv.label}: packet_gap", gap, PACKET_GAP_TOL),
        Check(f"{inv.label}: |left_mass + right_mass - 1|", abs(left + right - 1.0), NORM_TOL),
    ]
    return checks, {"packet_gap": gap}


_CHECKERS = {
    "mfunction": _check_mfunction,
    "reflect": _check_reflect,
    "scatter": _check_scatter,
    "scan": _check_scan,
    "verify": _check_verify,
    "wavepacket": _check_wavepacket,
}


def check(inv: Invocation, artifact: bytes) -> tuple[list[Check], dict]:
    """Reference checks of one artifact, plus the accuracy figures they measured.

    A malformed artifact is itself a failed check, never an abort.
    """
    try:
        return _CHECKERS[inv.command](inv, _rows(artifact))
    except (KeyError, ValueError, TypeError, ZeroDivisionError, WeylScatterError) as exc:
        return [Check(f"{inv.label}: unreadable artifact ({type(exc).__name__}: {exc})", 1, 0)], {}
