"""Plane-wave transfer-matrix oracle for compactly supported potentials.

Independent ground truth for the m-function route: approximate V by
piecewise-constant slabs, match u and u' across every interface, and read off
the reflection/transmission amplitudes of a wave incident from the left.
Slab edges always include the potential's own breakpoints, so genuinely
piecewise-constant potentials are composed exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnergy, EvanescentOverflow, InvalidSlabWidth
from .potential import Potential, effective_support

_OVERFLOW_LIMIT = 1e300


@dataclass(frozen=True)
class TransferResult:
    """Amplitudes for a unit wave incident from the left at momentum k."""

    k: float
    r_amp: complex
    t_amp: complex
    slab_count: int

    @property
    def reflect_prob(self) -> float:
        return abs(self.r_amp) ** 2

    @property
    def transmit_prob(self) -> float:
        return abs(self.t_amp) ** 2


def _slab_edges(p: Potential, slab_width: float, truncation_tol: float) -> np.ndarray:
    x_max = effective_support(p, truncation_tol)
    if x_max == 0.0:
        return np.array([0.0])
    count = max(1, int(math.ceil(2.0 * x_max / slab_width)))
    edges = np.linspace(-x_max, x_max, count + 1)
    interior = [b for b in p.breakpoints() if -x_max < b < x_max]
    if interior:
        edges = np.unique(np.concatenate([edges, np.asarray(interior, dtype=float)]))
    return edges


def _compose(ks: np.ndarray, edges: np.ndarray, v_mid: np.ndarray):
    """Cumulative coefficient map across all interfaces, vectorized over k."""
    nk = len(ks)
    k2 = ks.astype(complex) ** 2
    # local wavenumbers per region: vacuum, slabs..., vacuum
    q_regions = [ks.astype(complex)]
    for v in v_mid:
        q = np.sqrt(k2 - v)
        # principal sqrt gives Re >= 0 and +i*kappa in evanescent slabs
        q = np.where(np.abs(q) < 1e-12 * np.abs(ks), 1e-12 * ks + 0j, q)
        q_regions.append(q)
    q_regions.append(ks.astype(complex))

    m11 = np.ones(nk, dtype=complex)
    m12 = np.zeros(nk, dtype=complex)
    m21 = np.zeros(nk, dtype=complex)
    m22 = np.ones(nk, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, x in enumerate(edges):
            q1 = q_regions[j]
            q2 = q_regions[j + 1]
            rho = q1 / q2
            ap = 0.5 * (1.0 + rho)
            am = 0.5 * (1.0 - rho)
            e_pm = np.exp(1j * (q1 - q2) * x)
            e_mm = np.exp(-1j * (q1 + q2) * x)
            e_pp = np.exp(1j * (q1 + q2) * x)
            e_mp = np.exp(-1j * (q1 - q2) * x)
            n11 = ap * e_pm * m11 + am * e_mm * m21
            n12 = ap * e_pm * m12 + am * e_mm * m22
            n21 = am * e_pp * m11 + ap * e_mp * m21
            n22 = am * e_pp * m12 + ap * e_mp * m22
            m11, m12, m21, m22 = n11, n12, n21, n22
            peak = max(
                float(np.max(np.abs(m11))),
                float(np.max(np.abs(m21))),
                float(np.max(np.abs(m22))),
            )
            if not math.isfinite(peak) or peak > _OVERFLOW_LIMIT:
                raise EvanescentOverflow(
                    "transfer-matrix entries overflowed; split the slab and retry"
                )
    return m11, m12, m21, m22


def transfer_reflection_grid(
    p: Potential,
    ks,
    slab_width: float,
    truncation_tol: float = 1e-12,
) -> list[TransferResult]:
    """Transfer-matrix amplitudes for every momentum in ks (all > 0)."""
    ks = np.asarray(ks, dtype=float)
    if not (slab_width > 0 and math.isfinite(slab_width)):
        raise InvalidSlabWidth(f"slab_width must be positive and finite, got {slab_width}")
    if np.any(ks <= 0):
        raise ValueError("momenta must be positive")
    if p.tail_value("left") != 0.0 or p.tail_value("right") != 0.0:
        raise ValueError("transfer oracle requires equal zero tails")
    edges = _slab_edges(p, slab_width, truncation_tol)
    if len(edges) == 1:
        return [TransferResult(float(k), 0.0 + 0.0j, 1.0 + 0.0j, 0) for k in ks]
    mids = 0.5 * (edges[:-1] + edges[1:])
    v_mid = np.asarray(p.value(mids), dtype=float)
    m11, m12, m21, m22 = _compose(ks, edges, v_mid)
    r = -m21 / m22
    t = m11 + m12 * r
    slabs = len(edges) - 1
    return [
        TransferResult(float(k), complex(rk), complex(tk), slabs)
        for k, rk, tk in zip(ks, r, t)
    ]


def transfer_reflection(
    p: Potential,
    k: float,
    slab_width: float,
    truncation_tol: float = 1e-12,
) -> TransferResult:
    """Reflection/transmission of a unit wave incident from the left at momentum k."""
    return transfer_reflection_grid(p, [float(k)], slab_width, truncation_tol)[0]


def closed_form_barrier(E: float, V0: float, a: float) -> tuple[float, float]:
    """Textbook rectangular-barrier (reflect_prob, transmit_prob).

    Height V0, total width a, energy E = k^2.  The removable singularity at
    E = V0 is rejected rather than special-cased.
    """
    if E <= 0 or V0 <= 0 or a <= 0:
        raise ValueError("E, V0, a must all be positive")
    if abs(E - V0) <= 1e-12 * max(E, V0):
        raise DegenerateEnergy("E = V0 is outside the closed form's domain")
    if E < V0:
        kappa = math.sqrt(V0 - E)
        transmit = 1.0 / (1.0 + V0**2 * math.sinh(kappa * a) ** 2 / (4.0 * E * (V0 - E)))
    else:
        kp = math.sqrt(E - V0)
        transmit = 1.0 / (1.0 + V0**2 * math.sin(kp * a) ** 2 / (4.0 * E * (E - V0)))
    return 1.0 - transmit, transmit
