"""Finite-difference check of the rank-one resolvent identity.

On a grid of 2N+1 nodes with mesh h, the second-difference discretization H
and its Dirichlet-decoupled counterpart H_inf (origin node severed from both
half-lines) satisfy, exactly in exact arithmetic,

    (H - z)^-1 - (H_inf - z)^-1 = G00(z)^-1 g g^T,   g = (H - z)^-1 delta_0,

with delta_0 the origin unit vector scaled by 1/sqrt(h) and
G00(z) = [(H - z)^-1]_{00} / h, which converges to the continuum diagonal
Green function at rate h^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularResolvent
from .potential import Potential, effective_support, evaluate
from .weyl import SolverOptions, interior_m, sweep

_COND_LIMIT = 1e12

WEIGHT_CONVENTION = "delta_0 = e_0 / sqrt(h); G00(z) = [(H - z)^-1]_{00} / h"


@dataclass(frozen=True)
class LatticeModel:
    """Discretized full-line operator: N interior nodes per half-line, mesh h."""

    n: int
    h: float
    v: np.ndarray  # potential samples at nodes -N..N, length 2N+1
    z: complex

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.h > 0:
            raise ValueError("mesh h must be positive")
        if len(self.v) != 2 * self.n + 1:
            raise ValueError(f"expected {2 * self.n + 1} potential samples, got {len(self.v)}")
        z = complex(self.z)
        if not (z.imag > 0 or (z.imag == 0 and z.real < 0)):
            raise ValueError("z must have Im z > 0 or be a real point below the spectrum")
        object.__setattr__(self, "z", z)

    @property
    def grid(self) -> np.ndarray:
        return self.h * np.arange(-self.n, self.n + 1)


@dataclass(frozen=True)
class RankOneReport:
    """Residuals of the rank-one identity plus the continuum comparison."""

    sv_ratio: float  # second / first singular value of the resolvent difference
    coeff: complex  # best-fit c in  D ~ c g g^T
    coeff_resid: float  # |c - 1/G00|
    entry_resid: float  # |D_00 - g_0^2 / G00|
    g00_discrete: complex
    g00_continuum: complex | None
    continuum_resid: float | None
    condition: float
    convention: str = WEIGHT_CONVENTION


def lattice_model_from_potential(
    p: Potential, n: int, h: float, z: complex, margin: float = 1.0
) -> LatticeModel:
    """Sample a potential on the lattice, enforcing that the box covers its support."""
    support = effective_support(p, 1e-6)
    if n * h < support + margin:
        raise ValueError(
            f"box half-length {n * h} does not cover support {support} plus margin {margin}"
        )
    grid = h * np.arange(-n, n + 1)
    return LatticeModel(n=n, h=h, v=np.asarray(evaluate(p, grid), dtype=float), z=z)


def _hamiltonian(model: LatticeModel) -> np.ndarray:
    size = 2 * model.n + 1
    inv_h2 = 1.0 / model.h**2
    ham = np.zeros((size, size))
    np.fill_diagonal(ham, 2.0 * inv_h2 + model.v)
    idx = np.arange(size - 1)
    ham[idx, idx + 1] = -inv_h2
    ham[idx + 1, idx] = -inv_h2
    return ham


def decoupled_resolvent(model: LatticeModel) -> np.ndarray:
    """(H_inf - z)^-1 embedded in the full grid: block inverses, zero origin row/column."""
    ham = _hamiltonian(model)
    size = 2 * model.n + 1
    mid = model.n
    out = np.zeros((size, size), dtype=complex)
    eye = np.eye(mid)
    a_left = ham[:mid, :mid] - model.z * eye
    a_right = ham[mid + 1 :, mid + 1 :] - model.z * eye
    out[:mid, :mid] = np.linalg.solve(a_left, eye.astype(complex))
    out[mid + 1 :, mid + 1 :] = np.linalg.solve(a_right, eye.astype(complex))
    return out


def _continuum_g00(p: Potential, z: complex, opts: SolverOptions) -> complex:
    if z.imag > 0:
        m_l = interior_m("left", p, z, opts).m
        m_r = interior_m("right", p, z, opts).m
    else:
        m_l, m_r, _, _ = sweep(p, [z.real], opts)
        m_l, m_r = complex(m_l[0]), complex(m_r[0])
    return -1.0 / (m_l + m_r)


def resolvent_difference_check(
    model: LatticeModel,
    potential: Potential | None = None,
    opts: SolverOptions | None = None,
) -> RankOneReport:
    """Verify the rank-one identity on the model; dense linear algebra throughout.

    When a potential is supplied, the report also compares the discrete G00
    against the continuum -1/(m_l + m_r) at the same z (expected O(h^2) gap).
    """
    ham = _hamiltonian(model)
    size = 2 * model.n + 1
    mid = model.n
    a_full = ham.astype(complex) - model.z * np.eye(size)
    condition = float(np.linalg.cond(a_full))
    if not math.isfinite(condition) or condition > _COND_LIMIT:
        raise SingularResolvent(f"resolvent solve condition number {condition:.3e}")
    resolvent = np.linalg.inv(a_full)
    diff = resolvent - decoupled_resolvent(model)

    svals = np.linalg.svd(diff, compute_uv=False)
    sv_ratio = float(svals[1] / svals[0])

    g = resolvent[:, mid] / math.sqrt(model.h)
    g00 = resolvent[mid, mid] / model.h
    outer = np.outer(g, g)
    coeff = complex(np.vdot(outer, diff) / np.vdot(outer, outer))
    coeff_resid = float(abs(coeff - 1.0 / g00))
    entry_resid = float(abs(diff[mid, mid] - g[mid] ** 2 / g00))

    g00_cont = None
    cont_resid = None
    if potential is not None:
        g00_cont = _continuum_g00(potential, model.z, opts or SolverOptions())
        cont_resid = float(abs(g00 - g00_cont))
    return RankOneReport(
        sv_ratio=sv_ratio,
        coeff=coeff,
        coeff_resid=coeff_resid,
        entry_resid=entry_resid,
        g00_discrete=complex(g00),
        g00_continuum=g00_cont,
        continuum_resid=cont_resid,
        condition=condition,
    )
