"""Finite-difference check of the rank-one resolvent identity.

On a grid of 2N+1 nodes with mesh h, the second-difference discretization H
and its Dirichlet-decoupled counterpart H_inf (origin node severed from both
half-lines) satisfy, exactly in exact arithmetic,

    (H - z)^-1 - (H_inf - z)^-1 = G00(z)^-1 g g^T,   g = (H - z)^-1 delta_0,

with delta_0 the origin unit vector scaled by 1/sqrt(h) and
G00(z) = [(H - z)^-1]_{00} / h, which converges to the continuum diagonal
Green function at rate h^2.

The check never takes an SVD.  For the fitted coefficient c and the residual
r = ||D - c g g^T||_F of the difference D, the Eckart-Young theorem and
Weyl's inequality give sv2(D) <= r and sv1(D) >= |c| ||g||^2 - r, so
r / (|c| ||g||^2 - r) is an upper bound on sv2/sv1.

Nor does it take an eigendecomposition.  The solve is guarded by a
closed-form upper bound on cond_2(H - z) from (n, h, v, z) alone: H is real
symmetric, so the singular values of H - z are |lambda_i - z|.  Gershgorin
gives |lambda_i| <= 4/h^2 + max|v|, so |lambda_i - z| <= 4/h^2 + max|v| + |z|.
The Dirichlet Laplacian is positive definite, so every lambda_i exceeds
min(v), and |lambda_i - z| >= hypot(max(min(v) - Re z, 0), Im z) > 0 on the
z domain of LatticeModel.  On verify's models the ratio of the two is
within a factor 4 of the exact cond_2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularResolvent
from .potential import Potential, effective_support

_COND_LIMIT = 1e12

WEIGHT_CONVENTION = "delta_0 = e_0 / sqrt(h); G00(z) = [(H - z)^-1]_{00} / h"


@dataclass(frozen=True)
class LatticeModel:
    """Discretized full-line operator: N interior nodes per half-line, mesh h.

    z has Im z > 0, or is real and below min(v), a certified lower bound on
    the spectrum of H.
    """

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
        if not (z.imag > 0 or (z.imag == 0 and z.real < self.v.min())):
            raise ValueError("z must have Im z > 0 or be a real point below min(v)")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class RankOneReport:
    """Residuals of the rank-one identity plus the continuum comparison."""

    sv_ratio: float  # upper bound on second / first singular value of the resolvent difference
    coeff: complex  # best-fit c in  D ~ c g g^T
    coeff_resid: float  # |c - 1/G00|
    entry_resid: float  # |D_00 - g_0^2 / G00|
    g00_continuum: complex | None
    continuum_resid: float | None
    condition: float  # upper bound on cond_2(H - z)
    convention: str = WEIGHT_CONVENTION


def lattice_model_from_potential(p: Potential, n: int, h: float, z: complex) -> LatticeModel:
    """Sample a potential on the lattice, enforcing that the box covers its support plus 1."""
    support = effective_support(p, 1e-6)
    if n * h < support + 1.0:
        raise ValueError(f"box half-length {n * h} does not cover support {support} plus 1")
    grid = h * np.arange(-n, n + 1)
    return LatticeModel(n=n, h=h, v=np.asarray(p.value(grid), dtype=float), z=z)


def _hamiltonian(
    model: LatticeModel, nodes: slice = slice(None), z: complex | None = None
) -> np.ndarray:
    """H on a run of nodes, Dirichlet outside them; H - z, complex, when z is given.

    z is taken off the diagonal before the matrix is filled, so H - z costs
    one matrix allocation and has the bits of H.astype(complex) - z * eye.
    """
    inv_h2 = 1.0 / model.h**2
    diag = 2.0 * inv_h2 + model.v[nodes]
    if z is not None:
        diag = diag - z
    size = len(diag)
    ham = np.zeros((size, size), dtype=diag.dtype)
    np.fill_diagonal(ham, diag)
    idx = np.arange(size - 1)
    ham[idx, idx + 1] = -inv_h2
    ham[idx + 1, idx] = -inv_h2
    return ham


def decoupled_resolvent(model: LatticeModel) -> np.ndarray:
    """(H_inf - z)^-1 embedded in the full grid: block inverses, zero origin row/column."""
    size = 2 * model.n + 1
    mid = model.n
    out = np.zeros((size, size), dtype=complex)
    eye = np.eye(mid, dtype=complex)
    left = _hamiltonian(model, slice(None, mid), model.z)
    right = _hamiltonian(model, slice(mid + 1, None), model.z)
    out[:mid, :mid] = np.linalg.solve(left, eye)
    out[mid + 1 :, mid + 1 :] = np.linalg.solve(right, eye)
    return out


def resolvent_difference_check(
    model: LatticeModel, g00_continuum: complex | None = None
) -> RankOneReport:
    """Verify the rank-one identity on the model; dense linear algebra throughout.

    When the continuum diagonal Green function -1/(m_l + m_r) at the same z
    is supplied, the report also gives its gap to the discrete G00 (expected
    O(h^2)).
    """
    mid = model.n
    z = model.z
    # upper bound on cond_2(H - z), see the module docstring
    dist = math.hypot(max(float(model.v.min()) - z.real, 0.0), z.imag)
    condition = (4.0 / model.h**2 + float(np.abs(model.v).max()) + abs(z)) / dist
    if not math.isfinite(condition) or condition > _COND_LIMIT:
        raise SingularResolvent(f"resolvent solve condition bound {condition:.3e}")
    resolvent = np.linalg.inv(_hamiltonian(model, z=z))
    # D is formed, and then reduced to its rank-one residual, in the buffer of
    # the decoupled resolvent: no further (2N+1)^2 temporaries
    diff = decoupled_resolvent(model)
    np.subtract(resolvent, diff, out=diff)

    g = resolvent[:, mid] / math.sqrt(model.h)
    g00 = resolvent[mid, mid] / model.h
    outer = np.outer(g, g)
    coeff = complex(np.vdot(outer, diff) / np.vdot(outer, outer))
    coeff_resid = float(abs(coeff - 1.0 / g00))
    entry_resid = float(abs(diff[mid, mid] - g[mid] ** 2 / g00))

    outer *= coeff
    diff -= outer
    resid = math.sqrt(np.vdot(diff, diff).real)
    lead = abs(coeff) * np.vdot(g, g).real - resid
    sv_ratio = resid / lead if lead > 0.0 else math.inf

    cont_resid = None
    if g00_continuum is not None:
        g00_continuum = complex(g00_continuum)
        cont_resid = float(abs(g00 - g00_continuum))
    return RankOneReport(
        sv_ratio=float(sv_ratio),
        coeff=coeff,
        coeff_resid=coeff_resid,
        entry_resid=entry_resid,
        g00_continuum=g00_continuum,
        continuum_resid=cont_resid,
        condition=condition,
    )
