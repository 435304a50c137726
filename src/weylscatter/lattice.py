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

D lives in one (2N+1)^2 buffer, that of the resolvent.  H_inf - z is block
diagonal, so D is the resolvent less each Dirichlet half-line inverse on its
own block, the two inverses taking turns in one N x N scratch.  g and G00
are read from D's origin column, where (H_inf - z)^-1 vanishes;
||g g^T||_F^2 = (g^H g)^2 in closed form, and c g g^T is subtracted from D a
block of rows at a time, never formed whole.  The inner products and the
Frobenius norm are numpy.einsum reductions, which call no BLAS and sum in a
fixed order, so the check's bits do not depend on the BLAS thread count.

Nor does it take an eigendecomposition.  The inversion is guarded by a
closed-form upper bound on cond_2(H - z) from (n, h, v, z) alone: H is real
symmetric, so the singular values of H - z are |lambda_i - z|.  Gershgorin
gives |lambda_i| <= 4/h^2 + max|v|, so |lambda_i - z| <= 4/h^2 + max|v| + |z|.
The Dirichlet Laplacian is positive definite, so every lambda_i exceeds
min(v), and |lambda_i - z| >= hypot(max(min(v) - Re z, 0), Im z) > 0 on the
z domain of LatticeModel.  On verify's models the ratio of the two is
within a factor 4 of the exact cond_2.

No dense H is built and no BLAS or LAPACK routine is called.  H - z, and each
Dirichlet half-line block of H_inf - z, is the complex symmetric tridiagonal
matrix with diagonal d_i = 2/h^2 + v_i - z and off-diagonal e = -1/h^2, and
it is inverted by Gaussian elimination without pivoting, in O(N^2).  The
pivots of A = LU are u_0 = d_0, u_i = d_i - e^2 / u_{i-1}, and on the z
domain of LatticeModel none of them can vanish:

* Im z > 0: Im d_i = -Im z, and Im(-e^2 / u) = e^2 Im u / |u|^2, so by
  induction every pivot has Im u_i <= -Im z;
* real z < min(v): by induction u_{i-1} > 1/h^2, so e^2 / u_{i-1} < 1/h^2,
  and every pivot satisfies u_i >= 1/h^2 + v_i - z > 0.

The forward sweep L Y = I leaves Y unit lower triangular: on and above the
diagonal Y is the identity, so the back sweep U X = Y over the upper
triangle reads nothing else of Y.  Row i of that triangle is
X[i, i+1:] = -(e / u_i) X[i+1, i+1:], then X[i, i] = (1 - e X[i, i+1]) / u_i,
and X is complex symmetric, so each row is also written into its column.
Each step is one row operation, vectorized along the row.  Error analysis of elimination on tridiagonal matrices:
Higham, SIAM J. Matrix Anal. Appl. 11 (1990) 521-530.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularResolvent
from .potential import Potential, effective_support, read_field

_COND_LIMIT = 1e12
_ROW_BLOCK = 32  # rows of c g g^T formed at a time

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
        object.__setattr__(self, "n", read_field("n", "int", self.n, ValueError))
        object.__setattr__(self, "h", read_field("h", "float", self.h, ValueError))
        # v may hold a non-finite sample: the elimination refuses its pivot
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


def _tridiagonal(model: LatticeModel) -> tuple[np.ndarray, float]:
    """Diagonal and off-diagonal of H - z."""
    inv_h2 = 1.0 / model.h**2
    return 2.0 * inv_h2 + model.v - model.z, -inv_h2


def _pivots(diag: np.ndarray, off: float) -> list[complex]:
    """Pivots of the LU factors of the symmetric tridiagonal tridiag(off, diag, off)."""
    off2 = off * off
    first, *rest = diag.tolist()
    pivots = [first]
    for d in rest:
        pivots.append(d - off2 / pivots[-1])
    if not np.isfinite(pivots).all():
        raise SingularResolvent("non-finite pivot in the tridiagonal elimination")
    return pivots


def _invert_into(out: np.ndarray, diag: np.ndarray, off: float) -> None:
    """Write the inverse of tridiag(off, diag, off) into out, every entry of it."""
    pivots = _pivots(diag, off)
    out[-1, -1] = 1.0 / pivots[-1]
    for i in range(len(pivots) - 2, -1, -1):
        row = out[i, i + 1 :]
        np.multiply(out[i + 1, i + 1 :], -off / pivots[i], out=row)
        out[i, i] = (1.0 - off * row[0]) / pivots[i]
        out[i + 1 :, i] = row


def _resolvent(model: LatticeModel) -> np.ndarray:
    """(H - z)^-1 on the full grid."""
    size = 2 * model.n + 1
    out = np.empty((size, size), dtype=complex)
    _invert_into(out, *_tridiagonal(model))
    return out


def decoupled_resolvent(model: LatticeModel) -> np.ndarray:
    """(H_inf - z)^-1 embedded in the full grid: block inverses, zero origin row/column.

    A reference: the check subtracts the block inverses from the resolvent in
    place and never builds this matrix.
    """
    size = 2 * model.n + 1
    mid = model.n
    diag, off = _tridiagonal(model)
    out = np.zeros((size, size), dtype=complex)
    for block in (slice(None, mid), slice(mid + 1, None)):
        _invert_into(out[block, block], diag[block], off)
    return out


def _sum_squares(a: np.ndarray) -> float:
    """Sum of the squared entries of a real matrix, in a fixed order and without BLAS."""
    return float(np.einsum("ij,ij->", a, a))


def resolvent_difference_check(
    model: LatticeModel, g00_continuum: complex | None = None
) -> RankOneReport:
    """Verify the rank-one identity on the model, inverting by tridiagonal elimination.

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
    # D in the buffer of the resolvent, see the module docstring
    diff = _resolvent(model)
    diag, off = _tridiagonal(model)
    half_inverse = np.empty((mid, mid), dtype=complex)
    for block in (slice(None, mid), slice(mid + 1, None)):
        _invert_into(half_inverse, diag[block], off)
        diff[block, block] -= half_inverse
    del half_inverse

    g = diff[:, mid] / math.sqrt(model.h)
    g00 = diff[mid, mid] / model.h
    g_conj = g.conj()
    # <g g^T, D> = g^H (D conj(g)), a row sum at a time, and ||g g^T||_F^2 = (g^H g)^2
    g_norm2 = float(np.einsum("i,i->", g_conj, g).real)
    d_g = np.einsum("ij,j->i", diff, g_conj)
    coeff = complex(np.einsum("i,i->", g_conj, d_g) / g_norm2**2)
    coeff_resid = float(abs(coeff - 1.0 / g00))
    entry_resid = float(abs(diff[mid, mid] - g[mid] ** 2 / g00))

    # D - c g g^T in place, c g g^T formed a block of rows at a time
    part = np.empty((_ROW_BLOCK, len(g)), dtype=complex)
    for start in range(0, len(g), _ROW_BLOCK):
        rows = diff[start : start + _ROW_BLOCK]
        outer = part[: len(rows)]
        np.multiply.outer(g[start : start + _ROW_BLOCK], g, out=outer)
        outer *= coeff
        rows -= outer
    resid = math.sqrt(_sum_squares(diff.real) + _sum_squares(diff.imag))
    lead = abs(coeff) * g_norm2 - resid
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
