"""Finite-difference check of the rank-one resolvent identity.

On a grid of 2N+1 nodes with mesh h, the second-difference discretization H
and its Dirichlet-decoupled counterpart H_inf (origin node severed from both
half-lines) satisfy, exactly in exact arithmetic,

    (H - z)^-1 - (H_inf - z)^-1 = G00(z)^-1 g g^T,   g = (H - z)^-1 delta_0,

with delta_0 the origin unit vector scaled by 1/sqrt(h) and
G00(z) = [(H - z)^-1]_{00} / h, which converges to the continuum diagonal
Green function at rate h^2.  The check reports G00 and takes no continuum
value: the module never calls the m-solver, and comparing the two is the
caller's.

The check never takes an SVD.  For the fitted coefficient c and the residual
r = ||D - c g g^T||_F of the difference D, the Eckart-Young theorem and
Weyl's inequality give sv2(D) <= r and sv1(D) >= |c| ||g||^2 - r, so
r / (|c| ||g||^2 - r) is an upper bound on sv2/sv1.

D is never held whole.  H - z is tridiagonal, so its inverse X is
semiseparable (Meurant, SIAM J. Matrix Anal. Appl. 13 (1992) 707-728): from
the pivots u_i of the elimination below and the ratios c_i = -e / u_i,

    X[i, j] = x_j c_i c_{i+1} ... c_{j-1}  (i <= j),
    x_i = (1 - e c_i x_{i+1}) / u_i,  x_{2N} = 1 / u_{2N},

and X is complex symmetric.  The pivots are computed once per tridiagonal,
and the left half-line's are the first N of the full line's.  g and G00 are
read from X's origin column, where (H_inf - z)^-1 vanishes, in O(N).  The
coefficient c = <g g^T, D> / ||g g^T||_F^2 = g^H (D conj(g)) / (g^H g)^2
needs only D conj(g): the full-line solve of conj(g) less the two
Dirichlet half-line solves, each a forward and back substitution with the
same pivots.  r is then reduced in one pass over D's row blocks, bottom-up:
a block's square comes from the ratios inside it, the rest of its rows is
the outer product of their suffix products with the row just below the
block, carried from the block before, and each half-line inverse is made
the same way and subtracted on its own block.  D - c g g^T is complex
symmetric, so each block holds only the columns from its own first row on:
its square is summed once and the rest twice.  The check so holds
O(N x _ROW_BLOCK) numbers.  The inner products and sums of squares are
numpy.einsum reductions, which call no BLAS and sum in a fixed order, so the
check's bits do not depend on the BLAS thread count.

Nor does it take an eigendecomposition.  The elimination is guarded by a
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
it is factored by Gaussian elimination without pivoting.  The pivots of
A = LU are u_0 = d_0, u_i = d_i - e^2 / u_{i-1}, and on the z domain of
LatticeModel none of them can vanish:

* Im z > 0: Im d_i = -Im z, and Im(-e^2 / u) = e^2 Im u / |u|^2, so by
  induction every pivot has Im u_i <= -Im z;
* real z < min(v): by induction u_{i-1} > 1/h^2, so e^2 / u_{i-1} < 1/h^2,
  and every pivot satisfies u_i >= 1/h^2 + v_i - z > 0.

Error analysis of elimination on tridiagonal matrices: Higham, SIAM J.
Matrix Anal. Appl. 11 (1990) 521-530.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularResolvent
from .potential import Potential, effective_support, read_field

_COND_LIMIT = 1e12
_ROW_BLOCK = 32  # rows of D formed at a time

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
    """Residuals of the rank-one identity and the discrete G00 they are taken at."""

    sv_ratio: float  # upper bound on second / first singular value of the resolvent difference
    coeff: complex  # best-fit c in  D ~ c g g^T
    coeff_resid: float  # |c - 1/G00|
    entry_resid: float  # |D_00 - g_0^2 / G00|
    g00: np.complex128  # [(H - z)^-1]_{00} / h
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


def _pivots(diag: np.ndarray, off: float) -> np.ndarray:
    """Pivots of the LU factors of the symmetric tridiagonal tridiag(off, diag, off)."""
    off2 = off * off
    first, *rest = diag.tolist()
    pivots = [first]
    for d in rest:
        pivots.append(d - off2 / pivots[-1])
    pivots = np.array(pivots)
    if not np.isfinite(pivots).all():
        raise SingularResolvent("non-finite pivot in the tridiagonal elimination")
    return pivots


class _Inverse:
    """The inverse X of tridiag(off, diag, off) as O(N) numbers, from its pivots.

    X[i, j] = x_j c_i ... c_{j-1} for i <= j, with c_i = -off / u_i, see the
    module docstring; no entry is stored.
    """

    def __init__(self, pivots: np.ndarray, off: float):
        self.pivots = pivots
        self.ratios = -off / pivots
        diagonal = [1.0 / pivots[-1].item()]
        for u, c in zip(pivots[-2::-1].tolist(), self.ratios[-2::-1].tolist()):
            diagonal.append((1.0 - off * (diagonal[-1] * c)) / u)
        self.diagonal = np.array(diagonal[::-1])

    def column(self, j: int) -> np.ndarray:
        """X[:, j]."""
        ratios, x = self.ratios, self.diagonal
        out = np.empty(len(x), dtype=complex)
        out[j] = x[j]
        out[:j] = x[j] * np.cumprod(ratios[:j][::-1])[::-1]
        out[j + 1 :] = x[j + 1 :] * np.cumprod(ratios[j:-1])
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """X rhs, by forward and back substitution: O(N)."""
        ratios = self.ratios.tolist()
        # L w = rhs: w_i = rhs_i + c_{i-1} w_{i-1}
        forward = []
        acc = 0.0
        for b, c in zip(rhs.tolist(), [0.0, *ratios[:-1]]):
            acc = b + c * acc
            forward.append(acc)
        # U y = w: y_i = w_i / u_i + c_i y_{i+1}
        back = []
        acc = 0.0
        for w, u, c in zip(forward[::-1], self.pivots[::-1].tolist(), ratios[::-1]):
            acc = w / u + c * acc
            back.append(acc)
        return np.array(back[::-1])

    def row_blocks(self, starts: list[int]):
        """Yield (start, X[start:stop, start:]) for the descending block starts, bottom-up.

        The block's square holds x_j times the products of the ratios inside
        it; its other columns are the products' last column, c_i ... c_{stop-1},
        times row stop of X, carried from the block below.  Every block is a
        view of one buffer, overwritten by the next.
        """
        size = len(self.pivots)
        shifted = np.concatenate(([1.0], self.ratios))  # shifted[j] = c_{j-1}
        carry = np.empty(0, dtype=complex)
        rows = np.empty((_ROW_BLOCK, size), dtype=complex)
        # j > i, cut to a block's height: where its ratio products run
        strict_upper = np.arange(_ROW_BLOCK)[:, None] < np.arange(_ROW_BLOCK + 1)
        stop = size
        for start in starts:
            height = stop - start
            # products[i, j] = c_{start+i} ... c_{start+j-1} for j > i, else 1
            products = np.where(strict_upper[:height, : height + 1], shifted[start : stop + 1], 1.0)
            np.cumprod(products, axis=1, out=products)
            square = products[:, :height] * self.diagonal[start:stop]
            block = rows[:height, : size - start]
            # below the diagonal, X[i, j] = X[j, i]
            block[:, :height] = np.where(strict_upper[:height, :height].T, square.T, square)
            np.multiply.outer(products[:, height], carry, out=block[:, height:])
            carry = block[0].copy()
            yield start, block
            stop = start


def _inverses(model: LatticeModel) -> tuple[_Inverse, _Inverse, _Inverse]:
    """(H - z)^-1 and the left and right Dirichlet half-line inverses, each from its pivots."""
    mid = model.n
    diag, off = _tridiagonal(model)
    pivots = _pivots(diag, off)
    return (
        _Inverse(pivots, off),
        _Inverse(pivots[:mid], off),  # elimination runs top-down, so these are the same pivots
        _Inverse(_pivots(diag[mid + 1 :], off), off),
    )


def _difference_blocks(full: _Inverse, left: _Inverse, right: _Inverse):
    """Yield (start, D[start:stop, start:]) over D's row blocks, bottom-up.

    D is complex symmetric, so the blocks hold every entry of it once or,
    right of their squares, in place of its mirror image below them.
    """
    mid = len(left.pivots)
    half_starts = [*range(mid - _ROW_BLOCK, 0, -_ROW_BLOCK), 0]  # the short block on top
    starts = [mid + 1 + start for start in half_starts] + [mid] + half_starts
    halves = itertools.chain(right.row_blocks(half_starts), [None], left.row_blocks(half_starts))
    for (start, block), half in zip(full.row_blocks(starts), halves):
        if half is not None:
            part = half[1]
            block[:, : part.shape[1]] -= part
        yield start, block


def decoupled_resolvent(model: LatticeModel) -> np.ndarray:
    """(H_inf - z)^-1 embedded in the full grid: block inverses, zero origin row/column.

    Filled column by column from the two half-line inverses the check uses;
    the check itself never builds this matrix.
    """
    mid = model.n
    _, left, right = _inverses(model)
    out = np.zeros((2 * mid + 1, 2 * mid + 1), dtype=complex)
    for j in range(mid):
        out[:mid, j] = left.column(j)
        out[mid + 1 :, mid + 1 + j] = right.column(j)
    return out


def _sum_squares(a: np.ndarray) -> float:
    """Sum of the squared moduli of a complex matrix, in a fixed order and without BLAS."""
    parts = a.view(float)
    return float(np.einsum("ij,ij->", parts, parts))


def resolvent_difference_check(model: LatticeModel) -> RankOneReport:
    """Verify the rank-one identity on the model, from the tridiagonal elimination.

    The report carries the discrete G00, which converges at O(h^2) to the
    continuum diagonal Green function -1/(m_l + m_r) at the same z.
    """
    mid = model.n
    z = model.z
    # upper bound on cond_2(H - z), see the module docstring
    dist = math.hypot(max(float(model.v.min()) - z.real, 0.0), z.imag)
    condition = (4.0 / model.h**2 + float(np.abs(model.v).max()) + abs(z)) / dist
    if not math.isfinite(condition) or condition > _COND_LIMIT:
        raise SingularResolvent(f"resolvent solve condition bound {condition:.3e}")
    full, left, right = _inverses(model)

    # g, G00 and c in O(N), see the module docstring
    d00 = full.diagonal[mid]
    g = full.column(mid) / math.sqrt(model.h)
    g00 = d00 / model.h
    g_conj = g.conj()
    d_g = full.solve(g_conj)
    d_g[:mid] -= left.solve(g_conj[:mid])
    d_g[mid + 1 :] -= right.solve(g_conj[mid + 1 :])
    g_norm2 = float(np.einsum("i,i->", g_conj, g).real)
    coeff = complex(np.einsum("i,i->", g_conj, d_g) / g_norm2**2)
    coeff_resid = float(abs(coeff - 1.0 / g00))
    entry_resid = float(abs(d00 - g[mid] ** 2 / g00))

    # ||D - c g g^T||_F^2 a block of rows at a time: the square once, the rest twice
    scaled = coeff * g
    outer = np.empty((_ROW_BLOCK, len(g)), dtype=complex)
    total = 0.0
    for start, block in _difference_blocks(full, left, right):
        height, width = block.shape
        part = outer[:height, :width]
        np.multiply.outer(scaled[start : start + height], g[start:], out=part)
        block -= part
        total += _sum_squares(block[:, :height]) + 2.0 * _sum_squares(block[:, height:])
    resid = math.sqrt(total)
    lead = abs(coeff) * g_norm2 - resid
    sv_ratio = resid / lead if lead > 0.0 else math.inf
    return RankOneReport(
        sv_ratio=float(sv_ratio),
        coeff=coeff,
        coeff_resid=coeff_resid,
        entry_resid=entry_resid,
        g00=g00,
        condition=condition,
    )
