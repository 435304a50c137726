"""Half-line Weyl m-functions for -u'' + V u = z u.

For Im z > 0 the square-integrable solution on each half-line is unique up to
scale; its logarithmic derivative at the origin is computed by integrating the
linear system (u, u') inward from outside the potential's support, starting
from the decaying plane-wave asymptotic.  Signs are normalized so that both

    m_left(z)  = -u_l'(z, 0) / u_l(z, 0)
    m_right(z) = +u_r'(z, 0) / u_r(z, 0)

map the upper half-plane into itself (Herglotz).  On the free line both equal
i*sqrt(z).

Boundary values m(lambda + i0) come from direct integration at real energy
when the potential has exact compact support, and otherwise from polynomial
extrapolation of m(lambda + i*eps) down a decreasing ladder of eps.  Values at
lambda - i0 are never integrated; take conjugates.

All solves of one call run together: a lane is one (z, side, tolerance)
solve, and a single Dormand-Prince kernel advances every lane in lockstep
over numpy arrays.  `sweep` batches a whole energy grid this way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationDivergence, NodeAtOrigin, OdeStepFailure
from .potential import Potential, effective_support

# Extra integration length for potentials with decaying (inexact) tails, so the
# plane-wave initialization sits below truncation_tol residue.  Potentials with
# exact compact support start at the support edge itself.
SUPPORT_MARGIN = 2.0

_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the m-function solver."""

    truncation_tol: float = 1e-12
    rel_ode_tol: float = 1e-10
    abs_ode_tol: float = 1e-12
    eps_ladder: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
    renorm_interval: int = 16

    def __post_init__(self):
        if self.truncation_tol <= 0 or self.rel_ode_tol <= 0 or self.abs_ode_tol <= 0:
            raise ValueError("tolerances must be positive")
        ladder = tuple(float(e) for e in self.eps_ladder)
        if len(ladder) < 2 or ladder[-1] <= 0 or any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("eps_ladder must be strictly decreasing and positive")
        if self.renorm_interval < 1:
            raise ValueError("renorm_interval must be a positive integer")
        object.__setattr__(self, "eps_ladder", ladder)


@dataclass(frozen=True)
class MValue:
    """A single m-function evaluation with its error estimate."""

    side: str
    z: complex
    m: complex
    err_estimate: float


# Dormand-Prince 5(4) coefficients (FSAL pair).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)


# Distinct abscissae of one attempt, as fractions of the step: stages 2-5,
# then x + h, which stages 6 and 7 share.
_NODES = np.array([_C2, _C3, _C4, _C5, 1.0])[:, None]


def _slope(out, y, vz):
    """Right-hand side (u', (V - z) u) of the stacked pair y = (u, u'), written into out."""
    out[0] = y[1]
    out[1] = vz * y[0]


def _integrate(p: Potential, z, right, rtol, atol, opts: SolverOptions):
    """Log-derivatives at the origin for a batch of lanes, any complex z.

    A lane is one solve: its z, its side (`right` true or false) and its
    tolerances.  Every lane integrates (u, u') from outside the support to the
    origin with its own position, step size, segment, FSAL slope, counters
    and renormalization cadence, so its result does not depend on the other
    lanes; only the arithmetic is shared, over numpy arrays.  Inactive lanes
    take zero-length steps and masks keep their state.  Scaling the pair
    (u, u') is harmless: only the ratio u'/u is used.

    Returns the m-values (NaN where a lane failed) and, per lane, None or
    the typed error that stopped it.
    """
    n = z.size
    sign = np.where(right, 1.0, -1.0)
    vtail = np.where(right, p.tail_value("right"), p.tail_value("left"))
    w = np.sqrt(z - vtail)
    w = np.where(w.imag < 0, -w, w)  # the branch with nonnegative imaginary part
    slope = 1j * w * sign  # u'/u of the decaying tail solution at sign * x_edge
    failures: list[Exception | None] = [None] * n
    x_edge = effective_support(p, opts.truncation_tol)
    if x_edge > 0.0 and not p.exact_support:
        x_edge += SUPPORT_MARGIN
    if x_edge == 0.0:
        return sign * slope, failures

    # split at interior breakpoints so each RK segment sees smooth V
    plans = (
        sorted(b for b in p.breakpoints() if -x_edge < b < 0.0) + [0.0],
        sorted((b for b in p.breakpoints() if 0.0 < b < x_edge), reverse=True) + [0.0],
    )
    width = max(map(len, plans))
    side = right.astype(int)
    plan = np.array([s + [0.0] * (width - len(s)) for s in plans])[side]
    n_seg = np.array([len(s) for s in plans])[side]
    lanes = np.arange(n)

    cap = np.minimum(0.1, 0.5 / np.sqrt(np.maximum(np.abs(z - p.lower_bound), 1e-12)))
    x = sign * x_edge
    h = np.minimum(cap, x_edge) * 0.25
    y = np.stack([np.ones(n, dtype=complex), slope])
    k = np.zeros((7, 2, n), dtype=complex)  # stage slopes; k[0] is the FSAL slot
    # the start point is the end of segment -1, so the first pass enters segment 0
    seg = np.full(n, -1)
    target = x.copy()
    tiny = np.ones(n)
    direction = np.zeros(n)
    span = np.zeros(n)
    accepted = np.zeros(n, dtype=int)
    attempts = np.zeros(n, dtype=int)
    active = np.ones(n, dtype=bool)
    m = np.full(n, complex(np.nan, np.nan))

    def fail(mask, error, message):
        if mask.any():
            for i in np.flatnonzero(mask):
                side_name = ("left", "right")[side[i]]
                failures[i] = error(f"{message} for side={side_name}, z={complex(z[i])}")
            active[mask] = False

    while True:
        gap = np.abs(target - x)
        done = active & (gap <= tiny)
        if done.any():
            np.copyto(x, target, where=done)
            seg += done
            end = done & (seg == n_seg)
            if end.any():
                u, du = y
                node = end & (np.abs(u) <= 1e-13 * np.maximum(np.abs(u), np.abs(du)))
                good = np.flatnonzero(end & ~node)
                m[good] = sign[good] * (du[good] / u[good])
                active[end] = False
                fail(node, NodeAtOrigin, "u(0) underflowed")
            enter = done & ~end
            if enter.any():
                np.copyto(target, plan[lanes, np.minimum(seg, width - 1)], where=enter)
                np.copyto(direction, np.where(target > x, 1.0, -1.0), where=enter)
                np.copyto(span, np.abs(target - x), where=enter)
                edge = np.maximum(np.abs(target), np.abs(x))
                np.copyto(tiny, 1e-14 * np.maximum(1.0, edge), where=enter)
                vz = p.value(x) - z
                np.copyto(k[0], np.stack([y[1], vz * y[0]]), where=enter)
            continue  # a segment entered may already be within tiny of its end
        if not active.any():
            break

        np.copyto(h, np.minimum(np.minimum(h, cap), gap), where=active)
        fail(
            active & (h < 1e-14 * span),
            OdeStepFailure,
            "step size underflow while meeting tolerances",
        )
        hh = np.where(active, direction * h, 0.0)
        vz = p.value(x + _NODES * hh) - z  # one potential call per attempt
        _slope(k[1], y + hh * (_A21 * k[0]), vz[0])
        _slope(k[2], y + hh * (_A31 * k[0] + _A32 * k[1]), vz[1])
        _slope(k[3], y + hh * (_A41 * k[0] + _A42 * k[1] + _A43 * k[2]), vz[2])
        _slope(k[4], y + hh * (_A51 * k[0] + _A52 * k[1] + _A53 * k[2] + _A54 * k[3]), vz[3])
        _slope(
            k[5],
            y + hh * (_A61 * k[0] + _A62 * k[1] + _A63 * k[2] + _A64 * k[3] + _A65 * k[4]),
            vz[4],
        )
        y_new = y + hh * (_B1 * k[0] + _B3 * k[2] + _B4 * k[3] + _B5 * k[4] + _B6 * k[5])
        _slope(k[6], y_new, vz[4])
        e = hh * (_E1 * k[0] + _E3 * k[2] + _E4 * k[3] + _E5 * k[4] + _E6 * k[5] + _E7 * k[6])
        r = np.abs(e) / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
        err = np.sqrt(0.5 * (r[0] ** 2 + r[1] ** 2))

        attempts += active
        fail(active & (attempts >= _MAX_STEPS), OdeStepFailure, "step budget exhausted")
        ok = active & (err <= 1.0)
        np.copyto(x, x + hh, where=ok)
        np.copyto(y, y_new, where=ok)
        np.copyto(k[0], k[6], where=ok)  # FSAL
        accepted += ok
        renorm = ok & (accepted % opts.renorm_interval == 0)
        if renorm.any():
            size = np.maximum(np.abs(y[0]), np.abs(y[1]))
            renorm &= size > 0.0
            inv = 1.0 / np.where(renorm, size, 1.0)
            np.copyto(y, y * inv, where=renorm)
            np.copyto(k[0], k[0] * inv, where=renorm)
        # A NaN error estimate must shrink the step like any rejection, so NaN
        # maps to the 0.2 floor (fmax), and err == 0 to the 5x ceiling (inf).
        grow = 0.9 * np.power(err, -0.2, out=np.full(n, np.inf), where=err != 0.0)
        factor = np.fmax(0.2, grow)
        factor = np.where(ok, np.minimum(5.0, factor), factor)
        np.copyto(h, h * factor, where=active)
    return m, failures


def _neville_to_zero(eps, values):
    """Diagonal of the Neville tableau extrapolating values(eps) to eps = 0.

    The ladder runs along the first axis of values; trailing axes ride along.
    """
    t = list(values)
    n = len(t)
    diag = [t[0]]
    for k in range(1, n):
        for i in range(n - k):
            t[i] = (eps[i] * t[i + 1] - eps[i + k] * t[i]) / (eps[i] - eps[i + k])
        diag.append(t[0])
    return diag


def _m_values(p: Potential, z, sides, opts: SolverOptions, ladder: bool):
    """m and its error bar for every side at every z, solved as one batch.

    Without `ladder`, each (z, side) is solved at the working tolerance and at
    half of it: the finer value is returned and the gap between the two is the
    error bar.  With `ladder` (real z), each is solved at z + i*eps down
    opts.eps_ladder and extrapolated to eps = 0; the error bar is the gap
    between the last two extrapolants.

    Returns (m, err) of shape (len(sides), len(z)).  The error raised is the
    one a loop over z, then sides, then rungs would meet first.
    """
    z = np.asarray(z, dtype=complex)
    for side in sides:
        p.tail_value(side)  # rejects an unknown side
    if ladder:
        eps = opts.eps_ladder
        zz = np.empty((len(eps), len(sides), z.size), dtype=complex)
        zz.real = z.real
        zz.imag = np.asarray(eps)[:, None, None]
        rtol = np.full(zz.shape, opts.rel_ode_tol)
        atol = np.full(zz.shape, opts.abs_ode_tol)
    else:
        zz = np.broadcast_to(z, (2, len(sides), z.size))
        rtol = np.broadcast_to(np.array([1.0, 0.5])[:, None, None] * opts.rel_ode_tol, zz.shape)
        atol = np.broadcast_to(np.array([1.0, 0.5])[:, None, None] * opts.abs_ode_tol, zz.shape)
    right = np.broadcast_to(np.array([s == "right" for s in sides])[None, :, None], zz.shape)
    flat, failures = _integrate(p, zz.ravel(), right.ravel(), rtol.ravel(), atol.ravel(), opts)
    values = flat.reshape(zz.shape)

    if ladder:
        diag = np.array(_neville_to_zero(eps, values))
        diffs = np.abs(np.diff(diag, axis=0))
        m = diag[-1]
        floor = 1e-8 * (1.0 + np.abs(m))
        diverged = ((diffs[1:] > 10.0 * diffs[:-1]) & (diffs[1:] > floor)).any(axis=0)
        # a ladder that stops contracting can miss the 10x rule (m ~ eps^-1/2 at a
        # band edge grows only ~3x per decade) yet is equally unusable
        if len(diffs) > 1:
            diverged |= (diffs[-1] >= diffs[-2]) & (diffs[-1] > floor)
        err = diffs[-1] + 1e-15 * (1.0 + np.abs(m))
    else:
        coarse, m = values
        err = np.abs(m - coarse) + 1e-15 * (1.0 + np.abs(m))
        diverged = np.zeros(m.shape, dtype=bool)

    failed = np.array([f is not None for f in failures]).reshape(zz.shape)
    bad = failed.any(axis=0) | diverged
    if bad.any():
        i, s = divmod(int(np.argmax(bad.T)), len(sides))
        if failed[:, s, i].any():
            rung = int(np.argmax(failed[:, s, i]))
            raise failures[np.ravel_multi_index((rung, s, i), zz.shape)]
        raise ExtrapolationDivergence(
            f"extrapolants diverge at lambda={float(z[i].real)} (side={sides[s]}); "
            "lambda may sit at a spectral singularity"
        )
    return m, err


def _m_halfline(side: str, p: Potential, z: complex, opts: SolverOptions, rtol: float, atol: float) -> complex:
    """Log-derivative of the decaying solution at the origin, any complex z.

    This is the raw solver on one lane; the public entry points restrict z to
    the closed upper half-plane and add error estimates.
    """
    p.tail_value(side)  # rejects an unknown side
    m, failures = _integrate(
        p,
        np.array([complex(z)]),
        np.array([side == "right"]),
        np.array([float(rtol)]),
        np.array([float(atol)]),
        opts,
    )
    if failures[0] is not None:
        raise failures[0]
    return complex(m[0])


def interior_m(side: str, p: Potential, z: complex, opts: SolverOptions | None = None) -> MValue:
    """Weyl m-function at z with Im z > 0.

    The error estimate bounds the observed change of the result when the
    relative ODE tolerance is halved.
    """
    opts = opts or SolverOptions()
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("interior_m requires Im z > 0; use boundary_m on the real axis")
    m, err = _m_values(p, [z], (side,), opts, ladder=False)
    return MValue(side=side, z=z, m=complex(m[0, 0]), err_estimate=float(err[0, 0]))


def sweep(
    p: Potential, grid, opts: SolverOptions | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary values m(lambda + i0) on both sides at every energy of grid.

    All energies, both sides and every tolerance or eps rung are integrated
    as one lockstep batch; the result at each energy equals boundary_m's,
    bit for bit.  Returns the arrays (m_l, m_r, err_l, err_r).  A failure
    raises the typed error of the first failing energy in grid order, left
    side before right.
    """
    opts = opts or SolverOptions()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1D sequence of energies")
    m, err = _m_values(p, grid, ("left", "right"), opts, ladder=not p.exact_support)
    return m[0], m[1], err[0], err[1]


def boundary_m(side: str, p: Potential, lam: float, opts: SolverOptions | None = None) -> MValue:
    """Boundary value m(lambda + i0).

    Exact compact support: integrate at real energy with the oscillatory (or
    decaying, below the tail) initialization.  Otherwise: evaluate down the
    eps ladder and extrapolate polynomially to eps = 0; the error estimate is
    the gap between the last two extrapolants.
    """
    opts = opts or SolverOptions()
    lam = float(lam)
    m, err = _m_values(p, [lam], (side,), opts, ladder=not p.exact_support)
    return MValue(side=side, z=complex(lam, 0.0), m=complex(m[0, 0]), err_estimate=float(err[0, 0]))


def ac_density(side: str, p: Potential, lam: float, opts: SolverOptions | None = None) -> float:
    """Density of the absolutely continuous half-line spectral measure at lambda."""
    return max(boundary_m(side, p, lam, opts).m.imag, 0.0)
