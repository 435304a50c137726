"""Half-line Weyl m-functions for -u'' + V u = z u.

For Im z > 0 the square-integrable solution on each half-line is unique up to
scale; its logarithmic derivative at the origin is computed by integrating the
linear system (u, u') inward from outside the potential's support, starting
from the decaying plane-wave asymptotic.  Signs are normalized so that both

    m_left(z)  = -u_l'(z, 0) / u_l(z, 0)
    m_right(z) = +u_r'(z, 0) / u_r(z, 0)

map the upper half-plane into itself (Herglotz).  On the free line both equal
i*sqrt(z).

Boundary values m(lambda + i0) come from one path: integrate at real energy
from effective_support(truncation_tol), plus SUPPORT_MARGIN for decaying
tails, with the oscillatory (or decaying, below the tail) initialization.
Values at lambda - i0 are never integrated; take conjugates.  Every value
carries an error bar, the change of m when the ODE tolerances are halved; a
value whose error bar exceeds SINGULAR_ERR * (1 + |m|) is refused with
SpectralSingularity, since near a pole of m (a band edge or a Dirichlet
eigenvalue) the two solves disagree at leading order.

All solves of one call run together: a lane is one (z, side, tolerance)
solve, and a single Dormand-Prince kernel advances every running lane in
lockstep over numpy arrays; a lane leaves the arrays when it finishes or
fails.  `sweep` batches a whole energy grid this way.  A batch takes as many
attempt passes as its slowest lane needs, and each pass makes a fixed number
of numpy calls whatever the lane count: the Butcher tableau is summed by
column into reused work arrays, bit for bit the row-by-row sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NodeAtOrigin, OdeStepFailure, SpectralSingularity
from .potential import Potential, effective_support

# Extra integration length for potentials with decaying (inexact) tails, so the
# plane-wave initialization sits below truncation_tol residue.  Potentials with
# exact compact support start at the support edge itself.
SUPPORT_MARGIN = 2.0

# Largest error bar accepted, relative to 1 + |m|.  Legitimate values stay
# below about 5e-11 at the default tolerances; near a pole of m the error bar
# is of the order of m itself.
SINGULAR_ERR = 1e-8

_MAX_STEPS = 2_000_000
_RENORM_INTERVAL = 16  # accepted steps between rescalings of (u, u')


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the m-function solver."""

    truncation_tol: float = 1e-12
    rel_ode_tol: float = 1e-10
    abs_ode_tol: float = 1e-12

    def __post_init__(self):
        for name in ("truncation_tol", "rel_ode_tol", "abs_ode_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


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

# The tableau by column.  An attempt keeps seven running sums: the inputs of
# stages 2-6, then y_new, then the error estimate.  Column j holds the
# coefficients of slope k_j in the sums from row j on that use it, so each
# slope is added to all of its sums as soon as it is known, and every sum
# still adds its terms in tableau order.  k_1 skips y_new and the error, whose
# coefficients are zero: a product 0 * inf would turn a failing lane's value
# into NaN.  The coefficients are complex so that no product casts.
_COLUMNS = tuple(
    np.array(column, dtype=complex)[:, None]
    for column in (
        [_A21, _A31, _A41, _A51, _A61, _B1, _E1],
        [_A32, _A42, _A52, _A62],
        [_A43, _A53, _A63, _B3, _E3],
        [_A54, _A64, _B4, _E4],
        [_A65, _B5, _E5],
        [_B6, _E6],
        [_E7],
    )
)


class _Lanes:
    """Per-lane arrays of the lanes still running, one entry per lane on the last axis."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, sel) -> None:
        """Drop every lane that the boolean mask sel does not select.

        compress keeps each array C-contiguous; indexing [..., sel] would put
        the lane axis outermost in memory and slow every later pass.
        """
        for name, values in list(vars(self).items()):
            setattr(self, name, values.compress(sel, axis=-1))


class _Scratch:
    """Work arrays of the attempt passes of one batch, allocated once for its first width.

    Every pass writes them through out=, so a pass allocates nothing but V's
    values.  When lanes leave, fit() views the first arrays at the new lane
    count, so the batch allocates no more.  Like the lane state, stages[j]
    holds stage j + 2's input (u, u') in rows 0-1 and its slope
    (u', (V - z) u) in rows 1-2; stages[5] is the state after an accepted step.
    """

    def __init__(self, width: int):
        self._store: dict[str, np.ndarray] = {}
        # Each tableau column repeated over (u, u') and the lanes, one row per
        # coefficient: numpy multiplies two complex arrays faster than it
        # multiplies by a broadcast factor, with the same bits.
        self._columns = [np.repeat(column, 2 * width, axis=1) for column in _COLUMNS]
        self.n = -1

    def _array(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        """A contiguous array of this shape, a view of the first one allocated under name."""
        size = math.prod(shape)
        if name not in self._store:
            self._store[name] = np.empty(size, dtype=dtype)
        return self._store[name][:size].reshape(shape)

    def fit(self, z) -> None:
        """Lay the work arrays out for the running lanes, whose z are given."""
        n = z.size
        self.n = n
        array = self._array
        # the signed step, once per component of y, so that no product broadcasts
        self.hc = array("hc", (2, n), complex)
        self.hc.imag = 0.0
        self.hh = self.hc[0].real
        columns = [full[:, : 2 * n].reshape(-1, 2, n) for full in self._columns]
        self.k0_column = columns[0]
        self.xs = array("xs", (5, n))
        # V is real, so (V + 0j) - z has imaginary part 0 - Im z on every pass
        self.vz = array("vz", (5, n), complex)
        np.subtract(0.0, z.imag, out=self.vz.imag)
        self.acc = array("acc", (7, 2, n), complex)  # the running sums, see _COLUMNS
        self.terms = array("terms", (7, 2, n), complex)
        # one array per stage, so that none here passes glibc's 128 KiB mmap
        # threshold below about 580 lanes
        self.stages = [array(f"stage{j}", (3, n), complex) for j in range(6)]
        self.y_new = self.stages[5][:2]
        # per stage j + 2 (y_new for j = 5): its sum, input, u, slope row to
        # fill, slope and V - z, then the next column and the sums it feeds
        self.plan = []
        for j, column in enumerate(columns[1:]):
            rows = slice(j + 1, j + 1 + column.shape[0])
            stage = self.stages[j]
            self.plan.append(
                (
                    self.acc[j],
                    stage[:2],
                    stage[0],
                    stage[2],
                    stage[1:],
                    self.vz[min(j, 4)],
                    column,
                    self.terms[rows],
                    self.acc[rows],
                )
            )
        self.r = array("r", (2, n))
        self.scale = array("scale", (2, n))
        self.scale_new = array("scale_new", (2, n))
        self.gap = array("gap", (n,))
        self.err = array("err", (n,))
        self.grow = array("grow", (n,))
        self.phase = array("phase", (n,), int)
        self.done = array("done", (n,), bool)
        self.under = array("under", (n,), bool)
        self.ok = array("ok", (n,), bool)
        self.renorm = array("renorm", (n,), bool)
        self.nonzero = array("nonzero", (n,), bool)


def _integrate(p: Potential, z, right, rtol, atol, opts: SolverOptions):
    """Log-derivatives at the origin for a batch of lanes, any complex z.

    A lane is one solve: its z, its side (`right` true or false) and its
    tolerances.  Every lane integrates (u, u') from outside the support to the
    origin with its own position, step size, segment, FSAL slope, counters
    and renormalization cadence, so its result does not depend on the other
    lanes; only the arithmetic is shared, over numpy arrays.  The arrays hold
    the running lanes only: a lane that reaches the origin or fails is
    gathered out, so every attempt pass advances every lane it holds.
    Scaling the pair (u, u') is harmless: only the ratio u'/u is used.

    A batch takes as many attempt passes as its slowest lane needs, and a
    pass makes the same 70 numpy calls (plus V's) whatever the lane count, so
    a batch costs about (passes of its slowest lane) x (cost of one pass).
    The tableau is summed by column (_COLUMNS), a multiply and an add per
    slope, each sum still adding its terms in tableau order, and every call
    writes into work arrays (_Scratch) allocated once per batch.

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
    plan = np.array([ends + [0.0] * (width - len(ends)) for ends in plans])  # segment ends per side
    side = right.astype(int)
    x = sign * x_edge
    cap = np.minimum(0.1, 0.5 / np.sqrt(np.maximum(np.abs(z - p.lower_bound), 1e-12)))
    s = _Lanes(
        lane=np.arange(n),
        side=side,
        n_seg=np.array([len(ends) for ends in plans])[side],
        z=z,
        sign=sign,
        rtol=rtol,
        atol=atol,
        cap=cap,
        x=x,
        h=np.minimum(cap, x_edge) * 0.25,
        # (u, u', (V - z) u) at x: the pair y = (u, u') in rows 0-1 and its
        # slope, the FSAL stage of the next step, in rows 1-2
        yk=np.stack([np.ones(n, dtype=complex), slope, np.zeros(n, dtype=complex)]),
        # the start point is the end of segment -1, so the first pass enters segment 0
        seg=np.full(n, -1),
        target=x.copy(),
        tiny=np.ones(n),
        direction=np.zeros(n),
        floor=np.zeros(n),  # smallest step allowed in the current segment
        accepted=np.zeros(n, dtype=int),
    )
    m = np.full(n, complex(np.nan, np.nan))
    attempts = 0  # attempt passes so far; every running lane took part in each
    work = _Scratch(n)

    def fail(at, error, message):
        """Record the typed error of the running lanes at positions at."""
        for i in at:
            side_name = ("left", "right")[s.side[i]]
            failures[s.lane[i]] = error(f"{message} for side={side_name}, z={complex(s.z[i])}")

    while s.lane.size:
        if work.n != s.lane.size:  # keep() drops lanes, so a new count is a new lane set
            work.fit(s.z)
        gap = np.abs(np.subtract(s.target, s.x, out=work.gap), out=work.gap)
        done = np.less_equal(gap, s.tiny, out=work.done)
        if done.any():
            np.copyto(s.x, s.target, where=done)
            s.seg += done
            end = done & (s.seg == s.n_seg)
            if end.any():
                at = np.flatnonzero(end)
                u, du = s.yk[:2, at]
                node = np.abs(u) <= 1e-13 * np.maximum(np.abs(u), np.abs(du))
                good = ~node
                m[s.lane[at[good]]] = s.sign[at[good]] * (du[good] / u[good])
                fail(at[node], NodeAtOrigin, "u(0) underflowed")
                s.keep(~end)
                done = done[~end]
            enter = np.flatnonzero(done)
            if enter.size:
                x_in = s.x[enter]
                target = plan[s.side[enter], s.seg[enter]]
                s.target[enter] = target
                s.direction[enter] = np.where(target > x_in, 1.0, -1.0)
                s.floor[enter] = 1e-14 * np.abs(target - x_in)
                edge = np.maximum(np.abs(target), np.abs(x_in))
                s.tiny[enter] = 1e-14 * np.maximum(1.0, edge)
                vz = p.value(x_in) - s.z[enter]
                s.yk[2, enter] = vz * s.yk[0, enter]
            continue  # a segment entered may already be within tiny of its end

        np.minimum(s.h, s.cap, out=s.h)
        np.minimum(s.h, gap, out=s.h)
        under = np.less(s.h, s.floor, out=work.under)
        if under.any():
            message = "step size underflow while meeting tolerances"
            fail(np.flatnonzero(under), OdeStepFailure, message)
            s.keep(~under)
            continue  # recomputing gap and h leaves the survivors' values as they are

        hh, hc, y = work.hh, work.hc, s.yk[:2]
        np.multiply(s.direction, s.h, out=hc.real)
        xs = np.multiply(_NODES, hh, out=work.xs)
        np.add(s.x, xs, out=xs)
        np.subtract(p.value(xs), s.z.real, out=work.vz.real)  # one potential call per attempt
        # each slope joins every sum that uses it; a completed sum, scaled by
        # the step, is the next stage's input
        np.multiply(work.k0_column, s.yk[1:], out=work.acc)
        for total, stage, u, du, k, vz, column, terms, sums in work.plan:
            np.multiply(hc, total, out=total)
            np.add(y, total, out=stage)
            np.multiply(vz, u, out=du)
            np.multiply(column, k, out=terms)
            np.add(sums, terms, out=sums)
        r, scale, err = work.r, work.scale, work.err
        np.abs(np.multiply(hc, work.acc[6], out=work.acc[6]), out=r)  # |error estimate|
        np.maximum(np.abs(y, out=scale), np.abs(work.y_new, out=work.scale_new), out=scale)
        np.multiply(s.rtol, scale, out=scale)
        np.add(s.atol, scale, out=scale)
        np.divide(r, scale, out=r)
        np.square(r, out=r)
        np.add(r[0], r[1], out=err)
        np.multiply(0.5, err, out=err)
        np.sqrt(err, out=err)

        attempts += 1
        if attempts >= _MAX_STEPS:
            fail(range(s.lane.size), OdeStepFailure, "step budget exhausted")
            break
        ok = np.less_equal(err, 1.0, out=work.ok)
        np.add(s.x, hh, out=s.x, where=ok)
        np.copyto(s.yk, work.stages[5], where=ok)  # FSAL: the last slope is the next first
        s.accepted += ok
        phase = np.remainder(s.accepted, _RENORM_INTERVAL, out=work.phase)
        renorm = np.equal(phase, 0, out=work.renorm)
        renorm &= ok
        if renorm.any():
            size = np.maximum(np.abs(y[0]), np.abs(y[1]))
            renorm &= size > 0.0
            inv = 1.0 / np.where(renorm, size, 1.0)
            np.copyto(s.yk, s.yk * inv, where=renorm)
        # A NaN error estimate must shrink the step like any rejection, so NaN
        # maps to the 0.2 floor (fmax), and err == 0 to the 5x ceiling (inf).
        grow = work.grow
        grow.fill(np.inf)
        np.power(err, -0.2, out=grow, where=np.not_equal(err, 0.0, out=work.nonzero))
        np.multiply(0.9, grow, out=grow)
        np.fmax(0.2, grow, out=grow)
        np.minimum(5.0, grow, out=grow, where=ok)
        s.h *= grow
    return m, failures


def _m_values(p: Potential, z, sides, opts: SolverOptions):
    """m and its error bar for every side at every z, solved as one batch.

    Each (z, side) is solved at the working tolerances and at half of them:
    the finer value is returned and the gap between the two is the error bar.

    Returns (m, err) of shape (len(sides), len(z)).  The error raised is the
    one a loop over z, then sides, then tolerances would meet first; a lane
    whose error bar exceeds SINGULAR_ERR * (1 + |m|) raises
    SpectralSingularity.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        # a NaN step size never trips the underflow check, so the kernel
        # would spin until its step budget runs out
        raise ValueError(f"energies must be finite, got {complex(z[~np.isfinite(z)][0])}")
    for side in sides:
        p.tail_value(side)  # rejects an unknown side
    shape = (2, len(sides), z.size)
    scale = np.array([1.0, 0.5])[:, None, None]
    zz = np.broadcast_to(z, shape)
    rtol = np.broadcast_to(scale * opts.rel_ode_tol, shape)
    atol = np.broadcast_to(scale * opts.abs_ode_tol, shape)
    right = np.broadcast_to(np.array([s == "right" for s in sides])[None, :, None], shape)
    flat, failures = _integrate(p, zz.ravel(), right.ravel(), rtol.ravel(), atol.ravel(), opts)
    coarse, m = flat.reshape(shape)
    err = np.abs(m - coarse) + 1e-15 * (1.0 + np.abs(m))

    failed = np.array([f is not None for f in failures]).reshape(shape)
    bad = failed.any(axis=0) | (err > SINGULAR_ERR * (1.0 + np.abs(m)))
    if bad.any():
        i, s = divmod(int(np.argmax(bad.T)), len(sides))
        if failed[:, s, i].any():
            tol = int(np.argmax(failed[:, s, i]))
            raise failures[np.ravel_multi_index((tol, s, i), shape)]
        at = f"lambda={float(z[i].real)}" if z[i].imag == 0 else f"z={complex(z[i])}"
        raise SpectralSingularity(
            f"error bar {err[s, i]:.3g} exceeds {SINGULAR_ERR:g} * (1 + |m|) at {at} "
            f"(side={sides[s]}); m may have a pole there"
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
    m, err = _m_values(p, [z], (side,), opts)
    return MValue(side=side, z=z, m=complex(m[0, 0]), err_estimate=float(err[0, 0]))


def sweep(
    p: Potential, grid, opts: SolverOptions | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boundary values m(lambda + i0) on both sides at every energy of grid.

    All energies, both sides and both tolerances are integrated as one
    lockstep batch; the result at each energy equals boundary_m's, bit for
    bit.  Returns the arrays (m_l, m_r, err_l, err_r).  A failure, a refused
    error bar included, raises the typed error of the first failing energy in
    grid order, left side before right.
    """
    opts = opts or SolverOptions()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1D sequence of energies")
    m, err = _m_values(p, grid, ("left", "right"), opts)
    return m[0], m[1], err[0], err[1]


def boundary_m(side: str, p: Potential, lam: float, opts: SolverOptions | None = None) -> MValue:
    """Boundary value m(lambda + i0), integrated at real energy.

    The error estimate is the change of m when the ODE tolerances are halved;
    an estimate above SINGULAR_ERR * (1 + |m|) raises SpectralSingularity.
    """
    opts = opts or SolverOptions()
    lam = float(lam)
    m, err = _m_values(p, [lam], (side,), opts)
    return MValue(side=side, z=complex(lam, 0.0), m=complex(m[0, 0]), err_estimate=float(err[0, 0]))
