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
eigenvalue) the two solves disagree at leading order.  A solve that lands
on the pole, where u(0) vanishes, is refused the same way.

All solves of one call run together: a lane is one (z, side, tolerance)
solve, and a single eighth-order Dormand-Prince kernel (DOP853) advances
every running lane in lockstep over numpy arrays.  A lane that finishes is
parked in place with a zero step, and the parked lanes are gathered out once
at most half the lanes run; a lane that fails is gathered out at once.  When
V(-x) = V(x) (`Potential.mirror_symmetric`), x -> -x maps one half-line
problem onto the other and m_left = m_right bit for bit, so only one side
is integrated.  A batch takes as many attempt passes as its slowest lane
needs, and each pass makes a fixed number of numpy calls whatever the lane
count: the Butcher tableau is summed by column into reused work arrays, each
sum adding its terms in tableau order.

`sweep` is the grid's one door: it batches a whole energy grid this way and
returns the (left, right) pair of MValue columns.  `boundary_m` and
`interior_m` are the single-energy entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NodeAtOrigin, OdeStepFailure, SpectralSingularity, ValidationError
from .potential import Potential, effective_support, read_fields, real_array

# Extra integration length for potentials with decaying (inexact) tails, so the
# plane-wave initialization sits below truncation_tol residue.  Potentials with
# exact compact support start at the support edge itself.
SUPPORT_MARGIN = 2.0

# Largest error bar accepted, relative to 1 + |m|.  At the default tolerances
# legitimate values stay below about 2e-13 for lambda in [1e-4, 31.6], the
# largest on PT nu=1 near its band edge (1.7e-11 at lambda = 1e-8); near a
# pole of m the error bar is of the order of m itself.
SINGULAR_ERR = 1e-8

_MAX_STEPS = 2_000_000
_RENORM_INTERVAL = 16  # accepted steps between rescalings of (u, u')


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the m-function solver.

    The ODE tolerances bound the local error of each step; the kernel holds
    it to weyl._TOL_SCALE (1e-3) times them, a scale set by measurement.
    """

    truncation_tol: float = 1e-12
    rel_ode_tol: float = 1e-10
    abs_ode_tol: float = 1e-12

    def __post_init__(self):
        read_fields(self, ValidationError)
        for name in ("truncation_tol", "rel_ode_tol", "abs_ode_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValidationError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class MValue:
    """m-function values on one side with their error estimates: scalars at
    one z, or equal-length columns over several."""

    side: str
    z: complex
    m: complex
    err_estimate: float

    def __getitem__(self, index) -> MValue:
        """The entry, or the columns, at index of a column MValue."""
        return MValue(self.side, self.z[index], self.m[index], self.err_estimate[index])


# Dormand-Prince 8(5,3) coefficients, DOP853 (Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, 2nd ed., section II.10).  Stage i takes
# the slope at x + c_i h of y + h (A_i1 k_1 + ... + A_i,i-1 k_i-1); _A lists
# the rows of stages 2-12, zeros included.  y_new weighs the slopes by _B; the
# fifth- and third-order error estimates by _E5 and by _B - _BHH.  The slope
# at y_new, the first of the next step (FSAL), enters no sum: its weights in
# both estimates are zero.
_C = (
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (
        3.7109375e-2,
        0,
        0,
        1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2,
        0,
        0,
        1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1,
        0,
        0,
        -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1,
        0,
        0,
        -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1,
        0,
        0,
        5.18637242884406370830023853209,
        1.09143734899672957818500254654,
        -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1,
        2.49360555267965238987089396762,
        -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449,
        0,
        0,
        -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674,
        -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_B = np.array(
    [
        5.42937341165687622380535766363e-2,
        0,
        0,
        0,
        0,
        4.45031289275240888144113950566,
        1.89151789931450038304281599044,
        -5.8012039600105847814672114227,
        3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1,
        2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ]
)
_BHH = np.zeros(12)
_BHH[[0, 8, 11]] = (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1,
)
_E5 = np.array(
    [
        0.1312004499419488073250102996e-1,
        0,
        0,
        0,
        0,
        -0.1225156446376204440720569753e1,
        -0.4957589496572501915214079952,
        0.1664377182454986536961530415e1,
        -0.3503288487499736816886487290,
        0.3341791187130174790297318841,
        0.8192320648511571246570742613e-1,
        -0.2235530786388629525884427845e-1,
    ]
)

# Distinct abscissae of one attempt, as fractions of the step: those of stages
# 2-12, the last of which (x + h) the slope at y_new shares.
_NODES = np.array(_C)[:, None]

# Lanes integrate at this multiple of the configured ODE tolerances.  The few
# long DOP853 steps leave a global error near the tolerance, where the many
# short steps of a fifth-order pair (DP5) leave theirs 100-1000 times below
# it.  Measured on the drift grid of tests/test_drift.py (96 m-values over
# six potentials): at 1e-3 no error bar is larger and no m farther from its
# closed form than under DP5 at the same SolverOptions; at 1e-2 four error
# bars are larger, at 1 thirty-eight.
_TOL_SCALE = 1e-3


def _tableau_columns() -> tuple:
    """The tableau by column.

    An attempt keeps fourteen running sums: the inputs of stages 2-12, then
    y_new, then the fifth- and the third-order error estimates.  Column j
    holds the coefficients of slope k_j in the sums from stage j + 1's input
    on, up to its last nonzero one; in DOP853 every entry of that run is
    nonzero, so no slope is multiplied by zero (a product 0 * inf would turn
    a failing lane's value into NaN).  Each slope is added to all of its
    sums as soon as it is known, and every sum still adds its terms in
    tableau order.  The coefficients are complex so that no product casts.
    """
    sums = np.zeros((14, 12))
    for i, row in enumerate(_A):
        sums[i, : len(row)] = row
    sums[11:] = _B, _E5, _B - _BHH
    return tuple(np.trim_zeros(sums[j:, j], "b").astype(complex)[:, None] for j in range(12))


_COLUMNS = _tableau_columns()


class _Lanes:
    """Per-lane arrays of the batch's lanes, running or parked, one entry per lane on the last axis."""

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
    values.  When lanes are gathered out, fit() views the first arrays at the
    new lane count, so the batch allocates no more.  Like the lane state,
    stages[j] holds stage j + 2's input (u, u') in rows 0-1 and its slope
    (u', (V - z) u) in rows 1-2; stages[11] is y_new and the slope there, the
    state after an accepted step.
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
        """Lay the work arrays out for the batch's lanes, whose z are given."""
        n = z.size
        self.n = n
        array = self._array
        # the signed step, once per component of y, so that no product broadcasts
        self.hc = array("hc", (2, n), complex)
        self.hc.imag = 0.0
        self.hh = self.hc[0].real
        columns = [full[:, : 2 * n].reshape(-1, 2, n) for full in self._columns]
        self.k0_column = columns[0]
        self.xs = array("xs", (len(_NODES), n))
        # V is real, so (V + 0j) - z has imaginary part 0 - Im z on every pass
        self.vz = array("vz", (len(_NODES), n), complex)
        np.subtract(0.0, z.imag, out=self.vz.imag)
        self.acc = array("acc", (14, 2, n), complex)  # the running sums, see _tableau_columns
        self.terms = array("terms", (14, 2, n), complex)
        # one array per stage, each under glibc's 128 KiB mmap threshold
        # below about 2700 lanes
        self.stages = [array(f"stage{j}", (3, n), complex) for j in range(12)]
        self.y_new = self.stages[11][:2]
        # per stage j + 2: its sum, input, u, slope row to fill, slope and
        # V - z, then the next column and the sums it feeds
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
                    self.vz[j],
                    column,
                    self.terms[rows],
                    self.acc[rows],
                )
            )
        self.r = array("r", (2, 2, n))  # |error estimates| / scale, fifth order first
        self.scale = array("scale", (2, n))
        self.scale_new = array("scale_new", (2, n))
        self.e = array("e", (2, n))
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
    lanes; only the arithmetic is shared, over numpy arrays.  A lane that
    reaches the origin, or stops there on NodeAtOrigin, is parked in place:
    its step and step floor become zero, so a pass leaves it where it is, and
    its target infinity, so it never counts as done again.  Parked lanes are
    gathered out (_Lanes.keep, then _Scratch.fit) once at most half the
    lanes are live, so a batch lays out its arrays a few times rather than
    once per finishing lane; a lane whose step underflows is gathered out at
    once.  Scaling the pair (u, u') is harmless: only the ratio u'/u is used.

    Each attempt is one DOP853 step: twelve stages at eleven distinct nodes,
    so V is called once per pass on an (11, lanes) block, and Hairer's error
    norm of the fifth- and third-order estimates, with step factor
    0.9 err^(-1/8) clamped to [0.2, 10].  Lanes step at _TOL_SCALE times
    their given tolerances.  A batch takes as many attempt passes as its
    slowest lane needs, and a pass makes the same 102 numpy calls (plus V's)
    whatever the lane count, so a batch costs about (passes of its slowest
    lane) x (cost of one pass), parked lanes riding along until gathered
    out.  The tableau is summed by column (_COLUMNS), a multiply and an add
    per slope, each sum adding its terms in tableau order, and every call
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
        rtol=rtol * _TOL_SCALE,
        atol=atol * _TOL_SCALE,
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
        live=np.ones(n, dtype=bool),  # False once parked
    )
    m = np.full(n, complex(np.nan, np.nan))
    attempts = 0  # attempt passes so far; every live lane took part in each
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
                s.h[at] = 0.0
                s.floor[at] = 0.0
                s.target[at] = np.inf
                s.live[at] = False
                done &= ~end
                if 2 * np.count_nonzero(s.live) <= s.lane.size:
                    live = s.live
                    s.keep(live)
                    done = done[live]
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
            s.keep(~under & s.live)
            continue  # recomputing gap and h leaves the survivors' values as they are

        hh, hc, y = work.hh, work.hc, s.yk[:2]
        np.multiply(s.direction, s.h, out=hc.real)
        xs = np.multiply(_NODES, hh, out=work.xs)
        np.add(s.x, xs, out=xs)
        np.subtract(p.value(xs), s.z.real, out=work.vz.real)  # one potential call per attempt
        # each slope joins every sum that uses it; a completed sum, scaled by
        # the step, is the next stage's input
        acc = work.acc
        np.multiply(work.k0_column, s.yk[1:], out=acc)
        for total, stage, u, du, k, vz, column, terms, sums in work.plan:
            np.multiply(hc, total, out=total)
            np.add(y, total, out=stage)
            np.multiply(vz, u, out=du)
            np.multiply(column, k, out=terms)
            np.add(sums, terms, out=sums)
        np.multiply(hc, acc[11], out=acc[11])
        np.add(y, acc[11], out=work.y_new)
        np.multiply(work.vz[-1], work.y_new[0], out=work.stages[11][2])  # the FSAL slope
        # Hairer's norm |h| e5 / sqrt(2 (e5 + 0.01 e3)), with e5 and e3 the
        # squared scaled norms of the two error estimates over (u, u')
        r, scale, err = work.r, work.scale, work.err
        np.maximum(np.abs(y, out=scale), np.abs(work.y_new, out=work.scale_new), out=scale)
        np.multiply(s.rtol, scale, out=scale)
        np.add(s.atol, scale, out=scale)
        np.divide(np.abs(acc[12:], out=r), scale, out=r)
        np.square(r, out=r)
        e5, e3 = np.add(r[:, 0], r[:, 1], out=work.e)
        np.multiply(s.h, e5, out=err)
        np.multiply(0.01, e3, out=e3)
        np.add(e5, e3, out=e3)
        np.multiply(2.0, e3, out=e3)
        np.sqrt(e3, out=e3)
        # both estimates zero leave err = 0
        np.divide(err, e3, out=err, where=np.not_equal(e3, 0.0, out=work.nonzero))

        attempts += 1
        if attempts >= _MAX_STEPS:
            fail(np.flatnonzero(s.live), OdeStepFailure, "step budget exhausted")
            break
        ok = np.less_equal(err, 1.0, out=work.ok)
        np.add(s.x, hh, out=s.x, where=ok)
        np.copyto(s.yk, work.stages[11], where=ok)  # FSAL: the last slope is the next first
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
        # maps to the 0.2 floor (fmax), and err == 0 to the 10x ceiling (inf).
        grow = work.grow
        grow.fill(np.inf)
        np.power(err, -1 / 8, out=grow, where=np.not_equal(err, 0.0, out=work.nonzero))
        np.multiply(0.9, grow, out=grow)
        np.fmax(0.2, grow, out=grow)
        np.minimum(10.0, grow, out=grow, where=ok)
        s.h *= grow
    return m, failures


def _m_values(p: Potential, z, sides, opts: SolverOptions):
    """m and its error bar for every side at every z, solved as one batch.

    Each (z, side) is solved at the working tolerances and at half of them:
    the finer value is returned and the gap between the two is the error bar.
    For a mirror_symmetric potential only the first side is integrated and
    its lanes stand for every side: x -> -x maps each half-line problem onto
    the other, every kernel operation commutes with the sign flip, and so the
    two sides agree bit for bit, failures included.

    Returns (m, err) of shape (len(sides), len(z)).  The error raised is the
    one a loop over z, then sides, then tolerances would meet first.  A pole
    of m raises SpectralSingularity: either an error bar above
    SINGULAR_ERR * (1 + |m|), or a lane stopped by NodeAtOrigin, since
    u(0) = 0 is a pole of m.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        # a NaN step size never trips the underflow check, so the kernel
        # would spin until its step budget runs out
        raise ValueError(f"energies must be finite, got {complex(z[~np.isfinite(z)][0])}")
    for side in sides:
        p.tail_value(side)  # rejects an unknown side
    solved = sides[:1] if p.mirror_symmetric else sides
    pick = [0] * len(sides) if p.mirror_symmetric else list(range(len(sides)))  # solved row of each side
    shape = (2, len(solved), z.size)
    scale = np.array([1.0, 0.5])[:, None, None]
    zz = np.broadcast_to(z, shape)
    rtol = np.broadcast_to(scale * opts.rel_ode_tol, shape)
    atol = np.broadcast_to(scale * opts.abs_ode_tol, shape)
    right = np.broadcast_to(np.array([s == "right" for s in solved])[None, :, None], shape)
    flat, failures = _integrate(p, zz.ravel(), right.ravel(), rtol.ravel(), atol.ravel(), opts)
    coarse, m = flat.reshape(shape)[:, pick]
    err = np.abs(m - coarse) + 1e-15 * (1.0 + np.abs(m))

    failed = np.array([f is not None for f in failures]).reshape(shape)[:, pick]
    bad = failed.any(axis=0) | (err > SINGULAR_ERR * (1.0 + np.abs(m)))
    if bad.any():
        i, s = divmod(int(np.argmax(bad.T)), len(sides))
        reason = f"error bar {err[s, i]:.3g} exceeds {SINGULAR_ERR:g} * (1 + |m|)"
        if failed[:, s, i].any():
            tol = int(np.argmax(failed[:, s, i]))
            failure = failures[np.ravel_multi_index((tol, pick[s], i), shape)]
            if not isinstance(failure, NodeAtOrigin):
                raise failure
            reason = "u(0) vanished"
        at = f"lambda={float(z[i].real)}" if z[i].imag == 0 else f"z={complex(z[i])}"
        raise SpectralSingularity(f"{reason} at {at} (side={sides[s]}); m may have a pole there")
    return m, err


def interior_m(side: str, p: Potential, z: complex, opts: SolverOptions | None = None) -> MValue:
    """Weyl m-function at z with Im z > 0.

    The error estimate is the change of m when the ODE tolerances are halved.
    """
    opts = opts or SolverOptions()
    z = complex(z)
    if not z.imag > 0:
        raise ValueError("interior_m requires Im z > 0; use boundary_m on the real axis")
    m, err = _m_values(p, [z], (side,), opts)
    return MValue(side=side, z=z, m=complex(m[0, 0]), err_estimate=float(err[0, 0]))


def sweep(p: Potential, grid, opts: SolverOptions | None = None) -> tuple[MValue, MValue]:
    """Boundary values m(lambda + i0) on both sides at every energy of grid.

    All energies, both sides and both tolerances are integrated as one
    lockstep batch; the result at each energy equals boundary_m's, bit for
    bit.  Returns the (left, right) pair of MValue columns, with z = grid.
    A failure, a refused error bar included, raises the typed error of the
    first failing energy in grid order, left side before right.
    """
    opts = opts or SolverOptions()
    grid = real_array("grid", grid)
    if grid.ndim != 1:
        raise ValueError("grid must be a 1D sequence of energies")
    m, err = _m_values(p, grid, ("left", "right"), opts)
    z = grid + 0j
    return MValue("left", z, m[0], err[0]), MValue("right", z, m[1], err[1])


def boundary_m(side: str, p: Potential, lam: float, opts: SolverOptions | None = None) -> MValue:
    """Boundary value m(lambda + i0), integrated at real energy.

    The error estimate is the change of m when the ODE tolerances are halved;
    an estimate above SINGULAR_ERR * (1 + |m|), or a vanishing u(0), raises
    SpectralSingularity.
    """
    opts = opts or SolverOptions()
    lam = float(real_array("lam", lam))
    m, err = _m_values(p, [lam], (side,), opts)
    return MValue(side=side, z=complex(lam, 0.0), m=complex(m[0, 0]), err_estimate=float(err[0, 0]))
