"""Wave-packet realization of the dynamical reflection probability.

A Gaussian packet launched from the zero-tail region left of the potential is
evolved with a norm-preserving split-step spectral propagator for
i dpsi/dt = (-d^2/dx^2 + V) psi.  Once the interaction region has emptied, the
sharp-cutoff masses on the two half-lines are the dynamical reflection and
transmission probabilities.  The spectral prediction for the same packet is
the momentum-density average of |R(k^2)|^2 over the incident band.

Evolution never calls the m-solver.  A caller that solves several energy sets
at once takes the band from `incident_band`, solves its energies with the
rest and averages with `band_reflection`; `predicted_reflection` composes the
two for one packet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryLeak, InvalidPacket, NotConverged
from .potential import Potential, effective_support, read_field, read_fields
from .scattering import DEFAULT_SUPPORT_THRESHOLD, spectral_reflection
from .weyl import MValue, SolverOptions, sweep

_INTERACTION_MASS_TOL = 1e-6
_EDGE_MASS_TOL = 1e-4
_DENSITY_CUTOFF = 1e-13  # relative weight below which momentum bins are ignored
_CHECK_TIME = 0.25  # evolve_packet measures the masses every round(_CHECK_TIME / dt) steps
# default_dt's rule.  Measured at the default packet: at _STEP_PHASE the
# Gaussians of amplitude 1, 4 and -3 at sigma 1, -4 at sigma 0.5 and 1 at
# sigma 5, and truncated PT nu = 1, 2, 3 keep |left_mass - predicted_reflect|
# at or below 3.4e-5.  _ROUGH_LEVEL keeps at DEFAULT_DT a barrier, a well,
# sampled tents and kinks (spectrum 7e-3 to 0.27 of its peak) and the
# Gaussians of sigma 0.3 and 0.2, whose smooth-rule dt reads 1.6e-3 and, at
# phase 0.4, raises BoundaryLeak; the smooth ones read at most 1e-4
DEFAULT_DT = 0.01
_STEP_PHASE = 0.2
_ROUGH_LEVEL = 1e-3
# grids from here on take the four-step FFT.  Below it the plain one-FFT step
# is faster (about 1.4x per step at 1024 points, even at 2048-4096, on a 2-vCPU
# Xeon) and keeps small-grid artifacts byte-identical
_SPLIT_MIN_POINTS = 8192


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet and discretization of its evolution.

    psi(x, 0) = (2 pi sigma_x^2)^(-1/4) exp(-(x - x0)^2 / (4 sigma_x^2) + i k0 x)

    on the periodic box [-half_length, half_length) with n_points grid points.
    """

    x0: float
    k0: float
    sigma_x: float
    half_length: float
    n_points: int
    dt: float
    t_max: float

    def __post_init__(self):
        read_fields(self, InvalidPacket)
        if not (self.k0 > 0 and self.sigma_x > 0 and self.half_length > 0):
            raise InvalidPacket("k0, sigma_x, half_length must be positive")
        if not (self.dt > 0 and self.t_max > 0):
            raise InvalidPacket("dt and t_max must be positive")
        # evolve_packet counts steps as t_max / dt and checks every _CHECK_TIME / dt
        if not (math.isfinite(self.t_max / self.dt) and math.isfinite(_CHECK_TIME / self.dt)):
            raise InvalidPacket(f"dt = {self.dt!r} too small: the step count overflows")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise InvalidPacket(f"n_points must be a power of two, got {n}")

    def validate_against(self, p: Potential) -> None:
        """Narrow-band and placement invariants relative to the potential."""
        if p.tail_value("left") != 0.0 or p.tail_value("right") != 0.0:
            # nonzero tails would wrap into a spurious interface at the
            # periodic boundary of the spectral grid
            raise InvalidPacket("wave-packet evolution requires zero potential tails")
        support = effective_support(p, 1e-12)
        if not self.x0 + 4.0 * self.sigma_x < -support:
            raise InvalidPacket("packet must start in the zero-tail region left of the support")
        if self.x0 - 4.0 * self.sigma_x <= -self.half_length:
            raise InvalidPacket("packet tail sticks out of the box; enlarge half_length")
        if self.k0 * self.sigma_x < 4.0:
            raise InvalidPacket("narrow-band condition k0 * sigma_x >= 4 violated")
        k_need = self.k0 + 4.0 / self.sigma_x
        if self.n_points < 2.0 * self.half_length * k_need / math.pi:
            raise InvalidPacket("n_points too small to resolve the packet's momenta")


@dataclass(frozen=True)
class PacketResult:
    """Asymptotic masses of the evolved packet."""

    left_mass: float
    right_mass: float
    norm_drift: float
    t_stop: float
    trace: tuple[tuple[float, float, float, float], ...] = ()


class SplitStepPropagator:
    """Strang-split spectral stepper: half potential, full kinetic, half potential.

    Each step is exactly unitary up to roundoff, so the discrete norm is a
    conserved quantity of the scheme.  V is `_sampled_potential`: a cell
    [x_j - dx/2, x_j + dx/2] takes the node value V(x_j), unless the closed
    cell holds a breakpoint; then it takes `mean_value`, the average
    integrated between the breakpoints by Gauss-Legendre.  A node sample of a
    jump quantizes its position to the grid and biases reflection at O(dx).
    On a smooth piece the average does harm: it shifts V by dx^2 V''/24, an
    O(dx^2) change of the operator that hides the step's own O(dt^2) error,
    where node samples converge spectrally.  Constant and linear pieces
    average to their node value, so a piecewise linear V is the same array
    either way.

    `step` works in place on one complex array of shape (n1, n2), n1 * n2 =
    n_points, holding psi in row-major order.  numpy's FFT allocates a scratch
    array of n complex values on every call; from n_points = 8192 that is
    128 KiB or more, glibc's default mmap threshold, so a call can map and
    fault in fresh pages however its output is buffered.  There n1 is the
    largest divisor of n_points not above its square root, and each transform
    is Bailey's four-step FFT: short FFTs down the columns, a twiddle multiply
    exp(-2 pi i k1 j2 / n), short FFTs along the rows.  The result sits in
    transposed order, entry (k1, k2) holding momentum index k1 + n1 k2, and
    the kinetic phase is stored in that order, so no transpose is ever built.

    A call of n steps keeps psi column-transformed from its first step to its
    last: it opens with half a potential step and one column FFT and closes
    with one column IFFT and half a potential step.  Between two steps the
    column-domain operator colFFT E colIFFT, E = exp(-i dt V), is applied in
    one of two ways.  E differs from 1 only on R, the run of rows whose half
    phase is not exactly 1.  When |R| <= n1 / 4 it is the rank-|R| update
    B += C_R (D Y), Y = C_R^-1 B, where C_R holds the columns R of the
    length-n1 DFT matrix, C_R^-1 the rows R of its inverse and D the rows R
    of E - 1, formed from the two half phases.  Otherwise it is the column
    pair colIFFT, E, colFFT, and n steps are the n plain four-step Strang
    steps, bit for bit.  On a 2-vCPU Xeon the rank update at |R| = 2 takes
    about 35 us at n1 = 64 and 60 us at n1 = 128, the column pair 100-150 and
    250-300 us.  With one BLAS thread the two cross near |R| = 0.4 n1; with
    OpenBLAS's default threads, which it starts from |R| n_points = 65536 on,
    they cost about the same at |R| = n1 / 4.  n steps make 2n + 2 FFTs on
    the rank path and 4n on the column pair.  Below 8192 points n1 = 1, and a
    step is the plain one-FFT Strang step, bit for bit.
    """

    def __init__(self, p: Potential, half_length: float, n_points: int, dt: float):
        self.half_length = read_field("half_length", "float", half_length, InvalidPacket)
        self.n_points = read_field("n_points", "int", n_points, InvalidPacket)
        self.dt = read_field("dt", "float", dt, InvalidPacket)
        if not (self.half_length > 0 and self.n_points > 0 and self.dt > 0):
            raise InvalidPacket("half_length, n_points and dt must be positive")
        self.x, self.dx, self.k = _grid(self.half_length, self.n_points)
        self.v = _sampled_potential(p, self.x, self.dx)
        n1 = _split_rows(self.n_points)
        n2 = self.n_points // n1
        self._shape = (n1, n2)
        self._half_potential = np.exp(-0.5j * self.dt * self.v).reshape(n1, n2)
        self._kinetic = np.exp(-1j * self.dt * self.k**2).reshape(n2, n1).T.copy()
        self._twiddle = self._twiddle_inv = self._rank_update = None
        if n1 > 1:
            k1, j2 = np.ogrid[:n1, :n2]
            self._twiddle = np.exp((-2j * math.pi / self.n_points) * (k1 * j2))
            self._twiddle_inv = np.conj(self._twiddle)
            rows = np.flatnonzero(np.any(self._half_potential != 1.0, axis=1))
            first, stop = (rows[0], rows[-1] + 1) if rows.size else (0, 0)
            if stop - first <= n1 // 4:
                self._rank_update = _RankUpdate(self._half_potential, first, stop)

    def step(self, psi: np.ndarray, n_steps: int = 1) -> np.ndarray:
        a = np.array(psi, dtype=complex).reshape(self._shape)
        if n_steps < 1:
            return a.reshape(-1)
        between_steps = self._column_pair if self._rank_update is None else self._rank_update
        np.multiply(self._half_potential, a, out=a)
        self._column_fft(a)
        for i in range(n_steps):
            if i:
                between_steps(a)
            if self._twiddle is not None:
                np.multiply(a, self._twiddle, out=a)
            np.fft.fft(a, axis=1, out=a)
            np.multiply(self._kinetic, a, out=a)
            np.fft.ifft(a, axis=1, out=a)
            if self._twiddle is not None:
                np.multiply(a, self._twiddle_inv, out=a)
        self._column_ifft(a)
        np.multiply(self._half_potential, a, out=a)
        return a.reshape(-1)

    def _column_fft(self, a: np.ndarray) -> None:
        if self._twiddle is not None:
            np.fft.fft(a, axis=0, out=a)

    def _column_ifft(self, a: np.ndarray) -> None:
        if self._twiddle is not None:
            np.fft.ifft(a, axis=0, out=a)

    def _column_pair(self, a: np.ndarray) -> None:
        self._column_ifft(a)
        np.multiply(self._half_potential, a, out=a)
        np.multiply(self._half_potential, a, out=a)
        self._column_fft(a)

    def norm_sq(self, psi: np.ndarray) -> float:
        return float(np.sum(np.abs(psi) ** 2) * self.dx)

    def initial_packet(self, spec: PacketSpec) -> np.ndarray:
        return _gaussian_packet(spec, self.x, self.dx)


class _RankUpdate:
    """colFFT E colIFFT on a column-transformed (n1, n2) array whose E - 1 lives
    on rows first..stop-1, as B += C_R (D Y), Y = C_R^-1 B; see SplitStepPropagator.

    It holds no reference to the propagator, so dropping a propagator frees its
    arrays at once instead of at the next cyclic garbage collection.
    """

    def __init__(self, half_potential: np.ndarray, first: int, stop: int):
        n1, n2 = half_potential.shape
        k, r = np.ogrid[:n1, first:stop]
        self.dft_cols = np.exp((-2j * math.pi / n1) * ((k * r) % n1))
        self.idft_rows = np.conj(self.dft_cols.T) / n1
        half = half_potential[first:stop]
        self.phase_minus_one = half * half - 1.0
        self.coeffs = np.empty((stop - first, n2), dtype=complex)
        self.term = np.empty((n1, n2), dtype=complex)

    def __call__(self, a: np.ndarray) -> None:
        np.matmul(self.idft_rows, a, out=self.coeffs)
        np.multiply(self.phase_minus_one, self.coeffs, out=self.coeffs)
        np.matmul(self.dft_cols, self.coeffs, out=self.term)
        np.add(a, self.term, out=a)


def _split_rows(n: int) -> int:
    """Rows of the propagator's work array: 1 below _SPLIT_MIN_POINTS, else the
    largest divisor of n not above sqrt(n)."""
    if n < _SPLIT_MIN_POINTS:
        return 1
    return max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)


def _sampled_potential(p: Potential, x: np.ndarray, dx: float) -> np.ndarray:
    """V on the grid x of spacing dx: the node value, or the cell mean on a
    closed cell [x_j - dx/2, x_j + dx/2] that holds a breakpoint of p; see
    SplitStepPropagator.  A breakpoint on a cell edge lies in both cells."""
    lo, hi = x - 0.5 * dx, x + 0.5 * dx
    v = np.array(p.value(x), dtype=float)
    edges = np.sort(p.breakpoints())
    holds = np.flatnonzero(np.searchsorted(edges, lo, side="left") < np.searchsorted(edges, hi, side="right"))
    if holds.size:
        v[holds] = p.mean_value(lo[holds], hi[holds])
    return v


def default_dt(p: Potential, spec: PacketSpec) -> float:
    """The split step's dt for spec's packet on p, when the packet gives none.

    A smooth V takes the largest dt = _CHECK_TIME / m, m whole, with
    dt * max(k_loc^2, max |V|) <= _STEP_PHASE, where k_loc^2 = k_top^2 -
    min(lower_bound, 0) is the packet's top local momentum squared and
    k_top = k0 + 4 / sigma_x; its O(dt^2) splitting error stays small.  V is
    read as the propagator samples it on spec's grid.  It is rough (a jump, a
    kink, a bump narrow on the packet's scale) when its spectrum |V_hat(q)|
    exceeds _ROUGH_LEVEL of its peak at some q >= sqrt(pi / _STEP_PHASE) k_top,
    past which that dt's phase dt q^2 can pass pi, or when the grid does not
    reach that q.  A rough V keeps DEFAULT_DT, as does any dt below it.
    """
    x, dx, _ = _grid(spec.half_length, spec.n_points)
    v = _sampled_potential(p, x, dx)
    spectrum = np.abs(np.fft.rfft(v))
    q = 2.0 * math.pi / (spec.n_points * dx) * np.arange(spectrum.size)
    k_top = spec.k0 + 4.0 / spec.sigma_x
    high = spectrum[q >= math.sqrt(math.pi / _STEP_PHASE) * k_top]
    if not high.size or np.max(high) > _ROUGH_LEVEL * np.max(spectrum):
        return DEFAULT_DT
    rate = max(k_top**2 - min(p.lower_bound, 0.0), float(np.max(np.abs(v))))
    steps = math.ceil(_CHECK_TIME * rate / _STEP_PHASE)
    return _CHECK_TIME / min(steps, round(_CHECK_TIME / DEFAULT_DT))


def _grid(half_length: float, n_points: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Nodes x and spacing dx of the periodic box, and the FFT momenta k."""
    dx = 2.0 * half_length / n_points
    x = -half_length + dx * np.arange(n_points)
    return x, dx, 2.0 * math.pi * np.fft.fftfreq(n_points, d=dx)


def _gaussian_packet(spec: PacketSpec, x: np.ndarray, dx: float) -> np.ndarray:
    """The packet of spec sampled at x, normalized so that sum |psi|^2 dx = 1."""
    psi = (2.0 * math.pi * spec.sigma_x**2) ** -0.25 * np.exp(
        -((x - spec.x0) ** 2) / (4.0 * spec.sigma_x**2) + 1j * spec.k0 * x
    )
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))


def momentum_density(spec: PacketSpec) -> tuple[np.ndarray, np.ndarray]:
    """|phi_hat(k)|^2 of the initial packet on the propagator's momentum grid.

    Returned sorted by k and normalized so that sum(density) * dk = 1.
    """
    x, dx, k = _grid(spec.half_length, spec.n_points)
    dk = 2.0 * math.pi / (spec.n_points * dx)
    phi = np.fft.fft(_gaussian_packet(spec, x, dx)) * dx / math.sqrt(2.0 * math.pi)
    density = np.abs(phi) ** 2
    density = density / (float(np.sum(density)) * dk)
    order = np.argsort(k)
    return k[order], density[order]


@dataclass(frozen=True)
class IncidentBand:
    """Momentum bins of a packet that carry weight: energies k^2 and |phi_hat(k)|^2.

    Bin i weighs density[i] * dk.  Bins with k <= 0 or with density below
    _DENSITY_CUTOFF of the peak are left out; their total mass bounds the
    truncation error of a band average of |R|^2 <= 1.
    """

    lams: np.ndarray
    density: np.ndarray
    dk: float


def incident_band(spec: PacketSpec) -> IncidentBand:
    """The packet's incident band, for a band average of spectral quantities."""
    k_grid, density = momentum_density(spec)
    dk = k_grid[1] - k_grid[0]
    cutoff = _DENSITY_CUTOFF * float(np.max(density))
    keep = (k_grid > 0.0) & (density >= cutoff)
    return IncidentBand(lams=k_grid[keep] ** 2, density=density[keep], dk=dk)


def band_reflection(
    band: IncidentBand,
    pair: tuple[MValue, MValue],
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> float:
    """Momentum-density average of |R(k^2)|^2 from the (left, right) boundary
    m-value columns at band.lams.

    The terms are added in band order, from 0.0, one after the other, as a
    loop adds them; np.sum adds pairwise, which would move the last bits.
    """
    rec = spectral_reflection(*pair, s_threshold)
    terms = rec.reflect_prob * band.density * band.dk
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def predicted_reflection(
    p: Potential,
    spec: PacketSpec,
    opts: SolverOptions | None = None,
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> float:
    """Momentum-density average of the spectral |R(k^2)|^2 over the incident band.

    The band's energies are solved as one sweep.
    """
    band = incident_band(spec)
    return band_reflection(band, sweep(p, band.lams, opts), s_threshold)


def evolve_packet(p: Potential, spec: PacketSpec, trace_stride: int = 0) -> PacketResult:
    """Evolve the packet until scattering completes and measure half-line masses.

    Stops at the first time (after the packet center has had time to reach the
    origin) when the mass inside the interaction region drops below 1e-6.
    Raises NotConverged if that never happens before t_max and BoundaryLeak if
    mass accumulates within 4 sigma of the box edge.
    """
    spec.validate_against(p)
    prop = SplitStepPropagator(p, spec.half_length, spec.n_points, spec.dt)
    psi = prop.initial_packet(spec)
    norm0 = prop.norm_sq(psi)

    x = prop.x
    dx = prop.dx
    support = max(effective_support(p, 1e-12), 1.0)
    interaction = np.abs(x) <= support
    left = x < 0.0
    right = x > 0.0
    origin = x == 0.0
    edge_zone = (x > spec.half_length - 4.0 * spec.sigma_x) | (
        x < -spec.half_length + 4.0 * spec.sigma_x
    )
    t_min = abs(spec.x0) / (2.0 * spec.k0)

    check_every = max(1, int(round(_CHECK_TIME / spec.dt)))
    n_total = int(math.ceil(spec.t_max / spec.dt))
    trace: list[tuple[float, float, float, float]] = []

    def masses(state):
        dens = np.abs(state) ** 2
        lm = float(np.sum(dens[left]) * dx + 0.5 * np.sum(dens[origin]) * dx)
        rm = float(np.sum(dens[right]) * dx + 0.5 * np.sum(dens[origin]) * dx)
        im = float(np.sum(dens[interaction]) * dx)
        em = float(np.sum(dens[edge_zone]) * dx)
        return lm, rm, im, em

    t = 0.0
    t_stop = None
    steps_done = 0
    while steps_done < n_total:
        n_batch = min(check_every, n_total - steps_done)
        psi = prop.step(psi, n_batch)
        steps_done += n_batch
        t = steps_done * spec.dt
        lm, rm, im, em = masses(psi)
        if trace_stride > 0 and (steps_done // check_every) % trace_stride == 0:
            trace.append((t, lm, rm, im))
        if em > _EDGE_MASS_TOL:
            raise BoundaryLeak(
                f"mass {em:.3e} within 4 sigma of the box edge at t={t:.2f}; enlarge half_length"
            )
        if t >= t_min and im < _INTERACTION_MASS_TOL:
            t_stop = t
            break
    if t_stop is None:
        raise NotConverged(
            f"interaction-region mass still {im:.3e} at t_max={spec.t_max}"
        )

    lm, rm, _, _ = masses(psi)
    drift = abs(prop.norm_sq(psi) - norm0)
    return PacketResult(
        left_mass=lm,
        right_mass=rm,
        norm_drift=drift,
        t_stop=t_stop,
        trace=tuple(trace),
    )
