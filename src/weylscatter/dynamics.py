"""Wave-packet realization of the dynamical reflection probability.

A Gaussian packet launched from the zero-tail region left of the potential is
evolved with a norm-preserving split-step spectral propagator for
i dpsi/dt = (-d^2/dx^2 + V) psi.  Once the interaction region has emptied, the
sharp-cutoff masses on the two half-lines are the dynamical reflection and
transmission probabilities.  The spectral prediction for the same packet is
the momentum-density average of |R(k^2)|^2 over the incident band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryLeak, InvalidPacket, NotConverged
from .potential import Potential, effective_support
from .scattering import DEFAULT_SUPPORT_THRESHOLD, boundary_pairs, spectral_reflection
from .weyl import SolverOptions

_INTERACTION_MASS_TOL = 1e-6
_EDGE_MASS_TOL = 1e-4
_DENSITY_CUTOFF = 1e-13  # relative weight below which momentum bins are ignored
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
        # in the order auto_packet derives its defaults, so the first field
        # named is the one the others were derived from
        for name in ("k0", "sigma_x", "x0", "half_length", "dt", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidPacket(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.k0 > 0 and self.sigma_x > 0 and self.half_length > 0):
            raise InvalidPacket("k0, sigma_x, half_length must be positive")
        if not (self.dt > 0 and self.t_max > 0):
            raise InvalidPacket("dt and t_max must be positive")
        # evolve_packet counts steps as t_max / dt and checks every 0.25 / dt
        if not (math.isfinite(self.t_max / self.dt) and math.isfinite(0.25 / self.dt)):
            raise InvalidPacket(f"dt = {self.dt!r} too small: the step count overflows")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise InvalidPacket(f"n_points must be a power of two, got {n}")

    def validate_against(self, p: Potential, truncation_tol: float = 1e-12) -> None:
        """Narrow-band and placement invariants relative to the potential."""
        if p.tail_value("left") != 0.0 or p.tail_value("right") != 0.0:
            # nonzero tails would wrap into a spurious interface at the
            # periodic boundary of the spectral grid
            raise InvalidPacket("wave-packet evolution requires zero potential tails")
        support = effective_support(p, truncation_tol)
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
    """Asymptotic masses of the evolved packet plus the spectral prediction."""

    left_mass: float
    right_mass: float
    norm_drift: float
    predicted_reflect: float
    t_stop: float
    trace: tuple[tuple[float, float, float, float], ...] = ()


class SplitStepPropagator:
    """Strang-split spectral stepper: half potential, full kinetic, half potential.

    Each step is exactly unitary up to roundoff, so the discrete norm is a
    conserved quantity of the scheme.  V is sampled as cell averages, integrated
    between its breakpoints by Gauss-Legendre: pointwise sampling of a
    discontinuous V quantizes its width to the grid and biases reflection at O(dx).

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
    Below 8192 points n1 = 1, and a step is the plain one-FFT Strang step,
    bit for bit.
    """

    def __init__(self, p: Potential, half_length: float, n_points: int, dt: float):
        self.half_length = float(half_length)
        self.n_points = int(n_points)
        self.dt = float(dt)
        self.x, self.dx, self.k = _grid(self.half_length, self.n_points)
        self.v = self._cell_averaged(p)
        n1 = _split_rows(self.n_points)
        n2 = self.n_points // n1
        self._shape = (n1, n2)
        self._half_potential = np.exp(-0.5j * self.dt * self.v).reshape(n1, n2)
        self._kinetic = np.exp(-1j * self.dt * self.k**2).reshape(n2, n1).T.copy()
        self._twiddle = self._twiddle_inv = None
        if n1 > 1:
            k1, j2 = np.ogrid[:n1, :n2]
            self._twiddle = np.exp((-2j * math.pi / self.n_points) * (k1 * j2))
            self._twiddle_inv = np.conj(self._twiddle)

    def _cell_averaged(self, p: Potential) -> np.ndarray:
        half = 0.5 * self.dx
        return p.mean_value(self.x - half, self.x + half)

    def step(self, psi: np.ndarray, n_steps: int = 1) -> np.ndarray:
        a = np.array(psi, dtype=complex).reshape(self._shape)
        for _ in range(n_steps):
            np.multiply(self._half_potential, a, out=a)
            self._fft(a)
            np.multiply(self._kinetic, a, out=a)
            self._ifft(a)
            np.multiply(self._half_potential, a, out=a)
        return a.reshape(-1)

    def _fft(self, a: np.ndarray) -> None:
        if self._twiddle is not None:
            np.fft.fft(a, axis=0, out=a)
            np.multiply(a, self._twiddle, out=a)
        np.fft.fft(a, axis=1, out=a)

    def _ifft(self, a: np.ndarray) -> None:
        np.fft.ifft(a, axis=1, out=a)
        if self._twiddle is not None:
            np.multiply(a, self._twiddle_inv, out=a)
            np.fft.ifft(a, axis=0, out=a)

    def norm_sq(self, psi: np.ndarray) -> float:
        return float(np.sum(np.abs(psi) ** 2) * self.dx)

    def initial_packet(self, spec: PacketSpec) -> np.ndarray:
        return _gaussian_packet(spec, self.x, self.dx)


def _split_rows(n: int) -> int:
    """Rows of the propagator's work array: 1 below _SPLIT_MIN_POINTS, else the
    largest divisor of n not above sqrt(n)."""
    if n < _SPLIT_MIN_POINTS:
        return 1
    return max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)


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


def predicted_reflection(
    p: Potential,
    spec: PacketSpec,
    opts: SolverOptions | None = None,
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> float:
    """Momentum-density average of the spectral |R(k^2)|^2 over the incident band.

    Bins with negligible weight are skipped; their total mass bounds the
    truncation error since |R|^2 <= 1.  The remaining bins are solved as one
    sweep.
    """
    k_grid, density = momentum_density(spec)
    dk = k_grid[1] - k_grid[0]
    cutoff = _DENSITY_CUTOFF * float(np.max(density))
    keep = (k_grid > 0.0) & (density >= cutoff)
    lams = k_grid[keep] ** 2
    total = 0.0
    for lam, rho, (m_l, m_r) in zip(lams, density[keep], boundary_pairs(p, lams, opts)):
        rec = spectral_reflection(lam, m_l, m_r, s_threshold)
        total += rec.reflect_prob * rho * dk
    return float(total)


def evolve_packet(
    p: Potential,
    spec: PacketSpec,
    opts: SolverOptions | None = None,
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
    trace_stride: int = 0,
) -> PacketResult:
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

    check_every = max(1, int(round(0.25 / spec.dt)))
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
    predicted = predicted_reflection(p, spec, opts, s_threshold)
    return PacketResult(
        left_mass=lm,
        right_mass=rm,
        norm_drift=drift,
        predicted_reflect=predicted,
        t_stop=t_stop,
        trace=tuple(trace),
    )
