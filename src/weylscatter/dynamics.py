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

from .errors import BoundaryLeak, NotConverged
from .potential import Potential, effective_support
from .scattering import DEFAULT_SUPPORT_THRESHOLD, boundary_pairs, spectral_reflection
from .weyl import SolverOptions

_INTERACTION_MASS_TOL = 1e-6
_EDGE_MASS_TOL = 1e-4
_DENSITY_CUTOFF = 1e-13  # relative weight below which momentum bins are ignored


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
        if self.k0 <= 0 or self.sigma_x <= 0 or self.half_length <= 0:
            raise ValueError("k0, sigma_x, half_length must be positive")
        if self.dt <= 0 or self.t_max <= 0:
            raise ValueError("dt and t_max must be positive")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two")

    def validate_against(self, p: Potential, truncation_tol: float = 1e-12) -> None:
        """Narrow-band and placement invariants relative to the potential."""
        if p.tail_value("left") != 0.0 or p.tail_value("right") != 0.0:
            # nonzero tails would wrap into a spurious interface at the
            # periodic boundary of the spectral grid
            raise ValueError("wave-packet evolution requires zero potential tails")
        support = effective_support(p, truncation_tol)
        if not self.x0 + 4.0 * self.sigma_x < -support:
            raise ValueError("packet must start in the zero-tail region left of the support")
        if self.x0 - 4.0 * self.sigma_x <= -self.half_length:
            raise ValueError("packet tail sticks out of the box; enlarge half_length")
        if self.k0 * self.sigma_x < 4.0:
            raise ValueError("narrow-band condition k0 * sigma_x >= 4 violated")
        k_need = self.k0 + 4.0 / self.sigma_x
        if self.n_points < 2.0 * self.half_length * k_need / math.pi:
            raise ValueError("n_points too small to resolve the packet's momenta")


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
    conserved quantity of the scheme.  The potential is sampled as exact cell
    averages: pointwise sampling of a discontinuous V quantizes its width to
    the grid and biases reflection at O(dx).
    """

    def __init__(self, p: Potential, half_length: float, n_points: int, dt: float):
        self.half_length = float(half_length)
        self.n_points = int(n_points)
        self.dt = float(dt)
        self.dx = 2.0 * self.half_length / self.n_points
        self.x = -self.half_length + self.dx * np.arange(self.n_points)
        self.k = 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.dx)
        self.v = self._cell_averaged(p)
        self._half_potential = np.exp(-0.5j * self.dt * self.v)
        self._kinetic = np.exp(-1j * self.dt * self.k**2)

    def _cell_averaged(self, p: Potential) -> np.ndarray:
        half = 0.5 * self.dx
        return np.array([p.mean_value(xi - half, xi + half) for xi in self.x])

    def step(self, psi: np.ndarray, n_steps: int = 1) -> np.ndarray:
        for _ in range(n_steps):
            psi = self._half_potential * psi
            psi = np.fft.ifft(self._kinetic * np.fft.fft(psi))
            psi = self._half_potential * psi
        return psi

    def norm_sq(self, psi: np.ndarray) -> float:
        return float(np.sum(np.abs(psi) ** 2) * self.dx)

    def initial_packet(self, spec: PacketSpec) -> np.ndarray:
        psi = (2.0 * math.pi * spec.sigma_x**2) ** -0.25 * np.exp(
            -((self.x - spec.x0) ** 2) / (4.0 * spec.sigma_x**2) + 1j * spec.k0 * self.x
        )
        return psi / math.sqrt(self.norm_sq(psi))


def momentum_density(spec: PacketSpec) -> tuple[np.ndarray, np.ndarray]:
    """|phi_hat(k)|^2 of the initial packet on the propagator's momentum grid.

    Returned sorted by k and normalized so that sum(density) * dk = 1.
    """
    dx = 2.0 * spec.half_length / spec.n_points
    x = -spec.half_length + dx * np.arange(spec.n_points)
    psi = (2.0 * math.pi * spec.sigma_x**2) ** -0.25 * np.exp(
        -((x - spec.x0) ** 2) / (4.0 * spec.sigma_x**2) + 1j * spec.k0 * x
    )
    psi = psi / math.sqrt(float(np.sum(np.abs(psi) ** 2) * dx))
    k = 2.0 * math.pi * np.fft.fftfreq(spec.n_points, d=dx)
    dk = 2.0 * math.pi / (spec.n_points * dx)
    phi = np.fft.fft(psi) * dx / math.sqrt(2.0 * math.pi)
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
