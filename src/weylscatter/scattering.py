"""Scattering matrix, spectral reflection coefficient, and reflectionless scans.

Everything here is algebra on boundary m-values.  With both Herglotz
m-functions in hand,

    g00(lambda + i0) = -1 / (m_l + m_r)
    s_ab(lambda)     = delta_ab + 2i g00 sqrt(Im m_a * Im m_b)

and the reflection coefficient for incidence from the left is

    R_l(lambda) = (m_r + conj(m_l)) / (m_r + m_l),

which coincides with s_ll identically.  Tiny negative imaginary parts (solver
noise) are clamped to zero before square roots; the clamped values feed every
formula so unitarity survives exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantDenominator, ValidationError
from .potential import Potential
from .weyl import MValue, SolverOptions, sweep

DEFAULT_SUPPORT_THRESHOLD = 1e-8
_RESONANT_EPS = 1e-14


@dataclass(frozen=True)
class ScatteringMatrix2:
    """The 2x2 scattering matrix at one energy, channels ordered (left, right)."""

    lam: float
    s_ll: complex
    s_lr: complex
    s_rl: complex
    s_rr: complex

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.s_ll, self.s_lr], [self.s_rl, self.s_rr]])

    def unitarity_residual(self) -> float:
        s = self.as_matrix()
        return float(np.max(np.abs(s @ s.conj().T - np.eye(2))))


@dataclass(frozen=True)
class ReflectionRecord:
    """Per-energy reflection/transmission bundle."""

    lam: float
    g00: complex
    r_spectral: complex
    reflect_prob: float
    transmit_prob: float
    in_S_l: bool
    in_S_r: bool
    err_estimate: float


@dataclass(frozen=True)
class ReflectionlessWindow:
    """Maximal grid interval on which reflect_prob stayed at numerical zero."""

    lam_min: float
    lam_max: float
    max_reflect_prob: float


def green00(m_l: complex, m_r: complex) -> complex:
    """Diagonal Green function at the origin, -1/(m_l + m_r)."""
    denom = m_l + m_r
    if abs(denom) < _RESONANT_EPS:
        raise ResonantDenominator(
            f"m_l + m_r = {denom}: pole of the diagonal Green function"
        )
    return -1.0 / denom


def _clamped(m: complex) -> tuple[complex, float]:
    im = max(m.imag, 0.0)
    return complex(m.real, im), im


def _reflection_coefficient(m_l: complex, m_r: complex) -> complex:
    """R_l from the two boundary m-values; no clamping, no thresholds."""
    return (m_r + np.conj(m_l)) / (m_r + m_l)


def scattering_matrix(lam: float, m_l: MValue, m_r: MValue) -> ScatteringMatrix2:
    """Assemble s(lambda) from boundary m-values at the same energy.

    Entries for a side whose Im m vanishes reduce to the identity row and
    column: that channel carries no a.c. spectrum at this energy.
    """
    ml, bl = _clamped(m_l.m)
    mr, br = _clamped(m_r.m)
    g = green00(ml, mr)
    root = np.sqrt(bl * br)
    s_ll = 1.0 + 2j * g * bl
    s_rr = 1.0 + 2j * g * br
    s_off = 2j * g * root
    return ScatteringMatrix2(lam=float(lam), s_ll=s_ll, s_lr=s_off, s_rl=s_off, s_rr=s_rr)


def spectral_reflection(
    lam: float,
    m_l: MValue,
    m_r: MValue,
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> ReflectionRecord:
    """Reflection record at lambda for incidence from the left.

    Membership in the essential supports S_l / S_r is decided by thresholding
    Im m against s_threshold.  Off S_l the convention is total reflection:
    r = 1, transmit = 0.
    """
    in_S_l = m_l.m.imag > s_threshold
    in_S_r = m_r.m.imag > s_threshold
    ml, _ = _clamped(m_l.m)
    mr, _ = _clamped(m_r.m)
    g = green00(ml, mr)
    err = (m_l.err_estimate + m_r.err_estimate) * (1.0 + 2.0 / abs(ml + mr))
    if in_S_l:
        r = complex(_reflection_coefficient(ml, mr))
        reflect = min(abs(r) ** 2, 1.0)
        transmit = 1.0 - reflect
    else:
        r = 1.0 + 0.0j
        reflect = 1.0
        transmit = 0.0
    return ReflectionRecord(
        lam=float(lam),
        g00=g,
        r_spectral=r,
        reflect_prob=reflect,
        transmit_prob=transmit,
        in_S_l=in_S_l,
        in_S_r=in_S_r,
        err_estimate=err,
    )


def boundary_pairs(
    p: Potential, grid, opts: SolverOptions | None = None
) -> list[tuple[MValue, MValue]]:
    """Both boundary m-values at every energy of grid, from one batched sweep."""
    grid = np.asarray(grid, dtype=float)
    m_l, m_r, err_l, err_r = sweep(p, grid, opts)
    return [
        (
            MValue(side="left", z=complex(lam, 0.0), m=complex(ml), err_estimate=float(el)),
            MValue(side="right", z=complex(lam, 0.0), m=complex(mr), err_estimate=float(er)),
        )
        for lam, ml, mr, el, er in zip(grid.tolist(), m_l, m_r, err_l, err_r)
    ]


def boundary_pair(
    p: Potential, lam: float, opts: SolverOptions | None = None
) -> tuple[MValue, MValue]:
    """Both boundary m-values at lambda."""
    return boundary_pairs(p, [float(lam)], opts)[0]


def reflectionless_scan(
    p: Potential,
    grid,
    opts: SolverOptions | None = None,
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
    zero_tol: float = 1e-6,
) -> list[ReflectionlessWindow]:
    """Maximal grid windows where reflect_prob <= zero_tol at every node.

    The verdict is about the sampled nodes only; nothing is claimed between
    them.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValidationError("grid must be a nonempty 1D sequence")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")
    windows: list[ReflectionlessWindow] = []
    start = None
    worst = 0.0
    for lam, (m_l, m_r) in zip(grid, boundary_pairs(p, grid, opts)):
        rec = spectral_reflection(lam, m_l, m_r, s_threshold)
        if rec.reflect_prob <= zero_tol:
            if start is None:
                start = lam
                worst = rec.reflect_prob
            else:
                worst = max(worst, rec.reflect_prob)
            last = lam
        elif start is not None:
            windows.append(ReflectionlessWindow(float(start), float(last), float(worst)))
            start = None
    if start is not None:
        windows.append(ReflectionlessWindow(float(start), float(last), float(worst)))
    return windows
