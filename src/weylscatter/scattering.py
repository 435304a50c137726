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

The algebra is elementwise and takes the m-values alone: given the MValue
columns that `weyl.sweep` returns over an energy grid, every result is a
column over the grid, and given scalar MValues (`boundary_pair` solves one
energy's), a numpy scalar.  Moduli are taken by libm's hypot and
squares by libm's pow, as Python's abs(complex) and ** take them, so each
entry of a column has the bits of the same formula in Python complex
arithmetic, except that numpy's complex quotient -1 / (m_l + m_r) may round
the entries of s differently, by an ulp.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonantDenominator, ValidationError
from .potential import Potential, real_array
from .weyl import MValue, SolverOptions, sweep

DEFAULT_SUPPORT_THRESHOLD = 1e-8
_RESONANT_EPS = 1e-14


@dataclass(frozen=True)
class ScatteringMatrix2:
    """The 2x2 scattering matrix at each energy of the m-values, channels ordered (left, right)."""

    s_ll: np.ndarray
    s_lr: np.ndarray
    s_rl: np.ndarray
    s_rr: np.ndarray

    def as_matrix(self) -> np.ndarray:
        """The matrices stacked along the last two axes, shape s_ll.shape + (2, 2)."""
        entries = np.stack(np.broadcast_arrays(self.s_ll, self.s_lr, self.s_rl, self.s_rr), axis=-1)
        return entries.reshape(entries.shape[:-1] + (2, 2))

    def unitarity_residual(self) -> np.ndarray:
        """max |s s* - I| over the entries, at each energy."""
        s = self.as_matrix()
        gap = s @ np.conj(np.swapaxes(s, -1, -2)) - np.eye(2)
        return np.max(modulus(gap), axis=(-2, -1))


@dataclass(frozen=True)
class ReflectionRecord:
    """Reflection/transmission at each energy of the m-values."""

    r_spectral: np.ndarray
    reflect_prob: np.ndarray
    transmit_prob: np.ndarray
    in_S_l: np.ndarray
    in_S_r: np.ndarray
    err_estimate: np.ndarray


@dataclass(frozen=True)
class ReflectionlessWindow:
    """Maximal grid interval on which reflect_prob stayed at numerical zero."""

    lam_min: float
    lam_max: float
    max_reflect_prob: float


def modulus(z) -> np.ndarray:
    """|z| elementwise by libm's hypot, the function abs(complex) uses.

    numpy's complex abs rounds differently in the last bit.
    """
    return np.hypot(np.real(z), np.imag(z))


def green00(m_l, m_r) -> np.ndarray:
    """Diagonal Green function at the origin, -1/(m_l + m_r).

    Raises ResonantDenominator naming the first entry where |m_l + m_r|
    falls below _RESONANT_EPS.
    """
    denom = np.add(m_l, m_r)
    resonant = np.ravel(modulus(denom) < _RESONANT_EPS)
    if resonant.any():
        i = int(np.argmax(resonant))
        raise ResonantDenominator(
            f"m_l + m_r = {complex(np.ravel(denom)[i])} at entry {i}: pole of the diagonal Green function"
        )
    return -1.0 / denom


def _clamped(m) -> tuple[np.ndarray, np.ndarray]:
    """m with Im m clamped at 0, and the clamped Im m."""
    clamped = np.array(m, dtype=complex)
    clamped.imag = np.maximum(clamped.imag, 0.0)
    return clamped, clamped.imag


def _reflection_coefficient(m_l, m_r):
    """R_l from the two boundary m-values; no clamping, no thresholds."""
    return (m_r + np.conj(m_l)) / (m_r + m_l)


def scattering_matrix(m_l: MValue, m_r: MValue) -> ScatteringMatrix2:
    """Assemble s(lambda) from boundary m-values at the same energies.

    Entries for a side whose Im m vanishes reduce to the identity row and
    column: that channel carries no a.c. spectrum at this energy.
    """
    ml, bl = _clamped(m_l.m)
    mr, br = _clamped(m_r.m)
    g = green00(ml, mr)
    s_off = 2j * g * np.sqrt(bl * br)
    return ScatteringMatrix2(
        s_ll=1.0 + 2j * g * bl,
        s_lr=s_off,
        s_rl=s_off,
        s_rr=1.0 + 2j * g * br,
    )


def spectral_reflection(
    m_l: MValue,
    m_r: MValue,
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD,
) -> ReflectionRecord:
    """Reflection at each energy of the m-values for incidence from the left.

    Membership in the essential supports S_l / S_r is decided by thresholding
    Im m against s_threshold.  Off S_l the convention is total reflection:
    r = 1, transmit = 0.
    """
    in_S_l = np.imag(m_l.m) > s_threshold
    ml, _ = _clamped(m_l.m)
    mr, _ = _clamped(m_r.m)
    green00(ml, mr)  # refuses a resonant energy
    r = np.where(in_S_l, _reflection_coefficient(ml, mr), 1.0 + 0.0j)
    # float_power squares by libm's pow; numpy's ** 2 is x * x, which rounds
    # differently for about one value in 1200
    reflect = np.where(in_S_l, np.minimum(np.float_power(modulus(r), 2.0), 1.0), 1.0)
    return ReflectionRecord(
        r_spectral=r[()],
        reflect_prob=reflect[()],
        transmit_prob=(1.0 - reflect)[()],
        in_S_l=in_S_l,
        in_S_r=np.imag(m_r.m) > s_threshold,
        err_estimate=(m_l.err_estimate + m_r.err_estimate) * (1.0 + 2.0 / modulus(ml + mr)),
    )


def boundary_pair(
    p: Potential, lam: float, opts: SolverOptions | None = None
) -> tuple[MValue, MValue]:
    """Both boundary m-values at lambda."""
    m_l, m_r = sweep(p, [float(lam)], opts)
    return m_l[0], m_r[0]


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
    grid = real_array("grid", grid)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValidationError("grid must be a nonempty 1D sequence")
    if not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing")
    rec = spectral_reflection(*sweep(p, grid, opts), s_threshold)
    zero = (rec.reflect_prob <= zero_tol).astype(np.int8)
    edges = np.diff(zero, prepend=0, append=0)
    return [
        ReflectionlessWindow(float(grid[a]), float(grid[b - 1]), float(np.max(rec.reflect_prob[a:b])))
        for a, b in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    ]
