"""Transfer-matrix oracle for compactly supported potentials.

Independent ground truth for the m-function route: approximate V by
piecewise-constant slabs, carry (u, u') across each slab with its closed-form
propagator, and read off the reflection/transmission amplitudes of a wave
incident from the left.  Slab edges always include the potential's own
breakpoints, so genuinely piecewise-constant potentials are composed exactly.

A slab of width d where V = v propagates (u, u') by

    [[cos qd, d sinc(qd)], [-q^2 d sinc(qd), cos qd]],   q^2 = k^2 - v,

sinc(x) = sin(x)/x.  The entries are entire functions of q^2 (cosh and sinh
where q^2 < 0), so a slab at a turning point, q = 0, needs no special case
and every propagator is real with determinant 1.  The slabs are multiplied
pairwise, a batch of 2x2 products over (momentum, slab) arrays per level, in
blocks of _SLAB_BLOCK slabs.  Plane waves enter only at the two vacuum ends.

`transfer_reflection_grid` returns one TransferResult whose k, r_amp and
t_amp are columns over the momenta; indexing it gives one momentum's entry,
and `transfer_reflection` is the one-momentum call.  The probabilities square
libm's hypot by libm's pow, so each entry has the bits of abs(r) ** 2 in
Python complex arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEnergy, EvanescentOverflow, InvalidSlabWidth
from .potential import Potential, effective_support, real_array

_OVERFLOW_LIMIT = 1e300
# slabs per batched product: transient memory is O(len(ks) * _SLAB_BLOCK)
# whatever the slab count; for verify's 16 momenta each array stays at 64 KiB,
# under glibc's 128 KiB mmap threshold, so the blocks reuse heap pages
_SLAB_BLOCK = 512


def _squared_modulus(z):
    """|z|^2 by libm's hypot and pow, the functions abs(complex) and ** use."""
    return np.float_power(np.hypot(np.real(z), np.imag(z)), 2.0)


@dataclass(frozen=True)
class TransferResult:
    """Amplitudes for a unit wave incident from the left: scalars at one
    momentum k, or equal-length columns over several.  Every entry shares
    slab_count."""

    k: float
    r_amp: complex
    t_amp: complex
    slab_count: int

    def __getitem__(self, index) -> TransferResult:
        """The entry, or the columns, at index of a column TransferResult."""
        return TransferResult(self.k[index], self.r_amp[index], self.t_amp[index], self.slab_count)

    @property
    def reflect_prob(self):
        return _squared_modulus(self.r_amp)

    @property
    def transmit_prob(self):
        return _squared_modulus(self.t_amp)


def _slab_edges(p: Potential, slab_width: float, truncation_tol: float) -> np.ndarray:
    x_max = effective_support(p, truncation_tol)
    if x_max == 0.0:
        return np.array([0.0])
    count = max(1, int(math.ceil(2.0 * x_max / slab_width)))
    edges = np.linspace(-x_max, x_max, count + 1)
    interior = [b for b in p.breakpoints() if -x_max < b < x_max]
    if interior:
        edges = np.unique(np.concatenate([edges, np.asarray(interior, dtype=float)]))
    return edges


def _slab_propagators(k2: np.ndarray, widths: np.ndarray, v: np.ndarray):
    """Entries (a, b, c, d) of every slab's (u, u') propagator, shape (len(k2), len(v))."""
    q2 = k2[:, None] - v[None, :]
    x = np.sqrt(np.abs(q2)) * widths
    safe_x = np.where(x > 0.0, x, 1.0)
    oscillating = q2 >= 0.0
    a = np.where(oscillating, np.cos(x), np.cosh(x))
    sinc = np.where(oscillating, np.sin(x), np.sinh(x)) / safe_x
    b = np.where(x > 0.0, sinc, 1.0) * widths
    return a, b, -q2 * b, a


def _pairwise_product(a, b, c, d):
    """Ordered product, last slab leftmost, of the 2x2 matrices along axis 1."""
    while a.shape[1] > 1:
        odd = a.shape[1] % 2
        if odd:
            rest = a[:, -1:], b[:, -1:], c[:, -1:], d[:, -1:]
            a, b, c, d = a[:, :-1], b[:, :-1], c[:, :-1], d[:, :-1]
        # left factor: the later slab of each pair
        la, lb, lc, ld = a[:, 1::2], b[:, 1::2], c[:, 1::2], d[:, 1::2]
        ra, rb, rc, rd = a[:, ::2], b[:, ::2], c[:, ::2], d[:, ::2]
        a, b, c, d = la * ra + lb * rc, la * rb + lb * rd, lc * ra + ld * rc, lc * rb + ld * rd
        if odd:
            a, b, c, d = (np.concatenate([m, tail], axis=1) for m, tail in zip((a, b, c, d), rest))
    return a[:, 0], b[:, 0], c[:, 0], d[:, 0]


def _compose(p: Potential, ks: np.ndarray, edges: np.ndarray):
    """(u, u') transfer matrix from edges[0] to edges[-1], vectorized over k.

    V is taken at the slab midpoints, one block of slabs at a time.
    """
    k2 = ks**2
    a = np.ones_like(ks)
    b = np.zeros_like(ks)
    c = np.zeros_like(ks)
    d = np.ones_like(ks)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(edges) - 1, _SLAB_BLOCK):
            hi = edges[start + 1 : start + 1 + _SLAB_BLOCK]
            lo = edges[start : start + len(hi)]
            v_mid = np.asarray(p.value(0.5 * (lo + hi)), dtype=float)
            ba, bb, bc, bd = _pairwise_product(*_slab_propagators(k2, hi - lo, v_mid))
            a, b, c, d = ba * a + bb * c, ba * b + bb * d, bc * a + bd * c, bc * b + bd * d
            peak = float(np.max(np.abs([a, b, c, d]), initial=0.0))  # initial: ks may be empty
            if not math.isfinite(peak) or peak > _OVERFLOW_LIMIT:
                raise EvanescentOverflow(
                    "transfer-matrix entries overflowed; split the slab and retry"
                )
    return a, b, c, d


def transfer_reflection_grid(
    p: Potential,
    ks,
    slab_width: float,
    truncation_tol: float = 1e-12,
) -> TransferResult:
    """Transfer-matrix amplitudes as columns over the momenta ks (all positive and finite)."""
    ks = real_array("ks", ks).copy()  # the result keeps it as its k column
    if not (slab_width > 0 and math.isfinite(slab_width)):
        raise InvalidSlabWidth(f"slab_width must be positive and finite, got {slab_width}")
    if not np.all((ks > 0) & (ks < math.inf)):  # NaN fails both comparisons
        raise ValueError(f"momenta must be positive and finite, got {ks!r}")
    if p.tail_value("left") != 0.0 or p.tail_value("right") != 0.0:
        raise ValueError("transfer oracle requires equal zero tails")
    edges = _slab_edges(p, slab_width, truncation_tol)
    if len(edges) == 1:
        return TransferResult(ks, np.zeros_like(ks, dtype=complex), np.ones_like(ks, dtype=complex), 0)
    a, b, c, d = _compose(p, ks, edges)
    # plane waves at the vacuum ends: e^{ikx} + r e^{-ikx} left of edges[0],
    # t e^{ikx} right of edges[-1]; with the coefficient map M, r = -M21/M22
    # and, as det M = 1, t = 1/M22
    x_lo, x_hi = edges[0], edges[-1]
    m21 = np.exp(1j * ks * (x_hi + x_lo)) * ((a - d) + 1j * (ks * b + c / ks)) / 2
    m22 = np.exp(1j * ks * (x_hi - x_lo)) * ((a + d) + 1j * (c / ks - ks * b)) / 2
    return TransferResult(ks, -m21 / m22, 1.0 / m22, len(edges) - 1)


def transfer_reflection(
    p: Potential,
    k: float,
    slab_width: float,
    truncation_tol: float = 1e-12,
) -> TransferResult:
    """Reflection/transmission of a unit wave incident from the left at momentum k."""
    return transfer_reflection_grid(p, [float(real_array("k", k))], slab_width, truncation_tol)[0]


def closed_form_barrier(E: float, V0: float, a: float) -> tuple[float, float]:
    """Textbook rectangular-barrier (reflect_prob, transmit_prob).

    Height V0, total width a, energy E = k^2.  The removable singularity at
    E = V0 is rejected rather than special-cased.
    """
    if E <= 0 or V0 <= 0 or a <= 0:
        raise ValueError("E, V0, a must all be positive")
    if abs(E - V0) <= 1e-12 * max(E, V0):
        raise DegenerateEnergy("E = V0 is outside the closed form's domain")
    if E < V0:
        kappa = math.sqrt(V0 - E)
        transmit = 1.0 / (1.0 + V0**2 * math.sinh(kappa * a) ** 2 / (4.0 * E * (V0 - E)))
    else:
        kp = math.sqrt(E - V0)
        transmit = 1.0 / (1.0 + V0**2 * math.sin(kp * a) ** 2 / (4.0 * E * (E - V0)))
    return 1.0 - transmit, transmit
