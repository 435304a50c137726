"""Potential descriptions for the 1D operator -u'' + V u.

Every potential here is bounded below, piecewise continuous, and constant
outside a finite or effectively finite window, which keeps both half-line
problems in the limit point case without runtime checks.  A small closed-form
library is provided next to a sampled (piecewise linear) variant; all of them
evaluate on scalars or numpy arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigParseError, InvalidPotential, UnboundedTail

ArrayLike = Union[float, np.ndarray]

INFINITE = math.inf


@dataclass(frozen=True, eq=False)
class Potential:
    """Base class; concrete variants implement the value/metadata hooks."""

    def value(self, x: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    @property
    def support_radius(self) -> float:
        """Smallest X with V constant (equal to its tail) outside [-X, X]."""
        raise NotImplementedError

    @property
    def lower_bound(self) -> float:
        """Certified value with V(x) >= lower_bound everywhere."""
        raise NotImplementedError

    def tail_value(self, side: str) -> float:
        """Constant (or limiting) value of V on the far left / far right."""
        _check_side(side)
        return 0.0

    def tolerance_radius(self, tol: float) -> float:
        """Smallest X with |V(x) - tail| <= tol for all |x| >= X."""
        raise NotImplementedError

    @property
    def exact_support(self) -> bool:
        """True when V equals its tails exactly outside support_radius."""
        return math.isfinite(self.support_radius)

    def breakpoints(self) -> tuple[float, ...]:
        """Locations where V jumps or has a kink (empty when smooth)."""
        return ()

    def mean_value(self, a: float, b: float) -> float:
        """Exact average of V over [a, b]; grid discretizations of jumps need this.

        The generic fallback is 5-point Gauss-Legendre, exact enough for
        smooth variants; variants with closed-form antiderivatives override.
        """
        if b <= a:
            return float(self.value(a))
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total = 0.0
        for node, weight in _GAUSS5:
            total += weight * float(self.value(mid + half * node))
        return 0.5 * total

    def _validate(self) -> list[str]:
        return []


_GAUSS5 = (
    (-0.906179845938664, 0.23692688505618908),
    (-0.5384693101056831, 0.47862867049936647),
    (0.0, 0.5688888888888889),
    (0.5384693101056831, 0.47862867049936647),
    (0.906179845938664, 0.23692688505618908),
)


def _overlap(a: float, b: float, lo: float, hi: float) -> float:
    return max(0.0, min(b, hi) - max(a, lo))


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True, eq=False)
class Zero(Potential):
    """The free line, V = 0."""

    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0

    @property
    def support_radius(self):
        return 0.0

    @property
    def lower_bound(self):
        return 0.0

    def tolerance_radius(self, tol):
        return 0.0

    def mean_value(self, a, b):
        return 0.0


@dataclass(frozen=True, eq=False)
class SquareBarrier(Potential):
    """V = height on [center - half_width, center + half_width], else 0."""

    height: float
    half_width: float
    center: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x - self.center) <= self.half_width
        out = np.where(inside, self.height, 0.0)
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return abs(self.center) + self.half_width

    @property
    def lower_bound(self):
        return min(0.0, self.height)

    def tolerance_radius(self, tol):
        if abs(self.height) <= tol:
            return 0.0
        return self.support_radius

    def breakpoints(self):
        return (self.center - self.half_width, self.center + self.half_width)

    def mean_value(self, a, b):
        if b <= a:
            return float(self.value(a))
        lo, hi = self.center - self.half_width, self.center + self.half_width
        return self.height * _overlap(a, b, lo, hi) / (b - a)

    def _validate(self):
        return [] if self.half_width > 0 else ["half_width must be positive"]


@dataclass(frozen=True, eq=False)
class PoschlTeller(Potential):
    """V(x) = -nu(nu+1) sech^2(x), the classic reflectionless family."""

    nu: int

    @property
    def depth(self) -> float:
        return float(self.nu * (self.nu + 1))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = -self.depth / np.cosh(x) ** 2
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return INFINITE

    @property
    def lower_bound(self):
        return -self.depth

    def tolerance_radius(self, tol):
        if tol >= self.depth:
            return 0.0
        # solve nu(nu+1) sech^2(X) = tol; monotone tail
        return float(np.arccosh(math.sqrt(self.depth / tol)))

    def mean_value(self, a, b):
        if b <= a:
            return float(self.value(a))
        return -self.depth * (math.tanh(b) - math.tanh(a)) / (b - a)

    def _validate(self):
        if not (isinstance(self.nu, (int, np.integer)) and self.nu >= 1):
            return ["nu must be a positive integer"]
        return []


@dataclass(frozen=True, eq=False)
class GaussianBump(Potential):
    """V(x) = amplitude * exp(-(x - center)^2 / (2 sigma^2))."""

    amplitude: float
    sigma: float
    center: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = self.amplitude * np.exp(-((x - self.center) ** 2) / (2 * self.sigma**2))
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return 0.0 if self.amplitude == 0 else INFINITE

    @property
    def lower_bound(self):
        return min(0.0, self.amplitude)

    def tolerance_radius(self, tol):
        if abs(self.amplitude) <= tol:
            return 0.0
        return abs(self.center) + self.sigma * math.sqrt(2 * math.log(abs(self.amplitude) / tol))

    def mean_value(self, a, b):
        if b <= a:
            return float(self.value(a))
        s = self.sigma * math.sqrt(2.0)
        anti = self.amplitude * self.sigma * math.sqrt(math.pi / 2.0)
        return anti * (math.erf((b - self.center) / s) - math.erf((a - self.center) / s)) / (b - a)

    def _validate(self):
        return [] if self.sigma > 0 else ["sigma must be positive"]


@dataclass(frozen=True, eq=False)
class Step(Potential):
    """V = left_value for x < 0 and right_value for x >= 0."""

    left_value: float
    right_value: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < 0, self.left_value, self.right_value)
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return 0.0

    @property
    def lower_bound(self):
        return min(self.left_value, self.right_value)

    def tail_value(self, side):
        _check_side(side)
        return self.left_value if side == "left" else self.right_value

    def tolerance_radius(self, tol):
        return 0.0

    def breakpoints(self):
        return (0.0,)

    def mean_value(self, a, b):
        if b <= a:
            return float(self.value(a))
        below = _overlap(a, b, -INFINITE, 0.0)
        return (self.left_value * below + self.right_value * (b - a - below)) / (b - a)


@dataclass(frozen=True, eq=False)
class Sampled(Potential):
    """Linear interpolation through (xs, vs) nodes, constant tails outside."""

    xs: np.ndarray
    vs: np.ndarray
    tail_left: float = 0.0
    tail_right: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "vs", np.asarray(self.vs, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.vs, left=self.tail_left, right=self.tail_right)
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return float(max(abs(self.xs[0]), abs(self.xs[-1])))

    @property
    def lower_bound(self):
        return float(min(self.vs.min(), self.tail_left, self.tail_right))

    def tail_value(self, side):
        _check_side(side)
        return self.tail_left if side == "left" else self.tail_right

    def tolerance_radius(self, tol):
        return self.support_radius

    def breakpoints(self):
        return tuple(float(x) for x in self.xs)

    def mean_value(self, a, b):
        if b <= a:
            return float(self.value(a))
        # piecewise linear, so the trapezoid rule over all kinks is exact
        inner = self.xs[(self.xs > a) & (self.xs < b)]
        pts = np.concatenate(([a], inner, [b]))
        vals = self.value(pts)
        return float(np.trapezoid(vals, pts) / (b - a))

    def _validate(self):
        problems = []
        if len(self.xs) != len(self.vs):
            problems.append("xs and vs must have equal length")
        if len(self.xs) < 2:
            problems.append("at least two sample nodes are required")
        elif not np.all(np.diff(self.xs) > 0):
            problems.append("xs must be strictly increasing")
        return problems


@dataclass(frozen=True, eq=False)
class Truncated(Potential):
    """A wrapped potential forced to its zero tails outside [-radius, radius].

    Only meaningful for inner potentials whose tails are zero; used to hand a
    decaying potential to methods that need exact compact support.
    """

    inner: Potential
    radius: float

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) <= self.radius, self.inner.value(x), 0.0)
        return out if out.ndim else float(out)

    @property
    def support_radius(self):
        return self.radius

    @property
    def lower_bound(self):
        return min(0.0, self.inner.lower_bound)

    def tolerance_radius(self, tol):
        return min(self.radius, self.inner.tolerance_radius(tol))

    def breakpoints(self):
        inner = tuple(b for b in self.inner.breakpoints() if abs(b) < self.radius)
        return tuple(sorted(inner + (-self.radius, self.radius)))

    def mean_value(self, a, b):
        if b <= a:
            return float(self.value(a))
        lo, hi = max(a, -self.radius), min(b, self.radius)
        if hi <= lo:
            return 0.0
        return self.inner.mean_value(lo, hi) * (hi - lo) / (b - a)

    def _validate(self):
        problems = list(self.inner._validate())
        if not (self.radius > 0 and math.isfinite(self.radius)):
            problems.append("truncation radius must be positive and finite")
        if self.inner.tail_value("left") != 0.0 or self.inner.tail_value("right") != 0.0:
            problems.append("truncation requires zero tails on the inner potential")
        return problems


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(): certificates, never raw failures."""

    lower_bound: float
    tail_class: str  # "constant" or "decaying"
    limit_point: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def evaluate(p: Potential, x: ArrayLike) -> ArrayLike:
    """Evaluate V at x (scalar or array).  Pure and total."""
    return p.value(x)


def effective_support(p: Potential, tol: float) -> float:
    """Smallest X such that |V(x) - tail| <= tol for all |x| >= X.

    Computed analytically per variant.  Raises UnboundedTail if no finite X
    exists, which cannot happen for the library variants.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    radius = p.tolerance_radius(tol)
    if not math.isfinite(radius):
        raise UnboundedTail(f"no finite truncation radius at tol={tol}")
    return radius


def validate(p: Potential) -> ValidationReport:
    """Check the variant's invariants; raise InvalidPotential on the first violation."""
    problems = p._validate()
    if problems:
        raise InvalidPotential(problems[0])
    tail_class = "constant" if p.exact_support else "decaying"
    notes = ("constant tails imply the limit point case at both infinities",)
    return ValidationReport(
        lower_bound=p.lower_bound,
        tail_class=tail_class,
        limit_point=True,
        notes=notes,
    )


def truncated(p: Potential, tol: float) -> Potential:
    """Return p with its tails cut to exactly zero outside effective_support(p, tol).

    Potentials that already have exact compact support are returned unchanged.
    """
    if p.exact_support:
        return p
    return Truncated(inner=p, radius=effective_support(p, tol))


_KIND_BUILDERS = {
    "zero": lambda cfg, _: Zero(),
    "square_barrier": lambda cfg, _: SquareBarrier(
        height=float(cfg["height"]),
        half_width=float(cfg["half_width"]),
        center=float(cfg.get("center", 0.0)),
    ),
    "poschl_teller": lambda cfg, _: PoschlTeller(nu=int(cfg["nu"])),
    "gaussian": lambda cfg, _: GaussianBump(
        amplitude=float(cfg["amplitude"]),
        sigma=float(cfg["sigma"]),
        center=float(cfg.get("center", 0.0)),
    ),
    "step": lambda cfg, _: Step(
        left_value=float(cfg["left_value"]),
        right_value=float(cfg["right_value"]),
    ),
    "sampled": lambda cfg, base: _sampled_from_config(cfg, base),
}


def _sampled_from_config(cfg: dict, base_dir: Path) -> Sampled:
    tail_left = float(cfg.get("tail_left", 0.0))
    tail_right = float(cfg.get("tail_right", 0.0))
    if "csv" in cfg:
        path = Path(cfg["csv"])
        if not path.is_absolute():
            path = base_dir / path
        try:
            data = np.loadtxt(path, delimiter=",", dtype=float)
        except OSError as exc:
            raise ConfigParseError(f"cannot read sampled CSV {path}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigParseError(f"sampled CSV {path} must have two columns (x, V)")
        return Sampled(xs=data[:, 0], vs=data[:, 1], tail_left=tail_left, tail_right=tail_right)
    return Sampled(
        xs=np.asarray(cfg["xs"], dtype=float),
        vs=np.asarray(cfg["vs"], dtype=float),
        tail_left=tail_left,
        tail_right=tail_right,
    )


def potential_from_config(cfg: dict, base_dir: str | Path = ".") -> Potential:
    """Build a validated Potential from its JSON-style description.

    The "kind" field selects the variant; remaining fields are the dataclass
    fields by name.  An optional "truncate_tol" wraps the result so that it
    has exact compact support.
    """
    if not isinstance(cfg, dict):
        raise ConfigParseError("potential config must be a JSON object")
    try:
        kind = cfg["kind"]
    except KeyError:
        raise ConfigParseError("potential config is missing the 'kind' field") from None
    builder = _KIND_BUILDERS.get(kind)
    if builder is None:
        known = ", ".join(sorted(_KIND_BUILDERS))
        raise ConfigParseError(f"unknown potential kind {kind!r} (known: {known})")
    try:
        p = builder(cfg, Path(base_dir))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigParseError):
            raise
        raise ConfigParseError(f"bad field for potential kind {kind!r}: {exc}") from exc
    if "truncate_tol" in cfg:
        p = truncated(p, float(cfg["truncate_tol"]))
    validate(p)
    return p


def potential_from_json(text: str, base_dir: str | Path = ".") -> Potential:
    """Parse a JSON string into a validated Potential."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid potential JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return potential_from_config(cfg, base_dir)
