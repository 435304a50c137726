"""Potential descriptions for the 1D operator -u'' + V u.

Every potential here is bounded below, piecewise continuous, and constant
outside a finite or effectively finite window, which keeps both half-line
problems in the limit point case without runtime checks.  A small closed-form
library is provided next to a sampled (piecewise linear) variant; all of them
evaluate on scalars or numpy arrays.

Each variant's dataclass is the one statement of its kind: its fields, their
defaults and its invariants.  A potential is valid once constructed, and
potential_from_config hands a JSON description's fields to the class by name.

This module holds the one reader of outside input, for potentials, the CLI's
run configuration and its parts, SolverOptions, PacketSpec and LatticeModel:
read_fields converts each field by its annotation (a bool or a string is no
number), refuses a non-finite one by name and enforces the bound the field
declares in its metadata (POSITIVE or NON_NEGATIVE), and check_object refuses
a JSON object's unknown and missing fields by the dataclass's own fields.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ConfigParseError, InvalidPotential, UnboundedTail, ValidationError

ArrayLike = Union[float, np.ndarray]

INFINITE = math.inf


@dataclass(frozen=True, eq=False)
class Potential:
    """Base class; concrete variants implement the value/metadata hooks.

    Construction validates: read_fields converts every field annotated float,
    int or np.ndarray to that type and holds it finite and within its declared
    bound, then a variant's own __post_init__ checks the invariants that span
    fields.  The first violation raises InvalidPotential naming the field.
    """

    # True when V equals its tails exactly outside tolerance_radius(tol), for every tol
    exact_support = True
    # True when value(-x) equals value(x) bit for bit and breakpoints() and
    # the tails are symmetric about the origin; then both half-line
    # m-functions coincide
    mirror_symmetric = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the flag speaks for value and breakpoints: a subclass that restates
        # either without restating the flag is not known to be symmetric
        if {"value", "breakpoints"} & vars(cls).keys() and "mirror_symmetric" not in vars(cls):
            cls.mirror_symmetric = False

    def __post_init__(self):
        read_fields(self, InvalidPotential)

    def value(self, x: ArrayLike) -> ArrayLike:
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

    def breakpoints(self) -> tuple[float, ...]:
        """Locations where V jumps or has a kink (empty when smooth)."""
        return ()

    @property
    def zero_tails(self) -> bool:
        """True when V tends to 0 on both sides."""
        return self.tail_value("left") == 0.0 and self.tail_value("right") == 0.0

    def mean_value(self, a: ArrayLike, b: ArrayLike) -> ArrayLike:
        """Average of V over [a, b], elementwise; value(a) where b <= a.

        Cells, in blocks of _MEAN_BLOCK, are split at breakpoints() and each
        piece is integrated by 8-point Gauss-Legendre, halved until the halves
        agree with it to _MEAN_TOL of its width times its largest |V|.  The
        rule is exact on constant and linear pieces.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
        # sentinels make every piece edge a clipped lookup, also with no breakpoints
        edges = np.concatenate(([-INFINITE], np.sort(self.breakpoints()), [INFINITE]))
        flat_a, flat_b = a.ravel(), b.ravel()
        out = np.asarray(self.value(flat_a), dtype=float)
        for start in range(0, out.size, _MEAN_BLOCK):
            lo, hi = flat_a[start : start + _MEAN_BLOCK], flat_b[start : start + _MEAN_BLOCK]
            cells = np.flatnonzero(hi > lo)
            out[start + cells] = self._block_mean(lo[cells], hi[cells], edges)
        return out.reshape(a.shape) if a.ndim else float(out[0])

    def _block_mean(self, a, b, edges):
        # piece j of a cell runs from its j-th to its (j+1)-th edge, clipped to the cell
        first = np.searchsorted(edges[1:-1], a, side="right")
        counts = np.searchsorted(edges[1:-1], b, side="left") - first + 1
        owner = np.repeat(np.arange(a.size), counts)
        j = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
        left = np.maximum(a[owner], edges[first[owner] + j])
        right = np.minimum(b[owner], edges[first[owner] + j + 1])
        whole, _ = self._gauss(left, right)
        total = np.zeros(a.size)
        for _ in range(_MAX_HALVINGS):
            mid = 0.5 * (left + right)
            (half_l, peak_l), (half_r, peak_r) = self._gauss(left, mid), self._gauss(mid, right)
            scale = (right - left) * np.maximum(peak_l, peak_r)
            # NaN compares False, so a piece where V is not finite is not split
            split = np.abs(half_l + half_r - whole) > _MEAN_TOL * scale
            total += np.bincount(owner[~split], whole[~split], minlength=a.size)
            left, right = np.r_[left[split], mid[split]], np.r_[mid[split], right[split]]
            owner, whole = np.tile(owner[split], 2), np.r_[half_l[split], half_r[split]]
            if not owner.size:
                break
        return (total + np.bincount(owner, whole, minlength=a.size)) / (b - a)

    def _gauss(self, lo, hi):
        """Integral of V over each [lo, hi] by the Gauss rule, and the largest |V| at its nodes."""
        nodes = 0.5 * (lo + hi)[:, None] + (0.5 * (hi - lo))[:, None] * _GL_NODES
        v = np.asarray(self.value(nodes))
        # deviations from the first node keep constant pieces exact, and a row
        # sum, unlike a BLAS product, rounds the same in any batch
        mean = v[:, 0] + 0.5 * np.sum((v - v[:, :1]) * _GL_WEIGHTS, axis=1)
        return (hi - lo) * mean, np.abs(v).max(axis=1)


def number(value) -> float:
    """value as a float: 2 and 2.0 are numbers; True, "2.0" and None raise ValueError."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{value!r} is not a number")


def integral(value) -> int:
    """value as an int: 2 and 2.0 are integral; 2.7, inf, NaN, True and "2" raise ValueError."""
    if number(value).is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def _floats(value) -> np.ndarray:
    """value as a float array; each entry must be a number as number() reads it."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return np.asarray(value, dtype=float)
    # np.asarray would read True as 1.0 and "2" as 2.0
    items = np.asarray(value, dtype=object)
    return np.array([number(v) for v in items.flat], dtype=float).reshape(items.shape)


# field conversions, keyed by annotation (a string: annotations are postponed)
_FIELD_TYPES = {
    "float": number,
    "int": integral,
    "np.ndarray": _floats,
}

# field metadata declaring a bound, as in half_width: float = field(metadata=POSITIVE)
POSITIVE = {"bound": "positive"}
NON_NEGATIVE = {"bound": ">= 0"}


def read_field(name: str, annotation: str, value, error: type[Exception], bound: str | None = None):
    """value converted by annotation ("float", "int", "np.ndarray"), finite and within bound:
    "positive" (>= 1 for an int), ">= 0" or None; error names a bad one."""
    try:
        converted = _FIELD_TYPES[annotation](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name}: {exc}") from None
    # math.isfinite on scalars: a grid list reads one field per energy
    if not (np.isfinite(converted).all() if isinstance(converted, np.ndarray) else math.isfinite(converted)):
        raise error(f"{name} must be finite, got {value!r}")
    if bound and not (converted > 0 if bound == "positive" else converted >= 0):
        raise error(f"{name} must be {bound}, got {converted!r}")
    return converted


def real_array(name: str, value) -> np.ndarray:
    """value as a float array, each entry a number as number() reads it, finite or not; a
    complex entry, whose imaginary part np.asarray(value, dtype=float) would drop, raises
    ValidationError naming name."""
    try:
        return _floats(value)
    except ValueError as exc:
        raise ValidationError(f"{name}: {exc}") from None


def read_given(cls, given: dict, error: type[Exception], where: str = "") -> dict:
    """The float, int and np.ndarray fields of the dataclass cls that given names, in field
    order, each read by read_field with its annotation and declared bound; where prefixes names."""
    return {
        f.name: read_field(where + f.name, f.type, given[f.name], error, f.metadata.get("bound"))
        for f in fields(cls)
        if f.type in _FIELD_TYPES and f.name in given
    }


def read_fields(obj, error: type[Exception], where: str = "") -> None:
    """read_given, in place, over the fields of the dataclass instance obj."""
    for name, value in read_given(type(obj), vars(obj), error, where).items():
        object.__setattr__(obj, name, value)


def check_object(where: str, given, cls, extra: tuple[str, ...] = (), partial: bool = False) -> dict:
    """A copy of the JSON object given, which names only fields of cls or extra.

    Unless partial, it must also name every field of cls without a default.
    A violation raises ConfigParseError naming where and the fields.
    """
    if not isinstance(given, dict):
        raise ConfigParseError(f"{where} must be a JSON object, got {given!r}")
    declared = fields(cls)
    unknown = sorted(set(given) - {f.name for f in declared} - set(extra))
    if unknown:
        raise ConfigParseError(f"unknown {where} fields: {', '.join(unknown)}")
    required = [f.name for f in declared if f.default is MISSING and f.default_factory is MISSING]
    missing = [name for name in required if name not in given]
    if missing and not partial:
        raise ConfigParseError(f"{where} is missing field(s): {', '.join(missing)}")
    return dict(given)


# the 8-point Gauss-Legendre rule on [-1, 1], written out with the bits of
# numpy.polynomial.legendre.leggauss(8): a cell average imports nothing from
# numpy.polynomial and makes no LAPACK eigen-solve
_GL_NODES = np.array(
    [
        -0.9602898564975362,
        -0.7966664774136267,
        -0.525532409916329,
        -0.18343464249564978,
        0.18343464249564978,
        0.525532409916329,
        0.7966664774136267,
        0.9602898564975362,
    ]
)
_GL_WEIGHTS = np.array(
    [
        0.10122853629037706,
        0.22238103445337443,
        0.3137066458778869,
        0.36268378337836166,
        0.36268378337836166,
        0.3137066458778869,
        0.22238103445337443,
        0.10122853629037706,
    ]
)
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


_MEAN_TOL = 1e-14
# ends the splitting, at 2**6 pieces a cell, where V jumps between its
# breakpoints or its roundoff exceeds _MEAN_TOL (far exp tails)
_MAX_HALVINGS = 6
_MEAN_BLOCK = 1024


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")


@dataclass(frozen=True, eq=False)
class Zero(Potential):
    """The free line, V = 0."""

    mirror_symmetric = True

    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0

    @property
    def lower_bound(self):
        return 0.0

    def tolerance_radius(self, tol):
        return 0.0


@dataclass(frozen=True, eq=False)
class SquareBarrier(Potential):
    """V = height on [center - half_width, center + half_width], else 0."""

    height: float
    half_width: float = field(metadata=POSITIVE)
    center: float = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x - self.center) <= self.half_width
        out = np.where(inside, self.height, 0.0)
        return out if out.ndim else float(out)

    @property
    def lower_bound(self):
        return min(0.0, self.height)

    @property
    def mirror_symmetric(self):
        return self.center == 0

    def tolerance_radius(self, tol):
        if abs(self.height) <= tol:
            return 0.0
        return abs(self.center) + self.half_width

    def breakpoints(self):
        return (self.center - self.half_width, self.center + self.half_width)


@dataclass(frozen=True, eq=False)
class PoschlTeller(Potential):
    """V(x) = -nu(nu+1) sech^2(x), the classic reflectionless family."""

    nu: int = field(metadata=POSITIVE)
    exact_support = False
    mirror_symmetric = True

    @property
    def depth(self) -> float:
        return float(self.nu * (self.nu + 1))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = -self.depth / np.cosh(x) ** 2
        return out if out.ndim else float(out)

    @property
    def lower_bound(self):
        return -self.depth

    def tolerance_radius(self, tol):
        if tol >= self.depth:
            return 0.0
        # solve nu(nu+1) sech^2(X) = tol; monotone tail
        return float(np.arccosh(math.sqrt(self.depth / tol)))


@dataclass(frozen=True, eq=False)
class GaussianBump(Potential):
    """V(x) = amplitude * exp(-(x - center)^2 / (2 sigma^2))."""

    amplitude: float
    sigma: float = field(metadata=POSITIVE)
    center: float = 0.0

    @property
    def exact_support(self):
        return self.amplitude == 0

    @property
    def mirror_symmetric(self):
        return self.center == 0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = self.amplitude * np.exp(-((x - self.center) ** 2) / (2 * self.sigma**2))
        return out if out.ndim else float(out)

    @property
    def lower_bound(self):
        return min(0.0, self.amplitude)

    def tolerance_radius(self, tol):
        if abs(self.amplitude) <= tol:
            return 0.0
        return abs(self.center) + self.sigma * math.sqrt(2 * math.log(abs(self.amplitude) / tol))


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
    def lower_bound(self):
        return min(self.left_value, self.right_value)

    def tail_value(self, side):
        _check_side(side)
        return self.left_value if side == "left" else self.right_value

    def tolerance_radius(self, tol):
        return 0.0

    def breakpoints(self):
        return (0.0,)


@dataclass(frozen=True, eq=False)
class Sampled(Potential):
    """Linear interpolation through (xs, vs) nodes, constant tails outside.

    Not mirror_symmetric even for a symmetric table: np.interp does not give
    value(-x) == value(x) bit for bit.
    """

    xs: np.ndarray
    vs: np.ndarray
    tail_left: float = 0.0
    tail_right: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.xs.ndim != 1 or self.xs.shape != self.vs.shape:
            raise InvalidPotential("xs and vs must be 1D and of equal length")
        if len(self.xs) < 2 or not np.all(np.diff(self.xs) > 0):
            raise InvalidPotential("xs must be at least two strictly increasing nodes")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.vs, left=self.tail_left, right=self.tail_right)
        return out if out.ndim else float(out)

    @property
    def lower_bound(self):
        return float(min(self.vs.min(), self.tail_left, self.tail_right))

    def tail_value(self, side):
        _check_side(side)
        return self.tail_left if side == "left" else self.tail_right

    def tolerance_radius(self, tol):
        return float(max(abs(self.xs[0]), abs(self.xs[-1])))

    def breakpoints(self):
        return tuple(float(x) for x in self.xs)


@dataclass(frozen=True, eq=False)
class Truncated(Potential):
    """A wrapped potential forced to its zero tails outside [-radius, radius].

    Only meaningful for inner potentials whose tails are zero; used to hand a
    decaying potential to methods that need exact compact support.
    """

    inner: Potential
    radius: float = field(metadata=POSITIVE)

    def __post_init__(self):
        super().__post_init__()
        if not self.inner.zero_tails:
            raise InvalidPotential("inner: truncation requires zero tails")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) <= self.radius, self.inner.value(x), 0.0)
        return out if out.ndim else float(out)

    @property
    def lower_bound(self):
        return min(0.0, self.inner.lower_bound)

    @property
    def mirror_symmetric(self):
        return self.inner.mirror_symmetric

    def tolerance_radius(self, tol):
        return min(self.radius, self.inner.tolerance_radius(tol))

    def breakpoints(self):
        inner = tuple(b for b in self.inner.breakpoints() if abs(b) < self.radius)
        return tuple(sorted(inner + (-self.radius, self.radius)))


def effective_support(p: Potential, tol: float) -> float:
    """Smallest X such that |V(x) - tail| <= tol for all |x| >= X.

    Computed analytically per variant, and finite for every library variant
    at every tol > 0.  Raises UnboundedTail when a subclass's tolerance_radius
    returns an infinite radius.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    radius = p.tolerance_radius(tol)
    if not math.isfinite(radius):
        raise UnboundedTail(f"no finite truncation radius at tol={tol}")
    return radius


def truncated(p: Potential, tol: float) -> Potential:
    """Return p with its tails cut to exactly zero outside effective_support(p, tol).

    Potentials that already have exact compact support are returned unchanged.
    """
    if not 0.0 < tol < math.inf:
        raise InvalidPotential(f"truncate_tol must be positive and finite, got {tol!r}")
    if p.exact_support:
        return p
    return Truncated(inner=p, radius=effective_support(p, tol))


_KINDS = {
    "zero": Zero,
    "square_barrier": SquareBarrier,
    "poschl_teller": PoschlTeller,
    "gaussian": GaussianBump,
    "step": Step,
    "sampled": Sampled,
}


def _read_samples(path, base_dir: Path) -> dict:
    """The xs and vs fields of a sampled potential, from a two-column (x, V) CSV file."""
    path = Path(path)
    if not path.is_absolute():
        path = base_dir / path
    try:
        data = np.loadtxt(path, delimiter=",", dtype=float)
    except (OSError, ValueError) as exc:
        raise ConfigParseError(f"cannot read sampled CSV {path}: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigParseError(f"sampled CSV {path} must have two columns (x, V)")
    return {"xs": data[:, 0], "vs": data[:, 1]}


def potential_from_config(cfg: dict, base_dir: str | Path = ".") -> Potential:
    """Build a Potential from its JSON-style description.

    The "kind" field selects the variant; the remaining fields go to its
    dataclass by name, so every default is the dataclass's own, and an
    unknown or missing field is refused by name.  A sampled potential may name
    a two-column "csv" file (relative to base_dir) in place of xs and vs.  An
    optional "truncate_tol" wraps the result so that it has exact compact
    support.
    """
    if not isinstance(cfg, dict):
        raise ConfigParseError("potential config must be a JSON object")
    given = dict(cfg)
    kind = given.pop("kind", None)
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigParseError(f"potential kind must be one of {', '.join(sorted(_KINDS))}; got {kind!r}")
    tol = given.pop("truncate_tol", None)
    if cls is Sampled and "csv" in given:
        inline = [name for name in ("xs", "vs") if name in given]
        if inline:
            raise ConfigParseError(f"sampled potential gives both csv and {'/'.join(inline)}; give one")
        given.update(_read_samples(given.pop("csv"), Path(base_dir)))
    p = cls(**check_object(f"{kind} potential", given, cls))
    if tol is None:
        return p
    return truncated(p, read_field("truncate_tol", "float", tol, ConfigParseError))


def potential_from_json(text: str, base_dir: str | Path = ".") -> Potential:
    """Parse a JSON string into a Potential."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid potential JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return potential_from_config(cfg, base_dir)
