import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from weylscatter import (
    ConfigParseError,
    GaussianBump,
    InvalidPotential,
    PoschlTeller,
    Potential,
    Sampled,
    SquareBarrier,
    Step,
    Truncated,
    UnboundedTail,
    Zero,
    effective_support,
    potential_from_config,
    potential_from_json,
    sweep,
    truncated,
)
from weylscatter.potential import integral, number

LIBRARY = [
    Zero(),
    SquareBarrier(height=2.0, half_width=0.5),
    SquareBarrier(height=-3.0, half_width=1.0, center=0.7),
    PoschlTeller(nu=1),
    PoschlTeller(nu=2),
    GaussianBump(amplitude=1.5, sigma=0.8, center=-0.3),
    Step(left_value=0.0, right_value=1.0),
    Sampled(xs=[-2.0, -1.0, 0.5, 2.0], vs=[0.0, 1.0, -0.5, 0.0]),
]


def test_evaluate_zero():
    assert Zero().value(3.7) == 0.0


def test_evaluate_barrier_inside():
    assert SquareBarrier(height=2.0, half_width=0.5).value(0.25) == 2.0
    assert SquareBarrier(height=2.0, half_width=0.5).value(0.75) == 0.0


def test_evaluate_poschl_teller_at_origin():
    assert PoschlTeller(nu=1).value(0.0) == -2.0


def test_evaluate_deterministic_and_array_consistent():
    xs = np.linspace(-5, 5, 101)
    for p in LIBRARY:
        a = p.value(xs)
        b = p.value(xs)
        assert np.array_equal(a, b)
        scalar = np.array([p.value(float(x)) for x in xs])
        assert np.array_equal(np.asarray(a, dtype=float), scalar)
        # cell averages: one array call equals one call per cell, b <= a included
        lo, hi = xs[:-1], xs[:-1] + np.linspace(-0.2, 3.0, xs.size - 1)
        means = p.mean_value(lo, hi)
        scalar = [p.mean_value(float(a), float(b)) for a, b in zip(lo, hi)]
        assert all(isinstance(m, float) for m in scalar)
        assert np.array_equal(means, scalar), type(p).__name__


def test_lower_bound_holds_on_quasirandom_points():
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    frac = np.mod(np.arange(1, 100_001) * phi, 1.0)
    xs = -100.0 + 200.0 * frac
    for p in LIBRARY:
        values = np.asarray(p.value(xs), dtype=float)
        assert np.all(values >= p.lower_bound - 1e-15), type(p).__name__


def test_effective_support_trivial():
    assert effective_support(Zero(), 1e-12) == 0.0
    assert effective_support(SquareBarrier(height=2.0, half_width=0.5), 1e-12) == 0.5
    assert effective_support(Step(0.0, 1.0), 1e-12) == 0.0


def test_effective_support_poschl_teller_derived():
    # independent oracle: bisect 2 sech^2(X) = 1e-10 on the monotone tail
    tol = 1e-10
    f = lambda x: 2.0 / math.cosh(x) ** 2 - tol
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    x_ref = 0.5 * (lo + hi)
    assert x_ref == pytest.approx(12.552646235797646, abs=1e-9)
    got = effective_support(PoschlTeller(nu=1), tol)
    assert got == pytest.approx(x_ref, rel=1e-12)
    # tail is monotone beyond the returned radius
    xs = np.linspace(got, got + 20, 200)
    vals = np.abs(PoschlTeller(nu=1).value(xs))
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals <= tol * (1 + 1e-12))


def test_effective_support_monotone_in_tol():
    ladder = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    for p in LIBRARY:
        radii = [effective_support(p, t) for t in ladder]
        assert all(b >= a - 1e-15 for a, b in zip(radii, radii[1:]))


def test_effective_support_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        effective_support(Zero(), 0.0)


def test_validate_zero():
    p = Zero()
    assert p.lower_bound == 0.0
    assert p.exact_support


def test_validate_poschl_teller_nu2():
    p = PoschlTeller(nu=2)
    assert p.lower_bound == -6.0


def test_validate_decaying_tail_class():
    assert not PoschlTeller(nu=1).exact_support
    assert truncated(PoschlTeller(nu=1), 1e-12).exact_support


def test_exact_support_of_every_variant():
    # True where V equals its tails outside a finite radius; the decaying
    # variants have it only when truncated or of zero amplitude
    expected = [True, True, True, False, False, False, True, True]
    assert [p.exact_support for p in LIBRARY] == expected
    assert GaussianBump(amplitude=0.0, sigma=1.0).exact_support
    assert Truncated(inner=PoschlTeller(nu=1), radius=20.0).exact_support


def test_validate_rejects_degenerate_sampled():
    with pytest.raises(InvalidPotential):
        Sampled(xs=[0.0, 0.0], vs=[1.0, 1.0])


def test_validate_rejects_bad_nu():
    with pytest.raises(InvalidPotential):
        PoschlTeller(nu=0)


INVALID = [
    (SquareBarrier, {"height": math.nan, "half_width": 0.5}, "height"),
    (SquareBarrier, {"height": 2.0, "half_width": 0.5, "center": math.inf}, "center"),
    (SquareBarrier, {"height": 2.0, "half_width": 0.0}, "half_width"),
    (PoschlTeller, {"nu": 2.7}, "nu"),
    (PoschlTeller, {"nu": "2"}, "nu"),
    (GaussianBump, {"amplitude": 1.0, "sigma": -math.inf}, "sigma"),
    (GaussianBump, {"amplitude": 1.0, "sigma": 0.0}, "sigma"),
    (Step, {"left_value": 0.0, "right_value": math.nan}, "right_value"),
    (Sampled, {"xs": [-1.0, 0.0, 1.0], "vs": [0.0, math.nan, 0.0]}, "vs"),
    (Sampled, {"xs": [-1.0, 0.0, 1.0], "vs": [0.0, 1.0]}, "xs and vs"),
    (Sampled, {"xs": [-1.0, 1.0], "vs": [0.0, 0.0], "tail_right": math.inf}, "tail_right"),
    (Sampled, {"xs": [1.0, -1.0], "vs": [0.0, 0.0]}, "xs"),
    (Truncated, {"inner": PoschlTeller(nu=1), "radius": math.nan}, "radius"),
    (Truncated, {"inner": PoschlTeller(nu=1), "radius": 0.0}, "radius"),
    (Truncated, {"inner": Step(0.0, 1.0), "radius": 1.0}, "inner"),
]


@pytest.mark.parametrize(
    "cls, fields, name", INVALID, ids=[f"{cls.__name__}-{name}" for cls, _, name in INVALID]
)
def test_construction_refuses_invalid_fields(cls, fields, name):
    with pytest.raises(InvalidPotential, match=name):
        cls(**fields)


def test_construction_converts_fields():
    assert PoschlTeller(nu=2.0).nu == 2 and isinstance(PoschlTeller(nu=2.0).nu, int)
    barrier = SquareBarrier(height=2, half_width=1)
    assert isinstance(barrier.height, float) and isinstance(barrier.center, float)
    assert Sampled(xs=[0, 1], vs=[2, 3]).xs.dtype == np.float64


def test_sampled_interpolation_and_tails():
    p = Sampled(xs=[-1.0, 1.0], vs=[0.0, 2.0], tail_left=0.0, tail_right=2.0)
    assert p.value(0.0) == 1.0
    assert p.value(-5.0) == 0.0
    assert p.value(5.0) == 2.0
    assert p.tail_value("left") == 0.0
    assert p.tail_value("right") == 2.0


def test_step_tail_values():
    p = Step(left_value=-1.0, right_value=3.0)
    assert p.tail_value("left") == -1.0
    assert p.tail_value("right") == 3.0
    assert p.value(-0.1) == -1.0
    assert p.value(0.0) == 3.0


def test_truncated_clips_tails():
    p = truncated(PoschlTeller(nu=1), 1e-12)
    assert isinstance(p, Truncated)
    r = p.radius
    assert p.value(r + 1e-9) == 0.0
    assert p.value(r - 1e-9) != 0.0
    assert p.exact_support


def test_truncated_noop_for_compact_support():
    b = SquareBarrier(height=2.0, half_width=0.5)
    assert truncated(b, 1e-12) is b


def test_mean_value_barrier_exact():
    p = SquareBarrier(height=2.0, half_width=0.5)
    # cell straddling the right edge: overlap [0.4, 0.5] out of [0.4, 0.6]
    assert p.mean_value(0.4, 0.6) == pytest.approx(2.0 * 0.1 / 0.2)
    assert p.mean_value(-0.1, 0.1) == pytest.approx(2.0)
    assert p.mean_value(0.7, 0.9) == 0.0


def test_mean_value_against_riemann_sum():
    # trapezoid reference carries O(dx * jump) error at discontinuities, hence
    # the loose tolerance; exactness at jumps is covered by the barrier test
    for p in LIBRARY:
        for a, b in [(-1.3, 0.7), (0.2, 0.4), (-4.0, 4.0)]:
            xs = np.linspace(a, b, 20001)
            riemann = float(np.trapezoid(np.asarray(p.value(xs), dtype=float), xs)) / (b - a)
            assert p.mean_value(a, b) == pytest.approx(riemann, abs=3e-4), type(p).__name__


def test_mean_value_matches_closed_forms():
    # references from the antiderivatives tanh and erf
    rng = np.random.default_rng(5)
    bump = GaussianBump(amplitude=1.5, sigma=0.8, center=-0.3)
    scale = bump.sigma * math.sqrt(2.0)
    erf = np.vectorize(math.erf)
    for width in np.geomspace(0.01, 30.0, 9):
        a = rng.uniform(-15.0, 15.0, 50)
        b = a + width
        for nu in (1, 2):
            pt = PoschlTeller(nu=nu)
            ref = -nu * (nu + 1) * (np.tanh(b) - np.tanh(a)) / (b - a)
            assert np.max(np.abs(pt.mean_value(a, b) - ref)) <= 1e-12, (nu, width)
        anti = bump.amplitude * bump.sigma * math.sqrt(math.pi / 2.0)
        ref = anti * (erf((b - bump.center) / scale) - erf((a - bump.center) / scale)) / (b - a)
        assert np.max(np.abs(bump.mean_value(a, b) - ref)) <= 1e-12, width


def test_gauss_legendre_constants():
    # the bits of numpy's rule, and exact on polynomials of degree 15 up to
    # the rule's own error: summed in exact rational arithmetic, these nodes
    # and weights miss the integral of x^2 by 1.15e-15
    from weylscatter.potential import _GL_NODES as nodes, _GL_WEIGHTS as weights

    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()
    for k in range(16):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(np.sum(weights * nodes**k)) - exact) <= 2e-15, k


def test_mean_value_many_breakpoints_small_memory():
    xs = np.linspace(-200.0, 200.0, 2000)
    p = Sampled(xs=xs, vs=np.sin(xs))
    dx = 600.0 / 16384
    cells = -300.0 + dx * np.arange(16384)
    tracemalloc.start()
    try:
        means = p.mean_value(cells, cells + dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a cells x breakpoints table would take about 250 MiB
    assert peak < 64 * 2**20
    # exact on the piecewise linear variant: the cells tile the support
    assert float(np.sum(means) * dx) == pytest.approx(float(np.trapezoid(p.vs, xs)), abs=1e-12)


def test_config_square_barrier():
    cfg = {"kind": "square_barrier", "height": 2.0, "half_width": 0.5, "center": 0.0}
    p = potential_from_config(cfg)
    assert isinstance(p, SquareBarrier)
    assert p.value(0.0) == 2.0


def test_config_truncate_tol_wraps():
    p = potential_from_config({"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12})
    assert isinstance(p, Truncated)


def test_config_unknown_kind():
    with pytest.raises(ConfigParseError):
        potential_from_config({"kind": "morse"})


def test_config_missing_kind_and_fields():
    with pytest.raises(ConfigParseError):
        potential_from_config({})
    with pytest.raises(ConfigParseError, match="half_width"):
        potential_from_config({"kind": "square_barrier", "height": 1.0})
    with pytest.raises(ConfigParseError, match="unknown.*centre"):
        potential_from_config({"kind": "square_barrier", "height": 1.0, "half_width": 0.5, "centre": 3.0})


def test_config_sampled_csv(tmp_path):
    csv = tmp_path / "v.csv"
    csv.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    p = potential_from_config(
        {"kind": "sampled", "csv": "v.csv", "tail_left": 0.0, "tail_right": 0.0},
        base_dir=tmp_path,
    )
    assert p.value(0.0) == 1.0
    assert p.value(0.5) == 0.5
    # inline samples next to a csv used to be dropped silently
    for inline in ({"xs": [-1.0, 0.0, 1.0], "vs": [0.0, 5.0, 0.0]}, {"vs": [0.0, 5.0, 0.0]}):
        with pytest.raises(ConfigParseError, match="both csv and .*vs"):
            potential_from_config({"kind": "sampled", "csv": "v.csv", **inline}, base_dir=tmp_path)


def test_config_sampled_csv_missing_file(tmp_path):
    with pytest.raises(ConfigParseError):
        potential_from_config({"kind": "sampled", "csv": "nope.csv"}, base_dir=tmp_path)


def test_config_json_text_roundtrip():
    text = json.dumps({"kind": "gaussian", "amplitude": 1.0, "sigma": 2.0})
    p = potential_from_json(text)
    assert isinstance(p, GaussianBump)
    with pytest.raises(ConfigParseError):
        potential_from_json("{not json")


@dataclass(frozen=True, eq=False)
class _EndlessTail(Potential):
    """A potential that claims no finite truncation radius at any tolerance."""

    def value(self, x):
        raise AssertionError("V evaluated")

    @property
    def lower_bound(self):
        return 0.0

    def tolerance_radius(self, tol):
        return math.inf


def test_unbounded_tail_is_refused():
    with pytest.raises(UnboundedTail):
        effective_support(_EndlessTail(), 1e-6)
    # every attempt pass evaluates V, so value() raising AssertionError would
    # show a pass made before the refusal
    with pytest.raises(UnboundedTail):
        sweep(_EndlessTail(), [1.0, 2.0])


def test_reader_refuses_bools_and_strings():
    for value in (True, "2.0", None):
        with pytest.raises(InvalidPotential, match="height"):
            SquareBarrier(height=value, half_width=0.5)
    with pytest.raises(InvalidPotential, match="nu"):
        PoschlTeller(nu=True)
    with pytest.raises(InvalidPotential, match="vs"):
        Sampled(xs=[-1.0, 0.0, 1.0], vs=[0.0, True, 0.0])
    assert number(np.float32(0.5)) == 0.5 and integral(np.int64(3)) == 3
