import json
import math

import numpy as np
import pytest

from weylscatter import (
    ConfigParseError,
    GaussianBump,
    InvalidPotential,
    PoschlTeller,
    Sampled,
    SquareBarrier,
    Step,
    Truncated,
    Zero,
    effective_support,
    evaluate,
    potential_from_config,
    potential_from_json,
    truncated,
    validate,
)

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
    assert evaluate(Zero(), 3.7) == 0.0


def test_evaluate_barrier_inside():
    assert evaluate(SquareBarrier(height=2.0, half_width=0.5), 0.25) == 2.0
    assert evaluate(SquareBarrier(height=2.0, half_width=0.5), 0.75) == 0.0


def test_evaluate_poschl_teller_at_origin():
    assert evaluate(PoschlTeller(nu=1), 0.0) == -2.0


def test_evaluate_deterministic_and_array_consistent():
    xs = np.linspace(-5, 5, 101)
    for p in LIBRARY:
        a = evaluate(p, xs)
        b = evaluate(p, xs)
        assert np.array_equal(a, b)
        scalar = np.array([evaluate(p, float(x)) for x in xs])
        assert np.array_equal(np.asarray(a, dtype=float), scalar)


def test_lower_bound_holds_on_quasirandom_points():
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    frac = np.mod(np.arange(1, 100_001) * phi, 1.0)
    xs = -100.0 + 200.0 * frac
    for p in LIBRARY:
        values = np.asarray(evaluate(p, xs), dtype=float)
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
    vals = np.abs(evaluate(PoschlTeller(nu=1), xs))
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
    report = validate(Zero())
    assert report.lower_bound == 0.0
    assert report.tail_class == "constant"
    assert report.limit_point


def test_validate_poschl_teller_nu2():
    report = validate(PoschlTeller(nu=2))
    assert report.lower_bound == -6.0


def test_validate_decaying_tail_class():
    assert validate(PoschlTeller(nu=1)).tail_class == "decaying"
    assert validate(truncated(PoschlTeller(nu=1), 1e-12)).tail_class == "constant"


def test_validate_rejects_degenerate_sampled():
    with pytest.raises(InvalidPotential):
        validate(Sampled(xs=[0.0, 0.0], vs=[1.0, 1.0]))


def test_validate_rejects_bad_nu():
    with pytest.raises(InvalidPotential):
        validate(PoschlTeller(nu=0))


def test_sampled_interpolation_and_tails():
    p = Sampled(xs=[-1.0, 1.0], vs=[0.0, 2.0], tail_left=0.0, tail_right=2.0)
    assert evaluate(p, 0.0) == 1.0
    assert evaluate(p, -5.0) == 0.0
    assert evaluate(p, 5.0) == 2.0
    assert p.tail_value("left") == 0.0
    assert p.tail_value("right") == 2.0


def test_step_tail_values():
    p = Step(left_value=-1.0, right_value=3.0)
    assert p.tail_value("left") == -1.0
    assert p.tail_value("right") == 3.0
    assert evaluate(p, -0.1) == -1.0
    assert evaluate(p, 0.0) == 3.0


def test_truncated_clips_tails():
    p = truncated(PoschlTeller(nu=1), 1e-12)
    assert isinstance(p, Truncated)
    r = p.support_radius
    assert evaluate(p, r + 1e-9) == 0.0
    assert evaluate(p, r - 1e-9) != 0.0
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
            riemann = float(np.trapezoid(np.asarray(evaluate(p, xs), dtype=float), xs)) / (b - a)
            assert p.mean_value(a, b) == pytest.approx(riemann, abs=3e-4), type(p).__name__


def test_config_square_barrier():
    cfg = {"kind": "square_barrier", "height": 2.0, "half_width": 0.5, "center": 0.0}
    p = potential_from_config(cfg)
    assert isinstance(p, SquareBarrier)
    assert evaluate(p, 0.0) == 2.0


def test_config_truncate_tol_wraps():
    p = potential_from_config({"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12})
    assert isinstance(p, Truncated)


def test_config_unknown_kind():
    with pytest.raises(ConfigParseError):
        potential_from_config({"kind": "morse"})


def test_config_missing_kind_and_fields():
    with pytest.raises(ConfigParseError):
        potential_from_config({})
    with pytest.raises(ConfigParseError):
        potential_from_config({"kind": "square_barrier", "height": 1.0})


def test_config_sampled_csv(tmp_path):
    csv = tmp_path / "v.csv"
    csv.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    p = potential_from_config(
        {"kind": "sampled", "csv": "v.csv", "tail_left": 0.0, "tail_right": 0.0},
        base_dir=tmp_path,
    )
    assert evaluate(p, 0.0) == 1.0
    assert evaluate(p, 0.5) == 0.5


def test_config_sampled_csv_missing_file(tmp_path):
    with pytest.raises(ConfigParseError):
        potential_from_config({"kind": "sampled", "csv": "nope.csv"}, base_dir=tmp_path)


def test_config_json_text_roundtrip():
    text = json.dumps({"kind": "gaussian", "amplitude": 1.0, "sigma": 2.0})
    p = potential_from_json(text)
    assert isinstance(p, GaussianBump)
    with pytest.raises(ConfigParseError):
        potential_from_json("{not json")
