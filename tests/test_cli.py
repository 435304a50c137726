import ast
import inspect
import json
import math
import sys

import numpy as np
import pytest

from weylscatter import ConfigParseError, cli, dynamics
from weylscatter.cli import MAX_GRID_COUNT, load_config, main, render_csv, render_json


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def parse_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return header, rows


BARRIER = {"kind": "square_barrier", "height": 2.0, "half_width": 0.5}

ZERO_SWEEP = {
    "potential": {"kind": "zero"},
    "lambda_grid": {"min": 0.1, "max": 10.0, "count": 50},
    "seed": 7,
}


def test_reflect_zero_sweep(tmp_path):
    cfg = write_config(tmp_path, "zero.json", ZERO_SWEEP)
    out = tmp_path / "out.csv"
    assert main(["reflect", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = parse_csv(out)
    assert header == ["lambda", "reflect_prob", "transmit_prob", "in_S_l", "in_S_r", "err"]
    assert len(rows) == 50
    for row in rows:
        assert float(row["reflect_prob"]) <= 1e-10
        assert row["in_S_l"] == "true"


def test_csv_roundtrip_lossless(tmp_path):
    cfg = write_config(tmp_path, "zero.json", ZERO_SWEEP)
    out = tmp_path / "out.csv"
    main(["mfunction", "--config", str(cfg), "--out", str(out)])
    _, rows = parse_csv(out)
    lam = float(rows[0]["lambda"])
    # 17 significant digits round-trip doubles exactly
    assert lam == 0.1
    for row in rows:
        assert row["side"] in ("left", "right")
        float(row["m_re"]), float(row["m_im"]), float(row["err"])


def test_mfunction_values(tmp_path):
    cfg = write_config(
        tmp_path, "m.json", {"potential": {"kind": "zero"}, "lambda_grid": [4.0]}
    )
    out = tmp_path / "m.csv"
    main(["mfunction", "--config", str(cfg), "--out", str(out)])
    _, rows = parse_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert float(row["m_im"]) == pytest.approx(2.0, abs=1e-12)
        assert float(row["m_re"]) == pytest.approx(0.0, abs=1e-12)


def test_scatter_barrier_matches_closed_form(tmp_path):
    cfg = write_config(
        tmp_path,
        "b.json",
        {
            "potential": {"kind": "square_barrier", "height": 2.0, "half_width": 0.5, "center": 0.0},
            "lambda_grid": [1.0],
        },
    )
    out = tmp_path / "s.csv"
    assert main(["scatter", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    s_ll = complex(float(rows[0]["s_ll_re"]), float(rows[0]["s_ll_im"]))
    assert abs(s_ll) ** 2 == pytest.approx(1.0 - 0.4199743416140261, abs=1e-4)
    assert float(rows[0]["unitarity_residual"]) <= 1e-8


def test_scan_zero_single_window(tmp_path):
    cfg = write_config(tmp_path, "scan.json", ZERO_SWEEP)
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["lam_min"]) == 0.1
    assert float(rows[0]["lam_max"]) == 10.0
    assert float(rows[0]["max_reflect_prob"]) <= 1e-10


def test_wavepacket_free(tmp_path):
    cfg = write_config(
        tmp_path,
        "wp.json",
        {
            "potential": {"kind": "zero"},
            "packet": {"k0": 2.0, "sigma_x": 4.0, "x0": -40.0, "half_length": 140.0,
                       "n_points": 1024, "dt": 0.01, "t_max": 100.0},
        },
    )
    out = tmp_path / "wp.csv"
    assert main(["wavepacket", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["left_mass"]) <= 1e-3
    assert float(rows[0]["right_mass"]) == pytest.approx(1.0, abs=1e-3)
    assert float(rows[0]["norm_drift"]) <= 1e-8


FREE_PACKET = {"k0": 2.0, "sigma_x": 4.0, "x0": -40.0, "half_length": 140.0,
               "n_points": 1024, "dt": 0.01, "t_max": 100.0, "trace_stride": 1}


def test_wavepacket_trace_file(tmp_path):
    trace = tmp_path / "trace.csv"
    cfg = write_config(
        tmp_path,
        "wp.json",
        {"potential": {"kind": "zero"}, "packet": dict(FREE_PACKET, trace_path=str(trace))},
    )
    assert main(["wavepacket", "--config", str(cfg), "--out", str(tmp_path / "wp.csv")]) == 0
    header, rows = parse_csv(trace)
    assert header == ["t", "left_mass", "right_mass", "interaction_mass"]
    assert len(rows) >= 2


@pytest.mark.parametrize(
    "out, trace_path, output, expected",
    [
        ("missing/x.csv", "trace.csv", {}, "cannot write {tmp}/missing/x.csv"),
        (".", "trace.csv", {}, "cannot write {tmp}:"),
        ("out.csv", "missing/x.csv", {}, "cannot write {tmp}/missing/x.csv"),
        ("out.csv", 5, {}, "trace_path must be a string, got 5"),
        (None, "trace.csv", {"path": 5}, "output path must be a string, got 5"),
    ],
    ids=["out-missing-dir", "out-directory", "trace-missing-dir", "trace-not-str", "out-not-str"],
)
def test_unwritable_output_exits_2(out, trace_path, output, expected, tmp_path, capsys, monkeypatch):
    # each used to end in a traceback and exit 1, and the first three then
    # came only after the whole computation; every one is refused before any solve
    _, batches = _record_solves(monkeypatch, refuse=True)
    if isinstance(trace_path, str):
        trace_path = str(tmp_path / trace_path)
    packet = dict(FREE_PACKET, trace_path=trace_path)
    cfg = write_config(
        tmp_path, "wp.json", {"potential": {"kind": "zero"}, "packet": packet, "output": output}
    )
    argv = ["wavepacket", "--config", str(cfg)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and expected.format(tmp=tmp_path) in err, err
    assert batches == [] and not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("field", ["trace_path", "trace_stride"])
def test_verify_refuses_packet_trace_fields(field, tmp_path, monkeypatch, capsys):
    # verify never wrote the trace, and used to drop both fields without a word
    _, batches = _record_solves(monkeypatch, refuse=True)
    packet = {"trace_path": str(tmp_path / "trace.csv"), "trace_stride": 1}
    cfg = write_config(
        tmp_path, "v.json", {"potential": BARRIER, "lambda_grid": [1.0], "packet": {field: packet[field]}}
    )
    out = tmp_path / "v.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and field in err, err
    assert batches == [] and not out.exists() and not (tmp_path / "trace.csv").exists()


def test_verify_truncated_poschl_teller(tmp_path):
    cfg = write_config(
        tmp_path,
        "pt.json",
        {
            "potential": {"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12},
            "lambda_grid": {"min": 0.5, "max": 8.0, "count": 6},
            "seed": 11,
        },
    )
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    checks = {row["check"]: row for row in rows}
    assert {"s_matrix_identity", "s_matrix_unitarity", "spectral_vs_oracle",
            "dynamical_vs_spectral", "lattice_rank_one", "lattice_coefficient"} <= set(checks)
    for name, row in checks.items():
        assert row["status"] == "pass", (name, row)


def test_verify_deterministic_bytes(tmp_path):
    cfg = write_config(
        tmp_path,
        "pt.json",
        {
            "potential": {"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12},
            "lambda_grid": {"min": 0.5, "max": 8.0, "count": 4},
            "seed": 11,
        },
    )
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_wide_support_at_defaults(tmp_path):
    # sigma 5: the lattice has dim 1093, not verify's usual 321-381
    cfg = write_config(
        tmp_path, "g.json", {"potential": {"kind": "gaussian", "amplitude": 1.0, "sigma": 5.0}}
    )
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    assert len(rows) == 9
    for row in rows:
        assert row["status"] == "pass", row


@pytest.mark.parametrize("slab_width", [0.0025, 0.00125])
def test_verify_gaussian_fine_slab_passes_oracle(slab_width, tmp_path):
    # the default grid holds lambda = 1, the top of the bump: a slab midpoint
    # where q = 0 must not cost the oracle its accuracy
    cfg = write_config(
        tmp_path,
        "g.json",
        {"potential": {"kind": "gaussian", "amplitude": 1.0, "sigma": 1.0}, "slab_width": slab_width},
    )
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    row = {r["check"]: r for r in rows}["spectral_vs_oracle"]
    assert float(row["tolerance"]) == 1e-6
    assert row["status"] == "pass", row


SMOOTH_PROBES = {
    "gaussian_1_1": {"kind": "gaussian", "amplitude": 1.0, "sigma": 1.0},
    "gaussian_4_1": {"kind": "gaussian", "amplitude": 4.0, "sigma": 1.0},
    "gaussian_-3_1": {"kind": "gaussian", "amplitude": -3.0, "sigma": 1.0},
    "gaussian_-4_0.5": {"kind": "gaussian", "amplitude": -4.0, "sigma": 0.5, "center": 0.5},
    "gaussian_1_5": {"kind": "gaussian", "amplitude": 1.0, "sigma": 5.0},
    "pt1_truncated": {"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12},
    "pt2_truncated": {"kind": "poschl_teller", "nu": 2, "truncate_tol": 1e-12},
    "pt3_truncated": {"kind": "poschl_teller", "nu": 3, "truncate_tol": 1e-12},
}


@pytest.mark.parametrize("name", sorted(SMOOTH_PROBES))
def test_verify_smooth_potential_longer_step_keeps_margin(name, tmp_path):
    # a smooth V takes a longer packet step by default; the dynamical row
    # must stay 100x under its unchanged 1e-2 bound
    from weylscatter.cli import auto_packet
    from weylscatter.potential import potential_from_config

    potential = SMOOTH_PROBES[name]
    assert auto_packet(potential_from_config(potential), {})[0].dt > 0.01
    cfg = write_config(tmp_path, "v.json", {"potential": potential})
    out = tmp_path / "verify.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {row["check"]: row for row in parse_csv(out)[1]}
    assert float(rows["dynamical_vs_spectral"]["tolerance"]) == 1e-2
    assert float(rows["dynamical_vs_spectral"]["residual"]) <= 1e-4
    assert rows["packet_norm_drift"]["status"] == "pass"


def test_verify_makes_no_eigendecomposition(tmp_path, monkeypatch):
    # the lattice check guards its solve with a closed-form condition bound
    # and inverts by elimination, and the cell-average quadrature rule is a
    # table of constants: from a cold start, verify calls no dense solver
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"verify called {name}")

        return call

    dense = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "inv", "solve", "cond", "lstsq")
    for name in dense:
        monkeypatch.setattr(np.linalg, name, refused(f"np.linalg.{name}"))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refused("leggauss"))
    cfg = write_config(tmp_path, "b.json", {"potential": BARRIER, "lambda_grid": [1.0, 2.0]})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v.csv")]) == 0
    assert calls == []


def test_json_format_mirrors_csv(tmp_path):
    cfg = write_config(tmp_path, "zero.json", ZERO_SWEEP)
    csv_out = tmp_path / "r.csv"
    json_out = tmp_path / "r.json"
    main(["reflect", "--config", str(cfg), "--out", str(csv_out)])
    main(["reflect", "--config", str(cfg), "--out", str(json_out), "--format", "json"])
    header, csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out.read_text())
    assert len(json_rows) == len(csv_rows)
    assert list(json_rows[0].keys()) == header
    for jrow, crow in zip(json_rows, csv_rows):
        assert jrow["lambda"] == float(crow["lambda"])
        assert jrow["in_S_l"] == (crow["in_S_l"] == "true")


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["reflect", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["reflect", "--config", str(missing)]) == 2
    nokind = write_config(tmp_path, "nokind.json", {"potential": {}})
    assert main(["reflect", "--config", str(nokind)]) == 2


@pytest.mark.parametrize(
    "packet, field",
    [
        ({"n_points": 1000}, "n_points"),
        ({"dt": -1}, "dt"),
        ({"dt": math.nan}, "dt"),
        ({"dt": 1e-310}, "dt"),
        ({"k0": math.nan}, "k0"),
        ({"k0": 0}, "k0"),
        ({"t_max": math.inf}, "t_max"),
        ({"sigma_x": math.nan}, "sigma_x"),
        ({"half_length": math.inf}, "half_length"),
        ({"k0": "fast"}, "k0"),
        ({"n_points": "many"}, "n_points"),
        ({"n_points": 4096.7}, "n_points"),
        ({"trace_stride": math.nan}, "trace_stride"),
    ],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v,
)
def test_bad_packet_field_exits_2(packet, field, tmp_path, capsys):
    cfg = write_config(tmp_path, "wp.json", {"potential": {"kind": "zero"}, "packet": packet})
    out = tmp_path / "wp.csv"
    assert main(["wavepacket", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and field in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["mfunction", "scatter", "reflect", "wavepacket", "verify", "scan"])
def test_unknown_packet_field_exits_2(command, tmp_path, capsys):
    # only wavepacket used to refuse it: the other five ran and exited 0
    cfg = write_config(
        tmp_path, "b.json", {"potential": BARRIER, "lambda_grid": [2.0, 3.0], "packet": {"bogus": 1}}
    )
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown packet fields: bogus" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid", ["[NaN]", "[1e400]", "[1.0, -Infinity]", '{"min": 0.5, "max": Infinity, "count": 3}']
)
def test_non_finite_energy_exits_2(grid, tmp_path, capsys):
    # JSON admits NaN and overflowing literals; a NaN energy used to spin the
    # solver for minutes, and an infinite one to fail as a step underflow
    cfg = tmp_path / "grid.json"
    cfg.write_text('{"potential": {"kind": "poschl_teller", "nu": 2}, "lambda_grid": %s}' % grid)
    assert main(["mfunction", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lambda_grid" in err and "finite" in err, err


@pytest.mark.parametrize(
    "solver",
    [
        {"truncation_tol": math.inf},
        {"truncation_tol": math.nan},
        {"rel_ode_tol": math.inf},
        {"rel_ode_tol": math.nan},
        {"abs_ode_tol": math.inf},
        {"abs_ode_tol": -1e-12},
    ],
    ids=lambda v: ",".join(f"{k}={x}" for k, x in v.items()),
)
def test_bad_solver_tolerance_exits_2(solver, tmp_path, capsys):
    # an infinite truncation_tol used to return the free-line m with a tiny
    # err, and a NaN one to end in a traceback
    payload = {"potential": {"kind": "poschl_teller", "nu": 2}, "lambda_grid": [1.0], "solver": solver}
    cfg = write_config(tmp_path, "solver.json", payload)
    assert main(["mfunction", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(solver)) in err, err


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
@pytest.mark.parametrize("kind", ["poschl_teller", "square_barrier"])
def test_bad_truncate_tol_exits_2(kind, tol, tmp_path, capsys):
    # a compactly supported potential ignores truncate_tol but must not accept
    # a bad one; on the others a NaN or negative one used to end in a traceback
    fields = {"nu": 2} if kind == "poschl_teller" else {"height": 2.0, "half_width": 0.5}
    payload = {"potential": {"kind": kind, **fields, "truncate_tol": tol}, "lambda_grid": [1.0]}
    cfg = write_config(tmp_path, "trunc.json", payload)
    assert main(["mfunction", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "truncate_tol" in err, err


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "a"])
@pytest.mark.parametrize(
    "field, command",
    [("s_threshold", "reflect"), ("zero_tol", "scan"), ("slab_width", "verify"), ("seed", "verify")],
)
def test_bad_threshold_exits_2(field, command, value, tmp_path, capsys):
    # a NaN s_threshold used to put every energy off S_l (reflect_prob 1 on
    # the barrier, exit 0), and a NaN zero_tol to find no reflectionless window;
    # a bad slab_width used to fail only after verify's sweep, and a negative
    # or infinite seed to end in a traceback; a number that failed to parse
    # was reported without its field
    payload = {"potential": BARRIER, "lambda_grid": [1.0, 2.0], field: value}
    cfg = write_config(tmp_path, "threshold.json", payload)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, argv, field",
    [
        ({"seed": 2.7}, [], "seed"),
        ({}, ["--seed", "-1"], "seed"),
        ({"lambda_grid": {"min": 1.0, "max": 2.0, "count": 2.5}}, [], "count"),
        ({"lambda_grid": {"min": "a", "max": 2.0, "count": 3}}, [], "lambda_grid min"),
        ({"lambda_grid": {"min": 1.0, "max": [2.0], "count": 3}}, [], "lambda_grid max"),
        ({"lambda_grid": ["x", 1.0]}, [], "lambda_grid[0]"),
        ({"lambda_grid": [1.0, None]}, [], "lambda_grid[1]"),
    ],
    ids=["seed", "--seed", "count", "grid-min", "grid-max", "grid-list-0", "grid-list-1"],
)
def test_non_integral_field_exits_2(fields, argv, field, tmp_path, capsys):
    # int() used to truncate: seed 2.7 ran seed 2, and count 2.5 two energies;
    # a grid number that failed to parse was reported without its field
    payload = {"potential": {"kind": "zero"}, "lambda_grid": [1.0], **fields}
    cfg = write_config(tmp_path, "int.json", payload)
    out = tmp_path / "out.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["wavepacket", "verify"])
def test_packet_above_point_cap_exits_2(command, tmp_path, capsys, monkeypatch):
    # half_length 1e9 used to derive 2**32 points (64 GiB a complex array)
    # and sample V on them; it must be refused before any grid is built
    def no_grid(spec):
        raise AssertionError(f"grid of {spec.n_points} points built")

    monkeypatch.setattr(dynamics, "_grid", no_grid)
    cfg = write_config(tmp_path, "big.json", {"potential": BARRIER, "packet": {"half_length": 1e9}})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and f"from 2 to {dynamics.MAX_PACKET_POINTS}" in err, err
    assert not out.exists()


def test_cli_takes_no_packet_rule_from_dynamics():
    # every packet default and the dt rule live in dynamics.plan_packet; the
    # CLI reads the trace fields and hands the rest over
    names = {
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(cli)))
        if isinstance(node, ast.ImportFrom) and node.level and node.module == "dynamics"
        for alias in node.names
    }
    assert names <= {"PacketSpec", "plan_packet", "incident_band", "band_reflection", "evolve_packet"}, names


@pytest.mark.parametrize("count", [MAX_GRID_COUNT + 1, 10**9])
def test_grid_count_above_ceiling_exits_2(count, tmp_path, capsys, monkeypatch):
    # count 1e9 used to build an 8 GB grid; it must be refused before any allocation
    def no_grid(*args, **kwargs):
        raise AssertionError("grid allocated")

    payload = {"potential": {"kind": "zero"}, "lambda_grid": {"min": 1.0, "max": 2.0, "count": count}}
    cfg = write_config(tmp_path, "big.json", payload)
    with monkeypatch.context() as m:
        m.setattr(np, "linspace", no_grid)
        assert main(["reflect", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"at most {MAX_GRID_COUNT}" in err, err
    payload["lambda_grid"]["count"] = MAX_GRID_COUNT
    loaded = load_config(write_config(tmp_path, "max.json", payload), command="reflect")
    assert loaded.lambda_grid.size == MAX_GRID_COUNT


@pytest.mark.parametrize("grid", [[2.0, 1.0], [1.0, 1.0]])
def test_scan_unordered_grid_exits_2(grid, tmp_path, capsys):
    cfg = write_config(tmp_path, "scan.json", {"potential": {"kind": "zero"}, "lambda_grid": grid})
    assert main(["scan", "--config", str(cfg)]) == 2
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields, typo",
    [
        ({"lamda_grid": [1.0]}, "lamda_grid"),
        ({"output": {"fromat": "json"}}, "fromat"),
        ({"potential": {**BARRIER, "centre": 3.0}}, "centre"),
        ({"solver": {"rel_ode_tol": 1e-10, "rel_tol": 1e-10}}, "rel_tol"),
        ({"lambda_grid": {"min": 1.0, "max": 2.0, "count": 3, "step": 0.5}}, "step"),
    ],
    ids=["top-level", "output", "potential", "solver", "lambda_grid"],
)
def test_unknown_config_field_exits_2(fields, typo, tmp_path, capsys):
    # a misspelt lambda_grid used to run the default grid and exit 0, and a
    # misspelt barrier centre to run the barrier at 0
    cfg = write_config(tmp_path, "typo.json", {"potential": BARRIER, **fields})
    out = tmp_path / "out.csv"
    assert main(["reflect", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown" in err and typo in err, err
    assert not out.exists()


def test_resonant_grid_point_exits_3(tmp_path, capsys):
    # lambda = 0 on the free line: m_l + m_r = 0 exactly, a Green-function pole
    cfg = write_config(
        tmp_path, "res.json", {"potential": {"kind": "zero"}, "lambda_grid": [0.0, 1.0]}
    )
    assert main(["reflect", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "ResonantDenominator" in err


def test_band_edge_grid_point_exits_3(tmp_path, capsys):
    # lambda = 0 is the band edge of the sech^2 well, where m has its pole;
    # truncation to compact support must not turn it into a number
    cfg = write_config(
        tmp_path,
        "edge.json",
        {"potential": {"kind": "poschl_teller", "nu": 1, "truncate_tol": 1e-12}, "lambda_grid": [0.0]},
    )
    out = tmp_path / "m.csv"
    assert main(["mfunction", "--config", str(cfg), "--out", str(out)]) == 3
    assert "SpectralSingularity" in capsys.readouterr().err
    assert not out.exists()


def test_removed_solver_option_exits_2(tmp_path):
    for solver in ({"eps_ladder": [1e-2, 1e-3]}, {"renorm_interval": 16}):
        cfg = write_config(tmp_path, "removed.json", {"potential": {"kind": "zero"}, "solver": solver})
        assert main(["mfunction", "--config", str(cfg)]) == 2, solver


def test_load_config_validation(tmp_path):
    cfg = write_config(tmp_path, "nocmd.json", {"potential": {"kind": "zero"}})
    with pytest.raises(ConfigParseError):
        load_config(cfg)  # no command anywhere
    loaded = load_config(cfg, command="reflect")
    assert loaded.command == "reflect"
    assert math.isclose(loaded.lambda_grid[0], 0.5)
    bad_grid = write_config(
        tmp_path, "grid.json", {"potential": {"kind": "zero"}, "lambda_grid": {"min": 2, "max": 1, "count": 5}}
    )
    with pytest.raises(ConfigParseError):
        load_config(bad_grid, command="reflect")
    bad_fmt = write_config(
        tmp_path, "fmt.json", {"potential": {"kind": "zero"}, "output": {"format": "xml"}}
    )
    with pytest.raises(ConfigParseError):
        load_config(bad_fmt, command="reflect")


def test_render_csv_formats():
    columns = {"a": [0.1], "b": [True], "c": [3], "d": np.array([False]), "e": np.array([0.1])}
    assert render_csv(columns) == "a,b,c,d,e\n0.10000000000000001,true,3,false,0.10000000000000001\n"
    assert json.loads(render_json(columns)) == [{"a": 0.1, "b": True, "c": 3, "d": False, "e": 0.1}]
    for render in (render_csv, render_json):
        with pytest.raises(ValueError):
            render({"a": [0.1, 0.2], "b": [True]})


def test_stdout_output(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "m.json", {"potential": {"kind": "zero"}, "lambda_grid": [4.0]}
    )
    assert main(["mfunction", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda,side,m_re,m_im,err\n")


def _record_solves(monkeypatch, refuse=False):
    """Wrap `sweep` wherever the package holds it, and the batch m-solver under it.

    Returns the energy grids handed to `sweep` and the batches handed to the
    m-solver, one entry per call.  With `refuse`, a sweep raises instead.
    """
    from weylscatter import weyl

    sweeps, batches = [], []
    sweep, m_values = weyl.sweep, weyl._m_values

    def recorded_sweep(p, grid, opts=None):
        if refuse:
            raise AssertionError("m-solve before the packet was validated")
        sweeps.append(np.asarray(grid))
        return sweep(p, grid, opts)

    def recorded_m_values(p, z, sides, opts):
        batches.append(np.asarray(z))
        return m_values(p, z, sides, opts)

    for name, module in list(sys.modules.items()):
        if name == "weylscatter" or name.startswith("weylscatter."):
            for attr, value in list(vars(module).items()):
                if value is sweep:
                    monkeypatch.setattr(module, attr, recorded_sweep)
    monkeypatch.setattr(weyl, "_m_values", recorded_m_values)
    return sweeps, batches


@pytest.mark.parametrize("command", ["verify", "wavepacket"])
def test_one_sweep_per_command(command, tmp_path, monkeypatch):
    sweeps, batches = _record_solves(monkeypatch)
    cfg = write_config(tmp_path, "b.json", {"potential": BARRIER, "lambda_grid": [1.0, 2.0, 3.0]})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    assert len(sweeps) == 1
    assert len(batches) == 1
    if command == "verify":
        # the grid first and z_cont last, the packet's band between them
        energies = sweeps[0]
        assert energies[:3].tolist() == [1.0, 2.0, 3.0] and energies[-1] == -1.0
        assert len(energies) > 4 and np.all(energies[3:-1] > 0.0)


@pytest.mark.parametrize(
    "packet, message",
    [({"k0": -1}, "k0"), ({"x0": 0.0}, "zero-tail region left of the support")],
    ids=["k0", "x0"],
)
def test_verify_bad_packet_exits_2_before_any_m_solve(packet, message, tmp_path, monkeypatch, capsys):
    _, batches = _record_solves(monkeypatch, refuse=True)
    cfg = write_config(
        tmp_path, "b.json", {"potential": BARRIER, "lambda_grid": [1.0, 2.0], "packet": packet}
    )
    out = tmp_path / "v.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and message in err, err
    assert batches == [] and not out.exists()


@pytest.mark.parametrize(
    "potential, field",
    [
        ({"kind": "step", "left_value": 0.0, "right_value": math.nan}, "right_value"),
        ({"kind": "sampled", "xs": [-1.0, 0.0, 1.0], "vs": [0.0, math.nan, 0.0]}, "vs"),
        ({"kind": "gaussian", "amplitude": 1.0, "sigma": math.inf}, "sigma"),
        ({"kind": "poschl_teller", "nu": 2.7}, "nu"),
        ({"kind": "square_barrier", "height": 2.0}, "half_width"),
    ],
    ids=lambda v: v if isinstance(v, str) else v["kind"],
)
def test_bad_potential_field_exits_2_before_any_m_solve(
    potential, field, tmp_path, monkeypatch, capsys
):
    # a NaN sampled value used to spin the solver for minutes, a NaN step to
    # print NaN rows and exit 0, and nu 2.7 to run nu = 2
    _, batches = _record_solves(monkeypatch, refuse=True)
    cfg = write_config(tmp_path, "p.json", {"potential": potential, "lambda_grid": [1.0, 2.0]})
    out = tmp_path / "out.csv"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err, err
    assert batches == [] and not out.exists()


def test_verify_reports_the_grid_failure_before_the_band_failure(tmp_path, monkeypatch, capsys):
    from weylscatter import OdeStepFailure, weyl
    from weylscatter.cli import auto_packet
    from weylscatter.dynamics import incident_band
    from weylscatter.potential import potential_from_config

    spec, _, _ = auto_packet(potential_from_config(BARRIER), {})
    band_lam = float(incident_band(spec).lams[0])
    grid_lam = 2.0
    integrate = weyl._integrate

    def failing(p, z, right, rtol, atol, opts):
        m, failures = integrate(p, z, right, rtol, atol, opts)
        for i, lam in enumerate(z.real.tolist()):
            if lam in (grid_lam, band_lam):
                failures[i] = OdeStepFailure(f"forced at lambda={lam!r}")
        return m, failures

    monkeypatch.setattr(weyl, "_integrate", failing)
    cfg = write_config(tmp_path, "b.json", {"potential": BARRIER, "lambda_grid": [1.0, grid_lam]})
    assert main(["verify", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"forced at lambda={grid_lam!r}" in err, err
    assert repr(band_lam) not in err


@pytest.mark.parametrize(
    "packet, field",
    [
        ({"trace_stride": -1, "trace_path": "trace.csv"}, "trace_stride"),
        ({"trace_path": "trace.csv"}, "trace_path"),
        ({"trace_stride": 1}, "trace_stride"),
        ({"trace_stride": 1, "trace_path": ""}, "trace_stride"),
    ],
    ids=["negative-stride", "path-without-stride", "stride-without-path", "stride-with-empty-path"],
)
def test_trace_fields_must_agree(packet, field, tmp_path, monkeypatch, capsys):
    # the first two used to write a header-only trace and exit 0, the last
    # two to compute a trace that nothing wrote
    _, batches = _record_solves(monkeypatch, refuse=True)
    if packet.get("trace_path"):
        packet = dict(packet, trace_path=str(tmp_path / packet["trace_path"]))
    cfg = write_config(tmp_path, "wp.json", {"potential": {"kind": "zero"}, "packet": packet})
    out = tmp_path / "wp.csv"
    assert main(["wavepacket", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and field in err, err
    assert batches == [] and not out.exists() and not (tmp_path / "trace.csv").exists()


# a valid description of every potential kind, whose fields are set one at a time
KIND_FIELDS = {
    "zero": {},
    "square_barrier": {"height": 2.0, "half_width": 0.5},
    "poschl_teller": {"nu": 2},
    "gaussian": {"amplitude": 1.0, "sigma": 1.0},
    "step": {"left_value": 0.0, "right_value": 1.0},
    "sampled": {"xs": [-1.0, 0.0, 1.0], "vs": [0.0, 1.0, 0.0]},
}


def _schema_cases(value):
    """(id, command, config, field) for each number a config can give, set to value.

    The fields come from the dataclasses the config is read into, so a
    numeric field added to any of them is covered here without an edit.
    """
    from dataclasses import fields

    from weylscatter.cli import GridSpan, RunConfig
    from weylscatter.dynamics import PacketSpec
    from weylscatter.potential import _KINDS
    from weylscatter.weyl import SolverOptions

    def numeric(cls):
        return [f.name for f in fields(cls) if f.type in ("float", "int", "np.ndarray")]

    base = {"potential": BARRIER, "lambda_grid": [1.0, 2.0]}
    grid = {"min": 1.0, "max": 2.0, "count": 3}
    free = {"potential": {"kind": "zero"}}
    cases = [(name, "reflect", {**base, name: value}, name) for name in numeric(RunConfig)]
    cases += [
        (f"lambda_grid.{name}", "reflect", {**base, "lambda_grid": {**grid, name: value}}, name)
        for name in numeric(GridSpan)
    ]
    cases += [
        (f"solver.{name}", "reflect", {**base, "solver": {name: value}}, name)
        for name in numeric(SolverOptions)
    ]
    cases += [
        (f"packet.{name}", "wavepacket", {**free, "packet": {name: value}}, name)
        for name in numeric(PacketSpec) + ["trace_stride"]
    ]
    assert set(_KINDS) == set(KIND_FIELDS)
    for kind, cls in _KINDS.items():
        cases += [
            (f"{kind}.{name}", "reflect", {**base, "potential": {"kind": kind, **KIND_FIELDS[kind], name: value}}, name)
            for name in numeric(cls)
        ]
    pt = {"kind": "poschl_teller", "nu": 2, "truncate_tol": value}
    sampled = {"kind": "sampled", "xs": [-1.0, value, 1.0], "vs": [0.0, 1.0, 0.0]}
    cases += [
        ("truncate_tol", "reflect", {**base, "potential": pt}, "truncate_tol"),
        ("sampled.xs[1]", "reflect", {**base, "potential": sampled}, "xs"),
        ("lambda_grid[1]", "reflect", {**base, "lambda_grid": [1.0, value]}, "lambda_grid[1]"),
    ]
    return cases


SCHEMA_CASES = [
    pytest.param(command, config, field, id=f"{case}={json.dumps(value)}")
    for value in (True, "2.0")
    for case, command, config, field in _schema_cases(value)
]


@pytest.mark.parametrize("command, config, field", SCHEMA_CASES)
def test_non_number_in_numeric_field_exits_2(command, config, field, tmp_path, monkeypatch, capsys):
    # float(True) is 1.0 and float("2.0") is 2.0: a JSON true used to run as
    # 1 (s_threshold true printed reflect_prob 1 for the barrier at lambda = 1,
    # truncate_tol true cut PT nu=2 at tolerance 1), and a numeric string as
    # its number wherever a float was read
    _, batches = _record_solves(monkeypatch, refuse=True)
    cfg = write_config(tmp_path, "schema.json", config)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err, err
    assert batches == [] and not out.exists()
