import json
import math

import numpy as np
import pytest

from weylscatter import ConfigParseError
from weylscatter.cli import load_config, main, render_csv


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


def test_wavepacket_trace_file(tmp_path):
    trace = tmp_path / "trace.csv"
    cfg = write_config(
        tmp_path,
        "wp.json",
        {
            "potential": {"kind": "zero"},
            "packet": {"k0": 2.0, "sigma_x": 4.0, "x0": -40.0, "half_length": 140.0,
                       "n_points": 1024, "dt": 0.01, "t_max": 100.0,
                       "trace_stride": 1, "trace_path": str(trace)},
        },
    )
    assert main(["wavepacket", "--config", str(cfg), "--out", str(tmp_path / "wp.csv")]) == 0
    header, rows = parse_csv(trace)
    assert header == ["t", "left_mass", "right_mass", "interaction_mass"]
    assert len(rows) >= 2


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
    text = render_csv(["a", "b", "c"], [{"a": 0.1, "b": True, "c": 3}])
    assert text == "a,b,c\n0.10000000000000001,true,3\n"


def test_stdout_output(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "m.json", {"potential": {"kind": "zero"}, "lambda_grid": [4.0]}
    )
    assert main(["mfunction", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lambda,side,m_re,m_im,err\n")
