"""Batch front door: parse a JSON run configuration, sweep, emit CSV or JSON.

Invocation:

    weyl-scatter <command> --config run.json [--out path] [--format csv|json] [--seed N]

Commands: mfunction, scatter, reflect, wavepacket, verify, scan.  Exit status
0 on success, 2 on validation/configuration errors, 3 on numerical failures
propagated from the computation modules.  CSV output uses a mandatory header
row and 17 significant digits so doubles round-trip losslessly; identical
config and seed produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import PacketSpec, evolve_packet
from .errors import ConfigParseError, ValidationError, WeylScatterError
from .lattice import lattice_model_from_potential, resolvent_difference_check
from .oracle import transfer_reflection_grid
from .potential import Potential, effective_support, potential_from_config
from .scattering import (
    DEFAULT_SUPPORT_THRESHOLD,
    boundary_pairs,
    scattering_matrix,
    spectral_reflection,
    reflectionless_scan,
)
from .weyl import SolverOptions, sweep

COMMANDS = ("mfunction", "scatter", "reflect", "wavepacket", "verify", "scan")


@dataclass
class RunConfig:
    potential: Potential
    command: str
    lambda_grid: np.ndarray
    solver: SolverOptions
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD
    zero_tol: float = 1e-6
    slab_width: float = 0.005
    packet: dict = field(default_factory=dict)
    output_path: str | None = None
    output_format: str = "csv"
    seed: int = 0


def _default_grid() -> np.ndarray:
    return np.linspace(0.5, 8.0, 16)


def _parse_grid(raw) -> np.ndarray:
    if raw is None:
        return _default_grid()
    if isinstance(raw, dict):
        try:
            lo, hi, count = float(raw["min"]), float(raw["max"]), int(raw["count"])
        except KeyError as exc:
            raise ConfigParseError(f"lambda_grid object needs field {exc}") from None
        if not (lo < hi) or count < 1:
            raise ConfigParseError("lambda_grid needs min < max and count >= 1")
        return np.linspace(lo, hi, count)
    if isinstance(raw, list):
        if not raw:
            raise ConfigParseError("lambda_grid list must be nonempty")
        return np.asarray([float(v) for v in raw])
    raise ConfigParseError("lambda_grid must be a {min,max,count} object or a list")


def load_config(
    path: str | Path,
    command: str | None = None,
    out: str | None = None,
    fmt: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Read and validate a run configuration; CLI arguments override file fields."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{path}: top-level config must be a JSON object")
    if "potential" not in raw:
        raise ConfigParseError(f"{path}: missing required field 'potential'")
    potential = potential_from_config(raw["potential"], base_dir=path.parent)
    cmd = command or raw.get("command")
    if cmd not in COMMANDS:
        raise ConfigParseError(f"command must be one of {', '.join(COMMANDS)}; got {cmd!r}")
    try:
        solver = SolverOptions(**raw.get("solver", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad solver options: {exc}") from exc
    output = raw.get("output", {})
    if not isinstance(output, dict):
        raise ConfigParseError("'output' must be an object with path/format fields")
    out_format = fmt or output.get("format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigParseError(f"output format must be csv or json, got {out_format!r}")
    packet = raw.get("packet", {})
    if not isinstance(packet, dict):
        raise ConfigParseError("'packet' must be an object of PacketSpec overrides")
    try:
        return RunConfig(
            potential=potential,
            command=cmd,
            lambda_grid=_parse_grid(raw.get("lambda_grid")),
            solver=solver,
            s_threshold=float(raw.get("s_threshold", DEFAULT_SUPPORT_THRESHOLD)),
            zero_tol=float(raw.get("zero_tol", 1e-6)),
            slab_width=float(raw.get("slab_width", 0.005)),
            packet=packet,
            output_path=out or output.get("path"),
            output_format=out_format,
            seed=int(seed if seed is not None else raw.get("seed", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"bad config field: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def render_csv(fields: list[str], rows: list[dict]) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_fmt(row[f]) for f in fields))
    return "\n".join(lines) + "\n"


def render_json(fields: list[str], rows: list[dict]) -> str:
    ordered = [{f: row[f] for f in fields} for row in rows]
    return json.dumps(ordered, indent=2) + "\n"


def _cmd_mfunction(config: RunConfig):
    fields = ["lambda", "side", "m_re", "m_im", "err"]
    m_l, m_r, err_l, err_r = sweep(config.potential, config.lambda_grid, config.solver)
    rows = []
    for lam, ml, mr, el, er in zip(config.lambda_grid, m_l, m_r, err_l, err_r):
        for side, m, err in (("left", ml, el), ("right", mr, er)):
            rows.append(
                {
                    "lambda": float(lam),
                    "side": side,
                    "m_re": float(m.real),
                    "m_im": float(m.imag),
                    "err": float(err),
                }
            )
    return fields, rows


def _cmd_scatter(config: RunConfig):
    fields = ["lambda"]
    for name in ("s_ll", "s_lr", "s_rl", "s_rr"):
        fields += [f"{name}_re", f"{name}_im"]
    fields.append("unitarity_residual")
    rows = []
    pairs = boundary_pairs(config.potential, config.lambda_grid, config.solver)
    for lam, (m_l, m_r) in zip(config.lambda_grid, pairs):
        s = scattering_matrix(float(lam), m_l, m_r)
        row = {"lambda": float(lam), "unitarity_residual": s.unitarity_residual()}
        for name in ("s_ll", "s_lr", "s_rl", "s_rr"):
            entry = getattr(s, name)
            row[f"{name}_re"] = entry.real
            row[f"{name}_im"] = entry.imag
        rows.append(row)
    return fields, rows


def _cmd_reflect(config: RunConfig):
    fields = ["lambda", "reflect_prob", "transmit_prob", "in_S_l", "in_S_r", "err"]
    rows = []
    pairs = boundary_pairs(config.potential, config.lambda_grid, config.solver)
    for lam, (m_l, m_r) in zip(config.lambda_grid, pairs):
        rec = spectral_reflection(float(lam), m_l, m_r, config.s_threshold)
        rows.append(
            {
                "lambda": float(lam),
                "reflect_prob": rec.reflect_prob,
                "transmit_prob": rec.transmit_prob,
                "in_S_l": rec.in_S_l,
                "in_S_r": rec.in_S_r,
                "err": rec.err_estimate,
            }
        )
    return fields, rows


def _cmd_scan(config: RunConfig):
    fields = ["lam_min", "lam_max", "max_reflect_prob"]
    windows = reflectionless_scan(
        config.potential,
        config.lambda_grid,
        config.solver,
        config.s_threshold,
        config.zero_tol,
    )
    rows = [
        {
            "lam_min": w.lam_min,
            "lam_max": w.lam_max,
            "max_reflect_prob": w.max_reflect_prob,
        }
        for w in windows
    ]
    return fields, rows


def auto_packet(p: Potential, overrides: dict) -> tuple[PacketSpec, int, str | None]:
    """Fill a PacketSpec from overrides, deriving sensible defaults from the potential."""
    overrides = dict(overrides)

    def number(name, default, kind=float):
        try:
            return kind(overrides.pop(name, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigParseError(f"packet field {name}: {exc}") from None

    def positive(name, value):
        # the defaults below divide by k0 and sigma_x
        if not 0.0 < value < math.inf:
            raise ConfigParseError(f"packet field {name} must be positive and finite, got {value!r}")
        return value

    trace_stride = number("trace_stride", 0, int)
    trace_path = overrides.pop("trace_path", None)
    k0 = positive("k0", number("k0", 1.5))
    sigma = positive("sigma_x", number("sigma_x", max(6.0, 4.0 / k0)))
    support = effective_support(p, 1e-12)
    x0 = number("x0", -(support + 4.0 * sigma + 8.0))
    # the transmitted front must not reach the edge zone before the slow tail
    # clears the interaction region, so leave generous clearance
    half_length = number("half_length", abs(x0) + 100.0)
    k_need = k0 + 4.0 / sigma + 3.0
    n_min = 2.0 * half_length * k_need / math.pi
    n_default = 1024
    while n_default < n_min < math.inf:
        n_default *= 2
    n_points = number("n_points", n_default, int)
    dt = number("dt", 0.01)
    v_slow = max(2.0 * (k0 - 4.0 / sigma), k0)
    t_max = number("t_max", 3.0 * (abs(x0) + half_length) / v_slow)
    if overrides:
        raise ConfigParseError(f"unknown packet fields: {', '.join(sorted(overrides))}")
    spec = PacketSpec(
        x0=x0,
        k0=k0,
        sigma_x=sigma,
        half_length=half_length,
        n_points=n_points,
        dt=dt,
        t_max=t_max,
    )
    return spec, trace_stride, trace_path


def _cmd_wavepacket(config: RunConfig):
    spec, trace_stride, trace_path = auto_packet(config.potential, config.packet)
    result = evolve_packet(
        config.potential,
        spec,
        config.solver,
        config.s_threshold,
        trace_stride=trace_stride,
    )
    fields = ["left_mass", "right_mass", "norm_drift", "predicted_reflect", "t_stop"]
    rows = [
        {
            "left_mass": result.left_mass,
            "right_mass": result.right_mass,
            "norm_drift": result.norm_drift,
            "predicted_reflect": result.predicted_reflect,
            "t_stop": result.t_stop,
        }
    ]
    if trace_path:
        trace_fields = ["t", "left_mass", "right_mass", "interaction_mass"]
        trace_rows = [
            {"t": t, "left_mass": lm, "right_mass": rm, "interaction_mass": im}
            for (t, lm, rm, im) in result.trace
        ]
        Path(trace_path).write_text(render_csv(trace_fields, trace_rows))
    return fields, rows


def _verify_row(check: str, detail: str, residual: float, tolerance: float) -> dict:
    return {
        "check": check,
        "detail": detail,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "status": "pass" if residual <= tolerance else "fail",
    }


def _cmd_verify(config: RunConfig):
    p = config.potential
    grid = config.lambda_grid
    identity_res = 0.0
    unitarity_res = 0.0
    diag_res = 0.0
    spectral = []
    for lam, (m_l, m_r) in zip(grid, boundary_pairs(p, grid, config.solver)):
        s = scattering_matrix(float(lam), m_l, m_r)
        rec = spectral_reflection(float(lam), m_l, m_r, config.s_threshold)
        if rec.in_S_l:
            identity_res = max(identity_res, abs(s.s_ll - rec.r_spectral))
        unitarity_res = max(unitarity_res, s.unitarity_residual())
        diag_res = max(diag_res, abs(abs(s.s_ll) - abs(s.s_rr)))
        spectral.append(rec.reflect_prob)

    rows = [
        _verify_row("s_matrix_identity", "max |s_ll - R_l| over grid", identity_res, 1e-10),
        _verify_row("s_matrix_unitarity", "max |s s* - I| over grid", unitarity_res, 1e-8),
        _verify_row("s_matrix_diagonal", "max ||s_ll| - |s_rr|| over grid", diag_res, 1e-10),
    ]

    zero_tails = p.tail_value("left") == 0.0 and p.tail_value("right") == 0.0
    if zero_tails and np.all(grid > 0):
        ks = np.sqrt(grid)
        oracle = transfer_reflection_grid(p, ks, config.slab_width, config.solver.truncation_tol)
        gap = max(
            abs(rec_reflect - res.reflect_prob)
            for rec_reflect, res in zip(spectral, oracle)
        )
        rows.append(_verify_row("spectral_vs_oracle", "max |R^2 - |r|^2| over grid", gap, 1e-6))

    if zero_tails:
        spec, trace_stride, _ = auto_packet(p, config.packet)
        packet = evolve_packet(p, spec, config.solver, config.s_threshold, trace_stride)
        rows.append(
            _verify_row(
                "dynamical_vs_spectral",
                "|left_mass - predicted_reflect|",
                abs(packet.left_mass - packet.predicted_reflect),
                1e-2,
            )
        )
        rows.append(_verify_row("packet_norm_drift", "norm drift at t_stop", packet.norm_drift, 1e-8))

    rng = np.random.default_rng(config.seed)
    h = 0.05
    # the box must also cover the resolvent decay length at the probe energies,
    # not just the potential support
    box = max(effective_support(p, 1e-6) + 1.0, 8.0)
    n = int(math.ceil(box / h))
    sv_worst = 0.0
    coeff_worst = 0.0
    for _ in range(5):
        z = complex(rng.uniform(-1.0, 3.0), rng.uniform(0.5, 2.5))
        model = lattice_model_from_potential(p, n, h, z)
        report = resolvent_difference_check(model)
        sv_worst = max(sv_worst, report.sv_ratio)
        coeff_worst = max(coeff_worst, report.coeff_resid)
    rows.append(_verify_row("lattice_rank_one", "max sv2/sv1 over 5 random z", sv_worst, 1e-10))
    rows.append(
        _verify_row("lattice_coefficient", "max |c - 1/G00| over 5 random z", coeff_worst, 1e-8)
    )
    z_cont = min(-1.0, p.lower_bound - 1.0)
    model = lattice_model_from_potential(p, n, h, complex(z_cont))
    report = resolvent_difference_check(model, potential=p, opts=config.solver)
    rows.append(
        _verify_row(
            "lattice_continuum_g00",
            f"|discrete - continuum| at z={z_cont:g}",
            report.continuum_resid,
            1e-2,
        )
    )
    fields = ["check", "detail", "residual", "tolerance", "status"]
    return fields, rows


_COMMANDS = {
    "mfunction": _cmd_mfunction,
    "scatter": _cmd_scatter,
    "reflect": _cmd_reflect,
    "wavepacket": _cmd_wavepacket,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        fields, rows = _COMMANDS[config.command](config)
    except ValidationError as exc:
        print(f"{config.command}: validation error: {exc}", file=sys.stderr)
        return 2
    except WeylScatterError as exc:
        print(f"{config.command}: numerical failure in {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if config.output_format == "json":
        payload = render_json(fields, rows)
    else:
        payload = render_csv(fields, rows)
    if config.output_path:
        Path(config.output_path).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="weyl-scatter",
        description="Reflection/transmission sweeps for 1D Schrodinger operators",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output artifact path (default: stdout)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--seed", default=None, type=int)
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.command, args.out, args.format, args.seed)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
