"""Batch front door: parse a JSON run configuration, sweep, emit CSV or JSON.

Invocation:

    weyl-scatter <command> --config run.json [--out path] [--format csv|json] [--seed N]

Commands: mfunction, scatter, reflect, wavepacket, verify, scan.  Exit status
0 on success, 2 on validation/configuration errors and on an output or trace
path that cannot be written, 3 on numerical failures propagated from the
computation modules.  CSV output uses a mandatory header row and 17
significant digits so doubles round-trip losslessly; identical config and
seed produce byte-identical artifacts.

The config is read by potential.py's one field reader: check_object refuses
unknown and missing fields by the fields of RunConfig (the top level),
Output, GridSpan, SolverOptions and PacketSpec, and read_fields converts
each number by its field's annotation, so true or "2.0" is no number.
A packet is planned by dynamics.plan_packet when wavepacket or verify runs;
auto_packet reads only the trace fields beside it.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import PacketSpec, band_reflection, evolve_packet, incident_band, plan_packet
from .errors import ConfigParseError, ValidationError, WeylScatterError
from .lattice import lattice_model_from_potential, resolvent_difference_check
from .oracle import transfer_reflection_grid
from .potential import Potential, check_object, effective_support, potential_from_config, read_field, read_fields
from .scattering import (
    DEFAULT_SUPPORT_THRESHOLD,
    green00,
    modulus,
    scattering_matrix,
    spectral_reflection,
    reflectionless_scan,
)
from .weyl import MValue, SolverOptions, sweep

# a {min, max, count} grid is refused above this many energies before any
# allocation; every command holds several float64 columns per energy
MAX_GRID_COUNT = 100_000
# packet fields that auto_packet reads next to PacketSpec's own
TRACE_FIELDS = ("trace_stride", "trace_path")


def _check_writable(name: str, path) -> None:
    """Refuse an output path whose file cannot be created, before any computation runs."""
    if path is not None and not isinstance(path, str):
        raise ConfigParseError(f"{name} must be a string, got {path!r}")
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        raise ConfigParseError(f"cannot write {path}: it is a directory")
    if not target.parent.is_dir():
        raise ConfigParseError(f"cannot write {path}: no directory {target.parent}")


def _write_artifact(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigParseError(f"cannot write {path}: {exc.strerror or exc}") from None


@dataclass(frozen=True)
class Output:
    """The config's "output" object: the artifact's path (None for stdout) and format."""

    path: str | None = None
    format: str = "csv"

    def __post_init__(self):
        _check_writable("output path", self.path)
        if self.format not in ("csv", "json"):
            raise ConfigParseError(f"output format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class GridSpan:
    """A {min, max, count} lambda_grid: count energies evenly spaced from min to max."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        read_fields(self, ConfigParseError, "lambda_grid ")
        if not (self.min < self.max and 1 <= self.count <= MAX_GRID_COUNT):
            raise ConfigParseError(f"lambda_grid needs min < max and a count from 1 to at most {MAX_GRID_COUNT}")


@dataclass
class RunConfig:
    """The config's top level: each field is a config field, with its one default.

    load_config builds the nested objects; construction reads the numbers.
    """

    potential: Potential
    command: str
    lambda_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.5, 8.0, 16))
    solver: SolverOptions = field(default_factory=SolverOptions)
    s_threshold: float = DEFAULT_SUPPORT_THRESHOLD
    zero_tol: float = 1e-6
    slab_width: float = 0.005
    packet: dict = field(default_factory=dict)
    output: Output = field(default_factory=Output)
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigParseError(f"command must be one of {', '.join(COMMANDS)}; got {self.command!r}")
        read_fields(self, ConfigParseError)
        # a negative threshold admits every energy
        for name in ("s_threshold", "zero_tol", "seed"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigParseError(f"{name} must be >= 0, got {value!r}")
        if not self.slab_width > 0:
            raise ConfigParseError(f"slab_width must be > 0, got {self.slab_width!r}")
        # the numbers are read where the packet is planned (dynamics.plan_packet)
        check_object("packet", self.packet, PacketSpec, extra=TRACE_FIELDS, partial=True)


def _parse_grid(raw) -> np.ndarray:
    if isinstance(raw, dict):
        span = GridSpan(**check_object("lambda_grid", raw, GridSpan))
        return np.linspace(span.min, span.max, span.count)
    if isinstance(raw, list) and raw:
        return np.array([read_field(f"lambda_grid[{i}]", "float", v, ConfigParseError) for i, v in enumerate(raw)])
    raise ConfigParseError("lambda_grid must be a {min, max, count} object or a nonempty list")


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
    raw.update({name: v for name, v in (("command", command), ("seed", seed)) if v is not None})
    given = check_object("config", raw, RunConfig)
    given["potential"] = potential_from_config(given["potential"], base_dir=path.parent)
    if "lambda_grid" in given:
        given["lambda_grid"] = _parse_grid(given["lambda_grid"])
    given["solver"] = SolverOptions(**check_object("solver", given.get("solver", {}), SolverOptions))
    output = check_object("output", given.get("output", {}), Output)
    output.update({name: v for name, v in (("path", out), ("format", fmt)) if v is not None})
    given["output"] = Output(**output)
    return RunConfig(**given)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def render_csv(columns: dict) -> str:
    """columns, {header: column of equal length}, as CSV rows under a header row."""
    lines = [",".join(columns)]
    lines += (",".join(map(_fmt, row)) for row in zip(*columns.values(), strict=True))
    return "\n".join(lines) + "\n"


def render_json(columns: dict) -> str:
    """columns, {header: column of equal length}, as a JSON list of row objects."""
    rows = [dict(zip(columns, row)) for row in zip(*columns.values(), strict=True)]
    # numpy booleans and integers are no JSON types; numpy floats are floats
    return json.dumps(rows, indent=2, default=lambda value: value.item()) + "\n"


def _cmd_mfunction(config: RunConfig):
    grid = config.lambda_grid
    m_l, m_r = sweep(config.potential, grid, config.solver)
    m = np.stack([m_l.m, m_r.m], axis=1).ravel()  # rows left, right at each energy
    return {
        "lambda": np.repeat(grid, 2),
        "side": ["left", "right"] * len(grid),
        "m_re": m.real,
        "m_im": m.imag,
        "err": np.stack([m_l.err_estimate, m_r.err_estimate], axis=1).ravel(),
    }


def _cmd_scatter(config: RunConfig):
    grid = config.lambda_grid
    s = scattering_matrix(*sweep(config.potential, grid, config.solver))
    columns = {"lambda": grid}
    for name in ("s_ll", "s_lr", "s_rl", "s_rr"):
        entry = getattr(s, name)
        columns[f"{name}_re"] = entry.real
        columns[f"{name}_im"] = entry.imag
    columns["unitarity_residual"] = s.unitarity_residual()
    return columns


def _cmd_reflect(config: RunConfig):
    grid = config.lambda_grid
    rec = spectral_reflection(*sweep(config.potential, grid, config.solver), config.s_threshold)
    return {
        "lambda": grid,
        "reflect_prob": rec.reflect_prob,
        "transmit_prob": rec.transmit_prob,
        "in_S_l": rec.in_S_l,
        "in_S_r": rec.in_S_r,
        "err": rec.err_estimate,
    }


def _cmd_scan(config: RunConfig):
    windows = reflectionless_scan(
        config.potential,
        config.lambda_grid,
        config.solver,
        config.s_threshold,
        config.zero_tol,
    )
    return {name: [getattr(w, name) for w in windows] for name in ("lam_min", "lam_max", "max_reflect_prob")}


def auto_packet(p: Potential, overrides: dict) -> tuple[PacketSpec, int, str | None]:
    """The packet dynamics.plan_packet plans for p from overrides, with its trace fields.

    overrides, the config's packet object, may give PacketSpec's fields and the
    TRACE_FIELDS; a trace_path needs a trace_stride >= 1, and the other way round.
    """
    given = check_object("packet", overrides, PacketSpec, extra=TRACE_FIELDS, partial=True)
    trace_stride = read_field("packet field trace_stride", "int", given.pop("trace_stride", 0), ConfigParseError)
    trace_path = given.pop("trace_path", None)
    _check_writable("packet field trace_path", trace_path)
    if trace_stride < 0:
        raise ConfigParseError(f"packet field trace_stride must be >= 0, got {trace_stride}")
    if trace_path is not None and trace_stride < 1:
        raise ConfigParseError("packet field trace_path needs a trace_stride >= 1")
    if not trace_path and trace_stride >= 1:
        raise ConfigParseError("packet field trace_stride needs a trace_path to write to")
    return plan_packet(p, given), trace_stride, trace_path


def _solve_together(config: RunConfig, *energy_sets) -> list[tuple[MValue, MValue]]:
    """The (left, right) boundary m-value columns of each energy set, from one sweep over them all.

    A sweep makes as many attempt passes as its slowest lane needs, each pass
    one DOP853 step of every running lane in a fixed set of numpy calls
    whatever the lane count, and pays per-lane arithmetic while a lane runs
    and, parked, until half its batch is done.  So one sweep over the
    concatenation makes fewer numpy calls than one per set, though not always
    less arithmetic, and every lane comes out as it would alone.  A failure
    reports the first failing energy in the order the sets are given.
    """
    grid = np.concatenate([np.asarray(energies, dtype=float) for energies in energy_sets])
    m_l, m_r = sweep(config.potential, grid, config.solver)
    sizes = [len(energies) for energies in energy_sets]
    return [(m_l[stop - size : stop], m_r[stop - size : stop]) for size, stop in zip(sizes, np.cumsum(sizes))]


def _cmd_wavepacket(config: RunConfig):
    # planned before any m-solve, so a bad packet field fails fast
    spec, trace_stride, trace_path = auto_packet(config.potential, config.packet)
    band = incident_band(spec)
    (band_pair,) = _solve_together(config, band.lams)
    result = evolve_packet(config.potential, spec, trace_stride=trace_stride)
    columns = {
        "left_mass": [result.left_mass],
        "right_mass": [result.right_mass],
        "norm_drift": [result.norm_drift],
        "predicted_reflect": [band_reflection(band, band_pair, config.s_threshold)],
        "t_stop": [result.t_stop],
    }
    if trace_path:
        trace_fields = ("t", "left_mass", "right_mass", "interaction_mass")
        trace = np.reshape(result.trace, (-1, len(trace_fields))).T
        _write_artifact(trace_path, render_csv(dict(zip(trace_fields, trace))))
    return columns


def _verify_row(check: str, detail: str, residual: float, tolerance: float) -> tuple:
    return check, detail, float(residual), float(tolerance), "pass" if residual <= tolerance else "fail"


def _cmd_verify(config: RunConfig):
    """Every route's check; all the m-values it needs come from one sweep.

    Those are the grid, the packet's incident band (for potentials with zero
    tails) and the real energy z_cont of the continuum G00, solved in that
    order.
    """
    for name in TRACE_FIELDS:
        if name in config.packet:
            raise ConfigParseError(f"packet field {name} is for wavepacket; verify writes no packet trace")
    p = config.potential
    grid = config.lambda_grid
    zero_tails = p.tail_value("left") == 0.0 and p.tail_value("right") == 0.0
    band_lams = np.empty(0)
    if zero_tails:
        spec, _, _ = auto_packet(p, config.packet)
        band = incident_band(spec)
        band_lams = band.lams
    z_cont = min(-1.0, p.lower_bound - 1.0)
    grid_pair, band_pair, cont_pair = _solve_together(config, grid, band_lams, [z_cont])

    s = scattering_matrix(*grid_pair)
    rec = spectral_reflection(*grid_pair, config.s_threshold)
    identity_res = np.max(modulus(s.s_ll - rec.r_spectral), where=rec.in_S_l, initial=0.0)
    diag_res = np.max(np.abs(modulus(s.s_ll) - modulus(s.s_rr)))
    rows = [
        _verify_row("s_matrix_identity", "max |s_ll - R_l| over grid", identity_res, 1e-10),
        _verify_row("s_matrix_unitarity", "max |s s* - I| over grid", np.max(s.unitarity_residual()), 1e-8),
        _verify_row("s_matrix_diagonal", "max ||s_ll| - |s_rr|| over grid", diag_res, 1e-10),
    ]

    if zero_tails and np.all(grid > 0):
        ks = np.sqrt(grid)
        oracle = transfer_reflection_grid(p, ks, config.slab_width, config.solver.truncation_tol)
        gap = np.max(np.abs(rec.reflect_prob - oracle.reflect_prob))
        rows.append(_verify_row("spectral_vs_oracle", "max |R^2 - |r|^2| over grid", gap, 1e-6))

    if zero_tails:
        packet = evolve_packet(p, spec)
        predicted = band_reflection(band, band_pair, config.s_threshold)
        rows.append(
            _verify_row(
                "dynamical_vs_spectral",
                "|left_mass - predicted_reflect|",
                abs(packet.left_mass - predicted),
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
    rows.append(
        _verify_row(
            "lattice_rank_one", "max sv2/sv1 bound (Eckart-Young) over 5 random z", sv_worst, 1e-10
        )
    )
    rows.append(
        _verify_row("lattice_coefficient", "max |c - 1/G00| over 5 random z", coeff_worst, 1e-8)
    )
    model = lattice_model_from_potential(p, n, h, complex(z_cont))
    g00_cont = complex(green00(cont_pair[0].m[0], cont_pair[1].m[0]))
    rows.append(
        _verify_row(
            "lattice_continuum_g00",
            f"|discrete - continuum| at z={z_cont:g}",
            abs(resolvent_difference_check(model).g00 - g00_cont),
            1e-2,
        )
    )
    return dict(zip(("check", "detail", "residual", "tolerance", "status"), zip(*rows)))


_COMMANDS = {
    "mfunction": _cmd_mfunction,
    "scatter": _cmd_scatter,
    "reflect": _cmd_reflect,
    "wavepacket": _cmd_wavepacket,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        columns = _COMMANDS[config.command](config)
        if config.output.format == "json":
            payload = render_json(columns)
        else:
            payload = render_csv(columns)
        if config.output.path:
            _write_artifact(config.output.path, payload)
        else:
            sys.stdout.write(payload)
    except ValidationError as exc:
        print(f"{config.command}: validation error: {exc}", file=sys.stderr)
        return 2
    except WeylScatterError as exc:
        print(f"{config.command}: numerical failure in {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
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
