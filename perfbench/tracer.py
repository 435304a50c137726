"""Spans and work counters around weylscatter's public functions.

`Tracer.install()` rebinds the functions in `SPANS`, in every weylscatter
module that holds a reference to them, to wrappers that record a span
(name, start, end, parent).  Hot leaf calls get counters instead of spans:
the closures `Potential.scalar_fn()` returns, `value`/`mean_value`,
`numpy.fft.fft`/`ifft` and the dense `numpy.linalg` calls.  Spans stay in
memory until `uninstall()`; `layer_metrics()` turns one pass of them into the
per-layer metrics, self time being a span's duration minus that of its
children.

Counters internal to the solver (RK rejections, renormalizations, which
boundary path ran) are not reachable from outside the package and are not
recorded here.
"""
from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from weylscatter import cli, dynamics, lattice, oracle, potential, scattering, weyl

MODULES = (potential, weyl, scattering, oracle, dynamics, lattice, cli)

SPANS = {
    weyl: ("boundary_m", "interior_m"),
    scattering: (
        "boundary_pair",
        "green00",
        "scattering_matrix",
        "spectral_reflection",
        "reflectionless_scan",
    ),
    oracle: ("transfer_reflection_grid", "transfer_reflection"),
    dynamics: ("evolve_packet", "predicted_reflection", "momentum_density"),
    lattice: ("resolvent_difference_check", "lattice_model_from_potential", "decoupled_resolvent"),
    cli: ("main", "load_config", "run", "render_csv", "render_json", "auto_packet"),
}
ALGEBRA = {"scattering.green00", "scattering.scattering_matrix", "scattering.spectral_reflection"}
DENSE = ("svd", "cond", "inv", "solve")


class Tracer:
    """Records spans and counters for the passes run while it is installed."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.lattice_dim = 0
        self._scalar = [0]
        self._potential_depth = 0

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        for mod, names in SPANS.items():
            layer = mod.__name__.rsplit(".", 1)[1]
            for fname in names:
                fn = getattr(mod, fname)
                self._rebind(fn, self._spanned(f"{layer}.{fname}", fn))
        prop = dynamics.SplitStepPropagator
        self._set(prop, "__init__", self._spanned("dynamics.SplitStepPropagator", prop.__init__))
        self._set(prop, "step", self._spanned("dynamics.step", prop.step))
        for cls in vars(potential).values():
            if isinstance(cls, type) and issubclass(cls, potential.Potential):
                for attr, make in (
                    ("scalar_fn", self._counted_scalar_fn),
                    ("value", self._counted_value),
                    ("mean_value", self._counted_mean_value),
                ):
                    if attr in cls.__dict__:
                        self._set(cls, attr, make(cls.__dict__[attr]))
        for name in ("fft", "ifft"):
            self._set(np.fft, name, self._tallied("fft", getattr(np.fft, name)))
        for name in DENSE:
            self._set(np.linalg, name, self._tallied("dense", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli.run":
                span_name = f"cli.command.{args[0].command}"
            elif name == "dynamics.step":
                n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps", 1)
                tracer.counts["split_steps"] += n_steps
                tracer.counts["point_steps"] += n_steps * args[0].n_points
            elif name == "lattice.resolvent_difference_check":
                tracer.lattice_dim = max(tracer.lattice_dim, 2 * args[0].n + 1)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[index] = (span_name, start, perf_counter(), parent)
                tracer._stack.pop()
            if name == "oracle.transfer_reflection_grid":
                tracer.counts["interface_updates"] += sum(r.slab_count for r in result)
            return result

        return wrapper

    def _tallied(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Potential methods count at the outermost call only: Truncated delegates
    # to its inner potential, and mean_value falls back on value.

    def _counted_scalar_fn(self, method):
        tracer = self

        @functools.wraps(method)
        def scalar_fn(p):
            tracer._potential_depth += 1
            try:
                f = method(p)
            finally:
                tracer._potential_depth -= 1
            if tracer._potential_depth:
                return f
            tally = tracer._scalar

            def counted(x):
                tally[0] += 1
                return f(x)

            return counted

        return scalar_fn

    def _counted_value(self, method):
        tracer = self

        @functools.wraps(method)
        def value(p, x):
            if tracer._potential_depth:
                return method(p, x)
            tracer.counts["value_points"] += np.size(x)
            tracer._potential_depth += 1
            try:
                return method(p, x)
            finally:
                tracer._potential_depth -= 1

        return value

    def _counted_mean_value(self, method):
        tracer = self

        @functools.wraps(method)
        def mean_value(p, a, b):
            if tracer._potential_depth:
                return method(p, a, b)
            tracer._potential_depth += 1
            start = perf_counter()
            try:
                return method(p, a, b)
            finally:
                tracer.seconds["mean_value"] += perf_counter() - start
                tracer.counts["mean_value_calls"] += 1
                tracer._potential_depth -= 1

        return mean_value

    # ------------------------------------------------------------ metrics

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans and counters recorded since reset()."""
        names = [s[0] for s in self.spans]
        parents = [names[s[3]] if s[3] >= 0 else "" for s in self.spans]
        durations = [s[2] - s[1] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += d
        rows = list(zip(names, parents, durations, child_time))

        def is_(name):
            return lambda n: n == name

        def total(match):
            return sum(d for n, _, d, _ in rows if match(n))

        def outermost(match):
            return sum(d for n, parent, d, _ in rows if match(n) and not match(parent))

        def self_time(match):
            return sum(d - c for n, _, d, c in rows if match(n))

        def calls(name, parent=None):
            return sum(n == name and parent in (None, p) for n, p, _, _ in rows)

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        scalar_evals = self._scalar[0]
        m_calls = calls("weyl.boundary_m")
        m_seconds = total(is_("weyl.boundary_m"))
        step_s = total(is_("dynamics.step"))
        out = {
            "potential.scalar_evals": (scalar_evals, "count"),
            "potential.value_points": (self.counts["value_points"], "count"),
            "potential.mean_value_calls": (self.counts["mean_value_calls"], "count"),
            "potential.cell_average_s": (self.seconds["mean_value"], "s"),
            "weyl.boundary_m_calls": (m_calls, "count"),
            "weyl.boundary_m_s": (m_seconds, "s"),
            "weyl.us_per_boundary_m": (ratio(m_seconds, m_calls, 1e6), "us"),
            "weyl.evals_per_boundary_m": (ratio(scalar_evals, m_calls), "count/call"),
            "scattering.boundary_pair_calls": (calls("scattering.boundary_pair"), "count"),
            "scattering.algebra_s": (outermost(lambda n: n in ALGEBRA), "s"),
            "scattering.scan_self_s": (self_time(is_("scattering.reflectionless_scan")), "s"),
            "oracle.transfer_s": (outermost(lambda n: n.startswith("oracle.")), "s"),
            "oracle.interface_updates": (self.counts["interface_updates"], "count"),
            "dynamics.split_steps": (self.counts["split_steps"], "count"),
            "dynamics.step_s": (step_s, "s"),
            "dynamics.ns_per_point_step": (ratio(step_s, self.counts["point_steps"], 1e9), "ns"),
            "dynamics.fft_calls": (self.counts["fft"], "count"),
            "dynamics.evolve_self_s": (self_time(is_("dynamics.evolve_packet")), "s"),
            "dynamics.predicted_s": (total(is_("dynamics.predicted_reflection")), "s"),
            "dynamics.predicted_bins": (
                calls("scattering.boundary_pair", parent="dynamics.predicted_reflection"),
                "count",
            ),
            "lattice.check_calls": (calls("lattice.resolvent_difference_check"), "count"),
            "lattice.check_s": (total(is_("lattice.resolvent_difference_check")), "s"),
            "lattice.dim": (self.lattice_dim, "count"),
            "lattice.dense_calls": (self.counts["dense"], "count"),
            "cli.load_config_s": (total(is_("cli.load_config")), "s"),
        }
        for command in cli.COMMANDS:
            out[f"cli.command_s.{command}"] = (total(is_(f"cli.command.{command}")), "s")
        out["cli.render_s"] = (total(lambda n: n in ("cli.render_csv", "cli.render_json")), "s")
        out["cli.self_s"] = (self_time(lambda n: n.startswith("cli.command.")), "s")
        return out
