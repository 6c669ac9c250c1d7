"""Spans around the package's public entry points, recorded from outside.

`Tracer.installed()` swaps each entry point named in `ENTRY_POINTS` for a
wrapper that records a span (name, start, end, parent, run id) and puts the
originals back on exit. The package is not edited: spans inside it are a
later change. Spans stay in memory until the run ends.

A span's self time is its duration minus its direct children's; the layer
metrics sum self times, so layer times plus `experiment.self_s` add up to the
traced wall time.
"""
from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

# (module, attribute) -> span name. The modules below look these names up at
# call time, so patching the attribute reaches both the fused pipeline and the
# staged CLI commands.
ENTRY_POINTS = {
    ("cfdyn.experiment", "simulate_hidden"): "simulate.simulate_hidden",
    ("cfdyn.experiment", "observe"): "simulate.observe",
    ("cfdyn.experiment", "run_filter"): "filtering.run_filter",
    ("cfdyn.experiment", "backward_smooth"): "filtering.backward_smooth",
    ("cfdyn.experiment", "posterior_summary"): "filtering.posterior_summary",
    ("cfdyn.experiment", "abduct_noise"): "abduction.abduct_noise",
    ("cfdyn.experiment", "deterministic_cf"): "counterfactual.deterministic_cf",
    ("cfdyn.experiment", "generate_cf"): "counterfactual.generate_cf",
    ("cfdyn.experiment", "rmse_t"): "metrics.rmse_t",
    ("cfdyn.experiment", "moving_average"): "metrics.moving_average",
    ("cfdyn.experiment", "factual_rmse"): "metrics.factual_rmse",
    ("cfdyn.cli", "render_plots"): "svgplot.render_plots",
    ("cfdyn.artifacts", "sha256_file"): "artifacts.sha256_file",
    ("cfdyn.artifacts", "write_manifest"): "artifacts.write_manifest",
    **{
        ("cfdyn.artifacts", f"{verb}_{what}"): f"artifacts.{verb}_{what}"
        for verb in ("save", "load")
        for what in ("trajectory", "observations", "noise_posterior", "ensemble",
                     "rmse", "theta_estimate", "filter_state")
    },
}

# Per-layer metric -> the span names whose self time it sums.
BUSY = {
    "simulate.busy_s": ("simulate.simulate_hidden", "simulate.observe"),
    "filtering.filter_s": ("filtering.run_filter",),
    "filtering.smooth_s": ("filtering.backward_smooth",),
    "filtering.summary_s": ("filtering.posterior_summary",),
    "abduction.busy_s": ("abduction.abduct_noise",),
    "counterfactual.reference_s": ("counterfactual.deterministic_cf",),
    "counterfactual.ensemble_s": ("counterfactual.generate_cf",),
    "metrics.busy_s": ("metrics.rmse_t", "metrics.moving_average", "metrics.factual_rmse"),
    "artifacts.write_s": tuple(n for n in ENTRY_POINTS.values() if ".save_" in n)
    + ("artifacts.write_manifest",),
    "artifacts.read_s": tuple(n for n in ENTRY_POINTS.values() if ".load_" in n),
    "artifacts.hash_s": ("artifacts.sha256_file",),
    "svgplot.busy_s": ("svgplot.render_plots",),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _file_bytes(args) -> int:
    return sum(
        os.path.getsize(a) for a in args if isinstance(a, (str, os.PathLike)) and os.path.isfile(a)
    )


class Tracer:
    """Records spans and the objects the layer counters are computed from."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.bytes_written = 0
        self.bytes_read = 0
        self.svg_bytes = 0
        self.history = None
        self.smoothed = None
        self.ensembles = []

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index].start, self.spans[index].end = start, end
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args, result) -> None:
        if name.startswith("artifacts.save_") or name == "artifacts.write_manifest":
            self.bytes_written += _file_bytes(args)
        elif name.startswith("artifacts.load_"):
            self.bytes_read += _file_bytes(args)
        elif name == "svgplot.render_plots":
            self.svg_bytes += _file_bytes(result)
        elif name == "filtering.run_filter":
            self.history = result
        elif name == "filtering.backward_smooth":
            self.smoothed = result
        elif name == "counterfactual.generate_cf":
            self.ensembles.append(result)

    @contextlib.contextmanager
    def installed(self):
        import importlib

        saved = []
        try:
            for (module_name, attr), name in ENTRY_POINTS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _ess_frac(weights: np.ndarray, axes: tuple[int, ...]) -> float:
    """Mean of ESS / count over the remaining axes; ESS = 1 / sum(w^2) of normalized w."""
    w = weights / weights.sum(axis=axes, keepdims=True)
    count = int(np.prod([weights.shape[a] for a in axes]))
    return float(np.mean(1.0 / (w * w).sum(axis=axes)) / count)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer busy times and counters of one traced run."""
    own = tracer.self_times()
    busy = dict.fromkeys(BUSY, 0.0)
    for span, self_s in zip(tracer.spans, own):
        for key, names in BUSY.items():
            if span.name in names:
                busy[key] += self_s
    out = dict(busy)
    out["experiment.self_s"] = wall_s - sum(own)

    history, smoothed = tracer.history, tracer.smoothed
    steps, m, n = history.horizon, history.num_outer, history.num_inner
    out["filtering.particle_steps"] = steps * m * n
    out["filtering.ns_per_particle_step"] = busy["filtering.filter_s"] / (steps * m * n) * 1e9
    out["filtering.pair_terms"] = steps * m * n * n
    out["filtering.ns_per_pair"] = busy["filtering.smooth_s"] / (steps * m * n * n) * 1e9
    arrays = (history.thetas, history.states, history.inner_weights, history.outer_weights,
              history.outer_ancestors, history.inner_ancestors)
    out["filtering.history_mb"] = sum(a.nbytes for a in arrays) / 1e6
    out["filtering.outer_ess_frac"] = _ess_frac(history.outer_weights[1:], (1,))
    out["filtering.inner_ess_frac"] = _ess_frac(history.inner_weights[1:], (2,))
    out["filtering.unique_ancestor_frac"] = float(np.mean(
        [np.unique(row).size / m for row in history.outer_ancestors[1:]]
    ))
    out["filtering.smoothed_ess_frac"] = _ess_frac(smoothed.w_tilde, (1, 2))
    diag = history.diagnostics
    out["filtering.nonfinite_particles"] = diag.nonfinite_particles
    out["filtering.underflows"] = (
        diag.inner_weight_underflows + diag.outer_weight_underflows + diag.smoother_underflows
    )
    out["abduction.residuals"] = steps * m * n

    traj_steps = sum(e.n_trajectories * e.horizon for e in tracer.ensembles)
    out["counterfactual.traj_steps"] = traj_steps
    out["counterfactual.us_per_traj_step"] = busy["counterfactual.ensemble_s"] / traj_steps * 1e6
    out["counterfactual.truncated"] = sum(
        0 if e.failure_index is None else int((e.failure_index >= 0).sum())
        for e in tracer.ensembles
    )
    out["artifacts.bytes_written"] = tracer.bytes_written
    out["artifacts.bytes_read"] = tracer.bytes_read
    out["svgplot.bytes"] = tracer.svg_bytes
    return out


def _per_call_us(call, calls: int = 2000, repeats: int = 7) -> float:
    """Median over `repeats` batches of the mean time of one call, in us."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(calls):
            call(i)
        times.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(times)


def microbenchmarks(config) -> dict[str, float]:
    """Per-call cost of the two calls every filter step and rollout step pays."""
    from cfdyn.dynamics import rk4_step
    from cfdyn.seeding import RngSeed

    state = np.asarray(config.x0, dtype=float)
    theta = np.asarray(config.theta_true, dtype=float)
    base = RngSeed(config.master_seed).child("step", 1)
    return {
        "dynamics.rk4_step_us": _per_call_us(
            lambda i: rk4_step(config.system, state, theta, config.delta)
        ),
        "seeding.child_generator_us": _per_call_us(lambda i: base.child("lane", i).generator()),
    }
