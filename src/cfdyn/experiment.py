"""Experiment orchestration: configuration, presets, pipeline, and grids.

A run walks the stage table `STAGES` (simulate -> filter/smooth -> abduct ->
counterfactual -> metrics) on one `RunDir`, writing every product under one
output directory. After each stage the manifest, which pins the configuration,
master seed, diagnostics and artifact checksums, is brought up to date. A
stage can also run alone on a fresh `RunDir` from the earlier stages' files
and yields byte-identical results.
"""
from __future__ import annotations

import hashlib
import json
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import artifacts as io
from .abduction import NoisePosterior, abduct_noise
from .counterfactual import REGIMES, CfTrajectorySet, deterministic_cf, generate_cf, intervene
from .dynamics import SystemSpec, get_system
from .errors import ArtifactError, ConfigError
from .filtering import (
    AncestralHistory,
    FilterConfig,
    PosteriorSummary,
    SmoothedWeights,
    backward_smooth,
    keep_ancestral,
    posterior_summary,
    run_filter,
)
from .metrics import factual_rmse, moving_average, rmse_t
from .seeding import RngSeed
from .simulate import observe, simulate_hidden

PACKAGE_VERSION = "0.1.0"

# The four (process_std, observation_std) pairs exercised by the study grid.
NOISE_GRID: tuple[tuple[float, float], ...] = ((0.01, 4.0), (0.01, 9.0), (1.0, 2.0), (4.0, 1.0))


@dataclass(frozen=True)
class ExperimentConfig:
    system: str
    theta_true: tuple[float, ...]
    x0: tuple[float, ...]
    horizon: int
    delta: float
    process_std: float
    observation_std: float
    prior_bounds: tuple[tuple[float, float], ...]
    outer_particles: int
    inner_particles: int
    jitter_scale: float
    inner_resampling: bool
    intervention: dict
    theta_regime: str
    n_cf: int
    rmse_window: int
    master_seed: int
    output_dir: str | None = None


_CONFIG_FIELDS = tuple(ExperimentConfig.__dataclass_fields__)
_INT_FIELDS = ("horizon", "outer_particles", "inner_particles", "n_cf", "rmse_window", "master_seed")
_REAL_FIELDS = ("delta", "process_std", "observation_std", "jitter_scale")


def _fail(field: str, message: str) -> None:
    raise ConfigError(f"config field '{field}': {message}")


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A JSON number (not a bool) that is a finite float64."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _reals(field: str, values) -> tuple[float, ...]:
    if not isinstance(values, (list, tuple)) or not all(map(_is_real, values)):
        _fail(field, f"must be a list of finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _check_types(config: ExperimentConfig) -> ExperimentConfig:
    """Raise ConfigError naming the first field whose JSON type is wrong;
    return the config with `theta_true`, `x0` and `prior_bounds` as float tuples."""
    if not isinstance(config.system, str):
        _fail("system", f"must be a string, got {config.system!r}")
    for name in _INT_FIELDS:
        if not _is_int(getattr(config, name)):
            _fail(name, f"must be an integer, got {getattr(config, name)!r}")
    for name in _REAL_FIELDS:
        if not _is_real(getattr(config, name)):
            _fail(name, f"must be a finite number, got {getattr(config, name)!r}")
    theta_true = _reals("theta_true", config.theta_true)
    x0 = _reals("x0", config.x0)
    if not isinstance(config.prior_bounds, (list, tuple)):
        _fail("prior_bounds", "must be a list of (low, high) pairs")
    prior_bounds = tuple(_reals("prior_bounds", pair) for pair in config.prior_bounds)
    if not isinstance(config.inner_resampling, bool):
        _fail("inner_resampling", f"must be true or false, got {config.inner_resampling!r}")
    if not isinstance(config.intervention, dict):
        _fail("intervention", f"must be an object, got {config.intervention!r}")
    if not (config.output_dir is None or isinstance(config.output_dir, str)):
        _fail("output_dir", "must be a string")
    return replace(config, theta_true=theta_true, x0=x0, prior_bounds=prior_bounds)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """Check every field's type, then its value; return the config with its
    vectors as float tuples. `FilterConfig` checks the filter's settings, and
    its ValueError comes back as a ConfigError naming the field."""
    config = _check_types(config)
    try:
        spec = get_system(config.system)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if len(config.theta_true) != spec.n_params:
        _fail("theta_true", f"expected {spec.n_params} values for {spec.id}")
    if len(config.x0) != spec.dimension:
        _fail("x0", f"expected {spec.dimension} values for {spec.id}")
    if config.horizon < 1:
        _fail("horizon", "must be >= 1")
    if len(config.prior_bounds) != spec.n_params:
        _fail("prior_bounds", f"expected {spec.n_params} (low, high) pairs")
    try:
        build_filter_config(config)
    except ValueError as exc:
        raise ConfigError(f"config field {exc}") from None
    intervention = config.intervention
    if "component" in intervention and not _is_int(intervention["component"]):
        _fail("intervention", f"component must be an integer, got {intervention['component']!r}")
    if "shift" in intervention and not _is_real(intervention["shift"]):
        _fail("intervention", f"shift must be a finite number, got {intervention['shift']!r}")
    if "absolute" in intervention:
        _reals("intervention", intervention["absolute"])
    try:
        intervene(np.asarray(config.x0), intervention)
    except ValueError as exc:
        _fail("intervention", str(exc))
    if config.theta_regime not in REGIMES:
        _fail("theta_regime", f"must be one of {REGIMES}")
    if config.n_cf < 1:
        _fail("n_cf", "must be >= 1")
    if config.rmse_window < 1:
        _fail("rmse_window", "must be >= 1")
    if not 0 <= config.master_seed < 2**64:
        _fail("master_seed", "must fit in 64 bits")
    return config


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from plain JSON data; unknown keys rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = set(_CONFIG_FIELDS) - {"output_dir"} - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return validate_config(ExperimentConfig(**data))


def config_to_dict(config: ExperimentConfig, include_output: bool = True) -> dict:
    """The config as JSON data, every real-valued entry a float: `x0=(1, 1, 1)`
    and `x0=(1.0, 1.0, 1.0)` give the same document and the same hash."""
    data = asdict(config)
    for name in _REAL_FIELDS:
        data[name] = float(data[name])
    data["theta_true"] = [float(v) for v in config.theta_true]
    data["x0"] = [float(v) for v in config.x0]
    data["prior_bounds"] = [[float(v) for v in pair] for pair in config.prior_bounds]
    intervention = data["intervention"]
    if "shift" in intervention:
        intervention["shift"] = float(intervention["shift"])
    if "absolute" in intervention:
        intervention["absolute"] = [float(v) for v in intervention["absolute"]]
    if not include_output or data["output_dir"] is None:
        data.pop("output_dir", None)
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from None
    return config_from_dict(data)


def save_config(path: str | Path, config: ExperimentConfig) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the run semantics (output directory excluded); key-order free."""
    canonical = json.dumps(
        config_to_dict(config, include_output=False), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _desk(system, theta_true, x0, prior_bounds, **overrides) -> ExperimentConfig:
    base = dict(
        system=system,
        theta_true=theta_true,
        x0=x0,
        horizon=500,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=prior_bounds,
        outer_particles=50,
        inner_particles=50,
        jitter_scale=0.05,
        inner_resampling=True,
        intervention={"component": 1, "shift": 1e-4},
        theta_regime="posterior",
        n_cf=20,
        rmse_window=200,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


_LORENZ_TABLE1 = ((5.0, 15.0), (20.0, 35.0), (2.0, 4.0))
_LORENZ_APPENDIX = ((5.0, 20.0), (15.0, 50.0), (1.0, 8.0))
_ROSSLER_TABLE1 = ((0.1, 0.3), (0.1, 0.3), (4.0, 7.0))
_ROSSLER_APPENDIX = ((0.1, 0.3), (0.1, 0.3), (4.0, 8.0))

PRESETS: dict[str, ExperimentConfig] = {
    "lorenz-table1": _desk("lorenz", (10.0, 28.0, 8.0 / 3.0), (1.0, 1.0, 1.0), _LORENZ_TABLE1),
    "lorenz-appendix": _desk("lorenz", (10.0, 28.0, 8.0 / 3.0), (1.0, 1.0, 1.0), _LORENZ_APPENDIX),
    "lorenz-paper": _desk(
        "lorenz",
        (10.0, 28.0, 8.0 / 3.0),
        (1.0, 1.0, 1.0),
        _LORENZ_TABLE1,
        horizon=2000,
        outer_particles=200,
        inner_particles=200,
        n_cf=30,
    ),
    # At process_std 1.0 the Rossler state leaves its attractor and goes
    # non-finite in most seeds; 0.01 keeps it bounded (see README, Presets).
    "rossler-table1": _desk(
        "rossler", (0.2, 0.2, 5.7), (1.0, 1.0, 0.0), _ROSSLER_TABLE1, process_std=0.01
    ),
    "rossler-appendix": _desk(
        "rossler", (0.2, 0.2, 5.7), (1.0, 1.0, 0.0), _ROSSLER_APPENDIX, process_std=0.01
    ),
    "logistic-appendix": _desk(
        "logistic",
        (0.5, 100.0),
        (10.0,),
        ((0.0, 1.0), (85.0, 110.0)),
        intervention={"component": 1, "shift": 10.0},
    ),
}
# Unsuffixed aliases resolve the documented default variant per system.
PRESETS["lorenz"] = PRESETS["lorenz-table1"]
PRESETS["rossler"] = PRESETS["rossler-table1"]
PRESETS["logistic"] = PRESETS["logistic-appendix"]


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def build_filter_config(config: ExperimentConfig) -> FilterConfig:
    """The filter's settings: the config's fields of the same names."""
    return FilterConfig(**{f.name: getattr(config, f.name) for f in fields(FilterConfig)})


def stage_simulate(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    seed = RngSeed(config.master_seed)
    truth = simulate_hidden(
        config.system,
        np.asarray(config.theta_true),
        np.asarray(config.x0),
        config.horizon,
        config.delta,
        config.process_std,
        seed.child("simulate"),
    )
    observations = observe(truth, config.observation_std, seed.child("observe"))
    return truth, observations


def stage_filter(
    config: ExperimentConfig, observations: np.ndarray
) -> tuple[AncestralHistory, SmoothedWeights, PosteriorSummary]:
    """Filter, keep the final lanes' lineages, smooth and summarise.

    The full `run_filter` history is dropped before the smoother runs; only
    its ancestral lane-steps are kept and returned.
    """
    seed = RngSeed(config.master_seed)
    history = keep_ancestral(run_filter(
        observations,
        config.system,
        np.asarray(config.x0),
        build_filter_config(config),
        seed.child("filter"),
    ))
    smoothed = backward_smooth(history, config.system, config.delta, config.process_std)
    summary = posterior_summary(history, smoothed)
    return history, smoothed, summary


def stage_counterfactual(
    config: ExperimentConfig,
    theta_estimate: tuple[np.ndarray, np.ndarray],
    noise: NoisePosterior,
) -> tuple[np.ndarray, CfTrajectorySet]:
    """The noise-free reference and the ensemble of the config's intervention.

    `theta_estimate` is the filter's (theta_mean, theta_std). The regime picks
    the parameters the ensemble draws from: "true" runs every trajectory under
    theta_true, "point" under theta_mean, and "posterior" draws each from
    N(theta_mean, diag(theta_std^2)).
    """
    seed = RngSeed(config.master_seed)
    theta_mean, theta_std = theta_estimate
    theta, spread = {
        "true": (np.asarray(config.theta_true), np.zeros_like(theta_std)),
        "point": (theta_mean, np.zeros_like(theta_std)),
        "posterior": (theta_mean, theta_std),
    }[config.theta_regime]
    x0_cf = intervene(np.asarray(config.x0), config.intervention)
    reference = deterministic_cf(
        config.system, np.asarray(config.theta_true), x0_cf, config.horizon, config.delta
    )
    ensemble = generate_cf(
        config.system,
        theta,
        spread,
        noise,
        x0_cf,
        config.horizon,
        config.delta,
        config.n_cf,
        seed.child("counterfactual"),
    )
    return reference, ensemble


def resolve_out_dir(config: ExperimentConfig, out_dir: str | Path | None) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    if config.output_dir is not None:
        return Path(config.output_dir)
    return Path("runs") / config_hash(config)[:12]


def _new_manifest(config: ExperimentConfig) -> dict:
    return {
        "config": config_to_dict(config, include_output=False),
        "config_hash": config_hash(config),
        "master_seed": config.master_seed,
        "package": {"name": "cfdyn", "version": PACKAGE_VERSION},
        "diagnostics": {},
        "artifacts": {},
    }


def file_layout(name: str, config: ExperimentConfig, spec: SystemSpec) -> tuple[str, tuple]:
    """How run file `name` is stored under `config`: the kind of its converter
    pair, `artifacts.save_<kind>`/`load_<kind>`, and the layout they take.

    A CSV's layout is its header and its label columns, the grid that fixes the
    file's rows and their order: t = 0..T for a state series, 1..T for the
    noise posterior, (t, traj_id) trajectory-major for the ensemble, traj_id =
    0..n_cf-1 for its thetas, and the parameter names for the estimate.
    filter_state.npz has none; `_check_filter_state` checks it once it is read.
    A name that is not a run file raises ValueError.
    """
    steps, n = np.arange(config.horizon + 1), config.n_cf

    def columns(prefix: str) -> list[str]:
        return [f"{prefix}_{k + 1}" for k in range(spec.dimension)]

    if name == "filter_state.npz":
        return "filter_state", ()
    if name == "observations.csv":
        return "observations", (["t", *columns("y")], [steps])
    if name == "theta_estimate.csv":
        return "theta_estimate", (["parameter", "mean", "std"], [spec.parameter_names])
    if name == "noise_posterior.csv":
        return "noise_posterior", (["t", *columns("mu"), *columns("sigma")], [steps[1:]])
    if name == "cf_ensemble.csv":
        grid = [np.tile(steps, n), np.repeat(np.arange(n), len(steps))]
        return "ensemble", (["t", "traj_id", *columns("x")], grid)
    if name == "cf_thetas.csv":
        return "trajectory", (["traj_id", *spec.parameter_names], [np.arange(n)])
    if name in ("rmse.csv", "factual_rmse.csv"):
        return "rmse", (["t", "rmse", "rmse_smoothed"], [steps])
    if name in ("truth.csv", "state_estimate.csv", "cf_deterministic.csv"):
        return "trajectory", (["t", *columns("x")], [steps])
    raise ValueError(f"{name} is not a run file")


class RunDir:
    """One run directory, as the stages run in one process see it.

    `put` writes a product to its file and keeps it; `get` returns a kept
    product, or loads it from its file, which must fit the config's
    `file_layout`. Products are named by their file. A state series (truth,
    estimate, reference) is a (T+1, d) array; the ensemble is a
    `CfTrajectorySet` whose thetas are the cf_thetas.csv product. The
    converters are looked up in `artifacts` when called, never held: perfbench
    wraps each by name.
    """

    def __init__(self, config: ExperimentConfig, path: str | Path):
        self.config = config
        self.path = Path(path)
        self.spec = get_system(config.system)
        self.products: dict[str, object] = {}
        self.manifest: dict | None = None

    def put(self, name: str, product) -> None:
        kind, layout = file_layout(name, self.config, self.spec)
        getattr(io, "save_" + kind)(self.path / name, product, *layout)
        self.products[name] = product

    def check_manifest(self, inputs: tuple[str, ...]) -> None:
        """Load manifest.json unless it is held, and check it before any input is read.

        Raises ArtifactError if the file is missing, names another config's
        hash, or does not list every one of `inputs`, or if an input that is
        not kept in memory no longer has the sha256 the manifest lists.
        """
        path = self.path / "manifest.json"
        if self.manifest is None:
            if not path.exists():
                raise ArtifactError(f"{path} is missing: run `cfdyn simulate` first")
            manifest = io.load_manifest(path)
            if manifest.get("config_hash") != config_hash(self.config):
                raise ArtifactError(f"{path} was written for a different config")
            self.manifest = manifest
        listed = self.manifest["artifacts"]
        missing = [name for name in inputs if name not in listed]
        if missing:
            raise ArtifactError(f"{path} does not list {', '.join(missing)}")
        for name in inputs:
            if name not in self.products and io.sha256_file(self.path / name) != listed[name]:
                raise ArtifactError(
                    f"{self.path / name} does not have the sha256 that {path} lists"
                )

    def get(self, name: str):
        if name not in self.products:
            self.products[name] = self._load(name)
        return self.products[name]

    def _load(self, name: str):
        path = self.path / name
        kind, layout = file_layout(name, self.config, self.spec)
        product = getattr(io, "load_" + kind)(path, *layout)
        if name == "filter_state.npz":
            _check_filter_state(path, *product, self.config, self.spec)
        elif name == "cf_ensemble.csv":
            product = CfTrajectorySet(trajectories=product, thetas=self.get("cf_thetas.csv"))
        return product


def _check_shapes(path: Path, arrays: dict, needs: dict) -> None:
    """Raise ArtifactError naming the arrays that do not have the shape `needs` names."""
    shape = {key: arrays[key].shape for key in needs if arrays[key].shape != needs[key]}
    if shape:
        expected = {key: needs[key] for key in shape}
        raise ArtifactError(f"{path} holds shape {shape}, the config needs {expected}")


def _check_index(path: Path, key: str, index: np.ndarray, bound: int) -> None:
    """Raise ArtifactError unless `index` has an integer dtype (any width:
    narrow or int64) and values in [0, bound)."""
    if index.dtype.kind not in "iu":
        raise ArtifactError(f"{path} array {key} has dtype {index.dtype}, not an integer dtype")
    if index.min() < 0 or index.max() >= bound:
        raise ArtifactError(
            f"{path} array {key} holds values in [{index.min()}, {index.max()}], "
            f"outside [0, {bound})"
        )


def _check_filter_state(
    path: Path,
    history: AncestralHistory,
    smoothed: SmoothedWeights,
    config: ExperimentConfig,
    spec: SystemSpec,
) -> None:
    """Check a loaded filter state against the config, in the order its arrays depend on
    each other; raise ArtifactError at the first misfit.

    The lane arrays come first: `outer_ancestors` must index M lanes before the
    row count S is derived from it. Then every compact member must have S rows,
    `inner_ancestors` must index N particles, and last the smoothed weights
    must cover every (t, lane).
    """
    t1, m, n = config.horizon + 1, config.outer_particles, config.inner_particles
    arrays = {**vars(history), **vars(smoothed)}
    _check_shapes(path, arrays, {"outer_weights": (t1, m), "outer_ancestors": (t1, m)})
    _check_index(path, "outer_ancestors", history.outer_ancestors, m)
    s, p, d = int(history.row.max()) + 1, spec.n_params, spec.dimension
    _check_shapes(path, arrays, {
        "thetas": (s, p), "states": (s, n, d), "inner_weights": (s, n), "inner_ancestors": (s, n),
    })
    _check_index(path, "inner_ancestors", history.inner_ancestors, n)
    _check_shapes(path, arrays, {"w_tilde": (t1, m, n), "v_tilde": (t1, m)})


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: the files it reads and writes, and the code that does it.

    `run` takes every input from the RunDir, puts every output in it, and
    returns the stage's diagnostics for the manifest.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    run: Callable[[RunDir], dict]


def _simulate(run: RunDir) -> dict:
    truth, observations = stage_simulate(run.config)
    run.put("truth.csv", truth)
    run.put("observations.csv", observations)
    return {}


def _filter(run: RunDir) -> dict:
    history, smoothed, summary = stage_filter(run.config, run.get("observations.csv"))
    run.put("state_estimate.csv", summary.state_mean)
    run.put("theta_estimate.csv", (summary.theta_mean, summary.theta_std))
    run.put("filter_state.npz", (history, smoothed))
    return asdict(history.diagnostics)


def _abduct(run: RunDir) -> dict:
    history, smoothed = run.get("filter_state.npz")
    noise = abduct_noise(history, smoothed, run.config.system, run.config.delta)
    run.put("noise_posterior.csv", noise)
    return {}


def _counterfactual(run: RunDir) -> dict:
    reference, ensemble = stage_counterfactual(
        run.config, run.get("theta_estimate.csv"), run.get("noise_posterior.csv")
    )
    run.put("cf_deterministic.csv", reference)
    run.put("cf_ensemble.csv", ensemble)
    run.put("cf_thetas.csv", ensemble.thetas)
    return {"cf_truncated_trajectories": int((ensemble.failure_index >= 0).sum())}


def _metrics(run: RunDir) -> dict:
    raw = rmse_t(run.get("cf_ensemble.csv"), run.get("cf_deterministic.csv"))
    factual = factual_rmse(run.get("state_estimate.csv"), run.get("truth.csv"))
    run.put("rmse.csv", (raw, moving_average(raw, run.config.rmse_window)))
    run.put("factual_rmse.csv", (factual, moving_average(factual, run.config.rmse_window)))
    return {}


STAGES = (
    Stage("simulate", (), ("truth.csv", "observations.csv"), _simulate),
    Stage(
        "filter",
        ("observations.csv",),
        ("state_estimate.csv", "theta_estimate.csv", "filter_state.npz"),
        _filter,
    ),
    Stage("abduct", ("filter_state.npz",), ("noise_posterior.csv",), _abduct),
    Stage(
        "counterfactual",
        ("theta_estimate.csv", "noise_posterior.csv"),
        ("cf_deterministic.csv", "cf_ensemble.csv", "cf_thetas.csv"),
        _counterfactual,
    ),
    Stage(
        "metrics",
        ("truth.csv", "state_estimate.csv", "cf_deterministic.csv", "cf_ensemble.csv",
         "cf_thetas.csv"),
        ("rmse.csv", "factual_rmse.csv"),
        _metrics,
    ),
)
ARTIFACT_FILES = tuple(name for stage in STAGES for name in stage.outputs)
# The run files `cfdyn plot` reads.
PLOT_INPUTS = ("cf_deterministic.csv", "cf_ensemble.csv", "cf_thetas.csv", "rmse.csv")


def run_stage(stage: Stage, run: RunDir) -> None:
    """Run one stage, then add its files' sha256 and its diagnostics to manifest.json.

    `simulate` starts the manifest. Every later stage needs a manifest that
    names this config's hash and lists the stage's inputs; otherwise it raises
    ArtifactError before reading anything, so it never reads the files of a
    run made under another config.
    """
    if stage.name == "simulate":
        run.path.mkdir(parents=True, exist_ok=True)
        run.manifest = _new_manifest(run.config)
    else:
        run.check_manifest(stage.inputs)
    diagnostics = stage.run(run)
    run.manifest["diagnostics"].update(diagnostics)
    for name in stage.outputs:
        run.manifest["artifacts"][name] = io.sha256_file(run.path / name)
    io.write_manifest(run.path / "manifest.json", run.manifest)


def run_pipeline(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> RunDir:
    """Run every stage in causal order into one directory; return it with
    every product kept in `products` and the final `manifest`.

    The filter runs under every theta regime (it supplies the noise posterior
    even when the counterfactual parameters are pinned to their true values).
    A failing stage leaves the manifest listing what the earlier ones wrote.
    Every stage runs in one thread: `workers` (the CLI's `--threads`) is
    accepted and reaches nothing, so it cannot change a byte.
    """
    config = validate_config(config)
    run = RunDir(config, resolve_out_dir(config, out_dir))
    for stage in STAGES:
        run_stage(stage, run)
    return run


def _cell_seed(master_seed: int, index: int) -> int:
    return RngSeed(master_seed).child("grid", index).stream_id


def expand_grid(
    base: ExperimentConfig, swap_noise: bool = False
) -> list[tuple[str, ExperimentConfig]]:
    """Cross `NOISE_GRID` with the theta `REGIMES`; one named cell per combination.

    `swap_noise` reads each pair as (observation_std, process_std) instead,
    covering the alternative ordering of the published noise grid.
    """
    cells = []
    index = 0
    for pair in NOISE_GRID:
        u, w = (pair[1], pair[0]) if swap_noise else pair
        for regime in REGIMES:
            name = f"u{u:g}_w{w:g}_{regime}"
            cell = replace(
                base,
                process_std=float(u),
                observation_std=float(w),
                theta_regime=regime,
                master_seed=_cell_seed(base.master_seed, index),
                output_dir=None,
            )
            cells.append((name, cell))
            index += 1
    return cells


def run_grid(
    cells: list[tuple[str, ExperimentConfig]],
    out_dir: str | Path,
    workers: int = 1,
) -> list[tuple[str, RunDir | Exception]]:
    """Run each named cell in its own subdirectory; failures stay isolated.

    Cells run one after another; `workers` goes to each `run_pipeline`,
    where it reaches nothing.
    """
    if not cells:
        raise ConfigError("grid is empty")
    results = []
    for name, cell in cells:
        try:
            results.append((name, run_pipeline(cell, Path(out_dir) / name, workers=workers)))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            results.append((name, exc))
    return results
