import json
import math
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cfdyn import artifacts, experiment
from cfdyn.abduction import abduct_noise
from cfdyn.counterfactual import CfTrajectorySet
from cfdyn.dynamics import get_system
from cfdyn.errors import ConfigError, NumericsError
from cfdyn.experiment import (
    ARTIFACT_FILES,
    NOISE_GRID,
    PRESETS,
    RunDir,
    config_from_dict,
    config_hash,
    config_to_dict,
    expand_grid,
    file_layout,
    get_preset,
    load_config,
    run_grid,
    run_pipeline,
    save_config,
    stage_counterfactual,
    stage_filter,
    stage_simulate,
)
from cfdyn.filtering import AncestralHistory, keep_ancestral
from cfdyn.metrics import moving_average, rmse_t
from cfdyn.seeding import RngSeed

TINY = {
    "system": "lorenz",
    "theta_true": [10.0, 28.0, 8.0 / 3.0],
    "x0": [1.0, 1.0, 1.0],
    "horizon": 40,
    "delta": 0.05,
    "process_std": 1.0,
    "observation_std": 1.0,
    "prior_bounds": [[5.0, 15.0], [20.0, 35.0], [2.0, 4.0]],
    "outer_particles": 6,
    "inner_particles": 8,
    "jitter_scale": 0.05,
    "inner_resampling": True,
    "intervention": {"component": 1, "shift": 1e-4},
    "theta_regime": "posterior",
    "n_cf": 4,
    "rmse_window": 10,
    "master_seed": 77,
}


def tiny_config(**overrides):
    data = dict(TINY)
    data.update(overrides)
    return config_from_dict(data)


# ------------------------------------------------------------------- config


def test_config_round_trip(tmp_path):
    config = tiny_config()
    path = tmp_path / "config.json"
    save_config(path, config)
    assert load_config(path) == config


def test_paper_scale_preset_values():
    config = get_preset("lorenz-paper")
    assert config.theta_true == (10.0, 28.0, 8.0 / 3.0)
    assert config.x0 == (1.0, 1.0, 1.0)
    assert config.intervention == {"component": 1, "shift": 1e-4}
    assert config.outer_particles == 200
    assert config.inner_particles == 200
    assert config.delta == 0.05
    assert config.prior_bounds == ((5.0, 15.0), (20.0, 35.0), (2.0, 4.0))


def test_preset_aliases_resolve_documented_variants():
    assert get_preset("lorenz") == get_preset("lorenz-table1")
    assert get_preset("logistic") == get_preset("logistic-appendix")
    assert get_preset("rossler") == get_preset("rossler-table1")
    # both prior variants ship
    assert get_preset("lorenz-appendix").prior_bounds == ((5.0, 20.0), (15.0, 50.0), (1.0, 8.0))


def test_every_preset_simulates_at_seeds_0_to_9():
    # The logistic baseline's process noise drives its state below 0 at seed 2
    # (a failure README documents); every other preset stays finite.
    for name, config in sorted(PRESETS.items()):
        for seed in range(10):
            seeded = replace(config, master_seed=seed)
            if config.system == "logistic" and seed == 2:
                with pytest.raises(NumericsError):
                    stage_simulate(seeded)
                continue
            (truth, observations), _ = stage_simulate(seeded)
            assert np.isfinite(truth).all(), (name, seed)
            assert np.isfinite(observations).all(), (name, seed)


def test_negative_horizon_rejected_by_name():
    with pytest.raises(ConfigError, match="horizon"):
        tiny_config(horizon=-5)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({**TINY, "particles": 3})


def test_missing_keys_rejected():
    data = dict(TINY)
    del data["delta"]
    with pytest.raises(ConfigError, match="delta"):
        config_from_dict(data)


def test_intervention_validation():
    with pytest.raises(ConfigError, match="intervention"):
        tiny_config(intervention={"component": 1})
    with pytest.raises(ConfigError, match="intervention"):
        tiny_config(intervention={"component": 9, "shift": 1.0})
    with pytest.raises(ConfigError, match="intervention"):
        tiny_config(intervention={"absolute": [1.0]})
    cfg = tiny_config(intervention={"absolute": [0.0, 0.0, 0.0]})
    assert cfg.intervention == {"absolute": [0.0, 0.0, 0.0]}
    # A shift that overflows is no config error: the rollouts report the inf state.
    cfg = tiny_config(x0=[1e308, 1.0, 1.0], intervention={"component": 1, "shift": 1e308})
    assert cfg.intervention == {"component": 1, "shift": 1e308}


def test_prior_bounds_validation():
    bad = [[5.0, 15.0], [35.0, 20.0], [2.0, 4.0]]
    with pytest.raises(ConfigError, match="prior_bounds"):
        tiny_config(prior_bounds=bad)


def test_regime_validation():
    with pytest.raises(ConfigError, match="theta_regime"):
        tiny_config(theta_regime="oracle")


def test_config_error_names_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_config_hash_ignores_key_order(tmp_path):
    config = tiny_config()
    ordered = json.dumps(config_to_dict(config), sort_keys=True)
    reversed_keys = json.dumps(
        {k: config_to_dict(config)[k] for k in sorted(config_to_dict(config), reverse=True)}
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(ordered, encoding="utf-8")
    b.write_text(reversed_keys, encoding="utf-8")
    assert config_hash(load_config(a)) == config_hash(load_config(b))


def test_config_hash_ignores_output_dir():
    config = tiny_config()
    assert config_hash(config) == config_hash(replace(config, output_dir="elsewhere"))


def test_config_hash_reads_integer_reals_as_floats(tmp_path):
    # load_config reads every real back as a float, so a config built with
    # integer reals must hash like its saved JSON and like its float twin.
    config = replace(
        tiny_config(),
        theta_true=(10, 28, 8.0 / 3.0),
        x0=(1, 1, 1),
        delta=1,
        process_std=1,
        observation_std=2,
        jitter_scale=0,
        prior_bounds=((5, 15), (20, 35), (2, 4)),
        intervention={"component": 1, "shift": 1},
    )
    path = tmp_path / "config.json"
    save_config(path, config)
    assert config_hash(load_config(path)) == config_hash(config)
    assert config_hash(config) == config_hash(replace(config, x0=(1.0, 1.0, 1.0), delta=1.0))
    absolute = replace(config, intervention={"absolute": [1, 2, 3]})
    data = config_to_dict(absolute)
    assert data["intervention"] == {"absolute": [1.0, 2.0, 3.0]}
    reals = [data[k] for k in ("delta", "process_std", "observation_std", "jitter_scale")]
    reals += data["theta_true"] + data["x0"] + sum(data["prior_bounds"], [])
    assert all(type(v) is float for v in reals + data["intervention"]["absolute"])
    assert absolute.intervention == {"absolute": [1, 2, 3]}


# ------------------------------------------------------------------ pipeline


def test_logistic_pipeline_row_count(tmp_path):
    config = config_from_dict(
        {
            **TINY,
            "system": "logistic",
            "theta_true": [0.5, 100.0],
            "x0": [10.0],
            "horizon": 200,
            "prior_bounds": [[0.0, 1.0], [85.0, 110.0]],
            "outer_particles": 25,
            "inner_particles": 25,
            "intervention": {"component": 1, "shift": 10.0},
        }
    )
    run = run_pipeline(config, tmp_path / "run")
    rmse_lines = (tmp_path / "run" / "rmse.csv").read_text().strip().split("\n")
    assert len(rmse_lines) == 202  # header + T+1 rows
    assert run.products["rmse.csv"][0].shape == (201,)
    for name in ARTIFACT_FILES + ("manifest.json",):
        assert (tmp_path / "run" / name).exists()


def test_pipeline_deterministic_reruns(tmp_path):
    config = tiny_config()
    a = run_pipeline(config, tmp_path / "a")
    b = run_pipeline(config, tmp_path / "b")
    assert a.manifest["artifacts"] == b.manifest["artifacts"]
    for name in ARTIFACT_FILES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_worker_count_invariant(tmp_path):
    config = tiny_config()
    a = run_pipeline(config, tmp_path / "w1", workers=1)
    b = run_pipeline(config, tmp_path / "w4", workers=4)
    assert a.manifest["artifacts"] == b.manifest["artifacts"]


def test_stage_filter_frees_the_full_history_before_smoothing(monkeypatch):
    config = tiny_config()
    (_, observations), _ = stage_simulate(config)
    full = []
    live_at_smoothing = []
    run_filter, backward_smooth = experiment.run_filter, experiment.backward_smooth

    def recording_run_filter(*args):
        history = run_filter(*args)
        full.append(weakref.ref(history))
        return history

    def checking_backward_smooth(history, *args):
        live_at_smoothing.append(full[0]() is not None)
        return backward_smooth(history, *args)

    monkeypatch.setattr(experiment, "run_filter", recording_run_filter)
    monkeypatch.setattr(experiment, "backward_smooth", checking_backward_smooth)
    (_, _, (history, _)), _ = stage_filter(config, observations)
    assert isinstance(history, AncestralHistory)
    assert live_at_smoothing == [False]
    assert full[0]() is None
    # The kept rows are those keep_ancestral gathers from the same filter run.
    again = keep_ancestral(run_filter(
        observations, config.system, np.asarray(config.x0),
        experiment.build_filter_config(config), RngSeed(config.master_seed).child("filter"),
    ))
    assert np.array_equal(history.states, again.states)


def test_posterior_regime_with_zero_spread_matches_point(tmp_path):
    config = tiny_config()
    (_, observations), _ = stage_simulate(config)
    (_, (theta_mean, theta_std), state), _ = stage_filter(config, observations)
    noise = abduct_noise(*state, config.system, config.delta)
    point = replace(config, theta_regime="point", n_cf=4)
    degenerate = replace(config, theta_regime="posterior", n_cf=4)
    (_, trajectories, thetas), _ = stage_counterfactual(point, (theta_mean, theta_std), noise)
    zero = np.zeros_like(theta_std)
    (_, *pinned), _ = stage_counterfactual(degenerate, (theta_mean, zero), noise)
    assert np.array_equal(trajectories, pinned[0])
    assert np.array_equal(thetas, pinned[1])


def _arrays(product) -> list[np.ndarray]:
    """Every array a product holds, in a fixed order: a record's array fields,
    and for an `AncestralHistory` its derived `rows` and `parent` as well, read
    on each side whatever the run has already derived."""
    if isinstance(product, np.ndarray):
        return [product]
    if isinstance(product, tuple):
        return [array for part in product for array in _arrays(part)]
    stored = [getattr(product, f.name) for f in fields(product)]
    derived = [product.rows, product.parent] if isinstance(product, AncestralHistory) else []
    return [value for value in stored + derived if isinstance(value, np.ndarray)]


def test_products_round_trip_through_their_files(tmp_path):
    # The filter's rate estimate is negative, so the counterfactual rows grow
    # from the absolute state 2e307 past the float64 limit at different steps
    # (7 of the 8 end truncated), while the reference under the true rate 0.2
    # decays.
    config = tiny_config(
        system="exp_decay",
        theta_true=[0.2],
        x0=[1.0],
        prior_bounds=[[-1.0, 1.0]],
        intervention={"absolute": [2e307]},
        n_cf=8,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        fused = run_pipeline(config, tmp_path / "run")
    truncated = ~np.isfinite(fused.products["cf_ensemble.csv"]).all(axis=(1, 2))
    assert 0 < truncated.sum() < config.n_cf
    fresh = RunDir(config, tmp_path / "run")
    fresh.check_manifest(ARTIFACT_FILES)
    assert sorted(fused.products) == sorted(ARTIFACT_FILES)
    for name in ARTIFACT_FILES:
        put, loaded = _arrays(fused.products[name]), _arrays(fresh.get(name))
        assert len(put) == len(loaded), name
        for a, b in zip(put, loaded):
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name


def test_every_run_file_has_a_layout_and_an_unknown_name_raises(tmp_path):
    config = tiny_config()
    spec = get_system(config.system)
    for name in ARTIFACT_FILES:
        kind, _ = file_layout(name, config, spec)
        assert hasattr(artifacts, "save_" + kind) and hasattr(artifacts, "load_" + kind), name
    run = RunDir(config, tmp_path)
    with pytest.raises(ValueError, match="process_noise.csv"):
        run.put("process_noise.csv", np.zeros((config.horizon + 1, spec.dimension)))
    assert list(tmp_path.iterdir()) == [] and run.products == {}


@pytest.mark.filterwarnings("error")
def test_metrics_of_a_truncated_ensemble_average_its_finite_rows(tmp_path):
    # The round-trip config above: row 4 stays finite, the other 7 are
    # truncated between steps 15 and 36, and every distance is ~1e306-1e307,
    # so squared distances overflow.
    config = tiny_config(
        system="exp_decay",
        theta_true=[0.2],
        x0=[1.0],
        prior_bounds=[[-1.0, 1.0]],
        intervention={"absolute": [2e307]},
        n_cf=8,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # the rollouts overflow
        run = run_pipeline(config, tmp_path / "run")
    ensemble = CfTrajectorySet(run.products["cf_ensemble.csv"], run.products["cf_thetas.csv"])
    reference = run.products["cf_deterministic.csv"]
    assert list(ensemble.failure_index) == [15, 26, 30, 34, -1, 31, 30, 36]
    raw = rmse_t(ensemble.trajectories, reference)
    smoothed = moving_average(raw, config.rmse_window)
    stored = run.products["rmse.csv"]
    assert np.array_equal(raw, stored[0]) and np.array_equal(smoothed, stored[1])
    finite = np.isfinite(ensemble.trajectories).all(axis=2)
    for t in range(config.horizon + 1):
        distances = np.abs(ensemble.trajectories[finite[:, t], t, 0] - reference[t, 0])
        # hypot scales internally, so it does not overflow.
        expected = math.hypot(*distances) / math.sqrt(distances.size)
        assert math.isclose(raw[t], expected, rel_tol=1e-13), t
    assert np.isfinite(smoothed).all()


def test_true_regime_still_runs_filter_and_abduction(tmp_path):
    config = tiny_config(theta_regime="true")
    run = run_pipeline(config, tmp_path / "run")
    assert run.products["noise_posterior.csv"][0].shape == (config.horizon, 3)
    assert (tmp_path / "run" / "theta_estimate.csv").exists()


# ---------------------------------------------------------------------- grid


def test_grid_produces_twelve_cells(tmp_path):
    base = tiny_config(horizon=16, n_cf=2, rmse_window=5)
    cells = expand_grid(base)
    assert len(cells) == 12
    results = run_grid(cells, tmp_path / "grid")
    assert len(results) == 12
    for name, result in results:
        assert not isinstance(result, Exception), f"{name}: {result}"
        assert (tmp_path / "grid" / name / "manifest.json").exists()
    names = {name for name, _ in results}
    assert len(names) == 12
    for u, w in NOISE_GRID:
        assert f"u{u:g}_w{w:g}_true" in names


def test_grid_worker_count_does_not_change_files(tmp_path):
    cells = expand_grid(tiny_config(horizon=16, n_cf=2, rmse_window=5))[:3]
    for workers in (1, 2):
        results = run_grid(cells, tmp_path / f"w{workers}", workers=workers)
        assert not [name for name, result in results if isinstance(result, Exception)]
    files = [p.relative_to(tmp_path / "w1") for p in (tmp_path / "w1").rglob("*") if p.is_file()]
    assert len(files) == 3 * (len(ARTIFACT_FILES) + 1)
    for rel in files:
        assert (tmp_path / "w2" / rel).read_bytes() == (tmp_path / "w1" / rel).read_bytes(), rel


def test_grid_noise_swap_reverses_pairs():
    base = tiny_config()
    swapped = expand_grid(base, swap_noise=True)
    names = {name for name, _ in swapped}
    assert f"u{4:g}_w{0.01:g}_true" in names


def test_empty_grid_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_grid([], tmp_path / "grid")


def test_grid_cells_have_derived_seeds():
    base = tiny_config()
    cells = expand_grid(base)
    seeds = {cell.master_seed for _, cell in cells}
    assert len(seeds) == 12
    assert expand_grid(base)[0][1].master_seed == cells[0][1].master_seed
