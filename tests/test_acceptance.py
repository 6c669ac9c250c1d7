"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints `ACCEPTANCE <n> (<name>): PASS -- <details>` on success (run
pytest with -s to see the lines); the pytest pass/fail status is the gate.
Randomized criteria use frozen master seeds so reruns are deterministic.
"""
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from cfdyn.cli import main
from cfdyn.abduction import abduct_noise
from cfdyn.counterfactual import deterministic_cf, generate_cf, intervene
from cfdyn.dynamics import EXP_DECAY, LORENZ, rk4_step
from cfdyn.experiment import (
    ARTIFACT_FILES,
    get_preset,
    stage_counterfactual,
    stage_filter,
    stage_simulate,
)
from cfdyn.filtering import (
    FilterConfig,
    backward_smooth,
    keep_ancestral,
    posterior_summary,
    run_filter,
    systematic_resample,
)
from cfdyn.metrics import divergence_onset, factual_rmse, moving_average, rmse_t
from cfdyn.seeding import RngSeed
from cfdyn.simulate import observe, simulate_hidden

from .oracles import kalman_filter_rts, particle_residual
from .test_experiment import TINY

DECAY_DELTA = float(-np.log(0.9))


def report(number: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS -- {detail}")


def test_criterion_1_rk4_order():
    start = time.perf_counter()

    def global_error(delta):
        steps = round(1.0 / delta)
        x = np.array([1.0])
        for _ in range(steps):
            x = rk4_step(EXP_DECAY, x, np.array([1.0]), delta)
        return abs(x[0] - np.exp(-1.0))

    factor = global_error(0.05) / global_error(0.025)
    elapsed = time.perf_counter() - start
    assert 12.0 <= factor <= 20.0
    assert elapsed < 1.0
    report(1, "rk4 order", f"error shrink factor {factor:.2f} in [12, 20], {elapsed:.3f}s")


@pytest.mark.slow
def test_criterion_2_kalman_rts_oracle():
    start = time.perf_counter()
    a_eff = float(rk4_step(EXP_DECAY, np.array([1.0]), np.array([1.0]), DECAY_DELTA)[0])
    config = FilterConfig(
        outer_particles=1,
        inner_particles=500,
        delta=DECAY_DELTA,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=[[1.0 - 1e-12, 1.0 + 1e-12]],
        jitter_scale=0.0,
    )
    mads_filtered, mads_smoothed = [], []
    for seed in range(20):
        root = RngSeed(5000 + seed)
        truth = simulate_hidden(
            EXP_DECAY, np.array([1.0]), np.array([0.0]), 200, DECAY_DELTA,
            1.0, root.child("sim"),
        )
        ys = observe(truth, 1.0, root.child("obs"))
        history = run_filter(ys, EXP_DECAY, np.array([0.0]), config, root.child("filter"))
        kept = keep_ancestral(history)
        smoothed = backward_smooth(kept, EXP_DECAY, DECAY_DELTA, 1.0)
        state_mean, _ = posterior_summary(kept, smoothed.w_tilde)
        kf, rts, _, _ = kalman_filter_rts(ys[:, 0], a_eff, 1.0, 1.0, 0.0, 0.0)
        mads_filtered.append(np.abs(history.filtered_means[:, 0] - kf).mean())
        mads_smoothed.append(np.abs(state_mean[:, 0] - rts).mean())
    elapsed = time.perf_counter() - start
    assert max(mads_filtered) < 0.15, f"filtered MAD {max(mads_filtered):.4f}"
    assert max(mads_smoothed) < 0.15, f"smoothed MAD {max(mads_smoothed):.4f}"
    assert elapsed < 30.0
    report(
        2,
        "kalman/rts oracle",
        f"20 seeds, filtered MAD <= {max(mads_filtered):.3f}, "
        f"smoothed MAD <= {max(mads_smoothed):.3f} (< 0.15), {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_3_factual_estimation_quality():
    start = time.perf_counter()
    base = replace(get_preset("lorenz-table1"), outer_particles=100, inner_particles=100)
    passed = 0
    values = []
    for seed in range(10):
        config = replace(base, master_seed=1000 + seed)
        (truth, observations), _ = stage_simulate(config)
        (state_mean, _, _), _ = stage_filter(config, observations)
        series = moving_average(factual_rmse(state_mean, truth), config.rmse_window)
        per_dimension = series.mean() / np.sqrt(3.0)
        values.append(per_dimension)
        passed += per_dimension < 3.0 * config.observation_std
    elapsed = time.perf_counter() - start
    assert passed >= 8, f"only {passed}/10 seeds under 3*sigma_W: {np.round(values, 3)}"
    assert elapsed < 600.0
    report(
        3,
        "factual estimation",
        f"{passed}/10 seeds with per-dimension smoothed error < 3*sigma_W "
        f"(max {max(values):.3f}), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_4_divergence_regime_ordering():
    # the contrast between parameter regimes lives in the small-process-noise
    # corner of the study grid; (0.01, 4) is that corner
    start = time.perf_counter()
    base = replace(get_preset("lorenz-table1"), process_std=0.01, observation_std=4.0)
    ordered_count = 0
    onset_rows = []
    for seed in range(10):
        config = replace(base, master_seed=2000 + seed)
        (truth, observations), _ = stage_simulate(config)
        (_, (theta_mean, theta_std), state), _ = stage_filter(config, observations)
        noise = abduct_noise(*state, config.system, config.delta)
        x0_cf = intervene(np.asarray(config.x0), config.intervention)
        reference = deterministic_cf(
            config.system, np.asarray(config.theta_true), x0_cf, config.horizon, config.delta
        )
        span = reference.max(axis=0) - reference.min(axis=0)
        threshold = 0.10 * float(np.linalg.norm(span))
        seed_obj = RngSeed(config.master_seed)
        pinned = np.zeros_like(theta_std)
        regimes = {
            "true": (np.asarray(config.theta_true), pinned),
            "point": (theta_mean, pinned),
            "posterior": (theta_mean, theta_std),
        }
        onsets = {}
        for slot, (mode, (theta, theta_std)) in enumerate(regimes.items()):
            ensemble = generate_cf(
                config.system, theta, theta_std, noise, x0_cf, config.horizon, config.delta,
                config.n_cf, seed_obj.child("cf", slot),
            )
            per_trajectory = []
            for i in range(ensemble.n_trajectories):
                distances = np.sqrt(
                    ((ensemble.trajectories[i] - reference) ** 2).sum(axis=1)
                )
                onset = divergence_onset(moving_average(distances, config.rmse_window), threshold)
                per_trajectory.append(config.horizon + 1 if onset is None else onset)
            onsets[mode] = float(np.median(per_trajectory))
        onset_rows.append(onsets)
        ordered_count += onsets["true"] >= onsets["point"] >= onsets["posterior"]
    elapsed = time.perf_counter() - start
    assert ordered_count >= 7, f"ordering held in only {ordered_count}/10: {onset_rows}"
    report(
        4,
        "divergence-regime ordering",
        f"onset(true) >= onset(point) >= onset(posterior) in {ordered_count}/10 seeds, "
        f"{elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_5_logistic_baseline():
    start = time.perf_counter()
    base = replace(
        get_preset("logistic-appendix"),
        theta_regime="true",
        process_std=0.01,
        observation_std=4.0,
    )
    heads, tails, terminals = [], [], []
    for seed in range(10):
        config = replace(base, master_seed=3000 + seed)
        (truth, observations), _ = stage_simulate(config)
        (_, theta_estimate, state), _ = stage_filter(config, observations)
        noise = abduct_noise(*state, config.system, config.delta)
        (reference, trajectories, _), _ = stage_counterfactual(config, theta_estimate, noise)
        series = moving_average(rmse_t(trajectories, reference), config.rmse_window)
        tenth = max(1, len(series) // 10)
        heads.append(series[:tenth].mean())
        tails.append(series[-tenth:].mean())
        terminals.append(trajectories[:, -1, 0].mean())
    elapsed = time.perf_counter() - start
    for seed in range(10):
        assert tails[seed] < heads[seed], (
            f"seed {seed}: tail {tails[seed]:.4f} !< head {heads[seed]:.4f}"
        )
        assert abs(terminals[seed] - 100.0) < 5.0, f"seed {seed}: terminal {terminals[seed]:.2f}"
    report(
        5,
        "logistic baseline",
        f"10/10 seeds settle (tail < head) with terminal mean within 5 of K, {elapsed:.0f}s",
    )


def test_criterion_6_identity_counterfactual():
    theta = np.array([10.0, 28.0, 8.0 / 3.0])
    x0 = np.array([1.0, 1.0, 1.0])
    truth = simulate_hidden(LORENZ, theta, x0, 300, 0.05, 1.0, RngSeed(6000))
    mu = np.array(
        [
            particle_residual(truth[t], truth[t - 1], theta, LORENZ, 0.05)
            for t in range(1, 301)
        ]
    )
    recorded = (mu, np.zeros_like(mu))
    ensemble = generate_cf(LORENZ, theta, np.zeros(3), recorded, x0, 300, 0.05, 2, RngSeed(6001))
    worst = np.abs(ensemble.trajectories - truth[None]).max()
    assert worst < 1e-9
    report(6, "identity counterfactual", f"max per-component error {worst:.2e} < 1e-9")


def test_criterion_7_weight_and_moment_invariants():
    rng = np.random.default_rng(7000)
    cases = 0

    # weight normalization: random log-weights, normalized in log space
    logw = rng.normal(scale=50.0, size=(4000, 32))
    shifted = np.exp(logw - logw.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-9
    cases += 4000

    # weighted variance: streaming expression vs two-pass oracle
    for _ in range(4000):
        n = rng.integers(2, 12)
        values = rng.normal(size=n)
        w = rng.uniform(0.01, 1.0, size=n)
        w /= w.sum()
        mean = w @ values
        var_direct = w @ (values - mean) ** 2
        var_two_pass = (w * values**2).sum() - mean**2
        denom = max(abs(var_direct), 1e-12)
        assert abs(var_direct - var_two_pass) / denom < 1e-10
    cases += 4000

    # systematic resampling: offspring expectation within 5 percent
    w = np.array([0.1, 0.2, 0.3, 0.4])
    gen = RngSeed(7001).generator()
    counts = np.zeros(4)
    trials = 10000
    for _ in range(trials):
        counts += np.bincount(systematic_resample(w, gen), minlength=4)
    expected = 4 * w
    rel = np.abs(counts / trials - expected) / expected
    assert rel.max() < 0.05
    cases += trials

    # closed-form RMSE examples
    ref = np.zeros((1, 1))
    assert abs(rmse_t(np.array([[[3.0]], [[4.0]]]), ref)[0] - np.sqrt(12.5)) < 1e-12
    ref3 = np.zeros((4, 3))
    assert np.allclose(rmse_t(np.full((1, 4, 3), 2.0), ref3), 2.0 * np.sqrt(3.0), rtol=1e-14)
    assert np.array_equal(rmse_t(np.zeros((3, 4, 3)), ref3), np.zeros(4))
    cases += 3

    report(7, "weight/moment invariants", f"{cases} randomized cases passed")


def test_criterion_8_run_determinism(tmp_path):
    config_data = dict(TINY)
    config_data.update(horizon=120, outer_particles=16, inner_particles=16, n_cf=8, rmse_window=50)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_data), encoding="utf-8")

    dirs = {
        "first": ["run", "--config", str(config_path), "--out", str(tmp_path / "first")],
        "second": ["run", "--config", str(config_path), "--out", str(tmp_path / "second")],
        "threads1": ["run", "--config", str(config_path), "--out", str(tmp_path / "threads1"),
                     "--threads", "1"],
        "threads8": ["run", "--config", str(config_path), "--out", str(tmp_path / "threads8"),
                     "--threads", "8"],
    }
    for argv in dirs.values():
        assert main(argv) == 0
    reference_dir = tmp_path / "first"
    for other in ("second", "threads1", "threads8"):
        for name in ARTIFACT_FILES + ("manifest.json",):
            assert (tmp_path / other / name).read_bytes() == (reference_dir / name).read_bytes(), (
                f"{other}/{name} differs"
            )
    report(
        8,
        "run determinism",
        "repeated runs and --threads 1 vs --threads 8 produced byte-identical artifacts",
    )
