import numpy as np
import pytest

from cfdyn.abduction import abduct_noise
from cfdyn.dynamics import EXP_DECAY, LORENZ, rk4_step
from cfdyn.filtering import (
    FilterConfig,
    SmoothedWeights,
    backward_smooth,
    keep_ancestral,
    run_filter,
)
from cfdyn.seeding import RngSeed
from cfdyn.simulate import observe, simulate_hidden

from .oracles import FullHistory, gather_ancestral, kalman_filter_rts, particle_residual

LORENZ_THETA = np.array([10.0, 28.0, 8.0 / 3.0])
X0 = np.array([1.0, 1.0, 1.0])


def test_residual_zero_for_exact_transition():
    x_prev = np.array([1.2, -0.3, 4.0])
    x_t = rk4_step(LORENZ, x_prev, LORENZ_THETA, 0.05)
    out = particle_residual(x_t, x_prev, LORENZ_THETA, LORENZ, 0.05)
    assert np.array_equal(out, np.zeros(3))


def test_residual_recovers_additive_offset():
    # (base + offset) - base round-trips to within one ulp of the state scale
    x_prev = np.array([1.2, -0.3, 4.0])
    offset = np.array([1.0, 2.0, 3.0])
    x_t = rk4_step(LORENZ, x_prev, LORENZ_THETA, 0.05) + offset
    out = particle_residual(x_t, x_prev, LORENZ_THETA, LORENZ, 0.05)
    assert np.allclose(out, offset, rtol=0, atol=1e-12)


def test_residuals_replay_simulator_noise():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 40, 0.05, 1.0, RngSeed(40))
    recorded = RngSeed(40).generator().normal(0.0, 1.0, size=(40, 3))
    for t in range(1, 41):
        resid = particle_residual(traj[t], traj[t - 1], LORENZ_THETA, LORENZ, 0.05)
        assert np.allclose(resid, recorded[t - 1], rtol=0, atol=1e-10)


def _degenerate_history(horizon=12):
    truth = simulate_hidden(LORENZ, LORENZ_THETA, X0, horizon, 0.05, 1.0, RngSeed(41))
    obs = observe(truth, 1.0, RngSeed(41, 1))
    config = FilterConfig(
        outer_particles=1,
        inner_particles=1,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=np.stack([LORENZ_THETA, LORENZ_THETA + 1e-12], axis=1),
        jitter_scale=0.0,
    )
    history = run_filter(obs, LORENZ, X0, config, RngSeed(42))
    smoothed = backward_smooth(keep_ancestral(history), LORENZ, 0.05, 1.0)
    return history, smoothed


def test_single_particle_posterior_is_exact_residual():
    history, smoothed = _degenerate_history()
    mu, var = abduct_noise(keep_ancestral(history), smoothed, LORENZ, 0.05)
    # One lane, so row t is step t.
    for t in range(1, history.horizon + 1):
        expected = particle_residual(
            history.states[t, 0],
            history.states[t - 1, 0],
            history.thetas[t],
            LORENZ,
            0.05,
        )
        assert np.allclose(mu[t - 1], expected, atol=1e-14)
        assert np.array_equal(var[t - 1], np.zeros(3))


def _manual_history(residuals, weights):
    """Two inner particles, one lane, one transition; residuals (2, d).

    Returns the ancestral rows of the full history and its smoothed weights.
    """
    d = residuals.shape[1]
    theta = LORENZ_THETA
    x_prev = np.array([1.0, 2.0, 3.0])
    base = rk4_step(LORENZ, x_prev, theta, 0.05)
    states = np.zeros((2, 1, 2, d))
    states[0, 0, 0] = x_prev
    states[0, 0, 1] = x_prev
    states[1, 0, 0] = base + residuals[0]
    states[1, 0, 1] = base + residuals[1]
    history = FullHistory(
        thetas=np.broadcast_to(theta, (2, 1, 3)).copy(),
        states=states,
        inner_weights=np.full((2, 1, 2), 0.5),
        outer_weights=np.ones((2, 1)),
        outer_ancestors=np.zeros((2, 1), dtype=np.int64),
        inner_ancestors=np.zeros((2, 1, 2), dtype=np.int64),
    )
    w = np.asarray(weights, dtype=float)
    smoothed = SmoothedWeights(
        w_tilde=np.stack([w[None, :], w[None, :]]),
        v_tilde=np.ones((2, 1)),
    )
    return gather_ancestral(history), smoothed


def test_symmetric_two_particle_moments():
    r = np.array([0.7, -1.1, 2.0])
    history, smoothed = _manual_history(np.stack([r, -r]), [0.5, 0.5])
    mu, var = abduct_noise(history, smoothed, LORENZ, 0.05)
    assert np.allclose(mu[0], 0.0, atol=1e-12)
    assert np.allclose(var[0], r**2, rtol=1e-12)


def test_weighted_mean_stays_within_residual_envelope():
    rng = np.random.default_rng(7)
    for _ in range(25):
        residuals = rng.normal(size=(2, 3))
        w = rng.uniform(0.05, 1.0, size=2)
        w /= w.sum()
        history, smoothed = _manual_history(residuals, w)
        mu, _ = abduct_noise(history, smoothed, LORENZ, 0.05)
        lo = residuals.min(axis=0) - 1e-12
        hi = residuals.max(axis=0) + 1e-12
        assert ((mu[0] >= lo) & (mu[0] <= hi)).all()


def test_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        residuals = rng.normal(size=(2, 3))
        w = rng.uniform(0.05, 1.0, size=2)
        w /= w.sum()
        history, smoothed = _manual_history(residuals, w)
        _, var = abduct_noise(history, smoothed, LORENZ, 0.05)
        mean = (w[:, None] * residuals).sum(axis=0)
        expected = (w[:, None] * (residuals - mean) ** 2).sum(axis=0)
        rel = np.abs(var[0] - expected) / np.maximum(expected, 1e-30)
        assert (rel < 1e-10).all()


def test_noiseless_truth_yields_small_abducted_mean():
    truth = simulate_hidden(LORENZ, LORENZ_THETA, X0, 150, 0.05, 0.0, RngSeed(43))
    obs = observe(truth, 0.01, RngSeed(43, 1))
    config = FilterConfig(
        outer_particles=10,
        inner_particles=30,
        delta=0.05,
        process_std=0.05,
        observation_std=0.01,
        prior_bounds=np.stack([LORENZ_THETA - 1e-9, LORENZ_THETA + 1e-9], axis=1),
        jitter_scale=0.0,
    )
    history = keep_ancestral(run_filter(obs, LORENZ, X0, config, RngSeed(44)))
    smoothed = backward_smooth(history, LORENZ, 0.05, 0.05)
    mu, _ = abduct_noise(history, smoothed, LORENZ, 0.05)
    mean_norm = np.sqrt((mu**2).sum(axis=1)).mean()
    assert mean_norm < 0.05


@pytest.mark.slow
def test_noise_moments_match_the_exact_linear_gaussian_posterior():
    # Acceptance criterion 2's setup and seeds. There u_t given y_{0:T} is
    # Gaussian with mean m_{t|T} - a m_{t-1|T} and variance
    # P_{t|T} + a^2 P_{t-1|T} - 2a C_{t,t-1|T}, from the RTS smoother.
    delta = float(-np.log(0.9))
    a = float(rk4_step(EXP_DECAY, np.array([1.0]), np.array([1.0]), delta)[0])
    config = FilterConfig(
        outer_particles=1,
        inner_particles=500,
        delta=delta,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=[[1.0 - 1e-12, 1.0 + 1e-12]],
        jitter_scale=0.0,
    )
    for seed in range(5000, 5020):
        root = RngSeed(seed)
        truth = simulate_hidden(
            EXP_DECAY, np.array([1.0]), np.array([0.0]), 200, delta, 1.0, root.child("sim")
        )
        ys = observe(truth, 1.0, root.child("obs"))
        history = keep_ancestral(
            run_filter(ys, EXP_DECAY, np.array([0.0]), config, root.child("filter"))
        )
        mu, var = abduct_noise(history, backward_smooth(history, EXP_DECAY, delta, 1.0),
                               EXP_DECAY, delta)
        _, m, p, c = kalman_filter_rts(ys[:, 0], a, 1.0, 1.0, 0.0, 0.0)
        exact_mu = m[1:] - a * m[:-1]
        exact_var = p[1:] + a * a * p[:-1] - 2.0 * a * c
        error = np.abs(mu[:, 0] - exact_mu).mean()
        ratio = np.median(np.sqrt(var[:, 0] / exact_var))
        assert error < 0.15, (seed, error)
        assert 0.9 <= ratio <= 1.1, (seed, ratio)
