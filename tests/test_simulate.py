import numpy as np
import pytest

from cfdyn.dynamics import EXP_DECAY, LORENZ, rk4_step
from cfdyn.errors import NumericsError
from cfdyn.seeding import RngSeed
from cfdyn.simulate import observe, simulate_hidden

LORENZ_THETA = np.array([10.0, 28.0, 8.0 / 3.0])
X0 = np.array([1.0, 1.0, 1.0])


def test_zero_noise_equals_rk4_composition():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 20, 0.05, 0.0, RngSeed(1))
    state = X0.copy()
    for t in range(1, 21):
        state = rk4_step(LORENZ, state, LORENZ_THETA, 0.05)
        assert np.array_equal(traj[t], state)


def test_lorenz_reference_config_stays_finite():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 2000, 0.05, 1.0, RngSeed(2))
    assert traj.shape == (2001, 3)
    assert np.isfinite(traj).all()


def test_process_residual_variance_matches_config():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 5000, 0.05, 1.0, RngSeed(3))
    resid = traj[1:] - np.array(
        [rk4_step(LORENZ, traj[t], LORENZ_THETA, 0.05) for t in range(5000)]
    )
    for k in range(3):
        assert abs(resid[:, k].var() - 1.0) < 0.1


def test_residuals_pass_lag1_autocorrelation_check():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 5000, 0.05, 1.0, RngSeed(4))
    resid = traj[1:] - np.array(
        [rk4_step(LORENZ, traj[t], LORENZ_THETA, 0.05) for t in range(5000)]
    )
    for k in range(3):
        r = resid[:, k] - resid[:, k].mean()
        r1 = (r[1:] * r[:-1]).mean() / r.var()
        assert abs(r1) < 3.0 / np.sqrt(5000)


def test_seed_determinism_bit_identical():
    a = simulate_hidden(LORENZ, LORENZ_THETA, X0, 50, 0.05, 1.0, RngSeed(5))
    b = simulate_hidden(LORENZ, LORENZ_THETA, X0, 50, 0.05, 1.0, RngSeed(5))
    assert np.array_equal(a, b)
    ya = observe(a, 2.0, RngSeed(5, 1))
    yb = observe(b, 2.0, RngSeed(5, 1))
    assert np.array_equal(ya, yb)


def test_simulation_blowup_reports_first_index():
    with pytest.raises(NumericsError) as err:
        simulate_hidden(
            EXP_DECAY, np.array([-120.0]), np.array([1.0]), 400, 0.05, 0.0, RngSeed(6)
        )
    assert err.value.index is not None and err.value.index >= 1


def test_observe_noiseless_identity():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 10, 0.05, 0.0, RngSeed(7))
    obs = observe(traj, 0.0, RngSeed(7, 1))
    assert np.array_equal(obs, traj)


def test_observation_noise_variance_matches_config():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 5000, 0.05, 0.0, RngSeed(9))
    obs = observe(traj, 2.0, RngSeed(9, 1))
    noise = obs - traj
    for k in range(3):
        assert abs(noise[:, k].var() - 4.0) < 0.4


def test_zero_noise_chain_reproduces_rk4_rollout():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 30, 0.05, 0.0, RngSeed(10))
    obs = observe(traj, 0.0, RngSeed(10, 1))
    state = X0.copy()
    rolled = [state]
    for _ in range(30):
        state = rk4_step(LORENZ, state, LORENZ_THETA, 0.05)
        rolled.append(state)
    assert np.array_equal(obs, np.array(rolled))


def test_noise_config_validation():
    with pytest.raises(ValueError, match="process_std"):
        simulate_hidden(LORENZ, LORENZ_THETA, X0, 5, 0.05, process_std=-1.0, rng=RngSeed(11))
    with pytest.raises(ValueError, match="observation_std"):
        observe(np.zeros((5, 3)), -0.5, RngSeed(11))
