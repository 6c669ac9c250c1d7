from dataclasses import replace

import numpy as np
import pytest

from cfdyn.counterfactual import CfTrajectorySet, deterministic_cf, generate_cf, intervene
from cfdyn.dynamics import LOGISTIC, LORENZ
from cfdyn.errors import NumericsError
from cfdyn.experiment import PRESETS, stage_counterfactual
from cfdyn.seeding import RngSeed
from cfdyn.simulate import simulate_hidden

from .oracles import generate_cf_per_trajectory, particle_residual, roll_one

LORENZ_THETA = np.array([10.0, 28.0, 8.0 / 3.0])
X0 = np.array([1.0, 1.0, 1.0])
PINNED = np.zeros(3)


# -------------------------------------------------------------- intervene


def test_zero_shift_is_identity():
    out = intervene(X0, {"component": 1, "shift": 0.0})
    assert np.array_equal(out, X0)


def test_lorenz_first_component_perturbation():
    out = intervene(X0, {"component": 1, "shift": 1e-4})
    assert np.array_equal(out, np.array([1.0001, 1.0, 1.0]))


def test_logistic_additive_ten():
    out = intervene(np.array([10.0]), {"component": 1, "shift": 10.0})
    assert np.array_equal(out, np.array([20.0]))


def test_absolute_replacement():
    absolute = np.array([5.0, 6.0, 7.0])
    out = intervene(X0, {"absolute": absolute})
    assert np.array_equal(out, absolute)
    out[0] = 0.0
    assert absolute[0] == 5.0


def test_intervention_changes_exactly_one_component():
    out = intervene(X0, {"component": 2, "shift": 0.5})
    changed = out != X0
    assert changed.sum() == 1 and changed[1]


def test_component_out_of_range_rejected():
    with pytest.raises(ValueError):
        intervene(X0, {"component": 4, "shift": 1.0})
    with pytest.raises(ValueError):
        intervene(X0, {"component": 0, "shift": 1.0})


def test_intervention_form_validation():
    with pytest.raises(ValueError):
        intervene(X0, {})
    with pytest.raises(ValueError):
        intervene(X0, {"component": 1, "shift": 1.0, "absolute": np.zeros(3)})
    with pytest.raises(ValueError):
        intervene(X0, {"component": 1})
    with pytest.raises(ValueError):
        intervene(X0, {"component": 1, "shift": 1.0, "scale": 2.0})
    with pytest.raises(ValueError):
        intervene(X0, {"absolute": np.zeros(2)})


# ------------------------------------------------------- parameter regimes


def _regime_thetas(regime, theta_mean, theta_std):
    config = replace(PRESETS["lorenz"], horizon=5, n_cf=4, theta_regime=regime)
    noise = (np.zeros((5, 3)), np.full((5, 3), 0.25))
    (_, _, thetas), _ = stage_counterfactual(config, (theta_mean, theta_std), noise)
    return config, thetas


def test_true_regime_returns_true_theta():
    config, thetas = _regime_thetas("true", LORENZ_THETA + 1.5, np.array([0.5, 1.0, 0.1]))
    want = np.array(config.theta_true)
    assert thetas.tobytes() == np.tile(want, (4, 1)).tobytes()


def test_point_regime_returns_theta_mean():
    theta_mean = np.array([9.5, 27.25, 2.625])
    _, thetas = _regime_thetas("point", theta_mean, np.array([0.5, 1.0, 0.1]))
    assert thetas.tobytes() == np.tile(theta_mean, (4, 1)).tobytes()


def test_posterior_regime_with_zero_spread_is_point():
    noise = (np.zeros((1, 3)), np.zeros((1, 3)))
    ens = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 1, 0.05, 5, RngSeed(2))
    assert ens.thetas.tobytes() == np.tile(LORENZ_THETA, (5, 1)).tobytes()


def test_posterior_regime_spread_matches_std():
    std = np.array([0.5, 1.5, 0.1])
    noise = (np.zeros((1, 3)), np.zeros((1, 3)))
    draws = generate_cf(LORENZ, np.zeros(3), std, noise, X0, 1, 0.05, 10000, RngSeed(3)).thetas
    assert (np.abs(draws.std(axis=0) - std) < 0.05 * std).all()


def test_regime_reference_requirements():
    # Every parameter needs its own spread: a short or scalar theta_std is
    # rejected rather than broadcast.
    noise = (np.zeros((5, 3)), np.zeros((5, 3)))
    for theta_std in (np.zeros(2), np.zeros(()), np.zeros(1)):
        with pytest.raises(ValueError, match="theta_std"):
            generate_cf(LORENZ, LORENZ_THETA, theta_std, noise, X0, 5, 0.05, 2, RngSeed(1))


def test_noise_posterior_of_another_dimension_rejected():
    # A (T, 1) posterior would broadcast over the three Lorenz components.
    noise = (np.zeros((10, 1)), np.ones((10, 1)))
    with pytest.raises(ValueError, match=r"shapes \(10, 1\) and \(10, 1\), lorenz needs"):
        generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 10, 0.05, 3, RngSeed(1))
    wide = (np.zeros((10, 3)), np.ones((10, 3)))
    with pytest.raises(ValueError, match=r"shapes \(10, 3\) and \(10, 3\), logistic needs"):
        generate_cf(LOGISTIC, np.array([0.5, 100.0]), np.zeros(2), wide, np.array([10.0]),
                    10, 0.05, 3, RngSeed(1))


def test_noise_pair_validation():
    def run(noise):
        generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 5, 0.05, 1, RngSeed(1))

    for noise in ((np.zeros((5, 3)), np.zeros((4, 3))), (np.zeros(3), np.zeros(3)),
                  (np.zeros((5, 3)),), (np.zeros((5, 3)),) * 3):
        with pytest.raises(ValueError):
            run(noise)
    for bad in (np.nan, np.inf, -np.inf):
        mu = np.zeros((5, 3))
        mu[2, 1] = bad
        with pytest.raises(ValueError, match="noise means must be finite"):
            run((mu, np.zeros((5, 3))))
    for bad in (np.nan, -1.0):
        var = np.zeros((5, 3))
        var[4, 0] = bad
        with pytest.raises(ValueError, match=f"noise variances must be >= 0, got {bad!r}"):
            run((np.zeros((5, 3)), var))


@pytest.mark.parametrize("bad", [-1.0, np.nan])
def test_negative_or_nan_theta_std_rejected(bad):
    # A std below 0 would draw every trajectory under the mirrored spread.
    theta_std = np.array([0.5, bad, 0.1])
    noise = (np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(ValueError, match=f"theta_std must be >= 0, got {bad!r}"):
        generate_cf(LORENZ, LORENZ_THETA, theta_std, noise, X0, 5, 0.05, 2, RngSeed(1))


# ------------------------------------------------------------- generate_cf


def _recorded_noise_posterior(traj, theta):
    mu = np.array(
        [
            particle_residual(traj[t], traj[t - 1], theta, LORENZ, 0.05)
            for t in range(1, len(traj))
        ]
    )
    return mu, np.zeros_like(mu)


def test_identity_counterfactual_reproduces_factual():
    traj = simulate_hidden(LORENZ, LORENZ_THETA, X0, 60, 0.05, 1.0, RngSeed(4))
    noise = _recorded_noise_posterior(traj, LORENZ_THETA)
    ens = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 60, 0.05, 3, RngSeed(5))
    for i in range(3):
        assert np.abs(ens.trajectories[i] - traj).max() < 1e-9


def test_zero_noise_true_theta_equals_deterministic_rollout():
    noise = (np.zeros((40, 3)), np.zeros((40, 3)))
    ens = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 40, 0.05, 2, RngSeed(6))
    ref = deterministic_cf(LORENZ, LORENZ_THETA, X0, 40, 0.05)
    for i in range(2):
        assert np.array_equal(ens.trajectories[i], ref)


def test_logistic_reaches_carrying_capacity():
    theta = np.array([0.5, 100.0])
    noise = (np.zeros((500, 1)), np.zeros((500, 1)))
    ens = generate_cf(
        LOGISTIC, theta, np.zeros(2), noise, np.array([20.0]), 500, 0.05, 1, RngSeed(7)
    )
    assert abs(ens.trajectories[0, -1, 0] - 100.0) < 0.1


def test_posterior_zero_spread_bit_identical_to_point():
    noise = (np.zeros((20, 3)), np.full((20, 3), 0.25))
    # Zero spread draws z_i and adds 0 * z_i; the oracle copies theta and draws nothing.
    ens = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 20, 0.05, 4, RngSeed(8))
    trajectories, thetas, _ = generate_cf_per_trajectory(
        LORENZ, LORENZ_THETA, None, noise, X0, 20, 0.05, 4, RngSeed(8)
    )
    assert ens.trajectories.tobytes() == trajectories.tobytes()
    assert ens.thetas.tobytes() == thetas.tobytes()


def test_trajectories_use_independent_substreams():
    noise = (np.zeros((15, 3)), np.ones((15, 3)))
    small = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 15, 0.05, 3, RngSeed(9))
    large = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 15, 0.05, 6, RngSeed(9))
    assert np.array_equal(small.trajectories, large.trajectories[:3])


@pytest.mark.parametrize("rate", [-40.0, -160.0])
def test_batched_ensemble_matches_per_trajectory_loop(rate):
    # At -40 the rates straddle the blow-up threshold, so rows fail at different
    # steps or not at all; at -160 every row fails and the rollout stops early.
    from cfdyn.dynamics import EXP_DECAY

    noise = (np.full((300, 1), 0.01), np.full((300, 1), 1e-4))
    theta, theta_std = np.array([rate]), np.array([40.0])
    args = (EXP_DECAY, theta, theta_std, noise, np.array([1.0]), 300, 0.05, 24, RngSeed(10))
    ens = generate_cf(*args)
    trajectories, thetas, failures = generate_cf_per_trajectory(*args)
    assert len(set(failures.tolist()) - {-1}) >= 3
    assert (failures == -1).any() == (rate == -40.0)
    assert np.array_equal(ens.failure_index, failures)
    assert np.array_equal(ens.thetas, thetas)
    assert trajectories.tobytes() == ens.trajectories.tobytes()


def test_batched_lorenz_ensemble_matches_per_trajectory_loop():
    noise = (np.full((80, 3), 0.1), np.full((80, 3), 0.5))
    theta_std = np.array([0.5, 1.0, 0.1])
    args = (LORENZ, LORENZ_THETA, theta_std, noise, X0, 80, 0.05, 7, RngSeed(14))
    ens = generate_cf(*args)
    trajectories, thetas, failures = generate_cf_per_trajectory(*args)
    assert (ens.failure_index == -1).all() and (failures == -1).all()
    assert np.array_equal(ens.thetas, thetas)
    assert trajectories.tobytes() == ens.trajectories.tobytes()


def test_short_noise_posterior_rejected():
    noise = (np.zeros((5, 3)), np.zeros((5, 3)))
    with pytest.raises(ValueError):
        generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, X0, 10, 0.05, 1, RngSeed(11))


def test_nonfinite_trajectory_truncated_and_flagged():
    theta = np.array([-120.0])
    noise = (np.zeros((300, 1)), np.zeros((300, 1)))
    from cfdyn.dynamics import EXP_DECAY

    ens = generate_cf(
        EXP_DECAY, theta, np.zeros(1), noise, np.array([1.0]), 300, 0.5, 2, RngSeed(12)
    )
    assert (ens.failure_index >= 1).all()
    first_bad = ens.failure_index[0]
    assert np.isnan(ens.trajectories[0, first_bad:]).all()
    assert np.isfinite(ens.trajectories[0, : first_bad - 1]).all()


# --------------------------------------------------------- deterministic_cf


def test_single_rollouts_report_first_failing_step():
    from cfdyn.dynamics import EXP_DECAY

    theta, x0 = np.array([-120.0]), np.array([1.0])
    _, step = roll_one(EXP_DECAY, x0, theta, 400, 0.5)
    assert step > 1
    with pytest.raises(NumericsError) as exc:
        deterministic_cf(EXP_DECAY, theta, x0, 400, 0.5)
    assert exc.value.index == step
    assert str(exc.value) == f"deterministic rollout became non-finite at step {step}"

    u = RngSeed(15).generator().normal(0.0, 0.1, size=(400, 1))
    _, step = roll_one(EXP_DECAY, x0, theta, 400, 0.5, u)
    with pytest.raises(NumericsError) as exc:
        simulate_hidden(EXP_DECAY, theta, x0, 400, 0.5, 0.1, RngSeed(15))
    assert exc.value.index == step
    assert str(exc.value) == f"simulation became non-finite at step {step}"


def test_deterministic_cf_keeps_negative_zero():
    # Logistic growth fixes x = -0.0 exactly; adding a zero noise row would give +0.0.
    theta = np.array([0.5, 100.0])
    ref = deterministic_cf(LOGISTIC, theta, np.array([-0.0]), 3, 0.05)
    want, _ = roll_one(LOGISTIC, np.array([-0.0]), theta, 3, 0.05)
    assert ref.tobytes() == want.tobytes()
    assert np.signbit(ref).all()


def test_deterministic_cf_fixed_point_constant():
    ref = deterministic_cf(LORENZ, LORENZ_THETA, np.zeros(3), 25, 0.05)
    assert np.array_equal(ref, np.zeros((26, 3)))


def test_deterministic_cf_equals_noise_free_ensemble():
    noise = (np.zeros((30, 3)), np.zeros((30, 3)))
    x0_cf = intervene(X0, {"component": 1, "shift": 1e-4})
    ens = generate_cf(LORENZ, LORENZ_THETA, PINNED, noise, x0_cf, 30, 0.05, 1, RngSeed(13))
    ref = deterministic_cf(LORENZ, LORENZ_THETA, x0_cf, 30, 0.05)
    assert np.array_equal(ens.trajectories[0], ref)


def test_deterministic_cf_invariant_to_ensemble_settings():
    a = deterministic_cf(LORENZ, LORENZ_THETA, X0, 30, 0.05)
    b = deterministic_cf(LORENZ, LORENZ_THETA, X0, 30, 0.05)
    assert np.array_equal(a, b)


def test_butterfly_divergence_profile():
    # direct simulation: tiny initial shift stays tiny early, grows large later
    base = deterministic_cf(LORENZ, LORENZ_THETA, X0, 2000, 0.05)
    shifted = deterministic_cf(
        LORENZ, LORENZ_THETA, intervene(X0, {"component": 1, "shift": 1e-4}), 2000, 0.05
    )
    diff = np.abs(base - shifted).max(axis=1)
    assert diff[:51].max() < 0.01
    assert (diff > 1.0).any()
    assert int(np.argmax(diff > 1.0)) < 2000


def test_cf_trajectory_set_shape_accessors():
    traj = np.zeros((4, 11, 3))
    ens = CfTrajectorySet(trajectories=traj, thetas=np.zeros((4, 3)))
    assert ens.n_trajectories == 4
    assert ens.horizon == 10
