import numpy as np
import pytest

from cfdyn.metrics import (
    divergence_onset,
    factual_rmse,
    moving_average,
    rmse_t,
)


def _ensemble(trajectories):
    """An (n, T+1, d) ensemble array, as `rmse_t` takes it."""
    return np.asarray(trajectories, dtype=float)


# --------------------------------------------------------------------- rmse


def test_rmse_zero_for_copies_of_reference():
    ref = np.arange(12, dtype=float).reshape(4, 3)
    ens = _ensemble(np.stack([ref, ref]))
    assert np.array_equal(rmse_t(ens, ref), np.zeros(4))


def test_rmse_constant_offset_single_trajectory():
    ref = np.zeros((6, 3))
    ens = _ensemble((np.zeros((6, 3)) + 2.0)[None])
    assert np.allclose(rmse_t(ens, ref), 2.0 * np.sqrt(3.0), rtol=1e-14)


def test_rmse_two_trajectory_closed_form():
    ref = np.zeros((1, 1))
    ens = _ensemble(np.array([[[3.0]], [[4.0]]]))
    assert abs(rmse_t(ens, ref)[0] - np.sqrt(12.5)) < 1e-12


def test_rmse_permutation_invariant():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(10, 3))
    trajs = rng.normal(size=(5, 10, 3))
    a = rmse_t(_ensemble(trajs), ref)
    b = rmse_t(_ensemble(trajs[::-1]), ref)
    assert np.allclose(a, b, rtol=1e-14)


def test_rmse_monotone_when_adding_farther_trajectory():
    rng = np.random.default_rng(4)
    ref = np.zeros((8, 2))
    trajs = rng.normal(size=(4, 8, 2))
    base = rmse_t(_ensemble(trajs), ref)
    far = base.max() * 10.0 + 1.0
    extended = np.concatenate([trajs, np.full((1, 8, 2), far)], axis=0)
    wider = rmse_t(_ensemble(extended), ref)
    assert (wider >= base - 1e-12).all()


def test_rmse_shape_mismatch_rejected():
    ref = np.zeros((5, 3))
    ens = _ensemble(np.zeros((2, 4, 3)))
    with pytest.raises(ValueError):
        rmse_t(ens, ref)


@pytest.mark.filterwarnings("error")
def test_rmse_averages_the_rows_still_finite_at_each_step():
    ref = np.zeros((4, 2))
    rows = np.array([
        [[3.0, 4.0], [3.0, 4.0], [np.nan, np.nan], [np.nan, np.nan]],
        [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [np.nan, np.nan]],
    ])
    out = rmse_t(_ensemble(rows), ref)
    expected = [np.sqrt(13.0), np.sqrt(14.5), 3.0, np.nan]
    assert np.allclose(out, expected, rtol=1e-15, equal_nan=True)


@pytest.mark.filterwarnings("error")
def test_rmse_rescales_steps_whose_sum_of_squares_overflows():
    # Distances of 3e200 and 4e200 square past the float64 range.
    ref = np.zeros((2, 1))
    rows = np.array([[[0.0], [3e200]], [[0.0], [4e200]]])
    out = rmse_t(_ensemble(rows), ref)
    assert out[0] == 0.0
    assert abs(out[1] / (np.sqrt(12.5) * 1e200) - 1.0) < 1e-14


# ----------------------------------------------------------- moving_average


def test_moving_average_constant_series_unchanged():
    series = np.full(50, 3.7)
    assert np.allclose(moving_average(series, 200), 3.7, rtol=1e-14)


def test_moving_average_window_one_identity():
    series = np.arange(10, dtype=float)
    assert np.array_equal(moving_average(series, 1), series)


def test_moving_average_three_term_center():
    series = np.array([0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0])
    out = moving_average(series, 3)
    assert out[3] == 1.0


def test_moving_average_commutes_with_scaling():
    rng = np.random.default_rng(5)
    series = rng.uniform(size=40)
    assert np.allclose(moving_average(2.5 * series, 7), 2.5 * moving_average(series, 7), rtol=1e-13)


def test_moving_average_never_negative_on_nonnegative_input():
    rng = np.random.default_rng(6)
    series = rng.uniform(size=60)
    assert (moving_average(series, 9) >= 0).all()


@pytest.mark.filterwarnings("error")
def test_moving_average_skips_nonfinite_values():
    series = np.array([1.0, np.nan, 3.0, np.inf, np.nan, np.nan, 5.0])
    out = moving_average(series, 3)
    assert np.allclose(out, [1.0, 2.0, 3.0, 3.0, np.nan, 5.0, 5.0], rtol=1e-15, equal_nan=True)


@pytest.mark.filterwarnings("error")
def test_moving_average_of_values_whose_running_sum_overflows():
    series = np.array([1e308, 1e308, 1e308, 1.0])
    out = moving_average(series, 3)
    assert np.allclose(out, [1e308, 1e308, 1e308 * (2.0 / 3.0), 0.5e308], rtol=1e-15)


def test_moving_average_rejects_bad_window():
    with pytest.raises(ValueError):
        moving_average(np.zeros(5), 0)


# --------------------------------------------------------- divergence_onset


def test_onset_none_for_flat_series():
    assert divergence_onset(np.zeros(100), 1.0) is None


def test_onset_detects_constructed_crossing():
    series = np.zeros(1000)
    series[500:] = 2.0
    assert divergence_onset(series, 1.0) == 500


def test_onset_on_linear_ramp():
    series = 0.01 * np.arange(1000, dtype=float)
    threshold = 3.0
    expected = int(np.floor(threshold / 0.01)) + 1
    assert divergence_onset(series, threshold) == expected


def test_onset_requires_positive_threshold():
    with pytest.raises(ValueError):
        divergence_onset(np.zeros(5), 0.0)


# -------------------------------------------------------------- factual_rmse


def test_factual_rmse_zero_for_identical():
    states = np.random.default_rng(7).normal(size=(9, 3))
    assert np.array_equal(factual_rmse(states, states.copy()), np.zeros(9))


def test_factual_rmse_constant_offset():
    truth = np.zeros((7, 3))
    est = np.zeros((7, 3)) + 1.5
    assert np.allclose(factual_rmse(est, truth), 1.5 * np.sqrt(3.0), rtol=1e-14)


def test_factual_rmse_equals_singleton_ensemble_rmse():
    rng = np.random.default_rng(8)
    truth = rng.normal(size=(12, 3))
    est_states = rng.normal(size=(12, 3))
    direct = factual_rmse(est_states, truth)
    via_ensemble = rmse_t(_ensemble(est_states[None]), truth)
    assert np.allclose(direct, via_ensemble, rtol=1e-14)


def test_factual_rmse_shape_mismatch():
    with pytest.raises(ValueError):
        factual_rmse(np.zeros((5, 3)), np.zeros((6, 3)))
