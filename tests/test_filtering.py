import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from cfdyn import filtering
from cfdyn.abduction import abduct_noise
from cfdyn.dynamics import EXP_DECAY, LOGISTIC, LORENZ, _rk4, rk4_step
from cfdyn.filtering import (
    FilterConfig,
    FilterDiagnostics,
    backward_smooth,
    init_particles,
    inner_weights,
    jitter,
    keep_ancestral,
    lineages,
    outer_weights,
    posterior_summary,
    propagate,
    run_filter,
    systematic_resample,
    systematic_resample_rows,
    take_particles,
)
from cfdyn.seeding import RngSeed
from cfdyn.simulate import observe, simulate_hidden

from .oracles import (
    FullHistory,
    abduct_noise_two_pass,
    backward_smooth_pairwise,
    bootstrap_particle_filter,
    filter_by_hand,
    gather_ancestral,
    gaussian_log_likelihood,
    kalman_filter_rts,
    lineage_trace,
    reorder_two_pass,
    systematic_resample_per_row,
)

LORENZ_THETA = np.array([10.0, 28.0, 8.0 / 3.0])
TABLE1_BOUNDS = np.array([[5.0, 15.0], [20.0, 35.0], [2.0, 4.0]])
DECAY_DELTA = float(-np.log(0.9))


def _decay_config(prior_bounds, n_inner, process_std=1.0, observation_std=1.0):
    return FilterConfig(
        outer_particles=1,
        inner_particles=n_inner,
        delta=DECAY_DELTA,
        process_std=process_std,
        observation_std=observation_std,
        prior_bounds=prior_bounds,
        jitter_scale=0.0,
    )


def _point_prior(theta, width=1e-12):
    theta = np.atleast_1d(theta)
    return np.stack([theta, theta + width], axis=1)


# ---------------------------------------------------------------- particles


def test_init_single_particle_weights_are_one():
    prior = _point_prior(np.array([1.0]))
    theta, states = init_particles(prior, 1, 1, np.array([0.0]), RngSeed(1))
    assert theta.shape == (1, 1) and states.shape == (1, 1, 1)
    obs = np.zeros((2, 1))
    history = run_filter(obs, EXP_DECAY, np.array([0.0]), _decay_config(prior, 1), RngSeed(1))
    assert history.inner_weights[0].tolist() == [[1.0]]
    assert history.outer_weights[0].tolist() == [1.0]


def test_init_respects_prior_support():
    theta, _ = init_particles(TABLE1_BOUNDS, 200, 3, np.zeros(3), RngSeed(2))
    assert ((theta >= TABLE1_BOUNDS[:, 0]) & (theta <= TABLE1_BOUNDS[:, 1])).all()


def test_init_uniform_sample_mean():
    theta, _ = init_particles(TABLE1_BOUNDS, 10000, 1, np.zeros(3), RngSeed(3))
    assert abs(theta[:, 0].mean() - 10.0) < 0.2


def test_init_rejects_bad_bounds():
    cases = [
        ([[1.0, 1.0]], 0.05, "'prior_bounds' pair 0 must satisfy low < high"),
        ([[2.0, 1.0]], 0.05, "'prior_bounds' pair 0 must satisfy low < high"),
        ([[1.0, 2.0, 3.0]], 0.05, "'prior_bounds' pair 0 must be two numbers"),  # (p, 3)
        ([1.0, 2.0], 0.05, "'prior_bounds' pair 0 must be two numbers"),  # 1-D
        ([[1.0, 2.0], [3.0]], 0.05, "'prior_bounds' pair 1 must be two numbers"),  # ragged
        (5, 0.05, "'prior_bounds' must be a list of"),  # not iterable
        (None, 0.05, "'prior_bounds' must be a list of"),
        ([[1.0, 2.0]], -0.05, "'jitter_scale' must be >= 0"),
    ]
    for bounds, jitter_scale, match in cases:
        with pytest.raises(ValueError, match=match):
            FilterConfig(
                outer_particles=4,
                inner_particles=4,
                delta=0.05,
                process_std=1.0,
                observation_std=1.0,
                prior_bounds=bounds,
                jitter_scale=jitter_scale,
            )


def test_filter_configs_of_equal_settings_compare_and_hash_equal():
    settings = dict(
        outer_particles=4, inner_particles=5, delta=0.05, process_std=1.0,
        observation_std=1.0, jitter_scale=0.05,
    )
    a = FilterConfig(prior_bounds=TABLE1_BOUNDS, **settings)
    b = FilterConfig(prior_bounds=TABLE1_BOUNDS.tolist(), **settings)
    assert a == b and hash(a) == hash(b)
    assert a.prior_bounds == ((5.0, 15.0), (20.0, 35.0), (2.0, 4.0))
    assert a != replace(a, jitter_scale=0.1)


# ------------------------------------------------------------------- jitter


def test_jitter_zero_scale_is_identity():
    # On the point priors too, theta drawn inside and at exactly low and high:
    # theta - low is exact there, so the reflection gives theta back.
    for bounds in (TABLE1_BOUNDS, _point_prior(LORENZ_THETA), _point_prior(LORENZ_THETA, 2e-9)):
        theta, _ = init_particles(bounds, 20, 2, np.zeros(3), RngSeed(4))
        theta[0], theta[1] = bounds[:, 0], bounds[:, 1]
        out = jitter(theta, np.zeros(3), bounds, RngSeed(4, 9))
        assert out.tobytes() == theta.tobytes()


def test_jitter_clamped_stays_in_bounds():
    theta, _ = init_particles(TABLE1_BOUNDS, 500, 1, np.zeros(3), RngSeed(5))
    out = jitter(theta, np.array([5.0, 5.0, 5.0]), TABLE1_BOUNDS, RngSeed(5, 9))
    assert ((out >= TABLE1_BOUNDS[:, 0]) & (out <= TABLE1_BOUNDS[:, 1])).all()


def test_jitter_spread_matches_scale():
    wide = np.array([[-100.0, 100.0]])
    out = jitter(np.zeros((10000, 1)), np.array([0.1]), wide, RngSeed(6, 9))
    assert abs(out[:, 0].std() - 0.1) < 0.005


# ---------------------------------------------------------------- propagate


def test_propagate_zero_noise_is_deterministic_step():
    prior = _point_prior(LORENZ_THETA)
    theta, states = init_particles(prior, 1, 1, np.array([1.0, 1.0, 1.0]), RngSeed(7))
    out, _ = propagate(states, theta, LORENZ, 0.05, 0.0, RngSeed(7, 9))
    expected = rk4_step(LORENZ, np.array([1.0, 1.0, 1.0]), theta[0], 0.05)
    assert np.array_equal(out[0, 0], expected)


def test_propagate_fixed_point_unchanged():
    prior = _point_prior(LORENZ_THETA)
    theta, states = init_particles(prior, 3, 4, np.zeros(3), RngSeed(8))
    out, _ = propagate(states, theta, LORENZ, 0.05, 0.0, RngSeed(8, 9))
    assert np.allclose(out, 0.0, atol=1e-12)


def test_propagate_noise_variance():
    prior = _point_prior(LORENZ_THETA)
    theta, states = init_particles(prior, 200, 200, np.array([1.0, 1.0, 1.0]), RngSeed(9))
    out, _ = propagate(states, theta, LORENZ, 0.05, 1.0, RngSeed(9, 9))
    base = rk4_step(LORENZ, np.array([1.0, 1.0, 1.0]), theta[0], 0.05)
    disp = (out - base).reshape(-1, 3)
    for k in range(3):
        assert abs(disp[:, k].var() - 1.0) < 0.05


def test_propagate_flags_nonfinite_particles():
    prior = _point_prior(np.array([-120.0]))
    theta, states = init_particles(prior, 1, 4, np.array([1e300]), RngSeed(10))
    out, invalid = propagate(states, theta, EXP_DECAY, 1e6, 0.0, RngSeed(10, 9))
    assert invalid.shape == (1, 4) and invalid.all()
    assert np.isfinite(out).all()


# --------------------------------------------------------- per-lane draws
# jitter, propagate and the inner resampling draw each lane's values from its
# own substream into one block per step; they must have the bytes of drawing
# lane by lane with `normal()` and `uniform()` from a fresh child generator.


def test_jitter_draws_match_per_lane_child_generators():
    theta, _ = init_particles(TABLE1_BOUNDS, 7, 2, np.zeros(3), RngSeed(31))
    std = np.array([0.3, 0.7, 0.05])
    rng = RngSeed(31, 5)
    out = jitter(theta, std, TABLE1_BOUNDS, rng)
    want = filtering._reflect(
        np.stack([
            theta[m] + std * rng.child("lane", m).generator().normal(size=3) for m in range(7)
        ]),
        TABLE1_BOUNDS[:, 0],
        TABLE1_BOUNDS[:, 1],
    )
    assert out.tobytes() == want.tobytes()


def _per_lane_propagate(states, theta, spec, delta, process_std, rng):
    base = _rk4(spec, states, theta[:, None, :], delta)
    return np.stack([
        base[m] + rng.child("lane", m).generator().normal(
            0.0, process_std, size=(states.shape[1], spec.dimension)
        )
        for m in range(states.shape[0])
    ])


@pytest.mark.parametrize("process_std", [1.0, 0.37, 0.0])
def test_propagate_draws_match_per_lane_child_generators(process_std):
    theta, states = init_particles(TABLE1_BOUNDS, 5, 6, np.array([1.0, -2.0, 20.0]), RngSeed(32))
    rng = RngSeed(32, 7)
    out, invalid = propagate(states, theta, LORENZ, 0.05, process_std, rng)
    assert not invalid.any()
    want = _per_lane_propagate(states, theta, LORENZ, 0.05, process_std, rng)
    assert out.tobytes() == want.tobytes()


def test_propagate_without_noise_turns_negative_zero_into_zero():
    # The logistic flow keeps x = -0.0 at -0.0; the per-lane draw adds
    # 0.0 + 0.0 * z, so every state leaves as +0.0.
    theta = np.tile([0.5, 100.0], (3, 1))
    states = np.full((3, 4, 1), -0.0)
    rng = RngSeed(33, 1)
    out, _ = propagate(states, theta, LOGISTIC, 0.05, 0.0, rng)
    want = _per_lane_propagate(states, theta, LOGISTIC, 0.05, 0.0, rng)
    assert not np.signbit(want).any()
    assert out.tobytes() == want.tobytes()


def test_inner_resample_uniforms_match_per_lane_child_generators(monkeypatch):
    truth = simulate_hidden(
        LORENZ, LORENZ_THETA, np.array([1.0, 1.0, 1.0]), 6, 0.05, 1.0, RngSeed(34)
    )
    obs = observe(truth, 1.0, RngSeed(34, 1))
    config = FilterConfig(
        outer_particles=4,
        inner_particles=5,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=TABLE1_BOUNDS,
        jitter_scale=0.05,
    )
    seen = []
    batched = filtering.systematic_resample_rows

    def record(weights, uniforms):
        seen.append(uniforms.tobytes())
        return batched(weights, uniforms)

    monkeypatch.setattr(filtering, "systematic_resample_rows", record)
    rng = RngSeed(35)
    run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, rng)
    want = [
        np.array([
            rng.child("step", t).child("inner_resample", lane).generator().uniform()
            for lane in range(config.outer_particles)
        ]).tobytes()
        for t in range(1, 7)
    ]
    assert seen == want


# --------------------------------------------------------------- likelihood


def test_gaussian_loglik_at_mean_1d():
    value = gaussian_log_likelihood(np.array([2.0]), np.array([2.0]), 1.0)
    assert abs(value - np.log(1.0 / np.sqrt(2.0 * np.pi))) < 1e-12


def test_gaussian_loglik_symmetry():
    obs = np.array([1.0, 2.0, 3.0])
    a = gaussian_log_likelihood(obs, obs + [0.5, 0.0, 0.0], 2.0)
    b = gaussian_log_likelihood(obs, obs - [0.5, 0.0, 0.0], 2.0)
    assert a == b


def test_gaussian_loglik_three_sigma_gap():
    obs = np.array([0.0])
    at_mean = gaussian_log_likelihood(obs, np.array([0.0]), 2.0)
    at_3s = gaussian_log_likelihood(obs, np.array([6.0]), 2.0)
    assert abs((at_3s - at_mean) + 4.5) < 1e-12


def test_gaussian_loglik_rejects_zero_std():
    with pytest.raises(ValueError):
        gaussian_log_likelihood(np.array([0.0]), np.array([0.0]), 0.0)


# ------------------------------------------------------------ inner weights


def _cloud_from_states(states):
    """(states, uniform weights, no invalid particle) for inner_weights."""
    states = np.asarray(states, dtype=float)
    m, n, _ = states.shape
    return states, np.full((m, n), 1.0 / n), np.zeros((m, n), dtype=bool)


def test_inner_weights_single_particle():
    cloud = _cloud_from_states(np.zeros((1, 1, 1)))
    w, _ = inner_weights(*cloud, np.array([3.0]), 1.0, FilterDiagnostics())
    assert w[0, 0] == 1.0


def test_inner_weights_ordering_and_normalization():
    cloud = _cloud_from_states([[[0.0], [5.0]]])
    w, _ = inner_weights(*cloud, np.array([0.0]), 1.0, FilterDiagnostics())
    w = w[0]
    assert w[0] > w[1]
    assert abs(w.sum() - 1.0) < 1e-12


def test_inner_weights_match_density_ratios():
    # three hand-placed scalar particles; oracle is the exact Gaussian ratio
    states = np.array([[[0.0], [1.0], [2.5]]])
    obs = np.array([0.5])
    sigma = 0.8
    w, log_mean_lik = inner_weights(*_cloud_from_states(states), obs, sigma, FilterDiagnostics())
    dens = np.exp(-0.5 * (obs[0] - states[0, :, 0]) ** 2 / sigma**2)
    expected = dens / dens.sum()
    assert np.allclose(w[0], expected, rtol=1e-12)
    loglik = [gaussian_log_likelihood(obs, x, sigma) for x in states[0]]
    assert np.isclose(log_mean_lik[0], np.log(np.mean(np.exp(loglik))), rtol=1e-12)


def test_inner_weights_underflow_falls_back_to_uniform():
    # distances large enough that the squared residual overflows to inf
    states = np.array([[[1e200], [2e200]]])
    diagnostics = FilterDiagnostics()
    w, log_mean_lik = inner_weights(*_cloud_from_states(states), np.array([0.0]), 1.0, diagnostics)
    assert np.allclose(w[0], 0.5)
    assert log_mean_lik[0] == -np.inf
    assert diagnostics.inner_weight_underflows == 1


@pytest.mark.filterwarnings("error")
def test_inner_weights_dead_lane_leaves_its_neighbours_bit_for_bit():
    # Lane 1's particles are all invalid, so its every score is -inf.
    states = RngSeed(90).generator().normal(size=(3, 5, 2))
    prior = RngSeed(91).generator().dirichlet(np.ones(5), size=3)
    invalid = np.zeros((3, 5), dtype=bool)
    invalid[1] = True
    obs = np.array([0.3, -0.2])
    diagnostics = FilterDiagnostics()
    w, log_mean_lik = inner_weights(states, prior, invalid, obs, 0.7, diagnostics)
    live = [0, 2]
    w_live, log_mean_live = inner_weights(
        states[live], prior[live], invalid[live], obs, 0.7, FilterDiagnostics()
    )
    assert np.array_equal(w[live], w_live) and np.array_equal(log_mean_lik[live], log_mean_live)
    assert (w[1] == 1.0 / 5).all() and log_mean_lik[1] == -np.inf
    assert diagnostics.inner_weight_underflows == 1 and diagnostics.nonfinite_particles == 5


# ------------------------------------------------------------ outer weights


def test_outer_weights_single_lane():
    diagnostics = FilterDiagnostics()
    _, log_mean_lik = inner_weights(
        *_cloud_from_states(np.zeros((1, 2, 1))), np.array([0.0]), 1.0, diagnostics
    )
    assert outer_weights(log_mean_lik, diagnostics)[0] == 1.0


def test_outer_weights_identical_lanes_equal():
    diagnostics = FilterDiagnostics()
    _, log_mean_lik = inner_weights(
        *_cloud_from_states(np.zeros((3, 4, 1))), np.array([0.3]), 1.0, diagnostics
    )
    assert np.allclose(outer_weights(log_mean_lik, diagnostics), 1.0 / 3.0)


def test_outer_weights_proportional_to_mean_likelihood():
    v = outer_weights(np.log(np.array([0.2, 0.8])), FilterDiagnostics())
    assert np.allclose(v, [0.2, 0.8], rtol=1e-12)


# ----------------------------------------------------------------- resample


def test_systematic_degenerate_weight_takes_all():
    w = np.array([1.0, 0.0, 0.0, 0.0])
    idx = systematic_resample(w, RngSeed(11).generator())
    assert (idx == 0).all()


def test_systematic_uniform_weights_identity():
    w = np.full(64, 1.0 / 64)
    idx = systematic_resample(w, RngSeed(12).generator())
    assert np.array_equal(np.sort(idx), np.arange(64))


def test_systematic_offspring_expectation():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    gen = RngSeed(13).generator()
    counts = np.zeros(4)
    trials = 10000
    for _ in range(trials):
        idx = np.clip(np.searchsorted(np.cumsum(w), (gen.uniform() + np.arange(4)) / 4), 0, 3)
        counts += np.bincount(idx, minlength=4)
    expected = 4 * w
    assert (np.abs(counts / trials - expected) < 0.05 * expected).all()


def test_batched_resample_matches_per_row_search_on_random_weights():
    gen = RngSeed(40).generator()
    for n in (1, 2, 7, 50, 64):
        weights = gen.dirichlet(np.full(n, 0.3), size=33)
        uniforms = gen.uniform(size=33)
        got = systematic_resample_rows(weights, uniforms)
        assert np.array_equal(got, systematic_resample_per_row(weights, uniforms))


def test_batched_resample_matches_per_row_search_on_degenerate_rows():
    weights = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.5, 0.0, 0.5, 0.0],
        [1e-300, 0.0, 0.0, 1.0 - 1e-300, 0.0],
        [0.2, 0.2, 0.2, 0.2, 0.2 - 1e-16],
    ])
    for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
        uniforms = np.full(weights.shape[0], u)
        got = systematic_resample_rows(weights, uniforms)
        assert np.array_equal(got, systematic_resample_per_row(weights, uniforms))
    assert (systematic_resample_rows(weights[1:2], np.array([0.3])) == 4).all()


def test_batched_resample_resolves_exact_ties_like_searchsorted_left():
    # Uniform weights with u = 0 put positions on the cumulative sums themselves.
    for n in (3, 4, 5, 10, 49, 50, 64, 200):
        weights = np.full((3, n), 1.0 / n)
        uniforms = np.zeros(3)
        got = systematic_resample_rows(weights, uniforms)
        assert np.array_equal(got, systematic_resample_per_row(weights, uniforms))
    assert systematic_resample_rows(np.full((1, 4), 0.25), np.zeros(1)).tolist() == [[0, 0, 1, 2]]


def test_batched_resample_matches_per_row_search_where_cumsums_hit_positions():
    gen = RngSeed(41).generator()
    for n in (2, 4, 8, 16):
        for u in (0.25, 0.5, 0.75):
            positions = (u + np.arange(n)) / n
            # Each row's cumulative sums are a random subset of its positions, then 1.
            ends = [np.append(np.sort(gen.choice(positions, size=k, replace=False)), 1.0)
                    for k in gen.integers(1, n, size=6)]
            weights = np.zeros((6, n))
            for row, end in zip(weights, ends):
                row[np.sort(gen.choice(n, size=end.size, replace=False))] = np.diff(end, prepend=0.0)
            cum = np.cumsum(weights, axis=1)
            assert all(np.isin(end[:-1], cum[r]).all() for r, end in enumerate(ends))
            uniforms = np.full(6, u)
            got = systematic_resample_rows(weights, uniforms)
            assert np.array_equal(got, systematic_resample_per_row(weights, uniforms))


def test_batched_resample_matches_per_row_search_when_the_sum_misses_one():
    for n in (3, 4, 10, 50):
        weights = np.full((7, n), 1.0 / n)
        weights[:, -1] += np.arange(-3, 4) * np.spacing(1.0)
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            uniforms = np.full(7, u)
            got = systematic_resample_rows(weights, uniforms)
            assert np.array_equal(got, systematic_resample_per_row(weights, uniforms))


class _FixedUniform:
    """A generator stand-in whose `uniform()` returns one fixed value."""

    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


def test_one_row_resample_matches_the_batched_kernel():
    gen = RngSeed(42).generator()
    rows = [gen.dirichlet(np.full(n, 0.3)) for n in (1, 2, 7, 50, 200) for _ in range(20)]
    rows += [np.eye(5)[k] for k in range(5)]  # one-hot
    rows += [np.full(n, 1.0 / n) for n in (3, 4, 10, 49, 50, 64)]  # ties at u = 0
    for w in rows:
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0), gen.uniform()):
            got = systematic_resample(w, _FixedUniform(u))
            want = systematic_resample_rows(w[None], np.array([u]))[0]
            assert got.dtype == want.dtype and np.array_equal(got, want), (w, u)
    # The generator's one draw is the row's uniform.
    w = rows[0]
    got = systematic_resample(w, RngSeed(43).generator())
    want = systematic_resample_rows(w[None], np.array([RngSeed(43).generator().uniform()]))[0]
    assert np.array_equal(got, want)


def test_resample_carries_inner_clouds():
    states = np.arange(2 * 3 * 1, dtype=float).reshape(2, 3, 1)
    ancestors = systematic_resample(np.array([1.0, 0.0]), RngSeed(14).generator())
    assert (ancestors == 0).all()
    inner = np.array([[2, 1, 0], [0, 0, 0]], dtype=np.uint8)
    out = take_particles(states, ancestors, inner[ancestors])
    assert np.array_equal(out[0], states[0, ::-1]) and np.array_equal(out[1], states[0, ::-1])


# --------------------------------------------------------------- run_filter


def test_degenerate_filter_recovers_noiseless_truth():
    # simulate the truth with the exact parameter the filter will draw from
    # its init substream, so the fully degenerate filter must match bitwise
    prior = _point_prior(np.array([1.0]))
    filter_seed = RngSeed(16)
    drawn = init_particles(prior, 1, 1, np.array([1.0]), filter_seed.child("init"))[0][0]
    truth = simulate_hidden(
        EXP_DECAY, drawn, np.array([1.0]), 30, 0.1, 0.0, RngSeed(15)
    )
    obs = observe(truth, 0.0, RngSeed(15, 1))
    config = FilterConfig(
        outer_particles=1,
        inner_particles=1,
        delta=0.1,
        process_std=0.0,
        observation_std=1.0,
        prior_bounds=prior,
        jitter_scale=0.0,
    )
    history = run_filter(obs, EXP_DECAY, np.array([1.0]), config, filter_seed)
    assert np.array_equal(history.filtered_means, truth)


def test_filter_matches_independent_bootstrap_pf():
    # M=1, zero jitter, pinned parameter: the nested filter collapses to a
    # plain bootstrap filter; compare against an independent implementation
    # placed on the same seed streams.
    theta = np.array([1.0])
    root = RngSeed(17)
    truth = simulate_hidden(
        EXP_DECAY, theta, np.array([0.0]), 40, DECAY_DELTA, 1.0, root.child("sim")
    )
    obs = observe(truth, 1.0, root.child("obs"))
    prior = _point_prior(theta)
    filter_seed = root.child("filter")
    history = run_filter(obs, EXP_DECAY, np.array([0.0]), _decay_config(prior, 64), filter_seed)
    # One lane, so the lineage keeps every step and row t is step t.
    drawn_theta = history.thetas[0]

    def step_fn(states, th):
        out = states.copy()
        for i in range(states.shape[0]):
            out[i] = rk4_step(EXP_DECAY, states[i], th, DECAY_DELTA)
        return out

    parts, weights = bootstrap_particle_filter(
        obs, step_fn, drawn_theta, np.array([0.0]), 64, 1.0, 1.0, filter_seed
    )
    assert np.array_equal(history.states, parts)
    assert np.array_equal(history.inner_weights[:, 0], weights)


def test_filter_weights_normalized_every_step():
    truth = simulate_hidden(
        LORENZ, LORENZ_THETA, np.array([1.0, 1.0, 1.0]), 25, 0.05, 1.0, RngSeed(18)
    )
    obs = observe(truth, 1.0, RngSeed(18, 1))
    config = FilterConfig(
        outer_particles=8,
        inner_particles=12,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=TABLE1_BOUNDS,
        jitter_scale=0.05,
    )
    history = run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, RngSeed(19))
    assert np.allclose(history.inner_weights.sum(axis=2), 1.0, atol=1e-9)
    assert np.allclose(history.outer_weights.sum(axis=1), 1.0, atol=1e-9)
    smoothed = backward_smooth(keep_ancestral(history), LORENZ, 0.05, 1.0)
    assert np.allclose(smoothed.w_tilde.sum(axis=(1, 2)), 1.0, atol=1e-9)
    assert np.allclose(smoothed.v_tilde.sum(axis=1), 1.0, atol=1e-9)


def test_filter_seed_determinism():
    truth = simulate_hidden(
        LORENZ, LORENZ_THETA, np.array([1.0, 1.0, 1.0]), 15, 0.05, 1.0, RngSeed(20)
    )
    obs = observe(truth, 1.0, RngSeed(20, 1))
    config = FilterConfig(
        outer_particles=6,
        inner_particles=7,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=TABLE1_BOUNDS,
        jitter_scale=0.05,
    )
    h1 = run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, RngSeed(21))
    h2 = run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, RngSeed(21))
    assert np.array_equal(h1.states, h2.states)
    assert np.array_equal(h1.thetas, h2.thetas)
    assert np.array_equal(h1.outer_ancestors, h2.outer_ancestors)


def test_filter_without_inner_resampling_accumulates_weights():
    truth = simulate_hidden(
        LORENZ, LORENZ_THETA, np.array([1.0, 1.0, 1.0]), 20, 0.05, 1.0, RngSeed(50)
    )
    obs = observe(truth, 1.0, RngSeed(50, 1))
    config = FilterConfig(
        outer_particles=5,
        inner_particles=40,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=TABLE1_BOUNDS,
        jitter_scale=0.05,
        inner_resampling=False,
    )
    history = run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, RngSeed(51))
    assert np.allclose(history.inner_weights.sum(axis=2), 1.0, atol=1e-9)
    assert (history.inner_ancestors == np.arange(40)).all()
    # without resampling the inner weights should visibly degenerate over time
    ess_first = 1.0 / (history.inner_weights[1] ** 2).sum(axis=1)
    ess_last = 1.0 / (history.inner_weights[-1] ** 2).sum(axis=1)
    assert ess_last.mean() < ess_first.mean()


@pytest.mark.parametrize("case", ["inner_resampling", "no_inner_resampling", "nonfinite"])
def test_run_filter_equals_its_steps_composed_by_hand(case):
    if case == "nonfinite":
        # dX/dt = 100..120 X at step 1e6 overflows within a few steps; the
        # zeroed particles then grow from their process noise and overflow
        # again, lane by lane.
        system, x0 = EXP_DECAY, np.array([1.0])
        prior = np.array([[-120.0, -100.0]])
        obs = np.zeros((16, 1))
        delta = 1e6
    else:
        system, x0, prior, delta = LORENZ, np.array([1.0, 1.0, 1.0]), TABLE1_BOUNDS, 0.05
        truth = simulate_hidden(system, LORENZ_THETA, x0, 6, delta, 1.0, RngSeed(60))
        obs = observe(truth, 1.0, RngSeed(60, 1))
    config = FilterConfig(
        outer_particles=4,
        inner_particles=5,
        delta=delta,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=prior,
        jitter_scale=0.05,
        inner_resampling=case != "no_inner_resampling",
    )
    rng = RngSeed(61)
    history = run_filter(obs, system, x0, config, rng)
    full = filter_by_hand(obs, system, x0, config, rng)
    # The per-lane members are whole; the per-row ones hold the lineage rows.
    for name in ("inner_weights", "outer_weights", "outer_ancestors"):
        assert np.array_equal(getattr(history, name), getattr(full, name)), name
    kept = gather_ancestral(full)
    for name in ("thetas", "states", "inner_ancestors"):
        assert np.array_equal(getattr(history, name), getattr(kept, name)), name
    np.testing.assert_allclose(history.filtered_means, full.filtered_means, rtol=1e-12)
    counters = ("nonfinite_particles", "inner_weight_underflows", "outer_weight_underflows")
    got = {key: getattr(history.diagnostics, key) for key in counters}
    assert got == {key: getattr(full.diagnostics, key) for key in counters}
    if case == "nonfinite":
        assert 0 < got["nonfinite_particles"] < full.states[1:, :, :, 0].size
        assert got["inner_weight_underflows"] > 0 and got["outer_weight_underflows"] > 0


@pytest.mark.parametrize(
    "system, rows, x0, match",
    [
        (EXP_DECAY, 3, [0.0], r"prior_bounds has 3 rows, exp_decay needs one per parameter"),
        (LORENZ, 2, [1.0, 1.0, 1.0], r"prior_bounds has 2 rows, lorenz needs one per parameter"),
        (LORENZ, 3, [1.0, 1.0], r"x0 must be \(3,\) for lorenz, got \(2,\)"),
        (LORENZ, 3, [1.0], r"x0 must be \(3,\) for lorenz, got \(1,\)"),
    ],
)
def test_run_filter_rejects_bounds_or_x0_that_do_not_fit_the_system(system, rows, x0, match):
    config = FilterConfig(
        outer_particles=2,
        inner_particles=3,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=np.tile([1.0, 2.0], (rows, 1)),
        jitter_scale=0.05,
    )
    obs = np.zeros((4, system.dimension))
    with pytest.raises(ValueError, match=match):
        run_filter(obs, system, np.array(x0), config, RngSeed(62))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_filter_rejects_nonfinite_observations(bad):
    # A NaN is not read as a missing observation: it is rejected like inf.
    obs = np.zeros((4, 3))
    obs[2, 1] = bad
    config = FilterConfig(
        outer_particles=2, inner_particles=3, delta=0.05, process_std=1.0,
        observation_std=1.0, prior_bounds=TABLE1_BOUNDS, jitter_scale=0.05,
    )
    with pytest.raises(ValueError, match=f"row 2 column 1 is {bad}"):
        run_filter(obs, LORENZ, np.ones(3), config, RngSeed(63))


def test_lorenz_theta_estimate_within_prior_support():
    truth = simulate_hidden(
        LORENZ, LORENZ_THETA, np.array([1.0, 1.0, 1.0]), 120, 0.05, 1.0, RngSeed(22)
    )
    obs = observe(truth, 1.0, RngSeed(22, 1))
    config = FilterConfig(
        outer_particles=30,
        inner_particles=30,
        delta=0.05,
        process_std=1.0,
        observation_std=1.0,
        prior_bounds=TABLE1_BOUNDS,
        jitter_scale=0.05,
    )
    history = keep_ancestral(
        run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, RngSeed(23))
    )
    smoothed = backward_smooth(history, LORENZ, 0.05, 1.0)
    _, (theta_mean, _) = posterior_summary(history, smoothed)
    assert np.isfinite(theta_mean).all()
    low, high = TABLE1_BOUNDS.T
    assert ((theta_mean >= low) & (theta_mean <= high)).all()


# ---------------------------------------------------------------- smoothing


def _decay_history(seed, n_inner=50, horizon=40):
    theta = np.array([1.0])
    root = RngSeed(seed)
    truth = simulate_hidden(
        EXP_DECAY, theta, np.array([0.0]), horizon, DECAY_DELTA, 1.0, root.child("sim")
    )
    obs = observe(truth, 1.0, root.child("obs"))
    config = _decay_config(_point_prior(theta), n_inner)
    history = run_filter(obs, EXP_DECAY, np.array([0.0]), config, root.child("filter"))
    return truth, obs, history


def test_smoothed_equals_filtered_at_final_time():
    _, _, history = _decay_history(24)
    smoothed = backward_smooth(keep_ancestral(history), EXP_DECAY, DECAY_DELTA, 1.0)
    t_end = history.horizon
    joint_filtered = history.outer_weights[t_end][:, None] * history.inner_weights[t_end]
    assert np.allclose(smoothed.w_tilde[t_end], joint_filtered, atol=1e-12)


def test_single_inner_particle_smoothing_is_identity():
    _, _, history = _decay_history(25, n_inner=1, horizon=20)
    smoothed = backward_smooth(keep_ancestral(history), EXP_DECAY, DECAY_DELTA, 1.0)
    assert np.allclose(smoothed.w_tilde, history.inner_weights[:, :, :], atol=1e-12)


def _lorenz_run(sim_seed, filter_seed, num_outer, num_inner, horizon, process_std=1.0):
    """(observations, filter config, filter seed) of a Lorenz run."""
    truth = simulate_hidden(
        LORENZ, LORENZ_THETA, np.array([1.0, 1.0, 1.0]), horizon, 0.05, process_std,
        RngSeed(sim_seed),
    )
    obs = observe(truth, 1.0, RngSeed(sim_seed, 1))
    config = FilterConfig(
        outer_particles=num_outer,
        inner_particles=num_inner,
        delta=0.05,
        process_std=process_std,
        observation_std=1.0,
        prior_bounds=TABLE1_BOUNDS,
        jitter_scale=0.05,
    )
    return obs, config, RngSeed(filter_seed)


def _lorenz_filter(*args, **kwargs):
    """run_filter's history of `_lorenz_run`."""
    obs, config, rng = _lorenz_run(*args, **kwargs)
    return run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, rng)


def _lorenz_history(*args, **kwargs):
    """The full-layout reference history of `_lorenz_run`."""
    obs, config, rng = _lorenz_run(*args, **kwargs)
    return filter_by_hand(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, rng)


@pytest.mark.parametrize("m, n", [(3, 255), (3, 256), (3, 257), (300, 300)])
def test_lineage_at_index_dtype_bounds_matches_two_pass_int64_oracles(m, n):
    # 255/256 ancestors fit uint8 and 257 need uint16; at M = N = 300 a
    # uint16 lane * N reaches 89,700 and would wrap past 65,535.
    narrow = _lorenz_filter(35, 36, m, n, 3)
    assert narrow.outer_ancestors.dtype == np.min_scalar_type(m - 1)
    assert narrow.inner_ancestors.dtype == np.min_scalar_type(n - 1)
    history = _lorenz_history(35, 36, m, n, 3)
    assert history.outer_ancestors.dtype == history.inner_ancestors.dtype == np.int64
    # Step t + 1 propagates the two-pass reorder of step t plus its replayed noise.
    for t in range(1, history.horizon):
        post = reorder_two_pass(
            history.states[t], history.inner_ancestors[t], history.outer_ancestors[t]
        )
        base = _rk4(LORENZ, post, history.thetas[t + 1][:, None, :], 0.05)
        z = filtering._lane_normals(RngSeed(36).child("step", t + 1).child("propagate"), post.shape)
        assert np.array_equal(history.states[t + 1], base + np.add(0.0, 1.0 * z))

    # The narrow run keeps the rows the int64 reference gathers, and the
    # narrow lane trace inside `lineages` numbers them as the int64 trace does.
    kept, wide = keep_ancestral(narrow), gather_ancestral(history)
    for key in ("thetas", "states", "inner_weights", "inner_ancestors"):
        assert np.array_equal(getattr(kept, key), getattr(wide, key)), key
    assert np.array_equal(lineages(narrow.outer_ancestors)[0],
                          lineage_trace(history.outer_ancestors)[1])
    smoothed = backward_smooth(kept, LORENZ, 0.05, 1.0)
    oracle = backward_smooth(wide, LORENZ, 0.05, 1.0)
    assert np.array_equal(smoothed.w_tilde, oracle.w_tilde)
    assert np.array_equal(smoothed.v_tilde, oracle.v_tilde)

    mu, var = abduct_noise(kept, smoothed, LORENZ, 0.05)
    two_pass_mu, two_pass_var = abduct_noise_two_pass(history, smoothed, LORENZ, 0.05)
    assert np.array_equal(mu, two_pass_mu) and np.array_equal(var, two_pass_var)


def _distinct_next_lanes(history) -> np.ndarray:
    """U_t, the distinct lanes the traced lineages pass at t + 1, for t = T-1
    down to 0, the smoother's step order."""
    lane, _ = lineage_trace(history.outer_ancestors)
    return np.array([len(set(lane[t + 1].tolist())) for t in range(history.horizon - 1, -1, -1)])


def _smoother_matches_pairwise_oracle(history, process_std) -> int:
    """Compare backward_smooth on the ancestral rows of a full-layout history
    with the pairwise oracle on the whole of it; the underflow count."""
    smoothed = backward_smooth(gather_ancestral(history), LORENZ, 0.05, process_std)
    w_tilde, v_tilde, underflows = backward_smooth_pairwise(history, LORENZ, 0.05, process_std)
    np.testing.assert_allclose(smoothed.w_tilde, w_tilde, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(smoothed.v_tilde, v_tilde, rtol=1e-9, atol=0.0)
    assert history.diagnostics.smoother_underflows == underflows
    return underflows


def test_smoother_matches_pairwise_oracle():
    history = _lorenz_history(60, 61, 6, 20, 15)
    assert _smoother_matches_pairwise_oracle(history, 1.0) == 0


def test_smoother_matches_pairwise_oracle_with_zero_inner_weights():
    history = _lorenz_history(62, 63, 6, 20, 15)
    weights = history.inner_weights.copy()
    keep = np.random.default_rng(64).uniform(size=weights.shape) < 0.6
    # Keep each row's largest weight, so every row still sums to a positive mass.
    np.put_along_axis(keep, weights.argmax(axis=2)[..., None], True, axis=2)
    weights[~keep] = 0.0
    weights /= weights.sum(axis=2, keepdims=True)
    assert (weights == 0.0).any(axis=2).all()
    assert _smoother_matches_pairwise_oracle(replace(history, inner_weights=weights), 1.0) == 0


def test_smoother_matches_pairwise_oracle_when_a_lane_underflows(monkeypatch):
    # With process_std 1e-150 every exponent |x_k - b_n|^2 / 2 var is ~1e300 or
    # larger but finite, except in lane 2, whose final particles sit 1e5 away
    # from their predictions: there it overflows for every pair, so the lane's
    # sum is -inf at t = T - 1 and it keeps its filtered weights.
    calls = _record_kernel_paths(monkeypatch)
    history = _lorenz_history(65, 66, 6, 20, 15)
    states = history.states.copy()
    states[-1, 2] += 1e5
    assert _smoother_matches_pairwise_oracle(replace(history, states=states), 1e-150) == 1
    # Lane 2's group gap overflows, so at t = T - 1 its 20 row terms are not
    # finite, and those 20 rows alone are recomputed from its group's factors.
    assert calls[1] == ("rows", 20)


def test_smoother_matches_pairwise_oracle_at_small_process_noise():
    # Every lane takes the row-max branch here (each gap |mu'|^2 / 2var is
    # far above 600); the centred factors keep the error near 4e-11.
    history = _lorenz_history(70, 71, 6, 40, 15)
    assert _smoother_matches_pairwise_oracle(history, 0.01) == 0


def test_smoother_matches_pairwise_oracle_at_tiny_process_noise():
    # At process_std 1e-153 the exponents are ~1e305; centred on the heaviest
    # particle, mu' . x' / var stays finite and no lane underflows.
    history = _lorenz_history(65, 66, 6, 20, 15)
    assert _smoother_matches_pairwise_oracle(history, 1e-153) == 0


def _record_kernel_paths(monkeypatch) -> list:
    """Record ("group", fast) per `_group_factors` call and ("rows", pairs)
    per `_exact_rows` call, in call order."""
    calls = []
    group_factors = filtering._group_factors
    exact_rows = filtering._exact_rows

    def recording_group_factors(*args):
        a, b, gap, fast = group_factors(*args)
        calls.append(("group", fast.copy()))
        return a, b, gap, fast

    def recording_exact_rows(a_rows, b, log_w):
        calls.append(("rows", a_rows.shape[0]))
        return exact_rows(a_rows, b, log_w)

    monkeypatch.setattr(filtering, "_group_factors", recording_group_factors)
    monkeypatch.setattr(filtering, "_exact_rows", recording_exact_rows)
    return calls


def test_smoother_mixes_fast_and_max_lanes_in_one_call(monkeypatch):
    calls = _record_kernel_paths(monkeypatch)
    history = _lorenz_history(60, 61, 6, 20, 15)
    assert _smoother_matches_pairwise_oracle(history, 0.3) == 0
    # One chunk per step, one group per distinct lane; no lane needs the
    # exact path, and some steps mix unshifted and row-shifted groups.
    assert [kind for kind, _ in calls] == ["group"] * 15
    fast = [flags for _, flags in calls]
    assert [flags.size for flags in fast] == list(_distinct_next_lanes(history))
    assert any(flags.any() and not flags.all() for flags in fast)


def test_smoother_step_mixes_unshifted_shifted_and_exact_rows(monkeypatch):
    calls = _record_kernel_paths(monkeypatch)
    history = _lorenz_history(80, 81, 12, 30, 20)
    # Lane 0's last filtered mass sits on one particle moved 30 units off its
    # cloud. Every row of its shifted block underflows there (the gap to the
    # nearest particle is ~5000 at process_std 0.3), so at t = T - 1 all 30
    # of its row sums fall below the trust floor and are recomputed exactly.
    states, weights = history.states.copy(), history.inner_weights.copy()
    states[-1, 0, 0] += 30.0
    weights[-1, 0] = 0.0
    weights[-1, 0, 0] = 1.0
    history = replace(history, states=states, inner_weights=weights)
    assert _smoother_matches_pairwise_oracle(history, 0.3) == 0
    (kind, fast), rows = calls[0], calls[1]
    # Step T - 1 has 12 distinct lanes, so 12 one-lane groups.
    assert kind == "group" and fast.size == 12
    assert not fast[0] and fast.sum() >= 1 and (~fast).sum() >= 3
    assert rows == ("rows", 30)
    assert [call for call in calls[2:] if call[0] != "group"] == []


@pytest.mark.parametrize("process_std", [1.0, 0.1, 0.01])
def test_grouped_smoother_matches_pairwise_oracle(monkeypatch, process_std):
    # Filtered at the smoother's process noise, the lineages coalesce to a few
    # groups (here U_t is 1 for most of the 20 steps), and every lane takes
    # the shared kernel; only at the small noise levels do some groups need
    # the row shift.
    calls = _record_kernel_paths(monkeypatch)
    history = _lorenz_history(80, 81, 12, 30, 20, process_std)
    distinct = _distinct_next_lanes(history)
    assert distinct.mean() < 12 / 2
    assert _smoother_matches_pairwise_oracle(history, process_std) == 0
    assert [kind for kind, _ in calls] == ["group"] * 20
    shifted = sum((~flags).sum() for _, flags in calls)
    assert (shifted > 0) == (process_std < 1.0)


def test_smoother_builds_one_kernel_block_per_distinct_lane(monkeypatch):
    # The second history has N = 200 and 7-9 distinct lanes per step: all of
    # a step's groups still take one factor call.
    calls = _record_kernel_paths(monkeypatch)
    for seeds, m, n, horizon, blocks in (((80, 81), 12, 30, 20, 64), ((28, 29), 9, 200, 4, 30)):
        calls.clear()
        history = _lorenz_filter(*seeds, m, n, horizon)
        backward_smooth(keep_ancestral(history), LORENZ, 0.05, 1.0)
        # One `_group_factors` call per step, one group per distinct lane:
        # sum_t |unique(lane[t + 1])| blocks, not M * T.
        groups = [flags.size for kind, flags in calls if kind == "group"]
        assert groups == list(_distinct_next_lanes(history))
        assert sum(groups) == blocks < m * horizon


def test_abduction_on_coalesced_lineages_matches_two_pass_oracle():
    history = _lorenz_history(80, 81, 12, 30, 20)
    lane, _ = lineage_trace(history.outer_ancestors)
    # Below t = T every step has fewer distinct lanes than final lanes.
    assert all(np.unique(lane[t]).size < 12 for t in range(history.horizon))
    kept = gather_ancestral(history)
    smoothed = backward_smooth(kept, LORENZ, 0.05, 1.0)
    mu, var = abduct_noise(kept, smoothed, LORENZ, 0.05)
    two_pass_mu, two_pass_var = abduct_noise_two_pass(history, smoothed, LORENZ, 0.05)
    assert np.array_equal(mu, two_pass_mu) and np.array_equal(var, two_pass_var)


def test_smoothed_means_track_rts_oracle():
    # quick 3-seed version of the acceptance-scale oracle comparison
    a_eff = float(rk4_step(EXP_DECAY, np.array([1.0]), np.array([1.0]), DECAY_DELTA)[0])
    for seed in (29, 30, 31):
        truth, obs, history = _decay_history(seed, n_inner=300, horizon=120)
        kept = keep_ancestral(history)
        smoothed = backward_smooth(kept, EXP_DECAY, DECAY_DELTA, 1.0)
        state_mean, _ = posterior_summary(kept, smoothed)
        kf, rts, _, _ = kalman_filter_rts(obs[:, 0], a_eff, 1.0, 1.0, 0.0, 0.0)
        assert np.abs(history.filtered_means[:, 0] - kf).mean() < 0.15
        assert np.abs(state_mean[:, 0] - rts).mean() < 0.15


def test_lineages_identity_without_resampling_shuffle():
    # No lane is ever replaced, so every lane-step is kept, in step-major order.
    rows, steps, lanes = lineages(np.tile(np.arange(5, dtype=np.uint8), (7, 1)))
    assert np.array_equal(rows, np.arange(35).reshape(7, 5))
    assert np.array_equal(steps, np.repeat(np.arange(7), 5))
    assert np.array_equal(lanes, np.tile(np.arange(5), 7))


def test_keep_ancestral_gathers_exactly_the_final_lanes_lineages():
    history = _lorenz_filter(80, 81, 12, 30, 20)
    full = _lorenz_history(80, 81, 12, 30, 20)
    kept = keep_ancestral(history)
    lane, traced = lineage_trace(full.outer_ancestors)
    assert np.array_equal(kept.rows, traced)
    rows = 0
    for t in range(full.horizon + 1):
        distinct = np.unique(lane[t])
        at = np.unique(kept.rows[t])
        assert np.array_equal(at, rows + np.arange(distinct.size))
        rows += distinct.size
        assert np.array_equal(kept.states[kept.rows[t]], full.states[t][lane[t]])
        for key in ("thetas", "states", "inner_weights", "inner_ancestors"):
            assert np.array_equal(getattr(kept, key)[at], getattr(full, key)[t][distinct]), key
    # The 64 lane-steps of t = 1..T that the smoother builds blocks for, plus
    # the one lane all lineages share at t = 0: 65 of 21 * 12 = 252.
    assert kept.states.shape[0] == rows == 65
    assert kept.inner_ancestors.dtype == history.inner_ancestors.dtype == np.uint8
    for key in ("thetas", "states", "inner_ancestors", "outer_weights", "outer_ancestors"):
        assert getattr(kept, key) is getattr(history, key), key


def _prunes(monkeypatch, buffer_steps) -> list:
    """Set the path buffer's initial steps; record the length of the
    prefix each prune reads."""
    monkeypatch.setattr(filtering, "_BUFFER_STEPS", buffer_steps)
    calls = []
    traced = filtering.lineages

    def recording_lineages(outer_ancestors):
        calls.append(outer_ancestors.shape[0])
        return traced(outer_ancestors)

    monkeypatch.setattr(filtering, "lineages", recording_lineages)
    return calls


@pytest.mark.parametrize("inner_resampling", [True, False])
def test_pruning_often_and_only_at_the_end_give_the_same_bytes(monkeypatch, inner_resampling):
    obs, config, rng = _lorenz_run(80, 81, 6, 10, 60)
    config = replace(config, inner_resampling=inner_resampling)
    runs = {}
    for buffer_steps in (1, 2, 61):
        calls = _prunes(monkeypatch, buffer_steps)
        runs[buffer_steps] = run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, rng)
        # The last prune, at T, reads every step. A buffer of one step of
        # rows is full at every step until a prune keeps at most half of it
        # (here it prunes 10 or 11 times); one of T + 1 steps is never full.
        assert calls[-1] == 61
        assert len(calls) >= 8 if buffer_steps < 61 else calls == [61]
        if buffer_steps == 1:
            assert calls[:2] == [1, 2]
    for key in ("thetas", "states", "inner_weights", "outer_weights", "outer_ancestors",
                "inner_ancestors", "filtered_means"):
        arrays = [getattr(history, key) for history in runs.values()]
        assert all(a.dtype == arrays[0].dtype and a.shape == arrays[0].shape for a in arrays), key
        assert all(a.tobytes() == arrays[0].tobytes() for a in arrays), key
    full = gather_ancestral(filter_by_hand(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, rng))
    assert np.array_equal(runs[1].states, full.states)


@pytest.mark.parametrize("horizon, m, n", [(200, 50, 200), (500, 50, 50)])
def test_run_filter_peaks_below_the_full_states_array(horizon, m, n):
    # The lorenz-n200 and lorenz preset shapes. Traced peak bytes of the run
    # against the (T+1, M, N, d) float64 states that the path buffer never
    # holds: 39.7 against 48.2 MB and 16.3 against 30.1 MB; a filter that
    # filled every step's states peaked at 67.9 and 42.5 MB.
    obs, config, rng = _lorenz_run(42, 43, m, n, horizon)
    tracemalloc.start()
    try:
        run_filter(obs, LORENZ, np.array([1.0, 1.0, 1.0]), config, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (horizon + 1) * m * n * 3 * 8


@pytest.mark.parametrize("seeds, m, n, horizon", [((80, 81), 12, 30, 20), ((28, 29), 9, 20, 4)])
def test_rows_and_parent_index_the_traced_lineages(seeds, m, n, horizon):
    history = _lorenz_filter(*seeds, m, n, horizon)
    kept = keep_ancestral(history)
    lane, traced = lineage_trace(history.outer_ancestors)
    rows, steps, lanes = lineages(history.outer_ancestors)
    assert np.array_equal(rows, traced) and np.array_equal(kept.rows, traced)
    # Row r is the lane-step (steps[r], lanes[r]).
    assert np.array_equal(steps[rows], np.repeat(np.arange(horizon + 1)[:, None], m, axis=1))
    assert np.array_equal(lanes[rows], lane)
    for t in range(1, horizon + 1):
        assert np.array_equal(kept.parent[rows[t]], rows[t - 1])
    assert np.array_equal(np.flatnonzero(kept.parent == -1), np.unique(rows[0]))
    for t in range(horizon + 1):
        # Within a step, rows increase with the lane.
        assert np.array_equal(lane[t][:, None] < lane[t], rows[t][:, None] < rows[t])


def test_smoother_counts_underflows_on_the_filters_diagnostics():
    _, _, history = _decay_history(32, n_inner=10, horizon=10)
    before = asdict(history.diagnostics)
    kept = keep_ancestral(history)
    assert kept.diagnostics is history.diagnostics
    backward_smooth(kept, EXP_DECAY, DECAY_DELTA, 0.0)
    # At process_std 0 the single lane underflows at each of the 10 steps below T.
    assert asdict(history.diagnostics) == {**before, "smoother_underflows": 10}


def test_zero_process_std_smoothing_falls_back_to_filtered():
    _, _, history = _decay_history(32, n_inner=10, horizon=10)
    smoothed = backward_smooth(keep_ancestral(history), EXP_DECAY, DECAY_DELTA, 0.0)
    assert history.diagnostics.smoother_underflows > 0
    t_end = history.horizon
    joint = history.outer_weights[t_end][:, None] * history.inner_weights[t_end]
    assert np.allclose(smoothed.w_tilde[t_end], joint)


# ----------------------------------------------------------------- summary


def test_posterior_summary_single_particle():
    _, _, history = _decay_history(33, n_inner=1, horizon=10)
    kept = keep_ancestral(history)
    smoothed = backward_smooth(kept, EXP_DECAY, DECAY_DELTA, 1.0)
    state_mean, (_, theta_std) = posterior_summary(kept, smoothed)
    # One lane, so row t is step t.
    assert np.array_equal(state_mean, history.states[:, 0, :])
    assert theta_std[0] == 0.0


def test_posterior_summary_two_particle_closed_form():
    thetas = np.zeros((2, 3, 1))
    thetas[:, 0, 0] = 2.0
    thetas[:, 1, 0] = 2.0
    thetas[:, 2, 0] = 6.0
    states = np.zeros((2, 3, 1, 1))
    states[1, 0, 0, 0] = 1.0
    states[1, 1, 0, 0] = 1.0
    states[1, 2, 0, 0] = 5.0
    from cfdyn.filtering import SmoothedWeights

    history = FullHistory(
        thetas=thetas,
        states=states,
        inner_weights=np.ones((2, 3, 1)),
        outer_weights=np.full((2, 3), 1.0 / 3.0),
        outer_ancestors=np.tile(np.arange(3), (2, 1)),
        inner_ancestors=np.zeros((2, 3, 1), dtype=np.int64),
    )
    v = np.array([0.25, 0.25, 0.5])
    smoothed = SmoothedWeights(
        w_tilde=np.stack([v[:, None], v[:, None]]),
        v_tilde=np.stack([v, v]),
    )
    state_mean, (theta_mean, theta_std) = posterior_summary(gather_ancestral(history), smoothed)
    # weighted mean of states 1,1,5 and thetas 2,2,6 under (0.25,0.25,0.5)
    assert abs(state_mean[1, 0] - 3.0) < 1e-12
    assert abs(theta_mean[0] - 4.0) < 1e-12
    assert abs(theta_std[0] - 2.0) < 1e-12


def test_posterior_summary_uniform_weights_plain_average():
    _, _, history = _decay_history(34, n_inner=5, horizon=6)
    from cfdyn.filtering import SmoothedWeights

    t1, m, n = history.inner_weights.shape
    smoothed = SmoothedWeights(
        w_tilde=np.full((t1, m, n), 1.0 / (m * n)),
        v_tilde=np.full((t1, m), 1.0 / m),
    )
    state_mean, _ = posterior_summary(keep_ancestral(history), smoothed)
    # One lane, so row t is step t.
    assert np.allclose(state_mean, history.states.mean(axis=1))
