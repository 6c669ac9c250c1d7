import numpy as np
import pytest

from cfdyn.dynamics import (
    EXP_DECAY,
    LOGISTIC,
    LORENZ,
    ROSSLER,
    SYSTEMS,
    _rk4,
    get_system,
    rhs,
    rk4_step,
)
from cfdyn.errors import NumericsError

from .oracles import euler_rollout, rk4_allocating

LORENZ_THETA = np.array([10.0, 28.0, 8.0 / 3.0])


def test_lorenz_origin_is_fixed_point():
    out = rhs(LORENZ, np.zeros(3), LORENZ_THETA)
    assert np.array_equal(out, np.zeros(3))


def test_lorenz_rhs_hand_evaluated():
    out = rhs(LORENZ, np.array([1.0, 1.0, 1.0]), LORENZ_THETA)
    assert np.allclose(out, [0.0, 26.0, -5.0 / 3.0], rtol=0, atol=1e-15)


def test_rossler_rhs_hand_evaluated():
    out = rhs(ROSSLER, np.array([1.0, 1.0, 0.0]), np.array([0.2, 0.2, 5.7]))
    assert np.allclose(out, [-1.0, 1.2, 0.2], rtol=0, atol=1e-15)


def test_logistic_equilibrium_at_carrying_capacity():
    out = rhs(LOGISTIC, np.array([100.0]), np.array([0.5, 100.0]))
    assert np.array_equal(out, np.zeros(1))


def test_rk4_fixed_point_is_identity():
    state = np.zeros(3)
    out = rk4_step(LORENZ, state, LORENZ_THETA, 0.05)
    assert np.array_equal(out, state)


def test_rk4_exponential_decay_accuracy():
    out = rk4_step(EXP_DECAY, np.array([1.0]), np.array([1.0]), 0.1)
    assert abs(out[0] - np.exp(-0.1)) < 1e-6


def test_rk4_logistic_against_fine_euler():
    # 1e5 substeps push the oracle's own first-order error to ~2e-8,
    # well inside the 1e-6 budget being asserted
    theta = np.array([0.5, 100.0])
    out = rk4_step(LOGISTIC, np.array([10.0]), theta, 0.05)
    oracle = euler_rollout(lambda x: 0.5 * x * (1.0 - x / 100.0), 10.0, 0.05, 100000)
    assert abs(out[0] - oracle) < 1e-6


def test_rk4_fourth_order_error_shrink():
    # global error over horizon 1.0 on dX/dt = -X, step halving
    def global_error(delta):
        steps = round(1.0 / delta)
        x = np.array([1.0])
        for _ in range(steps):
            x = rk4_step(EXP_DECAY, x, np.array([1.0]), delta)
        return abs(x[0] - np.exp(-1.0))

    factor = global_error(0.05) / global_error(0.025)
    assert 12.0 <= factor <= 20.0


def test_purity_bit_identical():
    state = np.array([1.3, -0.7, 9.1])
    a = rk4_step(LORENZ, state, LORENZ_THETA, 0.05)
    b = rk4_step(LORENZ, state, LORENZ_THETA, 0.05)
    assert np.array_equal(a, b)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        rhs(LORENZ, np.zeros(2), LORENZ_THETA)
    with pytest.raises(ValueError):
        rhs(LORENZ, np.zeros(3), np.array([1.0, 2.0]))


def test_non_finite_input_rejected():
    with pytest.raises(ValueError):
        rhs(LORENZ, np.array([np.nan, 0.0, 0.0]), LORENZ_THETA)
    with pytest.raises(ValueError):
        rk4_step(LORENZ, np.zeros(3), np.array([np.inf, 28.0, 2.0]), 0.05)


def test_bad_step_size_rejected():
    with pytest.raises(ValueError):
        rk4_step(LORENZ, np.zeros(3), LORENZ_THETA, 0.0)


def test_rk4_blowup_reports_stage():
    # dX/dt = -rate*X with a hugely negative rate explodes within one step
    with pytest.raises(NumericsError):
        rk4_step(EXP_DECAY, np.array([1e300]), np.array([-1e10]), 1e6)


def test_checked_step_has_the_bits_of_the_batched_step():
    # rk4_step is the checked single-state form of the _rk4 block that the
    # filter, smoother, abduction and rollouts step with.
    gen = np.random.default_rng(11)
    for spec in SYSTEMS.values():
        states = gen.normal(scale=5.0, size=(64, spec.dimension))
        params = gen.uniform(0.5, 3.0, size=(64, spec.n_params))
        block = _rk4(spec, states, params, 0.05)
        for state, theta, expected in zip(states, params, block):
            assert np.array_equal(rk4_step(spec.id, state, theta, 0.05), expected), spec.id


@pytest.mark.parametrize("spec", list(SYSTEMS.values()), ids=list(SYSTEMS))
def test_in_place_rk4_has_the_bits_of_the_allocating_oracle(spec):
    gen = np.random.default_rng(23)
    d, p = spec.dimension, spec.n_params
    # Stages of the last block overflow: rows at 1e200 and 1e308, and rows that
    # start at inf, -inf, NaN and -0.0, so inf, NaN and signed zeros run through.
    overflow = gen.normal(scale=5.0, size=(6, 5, d))
    overflow[0] *= 1e200
    overflow[1] = 1e308
    overflow[2, :, 0] = np.inf
    overflow[3, :, -1] = -np.inf
    overflow[4, ::2] = np.nan
    overflow[5] = -0.0
    cases = [
        (gen.normal(scale=5.0, size=d), gen.uniform(0.5, 3.0, size=p)),
        (gen.normal(scale=5.0, size=(9, d)), gen.uniform(0.5, 3.0, size=(9, p))),
        (gen.normal(scale=5.0, size=(4, 7, d)), gen.uniform(0.5, 3.0, size=(4, 1, p))),
        (overflow, gen.uniform(0.5, 3.0, size=(6, 1, p))),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for state, params in cases:
            got = _rk4(spec, state, params, 0.05)
            want = rk4_allocating(spec, state, params, 0.05)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (spec.id, state.shape)
    assert np.isnan(got).any()


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        get_system("brusselator")
