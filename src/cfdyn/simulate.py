"""Ground-truth simulation: hidden trajectories and noisy observations.

The hidden state advances by the RK4 forward operator plus additive Gaussian
process noise; observations are the state plus Gaussian observation noise.
A state series is a (T+1, d) float64 array on the config's time grid.
Everything is deterministic given an `RngSeed`.
"""
from __future__ import annotations

import numpy as np

from .dynamics import SystemSpec, get_system, rollout
from .errors import NumericsError
from .seeding import RngSeed


def simulate_hidden(
    system: str | SystemSpec,
    params: np.ndarray,
    x0: np.ndarray,
    horizon: int,
    delta: float,
    process_std: float,
    rng: RngSeed,
) -> np.ndarray:
    """Roll the state equation forward from `x0` for `horizon` steps.

    states[t] = rk4_step(states[t-1]) + u_t with u_t ~ N(0, process_std^2 I).
    Returns the (horizon+1, d) states.

    Raises NumericsError with the first failing time index if the state
    becomes non-finite.
    """
    spec = get_system(system)
    params = np.asarray(params, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({spec.dimension},)")
    if params.shape != (spec.n_params,):
        raise ValueError(f"params has shape {params.shape}, expected ({spec.n_params},)")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if process_std < 0:
        raise ValueError(f"process_std must be >= 0, got {process_std}")

    gen = rng.generator()
    # Draw the whole noise block up front so draws are independent of state values.
    u = gen.normal(0.0, process_std, size=(horizon, spec.dimension))
    states, failure = rollout(spec, x0[None], params[None], horizon, delta, u[None])
    if failure[0] >= 0:
        t = int(failure[0])
        raise NumericsError(f"simulation became non-finite at step {t}", index=t)
    return states[0]


def observe(
    states: np.ndarray,
    observation_std: float,
    rng: RngSeed,
) -> np.ndarray:
    """Observe the hidden (T+1, d) states: obs[t] = states[t] + w_t.

    Returns an (T+1, d) array, deterministic given the seed.
    """
    if observation_std < 0:
        raise ValueError(f"observation_std must be >= 0, got {observation_std}")
    gen = rng.generator()
    w = gen.normal(0.0, observation_std, size=states.shape)
    return states + w
