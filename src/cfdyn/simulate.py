"""Ground-truth simulation: hidden trajectories and noisy observations.

The hidden state advances by the RK4 forward operator plus additive Gaussian
process noise; observations are the state plus Gaussian observation noise.
Everything is deterministic given an `RngSeed`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec, get_system, rollout
from .errors import NumericsError
from .seeding import RngSeed


@dataclass(frozen=True)
class NoiseConfig:
    """Per-dimension standard deviations of process and observation noise."""

    process_std: float
    observation_std: float

    def __post_init__(self) -> None:
        if self.process_std < 0:
            raise ValueError(f"process_std must be >= 0, got {self.process_std}")
        if self.observation_std < 0:
            raise ValueError(f"observation_std must be >= 0, got {self.observation_std}")


@dataclass(frozen=True)
class Trajectory:
    """A time-indexed state sequence with fixed step size."""

    states: np.ndarray  # (T+1, d)
    delta: float

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError(f"states must be (T+1, d) with T >= 0, got {states.shape}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        object.__setattr__(self, "states", states)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def simulate_hidden(
    system: str | SystemSpec,
    params: np.ndarray,
    x0: np.ndarray,
    horizon: int,
    delta: float,
    noise: NoiseConfig,
    rng: RngSeed,
) -> Trajectory:
    """Roll the state equation forward from `x0` for `horizon` steps.

    states[t] = rk4_step(states[t-1]) + u_t with u_t ~ N(0, process_std^2 I).

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

    gen = rng.generator()
    # Draw the whole noise block up front so draws are independent of state values.
    u = gen.normal(0.0, noise.process_std, size=(horizon, spec.dimension))
    states, failure = rollout(spec, x0[None], params[None], horizon, delta, u[None])
    if failure[0] >= 0:
        t = int(failure[0])
        raise NumericsError(f"simulation became non-finite at step {t}", index=t)
    return Trajectory(states=states[0], delta=delta)


def observe(
    traj: Trajectory,
    observation_std: float,
    rng: RngSeed,
) -> np.ndarray:
    """Observe the hidden trajectory: obs[t] = states[t] + w_t.

    Returns an (T+1, d) array, deterministic given the seed.
    """
    if observation_std < 0:
        raise ValueError(f"observation_std must be >= 0, got {observation_std}")
    gen = rng.generator()
    w = gen.normal(0.0, observation_std, size=traj.states.shape)
    return traj.states + w
