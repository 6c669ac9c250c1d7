"""Counterfactual trajectory generation under initial-condition interventions.

The modified model keeps the learned dynamics but replaces the initial state
and redraws the process noise from its abducted posterior; parameters follow
one of three knowledge regimes (true values, smoothed point estimate, or
samples from the parameter posterior).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abduction import NoisePosterior
from .dynamics import SystemSpec, get_system, rollout
from .errors import NumericsError
from .seeding import RngSeed

REGIME_TRUE = "true"
REGIME_POINT = "point"
REGIME_POSTERIOR = "posterior"
REGIMES = (REGIME_TRUE, REGIME_POINT, REGIME_POSTERIOR)


@dataclass(frozen=True)
class Intervention:
    """Initial-condition intervention: either an additive shift of one
    component (1-based index) or an absolute replacement state."""

    component: int | None = None
    shift: float | None = None
    absolute: np.ndarray | None = None

    def __post_init__(self) -> None:
        additive = self.component is not None or self.shift is not None
        if additive and self.absolute is not None:
            raise ValueError("specify either an additive shift or an absolute state, not both")
        if not additive and self.absolute is None:
            raise ValueError("intervention needs a (component, shift) pair or an absolute state")
        if additive and (self.component is None or self.shift is None):
            raise ValueError("additive intervention needs both component and shift")
        if self.absolute is not None:
            object.__setattr__(self, "absolute", np.asarray(self.absolute, dtype=float))


def intervene(x0: np.ndarray, intervention: Intervention) -> np.ndarray:
    """Apply the intervention to the initial state."""
    x0 = np.asarray(x0, dtype=float)
    if intervention.absolute is not None:
        if intervention.absolute.shape != x0.shape:
            raise ValueError(
                f"absolute state has shape {intervention.absolute.shape}, expected {x0.shape}"
            )
        return intervention.absolute.copy()
    j = intervention.component
    if not 1 <= j <= x0.shape[0]:
        raise ValueError(f"component index {j} outside [1, {x0.shape[0]}]")
    out = x0.copy()
    out[j - 1] += intervention.shift
    return out


@dataclass(frozen=True)
class ThetaRegime:
    """Which parameters drive the counterfactual model.

    mode "true" uses theta_true; "point" uses the smoothed estimate; and
    "posterior" draws theta_hat + N(0, diag(theta_std^2)) per trajectory.
    """

    mode: str
    theta_true: np.ndarray | None = None
    theta_hat: np.ndarray | None = None
    theta_std: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in REGIMES:
            raise ValueError(f"mode must be one of {REGIMES}, got {self.mode!r}")
        if self.mode == REGIME_TRUE and self.theta_true is None:
            raise ValueError("mode 'true' requires theta_true")
        if self.mode == REGIME_POINT and self.theta_hat is None:
            raise ValueError("mode 'point' requires theta_hat")
        if self.mode == REGIME_POSTERIOR and (self.theta_hat is None or self.theta_std is None):
            raise ValueError("mode 'posterior' requires theta_hat and theta_std")
        for name in ("theta_true", "theta_hat", "theta_std"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))


def sample_theta(regime: ThetaRegime, rng: RngSeed) -> np.ndarray:
    """One parameter draw according to the regime."""
    if regime.mode == REGIME_TRUE:
        return regime.theta_true.copy()
    if regime.mode == REGIME_POINT:
        return regime.theta_hat.copy()
    eps = rng.generator().normal(size=regime.theta_hat.shape[0])
    return regime.theta_hat + regime.theta_std * eps


@dataclass
class CfTrajectorySet:
    """Ensemble of generated counterfactual trajectories.

    A trajectory that went non-finite holds NaN from its first failing step on.
    """

    trajectories: np.ndarray     # (N_cf, T+1, d)
    thetas: np.ndarray           # (N_cf, p)

    @property
    def n_trajectories(self) -> int:
        return self.trajectories.shape[0]

    @property
    def horizon(self) -> int:
        return self.trajectories.shape[1] - 1

    @property
    def failure_index(self) -> np.ndarray:
        """(N_cf,) first non-finite step per trajectory, -1 where it stayed finite."""
        bad = ~np.isfinite(self.trajectories).all(axis=2)
        return np.where(bad.any(axis=1), bad.argmax(axis=1), -1)


def generate_cf(
    system: str | SystemSpec,
    regime: ThetaRegime,
    noise: NoisePosterior,
    x0_cf: np.ndarray,
    horizon: int,
    delta: float,
    n_trajectories: int,
    rng: RngSeed,
) -> CfTrajectorySet:
    """Roll the counterfactual model forward `n_trajectories` times.

    Each trajectory draws its own parameters via `sample_theta` and its own
    noise sequence u_t ~ N(mu_t, diag(sigma_t)) from the abducted posterior,
    on substreams indexed by trajectory, so ensembles are reproducible and
    independent of the ensemble size. All trajectories then step together as
    one `rollout` block. A trajectory that goes non-finite is truncated at the
    failing step (NaN-padded) and flagged rather than aborting the ensemble.
    """
    spec = get_system(system)
    x0_cf = np.asarray(x0_cf, dtype=float)
    if x0_cf.shape != (spec.dimension,):
        raise ValueError(f"x0_cf has shape {x0_cf.shape}, expected ({spec.dimension},)")
    if noise.horizon < horizon:
        raise ValueError(
            f"noise posterior covers {noise.horizon} steps, need {horizon}"
        )
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")

    n_params = (regime.theta_true if regime.mode == REGIME_TRUE else regime.theta_hat).shape[0]
    thetas = np.empty((n_trajectories, n_params))
    u = np.empty((n_trajectories, horizon, spec.dimension))
    noise_std = np.sqrt(noise.sigma[:horizon])
    for i in range(n_trajectories):
        traj_seed = rng.child("traj", i)
        thetas[i] = sample_theta(regime, traj_seed.child("theta"))
        u[i] = noise.mu[:horizon] + noise_std * traj_seed.child("noise").generator().normal(
            size=(horizon, spec.dimension)
        )
    x0_rows = np.broadcast_to(x0_cf, (n_trajectories, spec.dimension))
    trajectories, _ = rollout(spec, x0_rows, thetas, horizon, delta, u)
    return CfTrajectorySet(trajectories=trajectories, thetas=thetas)


def deterministic_cf(
    system: str | SystemSpec,
    theta_true: np.ndarray,
    x0_cf: np.ndarray,
    horizon: int,
    delta: float,
) -> np.ndarray:
    """Noise-free (T+1, d) rollout from the intervened initial state under true
    parameters; the reference the generated ensembles are judged against."""
    spec = get_system(system)
    theta_true = np.asarray(theta_true, dtype=float)
    x0_cf = np.asarray(x0_cf, dtype=float)
    if x0_cf.shape != (spec.dimension,):
        raise ValueError(f"x0_cf has shape {x0_cf.shape}, expected ({spec.dimension},)")
    states, failure = rollout(spec, x0_cf[None], theta_true[None], horizon, delta)
    if failure[0] >= 0:
        t = int(failure[0])
        raise NumericsError(f"deterministic rollout became non-finite at step {t}", index=t)
    return states[0]
