"""Counterfactual trajectory generation under initial-condition interventions.

The modified model keeps the learned dynamics but replaces the initial state
and redraws the process noise from its abducted posterior. Each trajectory's
parameters are drawn from N(theta, diag(theta_std^2)); the config's regime
picks the pair (see `experiment.stage_counterfactual`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec, get_system, rollout
from .errors import NumericsError
from .seeding import RngSeed

# The parameter regimes a config can name; `stage_counterfactual` maps each to
# the (theta, theta_std) pair that `generate_cf` draws from.
REGIMES = ("true", "point", "posterior")


def intervene(x0: np.ndarray, intervention: dict) -> np.ndarray:
    """Apply a config intervention to the initial state.

    `{"component": j, "shift": s}` adds s to component j (1-based);
    `{"absolute": state}` replaces the whole state. Raises ValueError on any
    other key set, a component outside [1, d] or an absolute state of the
    wrong length.
    """
    x0 = np.asarray(x0, dtype=float)
    keys = set(intervention)
    if keys == {"absolute"}:
        absolute = np.array(intervention["absolute"], dtype=float)
        if absolute.shape != x0.shape:
            raise ValueError(f"absolute state has shape {absolute.shape}, expected {x0.shape}")
        return absolute
    if keys != {"component", "shift"}:
        raise ValueError(
            f"needs the keys component and shift, or absolute alone; got {sorted(keys)}"
        )
    j = intervention["component"]
    if not 1 <= j <= x0.shape[0]:
        raise ValueError(f"component index {j} outside [1, {x0.shape[0]}]")
    out = x0.copy()
    # A shift past the float64 range gives inf, which the rollouts report.
    with np.errstate(over="ignore"):
        out[j - 1] += intervention["shift"]
    return out


@dataclass
class CfTrajectorySet:
    """Ensemble of generated counterfactual trajectories, as `generate_cf` returns it.

    A trajectory that went non-finite holds NaN from its first failing step on.
    A run keeps the two arrays as two products, cf_ensemble.csv and
    cf_thetas.csv, so a stage that reads the trajectories does not read the thetas.
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
    theta: np.ndarray,
    theta_std: np.ndarray,
    noise: tuple[np.ndarray, np.ndarray],
    x0_cf: np.ndarray,
    horizon: int,
    delta: float,
    n_trajectories: int,
    rng: RngSeed,
) -> CfTrajectorySet:
    """Roll the counterfactual model forward `n_trajectories` times.

    Trajectory i runs under theta + theta_std * z_i, with z_i ~ N(0, I) drawn
    on its own "theta" substream (a zero `theta_std` pins every trajectory to
    `theta`), and its own noise sequence u_t ~ N(mu_t, diag(var_t)) from
    `noise`, the abducted (mu, var) pair of (T, d) arrays with T >= `horizon`.
    The substreams are indexed by trajectory, so ensembles are reproducible
    and independent of the ensemble size. All trajectories then step together
    as one `rollout` block. A trajectory that goes non-finite is truncated at
    the failing step (NaN-padded) and flagged rather than aborting the
    ensemble. Raises ValueError on a shape that does not fit, a non-finite
    noise mean, or a `theta_std` or noise variance that is not >= 0.
    """
    spec = get_system(system)
    theta = np.asarray(theta, dtype=float)
    theta_std = np.asarray(theta_std, dtype=float)
    x0_cf = np.asarray(x0_cf, dtype=float)
    mu, var = (np.asarray(part, dtype=float) for part in noise)
    if x0_cf.shape != (spec.dimension,):
        raise ValueError(f"x0_cf has shape {x0_cf.shape}, expected ({spec.dimension},)")
    if theta_std.shape != theta.shape:
        raise ValueError(f"theta_std has shape {theta_std.shape}, theta has {theta.shape}")
    if var.shape != mu.shape or mu.ndim != 2 or len(mu) < horizon or mu.shape[1] != spec.dimension:
        raise ValueError(f"noise (mu, var) has shapes {mu.shape} and {var.shape}, "
                         f"{spec.id} needs two ({horizon} or more, {spec.dimension})")
    if not np.isfinite(mu).all():
        raise ValueError("noise means must be finite")
    for name, spread in (("theta_std", theta_std), ("noise variances", var)):
        if not (spread >= 0).all():  # NaN compares False
            raise ValueError(f"{name} must be >= 0, got {float(spread[~(spread >= 0)][0])!r}")
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be >= 1, got {n_trajectories}")

    thetas = np.empty((n_trajectories, theta.shape[0]))
    u = np.empty((n_trajectories, horizon, spec.dimension))
    noise_std = np.sqrt(var[:horizon])
    for i in range(n_trajectories):
        traj_seed = rng.child("traj", i)
        z = traj_seed.child("theta").generator().normal(size=theta.shape[0])
        thetas[i] = theta + theta_std * z
        u[i] = mu[:horizon] + noise_std * traj_seed.child("noise").generator().normal(
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
