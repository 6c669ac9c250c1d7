"""Process-noise abduction from smoothed particle output.

Each particle's residual against its own lineage parent recovers the noise
increment that the state equation added at that step; the smoothed weights
turn those residuals into a per-step Gaussian posterior (mean vector and
per-dimension variance).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemSpec, _rk4, get_system
from .filtering import AncestralHistory, SmoothedWeights, take_particles


@dataclass(frozen=True)
class NoisePosterior:
    """Gaussian posterior over process noise for t = 1..T.

    Row t-1 holds the mean vector and per-dimension variance of the abducted
    noise at step t (step 0 has no predecessor, so no entry).
    """

    mu: np.ndarray     # (T, d)
    sigma: np.ndarray  # (T, d) variances, componentwise >= 0

    def __post_init__(self) -> None:
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.shape != sigma.shape or mu.ndim != 2:
            raise ValueError(f"mu and sigma must share a (T, d) shape, got {mu.shape}/{sigma.shape}")
        if not np.isfinite(mu).all():
            raise ValueError("noise means must be finite")
        if not (sigma >= 0).all():  # NaN compares False
            raise ValueError("noise variances must be >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def horizon(self) -> int:
        return self.mu.shape[0]

    @property
    def dimension(self) -> int:
        return self.mu.shape[1]


def abduct_noise(
    history: AncestralHistory,
    smoothed: SmoothedWeights,
    system: str | SystemSpec,
    delta: float,
) -> NoisePosterior:
    """Weighted residual moments per time step.

    mu_t is the smoothed-weight average of the particle residuals; sigma_t is
    their weighted population variance, both componentwise. Residual pairs
    follow the recorded resampling lineage, so each particle is differenced
    against the parent that actually produced it; both lie on the final
    lanes' lineages, the rows an `AncestralHistory` keeps. Final lanes that
    share a lane at t share its residuals, so RK4 runs once per distinct lane
    and the residuals are gathered back to the M final lanes; the moments sum
    over all M lanes, as if each had its own.
    """
    spec = get_system(system)
    t_end = history.horizon
    lane, row = history.lane, history.row
    mu = np.empty((t_end, spec.dimension))
    sigma = np.empty((t_end, spec.dimension))
    for t in range(1, t_end + 1):
        distinct, inverse = np.unique(lane[t], return_inverse=True)
        prev = row[t - 1, history.outer_ancestors[t - 1][distinct]]  # rows of lane[t - 1]
        parents = take_particles(history.states, prev, history.inner_ancestors[prev])
        at = row[t, distinct]
        pred = _rk4(spec, parents, history.thetas[at][:, None, :], delta)
        resid = (history.states[at] - pred)[inverse]  # (M, N, d)
        w = smoothed.w_tilde[t]
        total = w.sum()
        mean = np.einsum("mn,mnd->d", w, resid) / total
        var = np.einsum("mn,mnd->d", w, (resid - mean) ** 2) / total
        mu[t - 1] = mean
        sigma[t - 1] = var
    return NoisePosterior(mu=mu, sigma=sigma)
