"""Process-noise abduction from smoothed particle output.

Each particle's residual against its own lineage parent recovers the noise
increment that the state equation added at that step; the smoothed weights
turn those residuals into a per-step Gaussian posterior (mean vector and
per-dimension variance).
"""
from __future__ import annotations

import numpy as np

from .dynamics import SystemSpec, _rk4, get_system
from .filtering import AncestralHistory, SmoothedWeights, take_particles


def abduct_noise(
    history: AncestralHistory,
    smoothed: SmoothedWeights,
    system: str | SystemSpec,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The (mu, var) pair of (T, d) weighted residual moments: row t-1 holds step t's.

    mu_t is the smoothed-weight average of the particle residuals and var_t
    their weighted population variance, both componentwise; step 0 has no
    predecessor, so no row. Residual pairs follow the recorded resampling
    lineage, so each particle is differenced against the parent that actually
    produced it: row r's particles against
    row `history.parent[r]`'s, picked by `inner_ancestors`. Final lanes that
    share a row at t share its residuals, so RK4 runs once per distinct row
    of `history.rows[t]`, one block per step, and the residuals are gathered
    back to the M final lanes; the moments sum over all M lanes, as if each
    had its own.
    """
    spec = get_system(system)
    t_end = history.horizon
    mu = np.empty((t_end, spec.dimension))
    var = np.empty((t_end, spec.dimension))
    for t in range(1, t_end + 1):
        at, inverse = np.unique(history.rows[t], return_inverse=True)
        prev = history.parent[at]
        parents = take_particles(history.states, prev, history.inner_ancestors[prev])
        pred = _rk4(spec, parents, history.thetas[at][:, None, :], delta)
        resid = (history.states[at] - pred)[inverse]  # (M, N, d)
        w = smoothed.w_tilde[t]
        total = w.sum()
        mu[t - 1] = np.einsum("mn,mnd->d", w, resid) / total
        var[t - 1] = np.einsum("mn,mnd->d", w, (resid - mu[t - 1]) ** 2) / total
    return mu, var
