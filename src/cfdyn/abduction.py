"""Process-noise abduction from smoothed particle output.

Each particle's residual against its own lineage parent recovers the noise
increment that the state equation added at that step; the smoothed weights
turn those residuals into a per-step Gaussian posterior (mean vector and
per-dimension variance).
"""
from __future__ import annotations

import numpy as np

from .dynamics import SystemSpec, get_system
from .filtering import AncestralHistory, lineage_step, take_particles


def abduct_noise(
    history: AncestralHistory,
    w_tilde: np.ndarray,
    system: str | SystemSpec,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The (mu, var) pair of (T, d) weighted residual moments: row t-1 holds step t's.

    mu_t is the average of the particle residuals under the (T+1, M, N)
    smoothed weights `w_tilde` and var_t their weighted population variance,
    both componentwise; step 0 has no predecessor, so no row. Each particle
    is differenced against the `lineage_step` prediction from the parent
    that actually produced it, picked by `inner_ancestors`. Final lanes that
    share a row share its residuals, which are gathered back to the M final
    lanes; the moments sum over all M lanes, as if each had its own.
    """
    spec = get_system(system)
    t_end = history.horizon
    mu = np.empty((t_end, spec.dimension))
    var = np.empty((t_end, spec.dimension))
    for t in range(1, t_end + 1):
        rows_t, lane_row, prediction = lineage_step(spec, history, t, delta)
        inner = history.inner_ancestors[history.parent[rows_t]]
        pred = take_particles(prediction, np.arange(rows_t.size), inner)
        resid = (history.states[rows_t] - pred)[lane_row]  # (M, N, d)
        w = w_tilde[t]
        total = w.sum()
        mu[t - 1] = np.einsum("mn,mnd->d", w, resid) / total
        var[t - 1] = np.einsum("mn,mnd->d", w, (resid - mu[t - 1]) ** 2) / total
    return mu, var
