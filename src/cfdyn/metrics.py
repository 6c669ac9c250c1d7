"""Divergence metrics between counterfactual ensembles and their reference."""
from __future__ import annotations

import numpy as np


def rmse_t(trajectories: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Root mean square of the (n, T+1, d) trajectories' phase distances to the
    (T+1, d) reference, per step.

    Each step averages over the trajectories still finite there (a truncated
    one holds NaN from its failing step on); it is NaN only where none is.
    Where the plain sum of squared distances overflows, the step's distances
    are first divided by its largest coordinate distance.
    """
    if len(trajectories) < 1:
        raise ValueError("ensemble is empty")
    if trajectories.shape[1:] != reference.shape:
        raise ValueError(
            f"ensemble shape {trajectories.shape[1:]} does not match reference {reference.shape}"
        )
    finite = np.isfinite(trajectories).all(axis=2)
    count = finite.sum(axis=0)
    with np.errstate(over="ignore"):
        diff = trajectories - reference[None, :, :]
        total = np.where(finite, np.einsum("itd,itd->it", diff, diff), 0.0).sum(axis=0)
    out = np.full(total.shape, np.nan)
    some = count > 0
    out[some] = np.sqrt(total[some] / count[some])
    over = some & np.isinf(total)
    if over.any():
        part = np.where(finite[:, over, None], diff[:, over], 0.0)
        scale = np.abs(part).max(axis=(0, 2))
        with np.errstate(invalid="ignore"):
            part /= scale[:, None]
            rescaled = scale * np.sqrt(np.einsum("isd,isd->s", part, part) / count[over])
        # A coordinate distance past the float64 range is itself inf.
        out[over] = np.where(np.isinf(scale), np.inf, rescaled)
    return out


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with shrinking windows at the boundaries.

    Each window averages its finite values; it is NaN where it holds none.
    Windows whose running sums overflow are averaged directly, divided by
    their largest magnitude first.
    """
    series = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = series.shape[0]
    idx = np.arange(n)
    lo = np.clip(idx - (window - 1) // 2, 0, None)
    hi = np.clip(idx + window // 2, None, n - 1)
    finite = np.isfinite(series)
    values = np.where(finite, series, 0.0)
    counts = np.concatenate([[0], np.cumsum(finite)])
    count = counts[hi + 1] - counts[lo]
    with np.errstate(over="ignore", invalid="ignore"):
        csum = np.concatenate([[0.0], np.cumsum(values)])
        total = csum[hi + 1] - csum[lo]
    out = np.full(n, np.nan)
    some = count > 0
    out[some] = total[some] / count[some]
    for i in np.flatnonzero(some & ~np.isfinite(out)):
        part = series[lo[i]:hi[i] + 1][finite[lo[i]:hi[i] + 1]]
        scale = np.abs(part).max()
        out[i] = scale * np.mean(part / scale)
    return out


def divergence_onset(series: np.ndarray, threshold: float) -> int | None:
    """Smallest index whose value exceeds the threshold, or None."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    series = np.asarray(series, dtype=float)
    above = series > threshold
    if not above.any():
        return None
    return int(np.argmax(above))


def factual_rmse(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-step phase distance between an estimated and a true (T+1, d) trajectory."""
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch: {estimate.shape} vs {truth.shape}")
    diff = estimate - truth
    return np.sqrt(np.einsum("td,td->t", diff, diff))
