"""Divergence metrics between counterfactual ensembles and their reference."""
from __future__ import annotations

import numpy as np

from .counterfactual import CfTrajectorySet


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two states."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def rmse_t(ensemble: CfTrajectorySet, reference: np.ndarray) -> np.ndarray:
    """Root mean square of ensemble-to-reference (T+1, d) phase distances, per step."""
    if ensemble.n_trajectories < 1:
        raise ValueError("ensemble is empty")
    if ensemble.trajectories.shape[1:] != reference.shape:
        raise ValueError(
            f"ensemble shape {ensemble.trajectories.shape[1:]} does not match "
            f"reference {reference.shape}"
        )
    diff = ensemble.trajectories - reference[None, :, :]
    dist_sq = np.einsum("itd,itd->it", diff, diff)
    return np.sqrt(dist_sq.mean(axis=0))


def moving_average(series: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with shrinking windows at the boundaries."""
    series = np.asarray(series, dtype=float)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = series.shape[0]
    idx = np.arange(n)
    lo = np.clip(idx - (window - 1) // 2, 0, None)
    hi = np.clip(idx + window // 2, None, n - 1)
    csum = np.concatenate([[0.0], np.cumsum(series)])
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


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
