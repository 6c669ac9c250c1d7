"""Output checks: what a workload run must leave behind to count as correct.

The checks read the run directory with numpy and hashlib only, not with the
package's own loaders, so a defect in those loaders cannot hide itself. No
golden hashes are pinned: a change may alter the random-stream layout, so runs
are compared with each other, never with stored values.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

WEIGHT_SUM_TOL = 1e-9


def hash_run(out_dir: Path) -> dict[str, str]:
    """sha256 of every file under a run directory, keyed by relative path."""
    out_dir = Path(out_dir)
    hashes = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256()
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    digest.update(block)
            hashes[str(path.relative_to(out_dir))] = digest.hexdigest()
    return hashes


def dir_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def compare_hashes(expected: dict, actual: dict, label: str, names=None) -> list[str]:
    """Problems found comparing two runs' hashes, over `names` or every file."""
    names = sorted(set(expected) | set(actual)) if names is None else names
    return [f"{label}: {name} differs" for name in names if expected.get(name) != actual.get(name)]


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_outputs(config, out_dir: Path) -> tuple[list[str], float]:
    """Invariants of one finished run, and its factual RMSE.

    The factual RMSE is the criterion-3 statistic: the mean of the smoothed
    per-step estimation error divided by sqrt(d).
    """
    out_dir = Path(out_dir)
    problems = []
    horizon, d = config.horizon, len(config.x0)

    with np.load(out_dir / "filter_state.npz") as z:
        sums = z["w_tilde"].sum(axis=(1, 2))
    if np.abs(sums - 1.0).max() > WEIGHT_SUM_TOL:
        problems.append(f"smoothed weights sum to {sums.min()!r}..{sums.max()!r}, not 1")

    estimate = _table(out_dir / "state_estimate.csv")[:, 1:]
    if estimate.shape != (horizon + 1, d) or not np.isfinite(estimate).all():
        problems.append(f"state estimate has shape {estimate.shape} or non-finite values")

    theta = np.loadtxt(out_dir / "theta_estimate.csv", delimiter=",", skiprows=1,
                       usecols=1, ndmin=1)
    bounds = np.asarray(config.prior_bounds)
    if not ((bounds[:, 0] <= theta) & (theta <= bounds[:, 1])).all():
        problems.append(f"theta estimate {theta} outside prior bounds {config.prior_bounds}")

    ensemble = _table(out_dir / "cf_ensemble.csv")
    n_traj = np.unique(ensemble[:, 1]).size
    if (n_traj, ensemble.shape[0], ensemble.shape[1] - 2) != (
        config.n_cf, config.n_cf * (horizon + 1), d
    ):
        problems.append(f"ensemble is not ({config.n_cf}, {horizon + 1}, {d})")

    smoothed_error = _table(out_dir / "factual_rmse.csv")[:, 2]
    factual = float(smoothed_error.mean() / np.sqrt(d))
    if config.system == "lorenz" and not factual < 3.0 * config.observation_std:
        problems.append(f"factual_rmse {factual} >= 3 * observation_std")
    return problems, factual
