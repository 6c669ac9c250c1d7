"""Run-artifact persistence: CSV series, filter state, and the run manifest.

All numeric series are UTF-8 CSV with one header line. Floats are written
with shortest round-trip formatting so re-parsing reproduces the exact
float64 values and re-running a configuration reproduces identical bytes.
"""
from __future__ import annotations

import functools
import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from .abduction import NoisePosterior
from .counterfactual import CfTrajectorySet
from .errors import ArtifactError
from .filtering import FilterDiagnostics, FilterHistory, SmoothedWeights
from .simulate import Trajectory


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float64."""
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    # write_csv ends every file with a newline; a file cut short ends mid-line.
    if not text.endswith("\n"):
        raise ArtifactError(f"{path} is truncated: it does not end with a newline")
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ArtifactError(
                f"{path} line {number} has {len(row)} fields, the header has {len(header)}"
            )
    return header, rows


def _reader(load):
    """Re-raise what `load` cannot parse as a one-line ArtifactError naming the file."""

    @functools.wraps(load)
    def checked(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except ArtifactError:
            raise
        except (ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile) as exc:
            detail = " ".join(str(exc).split())
            raise ArtifactError(f"{path} is corrupt or truncated: {detail}") from exc

    return checked


def save_trajectory(path: Path, traj: Trajectory, prefix: str = "x") -> None:
    d = traj.dimension
    header = ["t"] + [f"{prefix}_{k + 1}" for k in range(d)]
    rows = (
        [str(t)] + [fmt_float(v) for v in traj.states[t]]
        for t in range(traj.states.shape[0])
    )
    write_csv(path, header, rows)


@_reader
def load_trajectory(path: Path, delta: float) -> Trajectory:
    _, rows = read_csv(path)
    states = np.array([[float(v) for v in row[1:]] for row in rows])
    return Trajectory(states=states, delta=delta)


def save_observations(path: Path, observations: np.ndarray) -> None:
    d = observations.shape[1]
    header = ["t"] + [f"y_{k + 1}" for k in range(d)]
    rows = (
        [str(t)] + [fmt_float(v) for v in observations[t]]
        for t in range(observations.shape[0])
    )
    write_csv(path, header, rows)


@_reader
def load_observations(path: Path) -> np.ndarray:
    _, rows = read_csv(path)
    return np.array([[float(v) for v in row[1:]] for row in rows])


def save_noise_posterior(path: Path, noise: NoisePosterior) -> None:
    d = noise.dimension
    header = (
        ["t"]
        + [f"mu_{k + 1}" for k in range(d)]
        + [f"sigma_{k + 1}" for k in range(d)]
    )
    rows = (
        [str(t + 1)]
        + [fmt_float(v) for v in noise.mu[t]]
        + [fmt_float(v) for v in noise.sigma[t]]
        for t in range(noise.horizon)
    )
    write_csv(path, header, rows)


@_reader
def load_noise_posterior(path: Path) -> NoisePosterior:
    header, rows = read_csv(path)
    d = (len(header) - 1) // 2
    data = np.array([[float(v) for v in row[1:]] for row in rows])
    return NoisePosterior(mu=data[:, :d], sigma=data[:, d:])


def save_ensemble(path: Path, thetas_path: Path, ensemble: CfTrajectorySet,
                  parameter_names: tuple[str, ...]) -> None:
    d = ensemble.trajectories.shape[2]
    header = ["t", "traj_id"] + [f"x_{k + 1}" for k in range(d)]
    rows = (
        [str(t), str(i)] + [fmt_float(v) for v in ensemble.trajectories[i, t]]
        for i in range(ensemble.n_trajectories)
        for t in range(ensemble.horizon + 1)
    )
    write_csv(path, header, rows)
    theta_header = ["traj_id"] + list(parameter_names)
    theta_rows = (
        [str(i)] + [fmt_float(v) for v in ensemble.thetas[i]]
        for i in range(ensemble.n_trajectories)
    )
    write_csv(thetas_path, theta_header, theta_rows)


@_reader
def load_ensemble(
    path: Path, thetas_path: Path, delta: float, reference: Trajectory | None = None
) -> CfTrajectorySet:
    _, rows = read_csv(path)
    steps = np.array([int(row[0]) for row in rows])
    ids = np.array([int(row[1]) for row in rows])
    values = np.array([[float(v) for v in row[2:]] for row in rows])
    # save_ensemble writes the rows trajectory-major with t = 0..T in each.
    n_traj = int(ids.max()) + 1
    horizon1 = len(rows) // n_traj
    if not (np.array_equal(ids, np.repeat(np.arange(n_traj), horizon1))
            and np.array_equal(steps, np.tile(np.arange(horizon1), n_traj))):
        raise ArtifactError(
            f"{path} rows do not form the (traj_id, t) grid of {n_traj} trajectories "
            f"with t = 0..{horizon1 - 1} in order"
        )
    trajectories = values.reshape(n_traj, horizon1, -1)
    _, theta_rows = read_csv(thetas_path)
    thetas = np.array([[float(v) for v in row[1:]] for row in theta_rows])
    bad_steps = ~np.isfinite(trajectories).all(axis=2)
    failures = np.array(
        [row.argmax() if row.any() else -1 for row in bad_steps], dtype=np.int64
    )
    return CfTrajectorySet(
        trajectories=trajectories,
        thetas=thetas,
        delta=delta,
        reference=reference,
        failure_index=failures if (failures >= 0).any() else None,
    )


def save_rmse(path: Path, raw: np.ndarray, smoothed: np.ndarray) -> None:
    header = ["t", "rmse", "rmse_smoothed"]
    rows = (
        [str(t), fmt_float(raw[t]), fmt_float(smoothed[t])]
        for t in range(raw.shape[0])
    )
    write_csv(path, header, rows)


@_reader
def load_rmse(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = read_csv(path)
    raw = np.array([float(row[1]) for row in rows])
    smoothed = np.array([float(row[2]) for row in rows])
    return raw, smoothed


def save_theta_estimate(
    path: Path, names: tuple[str, ...], mean: np.ndarray, std: np.ndarray
) -> None:
    header = ["parameter", "mean", "std"]
    rows = (
        [names[k], fmt_float(mean[k]), fmt_float(std[k])] for k in range(len(names))
    )
    write_csv(path, header, rows)


@_reader
def load_theta_estimate(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, rows = read_csv(path)
    mean = np.array([float(row[1]) for row in rows])
    std = np.array([float(row[2]) for row in rows])
    return mean, std


_NPZ_CHUNK = 1 << 20


def save_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write the bytes `np.savez(path, **arrays)` writes, streaming each array.

    A zip entry is not a real file, so `np.savez` copies every array out in
    chunks of up to 16 MiB; this writes the same entries (stored, zip64) from
    uint8 views of at most 1 MiB, without the copies.
    """
    with zipfile.ZipFile(path, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        for key, value in arrays.items():
            array = np.asanyarray(value)
            header = np.lib.format.header_data_from_array_1_0(array)
            if header["fortran_order"]:
                array = array.T
            data = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
            with zf.open(key + ".npy", "w", force_zip64=True) as entry:
                np.lib.format.write_array_header_1_0(entry, header)
                for start in range(0, data.size, _NPZ_CHUNK):
                    entry.write(data[start : start + _NPZ_CHUNK])


def save_filter_state(path: Path, history: FilterHistory, smoothed: SmoothedWeights) -> None:
    save_npz(
        path,
        dict(
            thetas=history.thetas,
            states=history.states,
            inner_weights=history.inner_weights,
            outer_weights=history.outer_weights,
            outer_ancestors=history.outer_ancestors,
            inner_ancestors=history.inner_ancestors,
            delta=np.float64(history.delta),
            w_tilde=smoothed.w_tilde,
            v_tilde=smoothed.v_tilde,
            lane_index=smoothed.lane_index,
            underflow_lane_steps=np.int64(smoothed.underflow_lane_steps),
        ),
    )


@_reader
def load_filter_state(path: Path) -> tuple[FilterHistory, SmoothedWeights]:
    with np.load(path, allow_pickle=False) as z:
        history = FilterHistory(
            thetas=z["thetas"],
            states=z["states"],
            inner_weights=z["inner_weights"],
            outer_weights=z["outer_weights"],
            outer_ancestors=z["outer_ancestors"],
            inner_ancestors=z["inner_ancestors"],
            delta=float(z["delta"]),
            diagnostics=FilterDiagnostics(),
        )
        smoothed = SmoothedWeights(
            w_tilde=z["w_tilde"],
            v_tilde=z["v_tilde"],
            lane_index=z["lane_index"],
            underflow_lane_steps=int(z["underflow_lane_steps"]),
        )
    return history, smoothed


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@_reader
def load_manifest(path: Path) -> dict:
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict) or not all(
        isinstance(manifest.get(key), dict) for key in ("artifacts", "diagnostics")
    ):
        raise ValueError("not a run manifest")
    return manifest


def write_manifest(path: Path, manifest: dict) -> None:
    path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
