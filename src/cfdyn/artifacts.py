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
from .filtering import AncestralHistory, SmoothedWeights


_BLOCK_ROWS = 1024


def write_csv(path: Path, header: list[str], labels, values) -> None:
    """Write one header line, then per row its label fields and its float values.

    `labels` holds the label columns, each field written with `str`; `values`
    is the (rows, columns) float block, each float written with `repr`, the
    shortest string that round-trips to it. Rows go out in blocks of
    `_BLOCK_ROWS`, so only one block is ever held as text.
    """
    values = np.asarray(values, dtype=float)
    if any(len(column) != len(values) for column in labels):
        raise ValueError(f"label columns of {path} do not have one field per row")
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fields = [map(str, np.asarray(column[block]).tolist()) for column in labels]
            rows = (map(repr, row) for row in values[block].tolist())
            f.write("".join([",".join([*label, *row]) + "\n" for *label, row in zip(*fields, rows)]))


def _layout(path: Path) -> tuple[list[str], int, int]:
    """The header fields, the newline count and the comma count of a CSV file.

    Raises ArtifactError if the file does not end with a newline, as every
    file `write_csv` writes does and a file cut short mid-line does not.
    """
    newlines = commas = 0
    last = b""
    with open(path, "rb") as f:
        header = f.readline()
        f.seek(0)
        for block in iter(lambda: f.read(1 << 16), b""):
            newlines, commas, last = newlines + block.count(b"\n"), commas + block.count(b","), block
    if not last.endswith(b"\n"):
        raise ArtifactError(f"{path} is truncated: it does not end with a newline")
    return header.decode("utf-8").rstrip("\r\n").split(","), newlines, commas


def _raise_first_fault(path: Path, header: list[str], usecols) -> None:
    """Raise ArtifactError naming the first line of `path` that is not a row of the
    header's width parsed as numbers in `usecols`; return if every line is one."""
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, start=1):
            fields = line.rstrip("\r\n").split(",")
            if not line.strip():
                raise ArtifactError(f"{path} line {number} is blank")
            if len(fields) != len(header):
                raise ArtifactError(
                    f"{path} line {number} has {len(fields)} fields, the header has {len(header)}"
                )
            if number > 1:
                try:
                    np.loadtxt([line], delimiter=",", comments=None, usecols=usecols)
                except ValueError as exc:
                    detail = str(exc).split(" at row")[0]
                    raise ArtifactError(f"{path} line {number}: {detail}") from exc


def read_table(path: Path, n_labels: int, skip: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """What `write_csv` wrote: its (rows, n_labels) integer labels and its (rows, columns) floats.

    numpy's C reader parses the file in place, with no Python object per cell.
    The first `skip` columns are text labels and are not read. Every line must
    hold as many fields as the header, and every label an integer value.
    """
    header, newlines, commas = _layout(path)
    usecols = tuple(range(skip, len(header))) if skip else None
    rows = newlines - 1
    if rows == 0:
        data = np.empty((0, len(header) - skip))
    else:
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                              usecols=usecols, encoding="utf-8")
        except ValueError:
            _raise_first_fault(path, header, usecols)
            raise
        # np.loadtxt skips blank lines, and with usecols ignores extra fields.
        if len(data) != rows or commas != newlines * (len(header) - 1):
            _raise_first_fault(path, header, usecols)
            raise ArtifactError(f"{path} does not hold one row of {len(header)} fields per line")
    labels = data[:, :n_labels]
    exact = (labels == np.trunc(labels)) & (np.abs(labels) <= 2.0**53)
    if not exact.all():
        row, column = np.argwhere(~exact)[0]
        raise ArtifactError(
            f"{path} line {row + 2}: {header[skip + column]} "
            f"{float(labels[row, column])!r} is not an integer"
        )
    return labels.astype(np.int64), np.ascontiguousarray(data[:, n_labels:])


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


def _columns(prefix: str, d: int) -> list[str]:
    return [f"{prefix}_{k + 1}" for k in range(d)]


def save_trajectory(path: Path, states: np.ndarray) -> None:
    write_csv(path, ["t", *_columns("x", states.shape[1])], [range(len(states))], states)


@_reader
def load_trajectory(path: Path) -> np.ndarray:
    return read_table(path, 1)[1]


def save_observations(path: Path, observations: np.ndarray) -> None:
    header = ["t", *_columns("y", observations.shape[1])]
    write_csv(path, header, [range(len(observations))], observations)


@_reader
def load_observations(path: Path) -> np.ndarray:
    return read_table(path, 1)[1]


def save_noise_posterior(path: Path, noise: NoisePosterior) -> None:
    header = ["t", *_columns("mu", noise.dimension), *_columns("sigma", noise.dimension)]
    steps = range(1, noise.horizon + 1)
    write_csv(path, header, [steps], np.hstack([noise.mu, noise.sigma]))


@_reader
def load_noise_posterior(path: Path) -> NoisePosterior:
    data = read_table(path, 1)[1]
    d = data.shape[1] // 2
    return NoisePosterior(mu=data[:, :d], sigma=data[:, d:])


def save_ensemble(path: Path, thetas_path: Path, ensemble: CfTrajectorySet,
                  parameter_names: tuple[str, ...]) -> None:
    n, horizon1, d = ensemble.trajectories.shape
    steps, ids = np.tile(np.arange(horizon1), n), np.repeat(np.arange(n), horizon1)
    values = ensemble.trajectories.reshape(n * horizon1, d)
    write_csv(path, ["t", "traj_id", *_columns("x", d)], [steps, ids], values)
    write_csv(thetas_path, ["traj_id", *parameter_names], [range(n)], ensemble.thetas)


@_reader
def load_ensemble(path: Path, thetas_path: Path) -> CfTrajectorySet:
    labels, values = read_table(path, 2)
    steps, ids = labels.T
    # save_ensemble writes the rows trajectory-major with t = 0..T in each.
    n_traj = int(ids.max()) + 1
    horizon1 = len(ids) // max(n_traj, 1)
    if not (np.array_equal(ids, np.repeat(np.arange(n_traj), horizon1))
            and np.array_equal(steps, np.tile(np.arange(horizon1), n_traj))):
        raise ArtifactError(
            f"{path} rows do not form the (traj_id, t) grid of {n_traj} trajectories "
            f"with t = 0..{horizon1 - 1} in order"
        )
    return CfTrajectorySet(
        trajectories=values.reshape(n_traj, horizon1, -1),
        thetas=read_table(thetas_path, 1)[1],
    )


def save_rmse(path: Path, raw: np.ndarray, smoothed: np.ndarray) -> None:
    values = np.column_stack([raw, smoothed])
    write_csv(path, ["t", "rmse", "rmse_smoothed"], [range(len(raw))], values)


@_reader
def load_rmse(path: Path) -> tuple[np.ndarray, np.ndarray]:
    values = read_table(path, 1)[1]
    return values[:, 0], values[:, 1]


def save_theta_estimate(
    path: Path, names: tuple[str, ...], mean: np.ndarray, std: np.ndarray
) -> None:
    write_csv(path, ["parameter", "mean", "std"], [names], np.column_stack([mean, std]))


@_reader
def load_theta_estimate(path: Path) -> tuple[np.ndarray, np.ndarray]:
    values = read_table(path, 0, skip=1)[1]
    return values[:, 0], values[:, 1]


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


def save_filter_state(path: Path, history: AncestralHistory, smoothed: SmoothedWeights) -> None:
    """Write the ancestral history and the smoothed weights; `lane` and `row` are derived, not stored."""
    save_npz(
        path,
        dict(
            thetas=history.thetas,
            states=history.states,
            inner_weights=history.inner_weights,
            outer_weights=history.outer_weights,
            outer_ancestors=history.outer_ancestors,
            inner_ancestors=history.inner_ancestors,
            w_tilde=smoothed.w_tilde,
            v_tilde=smoothed.v_tilde,
        ),
    )


@_reader
def load_filter_state(path: Path) -> tuple[AncestralHistory, SmoothedWeights]:
    with np.load(path, allow_pickle=False) as z:
        history = AncestralHistory(
            thetas=z["thetas"],
            states=z["states"],
            inner_weights=z["inner_weights"],
            inner_ancestors=z["inner_ancestors"],
            outer_weights=z["outer_weights"],
            outer_ancestors=z["outer_ancestors"],
        )
        smoothed = SmoothedWeights(w_tilde=z["w_tilde"], v_tilde=z["v_tilde"])
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
