"""Run-artifact persistence: CSV series, filter state, and the run manifest.

All numeric series are UTF-8 CSV with one header line. Floats are written
with shortest round-trip formatting so re-parsing reproduces the exact
float64 values and re-running a configuration reproduces identical bytes.
Each file is written and read under one layout (`experiment.file_layout`):
a CSV's header and label columns, the filter state's array sizes. A read
checks the file against it.
"""
from __future__ import annotations

import functools
import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from .errors import ArtifactError
from .filtering import AncestralHistory


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


def _check_grid(path: Path, header: list[str], found: list, grid: list) -> None:
    """Raise ArtifactError naming the first line where a label column of `found`
    is off the layout's `grid`, or the row counts if they differ."""
    for name, got, want in zip(header, found, grid):
        want = np.asarray(want)
        if len(got) != len(want):
            raise ArtifactError(f"{path} holds {len(got)} rows, the config's grid has {len(want)}")
        off = np.flatnonzero(got != want)
        if off.size:
            row = off[0]
            raise ArtifactError(
                f"{path} line {row + 2}: {name} is {got[row]}, the config's grid has {want[row]}"
            )


def read_table(path: Path, header: list[str], labels: list, text: int = 0) -> np.ndarray:
    """The (rows, columns) floats of a file that `write_csv(path, header, labels, ...)` wrote.

    numpy's C reader parses the file in place, with no Python object per cell.
    The file's header must be `header`, every line must hold as many fields,
    and its label columns must equal `labels`, the grid that fixes its rows and
    their order. The first `text` label columns are text; the others must hold
    integer values. Raises ArtifactError naming the file and, where there is
    one, the line.
    """
    found, newlines, commas = _layout(path)
    if found != list(header):
        raise ArtifactError(
            f"{path} line 1: the header is {','.join(found)}, the config's layout has "
            f"{','.join(header)}"
        )
    usecols = tuple(range(text, len(header))) if text else None
    rows = newlines - 1
    if rows == 0:
        data = np.empty((0, len(header) - text))
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
    n_labels = len(labels) - text
    numbers = data[:, :n_labels]
    exact = (numbers == np.trunc(numbers)) & (np.abs(numbers) <= 2.0**53)
    if not exact.all():
        row, column = np.argwhere(~exact)[0]
        raise ArtifactError(
            f"{path} line {row + 2}: {header[text + column]} "
            f"{float(numbers[row, column])!r} is not an integer"
        )
    names = np.empty((rows, text), dtype=str)
    if text and rows:  # the few parameter names: a second pass costs nothing
        names = np.loadtxt(path, dtype=str, delimiter=",", skiprows=1, ndmin=2, comments=None,
                           usecols=range(text), encoding="utf-8")
    _check_grid(path, header, [*names.T, *numbers.astype(np.int64).T], labels)
    return np.ascontiguousarray(data[:, n_labels:])


def _in_domain(path: Path, header: list[str], labels: list, values: np.ndarray,
               bad=None, domain: str = "a finite number") -> np.ndarray:
    """The value columns `read_table` read from `path`, unless a cell is `bad`
    (by default, not finite); then raise ArtifactError naming the first such
    line and column, and the `domain` its value is not in."""
    bad = np.argwhere(~np.isfinite(values) if bad is None else bad)
    if bad.size:
        row, column = bad[0]
        raise ArtifactError(f"{path} line {row + 2}: {header[len(labels) + column]} is "
                            f"{float(values[row, column])!r}, not {domain}")
    return values


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


# Every CSV converter writes or reads one file under the header and label grid
# that `experiment.file_layout` gives it. perfbench wraps each save_*/load_*
# name on its own and counts the bytes of the paths passed to it, so each file
# is written and read by one call of one name, path first, and a name that
# shares another's converter stays.


def save_trajectory(path: Path, table: np.ndarray, header: list[str], labels: list) -> None:
    """Write a (rows, columns) table: a state series, or the ensemble's thetas."""
    write_csv(path, header, labels, table)


@_reader
def load_trajectory(path: Path, header: list[str], labels: list) -> np.ndarray:
    return _in_domain(path, header, labels, read_table(path, header, labels))


save_observations, load_observations = save_trajectory, load_trajectory


def save_noise_posterior(path: Path, noise: tuple, header: list[str], labels: list) -> None:
    """Write the (mu, var) pair of (T, d) noise moments side by side."""
    write_csv(path, header, labels, np.hstack(noise))


@_reader
def load_noise_posterior(path: Path, header: list[str], labels: list) -> tuple[np.ndarray, np.ndarray]:
    """The (mu, var) pair; raise ArtifactError at the first variance below 0."""
    values = _in_domain(path, header, labels, read_table(path, header, labels))
    d = values.shape[1] // 2
    _in_domain(path, header, labels, values, (values < 0) & (np.arange(2 * d) >= d), ">= 0")
    return values[:, :d], values[:, d:]


def save_ensemble(path: Path, trajectories: np.ndarray, header: list[str], labels: list) -> None:
    """Write the (n, T+1, d) trajectories, trajectory-major; their thetas are cf_thetas.csv."""
    n, horizon1, d = trajectories.shape
    write_csv(path, header, labels, trajectories.reshape(n * horizon1, d))


@_reader
def load_ensemble(path: Path, header: list[str], labels: list) -> np.ndarray:
    """The (n, T+1, d) trajectories on the trajectory-major (t, traj_id) grid `labels`.

    A trajectory's rows are finite from t = 0 until one is NaN in every cell,
    and NaN from that row to t = T; raise ArtifactError naming a cell off
    that domain.
    """
    values = read_table(path, header, labels)
    trajectories = values.reshape(int(labels[1][-1]) + 1, -1, values.shape[1])
    truncated = np.logical_or.accumulate(np.isnan(trajectories).all(axis=2), axis=1)
    truncated[:, 0] = False
    truncated = truncated.reshape(-1, 1)
    _in_domain(path, header, labels, values, ~truncated & ~np.isfinite(values))
    _in_domain(path, header, labels, values, truncated & ~np.isnan(values),
               "nan: the trajectory is nan from an earlier row on")
    return trajectories


def save_rmse(path: Path, pair: tuple, header: list[str], labels: list) -> None:
    """Write two equal-length columns: (rmse, rmse_smoothed), or a (mean, std) estimate."""
    write_csv(path, header, labels, np.column_stack(pair))


save_theta_estimate = save_rmse


@_reader
def load_rmse(path: Path, header: list[str], labels: list) -> tuple[np.ndarray, np.ndarray]:
    """The (rmse, rmse_smoothed) columns: each value is NaN or >= 0, and
    rmse_smoothed is never inf. Raise ArtifactError naming a cell that is not."""
    values = read_table(path, header, labels)
    _in_domain(path, header, labels, values, ~(np.isnan(values) | (values >= 0)), "nan or >= 0")
    _in_domain(path, header, labels, values, np.isinf(values) & [False, True], "nan or finite")
    return values[:, 0], values[:, 1]


@_reader
def load_theta_estimate(path: Path, header: list[str], labels: list) -> tuple[np.ndarray, np.ndarray]:
    """The (mean, std) columns, the `parameter` text column checked against `labels`;
    raise ArtifactError at the first std below 0."""
    values = _in_domain(path, header, labels, read_table(path, header, labels, text=1))
    _in_domain(path, header, labels, values, (values < 0) & [False, True], ">= 0")
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


def save_filter_state(path: Path, state: tuple[AncestralHistory, np.ndarray], *layout) -> None:
    """Write the ancestral history and the smoothed weights; `rows` and `parent` are derived, not stored.

    `layout` is ignored: an npz stores its own shapes, and its reader checks them.
    """
    history, w_tilde = state
    save_npz(
        path,
        dict(
            thetas=history.thetas,
            states=history.states,
            inner_weights=history.inner_weights,
            outer_weights=history.outer_weights,
            outer_ancestors=history.outer_ancestors,
            inner_ancestors=history.inner_ancestors,
            w_tilde=w_tilde,
        ),
    )


def _check_shapes(path: Path, arrays: dict, needs: dict) -> None:
    """Raise ArtifactError naming the arrays that do not have the shape `needs` names."""
    shape = {key: arrays[key].shape for key in needs if arrays[key].shape != needs[key]}
    if shape:
        expected = {key: needs[key] for key in shape}
        raise ArtifactError(f"{path} holds shape {shape}, the config needs {expected}")


def _check_index(path: Path, key: str, index: np.ndarray, bound: int) -> None:
    """Raise ArtifactError unless `index` has an integer dtype (any width:
    narrow or int64) and values in [0, bound)."""
    if index.dtype.kind not in "iu":
        raise ArtifactError(f"{path} array {key} has dtype {index.dtype}, not an integer dtype")
    if index.min() < 0 or index.max() >= bound:
        raise ArtifactError(
            f"{path} array {key} holds values in [{index.min()}, {index.max()}], "
            f"outside [0, {bound})"
        )


def _check_filter_state(
    path: Path, history: AncestralHistory, w_tilde: np.ndarray,
    t1: int, m: int, n: int, p: int, d: int,
) -> None:
    """Check a filter state against the layout (T+1, M, N, p, d) and its value
    domain, in the order its arrays depend on each other; raise ArtifactError
    at the first misfit.

    The lane arrays come first: `outer_ancestors` must index M lanes before the
    row count S, one `parent` entry per row, is derived from it. Then every
    compact member must have S rows, `inner_ancestors` must index N
    particles, and the smoothed weights must cover every (t, lane). Last come
    the values: the five members other than the index arrays must have a float
    dtype, `thetas` and `states` must be finite, the three weight arrays finite
    and >= 0, and every step of `w_tilde` must have a positive sum, by which
    abduction divides.
    """
    arrays = {**vars(history), "w_tilde": w_tilde}
    _check_shapes(path, arrays, {"outer_weights": (t1, m), "outer_ancestors": (t1, m)})
    _check_index(path, "outer_ancestors", history.outer_ancestors, m)
    s = history.parent.size
    _check_shapes(path, arrays, {
        "thetas": (s, p), "states": (s, n, d), "inner_weights": (s, n), "inner_ancestors": (s, n),
    })
    _check_index(path, "inner_ancestors", history.inner_ancestors, n)
    _check_shapes(path, arrays, {"w_tilde": (t1, m, n)})
    for key in ("thetas", "states", "inner_weights", "outer_weights", "w_tilde"):
        value, weights = arrays[key], key not in ("thetas", "states")
        if value.dtype.kind != "f":
            raise ArtifactError(f"{path} array {key} has dtype {value.dtype}, not a float dtype")
        bad = ~np.isfinite(value) | (value < 0) if weights else ~np.isfinite(value)
        if bad.any():
            at = tuple(np.argwhere(bad)[0].tolist())
            raise ArtifactError(f"{path} array {key} holds {float(value[at])!r} at {at}, "
                                f"not a finite number{' >= 0' if weights else ''}")
    sums = w_tilde.sum(axis=(1, 2))
    if not (sums > 0).all():
        t = int(np.argmin(sums > 0))
        raise ArtifactError(f"{path} array w_tilde sums to {float(sums[t])!r} at step {t}, not > 0")


@_reader
def load_filter_state(
    path: Path, t1: int, m: int, n: int, p: int, d: int
) -> tuple[AncestralHistory, np.ndarray]:
    """The ancestral history and smoothed weights, checked against the layout (T+1, M, N, p, d).

    The file is opened here, not by `np.load`, which leaves it open when it is not a zip.
    """
    with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
        history = AncestralHistory(
            thetas=z["thetas"],
            states=z["states"],
            inner_weights=z["inner_weights"],
            inner_ancestors=z["inner_ancestors"],
            outer_weights=z["outer_weights"],
            outer_ancestors=z["outer_ancestors"],
        )
        w_tilde = z["w_tilde"]
    _check_filter_state(path, history, w_tilde, t1, m, n, p, d)
    return history, w_tilde


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
