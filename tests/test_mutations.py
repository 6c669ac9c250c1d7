"""Seeded mutations of the run files, each read by every command that reads it.

One tiny lorenz run is made once. Each case edits one run file of a fresh
copy: truncation, a bit flip, a non-finite token in one value cell, a
duplicated or a dropped line, CRLF line endings or a byte-order mark. The npz
gets the first two, and then in each float member a nan, an inf or -1.0 in
one cell, or a complex or a str dtype, written back with `np.savez`. It lists
the edited file's sha256 in manifest.json, so the command parses the file
instead of stopping at the checksum, and runs each command that reads it.
Every run must exit 0, 3 or 4 with at most one line on stderr and no uncaught
exception or warning. A value edit off its domain must exit 4 naming the CSV
file, line and column, or the npz member; one on its domain must exit 0.
"""
import io
import shutil
import warnings

import numpy as np
import pytest

from cfdyn.cli import main
from cfdyn.dynamics import get_system
from cfdyn.experiment import PLOT_INPUTS, STAGES, file_layout

from .test_cli import relist, write_config
from .test_experiment import tiny_config

SEED = 11  # fixed before the first run
ROUNDS = 3
TOKENS = ("nan", "inf", "-inf", "1e400")
# The float members of filter_state.npz, and the two whose values may be negative.
NPZ_FLOATS = ("thetas", "states", "inner_weights", "outer_weights", "w_tilde")
SIGNED = ("thetas", "states")

# Each run file a command reads -> the commands that read it.
READERS: dict[str, list[str]] = {}
for _stage in STAGES:
    for _name in _stage.inputs:
        READERS.setdefault(_name, []).append(_stage.name)
for _name in PLOT_INPUTS:
    READERS.setdefault(_name, []).append("plot")


def _npz_edits(data: bytes, rng: np.random.Generator):
    """(case id, mutated bytes, (allowed, message)) for a value or dtype edit of each
    float member of the npz `data`."""
    with np.load(io.BytesIO(data)) as z:
        original = dict(z)
    for key in NPZ_FLOATS:
        edits = []
        for value in (np.nan, np.inf, -1.0):
            array = original[key].copy()
            array.flat[int(rng.integers(array.size))] = value
            edits.append((repr(value), array, value == -1.0 and key in SIGNED))
        edits += [(dtype, original[key].astype(dtype), False) for dtype in ("complex", "str")]
        for case, array, allowed in edits:
            buffer = io.BytesIO()
            np.savez(buffer, **{**original, key: array})
            yield f"{key}-{case}", buffer.getvalue(), (allowed, f"filter_state.npz array {key} ")


def _mutations(name: str, data: bytes, labels: int, rng: np.random.Generator):
    """(case id, mutated bytes, None, or for a value edit (whether its domain
    allows it, what the message names if not))."""
    for _ in range(ROUNDS):
        cut = int(rng.integers(1, len(data)))
        yield f"truncate-{cut}", data[:cut], None
        at, bit = int(rng.integers(len(data))), int(rng.integers(8))
        yield f"bitflip-{at}-{bit}", data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:], None
    if name.endswith(".npz"):
        yield from _npz_edits(data, rng)
        return
    lines = data.decode("utf-8").split("\n")[:-1]
    header = lines[0].split(",")
    for _ in range(ROUNDS):
        number = int(rng.integers(2, len(lines) + 1))
        copy = lines[:number] + lines[number - 1:]
        yield f"duplicate-{number}", "\n".join(copy).encode() + b"\n", None
        number = int(rng.integers(2, len(lines) + 1))
        copy = lines[: number - 1] + lines[number:]
        yield f"drop-{number}", "\n".join(copy).encode() + b"\n", None
        for token in TOKENS:
            number = int(rng.integers(2, len(lines) + 1))
            field = int(rng.integers(labels, len(header)))
            cells = lines[number - 1].split(",")
            cells[field] = token
            copy = [*lines[: number - 1], ",".join(cells), *lines[number:]]
            # No CSV cell may hold a non-finite token the pipeline did not write
            # there: a single NaN in a finite ensemble row is off its domain, and
            # `plot` recomputes rmse.csv from the ensemble it draws.
            yield (f"{token}-{number}-{header[field]}", "\n".join(copy).encode() + b"\n",
                   (False, f"{name} line {number}: {header[field]} is"))
    yield "crlf", data.replace(b"\n", b"\r\n"), None
    yield "bom", b"\xef\xbb\xbf" + data, None


@pytest.fixture(scope="module")
def base_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    config = write_config(root)
    assert main(["run", "--config", str(config), "--out", str(root / "run")]) == 0
    return config, root / "run"


def _run(argv, capsys):
    """Exit code, stderr and warnings of one in-process command; an uncaught
    exception is returned as the exit code."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - reported as the case's outcome
            code = exc
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", sorted(READERS))
def test_mutated_run_file_exits_cleanly(tmp_path, capsys, base_run, name):
    config, source = base_run
    tiny = tiny_config()
    _, layout = file_layout(name, tiny, get_system(tiny.system))
    labels = 0 if name.endswith(".npz") else len(layout[1])
    rng = np.random.default_rng([SEED, sorted(READERS).index(name)])
    faults = []
    for case, mutated, value_edit in _mutations(name, (source / name).read_bytes(), labels, rng):
        for command in READERS[name]:
            out = tmp_path / f"{case}-{command}"
            shutil.copytree(source, out)
            (out / name).write_bytes(mutated)
            relist(out, name)
            code, err, caught = _run([command, "--config", str(config), "--out", str(out)], capsys)
            outcome = f"{name} {case} via {command}: exit {code!r}, stderr {err!r}, warnings {caught}"
            if code not in (0, 3, 4) or err.count("\n") > 1 or "Traceback" in err or caught:
                faults.append(outcome)
            elif value_edit is not None:
                allowed, message = value_edit
                if allowed:
                    if code != 0:
                        faults.append(outcome)
                elif code != 4 or message not in err:
                    faults.append(outcome)
            shutil.rmtree(out)
    assert not faults, "\n".join(faults)
