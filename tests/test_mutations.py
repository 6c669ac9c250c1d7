"""Seeded mutations of the run files, each read by every command that reads it.

One tiny lorenz run is made once. Each case edits one run file of a fresh
copy: truncation, a bit flip, a non-finite token in one value cell, a
duplicated or a dropped line, CRLF line endings or a byte-order mark (the npz
gets the first two only). It lists the edited file's sha256 in manifest.json,
so the command parses the file instead of stopping at the checksum, and runs
each command that reads it. Every run must exit 0, 3 or 4 with at most one
line on stderr and no uncaught exception or warning, and a non-finite token
in a cell whose domain forbids it must exit 4 naming the file, line and column.
"""
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
TOKENS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "1e400": np.inf}

# Each run file a command reads -> the commands that read it.
READERS: dict[str, list[str]] = {}
for _stage in STAGES:
    for _name in _stage.inputs:
        READERS.setdefault(_name, []).append(_stage.name)
for _name in PLOT_INPUTS:
    READERS.setdefault(_name, []).append("plot")


def _allowed(name: str, column: str, value: float) -> bool:
    """Whether the pipeline can write `value` in `column` of `name`; a single
    NaN cell in a finite ensemble row is never one of those."""
    if name == "rmse.csv":
        return np.isnan(value) or (value > 0 and column == "rmse")
    return False


def _mutations(name: str, data: bytes, labels: int, rng: np.random.Generator):
    """(case id, mutated bytes, (line, column, token) of a token edit or None)."""
    for _ in range(ROUNDS):
        cut = int(rng.integers(1, len(data)))
        yield f"truncate-{cut}", data[:cut], None
        at, bit = int(rng.integers(len(data))), int(rng.integers(8))
        yield f"bitflip-{at}-{bit}", data[:at] + bytes([data[at] ^ 1 << bit]) + data[at + 1:], None
    if name.endswith(".npz"):
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
            yield (f"{token}-{number}-{header[field]}", "\n".join(copy).encode() + b"\n",
                   (number, header[field], token))
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
    for case, mutated, token_edit in _mutations(name, (source / name).read_bytes(), labels, rng):
        for command in READERS[name]:
            out = tmp_path / f"{case}-{command}"
            shutil.copytree(source, out)
            (out / name).write_bytes(mutated)
            relist(out, name)
            code, err, caught = _run([command, "--config", str(config), "--out", str(out)], capsys)
            outcome = f"{name} {case} via {command}: exit {code!r}, stderr {err!r}, warnings {caught}"
            if code not in (0, 3, 4) or err.count("\n") > 1 or "Traceback" in err or caught:
                faults.append(outcome)
            elif token_edit is not None:
                number, column, token = token_edit
                if _allowed(name, column, TOKENS[token]):
                    if code != 0:
                        faults.append(outcome)
                elif code != 4 or f"{name} line {number}: {column} is" not in err:
                    faults.append(outcome)
            shutil.rmtree(out)
    assert not faults, "\n".join(faults)
