import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from cfdyn.artifacts import (
    load_ensemble,
    load_filter_state,
    load_theta_estimate,
    load_trajectory,
    read_table,
    save_ensemble,
    save_npz,
    save_trajectory,
    write_csv,
)
from cfdyn.counterfactual import CfTrajectorySet
from cfdyn.errors import ArtifactError


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_as_written(path):
    """Load `path` as a series under its own header line, on the grid t = 0, 1, ... of its lines."""
    text = path.read_text(encoding="utf-8")
    return load_trajectory(path, text.split("\n")[0].split(","), [range(text.count("\n") - 1)])


def _ensemble_layout(n, horizon1, d):
    steps, ids = np.tile(np.arange(horizon1), n), np.repeat(np.arange(n), horizon1)
    return ["t", "traj_id", *(f"x_{k + 1}" for k in range(d))], [steps, ids]


def test_streamed_npz_has_the_bytes_of_np_savez(tmp_path):
    gen = np.random.default_rng(3)
    arrays = {
        "states": gen.normal(size=(40, 6, 7, 3)),
        "large": gen.normal(size=300_000),  # 2.4 MB: several 1 MiB slices
        "ancestors": gen.integers(0, 50, size=(41, 50), dtype=np.int64),
        "fortran": np.asfortranarray(gen.normal(size=(5, 9))),
        "strided": gen.normal(size=(8, 6))[:, ::2],
        "empty": np.empty((0, 3)),
        "delta": np.float64(0.05),
        "count": np.int64(7),
    }
    ours, numpys = tmp_path / "ours.npz", tmp_path / "numpy.npz"
    save_npz(ours, arrays)
    np.savez(numpys, **arrays)
    assert _sha256(ours) == _sha256(numpys)
    with np.load(ours, allow_pickle=False) as z:
        assert z["delta"].shape == () and float(z["delta"]) == 0.05
        for key, value in arrays.items():
            assert np.array_equal(z[key], value)


def test_garbage_filter_state_is_artifact_error(tmp_path):
    path = tmp_path / "filter_state.npz"
    path.write_bytes(b"\x80\x04not an archive" * 10)
    with pytest.raises(ArtifactError, match="filter_state.npz"):
        load_filter_state(path)


def test_csv_cut_mid_line_is_artifact_error(tmp_path):
    path = tmp_path / "series.csv"
    layout = (["t", "x_1", "x_2"], [range(2)])
    path.write_text("t,x_1,x_2\n0,1.0,2.0\n1,3.0,4.0\n", encoding="utf-8")
    assert load_trajectory(path, *layout).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    path.write_text("t,x_1,x_2\n0,1.0,2.0\n1,3.", encoding="utf-8")
    with pytest.raises(ArtifactError, match="newline"):
        load_trajectory(path, *layout)
    path.write_text("t,x_1,x_2\n0,1.0,2.0\n1,3.0\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="line 3"):
        load_trajectory(path, *layout)


# Files that np.loadtxt alone would misread or report by data row: each must
# fail naming the file, and the file line where there is one.
READER_FAULTS = {
    "blank line": ("t,x_1\n0,1.0\n\n1,2.0\n", "line 3 is blank"),
    "blank last line": ("t,x_1\n0,1.0\n1,2.0\n\n", "line 4 is blank"),
    "blank line, one column": ("t\n0\n\n1\n", "line 3 is blank"),
    "short line": ("t,x_1,x_2\n0,1.0,2.0\n1,3.0\n2,5.0,6.0\n", "line 3 has 2 fields"),
    "extra field": ("t,x_1\n0,1.0\n1,2.0\n2,3.0,4.0\n", "line 4 has 3 fields"),
    "short header": ("t,x_1\n0,1.0,2.0\n1,3.0,4.0\n", "line 2 has 3 fields"),
    "non-numeric cell": ("t,x_1\n0,1.0\n1,abc\n", "line 3: could not convert string 'abc'"),
    "empty cell": ("t,x_1,x_2\n0,1.0,\n", "line 2: could not convert string ''"),
    "underscore digits": ("t,x_1\n0,1_0\n", "line 2: could not convert string '1_0'"),
    "non-integer step": ("t,x_1\n0,1.0\n1.5,2.0\n", "line 3: t 1.5 is not an integer"),
    "non-finite step": ("t,x_1\n0,1.0\nnan,2.0\n", "line 3: t nan is not an integer"),
    "missing newline": ("t,x_1\n0,1.0\n1,2.0", "does not end with a newline"),
    "empty file": ("", "does not end with a newline"),
}


@pytest.mark.parametrize("fault", sorted(READER_FAULTS))
def test_csv_reader_faults_name_the_file_and_line(tmp_path, fault):
    text, message = READER_FAULTS[fault]
    path = tmp_path / "series.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ArtifactError, match="series.csv") as info:
        _load_as_written(path)
    assert message in str(info.value)
    assert "\n" not in str(info.value)


def test_theta_estimate_checks_its_parameter_names_and_counts_its_fields(tmp_path):
    path = tmp_path / "theta_estimate.csv"
    layout = (["parameter", "mean", "std"], [("r", "K")])
    path.write_text("parameter,mean,std\nr,0.5,0.125\nK,100.0,2.0\n", encoding="utf-8")
    mean, std = load_theta_estimate(path, *layout)
    assert mean.tolist() == [0.5, 100.0] and std.tolist() == [0.125, 2.0]
    # np.loadtxt drops the fields past its usecols; the reader must not.
    for text, message in [
        ("parameter,mean,std\nr,0.5,0.125,9\nK,100.0,2.0\n", "line 2 has 4 fields"),
        ("parameter,mean,std\nr,0.5\nK,100.0,2.0\n", "line 2 has 2 fields"),
        ("parameter,mean,std\nr,0.5,0.125\n\nK,100.0,2.0\n", "line 3 is blank"),
        ("parameter,mean,std\nr,0.5,x\n", "line 2: could not convert string 'x'"),
        ("parameter,mean,std\nK,100.0,2.0\nr,0.5,0.125\n", "line 2: parameter is K"),
        ("parameter,mean,std\nr,0.5,0.125\n", "holds 1 rows, the config's grid has 2"),
    ]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ArtifactError, match="theta_estimate.csv") as info:
            load_theta_estimate(path, *layout)
        assert message in str(info.value)


def test_ensemble_with_a_non_integer_trajectory_id_is_artifact_error(tmp_path):
    path, thetas = tmp_path / "cf_ensemble.csv", tmp_path / "cf_thetas.csv"
    path.write_text("t,traj_id,x_1\n0,0,1.0\n1,0.5,2.0\n", encoding="utf-8")
    thetas.write_text("traj_id,r\n0,1.0\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="cf_ensemble.csv line 3: traj_id 0.5 is not an integer"):
        load_ensemble(path, *_ensemble_layout(1, 2, 1))
    path.write_text("t,traj_id,x_1\n0,0,1.0\n1,0,2.0\n", encoding="utf-8")
    thetas.write_text("traj_id,r\n0,1.0,3.0\n", encoding="utf-8")
    assert load_ensemble(path, *_ensemble_layout(1, 2, 1)).tolist() == [[[1.0], [2.0]]]
    with pytest.raises(ArtifactError, match="cf_thetas.csv line 2 has 3 fields"):
        load_trajectory(thetas, ["traj_id", "r"], [range(1)])


def test_csv_round_trip_keeps_every_bit(tmp_path):
    values = np.array([
        np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
        1e16, 9999999999999998.0, 1e-5, 1e-4, 0.1, 1.0 / 3.0, 2.0**-1074 * 3, -123.456,
    ]).reshape(8, 2)
    path = tmp_path / "series.csv"
    write_csv(path, ["t", "a", "b"], [range(8)], values)
    back = read_table(path, ["t", "a", "b"], [range(8)])
    assert back.tobytes() == values.tobytes()
    # The labels read back as the integers 0..7: a grid from 1 is off at line 2.
    with pytest.raises(ArtifactError, match="line 2: t is 0, the config's grid has 1"):
        read_table(path, ["t", "a", "b"], [range(1, 9)])
    assert path.read_text(encoding="utf-8").splitlines()[1:3] == ["0,nan,inf", "1,-inf,0.0"]


def test_csv_with_no_data_rows_loads_as_an_empty_table(tmp_path):
    path = tmp_path / "series.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(path, ["t", "x_1", "x_2"], [range(0)], np.empty((0, 2)))
        assert path.read_text(encoding="utf-8") == "t,x_1,x_2\n"
        assert read_table(path, ["t", "x_1", "x_2"], [range(0)]).shape == (0, 2)
        assert load_trajectory(path, ["t", "x_1", "x_2"], [range(0)]).shape == (0, 2)
        path.write_text("parameter,mean,std\n", encoding="utf-8")
        mean, std = load_theta_estimate(path, ["parameter", "mean", "std"], [()])
        assert mean.shape == std.shape == (0,)


def test_block_streamed_csv_has_the_bytes_of_one_joined_string(tmp_path):
    gen = np.random.default_rng(5)
    rows = 2 * 1024 + 17  # two full blocks and a partial one
    values = gen.normal(size=(rows, 3)) * 10.0 ** gen.integers(-8, 8, size=(rows, 3))
    steps, ids = np.arange(rows) % 100, np.arange(rows) // 100
    path = tmp_path / "series.csv"
    write_csv(path, ["t", "traj_id", "a", "b", "c"], [steps, ids], values)
    lines = ["t,traj_id,a,b,c"] + [
        ",".join([str(int(s)), str(int(i)), *map(repr, row)])
        for s, i, row in zip(steps, ids, values.tolist())
    ]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    with pytest.raises(ValueError, match="one field per row"):
        write_csv(path, ["t", "a", "b", "c"], [range(rows - 1)], values)


def test_ensemble_csv_io_holds_at_most_three_tables(tmp_path):
    gen = np.random.default_rng(9)
    ensemble = CfTrajectorySet(
        trajectories=gen.normal(size=(50, 501, 3)) * 10.0, thetas=gen.normal(size=(50, 3))
    )
    path, thetas = tmp_path / "cf_ensemble.csv", tmp_path / "cf_thetas.csv"
    table_nbytes = 50 * 501 * (2 + 3) * 8  # t, traj_id and x_1..x_3 as float64
    thetas_layout = (["traj_id", "s", "r", "b"], [range(50)])
    peaks = {}
    for name, call in [
        ("save", lambda: (save_ensemble(path, ensemble, *_ensemble_layout(50, 501, 3)),
                          save_trajectory(thetas, ensemble.thetas, *thetas_layout))),
        ("load", lambda: CfTrajectorySet(load_ensemble(path, *_ensemble_layout(50, 501, 3)),
                                         load_trajectory(thetas, *thetas_layout))),
    ]:
        tracemalloc.start()
        try:
            result = call()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert result.trajectories.tobytes() == ensemble.trajectories.tobytes()
    assert result.thetas.tobytes() == ensemble.thetas.tobytes()
    assert max(peaks.values()) <= 3 * table_nbytes, peaks


def test_ensemble_without_trajectory_ids_is_artifact_error(tmp_path):
    path, thetas = tmp_path / "cf_ensemble.csv", tmp_path / "cf_thetas.csv"
    path.write_text("t,traj_id,x_1\n0,-1,1.0\n1,-1,2.0\n", encoding="utf-8")
    thetas.write_text("traj_id,r\n0,1.0\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="grid"):
        load_ensemble(path, *_ensemble_layout(1, 2, 1))
    assert load_trajectory(thetas, ["traj_id", "r"], [range(1)]).tolist() == [[1.0]]
