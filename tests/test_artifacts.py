import hashlib

import numpy as np
import pytest

from cfdyn.artifacts import load_ensemble, load_filter_state, read_csv, save_npz
from cfdyn.errors import ArtifactError


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    path.write_text("t,x_1,x_2\n0,1.0,2.0\n1,3.0,4.0\n", encoding="utf-8")
    assert read_csv(path)[1] == [["0", "1.0", "2.0"], ["1", "3.0", "4.0"]]
    path.write_text("t,x_1,x_2\n0,1.0,2.0\n1,3.", encoding="utf-8")
    with pytest.raises(ArtifactError, match="newline"):
        read_csv(path)
    path.write_text("t,x_1,x_2\n0,1.0,2.0\n1,3.0\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="line 3"):
        read_csv(path)


def test_ensemble_without_trajectory_ids_is_artifact_error(tmp_path):
    path, thetas = tmp_path / "cf_ensemble.csv", tmp_path / "cf_thetas.csv"
    path.write_text("t,traj_id,x_1\n0,-1,1.0\n1,-1,2.0\n", encoding="utf-8")
    thetas.write_text("traj_id,r\n0,1.0\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match="grid"):
        load_ensemble(path, thetas)
