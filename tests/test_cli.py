import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cfdyn.cli import main
from cfdyn.experiment import ARTIFACT_FILES

from .oracles import filter_by_hand, lineage_trace
from .test_experiment import TINY


def write_config(tmp_path, **overrides):
    data = dict(TINY)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def relist(out, name):
    """List `name`'s current sha256 in manifest.json, so the next stage parses the edited file."""
    path = out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["artifacts"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_run_subcommand_writes_artifacts(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    for name in ARTIFACT_FILES + ("manifest.json",):
        assert (out / name).exists()


# At process_std 1 no smoother group of the tiny config takes the row-shifted
# kernel path; at 0.01 some do.
@pytest.mark.parametrize("process_std", [1.0, 0.01])
def test_staged_commands_reproduce_fused_run(tmp_path, process_std):
    config = write_config(tmp_path, process_std=process_std)
    fused = tmp_path / "fused"
    staged = tmp_path / "staged"
    assert main(["run", "--config", str(config), "--out", str(fused)]) == 0
    for stage in ("simulate", "filter", "abduct", "counterfactual", "metrics"):
        assert main([stage, "--config", str(config), "--out", str(staged)]) == 0
    for name in ARTIFACT_FILES + ("manifest.json",):
        assert (staged / name).read_bytes() == (fused / name).read_bytes(), name


def test_thread_count_does_not_change_artifacts(tmp_path):
    config = write_config(tmp_path)
    a, b = tmp_path / "t1", tmp_path / "t8"
    assert main(["run", "--config", str(config), "--out", str(a), "--threads", "1"]) == 0
    assert main(["run", "--config", str(config), "--out", str(b), "--threads", "8"]) == 0
    for name in ARTIFACT_FILES + ("manifest.json",):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_plot_subcommand_renders_figures(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert main(["plot", "--config", str(config), "--out", str(out)]) == 0
    plots = sorted((out / "plots").glob("*.svg"))
    assert len(plots) == 3 + 3 + 1  # three time series, three projections, rmse


def test_seed_flag_overrides_master_seed(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "123"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["master_seed"] == 123
    assert manifest["config"]["master_seed"] == 123


def test_missing_configuration_is_config_error():
    assert main(["run"]) == 2


def test_invalid_config_file_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "horizon": -1}), encoding="utf-8")
    assert main(["run", "--config", str(bad)]) == 2


def test_conflicting_config_sources_rejected(tmp_path):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--preset", "lorenz"]) == 2


def test_stage_without_inputs_is_io_error(tmp_path):
    config = write_config(tmp_path)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["abduct", "--config", str(config), "--out", str(empty)]) == 4


def test_corrupt_filter_state_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    (out / "filter_state.npz").write_bytes(b"garbage, not a zip archive\n" * 20)
    relist(out, "filter_state.npz")
    capsys.readouterr()
    assert main(["abduct", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "filter_state.npz" in err
    assert err.count("\n") == 1


def test_inconsistent_filter_state_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    path = out / "filter_state.npz"
    with np.load(path) as z:
        arrays = dict(z)
    # A valid archive whose smoothed weights cover 3 of the config's 6 lanes.
    arrays["w_tilde"] = arrays["w_tilde"][:, :3]
    np.savez(path, **arrays)
    relist(out, "filter_state.npz")
    capsys.readouterr()
    assert main(["abduct", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "filter_state.npz" in err and "w_tilde" in err
    assert err.count("\n") == 1


def test_unusable_lineage_in_filter_state_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("simulate", "filter"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    path = out / "filter_state.npz"
    with np.load(path) as z:
        original = dict(z)

    def out_of_range(arrays):
        arrays["inner_ancestors"][3, 0] = 99  # N = 8
        return "inner_ancestors"

    def negative(arrays):
        arrays["outer_ancestors"] = arrays["outer_ancestors"].astype(np.int64)
        arrays["outer_ancestors"][5, 2] = -1
        return "outer_ancestors"

    def float_lanes(arrays):
        arrays["outer_ancestors"] = arrays["outer_ancestors"].astype(float)
        return "outer_ancestors"

    for change in (out_of_range, negative, float_lanes):
        arrays = {key: value.copy() for key, value in original.items()}
        key = change(arrays)
        np.savez(path, **arrays)
        relist(out, "filter_state.npz")
        capsys.readouterr()
        assert main(["abduct", "--config", str(config), "--out", str(out)]) == 4, key
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and "filter_state.npz" in err and key in err, err
        assert err.count("\n") == 1


def test_filter_state_stores_narrow_indices_and_reads_int64_ones(tmp_path):
    config = write_config(tmp_path)
    fused, staged = tmp_path / "fused", tmp_path / "staged"
    assert main(["run", "--config", str(config), "--out", str(fused)]) == 0
    for stage in ("simulate", "filter"):
        assert main([stage, "--config", str(config), "--out", str(staged)]) == 0
    path = staged / "filter_state.npz"
    with np.load(path) as z:
        arrays = dict(z)
    assert sorted(arrays) == sorted([
        "thetas", "states", "inner_weights", "inner_ancestors", "outer_weights",
        "outer_ancestors", "w_tilde",
    ])
    # One row per lane-step on a final lane's lineage; T + 1 = 41, M = 6, N = 8.
    rows = int(lineage_trace(arrays["outer_ancestors"])[1].max()) + 1
    assert rows < 41 * 6
    assert arrays["thetas"].shape == (rows, 3) and arrays["states"].shape == (rows, 8, 3)
    assert arrays["inner_weights"].shape == arrays["inner_ancestors"].shape == (rows, 8)
    assert arrays["outer_ancestors"].shape == (41, 6) and arrays["w_tilde"].shape == (41, 6, 8)
    for key in ("outer_ancestors", "inner_ancestors"):
        assert arrays[key].dtype == np.uint8, key  # M = 6, N = 8
        arrays[key] = arrays[key].astype(np.int64)  # as older runs wrote them
    np.savez(path, **arrays)
    relist(staged, "filter_state.npz")
    assert main(["abduct", "--config", str(config), "--out", str(staged)]) == 0
    name = "noise_posterior.csv"
    assert (staged / name).read_bytes() == (fused / name).read_bytes()


def _abduct_fails_naming(config, out, capsys, key):
    """Relist filter_state.npz, run `abduct`, and check it exits 4 with one line naming `key`."""
    relist(out, "filter_state.npz")
    capsys.readouterr()
    assert main(["abduct", "--config", str(config), "--out", str(out)]) == 4, key
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "filter_state.npz" in err and key in err, err
    assert err.count("\n") == 1


def test_wrong_row_count_in_filter_state_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("simulate", "filter"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    path = out / "filter_state.npz"
    with np.load(path) as z:
        original = dict(z)
    for key in ("thetas", "states", "inner_weights", "inner_ancestors"):
        arrays = dict(original)
        arrays[key] = arrays[key][:-1]  # one row short of the S the lineages need
        np.savez(path, **arrays)
        _abduct_fails_naming(config, out, capsys, key)
    # Lanes that never resample keep all 41 * 6 lane-steps, more than the rows held.
    arrays = dict(original, outer_ancestors=np.tile(np.arange(6, dtype=np.uint8), (41, 1)))
    assert original["states"].shape[0] < 41 * 6
    np.savez(path, **arrays)
    _abduct_fails_naming(config, out, capsys, "states")


def test_filter_state_off_its_value_domain_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("simulate", "filter"):
        assert main([stage, "--config", str(config), "--out", str(out)]) == 0
    path = out / "filter_state.npz"
    with np.load(path) as z:
        original = dict(z)

    def put(array, at, value):
        array = array.copy()
        array[at] = value
        return array

    cases = {
        "w_tilde": (put(original["w_tilde"], 7, 0.0), "array w_tilde sums to 0.0 at step 7, not > 0"),
        "outer_weights": (put(original["outer_weights"], (3, 2), np.nan),
                          "array outer_weights holds nan at (3, 2), not a finite number >= 0"),
        "states": (put(original["states"], (5, 1, 2), -np.inf),
                   "array states holds -inf at (5, 1, 2), not a finite number"),
        "thetas": (original["thetas"].astype(bool), "array thetas has dtype bool, not a float dtype"),
    }
    for key, (array, message) in cases.items():
        np.savez(path, **{**original, key: array})
        _abduct_fails_naming(config, out, capsys, message)


def test_filter_state_in_the_full_history_layout_is_io_error(tmp_path, capsys):
    from cfdyn.experiment import build_filter_config, load_config
    from cfdyn.seeding import RngSeed

    config_path = write_config(tmp_path)
    out = tmp_path / "run"
    for stage in ("simulate", "filter"):
        assert main([stage, "--config", str(config_path), "--out", str(out)]) == 0
    config = load_config(config_path)
    observations = np.loadtxt(out / "observations.csv", delimiter=",", skiprows=1)[:, 1:]
    history = filter_by_hand(
        observations, config.system, np.asarray(config.x0), build_filter_config(config),
        RngSeed(config.master_seed).child("filter"),
    )
    path = out / "filter_state.npz"
    with np.load(path) as z:
        arrays = dict(z)
    for key in ("thetas", "states", "inner_weights", "inner_ancestors"):
        arrays[key] = getattr(history, key)  # (T+1, M, ...), every lane-step
    np.savez(path, **arrays)
    _abduct_fails_naming(config_path, out, capsys, "states")


def test_truncated_observations_are_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    path = out / "observations.csv"
    text = path.read_text(encoding="utf-8")
    for cut in (text[: len(text) // 2], text[: text.rindex("\n", 0, len(text) // 2) + 1]):
        path.write_text(cut, encoding="utf-8")
        relist(out, "observations.csv")
        capsys.readouterr()
        assert main(["filter", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and "observations.csv" in err
        assert err.count("\n") == 1


def test_misordered_ensemble_rows_are_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    path = out / "cf_ensemble.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    # Rows t=5 and t=30 of trajectory 0 (line 0 is the header): every field
    # still parses, but the states would land at the wrong steps.
    assert lines[6].startswith("5,0,") and lines[31].startswith("30,0,")
    lines[6], lines[31] = lines[31], lines[6]
    path.write_text("".join(lines), encoding="utf-8")
    relist(out, "cf_ensemble.csv")
    capsys.readouterr()
    assert main(["metrics", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "cf_ensemble.csv" in err
    assert err.count("\n") == 1


def _edit_line(number, edit):
    """A file edit that applies `edit` to line `number` (1 is the header), newline excluded."""

    def apply(text):
        lines = text.split("\n")
        lines[number - 1] = edit(lines[number - 1])
        return "\n".join(lines)

    return apply


def _swap_lines(a, b):
    """A file edit that swaps lines `a` and `b` (1 is the header)."""

    def apply(text):
        lines = text.split("\n")
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        return "\n".join(lines)

    return apply


# (file, the stage that reads it, the edit, what the message must name)
MALFORMED_INPUTS = {
    "blank line": ("observations.csv", "filter", _edit_line(4, lambda s: s + "\n"), "line 5 is blank"),
    "short line": ("observations.csv", "filter", _edit_line(4, lambda s: s[: s.rindex(",")]),
                   "line 4 has 3 fields"),
    "extra field": ("observations.csv", "filter", _edit_line(4, lambda s: s + ",1.0"),
                    "line 4 has 5 fields"),
    "non-numeric cell": ("observations.csv", "filter", _edit_line(4, lambda s: s + "x"),
                         "line 4: could not convert"),
    "missing newline": ("observations.csv", "filter", lambda text: text[:-1], "newline"),
    "non-integer traj_id": ("cf_ensemble.csv", "metrics",
                            _edit_line(2, lambda s: s.replace("0,0,", "0,0.5,", 1)),
                            "line 2: traj_id 0.5 is not an integer"),
    "extra theta field": ("theta_estimate.csv", "counterfactual",
                          _edit_line(2, lambda s: s + ",1.0"), "line 2 has 4 fields"),
    # Misordered: every field still parses, but rows or columns would land in
    # the wrong place.
    "observations rows": ("observations.csv", "filter", _swap_lines(3, 4),
                          "line 3: t is 2, the config's grid has 1"),
    "truth rows": ("truth.csv", "metrics", _swap_lines(3, 4), "line 3: t is 2"),
    "state estimate rows": ("state_estimate.csv", "metrics", _swap_lines(3, 4), "line 3: t is 2"),
    "noise posterior rows": ("noise_posterior.csv", "counterfactual", _swap_lines(3, 4),
                             "line 3: t is 3, the config's grid has 2"),
    "reference rows": ("cf_deterministic.csv", "metrics", _swap_lines(3, 4), "line 3: t is 2"),
    "rmse rows": ("rmse.csv", "plot", _swap_lines(3, 4), "line 3: t is 2"),
    "theta estimate rows": ("theta_estimate.csv", "counterfactual", _swap_lines(2, 3),
                            "line 2: parameter is rho, the config's grid has sigma"),
    "renamed header": ("truth.csv", "metrics",
                       _edit_line(1, lambda s: s.replace("x_1,x_2", "x_2,x_1")),
                       "line 1: the header is t,x_2,x_1,x_3"),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_INPUTS))
def test_malformed_csv_inputs_are_io_errors(tmp_path, capsys, fault):
    name, stage, edit, message = MALFORMED_INPUTS[fault]
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    path = out / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    relist(out, name)
    capsys.readouterr()
    assert main([stage, "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and name in err and message in err, err
    assert err.count("\n") == 1


def test_wrong_shape_inputs_are_io_errors(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    # Cut at a line boundary: each file still parses, but holds too few rows.
    for name, lines in (("noise_posterior.csv", 30), ("theta_estimate.csv", 2)):
        path = out / name
        original = path.read_text(encoding="utf-8")
        path.write_text("".join(original.splitlines(keepends=True)[:lines]), encoding="utf-8")
        relist(out, name)
        capsys.readouterr()
        assert main(["counterfactual", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and name in err
        assert err.count("\n") == 1
        path.write_text(original, encoding="utf-8")
        relist(out, name)


# The pipeline writes these three files finite: (file, the stage that reads
# it, the line and field edited, the column the message names).
FINITE_INPUTS = [
    ("observations.csv", "filter", 6, 2, "y_2"),
    ("theta_estimate.csv", "counterfactual", 2, 1, "mean"),
    ("noise_posterior.csv", "counterfactual", 4, 6, "sigma_3"),
]
NONFINITE = [("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf")]
# Each case: the file's fields above, the value written and the message expected.
BAD_CELLS = [
    pytest.param(*case, value, f"{case[4]} is {shown}, not a finite number",
                 id="-".join(map(str, (*case, value, shown))))
    for value, shown in NONFINITE for case in FINITE_INPUTS
] + [
    # The pipeline writes each std as sqrt(max(0, ...)), and each noise
    # variance as a weighted mean of squares.
    pytest.param("theta_estimate.csv", "counterfactual", 3, 2, "std", "-0.25",
                 "std is -0.25, not >= 0", id="theta_estimate.csv-counterfactual-3-2-std-negative"),
    pytest.param("noise_posterior.csv", "counterfactual", 4, 6, "sigma_3", "-0.25",
                 "sigma_3 is -0.25, not >= 0",
                 id="noise_posterior.csv-counterfactual-4-6-sigma_3-negative"),
] + [
    # cf_ensemble.csv may hold NaN only in a truncated trajectory's rows, all
    # NaN from its failing step on; line 5 is trajectory 0 at t = 3, and the
    # rows after it stay finite. The rmse files hold NaN or values >= 0, and
    # rmse_smoothed is never inf.
    pytest.param(name, stage, line, field, column, value, expected,
                 id="-".join(map(str, (name, stage, line, field, column, value))))
    for name, stage, line, field, column, value, expected in [
        ("cf_ensemble.csv", "metrics", 5, 3, "x_2", "inf", "x_2 is inf, not a finite number"),
        ("cf_ensemble.csv", "plot", 5, 3, "x_2", "inf", "x_2 is inf, not a finite number"),
        ("cf_ensemble.csv", "metrics", 5, 3, "x_2", "nan", "x_2 is nan, not a finite number"),
        ("rmse.csv", "plot", 4, 1, "rmse", "-1.0", "rmse is -1.0, not nan or >= 0"),
        ("rmse.csv", "plot", 4, 1, "rmse", "-inf", "rmse is -inf, not nan or >= 0"),
        ("rmse.csv", "plot", 4, 2, "rmse_smoothed", "inf", "rmse_smoothed is inf, not nan or finite"),
    ]
]


@pytest.mark.parametrize("name, stage, line, field, column, value, expected", BAD_CELLS)
def test_nonfinite_value_in_a_finite_input_is_io_error(
    tmp_path, capsys, name, stage, line, field, column, value, expected
):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    path = out / name

    def put(text):
        fields = text.split(",")
        fields[field] = value
        return ",".join(fields)

    path.write_text(_edit_line(line, put)(path.read_text(encoding="utf-8")), encoding="utf-8")
    relist(out, name)
    capsys.readouterr()
    assert main([stage, "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    message = f"{name} line {line}: {expected}"
    assert err.startswith("I/O error:") and message in err, err
    assert err.count("\n") == 1


def test_pipeline_nans_in_the_ensemble_and_rmse_still_load(tmp_path):
    # exp_decay at seed 77 from the absolute state 2e307: 7 of the 8
    # counterfactual rows overflow and are NaN-padded in cf_ensemble.csv.
    config = write_config(
        tmp_path, system="exp_decay", theta_true=[0.2], x0=[1.0], prior_bounds=[[-1.0, 1.0]],
        intervention={"absolute": [2e307]}, n_cf=8,
    )
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):  # the rollouts overflow
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert "nan" in (out / "cf_ensemble.csv").read_text(encoding="utf-8")
    assert main(["metrics", "--config", str(config), "--out", str(out)]) == 0
    assert main(["plot", "--config", str(config), "--out", str(out)]) == 0


def test_stage_needs_a_manifest_of_the_same_config(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["filter", "--config", str(config), "--out", str(out), "--seed", "7"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "manifest.json" in err
    assert err.count("\n") == 1
    (out / "manifest.json").unlink()
    assert main(["filter", "--config", str(config), "--out", str(out)]) == 4
    assert "manifest.json" in capsys.readouterr().err


def test_plot_needs_a_manifest_of_the_same_config(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out), "--seed", "77"]) == 0
    capsys.readouterr()
    assert main(["plot", "--config", str(config), "--out", str(out), "--seed", "7"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "different config" in err
    assert err.count("\n") == 1
    assert not (out / "plots").exists()
    partial = tmp_path / "partial"
    assert main(["simulate", "--config", str(config), "--out", str(partial)]) == 0
    capsys.readouterr()
    assert main(["plot", "--config", str(config), "--out", str(partial)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "does not list" in err
    assert not (partial / "plots").exists()


def test_partial_run_manifest_lists_written_artifacts(tmp_path):
    # The intervened initial state overflows, so the counterfactual stage fails.
    config = write_config(tmp_path, intervention={"absolute": [1e200, 1.0, 1.0]})
    out = tmp_path / "partial"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["artifacts"]) == sorted(ARTIFACT_FILES[:6])
    assert "smoother_underflows" in manifest["diagnostics"]


def test_run_uses_config_output_dir_when_no_flag(tmp_path):
    out = tmp_path / "from-config"
    config = write_config(tmp_path, output_dir=str(out))
    assert main(["run", "--config", str(config)]) == 0
    assert (out / "manifest.json").exists()


def test_numerical_blowup_is_exit_three(tmp_path):
    config = write_config(
        tmp_path,
        system="exp_decay",
        theta_true=[-120.0],
        x0=[1.0],
        horizon=400,
        delta=0.5,
        prior_bounds=[[-130.0, -110.0]],
        intervention={"component": 1, "shift": 0.1},
    )
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "boom")]) == 3


def test_zero_process_noise_run_counts_every_lane_step_as_underflow(tmp_path):
    # With a degenerate transition density every lane keeps its filtered
    # weights at every step, and the manifest counts each lane-step.
    config = write_config(tmp_path, process_std=0.0)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    expected = TINY["outer_particles"] * TINY["horizon"]
    assert manifest["diagnostics"]["smoother_underflows"] == expected


def test_plot_of_truncated_rmse_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    # Cut at a line boundary: the file still parses, but covers 19 of 41 steps.
    path = out / "rmse.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:20]), encoding="utf-8")
    relist(out, "rmse.csv")
    capsys.readouterr()
    assert main(["plot", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and "rmse.csv" in err
    assert err.count("\n") == 1
    assert not (out / "plots").exists()


def test_plot_of_rmse_not_matching_the_ensemble_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    # Line 4 is t = 2; a value in the file's domain, but not the RMSE there.
    path = out / "rmse.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    t, rmse, smoothed = lines[3].split(",")
    lines[3] = ",".join((t, rmse, "0.5"))
    path.write_text("\n".join(lines), encoding="utf-8")
    relist(out, "rmse.csv")
    capsys.readouterr()
    assert main(["plot", "--config", str(config), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"rmse.csv line 4: rmse_smoothed is 0.5, not {smoothed}" in err, err
    assert err.count("\n") == 1
    assert not (out / "plots").exists()


def _change_one_value(path):
    """Change one stored value of an artifact without changing its shape."""
    if path.suffix == ".npz":
        with np.load(path) as z:
            arrays = dict(z)
        arrays["w_tilde"][1, 0, 0] *= 0.5
        np.savez(path, **arrays)
    else:
        text = path.read_text(encoding="utf-8")
        digit = next(i for i in range(len(text) - 1, 0, -1) if text[i] in "123456789")
        path.write_text(text[:digit] + str(int(text[digit]) - 1) + text[digit + 1:], encoding="utf-8")


def test_metrics_and_plot_do_not_read_cf_thetas(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    rmse = (out / "rmse.csv").read_bytes()
    (out / "cf_thetas.csv").unlink()
    assert main(["metrics", "--config", str(config), "--out", str(out)]) == 0
    assert main(["plot", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "rmse.csv").read_bytes() == rmse


def test_input_changed_since_the_manifest_is_io_error(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    manifest = (out / "manifest.json").read_bytes()
    for name, command in (
        ("observations.csv", "filter"),
        ("filter_state.npz", "abduct"),
        ("noise_posterior.csv", "counterfactual"),
        ("cf_ensemble.csv", "metrics"),
        ("rmse.csv", "plot"),
    ):
        path = out / name
        original = path.read_bytes()
        _change_one_value(path)
        capsys.readouterr()
        assert main([command, "--config", str(config), "--out", str(out)]) == 4, name
        err = capsys.readouterr().err
        assert err.startswith("I/O error:") and name in err and "sha256" in err, err
        assert err.count("\n") == 1
        assert (out / "manifest.json").read_bytes() == manifest
        path.write_bytes(original)
    assert not (out / "plots").exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", "5"),
        ("horizon", 5.5),
        ("outer_particles", True),
        ("intervention", ["component", "shift"]),
        ("intervention", 5),
        ("intervention", {"component": 1, "shift": "x"}),
        ("delta", None),
        ("process_std", float("inf")),
        ("observation_std", float("nan")),
        ("system", ["lorenz"]),
        ("theta_true", [10.0, "28", 2.5]),
        ("n_cf", 2.0),
        ("master_seed", "42"),
        ("rmse_window", 2.5),
        ("inner_resampling", "no"),
    ],
)
def test_wrongly_typed_config_field_is_config_error(tmp_path, capsys, field, value):
    config = write_config(tmp_path, **{field: value})
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"'{field}'" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("outer_particles", 0),
        ("inner_particles", 0),
        ("delta", 0.0),
        ("process_std", -1.0),
        ("observation_std", 0.0),
        ("jitter_scale", -0.1),
        ("prior_bounds", [[5.0, 15.0], [35.0, 20.0], [2.0, 4.0]]),
        ("prior_bounds", [[5.0, 15.0], [20.0], [2.0, 4.0]]),
    ],
)
def test_out_of_range_config_value_is_config_error(tmp_path, capsys, field, value):
    config = write_config(tmp_path, **{field: value})
    out = tmp_path / "run"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert f"'{field}'" in err, err
    assert not out.exists()
