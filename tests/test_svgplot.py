import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cfdyn.svgplot import _Panel, render_plots

from .oracles import svg_path_per_point


def _setup(n_traj=3, horizon=25, d=3, seed=0):
    rng = np.random.default_rng(seed)
    reference = rng.normal(size=(horizon + 1, d))
    ensemble = rng.normal(size=(n_traj, horizon + 1, d))
    rmse = rng.uniform(size=horizon + 1)
    return reference, ensemble, (rmse, rmse)


def test_figures_are_well_formed_svg(tmp_path):
    reference, ensemble, rmse = _setup()
    written = render_plots(reference, ensemble, rmse, tmp_path)
    assert len(written) == 3 + 3 + 1
    for path in written:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_one_path_per_trajectory_per_panel(tmp_path):
    reference, ensemble, rmse = _setup(n_traj=5)
    written = render_plots(reference, ensemble, rmse, tmp_path)
    for path in written:
        text = path.read_text()
        n_traj_paths = len(re.findall(r'class="trajectory"', text))
        n_ref_paths = len(re.findall(r'class="reference"', text))
        if path.name.startswith(("cf_timeseries", "phase")):
            assert n_traj_paths == 5, path.name
            assert n_ref_paths == 1, path.name


def test_singleton_ensemble_coincides_with_reference(tmp_path):
    reference, _, rmse = _setup(d=1)
    ensemble = reference[None].copy()
    written = render_plots(reference, ensemble, rmse, tmp_path)
    series = next(p for p in written if p.name == "cf_timeseries_x1.svg")
    text = series.read_text()
    d_attrs = re.findall(r'class="(trajectory|reference)" d="([^"]+)"', text)
    assert len(d_attrs) == 2
    assert d_attrs[0][1] == d_attrs[1][1]


def test_empty_ensemble_writes_nothing(tmp_path):
    reference, _, rmse = _setup()
    empty = np.zeros((0, 26, 3))
    target = tmp_path / "plots"
    with pytest.raises(ValueError):
        render_plots(reference, empty, rmse, target)
    assert not target.exists()


def test_truncated_trajectories_split_paths(tmp_path):
    reference, ensemble, rmse = _setup(n_traj=2)
    ensemble[1, 10:] = np.nan
    written = render_plots(reference, ensemble, rmse, tmp_path)
    series = next(p for p in written if p.name == "cf_timeseries_x1.svg")
    assert 'class="trajectory"' in series.read_text()


def test_rendering_is_deterministic(tmp_path):
    reference, ensemble, rmse = _setup()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a = render_plots(reference, ensemble, rmse, a_dir)
    b = render_plots(reference, ensemble, rmse, b_dir)
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()


def test_path_data_matches_per_point_oracle():
    panel = _Panel("t", "x", "y", (0.0, 30.0), (-3.0, 3.0))
    x = np.arange(31.0)
    y = np.random.default_rng(5).normal(size=31)
    # Leading, interior (one with an isolated finite point between) and
    # trailing non-finite points, in both coordinates.
    y[[0, 1, 7, 8, 13, 15, 29, 30]] = [np.nan, np.inf, np.nan, -np.inf, np.nan, np.nan, np.nan, np.inf]
    x[20] = np.nan
    panel.path(x, y, "#000", "trajectory")
    d = re.search(r' d="([^"]*)"', panel.elements[-1]).group(1)
    assert d == svg_path_per_point(panel._sx(x), panel._sy(y))
    assert d.startswith("M") and d.count("M") == 5
    panel.path(x[2:7], y[2:7], "#000", "trajectory")
    d = re.search(r' d="([^"]*)"', panel.elements[-1]).group(1)
    assert d == svg_path_per_point(panel._sx(x[2:7]), panel._sy(y[2:7]))
    assert d.count("M") == 1


def test_all_non_finite_series_writes_no_path():
    panel = _Panel("t", "x", "y", (0.0, 4.0), (0.0, 1.0))
    panel.path(np.arange(5.0), np.full(5, np.nan), "#000", "trajectory")
    panel.path(np.array([np.inf, 1.0]), np.array([0.5, -np.inf]), "#000", "trajectory")
    panel.path(np.zeros(0), np.zeros(0), "#000", "trajectory")
    assert panel.elements == []
