"""The package's side of perfbench's tracer.

perfbench/tracing.py wraps package functions by module attribute. A name it
lists that no longer exists makes every traced run fail; a converter that the
package captured at import, instead of looking it up when it calls it, would
bypass the wrapper and silently report zero artifact time and bytes. Its
layer counters read members of the results it records (`FilterHistory`,
`SmoothedWeights`, `CfTrajectorySet`), so a member they name must stay.
"""
import importlib
import importlib.util
import math
import numbers
import sys
import time
from pathlib import Path

from cfdyn import artifacts
from cfdyn.cli import main
from cfdyn.experiment import run_pipeline

from .test_cli import write_config
from .test_experiment import tiny_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_entry_point_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert len(tracing.ENTRY_POINTS) >= 14
    for module, attr in tracing.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_stages_call_the_converters_by_name_with_the_file_path(tmp_path, monkeypatch):
    calls = []

    def count(name):
        original = getattr(artifacts, name)

        def counted(*args, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(artifacts, name, counted)

    count("save_trajectory")
    count("load_observations")
    config, out = write_config(tmp_path), tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert calls == [("save_trajectory", out / "truth.csv")]
    calls.clear()
    assert main(["filter", "--config", str(config), "--out", str(out)]) == 0
    assert calls == [
        ("load_observations", out / "observations.csv"),
        ("save_trajectory", out / "state_estimate.csv"),
    ]


def test_layer_metrics_read_finite_counters_off_a_traced_run(tmp_path, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    tracer = tracing.Tracer(run_id="tiny")
    start = time.perf_counter()
    with tracer.installed():
        run_pipeline(tiny_config(), tmp_path / "run")
    metrics = tracing.layer_metrics(tracer, time.perf_counter() - start)
    assert "filtering.smoothed_ess_frac" in metrics and "filtering.history_mb" in metrics
    for key, value in metrics.items():
        assert isinstance(value, numbers.Real) and math.isfinite(value), (key, value)
