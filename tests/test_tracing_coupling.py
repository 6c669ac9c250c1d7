"""The package's side of perfbench's tracer.

perfbench/tracing.py wraps package functions by module attribute. A name it
lists that no longer exists makes every traced run fail; a converter that the
package captured at import, instead of looking it up when it calls it, would
bypass the wrapper and silently report zero artifact time and bytes.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from cfdyn import artifacts
from cfdyn.cli import main

from .test_cli import write_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_entry_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
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
