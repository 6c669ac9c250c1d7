"""One benchmark run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py setup  <workload> <seed> <work_dir> [--tiny]
    python3 perfbench/worker.py timed  <workload> <seed> <work_dir> <seconds> [--tiny]
    python3 perfbench/worker.py traced <workload> <seed> <work_dir> <seconds> [--tiny]

`setup` prints the CLOCK_MONOTONIC reading (time.perf_counter) at which the
interpreter was ready to run: cfdyn imported, config built and validated,
output directory created. The other modes print one JSON object as the last
line of standard output.
"""
from __future__ import annotations

import sys
import time

if __name__ == "__main__" and sys.argv[1:2] == ["setup"]:
    # Kept ahead of every other import: the set-up time covers only what a
    # user of the package pays before a run can start.
    from pathlib import Path

    import cfdyn  # noqa: F401 - the import is what is measured
    from workloads import WORKLOADS

    config = WORKLOADS[sys.argv[2]].config(int(sys.argv[3]), tiny="--tiny" in sys.argv)
    Path(sys.argv[4], "setup_out").mkdir(parents=True, exist_ok=True)
    print(repr(time.perf_counter()))
    sys.exit(0)

import gc
import json
import os
import resource
import shutil
import statistics
import traceback
from pathlib import Path

import checks
import tracing
from workloads import STAGES, WORKLOADS


class WorkloadFailed(RuntimeError):
    pass


def run_once(workload, config, config_path: Path, out: Path) -> None:
    """One complete workload run, every artifact written to `out`."""
    from cfdyn.cli import main
    from cfdyn.experiment import run_pipeline

    if workload.staged:
        for stage in STAGES:
            argv = [stage, "--config", str(config_path), "--out", str(out),
                    "--threads", str(workload.threads)]
            code = main(argv)
            if code != 0:
                raise WorkloadFailed(f"cfdyn {stage} exited with code {code}")
    else:
        run_pipeline(config, out, workers=workload.threads)


class Session:
    """Repeated runs of one workload config, with their checks and tallies."""

    def __init__(self, workload, seed: int, work_dir: Path, tiny: bool):
        from cfdyn.experiment import save_config

        self.workload = workload
        self.config = workload.config(seed, tiny=tiny)
        self.work_dir = work_dir
        self.config_path = work_dir / "config.json"
        save_config(self.config_path, self.config)
        self.attempted = 0
        self.failed = 0
        self.raised: list[str] = []
        self.problems: list[str] = []
        self.times: list[float] = []
        self.reference: dict | None = None  # file hashes of the first completed run
        self.reference_dir: Path | None = None

    def attempt(self, out: Path) -> dict | None:
        """Run once into `out`; the run's file hashes, or None if it failed."""
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            run_once(self.workload, self.config, self.config_path, out)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            self.failed += 1
            self.raised.append(traceback.format_exception_only(exc)[-1].strip())
            return None
        self.times.append(time.perf_counter() - start)
        return checks.hash_run(out)

    def repeat(self, seconds: float, min_runs: int) -> None:
        """Time runs until `seconds` have passed; each must match the first (check a)."""
        start = time.perf_counter()
        while len(self.times) < min_runs or time.perf_counter() - start < seconds:
            out = self.work_dir / f"run{self.attempted}"
            hashes = self.attempt(out)
            if hashes is None:
                return  # a failing seed fails the same way every time
            if self.reference is None:
                self.reference = hashes
                self.reference_dir = out
                continue
            found = checks.compare_hashes(self.reference, hashes, "rerun")
            self.failed += bool(found)
            self.problems += found
            shutil.rmtree(out)

    def check_reference(self) -> float | None:
        """Invariants (check d) and the criterion-3 bound (check e) of the first run."""
        if self.reference is None:
            return None
        found, factual = checks.check_outputs(self.config, self.reference_dir)
        if found:
            self.failed = self.attempted  # every run matched the first, or failed already
            self.problems += found
        return factual


def warm_up(workload, seed: int, work_dir: Path) -> None:
    """One untimed run on the tiny config, so timed runs start in a warm process."""
    (work_dir / "warm").mkdir(parents=True, exist_ok=True)
    tiny = Session(workload, seed, work_dir / "warm", tiny=True)
    tiny.attempt(tiny.work_dir / "run")
    shutil.rmtree(tiny.work_dir)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed(session: Session, seconds: float) -> dict:
    session.repeat(seconds, min_runs=2)
    result = {"peak_rss_mb": peak_rss_mb()}
    if session.reference is not None:
        result["disk_mb"] = checks.dir_bytes(session.reference_dir) / 1e6
    result["factual_rmse"] = session.check_reference()
    if session.workload.staged and session.reference is not None:
        # Check b: the staged commands reproduce a fused run of the same config.
        from cfdyn.experiment import ARTIFACT_FILES, run_pipeline

        fused = session.work_dir / "fused"
        session.attempted += 1
        try:
            run_pipeline(session.config, fused, workers=session.workload.threads)
        except Exception as exc:  # noqa: BLE001 - counted as a failed run
            session.failed += 1
            session.raised.append(f"fused run: {exc!r}")
        else:
            found = checks.compare_hashes(
                session.reference, checks.hash_run(fused), "staged vs fused", ARTIFACT_FILES
            )
            session.failed += bool(found)
            session.problems += found
    return result


def traced(session: Session, seconds: float) -> dict:
    session.repeat(seconds, min_runs=1)
    session.check_reference()
    if session.reference is None:
        return {}
    tracer = tracing.Tracer(run_id=f"{session.workload.name}-{session.config.master_seed}")
    out = session.work_dir / "traced"
    start = time.perf_counter()
    with tracer.installed():
        run_once(session.workload, session.config, session.config_path, out)
    wall = time.perf_counter() - start
    # Check c: the traced run did the same work as the untraced ones.
    found = checks.compare_hashes(session.reference, checks.hash_run(out), "traced vs untraced")
    session.attempted += 1
    session.failed += bool(found)
    session.problems += found
    (session.work_dir / "trace.json").write_text(json.dumps(tracer.dump()) + "\n")
    result = tracing.layer_metrics(tracer, wall)
    result["trace.overhead_s"] = wall - statistics.median(session.times)
    result.update(tracing.microbenchmarks(session.config))
    return result


def environment() -> dict:
    """Interpreter, numpy and BLAS this run used; BLAS threads as the library reports them."""
    import ctypes
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = {}
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        query = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            threads = query()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv: list[str]) -> int:
    mode, name, seed, work_dir, seconds = argv[0], argv[1], int(argv[2]), Path(argv[3]), float(argv[4])
    workload = WORKLOADS[name]
    warm_up(workload, seed, work_dir)
    session = Session(workload, seed, work_dir, tiny="--tiny" in argv)
    metrics = (timed if mode == "timed" else traced)(session, seconds)
    print(json.dumps({
        "attempted": session.attempted,
        "failed": session.failed,
        "raised": session.raised,
        "problems": session.problems,
        "checked": session.reference is not None,
        "run_times": session.times,
        "metrics": metrics,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
