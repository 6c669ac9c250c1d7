"""Benchmark of the cfdyn pipeline: one workload per invocation, run from a checkout's root.

    python3 perfbench/run.py --workload lorenz-staged --seed 42 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

`--trace 0` times untraced runs and reports the end-to-end metrics named in
BENCHMARK.json; `--trace 1` adds one traced run and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give each
metric with its unit and sample count, the problems found and the
environment. Everything the runs write goes under `.perfbench/` in the
checkout. Workload notes and known defects are in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # one invocation per workload must end within 180 s
SETUP_PROBES = 8  # per batch: one batch before the timed runs, one after


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # One BLAS thread: the smoother's matmul then does not vary with the
    # scheduler, and no workload uses more than its own thread count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(args: list[str], env: dict, deadline: float) -> str:
    """Run worker.py in a fresh interpreter; its standard output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        fail(f"worker {args[0]} did not finish within the time limit")
    if proc.returncode != 0:
        fail(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(name: str, seed: int, work_dir: Path, env: dict, deadline: float,
                  extra: list[str], warm: bool) -> list[float]:
    """Fresh-interpreter set-up times of one batch of probes.

    Unless `warm`, one more probe runs first and is dropped, because it
    writes the bytecode caches. Both clocks are CLOCK_MONOTONIC
    (time.perf_counter), so the child's ready time and the parent's launch
    time are comparable.
    """
    samples = []
    for _ in range(SETUP_PROBES + (not warm)):
        start = time.perf_counter()
        ready = float(launch(["setup", name, str(seed), str(work_dir), *extra], env, deadline)
                      .split()[-1])
        samples.append(ready - start)
    return samples if warm else samples[1:]


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def bench(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: int,
          tiny: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(root)
    work_dir = root / ".perfbench" / name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    extra = ["--tiny"] if tiny else []

    setup = [] if trace else setup_seconds(name, seed, work_dir, env, deadline, extra, warm=False)
    mode = "traced" if trace else "timed"
    out = json.loads(launch([mode, name, str(seed), str(work_dir), str(seconds), *extra],
                            env, deadline).splitlines()[-1])
    if not trace:
        # Probes on both sides of the timed runs: a slow spell of the shared
        # machine at the start then does not set the whole median.
        setup += setup_seconds(name, seed, work_dir, env, deadline, extra, warm=True)
    for path in work_dir.iterdir():
        if path.is_dir():
            shutil.rmtree(path)

    samples = {}
    if trace:
        wanted = spec["per_layer"]
        values = out["metrics"]
    else:
        wanted = spec["end_to_end"]
        times = out["run_times"]
        values = dict(out["metrics"], setup_s=statistics.median(setup),
                      ok_frac=1.0 - out["failed"] / out["attempted"])
        if times:
            values["run_s"] = statistics.median(times)
        samples = {"run_s": len(times), "setup_s": len(setup)}
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    env_record = dict(out["env"], nproc=len(os.sched_getaffinity(0)),
                      commit=git_commit(root), workload=name, seed=seed)
    print(f"{name} seed={seed} trace={trace}: {out['attempted']} runs, {out['failed']} failed")
    for problem in out["raised"] + out["problems"]:
        print(f"  problem: {problem}")
    for key, metric in metrics.items():
        count = f"  (median of {samples[key]})" if key in samples else ""
        print(f"  {key:34s} {metric['value']!r} {metric['unit']}{count}")
    print("  env " + json.dumps(env_record, sort_keys=True))
    (work_dir / "result.json").write_text(
        json.dumps({"metrics": metrics, "env": env_record}, indent=2) + "\n")
    return {
        "correct": out["checked"] and not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument("--seconds", type=float, default=40.0, help="timed span per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="T=20, M=N=5 configs, for checking the harness itself")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cfdyn" / "__init__.py").is_file():
        fail(f"{root} is not a cfdyn checkout: src/cfdyn is missing")
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: bench(root, spec, n, args.seed, args.seconds, args.trace, args.tiny)
               for n in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
