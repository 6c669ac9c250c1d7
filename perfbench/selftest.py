"""Fast self-test of the benchmark harness (about half a minute on two cores).

    python3 perfbench/selftest.py        # from the root of a checkout

It runs every workload on its tiny config (T=20, M=N=5), untraced and traced,
and checks that each metric named in BENCHMARK.json is reported as a number.
It then alters artifacts of a finished run and checks that the output checks
catch each alteration. Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402 - needs the checkout's src on the path first
from workloads import WORKLOADS  # noqa: E402


def metric_problems(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "0.1",
             "--trace", str(trace), "--tiny"],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            return [f"trace {trace}: run.py exited {proc.returncode}: {proc.stderr[-500:]}"]
        results = json.loads(proc.stdout.splitlines()[-1])
        names = [m["name"] for m in spec[key]]
        for workload, result in results.items():
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} runs failed")
            if list(result["metrics"]) != names:
                problems.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    problems.append(f"{workload} trace {trace}: {name} = {value!r}")
    return problems


def alteration_problems() -> list[str]:
    from cfdyn.experiment import run_pipeline

    workload = WORKLOADS["lorenz-n200"]
    config = workload.config(42, tiny=True)
    base = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    run_pipeline(config, base / "clean")
    reference = checks.hash_run(base / "clean")
    found, _ = checks.check_outputs(config, base / "clean")
    problems = [f"clean run flagged: {p}" for p in found]

    def altered(name: str, change) -> Path:
        out = base / name
        shutil.copytree(base / "clean", out)
        change(out)
        return out

    def flip_digit(out: Path) -> None:
        path = out / "cf_ensemble.csv"
        text = path.read_text()
        digit = next(i for i in range(len(text) - 1, 0, -1) if text[i] in "123456789")
        path.write_text(text[:digit] + str(int(text[digit]) - 1) + text[digit + 1:])

    def nan_estimate(out: Path) -> None:
        path = out / "state_estimate.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:1] + ["nan"] * (len(lines[3].split(",")) - 1))
        path.write_text("\n".join(lines) + "\n")

    def scale_weights(out: Path) -> None:
        path = out / "filter_state.npz"
        with np.load(path) as z:
            arrays = dict(z)
        arrays["w_tilde"] = arrays["w_tilde"] * 1.01
        np.savez(path, **arrays)

    if not checks.compare_hashes(reference, checks.hash_run(altered("digit", flip_digit)), "rerun"):
        problems.append("a changed digit in cf_ensemble.csv was not caught")
    for name, change in (("nan", nan_estimate), ("weights", scale_weights)):
        found, _ = checks.check_outputs(config, altered(name, change))
        if not found:
            problems.append(f"altered artifact '{name}' passed the output checks")
    shutil.rmtree(base)
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = alteration_problems() + metric_problems(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
