"""Cost-model readout: filter and smoother unit costs on both lorenz shapes.

    python3 perfbench/costmodel.py [--seed 42]     # from the root of a checkout

Runs the traced benchmark on lorenz-staged (M=N=50) and lorenz-n200 (M=50,
N=200) and prints ns per particle-step (the filter, O(T*M*N)) and ns per pair
term (the smoother, O(T*M*N^2)) side by side. A unit cost that stays flat
from N=50 to N=200 means the stage scales as its model says; one that falls
means per-lane overhead, not the per-particle work, sets the cost.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

WORKLOADS = ("lorenz-staged", "lorenz-n200")
ROWS = (
    "filtering.particle_steps",
    "filtering.filter_s",
    "filtering.ns_per_particle_step",
    "filtering.pair_terms",
    "filtering.smooth_s",
    "filtering.ns_per_pair",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    columns = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(args.seed),
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=180,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        columns[name] = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    print(f"{'metric':34s}" + "".join(f"{name:>16s}" for name in WORKLOADS))
    for row in ROWS:
        cells = "".join(f"{columns[name][row]['value']:16.4g}" for name in WORKLOADS)
        print(f"{row:34s}{cells}  {columns[WORKLOADS[0]][row]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
