"""The benchmark's workloads: which config each runs, through which path, and why.

Every workload is a closed loop with one client: one pipeline run at a time,
in one process, with at most two threads. The workload seed becomes the
config's ``master_seed`` unchanged; a seed on which the program fails is
reported as failed, never replaced by another seed. Only presets that ran
without failure on every seed tried are used (see README.md, Known defects).

This module imports ``cfdyn`` only inside functions, so the launcher can read
the workload table without the package on its path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

STAGES = ("simulate", "filter", "abduct", "counterfactual", "metrics", "plot")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    staged: bool
    threads: int
    why: str
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int, tiny: bool = False):
        """The validated config this workload runs at `seed`.

        `tiny` shrinks it to T=20, M=N=5 (and at most 5 rollouts) for the
        warm-up run and the self-test; system, regime and path stay the same.
        """
        from dataclasses import replace

        from cfdyn.experiment import get_preset, validate_config

        config = replace(get_preset(self.preset), master_seed=seed, **self.overrides)
        if tiny:
            config = replace(
                config, horizon=20, outer_particles=5, inner_particles=5,
                n_cf=min(config.n_cf, 5), rmse_window=5,
            )
        return validate_config(config)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lorenz-n200",
            preset="lorenz-table1",
            staged=False,
            threads=1,
            why="T=200, M=50, N=200 run fused; the O(T*M*N^2) smoother and a 4x larger history dominate",
            overrides={"horizon": 200, "outer_particles": 50, "inner_particles": 200},
        ),
        Workload(
            name="lorenz-staged",
            preset="lorenz",
            staged=True,
            threads=2,
            why="shipped lorenz preset (T=500, M=N=50) with 50 rollouts via the six staged CLI commands; "
            "filter, rollouts, CSV reads and SVG",
            overrides={"n_cf": 50},
        ),
    )
}
