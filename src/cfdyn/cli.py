"""Command-line interface.

Subcommands mirror the pipeline stages (`simulate`, `filter`, `abduct`,
`counterfactual`, `metrics`, `plot`), plus `run` for the fused pipeline and
`grid` for the noise-by-regime cross product. Every stage command runs one
entry of `experiment.STAGES` and extends the run's manifest.json; `plot`
passes the same manifest check and loads its inputs through the same
`RunDir` layout checks. Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 I/O error (also an input artifact that is corrupt,
truncated, of the wrong shape, with misordered rows, a renamed header column
or a value off its file's domain, such as a non-finite value where the
pipeline writes finite ones or a negative RMSE, or no longer of the sha256
the manifest lists, and a manifest that is missing, written for another
config or not yet listing the command's inputs).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ArtifactError, ConfigError, NumericsError
from .experiment import (
    PLOT_INPUTS,
    PRESETS,
    STAGES,
    RunDir,
    expand_grid,
    get_preset,
    load_config,
    resolve_out_dir,
    run_grid,
    run_pipeline,
    run_stage,
    validate_config,
)
from .svgplot import render_plots


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON experiment configuration")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="built-in configuration")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="ignored: every stage runs in one thread")


def _resolve_config(args: argparse.Namespace):
    if args.config is not None and args.preset is not None:
        raise ConfigError("give either --config or --preset, not both")
    if args.config is not None:
        config = load_config(args.config)
    elif args.preset is not None:
        config = get_preset(args.preset)
    else:
        raise ConfigError("a configuration is required: --config <path> or --preset <name>")
    if args.seed is not None:
        config = validate_config(replace(config, master_seed=args.seed))
    return config


def _cmd_stage(args) -> int:
    config = _resolve_config(args)
    stage = next(stage for stage in STAGES if stage.name == args.command)
    run = RunDir(config, resolve_out_dir(config, args.out))
    run_stage(stage, run)
    print(f"{stage.name}: wrote {', '.join(stage.outputs)} and manifest.json to {run.path}")
    return 0


def _cmd_plot(args) -> int:
    config = _resolve_config(args)
    run = RunDir(config, resolve_out_dir(config, args.out))
    run.check_manifest(PLOT_INPUTS)
    plots = run.path / "plots"
    written = render_plots(*map(run.get, PLOT_INPUTS), plots)
    print(f"plot: wrote {len(written)} SVG files to {plots}")
    return 0


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    run = run_pipeline(config, args.out, workers=args.threads)
    print(f"run: wrote artifacts and manifest.json to {run.path}")
    return 0


def _cmd_grid(args) -> int:
    config = _resolve_config(args)
    out = resolve_out_dir(config, args.out)
    cells = expand_grid(config, swap_noise=args.swap_noise)
    results = run_grid(cells, out, workers=args.threads)
    failures = [(name, r) for name, r in results if isinstance(r, Exception)]
    for name, exc in failures:
        print(f"grid cell {name} failed: {exc}", file=sys.stderr)
    print(f"grid: {len(results) - len(failures)}/{len(results)} cells completed under {out}")
    return 0 if not failures else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfdyn",
        description="Counterfactual trajectory estimation in noisy dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": (_cmd_stage, "simulate ground truth and observations"),
        "filter": (_cmd_stage, "run the nested filter and backward smoother"),
        "abduct": (_cmd_stage, "compute the process-noise posterior"),
        "counterfactual": (_cmd_stage, "generate counterfactual trajectories"),
        "metrics": (_cmd_stage, "compute divergence metrics"),
        "plot": (_cmd_plot, "render SVG figures from run artifacts"),
        "run": (_cmd_run, "execute the full pipeline"),
        "grid": (_cmd_grid, "run the noise-by-regime grid"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "grid":
            p.add_argument(
                "--swap-noise",
                action="store_true",
                help="read noise pairs as (observation_std, process_std)",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ArtifactError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
