"""Command-line interface.

Subcommands mirror the pipeline stages (`simulate`, `filter`, `abduct`,
`counterfactual`, `metrics`, `plot`), plus `run` for the fused pipeline and
`grid` for the noise-by-regime cross product. Exit codes: 0 success, 2
configuration error, 3 numerical failure, 4 I/O error (also a corrupt or
truncated input artifact).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import artifacts as io
from .counterfactual import REGIMES
from .dynamics import get_system
from .errors import ArtifactError, ConfigError, NumericsError
from .filtering import PosteriorSummary
from .experiment import (
    NOISE_GRID,
    PRESETS,
    config_hash,
    expand_grid,
    get_preset,
    load_config,
    run_grid,
    run_pipeline,
    save_config,
    stage_abduct,
    stage_counterfactual,
    stage_filter,
    stage_metrics,
    stage_simulate,
    validate_config,
)
from .svgplot import render_plots


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON experiment configuration")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="built-in configuration")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker threads (default 1)")


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


def _out_dir(args: argparse.Namespace, config) -> Path:
    if args.out is not None:
        return args.out
    if config.output_dir is not None:
        return Path(config.output_dir)
    return Path("runs") / config_hash(config)[:12]


def _cmd_simulate(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    out.mkdir(parents=True, exist_ok=True)
    truth, observations = stage_simulate(config)
    io.save_trajectory(out / "truth.csv", truth)
    io.save_observations(out / "observations.csv", observations)
    save_config(out / "config.json", config)
    print(f"simulate: wrote truth.csv and observations.csv to {out}")
    return 0


def _cmd_filter(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    spec = get_system(config.system)
    observations = io.load_observations(out / "observations.csv")
    expected = (config.horizon + 1, spec.dimension)
    if observations.shape != expected:
        raise ArtifactError(
            f"{out / 'observations.csv'} holds {observations.shape} values, expected {expected}"
        )
    history, smoothed, summary = stage_filter(config, observations, workers=args.threads)
    io.save_trajectory(out / "state_estimate.csv", summary.state_mean)
    io.save_theta_estimate(
        out / "theta_estimate.csv", spec.parameter_names, summary.theta_mean, summary.theta_std
    )
    io.save_filter_state(out / "filter_state.npz", history, smoothed)
    print(f"filter: wrote state_estimate.csv, theta_estimate.csv, filter_state.npz to {out}")
    return 0


def _cmd_abduct(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    history, smoothed = io.load_filter_state(out / "filter_state.npz")
    noise = stage_abduct(config, history, smoothed)
    io.save_noise_posterior(out / "noise_posterior.csv", noise)
    print(f"abduct: wrote noise_posterior.csv to {out}")
    return 0


def _cmd_counterfactual(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    spec = get_system(config.system)
    noise = io.load_noise_posterior(out / "noise_posterior.csv")
    summary = None
    if config.theta_regime != "true":
        mean, std = io.load_theta_estimate(out / "theta_estimate.csv")
        estimate = io.load_trajectory(out / "state_estimate.csv", config.delta)
        summary = PosteriorSummary(state_mean=estimate, theta_mean=mean, theta_std=std)
    reference, ensemble = stage_counterfactual(config, summary, noise)
    io.save_trajectory(out / "cf_deterministic.csv", reference)
    io.save_ensemble(out / "cf_ensemble.csv", out / "cf_thetas.csv", ensemble, spec.parameter_names)
    print(f"counterfactual: wrote cf_deterministic.csv, cf_ensemble.csv, cf_thetas.csv to {out}")
    return 0


def _cmd_metrics(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    truth = io.load_trajectory(out / "truth.csv", config.delta)
    estimate = io.load_trajectory(out / "state_estimate.csv", config.delta)
    reference = io.load_trajectory(out / "cf_deterministic.csv", config.delta)
    ensemble = io.load_ensemble(
        out / "cf_ensemble.csv", out / "cf_thetas.csv", config.delta, reference
    )
    raw, smoothed, factual, factual_smoothed = stage_metrics(
        config, ensemble, reference, estimate, truth
    )
    io.save_rmse(out / "rmse.csv", raw, smoothed)
    io.save_rmse(out / "factual_rmse.csv", factual, factual_smoothed)
    print(f"metrics: wrote rmse.csv and factual_rmse.csv to {out}")
    return 0


def _cmd_plot(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    written = render_plots(out)
    print(f"plot: wrote {len(written)} SVG files to {out / 'plots'}")
    return 0


def _cmd_run(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    artifacts = run_pipeline(config, out, workers=args.threads)
    print(f"run: wrote artifacts and manifest.json to {artifacts.out_dir}")
    return 0


def _cmd_grid(args) -> int:
    config = _resolve_config(args)
    out = _out_dir(args, config)
    cells = expand_grid(config, NOISE_GRID, REGIMES, swap_noise=args.swap_noise)
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
        "simulate": (_cmd_simulate, "simulate ground truth and observations"),
        "filter": (_cmd_filter, "run the nested filter and backward smoother"),
        "abduct": (_cmd_abduct, "compute the process-noise posterior"),
        "counterfactual": (_cmd_counterfactual, "generate counterfactual trajectories"),
        "metrics": (_cmd_metrics, "compute divergence metrics"),
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
