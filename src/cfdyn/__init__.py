"""Counterfactual trajectory estimation in noisy, possibly chaotic systems.

Simulate ODE-driven state-space models, jointly infer hidden states and
parameters with a nested particle filter plus backward smoothing, abduct the
process noise, and generate counterfactual trajectories under
initial-condition interventions.
"""
from .abduction import abduct_noise
from .counterfactual import CfTrajectorySet, deterministic_cf, generate_cf, intervene
from .dynamics import (
    EXP_DECAY,
    LOGISTIC,
    LORENZ,
    ROSSLER,
    SYSTEMS,
    SystemSpec,
    get_system,
    rhs,
    rk4_step,
    rollout,
)
from .errors import ArtifactError, ConfigError, NumericsError
from .experiment import (
    NOISE_GRID,
    PRESETS,
    ExperimentConfig,
    RunDir,
    config_hash,
    expand_grid,
    get_preset,
    load_config,
    run_grid,
    run_pipeline,
)
from .filtering import (
    AncestralHistory,
    FilterConfig,
    FilterDiagnostics,
    FilterHistory,
    SmoothedWeights,
    backward_smooth,
    init_particles,
    inner_weights,
    jitter,
    keep_ancestral,
    outer_weights,
    posterior_summary,
    propagate,
    run_filter,
    systematic_resample,
)
from .metrics import divergence_onset, factual_rmse, moving_average, rmse_t
from .seeding import RngSeed
from .simulate import observe, simulate_hidden
from .svgplot import render_plots

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "CfTrajectorySet",
    "ConfigError",
    "EXP_DECAY",
    "ExperimentConfig",
    "FilterConfig",
    "FilterDiagnostics",
    "FilterHistory",
    "LOGISTIC",
    "LORENZ",
    "NOISE_GRID",
    "NumericsError",
    "PRESETS",
    "ROSSLER",
    "RngSeed",
    "RunDir",
    "SYSTEMS",
    "SmoothedWeights",
    "SystemSpec",
    "abduct_noise",
    "backward_smooth",
    "config_hash",
    "deterministic_cf",
    "divergence_onset",
    "expand_grid",
    "factual_rmse",
    "generate_cf",
    "get_preset",
    "get_system",
    "init_particles",
    "inner_weights",
    "intervene",
    "jitter",
    "keep_ancestral",
    "load_config",
    "moving_average",
    "observe",
    "outer_weights",
    "posterior_summary",
    "propagate",
    "render_plots",
    "rhs",
    "rk4_step",
    "rmse_t",
    "rollout",
    "run_filter",
    "run_grid",
    "run_pipeline",
    "simulate_hidden",
    "systematic_resample",
]
