"""Independent reference implementations used only by the tests.

These deliberately avoid the package's filtering/smoothing code paths: the
Kalman filter and RTS smoother are exact closed-form recursions, and the
bootstrap particle filter is a from-scratch single-layer filter that shares
only the seed-stream discipline with the package. The allocating RK4 builds
each stage from whole-array expressions, and the per-point SVG path formats
one point at a time; the in-place kernels must match both bit for bit. The
pairwise backward
smoother evaluates each transition density from its own difference vector,
one (lane, n, k) triple at a time. The loop versions of the
batched rollout and resampling kernels step one row at a time; the batched
kernels must match them bit for bit. The scalar likelihood and residual are
the one-particle forms of the filter's likelihood and the abduction residual.
The two-pass particle reorders move particles along the lineage with
`np.take_along_axis` and int64 fancy indices, one axis at a time; the
package's one flat gather must match them bit for bit at every index dtype.
The lineage trace walks each final lane back one step at a time in Python
ints and numbers the lane-steps it passes with a dict per step; the other
lineage oracles align lanes with it. The reference filter composes the
package's public filter steps and keeps every lane-step of t = 0..T, in the
full (T+1, M, ...) layout; the lineage gather picks a full history's rows
along the traced lineages one lane-step at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cfdyn.dynamics import _rk4, get_system, rk4_step
from cfdyn.filtering import (
    AncestralHistory,
    FilterDiagnostics,
    init_particles,
    inner_weights,
    jitter,
    outer_weights,
    propagate,
    systematic_resample,
    systematic_resample_rows,
)
from cfdyn.seeding import RngSeed


def kalman_filter_rts(ys: np.ndarray, a: float, q: float, r: float, m0: float, p0: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact filtered and RTS-smoothed moments for a scalar linear-Gaussian SSM.

    x_t = a x_{t-1} + u (var q), y_t = x_t + w (var r); y[0] is not
    assimilated (it aligns with the known initial state). Returns the
    filtered means m_{t|t} and the smoothed means m_{t|T} and variances
    P_{t|T}, each (T+1,), and the lag-one covariances
    C_{t,t-1|T} = J_{t-1} P_{t|T} for t = 1..T, (T,), with the smoother gain
    J_t = P_{t|t} a / P_{t+1|t}.
    """
    horizon = len(ys) - 1
    means = [m0]
    variances = [p0]
    pred_means = [m0]
    pred_vars = [p0]
    m, p = m0, p0
    for t in range(1, horizon + 1):
        mp, pp = a * m, a * a * p + q
        gain = pp / (pp + r)
        m = mp + gain * (ys[t] - mp)
        p = (1.0 - gain) * pp
        means.append(m)
        variances.append(p)
        pred_means.append(mp)
        pred_vars.append(pp)
    means = np.array(means)
    variances = np.array(variances)
    pred_means = np.array(pred_means)
    pred_vars = np.array(pred_vars)

    smoothed = means.copy()
    smoothed_vars = variances.copy()
    lag_one = np.empty(horizon)
    for t in range(horizon - 1, -1, -1):
        c = variances[t] * a / pred_vars[t + 1]
        smoothed[t] = means[t] + c * (smoothed[t + 1] - pred_means[t + 1])
        smoothed_vars[t] = variances[t] + c * c * (smoothed_vars[t + 1] - pred_vars[t + 1])
        lag_one[t] = c * smoothed_vars[t + 1]
    return means, smoothed, smoothed_vars, lag_one


def bootstrap_particle_filter(
    ys: np.ndarray,
    step_fn,
    theta: np.ndarray,
    x0: np.ndarray,
    n_particles: int,
    process_std: float,
    observation_std: float,
    rng: RngSeed,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-layer bootstrap PF that resamples every step.

    `step_fn(states, theta) -> states` is the deterministic forward map.
    Draws follow the package's stream-naming convention so runs placed on the
    same seed stream are draw-for-draw comparable. Returns the pre-resample
    particles (T+1, N, d) and normalized weights (T+1, N).
    """
    horizon = ys.shape[0] - 1
    d = ys.shape[1]
    particles = np.broadcast_to(np.asarray(x0, dtype=float), (n_particles, d)).copy()
    all_parts = np.empty((horizon + 1, n_particles, d))
    all_weights = np.empty((horizon + 1, n_particles))
    all_parts[0] = particles
    all_weights[0] = 1.0 / n_particles
    weights = np.full(n_particles, 1.0 / n_particles)
    var = observation_std * observation_std
    log_norm = -0.5 * d * (np.log(2.0 * np.pi) + np.log(var))
    for t in range(1, horizon + 1):
        step = rng.child("step", t)
        u = step.child("propagate").child("lane", 0).generator().normal(
            0.0, process_std, size=(n_particles, d)
        )
        particles = step_fn(particles, theta) + u
        resid = ys[t] - particles
        ll = -0.5 * np.einsum("nd,nd->n", resid, resid) / var + log_norm
        score = ll + np.log(weights)
        shifted = np.exp(score - score.max())
        weights = shifted / shifted.sum()
        all_parts[t] = particles
        all_weights[t] = weights
        gen = step.child("inner_resample", 0).generator()
        positions = (gen.uniform() + np.arange(n_particles)) / n_particles
        idx = np.clip(np.searchsorted(np.cumsum(weights), positions), 0, n_particles - 1)
        particles = particles[idx]
        weights = np.full(n_particles, 1.0 / n_particles)
        # outer layer is a single lane; its resample draw is consumed but inert
        step.child("outer_resample").generator().uniform()
    return all_parts, all_weights


def euler_rollout(rhs_fn, x0: float, horizon_time: float, n_steps: int) -> float:
    """Fine-step explicit-Euler integration used as an integrator oracle."""
    x = float(x0)
    h = horizon_time / n_steps
    for _ in range(n_steps):
        x += h * rhs_fn(x)
    return x


def rhs_stacked(system, state: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Time derivative as whole-array expressions stacked into a new array."""
    if system.id == "lorenz":
        x, y, z = state[..., 0], state[..., 1], state[..., 2]
        sg, rho, beta = params[..., 0], params[..., 1], params[..., 2]
        return np.stack([sg * (y - x), x * (rho - z) - y, x * y - beta * z], axis=-1)
    if system.id == "rossler":
        x, y, z = state[..., 0], state[..., 1], state[..., 2]
        a, b, c = params[..., 0], params[..., 1], params[..., 2]
        return np.stack([-y - z, x + a * y, b + z * (x - c)], axis=-1)
    if system.id == "logistic":
        x = state[..., 0]
        r, cap = params[..., 0], params[..., 1]
        return np.stack([r * x * (1.0 - x / cap)], axis=-1)
    if system.id == "exp_decay":
        return -params[..., 0:1] * state
    raise ValueError(f"unknown system id {system.id!r}")


def rk4_allocating(system, state: np.ndarray, params: np.ndarray, delta: float) -> np.ndarray:
    """One classical RK4 step with a new array for every stage and term."""
    k1 = rhs_stacked(system, state, params)
    k2 = rhs_stacked(system, state + 0.5 * delta * k1, params)
    k3 = rhs_stacked(system, state + 0.5 * delta * k2, params)
    k4 = rhs_stacked(system, state + delta * k3, params)
    return state + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def svg_path_per_point(px: np.ndarray, py: np.ndarray) -> str:
    """SVG path data from screen coordinates, one point at a time.

    Non-finite points lift the pen; the next finite point starts with M.
    Returns "" when no point is finite.
    """
    parts = []
    pen_down = False
    for x, y in zip(px, py):
        if not (np.isfinite(x) and np.isfinite(y)):
            pen_down = False
            continue
        parts.append(f"{'L' if pen_down else 'M'}{x:.2f} {y:.2f}")
        pen_down = True
    return " ".join(parts)


def roll_one(spec, x0, theta, horizon, delta, u=None) -> tuple[np.ndarray, int]:
    """One trajectory stepped alone, one `_rk4` call per step.

    Returns the states (T+1, d), NaN from the first non-finite step on, and
    that step (-1 when every step stayed finite).
    """
    states = np.empty((horizon + 1, spec.dimension))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, horizon + 1):
            step = _rk4(spec, states[t - 1], theta, delta)
            states[t] = step if u is None else step + u[t - 1]
            if not np.isfinite(states[t]).all():
                states[t:] = np.nan
                return states, t
    return states, -1


def generate_cf_per_trajectory(system, theta, theta_std, noise, x0_cf, horizon, delta,
                               n_trajectories, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The counterfactual ensemble drawn and rolled one trajectory at a time.

    Same substreams as `generate_cf`; a `theta_std` of None pins every
    trajectory to a copy of `theta` without drawing. Returns (trajectories,
    thetas, failure steps with -1 for clean rows).
    """
    spec = get_system(system)
    mu, var = noise
    noise_std = np.sqrt(var[:horizon])
    trajectories, thetas, failures = [], [], []
    for i in range(n_trajectories):
        traj_seed = rng.child("traj", i)
        if theta_std is None:
            row = theta.copy()
        else:
            z = traj_seed.child("theta").generator().normal(size=theta.shape[0])
            row = theta + theta_std * z
        u = mu[:horizon] + noise_std * traj_seed.child("noise").generator().normal(
            size=(horizon, spec.dimension)
        )
        states, failure = roll_one(spec, np.asarray(x0_cf, dtype=float), row, horizon, delta, u)
        trajectories.append(states)
        thetas.append(row)
        failures.append(failure)
    return np.stack(trajectories), np.stack(thetas), np.array(failures)


def systematic_resample_per_row(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Systematic resampling one row at a time with `np.searchsorted(side="left")`."""
    n = weights.shape[1]
    return np.stack([
        np.clip(np.searchsorted(np.cumsum(w), (u + np.arange(n)) / n), 0, n - 1)
        for w, u in zip(weights, uniforms)
    ])


def reorder_two_pass(states: np.ndarray, inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """The filter's post-resample cloud: every lane's inner resampling, then the outer one.

    `states` (M, N, d) are pre-resample; `inner` (M, N) and `outer` (M,) are
    the step's ancestors in any integer dtype, cast to int64 here.
    """
    within = np.take_along_axis(states, inner.astype(np.int64)[:, :, None], axis=1)
    return within[outer.astype(np.int64)]


def lineage_trace(outer_ancestors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lane, rows), each (T+1, M) int64, traced one final lane at a time.

    lane[t, j] is the lane final lane j's lineage passes at step t:
    lane[T, j] = j and lane[t, j] = outer_ancestors[t, lane[t + 1, j]].
    rows[t, j] numbers (t, lane[t, j]) among the distinct lane-steps the
    lineages pass, counted step by step and, within a step, lane by lane.
    """
    t_end, m = outer_ancestors.shape[0] - 1, outer_ancestors.shape[1]
    lane = np.empty((t_end + 1, m), dtype=np.int64)
    for j in range(m):
        u = j
        for t in range(t_end, -1, -1):
            lane[t, j] = u
            u = int(outer_ancestors[t - 1, u]) if t else u
    rows = np.empty_like(lane)
    start = 0
    for t in range(t_end + 1):
        number = {u: start + k for k, u in enumerate(sorted(set(lane[t].tolist())))}
        rows[t] = [number[u] for u in lane[t].tolist()]
        start += len(number)
    return lane, rows


@dataclass
class FullHistory:
    """Every lane-step of a filter run, t = 0..T, with the ancestry."""

    thetas: np.ndarray           # (T+1, M, p)
    states: np.ndarray           # (T+1, M, N, d)
    inner_weights: np.ndarray    # (T+1, M, N)
    outer_weights: np.ndarray    # (T+1, M)
    outer_ancestors: np.ndarray  # (T+1, M)
    inner_ancestors: np.ndarray  # (T+1, M, N)
    diagnostics: FilterDiagnostics = field(default_factory=FilterDiagnostics)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def filtered_means(self) -> np.ndarray:
        """Per-step state means under outer x inner weights, (T+1, d)."""
        joint = self.outer_weights[:, :, None] * self.inner_weights
        return np.einsum("tmn,tmnd->td", joint, self.states)


def filter_by_hand(obs, system, x0, config, rng) -> FullHistory:
    """run_filter composed from its public array steps on its substream layout.

    Keeps every lane-step; ancestors are int64 and the resampling gather is
    plain fancy indexing.
    """
    m, n = config.outer_particles, config.inner_particles
    diagnostics = FilterDiagnostics()
    theta, states = init_particles(config.prior_bounds, m, n, x0, rng.child("init"))
    weights = np.full((m, n), 1.0 / n)
    identity = np.tile(np.arange(n), (m, 1))
    steps = [(theta, states, weights, np.full(m, 1.0 / m), np.arange(m), identity)]
    for t in range(1, obs.shape[0]):
        step = rng.child("step", t)
        theta = jitter(theta, config.jitter_std, config.prior_bounds, step.child("jitter"))
        states, invalid = propagate(
            states, theta, system, config.delta, config.process_std, step.child("propagate")
        )
        weights, log_mean_lik = inner_weights(
            states, weights, invalid, obs[t], config.observation_std, diagnostics
        )
        v = outer_weights(log_mean_lik, diagnostics)
        inner = identity
        if config.inner_resampling:
            uniforms = np.array([
                step.child("inner_resample", lane).generator().uniform() for lane in range(m)
            ])
            inner = systematic_resample_rows(weights, uniforms)
        outer = systematic_resample(v, step.child("outer_resample").generator())
        steps.append((theta, states, weights, v, outer, inner))
        theta = theta[outer]
        states = states[outer[:, None], inner[outer]]
        weights = np.full((m, n), 1.0 / n) if config.inner_resampling else weights[outer]
    thetas, states, inner_w, outer_w, outer_anc, inner_anc = (np.stack(c) for c in zip(*steps))
    return FullHistory(thetas, states, inner_w, outer_w, outer_anc, inner_anc, diagnostics)


def gather_ancestral(history: FullHistory) -> AncestralHistory:
    """A full history's lane-steps on the final lanes' lineages, as `keep_ancestral` keeps them.

    Row r is the lane-step that `lineage_trace` numbers r; each row is picked
    on its own. Shares `outer_weights`, `outer_ancestors` and the diagnostics.
    """
    lane, rows = lineage_trace(history.outer_ancestors)
    at = {}
    for t in range(lane.shape[0]):
        for u, r in zip(lane[t].tolist(), rows[t].tolist()):
            at[r] = (t, u)
    order = [at[r] for r in range(len(at))]

    def pick(array):
        return np.stack([array[t, u] for t, u in order])

    return AncestralHistory(
        thetas=pick(history.thetas),
        states=pick(history.states),
        inner_weights=pick(history.inner_weights),
        inner_ancestors=pick(history.inner_ancestors),
        outer_weights=history.outer_weights,
        outer_ancestors=history.outer_ancestors,
        diagnostics=history.diagnostics,
    )


def abduct_noise_two_pass(history, smoothed, system, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Weighted residual moments per step, each parent block gathered in two passes.

    Lanes are traced back by `lineage_trace` and aligned by int64 fancy
    index, then each lane's parents are picked with `np.take_along_axis`;
    returns (mu, sigma), each (T, d).
    """
    spec = get_system(system)
    lane, _ = lineage_trace(history.outer_ancestors)
    inner = history.inner_ancestors.astype(np.int64)
    mu, sigma = [], []
    for t in range(1, history.states.shape[0]):
        x_t = history.states[t][lane[t]]
        theta_t = history.thetas[t][lane[t]]
        parents = np.take_along_axis(
            history.states[t - 1][lane[t - 1]], inner[t - 1][lane[t - 1]][:, :, None], axis=1
        )
        resid = x_t - _rk4(spec, parents, theta_t[:, None, :], delta)
        w = smoothed.w_tilde[t]
        total = w.sum()
        mean = np.einsum("mn,mnd->d", w, resid) / total
        mu.append(mean)
        sigma.append(np.einsum("mn,mnd->d", w, (resid - mean) ** 2) / total)
    return np.array(mu), np.array(sigma)


def gaussian_log_likelihood(obs: np.ndarray, state: np.ndarray, observation_std: float) -> float:
    """log N(obs; state, observation_std^2 I) for one particle."""
    if observation_std <= 0:
        raise ValueError("observation_std must be > 0 for a proper likelihood")
    obs = np.asarray(obs, dtype=float)
    state = np.asarray(state, dtype=float)
    if obs.shape != state.shape:
        raise ValueError(f"observation shape {obs.shape} != state shape {state.shape}")
    resid = obs - state
    d = obs.shape[0]
    var = observation_std * observation_std
    return float(-0.5 * (resid @ resid) / var - 0.5 * d * (np.log(2.0 * np.pi) + np.log(var)))


def particle_residual(x_t, x_prev, theta, system, delta) -> np.ndarray:
    """Noise increment implied by one transition: x_t - rk4_step(x_prev, theta)."""
    return np.asarray(x_t, dtype=float) - rk4_step(system, x_prev, theta, delta)


def _log_sum_exp(values) -> float:
    top = max(values)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


def _log(w: float) -> float:
    return math.log(w) if w > 0 else -math.inf


def backward_smooth_pairwise(history, system, delta: float,
                             process_std: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The backward smoothing recursion with one loop iteration per pair.

    For lane j on the final-time lineage, particle n at step t and particle k
    at t+1, log p(x_k | x_n) = -|x_k - rk4_step(x_n)|^2 / 2 var + log_norm is
    evaluated from the difference vector (no norm expansion, no matmul), and
        log w~_t(n) = log w_t(n) + log sum_k p(x_k | x_n) w~_{t+1}(k)
    is normalized per lane. A lane whose sum is not finite keeps its filtered
    weights and is counted; lane masses carry the smoothed outer weights.
    Returns (w_tilde, v_tilde, underflow lane-steps) with w_tilde
    joint-normalized per step.
    """
    spec = get_system(system)
    t_end = history.states.shape[0] - 1
    m, n = history.inner_weights.shape[1:]
    var = process_std * process_std
    log_norm = -0.5 * spec.dimension * (math.log(2.0 * math.pi) + math.log(var))
    lane, _ = lineage_trace(history.outer_ancestors)

    w_tilde = np.empty((t_end + 1, m, n))
    v_tilde = np.empty((t_end + 1, m))
    w = history.inner_weights[t_end].copy()
    v = history.outer_weights[t_end].copy()
    w_tilde[t_end] = v[:, None] * w
    v_tilde[t_end] = v
    underflows = 0
    for t in range(t_end - 1, -1, -1):
        w_new = np.empty((m, n))
        log_v = []
        for j in range(m):
            x_t = history.states[t, lane[t, j]]
            x_next = history.states[t + 1, lane[t + 1, j]]
            theta = history.thetas[t + 1, lane[t + 1, j]]
            w_filt = history.inner_weights[t, lane[t, j]]
            log_raw = []
            for i in range(n):
                mu_i = rk4_step(spec, x_t[i], theta, delta)
                terms = []
                for k in range(n):
                    diff = x_next[k] - mu_i
                    terms.append(_log(w[j, k]) - 0.5 * float(diff @ diff) / var + log_norm)
                log_raw.append(_log(w_filt[i]) + _log_sum_exp(terms))
            log_r = _log_sum_exp(log_raw)
            if math.isfinite(log_r):
                w_new[j] = [math.exp(x - log_r) for x in log_raw]
                log_v.append(_log(v[j]) + log_r)
            else:
                w_new[j] = w_filt
                log_v.append(-math.inf)
                underflows += 1
        norm = _log_sum_exp(log_v)
        if math.isfinite(norm):
            v = np.array([math.exp(x - norm) for x in log_v])
        w = w_new
        w_tilde[t] = v[:, None] * w
        v_tilde[t] = v
    return w_tilde, v_tilde, underflows
