"""Two-layer nested particle filter with backward smoothing.

An outer layer of M parameter particles carries, per particle, an inner cloud
of N state particles. Each assimilation step runs jitter -> propagate ->
inner weighting -> outer weighting -> resampling, recording pre-resample
snapshots and resampling ancestry so the backward smoothing pass and the
noise abduction can align particles along outer lineages.

All weight arithmetic is done in log space with max-subtraction. Every lane m
draws from its own derived substream, so results do not depend on scheduling
or worker count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import SystemSpec, _rk4, get_system
from .seeding import RngSeed, StreamDrawer

_LOG_2PI = float(np.log(2.0 * np.pi))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Log of summed exponentials; rows of all -inf stay -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis)) + np.squeeze(m_safe, axis=axis)
    return out


def _log_nonzero(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(w)


@dataclass(frozen=True)
class ParameterPrior:
    """Independent uniform bounds per parameter."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        low = np.atleast_1d(np.asarray(self.low, dtype=float))
        high = np.atleast_1d(np.asarray(self.high, dtype=float))
        if low.shape != high.shape or low.ndim != 1:
            raise ValueError(f"prior bounds must be 1-D and same length, got {low.shape}/{high.shape}")
        if not (low < high).all():
            raise ValueError(f"prior requires low < high componentwise, got {low} / {high}")
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def n_params(self) -> int:
        return self.low.shape[0]

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return self.low + (self.high - self.low) * gen.uniform(size=(size, self.n_params))


@dataclass(frozen=True)
class JitterKernel:
    """Gaussian jitter applied to parameter particles each step.

    `scale` holds per-parameter standard deviations; when `clamp_to_prior` is
    set, jittered values are reflected back into [low, high].
    """

    scale: np.ndarray
    clamp_to_prior: bool = True
    low: np.ndarray | None = None
    high: np.ndarray | None = None

    def __post_init__(self) -> None:
        scale = np.atleast_1d(np.asarray(self.scale, dtype=float))
        if (scale < 0).any():
            raise ValueError(f"jitter scale must be >= 0, got {scale}")
        object.__setattr__(self, "scale", scale)
        if self.clamp_to_prior:
            if self.low is None or self.high is None:
                raise ValueError("clamp_to_prior requires prior bounds")
            object.__setattr__(self, "low", np.asarray(self.low, dtype=float))
            object.__setattr__(self, "high", np.asarray(self.high, dtype=float))

    @classmethod
    def from_prior(cls, prior: ParameterPrior, num_outer: int, scale_factor: float = 0.05) -> "JitterKernel":
        """Shrinking-with-M kernel: std = scale_factor * (high - low) / sqrt(M)."""
        scale = scale_factor * (prior.high - prior.low) / np.sqrt(num_outer)
        return cls(scale=scale, clamp_to_prior=True, low=prior.low, high=prior.high)


def _reflect(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Fold values into [low, high] by reflection off the bounds."""
    width = high - low
    y = np.mod(values - low, 2.0 * width)
    return low + np.where(y <= width, y, 2.0 * width - y)


@dataclass
class ParticleCloud:
    """Joint particle approximation: M parameter lanes, N state particles each."""

    theta: np.ndarray          # (M, p)
    states: np.ndarray         # (M, N, d)
    inner_weights: np.ndarray  # (M, N), each row sums to 1
    outer_weights: np.ndarray  # (M,), sums to 1
    log_mean_lik: np.ndarray | None = None  # (M,), set by inner_weights
    invalid: np.ndarray | None = None       # (M, N) bool, set by propagate

    @property
    def num_outer(self) -> int:
        return self.theta.shape[0]

    @property
    def num_inner(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class FilterConfig:
    num_outer: int
    num_inner: int
    delta: float
    process_std: float
    observation_std: float
    kernel: JitterKernel
    inner_resampling: bool = True

    def __post_init__(self) -> None:
        if self.num_outer < 1 or self.num_inner < 1:
            raise ValueError("particle counts must be >= 1")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.process_std < 0:
            raise ValueError(f"process_std must be >= 0, got {self.process_std}")
        if self.observation_std <= 0:
            raise ValueError(f"observation_std must be > 0, got {self.observation_std}")


@dataclass
class FilterDiagnostics:
    nonfinite_particles: int = 0
    inner_weight_underflows: int = 0
    outer_weight_underflows: int = 0
    smoother_underflows: int = 0

    def to_dict(self) -> dict:
        return {
            "nonfinite_particles": int(self.nonfinite_particles),
            "inner_weight_underflows": int(self.inner_weight_underflows),
            "outer_weight_underflows": int(self.outer_weight_underflows),
            "smoother_underflows": int(self.smoother_underflows),
        }


@dataclass
class FilterHistory:
    """Pre-resample snapshots for t = 0..T plus resampling ancestry.

    `thetas[t]` are the jittered parameters that propagated `states[t]`;
    `outer_ancestors[t]` maps post-resample lane m to the pre-resample lane it
    copied, and `inner_ancestors[t]` does the same within each lane. Both
    hold the narrowest unsigned dtype that indexes their axis
    (`index_dtype`).
    """

    thetas: np.ndarray          # (T+1, M, p)
    states: np.ndarray          # (T+1, M, N, d)
    inner_weights: np.ndarray   # (T+1, M, N)
    outer_weights: np.ndarray   # (T+1, M)
    outer_ancestors: np.ndarray  # (T+1, M)
    inner_ancestors: np.ndarray  # (T+1, M, N)
    diagnostics: FilterDiagnostics = field(default_factory=FilterDiagnostics)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def num_outer(self) -> int:
        return self.states.shape[1]

    @property
    def num_inner(self) -> int:
        return self.states.shape[2]

    @property
    def dimension(self) -> int:
        return self.states.shape[3]


def init_particles(
    prior: ParameterPrior,
    num_outer: int,
    num_inner: int,
    x0: np.ndarray,
    rng: RngSeed,
) -> ParticleCloud:
    """Draw the initial cloud: theta i.i.d. from the prior, uniform weights.

    Every state particle starts at the (d,) point `x0`.
    """
    if num_outer < 1 or num_inner < 1:
        raise ValueError("particle counts must be >= 1")
    theta = prior.sample(rng.child("theta_init").generator(), num_outer)
    point = np.asarray(x0, dtype=float)
    states = np.broadcast_to(point, (num_outer, num_inner, point.shape[0])).copy()
    return ParticleCloud(
        theta=theta,
        states=states,
        inner_weights=np.full((num_outer, num_inner), 1.0 / num_inner),
        outer_weights=np.full(num_outer, 1.0 / num_outer),
    )


def _lane_normals(rng: RngSeed, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of `shape`; row m is drawn from rng.child("lane", m)."""
    block = np.empty(shape)
    drawer = StreamDrawer(rng)
    for m in range(shape[0]):
        drawer.generator("lane", m).standard_normal(out=block[m])
    return block


def jitter(cloud: ParticleCloud, kernel: JitterKernel, rng: RngSeed) -> ParticleCloud:
    """Perturb each parameter particle with N(0, diag(scale^2)).

    Each lane draws from its own substream; reflection keeps particles inside
    the prior bounds when the kernel clamps.
    """
    if kernel.scale.shape[0] != cloud.theta.shape[1]:
        raise ValueError(
            f"kernel dimension {kernel.scale.shape[0]} != parameter dimension {cloud.theta.shape[1]}"
        )
    # Lane m adds `normal(size=p)`, which is 0.0 + 1.0 * z.
    eps = np.add(0.0, _lane_normals(rng, cloud.theta.shape))
    theta = cloud.theta + kernel.scale * eps
    if kernel.clamp_to_prior:
        theta = _reflect(theta, kernel.low, kernel.high)
    return replace(cloud, theta=theta)


def propagate(
    cloud: ParticleCloud,
    system: str | SystemSpec,
    delta: float,
    process_std: float,
    rng: RngSeed,
) -> ParticleCloud:
    """Advance every state particle one RK4 step plus process noise.

    Non-finite results are zeroed and marked in `cloud.invalid`; they receive
    zero weight at the next weighting step instead of aborting the run.
    """
    spec = get_system(system)
    with np.errstate(over="ignore", invalid="ignore"):
        base = _rk4(spec, cloud.states, cloud.theta[:, None, :], delta)
    # Lane m adds `normal(0.0, process_std, (N, d))`, which is 0.0 + process_std * z.
    states = _lane_normals(rng, base.shape)
    np.multiply(process_std, states, out=states)
    np.add(0.0, states, out=states)
    np.add(base, states, out=states)
    invalid = ~np.isfinite(states).all(axis=2)
    if invalid.any():
        states[invalid] = 0.0
    return replace(cloud, states=states, invalid=invalid if invalid.any() else None)


def _batch_log_likelihood(
    obs: np.ndarray,
    states: np.ndarray,
    observation_std: float,
) -> np.ndarray:
    """log N(obs; x, observation_std^2 I) for every particle x of an (M, N, d) block."""
    resid = obs - states
    d = obs.shape[0]
    var = observation_std * observation_std
    return -0.5 * np.einsum("mnd,mnd->mn", resid, resid) / var - 0.5 * d * (
        _LOG_2PI + np.log(var)
    )


def inner_weights(
    cloud: ParticleCloud,
    obs: np.ndarray,
    observation_std: float,
    diagnostics: FilterDiagnostics | None = None,
) -> ParticleCloud:
    """Reweight each lane's state particles by the observation likelihood.

    Incoming weights multiply the likelihood (after a per-step resample they
    are uniform, so this reduces to plain likelihood weighting); weights are
    normalized per lane in log space. The pre-normalization log-mean
    likelihood is retained per lane for the outer update. Lanes whose weights
    all underflow fall back to uniform and are counted.
    """
    if observation_std <= 0:
        raise ValueError("observation_std must be > 0 for a proper likelihood")
    obs = np.asarray(obs, dtype=float)
    ll = _batch_log_likelihood(obs, cloud.states, observation_std)
    if cloud.invalid is not None:
        ll[cloud.invalid] = -np.inf
        if diagnostics is not None:
            diagnostics.nonfinite_particles += int(cloud.invalid.sum())
    score = ll + _log_nonzero(cloud.inner_weights)
    n = cloud.num_inner
    mx = np.max(score, axis=1)
    weights = np.empty_like(score)
    log_mean = np.empty(cloud.num_outer)
    dead = ~np.isfinite(mx)
    if dead.any():
        weights[dead] = 1.0 / n
        log_mean[dead] = -np.inf
        if diagnostics is not None:
            diagnostics.inner_weight_underflows += int(dead.sum())
    alive = ~dead
    if alive.any():
        shifted = np.exp(score[alive] - mx[alive, None])
        total = shifted.sum(axis=1)
        weights[alive] = shifted / total[:, None]
        # weighted mean likelihood: sum_n w_prev(n) p(y | x_n)
        log_mean[alive] = mx[alive] + np.log(total)
    return replace(cloud, inner_weights=weights, log_mean_lik=log_mean)


def outer_weights(
    cloud: ParticleCloud,
    diagnostics: FilterDiagnostics | None = None,
) -> ParticleCloud:
    """Set lane weights proportional to each lane's mean observation likelihood."""
    if cloud.log_mean_lik is None:
        raise ValueError("run inner_weights first: per-lane likelihoods are missing")
    lml = cloud.log_mean_lik
    mx = np.max(lml)
    if not np.isfinite(mx):
        if diagnostics is not None:
            diagnostics.outer_weight_underflows += 1
        v = np.full(cloud.num_outer, 1.0 / cloud.num_outer)
    else:
        v = np.exp(lml - mx)
        v /= v.sum()
    return replace(cloud, outer_weights=v)


def systematic_resample(weights: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Systematic (low-variance) resampling; returns selected indices."""
    return systematic_resample_rows(weights[None], np.array([gen.uniform()]))[0]


def systematic_resample_rows(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Systematic resampling of every row of `weights` (R, n) at once.

    Row r places its positions at (uniforms[r] + k) / n and selects, for each,
    the number of cumulative weights strictly below it, clipped to n - 1: what
    a per-row `np.searchsorted(cumsum, positions, side="left")` returns. The
    counts come from one stable merge that puts positions ahead of equal
    cumulative weights, so ties resolve exactly as in the per-row search
    (offsetting each row's cumsum by its row index would round differently).
    """
    r, n = weights.shape
    positions = (uniforms[:, None] + np.arange(n)) / n
    merged = np.concatenate([positions, np.cumsum(weights, axis=1)], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    # Positions are increasing, so each row meets them in order k = 0..n-1.
    below = np.cumsum(order >= n, axis=1)[order < n].reshape(r, n)
    return np.minimum(below, n - 1)


def index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every index of an axis of `size` >= 1."""
    return np.min_scalar_type(size - 1)


def take_particles(block: np.ndarray, lanes: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """block[lanes[j], inner[j, i]] for every (j, i), as one gather.

    `block` is (M, N, ...); `lanes` (J,) and `inner` (J, K) may hold any
    integer dtype. The gather is one `np.take` on the flat (M * N, ...) view,
    with the flat index built in np.intp: a narrow lane index times N would
    wrap or raise.
    """
    m, n = block.shape[:2]
    flat = lanes.astype(np.intp)[:, None] * n + inner.astype(np.intp)
    return np.take(block.reshape(m * n, *block.shape[2:]), flat, axis=0)


def run_filter(
    observations: np.ndarray,
    system: str | SystemSpec,
    prior: ParameterPrior,
    x0: np.ndarray,
    config: FilterConfig,
    rng: RngSeed,
) -> FilterHistory:
    """Assimilate observations for t = 1..T and record the full history.

    Parameters
    ----------
    observations : ndarray (T+1, d)
        obs[0] aligns with the initial state and is not assimilated.
    system, prior, config : model, parameter prior, and filter settings.
    x0 : ndarray (d,)
        Initial state of every state particle.
    rng : RngSeed
        Master stream. Substream layout: initialization draws from
        rng.child("init"), and step t uses rng.child("step", t) with
        per-stage tags ("jitter", "propagate", "inner_resample",
        "outer_resample") and per-lane indices below it.

    Returns
    -------
    FilterHistory with pre-resample snapshots, ancestry, and diagnostics.
    """
    spec = get_system(system)
    observations = np.asarray(observations, dtype=float)
    if observations.ndim != 2 or observations.shape[1] != spec.dimension:
        raise ValueError(
            f"observations must be (T+1, {spec.dimension}), got {observations.shape}"
        )
    horizon = observations.shape[0] - 1
    if horizon < 1:
        raise ValueError("need at least one observation after the initial time")

    m, n = config.num_outer, config.num_inner
    diagnostics = FilterDiagnostics()
    cloud = init_particles(prior, m, n, x0, rng.child("init"))

    p = prior.n_params
    thetas = np.empty((horizon + 1, m, p))
    states = np.empty((horizon + 1, m, n, spec.dimension))
    inner_w = np.empty((horizon + 1, m, n))
    outer_w = np.empty((horizon + 1, m))
    outer_anc = np.empty((horizon + 1, m), dtype=index_dtype(m))
    inner_anc = np.empty((horizon + 1, m, n), dtype=index_dtype(n))

    thetas[0] = cloud.theta
    states[0] = cloud.states
    inner_w[0] = cloud.inner_weights
    outer_w[0] = cloud.outer_weights
    outer_anc[0] = np.arange(m)
    inner_anc[0] = np.arange(n)

    for t in range(1, horizon + 1):
        step = rng.child("step", t)
        cloud = jitter(cloud, config.kernel, step.child("jitter"))
        cloud = propagate(cloud, spec, config.delta, config.process_std, step.child("propagate"))
        cloud = inner_weights(cloud, observations[t], config.observation_std, diagnostics)
        cloud = outer_weights(cloud, diagnostics)

        thetas[t] = cloud.theta
        states[t] = cloud.states
        inner_w[t] = cloud.inner_weights
        outer_w[t] = cloud.outer_weights

        if config.inner_resampling:
            # `random()` is `uniform()` without its exact 0.0 + 1.0 * u.
            drawer = StreamDrawer(step)
            uniforms = np.empty(m)
            for lane in range(m):
                uniforms[lane] = drawer.generator("inner_resample", lane).random()
            inner_anc[t] = systematic_resample_rows(cloud.inner_weights, uniforms)
            next_inner_w = np.full((m, n), 1.0 / n)
        else:
            inner_anc[t] = np.arange(n)
            next_inner_w = cloud.inner_weights

        # Lanes survive by outer weight, each carrying its resampled inner
        # cloud: post-resample particle (j, i) is pre-resample particle
        # (anc[j], inner_anc[t, anc[j], i]), gathered in one pass.
        anc = systematic_resample(cloud.outer_weights, step.child("outer_resample").generator())
        outer_anc[t] = anc
        cloud = ParticleCloud(
            theta=cloud.theta[anc],
            states=take_particles(cloud.states, anc, inner_anc[t][anc]),
            inner_weights=next_inner_w[anc],
            outer_weights=np.full(m, 1.0 / m),
        )

    return FilterHistory(
        thetas=thetas,
        states=states,
        inner_weights=inner_w,
        outer_weights=outer_w,
        outer_ancestors=outer_anc,
        inner_ancestors=inner_anc,
        diagnostics=diagnostics,
    )


def filtered_means(history: FilterHistory) -> np.ndarray:
    """Per-step filtered state means under outer x inner weights, (T+1, d)."""
    joint = history.outer_weights[:, :, None] * history.inner_weights
    return np.einsum("tmn,tmnd->td", joint, history.states)


def lane_alignment(outer_ancestors: np.ndarray) -> np.ndarray:
    """Trace final-time lanes back through the outer resampling ancestry.

    Returns lane (T+1, M) in `index_dtype(M)`: lane[t, j] is the
    pre-resample lane index at time t on the lineage that ends in final lane j.
    """
    t1, m = outer_ancestors.shape
    lane = np.empty((t1, m), dtype=index_dtype(m))
    lane[-1] = np.arange(m)
    for t in range(t1 - 2, -1, -1):
        lane[t] = outer_ancestors[t][lane[t + 1]]
    return lane


@dataclass
class SmoothedWeights:
    """Backward-smoothed weights, aligned to final-time outer lanes.

    With lane = `lane_alignment(history.outer_ancestors)`, `w_tilde[t, j, n]`
    weights particle `states[t, lane[t, j], n]` and is jointly normalized over
    (j, n) at each t; `v_tilde[t]` are the smoothed lane weights.
    """

    w_tilde: np.ndarray     # (T+1, M, N), joint-normalized per t
    v_tilde: np.ndarray     # (T+1, M)


# Rows with gap_n <= 600 sum at most K * e^600 (finite for any K below 1e47).
_GAP_BOUND = 600.0


def _transition_factors(
    spec: SystemSpec,
    x_from: np.ndarray,       # (M, N, d)
    x_to: np.ndarray,         # (M, K, d)
    theta_to: np.ndarray,     # (M, p)
    log_w_next: np.ndarray,   # (M, K)
    delta: float,
    var: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factors of log sum_k p(x_to[k] | x_from[n], theta) w_next[k] for each lane.

    Each lane is centred on its heaviest next-step particle k* (L = log w_k*;
    a non-finite L counts as 0): with mu'_n = rk4_step(x_from[n], theta) - x_k*
    and x'_k = x_k - x_k*, the norm expansion
        log sum_k w_k N(x_k; mu_n, var I)
          = LSE_k(mu'_n.x'_k / var + log w_k - L - |x'_k|^2 / 2var) + L - gap_n + log_norm,
        gap_n = |mu'_n|^2 / 2var,
    puts every exponent into one matmul of `a` = [mu' / var, 1] (M, N, d+1)
    with `b` = [x'^T ; log w - L - |x'|^2 / 2var] (M, d+1, K). A zero weight
    enters as -inf and gives a -inf exponent. `row` (M, N) is the term added
    after the log-sum-exp. Centring leaves |x - mu| unchanged and removes the
    cancellation of |x|^2 / var terms that the raw origin suffers.

    Every exponent equals gap_n - |x'_k - mu'_n|^2 / 2var + log w_k - L, so it
    is at most gap_n, and the one at k* is exactly 0. `fast` (M,) marks the
    lanes whose rows all have gap_n <= _GAP_BOUND: their exponentials cannot
    overflow and their row sums are at least 1, so the log-sum-exp needs no
    shift there. A non-finite gap leaves the lane on the row-max branch.
    """
    m, n, d = x_from.shape
    lanes = np.arange(m)
    heaviest = np.argmax(log_w_next, axis=1)
    top = log_w_next[lanes, heaviest]
    top = np.where(np.isfinite(top), top, 0.0)
    centre = x_to[lanes, heaviest][:, None, :]
    mu = _rk4(spec, x_from, theta_to[:, None, :], delta)
    mu -= centre
    a = np.empty((m, n, d + 1))
    np.divide(mu, var, out=a[:, :, :d])
    a[:, :, d] = 1.0
    b = np.empty((m, d + 1, x_to.shape[1]))
    x_rel = b[:, :d]
    np.subtract(np.swapaxes(x_to, 1, 2), np.swapaxes(centre, 1, 2), out=x_rel)
    b[:, d] = log_w_next - top[:, None] - (0.5 / var) * np.einsum("mdk,mdk->mk", x_rel, x_rel)
    with np.errstate(over="ignore"):
        gap = (0.5 / var) * np.einsum("mnd,mnd->mn", mu, mu)
    log_norm = -0.5 * d * (_LOG_2PI + np.log(var))
    row = log_norm + top[:, None] - gap
    fast = (gap <= _GAP_BOUND).all(axis=1)
    return a, b, row, fast


def _transition_log_scores(a: np.ndarray, b: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """LSE_k (a @ b)[c, n, k] for each lane row, (C, N); all -inf rows stay -inf.

    One matmul, then exp and sum on the (C, N, K) block, whose k axis is
    contiguous; both work in place, since fresh ~1 MiB temporaries per chunk
    cost more than the passes themselves. Lanes not marked `fast` (C,) are
    shifted by their row max first; `fast` lanes are shifted by exactly 0, so
    a lane's result does not depend on the other lanes of its chunk, and when
    every lane is `fast` the max and subtract passes are skipped.
    """
    scores = np.matmul(a, b)
    shift = None
    if not fast.all():
        mx = np.max(scores, axis=2, keepdims=True)
        shift = np.where(np.isfinite(mx) & ~fast[:, None, None], mx, 0.0)
        scores -= shift
    np.exp(scores, out=scores)
    with np.errstate(divide="ignore"):
        out = np.log(scores.sum(axis=2))
    if shift is not None:
        out += np.squeeze(shift, 2)
    return out


def backward_smooth(
    history: FilterHistory,
    system: str | SystemSpec,
    delta: float,
    process_std: float,
    workers: int = 1,
) -> SmoothedWeights:
    """Reweight the filter history so each step conditions on all observations.

    Runs the backward recursion
        w~_t(n) = w_t(n) * sum_k p(x_{t+1}(k) | x_t(n), theta) w~_{t+1}(k)
    per outer lane along the recorded resampling lineage, with the transition
    density N(x'; rk4_step(x, theta), process_std^2 I). Per-lane weights are
    normalized each step; lane masses accumulate into smoothed outer weights,
    and the joint (outer x inner) weights are normalized per time step.

    Each step's pair sums come from `_transition_factors`, which centres each
    lane on its heaviest next-step particle, and `_transition_log_scores`,
    which skips the row max for the lanes whose centred gap bound shows the
    exponentials cannot overflow (see both). The branch is chosen per lane,
    and the shift of 0 on the fast branch is exact, so a lane's weights do
    not depend on the other lanes of its chunk.

    `workers` splits the lanes into at most that many contiguous spans of
    whole ~1 MiB lane chunks, one per thread, without changing results: each
    lane's scores depend only on that lane. Lanes whose weights underflow
    fall back to their filtered weights and are counted in
    `history.diagnostics.smoother_underflows`. At process_std 0 the transition
    density is degenerate and every lane keeps its filtered weights.
    """
    spec = get_system(system)
    t_end = history.horizon
    m, n = history.num_outer, history.num_inner

    lane = lane_alignment(history.outer_ancestors)
    w_tilde = np.empty_like(history.inner_weights)
    v_tilde = np.empty_like(history.outer_weights)

    # Base case: at t = T the smoothed weights are the filtered weights.
    w_norm = history.inner_weights[t_end].copy()
    v_cur = history.outer_weights[t_end].copy()
    w_tilde[t_end] = v_cur[:, None] * w_norm
    v_tilde[t_end] = v_cur
    underflows = 0
    # Lane-aligned particles at t + 1; each step's x_t is the next step's x_{t+1}.
    x_next = history.states[t_end][lane[t_end]]

    var = process_std * process_std
    # Lane chunks whose (C, N, N) score block is ~1 MiB of float64, so the
    # kernel's passes over it stay in a core's L2 cache. Each worker walks one
    # contiguous span of whole chunks, so the chunk grid does not depend on
    # the worker count.
    chunk = max(1, 131_072 // (n * n))
    n_chunks = -(-m // chunk)
    n_spans = max(1, min(workers, n_chunks))
    edges = [min(m, chunk * (n_chunks * i // n_spans)) for i in range(n_spans + 1)]
    spans = list(zip(edges[:-1], edges[1:]))
    pool = ThreadPoolExecutor(max_workers=n_spans) if n_spans > 1 else None
    try:
        for t in range(t_end - 1, -1, -1):
            w_filt = history.inner_weights[t][lane[t]]
            if process_std > 0:
                x_t = history.states[t][lane[t]]
                theta_next = history.thetas[t + 1][lane[t + 1]]
                a, b, log_s, fast = _transition_factors(
                    spec, x_t, x_next, theta_next, _log_nonzero(w_norm), delta, var
                )

                def _work(span):
                    for lo in range(span[0], span[1], chunk):
                        hi = min(lo + chunk, span[1])
                        log_s[lo:hi] += _transition_log_scores(a[lo:hi], b[lo:hi], fast[lo:hi])

                if pool is not None:
                    list(pool.map(_work, spans))
                else:
                    for span in spans:
                        _work(span)
                x_next = x_t
            else:
                # Degenerate transition density: every lane is dead below and
                # keeps its filtered weights, as any underflowed lane does.
                log_s = np.full((m, n), -np.inf)

            log_raw = _log_nonzero(w_filt) + log_s
            log_r = _logsumexp(log_raw, axis=1)
            dead = ~np.isfinite(log_r)
            w_norm = np.where(
                dead[:, None],
                w_filt,
                np.exp(log_raw - np.where(dead, 0.0, log_r)[:, None]),
            )
            if dead.any():
                underflows += int(dead.sum())

            log_v = _log_nonzero(v_cur) + np.where(dead, -np.inf, log_r)
            norm = _logsumexp(log_v[None, :], axis=1)[0]
            if np.isfinite(norm):
                v_cur = np.exp(log_v - norm)
            # else: every lane underflowed; keep the previous lane weights.

            w_tilde[t] = v_cur[:, None] * w_norm
            v_tilde[t] = v_cur
    finally:
        if pool is not None:
            pool.shutdown()

    history.diagnostics.smoother_underflows += underflows
    return SmoothedWeights(w_tilde=w_tilde, v_tilde=v_tilde)


@dataclass(frozen=True)
class PosteriorSummary:
    """Smoothed point estimates: state trajectory, parameter mean and spread."""

    state_mean: np.ndarray  # (T+1, d)
    theta_mean: np.ndarray
    theta_std: np.ndarray


def posterior_summary(
    history: FilterHistory,
    smoothed: SmoothedWeights,
) -> PosteriorSummary:
    """Collapse smoothed weights into point estimates.

    State means use the joint smoothed weights at each step. The parameter
    estimate averages final-time particles under the fully smoothed lane
    weights.
    """
    t_end = history.horizon
    lane = lane_alignment(history.outer_ancestors)
    x_hat = np.empty((t_end + 1, history.dimension))
    for t in range(t_end + 1):
        aligned = history.states[t][lane[t]]
        x_hat[t] = np.einsum("mn,mnd->d", smoothed.w_tilde[t], aligned)
    x_hat_sum = smoothed.w_tilde.sum(axis=(1, 2))
    x_hat /= x_hat_sum[:, None]

    theta = history.thetas[t_end][lane[t_end]]
    v = smoothed.v_tilde[min(1, t_end)]
    theta_mean = v @ theta
    theta_std = np.sqrt(np.maximum(0.0, v @ (theta - theta_mean) ** 2))

    return PosteriorSummary(state_mean=x_hat, theta_mean=theta_mean, theta_std=theta_std)
