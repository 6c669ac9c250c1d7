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

from dataclasses import dataclass, field
from functools import cached_property

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


def _reflect(values: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Fold values into [low, high] by reflection off the bounds."""
    width = high - low
    y = np.mod(values - low, 2.0 * width)
    return low + np.where(y <= width, y, 2.0 * width - y)


@dataclass(frozen=True)
class FilterConfig:
    """The nested filter's settings, named as in `ExperimentConfig`.

    `prior_bounds` holds each parameter's uniform prior as a (low, high)
    pair of floats: theta starts uniform in the bounds, and each step jitters
    it by N(0, diag(jitter_std^2)) and reflects it back into them. Every check
    names its field in quotes.
    """

    outer_particles: int
    inner_particles: int
    delta: float
    process_std: float
    observation_std: float
    prior_bounds: tuple[tuple[float, float], ...]
    jitter_scale: float
    inner_resampling: bool = True

    def __post_init__(self) -> None:
        for name in ("outer_particles", "inner_particles"):
            if getattr(self, name) < 1:
                raise ValueError(f"'{name}' must be >= 1, got {getattr(self, name)}")
        if self.delta <= 0:
            raise ValueError(f"'delta' must be positive, got {self.delta}")
        if self.process_std < 0:
            raise ValueError(f"'process_std' must be >= 0, got {self.process_std}")
        if self.observation_std <= 0:
            raise ValueError(f"'observation_std' must be > 0, got {self.observation_std}")
        try:
            pairs = list(self.prior_bounds)
        except TypeError:
            raise ValueError(
                f"'prior_bounds' must be a list of (low, high) pairs, got {self.prior_bounds!r}"
            ) from None
        bounds = []
        for k, pair in enumerate(pairs):
            try:
                low, high = map(float, pair)
            except (TypeError, ValueError):
                raise ValueError(
                    f"'prior_bounds' pair {k} must be two numbers (low, high), got {pair}"
                ) from None
            if not low < high:
                raise ValueError(f"'prior_bounds' pair {k} must satisfy low < high, got {pair}")
            bounds.append((low, high))
        if self.jitter_scale < 0:
            raise ValueError(f"'jitter_scale' must be >= 0, got {self.jitter_scale}")
        object.__setattr__(self, "prior_bounds", tuple(bounds))

    @property
    def jitter_std(self) -> np.ndarray:
        """Per-parameter jitter std, shrinking with M: jitter_scale * (high - low) / sqrt(M)."""
        low, high = np.array(self.prior_bounds).T
        return self.jitter_scale * (high - low) / np.sqrt(self.outer_particles)


@dataclass
class FilterDiagnostics:
    nonfinite_particles: int = 0
    inner_weight_underflows: int = 0
    outer_weight_underflows: int = 0
    smoother_underflows: int = 0


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
    prior_bounds: np.ndarray,
    num_outer: int,
    num_inner: int,
    x0: np.ndarray,
    rng: RngSeed,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the initial cloud: theta (M, p) i.i.d. uniform in the (p, 2)
    `prior_bounds` and states (M, N, d), every one at the (d,) point `x0`."""
    if num_outer < 1 or num_inner < 1:
        raise ValueError("particle counts must be >= 1")
    low, high = np.asarray(prior_bounds, dtype=float).T
    u = rng.child("theta_init").generator().uniform(size=(num_outer, low.shape[0]))
    theta = low + (high - low) * u
    point = np.asarray(x0, dtype=float)
    return theta, np.broadcast_to(point, (num_outer, num_inner, point.shape[0])).copy()


def _lane_normals(rng: RngSeed, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of `shape`; row m is drawn from rng.child("lane", m)."""
    block = np.empty(shape)
    drawer = StreamDrawer(rng)
    for m in range(shape[0]):
        drawer.generator("lane", m).standard_normal(out=block[m])
    return block


def jitter(theta: np.ndarray, std: np.ndarray, prior_bounds: np.ndarray, rng: RngSeed) -> np.ndarray:
    """Perturb each parameter particle of theta (M, p) with N(0, diag(std^2))
    and reflect it back into the (p, 2) `prior_bounds`.

    Each lane draws from its own substream.
    """
    if std.shape[0] != theta.shape[1]:
        raise ValueError(
            f"jitter std has {std.shape[0]} entries, theta has {theta.shape[1]} parameters"
        )
    # Lane m adds `normal(size=p)`, which is 0.0 + 1.0 * z.
    eps = np.add(0.0, _lane_normals(rng, theta.shape))
    return _reflect(theta + std * eps, *np.asarray(prior_bounds, dtype=float).T)


def propagate(
    states: np.ndarray,
    theta: np.ndarray,
    system: str | SystemSpec,
    delta: float,
    process_std: float,
    rng: RngSeed,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every state particle (M, N, d) one RK4 step under its lane's
    theta (M, p), plus process noise.

    Returns the new states and `invalid` (M, N) bool: non-finite results are
    zeroed and marked there, and receive zero weight at the next weighting
    step instead of aborting the run.
    """
    spec = get_system(system)
    with np.errstate(over="ignore", invalid="ignore"):
        base = _rk4(spec, states, theta[:, None, :], delta)
    # Lane m adds `normal(0.0, process_std, (N, d))`, which is 0.0 + process_std * z.
    states = _lane_normals(rng, base.shape)
    np.multiply(process_std, states, out=states)
    np.add(0.0, states, out=states)
    np.add(base, states, out=states)
    invalid = ~np.isfinite(states).all(axis=2)
    if invalid.any():
        states[invalid] = 0.0
    return states, invalid


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
    states: np.ndarray,
    weights: np.ndarray,
    invalid: np.ndarray,
    obs: np.ndarray,
    observation_std: float,
    diagnostics: FilterDiagnostics,
) -> tuple[np.ndarray, np.ndarray]:
    """Reweight each lane's state particles by the observation likelihood.

    Incoming weights (M, N) multiply the likelihood (after a per-step
    resample they are uniform, so this reduces to plain likelihood
    weighting), and particles marked `invalid` get weight zero; weights are
    normalized per lane in log space. Returns the new weights and the
    pre-normalization log-mean likelihood (M,) for the outer update. Lanes
    whose weights all underflow fall back to uniform and are counted.
    """
    if observation_std <= 0:
        raise ValueError("observation_std must be > 0 for a proper likelihood")
    obs = np.asarray(obs, dtype=float)
    ll = _batch_log_likelihood(obs, states, observation_std)
    ll[invalid] = -np.inf
    diagnostics.nonfinite_particles += int(invalid.sum())
    score = ll + _log_nonzero(weights)
    mx = np.max(score, axis=1)
    dead = ~np.isfinite(mx)
    # A dead lane's 0 / 0 and log(0) are overwritten below.
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = np.exp(score - np.where(dead, 0.0, mx)[:, None])
        total = shifted.sum(axis=1)
        weights = shifted / total[:, None]
        # weighted mean likelihood: sum_n w_prev(n) p(y | x_n)
        log_mean = mx + np.log(total)
    weights[dead] = 1.0 / score.shape[1]
    log_mean[dead] = -np.inf
    diagnostics.inner_weight_underflows += int(dead.sum())
    return weights, log_mean


def outer_weights(log_mean_lik: np.ndarray, diagnostics: FilterDiagnostics) -> np.ndarray:
    """Lane weights (M,) proportional to each lane's mean observation likelihood."""
    mx = np.max(log_mean_lik)
    if not np.isfinite(mx):
        diagnostics.outer_weight_underflows += 1
        return np.full(log_mean_lik.shape[0], 1.0 / log_mean_lik.shape[0])
    v = np.exp(log_mean_lik - mx)
    v /= v.sum()
    return v


def systematic_resample(weights: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Systematic (low-variance) resampling; returns selected indices."""
    return systematic_resample_rows(weights[None], np.array([gen.uniform()]))[0]


def systematic_resample_rows(weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Systematic resampling of every row of `weights` (R, n) at once.

    Row r places its positions at (uniforms[r] + k) / n and selects, for each,
    the number of cumulative weights strictly below it, clipped to n - 1: what
    a per-row `np.searchsorted(cumsum, positions, side="left")` returns, ties
    included: cnt[r, j], the positions at or below cum[r, j], is guessed from
    cum * n - u and corrected once each way against the positions themselves,
    and position k has #{j : cnt[r, j] <= k} weights below it.
    """
    r, n = weights.shape
    u = uniforms[:, None]
    cum = np.cumsum(weights, axis=1)
    cnt = np.clip(np.floor(cum * n - u) + 1.0, 0.0, n)
    cnt += (cnt < n) & ((u + cnt) / n <= cum)
    cnt -= (cnt > 0) & ((u + (cnt - 1.0)) / n > cum)
    flat = cnt.astype(np.intp) + (n + 1) * np.arange(r)[:, None]
    counts = np.bincount(flat.ravel(), minlength=r * (n + 1)).reshape(r, n + 1)
    return np.minimum(np.cumsum(counts[:, :n], axis=1), n - 1)


def index_dtype(size: int) -> np.dtype:
    """Narrowest unsigned dtype that holds every index of an axis of `size` >= 1."""
    return np.min_scalar_type(size - 1)


def take_particles(block: np.ndarray, lanes: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """block[lanes[j], inner[j, i]] for every (j, i), as one gather.

    `block` is (R, N, ...): the M lanes of one step, or the rows of an
    `AncestralHistory`; `lanes` (J,) and `inner` (J, K) may hold any
    integer dtype. The gather is one `np.take` on the flat (R * N, ...) view,
    with the flat index built in np.intp: a narrow lane index times N would
    wrap or raise.
    """
    m, n = block.shape[:2]
    flat = lanes.astype(np.intp)[:, None] * n + inner.astype(np.intp)
    return np.take(block.reshape(m * n, *block.shape[2:]), flat, axis=0)


def run_filter(
    observations: np.ndarray,
    system: str | SystemSpec,
    x0: np.ndarray,
    config: FilterConfig,
    rng: RngSeed,
) -> FilterHistory:
    """Assimilate observations for t = 1..T and record the full history.

    Parameters
    ----------
    observations : ndarray (T+1, d), finite (a NaN is rejected, not read as missing)
        obs[0] aligns with the initial state and is not assimilated.
    system, config : model and filter settings; config.prior_bounds holds
        one row per parameter of the system.
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
    if not np.isfinite(observations).all():
        t, k = np.argwhere(~np.isfinite(observations))[0]
        raise ValueError(f"observations must be finite, row {t} column {k} is {observations[t, k]}")
    horizon = observations.shape[0] - 1
    if horizon < 1:
        raise ValueError("need at least one observation after the initial time")
    if len(config.prior_bounds) != spec.n_params:
        raise ValueError(
            f"prior_bounds has {len(config.prior_bounds)} rows, "
            f"{spec.id} needs one per parameter {spec.parameter_names}"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.dimension,):
        raise ValueError(f"x0 must be ({spec.dimension},) for {spec.id}, got {x0.shape}")

    m, n = config.outer_particles, config.inner_particles
    history = FilterHistory(
        thetas=np.empty((horizon + 1, m, spec.n_params)),
        states=np.empty((horizon + 1, m, n, spec.dimension)),
        inner_weights=np.empty((horizon + 1, m, n)),
        outer_weights=np.empty((horizon + 1, m)),
        outer_ancestors=np.empty((horizon + 1, m), dtype=index_dtype(m)),
        inner_ancestors=np.empty((horizon + 1, m, n), dtype=index_dtype(n)),
    )
    diagnostics = history.diagnostics
    bounds, std = np.array(config.prior_bounds), config.jitter_std
    theta, states = init_particles(bounds, m, n, x0, rng.child("init"))
    weights = np.full((m, n), 1.0 / n)

    history.thetas[0] = theta
    history.states[0] = states
    history.inner_weights[0] = weights
    history.outer_weights[0] = 1.0 / m
    history.outer_ancestors[0] = np.arange(m)
    history.inner_ancestors[0] = np.arange(n)

    for t in range(1, horizon + 1):
        step = rng.child("step", t)
        theta = jitter(theta, std, bounds, step.child("jitter"))
        states, invalid = propagate(
            states, theta, spec, config.delta, config.process_std, step.child("propagate")
        )
        weights, log_mean_lik = inner_weights(
            states, weights, invalid, observations[t], config.observation_std, diagnostics
        )
        v = outer_weights(log_mean_lik, diagnostics)

        history.thetas[t] = theta
        history.states[t] = states
        history.inner_weights[t] = weights
        history.outer_weights[t] = v

        inner_anc = history.inner_ancestors[t]
        if config.inner_resampling:
            # `random()` is `uniform()` without its exact 0.0 + 1.0 * u.
            drawer = StreamDrawer(step)
            uniforms = np.empty(m)
            for lane in range(m):
                uniforms[lane] = drawer.generator("inner_resample", lane).random()
            inner_anc[:] = systematic_resample_rows(weights, uniforms)
            weights = np.full((m, n), 1.0 / n)
        else:
            inner_anc[:] = np.arange(n)

        # Lanes survive by outer weight, each carrying its resampled inner
        # cloud: post-resample particle (j, i) is pre-resample particle
        # (anc[j], inner_anc[anc[j], i]), gathered in one pass.
        anc = systematic_resample(v, step.child("outer_resample").generator())
        history.outer_ancestors[t] = anc
        theta = theta[anc]
        states = take_particles(states, anc, inner_anc[anc])
        weights = weights[anc]

    return history


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


def ancestral_rows(lane: np.ndarray) -> np.ndarray:
    """Row map (T+1, M) of the lane-steps on the final lanes' lineages.

    (t, u) is kept when u is in lane[t]. Kept lane-steps are numbered in step
    order and, within a step, in lane order; row[t, u] is that number, or -1
    for a lane-step that is not kept. The count of kept lane-steps, S, is
    row.max() + 1.
    """
    kept = np.zeros(lane.shape, dtype=bool)
    kept[np.arange(lane.shape[0])[:, None], lane] = True
    return np.where(kept, np.cumsum(kept).reshape(kept.shape) - 1, -1)


@dataclass
class AncestralHistory:
    """The filter history kept only along the final lanes' lineages.

    The compact members hold, in the row order of `ancestral_rows`, the
    lane-steps (t, u) with u in lane[t]: `states[row[t, u]]` is the
    `FilterHistory`'s `states[t][u]`, and likewise for `thetas`,
    `inner_weights` and `inner_ancestors`. `outer_weights` and
    `outer_ancestors` keep every lane. `lane` and `row` are derived from
    `outer_ancestors` on first use and are not stored.
    """

    thetas: np.ndarray           # (S, p)
    states: np.ndarray           # (S, N, d)
    inner_weights: np.ndarray    # (S, N)
    inner_ancestors: np.ndarray  # (S, N)
    outer_weights: np.ndarray    # (T+1, M)
    outer_ancestors: np.ndarray  # (T+1, M)
    diagnostics: FilterDiagnostics = field(default_factory=FilterDiagnostics)

    @cached_property
    def lane(self) -> np.ndarray:
        return lane_alignment(self.outer_ancestors)

    @cached_property
    def row(self) -> np.ndarray:
        return ancestral_rows(self.lane)

    @property
    def horizon(self) -> int:
        return self.outer_weights.shape[0] - 1

    @property
    def num_outer(self) -> int:
        return self.outer_weights.shape[1]

    @property
    def num_inner(self) -> int:
        return self.states.shape[1]

    @property
    def dimension(self) -> int:
        return self.states.shape[2]


def keep_ancestral(history: FilterHistory) -> AncestralHistory:
    """Gather the lane-steps on the final lanes' lineages into an AncestralHistory.

    The smoother, the abduction and the posterior summary read the history
    only along those lineages, which coalesce going backward; every other
    lane-step is dropped. The result shares `history.diagnostics`.
    """
    steps, lanes = np.nonzero(ancestral_rows(lane_alignment(history.outer_ancestors)) >= 0)
    return AncestralHistory(
        thetas=history.thetas[steps, lanes],
        states=history.states[steps, lanes],
        inner_weights=history.inner_weights[steps, lanes],
        inner_ancestors=history.inner_ancestors[steps, lanes],
        outer_weights=history.outer_weights,
        outer_ancestors=history.outer_ancestors,
        diagnostics=history.diagnostics,
    )


@dataclass
class SmoothedWeights:
    """Backward-smoothed weights, aligned to final-time outer lanes.

    With lane = `lane_alignment(history.outer_ancestors)`, `w_tilde[t, j, n]`
    weights particle n of lane lane[t, j] at step t and is jointly normalized
    over (j, n) at each t; `v_tilde[t]` are the smoothed lane weights.
    """

    w_tilde: np.ndarray     # (T+1, M, N), joint-normalized per t
    v_tilde: np.ndarray     # (T+1, M)


# Rows with gap_n <= 600 sum at most K * e^600 (finite for any K below 1e47).
_GAP_BOUND = 600.0
# A row sum of N products that each lose at most 2^-1074 to underflow is exact
# to ~1e-70 relative when it is at least this; smaller sums are recomputed.
_TRUST_FLOOR = 1e-250


def _group_factors(
    spec: SystemSpec,
    x_from: np.ndarray,       # (C, N, d)
    x_to: np.ndarray,         # (C, K, d)
    theta_to: np.ndarray,     # (C, p)
    centre: np.ndarray,       # (C,) index into K
    delta: float,
    var: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Matmul factors of the kernel exponents of C lineage groups.

    Each group is centred on x_c = x_to[c, centre[c]]: with
    mu'_n = rk4_step(x_from[n], theta) - x_c and x'_k = x_to[k] - x_c,
        log N(x_k; mu_n, var I) = e[n, k] - gap_n + log_norm,
        e[n, k] = mu'_n . x'_k / var - |x'_k|^2 / 2var,
        gap_n = |mu'_n|^2 / 2var,
    and each group's (N, K) block e is `a @ b`, with `a` = [mu' / var, 1]
    (C, N, d+1) and `b` = [x'^T ; -|x'|^2 / 2var] (C, d+1, K). Centring
    leaves |x - mu| unchanged and removes the cancellation of |x|^2 / var
    terms that the raw origin suffers.

    Every e[n, k] lies in [-R^2 - 2 R sqrt(G), G], with G = max_n gap_n and
    R^2 = max_k |x'_k|^2 / 2var (Cauchy-Schwarz on mu'_n . x'_k). `fast` (C,)
    marks the groups where that interval lies within [-600, 600]: there
    exp(e) neither overflows nor underflows, so the block needs no row shift.
    A non-finite bound leaves the group unmarked. Returns a, b, gap (C, N)
    and fast.
    """
    c, n, d = x_from.shape
    anchor = x_to[np.arange(c), centre][:, None, :]
    mu = _rk4(spec, x_from, theta_to[:, None, :], delta)
    mu -= anchor
    a = np.empty((c, n, d + 1))
    np.divide(mu, var, out=a[:, :, :d])
    a[:, :, d] = 1.0
    b = np.empty((c, d + 1, x_to.shape[1]))
    x_rel = b[:, :d]
    np.subtract(np.swapaxes(x_to, 1, 2), np.swapaxes(anchor, 1, 2), out=x_rel)
    half_sq = (0.5 / var) * np.einsum("cdk,cdk->ck", x_rel, x_rel)
    np.negative(half_sq, out=b[:, d])
    gap = (0.5 / var) * np.einsum("cnd,cnd->cn", mu, mu)
    g_max = gap.max(axis=1)
    r_sq = half_sq.max(axis=1)
    fast = (g_max <= _GAP_BOUND) & (r_sq + 2.0 * np.sqrt(r_sq * g_max) <= _GAP_BOUND)
    return a, b, gap, fast


def _exact_rows(a_rows: np.ndarray, b: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """LSE_k((a_rows @ b)[i, k] + log_w[i, k]) for P (row, lane) pairs of one group, (P,).

    Each pair is shifted by its own max of exponent plus log weight, so no
    term its sum needs can underflow; all -inf pairs stay -inf.
    """
    return _logsumexp(a_rows @ b + log_w, axis=1)


def _lineage_log_scores(
    spec: SystemSpec,
    history: AncestralHistory,
    t: int,
    w_next: np.ndarray,
    delta: float,
    var: float,
    block: np.ndarray,
) -> np.ndarray:
    """log sum_k p(x_{t+1}(k) | x_t(n), theta) w_next[j, k] for every final lane j, (M, N).

    Lanes j that share u = lane[t + 1, j] form one group: x_t, x_{t+1} and
    theta_{t+1} depend only on u, and only the backward weights `w_next[j]`
    differ. One `_group_factors` call builds every group's factors, centred on
    its filter-heaviest next-step particle. Each group's (N, N) exponent block
    goes into `block`, exponentiated unshifted where its bound allows and
    shifted by each row's max otherwise; every member's row sums come from one
    matmul with the members' weights.

    A (row, lane) pair whose sum is below `_TRUST_FLOOR` (the lane's weight
    sits where the shifted row underflows) or not finite, or whose row term
    (gap and shift) is not finite, is recomputed by `_exact_rows` from the
    group's own factors.
    """
    m, n = w_next.shape[0], history.num_inner
    lane, row_of = history.lane, history.row
    # Final lanes ordered by u, split into one run of members per group.
    members = np.argsort(lane[t + 1], kind="stable")
    counts = np.bincount(lane[t + 1])
    groups = np.flatnonzero(counts)
    rows_to = row_of[t + 1, groups]
    x_from = history.states[row_of[t, history.outer_ancestors[t][groups]]]
    x_to = history.states[rows_to]
    theta_to = history.thetas[rows_to]
    centre = np.argmax(history.inner_weights[rows_to], axis=1)
    log_norm = -0.5 * spec.dimension * (_LOG_2PI + np.log(var))
    log_s = np.empty((m, n))
    # Non-finite values and log(0) are caught below and recomputed by `_exact_rows`.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a, b, gap, fast = _group_factors(spec, x_from, x_to, theta_to, centre, delta, var)
        row = log_norm - gap
        for c, lanes in enumerate(np.split(members, np.cumsum(counts[groups])[:-1])):
            e = np.matmul(a[c], b[c], out=block)
            if not fast[c]:
                shift = np.max(e, axis=1)
                e -= shift[:, None]
                row[c] += shift
            np.exp(e, out=e)
            sums = e @ w_next[lanes].T
            log_s[lanes] = (np.log(sums) + row[c, :, None]).T
            # NaN compares False, so a NaN sum is recomputed too.
            ok = (sums >= _TRUST_FLOOR) & (sums < np.inf) & np.isfinite(row[c])[:, None]
            rows, cols = np.nonzero(~ok)
            if rows.size:
                log_w = _log_nonzero(w_next[lanes[cols]])
                exact = _exact_rows(a[c, rows], b[c], log_w)
                log_s[lanes[cols], rows] = exact + (log_norm - gap[c, rows])
    return log_s


def backward_smooth(
    history: AncestralHistory,
    system: str | SystemSpec,
    delta: float,
    process_std: float,
) -> SmoothedWeights:
    """Reweight the filter history so each step conditions on all observations.

    Runs the backward recursion
        w~_t(n) = w_t(n) * sum_k p(x_{t+1}(k) | x_t(n), theta) w~_{t+1}(k)
    per outer lane along the recorded resampling lineage, with the transition
    density N(x'; rk4_step(x, theta), process_std^2 I). Per-lane weights are
    normalized each step; lane masses accumulate into smoothed outer weights,
    and the joint (outer x inner) weights are normalized per time step.

    The recursion reads the history only on the final lanes' lineages, which
    is what an `AncestralHistory` (`keep_ancestral`) keeps: lane lane[t, j]
    at step t is row `history.row[t, lane[t, j]]`. The lineages coalesce
    going backward, so at step t only the U_t = |unique(lane[t + 1])|
    distinct lanes need RK4 and an (N, N) kernel block: `_lineage_log_scores`
    builds one per distinct lane and shares it among the final lanes on it,
    recomputing exactly the few row sums the shared block cannot carry (see
    there). The cost is O(sum_t U_t * N^2) rather than O(T * M * N^2).

    Lanes whose weights underflow fall back to their filtered weights and are
    counted in `history.diagnostics.smoother_underflows`. At process_std 0 the
    transition density is degenerate and every lane keeps its filtered
    weights.
    """
    spec = get_system(system)
    t_end = history.horizon
    m, n = history.num_outer, history.num_inner
    lane, row = history.lane, history.row
    w_tilde = np.empty((t_end + 1, m, n))
    v_tilde = np.empty_like(history.outer_weights)

    # Base case: at t = T the smoothed weights are the filtered weights.
    w_norm = history.inner_weights[row[t_end]]
    v_cur = history.outer_weights[t_end].copy()
    w_tilde[t_end] = v_cur[:, None] * w_norm
    v_tilde[t_end] = v_cur

    var = process_std * process_std
    # One (N, N) exponent block for every group of every step: fresh blocks
    # fragmented the heap and raised peak RSS by ~14 MB in lorenz-n200 runs.
    block = np.empty((n, n))
    for t in range(t_end - 1, -1, -1):
        w_filt = history.inner_weights[row[t, lane[t]]]
        if process_std > 0:
            log_s = _lineage_log_scores(spec, history, t, w_norm, delta, var, block)
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
        history.diagnostics.smoother_underflows += int(dead.sum())

        log_v = _log_nonzero(v_cur) + np.where(dead, -np.inf, log_r)
        norm = _logsumexp(log_v[None, :], axis=1)[0]
        if np.isfinite(norm):
            v_cur = np.exp(log_v - norm)
        # else: every lane underflowed; keep the previous lane weights.

        w_tilde[t] = v_cur[:, None] * w_norm
        v_tilde[t] = v_cur

    return SmoothedWeights(w_tilde=w_tilde, v_tilde=v_tilde)


@dataclass(frozen=True)
class PosteriorSummary:
    """Smoothed point estimates: state trajectory, parameter mean and spread."""

    state_mean: np.ndarray  # (T+1, d)
    theta_mean: np.ndarray
    theta_std: np.ndarray


def posterior_summary(
    history: AncestralHistory,
    smoothed: SmoothedWeights,
) -> PosteriorSummary:
    """Collapse smoothed weights into point estimates.

    State means use the joint smoothed weights at each step, over the
    particles of the final lanes' lineages (rows `history.row[t, lane[t]]`).
    The parameter estimate averages final-time particles under the fully
    smoothed lane weights.
    """
    t_end = history.horizon
    lane, row = history.lane, history.row
    x_hat = np.empty((t_end + 1, history.dimension))
    for t in range(t_end + 1):
        aligned = history.states[row[t, lane[t]]]
        x_hat[t] = np.einsum("mn,mnd->d", smoothed.w_tilde[t], aligned)
    x_hat_sum = smoothed.w_tilde.sum(axis=(1, 2))
    x_hat /= x_hat_sum[:, None]

    theta = history.thetas[row[t_end, lane[t_end]]]
    v = smoothed.v_tilde[min(1, t_end)]
    theta_mean = v @ theta
    theta_std = np.sqrt(np.maximum(0.0, v @ (theta - theta_mean) ** 2))

    return PosteriorSummary(state_mean=x_hat, theta_mean=theta_mean, theta_std=theta_std)
