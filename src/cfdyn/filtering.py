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
    """What `run_filter` keeps of t = 0..T: lineage rows and per-lane weights.

    The per-row members hold one row per lane-step (t, u) on the final
    lanes' lineages, numbered as `lineages` numbers them: `thetas` are the
    jittered parameters that propagated lane u's pre-resample `states` at
    step t, and `inner_ancestors` maps each post-resample particle of lane u
    to the particle it copied. The per-lane members keep every lane:
    `outer_ancestors[t]` maps post-resample lane m to the pre-resample lane
    it copied, and `filtered_means[t]` is the state mean under the joint
    outer x inner weights of step t. Both ancestor arrays hold the narrowest
    unsigned dtype that indexes their axis (`index_dtype`).
    """

    thetas: np.ndarray           # (S, p)
    states: np.ndarray           # (S, N, d)
    inner_weights: np.ndarray    # (T+1, M, N)
    outer_weights: np.ndarray    # (T+1, M)
    outer_ancestors: np.ndarray  # (T+1, M)
    inner_ancestors: np.ndarray  # (S, N)
    filtered_means: np.ndarray   # (T+1, d)
    diagnostics: FilterDiagnostics = field(default_factory=FilterDiagnostics)

    @property
    def horizon(self) -> int:
        return self.outer_weights.shape[0] - 1

    @property
    def num_outer(self) -> int:
        return self.outer_weights.shape[1]

    @property
    def num_inner(self) -> int:
        return self.inner_weights.shape[2]


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
    """Systematic (low-variance) resampling of one row; returns selected indices.

    The indices of `systematic_resample_rows`, found by one binary search:
    for a single row that beats its counting pass.
    """
    n = weights.shape[0]
    positions = (gen.uniform() + np.arange(n)) / n
    return np.minimum(np.searchsorted(np.cumsum(weights), positions), n - 1)


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


def take_particles(block: np.ndarray, rows: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """block[rows[j], inner[j, i]] for every (j, i), as one gather.

    `block` is (R, N, ...): the M lanes of one step, or the S rows of an
    `AncestralHistory`; `rows` (J,) and `inner` (J, K) may hold any integer
    dtype. The gather is one `np.take` on the flat (R * N, ...) view, with
    the flat index built in np.intp: a narrow lane index times N would wrap
    or raise.
    """
    m, n = block.shape[:2]
    flat = rows.astype(np.intp)[:, None] * n + inner.astype(np.intp)
    return np.take(block.reshape(m * n, *block.shape[2:]), flat, axis=0)


# Path storage: the buffer holds this many steps of M lane-rows at first, and
# doubles whenever a prune keeps more than half of it.
_BUFFER_STEPS = 2 * 33


class _PathBuffer:
    """The per-row members of a `FilterHistory` while the filter runs.

    Each step appends its M lane-rows of thetas, states and inner ancestors;
    `row_of[t, u]` is lane-step (t, u)'s row. When the buffer is full, `prune`
    keeps only the rows on the current lanes' lineages, in `lineages` order
    (Jacob, Murray & Rubenthaler, Stat. Comput. 2015): a lane-step off them
    is on no later lineage either.
    """

    def __init__(self, steps: int, m: int, n: int, p: int, d: int, inner_dtype: np.dtype):
        cap = min(_BUFFER_STEPS, steps) * m
        self.arrays = [np.empty((cap, p)), np.empty((cap, n, d)), np.empty((cap, n), inner_dtype)]
        self.row_of = np.empty((steps, m), dtype=np.intp)
        self.size = 0

    def append(self, t: int, outer_ancestors: np.ndarray, *rows: np.ndarray) -> None:
        m = self.row_of.shape[1]
        if self.size + m > self.arrays[0].shape[0]:
            self.prune(outer_ancestors[:t])
        self.row_of[t] = np.arange(self.size, self.size + m)
        for array, block in zip(self.arrays, rows):
            array[self.size : self.size + m] = block
        self.size += m

    def prune(self, outer_ancestors: np.ndarray, final: bool = False) -> list[np.ndarray]:
        """Keep the rows on the lineages of the lanes at the last step of
        `outer_ancestors`; the final prune returns them in arrays of their own."""
        _, steps, lanes = lineages(outer_ancestors)
        keep = self.row_of[steps, lanes]
        kept = keep.size
        cap = self.arrays[0].shape[0]
        if final or 2 * kept > cap:
            size = kept if final else 2 * cap
            grown = []
            for array in self.arrays:
                new = np.empty((size, *array.shape[1:]), array.dtype)
                # "clip" writes straight into `out` ("raise" buffers a copy);
                # every index is in range.
                np.take(array, keep, axis=0, out=new[:kept], mode="clip")
                grown.append(new)
            self.arrays = grown
        else:
            for array in self.arrays:
                array[:kept] = array[keep]
        self.row_of[steps, lanes] = np.arange(kept)
        self.size = kept
        return self.arrays


def run_filter(
    observations: np.ndarray,
    system: str | SystemSpec,
    x0: np.ndarray,
    config: FilterConfig,
    rng: RngSeed,
) -> FilterHistory:
    """Assimilate observations for t = 1..T and record the history.

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
    FilterHistory with the weights and ancestry of every lane, the filtered
    means, the lane-steps on the final lanes' lineages, and diagnostics.
    The lane-steps off those lineages are dropped while the filter runs
    (`_PathBuffer`), so the (T+1, M, N, d) states are never held at once.
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
    all_inner_weights = np.empty((horizon + 1, m, n))
    all_outer_weights = np.empty((horizon + 1, m))
    outer_ancestors = np.empty((horizon + 1, m), dtype=index_dtype(m))
    means = np.empty((horizon + 1, spec.dimension))
    paths = _PathBuffer(horizon + 1, m, n, spec.n_params, spec.dimension, index_dtype(n))
    diagnostics = FilterDiagnostics()
    bounds, std = np.array(config.prior_bounds), config.jitter_std
    theta, states = init_particles(bounds, m, n, x0, rng.child("init"))
    weights = np.full((m, n), 1.0 / n)
    identity = np.broadcast_to(np.arange(n), (m, n))

    all_inner_weights[0] = weights
    all_outer_weights[0] = 1.0 / m
    outer_ancestors[0] = np.arange(m)
    means[0] = np.einsum("mn,mnd->d", all_outer_weights[0][:, None] * weights, states)
    paths.append(0, outer_ancestors, theta, states, identity)

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
        all_inner_weights[t] = weights
        all_outer_weights[t] = v
        means[t] = np.einsum("mn,mnd->d", v[:, None] * weights, states)

        inner_anc = identity
        if config.inner_resampling:
            # `random()` is `uniform()` without its exact 0.0 + 1.0 * u.
            drawer = StreamDrawer(step)
            uniforms = np.empty(m)
            for lane in range(m):
                uniforms[lane] = drawer.generator("inner_resample", lane).random()
            inner_anc = systematic_resample_rows(weights, uniforms)
            weights = np.full((m, n), 1.0 / n)
        paths.append(t, outer_ancestors, theta, states, inner_anc)

        # Lanes survive by outer weight, each carrying its resampled inner
        # cloud: post-resample particle (j, i) is pre-resample particle
        # (anc[j], inner_anc[anc[j], i]), gathered in one pass.
        anc = systematic_resample(v, step.child("outer_resample").generator())
        outer_ancestors[t] = anc
        theta = theta[anc]
        states = take_particles(states, anc, inner_anc[anc])
        weights = weights[anc]

    thetas, kept_states, inner_ancestors = paths.prune(outer_ancestors, final=True)
    return FilterHistory(
        thetas=thetas,
        states=kept_states,
        inner_weights=all_inner_weights,
        outer_weights=all_outer_weights,
        outer_ancestors=outer_ancestors,
        inner_ancestors=inner_ancestors,
        filtered_means=means,
        diagnostics=diagnostics,
    )


def lineages(outer_ancestors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index the lane-steps on the final lanes' lineages as compact rows.

    Final lane j's lineage passes lane u_t(j) at step t, with u_T(j) = j and
    u_t(j) = outer_ancestors[t, u_{t+1}(j)]. The lane-steps (t, u) it passes
    are numbered in step order and, within a step, in lane order. Returns
    rows (T+1, M), where rows[t, j] is the number of (t, u_t(j)), and steps,
    lanes (S,), the (t, u) of each number; S = rows.max() + 1.
    """
    t1, m = outer_ancestors.shape
    lane = np.empty((t1, m), dtype=index_dtype(m))
    lane[-1] = np.arange(m)
    for t in range(t1 - 2, -1, -1):
        lane[t] = outer_ancestors[t][lane[t + 1]]
    kept = np.zeros((t1, m), dtype=bool)
    kept[np.arange(t1)[:, None], lane] = True
    number = np.cumsum(kept).reshape(kept.shape) - 1
    steps, lanes = np.nonzero(kept)
    return np.take_along_axis(number, lane, axis=1), steps, lanes


@dataclass
class AncestralHistory:
    """The filter history kept only along the final lanes' lineages.

    The compact members hold one row per lane-step (t, u) on those lineages,
    in the order of `lineages`: `rows[t, j]` is the row final lane j's
    lineage passes at step t, and a row's `states` are the filter's
    pre-resample particles of lane u at step t, and likewise for `thetas`,
    `inner_weights` and `inner_ancestors`. `parent[r]` is the row one step
    earlier on the same lineage, whose resampled cloud row r propagated (-1
    at t = 0).
    `outer_weights` and `outer_ancestors` keep every lane; `rows` and
    `parent` are derived from `outer_ancestors` on first use, not stored.
    """

    thetas: np.ndarray           # (S, p)
    states: np.ndarray           # (S, N, d)
    inner_weights: np.ndarray    # (S, N)
    inner_ancestors: np.ndarray  # (S, N)
    outer_weights: np.ndarray    # (T+1, M)
    outer_ancestors: np.ndarray  # (T+1, M)
    diagnostics: FilterDiagnostics = field(default_factory=FilterDiagnostics)

    @cached_property
    def rows(self) -> np.ndarray:
        return lineages(self.outer_ancestors)[0]

    @cached_property
    def parent(self) -> np.ndarray:
        parent = np.full(self.rows.max() + 1, -1)
        parent[self.rows[1:]] = self.rows[:-1]
        return parent

    @property
    def horizon(self) -> int:
        return self.outer_weights.shape[0] - 1

    @property
    def num_outer(self) -> int:
        return self.outer_weights.shape[1]

    @property
    def num_inner(self) -> int:
        return self.states.shape[1]


def keep_ancestral(history: FilterHistory) -> AncestralHistory:
    """The filter history as the smoother, the abduction and the posterior
    summary read it: only on the final lanes' lineages.

    `run_filter` already keeps only those lane-steps of the per-row members;
    this gathers their rows of `inner_weights`, and drops every other
    lane's. The result shares the other arrays and `history.diagnostics`.
    """
    _, steps, lanes = lineages(history.outer_ancestors)
    return AncestralHistory(
        thetas=history.thetas,
        states=history.states,
        inner_weights=history.inner_weights[steps, lanes],
        inner_ancestors=history.inner_ancestors,
        outer_weights=history.outer_weights,
        outer_ancestors=history.outer_ancestors,
        diagnostics=history.diagnostics,
    )


def lineage_step(
    spec: SystemSpec, history: AncestralHistory, t: int, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows_t, lane_row, prediction) of step t >= 1: the U_t sorted distinct rows
    of `history.rows[t]`, final lane j's index lane_row[j] into them, and the
    (U_t, N, d) rk4_step of row parent[r]'s whole cloud under row r's theta.

    The smoother weighs row r's particles against all of row r's predictions;
    the abduction differences each against its own parent's, picked by
    `inner_ancestors[parent[r]]`.
    """
    rows_t, lane_row = np.unique(history.rows[t], return_inverse=True)
    parents = history.states[history.parent[rows_t]]
    return rows_t, lane_row, _rk4(spec, parents, history.thetas[rows_t][:, None, :], delta)


@dataclass
class SmoothedWeights:
    """Backward-smoothed weights, aligned to final-time outer lanes.

    `w_tilde[t, j, n]` weights particle n of row `history.rows[t, j]`, the
    row final lane j's lineage passes at step t: final lane j's filtered
    mass v_T(j) times its within-lane smoothed weight, so each step sums to
    1 over (j, n).
    """

    w_tilde: np.ndarray     # (T+1, M, N), joint-normalized per t


# Rows with gap_n <= 600 sum at most K * e^600 (finite for any K below 1e47).
_GAP_BOUND = 600.0
# A row sum of N products that each lose at most 2^-1074 to underflow is exact
# to ~1e-70 relative when it is at least this; smaller sums are recomputed.
_TRUST_FLOOR = 1e-250


def _group_factors(
    prediction: np.ndarray,   # (C, N, d)
    x_to: np.ndarray,         # (C, K, d)
    centre: np.ndarray,       # (C,) index into K
    var: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Matmul factors of the kernel exponents of C lineage groups.

    Each group is centred on x_c = x_to[c, centre[c]]: with
    mu'_n = prediction[c, n] - x_c and x'_k = x_to[k] - x_c,
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
    c, n, d = prediction.shape
    anchor = x_to[np.arange(c), centre][:, None, :]
    mu = prediction - anchor
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

    Lanes j that share row r = rows[t + 1, j] form one group: x_{t+1} and
    the prediction from x_t are row r's `lineage_step`, and only the
    backward weights `w_next[j]` differ. One `_group_factors` call builds
    every group's factors, centred on its filter-heaviest next-step particle.
    Each group's (N, N) exponent block goes into `block`, exponentiated
    unshifted where its bound allows and shifted by each row's max
    otherwise; every member's row sums come from one matmul with the
    members' weights.

    A (row, lane) pair whose sum is below `_TRUST_FLOOR` (the lane's weight
    sits where the shifted row underflows) or not finite, or whose row term
    (gap and shift) is not finite, is recomputed from the group's factors,
    shifted by its own max, so no term its sum needs can underflow.
    """
    m, n = w_next.shape[0], history.num_inner
    log_norm = -0.5 * spec.dimension * (_LOG_2PI + np.log(var))
    log_s = np.empty((m, n))
    # Non-finite values and log(0) are caught below and recomputed exactly.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        groups, lane_row, prediction = lineage_step(spec, history, t + 1, delta)
        centre = np.argmax(history.inner_weights[groups], axis=1)
        a, b, gap, fast = _group_factors(prediction, history.states[groups], centre, var)
        row = log_norm - gap
        # Final lanes ordered by row, split into one run of members per group.
        members = np.argsort(lane_row, kind="stable")
        for c, lanes in enumerate(np.split(members, np.cumsum(np.bincount(lane_row))[:-1])):
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
                exact = _logsumexp(a[c, rows] @ b[c] + log_w, axis=1)
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
    density N(x'; rk4_step(x, theta), process_std^2 I), and normalizes it
    per lane each step: forward-filtering backward-smoothing under the
    lane's own theta (Doucet, Godsill & Andrieu, Stat. Comput. 2000). Each
    final lane keeps its filtered mass v_T(j) = `outer_weights[T, j]`, so
    the joint weights are w_tilde[t, j] = v_T(j) * w~_t(j).

    The recursion reads the history only on the final lanes' lineages
    (`keep_ancestral`): final lane j reads row `history.rows[t, j]` at step
    t. Going backward the lineages coalesce, so step t takes one
    `lineage_step` over the U_t distinct rows of rows[t + 1] and one (N, N)
    kernel block per row, shared by the final lanes on it
    (`_lineage_log_scores`): O(sum_t U_t * N^2), not O(T * M * N^2).

    Lanes whose weights underflow fall back to their filtered weights and are
    counted in `history.diagnostics.smoother_underflows`. At process_std 0 the
    transition density is degenerate and every lane keeps its filtered
    weights.
    """
    spec = get_system(system)
    t_end = history.horizon
    m, n = history.num_outer, history.num_inner
    w_tilde = np.empty((t_end + 1, m, n))
    mass = history.outer_weights[t_end][:, None]

    # Base case: at t = T the smoothed weights are the filtered weights.
    w_norm = history.inner_weights[history.rows[t_end]]
    w_tilde[t_end] = mass * w_norm

    var = process_std * process_std
    # One (N, N) exponent block for every group of every step: fresh blocks
    # fragmented the heap and raised peak RSS by ~14 MB in lorenz-n200 runs.
    block = np.empty((n, n))
    for t in range(t_end - 1, -1, -1):
        w_filt = history.inner_weights[history.rows[t]]
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
        w_tilde[t] = mass * w_norm

    return SmoothedWeights(w_tilde=w_tilde)


def posterior_summary(
    history: AncestralHistory,
    w_tilde: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Collapse the (T+1, M, N) smoothed weights `w_tilde` into point estimates:
    the (T+1, d) state mean and the (theta_mean, theta_std) pair.

    State means use the joint smoothed weights at each step, over the
    particles of the final lanes' lineages (rows `history.rows[t]`): the
    within-lane smoothed means mixed by the final lane weights v_T. The
    parameter estimate is the filtered posterior at T, p(theta | y_{1:T}):
    the final lanes' theta under v_T (Crisan & Miguez, Bernoulli 2018).
    """
    x_hat = np.array([np.einsum("mn,mnd->d", w, history.states[rows])
                      for w, rows in zip(w_tilde, history.rows)])
    x_hat /= w_tilde.sum(axis=(1, 2))[:, None]

    theta = history.thetas[history.rows[-1]]
    v = history.outer_weights[-1]
    theta_mean = v @ theta
    theta_std = np.sqrt(np.maximum(0.0, v @ (theta - theta_mean) ** 2))

    return x_hat, (theta_mean, theta_std)
