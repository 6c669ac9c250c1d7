"""ODE right-hand sides and the RK4 forward operator.

Supported systems: Lorenz, Rossler, logistic growth, plus a linear
exponential-decay system kept for integrator convergence checks. States and
parameters are plain float64 arrays; `SystemSpec` fixes dimensions and
parameter order. Every public function is pure and returns a new array;
`_rk4` works in buffers of its own, which `_rhs` fills in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError


@dataclass(frozen=True)
class SystemSpec:
    id: str
    dimension: int
    parameter_names: tuple[str, ...]

    @property
    def n_params(self) -> int:
        return len(self.parameter_names)


LORENZ = SystemSpec("lorenz", 3, ("sigma", "rho", "beta"))  # chaotic for rho >~ 24.74
ROSSLER = SystemSpec("rossler", 3, ("a", "b", "c"))  # chaotic for c >~ 5.7
LOGISTIC = SystemSpec("logistic", 1, ("r", "K"))  # non-chaotic baseline
EXP_DECAY = SystemSpec("exp_decay", 1, ("rate",))  # linear test system dX/dt = -rate*X

SYSTEMS: dict[str, SystemSpec] = {
    s.id: s for s in (LORENZ, ROSSLER, LOGISTIC, EXP_DECAY)
}


def get_system(system: str | SystemSpec) -> SystemSpec:
    if isinstance(system, SystemSpec):
        return system
    try:
        return SYSTEMS[system]
    except KeyError:
        raise ValueError(f"unknown system {system!r}; choose from {sorted(SYSTEMS)}") from None


def _rhs(system: SystemSpec, state: np.ndarray, params: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the time derivative into `out` and return it.

    `state` (..., d) and `params` (..., p) broadcast together to `out`'s
    shape; `out` must not overlap `state`. Each component is the commented
    expression, evaluated in its order with its operands in place.
    """
    if system.id == "lorenz":
        x, y, z = state[..., 0], state[..., 1], state[..., 2]
        sg, rho, beta = params[..., 0], params[..., 1], params[..., 2]
        dx, dy, dz = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(sg, np.subtract(y, x, out=dx), out=dx)  # sg * (y - x)
        np.multiply(x, np.subtract(rho, z, out=dy), out=dy)  # x * (rho - z) - y
        np.subtract(dy, y, out=dy)
        np.subtract(np.multiply(x, y, out=dz), beta * z, out=dz)  # x * y - beta * z
    elif system.id == "rossler":
        x, y, z = state[..., 0], state[..., 1], state[..., 2]
        a, b, c = params[..., 0], params[..., 1], params[..., 2]
        dx, dy, dz = out[..., 0], out[..., 1], out[..., 2]
        np.subtract(np.negative(y, out=dx), z, out=dx)  # -y - z
        np.add(x, np.multiply(a, y, out=dy), out=dy)  # x + a * y
        np.multiply(z, np.subtract(x, c, out=dz), out=dz)  # b + z * (x - c)
        np.add(b, dz, out=dz)
    elif system.id == "logistic":
        x = state[..., 0]
        r, cap = params[..., 0], params[..., 1]
        dx = out[..., 0]
        np.subtract(1.0, np.divide(x, cap, out=dx), out=dx)  # r * x * (1.0 - x / cap)
        np.multiply(r * x, dx, out=dx)
    elif system.id == "exp_decay":
        np.multiply(-params[..., 0:1], state, out=out)
    else:
        raise ValueError(f"unknown system id {system.id!r}")
    return out


def _rk4(system: SystemSpec, state: np.ndarray, params: np.ndarray, delta: float) -> np.ndarray:
    """One classical RK4 step into a new array; batched like `_rhs`, no validity checks.

    Evaluates state + (delta / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4) with
    stage inputs state + (0.5 * delta) * k1, state + (0.5 * delta) * k2 and
    state + delta * k3, one operation at a time in that order and with the
    operands in place, through three buffers.
    """
    shape = np.broadcast_shapes(state.shape[:-1], params.shape[:-1]) + state.shape[-1:]
    acc, k, stage = np.empty(shape), np.empty(shape), np.empty(shape)
    half = 0.5 * delta
    _rhs(system, state, params, acc)  # k1, then the running sum
    np.add(state, np.multiply(half, acc, out=stage), out=stage)
    _rhs(system, stage, params, k)  # k2
    np.add(state, np.multiply(half, k, out=stage), out=stage)
    np.add(acc, np.multiply(2.0, k, out=k), out=acc)
    _rhs(system, stage, params, k)  # k3
    np.add(state, np.multiply(delta, k, out=stage), out=stage)
    np.add(acc, np.multiply(2.0, k, out=k), out=acc)
    _rhs(system, stage, params, k)  # k4
    np.add(acc, k, out=acc)
    return np.add(state, np.multiply(delta / 6.0, acc, out=acc), out=acc)


def rollout(
    system: str | SystemSpec,
    x0: np.ndarray,
    params: np.ndarray,
    horizon: int,
    delta: float,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Roll K independent rows forward, stepping all of them as one RK4 block.

    states[:, t] = rk4(states[:, t-1], params) + noise[:, t-1] for t = 1..horizon.

    Parameters
    ----------
    x0 : ndarray (K, d)
    params : ndarray (K, p), one parameter row per trajectory
    noise : ndarray (K, horizon, d) or None
        Additive process noise; None adds nothing (not even +0.0, which would
        turn -0.0 into 0.0).

    Returns
    -------
    states : ndarray (K, horizon+1, d)
        A row is NaN from its first non-finite step on.
    first_failure : ndarray (K,) int64
        That step per row, or -1 for a row that stayed finite.
    """
    spec = get_system(system)
    x0 = np.asarray(x0, dtype=float)
    params = np.asarray(params, dtype=float)
    d = spec.dimension
    if x0.ndim != 2 or x0.shape[1] != d:
        raise ValueError(f"x0 has shape {x0.shape}, expected (K, {d}) for {spec.id}")
    k = x0.shape[0]
    if params.shape != (k, spec.n_params):
        raise ValueError(f"params has shape {params.shape}, expected ({k}, {spec.n_params})")
    if noise is not None and noise.shape != (k, horizon, d):
        raise ValueError(f"noise has shape {noise.shape}, expected ({k}, {horizon}, {d})")

    states = np.empty((k, horizon + 1, d))
    states[:, 0] = x0
    first_failure = np.full(k, -1, dtype=np.int64)
    current = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, horizon + 1):
            current = _rk4(spec, current, params, delta)
            if noise is not None:
                current += noise[:, t - 1]
            finite = np.isfinite(current).all(axis=1)
            if not finite.all():
                first_failure[~finite & (first_failure < 0)] = t
                current[~finite] = np.nan
                if (first_failure >= 0).all():
                    states[:, t:] = np.nan
                    break
            states[:, t] = current
    return states, first_failure


def _check_inputs(system: SystemSpec, state: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    state = np.asarray(state, dtype=float)
    params = np.asarray(params, dtype=float)
    if state.shape != (system.dimension,):
        raise ValueError(
            f"state has shape {state.shape}, expected ({system.dimension},) for {system.id}"
        )
    if params.shape != (system.n_params,):
        raise ValueError(
            f"params has shape {params.shape}, expected ({system.n_params},) "
            f"for {system.id} {system.parameter_names}"
        )
    if not np.isfinite(state).all():
        raise ValueError(f"non-finite state: {state}")
    if not np.isfinite(params).all():
        raise ValueError(f"non-finite params: {params}")
    return state, params


def rhs(system: str | SystemSpec, state: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Evaluate the system's time derivative at `state`.

    Parameters
    ----------
    system : str or SystemSpec
    state : ndarray (d,)
    params : ndarray (p,), ordered per `SystemSpec.parameter_names`

    Returns
    -------
    ndarray (d,)
    """
    spec = get_system(system)
    state, params = _check_inputs(spec, state, params)
    return _rhs(spec, state, params, np.empty(spec.dimension))


def rk4_step(
    system: str | SystemSpec, state: np.ndarray, params: np.ndarray, delta: float
) -> np.ndarray:
    """Advance `state` by one checked `_rk4` step of size `delta`.

    Raises NumericsError if the step blows up; a non-finite RK4 stage always
    makes the result non-finite.
    """
    spec = get_system(system)
    state, params = _check_inputs(spec, state, params)
    if delta <= 0:
        raise ValueError(f"step size must be positive, got {delta}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _rk4(spec, state, params, delta)
    if not np.isfinite(out).all():
        raise NumericsError(f"RK4 step is non-finite for {spec.id} at state {state}")
    return out
