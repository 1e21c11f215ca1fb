"""The splitting solver: both subflows, their compositions and the time loop.

The linear subflow is exact in Fourier space (per-mode factors
``exp(lambda_k*t)``); the nonlinear subflow is classical RK4 on the
conservative spectral right-hand side.  A Strang step is half a linear
step, a full nonlinear step and another half linear step; a Lie-Trotter
step is a full linear step followed by a full nonlinear step.  Both, and the
nonlinear flow alone, run in one stepping kernel built once per solve on the
real half-spectrum ``k = 0..N/2`` (``rfft`` layout), where each right-hand
side costs one ``irfft`` and one batched ``rfft`` of ``[y^3, y^2]``.  The
public functions convert FFT-order ``SpectralState`` vectors at the boundary,
so every state they return is exactly Hermitian, and they reject states that
are not real-representable.  ``evolve`` runs a whole number of steps with
optional snapshots, an observer hook and blow-up guarding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUp, ConfigError, GridMismatch, NegativeDuration, NonFiniteState
from .model import LinearSymbol, ModelParams, _check_symbol, linear_symbol
from .spectral import (
    DEALIAS_RULES,
    GridSpec,
    SpectralState,
    _derivative_symbol,
    _from_half,
    _real_half,
    dealias_mask,
)

__all__ = [
    "LinearPropagator",
    "NonlinearFlowConfig",
    "build_propagator",
    "apply_linear",
    "rk4_step",
    "nonlinear_flow",
    "SolveConfig",
    "Trajectory",
    "strang_step",
    "lie_trotter_step",
    "evolve",
]

SCHEMES = ("strang", "lie_trotter")

# evolve aborts when the L2 norm exceeds this multiple of the initial norm
BLOWUP_NORM_FACTOR = 1e6


@dataclass(frozen=True, eq=False)
class LinearPropagator:
    """Per-mode factors ``exp(lambda_k * t)`` for one fixed duration ``t >= 0``."""

    factors: np.ndarray = field(repr=False)
    duration: float
    grid: GridSpec


@dataclass(frozen=True)
class NonlinearFlowConfig:
    """Substep count and dealiasing rule for the nonlinear integrator."""

    substeps: int = 1
    dealias: str = "none"

    def __post_init__(self):
        if not isinstance(self.substeps, numbers.Integral) or self.substeps < 1:
            raise ConfigError("substeps", f"must be an integer >= 1, got {self.substeps!r}")
        if self.dealias not in DEALIAS_RULES:
            raise ConfigError("dealias", f"must be one of {DEALIAS_RULES}, got {self.dealias!r}")


def build_propagator(symbol: LinearSymbol, t: float) -> LinearPropagator:
    """Exact linear propagator over duration ``t``.

    Negative durations are rejected: the backward flow amplifies high modes
    without bound when ``nu > 0``.
    """
    if not (t >= 0) or not math.isfinite(t):
        raise NegativeDuration(f"propagator duration must be >= 0, got {t}")
    factors = np.exp(symbol.values * t)
    factors.setflags(write=False)
    return LinearPropagator(factors=factors, duration=float(t), grid=symbol.grid)


def apply_linear(prop: LinearPropagator, state: SpectralState) -> SpectralState:
    """Advance a state through the exact linear flow."""
    if prop.grid != state.grid:
        raise GridMismatch("propagator and state were built on different grids")
    return SpectralState(prop.factors * state.coeffs, state.grid)


def _rk4_coeffs(coeffs: np.ndarray, dt: float, f) -> np.ndarray:
    a = f(coeffs)
    b = f(coeffs + (0.5 * dt) * a)
    c = f(coeffs + (0.5 * dt) * b)
    d = f(coeffs + dt * c)
    out = coeffs + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("RK4 stage produced non-finite values")
    return out


def rk4_step(state: SpectralState, dt: float, rhs) -> SpectralState:
    """One classical four-stage Runge-Kutta step of ``state' = rhs(state)``."""
    if not math.isfinite(dt):
        raise ConfigError("dt", f"must be finite, got {dt}")
    grid = state.grid

    def f(coeffs):
        out = rhs(SpectralState(coeffs, grid)).coeffs
        if not np.all(np.isfinite(out)):
            raise NonFiniteState("right-hand side produced non-finite values")
        return out

    return SpectralState(_rk4_coeffs(state.coeffs, dt, f), grid)


def _positive_finite(key: str, value) -> None:
    """Raise ConfigError(key) unless ``value`` is a real number, positive and finite."""
    if not (isinstance(value, numbers.Real) and 0 < value < math.inf):
        raise ConfigError(key, f"must be positive and finite, got {value!r}")


def _step_count(dt: float, t_final: float) -> int:
    """Number of steps of size ``dt`` that make up ``t_final``.

    Raises ConfigError unless both are real numbers, positive and finite,
    and their ratio a whole number (to 1e-9 relative) of at least 1.
    """
    _positive_finite("t_final", t_final)
    _positive_finite("dt", dt)
    ratio = t_final / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigError("dt", f"t_final/dt = {ratio!r} is not a whole number of steps")
    return n


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ConfigError("scheme", f"must be one of {SCHEMES}, got {scheme!r}")


@dataclass(frozen=True)
class SolveConfig:
    """Time-stepping parameters; ``t_final/dt`` must be a whole number of steps."""

    dt: float
    t_final: float
    scheme: str = "strang"
    nonlinear_cfg: NonlinearFlowConfig = NonlinearFlowConfig()
    snapshot_stride: int = 0

    def __post_init__(self):
        _step_count(self.dt, self.t_final)
        _check_scheme(self.scheme)
        if not isinstance(self.snapshot_stride, numbers.Integral) or self.snapshot_stride < 0:
            raise ConfigError(
                "snapshot_stride", f"must be an integer >= 0, got {self.snapshot_stride!r}"
            )

    @property
    def n_steps(self) -> int:
        return _step_count(self.dt, self.t_final)


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of one solve; the final state is always present."""

    times: tuple
    states: tuple
    final: SpectralState
    steps_taken: int


class _Stepper:
    """One splitting step on the real half-spectrum, built once per solve.

    Holds the linear factors of the scheme (``exp(lambda*dt/2)`` for Strang,
    ``exp(lambda*dt)`` for Lie-Trotter) and the nonlinear data on
    ``k = 0..N/2``.  Built without a symbol it only runs the nonlinear flow.
    """

    def __init__(
        self,
        grid: GridSpec,
        params: ModelParams,
        dt: float,
        cfg: NonlinearFlowConfig,
        symbol: LinearSymbol | None = None,
        scheme: str = "strang",
    ):
        m = grid.n_modes // 2 + 1
        self.n_modes = grid.n_modes
        self.strang = scheme == "strang"
        if symbol is not None:
            duration = dt / 2.0 if self.strang else dt
            self.linear = build_propagator(symbol, duration).factors[:m]
        self.conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
        self.drop = None if cfg.dealias == "none" else ~dealias_mask(grid, cfg.dealias)[:m]
        self.react = params.eps_react
        self.substeps = cfg.substeps
        self.sub_dt = dt / cfg.substeps
        self.powers = np.empty((2, grid.n_modes))

    def rhs(self, c: np.ndarray) -> np.ndarray:
        """Conservative right-hand side ``-(eps/3)*ik*T(y^3) + eps_react*(c - T(y^2))``."""
        y = np.fft.irfft(c, self.n_modes)
        powers = self.powers
        np.multiply(y, y, out=powers[1])
        np.multiply(powers[1], y, out=powers[0])
        cubed, squared = spectra = np.fft.rfft(powers)
        if self.drop is not None:
            spectra[:, self.drop] = 0.0
        out = self.conv * cubed
        if self.react != 0.0:
            # in place on the fresh transform; equals eps_react*(c - T(y^2)) bit for bit
            squared -= c
            squared *= -self.react
            out += squared
        return out

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        for _ in range(self.substeps):
            c = _rk4_coeffs(c, self.sub_dt, self.rhs)
        return c

    def step(self, c: np.ndarray) -> np.ndarray:
        c = self.nonlinear(self.linear * c)
        return self.linear * c if self.strang else c


def nonlinear_flow(
    state: SpectralState,
    dt: float,
    params: ModelParams,
    cfg: NonlinearFlowConfig = NonlinearFlowConfig(),
) -> SpectralState:
    """Advance the nonlinear subproblem by ``dt`` using RK4 substeps."""
    if not math.isfinite(dt):
        raise ConfigError("dt", f"must be finite, got {dt}")
    half = _Stepper(state.grid, params, dt, cfg).nonlinear(_real_half(state))
    return _from_half(half, state.grid)


def _half_l2(half: np.ndarray, grid: GridSpec) -> float:
    """Discrete L2 norm of the real data whose half-spectrum is ``half``."""
    sq = 2.0 * np.vdot(half, half).real - abs(half[0]) ** 2 - abs(half[-1]) ** 2
    return math.sqrt(sq * grid.spacing / grid.n_modes)


def _one_step(state, dt, params, symbol, cfg, scheme) -> SpectralState:
    _positive_finite("dt", dt)
    _check_symbol(symbol, params, state.grid)
    stepper = _Stepper(state.grid, params, dt, cfg, symbol, scheme)
    return _from_half(stepper.step(_real_half(state)), state.grid)


def strang_step(
    state: SpectralState,
    dt: float,
    params: ModelParams,
    symbol: LinearSymbol,
    cfg: NonlinearFlowConfig = NonlinearFlowConfig(),
) -> SpectralState:
    """One Strang step: half linear, full nonlinear, half linear."""
    return _one_step(state, dt, params, symbol, cfg, "strang")


def lie_trotter_step(
    state: SpectralState,
    dt: float,
    params: ModelParams,
    symbol: LinearSymbol,
    cfg: NonlinearFlowConfig = NonlinearFlowConfig(),
) -> SpectralState:
    """One Lie-Trotter step: full linear step, then full nonlinear step."""
    return _one_step(state, dt, params, symbol, cfg, "lie_trotter")


def evolve(
    initial: SpectralState,
    params: ModelParams,
    config: SolveConfig,
    observer=None,
) -> Trajectory:
    """Run ``t_final/dt`` steps of the chosen scheme from ``initial``.

    Snapshots are recorded every ``snapshot_stride`` steps plus the initial
    and final states; stride 0 records the final state only.  The observer,
    when given, is called as ``observer(step, time, state)`` at each recorded
    step.  Raises BlowUp when a state turns non-finite or its L2 norm grows
    past ``BLOWUP_NORM_FACTOR`` times the initial norm.
    """
    grid = initial.grid
    n = config.n_steps
    dt = config.dt
    stride = config.snapshot_stride
    stepper = _Stepper(
        grid, params, dt, config.nonlinear_cfg, linear_symbol(params, grid), config.scheme
    )
    c = _real_half(initial)
    norm_cap = BLOWUP_NORM_FACTOR * max(_half_l2(c, grid), 1e-300)

    snap_steps = {n}
    if stride > 0:
        snap_steps.update(range(0, n + 1, stride))

    times = []
    states = []

    def record(step, half):
        t = config.t_final if step == n else step * dt
        s = _from_half(half, grid)
        times.append(t)
        states.append(s)
        if observer is not None:
            observer(step, t, s)

    if 0 in snap_steps:
        record(0, c)
    for step in range(1, n + 1):
        try:
            c = stepper.step(c)
        except NonFiniteState as exc:
            raise BlowUp(step, step * dt, str(exc)) from exc
        # NaN fails the comparison, so one reduction checks both guards
        if not _half_l2(c, grid) <= norm_cap:
            finite = np.all(np.isfinite(c))
            raise BlowUp(
                step, step * dt, "L2 norm exploded" if finite else "state turned non-finite"
            )
        if step in snap_steps:
            record(step, c)

    return Trajectory(
        times=tuple(times), states=tuple(states), final=states[-1], steps_taken=n
    )
