"""The two subflows of the splitting.

The linear subproblem is solved exactly in Fourier space by per-mode
exponential factors; the nonlinear subproblem is integrated with the
classical fourth-order Runge-Kutta method on the conservative spectral
right-hand side.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, GridMismatch, NegativeDuration, NonFiniteState
from .model import LinearSymbol, ModelParams
from .spectral import DEALIAS_RULES, GridSpec, SpectralState, _from_half, _real_half

__all__ = [
    "LinearPropagator",
    "NonlinearFlowConfig",
    "build_propagator",
    "apply_linear",
    "rk4_step",
    "nonlinear_flow",
]


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


def nonlinear_flow(
    state: SpectralState,
    dt: float,
    params: ModelParams,
    cfg: NonlinearFlowConfig = NonlinearFlowConfig(),
) -> SpectralState:
    """Advance the nonlinear subproblem by ``dt`` using RK4 substeps."""
    if not math.isfinite(dt):
        raise ConfigError("dt", f"must be finite, got {dt}")
    # imported here because splitting imports this module
    from .splitting import _Stepper

    half = _Stepper(state.grid, params, dt, cfg).nonlinear(_real_half(state))
    return _from_half(half, state.grid)
