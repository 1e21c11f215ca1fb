"""The splitting solver: both subflows, their compositions and the time loop.

The linear subflow is exact in Fourier space (per-mode factors
``exp(lambda_k*t)``); the nonlinear subflow is classical RK4 on the
conservative spectral right-hand side.  A Strang step is half a linear
step, a full nonlinear step and another half linear step; a Lie-Trotter
step is a full linear step followed by a full nonlinear step.  Both, and the
nonlinear flow alone, run in one stepping kernel built once per solve on the
real half-spectrum ``k = 0..N/2`` (``rfft`` layout), where each right-hand
side costs one ``irfft`` and one batched ``rfft`` of ``[y^3, y^2]``, or on
grids of at most ``_DENSE_MAX`` points the same two transforms as dense real
matrices, which cost less than numpy's per-call FFT overhead there.  The
public functions convert FFT-order ``SpectralState`` vectors at the boundary,
so every state they return is exactly Hermitian, and they reject states that
are not real-representable.  Every solve runs through one time loop,
``_march``: ``evolve`` is a single solve of a whole number of steps with
optional snapshots and an observer hook, and the temporal study solves its
step counts together as lanes of one kernel, building a fresh kernel for the
lanes still running each time some finish.  The loop guards against blow-up
and raises BlowUp.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUp, ConfigError, GridMismatch, NegativeDuration, NonFiniteState
from .errors import _check_choice, _check_int, _check_real
from .model import LinearSymbol, ModelParams, _check_symbol, linear_symbol
from .spectral import (
    DEALIAS_RULES,
    GridSpec,
    SpectralState,
    _derivative_symbol,
    _dft_matrices,
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

# Largest grid whose right-hand side applies dense real-DFT matrices instead of
# the irfft/rfft pair: per right-hand side the matrices win at N = 128 and lose
# at N = 256, where the FFT's arithmetic outgrows its per-call overhead.
_DENSE_MAX = 128


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
        _check_int(ConfigError, "substeps", self.substeps, 1)
        _check_choice(ConfigError, "dealias", self.dealias, DEALIAS_RULES)


def build_propagator(symbol: LinearSymbol, t: float) -> LinearPropagator:
    """Exact linear propagator over duration ``t``.

    Negative durations are rejected: the backward flow amplifies high modes
    without bound when ``nu > 0``.
    """
    _check_real(NegativeDuration, "t", t, 0)
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
    if not np.isfinite(out).all():
        raise NonFiniteState("RK4 stage produced non-finite values")
    return out


def rk4_step(state: SpectralState, dt: float, rhs) -> SpectralState:
    """One classical four-stage Runge-Kutta step of ``state' = rhs(state)``."""
    _check_real(ConfigError, "dt", dt)
    grid = state.grid

    def f(coeffs):
        out = rhs(SpectralState(coeffs, grid)).coeffs
        if not np.isfinite(out).all():
            raise NonFiniteState("right-hand side produced non-finite values")
        return out

    return SpectralState(_rk4_coeffs(state.coeffs, dt, f), grid)


def _step_count(dt: float, t_final: float) -> int:
    """Number of steps of size ``dt`` that make up ``t_final``.

    Raises ConfigError unless both are real numbers, positive and finite,
    and their ratio a whole number (to 1e-9 relative) of at least 1.
    """
    _check_real(ConfigError, "t_final", t_final, 0, strict=True)
    _check_real(ConfigError, "dt", dt, 0, strict=True)
    ratio = t_final / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ConfigError("dt", f"t_final/dt = {ratio!r} is not a whole number of steps")
    return n


@dataclass(frozen=True)
class SolveConfig:
    """Time-stepping parameters; ``n_steps = t_final/dt`` must be a whole number."""

    dt: float
    t_final: float
    scheme: str = "strang"
    nonlinear_cfg: NonlinearFlowConfig = NonlinearFlowConfig()
    snapshot_stride: int = 0
    n_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n_steps", _step_count(self.dt, self.t_final))
        _check_choice(ConfigError, "scheme", self.scheme, SCHEMES)
        _check_int(ConfigError, "snapshot_stride", self.snapshot_stride, 0)


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of one solve; the final state is always present."""

    times: tuple
    states: tuple
    final: SpectralState
    steps_taken: int


@functools.lru_cache(maxsize=8)
def _dense_forward(grid: GridSpec, eps_conv: float, eps_react: float, dealias: str) -> np.ndarray:
    """Read-only real matrix of the dense right-hand side's forward half.

    Its rows act on ``[y^3, y^2]`` flattened; read as complex, its columns are
    the modes ``k = 0..N/2``.  The product is ``-(eps_conv/3)*ik*T(y^3) -
    eps_react*T(y^2)`` with ``T`` the ``rfft`` matrix of ``_dft_matrices``
    and the products dealiased by the rule ``dealias``.  Cached per grid,
    coefficients and rule: at N = 128 a fresh matrix (266 kB) costs about as
    much to allocate as a whole ``strang_step`` call.
    """
    m = grid.n_modes // 2 + 1
    keep = dealias_mask(grid, dealias)[:m]
    conv = (-eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
    fwd = _dft_matrices(grid.n_modes)[1]
    w = np.concatenate((fwd * (conv * keep), fwd * (-eps_react * keep))).view(np.float64)
    w.setflags(write=False)
    return w


class _Stepper:
    """One splitting step on the real half-spectrum, built once per set of lanes.

    Holds the linear factors of the scheme (``exp(lambda*dt/2)`` for Strang,
    ``exp(lambda*dt)`` for Lie-Trotter) and the nonlinear data on
    ``k = 0..N/2``.  Built without a symbol it only runs the nonlinear flow.
    On grids of at most ``_DENSE_MAX`` points the right-hand side applies the
    inverse matrix of ``_dft_matrices`` and the forward one of
    ``_dense_forward`` instead of the FFT pair.

    ``dts`` holds one step size per lane.  With one lane a state is one
    half-spectrum; with more, the states of as many independent solves on the
    same grid are stacked as ``(lanes, N/2+1)``: every transform acts on the
    whole stack at once, and each lane's rows equal its own solve's bit for
    bit.
    """

    def __init__(
        self,
        grid: GridSpec,
        params: ModelParams,
        dts,
        cfg: NonlinearFlowConfig,
        symbol: LinearSymbol | None = None,
        scheme: str = "strang",
    ):
        m = grid.n_modes // 2 + 1
        lanes = (len(dts),) if len(dts) > 1 else ()
        self.n_modes = grid.n_modes
        self.strang = scheme == "strang"
        if symbol is not None:
            split = 2.0 if self.strang else 1.0
            factors = [build_propagator(symbol, dt / split).factors[:m] for dt in dts]
            self.linear = np.reshape(factors, lanes + (m,))
        self.react = params.eps_react
        self.substeps = cfg.substeps
        # a column per lane broadcasts each lane's substep over its modes
        self.sub_dt = np.divide(dts, cfg.substeps)[:, None] if lanes else dts[0] / cfg.substeps
        self.powers = np.empty(lanes + (2, grid.n_modes))
        self.cubes, self.squares = self.powers[..., 0, :], self.powers[..., 1, :]
        self.inv = None
        if grid.n_modes <= _DENSE_MAX:
            self.inv = _dft_matrices(grid.n_modes)[0]
            self.fwd = _dense_forward(grid, params.eps_conv, params.eps_react, cfg.dealias)
        else:
            self.conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
            self.drop = None if cfg.dealias == "none" else ~dealias_mask(grid, cfg.dealias)[:m]
            # the transforms write into these instead of allocating their outputs per call
            self.y = np.empty(lanes + (grid.n_modes,))
            self.spectra = np.empty(lanes + (2, m), dtype=complex)
            self.cubed, self.squared = self.spectra[..., 0, :], self.spectra[..., 1, :]

    def rhs(self, c: np.ndarray) -> np.ndarray:
        """Conservative right-hand side ``-(eps/3)*ik*T(y^3) + eps_react*(c - T(y^2))``."""
        dense = self.inv is not None
        # lanes take one matrix product each: a product over the whole stack rounds differently
        lone = c.ndim == 1
        if dense:
            v = c.view(np.float64)
            y = self.inv @ v if lone else (self.inv @ v[:, :, None])[:, :, 0]
        else:
            y = np.fft.irfft(c, self.n_modes, out=self.y)
        powers = self.powers
        np.multiply(y, y, out=self.squares)
        np.multiply(self.squares, y, out=self.cubes)
        if dense:
            if lone:
                out = (powers.reshape(-1) @ self.fwd).view(np.complex128)
            else:
                out = (powers.reshape(len(c), 1, -1) @ self.fwd)[:, 0].view(np.complex128)
            if self.react != 0.0:
                out += self.react * c
            return out
        np.fft.rfft(powers, out=self.spectra)
        if self.drop is not None:
            self.spectra[..., self.drop] = 0.0
        out = self.conv * self.cubed
        if self.react != 0.0:
            # in place on the transform buffer; equals eps_react*(c - T(y^2)) bit for bit
            squared = self.squared
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
    _check_real(ConfigError, "dt", dt)
    half = _Stepper(state.grid, params, (dt,), cfg).nonlinear(_real_half(state))
    return _from_half(half, state.grid)


def _half_l2(half: np.ndarray, grid: GridSpec) -> float:
    """Discrete L2 norm of the real data whose half-spectrum is ``half``.

    Of a stack of half-spectra it is the norm of all of them together, which
    no lane's own norm exceeds.
    """
    if half.ndim > 1:
        return math.hypot(*(_half_l2(lane, grid) for lane in half))
    sq = 2.0 * np.vdot(half, half).real - abs(half[0]) ** 2 - abs(half[-1]) ** 2
    return math.sqrt(sq * grid.spacing / grid.n_modes)


def _one_step(state, dt, params, symbol, cfg, scheme) -> SpectralState:
    _check_real(ConfigError, "dt", dt, 0, strict=True)
    _check_symbol(symbol, params, state.grid)
    stepper = _Stepper(state.grid, params, (dt,), cfg, symbol, scheme)
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
    past ``BLOWUP_NORM_FACTOR`` times the initial norm, with no numpy warning
    on the way; the observer runs under the caller's numpy error state.
    """
    grid = initial.grid
    n = config.n_steps
    stride = config.snapshot_stride
    times, states = [], []

    def record(step, s):
        t = config.t_final if step == n else step * config.dt
        times.append(t)
        states.append(s)
        if observer is not None:
            observer(step, t, s)

    def snapshot(step, half):
        record(step, _from_half(half, grid))

    # the final state is recorded from the loop's result, not converted twice
    snap_at = set(range(0, n, stride)) if stride > 0 else ()
    record(n, _march(initial, params, (config,), snapshot, snap_at)[config])
    return Trajectory(tuple(times), tuple(states), final=states[-1], steps_taken=n)


def _march(initial: SpectralState, params: ModelParams, configs, record=None, record_at=()):
    """``{config: final state}`` of a solve from ``initial`` for each of ``configs``.

    The one time loop of every splitting solve.  The configs may differ in
    ``dt`` only.  Their solves run as lanes of one stepper, longest first, so
    the lanes still running are always a prefix; when lanes finish, a fresh
    stepper is built for the rest.  ``record(step, half)`` is called at each
    step in ``record_at``, under the caller's numpy error state.  Raises
    BlowUp when a state turns non-finite or the L2 norm of the lanes grows
    past ``BLOWUP_NORM_FACTOR`` times the initial norm; the step and time it
    names are the longest solve's.
    """
    grid = initial.grid
    configs = sorted(configs, key=lambda cfg: cfg.n_steps, reverse=True)
    first = configs[0]
    symbol = linear_symbol(params, grid)
    c = _real_half(initial)
    norm_cap = BLOWUP_NORM_FACTOR * max(_half_l2(c, grid), 1e-300)
    if 0 in record_at:
        record(0, c)
    lanes = len(configs)
    c = np.tile(c, (lanes, 1)) if lanes > 1 else c
    finals = {}
    done = 0
    caller = np.geterr()
    # A blow-up overflows on its way to the guards, which report it as BlowUp
    # alone; entered once per solve, as per step it would cost ~5% of a step.
    with np.errstate(over="ignore", invalid="ignore"):
        while lanes:
            dts = [cfg.dt for cfg in configs[:lanes]]
            stepper = _Stepper(grid, params, dts, first.nonlinear_cfg, symbol, first.scheme)
            for step in range(done + 1, configs[lanes - 1].n_steps + 1):
                try:
                    c = stepper.step(c)
                except NonFiniteState as exc:
                    raise BlowUp(step, step * first.dt, str(exc)) from exc
                # NaN fails the comparison, so one reduction checks both guards
                if not _half_l2(c, grid) <= norm_cap:
                    finite = np.isfinite(c).all()
                    why = "L2 norm exploded" if finite else "state turned non-finite"
                    raise BlowUp(step, step * first.dt, why)
                if step in record_at:
                    with np.errstate(**caller):
                        record(step, c)
            done = configs[lanes - 1].n_steps
            rows = np.atleast_2d(c)
            while lanes and configs[lanes - 1].n_steps == done:
                lanes -= 1
                finals[configs[lanes]] = _from_half(rows[lanes], grid)
            c = rows[:lanes] if lanes > 1 else rows[0]
    return finals
