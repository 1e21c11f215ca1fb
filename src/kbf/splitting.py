"""The splitting solver: both subflows, their compositions and the time loop.

The linear subflow is exact in Fourier space (per-mode factors
``exp(lambda_k*t)``); the nonlinear subflow is classical RK4 on the
conservative spectral right-hand side.  A Strang step is half a linear
step, a full nonlinear step and another half linear step; a Lie-Trotter
step is a full linear step followed by a full nonlinear step.  Both, and the
nonlinear flow alone, run in one stepping kernel built once per solve on the
real half-spectrum ``k = 0..N/2`` (``rfft`` layout), where each right-hand
side costs one ``irfft`` and one batched ``rfft`` of ``[y^3, y^2]``, called
as pocketfft's own transforms (``_rfft_pair``), or on grids of at most
``_DENSE_MAX`` points the same two transforms as dense real matrices.  There
a whole RK4 substep is a few matrix products on buffers the kernel owns, its
stages combined by precomputed coefficients (``_rk4_rows``).  The public
functions convert FFT-order ``SpectralState`` vectors at the boundary, so
every state they return is exactly Hermitian, and they reject states that
are not real-representable.  Every solve runs through one time loop,
``_march``: a single solve of a whole number of steps hands its recorded
states, one at a time, to ``_record_solve``'s callback (``evolve`` collects
them, ``kbf solve`` writes each to its file), the temporal study solves
its step counts together as lanes of one kernel, building a fresh kernel for
the lanes still running each time some finish, and the spatial study solves
its coarse grids together as one block of the dense kernel, its matrices
block-diagonal.  The loop guards against blow-up and raises BlowUp.
"""

from __future__ import annotations

import functools
import math
import sys
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
    _rfft_pair,
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
# what a blow-up or a one-step wrapper reports of a non-finite result
_NON_FINITE = "RK4 stage produced non-finite values"

# Largest grid whose right-hand side applies dense real-DFT matrices instead of
# the FFT pair.  A Strang step costs 34 us dense against 44 us by FFT at N = 64,
# 53 against 50 us at N = 128.  At 64 the spatial study would run ~6% faster, but
# its errors' round-off floor would rise from 2.6e-16 to 4.0e-16.
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
    return coeffs + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)


def _finite(a: np.ndarray) -> np.ndarray:
    """``a``, after checking that every entry is finite; raises NonFiniteState."""
    if not np.isfinite(a).all():
        raise NonFiniteState(_NON_FINITE)
    return a


def rk4_step(state: SpectralState, dt: float, rhs) -> SpectralState:
    """One classical four-stage Runge-Kutta step of ``state' = rhs(state)``."""
    _check_real(ConfigError, "dt", dt)
    grid = state.grid

    def f(coeffs):
        out = rhs(SpectralState(coeffs, grid)).coeffs
        if not np.isfinite(out).all():
            raise NonFiniteState("right-hand side produced non-finite values")
        return out

    return SpectralState(_finite(_rk4_coeffs(state.coeffs, dt, f)), grid)


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


def _rk4_rows(h: float, react: float) -> np.ndarray:
    """Coefficients of one dense RK4 substep of size ``h`` over ``S = [c, G0, G1, G2, G3]``.

    ``G_i`` is the right-hand side at the stage input ``u_i`` without its
    term ``react*u_i``, so the stage's slope is ``K_i = G_i + react*u_i``.
    Row ``i < 3`` holds ``u_{i+1} - c`` and row 3 the substep's result minus
    ``c``, each over the rows of ``S`` and zero past ``G_i``.  ``c``'s own 1
    stays out: rounded into a coefficient, it would repeat every substep.
    """
    rows = np.zeros((4, 5))
    u = np.zeros(5)  # u_i - c; u_0 = c
    for i, weight in enumerate((h / 6, h / 3, h / 3, h / 6)):
        slope = react * u
        slope[0] += react
        slope[i + 1] += 1.0
        rows[3] += weight * slope
        if i < 3:
            u = rows[i] = (h if i == 2 else h / 2) * slope
    return rows


def _block_diag(blocks) -> np.ndarray:
    """Dense block-diagonal matrix of the 2-d ``blocks``, in order."""
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


class _Stepper:
    """One splitting step on the real half-spectrum, built once per set of lanes.

    Holds the linear factors of the scheme (``exp(lambda*dt/2)`` for Strang,
    ``exp(lambda*dt)`` for Lie-Trotter) and the nonlinear data on
    ``k = 0..N/2``.  Built without symbols it only runs the nonlinear flow.

    Above ``_DENSE_MAX`` points each RK4 substep is ``_rk4_coeffs`` on
    ``rhs``, the FFT pair.  On smaller grids a substep works on the
    half-spectrum's ``float64`` view in preallocated buffers: the stage rows
    ``S = [c, G0, G1, G2, G3]`` come from the inverse matrix of
    ``_dft_matrices`` and the forward one of ``_dense_forward``, and each
    stage input, and the result, is ``c`` plus one product of a row of
    ``_rk4_rows`` with the rows of ``S`` already written.

    ``dts`` holds one step size per lane.  With one lane a state is one
    half-spectrum; with more, the states of as many independent solves on the
    same grid are stacked as ``(lanes, N/2+1)``: every transform acts on the
    whole stack at once, and each lane's rows equal its own solve's bit for bit.

    ``grids`` holds one grid, or, on the dense path and with one lane, the
    grids of a block: its state is their half-spectra concatenated, its
    matrices are theirs set block-diagonally, and its linear factors theirs
    concatenated, so each product advances every grid at once.  A product
    then sums over the whole block width, so each grid agrees with its own
    solve to rounding, not bit for bit.
    """

    def __init__(self, grids, params: ModelParams, dts, cfg: NonlinearFlowConfig,
                 symbols=None, scheme: str = "strang"):
        n = sum(grid.n_modes for grid in grids)
        m = sum(grid.n_modes // 2 + 1 for grid in grids)
        lanes = (len(dts),) if len(dts) > 1 else ()
        self.strang = scheme == "strang"
        if symbols is not None:
            split = 2.0 if self.strang else 1.0
            factors = [build_propagator(sym, dt / split).factors for sym in symbols for dt in dts]
            halves = [f[: f.size // 2 + 1] for f in factors]
            self.linear = np.reshape(np.concatenate(halves), lanes + (m,))
        self.react = params.eps_react
        self.substeps = cfg.substeps
        # a column per lane broadcasts each lane's substep over its modes
        self.sub_dt = np.divide(dts, cfg.substeps)[:, None] if lanes else dts[0] / cfg.substeps
        self.powers = np.empty(lanes + (2, n))
        self.cubes, self.squares = self.powers[..., 0, :], self.powers[..., 1, :]
        # the transforms write into these instead of allocating their outputs per call
        self.y = np.empty(lanes + (n,))
        self.inv = None
        if max(grid.n_modes for grid in grids) <= _DENSE_MAX:
            fwds = [
                _dense_forward(g, params.eps_conv, params.eps_react, cfg.dealias) for g in grids
            ]
            if len(grids) == 1:
                self.inv, self.fwd = _dft_matrices(n)[0], fwds[0]
            else:
                self.inv = _block_diag([_dft_matrices(g.n_modes)[0] for g in grids])
                # the forward matrix's rows act on [y^3, y^2]: a block-diagonal part for each
                cubes = _block_diag([f[: g.n_modes] for f, g in zip(fwds, grids)])
                squares = _block_diag([f[g.n_modes :] for f, g in zip(fwds, grids)])
                self.fwd = np.concatenate((cubes, squares))
            # Each product takes one lane at a time, as a product over the whole stack rounds
            # differently; so its vectors are (1, len) rows or (len, 1) columns, lanes or not.
            self.rows = np.empty(lanes + (5, 2 * m))
            u = np.empty(lanes + (1, 2 * m))
            coef = np.reshape([_rk4_rows(dt / cfg.substeps, self.react) for dt in dts], lanes + (4, 5))
            self.c_row, self.y_col = self.rows[..., :1, :], self.y[..., None]
            self.powers_row = self.powers.reshape(lanes + (1, 2 * n))
            # per stage: its input as a column, its row G_i, its coefficients, the rows filled by
            # then (0 times an unfilled NaN is NaN), and its output buffer (None: a new array)
            ins = [self.rows[..., 0, :, None]] + 3 * [u.swapaxes(-1, -2)]
            self.stages = [
                (ins[i], self.rows[..., i + 1 : i + 2, :], coef[..., i : i + 1, : i + 2],
                 self.rows[..., : i + 2, :], u if i < 3 else None)
                for i in range(4)
            ]
        else:
            (grid,) = grids
            self.conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
            self.drop = None if cfg.dealias == "none" else ~dealias_mask(grid, cfg.dealias)[:m]
            self.spectra = np.empty(lanes + (2, m), dtype=complex)
            self.cubed, self.squared = self.spectra[..., 0, :], self.spectra[..., 1, :]
            self.irfft, self.rfft = _rfft_pair(n)

    def rhs(self, c: np.ndarray) -> np.ndarray:
        """Conservative right-hand side ``-(eps/3)*ik*T(y^3) + eps_react*(c - T(y^2))`` by FFT."""
        y = self.irfft(c, self.y)
        np.multiply(y, y, out=self.squares)
        np.multiply(self.squares, y, out=self.cubes)
        self.rfft(self.powers, self.spectra)
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

    def _dense_substep(self, c: np.ndarray) -> np.ndarray:
        """One RK4 substep of the half-spectra ``c`` on their ``float64`` views, as a new array."""
        self.rows[..., 0, :] = c.view(np.float64)
        y, squares, cubes = self.y, self.squares, self.cubes
        for stage_in, g, coef, filled, out in self.stages:
            np.matmul(self.inv, stage_in, out=self.y_col)
            np.multiply(y, y, out=squares)
            np.multiply(squares, y, out=cubes)
            np.matmul(self.powers_row, self.fwd, out=g)
            out = np.matmul(coef, filled, out=out)
            out += self.c_row
        return out.view(np.complex128).reshape(c.shape)

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        for _ in range(self.substeps):
            c = _rk4_coeffs(c, self.sub_dt, self.rhs) if self.inv is None else self._dense_substep(c)
        return c

    def step(self, c: np.ndarray) -> np.ndarray:
        c = self.nonlinear(self.linear * c)
        return self.linear * c if self.strang else c


def nonlinear_flow(state: SpectralState, dt: float, params: ModelParams,
                   cfg: NonlinearFlowConfig = NonlinearFlowConfig()) -> SpectralState:
    """Advance the nonlinear subproblem by ``dt`` using RK4 substeps."""
    _check_real(ConfigError, "dt", dt)
    half = _Stepper((state.grid,), params, (dt,), cfg).nonlinear(_real_half(state))
    return _from_half(_finite(half), state.grid)


def _half_l2(half: np.ndarray, grid: GridSpec) -> float:
    """Discrete L2 norm of the real data whose half-spectrum is ``half``.

    Of a stack of half-spectra (``vdot`` flattens it) it is the norm of all of them
    together, which no lane's own norm exceeds.  Modes ``0 < k < N/2`` count twice.
    """
    inner = half[..., 1:-1]
    sq = np.vdot(half, half).real + np.vdot(inner, inner).real
    return math.sqrt(sq * grid.spacing / grid.n_modes)


def _one_step(state, dt, params, symbol, cfg, scheme) -> SpectralState:
    _check_real(ConfigError, "dt", dt, 0, strict=True)
    _check_symbol(symbol, params, state.grid)
    stepper = _Stepper((state.grid,), params, (dt,), cfg, (symbol,), scheme)
    return _from_half(_finite(stepper.step(_real_half(state))), state.grid)


def strang_step(state: SpectralState, dt: float, params: ModelParams, symbol: LinearSymbol,
                cfg: NonlinearFlowConfig = NonlinearFlowConfig()) -> SpectralState:
    """One Strang step: half linear, full nonlinear, half linear."""
    return _one_step(state, dt, params, symbol, cfg, "strang")


def lie_trotter_step(state: SpectralState, dt: float, params: ModelParams, symbol: LinearSymbol,
                     cfg: NonlinearFlowConfig = NonlinearFlowConfig()) -> SpectralState:
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
    step.  Raises BlowUp at the first step whose state is non-finite or whose
    L2 norm exceeds ``BLOWUP_NORM_FACTOR`` times the initial norm (one
    reduction per step checks both), with no numpy warning on the way; the
    observer runs under the caller's numpy error state.  The returned
    Trajectory holds every recorded state; ``_record_solve`` keeps none.
    """
    times, states = [], []

    def collect(step, time, state):
        times.append(time)
        states.append(state)
        if observer is not None:
            observer(step, time, state)

    _record_solve(initial, params, config, collect)
    return Trajectory(tuple(times), tuple(states), final=states[-1], steps_taken=config.n_steps)


def _record_solve(initial: SpectralState, params: ModelParams, config: SolveConfig, record) -> None:
    """Solve ``config`` from ``initial``, calling ``record(step, time, state)`` at each recorded step.

    The one recording rule of a single solve: steps ``0, stride, 2*stride,
    ...`` below ``n_steps`` when ``snapshot_stride`` is positive, and always
    step ``n_steps``, last.  A step's time is ``step*dt``, except that the
    last one's is ``t_final`` exactly, and its state is the loop's result,
    not converted twice.  Nothing is kept, so memory does not grow with the
    number of recorded steps.  ``record`` runs under the caller's numpy error
    state; BlowUp is raised as by ``evolve``.
    """
    grid = initial.grid
    n = config.n_steps
    stride = config.snapshot_stride

    def at(step, state):
        record(step, config.t_final if step == n else step * config.dt, state)

    def snapshot(step, half):
        at(step, _from_half(half, grid))

    # a range, not a set: its size does not grow with the number of snapshots
    snap_at = range(0, n, stride) if stride > 0 else ()
    at(n, _march(initial, params, (config,), snapshot, snap_at)[config])


def _guards(halves, grids):
    """``(slice, grid, cap)`` per grid of the state concatenating ``halves``, and ``quick``.

    A state ``c`` (lanes included) with ``vdot(c, c) <= quick`` has each grid's
    ``_half_l2``, at most ``sqrt(2*vdot(c, c)*h/N)``, under its cap, with 1e-9 kept
    for rounding and the norm's sums finite.  A cap is 1e6 times a norm, so its bound
    is 0 (the floor 1e-300 squares to 0) or holds 12 digits even when subnormal; a
    NaN cap (its norm overflowed) passes nothing.
    """
    guards, end, quick = [], 0, sys.float_info.max
    for half, grid in zip(halves, grids):
        cap = BLOWUP_NORM_FACTOR * max(_half_l2(half, grid), 1e-300)
        guards.append((slice(end, end + half.size), grid, cap))
        end += half.size
        h = grid.spacing
        bound = min(cap * cap * grid.n_modes / h, sys.float_info.max / max(h, 1.0))
        quick = min(quick, -1.0 if math.isnan(cap) else bound)
    return guards, 0.5 * (1 - 1e-9) * quick


def _march(initial, params: ModelParams, configs, record=None, record_at=()):
    """``{config: final state}`` of a solve from ``initial`` for each of ``configs``.

    The one time loop of every splitting solve.  Its lanes are configs that
    differ in ``dt`` only, run as lanes of one stepper, longest first, so
    the lanes still running are always a prefix; when lanes finish, a fresh
    stepper is built for the rest.  Or ``initial`` is a tuple of states on
    grids of at most ``_DENSE_MAX`` points, solved with one config as one
    block of the stepper, and the result is ``{grid: final state}``.
    ``record(step, half)`` is called at each step in ``record_at``, under
    the caller's numpy error state.  Raises BlowUp when a state turns
    non-finite or an L2 norm (of the lanes together, or of each grid) grows
    past ``BLOWUP_NORM_FACTOR`` times its initial value; the step and time
    it names are the longest solve's.  A step pays one reduction against
    ``quick`` (``_guards``); only a step that fails it takes the exact checks.
    """
    block = isinstance(initial, tuple)
    states = initial if block else (initial,)
    grids = tuple(state.grid for state in states)
    configs = sorted(configs, key=lambda cfg: cfg.n_steps, reverse=True)
    first = configs[0]
    symbols = tuple(linear_symbol(params, grid) for grid in grids)
    halves = [_real_half(state) for state in states]
    guards, quick = _guards(halves, grids)
    c = np.concatenate(halves) if len(halves) > 1 else halves[0]
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
            stepper = _Stepper(grids, params, dts, first.nonlinear_cfg, symbols, first.scheme)
            for step in range(done + 1, configs[lanes - 1].n_steps + 1):
                c = stepper.step(c)
                # one reduction (NaN fails it); only a failing step takes the exact checks, and a
                # non-finite state came from an RK4 stage, as no linear factor exceeds 1 in modulus
                if not np.vdot(c, c).real <= quick:
                    if not np.isfinite(c).all():
                        raise BlowUp(step, step * first.dt, _NON_FINITE)
                    for part, grid, cap in guards:
                        if not _half_l2(c[..., part], grid) <= cap:
                            raise BlowUp(step, step * first.dt, "L2 norm exploded")
                if step in record_at:
                    with np.errstate(**caller):
                        record(step, c)
            done = configs[lanes - 1].n_steps
            rows = np.atleast_2d(c)
            while lanes and configs[lanes - 1].n_steps == done:
                lanes -= 1
                finals[configs[lanes]] = rows[lanes]
            c = rows[:lanes] if lanes > 1 else rows[0]
    if block:
        return {grid: _from_half(finals[first][part], grid) for part, grid, _ in guards}
    return {cfg: _from_half(half, grids[0]) for cfg, half in finals.items()}
