"""The splitting solver: both subflows, their compositions and the time loop.

The linear subflow is exact in Fourier space (per-mode factors
``exp(lambda_k*t)``); the nonlinear subflow is classical RK4 on the
conservative spectral right-hand side.  A Strang step is half a linear
step, a full nonlinear step and another half linear step; a Lie-Trotter
step is a full linear step followed by a full nonlinear step.  Both, and
the nonlinear flow alone, run in one stepping kernel, ``_Splitting``, on
the real half-spectrum ``k = 0..N/2``: by pocketfft's transforms, or on
grids of at most ``_DENSE_MAX`` points by dense real-DFT matrices.  The
public functions convert FFT-order ``SpectralState`` vectors at the
boundary, so every state they return is exactly Hermitian, and they reject
states that are not real-representable.

Every solve, the reference's included, runs through one time loop,
``_Lanes``; README describes its lanes.
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
# the FFT pair.  A Strang step costs 44 us dense against 82 us by FFT at N = 64,
# 67 against 85 us at N = 128 and 240 against 112 us at N = 256.  At 64 the spatial
# study's errors' round-off floor would also rise from 2.6e-16 to 4.0e-16.
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


class _Splitting:
    """The stepping kernel of one splitting problem, a kernel of ``_Lanes``.

    ``initial`` is a state, or a tuple of states on dense grids solved as one
    block: their half-spectra (``start``), linear factors and matrices
    concatenated (block-diagonally).  A lane fails, with ``BlowUp``, once it
    is non-finite or a grid's L2 norm passes its cap (``_guards``).
    ``weights(dt)`` are a lane's rows: the scheme's linear factors on ``k =
    0..N/2`` (None with ``symbols=()``), the substep size and, on the dense
    path, its ``_rk4_rows``.  ``stepper(rows)`` sets the kernel up, in place,
    for the lanes of ``rows`` and returns its step: one lane's state is one
    half-spectrum, stacked ones ``(lanes, N/2+1)``.
    Above ``_DENSE_MAX`` points each RK4 substep is ``_rk4_coeffs`` on the FFT
    pair, whose buffers are lanes inner (``powers`` is ``(2, *lanes, N)``), so
    ``cubes``, ``squares``, ``cubed`` and ``squared`` are contiguous blocks.
    Below, each stage input, and the result, is ``c`` plus one product of a
    row of ``_rk4_rows`` with the stage rows ``S = [c, G0, G1, G2, G3]``
    already written, by ``np.dot`` for one lane and ``np.matmul`` for more,
    which rounds each lane as ``np.dot`` does.
    """

    error = BlowUp

    def __init__(self, initial, params: ModelParams, scheme: str, cfg: NonlinearFlowConfig,
                 symbols=None):
        self.block = isinstance(initial, tuple)
        states = initial if self.block else (initial,)
        grids = tuple(state.grid for state in states)
        self.symbols = tuple(linear_symbol(params, g) for g in grids) if symbols is None else symbols
        halves = [_real_half(state) for state in states]
        self.start = np.concatenate(halves) if self.block else halves[0]
        self._guards, self.quick = _guards(halves, grids)
        self.strang, self.react, self.substeps = scheme == "strang", params.eps_react, cfg.substeps
        self.n, self.m = sum(g.n_modes for g in grids), sum(g.n_modes // 2 + 1 for g in grids)
        self.inv = None
        if max(grid.n_modes for grid in grids) <= _DENSE_MAX:
            fwds = [_dense_forward(g, params.eps_conv, params.eps_react, cfg.dealias) for g in grids]
            if len(grids) == 1:
                self.inv, self.fwd = _dft_matrices(self.n)[0], fwds[0]
            else:
                self.inv = _block_diag([_dft_matrices(g.n_modes)[0] for g in grids])
                # the forward matrix's rows act on [y^3, y^2]: a block-diagonal part for each
                cubes = _block_diag([f[: g.n_modes] for f, g in zip(fwds, grids)])
                squares = _block_diag([f[g.n_modes :] for f, g in zip(fwds, grids)])
                self.fwd = np.concatenate((cubes, squares))
        else:
            (grid,) = grids
            self.conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[: self.m]
            self.drop = None if cfg.dealias == "none" else ~dealias_mask(grid, cfg.dealias)[: self.m]
            self.irfft, self.rfft = _rfft_pair(self.n)

    def failures(self, c: np.ndarray) -> dict:
        """``{lane: why}`` for each lane of ``c`` that is non-finite or past a grid's cap."""
        failed = {}
        for i, row in enumerate(np.atleast_2d(c)):
            if not np.isfinite(row).all():
                failed[i] = _NON_FINITE
            elif not all(_half_l2(row[part], grid) <= cap for part, grid, cap in self._guards):
                failed[i] = "L2 norm exploded"
        return failed

    def state(self, half: np.ndarray):
        states = tuple(_from_half(half[part], grid) for part, grid, _ in self._guards)
        return states if self.block else states[0]

    def weights(self, dt: float) -> tuple:
        factors = [build_propagator(sym, dt / (2.0 if self.strang else 1.0)).factors for sym in self.symbols]
        linear = np.concatenate([f[: f.size // 2 + 1] for f in factors]) if factors else None
        h = dt / self.substeps
        return (linear, h) if self.inv is None else (linear, h, _rk4_rows(h, self.react))

    def stepper(self, rows):
        return self._own(*rows).step

    def _own(self, linear, h, coef=None):
        """This kernel, with the rows ``linear, h, coef`` and buffers for their lanes."""
        n, m, lanes = self.n, self.m, np.shape(h)
        self.linear = linear
        # a column per lane broadcasts each lane's substep over its modes
        self.sub_dt = h[:, None] if lanes else h
        # the transforms write into these instead of allocating their outputs per call
        self.y = np.empty(lanes + (n,))
        self.head = None
        if self.inv is None:
            self.powers, self.spectra = np.empty((2, *lanes, n)), np.empty((2, *lanes, m), dtype=complex)
            (self.cubes, self.squares), (self.cubed, self.squared) = self.powers, self.spectra
            return self
        # lanes outer: powers_row needs each lane's [y^3, y^2] contiguous
        self.powers = np.empty(lanes + (2, n))
        self.cubes, self.squares = self.powers[..., 0, :], self.powers[..., 1, :]
        # Each product takes one lane at a time, as a product over the whole stack rounds
        # differently; so its vectors are (1, len) rows or (len, 1) columns, lanes or not.
        self.product = np.matmul if lanes else np.dot
        self.rows = np.empty(lanes + (5, 2 * m))
        u = np.empty(lanes + (1, 2 * m))
        self.c_row, self.y_col = self.rows[..., :1, :], self.y[..., None]
        self.head = self.rows[..., 0, :].view(np.complex128)  # step writes linear*c here
        self.powers_row = self.powers.reshape(lanes + (1, 2 * n))
        # per stage: its input as a column, its row G_i, its coefficients, the rows filled by
        # then (0 times an unfilled NaN is NaN), and its output buffer (None: a new array)
        ins = [self.rows[..., 0, :, None]] + 3 * [u.swapaxes(-1, -2)]
        self.stages = [
            (ins[i], self.rows[..., i + 1 : i + 2, :], coef[..., i : i + 1, : i + 2],
             self.rows[..., : i + 2, :], u if i < 3 else None)
            for i in range(4)
        ]
        return self

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
        """One RK4 substep of the half-spectra ``c`` (``head``: already in ``S``), as a new array."""
        if c is not self.head:
            self.rows[..., 0, :] = c.view(np.float64)
        y, squares, cubes, product = self.y, self.squares, self.cubes, self.product
        for stage_in, g, coef, filled, out in self.stages:
            product(self.inv, stage_in, out=self.y_col)
            np.multiply(y, y, out=squares)
            np.multiply(squares, y, out=cubes)
            product(self.powers_row, self.fwd, out=g)
            out = product(coef, filled, out=out)
            out += self.c_row
        return out.view(np.complex128).reshape(c.shape)

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        for _ in range(self.substeps):
            c = _rk4_coeffs(c, self.sub_dt, self.rhs) if self.inv is None else self._dense_substep(c)
        return c

    def step(self, c: np.ndarray) -> np.ndarray:
        c = self.nonlinear(np.multiply(self.linear, c, out=self.head))
        return self.linear * c if self.strang else c


def nonlinear_flow(state: SpectralState, dt: float, params: ModelParams,
                   cfg: NonlinearFlowConfig = NonlinearFlowConfig()) -> SpectralState:
    """Advance the nonlinear subproblem by ``dt`` using RK4 substeps."""
    _check_real(ConfigError, "dt", dt)
    kernel = _Splitting(state, params, "strang", cfg, symbols=())
    return _from_half(_finite(kernel._own(*kernel.weights(dt)).nonlinear(kernel.start)), state.grid)


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
    kernel = _Splitting(state, params, scheme, cfg, (symbol,))
    return _from_half(_finite(kernel._own(*kernel.weights(dt)).step(kernel.start)), state.grid)


def strang_step(state: SpectralState, dt: float, params: ModelParams, symbol: LinearSymbol,
                cfg: NonlinearFlowConfig = NonlinearFlowConfig()) -> SpectralState:
    """One Strang step: half linear, full nonlinear, half linear."""
    return _one_step(state, dt, params, symbol, cfg, "strang")


def lie_trotter_step(state: SpectralState, dt: float, params: ModelParams, symbol: LinearSymbol,
                     cfg: NonlinearFlowConfig = NonlinearFlowConfig()) -> SpectralState:
    """One Lie-Trotter step: full linear step, then full nonlinear step."""
    return _one_step(state, dt, params, symbol, cfg, "lie_trotter")


def evolve(initial: SpectralState, params: ModelParams, config: SolveConfig,
           observer=None) -> Trajectory:
    """Run ``t_final/dt`` steps of the chosen scheme from ``initial``.

    Snapshots are recorded every ``snapshot_stride`` steps plus the initial
    and final states; stride 0 records the final state only.  The observer,
    when given, is called as ``observer(step, time, state)`` at each recorded
    step.  Raises BlowUp at the first step whose state is non-finite or whose
    L2 norm exceeds ``BLOWUP_NORM_FACTOR`` times the initial norm, with no
    numpy warning on the way; the observer runs under the caller's numpy
    error state.  The returned Trajectory holds every recorded state.
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

    The one recording rule of a single solve: steps ``0, stride, ...`` below
    ``n_steps`` when ``snapshot_stride`` is positive, and always step
    ``n_steps``, last, at ``t_final`` exactly.  Nothing is kept, so memory
    does not grow with the number of recorded steps.  ``record`` runs under
    the caller's numpy error state; BlowUp is raised as by ``evolve``.
    """
    n, stride = config.n_steps, config.snapshot_stride
    lanes = _Lanes(_Splitting(initial, params, config.scheme, config.nonlinear_cfg))
    # a range, not a set: its size does not grow with the number of snapshots
    lanes.start(n, config.dt, record, range(0, n, stride) if stride > 0 else ())
    record(n, config.t_final, lanes.result(n))


def _guards(halves, grids):
    """``(slice, grid, cap)`` per grid of the state concatenating ``halves``, and ``quick``.

    A state ``c`` (lanes included) with ``vdot(c, c) <= quick`` has each grid's
    ``_half_l2``, at most ``sqrt(2*vdot(c, c)*h/N)``, under its cap, with 1e-9 kept
    for rounding and the norm's sums finite.  A cap is ``BLOWUP_NORM_FACTOR`` times a
    norm, so its bound is 0 (the floor 1e-300 squares to 0) or holds 12 digits even
    when subnormal; a NaN cap (its norm overflowed) passes nothing.
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


class _Lanes:
    """The one time loop: fixed-step solves of one problem, run as lanes of one kernel.

    A lane is a step count ``n`` and its step ``dt``.  Lanes start between
    steps from the kernel's ``start``, each with its ``weights(dt)``, and
    leave when they finish or fail; ``stepper(rows)`` is rebuilt for the
    lanes still running, one lane 1-d, more stacked as ``(lanes, ·)``, each
    with the bits it would get alone.  ``started`` lists the step counts in
    the order they started.  A step pays one reduction against the kernel's
    ``quick``; only a step that fails it takes its exact ``failures(c)``,
    and a lane they name is retired with ``error(step, time, why)``.  A
    lane's result, and each state it records, is ``state(half)``.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.started: list[int] = []
        # finished lanes: step count -> final state, or the error the lane failed with
        self._results: dict = {}
        # running lanes, in stack order: [step count, steps left, dt, rows, record, record_at]
        self._running: list[list] = []
        self._c = self._step = None

    def start(self, n: int, dt: float, record=None, record_at=()) -> None:
        """Start a lane of ``n`` steps of ``dt``, unless it has started already; ``record(step,
        step*dt, state)`` runs at each step in ``record_at``, under the caller's numpy error state."""
        if n in self.started:
            return
        self.started.append(n)
        if 0 in record_at:
            record(0, 0.0, self.kernel.state(self.kernel.start))
        self._running.append([n, n, dt, self.kernel.weights(dt), record, record_at])
        self._c = self.kernel.start if self._c is None else np.vstack((self._c, self.kernel.start))
        self._step = None

    def run(self, n: int, dt: float):
        """The result of a lane of ``n`` steps of ``dt``, started now."""
        self.start(n, dt)
        return self.result(n)

    def result(self, n: int):
        """Lane ``n``'s final state, or its own error if it failed."""
        caller = np.geterr()
        # A blow-up overflows on its way to the checks, which report it as the lane's
        # error alone; entered once per call, as per step it would cost ~5% of a step.
        with np.errstate(over="ignore", invalid="ignore"):
            while n not in self._results:
                self._advance(caller)
        out = self._results[n]
        if isinstance(out, Exception):
            raise out
        return out

    def _advance(self, caller) -> None:
        # steps every lane until the first finishes or one fails
        lanes, kernel = self._running, self.kernel
        if self._step is None:
            rows = [lane[3] for lane in lanes]
            self._step = kernel.stepper(rows[0] if len(rows) == 1 else tuple(map(np.stack, zip(*rows))))
        step, c, quick = self._step, self._c, kernel.quick
        recording = [(i, lane) for i, lane in enumerate(lanes) if lane[5]]
        failed = {}
        for taken in range(1, min(lane[1] for lane in lanes) + 1):
            c = step(c)
            # one reduction (NaN fails it); only a state that fails it takes the exact checks
            if not np.vdot(c, c).real <= quick:
                failed = kernel.failures(c)
            for i, (n, left, dt, _, record, record_at) in recording:
                at = n - left + taken
                if i not in failed and at in record_at:
                    with np.errstate(**caller):
                        record(at, at * dt, kernel.state(c if c.ndim == 1 else c[i]))
            if failed:
                break
        states = np.atleast_2d(c)
        stay = []
        for i, lane in enumerate(lanes):
            lane[1] -= taken
            n, left, dt = lane[:3]
            if i in failed:
                self._results[n] = kernel.error(n - left, (n - left) * dt, failed[i])
            elif left == 0:
                self._results[n] = kernel.state(states[i])
            else:
                stay.append(i)
        if len(stay) < len(lanes):
            self._running, self._step = [lanes[i] for i in stay], None
            c = states[stay] if len(stay) > 1 else states[stay[0]] if stay else None
        self._c = c
