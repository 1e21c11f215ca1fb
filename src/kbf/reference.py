"""Independent solution sources.

The reference for convergence studies is an exponential time-differencing
RK4 solve (Cox-Matthews) of the full equation, verified by step doubling;
an integrating-factor RK4 solver is a second integrator of the same
problem.  Both step the real half-spectrum with the model's nonlinear
right-hand side, which is written apart from the splitting solver's.
Closed-form oracles cover the degenerate parameter limits (pure linear
flow, logistic reaction) and share no code with the production flows.

Both integrators are kernels stepped as lanes of the one time loop,
``splitting._Lanes``; their arithmetic is this module's own.
"""

from __future__ import annotations

import math
import struct
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    GridMismatch,
    NegativeDuration,
    NonFiniteState,
    ReferenceNotConverged,
    SingularSolution,
    _check_choice,
    _check_real,
)
from .model import LinearSymbol, ModelParams, _check_symbol, _half_spectrum_rhs
from .spectral import (
    DEALIAS_RULES,
    SpectralState,
    _from_half,
    _real_half,
    dealias_mask,
    norm,
)
from .splitting import _Lanes, _step_count

__all__ = [
    "integrating_factor_rk4_solve",
    "logistic_exact",
    "linear_exact_solution",
    "make_reference",
]

# least recently used entries are evicted beyond this many
_MEMORY_CACHE_SIZE = 8
_cache_lock = threading.Lock()
# content bytes (see _content) -> (coefficients, steps, Richardson estimate)
_memory_cache: OrderedDict[bytes, tuple[np.ndarray, int, float]] = OrderedDict()


def integrating_factor_rk4_solve(
    initial: SpectralState,
    params: ModelParams,
    symbol: LinearSymbol,
    dt: float,
    t_final: float,
    dealias: str = "none",
) -> SpectralState:
    """Integrate the full equation with the integrating-factor RK4 method (``_if_rk4_kernel``).

    RK4 sees only the nonlinearity of ``w = exp(-lambda*(t-t_n)) * yhat``, recentered each
    step, so the solve is exact for any ``dt`` when the nonlinear coefficients vanish.
    """
    n = _step_count(dt, t_final)
    return _Lanes(_if_rk4_kernel(initial, params, symbol, dealias)).run(n, dt)


def logistic_exact(c0: float, eps_react: float, t: float) -> float:
    """Closed-form logistic solution ``c0*e^(eps*t) / (1 - c0 + c0*e^(eps*t))``."""
    growth = math.exp(eps_react * t)
    denom = 1.0 - c0 + c0 * growth
    if abs(denom) < 1e-14:
        raise SingularSolution(
            f"logistic solution singular for c0={c0}, eps={eps_react}, t={t}"
        )
    return c0 * growth / denom


def linear_exact_solution(
    initial: SpectralState, symbol: LinearSymbol, t: float
) -> SpectralState:
    """Exact linear evolution by direct per-mode exponentiation.

    Same contract as the propagator route but kept as a separate code path
    for oracle duty.
    """
    _check_real(NegativeDuration, "t", t, 0)
    if symbol.grid != initial.grid:
        raise GridMismatch("symbol and state were built on different grids")
    return SpectralState(np.exp(symbol.values * t) * initial.coeffs, initial.grid)


# Taylor coefficients of Q/h, f1/h, f2/h and f3/h in z = h*lambda, from z^19 down to z^0.
_SERIES = [
    [1 / (2 ** (k + 1) * math.factorial(k + 1)) for k in range(19, -1, -1)],
    [(k + 1) ** 2 / math.factorial(k + 3) for k in range(19, -1, -1)],
    [(k + 1) / math.factorial(k + 3) for k in range(19, -1, -1)],
    [(1 - k) / math.factorial(k + 3) for k in range(19, -1, -1)],
]


def _etd_weights(lam: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """ETDRK4 weights ``E2, E, Q, f1, f2, f3`` for steps of ``h`` on eigenvalues ``lam``.

    ``Q, f1, f2, f3`` are closed forms where ``|h*lam| >= 1.5`` and 20-term Taylor series
    below, by Horner's rule; each mode's weights depend on its own ``h*lam`` alone (README).
    """
    z = h * lam
    e_half, e = np.exp(z / 2.0), np.exp(z)
    weights = np.empty((4, z.size), dtype=complex)
    big = abs(z) >= 1.5
    w, ew = z[big], e[big]
    w3 = w * w * w
    # each array product puts its temporary first: past 256 KiB numpy may do a * tmp as tmp *= a
    weights[:, big] = (
        (e_half[big] - 1.0) / w,
        (-4.0 - w + (4.0 - 3.0 * w + w * w) * ew) / w3,
        (2.0 + w + (w - 2.0) * ew) / w3,
        (-4.0 - 3.0 * w - w * w + (4.0 - w) * ew) / w3,
    )
    for i, zi in zip(np.flatnonzero(~big), z[~big].tolist()):
        for row, series in zip(weights, _SERIES):
            row[i] = reduce(lambda total, c: total * zi + c, series, 0j)  # Horner's rule
    q, f1, f2, f3 = weights * h
    return e_half, e, q, f1, f2, f3


def _non_finite_rows(c: np.ndarray) -> dict:
    """``{lane: why}`` for each lane of ``c`` with a non-finite entry."""
    return {i: "non-finite" for i, row in enumerate(np.atleast_2d(c)) if not np.isfinite(row).all()}


class _Kernel(NamedTuple):
    """A fixed-step integrator of one problem, as a kernel of ``_Lanes`` (README).

    Its defaults fail a lane only when it turns non-finite, with NonFiniteState:
    ``quick``, the largest float, sends each non-finite reduction to ``failures``.
    """

    name: str
    start: np.ndarray
    state: Callable
    weights: Callable
    stepper: Callable
    quick: float = sys.float_info.max
    failures: Callable = _non_finite_rows
    error: Callable = lambda step, time, why: NonFiniteState(
        f"reference solve turned non-finite at step {step}"
    )


def _problem(initial: SpectralState, params: ModelParams, symbol: LinearSymbol, dealias: str):
    """A kernel's ``start`` and ``state``, the symbol on ``k = 0..N/2`` and ``rhs(lanes)``.

    ``rhs(lanes)`` is the model's right-hand side on ``lanes + (N/2+1,)``.
    """
    grid = initial.grid
    _check_symbol(symbol, params, grid)
    mask = None if dealias == "none" else dealias_mask(grid, dealias)
    lam = symbol.values[: grid.n_modes // 2 + 1]
    return (_real_half(initial), lambda half: _from_half(half, grid), lam,
            lambda lanes: _half_spectrum_rhs(grid, params, mask, lanes))


def _etdrk4_kernel(
    initial: SpectralState, params: ModelParams, symbol: LinearSymbol, dealias: str = "none"
) -> _Kernel:
    """The ETDRK4 scheme of Cox and Matthews, on the weights of ``_etd_weights``."""
    start, state, lam, rhs = _problem(initial, params, symbol, dealias)

    def stepper(rows):
        e_half, e_full, q, f1, f2, f3 = rows
        f = rhs(e_half.shape[:-1])
        twice_f2, two = 2.0 * f2, np.array(2.0 + 0j)  # a 0-d operand: see _half_spectrum_rhs
        # the stages, their inputs and a scratch row, written in place with each
        # product's operands in the order of the scheme: complex products do not commute
        nv, na, nb, nc, ev, a, b, c, t = np.empty((9, *q.shape), dtype=complex)

        def step(v):
            f(v, nv)
            np.multiply(e_half, v, out=ev)
            np.add(ev, np.multiply(q, nv, out=a), out=a)
            f(a, na)
            np.add(ev, np.multiply(q, na, out=b), out=b)
            f(b, nb)
            np.subtract(np.multiply(two, nb, out=t), nv, out=t)
            np.add(np.multiply(e_half, a, out=c), np.multiply(q, t, out=t), out=c)
            f(c, nc)
            # e_full*v + f1*nv + 2*f2*(na + nb) + f3*nc, a new array: the lanes keep it
            new = e_full * v
            new += np.multiply(f1, nv, out=t)
            new += np.multiply(twice_f2, np.add(na, nb, out=t), out=t)
            new += np.multiply(f3, nc, out=t)
            return new

        return step

    return _Kernel("ETDRK4", start, state, lambda dt: _etd_weights(lam, dt), stepper)


def _if_rk4_kernel(
    initial: SpectralState, params: ModelParams, symbol: LinearSymbol, dealias: str = "none"
) -> _Kernel:
    """The integrating-factor RK4 method."""
    start, state, lam, rhs = _problem(initial, params, symbol, dealias)

    def weights(dt):
        e_half = np.exp(lam * (dt / 2.0))
        return (e_half, e_half * e_half, *np.array([[0.5 * dt], [dt], [dt / 6.0]]))

    def stepper(rows):
        e_half, e_full, half_dt, dt, dt_6 = rows
        f = rhs(e_half.shape[:-1])

        def step(c):
            a = f(c)
            b = f(e_half * (c + half_dt * a))
            s3 = f(e_half * c + half_dt * b)
            s4 = f(e_full * c + dt * (e_half * s3))
            return e_full * c + dt_6 * (e_full * a + 2.0 * e_half * (b + s3) + s4)

        return step

    return _Kernel("IF-RK4", start, state, weights, stepper)


# Relative tolerance on the Richardson estimate behind each quality name.
_QUALITY_TOL = {"standard": 1e-10, "high": 1e-12}
# Step doubling starts here; the cap bounds the cost of a solve that never
# verifies itself.
_START_STEPS = 64
_MAX_STEPS = 2**16
# The method named in each DEBUG record.
_METHOD = "etdrk4 step-doubling v3"


def _doubling_solve(lanes: _Lanes, t_final: float, tol: float) -> tuple[SpectralState, int, float]:
    """``(u_2n, 2n, estimate)`` of the fourth-order ``lanes`` at 64, 128, ... steps, once verified.

    The estimate ``||u_2n - u_n|| / 15`` must reach ``tol * ||u_2n||``; README gives the lane
    schedule and when ReferenceNotConverged is raised.
    """
    name = lanes.kernel.name
    coarse = None
    last_diff = math.inf
    ahead = False
    n = _START_STEPS
    while n <= _MAX_STEPS:
        # n; 2n too when n has no partner yet, or when n is predicted not to verify
        for lane in (n, 2 * n) if coarse is None or ahead else (n,):
            if lane <= _MAX_STEPS:
                lanes.start(lane, t_final / lane)
        try:
            fine = lanes.result(n)
        except NonFiniteState:
            if n == _MAX_STEPS:
                raise
            coarse, last_diff, ahead, n = None, math.inf, False, 2 * n
            continue
        if coarse is not None:
            diff = norm(SpectralState(fine.coeffs - coarse.coeffs, fine.grid))
            estimate = diff / 15.0
            bound = tol * norm(fine)
            if estimate <= bound:
                return fine, n, estimate
            if diff > last_diff / 2.0:
                raise ReferenceNotConverged(
                    f"{name} reached rounding error at {n} steps: a doubling shrank "
                    f"the difference from {last_diff:.3e} only to {diff:.3e}, "
                    f"short of the relative tolerance {tol:g}"
                )
            last_diff = diff
            ahead = estimate / 16.0 > bound
        coarse, n = fine, 2 * n
    raise ReferenceNotConverged(
        f"{name} did not meet the relative tolerance {tol:g} within {_MAX_STEPS} steps"
    )


def _content(
    initial: SpectralState,
    params: ModelParams,
    t_final: float,
    quality: str,
    dealias: str,
) -> bytes:
    """The exact bytes that identify a reference: equal inputs, equal bytes.

    Fixed-width fields follow the coefficients, and the four pairs of
    quality and dealias names differ in length by less than one 16-byte
    coefficient, so the length fixes N and the names: distinct inputs never
    share bytes.
    """
    g = initial.grid
    return b"".join((
        initial.coeffs.tobytes(),
        struct.pack("<qdd", g.n_modes, g.domain_start, g.domain_length),
        struct.pack(
            "<5d", params.nu, params.mu, params.gamma, params.eps_conv, params.eps_react
        ),
        struct.pack("<d", t_final),
        quality.encode(),
        dealias.encode(),
    ))


def _cache_get(key: bytes):
    with _cache_lock:
        hit = _memory_cache.get(key)
        if hit is not None:
            _memory_cache.move_to_end(key)
        return hit


def _cached(
    initial: SpectralState, params: ModelParams, t_final: float, quality: str, dealias: str
) -> bool:
    """Whether ``make_reference`` would serve these inputs from its memory cache."""
    with _cache_lock:
        return _content(initial, params, t_final, quality, dealias) in _memory_cache


def _cache_put(key: bytes, entry: tuple[np.ndarray, int, float]) -> None:
    with _cache_lock:
        _memory_cache[key] = entry
        _memory_cache.move_to_end(key)
        while len(_memory_cache) > _MEMORY_CACHE_SIZE:
            _memory_cache.popitem(last=False)


def make_reference(
    initial: SpectralState,
    params: ModelParams,
    symbol: LinearSymbol,
    t_final: float,
    quality: str = "standard",
    dealias: str = "none",
) -> SpectralState:
    """Cached, self-verifying ETDRK4 reference solution at ``t_final`` (README, "The reference solution").

    ``quality`` names the relative tolerance of ``_doubling_solve``: ``standard`` 1e-10,
    ``high`` 1e-12.  The last 8 results are cached in memory, and each call logs one DEBUG record.
    """
    _check_choice(ConfigError, "quality", quality, tuple(_QUALITY_TOL))
    _check_real(ConfigError, "t_final", t_final, 0, strict=True)
    _check_choice(ConfigError, "dealias", dealias, DEALIAS_RULES)
    _check_symbol(symbol, params, initial.grid)
    content = _content(initial, params, t_final, quality, dealias)
    hit = _cache_get(content)
    if hit is not None:
        coeffs, steps, estimate = hit
        _log_served("memory", steps, estimate)
        return SpectralState(coeffs, initial.grid)

    lanes = _Lanes(_etdrk4_kernel(initial, params, symbol, dealias))
    state, steps, estimate = _doubling_solve(lanes, t_final, _QUALITY_TOL[quality])
    _cache_put(content, (state.coeffs, steps, estimate))
    _log_served("solve", steps, estimate, lanes.started)
    return state


def _log_served(source: str, steps, estimate, solved=None) -> None:
    # Until something imports logging no handler or level exists, so the record
    # could only be dropped; importing logging for it would add about a tenth
    # to `import kbf` and ~6 ms to a temporal study.
    if "logging" not in sys.modules:
        return
    import logging

    record = {
        "method": _METHOD,
        "steps": steps,
        "estimate": estimate,
        "source": source,
        "solved": solved,
    }
    logging.getLogger("kbf").debug(
        "reference %(method)s from %(source)s: steps %(steps)s, estimate %(estimate)s",
        record,
        extra={"reference": record},
    )
