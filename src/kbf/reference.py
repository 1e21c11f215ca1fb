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
    """Integrate the full equation with the integrating-factor RK4 method.

    The linear part is removed by the substitution ``w = exp(-lambda*(t-t_n))
    * yhat``, recentered at each step, so the RK4 stages see only the
    nonlinearity, dealiased by the rule ``dealias``; exact for any ``dt``
    when the nonlinear coefficients vanish.  A one-lane run of
    ``_if_rk4_kernel``.
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


# Contour points on the full circle of radius 1 around each h*lambda_k.
_CONTOUR_POINTS = 32
# A block of contour points holds about this many complex values.
_BLOCK_VALUES = 1024


def _etd_weights(lam: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """ETDRK4 weights ``E2, E, Q, f1, f2, f3`` for steps of ``h`` on eigenvalues ``lam``.

    ``E2 = exp(h*lam/2)``, ``E = exp(h*lam)``; ``Q`` and the Cox-Matthews
    coefficients ``f1, f2, f3`` are contour means (Kassam-Trefethen) over
    points on the full unit circle around each ``h*lam``, which avoids the
    cancellation of their closed forms near 0.  The symbol is complex, so
    the mean is complex.  The points come in conjugate pairs, so a real
    ``h*lam`` (``k = 0``, Nyquist) gets real weights.  They are evaluated in
    blocks of rows, one point a row, and the rows are summed one at a time
    in the order of the points: the bits of a point-by-point loop.
    """
    z = h * lam
    q, f1, f2, f3 = (np.zeros_like(z) for _ in range(4))
    half = _CONTOUR_POINTS // 2
    r = np.exp(1j * np.pi * (np.arange(half) + 0.5) / half)
    points = np.stack((r, r.conjugate()), axis=1).ravel()  # r0, conj r0, r1, ...
    # several points to a block only while it stays near 1k values, far below the 256 KiB
    # at which numpy's temporary elision may swap a product's operands
    size = min(_CONTOUR_POINTS, -(-_BLOCK_VALUES // z.size))
    for start in range(0, _CONTOUR_POINTS, size):
        w = z + points[start : start + size, None]
        e = np.exp(w)
        w3 = w * w * w
        _add_rows(q, (np.exp(w / 2.0) - 1.0) / w)
        _add_rows(f1, (-4.0 - w + e * (4.0 - 3.0 * w + w * w)) / w3)
        _add_rows(f2, (2.0 + w + e * (w - 2.0)) / w3)
        _add_rows(f3, (-4.0 - 3.0 * w - w * w + e * (4.0 - w)) / w3)
    scale = h / _CONTOUR_POINTS
    return np.exp(z / 2.0), np.exp(z), q * scale, f1 * scale, f2 * scale, f3 * scale


def _add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    for row in rows:
        total += row


def _non_finite_rows(c: np.ndarray) -> dict:
    """``{lane: why}`` for each lane of ``c`` with a non-finite entry."""
    return {i: "non-finite" for i, row in enumerate(np.atleast_2d(c)) if not np.isfinite(row).all()}


class _Kernel(NamedTuple):
    """A fixed-step integrator of one problem, written for the lanes of ``_Lanes``.

    Every lane starts from the half-spectrum ``start``, and ``state(half)`` is
    its state.  ``weights(dt)`` is the tuple of rows that one lane steps with;
    ``stepper(rows)``, given one lane's rows or those rows stacked over lanes,
    returns ``step(v)``, which advances the half-spectra ``v`` by one step of
    each lane's own size.  A lane fails only when it turns non-finite, with
    ``error``'s NonFiniteState: ``quick``, the largest float, sends each
    non-finite reduction to ``failures``.
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
    """Fixed-step solve at 64, 128, 256, ... steps until it verifies itself.

    ``lanes`` runs a fourth-order fixed-step kernel.  After each doubling
    the error of ``u_2n`` is estimated as ``||u_2n - u_n|| / 15``, and
    ``(u_2n, 2n, estimate)`` is returned once that is at most ``tol *
    ||u_2n||``; a non-finite solve below the cap counts as not converged.
    Raises ReferenceNotConverged when a doubling shrinks the difference by
    less than 2x or the step cap is passed.  The counts run as lanes: ``n``,
    and ``2n`` beside it when there is no ``u_n/2`` or the last estimate,
    shrunk 16x, predicts that ``n`` will not verify.  The verdicts, taken in
    ascending step count, are those of solving the counts one by one.
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
    """Cached, self-verifying ETDRK4 reference solution at ``t_final``.

    ``quality`` names a relative tolerance on the Richardson estimate:
    ``standard`` 1e-10, ``high`` 1e-12; the step count doubles from 64 until
    the estimate meets it (``_doubling_solve``).  ``dealias`` is the rule of
    the run it serves.  The last 8 results are cached in memory, keyed by
    the exact bytes of the inputs.  Each call logs one DEBUG record to the
    ``kbf`` logger once ``logging`` is imported.  README's "The reference
    solution" gives the details.
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
