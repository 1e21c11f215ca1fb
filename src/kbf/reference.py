"""Independent solution sources.

The reference for convergence studies is an exponential time-differencing
RK4 solve (Cox-Matthews) of the full equation on the real half-spectrum,
with its own right-hand side, verified by step doubling.  An
integrating-factor RK4 solver on the full complex spectrum stays as its
independent cross-check; closed-form oracles cover the degenerate parameter
limits (pure linear flow, logistic reaction).  The oracles deliberately
share no code with the production flows.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    FileFormatError,
    NegativeDuration,
    NonFiniteState,
    ReferenceNotConverged,
    SingularSolution,
    _check_choice,
    _check_real,
)
from .model import LinearSymbol, ModelParams, _check_symbol, _nonlinear_rhs_coeffs
from .spectral import (
    DEALIAS_RULES,
    GridSpec,
    SpectralState,
    _derivative_symbol,
    _from_half,
    _real_half,
    dealias_mask,
    norm,
)
from .splitting import _step_count

__all__ = [
    "integrating_factor_rk4_solve",
    "logistic_exact",
    "linear_exact_solution",
    "make_reference",
    "write_reference_file",
    "read_reference_file",
]

_MAGIC = b"KBFR"
_VERSION = 1

# least recently used entries are evicted beyond this many
_MEMORY_CACHE_SIZE = 8
_cache_lock = threading.Lock()
# key -> (coefficients, steps, Richardson estimate)
_memory_cache: OrderedDict[str, tuple[np.ndarray, int | None, float | None]] = OrderedDict()


def integrating_factor_rk4_solve(
    initial: SpectralState,
    params: ModelParams,
    symbol: LinearSymbol,
    dt: float,
    t_final: float,
    dealias: str = "none",
) -> SpectralState:
    """Integrate the full equation with the integrating-factor RK4 method.

    The linear part is removed by the exact exponential substitution
    ``w = exp(-lambda*(t-t_n)) * yhat`` recentered at each step, so the
    explicit RK4 stages see only the nonlinearity; stage exponentials at
    ``dt/2`` and ``dt`` are precomputed once.  The products of the
    nonlinearity are dealiased by the rule ``dealias``, as the splitting
    solver's are.  Exact for any ``dt`` when the nonlinear coefficients vanish.
    """
    n = _step_count(dt, t_final)
    grid = initial.grid
    _check_symbol(symbol, params, grid)
    ik = _derivative_symbol(grid, 1)
    e_half = np.exp(symbol.values * (dt / 2.0))
    e_full = e_half * e_half
    mask = None if dealias == "none" else dealias_mask(grid, dealias)

    def f(c):
        return _nonlinear_rhs_coeffs(c, params, ik, mask)

    c = initial.coeffs.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            a = f(c)
            b = f(e_half * (c + (0.5 * dt) * a))
            s3 = f(e_half * c + (0.5 * dt) * b)
            s4 = f(e_full * c + dt * (e_half * s3))
            c = e_full * c + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + s3) + s4)
            if not np.all(np.isfinite(c)):
                raise NonFiniteState(f"reference solve turned non-finite at step {step + 1}")
    return SpectralState(c, grid)


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
    return SpectralState(np.exp(symbol.values * t) * initial.coeffs, initial.grid)


# Contour points on the full circle of radius 1 around each h*lambda_k.
_CONTOUR_POINTS = 32


def _etd_weights(lam: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """ETDRK4 weights ``E2, E, Q, f1, f2, f3`` for steps of ``h`` on eigenvalues ``lam``.

    ``E2 = exp(h*lam/2)``, ``E = exp(h*lam)``; ``Q`` and the Cox-Matthews
    coefficients ``f1, f2, f3`` are contour means (Kassam-Trefethen) over
    points on the full unit circle around each ``h*lam``, which avoids the
    cancellation of their closed forms near 0.  The symbol is complex, so
    the mean is complex: half a circle and a real part would hold for a real
    symbol only.  The points are summed in conjugate pairs, so a real
    ``h*lam`` (``k = 0``, Nyquist) gets real weights.  The sums accumulate
    one point at a time and stay the size of ``lam``.
    """
    z = h * lam
    q, f1, f2, f3 = (np.zeros_like(z) for _ in range(4))
    half = _CONTOUR_POINTS // 2
    for r in np.exp(1j * np.pi * (np.arange(half) + 0.5) / half):
        for w in (z + r, z + r.conjugate()):
            e = np.exp(w)
            w3 = w * w * w
            q += (np.exp(w / 2.0) - 1.0) / w
            f1 += (-4.0 - w + e * (4.0 - 3.0 * w + w * w)) / w3
            f2 += (2.0 + w + e * (w - 2.0)) / w3
            f3 += (-4.0 - 3.0 * w - w * w + e * (4.0 - w)) / w3
    scale = h / _CONTOUR_POINTS
    return np.exp(z / 2.0), np.exp(z), q * scale, f1 * scale, f2 * scale, f3 * scale


def _half_spectrum_rhs(grid: GridSpec, params: ModelParams, dealias: str):
    """The reference's conservative nonlinear right-hand side on ``k = 0..N/2``.

    ``-(eps_conv/3)*ik*T(y^3) + eps_react*(c - T(y^2))`` from one ``irfft``
    and one batched ``rfft`` of ``[y^3, y^2]``, the products dealiased by the
    rule ``dealias``.  Written apart from the splitting kernel's, so that the
    reference does not inherit a bug of the solver it measures.
    """
    n = grid.n_modes
    m = n // 2 + 1
    conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
    keep = None if dealias == "none" else dealias_mask(grid, dealias)[:m]
    react = params.eps_react
    # the transforms write into these instead of allocating their outputs per call
    y = np.empty(n)
    powers = np.empty((2, n))
    spectra = np.empty((2, m), dtype=complex)

    def rhs(c: np.ndarray) -> np.ndarray:
        np.fft.irfft(c, n, out=y)
        np.multiply(y, y, out=powers[1])
        np.multiply(y, powers[1], out=powers[0])
        np.fft.rfft(powers, out=spectra)
        if keep is not None:
            np.multiply(spectra, keep, out=spectra)
        cubed, squared = spectra
        return conv * cubed + react * (c - squared)

    return rhs


def _etdrk4_solve(
    initial: SpectralState,
    params: ModelParams,
    symbol: LinearSymbol,
    dt: float,
    t_final: float,
    dealias: str = "none",
) -> SpectralState:
    """Integrate the full equation with the ETDRK4 scheme of Cox and Matthews.

    The linear symbol is integrated exactly through the weights of
    ``_etd_weights``; the nonlinearity (reaction included) is taken by the
    four Cox-Matthews stages on the real half-spectrum.  Same arguments and
    checks as :func:`integrating_factor_rk4_solve`.
    """
    n = _step_count(dt, t_final)
    grid = initial.grid
    _check_symbol(symbol, params, grid)
    e_half, e_full, q, f1, f2, f3 = _etd_weights(symbol.values[: grid.n_modes // 2 + 1], dt)
    f = _half_spectrum_rhs(grid, params, dealias)
    v = _real_half(initial)
    two_f2 = 2.0 * f2
    # an overflow is reported once, as the NonFiniteState below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n):
            nv = f(v)
            ev = e_half * v
            a = ev + q * nv
            na = f(a)
            b = ev + q * na
            nb = f(b)
            c = e_half * a + q * (2.0 * nb - nv)
            v = e_full * v + f1 * nv + two_f2 * (na + nb) + f3 * f(c)
            if not np.all(np.isfinite(v)):
                raise NonFiniteState(f"reference solve turned non-finite at step {step + 1}")
    return _from_half(v, grid)


# Relative tolerance on the Richardson estimate behind each quality name.
_QUALITY_TOL = {"standard": 1e-10, "high": 1e-12}
# Step doubling starts here; the cap bounds the cost of a solve that never
# verifies itself.
_START_STEPS = 64
_MAX_STEPS = 2**16
# Part of the content key: a changed integrator never reads older entries.
_METHOD = b"etdrk4 step-doubling v3"


def _doubling_solve(
    integrate,
    initial: SpectralState,
    params: ModelParams,
    symbol: LinearSymbol,
    t_final: float,
    tol: float,
    dealias: str = "none",
) -> tuple[SpectralState, int, float]:
    """Fixed-step solve at 64, 128, 256, ... steps until it verifies itself.

    ``integrate(initial, params, symbol, dt, t_final, dealias)`` is a
    fourth-order fixed-step integrator: ``_etdrk4_solve`` for the reference,
    or :func:`integrating_factor_rk4_solve`.  After each doubling the error
    of the finer solution ``u_2n`` is estimated as ``||u_2n - u_n|| / 15``
    (Richardson, fourth order, discrete L2); ``(u_2n, 2n, estimate)`` is
    returned once the estimate is at most ``tol * ||u_2n||``.  A solve that
    turns non-finite below the cap counts as not converged.  Raises
    ReferenceNotConverged when the difference shrinks by less than 2x in one
    doubling (rounding error reached) or the step cap is passed.
    """
    name = "IF-RK4" if integrate is integrating_factor_rk4_solve else "ETDRK4"
    coarse = None
    last_diff = math.inf
    n = _START_STEPS
    while n <= _MAX_STEPS:
        try:
            fine = integrate(initial, params, symbol, t_final / n, t_final, dealias)
        except NonFiniteState:
            if n == _MAX_STEPS:
                raise
            coarse, last_diff, n = None, math.inf, 2 * n
            continue
        if coarse is not None:
            diff = norm(SpectralState(fine.coeffs - coarse.coeffs, fine.grid))
            estimate = diff / 15.0
            if estimate <= tol * norm(fine):
                return fine, n, estimate
            if diff > last_diff / 2.0:
                raise ReferenceNotConverged(
                    f"{name} reached rounding error at {n} steps: a doubling shrank "
                    f"the difference from {last_diff:.3e} only to {diff:.3e}, "
                    f"short of the relative tolerance {tol:g}"
                )
            last_diff = diff
        coarse, n = fine, 2 * n
    raise ReferenceNotConverged(
        f"{name} did not meet the relative tolerance {tol:g} within {_MAX_STEPS} steps"
    )


def _content_key(
    initial: SpectralState,
    params: ModelParams,
    t_final: float,
    quality: str,
    dealias: str,
) -> str:
    g = initial.grid
    h = hashlib.sha256()
    h.update(initial.coeffs.tobytes())
    h.update(
        struct.pack(
            "<qdd", g.n_modes, g.domain_start, g.domain_length
        )
    )
    h.update(
        struct.pack(
            "<5d", params.nu, params.mu, params.gamma, params.eps_conv, params.eps_react
        )
    )
    h.update(struct.pack("<d", t_final))
    h.update(quality.encode())
    h.update(dealias.encode())
    h.update(_METHOD)
    return h.hexdigest()


def write_reference_file(path, state: SpectralState) -> None:
    """Write coefficients in the binary cache layout.

    Little-endian: magic ``KBFR``, version u32, N u32, then N interleaved
    (re, im) float64 pairs.
    """
    n = state.grid.n_modes
    payload = np.empty(2 * n, dtype="<f8")
    payload[0::2] = state.coeffs.real
    payload[1::2] = state.coeffs.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, n))
        fh.write(payload.tobytes())


def read_reference_file(path, grid: GridSpec) -> SpectralState:
    """Read a cache file written by :func:`write_reference_file`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise FileFormatError(f"{path}: bad magic bytes")
    version, n = struct.unpack("<II", blob[4:12])
    if version != _VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    if len(blob) != 12 + 16 * n:
        raise FileFormatError(f"{path}: truncated payload")
    if n != grid.n_modes:
        raise FileFormatError(f"{path}: file has {n} modes, grid has {grid.n_modes}")
    payload = np.frombuffer(blob, dtype="<f8", offset=12)
    return SpectralState(payload[0::2] + 1j * payload[1::2], grid)


def _cache_get(key: str):
    with _cache_lock:
        hit = _memory_cache.get(key)
        if hit is not None:
            _memory_cache.move_to_end(key)
        return hit


def _cache_put(key: str, entry: tuple[np.ndarray, int | None, float | None]) -> None:
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
    cache_dir=None,
    dealias: str = "none",
) -> SpectralState:
    """Cached, self-verifying ETDRK4 reference solution at ``t_final``.

    Each quality names a relative tolerance: ``standard`` 1e-10, ``high``
    1e-12.  The ETDRK4 solve starts at 64 steps and doubles the step count
    until the Richardson estimate ``||u_2n - u_n|| / 15`` of its error is at
    most the tolerance times ``||u_2n||``; ``u_2n`` is returned.  Raises
    ReferenceNotConverged when rounding error stops a doubling from halving
    the difference, or when 65536 steps do not suffice.  The nonlinear
    products are dealiased by the rule ``dealias`` of the run it serves.

    Results are keyed by a content hash of the inputs, the quality, the
    dealias rule and the method, in a small in-memory cache (least recently
    used entries evicted) and, when ``cache_dir`` is given, on disk.  A disk
    entry is written to a temporary file and renamed into place, so a crash
    never leaves a truncated entry.

    Each call logs one DEBUG record to the ``kbf`` logger, whose ``reference``
    attribute holds the method, the steps, the estimate (both None when
    served from disk, which does not store them) and the source that served
    the result: ``memory``, ``disk`` or ``solve``.
    """
    _check_choice(ConfigError, "quality", quality, tuple(_QUALITY_TOL))
    _check_real(ConfigError, "t_final", t_final, 0, strict=True)
    _check_choice(ConfigError, "dealias", dealias, DEALIAS_RULES)
    _check_symbol(symbol, params, initial.grid)
    key = _content_key(initial, params, t_final, quality, dealias)
    hit = _cache_get(key)
    if hit is not None:
        coeffs, steps, estimate = hit
        _log_served("memory", steps, estimate)
        return SpectralState(coeffs, initial.grid)

    disk_path = None
    if cache_dir is not None:
        disk_path = Path(cache_dir) / f"{key}.kbfr"
        if disk_path.exists():
            state = read_reference_file(disk_path, initial.grid)
            _cache_put(key, (state.coeffs, None, None))
            _log_served("disk", None, None)
            return state

    state, steps, estimate = _doubling_solve(
        _etdrk4_solve, initial, params, symbol, t_final, _QUALITY_TOL[quality], dealias
    )
    _cache_put(key, (state.coeffs, steps, estimate))
    if disk_path is not None:
        disk_path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = disk_path.with_name(f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            write_reference_file(tmp_path, state)
            os.replace(tmp_path, disk_path)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
    _log_served("solve", steps, estimate)
    return state


def _log_served(source: str, steps, estimate) -> None:
    # imported on first use: at import, logging would add about a tenth to `import kbf`
    import logging

    record = {"method": _METHOD.decode(), "steps": steps, "estimate": estimate, "source": source}
    logging.getLogger("kbf").debug(
        "reference %(method)s from %(source)s: steps %(steps)s, estimate %(estimate)s",
        record,
        extra={"reference": record},
    )
