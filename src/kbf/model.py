"""Model coefficients, the linear dispersion symbol and the nonlinear right-hand side.

The equation combines diffusion ``nu``, third- and fifth-order dispersion
``mu``/``gamma``, cubic convection ``eps_conv`` and a logistic reaction
``eps_react``:

    y_t = nu*y_xx - mu*y_xxx + gamma*y_xxxxx - eps_conv*y^2*y_x + eps_react*y*(1-y)

The linear part evolves each Fourier mode by the symbol

    lambda(kappa) = -nu*kappa^2 + i*(mu*kappa^3 - gamma*kappa^5)

with kappa the physical wavenumber.  The nonlinear right-hand side is used
in the conservative spectral form
``-(eps/3)*(i*kappa)*T(y^3) + eps_react*(yhat - T(y^2))`` with pointwise
powers taken in physical space.  Both reference integrators use the one copy
here, on the real half-spectrum; the splitting solver keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    GridMismatch,
    NonFiniteInput,
    ValidationError,
    _check_length,
    _check_real,
)
from .spectral import (
    GridSpec,
    SpectralState,
    _derivative_symbol,
    _from_half,
    _real_half,
    _rfft_pair,
)

__all__ = [
    "ModelParams",
    "LinearSymbol",
    "linear_symbol",
    "nonlinear_rhs_physical",
    "nonlinear_rhs_spectral",
    "full_rhs",
]


@dataclass(frozen=True)
class ModelParams:
    """The five PDE coefficients; ``nu >= 0`` keeps the linear flow dissipative."""

    nu: float = 0.0
    mu: float = 0.0
    gamma: float = 0.0
    eps_conv: float = 0.0
    eps_react: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            lower = 0 if f.name == "nu" else None
            _check_real(ValidationError, f.name, getattr(self, f.name), lower)


@dataclass(frozen=True, eq=False)
class LinearSymbol:
    """Per-mode eigenvalues of the linear operator on a given grid."""

    values: np.ndarray = field(repr=False)
    grid: GridSpec
    params: ModelParams


def _check_symbol(symbol: LinearSymbol, params: ModelParams, grid: GridSpec) -> None:
    """Reject a symbol built on another grid or from other linear coefficients."""
    if symbol.grid != grid:
        raise GridMismatch("symbol and state were built on different grids")
    linear = (params.nu, params.mu, params.gamma)
    built = (symbol.params.nu, symbol.params.mu, symbol.params.gamma)
    if built != linear:
        raise ConfigError("symbol", f"built from (nu, mu, gamma) = {built}, not {linear}")


def linear_symbol(params: ModelParams, grid: GridSpec) -> LinearSymbol:
    """Fourier symbol ``-nu*kappa^2 + i*(mu*kappa^3 - gamma*kappa^5)``.

    The Nyquist imaginary part is zeroed so that the propagator maps real
    data to real data; ``Re(lambda) <= 0`` for all modes when ``nu >= 0``.
    """
    kappa = grid.physical_wavenumbers
    values = -params.nu * kappa**2 + 1j * (params.mu * kappa**3 - params.gamma * kappa**5)
    values[grid.n_modes // 2] = values[grid.n_modes // 2].real
    values.setflags(write=False)
    return LinearSymbol(values=values, grid=grid, params=params)


def nonlinear_rhs_physical(values: np.ndarray, params: ModelParams, grid: GridSpec) -> np.ndarray:
    """Pointwise nonlinearity on grid values: ``-eps*y^2*Dy + eps_react*y*(1-y)``.

    The convection derivative is spectral.  This non-conservative form exists
    as an independent cross-check of the conservative spectral form.
    """
    y = np.asarray(values, dtype=np.float64)
    _check_length("values", y, grid.n_modes)
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("values contain NaN or infinity")
    dsym = _derivative_symbol(grid, 1)
    y_x = np.fft.ifft(dsym * np.fft.fft(y)).real
    return -params.eps_conv * y * y * y_x + params.eps_react * y * (1.0 - y)


def _half_spectrum_rhs(grid: GridSpec, params: ModelParams, mask: np.ndarray | None, lanes: tuple):
    """``rhs(c, out=None)``: ``-(eps_conv/3)*ik*T(y^3) + eps_react*(c - T(y^2))`` on ``k = 0..N/2``.

    ``c`` has shape ``lanes + (N/2+1,)``; the products are dealiased by the keep-mask
    ``mask`` (None keeps all).  Written apart from the splitting kernel's (README).
    """
    n = grid.n_modes
    m = n // 2 + 1
    conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
    keep = None if mask is None else mask[:m]
    # a 0-d operand costs less per call than a Python float, and multiplies to the same bits
    react = np.array(params.eps_react, dtype=complex)
    # the transforms write into these instead of allocating their outputs per call
    y = np.empty(lanes + (n,))
    powers = np.empty((2, *lanes, n))
    spectra = np.empty((2, *lanes, m), dtype=complex)
    (cube, square), (cubed, squared) = powers, spectra
    irfft, rfft = _rfft_pair(n)

    def rhs(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        irfft(c, y)
        np.multiply(y, y, out=square)
        np.multiply(y, square, out=cube)
        rfft(powers, spectra)
        if keep is not None:
            np.multiply(spectra, keep, out=spectra)
        # conv*cubed + react*(c - squared), each product's operands in that order
        np.subtract(c, squared, out=squared)
        np.multiply(react, squared, out=squared)
        out = np.multiply(conv, cubed, out=out)
        return np.add(out, squared, out=out)

    return rhs


def nonlinear_rhs_spectral(
    state: SpectralState,
    params: ModelParams,
    dealias: np.ndarray | None = None,
) -> SpectralState:
    """Conservative spectral right-hand side of the nonlinear subproblem; exactly Hermitian.

    ``dealias`` is an optional keep-mask over the N modes that keeps or drops
    ``k`` and ``-k`` together, such as ``dealias_mask(grid, "two_thirds")``.
    """
    grid = state.grid
    if dealias is not None:
        dealias = np.asarray(dealias, dtype=bool)
        _check_length("dealias mask", dealias, grid.n_modes)
        if not np.array_equal(dealias, dealias[-np.arange(grid.n_modes)]):
            raise ValidationError("dealias", "the mask must keep or drop k and -k together")
    half = _real_half(state)  # rejects a state that is not real-representable
    return _from_half(_half_spectrum_rhs(grid, params, dealias, ())(half), grid)


def full_rhs(
    state: SpectralState,
    params: ModelParams,
    symbol: LinearSymbol,
    dealias: np.ndarray | None = None,
) -> SpectralState:
    """Complete semi-discrete right-hand side: linear symbol plus nonlinearity."""
    _check_symbol(symbol, params, state.grid)
    nl = nonlinear_rhs_spectral(state, params, dealias)
    return SpectralState(symbol.values * state.coeffs + nl.coeffs, state.grid)
