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
powers taken in physical space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, GridMismatch, NonFiniteInput, ValidationError
from .spectral import GridSpec, SpectralState, _derivative_symbol, _finite_real, to_physical

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
            value = getattr(self, f.name)
            if not _finite_real(value):
                raise ValidationError(f.name, f"must be a finite real number, got {value!r}")
        if self.nu < 0:
            raise ValidationError("nu", f"must be >= 0, got {self.nu}")


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
    if y.shape != (grid.n_modes,):
        raise GridMismatch(f"expected {grid.n_modes} values, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("values contain NaN or infinity")
    dsym = _derivative_symbol(grid, 1)
    y_x = np.fft.ifft(dsym * np.fft.fft(y)).real
    return -params.eps_conv * y * y * y_x + params.eps_react * y * (1.0 - y)


def _nonlinear_rhs_coeffs(
    coeffs: np.ndarray,
    params: ModelParams,
    ik: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Conservative spectral right-hand side on a raw coefficient vector.

    ``ik`` is the first-derivative symbol of the grid; ``mask`` optionally
    dealiases the transformed products.
    """
    y = np.fft.ifft(coeffs).real
    cubed = np.fft.fft(y * y * y)
    squared = np.fft.fft(y * y)
    if mask is not None:
        cubed = np.where(mask, cubed, 0.0)
        squared = np.where(mask, squared, 0.0)
    out = (-params.eps_conv / 3.0) * (ik * cubed)
    if params.eps_react != 0.0:
        out += params.eps_react * (coeffs - squared)
    return out


def nonlinear_rhs_spectral(
    state: SpectralState,
    params: ModelParams,
    dealias: np.ndarray | None = None,
) -> SpectralState:
    """Conservative spectral right-hand side of the nonlinear subproblem."""
    to_physical(state)  # rejects a state that is not real-representable
    ik = _derivative_symbol(state.grid, 1)
    out = _nonlinear_rhs_coeffs(state.coeffs, params, ik, dealias)
    return SpectralState(out, state.grid)


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
