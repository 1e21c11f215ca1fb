"""Periodic Fourier collocation core.

Grid construction, the DFT/IDFT pair (its dense real matrices for small
grids, and pocketfft's own real transforms for the right-hand-side
kernels), spectral differentiation, trigonometric interpolation, discrete
L2/H^s norms and dealiasing masks.

Conventions
-----------
Coefficients are stored in FFT order (numpy's layout), indexed by the
integer wavenumbers ``0, 1, ..., N/2-1, -N/2, ..., -1``; the forward
transform is unscaled and the inverse carries the ``1/N`` factor.  The
physical wavenumber of integer mode ``k`` is ``(2*pi/L)*k``.  Norm weights
carry the grid spacing ``h`` so that the L2 norm approximates the integral
norm and s=0 Sobolev norms satisfy Parseval against it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    InvalidGrid,
    InvalidTestFunction,
    NonFiniteInput,
    NotRealRepresentable,
    ValidationError,
    _check_choice,
    _check_int,
    _check_length,
    _check_real,
)

__all__ = [
    "GridSpec",
    "SpectralState",
    "NormSpec",
    "make_grid",
    "to_spectral",
    "to_physical",
    "derivative",
    "eval_interpolant",
    "norm",
    "dealias_mask",
    "interpolation_error_decay",
    "real_residue",
    "TEST_FUNCTIONS",
]


@dataclass(frozen=True)
class GridSpec:
    """Equispaced periodic grid on [a, a+L), right endpoint excluded."""

    n_modes: int
    domain_start: float
    domain_length: float
    # derived from the three fields above, so equality and hash leave them out
    points: np.ndarray = field(repr=False, compare=False)
    wavenumber_scale: float = field(compare=False)

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n_modes

    @property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT order: 0..N/2-1, -N/2..-1."""
        return _int_wavenumbers(self.n_modes)

    @property
    def physical_wavenumbers(self) -> np.ndarray:
        return self.wavenumber_scale * _int_wavenumbers(self.n_modes)


def _int_wavenumbers(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return k.astype(np.int64)


def make_grid(n_modes: int, domain_start: float, domain_length: float) -> GridSpec:
    """Build a periodic grid with ``n_modes`` equispaced collocation points.

    ``n_modes`` must be an even integer of at least 4; ``domain_length``
    positive.
    """
    _check_int(InvalidGrid, "n_modes", n_modes, 4)
    if n_modes % 2 != 0:
        raise InvalidGrid("n_modes", f"must be even, got {n_modes!r}")
    _check_real(InvalidGrid, "domain_start", domain_start)
    _check_real(InvalidGrid, "domain_length", domain_length, 0, strict=True)
    points = domain_start + np.arange(n_modes) * (domain_length / n_modes)
    points.setflags(write=False)
    return GridSpec(
        n_modes=int(n_modes),
        domain_start=float(domain_start),
        domain_length=float(domain_length),
        points=points,
        wavenumber_scale=2.0 * np.pi / float(domain_length),
    )


@dataclass(frozen=True)
class SpectralState:
    """Fourier coefficients of one solution snapshot, tied to its grid."""

    coeffs: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        _check_length("coefficient vector", c, self.grid.n_modes)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class NormSpec:
    """Choice of discrete norm: plain L2 or Sobolev H^s.

    Written as ``l2`` or ``h<s>`` in configs and reports; ``str`` and
    ``NormSpec.parse`` convert between the two forms.
    """

    kind: str = "l2"
    s: int = 0

    def __post_init__(self):
        _check_choice(ValidationError, "norm", self.kind, ("l2", "hs"))
        _check_int(ValidationError, "norm", self.s, 0)

    def __str__(self):
        return "l2" if self.kind == "l2" else f"h{self.s}"

    @classmethod
    def parse(cls, text: str) -> NormSpec:
        if text == "l2":
            return cls("l2", 0)
        if text.startswith("h") and text[1:].isdigit():
            return cls("hs", int(text[1:]))
        raise ValidationError("norm", f"expected 'l2' or 'h<s>', got {text!r}")


def to_spectral(values: np.ndarray, grid: GridSpec) -> SpectralState:
    """Forward DFT of real grid values (unscaled forward convention).

    The coefficients come from ``rfft`` plus the conjugate mirror, so the
    result is exactly Hermitian.
    """
    v = np.asarray(values, dtype=np.float64)
    _check_length("values", v, grid.n_modes)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("values contain NaN or infinity")
    return _from_half(np.fft.rfft(v), grid)


def _from_half(half: np.ndarray, grid: GridSpec) -> SpectralState:
    """FFT-order state of real data from its half-spectrum ``k = 0..N/2``."""
    return SpectralState(np.concatenate((half, np.conj(half[-2:0:-1]))), grid)


@functools.lru_cache(maxsize=8)
def _dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only matrices of ``irfft`` and ``rfft`` on ``n`` points.

    ``inv`` has shape ``(n, 2m)``, ``m = n/2+1``: ``inv @ c.view(float64)``
    is ``irfft(c, n)``, built from the ``irfft`` of each unit real and unit
    imaginary half-spectrum, so the imaginary parts at ``k = 0`` and Nyquist
    are ignored as ``irfft`` ignores them.  ``fwd = rfft(eye(n))`` has shape
    ``(n, m)``, so ``y @ fwd`` is ``rfft(y)``.
    """
    m = n // 2 + 1
    inv = np.fft.irfft(np.eye(2 * m).view(np.complex128), n).T.copy()
    fwd = np.fft.rfft(np.eye(n))
    inv.setflags(write=False)
    fwd.setflags(write=False)
    return inv, fwd


def _rfft_pair(n: int):
    """``irfft(c, out)`` and ``rfft(a, out)`` on an even ``n`` points, along the last axis.

    Each writes into ``out`` and returns it, equal bit for bit to
    ``np.fft.irfft(c, n, out=out)`` and ``np.fft.rfft(a, out=out)``: they are
    the pocketfft gufuncs those call, with the factors they pass.
    """
    # numpy.fft's Python wrapper (norm lookup, dtype and axis handling) costs about as much per
    # call as the transform itself at N = 256; a kernel that owns its buffers needs none of it.
    # Imported here, not at module level, so that importing kbf does not load numpy.fft.
    from numpy.fft import _pocketfft_umath as pocketfft

    inverse, forward, scale = pocketfft.irfft, pocketfft.rfft_n_even, 1.0 / n
    return (lambda c, out: inverse(c, scale, out=out)), (lambda a, out: forward(a, 1.0, out=out))


def _real_half(state: SpectralState) -> np.ndarray:
    """Hermitian part of a state on ``k = 0..N/2``; the inverse of ``_from_half``.

    Raises NotRealRepresentable, as ``to_physical`` does.
    """
    to_physical(state)
    c = state.coeffs
    m = state.grid.n_modes // 2 + 1
    return 0.5 * (c[:m] + np.conj(c[-np.arange(m)]))


# largest imaginary residue, relative to the state's magnitude, of a real-representable state
_REAL_TOL = 1e-8


def _residue(z: np.ndarray) -> float:
    scale = np.max(np.abs(z))
    return float(np.max(np.abs(z.imag)) / scale) if scale > 0.0 else 0.0


def real_residue(coeffs: np.ndarray) -> float:
    """Relative size of the imaginary contamination of the grid values."""
    return _residue(np.fft.ifft(coeffs))


def to_physical(state: SpectralState) -> np.ndarray:
    """Inverse DFT to real grid values.

    Raises NotRealRepresentable if the imaginary residue exceeds 1e-8
    relative to the state's magnitude.  This is the package's one
    real-representability check; it costs a single inverse DFT.
    """
    z = np.fft.ifft(state.coeffs)
    residue = _residue(z)
    if residue > _REAL_TOL:
        raise NotRealRepresentable(f"imaginary residue {residue:.3e} exceeds {_REAL_TOL:g}")
    return z.real


def _derivative_symbol(grid: GridSpec, order: int) -> np.ndarray:
    """(i*kappa)**order with exact real/imaginary split and odd-order Nyquist zeroing."""
    kappa = grid.physical_wavenumbers
    mag = kappa.astype(np.float64) ** order
    cycle = order % 4
    if cycle == 0:
        sym = mag.astype(np.complex128)
    elif cycle == 1:
        sym = 1j * mag
    elif cycle == 2:
        sym = (-mag).astype(np.complex128)
    else:
        sym = -1j * mag
    if order % 2 == 1:
        # The Nyquist mode has no conjugate partner; an odd-order symbol there
        # would push real data off the real line.
        sym[grid.n_modes // 2] = 0.0
    return sym


def derivative(state: SpectralState, order: int) -> SpectralState:
    """Spectral derivative of the given integer order (>= 1)."""
    _check_int(ConfigError, "order", order, 1)
    sym = _derivative_symbol(state.grid, order)
    return SpectralState(sym * state.coeffs, state.grid)


def eval_interpolant(state: SpectralState, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Direct summation over modes; the Nyquist coefficient contributes a pure
    cosine so real data yields a real interpolant.
    """
    to_physical(state)
    pts = np.atleast_1d(np.asarray(points, dtype=np.float64))
    grid = state.grid
    n = grid.n_modes
    xi = pts - grid.domain_start
    kappa = grid.physical_wavenumbers
    nyq = n // 2
    mask = np.ones(n, dtype=bool)
    mask[nyq] = False
    phases = np.exp(1j * np.outer(xi, kappa[mask]))
    vals = phases @ state.coeffs[mask]
    vals = vals + state.coeffs[nyq].real * np.cos(kappa[nyq] * xi)
    return np.asarray(vals.real / n)


def _hs_sq_from_coeffs(coeffs: np.ndarray, grid: GridSpec, s: int) -> float:
    kappa = grid.physical_wavenumbers
    w = grid.spacing / grid.n_modes
    weights = (1.0 + kappa * kappa) ** s if s else 1.0
    return float(np.sum(weights * np.abs(coeffs) ** 2) * w)


def norm(obj, spec: NormSpec = NormSpec(), grid: GridSpec | None = None) -> float:
    """Discrete norm of a state or of raw grid values.

    L2 of grid values is ``sqrt(h * sum y_j^2)``; the H^s norm weights the
    coefficients by ``(1 + kappa^2)^s`` with the normalization chosen so that
    s=0 agrees with L2 (Parseval).  Raw values need an explicit ``grid``.
    """
    if isinstance(obj, SpectralState):
        coeffs, g = obj.coeffs, obj.grid
        if not np.all(np.isfinite(coeffs)):
            raise NonFiniteInput("coefficients contain NaN or infinity")
        s = spec.s if spec.kind == "hs" else 0
        return math.sqrt(_hs_sq_from_coeffs(coeffs, g, s))
    v = np.asarray(obj, dtype=np.float64)
    if grid is None:
        raise ConfigError("grid", "raw values need an explicit grid")
    _check_length("values", v, grid.n_modes)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("values contain NaN or infinity")
    if spec.kind == "l2":
        return math.sqrt(float(grid.spacing * np.sum(v * v)))
    return norm(to_spectral(v, grid), spec)


DEALIAS_RULES = ("none", "two_thirds")


def dealias_mask(grid: GridSpec, rule: str = "none") -> np.ndarray:
    """Boolean keep-mask over modes; ``two_thirds`` keeps ``|k| <= floor(N/3)``."""
    _check_choice(ConfigError, "dealias", rule, DEALIAS_RULES)
    if rule == "none":
        return np.ones(grid.n_modes, dtype=bool)
    return np.abs(grid.wavenumbers) <= grid.n_modes // 3


TEST_FUNCTIONS = {
    "inverse_two_plus_cos": lambda x: 1.0 / (2.0 + np.cos(x)),
    "exp_sin": lambda x: np.exp(np.sin(x)),
    "abs_sin_cubed": lambda x: np.abs(np.sin(x)) ** 3,
}


def interpolation_error_decay(function_id: str, spec: NormSpec, n_list) -> list[tuple[int, float]]:
    """Interpolation error of a built-in 2*pi-periodic test function vs N.

    The error is measured against samples on a reference grid with
    ``N_ref >= 8 * max(n_list)``; pairs are returned in ascending N.
    """
    try:
        f = TEST_FUNCTIONS[function_id]
    except KeyError:
        raise InvalidTestFunction(
            f"unknown test function {function_id!r}; choose from {sorted(TEST_FUNCTIONS)}"
        ) from None
    ns = sorted(int(n) for n in n_list)
    if not ns:
        return []
    n_ref = max(512, 8 * ns[-1])
    ref_grid = make_grid(n_ref, 0.0, 2.0 * np.pi)
    ref_vals = f(ref_grid.points)
    out = []
    for n in ns:
        g = make_grid(n, 0.0, 2.0 * np.pi)
        interp = eval_interpolant(to_spectral(f(g.points), g), ref_grid.points)
        out.append((n, norm(interp - ref_vals, spec, grid=ref_grid)))
    return out
