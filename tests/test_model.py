from collections import OrderedDict

import numpy as np
import pytest

import kbf.reference as reference_module
from helpers import assert_exactly_hermitian, fd_derivative, full_spectrum_rhs, random_band_limited
from kbf import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    InitialConditionSpec,
    ModelParams,
    NonFiniteInput,
    SpectralState,
    ValidationError,
    build_initial,
    dealias_mask,
    full_rhs,
    integrating_factor_rk4_solve,
    lie_trotter_step,
    linear_exact_solution,
    linear_symbol,
    make_grid,
    make_reference,
    nonlinear_rhs_physical,
    nonlinear_rhs_spectral,
    norm,
    real_residue,
    strang_step,
    to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


def fd_linear_operator(params, values, spacing):
    """Independent oracle: the solved linear operator via centered stencils."""
    return (
        params.nu * fd_derivative(values, spacing, 2)
        - params.mu * fd_derivative(values, spacing, 3)
        - params.gamma * fd_derivative(values, spacing, 5)
    )


# ----- parameters -----

def test_params_reject_negative_nu():
    with pytest.raises(ValueError):
        ModelParams(nu=-1.0)


def test_params_reject_nonfinite():
    with pytest.raises(ValueError):
        ModelParams(mu=np.inf)


# ----- linear symbol -----

def test_symbol_zero_mode_vanishes(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    assert linear_symbol(full_params, g).values[0] == 0.0


def test_symbol_heat_mode_two():
    g = make_grid(16, 0.0, TWO_PI)
    sym = linear_symbol(ModelParams(nu=1.0), g)
    assert sym.values[2] == pytest.approx(-4.0, abs=1e-13)


def test_symbol_matches_finite_difference_operator(full_params):
    # eigenvalue of the operator on e^{ikx}, read off from a 13-point stencil;
    # h is kept moderate so the fifth-derivative weights do not amplify round-off
    n = 64
    g = make_grid(n, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    for k in (1, 2):
        wave = np.exp(1j * k * g.points)
        applied = fd_linear_operator(full_params, wave, g.spacing)
        eigenvalue = applied[0] / wave[0]
        assert abs(eigenvalue - sym.values[k]) < 1e-6


def test_symbol_values_full_params(full_params):
    # with all coefficients one, the k=1 third- and fifth-order phases cancel
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    assert sym.values[1] == pytest.approx(-1.0 + 0.0j, abs=1e-13)
    assert sym.values[2] == pytest.approx(-4.0 - 24.0j, abs=1e-12)


def test_symbol_scaled_domain():
    # halving the domain doubles the physical wavenumber
    g = make_grid(32, 0.0, np.pi)
    sym = linear_symbol(ModelParams(nu=1.0), g)
    assert sym.values[1] == pytest.approx(-4.0, abs=1e-12)


def test_symbol_dissipative_for_nonneg_nu(rng):
    for n in (8, 32, 128):
        g = make_grid(n, 0.0, TWO_PI)
        for _ in range(5):
            params = ModelParams(
                nu=float(rng.uniform(0, 3)),
                mu=float(rng.uniform(-3, 3)),
                gamma=float(rng.uniform(-3, 3)),
            )
            assert np.all(linear_symbol(params, g).values.real <= 0.0)


def test_symbol_conjugate_symmetry(full_params):
    g = make_grid(32, 0.0, TWO_PI)
    v = linear_symbol(full_params, g).values
    for k in range(1, 16):
        assert v[-k] == pytest.approx(np.conj(v[k]), rel=1e-14)
    assert v[16].imag == 0.0  # Nyquist


# ----- nonlinear right-hand side -----

def test_rhs_physical_equilibria(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    assert np.max(np.abs(nonlinear_rhs_physical(np.zeros(16), full_params, g))) == 0.0
    assert np.max(np.abs(nonlinear_rhs_physical(np.ones(16), full_params, g))) < 1e-13


def test_rhs_physical_half():
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    out = nonlinear_rhs_physical(np.full(16, 0.5), params, g)
    np.testing.assert_allclose(out, 0.25, atol=1e-14)


def test_rhs_physical_rejects_nonfinite(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    bad = np.zeros(16)
    bad[0] = np.nan
    with pytest.raises(NonFiniteInput):
        nonlinear_rhs_physical(bad, full_params, g)


def test_rhs_spectral_zero_and_constant(full_params):
    g = make_grid(32, 0.0, TWO_PI)
    zero = nonlinear_rhs_spectral(SpectralState(np.zeros(32), g), full_params)
    assert np.max(np.abs(zero.coeffs)) == 0.0
    one = nonlinear_rhs_spectral(to_spectral(np.ones(32), g), full_params)
    assert np.max(np.abs(to_physical(one))) < 1e-13


def test_rhs_spectral_matches_physical_form(rng, full_params):
    # alias-free: max mode 5 cubed stays below N/2 = 32
    g = make_grid(64, 0.0, TWO_PI)
    values, _ = random_band_limited(rng, g.points, max_mode=5, amplitude=0.3)
    spectral = nonlinear_rhs_spectral(to_spectral(values, g), full_params)
    physical = nonlinear_rhs_physical(values, full_params, g)
    err = norm(to_physical(spectral) - physical, grid=g)
    assert err < 1e-10 * max(1.0, norm(physical, grid=g))


def test_rhs_spectral_preserves_reality(rng, full_params):
    g = make_grid(64, 0.0, TWO_PI)
    s = to_spectral(rng.standard_normal(64), g)
    assert real_residue(nonlinear_rhs_spectral(s, full_params).coeffs) < 1e-12


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("n_modes", [16, 64, 256])
def test_rhs_spectral_matches_the_full_spectrum_oracle(rng, full_params, n_modes, dealias):
    # both reference integrators step this right-hand side; the oracle is written apart from it
    g = make_grid(n_modes, 0.0, TWO_PI)
    s = to_spectral(rng.standard_normal(n_modes), g)
    mask = None if dealias == "none" else dealias_mask(g, dealias)
    out = nonlinear_rhs_spectral(s, full_params, mask).coeffs
    oracle = full_spectrum_rhs(s.coeffs, full_params, g, dealias)
    assert np.max(np.abs(out - oracle)) <= 1e-13 * np.max(np.abs(oracle))
    assert_exactly_hermitian(out)
    sym = linear_symbol(full_params, g)
    small = SpectralState(0.1 * s.coeffs, g)
    solved = integrating_factor_rk4_solve(small, full_params, sym, 0.25, 1.0, dealias)
    assert_exactly_hermitian(solved.coeffs)


def test_rhs_spectral_rejects_a_bad_dealias_mask(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(np.ones(16), g)
    for size in (8, 32):
        with pytest.raises(DimensionMismatch):
            nonlinear_rhs_spectral(s, full_params, np.ones(size, dtype=bool))
    lopsided = dealias_mask(g, "two_thirds")
    lopsided[3] = False  # drops k = 3 but keeps k = -3
    with pytest.raises(ValidationError) as info:
        nonlinear_rhs_spectral(s, full_params, lopsided)
    assert info.value.key == "dealias"


# ----- assembled right-hand side -----

def test_full_rhs_equilibria(full_params):
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    zero = full_rhs(SpectralState(np.zeros(32), g), full_params, sym)
    assert np.max(np.abs(zero.coeffs)) == 0.0
    one = full_rhs(to_spectral(np.ones(32), g), full_params, sym)
    assert np.max(np.abs(to_physical(one))) < 1e-13


def test_full_rhs_heat_on_sin():
    g = make_grid(32, 0.0, TWO_PI)
    params = ModelParams(nu=1.0)
    sym = linear_symbol(params, g)
    out = full_rhs(to_spectral(np.sin(g.points), g), params, sym)
    np.testing.assert_allclose(to_physical(out), -np.sin(g.points), atol=1e-12)


def test_full_rhs_grid_mismatch(full_params):
    g1 = make_grid(16, 0.0, TWO_PI)
    g2 = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g2)
    with pytest.raises(GridMismatch):
        full_rhs(SpectralState(np.zeros(16), g1), full_params, sym)


# ----- a symbol belongs to one grid and one set of linear coefficients -----

G16 = make_grid(16, 0.0, TWO_PI)
UNIT = ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0, eps_react=1.0)
PAPER16 = build_initial(InitialConditionSpec(kind="paper"), G16)

FOREIGN_SYMBOLS = {
    "other_domain": (lambda: linear_symbol(UNIT, make_grid(16, 0.0, np.pi)), GridMismatch),
    "other_n": (lambda: linear_symbol(UNIT, make_grid(32, 0.0, TWO_PI)), GridMismatch),
    "other_nu": (
        lambda: linear_symbol(ModelParams(nu=0.5, mu=1.0, gamma=1.0, eps_conv=1.0, eps_react=1.0), G16),
        ConfigError,
    ),
}

SYMBOL_USERS = {
    "strang_step": lambda sym: strang_step(PAPER16, 0.1, UNIT, sym),
    "lie_trotter_step": lambda sym: lie_trotter_step(PAPER16, 0.1, UNIT, sym),
    "integrating_factor_rk4_solve": lambda sym: integrating_factor_rk4_solve(PAPER16, UNIT, sym, 0.1, 0.5),
    "make_reference": lambda sym: make_reference(PAPER16, UNIT, sym, 0.5),
    "full_rhs": lambda sym: full_rhs(PAPER16, UNIT, sym),
}


@pytest.mark.parametrize("foreign", sorted(FOREIGN_SYMBOLS))
@pytest.mark.parametrize("user", sorted(SYMBOL_USERS))
def test_symbol_from_another_run_rejected(user, foreign):
    build, error = FOREIGN_SYMBOLS[foreign]
    with pytest.raises(error) as info:
        SYMBOL_USERS[user](build())
    if error is ConfigError:
        assert info.value.key == "symbol"


@pytest.mark.parametrize("user", sorted(SYMBOL_USERS))
def test_symbol_ignores_the_nonlinear_coefficients(user, monkeypatch):
    # the symbol depends on nu, mu, gamma and the grid only
    results = []
    for built_from in (UNIT, ModelParams(nu=1.0, mu=1.0, gamma=1.0)):
        monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())
        results.append(SYMBOL_USERS[user](linear_symbol(built_from, G16)).coeffs)
    np.testing.assert_array_equal(results[0], results[1])


@pytest.mark.parametrize("foreign", sorted(FOREIGN_SYMBOLS))
def test_rejected_reference_leaves_no_cache_entry(foreign, monkeypatch):
    monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())
    build, error = FOREIGN_SYMBOLS[foreign]
    with pytest.raises(error):
        make_reference(PAPER16, UNIT, build(), 0.5)
    assert len(reference_module._memory_cache) == 0
    symbol = linear_symbol(UNIT, G16)
    served = make_reference(PAPER16, UNIT, symbol, 0.5)
    solved, _, _ = reference_module._doubling_solve(
        reference_module._Lanes(reference_module._etdrk4_kernel(PAPER16, UNIT, symbol)),
        0.5, reference_module._QUALITY_TOL["standard"],
    )
    np.testing.assert_array_equal(served.coeffs, solved.coeffs)
    # rejected before the cache lookup, so a warm entry does not hide the mistake
    with pytest.raises(error):
        make_reference(PAPER16, UNIT, build(), 0.5)


@pytest.mark.parametrize("foreign", ["other_domain", "other_n"])
def test_linear_exact_solution_rejects_a_symbol_from_another_grid(foreign):
    # it takes no params, so it can check the grid only
    build, error = FOREIGN_SYMBOLS[foreign]
    with pytest.raises(error, match="^symbol and state were built on different grids$"):
        linear_exact_solution(PAPER16, build(), 0.5)
