import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import fd_derivative, random_band_limited, slow_dft
import kbf
from kbf.spectral import _dft_matrices, _rfft_pair
from kbf import (
    ConfigError,
    DimensionMismatch,
    InvalidGrid,
    InvalidTestFunction,
    NonFiniteInput,
    NormSpec,
    NotRealRepresentable,
    SpectralState,
    ValidationError,
    dealias_mask,
    derivative,
    eval_interpolant,
    interpolation_error_decay,
    linear_symbol,
    make_grid,
    nonlinear_rhs_spectral,
    norm,
    real_residue,
    strang_step,
    to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


# ----- grid construction -----

def test_make_grid_four_points():
    g = make_grid(4, 0.0, TWO_PI)
    np.testing.assert_allclose(g.points, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-15)


def test_make_grid_canonical_size():
    g = make_grid(256, 0.0, TWO_PI)
    assert g.n_modes == 256
    assert g.spacing == pytest.approx(TWO_PI / 256, rel=1e-15)
    assert set(g.wavenumbers) == set(range(-128, 128))


def test_make_grid_centered_domain():
    g = make_grid(6, -np.pi, TWO_PI)
    expected = [-np.pi, -2 * np.pi / 3, -np.pi / 3, 0.0, np.pi / 3, 2 * np.pi / 3]
    np.testing.assert_allclose(g.points, expected, atol=1e-15)


def test_make_grid_spacing_and_open_end():
    g = make_grid(16, 1.0, 3.0)
    dx = np.diff(g.points)
    np.testing.assert_allclose(dx, 3.0 / 16, rtol=1e-14)
    assert g.points[-1] < 1.0 + 3.0  # right endpoint excluded


@pytest.mark.parametrize("n,start,length", [(5, 0, TWO_PI), (2, 0, TWO_PI), (8, 0, -1.0), (8, 0, 0.0)])
def test_make_grid_rejects(n, start, length):
    with pytest.raises(InvalidGrid):
        make_grid(n, start, length)


# ----- forward/inverse transforms -----

def test_constant_is_dc_only():
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(np.full(16, 3.25), g)
    assert abs(s.coeffs[0] - 3.25 * 16) < 1e-12
    assert np.max(np.abs(s.coeffs[1:])) < 1e-14 * 16


def test_sin_is_single_conjugate_pair():
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(np.sin(g.points), g)
    mags = np.abs(s.coeffs)
    assert mags[1] == pytest.approx(16.0, rel=1e-12)
    assert s.coeffs[-1] == pytest.approx(np.conj(s.coeffs[1]), rel=1e-12)
    others = np.delete(mags, [1, 31])
    assert np.max(others) < 1e-12


def test_forward_matches_direct_dft(rng):
    g = make_grid(32, 0.0, TWO_PI)
    v = rng.standard_normal(32)
    expected = slow_dft(v)
    np.testing.assert_allclose(to_spectral(v, g).coeffs, expected, atol=1e-10)


def test_round_trip(rng):
    g = make_grid(32, 0.0, TWO_PI)
    v = rng.standard_normal(32)
    back = to_physical(to_spectral(v, g))
    assert np.max(np.abs(back - v)) < 1e-12 * max(1.0, np.max(np.abs(v)))


def test_to_spectral_rejects_bad_input():
    g = make_grid(8, 0.0, TWO_PI)
    with pytest.raises(DimensionMismatch):
        to_spectral(np.zeros(9), g)
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(NonFiniteInput):
        to_spectral(bad, g)


def test_to_physical_zero_and_constant():
    g = make_grid(8, 0.0, TWO_PI)
    assert np.max(np.abs(to_physical(SpectralState(np.zeros(8), g)))) == 0.0
    c = np.zeros(8, dtype=complex)
    c[0] = 8 * 1.5
    np.testing.assert_allclose(to_physical(SpectralState(c, g)), 1.5, atol=1e-14)


def test_to_physical_conjugate_pair_is_trig():
    # a single +/-3 pair encodes alpha*cos(3x) + beta*sin(3x)
    g = make_grid(16, 0.0, TWO_PI)
    alpha, beta = 0.7, -0.3
    c = np.zeros(16, dtype=complex)
    c[3] = (alpha - 1j * beta) * 8
    c[-3] = np.conj(c[3])
    expected = alpha * np.cos(3 * g.points) + beta * np.sin(3 * g.points)
    np.testing.assert_allclose(to_physical(SpectralState(c, g)), expected, atol=1e-12)


def test_one_real_representability_check(full_params):
    # every entry point that needs real data rejects it the same way
    g = make_grid(8, 0.0, TWO_PI)
    c = np.zeros(8, dtype=complex)
    c[1] = 1.0
    state = SpectralState(c, g)
    checks = [
        lambda: to_physical(state),
        lambda: eval_interpolant(state, g.points),
        lambda: nonlinear_rhs_spectral(state, full_params),
        lambda: strang_step(state, 0.1, full_params, linear_symbol(full_params, g)),
    ]
    for check in checks:
        with pytest.raises(NotRealRepresentable, match=r"imaginary residue 1\.000e\+00 exceeds 1e-08"):
            check()


def test_to_physical_rejects_contaminated_state():
    g = make_grid(8, 0.0, TWO_PI)
    c = np.zeros(8, dtype=complex)
    c[1] = 1.0  # no conjugate partner
    with pytest.raises(NotRealRepresentable):
        to_physical(SpectralState(c, g))


@pytest.mark.parametrize("n", [8, 64, 128])
def test_dft_matrices_are_irfft_and_rfft(rng, n):
    inv, fwd = _dft_matrices(n)
    # imaginary parts at k = 0 and Nyquist too: irfft ignores them, and so must inv
    c = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    expected = np.fft.irfft(c, n)
    assert np.max(np.abs(inv @ c.view(np.float64) - expected)) <= 1e-14 * np.max(np.abs(expected))
    y = rng.standard_normal(n)
    expected = np.fft.rfft(y)
    assert np.max(np.abs(y @ fwd - expected)) <= 1e-14 * np.max(np.abs(expected))


# every batch the kernels pass: one half-spectrum, (lanes, m), (2, n), (lanes, 2, n), (2, lanes, n)
@pytest.mark.parametrize("batch", [(), (3,), (2,), (3, 2), (2, 3)])
@pytest.mark.parametrize("n", [4, 256, 4096])
def test_direct_transforms_are_numpy_fft_bit_for_bit(rng, n, batch):
    irfft, rfft = _rfft_pair(n)
    m = n // 2 + 1
    c = rng.standard_normal(batch + (m,)) + 1j * rng.standard_normal(batch + (m,))
    y = np.empty(batch + (n,))
    assert irfft(c, y) is y
    assert y.tobytes() == np.fft.irfft(c, n).tobytes()
    spectra = np.empty(batch + (m,), dtype=complex)
    assert rfft(y, spectra) is spectra
    assert spectra.tobytes() == np.fft.rfft(y).tobytes()


def test_importing_kbf_leaves_numpy_fft_unloaded():
    src = str(Path(kbf.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, kbf\nprint(sorted(m for m in sys.modules if m.startswith('numpy.fft')))\n"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ----- spectral differentiation -----

def test_derivative_sin_to_cos():
    g = make_grid(32, 0.0, TWO_PI)
    d = derivative(to_spectral(np.sin(g.points), g), 1)
    np.testing.assert_allclose(to_physical(d), np.cos(g.points), atol=1e-12)


def test_fifth_derivative_of_sin2x():
    g = make_grid(32, 0.0, TWO_PI)
    d = derivative(to_spectral(np.sin(2 * g.points), g), 5)
    np.testing.assert_allclose(to_physical(d), 32.0 * np.cos(2 * g.points), atol=1e-10)


def test_second_derivative_matches_finite_differences(rng):
    # oracle: 8th-order centered stencil on an 8x finer grid
    g = make_grid(32, 0.0, TWO_PI)
    fine = make_grid(256, 0.0, TWO_PI)
    values, coeffs = random_band_limited(rng, g.points, max_mode=3)
    fine_values = np.zeros(256)
    for k, a, b in coeffs:
        fine_values += a * np.cos(k * fine.points) + b * np.sin(k * fine.points)
    oracle = fd_derivative(fine_values, fine.spacing, 2, half_width=4).real[::8]
    ours = to_physical(derivative(to_spectral(values, g), 2))
    assert np.max(np.abs(ours - oracle)) < 1e-6


def test_derivative_scaled_domain():
    g = make_grid(32, 0.0, 4.0)
    kappa = TWO_PI / 4.0
    d = derivative(to_spectral(np.sin(kappa * (g.points)), g), 1)
    np.testing.assert_allclose(to_physical(d), kappa * np.cos(kappa * g.points), atol=1e-12)


def test_derivative_composition_band_limited(rng):
    g = make_grid(32, 0.0, TWO_PI)
    values, _ = random_band_limited(rng, g.points, max_mode=10)
    s = to_spectral(values, g)
    twice = derivative(derivative(s, 1), 1)
    once = derivative(s, 2)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-10 * np.max(np.abs(once.coeffs))


def test_derivative_zeroes_nyquist_for_odd_orders():
    g = make_grid(8, 0.0, TWO_PI)
    c = np.zeros(8, dtype=complex)
    c[4] = 1.0  # pure Nyquist content
    assert np.max(np.abs(derivative(SpectralState(c, g), 1).coeffs)) == 0.0
    assert np.max(np.abs(derivative(SpectralState(c, g), 2).coeffs)) > 0.0


def test_transform_and_derivative_linearity(rng):
    g = make_grid(16, 0.0, TWO_PI)
    u = rng.standard_normal(16)
    v = rng.standard_normal(16)
    a, b = 1.7, -0.4
    combo = to_spectral(a * u + b * v, g).coeffs
    parts = a * to_spectral(u, g).coeffs + b * to_spectral(v, g).coeffs
    assert np.max(np.abs(combo - parts)) < 1e-12 * max(1.0, np.max(np.abs(parts)))
    lhs = derivative(to_spectral(a * u + b * v, g), 1).coeffs
    rhs = a * derivative(to_spectral(u, g), 1).coeffs + b * derivative(to_spectral(v, g), 1).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_derivative_rejects_zero_order():
    g = make_grid(8, 0.0, TWO_PI)
    with pytest.raises(ValueError):
        derivative(to_spectral(np.zeros(8), g), 0)


# ----- interpolation -----

def test_interpolant_reproduces_grid_values(rng):
    g = make_grid(16, 0.0, TWO_PI)
    v = rng.standard_normal(16)
    s = to_spectral(v, g)
    np.testing.assert_allclose(eval_interpolant(s, g.points), to_physical(s), atol=1e-12)


def test_interpolant_constant_anywhere():
    g = make_grid(8, 0.0, TWO_PI)
    s = to_spectral(np.full(8, 2.5), g)
    np.testing.assert_allclose(eval_interpolant(s, [0.123, 4.5]), 2.5, atol=1e-13)


def test_interpolant_sin_at_pi_over_7():
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(np.sin(g.points), g)
    val = eval_interpolant(s, [np.pi / 7])[0]
    assert val == pytest.approx(math.sin(math.pi / 7), abs=1e-12)


def test_interpolation_exact_on_band_limited(rng):
    # degree-limited data is reproduced exactly between the grid points
    g = make_grid(16, 0.0, TWO_PI)
    fine = make_grid(128, 0.0, TWO_PI)
    values, coeffs = random_band_limited(rng, g.points, max_mode=5)
    exact = np.zeros(128)
    for k, a, b in coeffs:
        exact += a * np.cos(k * fine.points) + b * np.sin(k * fine.points)
    s = to_spectral(values, g)
    assert np.max(np.abs(eval_interpolant(s, fine.points) - exact)) < 1e-13


# ----- norms -----

def test_norm_zero_state():
    g = make_grid(8, 0.0, TWO_PI)
    assert norm(SpectralState(np.zeros(8), g)) == 0.0
    assert norm(SpectralState(np.zeros(8), g), NormSpec("hs", 2)) == 0.0


def test_norm_constant_one_l2():
    g = make_grid(64, 0.0, TWO_PI)
    assert norm(np.ones(64), NormSpec("l2"), grid=g) == pytest.approx(math.sqrt(TWO_PI), rel=1e-14)


def test_norm_h1_of_sin_matches_derivative_sum():
    # oracle: explicit H^1 definition sqrt(|sin|_L2^2 + |cos|_L2^2)
    g = make_grid(64, 0.0, TWO_PI)
    s = to_spectral(np.sin(g.points), g)
    l2_sin = norm(np.sin(g.points), NormSpec("l2"), grid=g)
    l2_cos = norm(np.cos(g.points), NormSpec("l2"), grid=g)
    expected = math.sqrt(l2_sin**2 + l2_cos**2)
    assert norm(s, NormSpec("hs", 1)) == pytest.approx(expected, abs=1e-10)


def test_parseval(rng):
    g = make_grid(32, 0.0, TWO_PI)
    v = rng.standard_normal(32)
    a = norm(v, NormSpec("l2"), grid=g)
    b = norm(to_spectral(v, g), NormSpec("hs", 0))
    assert a == pytest.approx(b, rel=1e-12)


def test_norm_rejects_nonfinite():
    g = make_grid(8, 0.0, TWO_PI)
    bad = np.zeros(8)
    bad[0] = np.inf
    with pytest.raises(NonFiniteInput):
        norm(bad, NormSpec("l2"), grid=g)


@pytest.mark.parametrize("text,spec", [("l2", NormSpec()), ("h0", NormSpec("hs", 0)), ("h12", NormSpec("hs", 12))])
def test_norm_spec_text_round_trip(text, spec):
    assert NormSpec.parse(text) == spec
    assert str(spec) == text


@pytest.mark.parametrize("text", ["", "L2", "h", "h-1", "hx", "hs2", " h2"])
def test_norm_spec_parse_rejects(text):
    with pytest.raises(ValidationError) as info:
        NormSpec.parse(text)
    assert info.value.key == "norm"


# ----- dealiasing -----

def test_dealias_two_thirds_n12():
    g = make_grid(12, 0.0, TWO_PI)
    mask = dealias_mask(g, "two_thirds")
    kept = set(g.wavenumbers[mask])
    assert kept == set(range(-4, 5))


def test_dealias_rejects_unknown_rule():
    with pytest.raises(ConfigError):
        dealias_mask(make_grid(12, 0.0, TWO_PI), "foo")


def test_dealias_none_keeps_all():
    g = make_grid(20, 0.0, TWO_PI)
    assert dealias_mask(g, "none").all()


def test_dealias_two_thirds_n256():
    g = make_grid(256, 0.0, TWO_PI)
    mask = dealias_mask(g, "two_thirds")
    assert set(g.wavenumbers[mask]) == set(range(-85, 86))


# ----- interpolation error decay -----

def test_decay_analytic_ratio():
    pairs = dict(interpolation_error_decay("inverse_two_plus_cos", NormSpec("l2"), [16, 32]))
    assert pairs[16] / pairs[32] >= 100.0


def test_decay_algebraic_rate_for_kinked_function():
    pairs = interpolation_error_decay("abs_sin_cubed", NormSpec("l2"), [8, 16, 32, 64, 128])
    ns = np.array([p[0] for p in pairs], dtype=float)
    errs = np.array([p[1] for p in pairs])
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 2.5 <= -slope <= 4.5


def test_decay_monotone_for_analytic():
    pairs = interpolation_error_decay("exp_sin", NormSpec("l2"), [8, 16, 24, 32, 48])
    errs = [p[1] for p in pairs]
    for a, b in zip(errs[:-1], errs[1:]):
        if a > 1e-13:
            assert b < a


def test_decay_unknown_function():
    with pytest.raises(InvalidTestFunction):
        interpolation_error_decay("not_a_function", NormSpec("l2"), [8, 16])


# ----- reality preservation -----

def test_operations_preserve_reality(rng):
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(rng.standard_normal(32), g)
    assert real_residue(derivative(s, 1).coeffs) < 1e-12
    assert real_residue(derivative(s, 5).coeffs) < 1e-12
    masked = SpectralState(np.where(dealias_mask(g, "two_thirds"), s.coeffs, 0.0), g)
    assert real_residue(masked.coeffs) < 1e-12
    vals = eval_interpolant(s, g.points + 0.01)
    assert np.all(np.isreal(vals))
