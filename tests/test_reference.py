import ast
import logging
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import mpmath
import numpy as np
import pytest

import kbf.model as model_module
import kbf.reference as reference_module
from helpers import longdouble_if_rk4, random_band_limited
from kbf import (
    ConfigError,
    InitialConditionSpec,
    KbfError,
    ModelParams,
    NonFiniteState,
    ReferenceNotConverged,
    SingularSolution,
    SpectralState,
    build_initial,
    error_norm,
    integrating_factor_rk4_solve,
    linear_exact_solution,
    linear_symbol,
    logistic_exact,
    make_grid,
    make_reference,
    norm,
    to_physical,
    to_spectral,
)
from kbf.errors import NegativeDuration
from kbf.reference import (
    _QUALITY_TOL,
    _doubling_solve,
    _etd_weights,
    _etdrk4_kernel,
    _if_rk4_kernel,
)
from kbf.spectral import _derivative_symbol, dealias_mask
from kbf.splitting import _Lanes

TWO_PI = 2.0 * np.pi


def rk4_scalar_logistic(c0, eps, t_final, n_steps):
    """High-resolution scalar integration used as an oracle for the closed form."""
    dt = t_final / n_steps
    y = c0
    for _ in range(n_steps):
        f = lambda v: eps * v * (1.0 - v)
        a = f(y)
        b = f(y + dt / 2 * a)
        c = f(y + dt / 2 * b)
        d = f(y + dt * c)
        y += dt / 6 * (a + 2 * b + 2 * c + d)
    return y


# ----- closed forms -----

def test_logistic_fixed_points():
    for t in (0.0, 0.5, 3.0):
        assert logistic_exact(0.0, 1.0, t) == 0.0
        assert logistic_exact(1.0, 1.0, t) == 1.0


def test_logistic_half_at_one():
    assert logistic_exact(0.5, 1.0, 1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
    # cross-check against direct high-resolution integration
    assert logistic_exact(0.5, 1.0, 1.0) == pytest.approx(
        rk4_scalar_logistic(0.5, 1.0, 1.0, 4096), abs=1e-12
    )


def test_logistic_singularity():
    # for c0 = -1/2 the denominator vanishes at t = ln 3
    with pytest.raises(SingularSolution):
        logistic_exact(-0.5, 1.0, np.log(3.0))


def test_linear_exact_identity_and_decay(full_params):
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(np.sin(g.points), g)
    sym_heat = linear_symbol(ModelParams(nu=1.0), g)
    assert np.max(np.abs(linear_exact_solution(s, sym_heat, 0.0).coeffs - s.coeffs)) == 0.0
    out = linear_exact_solution(s, sym_heat, 1.0)
    np.testing.assert_allclose(to_physical(out), np.exp(-1.0) * np.sin(g.points), atol=1e-12)


def test_linear_exact_pure_dispersion_phase():
    # mu-only: the k=1 mode keeps its modulus and advances phase by t
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(ModelParams(mu=1.0), g)
    s = to_spectral(np.sin(g.points), g)
    out = linear_exact_solution(s, sym, 0.9)
    assert abs(out.coeffs[1]) == pytest.approx(abs(s.coeffs[1]), rel=1e-14)
    assert out.coeffs[1] == pytest.approx(s.coeffs[1] * np.exp(1j * 0.9), rel=1e-13)


def test_linear_exact_rejects_negative_time(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    with pytest.raises(NegativeDuration):
        linear_exact_solution(SpectralState(np.zeros(16), g), sym, -1.0)


# ----- integrating-factor solver -----

def test_integrating_factor_exact_linear(grid256, sine_initial):
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
    sym = linear_symbol(params, grid256)
    for dt in (0.5, 0.125):
        solved = integrating_factor_rk4_solve(sine_initial, params, sym, dt, 1.0)
        exact = linear_exact_solution(sine_initial, sym, 1.0)
        assert error_norm(solved, exact) < 1e-12


def test_integrating_factor_logistic_limit():
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    sym = linear_symbol(params, g)
    initial = to_spectral(np.full(16, 0.5), g)
    solved = integrating_factor_rk4_solve(initial, params, sym, 0.05, 1.0)
    expected = logistic_exact(0.5, 1.0, 1.0)
    assert np.max(np.abs(to_physical(solved) - expected)) < 1e-6


def test_integrating_factor_self_convergence(full_params, grid256, sine_initial):
    # fourth order: the solution change per dt-halving shrinks ~16x
    sym = linear_symbol(full_params, grid256)
    sols = {
        n: integrating_factor_rk4_solve(sine_initial, full_params, sym, 1.0 / n, 1.0)
        for n in (256, 512, 1024)
    }
    d_coarse = error_norm(sols[256], sols[512])
    d_fine = error_norm(sols[512], sols[1024])
    assert 12.0 <= d_coarse / d_fine <= 20.0


def test_integrating_factor_rejects_partial_steps(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    with pytest.raises(ConfigError):
        integrating_factor_rk4_solve(sine_initial, full_params, sym, 0.3, 1.0)


# ----- cached reference -----

def test_make_reference_linear_limit(grid256, sine_initial):
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
    sym = linear_symbol(params, grid256)
    ref = make_reference(sine_initial, params, sym, 1.0, quality="standard")
    exact = linear_exact_solution(sine_initial, sym, 1.0)
    assert error_norm(ref, exact) < 1e-12


def test_make_reference_quality_agreement(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    std = make_reference(sine_initial, full_params, sym, 1.0, quality="standard")
    high = make_reference(sine_initial, full_params, sym, 1.0, quality="high")
    assert error_norm(std, high) <= 1e-9


def test_make_reference_logistic_limit():
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    sym = linear_symbol(params, g)
    initial = to_spectral(np.full(16, 0.5), g)
    ref = make_reference(initial, params, sym, 1.0, quality="standard")
    expected = logistic_exact(0.5, 1.0, 1.0)
    assert np.max(np.abs(to_physical(ref) - expected)) < 1e-10


# ----- ETDRK4 solver -----

def test_etdrk4_self_convergence(full_params, grid256, sine_initial):
    # fourth order: the solution change per dt-halving shrinks ~16x
    sym = linear_symbol(full_params, grid256)
    kernel = _etdrk4_kernel(sine_initial, full_params, sym)
    sols = {n: _one_lane(kernel, n, 1.0 / n) for n in (64, 128, 256)}
    d_coarse = error_norm(sols[64], sols[128])
    d_fine = error_norm(sols[128], sols[256])
    assert 12.0 <= d_coarse / d_fine <= 20.0


def test_etdrk4_output_is_hermitian(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    c = _one_lane(_etdrk4_kernel(sine_initial, full_params, sym), 64, 1.0 / 64).coeffs
    np.testing.assert_array_equal(c[1:], np.conj(c[:0:-1]))
    assert c[0].imag == 0.0 and c[128].imag == 0.0


# ----- lanes -----

KERNELS = {"etdrk4": _etdrk4_kernel, "if_rk4": _if_rk4_kernel}


def _one_lane(kernel, n, dt):
    """The final state of ``n`` steps of ``dt`` on ``kernel``, a lane run alone."""
    return _Lanes(kernel).run(n, dt)


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("n_modes", [16, 64, 256, 1024])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_lanes_equal_separate_solves_bit_for_bit(full_params, kernel, n_modes, dealias):
    g = make_grid(n_modes, 0.0, TWO_PI)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    build = KERNELS[kernel]
    args = (initial, full_params, linear_symbol(full_params, g), dealias)
    t_final = 0.25
    lanes = _Lanes(build(*args))
    for n in (8, 16):
        lanes.start(n, t_final / n)
    lanes.result(8)
    # 32 starts eight kernel steps after the others
    lanes.start(32, t_final / 32)
    for n in (32, 16, 8):
        alone = _one_lane(build(*args), n, t_final / n)
        np.testing.assert_array_equal(lanes.result(n).coeffs, alone.coeffs)
    assert lanes.started == [8, 16, 32]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_non_finite_lane_leaves_its_neighbour_unchanged(kernel):
    params = ModelParams(nu=4.0, eps_conv=200.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    build = KERNELS[kernel]
    args = (initial, params, linear_symbol(params, initial.grid))
    lanes = _Lanes(build(*args))
    for n in (64, 2048):
        lanes.start(n, 0.5 / n)
    with pytest.raises(NonFiniteState, match="non-finite at step"):
        lanes.result(64)
    with pytest.raises(NonFiniteState):
        _one_lane(build(*args), 64, 0.5 / 64)
    alone = _one_lane(build(*args), 2048, 0.5 / 2048)
    np.testing.assert_array_equal(lanes.result(2048).coeffs, alone.coeffs)
    # the doubling recovers at 2048 steps, with that lane's bits
    state, n, _ = _doubling_solve(_Lanes(build(*args)), 0.5, _QUALITY_TOL["standard"])
    assert n == 2048
    np.testing.assert_array_equal(state.coeffs, alone.coeffs)


def _plain_loop(kernel, initial, params, symbol, dt, n, dealias):
    """``n`` steps of ``dt`` on one half-spectrum, each integrator written out as a plain loop.

    ETDRK4 takes its weights from ``_etd_weights``, whose values the mpmath test checks.
    """
    grid = initial.grid
    m = grid.n_modes // 2 + 1
    conv = (-params.eps_conv / 3.0) * _derivative_symbol(grid, 1)[:m]
    keep = None if dealias == "none" else dealias_mask(grid, dealias)[:m]

    def f(c):
        y = np.fft.irfft(c, grid.n_modes)
        squared = y * y
        spectra = np.fft.rfft(np.stack((y * squared, squared)))
        if keep is not None:
            spectra = spectra * keep
        return conv * spectra[0] + params.eps_react * (c - spectra[1])

    v = 0.5 * (initial.coeffs[:m] + np.conj(initial.coeffs[-np.arange(m)]))
    if kernel == "if_rk4":
        e_half = np.exp(symbol.values[:m] * (dt / 2.0))
        e_full = e_half * e_half
        for _ in range(n):
            a = f(v)
            b = f(e_half * (v + (0.5 * dt) * a))
            s3 = f(e_half * v + (0.5 * dt) * b)
            s4 = f(e_full * v + dt * (e_half * s3))
            v = e_full * v + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + s3) + s4)
    else:
        e_half, e_full, q, f1, f2, f3 = _etd_weights(symbol.values[:m], dt)
        for _ in range(n):
            nv = f(v)
            ev = e_half * v
            a = ev + q * nv
            na = f(a)
            b = ev + q * na
            nb = f(b)
            c = e_half * a + q * (2.0 * nb - nv)
            v = e_full * v + f1 * nv + 2.0 * f2 * (na + nb) + f3 * f(c)
    return np.concatenate((v, np.conj(v[-2:0:-1])))


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("n_modes", [16, 256, 1024])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_lane_equals_a_plain_loop_bit_for_bit(full_params, kernel, n_modes, dealias):
    g = make_grid(n_modes, 0.0, TWO_PI)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    sym = linear_symbol(full_params, g)
    lane = _one_lane(KERNELS[kernel](initial, full_params, sym, dealias), 16, 1.0 / 64)
    plain = _plain_loop(kernel, initial, full_params, sym, 1.0 / 64, 16, dealias)
    np.testing.assert_array_equal(lane.coeffs, plain)


def test_stacked_etdrk4_lanes_keep_their_bits_past_numpy_elision_size(full_params):
    # two lanes at N = 16384 stack arrays of over 256 KiB, where numpy may elide a
    # temporary and swap a complex product's operands; the stages must not let it
    g = make_grid(16384, 0.0, TWO_PI)
    kernel = _etdrk4_kernel(build_initial(InitialConditionSpec(kind="paper"), g), full_params,
                            linear_symbol(full_params, g))
    lanes = _Lanes(kernel)
    for n in (2, 4):
        lanes.start(n, 1e-6 / n)
    np.testing.assert_array_equal(lanes.result(2).coeffs, _one_lane(kernel, 2, 1e-6 / 2).coeffs)


# ----- the weights -----

@pytest.mark.parametrize("n_modes", [16, 256, 1024, 4096, 16384])
def test_etd_weights_equal_a_point_by_point_loop_bit_for_bit(n_modes):
    # each mode's weights, taken over the whole half-spectrum, equal its weights taken
    # alone: a lane's weights never change with the grid they are computed on.  nu = 0
    # gives z up to 2e18 on the imaginary axis; nu = 1 at h = 1/4096 sums 6-7 modes' series
    g = make_grid(n_modes, 0.0, TWO_PI)
    for nu, h in ((0.0, 1 / 16), (1.0, 1 / 4096)):
        lam = linear_symbol(ModelParams(nu=nu, mu=1.0, gamma=1.0), g).values[: n_modes // 2 + 1]
        alone = [_etd_weights(lam[k : k + 1], h) for k in range(len(lam))]
        for i, whole in enumerate(_etd_weights(lam, h)):
            np.testing.assert_array_equal(whole, [weights[i][0] for weights in alone])


def _mp_weights(z):
    """``Q/h, f1/h, f2/h, f3/h`` at ``z = h*lambda`` from their closed forms in 60 digits."""
    if z == 0:
        return [mpmath.mpf(1) / 2] + [mpmath.mpf(1) / 6] * 3
    z = mpmath.mpc(z.real, z.imag)
    e, z3 = mpmath.exp(z), z**3
    return [
        (mpmath.exp(z / 2) - 1) / z,
        (-4 - z + e * (4 - 3 * z + z * z)) / z3,
        (2 + z + e * (z - 2)) / z3,
        (-4 - 3 * z - z * z + e * (4 - z)) / z3,
    ]


# |h*lambda| on both sides of the series' radius 1.5 and of Kassam and Trefethen's 1;
# none near 2.6-4, where f1 has a zero on the negative axis and no relative bound holds
WEIGHT_RADII = [0, 1e-8, 1e-3, 0.1, 0.5, 0.9, 0.99, 1, 1.01, 1.49, 1.5, 1.51, 10, 1e3, 1e6, 1e10, 1e13]


@pytest.mark.parametrize("radius", WEIGHT_RADII)
def test_etd_weights_are_within_1e_14_of_60_digit_values(radius):
    # over the arguments of a dissipative symbol, pi/2 to pi; h = 2^-9 scales z exactly
    h = 2.0**-9
    z = radius * np.exp(1j * np.linspace(np.pi / 2, np.pi, 31))
    _, _, *weights = _etd_weights(z / h, h)
    with mpmath.workdps(60):
        for j, zj in enumerate(z):
            for name, got, want in zip(("Q", "f1", "f2", "f3"), weights, _mp_weights(zj)):
                error = abs(mpmath.mpc(got[j].real, got[j].imag) / h - want) / abs(want)
                assert error <= 1e-14, (name, zj, float(error))


def _phi1(z):
    """``expm1(z)/z``, with ``phi1(0) = 1``."""
    safe = np.where(z == 0, 1.0, z)
    return np.where(z == 0, 1.0, np.expm1(safe) / safe)


@pytest.mark.parametrize("n_modes", [16, 64, 256, 1024])
def test_etd_weights_are_exact_for_constant_forcing(n_modes):
    # a constant forcing is integrated exactly: f1 + 4*f2 + f3 = h*phi1(h*lam) and
    # Q = (h/2)*phi1(h*lam/2), each to 1e3 eps times its terms' magnitudes
    eps = np.finfo(float).eps
    g = make_grid(n_modes, 0.0, TWO_PI)
    for nu in (0.0, 0.01, 0.1, 1.0):
        for mu, gamma in ((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.1)):
            lam = linear_symbol(ModelParams(nu=nu, mu=mu, gamma=gamma), g).values[: n_modes // 2 + 1]
            for h in (1 / 16, 1 / 256, 1 / 1024, 1 / 4096):
                _, _, q, f1, f2, f3 = _etd_weights(lam, h)
                z = h * lam
                full, half = h * _phi1(z), (h / 2) * _phi1(z / 2)
                for got, want, size in (
                    (f1 + 4 * f2 + f3, full, abs(f1) + 4 * abs(f2) + abs(f3) + abs(full)),
                    (q, half, abs(q) + abs(half)),
                ):
                    assert np.all(abs(got - want) <= 1e3 * eps * size), (nu, mu, gamma, h)
                # k = 0: Q = h/2 and f1 = f2 = f3 = h/6
                np.testing.assert_allclose([q[0], f1[0], f2[0], f3[0]], [h / 2] + [h / 6] * 3, rtol=1e-15)


# ----- the true error, against an 80-bit oracle -----

# name -> (N, coefficients, dealias rules, initial data on the grid), T = 1.  The random
# case damps the dispersion: IF-RK4's error grows with dt*|lambda| of the modes the
# data excites, and with all coefficients 1 the oracle's doubling difference is still
# 5e-7 relative at 2048 steps.
TRUE_ERROR_CASES = {
    "paper": (
        32, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0), ("none", "two_thirds"),
        lambda g: build_initial(InitialConditionSpec(kind="paper"), g),
    ),
    "random": (
        16, ModelParams(1.0, 1.0, 0.01, 1.0, 1.0), ("none", "two_thirds"),
        lambda g: to_spectral(random_band_limited(np.random.default_rng(0), g.points, 4, 0.1)[0], g),
    ),
}
ORACLE_STEPS = 2048


@pytest.fixture(scope="module")
def longdouble_solutions():
    """name -> [(rule, initial, oracle at ORACLE_STEPS, its doubling difference)]."""
    solutions = {}
    for name, (n_modes, params, rules, data) in TRUE_ERROR_CASES.items():
        g = make_grid(n_modes, 0.0, TWO_PI)
        initial = data(g)
        fine = longdouble_if_rk4(initial.coeffs, params, 1.0, ORACLE_STEPS, rules)
        coarse = longdouble_if_rk4(initial.coeffs, params, 1.0, ORACLE_STEPS // 2, rules)
        solutions[name] = [
            (rule, initial, SpectralState(f.astype(complex), g), norm(SpectralState((f - c).astype(complex), g)))
            for rule, f, c in zip(rules, fine, coarse)
        ]
    return solutions


@pytest.mark.parametrize("quality", sorted(_QUALITY_TOL))
@pytest.mark.parametrize("case", sorted(TRUE_ERROR_CASES))
def test_reference_true_error_is_within_its_tolerance(longdouble_solutions, case, quality):
    # the distance to the oracle plus the oracle's own Richardson estimate bounds the true error
    params = TRUE_ERROR_CASES[case][1]
    for rule, initial, oracle, oracle_diff in longdouble_solutions[case]:
        sym = linear_symbol(params, initial.grid)
        reference = make_reference(initial, params, sym, 1.0, quality=quality, dealias=rule)
        distance = error_norm(reference, oracle)
        tol = _QUALITY_TOL[quality] * norm(reference)
        assert distance + oracle_diff / 15 <= tol, (
            f"{rule}: distance {distance:.3e}, oracle doubling difference {oracle_diff:.3e}, "
            f"tolerance {tol:.3e}"
        )


def _borrowed_from_splitting(module):
    """The names that ``module`` imports from ``kbf.splitting``, which it must not import whole."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    borrowed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("splitting", "kbf.splitting"):
            borrowed += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            assert all(alias.name != "kbf.splitting" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "kbf"):
            assert all(alias.name != "splitting" for alias in node.names)
    return borrowed


def test_the_reference_shares_no_kernel_with_the_splitting_solver():
    # the reference measures the splitting solver, so it may borrow only the step-count
    # rule and the lane loop's bookkeeping, never the splitting kernel (_Splitting, _Stepper)
    assert _borrowed_from_splitting(reference_module) == ["_Lanes", "_step_count"]
    # and the right-hand side it steps with is the model's, which borrows nothing
    assert _borrowed_from_splitting(model_module) == []


# ----- step doubling -----

def doubling(kernel, initial, params, symbol, t_final, tol, dealias="none"):
    """The step doubling of one problem on ``kernel``: ``(state, steps, estimate)``."""
    return _doubling_solve(_Lanes(kernel(initial, params, symbol, dealias)), t_final, tol)


@pytest.fixture(scope="module")
def table1_if_rk4_16384(full_params, grid256, sine_initial):
    """The Table-1 problem solved with the former fixed 16384-step "high" reference."""
    sym = linear_symbol(full_params, grid256)
    return integrating_factor_rk4_solve(sine_initial, full_params, sym, 1.0 / 16384, 1.0)


@pytest.mark.parametrize("quality,steps", [("standard", 512), ("high", 1024)])
def test_doubling_stops_where_its_estimate_holds(
    full_params, grid256, sine_initial, table1_if_rk4_16384, quality, steps
):
    # the IF-RK4 pins: the cross-check integrator through the same loop
    sym = linear_symbol(full_params, grid256)
    state, n, estimate = doubling(
        _if_rk4_kernel, sine_initial, full_params, sym, 1.0, _QUALITY_TOL[quality]
    )
    assert n == steps
    assert estimate <= _QUALITY_TOL[quality] * norm(state)
    true_error = error_norm(state, table1_if_rk4_16384)
    assert true_error / 2 <= estimate <= 2 * true_error


@pytest.mark.parametrize("quality,steps", [("standard", 128), ("high", 512)])
def test_etdrk4_doubling_stops_where_its_estimate_holds(
    full_params, grid256, sine_initial, table1_if_rk4_16384, quality, steps
):
    # also the Table-1 cross-check: the reference against a fine IF-RK4 solve
    sym = linear_symbol(full_params, grid256)
    lanes = _Lanes(_etdrk4_kernel(sine_initial, full_params, sym))
    state, n, estimate = _doubling_solve(lanes, 1.0, _QUALITY_TOL[quality])
    assert n == steps
    # no lane past the stop: standard starts nothing past 128, high never starts 1024
    assert lanes.started == [64 * 2**i for i in range(len(lanes.started))]
    assert max(lanes.started) == steps
    assert estimate <= _QUALITY_TOL[quality] * norm(state)
    true_error = error_norm(state, table1_if_rk4_16384)
    assert true_error / 2 <= estimate <= 2 * true_error
    made = make_reference(sine_initial, full_params, sym, 1.0, quality=quality)
    np.testing.assert_array_equal(made.coeffs, state.coeffs)


# Problems beside Table 1 on which the ETDRK4 reference must agree with IF-RK4:
# name -> (N, coefficients, initial condition, steps of the fine IF-RK4 solve), T = 1
CROSS_CHECKS = {
    "dispersive": (
        32,
        ModelParams(mu=1.0, gamma=0.1, eps_conv=1.0),  # nu = eps_react = 0: imaginary symbol
        InitialConditionSpec(kind="paper"),
        4096,
    ),
    "reaction": (
        64,
        ModelParams(nu=0.1, mu=0.1, eps_conv=0.1, eps_react=5.0),
        InitialConditionSpec(kind="mode", mode_k=2, mode_amp=0.2, mode_offset=0.3),
        2048,
    ),
}


@pytest.fixture(scope="module")
def cross_check_problems():
    """name -> (initial, params, fine IF-RK4 solution at T = 1)."""
    problems = {}
    for name, (n_modes, params, ic, steps) in CROSS_CHECKS.items():
        initial = build_initial(ic, make_grid(n_modes, 0.0, TWO_PI))
        sym = linear_symbol(params, initial.grid)
        fine = integrating_factor_rk4_solve(initial, params, sym, 1.0 / steps, 1.0)
        problems[name] = (initial, params, fine)
    return problems


@pytest.mark.parametrize("quality", sorted(_QUALITY_TOL))
@pytest.mark.parametrize("problem", sorted(CROSS_CHECKS))
def test_etdrk4_reference_agrees_with_a_fine_if_rk4_solve(cross_check_problems, problem, quality):
    # as the Table-1 stop test above: the stop rule puts the estimate within
    # tol, and the estimate is good to 2x
    initial, params, fine = cross_check_problems[problem]
    sym = linear_symbol(params, initial.grid)
    tol = _QUALITY_TOL[quality]
    state, _, estimate = doubling(_etdrk4_kernel, initial, params, sym, 1.0, tol)
    distance = error_norm(state, fine)
    assert distance <= 2 * tol * norm(state)
    assert distance / 2 <= estimate <= 2 * distance


def _small_problem(params):
    g = make_grid(16, 0.0, TWO_PI)
    return build_initial(InitialConditionSpec(kind="paper"), g), linear_symbol(params, g)


def _assert_within_one_doubling(started, stop):
    """Lanes start in doubling order, none past the cap or one doubling past ``stop``.

    ``stop`` is the step count of the last verdict, which every lane started
    before it was pending at.
    """
    assert started == [64 * 2**i for i in range(len(started))]
    assert max(started) <= min(2 * stop, reference_module._MAX_STEPS)


def test_doubling_raises_when_rounding_error_is_reached():
    # weakly nonlinear: a few doublings reach the rounding floor
    params = ModelParams(nu=1.0, eps_conv=0.01, eps_react=0.01)
    initial, sym = _small_problem(params)
    lanes = _Lanes(_etdrk4_kernel(initial, params, sym))
    with pytest.raises(ReferenceNotConverged, match="ETDRK4 reached rounding error") as info:
        _doubling_solve(lanes, 1.0, 1e-20)
    assert isinstance(info.value, KbfError)
    stop = int(str(info.value).split(" at ")[1].split()[0])
    _assert_within_one_doubling(lanes.started, stop)


def test_doubling_raises_at_the_step_cap(monkeypatch, full_params):
    monkeypatch.setattr(reference_module, "_MAX_STEPS", 512)
    initial, sym = _small_problem(full_params)
    lanes = _Lanes(_etdrk4_kernel(initial, full_params, sym))
    with pytest.raises(ReferenceNotConverged, match="ETDRK4 did not .* within 512 steps"):
        _doubling_solve(lanes, 1.0, 1e-20)
    _assert_within_one_doubling(lanes.started, 512)
    assert lanes.started[-1] == 512


def _failing(kernel, fail_at, t_final=1.0):
    """``kernel`` with the lanes of the step counts in ``fail_at`` non-finite from step 1."""

    def weights(dt):
        rows = kernel.weights(dt)
        if round(t_final / dt) in fail_at:
            return tuple(np.full_like(row, np.nan) for row in rows)
        return rows

    return kernel._replace(weights=weights)


def test_doubling_retries_a_coarse_non_finite_solve(full_params):
    initial, sym = _small_problem(full_params)
    lanes = _Lanes(_failing(_etdrk4_kernel(initial, full_params, sym), fail_at={64}))
    state, n, _ = _doubling_solve(lanes, 1.0, _QUALITY_TOL["high"])
    assert lanes.started == [64, 128, 256, 512]
    assert n == 512
    direct = _one_lane(_etdrk4_kernel(initial, full_params, sym), 512, 1.0 / 512)
    np.testing.assert_array_equal(state.coeffs, direct.coeffs)


def test_doubling_non_finite_at_the_cap_propagates(monkeypatch, full_params):
    monkeypatch.setattr(reference_module, "_MAX_STEPS", 256)
    initial, sym = _small_problem(full_params)
    lanes = _Lanes(_failing(_etdrk4_kernel(initial, full_params, sym), fail_at={64, 128, 256}))
    with pytest.raises(NonFiniteState):
        _doubling_solve(lanes, 1.0, _QUALITY_TOL["high"])
    assert lanes.started == [64, 128, 256]


def test_overflowing_coarse_solve_recovers_without_a_warning(caplog, empty_memory_cache):
    # the 64-step solve overflows; no RuntimeWarning may escape the doubling's
    # recovery from it, which the suite's filter would raise
    params = ModelParams(nu=4.0, eps_conv=200.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, 2.0 * np.pi))
    caplog.set_level(logging.DEBUG, logger="kbf")
    ref = make_reference(initial, params, linear_symbol(params, initial.grid), 0.5)
    assert np.isfinite(ref.coeffs).all()
    assert [r.reference["steps"] for r in caplog.records if r.name == "kbf"] == [2048]


# ----- reference caches -----

@pytest.fixture
def empty_memory_cache(monkeypatch):
    monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())


def test_memory_cache_is_bounded(monkeypatch, empty_memory_cache):
    params = ModelParams(nu=1.0)
    initial, sym = _small_problem(params)
    calls = []

    def recording_kernel(*args):
        calls.append(args)  # one kernel per solve
        return _etdrk4_kernel(*args)

    monkeypatch.setattr(reference_module, "_etdrk4_kernel", recording_kernel)
    horizons = [0.125 * (i + 1) for i in range(reference_module._MEMORY_CACHE_SIZE + 1)]
    for t in horizons:
        make_reference(initial, params, sym, t)
    assert len(reference_module._memory_cache) == reference_module._MEMORY_CACHE_SIZE
    solves = len(calls)
    make_reference(initial, params, sym, horizons[-1])
    assert len(calls) == solves  # the newest entry is a hit
    make_reference(initial, params, sym, horizons[0])
    assert len(calls) > solves  # the oldest was evicted
    assert len(reference_module._memory_cache) == reference_module._MEMORY_CACHE_SIZE


def test_dealiased_reference_is_cached_apart(empty_memory_cache):
    params = ModelParams(nu=0.1, eps_conv=1.0, eps_react=1.0)
    g = make_grid(16, 0.0, TWO_PI)
    ic = InitialConditionSpec(kind="mode", mode_k=3, mode_amp=0.4, mode_offset=0.5)
    initial = build_initial(ic, g)
    sym = linear_symbol(params, g)
    dealiased = make_reference(initial, params, sym, 0.5, dealias="two_thirds")
    plain = make_reference(initial, params, sym, 0.5)
    solved, _, _ = doubling(_etdrk4_kernel, initial, params, sym, 0.5, _QUALITY_TOL["standard"])
    np.testing.assert_array_equal(plain.coeffs, solved.coeffs)
    assert error_norm(dealiased, plain) > 1e-3


def test_make_reference_logs_where_it_was_served_from(caplog, full_params, empty_memory_cache):
    initial, sym = _small_problem(full_params)
    caplog.set_level(logging.DEBUG, logger="kbf")
    make_reference(initial, full_params, sym, 1.0, quality="high")
    make_reference(initial, full_params, sym, 1.0, quality="high")
    records = [r for r in caplog.records if r.name == "kbf"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    lanes = _Lanes(_etdrk4_kernel(initial, full_params, sym))
    _, steps, estimate = _doubling_solve(lanes, 1.0, _QUALITY_TOL["high"])
    assert lanes.started == [64, 128, 256, 512]
    method = "etdrk4 step-doubling v3"
    assert [r.reference for r in records] == [
        {
            "method": method,
            "steps": steps,
            "estimate": estimate,
            "source": "solve",
            "solved": lanes.started,
        },
        {"method": method, "steps": steps, "estimate": estimate, "source": "memory", "solved": None},
    ]
    assert records[0].getMessage() == (
        f"reference {method} from solve: steps {steps}, estimate {estimate}"
    )
    assert logging.getLogger("kbf").handlers == []


def test_memory_cache_key_is_exact(caplog, full_params, empty_memory_cache):
    initial, sym = _small_problem(full_params)
    coeffs = initial.coeffs.copy()
    coeffs[0] = np.nextafter(coeffs[0].real, np.inf)  # the last bit of the mean
    nudged = SpectralState(coeffs, initial.grid)
    caplog.set_level(logging.DEBUG, logger="kbf")
    first = make_reference(initial, full_params, sym, 0.5)
    make_reference(nudged, full_params, sym, 0.5)
    again = make_reference(initial, full_params, sym, 0.5)
    sources = [r.reference["source"] for r in caplog.records if r.name == "kbf"]
    assert sources == ["solve", "solve", "memory"]
    np.testing.assert_array_equal(again.coeffs, first.coeffs)


def test_a_temporal_study_loads_neither_openssl_nor_logging():
    # nothing in a study needs hashlib's OpenSSL; the reference's DEBUG
    # record is built only once something has imported logging
    src = str(Path(reference_module.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, kbf, kbf.cli\n"
        "spec = kbf.ExperimentSpec(params=kbf.ModelParams(nu=1.0, eps_conv=1.0, eps_react=1.0),"
        " grid=kbf.make_grid(16, 0.0, 6.283185307179586),"
        " initial_condition=kbf.InitialConditionSpec(kind='paper'), t_final=0.5, axis=(4, 8))\n"
        "kbf.temporal_convergence_study(spec, quality='standard')\n"
        "print(sorted({'_hashlib', 'logging'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ----- coupling to the production scheme (sanity) -----

def test_reference_tracks_strang_error_scaling(full_params, grid256, sine_initial):
    # measured errors at each dt stay within 2x of the second-order
    # extrapolation from the finest run
    from kbf import SolveConfig, evolve

    sym = linear_symbol(full_params, grid256)
    ref = make_reference(sine_initial, full_params, sym, 1.0, quality="high")
    ns = (24, 96, 384)
    errors = []
    for n in ns:
        traj = evolve(sine_initial, full_params, SolveConfig(dt=1.0 / n, t_final=1.0))
        errors.append(error_norm(traj.final, ref))
    for n, err in zip(ns[:-1], errors[:-1]):
        estimate = errors[-1] * (ns[-1] / n) ** 2
        assert estimate / 2 <= err <= estimate * 2
