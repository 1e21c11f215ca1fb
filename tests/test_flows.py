import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbf import (
    ConfigError,
    GridMismatch,
    InitialConditionSpec,
    ModelParams,
    NegativeDuration,
    NonFiniteState,
    NonlinearFlowConfig,
    NormSpec,
    SpectralState,
    apply_linear,
    build_initial,
    build_propagator,
    linear_symbol,
    logistic_exact,
    make_grid,
    nonlinear_flow,
    nonlinear_rhs_spectral,
    norm,
    real_residue,
    rk4_step,
    to_physical,
    to_spectral,
)

TWO_PI = 2.0 * np.pi
FISHER = ModelParams(eps_react=1.0)


# ----- configuration -----

@pytest.mark.parametrize(
    "kwargs", [{"dealias": "foo"}, {"substeps": 0}, {"substeps": -2}, {"substeps": 1.5}]
)
def test_nonlinear_flow_config_rejects_bad_values(kwargs):
    # rejected when constructed, not at the first step with a bare ValueError
    with pytest.raises(ConfigError):
        NonlinearFlowConfig(**kwargs)


# ----- linear propagator -----

def test_propagator_identity_at_zero(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    prop = build_propagator(linear_symbol(full_params, g), 0.0)
    np.testing.assert_allclose(prop.factors, 1.0, atol=1e-15)


def test_propagator_heat_factor():
    g = make_grid(16, 0.0, TWO_PI)
    prop = build_propagator(linear_symbol(ModelParams(nu=1.0), g), 1.0)
    assert prop.factors[1] == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_propagator_full_params_half_second(full_params):
    # k=1 dispersion phases cancel for unit coefficients, leaving pure decay
    g = make_grid(16, 0.0, TWO_PI)
    prop = build_propagator(linear_symbol(full_params, g), 0.5)
    assert prop.factors[1] == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert abs(prop.factors[1]) == pytest.approx(np.exp(-0.5), rel=1e-14)


def test_propagator_modulus_bounded(rng, full_params):
    g = make_grid(64, 0.0, TWO_PI)
    prop = build_propagator(linear_symbol(full_params, g), float(rng.uniform(0, 3)))
    assert np.all(np.abs(prop.factors) <= 1.0 + 1e-15)
    assert prop.factors[0] == 1.0


def test_propagator_rejects_negative_duration(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    with pytest.raises(NegativeDuration):
        build_propagator(linear_symbol(full_params, g), -0.1)


def test_apply_linear_constant_unchanged(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(np.full(16, 0.7), g)
    prop = build_propagator(linear_symbol(full_params, g), 2.0)
    np.testing.assert_allclose(apply_linear(prop, s).coeffs, s.coeffs, atol=1e-14)


def test_apply_linear_heat_decay():
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(np.sin(g.points), g)
    prop = build_propagator(linear_symbol(ModelParams(nu=1.0), g), 1.0)
    expected = np.exp(-1.0) * np.sin(g.points)
    np.testing.assert_allclose(to_physical(apply_linear(prop, s)), expected, atol=1e-12)


def test_apply_linear_zero_duration_identity(rng, full_params):
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(rng.standard_normal(32), g)
    prop = build_propagator(linear_symbol(full_params, g), 0.0)
    np.testing.assert_array_equal(apply_linear(prop, s).coeffs, s.coeffs)


def test_apply_linear_grid_mismatch(full_params):
    prop = build_propagator(linear_symbol(full_params, make_grid(16, 0.0, TWO_PI)), 1.0)
    other = SpectralState(np.zeros(32), make_grid(32, 0.0, TWO_PI))
    with pytest.raises(GridMismatch):
        apply_linear(prop, other)


def test_linear_semigroup(rng, full_params):
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    s = to_spectral(rng.standard_normal(32), g)
    t1, t2 = 0.3, 0.45
    composed = apply_linear(build_propagator(sym, t1), apply_linear(build_propagator(sym, t2), s))
    direct = apply_linear(build_propagator(sym, t1 + t2), s)
    assert np.max(np.abs(composed.coeffs - direct.coeffs)) < 1e-12 * np.max(np.abs(direct.coeffs) + 1)


def test_apply_linear_sobolev_nonincrease(rng):
    g = make_grid(32, 0.0, TWO_PI)
    for _ in range(20):
        params = ModelParams(
            nu=float(rng.uniform(0.01, 2.0)),
            mu=float(rng.uniform(-2, 2)),
            gamma=float(rng.uniform(-2, 2)),
        )
        prop = build_propagator(linear_symbol(params, g), float(rng.uniform(0, 2)))
        s = to_spectral(rng.standard_normal(32), g)
        out = apply_linear(prop, s)
        for sidx in (0, 1, 2):
            spec = NormSpec("hs", sidx)
            assert norm(out, spec) <= norm(s, spec) * (1 + 1e-12)


@settings(max_examples=100)
@given(
    nu=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    mu=st.floats(-4.0, 4.0),
    gamma=st.floats(-4.0, 4.0),
    n=st.sampled_from([4, 6, 16, 64, 256, 1024]),
    length=st.floats(0.5, 100.0),
    t=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_flow_never_expands(nu, mu, gamma, n, length, t, seed):
    # Re(lambda_k) = -nu*kappa^2 <= 0, so no factor exceeds 1 in modulus (to an ulp
    # of abs) and the L2 norm cannot grow: the splitting loop relies on it when it
    # reports a non-finite state as an RK4 stage's fault
    g = make_grid(n, 0.0, length)
    s = to_spectral(np.random.default_rng(seed).standard_normal(n), g)
    prop = build_propagator(linear_symbol(ModelParams(nu=nu, mu=mu, gamma=gamma), g), t)
    assert norm(apply_linear(prop, s)) <= (1 + 4 * np.finfo(float).eps) * norm(s)


# ----- RK4 -----

def test_rk4_zero_dt_and_zero_rhs(rng, full_params):
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(rng.standard_normal(16), g)
    same = rk4_step(s, 0.0, lambda st: nonlinear_rhs_spectral(st, full_params))
    np.testing.assert_allclose(same.coeffs, s.coeffs, atol=1e-15)
    frozen = rk4_step(s, 0.3, lambda st: SpectralState(np.zeros(16), g))
    np.testing.assert_array_equal(frozen.coeffs, s.coeffs)


def test_rk4_logistic_one_step():
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(np.full(16, 0.5), g)
    out = rk4_step(s, 0.1, lambda st: nonlinear_rhs_spectral(st, FISHER))
    expected = logistic_exact(0.5, 1.0, 0.1)
    assert np.max(np.abs(to_physical(out) - expected)) < 1e-7


def test_rk4_signals_nonfinite():
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(np.ones(16), g)

    def bad(st):
        return SpectralState(np.full(16, np.inf, dtype=complex), g)

    with pytest.raises(NonFiniteState):
        rk4_step(s, 0.1, bad)


def test_rk4_fourth_order_on_logistic():
    # integrate to t=1; halving dt divides the error by ~16
    g = make_grid(8, 0.0, TWO_PI)
    exact = logistic_exact(0.5, 1.0, 1.0)
    errors = []
    for dt in (0.1, 0.05, 0.025):
        s = to_spectral(np.full(8, 0.5), g)
        for _ in range(round(1.0 / dt)):
            s = rk4_step(s, dt, lambda st: nonlinear_rhs_spectral(st, FISHER))
        errors.append(np.max(np.abs(to_physical(s) - exact)))
    for a, b in zip(errors[:-1], errors[1:]):
        assert 14.0 <= a / b <= 18.0


# ----- nonlinear flow -----

def test_nonlinear_flow_zero_state(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    out = nonlinear_flow(SpectralState(np.zeros(16), g), 0.7, full_params)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_nonlinear_flow_keeps_equilibrium_one(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(np.ones(16), g)
    out = nonlinear_flow(s, 0.5, full_params)
    assert np.max(np.abs(to_physical(out) - 1.0)) < 1e-12


def test_nonlinear_flow_logistic_quarter_step():
    # convection vanishes on constants, so the closed form applies
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0, eps_conv=3.0)
    s = to_spectral(np.full(16, 0.5), g)
    out = nonlinear_flow(s, 0.25, params, NonlinearFlowConfig(substeps=1))
    expected = logistic_exact(0.5, 1.0, 0.25)
    assert np.max(np.abs(to_physical(out) - expected)) < 5e-6


def test_nonlinear_flow_substep_mutual_convergence(full_params, grid256, sine_initial):
    # doubling the substep count converges at the integrator's fourth order
    dt = 0.1
    outs = {
        m: nonlinear_flow(sine_initial, dt, full_params, NonlinearFlowConfig(substeps=m))
        for m in (1, 2, 4)
    }
    d12 = norm(SpectralState(outs[1].coeffs - outs[2].coeffs, grid256))
    d24 = norm(SpectralState(outs[2].coeffs - outs[4].coeffs, grid256))
    assert 12.0 <= d12 / d24 <= 20.0


def test_flows_preserve_reality_over_100_steps(full_params):
    g = make_grid(32, 0.0, TWO_PI)
    s = build_initial(InitialConditionSpec(kind="paper"), g)
    sym = linear_symbol(full_params, g)
    prop = build_propagator(sym, 0.01)
    for _ in range(100):
        s = apply_linear(prop, s)
    assert real_residue(s.coeffs) < 1e-10
    s = build_initial(InitialConditionSpec(kind="paper"), g)
    for _ in range(100):
        s = nonlinear_flow(s, 0.01, full_params)
    assert real_residue(s.coeffs) < 1e-10
