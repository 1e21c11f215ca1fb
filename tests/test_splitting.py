import numpy as np
import pytest

from kbf import (
    BlowUp,
    ConfigError,
    InitialConditionSpec,
    ModelParams,
    NonlinearFlowConfig,
    NotRealRepresentable,
    SolveConfig,
    SpectralState,
    apply_linear,
    build_initial,
    build_propagator,
    error_norm,
    evolve,
    integrating_factor_rk4_solve,
    lie_trotter_step,
    linear_symbol,
    make_grid,
    nonlinear_flow,
    norm,
    real_residue,
    strang_step,
    to_physical,
    to_spectral,
)
from kbf import splitting
from helpers import assert_exactly_hermitian, full_spectrum_solve

TWO_PI = 2.0 * np.pi


# ----- configuration -----

def test_config_rejects_partial_steps():
    with pytest.raises(ConfigError):
        SolveConfig(dt=0.3, t_final=1.0)


def test_config_rejects_dt_above_t_final():
    with pytest.raises(ConfigError):
        SolveConfig(dt=2.0, t_final=1.0)


def test_config_rejects_unknown_scheme():
    with pytest.raises(ConfigError):
        SolveConfig(dt=0.5, t_final=1.0, scheme="yoshida")


def test_config_step_count():
    assert SolveConfig(dt=1.0 / 24, t_final=1.0).n_steps == 24


# ----- single steps -----

def test_strang_reduces_to_linear_flow_without_nonlinearity(grid256):
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
    sym = linear_symbol(params, grid256)
    s = build_initial(InitialConditionSpec(kind="paper"), grid256)
    stepped = strang_step(s, 0.1, params, sym)
    exact = apply_linear(build_propagator(sym, 0.1), s)
    assert np.max(np.abs(stepped.coeffs - exact.coeffs)) < 1e-13 * np.max(np.abs(exact.coeffs))


def test_strang_reduces_to_nonlinear_flow_on_constants():
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    sym = linear_symbol(params, g)
    s = to_spectral(np.full(16, 0.5), g)
    stepped = strang_step(s, 0.2, params, sym)
    flowed = nonlinear_flow(s, 0.2, params)
    assert np.max(np.abs(stepped.coeffs - flowed.coeffs)) < 1e-13 * np.max(np.abs(flowed.coeffs))


def test_strang_one_step_against_reference(full_params, grid256, sine_initial):
    dt = 1.0 / 24
    sym = linear_symbol(full_params, grid256)
    stepped = strang_step(sine_initial, dt, full_params, sym)
    assert real_residue(stepped.coeffs) < 1e-10
    ratio = norm(stepped) / norm(sine_initial)
    assert 0.5 <= ratio <= 2.0
    ref = integrating_factor_rk4_solve(sine_initial, full_params, sym, dt / 512, dt)
    assert error_norm(stepped, ref) < 5e-3


def test_lie_trotter_equals_linear_flow_without_nonlinearity(grid256):
    params = ModelParams(nu=1.0, mu=0.5, gamma=0.25)
    sym = linear_symbol(params, grid256)
    s = build_initial(InitialConditionSpec(kind="paper"), grid256)
    stepped = lie_trotter_step(s, 0.1, params, sym)
    exact = apply_linear(build_propagator(sym, 0.1), s)
    np.testing.assert_array_equal(stepped.coeffs, exact.coeffs)


def test_lie_trotter_preserves_equilibria(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    for c in (0.0, 1.0):
        s = to_spectral(np.full(16, c), g)
        out = lie_trotter_step(s, 0.25, full_params, sym)
        assert np.max(np.abs(to_physical(out) - c)) < 1e-12


# ----- evolve -----

def test_evolve_zero_state_stays_zero(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    traj = evolve(SpectralState(np.zeros(16), g), full_params, SolveConfig(dt=0.1, t_final=1.0))
    assert np.max(np.abs(traj.final.coeffs)) == 0.0
    assert traj.steps_taken == 10
    assert traj.times[-1] == 1.0


def test_evolve_heat_limit_matches_closed_form():
    # with no nonlinearity the splitting is exact for any dt
    g = make_grid(64, 0.0, TWO_PI)
    params = ModelParams(nu=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    traj = evolve(initial, params, SolveConfig(dt=0.1, t_final=1.0))
    exact = 0.5 + 0.25 * np.exp(-1.0) * np.sin(g.points)
    assert np.max(np.abs(to_physical(traj.final) - exact)) < 1e-10


def test_evolve_matches_repeated_strang_steps(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    dt = 1.0 / 8
    s = sine_initial
    for _ in range(8):
        s = strang_step(s, dt, full_params, sym)
    traj = evolve(sine_initial, full_params, SolveConfig(dt=dt, t_final=1.0))
    assert np.max(np.abs(traj.final.coeffs - s.coeffs)) < 1e-12 * np.max(np.abs(s.coeffs))


def test_equilibria_preserved_over_1000_steps(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    for c in (0.0, 1.0):
        initial = to_spectral(np.full(16, c), g)
        traj = evolve(initial, full_params, SolveConfig(dt=1e-3, t_final=1.0))
        assert np.max(np.abs(to_physical(traj.final) - c)) < 1e-10


def test_reality_preserved_over_100_steps(full_params, grid256, sine_initial):
    traj = evolve(sine_initial, full_params, SolveConfig(dt=1e-2, t_final=1.0))
    assert real_residue(traj.final.coeffs) < 1e-10


def test_evolve_determinism(full_params, grid256, sine_initial):
    cfg = SolveConfig(dt=1.0 / 16, t_final=1.0)
    a = evolve(sine_initial, full_params, cfg)
    b = evolve(sine_initial, full_params, cfg)
    assert a.final.coeffs.tobytes() == b.final.coeffs.tobytes()


def test_observer_and_snapshots(full_params, grid256, sine_initial):
    seen = []
    cfg = SolveConfig(dt=0.125, t_final=1.0, snapshot_stride=2)
    traj = evolve(sine_initial, full_params, cfg, observer=lambda k, t, s: seen.append((k, t)))
    assert [k for k, _ in seen] == [0, 2, 4, 6, 8]
    assert traj.times == tuple(t for _, t in seen)
    assert all(b > a for a, b in zip(traj.times[:-1], traj.times[1:]))
    assert traj.times[-1] == 1.0
    assert len(traj.states) == 5


def test_final_only_by_default(full_params, grid256, sine_initial):
    traj = evolve(sine_initial, full_params, SolveConfig(dt=0.25, t_final=1.0))
    assert traj.times == (1.0,)
    assert len(traj.states) == 1


def test_blow_up_raises_with_location():
    # logistic data below zero diverges in finite time (t* = ln 3 for c0 = -1/2)
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    initial = to_spectral(np.full(16, -0.5), g)
    with pytest.raises(BlowUp) as info:
        evolve(initial, params, SolveConfig(dt=0.05, t_final=2.0))
    assert 0 < info.value.step <= 40
    assert 0.0 < info.value.time <= 2.0


@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
def test_blow_up_trips_l2_guard_at_step_23(scheme):
    # logistic data c0 = -1/2 diverge at t* = ln 3; with dt = 0.05 the L2 cap
    # trips at step 23 (t = 1.15) for either scheme
    g = make_grid(16, 0.0, TWO_PI)
    initial = to_spectral(np.full(16, -0.5), g)
    cfg = SolveConfig(dt=0.05, t_final=2.0, scheme=scheme)
    with pytest.raises(BlowUp, match="L2 norm exploded") as info:
        evolve(initial, ModelParams(eps_react=1.0), cfg)
    assert info.value.step == 23


def test_blow_up_of_one_lane_trips_the_guard():
    # with dt = 1 the explicit RK4 substep goes unstable by step 4 (t = 4);
    # with dt = 1/2 the same solve stays bounded
    params = ModelParams(eps_conv=1.0, eps_react=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    healthy, unstable = SolveConfig(dt=0.5, t_final=4.0), SolveConfig(dt=1.0, t_final=4.0)
    evolve(initial, params, healthy)
    with pytest.raises(BlowUp, match="L2 norm exploded") as info:
        evolve(initial, params, unstable)
    assert info.value.step == 4
    with pytest.raises(BlowUp, match="L2 norm exploded"):
        splitting._march(initial, params, (healthy, unstable))


def test_blow_up_of_one_grid_of_a_block_trips_its_own_guard():
    # data -1e-9 grow like -1e-9*exp(t) and pass 1e6 times their norm at step 28
    # (t = 14), long before the logistic singularity near t = 20.7; each grid is
    # checked against its own initial norm, so the block names that step too
    params = ModelParams(eps_react=1.0)
    tiny = to_spectral(np.full(8, -1e-9), make_grid(8, 0.0, TWO_PI))
    paper = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    cfg = SolveConfig(dt=0.5, t_final=20.0)
    with pytest.raises(BlowUp, match="^L2 norm exploded$") as alone:
        evolve(tiny, params, cfg)
    for block in ((tiny, paper), (paper, tiny)):
        with pytest.raises(BlowUp, match="^L2 norm exploded$") as info:
            splitting._march(block, params, (cfg,))
        assert (info.value.step, info.value.time) == (alone.value.step, alone.value.time) == (28, 14.0)


@pytest.mark.parametrize("n", [4, 16, 256])
def test_guard_norm_of_a_half_spectrum_and_of_a_stack(rng, n):
    # one half-spectrum: the state's L2 norm; a stack: the lanes' norms combined
    g = make_grid(n, 0.0, TWO_PI)
    states = [to_spectral(rng.standard_normal(n), g) for _ in range(3)]
    halves = [splitting._real_half(s) for s in states]
    for half, state in zip(halves, states):
        assert splitting._half_l2(half, g) == pytest.approx(norm(state), rel=1e-14)
    combined = np.sqrt(sum(norm(s) ** 2 for s in states))
    assert splitting._half_l2(np.stack(halves), g) == pytest.approx(combined, rel=1e-14)


def test_overflowing_blow_up_is_reported_only_as_blow_up():
    # the norm overflows float64 at step 20; no RuntimeWarning may escape on
    # the way, which the suite's filter would raise in place of the BlowUp
    params = ModelParams(eps_conv=5.0, eps_react=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    with pytest.raises(BlowUp, match="^L2 norm exploded$") as info:
        evolve(initial, params, SolveConfig(dt=0.125, t_final=4.0))
    assert (info.value.step, info.value.time) == (20, 2.5)


def test_observer_runs_under_the_callers_error_state(full_params):
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    calls = []

    def observer(step, time, state):
        calls.append(step)
        np.float64(1e300) * np.float64(1e300)

    with pytest.warns(RuntimeWarning, match="overflow") as warned:
        evolve(initial, full_params, SolveConfig(0.25, 1.0, snapshot_stride=1), observer)
    assert calls == [0, 1, 2, 3, 4]
    assert len(warned) == len(calls)


def test_march_records_only_the_asked_steps_and_builds_once_per_finish(monkeypatch, full_params):
    builds = []

    class CountedStepper(splitting._Stepper):
        def __init__(self, grid, params, dts, *args):
            builds.append(len(dts))
            super().__init__(grid, params, dts, *args)

    monkeypatch.setattr(splitting, "_Stepper", CountedStepper)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    ladder = [SolveConfig(dt=0.5 / n, t_final=0.5) for n in (6, 3, 12)]
    assert set(splitting._march(initial, full_params, ladder)) == set(ladder)
    assert builds == [3, 2, 1]
    recorded = []
    splitting._march(
        initial, full_params, ladder[:1], lambda step, half: recorded.append(step), {0, 2, 5}
    )
    assert recorded == [0, 2, 5]


def test_local_defect_third_order_in_asymptotic_window(full_params, grid256, sine_initial):
    # one-step defect |Psi(dt) - Psi(dt/2)^2| decays at the local order 3 once
    # |lambda|*dt < 1 for the populated modes (dt below ~2^-7 here)
    sym = linear_symbol(full_params, grid256)
    dts = [2.0**-8, 2.0**-9, 2.0**-10]
    defects = []
    for dt in dts:
        one = strang_step(sine_initial, dt, full_params, sym)
        half = strang_step(
            strang_step(sine_initial, dt / 2, full_params, sym), dt / 2, full_params, sym
        )
        defects.append(error_norm(one, half))
    slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
    assert slope >= 2.7


# ----- the half-spectrum kernel -----

def _rich_initial(n):
    g = make_grid(n, 0.0, TWO_PI)
    x = g.points
    return to_spectral(0.5 + 0.25 * np.sin(x) + 0.1 * np.cos(3 * x) - 0.05 * np.sin(5 * x), g)


# the dense path's largest grid, and the FFT path's smallest even one
_DENSE_EDGE = [splitting._DENSE_MAX, splitting._DENSE_MAX + 2]


@pytest.mark.parametrize("n_modes", [16, 256, *_DENSE_EDGE])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
def test_kernel_matches_full_spectrum_composition(full_params, scheme, dealias, substeps, n_modes):
    initial = _rich_initial(n_modes)
    sym = linear_symbol(full_params, initial.grid)
    dt, n_steps = 1.0 / 64, 64
    cfg = SolveConfig(
        dt=dt,
        t_final=1.0,
        scheme=scheme,
        nonlinear_cfg=NonlinearFlowConfig(substeps=substeps, dealias=dealias),
    )
    ours = evolve(initial, full_params, cfg).final.coeffs
    ref = full_spectrum_solve(initial, full_params, sym, dt, n_steps, scheme, dealias, substeps)
    assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_modes", [8, 16, 64, splitting._DENSE_MAX])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
def test_dense_kernel_matches_fft_kernel(monkeypatch, full_params, scheme, dealias, substeps, n_modes):
    initial = _rich_initial(n_modes)
    cfg = SolveConfig(
        dt=1.0 / 256,
        t_final=1.0,
        scheme=scheme,
        nonlinear_cfg=NonlinearFlowConfig(substeps=substeps, dealias=dealias),
    )
    dense = evolve(initial, full_params, cfg).final.coeffs
    monkeypatch.setattr(splitting, "_DENSE_MAX", 0)
    fft = evolve(initial, full_params, cfg).final.coeffs
    assert np.max(np.abs(dense - fft)) <= 1e-13 * np.max(np.abs(fft))


@pytest.mark.parametrize("n_modes", [(8, 16, 32, 64), (8, splitting._DENSE_MAX)])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
def test_block_of_grids_matches_separate_solves(full_params, scheme, dealias, substeps, n_modes):
    initials = tuple(_rich_initial(n) for n in n_modes)
    cfg = SolveConfig(
        dt=1.0 / 256,
        t_final=1.0,
        scheme=scheme,
        nonlinear_cfg=NonlinearFlowConfig(substeps=substeps, dealias=dealias),
    )
    finals = splitting._march(initials, full_params, (cfg,))
    assert list(finals) == [initial.grid for initial in initials]
    for initial in initials:
        alone = evolve(initial, full_params, cfg).final.coeffs
        assert np.max(np.abs(finals[initial.grid].coeffs - alone)) <= 1e-13 * np.max(np.abs(alone))


@pytest.mark.parametrize("n_modes", [8, 64, splitting._DENSE_MAX])
def test_block_of_one_grid_is_the_single_grid_kernel_bit_for_bit(full_params, n_modes):
    initial = _rich_initial(n_modes)
    cfg = SolveConfig(dt=1.0 / 64, t_final=0.5, nonlinear_cfg=NonlinearFlowConfig(substeps=2))
    block = splitting._march((initial,), full_params, (cfg,))[initial.grid]
    assert np.array_equal(block.coeffs, evolve(initial, full_params, cfg).final.coeffs)


# ----- the equation's structure -----

@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("n_modes", [8, 64, 256])
def test_reaction_alone_is_the_logistic_rk4_at_every_point(n_modes, substeps):
    # without transport each grid value solves y' = eps_react*(y - y^2) on its own, and
    # RK4 on the spectrum is RK4 on the values: elementwise, each point's scalar RK4
    params = ModelParams(eps_react=0.75)
    initial = _rich_initial(n_modes)
    cfg = SolveConfig(dt=1.0 / 16, t_final=1.0, nonlinear_cfg=NonlinearFlowConfig(substeps))
    ours = to_physical(evolve(initial, params, cfg).final)

    def f(y):
        return params.eps_react * (y - y * y)

    y, h = to_physical(initial), cfg.dt / substeps
    for _ in range(cfg.n_steps * substeps):
        a = f(y)
        b = f(y + 0.5 * h * a)
        c = f(y + 0.5 * h * b)
        d = f(y + h * c)
        y = y + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
    assert np.max(np.abs(ours - y) / np.abs(y)) <= 1e-14


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("n_modes", [64, 256])
def test_without_reaction_the_mean_is_conserved_bit_for_bit(n_modes, scheme, dealias):
    # with eps_react = 0 every term is a derivative, so mode 0 never moves:
    # N = 64 runs the dense kernel, N = 256 the FFT one, and the ladder stacks lanes
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0)
    initial = _rich_initial(n_modes)
    flow = NonlinearFlowConfig(substeps=2, dealias=dealias)
    ladder = [SolveConfig(1.0 / n, 0.25, scheme, flow) for n in (64, 128, 256)]
    mean = initial.coeffs[0]
    assert evolve(initial, params, ladder[0]).final.coeffs[0] == mean
    finals = splitting._march(initial, params, ladder)
    assert [final.coeffs[0] for final in finals.values()] == [mean] * 3


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
def test_without_reaction_each_grid_of_a_block_keeps_its_mean_bit_for_bit(scheme, dealias):
    # a block sums each product over every grid's columns; the other grids' zero
    # entries must leave each grid's mode 0 exactly where it started
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0)
    initials = tuple(_rich_initial(n) for n in (8, 16, 32, 64))
    cfg = SolveConfig(1.0 / 64, 0.25, scheme, NonlinearFlowConfig(substeps=2, dealias=dealias))
    finals = splitting._march(initials, params, (cfg,))
    assert [finals[s.grid].coeffs[0] for s in initials] == [s.coeffs[0] for s in initials]


def test_outputs_are_exactly_hermitian(rng, full_params):
    ladder = [SolveConfig(dt=dt, t_final=0.25) for dt in (1.0 / 32, 1.0 / 16, 1.0 / 8)]
    for n in (16, 64, 256):
        g = make_grid(n, 0.0, TWO_PI)
        state = to_spectral(rng.standard_normal(n), g)
        assert_exactly_hermitian(state.coeffs)
        sym = linear_symbol(full_params, g)
        # a state that is real only to within rounding is projected at the boundary
        c = state.coeffs.copy()
        c[3] += 1e-12j
        nearly_real = SpectralState(c, g)
        cfg = SolveConfig(dt=1.0 / 32, t_final=0.25, snapshot_stride=4)
        for s in (state, nearly_real):
            for snap in evolve(s, full_params, cfg).states:
                assert_exactly_hermitian(snap.coeffs)
            assert_exactly_hermitian(strang_step(s, 0.01, full_params, sym).coeffs)
            assert_exactly_hermitian(lie_trotter_step(s, 0.01, full_params, sym).coeffs)
            assert_exactly_hermitian(nonlinear_flow(s, 0.01, full_params).coeffs)
            finals = splitting._march(s, full_params, ladder)
            assert set(finals) == set(ladder)
            for final in finals.values():
                assert_exactly_hermitian(final.coeffs)


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
def test_dense_kernel_outputs_are_exactly_hermitian(rng, full_params, dealias):
    for n in (8, 16, 64, splitting._DENSE_MAX):
        g = make_grid(n, 0.0, TWO_PI)
        state = to_spectral(0.5 + 0.1 * rng.standard_normal(n), g)
        sym = linear_symbol(full_params, g)
        flow = NonlinearFlowConfig(substeps=2, dealias=dealias)
        cfg = SolveConfig(dt=1.0 / 256, t_final=0.125, snapshot_stride=8, nonlinear_cfg=flow)
        for snap in evolve(state, full_params, cfg).states:
            assert_exactly_hermitian(snap.coeffs)
        assert_exactly_hermitian(strang_step(state, 0.01, full_params, sym, flow).coeffs)
        assert_exactly_hermitian(lie_trotter_step(state, 0.01, full_params, sym, flow).coeffs)
        assert_exactly_hermitian(nonlinear_flow(state, 0.01, full_params, flow).coeffs)


def test_non_real_input_is_rejected(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    c = np.zeros(16, dtype=complex)
    c[1] = 8.0  # exp(i*x) alone: complex grid values
    state = SpectralState(c, g)
    sym = linear_symbol(full_params, g)
    with pytest.raises(NotRealRepresentable):
        evolve(state, full_params, SolveConfig(dt=0.1, t_final=1.0))
    with pytest.raises(NotRealRepresentable):
        strang_step(state, 0.1, full_params, sym)
    with pytest.raises(NotRealRepresentable):
        lie_trotter_step(state, 0.1, full_params, sym)
    with pytest.raises(NotRealRepresentable):
        nonlinear_flow(state, 0.1, full_params)
