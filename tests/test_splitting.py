import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbf import (
    BlowUp,
    ConfigError,
    InitialConditionSpec,
    ModelParams,
    NonFiniteState,
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
from helpers import assert_exactly_hermitian, full_spectrum_solve, random_band_limited

TWO_PI = 2.0 * np.pi


def _lanes(initial, params, configs):
    """The loop of ``configs`` (same scheme and flow, one lane each) from ``initial``."""
    first = configs[0]
    lanes = splitting._Lanes(splitting._Splitting(initial, params, first.scheme, first.nonlinear_cfg))
    for cfg in configs:
        lanes.start(cfg.n_steps, cfg.dt)
    return lanes


def _finals(initial, params, configs):
    """``{config: final state}`` of ``configs`` solved as lanes of one loop."""
    lanes = _lanes(initial, params, configs)
    return {cfg: lanes.result(cfg.n_steps) for cfg in configs}


def _block(initials, params, cfg):
    """``{grid: final state}`` of the states ``initials`` solved by ``cfg`` as one block."""
    return dict(zip((s.grid for s in initials), _finals(initials, params, [cfg])[cfg]))


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
    # with dt = 1/2 the same solve stays bounded, alone or as a lane beside the unstable one
    params = ModelParams(eps_conv=1.0, eps_react=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    healthy, unstable = SolveConfig(dt=0.5, t_final=4.0), SolveConfig(dt=1.0, t_final=4.0)
    alone = evolve(initial, params, healthy).final
    with pytest.raises(BlowUp, match="L2 norm exploded") as info:
        evolve(initial, params, unstable)
    assert (info.value.step, info.value.time) == (4, 4.0)
    lanes = _lanes(initial, params, (healthy, unstable))
    with pytest.raises(BlowUp, match="^L2 norm exploded$") as info:
        lanes.result(unstable.n_steps)
    assert (info.value.step, info.value.time) == (4, 4.0)
    assert np.array_equal(lanes.result(healthy.n_steps).coeffs, alone.coeffs)


def test_a_ladder_keeps_every_lane_that_does_not_blow_up():
    # the 4-step lane blows up at its step 4; the 8- and 16-step lanes beside it
    # come back with their own solves' bits, from one pass of the loop
    params = ModelParams(eps_conv=1.0, eps_react=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    ladder = [SolveConfig(dt=4.0 / n, t_final=4.0) for n in (4, 8, 16)]
    lanes = _lanes(initial, params, ladder)
    with pytest.raises(BlowUp, match="^L2 norm exploded$") as info:
        lanes.result(4)
    assert (info.value.step, info.value.time) == (4, 4.0)
    with pytest.raises(BlowUp) as again:
        lanes.result(4)
    assert again.value is info.value
    for cfg in ladder[1:]:
        assert np.array_equal(lanes.result(cfg.n_steps).coeffs, evolve(initial, params, cfg).final.coeffs)
    assert lanes.started == [4, 8, 16]


def _outcome(solve):
    """``solve()``'s final coefficients, or its BlowUp's step, time and message."""
    try:
        return solve().coeffs
    except BlowUp as error:
        return (error.step, error.time, str(error))


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
def test_each_lane_of_a_stacked_fft_ladder_fails_or_finishes_as_its_own_solve(dealias):
    # without dissipation the coarse lanes of this ladder blow up on the FFT path
    # (with "none", the 8- and 16-step lanes at their steps 8 and 15); each lane
    # must still end as its own evolve does, with the same error or the same bits
    params = ModelParams(nu=0.0, mu=1.0, gamma=1.0, eps_conv=1.0, eps_react=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(256, 0.0, TWO_PI))
    ladder = [SolveConfig(1.0 / n, 1.0, nonlinear_cfg=NonlinearFlowConfig(dealias=dealias)) for n in (8, 16, 32)]
    lanes = _lanes(initial, params, ladder)
    for cfg in ladder:
        ours = _outcome(lambda: lanes.result(cfg.n_steps))
        alone = _outcome(lambda: evolve(initial, params, cfg).final)
        assert type(ours) is type(alone)
        assert ours == alone if isinstance(alone, tuple) else np.array_equal(ours, alone)


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
            _block(block, params, cfg)
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


def _exact_guard_passes(c, guards):
    """The per-grid guard: every entry finite, and each grid's norm under its own cap."""
    norms = [splitting._half_l2(c[..., part], grid) for part, grid, _ in guards]
    return bool(np.isfinite(c).all()) and all(n <= cap for n, (_, _, cap) in zip(norms, guards))


@settings(max_examples=100)
@given(
    sizes=st.lists(st.sampled_from([4, 8, 16, 64, 256]), min_size=1, max_size=4),
    lanes=st.integers(1, 4),
    length=st.sampled_from([TWO_PI, 1e-3, 1e3]),
    # 150: the caps' squares overflow; 160: the initial norms do; -160: their squares are subnormal
    start=st.one_of(st.integers(-200, 200), st.sampled_from([150, 160, -160]), st.none()),
    later=st.integers(-200, 200),
    bad=st.sampled_from([None, np.inf, -np.inf, np.nan]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_quick_guard_never_passes_a_state_the_exact_guard_fails(
    sizes, lanes, length, start, later, bad, real, seed
):
    # Initial half-spectra of magnitude 10**start, times up to 1e3 either way
    # per grid (None: zero, so the cap is 1e6*1e-300 and its square underflows),
    # set the caps.  The later states, a half-spectrum, a stack of lanes or a
    # block, are one random state at magnitude 10**later, with one bad entry or
    # none, and the same state at ratios to the caps around 1/sqrt(2), 1 and
    # sqrt(2), where the two checks part, and the largest lone inner mode of
    # each grid that passes the quick check.  A real spectrum (even data)
    # overflows vdot to inf, a complex one to NaN.  Norms overflow here as in
    # the lane loop.
    rng = np.random.default_rng(seed)
    grids = [make_grid(n, 0.0, length) for n in sizes]
    lanes = lanes if len(grids) == 1 else 1

    def draw(shape):
        return rng.standard_normal(shape) + 1j * (0.0 if real else rng.standard_normal(shape))

    scale = 0.0 if start is None else 10.0**start
    initial = [draw(g.n_modes // 2 + 1) * scale * 10.0 ** rng.uniform(-3, 3) for g in grids]
    c = np.concatenate([draw((lanes, g.n_modes // 2 + 1)) for g in grids], axis=-1)
    c = c[0] if lanes == 1 else c
    with np.errstate(over="ignore", invalid="ignore"):
        guards, quick = splitting._guards(initial, grids)
        (_, grid, cap), *rest = guards
        worst = max(splitting._half_l2(c[..., part], g) / cap for part, g, cap in guards)
        ratios = (1e-6, 0.7, 0.99, 1.01, 1.2, 1.4, 2.0) if 0.0 < worst < np.inf else ()
        states = [c * 10.0**later] + [c * (r / worst) for r in ratios]
        if bad is not None:
            states[0].flat[rng.integers(c.size)] = bad
        for part, _, _ in guards:
            # the largest lone inner mode of this grid that the quick check lets through
            states.append(np.zeros(c.shape[-1], dtype=complex))
            states[-1][part.start + 1] = np.nextafter(np.sqrt(quick), 0.0)
        for state in states:
            passes = np.vdot(state, state).real <= quick
            assert _exact_guard_passes(state, guards) or not passes
            if not rest and np.isfinite(state).all() and 1e-140 < cap < 1e140:
                # not vacuous: a state well under its cap passes
                assert passes or not splitting._half_l2(state, grid) <= 1e-3 * cap


@pytest.mark.parametrize("value", [0.0, 1.0])
@pytest.mark.parametrize("sizes", [(16,), (256,), (8, 16, 32)], ids=["dense", "fft", "block"])
def test_equilibria_stay_put_on_each_kernel_path(full_params, sizes, value):
    # y = 0 stays exactly 0; its cap is 1e6*1e-300, whose square underflows, so
    # only an exact 0 passes the quick guard.  y = 1 stays exactly 1 by FFT; a
    # dense product sums its rows' rounding, so there it holds to a few ulps.
    grids = [make_grid(n, 0.0, TWO_PI) for n in sizes]
    states = tuple(to_spectral(np.full(g.n_modes, value), g) for g in grids)
    halves = [splitting._real_half(state) for state in states]
    assert (splitting._guards(halves, grids)[1] == 0.0) == (value == 0.0)
    cfg = SolveConfig(dt=0.01, t_final=1.0)
    if len(grids) == 1:
        finals = {grids[0]: evolve(states[0], full_params, cfg).final}
    else:
        finals = _block(states, full_params, cfg)
    for grid, final in finals.items():
        y = to_physical(final)
        if value == 0.0 or grid.n_modes > splitting._DENSE_MAX:
            assert np.array_equal(y, np.full(grid.n_modes, value))
        else:
            assert np.max(np.abs(y - value)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("n", [16, 256])
def test_non_finite_step_is_reported_as_the_rk4_stage(full_params, n, scheme):
    # the paper profile times 1e160 overflows y^3 in the first RK4 stage, so the
    # first step turns the state NaN; no substep checks itself, the guard does
    g = make_grid(n, 0.0, TWO_PI)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    huge = SpectralState(initial.coeffs * 1e160, g)
    cfg = SolveConfig(dt=0.01, t_final=0.1, scheme=scheme)
    with pytest.raises(BlowUp, match="^RK4 stage produced non-finite values$") as info:
        evolve(huge, full_params, cfg)
    assert (info.value.step, info.value.time) == (1, 0.01)
    step = strang_step if scheme == "strang" else lie_trotter_step
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteState, match="^RK4 stage produced non-finite values$"):
            step(huge, 0.01, full_params, linear_symbol(full_params, g))
        with pytest.raises(NonFiniteState, match="^RK4 stage produced non-finite values$"):
            nonlinear_flow(huge, 0.01, full_params)


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


def test_lanes_record_only_the_asked_steps_and_build_once_per_change(full_params):
    # a stepper per set of running lanes, and each lane's weights once, when it starts
    builds, weights = [], []

    class CountedSplitting(splitting._Splitting):
        def weights(self, dt):
            weights.append(dt)
            return super().weights(dt)

        def stepper(self, rows):
            builds.append(np.size(rows[1]))
            return super().stepper(rows)

    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    lanes = splitting._Lanes(CountedSplitting(initial, full_params, "strang", NonlinearFlowConfig()))
    for n in (6, 3, 12):
        lanes.start(n, 0.5 / n)
    lanes.result(6)
    assert builds == [3, 2]
    lanes.start(3, 0.5 / 3)  # started already: no second lane
    lanes.start(24, 0.5 / 24)  # starts six steps after the others
    lanes.result(24)
    assert builds == [3, 2, 2, 1]
    assert weights == [0.5 / n for n in (6, 3, 12, 24)]
    assert lanes.started == [6, 3, 12, 24]
    recorded = []
    lanes = splitting._Lanes(splitting._Splitting(initial, full_params, "strang", NonlinearFlowConfig()))
    lanes.start(6, 0.5 / 6, lambda step, time, state: recorded.append((step, state)), range(0, 6, 2))
    final = lanes.result(6)
    assert [step for step, _ in recorded] == [0, 2, 4]
    cfg = SolveConfig(dt=0.5 / 6, t_final=0.5, snapshot_stride=2)
    for (_, state), expected in zip(recorded + [(6, final)], evolve(initial, full_params, cfg).states):
        assert np.array_equal(state.coeffs, expected.coeffs)


class _Limit(Exception):
    def __init__(self, step, time, why):
        super().__init__(why)
        self.step, self.time = step, time


class _Decay:
    """A toy kernel: each mode ``k`` of four scales exactly by ``exp((1 - k^2)*t)``.

    Mode 0 grows, so a lane fails, with its own ``_Limit``, once mode 0 passes
    ``limit``; the one reduction can pass nothing past it, as every mode counts.
    """

    rates = 1.0 - np.arange(4.0) ** 2
    start = np.array([1.0, 0.5j, -0.25, 2.0])
    limit = 5.0
    quick = limit**2
    error = _Limit

    def failures(self, c):
        return {i: f"mode 0 passed {self.limit}" for i, row in enumerate(np.atleast_2d(c))
                if abs(row[0]) > self.limit}

    def state(self, half):
        return half.copy()

    def weights(self, dt):
        return (np.exp(self.rates * dt),)

    def stepper(self, rows):
        (factors,) = rows
        return lambda c: factors * c


def test_lanes_run_any_kernel_on_its_own_start_checks_and_states():
    def alone(n, dt):
        return splitting._Lanes(_Decay()).run(n, dt)

    # lanes that start between steps keep the bits they get alone
    lanes = splitting._Lanes(_Decay())
    for n in (8, 16):
        lanes.start(n, 0.8 / n)
    assert np.array_equal(lanes.result(8), alone(8, 0.1))
    lanes.start(32, 0.8 / 32)
    for n in (32, 16):
        assert np.array_equal(lanes.result(n), alone(n, 0.8 / n))
    # a failing lane raises the kernel's own error while its neighbour runs on
    lanes = splitting._Lanes(_Decay())
    lanes.start(40, 0.1)
    lanes.start(50, 0.01)
    with pytest.raises(_Limit, match="^mode 0 passed 5.0$") as info:
        lanes.result(40)
    assert (info.value.step, info.value.time) == (17, 17 * 0.1)
    assert np.array_equal(lanes.result(50), alone(50, 0.01))
    # the observer sees (step, step*dt, state) at its steps, and the lane's result last
    seen = []
    lanes = splitting._Lanes(_Decay())
    lanes.start(8, 0.1, lambda *record: seen.append(record), range(0, 8, 3))
    lanes.start(5, 0.2)
    final = lanes.result(8)
    assert [(step, time) for step, time, _ in seen] == [(0, 0.0), (3, 3 * 0.1), (6, 6 * 0.1)]
    assert np.array_equal(seen[0][2], _Decay.start)
    for step, _, state in seen[1:]:
        assert np.array_equal(state, alone(step, 0.1))
    assert np.array_equal(final, alone(8, 0.1))


def test_a_step_count_restarted_with_another_dt_is_refused(full_params):
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, TWO_PI))
    lanes = _lanes(initial, full_params, [SolveConfig(dt=0.1, t_final=0.8)])
    first = lanes.result(8)
    with pytest.raises(ConfigError, match=r"^dt: a lane of 8 steps started with dt 0.1, not 0.2$"):
        lanes.run(8, 0.2)
    assert lanes.run(8, 0.1) is first
    fresh = _lanes(initial, full_params, [SolveConfig(dt=0.2, t_final=1.6)]).result(8)
    assert not np.array_equal(fresh.coeffs, first.coeffs)


@pytest.mark.parametrize("n_modes", [16, 256], ids=["dense", "fft"])
def test_the_one_step_wrappers_never_build_the_blow_up_guards(monkeypatch, full_params, n_modes):
    grid = make_grid(n_modes, 0.0, TWO_PI)
    state = build_initial(InitialConditionSpec(kind="paper"), grid)
    symbol = linear_symbol(full_params, grid)
    steps = {
        "strang": lambda: strang_step(state, 0.1, full_params, symbol),
        "lie_trotter": lambda: lie_trotter_step(state, 0.1, full_params, symbol),
        "nonlinear": lambda: nonlinear_flow(state, 0.1, full_params),
    }
    guarded = {name: step().coeffs for name, step in steps.items()}

    def refused(*args):
        pytest.fail("_guards was called")

    monkeypatch.setattr(splitting, "_guards", refused)
    for name, step in steps.items():
        assert np.array_equal(step().coeffs, guarded[name]), name


def test_the_lane_loop_names_nothing_of_the_splitting_kernel():
    source = inspect.getsource(splitting._Lanes)
    for name in ("_guards", "_half_l2", "_real_half", "_from_half", "BLOWUP_NORM_FACTOR", "cap", "initial"):
        assert not re.search(rf"\b{name}\b", source), name


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


_QUARTERS = st.integers(-4, 4).map(lambda q: q / 4.0)


@settings(max_examples=40)
@given(
    half_n=st.integers(4, splitting._DENSE_MAX // 2),
    nu=st.integers(1, 4).map(lambda q: q / 4.0),
    mu=_QUARTERS,
    gamma=_QUARTERS,
    eps_conv=_QUARTERS,
    eps_react=_QUARTERS,
    steps=st.integers(16, 128),
    scheme=st.sampled_from(["strang", "lie_trotter"]),
    dealias=st.sampled_from(["none", "two_thirds"]),
    substeps=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_kernel_matches_fft_kernel_on_fuzzed_runs(
    half_n, nu, mu, gamma, eps_conv, eps_react, steps, scheme, dealias, substeps, seed
):
    # data in [0, 1] with modes |k| <= min(4, N/4), and at least the steps that keep
    # the stiffness number |eps_conv|*max(y^2)*(N/2)*dt at 2 or below (ROADMAP item 2)
    n = 2 * half_n
    g = make_grid(n, 0.0, TWO_PI)
    values, _ = random_band_limited(np.random.default_rng(seed), g.points, min(4, n // 4))
    values = 0.5 + 0.5 * values / np.max(np.abs(values))
    steps = max(steps, int(np.ceil(abs(eps_conv) * np.max(values**2) * half_n / 2.0)))
    params = ModelParams(nu=nu, mu=mu, gamma=gamma, eps_conv=eps_conv, eps_react=eps_react)
    cfg = SolveConfig(1.0 / steps, 1.0, scheme, NonlinearFlowConfig(substeps=substeps, dealias=dealias))
    initial = to_spectral(values, g)
    dense = evolve(initial, params, cfg).final.coeffs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splitting, "_DENSE_MAX", 0)
        fft = evolve(initial, params, cfg).final.coeffs
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
    finals = _block(initials, full_params, cfg)
    assert list(finals) == [initial.grid for initial in initials]
    for initial in initials:
        alone = evolve(initial, full_params, cfg).final.coeffs
        assert np.max(np.abs(finals[initial.grid].coeffs - alone)) <= 1e-13 * np.max(np.abs(alone))


@pytest.mark.parametrize("n_modes", [8, 64, splitting._DENSE_MAX])
def test_block_of_one_grid_is_the_single_grid_kernel_bit_for_bit(full_params, n_modes):
    initial = _rich_initial(n_modes)
    cfg = SolveConfig(dt=1.0 / 64, t_final=0.5, nonlinear_cfg=NonlinearFlowConfig(substeps=2))
    block = _block((initial,), full_params, cfg)[initial.grid]
    assert np.array_equal(block.coeffs, evolve(initial, full_params, cfg).final.coeffs)


@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("n_modes", [16, splitting._DENSE_MAX, 256])
def test_each_lane_of_a_ladder_is_its_own_solve_bit_for_bit(
    full_params, n_modes, scheme, dealias, substeps
):
    # two lanes run together, then one alone, then a third starts eight steps
    # after them: on the dense path lanes take their products through np.matmul
    # and a lone solve through np.dot, which must round alike
    initial = _rich_initial(n_modes)
    flow = NonlinearFlowConfig(substeps=substeps, dealias=dealias)
    ladder = [SolveConfig(0.25 / n, 0.25, scheme, flow) for n in (8, 16, 32)]
    lanes = _lanes(initial, full_params, ladder[:2])
    lanes.result(8)
    lanes.start(32, ladder[2].dt)
    for cfg in ladder:
        assert np.array_equal(lanes.result(cfg.n_steps).coeffs, evolve(initial, full_params, cfg).final.coeffs)


@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("substeps", [1, 3])
@pytest.mark.parametrize(
    "sizes, lanes",
    [((16,), 1), ((8, 16, 32), 1), ((16,), 3), ((256,), 1)],
    ids=["dense", "block", "dense-lanes", "fft"],
)
def test_step_never_writes_its_input_or_an_earlier_result(full_params, sizes, lanes, substeps, scheme):
    # a step writes linear*c into a buffer of its own, on the dense path its first
    # stage row; neither the input nor a state the stepper returned may be that buffer
    states = [_rich_initial(n) for n in sizes]
    c = np.concatenate([splitting._real_half(state) for state in states])
    c = np.tile(c, (lanes, 1)) if lanes > 1 else c
    initial = tuple(states) if len(states) > 1 else states[0]
    kernel = splitting._Splitting(initial, full_params, scheme, NonlinearFlowConfig(substeps))
    rows = [kernel.weights(dt) for dt in [1.0 / 64, 1.0 / 32, 1.0 / 16][:lanes]]
    step = kernel.stepper(rows[0] if lanes == 1 else tuple(map(np.stack, zip(*rows))))
    given = c.copy()
    first = step(c)
    kept = first.copy()
    second = step(c)
    assert np.array_equal(c, given)
    assert np.array_equal(first, kept) and np.array_equal(second, kept)
    later = step(second)
    assert np.array_equal(second, kept) and np.array_equal(first, kept)
    assert not np.array_equal(later, kept)


@pytest.mark.parametrize("lanes", [1, 2, 6])
def test_fft_kernel_buffers_are_contiguous_blocks_of_lanes(full_params, lanes):
    # the FFT path keeps its transform buffers lanes inner, so every elementwise
    # product of its rhs runs on one contiguous (lanes, ·) block, not strided rows
    n = 256
    kernel = splitting._Splitting(_rich_initial(n), full_params, "strang", NonlinearFlowConfig())
    rows = [kernel.weights(1.0 / 2**i) for i in range(lanes)]
    kernel.stepper(rows[0] if lanes == 1 else tuple(map(np.stack, zip(*rows))))
    stack = (lanes,) if lanes > 1 else ()
    for name, width in [("y", n), ("cubes", n), ("squares", n), ("cubed", n // 2 + 1), ("squared", n // 2 + 1)]:
        buffer = getattr(kernel, name)
        assert buffer.shape == stack + (width,) and buffer.flags.c_contiguous, name
    if lanes == 1:
        assert (kernel.powers.shape, kernel.spectra.shape) == ((2, n), (2, n // 2 + 1))


# ----- the equation's structure -----

# N/2 up to the dense path's largest grid, then up to N = 256 by FFT
_HALF_SIZES = [(4, splitting._DENSE_MAX // 2), (splitting._DENSE_MAX // 2 + 1, 128)]


@pytest.mark.parametrize("half_sizes", _HALF_SIZES, ids=["dense", "fft"])
@settings(max_examples=40)
@given(data=st.data())
def test_translation_by_grid_points_commutes_with_evolve(half_sizes, data):
    # the scheme is translation invariant: shifting band-limited data by s grid
    # points and solving equals solving and shifting, to rounding, on either
    # kernel path; dt keeps the stiffness eps_conv*max(y^2)*k_max*dt at 2 or below
    n = 2 * data.draw(st.integers(*half_sizes), label="N/2")
    shift = data.draw(st.integers(1, n - 1), label="shift")
    coefficient = st.integers(-4, 4).map(lambda i: i / 4)
    params = ModelParams(
        nu=data.draw(st.integers(0, 4).map(lambda i: i / 4), label="nu"),
        mu=data.draw(coefficient, label="mu"),
        gamma=data.draw(coefficient, label="gamma"),
        eps_conv=data.draw(coefficient, label="eps_conv"),
        eps_react=data.draw(coefficient, label="eps_react"),
    )
    band = data.draw(st.integers(1, n // 8), label="band")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = make_grid(n, 0.0, TWO_PI)
    k = np.arange(1, band + 1)[:, None]
    amps = rng.uniform(-0.5, 0.5, (2, band, 1)) / band
    y = rng.uniform(-1.0, 1.0) + (amps[0] * np.cos(k * g.points) + amps[1] * np.sin(k * g.points)).sum(0)
    sigma = data.draw(st.floats(0.05, 2.0), label="sigma")
    dt = sigma / max(abs(params.eps_conv) * np.max(y * y) * (n // 2), 20.0)
    substeps = data.draw(st.sampled_from([1, 3]), label="substeps")
    flow = NonlinearFlowConfig(substeps, data.draw(st.sampled_from(["none", "two_thirds"])))
    steps = data.draw(st.integers(1, 4), label="steps")
    cfg = SolveConfig(dt, steps * dt, data.draw(st.sampled_from(["strang", "lie_trotter"])), flow)
    moved = np.roll(to_physical(evolve(to_spectral(y, g), params, cfg).final), shift)
    shifted = to_physical(evolve(to_spectral(np.roll(y, shift), g), params, cfg).final)
    assert np.max(np.abs(moved - shifted)) <= 1e-13 * np.max(np.abs(moved))


def _reflect(y):
    """The grid values of ``y(-x)``: point ``x_j`` goes to ``x_{-j}``."""
    return np.roll(y[::-1], 1)


@pytest.mark.parametrize("path", ["dense", "fft", "lanes", "block"])
@settings(max_examples=12)
@given(data=st.data())
def test_reflection_with_the_odd_coefficients_negated_commutes_with_a_solve(path, data):
    # x -> -x flips the sign of each odd derivative, so solving reflected data with
    # (mu, gamma, eps_conv) negated gives the reflected solution, to rounding: through
    # evolve on either kernel path, through stacked lanes and through a block of grids;
    # dt keeps the stiffness eps_conv*max(y^2)*k_max*dt at 2 or below
    if path == "block":
        sizes = data.draw(st.lists(st.sampled_from([8, 16, 24, 32, 64]), min_size=2, max_size=3,
                                   unique=True), label="sizes")
    else:
        half = {"dense": (4, splitting._DENSE_MAX // 2), "fft": (splitting._DENSE_MAX // 2 + 1, 128),
                "lanes": (4, 128)}[path]
        sizes = [2 * data.draw(st.integers(*half), label="N/2")]
    coefficient = st.integers(-4, 4).map(lambda i: i / 4)
    params = ModelParams(
        nu=data.draw(st.integers(0, 4).map(lambda i: i / 4), label="nu"),
        mu=data.draw(coefficient, label="mu"),
        gamma=data.draw(coefficient, label="gamma"),
        eps_conv=data.draw(coefficient, label="eps_conv"),
        eps_react=data.draw(coefficient, label="eps_react"),
    )
    mirrored = ModelParams(params.nu, -params.mu, -params.gamma, -params.eps_conv, params.eps_react)
    # band-limited data with both cosines and sines, so that it is no translate of its mirror image
    band = data.draw(st.integers(1, min(sizes) // 8), label="band")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    k = np.arange(1, band + 1)[:, None]
    mean, amps = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5, (2, band, 1)) / band
    grids = [make_grid(n, 0.0, TWO_PI) for n in sizes]
    values = [mean + (amps[0] * np.cos(k * g.points) + amps[1] * np.sin(k * g.points)).sum(0) for g in grids]
    sigma = data.draw(st.floats(0.05, 2.0), label="sigma")
    dt = sigma / max(abs(params.eps_conv) * np.max(values[0] ** 2) * (max(sizes) // 2), 20.0)
    flow = NonlinearFlowConfig(data.draw(st.sampled_from([1, 3]), label="substeps"),
                               data.draw(st.sampled_from(["none", "two_thirds"]), label="dealias"))
    steps = data.draw(st.integers(1, 4), label="steps")
    scheme = data.draw(st.sampled_from(["strang", "lie_trotter"]), label="scheme")
    ladder = [SolveConfig(dt * steps / n, dt * steps, scheme, flow) for n in (steps, 2 * steps, 3 * steps)]

    def solve(params, reflect):
        states = [to_spectral(_reflect(y) if reflect else y, g) for y, g in zip(values, grids)]
        if path == "block":
            finals = _block(tuple(states), params, ladder[0]).values()
        elif path == "lanes":
            finals = _finals(states[0], params, ladder).values()
        else:
            finals = [evolve(states[0], params, ladder[0]).final]
        return [to_physical(final) for final in finals]

    for ours, theirs in zip(solve(params, False), solve(mirrored, True), strict=True):
        assert np.max(np.abs(theirs - _reflect(ours))) <= 1e-13 * np.max(np.abs(ours))


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
@pytest.mark.parametrize("n_modes", [64, 256, (8, 16, 32)])
def test_without_reaction_the_mean_is_conserved_bit_for_bit(n_modes, scheme, dealias):
    # with eps_react = 0 every term is a derivative, so mode 0 never moves:
    # N = 64 runs the dense kernel, N = 256 the FFT one, (8, 16, 32) a block of
    # dense grids, and the ladder stacks lanes
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0)
    initials = tuple(_rich_initial(n) for n in np.atleast_1d(n_modes))
    flow = NonlinearFlowConfig(substeps=2, dealias=dealias)
    ladder = [SolveConfig(1.0 / n, 0.25, scheme, flow) for n in (64, 128, 256)]
    means = [initial.coeffs[0] for initial in initials]
    for initial in initials:
        assert evolve(initial, params, ladder[0]).final.coeffs[0] == initial.coeffs[0]
    block = len(initials) > 1
    for final in _finals(initials if block else initials[0], params, ladder).values():
        assert [s.coeffs[0] for s in (final if block else (final,))] == means


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
def test_without_reaction_each_grid_of_a_block_keeps_its_mean_bit_for_bit(scheme, dealias):
    # a block sums each product over every grid's columns; the other grids' zero
    # entries must leave each grid's mode 0 exactly where it started
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0)
    initials = tuple(_rich_initial(n) for n in (8, 16, 32, 64))
    cfg = SolveConfig(1.0 / 64, 0.25, scheme, NonlinearFlowConfig(substeps=2, dealias=dealias))
    finals = _block(initials, params, cfg)
    assert [finals[s.grid].coeffs[0] for s in initials] == [s.coeffs[0] for s in initials]


def _check_fuzzed_means(data, halves, band_max):
    """Reaction-free lanes on the grids ``N = 2*halves`` (one grid, or a block of them) keep
    each grid's mean bit for bit, from fuzzed coefficients, data, lanes and flows.

    ``dt`` keeps the stiffness ``eps_conv*max(y^2)*(N/2)*dt`` of the finest grid at 2 or below.
    """
    coefficient = st.integers(-4, 4).map(lambda i: i / 4)
    params = ModelParams(
        nu=data.draw(st.integers(0, 4).map(lambda i: i / 4), label="nu"),
        mu=data.draw(coefficient, label="mu"),
        gamma=data.draw(coefficient, label="gamma"),
        eps_conv=data.draw(coefficient, label="eps_conv"),
    )
    band = data.draw(st.integers(1, band_max), label="band")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    k = np.arange(1, band + 1)[:, None]
    amps = rng.uniform(-0.5, 0.5, (2, band, 1)) / band
    mean = rng.uniform(-1.0, 1.0)
    grids = [make_grid(2 * half, 0.0, TWO_PI) for half in halves]
    ys = [mean + (amps[0] * np.cos(k * g.points) + amps[1] * np.sin(k * g.points)).sum(0) for g in grids]
    initials = tuple(to_spectral(y, g) for y, g in zip(ys, grids))
    sigma = data.draw(st.floats(0.05, 2.0), label="sigma")
    dt = sigma / max(abs(params.eps_conv) * max(np.max(y * y) for y in ys) * max(halves), 20.0)
    flow = NonlinearFlowConfig(data.draw(st.sampled_from([1, 3]), label="substeps"),
                               data.draw(st.sampled_from(["none", "two_thirds"]), label="dealias"))
    scheme = data.draw(st.sampled_from(["strang", "lie_trotter"]), label="scheme")
    steps = data.draw(st.integers(1, 3), label="steps")
    ladder = [SolveConfig(dt / j, steps * dt, scheme, flow) for j in range(1, data.draw(st.integers(1, 4)) + 1)]
    block = len(halves) > 1
    for finals in _finals(initials if block else initials[0], params, ladder).values():
        assert [s.coeffs[0] for s in (finals if block else (finals,))] == [s.coeffs[0] for s in initials]


@settings(max_examples=20)
@given(data=st.data())
def test_without_reaction_stacked_fft_lanes_keep_the_mean_bit_for_bit(data):
    # the fixed cases above, fuzzed over the FFT path's grids
    _check_fuzzed_means(data, [data.draw(st.integers(splitting._DENSE_MAX // 2 + 1, 256), label="N/2")], 8)


@settings(max_examples=20)
@given(data=st.data())
def test_without_reaction_a_fuzzed_block_of_dense_grids_keeps_each_mean_bit_for_bit(data):
    # the fixed block cases above, fuzzed over blocks of 2-4 grids N = 8..64 in one _Splitting
    halves = data.draw(st.lists(st.integers(4, 32), min_size=2, max_size=4, unique=True), label="N/2")
    _check_fuzzed_means(data, halves, min(halves) // 2)


# t = 1 at dt = 1/576, far inside the stiffness bound, where RK4's own drift (1.3e-14
# at dt = 1/72) is below rounding: what is left at N = 8 is aliasing, 2.6e-12 measured
# (3.0e-12 as dt -> 0); from N = 12 on it is below rounding, at most 3.3e-16 measured
_DRIFT_BOUND = {8: 4e-12, 16: 2e-15, 64: 2e-15}


@pytest.mark.parametrize("path", ["dense", "fft"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("n_modes", sorted(_DRIFT_BOUND))
def test_dispersive_limit_keeps_the_l2_norm_to_its_aliasing_level(monkeypatch, path, scheme, n_modes):
    # with nu = eps_react = 0 both flows conserve the L2 norm: the linear flow exactly,
    # the convection up to RK4's error and the aliasing of its products
    if path == "fft":
        monkeypatch.setattr(splitting, "_DENSE_MAX", 0)
    params = ModelParams(nu=0.0, mu=1.0, gamma=1.0, eps_conv=1.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(n_modes, 0.0, TWO_PI))
    final = evolve(initial, params, SolveConfig(1.0 / 576, 1.0, scheme)).final
    assert abs(norm(final) - norm(initial)) <= _DRIFT_BOUND[n_modes] * norm(initial)


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
            finals = _finals(s, full_params, ladder)
            assert set(finals) == set(ladder)
            for final in finals.values():
                assert_exactly_hermitian(final.coeffs)


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
def test_dense_kernel_outputs_are_exactly_hermitian(rng, full_params, dealias):
    flow = NonlinearFlowConfig(substeps=2, dealias=dealias)
    ladder = [SolveConfig(dt, 0.125, nonlinear_cfg=flow) for dt in (1.0 / 256, 1.0 / 128, 1.0 / 64)]
    states = []
    for n in (8, 16, 64, splitting._DENSE_MAX):
        g = make_grid(n, 0.0, TWO_PI)
        state = to_spectral(0.5 + 0.1 * rng.standard_normal(n), g)
        sym = linear_symbol(full_params, g)
        cfg = SolveConfig(dt=1.0 / 256, t_final=0.125, snapshot_stride=8, nonlinear_cfg=flow)
        for snap in evolve(state, full_params, cfg).states:
            assert_exactly_hermitian(snap.coeffs)
        assert_exactly_hermitian(strang_step(state, 0.01, full_params, sym, flow).coeffs)
        assert_exactly_hermitian(lie_trotter_step(state, 0.01, full_params, sym, flow).coeffs)
        assert_exactly_hermitian(nonlinear_flow(state, 0.01, full_params, flow).coeffs)
        for final in _finals(state, full_params, ladder).values():
            assert_exactly_hermitian(final.coeffs)
        states.append(state)
    # the grids up to 64 as one block, alone and with its lanes stacked
    for lanes in (ladder[:1], ladder):
        for finals in _finals(tuple(states[:3]), full_params, lanes).values():
            for final in finals:
                assert_exactly_hermitian(final.coeffs)


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
