import math
import os
import signal
import threading
from collections import OrderedDict

import numpy as np
import pytest

import kbf.harness as harness_module
import kbf.reference as reference_module
from kbf import splitting
from kbf import (
    BlowUp,
    ConfigError,
    ExperimentSpec,
    FileFormatError,
    GridMismatch,
    InitialConditionSpec,
    ModelParams,
    NonlinearFlowConfig,
    NonPositiveError,
    SolveConfig,
    build_initial,
    error_norm,
    evolve,
    make_grid,
    observed_order,
    report_from_csv,
    report_from_text,
    report_to_csv,
    report_to_text,
    spatial_convergence_study,
    temporal_convergence_study,
    to_spectral,
)

TWO_PI = 2.0 * np.pi


# ----- order estimation -----

def test_observed_order_simple():
    assert observed_order([4.0, 1.0]) == [2.0]
    assert observed_order([8.0, 4.0, 2.0]) == [1.0, 1.0]


def test_observed_order_recovers_synthetic_power_law():
    ns = np.array([10, 20, 40, 80], dtype=float)
    p = 2.37
    errors = 5.0 * ns**-p
    for order in observed_order(errors):
        assert order == pytest.approx(p, abs=1e-12)


def test_observed_order_other_refinement_factor():
    errors = [27.0, 1.0]
    assert observed_order(errors, refinement_factor=3.0) == [3.0]


def test_observed_order_rejects_bad_input():
    with pytest.raises(NonPositiveError):
        observed_order([1.0])
    with pytest.raises(NonPositiveError):
        observed_order([1.0, 0.0])


@pytest.mark.parametrize("factor", [1.0, 1, 0.0, -2.0, math.nan, math.inf, "2"])
def test_observed_order_rejects_bad_refinement_factor(factor):
    with pytest.raises(ConfigError) as info:
        observed_order([4.0, 1.0], refinement_factor=factor)
    assert info.value.key == "refinement_factor"


# ----- error norm -----

def test_error_norm_identical_states(rng):
    g = make_grid(16, 0.0, TWO_PI)
    s = to_spectral(rng.standard_normal(16), g)
    assert error_norm(s, s) == 0.0


def test_error_norm_constant_offset():
    g = make_grid(64, 0.0, TWO_PI)
    a = to_spectral(np.full(64, 0.6), g)
    b = to_spectral(np.full(64, 0.5), g)
    assert error_norm(a, b) == pytest.approx(0.1 * np.sqrt(TWO_PI), rel=1e-12)


def test_error_norm_cross_grid_band_limited():
    coarse = make_grid(32, 0.0, TWO_PI)
    fine = make_grid(256, 0.0, TWO_PI)
    f = lambda x: 0.2 + 0.3 * np.sin(2 * x) - 0.1 * np.cos(5 * x)
    a = to_spectral(f(coarse.points), coarse)
    b = to_spectral(f(fine.points), fine)
    assert error_norm(a, b) < 1e-12


def test_error_norm_interpolation_disabled():
    a = to_spectral(np.zeros(16), make_grid(16, 0.0, TWO_PI))
    b = to_spectral(np.zeros(32), make_grid(32, 0.0, TWO_PI))
    with pytest.raises(GridMismatch):
        error_norm(a, b, allow_interpolation=False)


def test_error_norm_different_domains_rejected():
    a = to_spectral(np.zeros(16), make_grid(16, 0.0, TWO_PI))
    b = to_spectral(np.zeros(32), make_grid(32, 0.0, np.pi))
    with pytest.raises(GridMismatch):
        error_norm(a, b)


# ----- studies -----

def _study_spec(full_params, grid256, axis, scheme="strang"):
    return ExperimentSpec(
        params=full_params,
        grid=grid256,
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=1.0,
        scheme=scheme,
        axis=axis,
    )


def test_temporal_study_exact_when_linear(grid256):
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
    spec = ExperimentSpec(
        params=params,
        grid=grid256,
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=1.0,
        axis=(10, 20, 40),
    )
    report = temporal_convergence_study(spec, quality="standard")
    assert max(report.errors) <= 1e-10
    assert report.orders == ()  # below the order floor


def test_temporal_study_canonical_orders(full_params, grid256):
    report = temporal_convergence_study(
        _study_spec(full_params, grid256, (12, 24, 48, 96, 192, 384))
    )
    assert len(report.orders) == 5
    for order in report.orders:
        assert 1.85 <= order <= 2.15
    # errors decrease monotonically along the ladder
    for a, b in zip(report.errors[:-1], report.errors[1:]):
        assert b < a


def test_dealiased_temporal_study_is_second_order():
    # the reference must dealias as the Strang run does, or every error is the
    # distance between two semi-discrete problems (6.3e-2 here, order 0)
    spec = ExperimentSpec(
        params=ModelParams(nu=0.1, eps_conv=1.0, eps_react=1.0),
        grid=make_grid(16, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(
            kind="mode", mode_k=3, mode_amp=0.4, mode_offset=0.5
        ),
        t_final=0.5,
        axis=(16, 32, 64, 128, 256),
        nonlinear_cfg=NonlinearFlowConfig(dealias="two_thirds"),
    )
    report = temporal_convergence_study(spec, quality="standard")
    assert len(report.orders) == 4
    for order in report.orders:
        assert 1.9 <= order <= 2.1


def test_temporal_study_lie_trotter_first_order(full_params, grid256):
    report = temporal_convergence_study(
        _study_spec(full_params, grid256, (12, 24, 48, 96, 192, 384), scheme="lie_trotter")
    )
    for order in report.orders:
        assert 0.8 <= order <= 1.2


def test_spatial_study_band_limited_ic(full_params, grid256):
    spec = _study_spec(full_params, grid256, (8, 16, 32))
    report = spatial_convergence_study(spec)
    errs = report.errors
    for a, b in zip(errs[:-1], errs[1:]):
        if a > 1e-10:
            assert a / b >= 10.0
    assert errs[-1] < 1e-10


def test_spatial_study_heat_only(grid256):
    # single-mode dynamics: already exact at N=8
    spec = ExperimentSpec(
        params=ModelParams(nu=1.0),
        grid=grid256,
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=1.0,
        axis=(8,),
    )
    report = spatial_convergence_study(spec)
    assert report.errors[0] <= 1e-10


def test_unknown_scheme_rejected_before_the_reference_is_made(monkeypatch, full_params):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference was made before the scheme was checked")

    monkeypatch.setattr(harness_module, "make_reference", no_reference)
    grid = make_grid(64, 0.0, TWO_PI)
    with pytest.raises(ConfigError) as info:
        temporal_convergence_study(_study_spec(full_params, grid, (12, 24), scheme="yoshida"))
    assert info.value.key == "scheme"


@pytest.mark.parametrize("study", [temporal_convergence_study, spatial_convergence_study])
def test_repeated_axis_value_rejected_before_any_solve(monkeypatch, full_params, study):
    def no_run(*args, **kwargs):
        raise AssertionError("a solve ran before the axis was checked")

    monkeypatch.setattr(harness_module, "make_reference", no_run)
    monkeypatch.setattr(harness_module, "evolve", no_run)
    monkeypatch.setattr(harness_module, "_Lanes", no_run)
    grid = make_grid(64, 0.0, TWO_PI)
    with pytest.raises(ConfigError) as info:
        study(_study_spec(full_params, grid, (20, 20)))
    assert info.value.key == "axis"


@pytest.mark.parametrize("quality", ["bogus", 3])
def test_bad_quality_rejected_before_any_fork_or_solve(monkeypatch, full_params, grid256, quality):
    # Table 1's shape forks its ladder beside an uncached reference
    def no_run(*args, **kwargs):
        raise AssertionError("a child or a solve started before the quality was checked")

    for module, name in ((os, "fork"), (harness_module, "make_reference"), (harness_module, "_Lanes")):
        monkeypatch.setattr(module, name, no_run)
    spec = _study_spec(full_params, grid256, (12, 24, 48, 96, 192, 384))
    with pytest.raises(ConfigError) as info:
        temporal_convergence_study(spec, quality=quality)
    assert info.value.key == "quality"


def test_spatial_study_rejects_reference_collision(full_params, grid256):
    spec = _study_spec(full_params, grid256, (8, 256))
    with pytest.raises(ValueError):
        spatial_convergence_study(spec)


def test_study_determinism(full_params, grid256):
    spec = _study_spec(full_params, grid256, (24, 48))
    a = temporal_convergence_study(spec)
    b = temporal_convergence_study(spec)
    assert a == b
    assert report_to_csv(a) == report_to_csv(b)


def test_orders_use_the_axis_ratios(full_params):
    # a tripling ladder: each order divides by log(a_{i+1}/a_i) = log 3, not log 2
    grid = make_grid(64, 0.0, TWO_PI)
    report = temporal_convergence_study(_study_spec(full_params, grid, (12, 36, 108)))
    errs = report.errors
    assert report.orders == (math.log(errs[0] / errs[1]) / math.log(3.0),
                             math.log(errs[1] / errs[2]) / math.log(3.0))
    assert report.orders == pytest.approx((1.5673, 2.5050), abs=1e-4)


def test_single_axis_value_has_no_orders(full_params):
    grid = make_grid(64, 0.0, TWO_PI)
    report = temporal_convergence_study(_study_spec(full_params, grid, (40,)), quality="standard")
    assert report.errors[0] > harness_module.ORDER_FLOOR
    assert report.orders == ()


def _logistic_blow_up_spec(axis):
    # logistic data c0 = -1/2 diverge at t* = ln 3; with dt = 0.05 the L2 cap
    # trips at step 23 (t = 1.15)
    return ExperimentSpec(
        params=ModelParams(eps_react=1.0),
        grid=make_grid(16, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="constant", c=-0.5),
        t_final=2.0,
        axis=axis,
    )


def test_temporal_blow_up_names_its_axis_value(monkeypatch):
    monkeypatch.setattr(harness_module, "make_reference", lambda initial, *args, **kw: initial)
    # with two lanes both blow up, and the error still names the smaller step count
    for axis in ((40,), (80, 40)):
        with pytest.raises(BlowUp, match="^blow-up at axis value 40: L2 norm exploded$") as info:
            temporal_convergence_study(_logistic_blow_up_spec(axis))
        assert info.value.step == 23
        assert info.value.time == pytest.approx(1.15)


def test_temporal_blow_up_of_the_coarsest_lane_alone_names_it(monkeypatch):
    monkeypatch.setattr(harness_module, "make_reference", lambda initial, *args, **kw: initial)
    # only 4 steps of dt = 1 go unstable; the lanes of 8 and 16 steps stay bounded
    spec = ExperimentSpec(
        params=ModelParams(eps_conv=1.0, eps_react=1.0),
        grid=make_grid(16, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=4.0,
        axis=(16, 4, 8),
    )
    with pytest.raises(BlowUp, match="^blow-up at axis value 4: L2 norm exploded$") as info:
        temporal_convergence_study(spec)
    assert (info.value.step, info.value.time) == (4, 4.0)


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("n_modes", [64, 256])
def test_temporal_ladder_matches_separate_solves(
    monkeypatch, full_params, n_modes, scheme, substeps, dealias
):
    # N = 64 runs the dense kernel, N = 256 the FFT one
    flow = NonlinearFlowConfig(substeps=substeps, dealias=dealias)
    spec = ExperimentSpec(
        params=full_params,
        grid=make_grid(n_modes, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=0.5,
        scheme=scheme,
        nonlinear_cfg=flow,
        axis=(12, 3, 6),
    )
    initial = build_initial(spec.initial_condition, spec.grid)
    expected = tuple(
        error_norm(
            evolve(initial, full_params, SolveConfig(0.5 / n, 0.5, scheme, flow)).final, initial
        )
        for n in (3, 6, 12)
    )
    monkeypatch.setattr(harness_module, "make_reference", lambda initial, *args, **kw: initial)

    def separate_solve(*args, **kwargs):
        raise AssertionError("a healthy study solves its step counts as one ladder")

    monkeypatch.setattr(harness_module, "evolve", separate_solve)
    assert temporal_convergence_study(spec).errors == expected


def test_spatial_blow_up_on_the_finest_grid_names_it():
    with pytest.raises(BlowUp, match="^blow-up at axis value 16: L2 norm exploded$") as info:
        spatial_convergence_study(_logistic_blow_up_spec((8,)), dt=0.05)
    assert info.value.step == 23
    assert info.value.time == pytest.approx(1.15)


def test_spatial_blow_up_inside_the_block_names_its_grid(monkeypatch):
    # only N = 8 gets the logistic data c0 = -1/2; the other grids of the block,
    # and the finest, get the paper profile, which stays bounded
    spec = ExperimentSpec(
        params=ModelParams(eps_react=1.0),
        grid=make_grid(64, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=2.0,
        axis=(32, 8, 16),
    )
    logistic = InitialConditionSpec(kind="constant", c=-0.5)

    def initial_for(ic, grid):
        return build_initial(logistic if grid.n_modes == 8 else ic, grid)

    with pytest.raises(BlowUp) as alone:
        evolve(initial_for(logistic, make_grid(8, 0.0, TWO_PI)), spec.params, SolveConfig(0.05, 2.0))
    monkeypatch.setattr(harness_module, "build_initial", initial_for)
    with pytest.raises(BlowUp, match="^blow-up at axis value 8: L2 norm exploded$") as info:
        spatial_convergence_study(spec, dt=0.05)
    assert (info.value.step, info.value.time) == (alone.value.step, alone.value.time)
    assert info.value.step == 23
    assert info.value.time == pytest.approx(1.15)


def test_spatial_study_solves_its_coarse_grids_as_one_block(monkeypatch, full_params):
    # shaped like the benchmark's spatial workload: one stepper for the finest
    # grid, then one for the block of every coarse grid
    builds = []

    stepper = splitting._Splitting.stepper

    def counted(kernel, rows):
        builds.append(tuple(grid.n_modes for _, grid in kernel.parts))
        return stepper(kernel, rows)

    monkeypatch.setattr(splitting._Splitting, "stepper", counted)
    spec = _study_spec(full_params, make_grid(128, 0.0, TWO_PI), (8, 16, 32, 64))
    report = spatial_convergence_study(spec, dt=1.0 / 8)
    assert builds == [(128,), (8, 16, 32, 64)]
    assert report.axis == (8, 16, 32, 64)


# ----- the two halves of a study, one in a forked child -----

@pytest.fixture
def forks(monkeypatch):
    """Every ``os.fork`` call, counted in this process; the reference cache starts empty."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# each shape's forked half is worth a fork (_fork_pays); N = 256 steps by FFT, N <= 128 densely
FORKED_SHAPES = {
    "temporal_fft": (temporal_convergence_study, 256, (12, 24, 48, 96), {"quality": "standard"}),
    "temporal_dense": (temporal_convergence_study, 128, (12, 24, 48, 96, 192), {"quality": "standard"}),
    "spatial_block": (spatial_convergence_study, 128, (8, 16, 32, 64), {"dt": 1.0 / 192}),
}


@pytest.mark.parametrize("dealias", ["none", "two_thirds"])
@pytest.mark.parametrize("scheme", ["strang", "lie_trotter"])
@pytest.mark.parametrize("shape", sorted(FORKED_SHAPES))
def test_forked_half_gives_the_inline_bits(monkeypatch, forks, full_params, shape, scheme, dealias):
    study, n_modes, axis, kwargs = FORKED_SHAPES[shape]
    spec = ExperimentSpec(
        params=full_params,
        grid=make_grid(n_modes, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=1.0,
        scheme=scheme,
        axis=axis,
        nonlinear_cfg=NonlinearFlowConfig(dealias=dealias),
    )
    forked = study(spec, **kwargs).errors
    assert forks == [os.getpid()]
    _assert_no_child_left()
    monkeypatch.setattr(harness_module, "_FORK_MIN", math.inf)
    inline = study(spec, **kwargs).errors
    assert len(forks) == 1
    assert [e.hex() for e in forked] == [e.hex() for e in inline]


def test_studies_shaped_like_the_benchmark_fork(forks, full_params):
    table1 = _study_spec(full_params, make_grid(256, 0.0, TWO_PI), (12, 24, 48, 96, 192, 384))
    temporal_convergence_study(table1)
    assert len(forks) == 1
    spatial = _study_spec(full_params, make_grid(128, 0.0, TWO_PI), (8, 16, 32, 64))
    spatial_convergence_study(spatial, dt=1.0 / 2048)
    assert len(forks) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["raises", "signal", "no_data", "fork_error"])
def test_a_failed_child_leaves_the_work_to_the_caller(monkeypatch, failure):
    parent = os.getpid()
    order = []

    def work():
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("in the child")
            if failure == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(0)  # a clean exit that sent nothing
        order.append("work")
        return "inline"

    def own():
        order.append("own")
        return "own"

    if failure == "fork_error":
        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", fork)
    assert harness_module._beside(work, own, True) == ("inline", "own")
    assert order == ["own", "work"]
    _assert_no_child_left()


def test_beside_returns_the_child_result():
    parent = os.getpid()
    assert harness_module._beside(os.getpid, lambda: "own", True)[0] != parent
    _assert_no_child_left()


def test_spatial_blow_up_in_a_forked_block_names_its_grid(monkeypatch, forks):
    # test_spatial_blow_up_inside_the_block_names_its_grid, with the block in a child
    monkeypatch.setattr(harness_module, "_FORK_MIN", -math.inf)
    spec = ExperimentSpec(
        params=ModelParams(eps_react=1.0),
        grid=make_grid(64, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="paper"),
        t_final=2.0,
        axis=(32, 8, 16),
    )
    logistic = InitialConditionSpec(kind="constant", c=-0.5)

    def initial_for(ic, grid):
        return build_initial(logistic if grid.n_modes == 8 else ic, grid)

    monkeypatch.setattr(harness_module, "build_initial", initial_for)
    with pytest.raises(BlowUp, match="^blow-up at axis value 8: L2 norm exploded$") as info:
        spatial_convergence_study(spec, dt=0.05)
    assert len(forks) == 1
    assert info.value.step == 23
    assert info.value.time == pytest.approx(1.15)
    _assert_no_child_left()


def test_no_child_outlives_a_failed_reference(monkeypatch, forks, full_params):
    def failed(*args, **kwargs):
        raise ValueError("the reference failed")

    monkeypatch.setattr(harness_module, "make_reference", failed)
    spec = _study_spec(full_params, make_grid(256, 0.0, TWO_PI), (12, 24, 48, 96, 192, 384))
    with pytest.raises(ValueError, match="the reference failed"):
        temporal_convergence_study(spec)
    assert len(forks) == 1
    _assert_no_child_left()


def test_no_child_outlives_a_blow_up_on_the_finest_grid(monkeypatch, forks):
    monkeypatch.setattr(harness_module, "_FORK_MIN", -math.inf)
    spec = ExperimentSpec(
        params=ModelParams(eps_react=1.0),
        grid=make_grid(64, 0.0, TWO_PI),
        initial_condition=InitialConditionSpec(kind="constant", c=-0.5),
        t_final=2.0,
        axis=(8, 16, 32),
    )
    with pytest.raises(BlowUp, match="^blow-up at axis value 64: L2 norm exploded$"):
        spatial_convergence_study(spec, dt=0.05)
    assert len(forks) == 1
    _assert_no_child_left()


@pytest.mark.parametrize(
    "case", ["control", "one_cpu", "second_thread", "reference_cached", "below_the_size_constant"]
)
def test_a_study_forks_only_when_it_can_gain(monkeypatch, forks, full_params, case):
    grid = make_grid(64, 0.0, TWO_PI)
    spatial = _study_spec(full_params, grid, (8, 16, 32))
    temporal = _study_spec(full_params, grid, (12, 24, 48, 96, 192))  # a ladder of about 8 ms

    def study():
        if case == "reference_cached":
            return temporal_convergence_study(temporal, quality="standard")
        # block and finest grid of about 4 ms each below the break-even, 12 ms above it
        return spatial_convergence_study(spatial, dt=1.0 / (128 if case == "below_the_size_constant" else 384))

    if case == "control":
        study()
        assert len(forks) == 1
        return
    if case == "reference_cached":
        study()
        assert len(forks) == 1
    if case == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def refused():
        pytest.fail("the study forked")

    monkeypatch.setattr(os, "fork", refused)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    if case == "second_thread":
        thread.start()
    try:
        study()
    finally:
        release.set()
        if thread.is_alive():
            thread.join(10.0)
    assert not thread.is_alive()


# ----- report serialization -----

def test_report_round_trips(full_params, grid256):
    report = temporal_convergence_study(_study_spec(full_params, grid256, (24, 48, 96)))
    assert report_from_csv(report_to_csv(report)) == report
    assert report_from_text(report_to_text(report)) == report


def test_spatial_report_round_trips(full_params, grid256):
    report = spatial_convergence_study(_study_spec(full_params, grid256, (8, 16)))
    assert report_from_csv(report_to_csv(report)) == report
    assert report_from_text(report_to_text(report)) == report


def _report_texts(rows, norm="l2"):
    """The same hand-written report as CSV and as structured text."""
    meta = ["study = temporal", "t_final = 1", f"norm = {norm}"]
    csv = "\n".join([*(f"# {m}" for m in meta), "axis,dt_or_n,error,order", *(",".join(r) for r in rows)])
    text = "\n".join([*meta, "", "axis dt_or_n error order", *(" ".join(c or "-" for c in r) for r in rows)])
    return csv + "\n", text + "\n"


GOOD_ROWS = [("24", "0.5", "0.001", ""), ("48", "0.25", "0.00025", "2")]


def test_hand_written_report_parses():
    for text, parse in zip(_report_texts(GOOD_ROWS, "h2"), (report_from_csv, report_from_text)):
        report = parse(text)
        assert report.axis == (24, 48) and report.errors == (0.001, 0.00025)
        assert str(report.norm) == "h2"


@pytest.mark.parametrize(
    "rows,norm",
    [
        ([("abc", "0.5", "0.001", ""), GOOD_ROWS[1]], "l2"),  # non-numeric axis
        ([GOOD_ROWS[0], ("48", "0.25", "x", "2")], "l2"),  # non-numeric error
        ([GOOD_ROWS[1], GOOD_ROWS[0]], "l2"),  # non-increasing axis
        ([GOOD_ROWS[0], ("48", "0.25", "nan", "")], "l2"),  # non-finite error
        (GOOD_ROWS, "hx"),  # unknown norm
        # misplaced orders, which the writer would move to other rows
        ([("24", "0.5", "0.001", "7"), ("48", "0.25", "0.00025", "")], "l2"),  # on the first row
        ([("12", "1", "0.004", ""), *GOOD_ROWS], "l2"),  # missing before the last row
        ([GOOD_ROWS[0], ("48", "0.25", "0.00025", "nan")], "l2"),  # non-finite order
        ([GOOD_ROWS[0], ("48", "0.25", "0.00025", "inf")], "l2"),
    ],
)
def test_malformed_report_raises_file_format_error(rows, norm):
    csv, text = _report_texts(rows, norm)
    with pytest.raises(FileFormatError):
        report_from_csv(csv)
    with pytest.raises(FileFormatError):
        report_from_text(text)


def test_text_metadata_line_without_equals_raises():
    _, text = _report_texts(GOOD_ROWS)
    with pytest.raises(FileFormatError, match="bad metadata line"):
        report_from_text(text.replace("t_final = 1", "t_final 1"))


@pytest.mark.parametrize("row", ["24,0.5 0.001 -", "# 24 0.5 0.001 -"])
def test_text_table_row_in_csv_form_raises(row):
    _, text = _report_texts(GOOD_ROWS)
    with pytest.raises(FileFormatError, match="bad table row"):
        report_from_text(text.replace("24 0.5 0.001 -", row))
