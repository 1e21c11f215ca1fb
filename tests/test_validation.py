"""Bad input fails where it is constructed, with a keyed KbfError that is also a ValueError."""

import math

import numpy as np
import pytest

from kbf import (
    ConfigError,
    ConvergenceReport,
    DimensionMismatch,
    ExperimentSpec,
    InitialConditionSpec,
    InvalidGrid,
    KbfError,
    ModelParams,
    NegativeDuration,
    NonlinearFlowConfig,
    NormSpec,
    SolveConfig,
    SpectralState,
    ValidationError,
    build_propagator,
    dealias_mask,
    derivative,
    integrating_factor_rk4_solve,
    linear_exact_solution,
    linear_symbol,
    make_grid,
    make_reference,
    nonlinear_flow,
    nonlinear_rhs_physical,
    nonlinear_rhs_spectral,
    norm,
    rk4_step,
    spatial_convergence_study,
    strang_step,
    to_spectral,
)
from kbf.cli import RunConfig

G16 = make_grid(16, 0.0, 2.0 * np.pi)
STATE = to_spectral(0.5 + 0.25 * np.sin(G16.points), G16)
PARAMS = ModelParams(nu=1.0, eps_react=1.0)
SYMBOL = linear_symbol(PARAMS, G16)


def _spec(axis, t_final=1.0, **kwargs):
    return ExperimentSpec(
        params=PARAMS, grid=G16, initial_condition=InitialConditionSpec(), t_final=t_final,
        axis=axis, **kwargs,
    )


CASES = {
    "params_nu_sign": (lambda: ModelParams(nu=-1.0), "nu"),
    "params_gamma_inf": (lambda: ModelParams(gamma=math.inf), "gamma"),
    "params_eps_react_nan": (lambda: ModelParams(eps_react=math.nan), "eps_react"),
    "params_nu_str": (lambda: ModelParams(nu="1"), "nu"),
    "grid_odd": (lambda: make_grid(5, 0.0, 1.0), "n_modes"),
    "grid_n_modes_str": (lambda: make_grid("16", 0.0, 1.0), "n_modes"),
    "grid_n_modes_float": (lambda: make_grid(16.0, 0.0, 1.0), "n_modes"),
    "grid_start_inf": (lambda: make_grid(8, math.inf, 1.0), "domain_start"),
    "grid_length_negative": (lambda: make_grid(8, 0.0, -1.0), "domain_length"),
    "grid_start_str": (lambda: make_grid(16, "0", 1.0), "domain_start"),
    "grid_length_str": (lambda: make_grid(16, 0.0, "1"), "domain_length"),
    "solve_dt_zero": (lambda: SolveConfig(dt=0.0, t_final=1.0), "dt"),
    "solve_partial_steps": (lambda: SolveConfig(dt=0.3, t_final=1.0), "dt"),
    "solve_dt_underflow": (lambda: SolveConfig(dt=1e-320, t_final=1.0), "dt"),
    "solve_t_final_negative": (lambda: SolveConfig(dt=0.1, t_final=-1.0), "t_final"),
    "solve_t_final_inf": (lambda: SolveConfig(dt=0.1, t_final=math.inf), "t_final"),
    "solve_config_t_final_str": (lambda: SolveConfig(dt=0.5, t_final="1"), "t_final"),
    "solve_config_dt_str": (lambda: SolveConfig(dt="0.5", t_final=1.0), "dt"),
    "solve_scheme": (lambda: SolveConfig(dt=0.5, t_final=1.0, scheme="x"), "scheme"),
    "solve_stride": (lambda: SolveConfig(dt=0.5, t_final=1.0, snapshot_stride=-1), "snapshot_stride"),
    "solve_stride_fraction": (
        lambda: SolveConfig(dt=0.5, t_final=1.0, snapshot_stride=1.5), "snapshot_stride"
    ),
    "flow_substeps": (lambda: NonlinearFlowConfig(substeps=0), "substeps"),
    # a bool would echo as "True", which no config parses back
    "flow_substeps_bool": (lambda: NonlinearFlowConfig(substeps=True), "substeps"),
    "solve_stride_bool": (
        lambda: SolveConfig(dt=0.5, t_final=1.0, snapshot_stride=True), "snapshot_stride"
    ),
    "ic_mode_k_bool": (lambda: InitialConditionSpec(kind="mode", mode_k=True), "ic.mode_k"),
    "flow_dealias": (lambda: NonlinearFlowConfig(dealias="foo"), "dealias"),
    "dealias_mask_rule": (lambda: dealias_mask(G16, "foo"), "dealias"),
    "norm_kind": (lambda: NormSpec("h1"), "norm"),
    "norm_index": (lambda: NormSpec("hs", -1), "norm"),
    # a fractional index would echo as h1.5, which no report parses back
    "norm_index_fraction": (lambda: NormSpec("hs", 1.5), "norm"),
    "norm_index_str": (lambda: NormSpec("hs", "2"), "norm"),
    "norm_text": (lambda: NormSpec.parse("hx"), "norm"),
    "reference_quality": (lambda: make_reference(STATE, PARAMS, SYMBOL, 1.0, quality="best"), "quality"),
    "reference_t_final_str": (lambda: make_reference(STATE, PARAMS, SYMBOL, "1"), "t_final"),
    "reference_t_final_bool": (lambda: make_reference(STATE, PARAMS, SYMBOL, True), "t_final"),
    "reference_dealias": (lambda: make_reference(STATE, PARAMS, SYMBOL, 1.0, dealias=3), "dealias"),
    "reference_dt": (lambda: integrating_factor_rk4_solve(STATE, PARAMS, SYMBOL, 0.0, 1.0), "dt"),
    "reference_t_final_inf": (
        lambda: integrating_factor_rk4_solve(STATE, PARAMS, SYMBOL, 0.5, math.inf), "t_final"
    ),
    "ic_c_inf": (lambda: InitialConditionSpec(kind="constant", c=math.inf), "ic.c"),
    "ic_c_str": (lambda: InitialConditionSpec(kind="constant", c="1"), "ic.c"),
    "ic_mode_k_fraction": (lambda: InitialConditionSpec(kind="mode", mode_k=1.5), "ic.mode_k"),
    # user text is echoed as one ``key = value`` line, which must read back as itself:
    # "o\nnu = 5" would reparse as output = o and nu = 5.0
    "ic_kind_outer_space": (lambda: InitialConditionSpec(kind="paper "), "ic.kind"),
    "ic_path_two_lines": (lambda: InitialConditionSpec(kind="file", path="ic.csv\nnu = 5"), "ic.path"),
    "ic_path_outer_space": (lambda: InitialConditionSpec(kind="file", path=" ic.csv"), "ic.path"),
    "run_output_two_lines": (
        lambda: RunConfig(PARAMS, G16, SolveConfig(0.5, 1.0), InitialConditionSpec(), output="o\nnu = 5"),
        "output",
    ),
    "run_output_not_text": (
        lambda: RunConfig(PARAMS, G16, SolveConfig(0.5, 1.0), InitialConditionSpec(), output=None),
        "output",
    ),
    "ic_mode_offset_inf": (
        lambda: InitialConditionSpec(kind="mode", mode_offset=-math.inf), "ic.mode_offset"
    ),
    "strang_step_dt_inf": (lambda: strang_step(STATE, math.inf, PARAMS, SYMBOL), "dt"),
    "nonlinear_flow_dt": (lambda: nonlinear_flow(STATE, math.inf, PARAMS), "dt"),
    "nonlinear_flow_dt_str": (lambda: nonlinear_flow(STATE, "0.1", PARAMS), "dt"),
    "rk4_step_dt": (lambda: rk4_step(STATE, math.nan, lambda s: s), "dt"),
    "rk4_step_dt_str": (lambda: rk4_step(STATE, "0.1", lambda s: s), "dt"),
    "derivative_order": (lambda: derivative(STATE, 0), "order"),
    "derivative_order_fraction": (lambda: derivative(STATE, 1.5), "order"),
    "derivative_order_str": (lambda: derivative(STATE, "1"), "order"),
    "norm_without_grid": (lambda: norm(np.zeros(16)), "grid"),
    "experiment_empty_axis": (lambda: _spec(()), "axis"),
    "experiment_zero_axis": (lambda: _spec((12, 0)), "axis"),
    "experiment_fractional_axis": (lambda: _spec((1.5, 4)), "axis"),
    "experiment_t_final_negative": (lambda: _spec((4, 8), t_final=-1.0), "t_final"),
    "experiment_t_final_nan": (lambda: _spec((4, 8), t_final=math.nan), "t_final"),
    "experiment_t_final_str": (lambda: _spec((4, 8), t_final="1"), "t_final"),
    # the text form of configs and reports; a study would fail only after every solve
    "experiment_norm_text": (lambda: _spec((4, 8), norm="h1"), "norm"),
    "spatial_odd_axis": (lambda: spatial_convergence_study(_spec((5,))), "axis"),
    "spatial_small_axis": (lambda: spatial_convergence_study(_spec((2,))), "axis"),
    "spatial_reference_collision": (lambda: spatial_convergence_study(_spec((8, 16))), "axis"),
    "report_axis_order": (
        lambda: ConvergenceReport("temporal", (48, 24), (1.0, 2.0), (), NormSpec()), "axis"
    ),
    "report_error_nan": (
        lambda: ConvergenceReport("temporal", (24, 48), (1.0, math.nan), (), NormSpec()), "errors"
    ),
    "report_error_count": (
        lambda: ConvergenceReport("temporal", (12, 24, 48), (1.0,), (), NormSpec()), "errors"
    ),
    "report_order_count": (
        lambda: ConvergenceReport("temporal", (12, 24, 48), (1.0, 0.25, 0.0625), (2.0,), NormSpec()),
        "orders",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_public_api_raises_keyed_kbf_errors(case):
    build, key = CASES[case]
    with pytest.raises(Exception) as info:
        build()
    exc = info.value
    assert isinstance(exc, KbfError)
    assert isinstance(exc, ValidationError) and isinstance(exc, ValueError)
    assert exc.key == key
    assert str(exc) == f"{key}: {exc.message}"


# an array that does not fit its grid raises the one unkeyed DimensionMismatch
LENGTH_CASES = {
    "state_coeffs": lambda: SpectralState(np.zeros(8), G16),
    "to_spectral_values": lambda: to_spectral(np.zeros(8), G16),
    "norm_values": lambda: norm(np.zeros(8), grid=G16),
    "rhs_spectral_dealias_mask": lambda: nonlinear_rhs_spectral(STATE, PARAMS, np.ones(8, dtype=bool)),
    "rhs_physical_values": lambda: nonlinear_rhs_physical(np.zeros(8), PARAMS, G16),
}


@pytest.mark.parametrize("case", sorted(LENGTH_CASES))
def test_an_array_that_does_not_fit_the_grid_raises_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch, match=r" of shape \(8,\), not \(16,\)$"):
        LENGTH_CASES[case]()


# durations have their own error type, a ConfigError keyed t
DURATION_CASES = {
    "propagator_duration_str": lambda: build_propagator(SYMBOL, "1"),
    "linear_exact_duration_str": lambda: linear_exact_solution(STATE, SYMBOL, "1"),
}


@pytest.mark.parametrize("case", sorted(DURATION_CASES))
def test_bad_durations_raise_negative_duration(case):
    with pytest.raises(NegativeDuration) as info:
        DURATION_CASES[case]()
    assert info.value.key == "t"


def test_construction_error_hierarchy():
    for cls in (ConfigError, InvalidGrid, NegativeDuration):
        assert issubclass(cls, ValidationError)
    assert issubclass(ValidationError, KbfError) and issubclass(ValidationError, ValueError)
