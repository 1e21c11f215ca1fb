"""Periodic pseudo-spectral solver suite for a fifth-order
dispersion-dissipation-reaction equation.

Strang splitting in time (exact Fourier-space exponential for the linear
part, classical RK4 for the nonlinear part) on a Fourier collocation grid,
together with an integrating-factor reference solver, closed-form oracles
and a convergence-study harness.
"""

from .conditions import InitialConditionSpec, build_initial
from .errors import (
    BlowUp,
    ConfigError,
    DimensionMismatch,
    FileFormatError,
    GridMismatch,
    InvalidGrid,
    InvalidTestFunction,
    KbfError,
    NegativeDuration,
    NonFiniteInput,
    NonFiniteState,
    NonPositiveError,
    NotRealRepresentable,
    ParseError,
    ReferenceNotConverged,
    SingularSolution,
    ValidationError,
)
from .harness import (
    ConvergenceReport,
    ExperimentSpec,
    error_norm,
    observed_order,
    report_from_csv,
    report_from_text,
    report_to_csv,
    report_to_text,
    spatial_convergence_study,
    temporal_convergence_study,
)
from .model import (
    LinearSymbol,
    ModelParams,
    full_rhs,
    linear_symbol,
    nonlinear_rhs_physical,
    nonlinear_rhs_spectral,
)
from .reference import (
    integrating_factor_rk4_solve,
    linear_exact_solution,
    logistic_exact,
    make_reference,
    read_reference_file,
    write_reference_file,
)
from .spectral import (
    GridSpec,
    NormSpec,
    SpectralState,
    TEST_FUNCTIONS,
    dealias_mask,
    derivative,
    eval_interpolant,
    interpolation_error_decay,
    make_grid,
    norm,
    real_residue,
    to_physical,
    to_spectral,
)
from .splitting import (
    LinearPropagator,
    NonlinearFlowConfig,
    SolveConfig,
    Trajectory,
    apply_linear,
    build_propagator,
    evolve,
    lie_trotter_step,
    nonlinear_flow,
    rk4_step,
    strang_step,
)

__version__ = "0.1.0"
