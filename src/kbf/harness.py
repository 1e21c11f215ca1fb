"""Convergence studies and error reporting.

Temporal studies measure the error of the splitting schemes at a ladder of
step counts against the ETDRK4 reference; spatial studies fix a
fine time step and sweep mode counts against a run on the finest grid.
Reports carry the full configuration echo and serialize to CSV and to a
structured text form, both of which reparse exactly.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field

from .conditions import InitialConditionSpec, build_initial
from .errors import (
    BlowUp,
    ConfigError,
    FileFormatError,
    GridMismatch,
    InvalidGrid,
    NonPositiveError,
    _check_choice,
    _check_int,
    _check_real,
)
from .model import ModelParams, linear_symbol
from .reference import _QUALITY_TOL, _cached, make_reference
from .spectral import (
    GridSpec,
    NormSpec,
    SpectralState,
    eval_interpolant,
    make_grid,
    norm,
    to_physical,
)
from .splitting import _DENSE_MAX, SCHEMES, NonlinearFlowConfig, SolveConfig, _Lanes, _Splitting, evolve

__all__ = [
    "ConvergenceReport",
    "ExperimentSpec",
    "error_norm",
    "observed_order",
    "temporal_convergence_study",
    "spatial_convergence_study",
    "report_to_csv",
    "report_from_csv",
    "report_to_text",
    "report_from_text",
]


# 17 significant digits round-trip binary64 exactly
_DIGITS = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _DIGITS)


def _run_echo(params, grid, t_final, scheme, nonlinear_cfg, ic, norm) -> dict:
    """The ``key = value`` strings of one run, shared by report headers and ``cli.emit_config``."""
    return {
        "nu": _fmt(params.nu),
        "mu": _fmt(params.mu),
        "gamma": _fmt(params.gamma),
        "eps_conv": _fmt(params.eps_conv),
        "eps_react": _fmt(params.eps_react),
        "n_modes": str(grid.n_modes),
        "domain_start": _fmt(grid.domain_start),
        "domain_length": _fmt(grid.domain_length),
        "t_final": _fmt(t_final),
        "scheme": scheme,
        "substeps": str(nonlinear_cfg.substeps),
        "dealias": nonlinear_cfg.dealias,
        "ic.kind": ic.kind,
        "ic.c": _fmt(ic.c),
        "ic.mode_k": str(ic.mode_k),
        "ic.mode_amp": _fmt(ic.mode_amp),
        "ic.mode_offset": _fmt(ic.mode_offset),
        "ic.path": ic.path,
        "norm": str(norm),
    }


# below this error level, pairwise orders are round-off noise and are omitted
ORDER_FLOOR = 1e-12


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors and pairwise observed orders along one refinement axis."""

    study_kind: str
    axis: tuple
    errors: tuple
    orders: tuple
    norm: NormSpec
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        if list(self.axis) != sorted(self.axis) or len(set(self.axis)) != len(self.axis):
            raise ConfigError("axis", f"must be strictly increasing, got {self.axis}")
        if len(self.errors) != len(self.axis):
            raise ConfigError("errors", f"must be one per axis value, got {len(self.errors)}")
        for e in self.errors:
            _check_real(ConfigError, "errors", e)
        if len(self.orders) not in (0, len(self.axis) - 1):
            raise ConfigError("orders", f"must be none or one per axis step, got {len(self.orders)}")
        for o in self.orders:
            _check_real(ConfigError, "orders", o)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun one convergence study."""

    params: ModelParams
    grid: GridSpec
    initial_condition: InitialConditionSpec
    t_final: float
    scheme: str = "strang"
    norm: NormSpec = NormSpec()
    axis: tuple = ()
    nonlinear_cfg: NonlinearFlowConfig = NonlinearFlowConfig()

    def __post_init__(self):
        _check_real(ConfigError, "t_final", self.t_final, 0, strict=True)
        _check_choice(ConfigError, "scheme", self.scheme, SCHEMES)
        if not isinstance(self.norm, NormSpec):
            raise ConfigError("norm", f"must be a NormSpec, got {self.norm!r}")
        if not self.axis:
            raise ConfigError("axis", "must be non-empty")
        for a in self.axis:
            _check_int(ConfigError, "axis", a, 1)
        axis = tuple(int(a) for a in self.axis)
        if len(set(axis)) != len(axis):
            raise ConfigError("axis", f"must not repeat a value, got {axis}")
        object.__setattr__(self, "axis", axis)


def error_norm(
    approx: SpectralState,
    reference: SpectralState,
    spec: NormSpec = NormSpec(),
    allow_interpolation: bool = True,
) -> float:
    """Norm of the difference; a coarser state is interpolated onto the finer grid."""
    ga, gr = approx.grid, reference.grid
    if ga == gr:
        return norm(SpectralState(approx.coeffs - reference.coeffs, ga), spec)
    same_domain = (
        ga.domain_start == gr.domain_start and ga.domain_length == gr.domain_length
    )
    if not allow_interpolation or not same_domain:
        raise GridMismatch("states live on different grids")
    coarse, fine = (approx, reference) if ga.n_modes < gr.n_modes else (reference, approx)
    diff = eval_interpolant(coarse, fine.grid.points) - to_physical(fine)
    return norm(diff, spec, grid=fine.grid)


def observed_order(errors, refinement_factor: float = 2.0) -> list[float]:
    """Pairwise orders ``log(e_i/e_{i+1}) / log(factor)`` along a refinement ladder."""
    _check_real(ConfigError, "refinement_factor", refinement_factor, 0, strict=True)
    if refinement_factor == 1:
        raise ConfigError("refinement_factor", "must not be 1")
    errs = [float(e) for e in errors]
    if len(errs) < 2:
        raise NonPositiveError("need at least two errors")
    if any(e <= 0 for e in errs):
        raise NonPositiveError("errors must be strictly positive")
    logf = math.log(refinement_factor)
    return [math.log(a / b) / logf for a, b in zip(errs[:-1], errs[1:])]


def _at_axis_value(value: int, run):
    """``run(value)``, with a BlowUp re-raised under that axis value."""
    try:
        return run(value)
    except BlowUp as exc:
        raise BlowUp(exc.step, exc.time, f"blow-up at axis value {value}: {exc}") from exc


def _study(spec: ExperimentSpec, kind: str, error_at, own_echo: dict) -> ConvergenceReport:
    """Errors and orders along ``spec.axis``; ``own_echo`` holds the study's own keys.

    Each order is ``log(e_i/e_{i+1}) / log(a_{i+1}/a_i)``, so the ladder need
    not double, and a single axis value has none.
    """
    axis = tuple(sorted(spec.axis))
    errors = tuple(_at_axis_value(a, error_at) for a in axis)
    pairs = zip(errors, errors[1:], axis, axis[1:]) if min(errors) > ORDER_FLOOR else ()
    orders = tuple(observed_order((e, f), b / a)[0] for e, f, a, b in pairs)
    echo = _run_echo(
        spec.params, spec.grid, spec.t_final, spec.scheme, spec.nonlinear_cfg,
        spec.initial_condition, spec.norm,
    )
    echo.update(study=kind, **own_echo, error_kind="absolute", axis=",".join(map(str, axis)))
    return ConvergenceReport(
        study_kind=kind,
        axis=axis,
        errors=errors,
        orders=orders,
        norm=spec.norm,
        config_echo=echo,
    )


# A splitting solve's cost in us: per step of its loop, and per point-step (steps
# times grid points, summed over lanes), fitted to ladders and blocks at N <= 128,
# where the break-even lies; FFT grids take about 100 us a step (2-core Xeon, README).
_STEP_US, _POINT_US = 20.0, 0.2
# Forking ``work`` beside ``own`` gains ``min(work, own - _CHILD_US) - _FORK_MIN`` us:
# the fork's round trip costs about ``_FORK_MIN``, and the child runs about
# ``_CHILD_US`` slower, which only a longer ``own`` hides.
_FORK_MIN, _CHILD_US = 2400.0, 2500.0


def _cost_us(steps: int, point_steps: int) -> float:
    return _STEP_US * steps + _POINT_US * point_steps


def _fork_pays(work_us: float, own_us: float = math.inf) -> bool:
    return min(work_us, own_us - _CHILD_US) > _FORK_MIN


def _beside(work, own, fork: bool):
    """``(work(), own())``, with ``work`` in a forked child, when ``fork``, while ``own`` runs here.

    A child that fails in any way, or does not start, leaves ``work()`` to run here after
    ``own()``, as inline.  The child is always reaped, and killed first if ``own()`` raises.
    """
    child = _fork(work) if fork else None
    if child is None:
        mine = own()
        return work(), mine
    try:
        mine = own()
    except BaseException:
        _kill(child)
        raise
    done = _join(child)
    return (work() if done is _FAILED else done), mine


# what ``_join`` returns of a child that failed in any way
_FAILED = object()


def _join(child):
    """What ``child`` (from ``_fork``) sent, or ``_FAILED``; reaps it, killed first if interrupted."""
    pid, fd = child
    try:
        with open(fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
    except BaseException:
        _kill(child)
        raise
    os.close(fd)
    # a length ahead of the result tells a complete one from a short read
    if os.waitstatus_to_exitcode(status) == 0 and int.from_bytes(data[:8], "little") == len(data) - 8:
        return pickle.loads(data[8:])
    return _FAILED


def _kill(child) -> None:
    # imported here: its enums would add about 0.7 ms to ``import kbf``
    from signal import SIGKILL

    pid, fd = child
    os.close(fd)
    os.kill(pid, SIGKILL)
    os.waitpid(pid, 0)


def _fork(work):
    """``(pid, read end of a pipe)`` of a child that writes ``work()``'s result to it, pickled.

    None unless the child can run beside this process (README): ``os.fork``, a second
    usable CPU, no other Python thread, and CPython before 3.12.
    """
    if not (
        hasattr(os, "fork")
        and sys.version_info < (3, 12)
        and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
        and threading.active_count() == 1
    ):
        return None
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # the child never returns into the caller's stack
        code = 1
        try:
            os.close(r)
            data = pickle.dumps(work(), pickle.HIGHEST_PROTOCOL)
            with open(w, "wb") as pipe:
                pipe.write(len(data).to_bytes(8, "little") + data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def temporal_convergence_study(
    spec: ExperimentSpec,
    quality: str = "high",
) -> ConvergenceReport:
    """Absolute errors at ``t_final`` versus step count at fixed N, against ``make_reference``.

    The step counts run as lanes of one loop, in a forked child beside an uncached
    reference when ``_fork_pays`` (README); a blow-up names the smallest count to blow up.
    """
    _check_choice(ConfigError, "quality", quality, tuple(_QUALITY_TOL))
    initial = build_initial(spec.initial_condition, spec.grid)
    symbol = linear_symbol(spec.params, spec.grid)
    dealias = spec.nonlinear_cfg.dealias

    def ladder() -> dict:
        lanes = _Lanes(_Splitting(initial, spec.params, spec.scheme, spec.nonlinear_cfg))
        for n in spec.axis:
            cfg = SolveConfig(spec.t_final / n, spec.t_final, spec.scheme, spec.nonlinear_cfg)
            lanes.start(cfg.n_steps, cfg.dt)
        # ascending, as _study takes them, so a blow-up names the smallest step count
        return {n: _at_axis_value(n, lanes.result) for n in sorted(spec.axis)}

    def reference() -> SpectralState:
        return make_reference(initial, spec.params, symbol, spec.t_final, quality=quality, dealias=dealias)

    # a cold reference takes 5 ms or more (N = 8..256, `standard`): only the ladder's cost is estimated
    ladder_us = _cost_us(max(spec.axis), spec.grid.n_modes * sum(spec.axis))
    fork = _fork_pays(ladder_us) and not _cached(initial, spec.params, spec.t_final, quality, dealias)
    finals, ref = _beside(ladder, reference, fork)

    def error_at(n_steps: int) -> float:
        return error_norm(finals[n_steps], ref, spec.norm)

    return _study(spec, "temporal", error_at, {"reference_quality": quality})


def spatial_convergence_study(spec: ExperimentSpec, dt: float | None = None) -> ConvergenceReport:
    """Errors versus mode count against ``spec.grid``, every run at one ``dt`` (default ``t_final/2048``).

    Three or more coarse grids of at most ``_DENSE_MAX`` points run as one dense block,
    in a forked child beside the finest grid when ``_fork_pays``, and again one by one
    after a blow-up, which names the first grid to blow up (README).  Every coarse grid
    is built before any solve, and interpolated onto the finest for its error.
    """
    if dt is None:
        dt = spec.t_final / 2048.0
    ref_grid = spec.grid
    grids = {}
    for n in spec.axis:
        try:
            grids[n] = make_grid(n, ref_grid.domain_start, ref_grid.domain_length)
        except InvalidGrid as exc:
            raise ConfigError("axis", f"mode counts {exc.message}") from None
        if n >= ref_grid.n_modes:
            raise ConfigError(
                "axis", f"mode count {n} must stay below the reference grid ({ref_grid.n_modes})"
            )
    grids[ref_grid.n_modes] = ref_grid
    cfg = SolveConfig(
        dt=dt, t_final=spec.t_final, scheme=spec.scheme, nonlinear_cfg=spec.nonlinear_cfg
    )

    def run_on(n_modes: int) -> SpectralState:
        initial = build_initial(spec.initial_condition, grids[n_modes])
        return evolve(initial, spec.params, cfg).final

    # one or two coarse grids stay with evolve, whose calls perfbench's tracer test counts
    block = sorted(n for n in spec.axis if n <= _DENSE_MAX)
    if len(block) < 3:
        block = []

    def coarse_block() -> dict:
        if not block:
            return {}
        initials = tuple(build_initial(spec.initial_condition, grids[n]) for n in block)
        lanes = _Lanes(_Splitting(initials, spec.params, cfg.scheme, cfg.nonlinear_cfg))
        try:
            return dict(zip(block, lanes.run(cfg.n_steps, cfg.dt)))
        except BlowUp:
            # separate solves in ascending order name the first grid to blow up
            return {n: _at_axis_value(n, run_on) for n in block}

    n = cfg.n_steps
    fork = bool(block) and _fork_pays(_cost_us(n, n * sum(block)), _cost_us(n, n * ref_grid.n_modes))
    finals, ref = _beside(coarse_block, lambda: _at_axis_value(ref_grid.n_modes, run_on), fork)

    def error_at(n_modes: int) -> float:
        return error_norm(finals[n_modes] if n_modes in finals else run_on(n_modes), ref, spec.norm)

    echo = {"dt": _fmt(dt), "reference_n_modes": str(ref_grid.n_modes)}
    return _study(spec, "spatial", error_at, echo)


def _report_rows(report: ConvergenceReport):
    t_final = float(report.config_echo.get("t_final", "nan"))
    for i, (a, e) in enumerate(zip(report.axis, report.errors)):
        if report.study_kind == "temporal":
            dt_or_n = _fmt(t_final / a)
        else:
            dt_or_n = report.config_echo.get("dt", "")
        order = _fmt(report.orders[i - 1]) if 0 < i <= len(report.orders) else ""
        yield str(a), dt_or_n, _fmt(e), order


def report_to_csv(report: ConvergenceReport) -> str:
    """CSV with a commented key-value header and axis/dt_or_n/error/order columns."""
    lines = [f"# {k} = {v}" for k, v in report.config_echo.items()]
    lines.append("axis,dt_or_n,error,order")
    lines.extend(",".join(row) for row in _report_rows(report))
    return "\n".join(lines) + "\n"


def report_to_text(report: ConvergenceReport) -> str:
    """Structured text: key-value metadata, a blank line, then the table."""
    lines = [f"{k} = {v}" for k, v in report.config_echo.items()]
    lines.append("")
    lines.append("axis dt_or_n error order")
    lines.extend(" ".join(x if x else "-" for x in row) for row in _report_rows(report))
    return "\n".join(lines) + "\n"


def _report_from_parts(echo: dict, rows: list) -> ConvergenceReport:
    study = echo.get("study", "")
    if study not in ("temporal", "spatial"):
        raise FileFormatError(f"bad or missing study kind {study!r}")
    if rows and rows[0][3] not in ("", "-"):
        raise FileFormatError(f"bad report: an order on the first row, {rows[0][3]!r}")
    try:
        return ConvergenceReport(
            study_kind=study,
            axis=tuple(int(r[0]) for r in rows),
            errors=tuple(float(r[2]) for r in rows),
            orders=tuple(float(r[3]) for r in rows if r[3] not in ("", "-")),
            norm=NormSpec.parse(echo.get("norm", "l2")),
            config_echo=echo,
        )
    except ValueError as exc:
        # non-numeric cells, and every ConvergenceReport/NormSpec rule (ValidationErrors)
        raise FileFormatError(f"bad report: {exc}") from None


def report_from_csv(text: str) -> ConvergenceReport:
    echo = {}
    rows = []
    seen_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                echo[k.strip()] = v.strip()
            continue
        if not seen_header:
            if line != "axis,dt_or_n,error,order":
                raise FileFormatError(f"bad report header {line!r}")
            seen_header = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FileFormatError(f"bad report row {line!r}")
        rows.append(parts)
    if not seen_header:
        raise FileFormatError("missing report header")
    return _report_from_parts(echo, rows)


def report_from_text(text: str) -> ConvergenceReport:
    """Parse the text form as CSV: metadata become ``# `` lines, table cells comma-joined.

    The text form has no comments, so every metadata line must hold ``=``.
    """
    lines = text.splitlines()
    blank = next((i for i, line in enumerate(lines) if not line.strip()), len(lines))
    for line in lines[:blank]:
        if "=" not in line:
            raise FileFormatError(f"bad metadata line {line!r}")
    for line in lines[blank:]:
        if "," in line or line.lstrip().startswith("#"):
            raise FileFormatError(f"bad table row {line!r}")
    csv = [f"# {line}" for line in lines[:blank]] + [",".join(line.split()) for line in lines[blank:]]
    return report_from_csv("\n".join(csv))
