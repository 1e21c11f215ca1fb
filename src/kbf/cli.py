"""Command-line front end.

Subcommands: ``solve`` (snapshot CSVs), ``converge-time`` and
``converge-space`` (convergence reports), ``oracle-check`` (closed-form
oracle suite).  Configuration comes from a flat key-value file plus
command-line flags, with flags taking precedence.  Exit codes: 0 success,
1 validation error, 2 runtime failure; failures print one machine-parsable
``kbf: error: <Kind>: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .conditions import InitialConditionSpec, build_initial
from .errors import (
    BlowUp,
    KbfError,
    NonFiniteState,
    ParseError,
    ReferenceNotConverged,
    SingularSolution,
    ValidationError,
    _check_line,
)
from .harness import (
    ExperimentSpec,
    _DIGITS,
    _fmt,
    _run_echo,
    report_to_csv,
    report_to_text,
    spatial_convergence_study,
    temporal_convergence_study,
)
from .model import ModelParams, linear_symbol
from .reference import (
    _QUALITY_TOL,
    _etdrk4_kernel,
    integrating_factor_rk4_solve,
    linear_exact_solution,
    logistic_exact,
)
from .spectral import (
    GridSpec,
    NormSpec,
    SpectralState,
    make_grid,
    norm,
    to_physical,
    to_spectral,
)
from .splitting import NonlinearFlowConfig, SolveConfig, _Lanes, _record_solve, evolve

__all__ = ["RunConfig", "parse_config", "emit_config", "run_cli", "main"]

TWO_PI = 2.0 * np.pi

# Each config key and the function that converts its text.
_KEYS = {
    "nu": float, "mu": float, "gamma": float, "eps_conv": float, "eps_react": float,
    "n_modes": int, "domain_start": float, "domain_length": float,
    "dt": float, "t_final": float, "scheme": str, "substeps": int, "dealias": str,
    "ic.kind": str, "ic.c": float, "ic.mode_k": int, "ic.mode_amp": float,
    "ic.mode_offset": float, "ic.path": str,
    "norm": NormSpec.parse, "snapshot_stride": int, "output": str,
}
CONFIG_KEYS = tuple(_KEYS)
_REQUIRED = ("nu", "mu", "gamma", "eps_conv", "eps_react", "n_modes", "dt", "t_final", "ic.kind")
_EXPECTED = {float: "a number", int: "an integer"}
# make_grid has no defaults
_DOMAIN = {"domain_start": 0.0, "domain_length": TWO_PI}
# read by ``solve`` only: the studies take their steps from --steps and --study-dt
_SOLVE_KEYS = ("dt", "snapshot_stride")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description assembled from config text and flags."""

    params: ModelParams
    grid: GridSpec
    solve: SolveConfig
    ic: InitialConditionSpec
    norm: NormSpec = NormSpec()
    output: str = ""

    def __post_init__(self):
        _check_line(ValidationError, "output", self.output)


def _convert(key, text):
    convert = _KEYS[key]
    try:
        return convert(text)
    except ValidationError:
        raise  # NormSpec.parse names its key itself
    except ValueError:
        raise ValidationError(key, f"expected {_EXPECTED[convert]}, got {text!r}") from None


def _given(cls, values: dict, prefix: str = "") -> dict:
    """The fields of ``cls`` that the run gives, as key ``prefix + field``."""
    return {f.name: values[prefix + f.name] for f in fields(cls) if prefix + f.name in values}


def _read(source: str, overrides: dict | None, unread=()) -> dict:
    """Each key's text, from ``key = value`` lines and then the overrides, which win.

    Unknown keys are rejected, keys in ``unread`` dropped; every other required key must be given.
    Every value must pass ``_check_line``, so that ``emit_config`` echoes it.
    """
    raw = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    raw.update((key, str(value)) for key, value in (overrides or {}).items() if value is not None)
    for key, text in raw.items():
        if key not in _KEYS:
            raise ValidationError(key, "unknown key")
        _check_line(ValidationError, key, text)
    for key in _REQUIRED:
        if key not in raw and key not in unread:
            raise ValidationError(key, "required key is missing")
    return {key: text for key, text in raw.items() if key not in unread}


def _build(raw: dict) -> RunConfig:
    """The RunConfig of the given keys' text; the constructors default the others.

    Without ``dt`` (a study) the solve config is one step of ``t_final``,
    which is never taken or echoed.
    """
    try:
        values = {key: _convert(key, text) for key, text in raw.items()}
        return RunConfig(
            params=ModelParams(**_given(ModelParams, values)),
            grid=make_grid(**{**_DOMAIN, **_given(GridSpec, values)}),
            solve=SolveConfig(
                **{"dt": values["t_final"], **_given(SolveConfig, values)},
                nonlinear_cfg=NonlinearFlowConfig(**_given(NonlinearFlowConfig, values)),
            ),
            ic=InitialConditionSpec(**_given(InitialConditionSpec, values, "ic.")),
            **_given(RunConfig, values),
        )
    except ValidationError as exc:
        # a ConfigError or InvalidGrid is reported as the bad config value it is here
        raise ValidationError(exc.key, exc.message) from None


def parse_config(source: str, overrides: dict | None = None) -> RunConfig:
    """Parse flat ``key = value`` text; override values win; unknown keys are rejected.

    Only text-to-value conversion happens here.  Every rule on the values is
    the constructors', and a ValidationError from one is reported under the
    key it names.
    """
    return _build(_read(source, overrides))


def emit_config(cfg: RunConfig) -> str:
    """Key-value text that reparses to an identical RunConfig."""
    s = cfg.solve
    items = _run_echo(cfg.params, cfg.grid, s.t_final, s.scheme, s.nonlinear_cfg, cfg.ic, cfg.norm)
    items.update(dt=_fmt(s.dt), snapshot_stride=str(s.snapshot_stride), output=cfg.output)
    return "\n".join(f"{k} = {v}" for k, v in items.items()) + "\n"


def _snapshot_writer(cfg: RunConfig):
    """``text(step, time, values)`` of one solve's snapshots; header and x column formatted once."""
    header = "".join(f"# {line}\n" for line in emit_config(cfg).rstrip("\n").splitlines())
    # only the rows go through %: the header holds user text (output, ic.path)
    rows = "".join(f"{_fmt(x)},%{_DIGITS}\n" for x in cfg.grid.points)

    def text(step: int, time: float, values: np.ndarray) -> str:
        head = f"{header}# step = {step}\n# time = {_fmt(time)}\nx,y\n"
        return head + rows % tuple(values.tolist())

    return text


def _require_output(cfg: RunConfig) -> Path:
    if not cfg.output:
        raise ValidationError("output", "required for this subcommand")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(cfg: RunConfig) -> int:
    out = _require_output(cfg)
    snapshot = _snapshot_writer(cfg)
    final_path = out / "final.csv"
    written = 0

    # each state is written as it is recorded and then dropped, so memory
    # does not grow with the snapshot count
    def write(step, time, state):
        nonlocal written
        text = snapshot(step, time, to_physical(state))
        (out / f"snapshot_{step:06d}.csv").write_text(text, encoding="utf-8")
        if step == cfg.solve.n_steps:  # step n is always recorded, at t_final
            final_path.write_text(text, encoding="utf-8")
        written += 1

    _record_solve(build_initial(cfg.ic, cfg.grid), cfg.params, cfg.solve, write)
    print(f"wrote {written} snapshot(s) and {final_path}")
    return 0


def _run_study(cfg: RunConfig, flags: dict, raw_axis: str, study, stem: str):
    """Write ``study(spec)`` to ``<stem>.csv`` and ``.txt``; a key in ``flags`` reads as its flag."""
    out = _require_output(cfg)
    try:
        spec = ExperimentSpec(
            params=cfg.params, grid=cfg.grid, initial_condition=cfg.ic, norm=cfg.norm,
            t_final=cfg.solve.t_final, scheme=cfg.solve.scheme,
            nonlinear_cfg=cfg.solve.nonlinear_cfg, axis=_parse_axis(flags["axis"], raw_axis),
        )
        report = study(spec)
    except ValidationError as exc:
        if exc.key not in flags:
            raise
        raise ValidationError(flags[exc.key], exc.message) from None
    (out / f"{stem}.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / f"{stem}.txt").write_text(report_to_text(report), encoding="utf-8")
    return report


def _parse_axis(key, raw) -> tuple:
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ValidationError(key, f"expected comma-separated integers, got {raw!r}") from None


def _cmd_converge_time(cfg: RunConfig, steps: str, quality: str) -> int:
    # --quality is text: make_reference checks it, before any solve
    report = _run_study(
        cfg, {"axis": "steps", "quality": "quality"}, steps,
        lambda spec: temporal_convergence_study(spec, quality=quality), "convergence_time",
    )
    for a, e in zip(report.axis, report.errors):
        print(f"steps={a:6d}  error={e:.6e}")
    if report.orders:
        print("orders:", " ".join(f"{o:.4f}" for o in report.orders))
    return 0


def _cmd_converge_space(cfg: RunConfig, modes: str, study_dt: str | None) -> int:
    # the study's one step size is --study-dt, converted as a dt is: the config's dt is not read
    def study(spec):
        return spatial_convergence_study(spec, None if study_dt is None else _convert("dt", study_dt))

    report = _run_study(cfg, {"axis": "modes", "dt": "study-dt"}, modes, study, "convergence_space")
    for a, e in zip(report.axis, report.errors):
        print(f"n_modes={a:5d}  error={e:.6e}")
    return 0


def _oracle_suite():
    """Closed-form checks pairing production paths against independent oracles."""
    rng = np.random.default_rng(2024)

    def round_trip():
        grid = make_grid(64, 0.0, TWO_PI)
        v = rng.standard_normal(64)
        back = to_physical(to_spectral(v, grid))
        return float(np.max(np.abs(back - v))), 1e-12

    def heat_decay():
        grid = make_grid(64, 0.0, TWO_PI)
        params = ModelParams(nu=1.0)
        initial = build_initial(InitialConditionSpec(kind="paper"), grid)
        traj = evolve(initial, params, SolveConfig(dt=0.1, t_final=1.0))
        exact = 0.5 + 0.25 * np.exp(-1.0) * np.sin(grid.points)
        return float(np.max(np.abs(to_physical(traj.final) - exact))), 1e-10

    def logistic_reaction():
        grid = make_grid(16, 0.0, TWO_PI)
        params = ModelParams(eps_react=1.0)
        initial = build_initial(InitialConditionSpec(kind="constant", c=0.4), grid)
        traj = evolve(initial, params, SolveConfig(dt=0.05, t_final=1.0))
        exact = logistic_exact(0.4, 1.0, 1.0)
        return float(np.max(np.abs(to_physical(traj.final) - exact))), 1e-6

    def dispersion_phase():
        grid = make_grid(32, 0.0, TWO_PI)
        params = ModelParams(mu=1.0)
        initial = build_initial(InitialConditionSpec(kind="mode", mode_k=1), grid)
        sym = linear_symbol(params, grid)
        moved = linear_exact_solution(initial, sym, 0.7)
        # third-order dispersion advances the k=1 phase by exactly t
        expected = initial.coeffs[1] * np.exp(1j * 0.7)
        return float(abs(moved.coeffs[1] - expected)), 1e-12

    def exact_linear(solve):
        # with eps_conv = eps_react = 0 both reference integrators are exact; 4 steps of 0.25
        def check():
            grid = make_grid(64, 0.0, TWO_PI)
            params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
            initial = build_initial(InitialConditionSpec(kind="paper"), grid)
            sym = linear_symbol(params, grid)
            solved = solve(initial, params, sym)
            exact = linear_exact_solution(initial, sym, 1.0)
            diff = norm(SpectralState(solved.coeffs - exact.coeffs, grid))
            return float(diff), 1e-12

        return check

    return [
        ("dft_round_trip", round_trip),
        ("heat_decay_closed_form", heat_decay),
        ("logistic_closed_form", logistic_reaction),
        ("dispersion_phase_advance", dispersion_phase),
        ("integrating_factor_exact_linear",
         exact_linear(lambda *p: integrating_factor_rk4_solve(*p, 0.25, 1.0))),
        ("etdrk4_exact_linear", exact_linear(lambda *p: _Lanes(_etdrk4_kernel(*p)).run(4, 0.25))),
    ]


def _cmd_oracle_check() -> int:
    failures = 0
    for name, check in _oracle_suite():
        measured, tol = check()
        if measured <= tol:
            print(f"PASS {name} (residual {measured:.3e} <= {tol:g})")
        else:
            print(f"FAIL {name} (residual {measured:.3e} > {tol:g})")
            failures += 1
    return 0 if failures == 0 else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError("argv", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="kbf", description="Periodic pseudo-spectral solver suite")
    sub = parser.add_subparsers(dest="command")

    def add_config_flags(p):
        p.add_argument("--config", help="path to a key-value config file")
        for key in CONFIG_KEYS:
            if key == "output":
                continue
            flags = ["--" + key.replace(".", "-").replace("_", "-")]
            if key == "ic.kind":
                flags.append("--ic")
            p.add_argument(*flags, dest=f"cfg_{key}", metavar="V", help=f"override {key}")
        p.add_argument("--output", dest="cfg_output", metavar="DIR", help="output directory")

    p_solve = sub.add_parser("solve", help="run one solve and write snapshot CSVs")
    add_config_flags(p_solve)

    p_time = sub.add_parser("converge-time", help="temporal convergence study")
    add_config_flags(p_time)
    p_time.add_argument("--steps", default="12,24,48,96,192,384",
                        help="comma-separated step counts")
    tolerances = ", ".join(f"{q} {tol:g}" for q, tol in _QUALITY_TOL.items())
    p_time.add_argument("--quality", default="high",
                        help=f"reference tolerance (relative: {tolerances})")

    p_space = sub.add_parser("converge-space", help="spatial convergence study")
    add_config_flags(p_space)
    p_space.add_argument("--modes", default="8,16,32,64", help="comma-separated mode counts")
    p_space.add_argument("--study-dt", default=None,
                         help="fixed time step for all runs (default t_final/2048)")

    sub.add_parser("oracle-check", help="run the closed-form oracle suite")
    return parser


def _load_config(args) -> RunConfig:
    source = ""
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError("config", f"config file not found: {path}")
        source = path.read_text(encoding="utf-8")
    overrides = {key: getattr(args, f"cfg_{key}") for key in CONFIG_KEYS}
    return _build(_read(source, overrides, () if args.command == "solve" else _SOLVE_KEYS))


def run_cli(argv) -> int:
    """Dispatch a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("kbf: error: ValidationError: missing subcommand", file=sys.stderr)
            return 1
        if args.command == "oracle-check":
            return _cmd_oracle_check()
        cfg = _load_config(args)
        if args.command == "solve":
            return _cmd_solve(cfg)
        if args.command == "converge-time":
            return _cmd_converge_time(cfg, args.steps, args.quality)
        if args.command == "converge-space":
            return _cmd_converge_space(cfg, args.modes, args.study_dt)
        raise ValidationError("argv", f"unknown subcommand {args.command!r}")
    except (BlowUp, NonFiniteState, ReferenceNotConverged, SingularSolution) as exc:
        print(f"kbf: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KbfError as exc:
        if isinstance(exc, ValidationError) and exc.key == "argv":
            parser.print_usage(sys.stderr)
        print(f"kbf: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
