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
from dataclasses import dataclass
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
)
from .harness import (
    ConvergenceReport,
    ExperimentSpec,
    _fmt,
    _run_echo,
    report_to_csv,
    report_to_text,
    spatial_convergence_study,
    temporal_convergence_study,
)
from .model import ModelParams, linear_symbol
from .reference import integrating_factor_rk4_solve, linear_exact_solution, logistic_exact
from .spectral import (
    GridSpec,
    NormSpec,
    SpectralState,
    make_grid,
    norm,
    to_physical,
    to_spectral,
)
from .splitting import NonlinearFlowConfig, SolveConfig, evolve

__all__ = ["RunConfig", "parse_config", "emit_config", "run_cli", "main"]

TWO_PI = 2.0 * np.pi

CONFIG_KEYS = (
    "nu", "mu", "gamma", "eps_conv", "eps_react",
    "n_modes", "domain_start", "domain_length",
    "dt", "t_final", "scheme", "substeps", "dealias",
    "ic.kind", "ic.c", "ic.mode_k", "ic.mode_amp", "ic.mode_offset", "ic.path",
    "norm", "snapshot_stride", "output",
)

_DEFAULTS = {
    "domain_start": "0",
    "domain_length": _fmt(TWO_PI),
    "scheme": "strang",
    "substeps": "1",
    "dealias": "none",
    "norm": "l2",
    "snapshot_stride": "0",
    "ic.c": "0",
    "ic.mode_k": "1",
    "ic.mode_amp": "1",
    "ic.mode_offset": "0",
    "ic.path": "",
}

_COEFFICIENTS = ("nu", "mu", "gamma", "eps_conv", "eps_react")
_REQUIRED = (*_COEFFICIENTS, "n_modes", "dt", "t_final", "ic.kind")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description assembled from config text and flags."""

    params: ModelParams
    grid: GridSpec
    solve: SolveConfig
    ic: InitialConditionSpec
    norm: NormSpec
    output: str = ""


def _to_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(key, f"expected a number, got {raw!r}") from None


def _to_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(key, f"expected an integer, got {raw!r}") from None


def parse_config(source: str, overrides: dict | None = None) -> RunConfig:
    """Parse flat ``key = value`` text; override values win; unknown keys are rejected.

    Only text-to-number conversion happens here.  Every rule on the values is
    the constructors', and a ValidationError from one is reported under the
    key it names.
    """
    raw = dict(_DEFAULTS)
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(lineno, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValidationError(key, "unknown key")
        raw[key] = value
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ValidationError(key, "unknown key")
        raw[key] = str(value)

    for key in _REQUIRED:
        if key not in raw:
            raise ValidationError(key, "required key is missing")

    try:
        return RunConfig(
            params=ModelParams(**{key: _to_float(key, raw[key]) for key in _COEFFICIENTS}),
            grid=make_grid(
                _to_int("n_modes", raw["n_modes"]),
                _to_float("domain_start", raw["domain_start"]),
                _to_float("domain_length", raw["domain_length"]),
            ),
            solve=SolveConfig(
                dt=_to_float("dt", raw["dt"]),
                t_final=_to_float("t_final", raw["t_final"]),
                scheme=raw["scheme"],
                nonlinear_cfg=NonlinearFlowConfig(
                    substeps=_to_int("substeps", raw["substeps"]), dealias=raw["dealias"]
                ),
                snapshot_stride=_to_int("snapshot_stride", raw["snapshot_stride"]),
            ),
            ic=InitialConditionSpec(
                kind=raw["ic.kind"],
                c=_to_float("ic.c", raw["ic.c"]),
                mode_k=_to_int("ic.mode_k", raw["ic.mode_k"]),
                mode_amp=_to_float("ic.mode_amp", raw["ic.mode_amp"]),
                mode_offset=_to_float("ic.mode_offset", raw["ic.mode_offset"]),
                path=raw["ic.path"],
            ),
            norm=NormSpec.parse(raw["norm"]),
            output=raw.get("output", ""),
        )
    except ValidationError as exc:
        # a ConfigError or InvalidGrid is reported as the bad config value it is here
        raise ValidationError(exc.key, exc.message) from None


def emit_config(cfg: RunConfig) -> str:
    """Key-value text that reparses to an identical RunConfig."""
    items = _run_echo(
        cfg.params, cfg.grid, cfg.solve.t_final, cfg.solve.scheme, cfg.solve.nonlinear_cfg,
        cfg.ic, cfg.norm,
    )
    items.update(
        dt=_fmt(cfg.solve.dt), snapshot_stride=str(cfg.solve.snapshot_stride), output=cfg.output
    )
    return "\n".join(f"{k} = {v}" for k, v in items.items()) + "\n"


def _write_snapshot(path, cfg: RunConfig, step: int, time: float, values: np.ndarray):
    lines = [f"# {line}" for line in emit_config(cfg).rstrip("\n").splitlines()]
    lines.append(f"# step = {step}")
    lines.append(f"# time = {_fmt(time)}")
    lines.append("x,y")
    for x, y in zip(cfg.grid.points, values):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require_output(cfg: RunConfig) -> Path:
    if not cfg.output:
        raise ValidationError("output", "required for this subcommand")
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(cfg: RunConfig) -> int:
    out = _require_output(cfg)
    initial = build_initial(cfg.ic, cfg.grid)

    written = []

    def observer(step, time, state):
        path = out / f"snapshot_{step:06d}.csv"
        _write_snapshot(path, cfg, step, time, to_physical(state))
        written.append(path)

    traj = evolve(initial, cfg.params, cfg.solve, observer=observer)
    final_path = out / "final.csv"
    _write_snapshot(final_path, cfg, traj.steps_taken, cfg.solve.t_final, to_physical(traj.final))
    print(f"wrote {len(written)} snapshot(s) and {final_path}")
    return 0


def _run_study(cfg: RunConfig, flag: str, raw_axis: str, study, **options) -> ConvergenceReport:
    """``study`` on ``--<flag> raw_axis``; an axis error is reported under ``flag``."""
    try:
        spec = ExperimentSpec(
            params=cfg.params,
            grid=cfg.grid,
            initial_condition=cfg.ic,
            t_final=cfg.solve.t_final,
            scheme=cfg.solve.scheme,
            norm=cfg.norm,
            axis=_parse_axis(flag, raw_axis),
            nonlinear_cfg=cfg.solve.nonlinear_cfg,
        )
        return study(spec, **options)
    except ValidationError as exc:
        if exc.key != "axis":
            raise
        raise ValidationError(flag, exc.message) from None


def _parse_axis(key, raw) -> tuple:
    try:
        return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ValidationError(key, f"expected comma-separated integers, got {raw!r}") from None


def _cmd_converge_time(cfg: RunConfig, steps: str, quality: str) -> int:
    out = _require_output(cfg)
    report = _run_study(cfg, "steps", steps, temporal_convergence_study, quality=quality)
    (out / "convergence_time.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / "convergence_time.txt").write_text(report_to_text(report), encoding="utf-8")
    for a, e in zip(report.axis, report.errors):
        print(f"steps={a:6d}  error={e:.6e}")
    if report.orders:
        print("orders:", " ".join(f"{o:.4f}" for o in report.orders))
    return 0


def _cmd_converge_space(cfg: RunConfig, modes: str, study_dt: float | None) -> int:
    out = _require_output(cfg)
    report = _run_study(cfg, "modes", modes, spatial_convergence_study, dt=study_dt)
    (out / "convergence_space.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / "convergence_space.txt").write_text(report_to_text(report), encoding="utf-8")
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

    def integrating_factor_linear():
        grid = make_grid(64, 0.0, TWO_PI)
        params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
        initial = build_initial(InitialConditionSpec(kind="paper"), grid)
        sym = linear_symbol(params, grid)
        solved = integrating_factor_rk4_solve(initial, params, sym, 0.25, 1.0)
        exact = linear_exact_solution(initial, sym, 1.0)
        diff = norm(SpectralState(solved.coeffs - exact.coeffs, grid))
        return float(diff), 1e-12

    return [
        ("dft_round_trip", round_trip),
        ("heat_decay_closed_form", heat_decay),
        ("logistic_closed_form", logistic_reaction),
        ("dispersion_phase_advance", dispersion_phase),
        ("integrating_factor_exact_linear", integrating_factor_linear),
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
    p_time.add_argument("--quality", default="high", choices=("standard", "high"),
                        help="reference tolerance (relative: standard 1e-10, high 1e-12)")

    p_space = sub.add_parser("converge-space", help="spatial convergence study")
    add_config_flags(p_space)
    p_space.add_argument("--modes", default="8,16,32,64",
                         help="comma-separated mode counts")
    p_space.add_argument("--study-dt", type=float, default=None,
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
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in CONFIG_KEYS
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return parse_config(source, overrides)


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
