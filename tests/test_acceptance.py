"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[criterion NN] PASS/FAIL`` line (run pytest with
``-s`` or ``-rA`` to see the lines for passing tests).

Criterion 6 measures the one-step defect slope over
dt in {2^-8, 2^-9, 2^-10}.  The dt^3 local-error bound of a Strang step
carries a constant that grows with the fifth-order symbol, so it shows as
slope 3 only once |lambda_k|*dt <= 1 on the populated modes |k| <= 3
(|lambda_3| ~ 216 with unit coefficients); the test asserts that
precondition.  The earlier window {1/16, 1/32, 1/64} had |lambda_3|*dt
between 13.5 and 3.4, where each mode's splitting error scales like dt
times its forcing: there the slope is 2.0765, and an independent Strang
step (exact exponentials via numpy.fft, scipy DOP853 at rtol 1e-13 for
the nonlinear part) gives the same defects and the same slope.
"""

import time

import numpy as np
import pytest

from kbf import (
    ExperimentSpec,
    InitialConditionSpec,
    ModelParams,
    NormSpec,
    SolveConfig,
    apply_linear,
    build_initial,
    build_propagator,
    error_norm,
    evolve,
    interpolation_error_decay,
    lie_trotter_step,
    linear_symbol,
    logistic_exact,
    make_grid,
    norm,
    nonlinear_rhs_physical,
    nonlinear_rhs_spectral,
    real_residue,
    spatial_convergence_study,
    strang_step,
    temporal_convergence_study,
    to_physical,
    to_spectral,
)
from kbf.cli import run_cli

TWO_PI = 2.0 * np.pi

FULL_PARAMS = ModelParams(nu=1.0, mu=1.0, gamma=1.0, eps_conv=1.0, eps_react=1.0)
SINE_IC = InitialConditionSpec(kind="paper")
TABLE1_AXIS = (12, 24, 48, 96, 192, 384)


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def grid256():
    return make_grid(256, 0.0, TWO_PI)


@pytest.fixture(scope="module")
def strang_table(grid256):
    spec = ExperimentSpec(
        params=FULL_PARAMS,
        grid=grid256,
        initial_condition=SINE_IC,
        t_final=1.0,
        scheme="strang",
        axis=TABLE1_AXIS,
    )
    start = time.perf_counter()
    report = temporal_convergence_study(spec, quality="high")
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def lie_table(grid256):
    spec = ExperimentSpec(
        params=FULL_PARAMS,
        grid=grid256,
        initial_condition=SINE_IC,
        t_final=1.0,
        scheme="lie_trotter",
        axis=TABLE1_AXIS,
    )
    return temporal_convergence_study(spec, quality="high")


def test_criterion_01_table1_orders(strang_table):
    report, elapsed = strang_table
    orders = report.orders
    ok = len(orders) == 5 and all(1.85 <= o <= 2.15 for o in orders)
    detail = (
        "orders " + ", ".join(f"{o:.4f}" for o in orders)
        + f" all within [1.85, 2.15] (targets 2.0693..1.9899); {elapsed:.1f}s"
    )
    assert _verdict(1, ok, detail)
    assert elapsed < 30.0


TABLE1_ERRORS_HEX = [
    "0x1.7a6018dbcb691p-14",
    "0x1.68992c7448ed5p-16",
    "0x1.671ddaf9b7931p-18",
    "0x1.5dc1f740104e1p-20",
    "0x1.5cdc2fe72ce71p-22",
    "0x1.5ca10d7d0d9b6p-24",
]


def test_table1_errors_are_bit_identical_to_the_pin(strang_table):
    """Table 1's six errors, bit for bit, as pinned on numpy 2.4.6 on x86-64.

    A change that moves them is not bit-identical: it reports the new values
    and why they moved in CHANGES.md; the pin is not re-pinned silently.
    """
    report, _ = strang_table
    assert [e.hex() for e in report.errors] == TABLE1_ERRORS_HEX


def test_criterion_02_error_curve_shape(strang_table):
    report, _ = strang_table
    errors = np.asarray(report.errors)
    decreasing = bool(np.all(np.diff(errors) < 0))
    tail_axis = np.asarray(report.axis[-3:], dtype=float)
    slope = np.polyfit(np.log(tail_axis), np.log(errors[-3:]), 1)[0]
    ok = decreasing and abs(slope + 2.0) <= 0.15
    assert _verdict(
        2, ok, f"errors strictly decreasing={decreasing}, tail log-log slope {slope:.4f} = -2 +/- 0.15"
    )


def test_criterion_03_heat_limit_exactness():
    grid = make_grid(256, 0.0, TWO_PI)
    params = ModelParams(nu=1.0)
    initial = build_initial(SINE_IC, grid)
    exact = 0.5 + 0.25 * np.exp(-1.0) * np.sin(grid.points)
    worst = 0.0
    for dt in (1.0 / 10, 1.0 / 100):
        traj = evolve(initial, params, SolveConfig(dt=dt, t_final=1.0))
        worst = max(worst, float(np.max(np.abs(to_physical(traj.final) - exact))))
    ok = worst <= 1e-10
    assert _verdict(3, ok, f"max deviation from closed form {worst:.3e} <= 1e-10")


def test_criterion_04_logistic_fourth_order():
    grid = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    initial = build_initial(InitialConditionSpec(kind="constant", c=0.5), grid)
    exact = logistic_exact(0.5, 1.0, 1.0)
    errors = []
    for dt in (1.0 / 20, 1.0 / 40, 1.0 / 80):
        traj = evolve(initial, params, SolveConfig(dt=dt, t_final=1.0))
        errors.append(float(np.max(np.abs(to_physical(traj.final) - exact))))
    ratios = [a / b for a, b in zip(errors[:-1], errors[1:])]
    ok = all(12.0 <= r <= 20.0 for r in ratios)
    assert _verdict(
        4, ok, "error ratios per dt halving " + ", ".join(f"{r:.2f}" for r in ratios) + " within [12, 20]"
    )


def test_criterion_05_lie_trotter_baseline(strang_table, lie_table):
    strang_report, _ = strang_table
    orders = lie_table.orders
    in_band = all(0.8 <= o <= 1.2 for o in orders)
    separated = max(orders) < min(strang_report.orders)
    ok = in_band and separated
    assert _verdict(
        5,
        ok,
        "lie-trotter orders " + ", ".join(f"{o:.4f}" for o in orders)
        + f" within [0.8, 1.2], separated from strang={separated}",
    )


def test_criterion_06_local_defect_slope(grid256):
    # the dt^3 local error holds once |lambda_k|*dt <= 1 on the populated
    # modes |k| <= 3; the window is the largest power-of-two ladder with that
    symbol = linear_symbol(FULL_PARAMS, grid256)
    initial = build_initial(SINE_IC, grid256)
    dts = [2.0**-8, 2.0**-9, 2.0**-10]
    populated = np.abs(grid256.wavenumbers) <= 3
    stiffness = float(np.max(np.abs(symbol.values[populated]))) * max(dts)
    assert stiffness <= 1.0, f"max |lambda_k|*dt = {stiffness:.3f} > 1: window is pre-asymptotic"

    def defect_slope(step):
        defects = []
        for dt in dts:
            one = step(initial, dt, FULL_PARAMS, symbol)
            two = step(step(initial, dt / 2, FULL_PARAMS, symbol), dt / 2, FULL_PARAMS, symbol)
            defects.append(error_norm(one, two))
        return float(np.polyfit(np.log(dts), np.log(defects), 1)[0])

    slope = defect_slope(strang_step)
    lie_slope = defect_slope(lie_trotter_step)
    ok = slope >= 2.7 and lie_slope < 2.3
    _verdict(
        6,
        ok,
        f"defect log-log slope {slope:.4f} over dt {{2^-8, 2^-9, 2^-10}}, required >= 2.7; "
        f"lie-trotter {lie_slope:.4f} < 2.3; max |lambda_k|*dt {stiffness:.3f} <= 1",
    )
    assert slope >= 2.7, (
        f"one-step Strang defect slope {slope:.4f} < 2.7 in the window where "
        f"max |lambda_k|*dt = {stiffness:.3f} <= 1, so the dt^3 local error should show"
    )
    assert lie_slope < 2.3, (
        f"Lie-Trotter defect slope {lie_slope:.4f} >= 2.3: the window no longer separates "
        "a first-order composition from Strang"
    )


def test_criterion_07_spectral_spatial_convergence(grid256):
    spec = ExperimentSpec(
        params=FULL_PARAMS,
        grid=grid256,
        initial_condition=SINE_IC,
        t_final=1.0,
        scheme="strang",
        axis=(8, 16, 32, 64),
    )
    report = spatial_convergence_study(spec, dt=1.0 / 2048)
    errors = list(report.errors)
    ok = True
    for a, b in zip(errors[:-1], errors[1:]):
        if a > 1e-10:
            ok = ok and (a / b >= 10.0)
    ok = ok and errors[-1] <= 1e-10
    assert _verdict(
        7, ok, "errors " + ", ".join(f"{e:.2e}" for e in errors) + " drop >=10x per doubling until below 1e-10"
    )


def test_criterion_08_dissipativity():
    rng = np.random.default_rng(1234)
    grid = make_grid(32, 0.0, TWO_PI)
    specs = [NormSpec("hs", s) for s in (0, 1, 2)]
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(
            nu=float(rng.uniform(1e-3, 2.0)),
            mu=float(rng.uniform(-2.0, 2.0)),
            gamma=float(rng.uniform(-2.0, 2.0)),
        )
        prop = build_propagator(linear_symbol(params, grid), float(rng.uniform(0.0, 2.0)))
        state = to_spectral(rng.standard_normal(32), grid)
        out = apply_linear(prop, state)
        for spec in specs:
            before = norm(state, spec)
            after = norm(out, spec)
            worst = max(worst, after / before)
    ok = worst <= 1.0 + 1e-12
    assert _verdict(8, ok, f"worst H^s growth factor over 1000 random states {worst:.15f} <= 1+1e-12")


def test_criterion_09_interpolation_decay():
    analytic = dict(interpolation_error_decay("inverse_two_plus_cos", NormSpec("l2"), [16, 32]))
    ratio = analytic[16] / analytic[32]
    pairs = interpolation_error_decay("abs_sin_cubed", NormSpec("l2"), [8, 16, 32, 64, 128])
    ns = np.array([p[0] for p in pairs], dtype=float)
    errs = np.array([p[1] for p in pairs])
    rate = -float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = ratio >= 100.0 and 2.5 <= rate <= 4.5
    assert _verdict(
        9, ok, f"analytic N=16/N=32 error ratio {ratio:.1f} >= 100; |sin x|^3 fitted rate {rate:.2f} in [2.5, 4.5]"
    )


def test_criterion_10_structural_properties(tmp_path):
    rng = np.random.default_rng(777)
    grid = make_grid(64, 0.0, TWO_PI)

    # DFT round trip
    v = rng.standard_normal(64)
    round_trip = float(np.max(np.abs(to_physical(to_spectral(v, grid)) - v)))
    ok_rt = round_trip <= 1e-12 * max(1.0, float(np.max(np.abs(v))))

    # physical/spectral nonlinear forms agree on alias-free data
    values = 0.1 * np.cos(2 * grid.points) + 0.05 * np.sin(5 * grid.points) + 0.4
    spectral_form = to_physical(nonlinear_rhs_spectral(to_spectral(values, grid), FULL_PARAMS))
    physical_form = nonlinear_rhs_physical(values, FULL_PARAMS, grid)
    rhs_gap = norm(spectral_form - physical_form, grid=grid)
    ok_rhs = rhs_gap <= 1e-10

    # equilibria hold over 1000 steps
    ok_eq = True
    for c in (0.0, 1.0):
        traj = evolve(
            to_spectral(np.full(16, c), make_grid(16, 0.0, TWO_PI)),
            FULL_PARAMS,
            SolveConfig(dt=1e-3, t_final=1.0),
        )
        ok_eq = ok_eq and float(np.max(np.abs(to_physical(traj.final) - c))) <= 1e-10

    # reality preserved over 100 steps
    initial = build_initial(SINE_IC, grid)
    traj = evolve(initial, FULL_PARAMS, SolveConfig(dt=1e-2, t_final=1.0))
    ok_real = real_residue(traj.final.coeffs) <= 1e-10

    # repeated CLI runs are bit-identical
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "nu = 1\nmu = 1\ngamma = 1\neps_conv = 1\neps_react = 1\n"
        "n_modes = 64\ndt = 0.05\nt_final = 1\nic.kind = paper\n"
    )
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 0
    first = (out / "final.csv").read_bytes()
    assert run_cli(["solve", "--config", str(cfg), "--output", str(out)]) == 0
    ok_det = (out / "final.csv").read_bytes() == first

    ok = ok_rt and ok_rhs and ok_eq and ok_real and ok_det
    assert _verdict(
        10,
        ok,
        f"round-trip {round_trip:.1e}; rhs-form gap {rhs_gap:.1e}; "
        f"equilibria={ok_eq}; reality={ok_real}; bit-identical={ok_det}",
    )
