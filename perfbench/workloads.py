"""Workloads of the kbf benchmark: seeded inputs, the call into kbf, output checks.

Every workload uses the all-ones coefficients, T = 1 and the Strang scheme,
and enters kbf only through a public entry point.  Why each one exists:

* ``table1``: the paper's experiment, ``temporal_convergence_study`` at
  N = 256 over T/dt = 12..384 with the ``high`` reference and an empty
  reference cache.  The IF-RK4 reference dominates it, so a change to the
  reference's size shows here and nowhere else.
* ``spatial``: ``spatial_convergence_study`` with a reference grid of
  N = 128, axis 8..64 and dt = T/2048.  About 10k Strang steps on short
  FFTs, so per-step Python overhead dominates.
* ``snapshots``: ``kbf solve`` at N = 1024, dt = 1/384, snapshot stride 1.
  Writing the 385 snapshot CSVs dominates.
* ``long_solve``: ``kbf solve`` at N = 4096, dt = 1/2048, no snapshots.
  FFT throughput dominates; it shares its entry point with ``snapshots``,
  so the pair isolates the writer.

Inputs come from the seed alone.  Seed 0 is the paper profile
``1/2 + 1/4*sin(x)``; any other seed draws a mode-1 offset in [0.45, 0.55]
and amplitude in [0.2, 0.3].  Only mode 1 varies: with extra +-0.02 noise
in modes 1-4 the Table-1 orders spread over 1.25-3.59, outside the paper's
band [1.85, 2.15], while mode-1-only seeds 0-10 keep every order within
[1.9986, 2.0766].

This module imports no kbf code at import time; the functions that need
kbf take the imported package as an argument.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
T_FINAL = 1.0
COEFFS = {"nu": 1.0, "mu": 1.0, "gamma": 1.0, "eps_conv": 1.0, "eps_react": 1.0}

WORKLOADS = {
    "table1": {"kind": "temporal", "n_modes": 256, "axis": (12, 24, 48, 96, 192, 384)},
    "spatial": {"kind": "spatial", "n_modes": 128, "axis": (8, 16, 32, 64), "steps": 2048},
    "snapshots": {"kind": "solve", "n_modes": 1024, "steps": 384, "stride": 1},
    "long_solve": {"kind": "solve", "n_modes": 4096, "steps": 2048, "stride": 0},
}

# Table-1 band of the paper (acceptance criterion 1).
ORDER_BAND = (1.85, 2.15)
# Spatial errors at or below this are round-off (seed 0 reaches ~2.6e-16 at N=16).
ROUNDOFF = 1e-13
# Seed-0 L2 distance of the final state from the benchmark's IF-RK4 solution;
# seeds 1-10 stay within 1.63x of it, so the check allows 3x.
SEED0_FINAL_ERR = {"snapshots": 8.117147383976668e-08, "long_solve": 2.85311186770103e-09}
FINAL_ERR_FACTOR = 3.0
# IF-RK4 steps of the benchmark's own reference: 1024 steps differ from 2048
# by ~1e-12, far below the Strang errors checked against it.
REFERENCE_STEPS = 1024


def initial_profile(seed: int) -> dict:
    """Initial-condition keys (``ic.*`` without the prefix) for a workload seed."""
    if seed == 0:
        return {"kind": "paper"}
    rng = random.Random(seed)
    offset = rng.uniform(0.45, 0.55)
    amp = rng.uniform(0.2, 0.3)
    return {"kind": "mode", "mode_k": 1, "mode_offset": offset, "mode_amp": amp}


def initial_values(profile: dict, x: np.ndarray) -> np.ndarray:
    if profile["kind"] == "paper":
        return 0.5 + 0.25 * np.sin(x)
    return profile["mode_offset"] + profile["mode_amp"] * np.sin(profile["mode_k"] * x)


def grid_points(n_modes: int) -> np.ndarray:
    return np.arange(n_modes) * (TWO_PI / n_modes)


def config_text(workload: str, profile: dict) -> str:
    """``kbf solve`` config file for a solve workload."""
    w = WORKLOADS[workload]
    lines = [f"{k} = {v!r}" for k, v in COEFFS.items()]
    lines += [
        f"n_modes = {w['n_modes']}",
        f"dt = {T_FINAL / w['steps']!r}",
        f"t_final = {T_FINAL!r}",
        "scheme = strang",
        f"snapshot_stride = {w['stride']}",
    ]
    lines += [f"ic.{k} = {v!r}" if not isinstance(v, str) else f"ic.{k} = {v}" for k, v in profile.items()]
    return "\n".join(lines) + "\n"


def prepare(kbf, workload: str, profile: dict, workdir: Path):
    """Build a workload's inputs; returns ``(call, top_span_name)``.

    ``call()`` runs the workload once and returns its in-memory result:
    the error tuple of a study, or the exit code of ``kbf solve``.
    """
    w = WORKLOADS[workload]
    if w["kind"] == "solve":
        import kbf.cli

        cfg = workdir / "run.cfg"
        cfg.write_text(config_text(workload, profile), encoding="utf-8")
        argv = ["solve", "--config", str(cfg), "--output", str(workdir / "out")]
        return (lambda: kbf.cli.run_cli(argv)), "cli.run"

    spec = kbf.ExperimentSpec(
        params=kbf.ModelParams(**COEFFS),
        grid=kbf.make_grid(w["n_modes"], 0.0, TWO_PI),
        initial_condition=kbf.InitialConditionSpec(**profile),
        t_final=T_FINAL,
        scheme="strang",
        axis=w["axis"],
    )
    if w["kind"] == "temporal":
        return (lambda: kbf.temporal_convergence_study(spec, quality="high").errors), "harness.study"
    dt = T_FINAL / w["steps"]
    return (lambda: kbf.spatial_convergence_study(spec, dt=dt).errors), "harness.study"


# -- the benchmark's own reference ------------------------------------------


def if_rk4_reference(values: np.ndarray, steps: int = REFERENCE_STEPS) -> np.ndarray:
    """Integrating-factor RK4 solution at T of the all-ones equation on [0, 2*pi)."""
    n = values.size
    kappa = np.fft.fftfreq(n, d=1.0 / n)
    lam = -kappa**2 + 1j * (kappa**3 - kappa**5)
    lam[n // 2] = lam[n // 2].real
    ik = 1j * kappa
    ik[n // 2] = 0.0
    dt = T_FINAL / steps
    e_half = np.exp(lam * (dt / 2.0))
    e_full = e_half * e_half

    def f(c):
        y = np.fft.ifft(c).real
        return (-1.0 / 3.0) * (ik * np.fft.fft(y * y * y)) + (c - np.fft.fft(y * y))

    c = np.fft.fft(values)
    for _ in range(steps):
        a = f(c)
        b = f(e_half * (c + (0.5 * dt) * a))
        s3 = f(e_half * c + (0.5 * dt) * b)
        s4 = f(e_full * c + dt * (e_half * s3))
        c = e_full * c + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + s3) + s4)
    return np.fft.ifft(c).real


def host_probe() -> float:
    """Seconds the host takes for a fixed computation that shares no code with kbf.

    The benchmark's own IF-RK4 at N=128 for 1000 steps (~0.2 s).  On
    a shared host the speed a process gets drifts by up to 1.8x over tens
    of seconds; timing this probe next to the workload measures that drift.
    """
    values = initial_values({"kind": "paper"}, grid_points(128))
    t0 = time.perf_counter()
    if_rk4_reference(values, steps=1000)
    return time.perf_counter() - t0


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    return math.sqrt(TWO_PI / a.size * float(np.sum((a - b) ** 2)))


# -- output checks ------------------------------------------------------------


class CheckFailed(Exception):
    pass


def check_temporal(errors) -> float:
    """Every Table-1 order lies in the paper's band; returns max |order - 2|."""
    if not all(math.isfinite(e) and e > 0 for e in errors):
        raise CheckFailed(f"errors must be finite and positive: {errors}")
    orders = [math.log2(a / b) for a, b in zip(errors[:-1], errors[1:])]
    lo, hi = ORDER_BAND
    bad = [o for o in orders if not lo <= o <= hi]
    if bad:
        raise CheckFailed(f"orders {bad} outside [{lo}, {hi}]")
    return max(abs(o - 2.0) for o in orders)


def check_spatial(errors) -> None:
    """Errors fall along the axis until they reach round-off, and they reach it."""
    if not all(math.isfinite(e) and e >= 0 for e in errors):
        raise CheckFailed(f"errors must be finite: {errors}")
    if errors[0] <= ROUNDOFF or errors[-1] > ROUNDOFF:
        raise CheckFailed(f"errors do not converge to round-off: {errors}")
    for a, b in zip(errors[:-1], errors[1:]):
        if (a > ROUNDOFF and not b < a) or (a <= ROUNDOFF and b > ROUNDOFF):
            raise CheckFailed(f"errors do not decrease to round-off: {errors}")


def read_snapshot(path: Path, n_modes: int) -> tuple[int, np.ndarray]:
    """Reparse one CLI snapshot CSV; returns ``(step, y)``."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    step = None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            if key.strip() == "step":
                step = int(value)
            continue
        if line.strip() != "x,y":
            raise CheckFailed(f"{path.name}: bad header {line!r}")
        body = lines[i + 1 :]
        break
    else:
        raise CheckFailed(f"{path.name}: no x,y header")
    if step is None or len(body) != n_modes:
        raise CheckFailed(f"{path.name}: step {step}, {len(body)} rows for N={n_modes}")
    try:
        xy = np.array(",".join(body).split(","), dtype=np.float64).reshape(n_modes, 2)
    except ValueError:
        raise CheckFailed(f"{path.name}: rows do not reparse as x,y pairs") from None
    if not np.all(np.isfinite(xy)):
        raise CheckFailed(f"{path.name}: non-finite values")
    if not np.allclose(xy[:, 0], grid_points(n_modes), rtol=0.0, atol=1e-12):
        raise CheckFailed(f"{path.name}: abscissae do not match the grid")
    return step, xy[:, 1]


def check_solve(outdir: Path, n_modes: int, steps: int, stride: int,
                reference: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Check a ``kbf solve`` output directory; returns ``(final_y, final_err)``.

    Each recorded step before the last has a snapshot that reparses.  The
    final state may be in ``snapshot_<steps>.csv``, in ``final.csv`` or in
    both (then they must agree); its distance from ``reference`` must be
    under ``tol``.
    """
    for k in range(0, steps, stride) if stride else ():
        step, _ = read_snapshot(outdir / f"snapshot_{k:06d}.csv", n_modes)
        if step != k:
            raise CheckFailed(f"snapshot_{k:06d}.csv says step {step}")
    finals = []
    for name in (f"snapshot_{steps:06d}.csv", "final.csv"):
        if (outdir / name).exists():
            step, y = read_snapshot(outdir / name, n_modes)
            if step != steps:
                raise CheckFailed(f"{name} says step {step}, expected {steps}")
            finals.append(y)
    if not finals:
        raise CheckFailed("no final state written")
    if len(finals) == 2 and finals[0].tobytes() != finals[1].tobytes():
        raise CheckFailed("final.csv and the last snapshot disagree")
    err = l2_distance(finals[-1], reference)
    if not err < tol:
        raise CheckFailed(f"final_err {err:.3e} is not under {tol:.3e}")
    return finals[-1], err
