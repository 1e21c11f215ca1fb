"""Benchmark of the kbf solver suite.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/kbf``.  Repeats the
workload, each repetition in a fresh process (see ``worker.py``), for
``--seconds`` seconds and at least three times.  Load is
closed-loop: one caller, each repetition starts after the previous ends.
Every repetition's output is checked; a repetition that raises or fails
its check counts as failed.

The last line of standard output is one JSON object.  With ``--trace 0``
its metrics are the end-to-end medians over the repetitions: ``wall_rel``
(the call's wall time over the host probe timed just before it in the
same process, see ``workloads.host_probe``), ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` one more repetition runs traced after
the untraced ones and the metrics are its per-layer figures.  The lines
before it give quartiles, sample counts, accuracy and environment facts; a
full record, spans included, goes to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402

MIN_REPS = 3
# set-up is short and noisy, so extra set-up-only processes add samples
MIN_SETUP_SAMPLES = 15
# no repetition starts after this many seconds, so a run ends well within 180 s
START_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 150.0
OUT_DIR = ROOT / ".perfbench-out"
END_TO_END = {"wall_rel": "probe", "setup_s": "s", "peak_rss_mb": "MB"}
# per-repetition samples; setup_s also comes from set-up-only processes
SAMPLES = {"wall_s": "s", "probe_s": "s", "wall_rel": "probe", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metric -> unit, in the order they are printed
PER_LAYER = {
    "fft.calls": "count", "fft.points": "count", "fft.flops_computed": "flop",
    "fft.busy_s": "s", "fft.us_per_call": "us",
    "flows.propagator_builds": "count",
    "evolve.calls": "count", "evolve.steps": "count", "evolve.busy_s": "s",
    "evolve.self_s": "s", "evolve.step_us": "us", "evolve.overhead_share": "ratio",
    "reference.make_calls": "count", "reference.cache_hit_ratio": "ratio",
    "reference.solve_steps": "count", "reference.busy_s": "s", "reference.self_s": "s",
    "reference.share": "ratio",
    "harness.self_s": "s", "harness.error_norm_s": "s",
    "cli.self_s": "s", "cli.observer_s": "s", "cli.observer_self_s": "s",
    "cli.files_written": "count", "cli.bytes_written": "B",
    "trace.overhead_s": "s", "trace.result_match": "bool",
    "final_err": "l2", "order_dev": "order",
}


class RepFailed(Exception):
    pass


def environment() -> dict:
    """Facts that must match before two results may be compared."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or "unknown",
        "os": platform.platform(),
        # the workload itself always runs with KBF_THREADS removed
        "kbf_threads_env": os.environ.get("KBF_THREADS"),
    }


def run_worker(workload: str, seed: int, workdir: Path, traced: bool, setup_only: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KBF_THREADS"}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(workdir), str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise RepFailed(tail[0])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Checks each repetition's output and keeps its accuracy figures."""

    def __init__(self, workload: str, seed: int):
        self.w = W.WORKLOADS[workload]
        self.final_err = 0.0
        self.order_dev = 0.0
        if self.w["kind"] == "solve":
            n = self.w["n_modes"]
            values = W.initial_values(W.initial_profile(seed), W.grid_points(n))
            # computed once per seed, outside every timed region
            self.reference = W.if_rk4_reference(values)
            self.tol = W.FINAL_ERR_FACTOR * W.SEED0_FINAL_ERR[workload]

    def check(self, rep: dict, workdir: Path) -> bytes:
        """Raise CheckFailed on a bad output; return the result's bytes for the trace match."""
        kind = self.w["kind"]
        if kind == "solve":
            if rep["result"] != 0:
                raise W.CheckFailed(f"kbf solve exited with {rep['result']}")
            final, self.final_err = W.check_solve(
                workdir / "out", self.w["n_modes"], self.w["steps"], self.w["stride"],
                self.reference, self.tol)
            return final.tobytes()
        errors = [float.fromhex(h) for h in rep["result"]]
        if len(errors) != len(self.w["axis"]):
            raise W.CheckFailed(f"{len(errors)} errors for axis {self.w['axis']}")
        if kind == "temporal":
            self.order_dev = W.check_temporal(errors)
        else:
            W.check_spatial(errors)
        return json.dumps(rep["result"]).encode()


def summary(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def output_size(directory: Path) -> tuple[int, int]:
    files = [p for p in directory.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def measure(args, scratch: Path) -> dict:
    checker = Checker(args.workload, args.seed)
    samples = {k: [] for k in SAMPLES}
    failures = []
    attempted = 0
    first_result = None

    def one(traced: bool):
        nonlocal attempted, first_result
        attempted += 1
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            rep = run_worker(args.workload, args.seed, workdir, traced)
            result = checker.check(rep, workdir)
            if traced:
                rep["files"] = output_size(workdir / "out") if (workdir / "out").is_dir() else (0, 0)
                rep["result_match"] = result == first_result
                if not rep["result_match"]:
                    failures.append("traced result differs from the untraced result")
            elif first_result is None:
                first_result = result
            return rep
        except (RepFailed, W.CheckFailed) as exc:
            failures.append(str(exc))
            print(f"repetition {attempted} failed: {exc}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def setup_only() -> float:
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            return run_worker(args.workload, args.seed, workdir, False, setup_only=True)["setup_s"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    # untimed: writes bytecode caches and fails fast when kbf cannot load
    setup_only()

    started = time.perf_counter()
    iterations = []
    while attempted < MIN_REPS or (
        # stop before a repetition that would end past --seconds
        time.perf_counter() - started + statistics.median(iterations) <= args.seconds
        and time.perf_counter() - started < START_LIMIT_S
    ):
        t = time.perf_counter()
        rep = one(traced=False)
        if rep is not None:
            for k in ("wall_s", "probe_s", "setup_s", "peak_rss_mb"):
                samples[k].append(rep[k])
            samples["wall_rel"].append(rep["wall_s"] / rep["probe_s"])
        samples["setup_s"].append(setup_only())
        iterations.append(time.perf_counter() - t)
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(setup_only())
    measured_s = time.perf_counter() - started
    traced_rep = one(traced=True) if args.trace and samples["wall_s"] else None

    return {
        "checker": checker,
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
        "measured_s": measured_s,
        "traced": traced_rep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kbf" / "__init__.py").is_file():
        print(f"perfbench: no kbf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR / "work"))
    try:
        m = measure(args, scratch)
    except RepFailed as exc:
        print(f"perfbench: {args.workload} cannot start: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    samples = m["samples"]
    if not samples["wall_s"]:
        print(f"perfbench: every repetition of {args.workload} failed", file=sys.stderr)
        return 1

    checker, traced = m["checker"], m["traced"]
    failed = len(m["failures"])
    summaries = {k: summary(v) for k, v in samples.items()}
    accuracy = {"final_err": checker.final_err, "order_dev": checker.order_dev}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "attempted": m["attempted"], "failed": failed, "failures": m["failures"],
        "measured_s": m["measured_s"], "samples": samples, "summary": summaries,
        "accuracy": accuracy,
    }

    print(f"{args.workload} seed {args.seed}: {m['attempted']} repetitions in "
          f"{m['measured_s']:.1f} s, failed_ratio {failed}/{m['attempted']}")
    for k, s in summaries.items():
        print(f"  {k:12s} median {s['median']:.6g} {SAMPLES[k]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    end_to_end = {k: summaries[k]["median"] for k in END_TO_END}
    print(f"  accuracy     final_err {checker.final_err:.6g}  order_dev {checker.order_dev:.6g}")
    print("  environment  " + json.dumps(env))

    if args.trace:
        if traced is None:
            print("perfbench: the traced repetition failed", file=sys.stderr)
            return 1
        layer = dict(traced["per_layer"])
        layer["cli.files_written"], layer["cli.bytes_written"] = traced["files"]
        layer["trace.overhead_s"] = traced["wall_s"] - summaries["wall_s"]["median"]
        layer["trace.result_match"] = int(traced["result_match"])
        layer.update(accuracy)
        record.update(per_layer=layer, self_by_layer=traced["self_by_layer"],
                      fft_by_span=traced["fft_by_span"], absent=traced["absent"],
                      traced_wall_s=traced["wall_s"], spans=traced["spans"])
        for k, unit in PER_LAYER.items():
            print(f"  [trace] {k:28s} {layer[k]:.6g} {unit}")
        ranked = sorted(traced["self_by_layer"].items(), key=lambda kv: -kv[1])
        print("  [trace] self time by layer: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
        print("  [trace] FFT time by calling span: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in traced["fft_by_span"].items()))
        if traced["absent"]:
            print("  [trace] absent: " + ", ".join(traced["absent"]))
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
