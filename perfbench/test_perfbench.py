"""Tests of the benchmark itself: python -m pytest perfbench"""

import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_seed_gives_the_same_inputs_every_time():
    for seed in (0, 1, 7, 123456):
        assert W.initial_profile(seed) == W.initial_profile(seed)
        assert W.config_text("snapshots", W.initial_profile(seed)) == W.config_text(
            "snapshots", W.initial_profile(seed)
        )
    code = "import sys; sys.path.insert(0, 'perfbench'); import workloads; print(workloads.initial_profile(5))"
    other = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    assert other.stdout.strip() == str(W.initial_profile(5))


def test_seeds_vary_only_mode_one_within_their_ranges():
    assert W.initial_profile(0) == {"kind": "paper"}
    x = W.grid_points(64)
    np.testing.assert_array_equal(W.initial_values({"kind": "paper"}, x), 0.5 + 0.25 * np.sin(x))
    for seed in range(1, 50):
        p = W.initial_profile(seed)
        assert p["kind"] == "mode" and p["mode_k"] == 1
        assert 0.45 <= p["mode_offset"] <= 0.55 and 0.2 <= p["mode_amp"] <= 0.3
    assert W.initial_profile(1) != W.initial_profile(2)


def test_self_time_with_nested_and_overlapping_children():
    # root [0, 10] with 1 s of its own FFT time; children [1, 4] and [3, 6]
    # overlap, [8, 9] stands alone; [1.5, 2] is nested in the first child.
    tree = [
        ["root", 0.0, 10.0, None, 1.0],
        ["a", 1.0, 4.0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0.5],
        ["c", 8.0, 9.0, 0, 0.0],
        ["a.inner", 1.5, 2.0, 1, 0.0],
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([10 - 6 - 1, 3 - 0.5, 3 - 0.5, 1, 0.5])


def test_union_length_clips_to_the_parent():
    assert spans.union_length([(-1.0, 2.0), (1.0, 3.0), (5.0, 20.0)], 0.0, 10.0) == pytest.approx(8.0)
    assert spans.union_length([], 0.0, 1.0) == 0.0


def test_metric_names_follow_the_grammar_and_match_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in bench[key])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def _tiny_solve(tmp_path):
    """Run ``kbf solve`` at N=16 with 4 steps and every step written."""
    from kbf.cli import run_cli

    cfg = W.config_text("snapshots", W.initial_profile(0)).replace("n_modes = 1024", "n_modes = 16")
    cfg = cfg.replace(f"dt = {1 / 384!r}", "dt = 0.25")
    (tmp_path / "run.cfg").write_text(cfg)
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(tmp_path / "run.cfg"), "--output", str(out)]) == 0
    reference = W.if_rk4_reference(W.initial_values({"kind": "paper"}, W.grid_points(16)), steps=256)
    return out, reference


def _corrupt_one_value(path):
    lines = path.read_text().splitlines()
    row = lines.index("x,y") + 5
    x, y = lines[row].split(",")
    lines[row] = f"{x},{float(y) + 0.1!r}"
    path.write_text("\n".join(lines) + "\n")


def test_solve_check_fails_when_one_final_value_is_corrupted(tmp_path):
    out, reference = _tiny_solve(tmp_path)
    _, err = W.check_solve(out, 16, 4, 1, reference, tol=np.inf)
    W.check_solve(out, 16, 4, 1, reference, tol=2 * err)

    _corrupt_one_value(out / "final.csv")
    with pytest.raises(W.CheckFailed, match="disagree"):
        W.check_solve(out, 16, 4, 1, reference, tol=2 * err)
    (out / "snapshot_000004.csv").unlink()
    with pytest.raises(W.CheckFailed, match="final_err"):
        W.check_solve(out, 16, 4, 1, reference, tol=2 * err)


def test_solve_check_fails_on_a_missing_or_unparsable_snapshot(tmp_path):
    out, reference = _tiny_solve(tmp_path)
    (out / "snapshot_000002.csv").write_text((out / "snapshot_000002.csv").read_text().replace(",", ";", 3))
    with pytest.raises(W.CheckFailed):
        W.check_solve(out, 16, 4, 1, reference, tol=np.inf)
    (out / "snapshot_000002.csv").unlink()
    with pytest.raises(W.CheckFailed):
        W.check_solve(out, 16, 4, 1, reference, tol=np.inf)


def test_study_checks():
    good = [1.6e-4, 4e-5, 1e-5]
    assert W.check_temporal(good) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(W.CheckFailed):
        W.check_temporal([1e-4, 1e-5])
    W.check_spatial([6e-9, 2.6e-16, 2.5e-16, 2.6e-16])
    with pytest.raises(W.CheckFailed):
        W.check_spatial([6e-9, 7e-9, 2e-16])
    with pytest.raises(W.CheckFailed):
        W.check_spatial([6e-9, 2e-16, 1e-9])


def test_tracer_restores_every_name_and_keeps_the_result(tmp_path):
    import kbf
    import kbf.cli

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.SPAN_SITES + spans.COUNT_SITES}
    fft = np.fft.fft
    spec = kbf.ExperimentSpec(
        params=kbf.ModelParams(**W.COEFFS), grid=kbf.make_grid(16, 0.0, W.TWO_PI),
        initial_condition=kbf.InitialConditionSpec(kind="paper"), t_final=1.0, axis=(4, 8),
    )
    untraced = kbf.spatial_convergence_study(spec, dt=0.25).errors
    tracer = spans.Tracer().install()
    assert np.fft.fft is not fft and not tracer.absent
    top = tracer.open("harness.study")
    traced = kbf.spatial_convergence_study(spec, dt=0.25).errors
    tracer.close(top)
    tracer.remove()
    assert np.fft.fft is fft
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    assert traced == untraced
    metrics, layers, fft_by_span = tracer.metrics(1.0)
    assert sum(fft_by_span.values()) == pytest.approx(metrics["fft.busy_s"])
    assert metrics["evolve.calls"] == 3 and metrics["evolve.steps"] == 12
    assert metrics["fft.calls"] > 0 and metrics["harness.error_norm_s"] > 0
    assert set(run.PER_LAYER) - set(metrics) == {
        "cli.files_written", "cli.bytes_written", "trace.overhead_s", "trace.result_match",
        "final_err", "order_dev",
    }


def test_compare_refuses_records_from_different_environments():
    rec = {"workload": "table1", "seed": 0, "environment": {"numpy": "2.4.6", "nproc": 2}}
    other = dict(rec, environment={"numpy": "2.4.6", "nproc": 4})
    assert compare.env_mismatch(rec, rec) == []
    assert compare.env_mismatch(rec, other) == ["nproc: 2 != 4"]
