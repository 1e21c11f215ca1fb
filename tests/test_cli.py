import gc
import os
import signal
import subprocess
import sys
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

import kbf
import kbf.cli as cli_module
import kbf.reference as reference_module
from kbf import ParseError, ValidationError, report_from_csv, report_from_text
from kbf.cli import _snapshot_writer, emit_config, parse_config, run_cli
from kbf.harness import _fmt
from test_harness import _assert_no_child_left, forks  # noqa: F401 (a fixture)

TWO_PI = 2.0 * np.pi

FULL_CONFIG = """\
# canonical demonstration setup: every mechanism switched on
nu = 1
mu = 1.0
gamma = 1.0
eps_conv = 1
eps_react = 1
n_modes = 256
dt = 0.125
t_final = 1
ic.kind = paper
"""

HEAT_CONFIG = """\
nu = 1
mu = 0
gamma = 0
eps_conv = 0
eps_react = 0
n_modes = 64
dt = 0.1
t_final = 1
ic.kind = paper
"""


def read_rows(path):
    xs, ys = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "x,y" or not line.strip():
            continue
        x, y = line.split(",")
        xs.append(float(x))
        ys.append(float(y))
    return np.array(xs), np.array(ys)


# ----- config parsing -----

def test_defaults_applied():
    cfg = parse_config("", {
        "nu": "1", "mu": "0", "gamma": "0", "eps_conv": "0", "eps_react": "0",
        "n_modes": "16", "dt": "0.5", "t_final": "1", "ic.kind": "constant",
    })
    assert cfg.grid.domain_start == 0.0
    assert cfg.grid.domain_length == pytest.approx(TWO_PI)
    assert cfg.solve.scheme == "strang"
    assert cfg.solve.nonlinear_cfg.substeps == 1
    assert cfg.solve.nonlinear_cfg.dealias == "none"
    assert cfg.norm.kind == "l2"


def test_full_config_file():
    cfg = parse_config(FULL_CONFIG)
    p = cfg.params
    assert (p.nu, p.mu, p.gamma, p.eps_conv, p.eps_react) == (1.0, 1.0, 1.0, 1.0, 1.0)
    assert cfg.grid.n_modes == 256
    assert cfg.solve.t_final == 1.0
    assert cfg.ic.kind == "paper"


def test_flags_override_file():
    cfg = parse_config(FULL_CONFIG, {"nu": "0.5", "scheme": "lie_trotter"})
    assert cfg.params.nu == 0.5
    assert cfg.solve.scheme == "lie_trotter"


def test_ic_flag_alias(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    out = tmp_path / "out"
    code = run_cli([
        "solve", "--config", str(cfg_file), "--ic", "constant", "--ic-c", "1",
        "--output", str(out),
    ])
    assert code == 0
    _, ys = read_rows(out / "final.csv")
    np.testing.assert_allclose(ys, 1.0, atol=1e-12)


def test_negative_nu_rejected():
    with pytest.raises(ValidationError) as info:
        parse_config(FULL_CONFIG, {"nu": "-1"})
    assert info.value.key == "nu"


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as info:
        parse_config(FULL_CONFIG + "viscosity = 2\n")
    assert info.value.key == "viscosity"


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_config("nu = 1\nthis is not a pair\n")
    assert info.value.line == 2


def test_missing_required_key():
    with pytest.raises(ValidationError) as info:
        parse_config("nu = 1\n")
    assert info.value.key in ("mu", "gamma", "eps_conv", "eps_react", "n_modes", "dt", "t_final", "ic.kind")


def test_config_round_trip():
    cfg = parse_config(FULL_CONFIG, {"output": "/tmp/out", "norm": "h2", "substeps": "3"})
    again = parse_config(emit_config(cfg))
    assert again == cfg


# ----- CLI dispatch -----

def test_unknown_subcommand_exits_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert "kbf: error:" in err


def test_missing_subcommand_exits_1(capsys):
    assert run_cli([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_solve_heat_snapshot(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    out = tmp_path / "out"
    code = run_cli(["solve", "--config", str(cfg_file), "--output", str(out)])
    assert code == 0
    xs, ys = read_rows(out / "final.csv")
    exact = 0.5 + 0.25 * np.exp(-1.0) * np.sin(xs)
    assert np.max(np.abs(ys - exact)) < 1e-10


def test_solve_snapshot_reparses_to_in_memory_values(tmp_path, capsys):
    from kbf import build_initial, evolve, to_physical
    from kbf.cli import parse_config as pc

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0

    cfg = pc(HEAT_CONFIG)
    initial = build_initial(cfg.ic, cfg.grid)
    traj = evolve(initial, cfg.params, cfg.solve)
    expected = to_physical(traj.final)
    _, ys = read_rows(out / "final.csv")
    assert np.max(np.abs(ys - expected)) <= 1e-15 * max(1.0, np.max(np.abs(expected)))


def test_solve_with_stride_writes_snapshots(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG + "snapshot_stride = 5\n")
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0
    names = sorted(p.name for p in out.glob("snapshot_*.csv"))
    assert names == ["snapshot_000000.csv", "snapshot_000005.csv", "snapshot_000010.csv"]


def test_solve_is_bit_identical_across_runs(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    out = tmp_path / "a"
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0
    first = (out / "final.csv").read_bytes()
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0
    assert (out / "final.csv").read_bytes() == first


SMALL_CONFIG = FULL_CONFIG.replace("n_modes = 256", "n_modes = 16")


def expected_snapshot(cfg, step, time, values):
    """A snapshot's text spelled value by value with ``_fmt``."""
    lines = [f"# {line}" for line in emit_config(cfg).rstrip("\n").splitlines()]
    lines += [f"# step = {step}", f"# time = {_fmt(time)}", "x,y"]
    lines += [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(cfg.grid.points, values)]
    return "\n".join(lines) + "\n"


def test_each_snapshot_is_fmt_spelling_byte_for_byte(tmp_path, capsys):
    from kbf import build_initial, evolve, to_physical

    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(SMALL_CONFIG + "snapshot_stride = 1\n")
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0

    cfg = parse_config(cfg_file.read_text(), {"output": str(out)})
    traj = evolve(build_initial(cfg.ic, cfg.grid), cfg.params, cfg.solve)
    assert len(traj.states) == cfg.solve.n_steps + 1
    for step, (time, state) in enumerate(zip(traj.times, traj.states)):
        written = (out / f"snapshot_{step:06d}.csv").read_bytes()
        assert written == expected_snapshot(cfg, step, time, to_physical(state)).encode()


def test_snapshot_writer_spells_awkward_values_as_fmt():
    values = np.array([-0.0, 5e-324, 0.1, 1 / 3, -1e300, 1e22])
    cfg = parse_config(SMALL_CONFIG, {"n_modes": str(values.size), "output": "o"})
    text = _snapshot_writer(cfg)(3, 1 / 3, values)
    assert text == expected_snapshot(cfg, 3, 1 / 3, values)
    assert [row.split(",")[1] for row in text.splitlines()[-6:]] == [
        "-0", "4.9406564584124654e-324", "0.10000000000000001", "0.33333333333333331",
        "-1.0000000000000001e+300", "1e+22",
    ]


@pytest.mark.parametrize("key", ["output", "ic.path"])
def test_user_text_in_the_header_cannot_break_the_rows(tmp_path, capsys, key):
    odd = tmp_path / "o%d{x}%s"
    out, ic_path = (odd, tmp_path / "ic.csv") if key == "output" else (tmp_path / "out", odd)
    xs = np.arange(16) * (TWO_PI / 16)
    ic_path.write_text("x,y\n" + "".join(f"{_fmt(x)},{_fmt(0.5 + 0.25 * np.sin(x))}\n" for x in xs))
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(SMALL_CONFIG.replace("paper", f"file\nic.path = {ic_path}"))
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0

    assert f"\n# {key} = {odd}\n" in (out / "final.csv").read_text()
    rows_x, rows_y = read_rows(out / "final.csv")
    np.testing.assert_array_equal(rows_x, xs)
    assert np.all(np.isfinite(rows_y))


@pytest.mark.parametrize("key,tail", [("output", "\nnu = 5"), ("output", "\u2028x"), ("ic.path", " ")])
def test_a_value_the_header_cannot_echo_is_rejected(tmp_path, capsys, key, tail):
    # the header holds one `key = value` line per key, which a line break would split
    # and whose value is read back stripped
    ic_path = tmp_path / ("ic.csv" + (tail if key == "ic.path" else ""))
    xs = np.arange(16) * (TWO_PI / 16)
    ic_path.write_text("x,y\n" + "".join(f"{_fmt(x)},{_fmt(0.5 + 0.25 * np.sin(x))}\n" for x in xs))
    out = str(tmp_path / "out") + (tail if key == "output" else "")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(SMALL_CONFIG.replace("paper", "file"))
    argv = ["solve", "--config", str(cfg_file), "--ic-path", str(ic_path), "--output", out]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith(f"kbf: error: ValidationError: {key}: must be one line")
    # rejected before the output directory is made
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([ic_path.name, "run.cfg"])


@pytest.mark.parametrize("stride,recorded", [(1, 11), (0, 1)])
def test_final_csv_is_the_last_snapshot_byte_for_byte(tmp_path, capsys, stride, recorded):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG + f"snapshot_stride = {stride}\n")
    out = tmp_path / "out"
    assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {recorded} snapshot(s) and {out / 'final.csv'}\n"
    assert len(list(out.glob("snapshot_*.csv"))) == recorded
    assert (out / "final.csv").read_bytes() == (out / "snapshot_000010.csv").read_bytes()


def test_solve_memory_does_not_grow_with_the_snapshot_count(tmp_path, capsys):
    # each state is written and dropped: recording all 65 states must cost less
    # than four states of 1024 complex coefficients over recording 5 of them.
    # Both strides record inside the loop, so the kernel's buffers are alive at a
    # recorded step in both windows, and the bound sees only growth with the count.
    config = FULL_CONFIG.replace("n_modes = 256", "n_modes = 1024").replace("dt = 0.125", "dt = 0.015625")

    def solve(stride):
        cfg_file = tmp_path / f"run{stride}.cfg"
        cfg_file.write_text(config + f"snapshot_stride = {stride}\n")
        out = tmp_path / f"out{stride}"
        assert run_cli(["solve", "--config", str(cfg_file), "--output", str(out)]) == 0
        return len(list(out.glob("snapshot_*.csv")))

    solve(16)  # fills the caches a solve builds once
    # each run_cli leaves its argument parser as cyclic garbage; it is collected
    # before each window, so that no window counts the one before it
    gc.collect()
    tracemalloc.start()
    try:
        assert solve(16) == 5
        _, sparse = tracemalloc.get_traced_memory()
        gc.collect()
        tracemalloc.reset_peak()
        assert solve(1) == 65
        _, every_step = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert every_step - sparse < 4 * 1024 * 16


# ----- the snapshots shared with a forked writer -----

def _solve_in(where, config, capsys):
    """``kbf solve`` of ``config`` in the directory ``where``: its exit code, output lines and files."""
    where.mkdir()
    (where / "run.cfg").write_text(config)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        code = run_cli(["solve", "--config", "run.cfg", "--output", "out"])
    finally:
        os.chdir(cwd)
    out = where / "out"
    return code, capsys.readouterr(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _inline(monkeypatch, tmp_path, config, capsys):
    """``_solve_in`` with no writer child."""
    with monkeypatch.context() as m:
        m.setattr(cli_module, "_fork", lambda work: None)
        return _solve_in(tmp_path / "inline", config, capsys)


def _stepped(n_modes, stride):
    return FULL_CONFIG.replace("n_modes = 256", f"n_modes = {n_modes}").replace(
        "dt = 0.125", "dt = 0.015625"
    ) + f"snapshot_stride = {stride}\n"


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("n_modes", [64, 256], ids=["dense", "fft"])
def test_forked_writer_writes_the_inline_files(monkeypatch, tmp_path, capsys, forks, n_modes, stride):
    monkeypatch.setattr(cli_module, "_WRITE_FORK_MIN", 0)
    config = _stepped(n_modes, stride)
    forked = _solve_in(tmp_path / "forked", config, capsys)
    assert forks == [os.getpid()]
    _assert_no_child_left()
    inline = _inline(monkeypatch, tmp_path, config, capsys)
    assert len(forks) == 1
    assert forked == inline
    assert len(inline[2]) == len(range(0, 64, stride)) + 2  # every snapshot and final.csv
    assert inline[2]["final.csv"] == inline[2]["snapshot_000064.csv"]


@pytest.mark.parametrize("failure", ["raises", "signal", "no_data", "miscounted"])
@pytest.mark.parametrize("drained", [False, True], ids=["at_once", "after_the_feed"])
def test_a_failed_writer_leaves_the_inline_files(monkeypatch, tmp_path, capsys, forks, failure, drained):
    # at once, the parent's next record meets a broken pipe; after the feed, only the result tells
    drain_feed = cli_module._drain

    def drain(r, w, write, points):
        count = drain_feed(r, w, lambda *record: None, points) if drained else 0
        if failure == "raises":
            raise RuntimeError("in the writer")
        if failure == "signal":
            os.kill(os.getpid(), signal.SIGKILL)
        if failure == "miscounted":
            return count - 1
        os._exit(0)  # a clean exit that sent nothing

    monkeypatch.setattr(cli_module, "_WRITE_FORK_MIN", 0)
    monkeypatch.setattr(cli_module, "_drain", drain)
    config = _stepped(256, 1)
    forked = _solve_in(tmp_path / "forked", config, capsys)
    assert len(forks) == 1
    _assert_no_child_left()
    assert forked == _inline(monkeypatch, tmp_path, config, capsys)


BLOW_UP_CONFIG = (
    "nu = 0\nmu = 0\ngamma = 0\neps_conv = 0\neps_react = 1\n"
    "n_modes = 16\ndt = 0.05\nt_final = 2\nic.kind = constant\nic.c = -0.5\n"
)


def test_a_blow_up_beside_the_writer_leaves_the_inline_files(monkeypatch, tmp_path, capsys, forks):
    monkeypatch.setattr(cli_module, "_WRITE_FORK_MIN", 0)
    config = BLOW_UP_CONFIG + "snapshot_stride = 1\n"
    code, printed, files = _solve_in(tmp_path / "forked", config, capsys)
    assert len(forks) == 1
    _assert_no_child_left()
    assert (code, printed, files) == _inline(monkeypatch, tmp_path, config, capsys)
    assert code == 2
    assert printed.err.startswith("kbf: error: BlowUp:") and len(printed.err.splitlines()) == 1
    # every step before the one that blew up has its snapshot
    assert sorted(files) == [f"snapshot_{step:06d}.csv" for step in range(23)]


def test_an_interrupt_kills_the_writer(monkeypatch, tmp_path, capsys, forks):
    monkeypatch.setattr(cli_module, "_WRITE_FORK_MIN", 0)
    converted = []

    def interrupted(state):
        converted.append(state)
        if len(converted) == 5:
            raise KeyboardInterrupt
        return kbf.to_physical(state)

    monkeypatch.setattr(cli_module, "to_physical", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _solve_in(tmp_path / "forked", _stepped(256, 1), capsys)
    assert len(forks) == 1
    _assert_no_child_left()


def test_stride_0_never_forks(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli_module, "_WRITE_FORK_MIN", 0)

    def refused():
        pytest.fail("kbf solve forked")

    monkeypatch.setattr(os, "fork", refused)
    code, printed, files = _solve_in(tmp_path / "solve", _stepped(256, 0), capsys)
    assert code == 0
    assert sorted(files) == ["final.csv", "snapshot_000064.csv"]


def test_blow_up_exits_2(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(BLOW_UP_CONFIG)
    out = tmp_path / "out"
    code = run_cli(["solve", "--config", str(cfg_file), "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("kbf: error: BlowUp:")
    assert len(err.strip().splitlines()) == 1


def test_overflowing_blow_up_prints_one_line(tmp_path, capsys):
    # the L2 norm overflows float64 at step 20, with no numpy warning on stderr
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "nu = 0\nmu = 0\ngamma = 0\neps_conv = 5\neps_react = 1\n"
        "n_modes = 16\ndt = 0.125\nt_final = 4\nic.kind = paper\n"
    )
    code = run_cli(["solve", "--config", str(cfg_file), "--output", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "kbf: error: BlowUp: L2 norm exploded\n"


def test_validation_failure_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli(["solve", "--config", str(cfg_file), "--nu", "-3", "--output", str(tmp_path / "o")])
    assert code == 1
    assert "kbf: error: ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["nu", "mu", "gamma", "eps_conv", "eps_react"])
def test_non_finite_coefficient_reported_under_its_key(tmp_path, capsys, key):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    flag = "--" + key.replace("_", "-")
    code = run_cli(["solve", "--config", str(cfg_file), flag, "inf", "--output", str(tmp_path / "o")])
    assert code == 1
    assert f"kbf: error: ValidationError: {key}:" in capsys.readouterr().err


BAD_VALUES = [
    ("nu", "-1"),
    ("nu", "abc"),
    *((coef, "inf") for coef in ("nu", "mu", "gamma", "eps_conv", "eps_react")),
    ("n_modes", "5"),
    ("n_modes", "abc"),
    ("domain_start", "inf"),
    ("domain_length", "-1"),
    ("dt", "0"),
    ("t_final", "-1"),
    ("t_final", "inf"),
    ("scheme", "x"),
    ("substeps", "0"),
    ("dealias", "foo"),
    ("snapshot_stride", "-1"),
    ("ic.kind", "wavelet"),
    ("ic.c", "inf"),
    ("ic.mode_amp", "nan"),
    ("norm", "hx"),
]


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_every_bad_key_reported_under_its_own_name(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    flag = "--" + key.replace(".", "-").replace("_", "-")
    code = run_cli(["solve", "--config", str(cfg_file), flag, value, "--output", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kbf: error: ValidationError: {key}:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command,flag,value", [
    ("converge-time", "steps", ","),
    ("converge-space", "modes", ","),
    ("converge-time", "steps", "12,0"),
    ("converge-space", "modes", "7"),
    ("converge-space", "modes", "8,64"),
    ("converge-time", "steps", "20,20"),
    ("converge-space", "modes", "8,8"),
])
def test_bad_axis_reported_under_its_flag(tmp_path, capsys, command, flag, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli([command, "--config", str(cfg_file), f"--{flag}", value, "--output", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kbf: error: ValidationError: {flag}:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", ["0.3", "0", "-0.1", "nan", "abc"])
def test_bad_study_dt_reported_under_its_flag(tmp_path, capsys, value):
    # the config's dt = 0.1 is not read by a study; only --study-dt is
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli(["converge-space", "--config", str(cfg_file), "--modes", "8,16",
                    "--study-dt", value, "--output", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kbf: error: ValidationError: study-dt:")
    assert len(err.strip().splitlines()) == 1


def test_bad_quality_reported_under_its_flag(tmp_path, capsys, monkeypatch):
    # the study rejects the name before any solve, and no usage line is printed
    monkeypatch.setattr(reference_module, "_doubling_solve", None)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli(["converge-time", "--config", str(cfg_file), "--steps", "10,20",
                    "--quality", "best", "--output", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kbf: error: ValidationError: quality: must be one of ('standard', 'high')")
    assert len(err.strip().splitlines()) == 1


def test_unconverged_reference_exits_2(tmp_path, capsys, monkeypatch):
    # with the cap at the first step count no doubling can verify the solve
    monkeypatch.setattr(reference_module, "_MAX_STEPS", reference_module._START_STEPS)
    monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli(["converge-time", "--config", str(cfg_file), "--steps", "10,20",
                    "--output", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("kbf: error: ReferenceNotConverged:")
    assert len(err.strip().splitlines()) == 1


def test_file_ic_without_path_reported_under_ic_path(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli(["solve", "--config", str(cfg_file), "--ic", "file", "--output", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("kbf: error: ValidationError: ic.path:")


def test_missing_ic_file_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG)
    code = run_cli([
        "solve", "--config", str(cfg_file), "--ic", "file",
        "--ic-path", str(tmp_path / "missing.csv"), "--output", str(tmp_path / "o"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kbf: error: ValidationError: ic.path:")
    assert len(err.strip().splitlines()) == 1


def test_studies_do_not_read_the_solve_step(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(HEAT_CONFIG.replace("dt = 0.1", "dt = 0.3"))
    common = ["--config", str(cfg_file), "--output", str(tmp_path / "o")]
    assert run_cli(["converge-time", *common, "--steps", "4,8"]) == 0
    assert run_cli(["converge-space", *common, "--modes", "8,16", "--study-dt", "0.25"]) == 0
    capsys.readouterr()
    assert run_cli(["solve", *common]) == 1
    assert capsys.readouterr().err.startswith("kbf: error: ValidationError: dt:")


def test_unknown_dealias_rule_rejected():
    with pytest.raises(ValidationError) as info:
        parse_config(HEAT_CONFIG, {"dealias": "foo"})
    assert info.value.key == "dealias"


def test_converge_time_matches_target_orders(tmp_path, capsys, full_params):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(FULL_CONFIG)
    out = tmp_path / "out"
    code = run_cli(["converge-time", "--config", str(cfg_file), "--output", str(out)])
    assert code == 0
    report = report_from_csv((out / "convergence_time.csv").read_text())
    # frozen regression targets for this configuration
    targets = [2.0693, 2.0063, 2.0381, 2.0024, 1.9899]
    assert len(report.orders) == len(targets)
    for ours, theirs in zip(report.orders, targets):
        assert abs(ours - theirs) <= 0.15


def test_converge_space_runs(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(FULL_CONFIG)
    out = tmp_path / "out"
    code = run_cli([
        "converge-space", "--config", str(cfg_file), "--output", str(out),
        "--modes", "8,16", "--study-dt", "0.0078125",
    ])
    assert code == 0
    report = report_from_csv((out / "convergence_space.csv").read_text())
    assert report.axis == (8, 16)
    assert report.errors[1] < report.errors[0]


MODE_CONFIG = """\
nu = 0.5
mu = 0.25
gamma = 0.125
eps_conv = 0.75
eps_react = 1.5
n_modes = 16
domain_start = -1
domain_length = 3
dt = 0.05
t_final = 0.1
substeps = 2
dealias = two_thirds
ic.kind = mode
ic.mode_k = 2
ic.mode_amp = 0.3
ic.mode_offset = 0.4
norm = h1
"""


@pytest.mark.parametrize(
    "command,flags,stem",
    [
        ("converge-time", ["--steps", "2,4"], "convergence_time"),
        ("converge-space", ["--modes", "8", "--study-dt", "0.05"], "convergence_space"),
    ],
    ids=["converge-time", "converge-space"],
)
def test_report_header_spells_the_run_as_emit_config(tmp_path, capsys, command, flags, stem):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(MODE_CONFIG)
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(cfg_file), "--output", str(out), *flags]) == 0
    run = dict(line.split(" = ", 1) for line in emit_config(parse_config(MODE_CONFIG)).splitlines())
    for key in ("dt", "snapshot_stride", "output"):
        del run[key]
    for parse, suffix in ((report_from_csv, ".csv"), (report_from_text, ".txt")):
        echo = parse((out / f"{stem}{suffix}").read_text()).config_echo
        assert {k: echo.get(k) for k in run} == run


def test_oracle_check_passes(capsys):
    assert run_cli(["oracle-check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_oracle_check_runs_etdrk4_on_the_linear_equation(capsys, monkeypatch):
    assert run_cli(["oracle-check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sum(line.startswith("PASS etdrk4_exact_linear ") for line in lines) == 1
    # a full step that advances the linear flow by only half a step must fail it
    weights = reference_module._etd_weights

    def half_steps(lam, h):
        e_half, _, *rest = weights(lam, h)
        return (e_half, e_half, *rest)

    monkeypatch.setattr(reference_module, "_etd_weights", half_steps)
    assert run_cli(["oracle-check"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == ["etdrk4_exact_linear"]


@pytest.mark.parametrize("module", ["kbf", "kbf.cli"])
def test_cli_runs_as_a_module(module):
    # `python -m` runs the command line as the installed `kbf` script does
    src = str(Path(kbf.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: kbf ")
    assert "converge-time" in done.stdout
