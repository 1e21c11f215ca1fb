import hashlib
import logging
import struct
from collections import OrderedDict

import numpy as np
import pytest

import kbf.reference as reference_module
from kbf import (
    ConfigError,
    FileFormatError,
    InitialConditionSpec,
    KbfError,
    ModelParams,
    NonFiniteState,
    ReferenceNotConverged,
    SingularSolution,
    SpectralState,
    build_initial,
    error_norm,
    integrating_factor_rk4_solve,
    linear_exact_solution,
    linear_symbol,
    logistic_exact,
    make_grid,
    make_reference,
    norm,
    read_reference_file,
    to_physical,
    to_spectral,
    write_reference_file,
)
from kbf.errors import NegativeDuration
from kbf.reference import _QUALITY_TOL, _doubling_solve, _etdrk4_solve

TWO_PI = 2.0 * np.pi


def rk4_scalar_logistic(c0, eps, t_final, n_steps):
    """High-resolution scalar integration used as an oracle for the closed form."""
    dt = t_final / n_steps
    y = c0
    for _ in range(n_steps):
        f = lambda v: eps * v * (1.0 - v)
        a = f(y)
        b = f(y + dt / 2 * a)
        c = f(y + dt / 2 * b)
        d = f(y + dt * c)
        y += dt / 6 * (a + 2 * b + 2 * c + d)
    return y


# ----- closed forms -----

def test_logistic_fixed_points():
    for t in (0.0, 0.5, 3.0):
        assert logistic_exact(0.0, 1.0, t) == 0.0
        assert logistic_exact(1.0, 1.0, t) == 1.0


def test_logistic_half_at_one():
    assert logistic_exact(0.5, 1.0, 1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
    # cross-check against direct high-resolution integration
    assert logistic_exact(0.5, 1.0, 1.0) == pytest.approx(
        rk4_scalar_logistic(0.5, 1.0, 1.0, 4096), abs=1e-12
    )


def test_logistic_singularity():
    # for c0 = -1/2 the denominator vanishes at t = ln 3
    with pytest.raises(SingularSolution):
        logistic_exact(-0.5, 1.0, np.log(3.0))


def test_linear_exact_identity_and_decay(full_params):
    g = make_grid(32, 0.0, TWO_PI)
    s = to_spectral(np.sin(g.points), g)
    sym_heat = linear_symbol(ModelParams(nu=1.0), g)
    assert np.max(np.abs(linear_exact_solution(s, sym_heat, 0.0).coeffs - s.coeffs)) == 0.0
    out = linear_exact_solution(s, sym_heat, 1.0)
    np.testing.assert_allclose(to_physical(out), np.exp(-1.0) * np.sin(g.points), atol=1e-12)


def test_linear_exact_pure_dispersion_phase():
    # mu-only: the k=1 mode keeps its modulus and advances phase by t
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(ModelParams(mu=1.0), g)
    s = to_spectral(np.sin(g.points), g)
    out = linear_exact_solution(s, sym, 0.9)
    assert abs(out.coeffs[1]) == pytest.approx(abs(s.coeffs[1]), rel=1e-14)
    assert out.coeffs[1] == pytest.approx(s.coeffs[1] * np.exp(1j * 0.9), rel=1e-13)


def test_linear_exact_rejects_negative_time(full_params):
    g = make_grid(16, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    with pytest.raises(NegativeDuration):
        linear_exact_solution(SpectralState(np.zeros(16), g), sym, -1.0)


# ----- integrating-factor solver -----

def test_integrating_factor_exact_linear(grid256, sine_initial):
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
    sym = linear_symbol(params, grid256)
    for dt in (0.5, 0.125):
        solved = integrating_factor_rk4_solve(sine_initial, params, sym, dt, 1.0)
        exact = linear_exact_solution(sine_initial, sym, 1.0)
        assert error_norm(solved, exact) < 1e-12


def test_integrating_factor_logistic_limit():
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    sym = linear_symbol(params, g)
    initial = to_spectral(np.full(16, 0.5), g)
    solved = integrating_factor_rk4_solve(initial, params, sym, 0.05, 1.0)
    expected = logistic_exact(0.5, 1.0, 1.0)
    assert np.max(np.abs(to_physical(solved) - expected)) < 1e-6


def test_integrating_factor_self_convergence(full_params, grid256, sine_initial):
    # fourth order: the solution change per dt-halving shrinks ~16x
    sym = linear_symbol(full_params, grid256)
    sols = {
        n: integrating_factor_rk4_solve(sine_initial, full_params, sym, 1.0 / n, 1.0)
        for n in (256, 512, 1024)
    }
    d_coarse = error_norm(sols[256], sols[512])
    d_fine = error_norm(sols[512], sols[1024])
    assert 12.0 <= d_coarse / d_fine <= 20.0


def test_integrating_factor_rejects_partial_steps(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    with pytest.raises(ConfigError):
        integrating_factor_rk4_solve(sine_initial, full_params, sym, 0.3, 1.0)


# ----- cached reference -----

def test_make_reference_linear_limit(grid256, sine_initial):
    params = ModelParams(nu=1.0, mu=1.0, gamma=1.0)
    sym = linear_symbol(params, grid256)
    ref = make_reference(sine_initial, params, sym, 1.0, quality="standard")
    exact = linear_exact_solution(sine_initial, sym, 1.0)
    assert error_norm(ref, exact) < 1e-12


def test_make_reference_quality_agreement(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    std = make_reference(sine_initial, full_params, sym, 1.0, quality="standard")
    high = make_reference(sine_initial, full_params, sym, 1.0, quality="high")
    assert error_norm(std, high) <= 1e-9


def test_make_reference_logistic_limit():
    g = make_grid(16, 0.0, TWO_PI)
    params = ModelParams(eps_react=1.0)
    sym = linear_symbol(params, g)
    initial = to_spectral(np.full(16, 0.5), g)
    ref = make_reference(initial, params, sym, 1.0, quality="standard")
    expected = logistic_exact(0.5, 1.0, 1.0)
    assert np.max(np.abs(to_physical(ref) - expected)) < 1e-10


def test_make_reference_disk_cache(tmp_path, full_params):
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    ref = make_reference(initial, full_params, sym, 0.5, quality="standard", cache_dir=tmp_path)
    files = list(tmp_path.glob("*.kbfr"))
    assert len(files) == 1
    reread = read_reference_file(files[0], g)
    np.testing.assert_array_equal(reread.coeffs, ref.coeffs)


def test_reference_file_round_trip(tmp_path, rng):
    g = make_grid(16, 0.0, TWO_PI)
    state = to_spectral(rng.standard_normal(16), g)
    path = tmp_path / "state.kbfr"
    write_reference_file(path, state)
    back = read_reference_file(path, g)
    np.testing.assert_array_equal(back.coeffs, state.coeffs)


def test_reference_file_rejects_garbage(tmp_path):
    g = make_grid(16, 0.0, TWO_PI)
    bad = tmp_path / "bad.kbfr"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FileFormatError):
        read_reference_file(bad, g)
    truncated = tmp_path / "short.kbfr"
    truncated.write_bytes(b"KBFR" + (1).to_bytes(4, "little") + (16).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(FileFormatError):
        read_reference_file(truncated, g)


def test_reference_file_mode_count_must_match(tmp_path, rng):
    g16 = make_grid(16, 0.0, TWO_PI)
    g32 = make_grid(32, 0.0, TWO_PI)
    path = tmp_path / "state.kbfr"
    write_reference_file(path, to_spectral(rng.standard_normal(16), g16))
    with pytest.raises(FileFormatError):
        read_reference_file(path, g32)


# ----- ETDRK4 solver -----

def test_etdrk4_self_convergence(full_params, grid256, sine_initial):
    # fourth order: the solution change per dt-halving shrinks ~16x
    sym = linear_symbol(full_params, grid256)
    sols = {n: _etdrk4_solve(sine_initial, full_params, sym, 1.0 / n, 1.0) for n in (64, 128, 256)}
    d_coarse = error_norm(sols[64], sols[128])
    d_fine = error_norm(sols[128], sols[256])
    assert 12.0 <= d_coarse / d_fine <= 20.0


def test_etdrk4_output_is_hermitian(full_params, grid256, sine_initial):
    sym = linear_symbol(full_params, grid256)
    c = _etdrk4_solve(sine_initial, full_params, sym, 1.0 / 64, 1.0).coeffs
    np.testing.assert_array_equal(c[1:], np.conj(c[:0:-1]))
    assert c[0].imag == 0.0 and c[128].imag == 0.0


# ----- step doubling -----

@pytest.fixture(scope="module")
def table1_if_rk4_16384(full_params, grid256, sine_initial):
    """The Table-1 problem solved with the former fixed 16384-step "high" reference."""
    sym = linear_symbol(full_params, grid256)
    return integrating_factor_rk4_solve(sine_initial, full_params, sym, 1.0 / 16384, 1.0)


@pytest.mark.parametrize("quality,steps", [("standard", 512), ("high", 1024)])
def test_doubling_stops_where_its_estimate_holds(
    full_params, grid256, sine_initial, table1_if_rk4_16384, quality, steps
):
    # the IF-RK4 pins: the cross-check integrator through the same loop
    sym = linear_symbol(full_params, grid256)
    state, n, estimate = _doubling_solve(
        integrating_factor_rk4_solve, sine_initial, full_params, sym, 1.0, _QUALITY_TOL[quality]
    )
    assert n == steps
    assert estimate <= _QUALITY_TOL[quality] * norm(state)
    true_error = error_norm(state, table1_if_rk4_16384)
    assert true_error / 2 <= estimate <= 2 * true_error


@pytest.mark.parametrize("quality,steps", [("standard", 128), ("high", 512)])
def test_etdrk4_doubling_stops_where_its_estimate_holds(
    full_params, grid256, sine_initial, table1_if_rk4_16384, quality, steps
):
    # also the Table-1 cross-check: the reference against a fine IF-RK4 solve
    sym = linear_symbol(full_params, grid256)
    state, n, estimate = _doubling_solve(
        _etdrk4_solve, sine_initial, full_params, sym, 1.0, _QUALITY_TOL[quality]
    )
    assert n == steps
    assert estimate <= _QUALITY_TOL[quality] * norm(state)
    true_error = error_norm(state, table1_if_rk4_16384)
    assert true_error / 2 <= estimate <= 2 * true_error
    made = make_reference(sine_initial, full_params, sym, 1.0, quality=quality)
    np.testing.assert_array_equal(made.coeffs, state.coeffs)


# Problems beside Table 1 on which the ETDRK4 reference must agree with IF-RK4:
# name -> (N, coefficients, initial condition, steps of the fine IF-RK4 solve), T = 1
CROSS_CHECKS = {
    "dispersive": (
        32,
        ModelParams(mu=1.0, gamma=0.1, eps_conv=1.0),  # nu = eps_react = 0: imaginary symbol
        InitialConditionSpec(kind="paper"),
        4096,
    ),
    "reaction": (
        64,
        ModelParams(nu=0.1, mu=0.1, eps_conv=0.1, eps_react=5.0),
        InitialConditionSpec(kind="mode", mode_k=2, mode_amp=0.2, mode_offset=0.3),
        2048,
    ),
}


@pytest.fixture(scope="module")
def cross_check_problems():
    """name -> (initial, params, fine IF-RK4 solution at T = 1)."""
    problems = {}
    for name, (n_modes, params, ic, steps) in CROSS_CHECKS.items():
        initial = build_initial(ic, make_grid(n_modes, 0.0, TWO_PI))
        sym = linear_symbol(params, initial.grid)
        fine = integrating_factor_rk4_solve(initial, params, sym, 1.0 / steps, 1.0)
        problems[name] = (initial, params, fine)
    return problems


@pytest.mark.parametrize("quality", sorted(_QUALITY_TOL))
@pytest.mark.parametrize("problem", sorted(CROSS_CHECKS))
def test_etdrk4_reference_agrees_with_a_fine_if_rk4_solve(cross_check_problems, problem, quality):
    # as the Table-1 stop test above: the stop rule puts the estimate within
    # tol, and the estimate is good to 2x
    initial, params, fine = cross_check_problems[problem]
    sym = linear_symbol(params, initial.grid)
    tol = _QUALITY_TOL[quality]
    state, _, estimate = _doubling_solve(_etdrk4_solve, initial, params, sym, 1.0, tol)
    distance = error_norm(state, fine)
    assert distance <= 2 * tol * norm(state)
    assert distance / 2 <= estimate <= 2 * distance


def _small_problem(params):
    g = make_grid(16, 0.0, TWO_PI)
    return build_initial(InitialConditionSpec(kind="paper"), g), linear_symbol(params, g)


def test_doubling_raises_when_rounding_error_is_reached():
    # weakly nonlinear: a few doublings reach the rounding floor
    params = ModelParams(nu=1.0, eps_conv=0.01, eps_react=0.01)
    initial, sym = _small_problem(params)
    with pytest.raises(ReferenceNotConverged, match="ETDRK4 reached rounding error") as info:
        _doubling_solve(_etdrk4_solve, initial, params, sym, 1.0, 1e-20)
    assert isinstance(info.value, KbfError)


def test_doubling_raises_at_the_step_cap(monkeypatch, full_params):
    monkeypatch.setattr(reference_module, "_MAX_STEPS", 512)
    initial, sym = _small_problem(full_params)
    with pytest.raises(ReferenceNotConverged, match="ETDRK4 did not .* within 512 steps"):
        _doubling_solve(_etdrk4_solve, initial, full_params, sym, 1.0, 1e-20)


def _recording_solve(fail_at):
    """The ETDRK4 solve, recording its step counts and failing at those in ``fail_at``."""
    calls = []

    def solve(initial, params, symbol, dt, t_final, *rest):
        n = round(t_final / dt)
        calls.append(n)
        if n in fail_at:
            raise NonFiniteState(f"patched failure at {n} steps")
        return _etdrk4_solve(initial, params, symbol, dt, t_final, *rest)

    return solve, calls


def test_doubling_retries_a_coarse_non_finite_solve(full_params):
    initial, sym = _small_problem(full_params)
    solve, calls = _recording_solve(fail_at={64})
    state, n, _ = _doubling_solve(solve, initial, full_params, sym, 1.0, _QUALITY_TOL["high"])
    assert calls == [64, 128, 256, 512]
    assert n == 512
    direct = _etdrk4_solve(initial, full_params, sym, 1.0 / 512, 1.0)
    np.testing.assert_array_equal(state.coeffs, direct.coeffs)


def test_doubling_non_finite_at_the_cap_propagates(monkeypatch, full_params):
    monkeypatch.setattr(reference_module, "_MAX_STEPS", 256)
    initial, sym = _small_problem(full_params)
    solve, calls = _recording_solve(fail_at={64, 128, 256})
    with pytest.raises(NonFiniteState):
        _doubling_solve(solve, initial, full_params, sym, 1.0, _QUALITY_TOL["high"])
    assert calls == [64, 128, 256]


def test_overflowing_coarse_solve_recovers_without_a_warning(caplog, empty_memory_cache):
    # the 64-step solve overflows; no RuntimeWarning may escape the doubling's
    # recovery from it, which the suite's filter would raise
    params = ModelParams(nu=4.0, eps_conv=200.0)
    initial = build_initial(InitialConditionSpec(kind="paper"), make_grid(16, 0.0, 2.0 * np.pi))
    caplog.set_level(logging.DEBUG, logger="kbf")
    ref = make_reference(initial, params, linear_symbol(params, initial.grid), 0.5)
    assert np.isfinite(ref.coeffs).all()
    assert [r.reference["steps"] for r in caplog.records if r.name == "kbf"] == [2048]


# ----- reference caches -----

def _fixed_step_content_key(initial, params, t_final, quality):
    """The content key used when each quality was a fixed IF-RK4 step count."""
    g = initial.grid
    h = hashlib.sha256()
    h.update(initial.coeffs.tobytes())
    h.update(struct.pack("<qdd", g.n_modes, g.domain_start, g.domain_length))
    h.update(
        struct.pack("<5d", params.nu, params.mu, params.gamma, params.eps_conv, params.eps_react)
    )
    h.update(struct.pack("<d", t_final))
    h.update(quality.encode())
    return h.hexdigest()


@pytest.fixture
def empty_memory_cache(monkeypatch):
    monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())


def test_fixed_step_cache_entry_is_not_read(tmp_path, full_params, empty_memory_cache):
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    stale = tmp_path / f"{_fixed_step_content_key(initial, full_params, 0.5, 'standard')}.kbfr"
    write_reference_file(stale, SpectralState(np.zeros(32), g))
    ref = make_reference(initial, full_params, sym, 0.5, quality="standard", cache_dir=tmp_path)
    solved, _, _ = _doubling_solve(
        _etdrk4_solve, initial, full_params, sym, 0.5, _QUALITY_TOL["standard"]
    )
    np.testing.assert_array_equal(ref.coeffs, solved.coeffs)
    assert len(list(tmp_path.glob("*.kbfr"))) == 2


def test_if_rk4_cache_entry_is_not_read(tmp_path, monkeypatch, full_params, empty_memory_cache):
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)
    with monkeypatch.context() as patch:
        patch.setattr(reference_module, "_METHOD", b"if-rk4 step-doubling v2")
        old_key = reference_module._content_key(initial, full_params, 0.5, "standard", "none")
    write_reference_file(tmp_path / f"{old_key}.kbfr", SpectralState(np.zeros(32), g))
    ref = make_reference(initial, full_params, sym, 0.5, quality="standard", cache_dir=tmp_path)
    solved, _, _ = _doubling_solve(
        _etdrk4_solve, initial, full_params, sym, 0.5, _QUALITY_TOL["standard"]
    )
    np.testing.assert_array_equal(ref.coeffs, solved.coeffs)
    assert len(list(tmp_path.glob("*.kbfr"))) == 2


def test_interrupted_disk_write_leaves_no_entry(tmp_path, monkeypatch, full_params, empty_memory_cache):
    g = make_grid(32, 0.0, TWO_PI)
    sym = linear_symbol(full_params, g)
    initial = build_initial(InitialConditionSpec(kind="paper"), g)

    def crashing_writer(path, state):
        with open(path, "wb") as fh:
            fh.write(b"KBFR" + struct.pack("<II", 1, 32) + b"\x00" * 40)
        raise OSError("disk full")

    monkeypatch.setattr(reference_module, "write_reference_file", crashing_writer)
    with pytest.raises(OSError, match="disk full"):
        make_reference(initial, full_params, sym, 0.5, quality="standard", cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setattr(reference_module, "write_reference_file", write_reference_file)
    monkeypatch.setattr(reference_module, "_memory_cache", OrderedDict())
    ref = make_reference(initial, full_params, sym, 0.5, quality="standard", cache_dir=tmp_path)
    files = list(tmp_path.iterdir())
    assert len(files) == 1 and files[0].suffix == ".kbfr"
    np.testing.assert_array_equal(read_reference_file(files[0], g).coeffs, ref.coeffs)


def test_memory_cache_is_bounded(monkeypatch, empty_memory_cache):
    params = ModelParams(nu=1.0)
    initial, sym = _small_problem(params)
    solve, calls = _recording_solve(fail_at=set())
    monkeypatch.setattr(reference_module, "_etdrk4_solve", solve)
    horizons = [0.125 * (i + 1) for i in range(reference_module._MEMORY_CACHE_SIZE + 1)]
    for t in horizons:
        make_reference(initial, params, sym, t)
    assert len(reference_module._memory_cache) == reference_module._MEMORY_CACHE_SIZE
    solves = len(calls)
    make_reference(initial, params, sym, horizons[-1])
    assert len(calls) == solves  # the newest entry is a hit
    make_reference(initial, params, sym, horizons[0])
    assert len(calls) > solves  # the oldest was evicted
    assert len(reference_module._memory_cache) == reference_module._MEMORY_CACHE_SIZE


def test_dealiased_reference_is_cached_apart(empty_memory_cache):
    params = ModelParams(nu=0.1, eps_conv=1.0, eps_react=1.0)
    g = make_grid(16, 0.0, TWO_PI)
    ic = InitialConditionSpec(kind="mode", mode_k=3, mode_amp=0.4, mode_offset=0.5)
    initial = build_initial(ic, g)
    sym = linear_symbol(params, g)
    dealiased = make_reference(initial, params, sym, 0.5, dealias="two_thirds")
    plain = make_reference(initial, params, sym, 0.5)
    solved, _, _ = _doubling_solve(_etdrk4_solve, initial, params, sym, 0.5, _QUALITY_TOL["standard"])
    np.testing.assert_array_equal(plain.coeffs, solved.coeffs)
    assert error_norm(dealiased, plain) > 1e-3


def test_make_reference_logs_where_it_was_served_from(tmp_path, caplog, full_params, empty_memory_cache):
    initial, sym = _small_problem(full_params)
    caplog.set_level(logging.DEBUG, logger="kbf")
    make_reference(initial, full_params, sym, 1.0, quality="high", cache_dir=tmp_path)
    make_reference(initial, full_params, sym, 1.0, quality="high", cache_dir=tmp_path)
    reference_module._memory_cache.clear()
    make_reference(initial, full_params, sym, 1.0, quality="high", cache_dir=tmp_path)
    records = [r for r in caplog.records if r.name == "kbf"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 3
    _, steps, estimate = _doubling_solve(
        _etdrk4_solve, initial, full_params, sym, 1.0, _QUALITY_TOL["high"]
    )
    method = "etdrk4 step-doubling v3"
    assert [r.reference for r in records] == [
        {"method": method, "steps": steps, "estimate": estimate, "source": "solve"},
        {"method": method, "steps": steps, "estimate": estimate, "source": "memory"},
        {"method": method, "steps": None, "estimate": None, "source": "disk"},
    ]
    assert records[0].getMessage() == (
        f"reference {method} from solve: steps {steps}, estimate {estimate}"
    )
    assert logging.getLogger("kbf").handlers == []


# ----- coupling to the production scheme (sanity) -----

def test_reference_tracks_strang_error_scaling(full_params, grid256, sine_initial):
    # measured errors at each dt stay within 2x of the second-order
    # extrapolation from the finest run
    from kbf import SolveConfig, evolve

    sym = linear_symbol(full_params, grid256)
    ref = make_reference(sine_initial, full_params, sym, 1.0, quality="high")
    ns = (24, 96, 384)
    errors = []
    for n in ns:
        traj = evolve(sine_initial, full_params, SolveConfig(dt=1.0 / n, t_final=1.0))
        errors.append(error_norm(traj.final, ref))
    for n, err in zip(ns[:-1], errors[:-1]):
        estimate = errors[-1] * (ns[-1] / n) ** 2
        assert estimate / 2 <= err <= estimate * 2
