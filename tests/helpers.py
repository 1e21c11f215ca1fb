"""Independent oracles shared by the test suite.

These deliberately avoid the package's FFT/symbol code paths: the DFT
oracle is a direct O(N^2) summation, derivatives come from high-order
finite-difference stencils with weights from the Fornberg recurrence, and
the 80-bit integrator runs on direct DFT matrices.
"""

import numpy as np


def slow_dft(values):
    """Direct summation DFT, unscaled forward, coefficients in FFT order."""
    n = len(values)
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    j = np.arange(n)
    phases = np.exp(-2j * np.pi * np.outer(k, j) / n)
    return phases @ np.asarray(values, dtype=complex)


def fornberg_weights(z, x, m):
    """Weights of the m-th derivative at z from the nodes x (Fornberg 1988)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    w = np.zeros((n, m + 1))
    c1, c4 = 1.0, x[0] - z
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2, c5, c4 = 1.0, c4, x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, m]


def fd_derivative(values, spacing, order, half_width=6):
    """Periodic centered finite-difference derivative of the given order."""
    offsets = np.arange(-half_width, half_width + 1)
    weights = fornberg_weights(0.0, offsets * spacing, order)
    out = np.zeros_like(np.asarray(values, dtype=complex))
    for off, w in zip(offsets, weights):
        out += w * np.roll(values, -off)
    return out


def random_band_limited(rng, grid_points, max_mode, amplitude=1.0):
    """Real trigonometric polynomial with random coefficients up to max_mode."""
    x = np.asarray(grid_points)
    values = np.zeros_like(x)
    coeffs = []
    for k in range(0, max_mode + 1):
        a = amplitude * rng.standard_normal()
        b = amplitude * rng.standard_normal() if k > 0 else 0.0
        values = values + a * np.cos(k * x) + b * np.sin(k * x)
        coeffs.append((k, a, b))
    return values, coeffs


def full_spectrum_rhs(coeffs, params, grid, dealias="none"):
    """The conservative nonlinear right-hand side on the full complex spectrum.

    ``-(eps_conv/3)*ik*T(y^3) + eps_react*(c - T(y^2))`` from one complex
    ``ifft`` and two complex ``fft``, the products dealiased by the rule
    ``dealias``; written apart from the package's half-spectrum forms.
    """
    n = len(coeffs)
    ik = 1j * np.asarray(grid.physical_wavenumbers, dtype=float)
    ik[n // 2] = 0.0
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = np.abs(k) <= n // 3 if dealias == "two_thirds" else np.ones(n, dtype=bool)
    y = np.fft.ifft(coeffs).real
    cubed = np.where(keep, np.fft.fft(y * y * y), 0.0)
    squared = np.where(keep, np.fft.fft(y * y), 0.0)
    return (-params.eps_conv / 3.0) * (ik * cubed) + params.eps_react * (coeffs - squared)


def full_spectrum_solve(state, params, symbol, dt, n_steps, scheme="strang",
                        dealias="none", substeps=1):
    """Splitting solve on the full complex spectrum, a reference for the kernel.

    Linear factors ``exp(lambda*dt/2)`` around the nonlinear flow (Strang) or
    ``exp(lambda*dt)`` before it (Lie-Trotter); the nonlinear right-hand side
    is ``full_spectrum_rhs``, integrated by RK4 substeps.
    """
    c = np.array(state.coeffs, dtype=complex)
    linear = np.exp(symbol.values * (dt / 2.0 if scheme == "strang" else dt))

    def rhs(v):
        return full_spectrum_rhs(v, params, state.grid, dealias)

    def nonlinear(v):
        h = dt / substeps
        for _ in range(substeps):
            a = rhs(v)
            b = rhs(v + 0.5 * h * a)
            d = rhs(v + 0.5 * h * b)
            e = rhs(v + h * d)
            v = v + (h / 6.0) * (a + 2.0 * b + 2.0 * d + e)
        return v

    for _ in range(n_steps):
        c = nonlinear(linear * c)
        if scheme == "strang":
            c = linear * c
    return c


def assert_exactly_hermitian(coeffs):
    """Assert ``coeffs`` are the spectrum of real data bit for bit: ``c[-k] == conj(c[k])``."""
    n = len(coeffs)
    assert coeffs[0].imag == 0.0
    assert coeffs[n // 2].imag == 0.0
    np.testing.assert_array_equal(coeffs[n // 2 + 1 :], np.conj(coeffs[1 : n // 2][::-1]))


def longdouble_if_rk4(coeffs, params, t_final, n_steps, rules=("none",)):
    """IF-RK4 on the full spectrum in ``np.longdouble``, on a 2*pi-periodic grid.

    Solves from the coefficients ``coeffs`` once under each dealias rule in
    ``rules``, all in one march, and returns the coefficients at ``t_final``
    as ``np.clongdouble``, one row per rule.  The transforms are direct DFT
    matrices, and the symbol and the conservative right-hand side are built
    here from ``params``; nothing comes from the package.
    """
    n = len(coeffs)
    pi = 4 * np.arctan(np.longdouble(1))
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.longdouble)
    angle = 2 * pi * np.outer(k, np.arange(n, dtype=np.longdouble)) / n
    forward = np.exp(-1j * angle)
    inverse = forward.conj().T / n
    odd = np.where(np.arange(n) == n // 2, 0, k)[:, None]  # odd powers of ik vanish at Nyquist
    lam = -params.nu * k[:, None] ** 2 + 1j * (params.mu * odd**3 - params.gamma * odd**5)
    keep = np.stack([np.abs(k) <= (n // 3 if rule == "two_thirds" else n) for rule in rules], 1)
    conv = (-np.longdouble(params.eps_conv) / 3) * 1j * odd * keep
    keep = keep.astype(np.longdouble)
    react = np.longdouble(params.eps_react)
    dt = np.longdouble(t_final) / n_steps
    e_half = np.exp(lam * (dt / 2))
    e_full = e_half * e_half

    def rhs(c):
        y = np.dot(inverse, c).real
        squared = y * y
        spectra = np.dot(forward, np.concatenate((squared * y, squared), axis=1))
        return conv * spectra[:, : len(rules)] + react * (c - keep * spectra[:, len(rules) :])

    c = np.repeat(np.asarray(coeffs).astype(np.clongdouble)[:, None], len(rules), axis=1)
    for _ in range(n_steps):
        a = rhs(c)
        b = rhs(e_half * (c + (dt / 2) * a))
        s3 = rhs(e_half * c + (dt / 2) * b)
        s4 = rhs(e_full * c + dt * (e_half * s3))
        c = e_full * c + (dt / 6) * (e_full * a + 2 * e_half * (b + s3) + s4)
    return c.T
