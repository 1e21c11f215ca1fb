"""Independent oracles shared by the test suite.

These deliberately avoid the package's FFT/symbol code paths: the DFT
oracle is a direct O(N^2) summation, derivatives come from high-order
finite-difference stencils with weights from the Fornberg recurrence.
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
