import numpy as np
import pytest

from vngrid.fourier_grid import (build_grid, cardinal, dirichlet_kernel,
                                 synthesize_spectral)

# frozen oracle: sin(8*0.3/2)/(8*sin(0.3/2)) at 40-digit precision
DIRICHLET_8_03 = 0.77961952426356677125


def test_build_grid_desk_dimensions():
    g = build_grid(80.0, 160)
    assert g.dx == 0.5
    assert np.isclose(g.K, 2.0 * np.pi)
    assert g.n_max == 80
    assert g.sample_points.shape == (160,)
    assert np.all(np.diff(g.sample_points) > 0)
    assert g.sample_points[0] == 0.0 and g.sample_points[-1] < g.L


def test_build_grid_smallest():
    g = build_grid(2.0 * np.pi, 2)
    np.testing.assert_allclose(g.sample_points, [0.0, np.pi])
    np.testing.assert_allclose(sorted(g.k_values), [0.0, 1.0])


@pytest.mark.parametrize("L,N", [(80.0, 3), (-1.0, 4), (10.0, 0)])
def test_build_grid_rejects(L, N):
    with pytest.raises(ValueError):
        build_grid(L, N)


def test_grid_frequency_layout():
    g = build_grid(10.0, 8)
    n = np.rint(g.k_values * g.L / (2 * np.pi)).astype(int)
    assert n.tolist() == list(range(-3, 5))
    # fft-order array carries +K at the Nyquist slot
    kf = g.fft_wavenumbers()
    assert kf[g.N // 2] == pytest.approx(g.K)
    assert set(np.round(kf, 12)) == set(np.round(g.k_values, 12))


def test_dirichlet_limits_and_zero():
    assert dirichlet_kernel(4, 0.0) == 1.0
    assert dirichlet_kernel(9, 0.0) == 1.0
    assert abs(dirichlet_kernel(4, np.pi)) < 1e-15
    # analytic limit at alpha = 2*pi*m: (-1)^(m*(N-1))
    assert dirichlet_kernel(4, 2.0 * np.pi) == -1.0
    assert dirichlet_kernel(5, 2.0 * np.pi) == 1.0
    assert dirichlet_kernel(4, 4.0 * np.pi) == 1.0


def test_dirichlet_against_frozen_value():
    assert dirichlet_kernel(8, 0.3) == pytest.approx(DIRICHLET_8_03, abs=1e-15)


def test_dirichlet_requires_positive_n():
    with pytest.raises(ValueError):
        dirichlet_kernel(0, 0.1)


def test_cardinal_property_at_grid_points():
    for N in (4, 16, 64, 256):
        g = build_grid(7.3, N)
        for m in (0, 1, N // 2, N - 1):
            vals = cardinal(g, m, g.sample_points)
            expect = np.zeros(N)
            expect[m] = 1.0
            np.testing.assert_allclose(vals.real, expect, atol=1e-12)
            np.testing.assert_allclose(vals.imag, 0.0, atol=1e-12)


def test_cardinal_index_range():
    g = build_grid(5.0, 8)
    with pytest.raises(IndexError):
        cardinal(g, 8, 1.0)


def test_cardinal_inner_product_by_quadrature():
    # fine-quadrature oracle: <theta_n, theta_m> = (L/N) delta_nm, i.e. the
    # cardinal functions carry the quadrature weight, and (L/N)-weighted
    # sampling sums reproduce continuum inner products exactly
    g = build_grid(4.0, 8)
    x = np.linspace(0.0, g.L, 20001)
    for n, m in [(0, 0), (2, 2), (1, 5), (3, 0)]:
        fn = cardinal(g, n, x)
        fm = cardinal(g, m, x)
        val = np.trapezoid(fn.conj() * fm, x)
        expect = (g.L / g.N) if n == m else 0.0
        assert abs(val - expect) < 1e-10
        # discrete (L/N)-weighted sampling sum agrees with the integral
        disc = g.dx * np.vdot(cardinal(g, n, g.sample_points),
                              cardinal(g, m, g.sample_points))
        assert abs(disc - val) < 1e-10


def test_collocate_cardinal_and_constant():
    # collocation: the sampling vector (f(x_1), ..., f(x_N))
    g = build_grid(6.0, 12)
    vec = cardinal(g, 4, g.sample_points)
    expect = np.zeros(g.N)
    expect[4] = 1.0
    np.testing.assert_allclose(vec, expect, atol=1e-12)
    np.testing.assert_allclose(2.5 + 0 * g.sample_points, 2.5)


def test_collocate_plane_wave_is_spectral_spike():
    g = build_grid(6.0, 12)
    n_pick = 3
    k = 2 * np.pi * n_pick / g.L
    vec = np.exp(1j * k * g.sample_points) / np.sqrt(g.L)
    # expansion coefficients <phi_n, f> in ascending n
    n = np.arange(-g.n_max + 1, g.n_max + 1)
    coeffs = (np.sqrt(g.L) / g.N) * np.fft.fft(vec)[np.mod(n, g.N)]
    spike = np.zeros(g.N)
    spike[n_pick + g.n_max - 1] = 1.0
    np.testing.assert_allclose(coeffs, spike, atol=1e-12)


def test_bandlimited_reproduction_off_grid(rng):
    g = build_grid(9.0, 24)
    c = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    samples = synthesize_spectral(g, c, g.sample_points)
    x = rng.uniform(0, g.L, size=50)
    exact = synthesize_spectral(g, c, x)
    interp = np.zeros(50, dtype=complex)
    for m in range(g.N):
        interp += samples[m] * cardinal(g, m, x)
    rel = np.abs(interp - exact).max() / np.abs(exact).max()
    assert rel <= 1e-10


def test_weighted_sampling_inner_product_matches_coefficients(rng):
    g = build_grid(3.0, 16)
    a = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    b = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    fa = synthesize_spectral(g, a, g.sample_points)
    fb = synthesize_spectral(g, b, g.sample_points)
    assert abs(np.vdot(a, b) - g.dx * np.vdot(fa, fb)) < 1e-12 * abs(np.vdot(a, b))
