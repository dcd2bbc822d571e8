import numpy as np
import pytest
import scipy.linalg

from vngrid.errors import IllConditionedBasisError
from vngrid.fourier_grid import build_grid
from vngrid.models import coherent_state
from vngrid.vn_basis import (analyze, build_basis_pair, build_lattice,
                             gaussian_column, synthesize, transform_operator)


@pytest.fixture(scope="module")
def pair60():
    return build_basis_pair(build_lattice(build_grid(15.0, 60), 5, 12))


def test_build_lattice_counts_and_alignment():
    g = build_grid(10.0, 16)
    lat = build_lattice(g, 4, 4)
    assert lat.x_centers.shape == (4,) and lat.p_centers.shape == (4,)
    assert lat.dx_lat * lat.dp_lat == pytest.approx(2.0 * np.pi)
    # every center lies on a grid sample / spectral frequency
    for xb in lat.x_centers:
        assert np.min(np.abs(g.sample_points - xb)) < 1e-14
    for pb in lat.p_centers:
        assert np.min(np.abs(g.k_values - pb)) < 1e-14


def test_build_lattice_rejects_mismatch():
    g = build_grid(10.0, 16)
    with pytest.raises(ValueError):
        build_lattice(g, 3, 5)
    with pytest.raises(ValueError):
        build_lattice(g, 4, 4, sigma_x=-1.0)


def test_lattice_alignment_desk_grid():
    g = build_grid(80.0, 160)
    lat = build_lattice(g, 5, 32)
    for xb in lat.x_centers:
        assert np.min(np.abs(g.sample_points - xb)) == 0.0
    kset = set(np.round(g.k_values, 12))
    assert set(np.round(lat.p_centers, 12)) <= kset


def test_gaussian_column_zero_center_shape():
    g = build_grid(24.0, 120)
    lat = build_lattice(g, 8, 15)
    col = gaussian_column(lat, lat.cell_index(0, lat.p_zero_index))
    assert np.abs(col.imag).max() < 1e-15
    assert np.all(col.real > 0)
    assert np.argmax(col.real) == 0
    # periodization: the tail wraps around, values near x=L mirror x=0+
    assert col.real[-1] == pytest.approx(col.real[1], rel=1e-10)


def test_gaussian_column_modulus_momentum_independent():
    g = build_grid(24.0, 120)
    lat = build_lattice(g, 8, 15)
    c1 = gaussian_column(lat, lat.cell_index(3, 2))
    c2 = gaussian_column(lat, lat.cell_index(3, 9))
    np.testing.assert_allclose(np.abs(c1), np.abs(c2), rtol=1e-12)


def test_gaussian_column_quadrature_norm():
    g = build_grid(24.0, 120)
    lat = build_lattice(g, 8, 15)   # sigma ~ 4 dx, well resolved
    for i in (0, 17, 63):
        col = gaussian_column(lat, i)
        norm = g.dx * np.sum(np.abs(col) ** 2)
        assert abs(norm - 1.0) < 1e-6


def test_pair_identities(pair60):
    n = pair60.n
    eye = np.eye(n)
    assert np.abs(pair60.G.conj().T @ pair60.B - eye).max() < 1e-9
    assert np.abs(pair60.B @ pair60.G.conj().T - eye).max() < 1e-9
    assert np.abs(pair60.S @ pair60.Sinv - eye).max() < 1e-9
    assert np.abs(pair60.B @ pair60.S - pair60.G).max() < 1e-9
    assert np.abs(pair60.G @ pair60.Sinv - pair60.B).max() < 1e-9


def test_pair_inverse_against_lu_oracle():
    pair = build_basis_pair(build_lattice(build_grid(10.0, 20), 4, 5))
    lu_inv = scipy.linalg.inv(pair.S)
    assert np.abs(pair.Sinv - lu_inv).max() < 1e-9


def test_even_by_even_critical_lattice_rejected():
    # the discrete Zak transform zero makes these exactly singular
    g = build_grid(10.0, 16)
    with pytest.raises(IllConditionedBasisError):
        build_basis_pair(build_lattice(g, 4, 4))
    g64 = build_grid(20.0, 64)
    with pytest.raises(IllConditionedBasisError):
        build_basis_pair(build_lattice(g64, 16, 4))


def test_analyze_biorthogonality(pair60):
    for j in (0, 13, 41):
        psi = pair60.B[:, j] / np.sqrt(pair60.grid.dx)   # raw samples of b_j
        coeffs = analyze(pair60, psi)
        expect = np.zeros(pair60.n)
        expect[j] = 1.0
        np.testing.assert_allclose(coeffs, expect, atol=1e-10)


def test_analyze_gaussian_gives_overlap_column(pair60):
    j = 22
    psi = gaussian_column(pair60.lattice, j)
    coeffs = analyze(pair60, psi)
    np.testing.assert_allclose(coeffs, pair60.S[:, j], atol=1e-10)


def test_analyze_midcell_gaussian_localized(pair60):
    lat = pair60.lattice
    g = pair60.grid
    psi = coherent_state(g, 0.5 * lat.dx_lat - 0.5 * g.L + 4.0 * lat.dx_lat,
                         0.5 * lat.dp_lat, lat.sigma_x)
    coeffs = analyze(pair60, psi)
    # independent overlap oracle: dx * sum conj(g_raw) psi
    for i in (0, 17, 31, 59):
        direct = g.dx * np.vdot(gaussian_column(lat, i), psi)
        assert abs(coeffs[i] - direct) < 1e-10
    amp = np.abs(coeffs)
    order = np.argsort(-amp)
    assert amp[order[12]] < 1e-2 * amp[order[0]]   # localized cluster
    assert np.sum(amp > 1e-6 * amp[order[0]]) < pair60.n / 2


def test_synthesize_round_trip(pair60, rng):
    worst = 0.0
    for _ in range(100):
        psi = rng.normal(size=pair60.n) + 1j * rng.normal(size=pair60.n)
        back = synthesize(pair60, analyze(pair60, psi))
        worst = max(worst, np.abs(back - psi).max())
    assert worst <= 1e-10


def test_synthesize_unit_vector_gives_dual_column(pair60):
    e = np.zeros(pair60.n)
    e[7] = 1.0
    np.testing.assert_allclose(synthesize(pair60, e),
                               pair60.B[:, 7] / np.sqrt(pair60.grid.dx),
                               atol=1e-12)


def test_norm_identity(pair60, rng):
    psi = rng.normal(size=pair60.n) + 1j * rng.normal(size=pair60.n)
    coeffs = analyze(pair60, psi)
    lhs = np.vdot(coeffs, pair60.Sinv @ coeffs)
    rhs = pair60.grid.dx * np.vdot(psi, psi)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_transform_operator_identity_and_hermitian(pair60, rng):
    n = pair60.n
    np.testing.assert_allclose(transform_operator(pair60, np.eye(n)),
                               np.eye(n), atol=1e-10)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (h + h.conj().T)
    hb = transform_operator(pair60, h)
    ev = scipy.linalg.eigvals(hb)
    assert np.abs(ev.imag).max() < 1e-8 * np.abs(ev).max()
    ref = np.sort(scipy.linalg.eigvalsh(h))
    assert np.abs(np.sort(ev.real) - ref).max() < 1e-8


def test_pure_state_density_and_husimi(pair60, rng):
    psi = rng.normal(size=pair60.n) + 1j * rng.normal(size=pair60.n)
    psi *= np.sqrt(1.0 / (pair60.grid.dx * np.vdot(psi, psi).real))
    rho = np.outer(psi, psi.conj()) * pair60.grid.dx
    coeffs = analyze(pair60, psi)
    # Husimi at the lattice points, straight from the density matrix:
    # <g_k| rho |g_k> = |<g_k|psi>|^2
    gw = pair60.G
    q_direct = np.real(np.einsum("ji,jk,ki->i", gw.conj(), rho, gw))
    np.testing.assert_allclose(q_direct, np.abs(coeffs) ** 2, atol=1e-10)
    # the similarity transform pairs the localized bras with the dual kets:
    # diag(B^-1 rho B)_k = <g_k|psi><psi|b_k>, summing to the unit trace
    rho_bb = transform_operator(pair60, rho)
    psi_g = pair60.Sinv @ coeffs
    np.testing.assert_allclose(np.diag(rho_bb), coeffs * psi_g.conj(),
                               atol=1e-10)
    assert np.trace(rho_bb) == pytest.approx(1.0, abs=1e-10)


def test_husimi_diagonal_basics(pair60):
    # the Husimi density at the lattice points is |<g_i|psi>|^2
    e = np.zeros(pair60.n)
    e[9] = 1.0
    np.testing.assert_allclose(np.abs(e) ** 2, e)
    np.testing.assert_allclose(np.abs(np.zeros(4)) ** 2, np.zeros(4))
    k = 31
    psi = gaussian_column(pair60.lattice, k)
    psi /= np.sqrt(pair60.grid.dx * np.sum(np.abs(psi) ** 2))
    q = np.abs(analyze(pair60, psi)) ** 2
    assert np.argmax(q) == k


def test_phase_space_sparsity_direction(pair60):
    lat = pair60.lattice
    psi = coherent_state(pair60.grid, 0.4 * lat.dx_lat, 0.0, lat.sigma_x)
    local_bras = analyze(pair60, psi)
    nonlocal_bras = pair60.B.conj().T @ psi * np.sqrt(pair60.grid.dx)
    assert (np.abs(local_bras) > 1e-6).sum() < (np.abs(nonlocal_bras) > 1e-6).sum()
