import dataclasses

import numpy as np
import pytest
import scipy.linalg

from vngrid import models
from vngrid.fourier_grid import build_grid
from vngrid.hamiltonian import (OperatorSpec, ReducedHamiltonian, SopTerm,
                                apply_H_grid, apply_reduced, canonical_key,
                                dense_grid_hamiltonian, kinetic_matrix,
                                potfit2, reduced_via_gaussians, sop_table)
from vngrid.reduced_space import CellSet, ProductBasis, ReducedBasis
from vngrid.solvers import solve_reduced_eig
from vngrid.vn_basis import build_basis_pair, build_lattice

HELIUM_A0 = 0.739707902


@pytest.fixture(scope="module")
def pair60():
    return build_basis_pair(build_lattice(build_grid(15.0, 60), 5, 12))


@pytest.fixture(scope="module")
def dw_reduced(dw_model):
    rng = np.random.default_rng(7)
    cells = CellSet(np.sort(rng.choice(dw_model.pairs[0].n, size=60,
                                       replace=False))[:, None])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    return dw_model, rb, ham


# -- sum-of-products fitting -----------------------------------------------------

def test_potfit2_rank_one_product(rng):
    f = rng.normal(size=24)
    g = rng.normal(size=30)
    fit = potfit2(np.outer(f, g), 1e-10)
    assert fit.rank == 1
    assert fit.max_abs_error <= 1e-12
    t = fit.terms[0]
    assert np.linalg.norm(t.factors[0]) == pytest.approx(1.0)
    assert np.linalg.norm(t.factors[1]) == pytest.approx(1.0)
    np.testing.assert_allclose(t.coefficient * np.outer(*t.factors),
                               np.outer(f, g), atol=1e-12)


def test_potfit2_zero_and_validation():
    assert potfit2(np.zeros((8, 8)), 1e-6).rank == 0
    with pytest.raises(ValueError):
        potfit2(np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError):
        potfit2(np.full((4, 4), np.nan), 1e-6)
    with pytest.raises(ValueError):
        potfit2(np.zeros((4, 4, 4)), 1e-6)


def test_potfit2_helium_interaction_64():
    g = build_grid(20.0, 64)
    xc = g.centered_points
    v = 1.0 / np.sqrt((xc[:, None] - xc[None, :]) ** 2 + HELIUM_A0 ** 2)
    fit = potfit2(v, 1e-6)
    assert fit.max_abs_error <= 1e-6
    assert fit.rank >= 1   # recorded; the softened kernel needs many terms
    rec = sum(t.coefficient * np.outer(*t.factors) for t in fit.terms)
    assert np.abs(rec - v).max() <= 1e-6
    # symmetric table: both factors of each term are the same family
    for t in fit.terms:
        assert t.factors[0] is t.factors[1]


def test_potfit2_error_monotone_in_rank():
    g = build_grid(10.0, 40)
    xc = g.centered_points
    v = 1.0 / np.sqrt((xc[:, None] - xc[None, :]) ** 2 + 1.0)
    errs = [potfit2(v, tol).max_abs_error for tol in (0.3, 1e-2, 1e-4, 1e-8)]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


# -- grid application --------------------------------------------------------------

def test_apply_H_grid_plane_wave_eigenvector():
    g = build_grid(10.0, 32)
    spec = OperatorSpec.build((g,), masses=(1.3,))
    n = 5
    k = 2 * np.pi * n / g.L
    psi = np.exp(1j * k * g.sample_points) / np.sqrt(g.L)
    out = apply_H_grid(spec, psi)
    np.testing.assert_allclose(out, (k ** 2 / 2.6) * psi, atol=1e-10)


def test_apply_H_grid_pure_potential(rng):
    g = build_grid(10.0, 32)
    v = rng.normal(size=g.N)
    spec = OperatorSpec.build((g,), kinetic=(np.zeros(g.N),), potentials=(v,))
    psi = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    np.testing.assert_allclose(apply_H_grid(spec, psi), v * psi, atol=1e-12)


def test_apply_H_grid_sop_matches_dense_potential(rng):
    g = build_grid(6.0, 16)
    xc = g.centered_points
    v2 = np.exp(-0.3 * (xc[:, None] - xc[None, :]) ** 2)
    fit = potfit2(v2, 1e-10)
    spec = OperatorSpec.build((g, g), sop_terms=fit.terms)
    psi = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    kin = apply_H_grid(OperatorSpec.build((g, g)), psi)
    out = apply_H_grid(spec, psi)
    np.testing.assert_allclose(out - kin, v2 * psi, atol=1e-8)


def test_dense_grid_hamiltonian_is_real_symmetric(dw_model):
    h = dense_grid_hamiltonian(dw_model.spec)
    assert h.dtype == np.float64
    np.testing.assert_allclose(h, h.T, atol=1e-12)


def test_dense_grid_hamiltonian_size_guard():
    g = build_grid(10.0, 128)
    spec = OperatorSpec.build((g, g))
    with pytest.raises(ValueError):
        dense_grid_hamiltonian(spec)


# -- canonical keys -----------------------------------------------------------------

def test_canonical_key_hermitian_fold(pair60):
    lat = pair60.lattice
    i, j = lat.cell_index(1, 3), lat.cell_index(4, 7)
    k_ij, conj_ij = canonical_key(lat, i, j, slot=0)
    k_ji, conj_ji = canonical_key(lat, j, i, slot=0)
    assert k_ij == k_ji and conj_ij != conj_ji
    kk_ij, kc_ij = canonical_key(lat, i, j, slot=0, kind="kinetic")
    kk_ji, kc_ji = canonical_key(lat, j, i, slot=0, kind="kinetic")
    assert kk_ij == kk_ji and kc_ij != kc_ji


def test_canonical_key_momentum_difference_degeneracy(pair60):
    lat = pair60.lattice
    # same positions, same momentum offset, different absolute momenta
    k1, _ = canonical_key(lat, lat.cell_index(1, 2), lat.cell_index(3, 5), 0)
    k2, _ = canonical_key(lat, lat.cell_index(1, 7), lat.cell_index(3, 10), 0)
    assert k1 == k2
    k3, _ = canonical_key(lat, lat.cell_index(1, 2), lat.cell_index(3, 6), 0)
    assert k3 != k1
    # kinetic: same position offset, same momentum pair
    k4, _ = canonical_key(lat, lat.cell_index(1, 2), lat.cell_index(3, 5), 0,
                          kind="kinetic")
    k5, _ = canonical_key(lat, lat.cell_index(2, 2), lat.cell_index(4, 5), 0,
                          kind="kinetic")
    assert k4 == k5


def test_exchange_symmetric_terms_share_cache(he_model):
    ham = he_model  # only used to reach the built caches cheaply
    cells = CellSet([[3, 17], [17, 3]], ndof=2)
    red = ReducedHamiltonian(ham.spec, ham.product, cells)
    # both axes share one pair object, hence one cache
    assert red.caches[0] is red.caches[1]
    h = red.Hbb
    # particle exchange maps (j,k) pairs onto each other: equal elements
    assert h[0, 1] == pytest.approx(h[1, 0].conjugate(), abs=1e-14)
    assert h[0, 0] == pytest.approx(h[1, 1], abs=1e-12)


# -- reduced assembly -----------------------------------------------------------------

def test_element_direct_quadrature_audit(dw_reduced, rng):
    model, rb, ham = dw_reduced
    worst = max(c.audit(rng, 50) for c in ham.caches)
    assert worst <= 1e-12
    assert ham.cache_stats()["hits"] > 0


def test_element_constant_potential_diagonal(pair60):
    g = pair60.grid
    spec = OperatorSpec.build((g,), kinetic=(np.zeros(g.N),),
                              potentials=(np.ones(g.N),))
    ham = ReducedHamiltonian(spec, ProductBasis(pair60),
                             CellSet(np.arange(6)[:, None]))
    for j in range(6):
        bk = pair60.B[:, j]
        assert ham.Hbb[j, j] == pytest.approx(np.vdot(bk, bk).real, rel=1e-12)
        assert ham.Hbb[j, j].imag == 0.0


def test_assembled_matrix_exactly_hermitian(dw_reduced):
    _, _, ham = dw_reduced
    assert np.abs(ham.Hbb - ham.Hbb.conj().T).max() <= 1e-12


def test_assembly_matches_brute_force(dw_reduced):
    model, rb, ham = dw_reduced
    pair = model.pairs[0]
    idx = rb.cells.indices[:, 0]
    tmat = kinetic_matrix(pair.grid, model.spec.kinetic[0])
    hgrid = tmat + np.diag(model.spec.potentials[0])
    brute = pair.B[:, idx].conj().T @ hgrid @ pair.B[:, idx]
    np.testing.assert_allclose(ham.Hbb, brute, atol=1e-11)


def test_incremental_update_equals_scratch(dw_model, rng):
    pair = dw_model.pairs[0]
    start = np.sort(rng.choice(pair.n, size=20, replace=False))
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product,
                             CellSet(start[:, None]))
    before = ham.Hbb.copy()
    added = ham.update(CellSet(start[:, None]))
    assert len(added) == 0
    np.testing.assert_allclose(ham.Hbb, before, atol=0)
    rest = np.setdiff1d(np.arange(pair.n), start)
    grown = np.sort(np.concatenate([start, rest[:3]]))
    ham.update(CellSet(grown[:, None]))
    scratch = ReducedHamiltonian(dw_model.spec, dw_model.product,
                                 CellSet(grown[:, None]))
    assert np.abs(ham.Hbb - scratch.Hbb).max() <= 1e-12


def test_element_api_and_hermiticity(dw_reduced):
    model, rb, ham = dw_reduced
    a = ham.element(rb.cells.indices[2], rb.cells.indices[9])
    b = ham.element(rb.cells.indices[9], rb.cells.indices[2])
    assert a == pytest.approx(np.conj(b), abs=1e-14)
    assert a == pytest.approx(complex(ham.Hbb[2, 9]), abs=1e-13)


def test_apply_reduced_and_both_routes(dw_model, rng):
    pair = dw_model.pairs[0]
    cells = CellSet(np.sort(rng.choice(pair.n, size=24, replace=False))[:, None])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    assert np.all(apply_reduced(rb.Stilde, ham.Hbb, np.zeros(24)) == 0.0)
    h1_direct = rb.Stilde @ ham.Hbb
    h1_gauss = reduced_via_gaussians(dw_model.spec, dw_model.product, rb)
    assert np.abs(h1_direct - h1_gauss).max() <= 1e-8


def test_full_set_reduction_is_similarity(dw_model, dw_dense):
    pair = dw_model.pairs[0]
    cells = CellSet(np.arange(pair.n)[:, None])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    w, _ = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, pair.n)
    assert np.abs(w - dw_dense).max() <= 1e-8
    # zero Hamiltonian edge case of the Gaussian-side route
    zspec = OperatorSpec.build((pair.grid,), kinetic=(np.zeros(pair.grid.N),),
                               potentials=(np.zeros(pair.grid.N),))
    z = reduced_via_gaussians(zspec, dw_model.product, rb)
    assert np.abs(z).max() < 1e-10


def test_h1_eigenvalues_real_and_match_generalized(dw_reduced):
    _, rb, ham = dw_reduced
    h1 = rb.Stilde @ ham.Hbb
    ev = scipy.linalg.eigvals(h1)
    assert np.abs(ev.imag).max() <= 1e-8 * np.abs(ev).max()
    w, v = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, 5)
    np.testing.assert_allclose(np.sort(ev.real)[:5], w, atol=1e-8)
    for i in range(5):
        resid = np.linalg.norm(h1 @ v[:, i] - w[i] * v[:, i])
        assert resid <= 1e-7


def test_cache_hit_rate_positive_on_large_assembly(dw_model):
    """Fill-time accounting: ``misses`` counts the canonical values computed
    by plane and pair fills, ``hits`` the table entries served beyond them."""
    rng = np.random.default_rng(3)
    cells = CellSet(np.sort(rng.choice(dw_model.pairs[0].n, size=110,
                                       replace=False))[:, None])
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    stats = ham.cache_stats()
    assert stats["hits"] > 0
    assert stats["misses"] > 0


def test_helium_sop_reconstruction(he_model):
    v = sop_table(he_model.spec)
    g = he_model.grids[0]
    xc = g.centered_points
    exact = 1.0 / np.sqrt((xc[:, None] - xc[None, :]) ** 2 + HELIUM_A0 ** 2)
    assert np.abs(v - exact).max() <= 1e-6


# -- multi-axis assembly against the dense grid --------------------------------------

def _product_columns(pairs, cells):
    """Columns ``(B_0 x B_1 x ...)[:, cells]`` of the product dual basis."""
    cols = np.ones((1, len(cells)), dtype=complex)
    for k, pair in enumerate(pairs):
        b = pair.B[:, cells.indices[:, k]]
        cols = (cols[:, None, :] * b[None, :, :]).reshape(-1, len(cells))
    return cols


def _dense_block(spec, pairs, cells):
    cols = _product_columns(pairs, cells)
    return cols.conj().T @ (dense_grid_hamiltonian(spec) @ cols)


def _helium_with_position(he_model):
    return dataclasses.replace(
        he_model.spec,
        control_terms=(models.position_coupling(he_model.grids),))


def test_helium_blocks_match_dense_sandwich(he_model):
    # desk-scale helium (3600 points): drift and position control over a few
    # hundred cells, exchange-swapped pairs included
    rng = np.random.default_rng(11)
    n = he_model.pairs[0].n
    pairs = rng.choice(n, size=(130, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    diag = rng.choice(n, size=20, replace=False)
    cells = CellSet(np.vstack([pairs, pairs[:, ::-1],
                               np.column_stack([diag, diag])]), ndof=2)
    assert len(cells) >= 250
    spec = _helium_with_position(he_model)
    ham = ReducedHamiltonian(spec, he_model.product, cells)
    ref = _dense_block(spec, he_model.pairs, cells)
    assert np.abs(ham.Hbb - ref).max() <= 1e-11
    ref_c = _dense_block(spec.control_terms[0], he_model.pairs, cells)
    assert np.abs(ham.Hbb_controls[0] - ref_c).max() <= 1e-11


def test_two_axis_update_equals_scratch(he_model):
    rng = np.random.default_rng(5)
    n = he_model.pairs[0].n
    spec = _helium_with_position(he_model)
    start = CellSet(rng.choice(n, size=(160, 2)), ndof=2)
    ham = ReducedHamiltonian(spec, he_model.product, start)
    kept = start.indices[rng.random(len(start)) < 0.8]        # prune
    fresh = rng.choice(n, size=(40, 2))                        # grow
    target = CellSet(np.vstack([kept, fresh]), ndof=2)
    added = ham.update(target)
    assert len(added) > 0 and len(target) < len(start) + len(added)
    scratch = ReducedHamiltonian(spec, he_model.product, target)
    assert np.abs(ham.Hbb - scratch.Hbb).max() <= 1e-12
    assert np.abs(ham.Hbb_controls[0] - scratch.Hbb_controls[0]).max() <= 1e-12


def test_three_axis_assembly_matches_dense():
    # two axes share one basis pair (and cache), the third has its own shape
    shared = build_basis_pair(build_lattice(build_grid(6.0, 12), 3, 4))
    other = build_basis_pair(build_lattice(build_grid(5.0, 10), 5, 2))
    pairs = (shared, other, shared)
    grids = tuple(p.grid for p in pairs)
    xcs = [g.centered_points for g in grids]
    bumps = [np.exp(-xc ** 2) for xc in xcs]
    norms = [np.linalg.norm(f) for f in bumps]
    coupling = SopTerm(0.3 * np.prod(norms),
                       tuple(f / nrm for f, nrm in zip(bumps, norms)))
    spec = OperatorSpec.build(grids, masses=(1.0, 0.7, 1.3),
                              potentials=tuple(0.4 * xc ** 2 for xc in xcs),
                              sop_terms=(coupling,))
    rng = np.random.default_rng(2)
    cells = CellSet(np.column_stack([rng.integers(p.n, size=90) for p in pairs]),
                    ndof=3)
    ham = ReducedHamiltonian(spec, ProductBasis(pairs), cells)
    assert ham.caches[0] is ham.caches[2]
    assert np.abs(ham.Hbb - _dense_block(spec, pairs, cells)).max() <= 1e-11
