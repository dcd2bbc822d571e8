import collections
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

from vngrid import models
from vngrid.fourier_grid import build_grid
from vngrid.hamiltonian import (ElementCache, OperatorSpec, ReducedHamiltonian,
                                SopTerm, dense_grid_hamiltonian,
                                grid_potential, kinetic_matrix, potfit2)
from vngrid.reduced_space import CellSet, ProductBasis, ReducedBasis, cell_change
from vngrid.solvers import TiseConfig, solve_reduced_eig, tise_adaptive
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
    fit = potfit2(np.outer(f, f), 1e-10)
    assert fit.rank == 1
    assert fit.max_abs_error <= 1e-12
    t = fit.terms[0]
    assert np.linalg.norm(t.factors[0]) == pytest.approx(1.0)
    assert np.linalg.norm(t.factors[1]) == pytest.approx(1.0)
    np.testing.assert_allclose(t.coefficient * np.outer(*t.factors),
                               np.outer(f, f), atol=1e-12)


def test_potfit2_refuses_a_table_that_is_not_symmetric(rng):
    f = rng.normal(size=24)
    with pytest.raises(ValueError, match="exactly symmetric"):
        potfit2(np.outer(f, rng.normal(size=24)), 1e-10)
    table = np.outer(f, f)
    table[3, 5] = np.nextafter(table[3, 5], np.inf)
    with pytest.raises(ValueError, match="exactly symmetric"):
        potfit2(table, 1e-10)


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

def apply_H_grid(spec, psi):
    """The Hamiltonian applied to a sampling tensor: kinetic diagonals act
    through per-axis FFTs, the potential table pointwise."""
    out = grid_potential(spec) * psi
    for dof, tk in enumerate(spec.kinetic):
        if tk is not None:
            shape = [1] * psi.ndim
            shape[dof] = -1
            out += np.fft.ifft(np.fft.fft(psi, axis=dof) * tk.reshape(shape),
                               axis=dof)
    return out


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
    spec = OperatorSpec(grids=(g,), kinetic=(None,), potentials=(v,))
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


# -- element tables -----------------------------------------------------------------

def _diagonals(spec):
    """``(dof, kind, payload)`` of every diagonal an operator registers, its
    control couplings' included."""
    for dof in range(spec.ndof):
        for kind, diag in (("kinetic", spec.kinetic[dof]),
                           ("potential", spec.potentials[dof])):
            if diag is not None:
                yield dof, kind, diag
    for t in spec.sop_terms:
        for dof, f in enumerate(t.factors):
            yield dof, "potential", f
    for c in spec.control_terms:
        yield from _diagonals(c)


def _dense_elements(pair, kind, payload):
    """``B^H diag(v) B`` or ``B^H T B`` over every cell, extended precision."""
    b = pair.B.astype(np.clongdouble)
    if kind == "potential":
        op_b = payload[:, None] * b
    else:
        op_b = kinetic_matrix(pair.grid, payload).astype(np.clongdouble) @ b
    return (b.conj().T @ op_b).astype(complex)


@pytest.mark.parametrize("case", ["helium", "harmonic", "double_well"])
def test_element_tables_hermitian_and_match_dense(case, he_model, dw_model):
    if case == "helium":
        # the momentum coupling's kinetic-type diagonal is odd in k
        grids = he_model.grids
        spec = dataclasses.replace(he_model.spec, control_terms=(
            models.position_coupling(grids),
            models.momentum_coupling(grids, 0.5)))
        pairs = he_model.pairs
    elif case == "double_well":
        spec, pairs = dw_model.spec, dw_model.pairs
    else:
        # one axis: its tables are not lifted by another axis's overlaps
        g = build_grid(24.0, 120)
        pairs = (build_basis_pair(build_lattice(g, 8, 15)),)
        spec = OperatorSpec.build((g,), potentials=(0.5 * g.centered_points ** 2,))
    caches = ReducedHamiltonian(spec, ProductBasis(pairs),
                                CellSet([[0] * len(pairs)])).caches
    for dof, kind, payload in _diagonals(spec):
        cache = caches[dof]
        tab = cache.table(cache.register(kind, payload))
        assert np.array_equal(tab, tab.conj().T)
        dense = _dense_elements(pairs[dof], kind, payload)
        assert np.abs(tab - dense).max() <= 1e-12


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


def test_audit_samples_every_slot(he_model, rng, monkeypatch):
    cache = ReducedHamiltonian(he_model.spec, he_model.product,
                               CellSet([[0, 0]], ndof=2)).caches[0]
    direct, seen = cache.direct_element, set()

    def recording(slot, i, j):
        seen.add(slot)
        return direct(slot, i, j)

    monkeypatch.setattr(cache, "direct_element", recording)
    # fewer samples than the 62 slots (kinetic and sum-of-products factors)
    assert cache.audit(rng, 10) <= 1e-12
    assert seen == set(range(62))


def test_audit_of_a_cache_without_slots_is_zero(pair60, rng):
    assert ElementCache(pair60).audit(rng) == 0.0


def test_each_element_table_is_held_once(he_model, monkeypatch):
    # the factor stacks are the only copy of the tables: every fill is
    # dropped once written, and each distinct slot is filled once per
    # construction, although helium's two axes, its drift and its two
    # (equal, but distinct) position couplings share slots
    fills, tables = collections.Counter(), []
    for name in ("potential_values", "kinetic_values"):
        def counted(cache, payload, fill=getattr(ElementCache, name)):
            fills[id(cache), payload.tobytes()] += 1
            tab = fill(cache, payload)
            tables.append(weakref.ref(tab))
            return tab

        monkeypatch.setattr(ElementCache, name, counted)
    spec = dataclasses.replace(he_model.spec, control_terms=(
        models.position_coupling(he_model.grids),
        models.position_coupling(he_model.grids)))
    ham = ReducedHamiltonian(spec, he_model.product, CellSet([[0, 0]], ndof=2))
    gc.collect()
    assert tables and not any(ref() is not None for ref in tables)
    registered = {(id(c), payload.tobytes())
                  for c in set(ham.caches) for _, payload in c._slots}
    assert set(fills) == registered and set(fills.values()) == {1}
    assert len(fills) == 63     # 62 potential diagonals and one kinetic
    # the counters of he_tdse_driven's ground state, drift and position
    assert ham.cache_stats() == {"hits": 205220, "misses": 21580}


def test_element_constant_potential_diagonal(pair60):
    g = pair60.grid
    spec = OperatorSpec(grids=(g,), kinetic=(None,), potentials=(np.ones(g.N),))
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
    added = ham.update(cell_change(ham.cells, CellSet(start[:, None])))
    assert len(added) == 0
    np.testing.assert_allclose(ham.Hbb, before, atol=0)
    rest = np.setdiff1d(np.arange(pair.n), start)
    grown = np.sort(np.concatenate([start, rest[:3]]))
    ham.update(cell_change(ham.cells, CellSet(grown[:, None])))
    scratch = ReducedHamiltonian(dw_model.spec, dw_model.product,
                                 CellSet(grown[:, None]))
    assert np.abs(ham.Hbb - scratch.Hbb).max() <= 1e-12


@pytest.mark.parametrize("model", ["harmonic", "double_well"])
def test_one_axis_contract_equals_its_ix_form(model, rng):
    m = getattr(models, model)()
    ham = ReducedHamiltonian(m.spec, m.product, CellSet([[0]]))
    n = m.pairs[0].n
    ri, ci = (rng.integers(n, size=(size, 1)) for size in (30, 45))
    factors = ham._drift
    assert len(factors.stacks) == 1 and not factors.swap
    assert np.array_equal(ReducedHamiltonian._contract(ri, ci, factors),
                          factors.stacks[0][np.ix_(ri[:, 0], ci[:, 0])])


def test_element_api_and_hermiticity(dw_reduced):
    # a fresh assembly over two of the cells gives their elements
    model, rb, ham = dw_reduced
    two = CellSet(rb.cells.indices[[2, 9]])
    h = ReducedHamiltonian(model.spec, model.product, two).Hbb
    a, b = h[0, 1], h[1, 0]
    assert a == pytest.approx(np.conj(b), abs=1e-14)
    assert a == pytest.approx(complex(ham.Hbb[2, 9]), abs=1e-13)


def reduced_via_gaussians(spec, product, rb):
    """Reduced generator through Gaussian-side overlaps (dense cross-check).

    ``Stilde (R^H S^-1 (G^H H G) S^-1 R)``: algebraically identical to
    ``Stilde (Btilde^H H Btilde)`` but built from the localized family,
    where the full-space sandwich is cheap.
    """
    h = dense_grid_hamiltonian(spec)
    g_full = product.pairs[0].G
    sinv_full = product.pairs[0].Sinv
    for pair in product.pairs[1:]:
        g_full = np.kron(g_full, pair.G)
        sinv_full = np.kron(sinv_full, pair.Sinv)
    core = sinv_full @ (g_full.conj().T @ h @ g_full) @ sinv_full
    dims = [p.n for p in product.pairs]
    flat = np.ravel_multi_index(rb.cells.indices.T, dims)
    return rb.Stilde @ core[np.ix_(flat, flat)]


def test_apply_reduced_and_both_routes(dw_model, rng):
    pair = dw_model.pairs[0]
    cells = CellSet(np.sort(rng.choice(pair.n, size=24, replace=False))[:, None])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    assert np.all(rb.Stilde @ (ham.Hbb @ np.zeros(24)) == 0.0)
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
    zspec = OperatorSpec(grids=(pair.grid,), kinetic=(None,),
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
    """Fill-time accounting: ``misses`` counts the values computed by the
    potential class fills and the direct kinetic fills, ``hits`` the table
    entries served beyond them."""
    rng = np.random.default_rng(3)
    cells = CellSet(np.sort(rng.choice(dw_model.pairs[0].n, size=110,
                                       replace=False))[:, None])
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    stats = ham.cache_stats()
    assert stats["hits"] > 0
    assert stats["misses"] > 0


def test_helium_sop_reconstruction(he_model):
    v = sum(t.coefficient * np.outer(*t.factors)
            for t in he_model.spec.sop_terms)
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


def _helium_with_three_couplings(he_model):
    """Helium with ``x_1 + x_2``, ``p_1 + p_2`` and ``x_1`` alone, which
    breaks the exchange symmetry."""
    grids = he_model.grids
    one_axis = OperatorSpec(grids=grids, kinetic=(None, None),
                            potentials=(grids[0].centered_points, None))
    return dataclasses.replace(he_model.spec, control_terms=(
        models.position_coupling(grids), models.momentum_coupling(grids),
        one_axis))


def test_helium_blocks_match_dense_sandwich(he_model):
    # desk-scale helium (3600 points): drift, position, momentum and
    # one-axis controls over a few hundred cells, exchange-swapped pairs
    # included; the drift and the symmetric couplings read one factor stack
    # for both axes
    rng = np.random.default_rng(11)
    n = he_model.pairs[0].n
    pairs = rng.choice(n, size=(130, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    diag = rng.choice(n, size=20, replace=False)
    cells = CellSet(np.vstack([pairs, pairs[:, ::-1],
                               np.column_stack([diag, diag])]), ndof=2)
    assert len(cells) >= 250
    spec = _helium_with_three_couplings(he_model)
    ham = ReducedHamiltonian(spec, he_model.product, cells)
    ref = _dense_block(spec, he_model.pairs, cells)
    assert np.abs(ham.Hbb - ref).max() <= 1e-11
    for block, coupling in zip(ham.Hbb_controls, spec.control_terms):
        ref_c = _dense_block(coupling, he_model.pairs, cells)
        assert np.abs(block - ref_c).max() <= 1e-11


def test_symmetric_operators_hold_one_stack(he_model):
    # the drift (one-axis terms swapped, each symmetric sum-of-products
    # term split as sqrt(coefficient) on both factors), x_1 + x_2 and
    # p_1 + p_2 hold one stack for both axes; x_1 alone keeps one per axis
    spec = _helium_with_three_couplings(he_model)
    ham = ReducedHamiltonian(spec, he_model.product, CellSet([[0, 1]], ndof=2))
    drift, position, momentum, one_axis = (ham._drift, *ham._controls)
    for factors in (drift, position, momentum):
        first, second = factors.stacks
        assert second is first and np.shares_memory(first, second)
        assert factors.swap
    assert drift.stacks[0].shape == (60, 60, 62)
    first, second = one_axis.stacks
    assert not np.shares_memory(first, second) and not one_axis.swap
    # after the two one-axis columns, each term's column is its factor's
    # table times the root of its coefficient
    cache = ham.caches[0]
    for r, t in enumerate(he_model.spec.sop_terms):
        tab = cache.table(cache.register("potential", t.factors[0]))
        assert np.array_equal(drift.stacks[0][:, :, 2 + r],
                              np.sqrt(t.coefficient) * tab)


def _swapped_cells(he_model, seed):
    rng = np.random.default_rng(seed)
    pairs = rng.choice(he_model.pairs[0].n, size=(60, 2))
    return CellSet(np.vstack([pairs, pairs[:, ::-1]]), ndof=2)


def test_pure_sum_of_products_operator_shares_one_unswapped_stack(he_model):
    # helium's interaction alone: exchange symmetric with no one-axis
    # terms, so both axes read one stack and no column is swapped
    spec = OperatorSpec(grids=he_model.grids, kinetic=(None, None),
                        potentials=(None, None),
                        sop_terms=he_model.spec.sop_terms)
    assert spec.exchange_symmetric
    cells = _swapped_cells(he_model, 3)
    ham = ReducedHamiltonian(spec, he_model.product, cells)
    first, second = ham._drift.stacks
    assert second is first and not ham._drift.swap
    assert first.shape[-1] == len(spec.sop_terms)
    assert np.abs(ham.Hbb - _dense_block(spec, he_model.pairs, cells)).max() <= 1e-11


def test_tilted_nucleus_keeps_a_stack_per_axis(he_model):
    # one nucleus shifted: the operator breaks the swap, so each axis holds
    # its own stack and every coefficient stays on the first axis's factor
    spec = he_model.spec
    spec = dataclasses.replace(
        spec, potentials=(spec.potentials[0], spec.potentials[1] + 0.1))
    assert not spec.exchange_symmetric
    cells = _swapped_cells(he_model, 4)
    ham = ReducedHamiltonian(spec, he_model.product, cells)
    first, second = ham._drift.stacks
    assert not np.shares_memory(first, second) and not ham._drift.swap
    cache = ham.caches[0]
    for r, t in enumerate(spec.sop_terms):
        tab = cache.table(cache.register("potential", t.factors[0]))
        assert np.array_equal(first[:, :, 2 + r], t.coefficient * tab)
        assert np.array_equal(second[:, :, 2 + r], tab)
    assert np.abs(ham.Hbb - _dense_block(spec, he_model.pairs, cells)).max() <= 1e-11


def test_folded_basis_refuses_an_operator_that_breaks_the_swap(he_model):
    # a coupling on one electron drives the state out of the symmetric
    # sector that a folded basis holds; the symmetric couplings are taken
    grids = he_model.grids
    one_axis = OperatorSpec(grids=grids, kinetic=(None, None),
                            potentials=(grids[0].centered_points, None))
    folded = he_model.product.folded()
    cells = CellSet([[0, 1]], ndof=2)
    with pytest.raises(ValueError, match="exchange-symmetric"):
        ReducedHamiltonian(dataclasses.replace(
            he_model.spec, control_terms=(one_axis,)), folded, cells)
    with pytest.raises(ValueError, match="exchange-symmetric"):
        ReducedHamiltonian(dataclasses.replace(
            he_model.spec, potentials=(he_model.spec.potentials[0], None)),
            folded, cells)
    ReducedHamiltonian(_helium_with_position(he_model), folded, cells)
    ReducedHamiltonian(one_axis, he_model.product, cells)


def test_negative_symmetric_terms_split_into_imaginary_roots():
    # an indefinite symmetric interaction: its negative terms read
    # imaginary roots on both axes, and the block is still the sandwich
    pair = build_basis_pair(build_lattice(build_grid(6.0, 12), 3, 4))
    grid = pair.grid
    xc = grid.centered_points
    fit = potfit2(np.cos(xc[:, None] - 2.0 * xc[None, :])
                  + np.cos(2.0 * xc[:, None] - xc[None, :]), 1e-10)
    assert {t.coefficient > 0 for t in fit.terms} == {True, False}
    spec = OperatorSpec.build((grid, grid), potentials=(0.4 * xc ** 2,) * 2,
                              sop_terms=fit.terms)
    product = ProductBasis((pair, pair))
    cells = CellSet(np.array(list(np.ndindex(pair.n, pair.n))), ndof=2)
    ham = ReducedHamiltonian(spec, product, cells)
    assert ham._drift.stacks[0] is ham._drift.stacks[1]
    cache = ham.caches[0]
    for r, t in enumerate(spec.sop_terms):
        c = t.coefficient
        root = np.sqrt(c) if c > 0 else 1j * np.sqrt(-c)
        tab = cache.table(cache.register("potential", t.factors[0]))
        assert np.array_equal(ham._drift.stacks[0][:, :, 2 + r], root * tab)
    assert np.abs(ham.Hbb - _dense_block(spec, (pair, pair), cells)).max() <= 1e-11


def test_two_axis_update_equals_scratch(he_model):
    # on the lattice and on the folded product, whose rows are the orbit
    # representatives of the same cells; a fresh folded block is hermitized
    # as a whole, so there the carry matches it to round-off only
    spec = _helium_with_position(he_model)
    n = he_model.pairs[0].n
    for product in (he_model.product, he_model.product.folded()):
        rng = np.random.default_rng(5)
        start = product.representatives(
            CellSet(rng.choice(n, size=(160, 2)), ndof=2))
        ham = ReducedHamiltonian(spec, product, start)
        kept = start.indices[rng.random(len(start)) < 0.8]        # prune
        fresh = rng.choice(n, size=(40, 2))                        # grow
        target = product.representatives(
            CellSet(np.vstack([kept, fresh]), ndof=2))
        added = ham.update(cell_change(start, target))
        assert len(added) > 0 and len(target) < len(start) + len(added)
        scratch = ReducedHamiltonian(spec, product, target)
        assert np.abs(ham.Hbb - scratch.Hbb).max() <= 1e-12
        assert np.abs(ham.Hbb_controls[0]
                      - scratch.Hbb_controls[0]).max() <= 1e-12


def test_folded_full_blocks_assemble_within_four_blocks_of_memory(he_model):
    # a refresh assembles every full block while the old inverse and
    # generators are held: on the driven helium search's 499 folded rows,
    # the fresh allocations of assembling the drift and position blocks
    # peak at four n x n matrices (with the mirrored half of a folded
    # block held to the end, six)
    spec = _helium_with_position(he_model)
    res = tise_adaptive(spec, he_model.product.folded(),
                        TiseConfig(zeta=1e-4, n_modes=1))
    cells = res.final_cells
    n = len(cells)
    assert n == 499
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        blocks = res.hamiltonian.rows(cells, cells)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(blocks) == 2
    assert peak <= 4.5 * n * n * 16, peak / (n * n * 16)


def test_refresh_frees_the_staged_state_before_it_assembles(he_model):
    # a propagation's refresh on the driven helium search's 499 folded rows,
    # two blocks: unstaged first, it peaks at about one n x n matrix above
    # what was resident before it (the old inverse and generators held
    # while it assembles: four).  Traced from before the search, so that
    # the arrays it frees count
    spec = _helium_with_position(he_model)
    tracemalloc.start()
    try:
        res = tise_adaptive(spec, he_model.product.folded(),
                            TiseConfig(zeta=1e-4, n_modes=1))
        rb, ham = res.reduced_basis, res.hamiltonian
        rb.stage(ham.take_blocks())
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        rb.unstage()
        rb.stage(ham.rows(rb.cells, rb.cells))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    n = rb.n
    assert n == 499 and len(rb.generators) == 2
    assert peak <= 1.5 * n * n * 16, peak / (n * n * 16)
    scratch = ReducedBasis(rb.product, rb.cells, rb.Sinv_tilde.copy())
    scratch.stage(ham.rows(rb.cells, rb.cells))
    for got, ref in zip(rb.generators, scratch.generators, strict=True):
        assert np.array_equal(got, ref)


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


# -- control blocks shared between pulses -------------------------------------------

def _two_position_pulses(model):
    from vngrid.cli import _build_pulses

    _, couplings = _build_pulses(
        [{"kind": "nir", "amplitude": 0.1, "period": 2.0, "coupling": "position"},
         {"kind": "xuv", "amplitude": 0.1, "period": 2.0, "sigma": 1.0,
          "coupling": "position"},
         {"kind": "nir", "amplitude": 0.1, "period": 2.0, "coupling": "position",
          "scale": 2.0}],
        model.grids)
    return dataclasses.replace(model.spec, control_terms=tuple(couplings))


def test_pulses_sharing_a_coupling_share_one_block(dw_model):
    spec = _two_position_pulses(dw_model)
    c = spec.control_terms
    assert c[0] is c[1] and c[2] is not c[0]
    rng = np.random.default_rng(4)
    n = dw_model.pairs[0].n
    cells = CellSet(np.sort(rng.choice(n, size=50, replace=False))[:, None])
    ham = ReducedHamiltonian(spec, dw_model.product, cells)
    blocks = ham.Hbb_controls
    assert len(blocks) == 3 and blocks[0] is blocks[1]
    np.testing.assert_allclose(blocks[2], 2.0 * blocks[0], rtol=0, atol=1e-12)
    target = CellSet(np.sort(rng.choice(n, size=60, replace=False))[:, None])
    ham.update(cell_change(cells, target))
    assert ham.Hbb_controls[0] is ham.Hbb_controls[1]
    scratch = ReducedHamiltonian(spec, dw_model.product, target)
    assert np.abs(ham.Hbb_controls[0] - scratch.Hbb_controls[0]).max() <= 1e-12


def test_combined_sums_shared_signals_in_a_reused_buffer(dw_model):
    spec = _two_position_pulses(dw_model)
    spec = dataclasses.replace(spec, control_terms=spec.control_terms[:2])
    cells = CellSet(np.arange(0, dw_model.pairs[0].n, 3)[:, None])
    ham = ReducedHamiltonian(spec, dw_model.product, cells)
    hbb = ham.Hbb.copy()
    hc = ham.Hbb_controls[0]
    u1, u2 = 0.37, -0.81
    h = ham.combined((u1, u2), ham.blocks)
    # equal up to the rounding of entries as large as Hbb's
    ref = hbb + u1 * hc + u2 * hc
    assert np.abs(h - ref).max() <= 1e-14 * np.abs(hbb).max()
    assert np.array_equal(ham.Hbb, hbb)
    # one signal: exactly the drift plus the scaled block
    assert np.array_equal(ham.combined((u1, 0.0), ham.blocks), hbb + u1 * hc)
    assert ham.combined((u2, 0.0), ham.blocks) is h    # the buffer is reused
    assert ham.combined((0.0, 0.0), ham.blocks) is ham.Hbb
    assert ham.combined((), ham.blocks) is ham.Hbb


def test_staged_generator_matches_factored_product(dw_model):
    spec = _two_position_pulses(dw_model)
    rng = np.random.default_rng(5)
    n = dw_model.pairs[0].n
    cells = CellSet(np.sort(rng.choice(n, size=50, replace=False))[:, None])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(spec, dw_model.product, cells)
    hbb = ham.Hbb.copy()
    rb.stage(list(ham.blocks))
    # the first two pulses share one coupling, so one block and one staged
    # generator: the drift's, the shared one and the third pulse's
    assert len(ham.blocks) == len(rb.generators) == 3
    g0 = rb.generators[0]
    scale = np.abs(g0).max()
    for u in ((), (0.0, 0.0, 0.0), (0.37, 0.0, 0.0), (0.37, -0.81, 0.0),
              (0.37, -0.81, 0.52)):
        ref = rb.Stilde @ ham.combined(u, ham.blocks)
        assert np.abs(ham.combined(u, rb.generators) - ref).max() <= 1e-13 * scale
    h = ham.combined((0.37, -0.81, 0.0), rb.generators)
    assert ham.combined((0.1, 0.0, 0.2), rb.generators) is h  # buffer reused
    assert ham.combined((0.0, 0.0, 0.0), rb.generators) is g0
    assert ham.combined((), rb.generators) is g0
    # staging a list of the blocks leaves the Hamiltonian's as they were;
    # the Hermitian and the staged combinations share the one buffer
    assert np.array_equal(ham.Hbb, hbb)
    assert ham.combined((0.37, 0.0, 0.0), ham.blocks) is h


def test_exchange_symmetry_of_operators(he_model):
    spec = he_model.spec
    grids = he_model.grids
    assert spec.exchange_symmetric
    couplings = (models.position_coupling(grids),
                 models.momentum_coupling(grids, 0.5))
    assert dataclasses.replace(spec, control_terms=couplings).exchange_symmetric
    # a field on one electron only, a tilted nucleus, or an asymmetric
    # interaction term breaks the symmetry
    one_sided = OperatorSpec(grids=grids, kinetic=(None, None),
                             potentials=(grids[0].centered_points, None))
    assert not dataclasses.replace(
        spec, control_terms=(one_sided,)).exchange_symmetric
    tilted = (spec.potentials[0], spec.potentials[1] + 1e-9)
    assert not dataclasses.replace(spec, potentials=tilted).exchange_symmetric
    t = spec.sop_terms[0]
    skew = SopTerm(t.coefficient, (t.factors[0], np.roll(t.factors[1], 1)))
    assert not dataclasses.replace(
        spec, sop_terms=(skew,) + spec.sop_terms[1:]).exchange_symmetric
    assert not models.harmonic().spec.exchange_symmetric
