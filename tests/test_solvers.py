import dataclasses
import inspect

import numpy as np
import pytest
import scipy.linalg

import vngrid.reduced_space as reduced_space
import vngrid.solvers as solvers
from vngrid import models
from vngrid.errors import ConvergenceError, IllConditionedBasisError
from vngrid.fourier_grid import build_grid
from vngrid.hamiltonian import (OperatorSpec, ReducedHamiltonian,
                                dense_grid_hamiltonian)
from vngrid.reduced_space import (CellSet, ReducedBasis, boundary_mask,
                                  expand_cells)
from vngrid.solvers import (EigenResult, ShiftInvertError, TiseConfig,
                            lattice_potential, reference_full_eig, seed_cells,
                            shift_invert_eig, solve_reduced_eig, tise_adaptive)


@pytest.mark.parametrize("name", ["helium", "double_well"])
def test_lattice_potential_is_the_dense_diagonal(name, dw_model):
    # without kinetic terms the dense Hamiltonian's diagonal is the potential
    # table alone; at the lattice sites it is the lattice potential, bit for
    # bit (helium on a 30-point grid with the desk run's lattice sites)
    model = dw_model if name == "double_well" else models.helium_1d(N=30, Np=6)
    spec = dataclasses.replace(model.spec, kinetic=(None,) * model.spec.ndof)
    diag = np.diag(dense_grid_hamiltonian(spec)).reshape(
        [g.N for g in spec.grids])
    sites = np.ix_(*(np.arange(lat.Nx) * lat.Np for lat in model.lattices))
    assert np.array_equal(lattice_potential(model.spec, model.lattices),
                          diag[sites])


def test_seed_cells_double_well(dw_model):
    lat = dw_model.lattices[0]
    v_lat = lattice_potential(dw_model.spec, dw_model.lattices)
    seeds = seed_cells(v_lat, dw_model.lattices)
    assert len(seeds) == 2
    d = inspect.signature(models.double_well).parameters[
        "half_separation"].default
    for (i,) in seeds:
        a, b = lat.cell_coords(i)
        assert lat.p_centers[b] == 0.0
        xc = lat.x_centers[a] - 0.5 * lat.grid.L
        assert min(abs(xc - d), abs(xc + d)) <= 0.5 * lat.dx_lat


def test_seed_cells_harmonic(ho_model):
    v_lat = lattice_potential(ho_model.spec, ho_model.lattices)
    seeds = seed_cells(v_lat, ho_model.lattices)
    assert len(seeds) == 1
    lat = ho_model.lattices[0]
    (i,) = next(iter(seeds))
    a, b = lat.cell_coords(i)
    assert abs(lat.x_centers[a] - 0.5 * lat.grid.L) <= 0.5 * lat.dx_lat
    assert lat.p_centers[b] == 0.0


def test_seed_cells_constant_potential_fallback(ho_model):
    lat = ho_model.lattices[0]
    v_lat = np.ones(lat.Nx)
    seeds = seed_cells(v_lat, ho_model.lattices)
    assert len(seeds) == 1


def test_seed_cells_helium_is_exchange_symmetric(he_model):
    # the lattice minimum is tied between the mirror sites (2, 3) and (3, 2),
    # neither a strict local minimum: the fallback keeps both
    v_lat = lattice_potential(he_model.spec, he_model.lattices)
    seeds = seed_cells(v_lat, he_model.lattices)
    assert list(seeds) == [(29, 41), (41, 29)]


def test_seed_cells_constant_two_axis_potential_fallback(he_model):
    v_lat = np.ones([lat.Nx for lat in he_model.lattices])
    assert len(seed_cells(v_lat, he_model.lattices)) == 1


def test_solve_reduced_eig_harmonic_levels(ho_model):
    pair = ho_model.pairs[0]
    cells = CellSet(np.arange(pair.n)[:, None])
    rb = ReducedBasis.create(ho_model.product, cells)
    ham = ReducedHamiltonian(ho_model.spec, ho_model.product, cells)
    w, v = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, 6)
    np.testing.assert_allclose(w, np.arange(6) + 0.5, atol=1e-6)
    # vectors come back with unit physical norm
    for i in range(6):
        assert np.vdot(v[:, i], rb.Sinv_tilde @ v[:, i]).real == pytest.approx(1.0)


def test_solve_reduced_eig_single_cell_is_rayleigh_quotient(ho_model):
    cells = CellSet([[ho_model.lattices[0].cell_index(4, 7)]])
    rb = ReducedBasis.create(ho_model.product, cells)
    ham = ReducedHamiltonian(ho_model.spec, ho_model.product, cells)
    w, _ = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, 1)
    expect = ham.Hbb[0, 0].real / rb.Sinv_tilde[0, 0].real
    assert w[0] == pytest.approx(expect, rel=1e-12)


def test_solve_reduced_eig_requires_room():
    with pytest.raises(ValueError):
        solve_reduced_eig(np.eye(2), np.eye(2), 3)


def test_adaptive_matches_dense_oracle(dw_model, dw_dense):
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=8))
    assert isinstance(res, EigenResult)
    assert np.abs(res.eigenvalues - dw_dense[:8]).max() <= 5e-6
    assert len(res.final_cells) < dw_model.pairs[0].n
    assert np.all(np.diff(res.eigenvalues) >= 0)
    # stopping contract: every tracked mode below the cutoff on the boundary
    rows = boundary_mask(res.final_cells, dw_model.lattices)
    assert np.abs(res.eigenvectors[rows, :]).max() < 1e-6


def test_adaptive_ground_doublet(dw_model, dw_dense):
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=2))
    split = res.eigenvalues[1] - res.eigenvalues[0]
    split_dense = dw_dense[1] - dw_dense[0]
    # the barrier makes the true splitting far below double precision;
    # ordering and agreement with the oracle are the testable content
    assert split >= 0.0
    assert abs(split - split_dense) <= 5e-6


def test_adaptive_seed_independence(dw_model):
    cfg = TiseConfig(zeta=1e-6, n_modes=8)
    res_default = tise_adaptive(dw_model.spec, dw_model.product, cfg)
    lat = dw_model.lattices[0]
    v_lat = lattice_potential(dw_model.spec, dw_model.lattices)
    alt_seed = CellSet([[int(np.argmin(v_lat)) * lat.Np + lat.p_zero_index]])
    res_alt = tise_adaptive(dw_model.spec, dw_model.product, cfg, seeds=alt_seed)
    n0, n1 = len(res_default.final_cells), len(res_alt.final_cells)
    assert abs(n0 - n1) <= 0.1 * n0
    assert np.abs(res_default.eigenvalues - res_alt.eigenvalues).max() < 1e-8


def test_adaptive_history_and_nonconvergence(dw_model):
    with pytest.raises(ConvergenceError) as err:
        tise_adaptive(dw_model.spec, dw_model.product,
                      TiseConfig(zeta=1e-6, n_modes=8, max_iterations=3))
    assert len(err.value.history) == 3
    assert err.value.history[-1][0] > err.value.history[0][0]


@pytest.mark.parametrize("knob", [{"zeta": 0.0}, {"n_modes": 0},
                                  {"max_iterations": 0}])
def test_tise_config_rejects_out_of_range_knobs(knob):
    # a search of no iterations would have no history to report
    with pytest.raises(ValueError):
        TiseConfig(**knob)


def test_reference_full_eig_free_particle():
    g = build_grid(10.0, 32)
    spec = OperatorSpec.build((g,))
    w = reference_full_eig(spec)
    np.testing.assert_allclose(w, np.sort(g.fft_wavenumbers() ** 2 / 2.0),
                               atol=1e-12)


def test_reference_full_eig_harmonic(ho_model):
    w = reference_full_eig(ho_model.spec, 6)
    np.testing.assert_allclose(w, np.arange(6) + 0.5, atol=1e-8)


def test_reference_full_eig_size_guard():
    g = build_grid(10.0, 128)
    with pytest.raises(ValueError):
        reference_full_eig(OperatorSpec.build((g, g)))


def test_adaptive_helium_ground_state(he_model, he_dense):
    res = tise_adaptive(he_model.spec, he_model.product,
                        TiseConfig(zeta=1e-5, n_modes=1))
    assert abs(res.eigenvalues[0] - he_dense[0]) <= 1e-5
    assert len(res.final_cells) < he_model.product.n_cells


# -- shift-invert eigensolve ---------------------------------------------------

def _reduced_problem(model, cells):
    rb = ReducedBasis.create(model.product, cells)
    ham = ReducedHamiltonian(model.spec, model.product, cells)
    return ham.Hbb, rb.Sinv_tilde


def _subspace_defect(s, v_ref, v):
    """1 - smallest cosine between the S-orthonormal column spaces."""
    return 1.0 - scipy.linalg.svdvals(v_ref.conj().T @ s @ v).min()


@pytest.mark.parametrize("case", ["helium", "helium_folded", "doublet",
                                  "harmonic4"])
def test_every_solve_matches_dense_oracle(case, he_model, dw_model, ho_model,
                                          monkeypatch):
    # helium at the driven run's cutoff runs at the real threshold (n up to
    # 981 from the exchange-symmetric seed, 499 folded rows on the
    # exchange-symmetric sector, which is what `vngrid tdse` searches); the
    # small cases lower it so that every warm solve is shift-invert
    model, cfg = {
        "helium": (he_model, TiseConfig(zeta=1e-4, n_modes=1)),
        "helium_folded": (he_model, TiseConfig(zeta=1e-4, n_modes=1)),
        "doublet": (dw_model, TiseConfig(zeta=1e-6, n_modes=2)),
        "harmonic4": (ho_model, TiseConfig(zeta=1e-6, n_modes=4)),
    }[case]
    product = (model.product.folded() if case == "helium_folded"
               else model.product)
    if not case.startswith("helium"):
        monkeypatch.setattr(solvers, "_SHIFT_INVERT_MIN", 1)
    threshold = solvers._SHIFT_INVERT_MIN
    real_solve, real_si = solvers.solve_reduced_eig, solvers.shift_invert_eig
    calls, served = [], []

    def recording_si(*args, **kwargs):
        res = real_si(*args, **kwargs)
        served.append(args[0].shape[0])
        return res

    def compared_solve(hbb, sinv, n_modes, warm=None):
        w, v = real_solve(hbb, sinv, n_modes, warm)
        w_ref, v_ref = scipy.linalg.eigh(hbb, sinv,
                                         subset_by_index=[0, n_modes - 1])
        assert np.abs(w - w_ref).max() <= 1e-10
        assert _subspace_defect(sinv, v_ref, v) <= 1e-10
        np.testing.assert_allclose(np.einsum("ij,ik,kj->j", v.conj(), sinv, v),
                                   1.0, atol=1e-12)
        calls.append((hbb.shape[0], warm is not None))
        return w, v

    monkeypatch.setattr(solvers, "shift_invert_eig", recording_si)
    monkeypatch.setattr(solvers, "solve_reduced_eig", compared_solve)
    res = tise_adaptive(model.spec, product, cfg)
    eligible = [n for n, warm in calls if warm and n >= threshold]
    assert len(calls) == res.iterations
    assert eligible and served == eligible
    if case == "helium":
        assert max(eligible) == len(res.final_cells) == 981
    if case == "helium_folded":
        assert served == [173, 399, 499] == [n for n, _ in calls[2:]]


def _helium_second_iteration(he_model):
    """The search's second problem (33 cells) and its first energy."""
    seeds = seed_cells(lattice_potential(he_model.spec, he_model.lattices),
                       he_model.lattices)
    h1, s1 = _reduced_problem(he_model, seeds)
    e_first = scipy.linalg.eigh(h1, s1, eigvals_only=True)[0]
    return _reduced_problem(he_model, expand_cells(seeds, he_model.lattices)), e_first


def test_shift_starting_above_ground_is_lowered(he_model, dw_model):
    # helium's second iteration with the first energy as the estimate sits
    # 4.3 Ha above the ground state; the inertia count at sigma rejects each
    # shift until one lies below the spectrum
    (h, s), e_first = _helium_second_iteration(he_model)
    w_ref = scipy.linalg.eigh(h, s, eigvals_only=True)
    assert e_first > w_ref[12]
    res = shift_invert_eig(h, s, 1, e_first)
    assert res.below_sigma == 0 and res.sigma < w_ref[0]
    assert res.factorizations > 2
    assert abs(res.eigenvalues[0] - w_ref[0]) <= 1e-10
    # the double well's tunnelling pair from an estimate above both
    lat = dw_model.lattices[0]
    cells = CellSet([[lat.cell_index(a, lat.p_zero_index)] for a in range(lat.Nx)])
    for _ in range(3):
        cells = expand_cells(cells, lat)
    h, s = _reduced_problem(dw_model, cells)
    w_ref = scipy.linalg.eigh(h, s, eigvals_only=True)
    res = shift_invert_eig(h, s, 2, w_ref[2])
    assert res.below_sigma == 0 and res.below_mu == 2
    np.testing.assert_allclose(res.eigenvalues, w_ref[:2], atol=1e-10)


def test_start_block_orthogonal_to_ground_mode(ho_model, monkeypatch):
    # exact excited modes converge at once, so the block never sees the
    # ground mode; the count at mu finds it and the solve falls back
    cells = CellSet(np.arange(ho_model.pairs[0].n)[:, None])
    h, s = _reduced_problem(ho_model, cells)
    w_ref, v_ref = scipy.linalg.eigh(h, s, subset_by_index=[0, 3])
    warm = (w_ref[0] - 0.5, v_ref[:, 1:])
    with pytest.raises(ShiftInvertError, match="2 eigenvalues below"):
        shift_invert_eig(h, s, 1, *warm)
    monkeypatch.setattr(solvers, "_SHIFT_INVERT_MIN", 1)
    w, v = solve_reduced_eig(h, s, 1, warm)
    assert abs(w[0] - w_ref[0]) <= 1e-10
    assert _subspace_defect(s, v_ref[:, :1], v) <= 1e-10


def test_small_or_cold_solves_stay_dense(ho_model, monkeypatch):
    def no_shift_invert(*args, **kwargs):
        raise AssertionError("shift-invert below the threshold or without a start")

    monkeypatch.setattr(solvers, "shift_invert_eig", no_shift_invert)
    cells = CellSet(np.arange(ho_model.pairs[0].n)[:, None])
    h, s = _reduced_problem(ho_model, cells)
    w, _ = solve_reduced_eig(h, s, 2, (0.5, None))
    np.testing.assert_allclose(w, [0.5, 1.5], atol=1e-6)
    monkeypatch.setattr(solvers, "_SHIFT_INVERT_MIN", 1)
    w2, _ = solve_reduced_eig(h, s, 2)
    np.testing.assert_array_equal(w, w2)


@pytest.mark.parametrize("knob, failure", [
    ("_SHIFT_TRIES", "no shift below the spectrum"),
    ("_MAX_SWEEPS", "did not converge in 0 sweeps")],
    ids=["no-shift", "no-sweeps"])
def test_failed_shift_invert_falls_back_to_dense_eigh(knob, failure, ho_model,
                                                      monkeypatch):
    cells = CellSet(np.arange(ho_model.pairs[0].n)[:, None])
    h, s = _reduced_problem(ho_model, cells)
    w_ref, v_ref = scipy.linalg.eigh(h, s, subset_by_index=[0, 1])
    warm = (w_ref[0], v_ref)
    monkeypatch.setattr(solvers, knob, 0)
    with pytest.raises(ShiftInvertError, match=failure):
        shift_invert_eig(h, s, 2, *warm)
    monkeypatch.setattr(solvers, "_SHIFT_INVERT_MIN", 1)
    w, v = solve_reduced_eig(h, s, 2, warm)
    np.testing.assert_array_equal(w, w_ref)
    np.testing.assert_array_equal(v, v_ref)


def test_exactly_singular_shift_has_no_inertia_count():
    # h - 2 s is diag(-1, 0, 1): D has an exact zero pivot
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    s, buf = np.eye(3, dtype=complex), np.empty((3, 3), dtype=complex)
    assert solvers._factor_shifted(h, s, 2.0, buf)[2] is None
    assert solvers._factor_shifted(h, s, 1.5, buf)[2] == 1


# -- the search never forms Stilde ----------------------------------------------

def test_tise_forms_no_inverse_overlap(he_model, monkeypatch):
    # nor does it factor a reduced overlap: the product basis bounds their
    # conditioning, and shift-invert factors H - sigma S by LDL
    def forbidden(*args, **kwargs):
        raise AssertionError("the eigenmode search factored or inverted the "
                             "reduced overlap")

    for name in ("grow_inverse", "shrink_inverse", "_fresh_inverse", "_zposv",
                 "_zpotrf", "_zpotri"):
        monkeypatch.setattr(reduced_space, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "cho_factor", forbidden)
    res = tise_adaptive(he_model.spec, he_model.product,
                        TiseConfig(zeta=1e-4, n_modes=1))
    assert res.iterations == 5
    monkeypatch.undo()
    rb = res.reduced_basis
    expect = reduced_space._fresh_inverse(rb.Sinv_tilde, rb.n)
    first = rb.Stilde
    np.testing.assert_array_equal(first, expect)
    assert rb.Stilde is first


def _visited_overlap_conds(monkeypatch):
    """2-norm condition numbers of the reduced overlap of every basis the
    eigenmode search creates or changes to, appended as it runs."""
    conds = []
    real_init, real_update = ReducedBasis.__init__, ReducedBasis.update

    def init(self, *args):
        real_init(self, *args)
        conds.append(np.linalg.cond(self.Sinv_tilde))

    def update(self, change, rows=()):
        out = real_update(self, change, rows)
        conds.append(np.linalg.cond(self.Sinv_tilde))
        return out

    monkeypatch.setattr(ReducedBasis, "__init__", init)
    monkeypatch.setattr(ReducedBasis, "update", update)
    return conds


@pytest.mark.parametrize("name,zeta", [("harmonic", 1e-6), ("double_well", 1e-6),
                                       ("helium", 1e-4), ("helium_folded", 1e-4)])
def test_search_overlaps_obey_the_lattice_bound(name, zeta, ho_model, dw_model,
                                                he_model, monkeypatch):
    # every reduced overlap is a principal submatrix (or, folded, an isometric
    # compression) of the lattice's S^-1, so interlacing bounds its
    # condition number by the product of the axes' cond(S)
    model = {"harmonic": ho_model, "double_well": dw_model}.get(name, he_model)
    product = model.product.folded() if name == "helium_folded" else model.product
    bound = np.prod([p.cond_S for p in product.pairs])
    conds = _visited_overlap_conds(monkeypatch)
    res = tise_adaptive(model.spec, product, TiseConfig(zeta=zeta, n_modes=1))
    assert len(conds) == res.iterations
    assert max(conds) <= bound * (1.0 + 1e-8)


def test_tise_checks_conditioning_without_an_inverse(he_model, monkeypatch):
    # a limit between one helium axis's cond(S) and their product: each axis
    # passes, and the product basis is refused, folded or not, before a
    # reduced overlap exists
    cond_axis = he_model.pairs[0].cond_S
    monkeypatch.setattr(reduced_space, "COND_LIMIT", 100.0)
    assert cond_axis < 100.0 < cond_axis ** 2
    ReducedBasis.create(reduced_space.ProductBasis(he_model.pairs[0]),
                        CellSet([[0]]))
    with pytest.raises(IllConditionedBasisError, match="ill-conditioned") as err:
        reduced_space.ProductBasis(he_model.pairs)
    assert err.value.cond == pytest.approx(cond_axis ** 2, rel=1e-12)
    assert err.value.size == 3600
    with pytest.raises(IllConditionedBasisError):
        he_model.product.folded()


def test_tise_refuses_a_lattice_beyond_the_limit(monkeypatch):
    # a product-check limit of 100: the double well's one axis (cond 15.0)
    # passes it, and helium's two (product 225) are refused when the model
    # makes its product basis, before any search
    monkeypatch.setattr(reduced_space, "COND_LIMIT", 100.0)
    with pytest.raises(IllConditionedBasisError, match="product-lattice overlap"):
        models.helium_1d()
    models.double_well()


# -- the exchange-symmetric sector -------------------------------------------------

def _swap_parity(v, n):
    """<v, swap v> per column of dense eigenvectors on an n x n grid."""
    vt = v.reshape(n, n, -1)
    return np.einsum("abk,bak->k", vt, vt)


@pytest.fixture(scope="module")
def he_searches(he_model):
    """The ground-state search at the driven run's cutoff, unfolded (from the
    exchange-symmetric seed) and folded."""
    cfg = TiseConfig(zeta=1e-4, n_modes=1)
    folded = he_model.product.folded()
    return (tise_adaptive(he_model.spec, he_model.product, cfg),
            tise_adaptive(he_model.spec, folded, cfg), folded)


def test_folded_search_matches_dense_symmetric_sector(he_model, he_eigh,
                                                      he_searches):
    w, v = he_eigh
    parity = _swap_parity(v[:, :6], he_model.grids[0].N)
    assert np.all(np.abs(np.abs(parity) - 1.0) <= 1e-8)
    e_sym = w[:6][parity > 0][0]
    _, res, _ = he_searches
    assert abs(res.eigenvalues[0] - e_sym) <= 1e-5


def test_folded_search_unfolds_to_the_symmetric_seed_search(he_searches):
    plain, res, folded = he_searches
    assert len(plain.final_cells) == 981
    assert folded.lattice_cells(res.final_cells) == plain.final_cells
    assert len(res.final_cells) == (981 + 17) // 2
    assert abs(res.eigenvalues[0] - plain.eigenvalues[0]) <= 1e-10


def test_folded_blocks_are_the_symmetric_projection(he_model, he_searches):
    _, res, folded = he_searches
    reps = res.final_cells
    cells = folded.lattice_cells(reps)
    p = folded.restrict(reps, np.eye(len(cells))).T      # orthonormal embedding
    np.testing.assert_allclose(p.T @ p, np.eye(len(reps)), atol=1e-15)
    plain_s = ReducedBasis.create(he_model.product, cells).Sinv_tilde
    plain_h = ReducedHamiltonian(he_model.spec, he_model.product, cells).Hbb
    for got, full in ((res.reduced_basis.Sinv_tilde, plain_s),
                      (res.hamiltonian.Hbb, plain_h)):
        ref = p.T @ full @ p
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(got, got.conj().T)
