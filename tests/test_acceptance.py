"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest
import scipy.linalg

import vngrid as vg
from vngrid import models
from vngrid.dynamics import PropagationConfig, taylor_step, tdse_adaptive
from vngrid.errors import IllConditionedBasisError
from vngrid.hamiltonian import ReducedHamiltonian, kinetic_matrix
from vngrid.reduced_space import (CellSet, ReducedBasis, cell_change,
                                  expand_cells, grow_inverse, shrink_inverse)
from vngrid.solvers import TiseConfig, tise_adaptive
from vngrid.validate import run_validation


def _report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_biorthogonality_completeness():
    """G^H B = B G^H = 1 to 1e-9 for N in {16, 64, 160}."""
    worst = 0.0
    # 16 and 64 are powers of two: the only nonsingular critical lattices
    # have a unit dimension (even-by-even lattices are exactly singular)
    for L, n, nx, npp in ((6.0, 16, 16, 1), (20.0, 64, 64, 1),
                          (80.0, 160, 5, 32)):
        pair = vg.build_basis_pair(vg.build_lattice(vg.build_grid(L, n), nx, npp))
        eye = np.eye(n)
        worst = max(worst,
                    np.abs(pair.G.conj().T @ pair.B - eye).max(),
                    np.abs(pair.B @ pair.G.conj().T - eye).max())
    assert worst <= 1e-9
    _report(1, f"biorthogonality/completeness defect {worst:.2e} <= 1e-9 "
               f"for N in {{16, 64, 160}}")


def test_criterion_02_spectral_equivalence(dw_model, dw_dense):
    """Full-set reduction reproduces the dense grid spectrum to 1e-8."""
    pair = dw_model.pairs[0]
    cells = CellSet(np.arange(pair.n)[:, None])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    w, _ = vg.solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, pair.n)
    dev = np.abs(w - dw_dense).max()
    assert dev <= 1e-8
    _report(2, f"double-well full-set spectrum deviation {dev:.2e} <= 1e-8 "
               f"(all {pair.n} levels)")


def test_criterion_03_adaptive_tise(dw_model, dw_dense):
    """Adaptive eigenmode search at zeta=1e-6: 8 levels to 5e-6, pruned basis."""
    t0 = time.perf_counter()
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=8))
    dt = time.perf_counter() - t0
    dev = np.abs(res.eigenvalues - dw_dense[:8]).max()
    n, n_full = len(res.final_cells), dw_model.pairs[0].n
    assert dev <= 5e-6
    assert n < n_full
    _report(3, f"adaptive levels match dense oracle to {dev:.2e} <= 5e-6, "
               f"basis {n} < {n_full} cells, {res.iterations} iterations, "
               f"{dt:.1f}s")


def test_criterion_04_block_inverse_updates():
    """100 randomized grow/shrink sequences and 100 drop-and-add changes
    match dense inverses to 1e-9."""
    rng = np.random.default_rng(42)
    mixed = np.random.default_rng(43)   # leaves the grow/shrink draws as they were
    worst = 0.0
    for _ in range(100):
        n_tot = int(rng.integers(12, 129))
        m = int(rng.integers(1, min(9, n_tot - 2)))
        a = rng.normal(size=(n_tot, n_tot)) + 1j * rng.normal(size=(n_tot, n_tot))
        big = a @ a.conj().T + n_tot * np.eye(n_tot)
        n = n_tot - m
        every = CellSet(np.arange(n_tot))
        grown = grow_inverse(np.linalg.inv(big[:n, :n]),
                             cell_change(CellSet(np.arange(n)), every), big[n:])
        worst = max(worst, np.abs(grown - np.linalg.inv(big)).max())
        keep = np.sort(rng.choice(n_tot, size=n, replace=False))
        shrunk = shrink_inverse(np.linalg.inv(big),
                                cell_change(every, CellSet(keep)))
        worst = max(worst,
                    np.abs(shrunk - np.linalg.inv(big[np.ix_(keep, keep)])).max())
        # one change that drops d old rows and adds a others, interleaved
        a = int(mixed.integers(1, 9))
        old = np.sort(mixed.choice(n_tot, size=n_tot - a, replace=False))
        d = int(mixed.integers(1, min(9, len(old))))
        kept = np.ones(len(old), dtype=bool)
        kept[mixed.choice(len(old), size=d, replace=False)] = False
        new = np.sort(np.concatenate([old[kept], np.setdiff1d(np.arange(n_tot),
                                                              old)]))
        change = cell_change(CellSet(old), CellSet(new))
        changed = grow_inverse(np.linalg.inv(big[np.ix_(old, old)]), change,
                               big[np.ix_(new[change.fresh_rows], new)])
        worst = max(worst,
                    np.abs(changed - np.linalg.inv(big[np.ix_(new, new)])).max())
    assert worst <= 1e-9
    _report(4, f"100 randomized grow/shrink sequences and 100 drop-and-add "
               f"changes, max deviation {worst:.2e} <= 1e-9 (sizes up to 128)")


def test_criterion_05_symmetry_cache(dw_model):
    """Cache audit at 1e-12 with positive hit count; speedup reported."""
    rng = np.random.default_rng(3)
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=8))
    cells = res.final_cells
    assert len(cells) >= 100
    t0 = time.perf_counter()
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    t_cached = time.perf_counter() - t0
    stats = ham.cache_stats()
    audit = max(c.audit(rng, 60) for c in ham.caches)
    assert audit <= 1e-12
    assert stats["hits"] > 0
    pair = dw_model.pairs[0]
    idx = cells.indices[:, 0]
    hgrid = (kinetic_matrix(pair.grid, dw_model.spec.kinetic[0])
             + np.diag(dw_model.spec.potentials[0]))
    t0 = time.perf_counter()
    hcols = hgrid @ pair.B[:, idx]
    direct = np.empty((len(idx), len(idx)), dtype=complex)
    for r, i in enumerate(idx):
        direct[r] = pair.B[:, i].conj() @ hcols
    t_direct = time.perf_counter() - t0
    assert np.abs(direct - ham.Hbb).max() < 1e-11
    reuse = (stats["hits"] + stats["misses"]) / max(1, stats["misses"])
    _report(5, f"{len(cells)}-cell assembly: audit deviation {audit:.2e} <= "
               f"1e-12, hits {stats['hits']} > 0 (table entries served beyond "
               f"the {stats['misses']} canonical values computed by plane and "
               f"pair fills); measured (not asserted): x{reuse:.1f} table "
               f"entries per canonical value, wall clock "
               f"x{t_direct / t_cached:.2f} vs a dense no-reuse assembly at "
               f"this desk size")


def test_criterion_06_taylor_propagator(dw_model):
    """Taylor vs dense exponential to 1e-8 over 100 steps; 30-term signal."""
    res = tise_adaptive(dw_model.spec, dw_model.product,
                        TiseConfig(zeta=1e-6, n_modes=8))
    order = np.argsort(-np.abs(res.eigenvectors).max(axis=1))
    cells = CellSet(res.final_cells.indices[np.sort(order[:64])])
    rb = ReducedBasis.create(dw_model.product, cells)
    ham = ReducedHamiltonian(dw_model.spec, dw_model.product, cells)
    h1 = rb.Stilde @ ham.Hbb
    rho = np.abs(np.linalg.eigvals(h1)).max()
    rng = np.random.default_rng(11)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= rb.physical_norm(psi)
    cfg = PropagationConfig(tau0=1.0)
    tau = 2.0 / rho
    step_op = scipy.linalg.expm(-1j * tau * h1)
    psi_ref = psi.copy()
    worst = 0.0
    for _ in range(100):
        psi = taylor_step(h1, psi, tau, cfg).psi
        psi_ref = step_op @ psi_ref
        worst = max(worst, np.abs(psi - psi_ref).max())
    assert worst <= 1e-8
    big = taylor_step(h1, psi, 16.0 / rho, cfg)
    assert big.too_large and big.terms == cfg.max_taylor_terms == 30
    _report(6, f"fixed 64-cell basis: max deviation from dense exponential "
               f"{worst:.2e} <= 1e-8 over 100 steps; oversized step signals "
               f"at exactly {big.terms} terms")


def test_criterion_07_timestep_bound():
    """Control-slope bound reproduces T = 0.01 at the quoted parameters."""
    t = vg.max_timestep(1e-4, 0.2, 2.5)
    assert t == pytest.approx(0.01, rel=1e-12)
    _report(7, f"max_timestep(1e-4, 0.2, 2.5) = {t:.12f} (0.01 to 1e-12 "
               f"relative)")


def test_criterion_08_adaptive_tdse_conservation(ho_model):
    """Norm within 1e-6 over 1000 adaptive steps; discarded mass bounded."""
    grid, lat, pair = ho_model.grids[0], ho_model.lattices[0], ho_model.pairs[0]
    psi = models.coherent_state(grid, 2.5, 0.0, np.sqrt(0.5))
    coeffs = vg.analyze(pair, psi)
    cells = expand_cells(CellSet(np.where(np.abs(coeffs) >= 1e-6)[0][:, None]),
                         lat)
    c0 = vg.project_state(ho_model.product, cells, psi * np.sqrt(grid.dx))
    rb = ReducedBasis.create(ho_model.product, cells)
    c0 /= rb.physical_norm(c0)
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    traj = tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                         (0.0, 1e9), cfg=cfg, max_steps=1000)
    drift = np.abs(traj.norms - 1.0).max()
    n_changes = sum(1 for _, kind, _ in traj.events if kind == "basis")
    rate = traj.discarded[-1] / traj.times[-1]
    assert traj.n_steps == 1000
    assert drift <= 1e-6
    assert n_changes > 0
    assert rate <= 10 * cfg.zeta
    _report(8, f"1000 adaptive steps to t={traj.times[-1]:.1f}: norm drift "
               f"{drift:.2e} <= 1e-6, {n_changes} basis changes, discarded "
               f"mass {rate:.2e}/unit time <= {10 * cfg.zeta:.0e}")


def test_criterion_09_helium_desk_scale(he_model, he_dense):
    """Two-electron desk run: SOP at 1e-6, adaptive energy to 1e-5.

    The stated 64-point axes admit no usable critical lattice: 64 = 2**6,
    and every even-by-even critical Gaussian lattice has an exactly
    singular overlap matrix (which the builder rejects, as demanded for
    ill-conditioned bases).  The run therefore uses the nearest workable
    desk size, 60 points per axis (3600-dimensional dense oracle); all
    stated tolerances are enforced unchanged.
    """
    for nx, npp in ((16, 4), (8, 8), (32, 2)):
        with pytest.raises(IllConditionedBasisError):
            vg.build_basis_pair(vg.build_lattice(vg.build_grid(20.0, 64),
                                                 nx, npp))
    g = he_model.grids[0]
    xc = g.centered_points
    a0 = models.HELIUM_REGULARIZER
    exact = 1.0 / np.sqrt((xc[:, None] - xc[None, :]) ** 2 + a0 ** 2)
    sop = sum(t.coefficient * np.outer(*t.factors)
              for t in he_model.spec.sop_terms)
    sop_err = np.abs(sop - exact).max()
    assert sop_err <= 1e-6
    t0 = time.perf_counter()
    res = tise_adaptive(he_model.spec, he_model.product,
                        TiseConfig(zeta=1e-5, n_modes=1))
    dt = time.perf_counter() - t0
    dev = abs(res.eigenvalues[0] - he_dense[0])
    n, n_full = len(res.final_cells), he_model.product.n_cells
    assert dev <= 1e-5
    assert n < n_full
    _report(9, f"helium desk run ({g.N} points/axis; 64 is unusable: even-"
               f"by-even critical lattices are singular and rejected): SOP "
               f"max error {sop_err:.2e} <= 1e-6 (rank "
               f"{he_model.sop_fit.rank}), ground energy "
               f"{res.eigenvalues[0]:.6f} vs oracle dev {dev:.2e} <= 1e-5, "
               f"basis {n}/{n_full}, {dt:.0f}s")


def test_criterion_10_property_suite():
    """Every module's invariants pass, well under the 5-minute budget."""
    t0 = time.perf_counter()
    results = run_validation(seed=1234)
    dt = time.perf_counter() - t0
    failed = [r.name for r in results if not r.ok]
    assert not failed, f"failed invariants: {failed}"
    assert dt < 300.0
    _report(10, f"{len(results)} invariant checks pass in {dt:.1f}s < 300s")
