"""Named invariant checks, runnable as a suite (CLI ``validate`` command).

Each check covers one documented invariant of a module at desk sizes and
returns a short detail string; failures raise ``AssertionError`` with the
measured numbers.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np
import scipy.linalg

from . import models
from .fourier_grid import build_grid, cardinal, synthesize_spectral
from .vn_basis import analyze, build_basis_pair, build_lattice, transform_operator
from .reduced_space import (CellSet, ProductBasis, ReducedBasis,
                            boundary_mask, cell_change,
                            complementary_basis, embed_coefficients,
                            expand_cells, prune_cells, reduced_gaussians,
                            restrict_basis)
from .hamiltonian import (ReducedHamiltonian, grid_potential, kinetic_matrix,
                          potfit2)
from .solvers import (TiseConfig, lattice_potential, reference_full_eig,
                      seed_cells, shift_invert_eig, solve_reduced_eig,
                      tise_adaptive)
from .dynamics import (ControlPulse, PropagationConfig, project_state,
                       step_cap, taylor_step, tdse_adaptive)


@dataclasses.dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def _healthy_pair(L=15.0, N=60, Nx=5, Np=12):
    return build_basis_pair(build_lattice(build_grid(L, N), Nx, Np))


# -- fourier_grid -----------------------------------------------------------

def check_cardinality(rng):
    worst = 0.0
    for N in (16, 64, 256):
        g = build_grid(10.0, N)
        for m in rng.choice(N, size=6, replace=False):
            vals = cardinal(g, int(m), g.sample_points)
            ref = np.zeros(N)
            ref[m] = 1.0
            worst = max(worst, np.abs(vals - ref).max())
    assert worst < 1e-12, f"cardinal property violated by {worst:.2e}"
    return f"max deviation {worst:.1e}"


def check_bandlimited_reproduction(rng):
    g = build_grid(7.0, 32)
    coeffs = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
    x = rng.uniform(0, g.L, size=50)
    exact = synthesize_spectral(g, coeffs, x)
    samples = synthesize_spectral(g, coeffs, g.sample_points)
    interp = np.array([np.sum(samples * np.array(
        [cardinal(g, m, xi) for m in range(g.N)])) for xi in x])
    rel = np.abs(interp - exact).max() / np.abs(exact).max()
    assert rel <= 1e-10, f"cardinal interpolation error {rel:.2e}"
    return f"relative error {rel:.1e}"


def check_norm_preservation(rng):
    g = build_grid(5.0, 48)
    worst = 0.0
    for _ in range(5):
        c1 = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
        c2 = rng.normal(size=g.N) + 1j * rng.normal(size=g.N)
        f1 = synthesize_spectral(g, c1, g.sample_points)
        f2 = synthesize_spectral(g, c2, g.sample_points)
        lhs = np.vdot(c1, c2)
        rhs = g.dx * np.vdot(f1, f2)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst <= 1e-12, f"Parseval mismatch {worst:.2e}"
    return f"max mismatch {worst:.1e}"


# -- vn_basis ---------------------------------------------------------------

def check_biorthogonality(rng):
    worst = 0.0
    for L, N, nx, npp in ((6.0, 16, 16, 1), (12.0, 64, 64, 1), (80.0, 160, 5, 32)):
        pair = build_basis_pair(build_lattice(build_grid(L, N), nx, npp))
        eye = np.eye(N)
        worst = max(worst,
                    np.abs(pair.G.conj().T @ pair.B - eye).max(),
                    np.abs(pair.B @ pair.G.conj().T - eye).max(),
                    np.abs(pair.S @ pair.Sinv - eye).max(),
                    np.abs(pair.B @ pair.S - pair.G).max())
    assert worst <= 1e-9, f"pair identity violated by {worst:.2e}"
    return f"max identity defect {worst:.1e}"


def check_spectrum_preservation(rng):
    pair = _healthy_pair(10.0, 20, 4, 5)
    n = pair.n
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (h + h.conj().T)
    ref = np.sort(scipy.linalg.eigvalsh(h))
    got = np.sort(scipy.linalg.eigvals(transform_operator(pair, h)).real)
    dev = np.abs(ref - got).max()
    assert dev <= 1e-8, f"similarity spectrum deviation {dev:.2e}"
    return f"max eigenvalue deviation {dev:.1e}"


def check_sparsity_direction(rng):
    pair = _healthy_pair()
    g = pair.grid
    psi = models.coherent_state(g, 0.4 * pair.lattice.dx_lat, 0.0,
                                pair.lattice.sigma_x)
    local = analyze(pair, psi)
    nonlocal_ = pair.B.conj().T @ psi * np.sqrt(g.dx)
    n_local = int(np.sum(np.abs(local) > 1e-6))
    n_nonlocal = int(np.sum(np.abs(nonlocal_) > 1e-6))
    assert n_local < n_nonlocal, (
        f"localized-bra coefficients not sparser: {n_local} >= {n_nonlocal}")
    return f"{n_local} vs {n_nonlocal} significant coefficients"


# -- reduced_space ----------------------------------------------------------

def check_incremental_inverse(rng):
    # 20 random drop-and-add changes on one axis, then 20 on helium's
    # folded product (models.helium_1d's lattice on both axes), whose
    # changes interleave cells of both axes
    pair = _healthy_pair()
    worst = 0.0
    for product in (ProductBasis(pair), ProductBasis((pair, pair)).folded()):
        universe = product.representatives(CellSet(np.array(list(
            itertools.product(range(pair.n), repeat=product.ndof))))).indices
        rows = rng.choice(len(universe), size=24, replace=False)
        rb = ReducedBasis.create(product, CellSet(universe[rows]))
        for _ in range(20):
            current = set(map(tuple, rb.cells.indices))
            others = [i for i, cell in enumerate(map(tuple, universe))
                      if cell not in current]
            add = rng.choice(others, size=min(3, len(others)), replace=False)
            keep = list(current)
            rng.shuffle(keep)
            drop = keep[:2] if len(keep) > 6 else []
            new = (current - set(drop)) | set(map(tuple, universe[add]))
            rb.update(cell_change(rb.cells, CellSet(np.array(sorted(new)))))
            s = product.overlap(rb.cells, rb.cells)
            # a fresh folded block hermitizes sums that cancel, so the
            # carried one matches it to round-off, and exactly unfolded
            gap = np.abs(rb.Sinv_tilde - s).max()
            assert gap <= (0.0 if not product.fold
                           else np.finfo(float).eps * np.abs(s).max()), \
                f"carried overlap differs from a fresh one by {gap:.2e}"
            fresh = np.linalg.inv(rb.Sinv_tilde)
            worst = max(worst, np.abs(rb.Stilde - fresh).max())
    assert worst <= 1e-8, f"maintained inverse drifted by {worst:.2e}"
    return (f"overlap carried to round-off (unfolded exactly), max drift "
            f"over 20 updates on one axis and 20 on folded helium {worst:.1e}")


def check_projector(rng):
    pair = _healthy_pair(12.0, 48, 3, 16)
    cells = CellSet(rng.choice(pair.n, size=20, replace=False)[:, None])
    rb = restrict_basis(pair, cells)
    p = rb.Btilde @ reduced_gaussians(rb).conj().T
    idem = np.abs(p @ p - p).max()
    rank = int(np.sum(scipy.linalg.svdvals(p) > 1e-8))
    assert idem <= 1e-8 and rank == len(cells), (
        f"projector defect {idem:.2e}, rank {rank} != {len(cells)}")
    return f"idempotence defect {idem:.1e}, rank {rank}"


def check_deformation_identity(rng):
    pair = _healthy_pair(10.0, 20, 4, 5)
    cells = CellSet(rng.choice(pair.n, size=8, replace=False)[:, None])
    rb = restrict_basis(pair, cells)
    gt = reduced_gaussians(rb)
    gbar, bbar = complementary_basis(pair, cells)
    out = np.setdiff1d(np.arange(pair.n), cells.indices[:, 0])
    worst = 0.0
    for col, (i,) in enumerate(cells):
        overlaps = pair.S[out, i]
        expect = pair.G[:, i] - bbar @ overlaps
        worst = max(worst, np.abs(gt[:, col] - expect).max())
    assert worst <= 1e-8, f"deformation identity violated by {worst:.2e}"
    return f"max defect {worst:.1e}"


def check_orthogonal_decomposition(rng):
    pair = _healthy_pair()
    cells = CellSet(rng.choice(pair.n, size=18, replace=False)[:, None])
    rb = restrict_basis(pair, cells)
    p = rb.Btilde @ reduced_gaussians(rb).conj().T
    worst = 0.0
    for _ in range(5):
        psi = rng.normal(size=pair.n) + 1j * rng.normal(size=pair.n)
        a = p @ psi
        b = psi - a
        worst = max(worst, abs(np.vdot(a, b)) / np.vdot(psi, psi).real)
    assert worst <= 1e-8, f"subspace decomposition not orthogonal: {worst:.2e}"
    return f"max cross term {worst:.1e}"


def _enumerated_neighbourhood(cells, lattices):
    """Expansion and boundary flags of ``cells``, by visiting every offset
    of length <= sqrt 2 of every cell in per-axis (a, b) coordinates."""
    offsets = [off for off in itertools.product((-1, 0, 1),
                                                repeat=2 * len(lattices))
               if sum(o * o for o in off) <= 2]
    members = set(cells)
    grown, boundary = set(), []
    for cell in cells:
        coords = [lat.cell_coords(i) for lat, i in zip(lattices, cell)]
        edge = False
        for off in offsets:
            moved = [(lat, a + da, b + db) for lat, (a, b), da, db
                     in zip(lattices, coords, off[0::2], off[1::2])]
            if any(not 0 <= b < lat.Np for lat, _, b in moved):
                edge = True        # beyond a momentum band
                continue
            nbr = tuple(lat.cell_index(a % lat.Nx, b) for lat, a, b in moved)
            grown.add(nbr)
            edge = edge or nbr not in members
        boundary.append(edge)
    return sorted(grown), boundary


def check_lattice_neighbours(rng):
    lattices = models.helium_1d().lattices
    cells = CellSet(np.column_stack([rng.integers(lat.n_cells, size=40)
                                     for lat in lattices]), ndof=2)
    sizes = []
    for cs in (cells, expand_cells(cells, lattices)):
        grown, boundary = _enumerated_neighbourhood(cs, lattices)
        assert list(expand_cells(cs, lattices)) == grown, (
            f"expansion of {len(cs)} cells differs from the enumeration")
        assert boundary_mask(cs, lattices).tolist() == boundary, (
            f"boundary of {len(cs)} cells differs from the enumeration")
        sizes.append(f"{len(cs)} -> {len(grown)}")
    return f"expansion and boundary match enumeration ({', '.join(sizes)} cells)"


def check_exchange_fold(rng):
    model = models.helium_1d()
    lattices, folded = model.lattices, model.product.folded()
    reps = folded.representatives(CellSet(np.column_stack(
        [rng.integers(lat.n_cells, size=40) for lat in lattices]), ndof=2))
    cells = folded.lattice_cells(reps)
    # bookkeeping on representatives against the swap closure
    grown = expand_cells(reps, lattices, fold=True)
    assert grown == folded.representatives(expand_cells(cells, lattices)), (
        "folded expansion differs from the expanded closure")
    at = cell_change(cells, reps).kept
    assert np.array_equal(boundary_mask(reps, lattices, fold=True),
                          boundary_mask(cells, lattices)[at]), (
        "folded boundary differs from the closure's")
    # carried rows of the overlap and the Hamiltonian against P^T M P
    kept = reps.subset(rng.random(len(reps)) < 0.5)
    rb = ReducedBasis.create(folded, kept)
    ham = ReducedHamiltonian(model.spec, folded, kept)
    change = cell_change(kept, reps)
    rb.update(change)
    ham.update(change)
    p = folded.restrict(reps, np.eye(len(cells))).T
    worst = 0.0
    for got, full in ((rb.Sinv_tilde, model.product.overlap(cells, cells)),
                      (ham.Hbb, ReducedHamiltonian(model.spec, model.product,
                                                   cells).Hbb)):
        ref = p.T @ full @ p
        worst = max(worst, np.abs(got - ref).max() / np.abs(ref).max())
    assert worst <= 1e-12, f"folded blocks deviate from P^T M P by {worst:.2e}"
    return (f"{len(reps)} orbits of {len(cells)} cells: bookkeeping matches "
            f"the closure, blocks within {worst:.1e} of P^T M P")


# -- hamiltonian ------------------------------------------------------------

def _dw_reduced(rng, n_cells=60):
    m = models.double_well()
    cells = CellSet(np.sort(rng.choice(m.pairs[0].n, size=n_cells,
                                       replace=False))[:, None])
    rb = ReducedBasis.create(m.product, cells)
    ham = ReducedHamiltonian(m.spec, m.product, cells)
    return m, rb, ham


def check_h1_similarity(rng):
    _, rb, ham = _dw_reduced(rng)
    h1 = rb.Stilde @ ham.Hbb
    ev = scipy.linalg.eigvals(h1)
    rel = np.abs(ev.imag).max() / np.abs(ev).max()
    assert rel <= 1e-8, f"reduced generator eigenvalues not real: {rel:.2e}"
    return f"max relative imaginary part {rel:.1e}"


def check_generalized_equivalence(rng):
    _, rb, ham = _dw_reduced(rng, n_cells=40)
    w_gen, v = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, 6)
    h1 = rb.Stilde @ ham.Hbb
    w_h1 = np.sort(scipy.linalg.eigvals(h1).real)[:6]
    dev = np.abs(w_gen - w_h1).max()
    resid = max(np.linalg.norm(h1 @ v[:, i] - w_gen[i] * v[:, i])
                for i in range(6))
    assert dev <= 1e-8 and resid <= 1e-6, (
        f"generalized/direct mismatch {dev:.2e}, residual {resid:.2e}")
    return f"eigenvalue deviation {dev:.1e}"


def check_cache_audit(rng):
    # the double well's two tables, and helium's kinetic table and its
    # sum-of-products factors, all in the one cache its two axes share
    he = models.helium_1d()
    he_cache = ReducedHamiltonian(he.spec, he.product,
                                  CellSet([[0, 0]], ndof=2)).caches[0]
    caches = {"double well": _dw_reduced(rng)[2].caches[0], "helium": he_cache}
    worst = {name: c.audit(rng, 50) for name, c in caches.items()}
    detail = ", ".join(f"{name} {dev:.1e}" for name, dev in worst.items())
    assert max(worst.values()) <= 1e-12, f"cache audit deviation: {detail}"
    return f"max audit deviation (every slot sampled): {detail}"


def check_sop_monotone(rng):
    g = build_grid(15.0, 60)
    xc = g.centered_points
    v = 1.0 / np.sqrt((xc[:, None] - xc[None, :]) ** 2 + 0.5)
    errs = []
    for tol in (1e-1, 1e-2, 1e-4, 1e-6):
        errs.append(potfit2(v, tol).max_abs_error)
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:])), (
        f"reconstruction error not monotone: {errs}")
    return "errors " + " >= ".join(f"{e:.1e}" for e in errs)


# -- solvers ----------------------------------------------------------------

def check_interlacing(rng):
    m = models.double_well()
    lat = m.lattices[0]
    seed = CellSet(np.array([[lat.cell_index(1, lat.p_zero_index)]]))
    cells = expand_cells(seed, lat)
    prev = None
    worst = 0.0
    for _ in range(6):
        rb = ReducedBasis.create(m.product, cells)
        ham = ReducedHamiltonian(m.spec, m.product, cells)
        k = min(4, rb.n)
        w, _ = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, k)
        if prev is not None:
            kk = min(len(prev), len(w))
            worst = max(worst, float((w[:kk] - prev[:kk]).max()))
        prev = w
        cells = expand_cells(cells, lat)
    assert worst <= 1e-10, f"Ritz values increased by {worst:.2e} under growth"
    return f"max increase {worst:.1e}"


def check_boundary_convergence(rng):
    m = models.double_well()
    res = tise_adaptive(m.spec, m.product, TiseConfig(zeta=1e-6, n_modes=8))
    amp = res.history[-1][1]
    assert amp < 1e-6, f"boundary amplitude {amp:.2e} at convergence"
    return f"converged, boundary amplitude {amp:.1e}, N~ {len(res.final_cells)}"


def check_full_set_equivalence(rng):
    m = models.double_well()
    pair = m.pairs[0]
    cells = CellSet(np.arange(pair.n)[:, None])
    rb = ReducedBasis.create(m.product, cells)
    ham = ReducedHamiltonian(m.spec, m.product, cells)
    w, _ = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, pair.n)
    ref = reference_full_eig(m.spec)
    dev = np.abs(w - ref).max()
    assert dev <= 1e-8, f"full-set reduction deviates from grid: {dev:.2e}"
    return f"max deviation {dev:.1e}"


def check_shift_invert_certificate(rng):
    # replay the double-well doublet search along its dense solutions and
    # solve every warm-started iteration by shift-invert as well
    m = models.double_well()
    cfg = TiseConfig(zeta=1e-6, n_modes=2)
    res = tise_adaptive(m.spec, m.product, cfg)
    cells = seed_cells(lattice_potential(m.spec, m.lattices), m.lattices)
    warm, rows = None, []
    for it in range(1, res.iterations + 1):
        s = ReducedBasis.create(m.product, cells).Sinv_tilde
        hbb = ReducedHamiltonian(m.spec, m.product, cells).Hbb
        w, v = scipy.linalg.eigh(hbb, s, subset_by_index=[0, cfg.n_modes - 1])
        if warm is not None:
            si = shift_invert_eig(hbb, s, cfg.n_modes, *warm)
            # the doublet is degenerate to round-off: compare the subspaces
            cosines = scipy.linalg.svdvals(v.conj().T @ s @ si.eigenvectors)
            rows.append((np.abs(si.eigenvalues - w).max(), 1.0 - cosines.min(),
                         si.below_sigma, si.below_mu, si.sweeps))
        if it == res.iterations:
            break
        new_cells = expand_cells(prune_cells(cells, np.abs(v), cfg.zeta),
                                 m.lattices)
        warm = (w[0], embed_coefficients(v, cell_change(cells, new_cells)))
        cells = new_cells
    assert cells == res.final_cells, "the replay left the search's path"
    dev = max(r[0] for r in rows)
    angle = max(r[1] for r in rows)
    counts = sorted({(r[2], r[3]) for r in rows})
    assert dev <= 1e-10 and angle <= 1e-10 and counts == [(0, 2)], (
        f"eigenvalue deviation {dev:.2e}, subspace defect {angle:.2e}, "
        f"inertia counts (below sigma, below mu) {counts}")
    return (f"{len(rows)} warm iterations, max deviation {dev:.1e}, "
            f"inertia {counts[0][0]} below sigma and {counts[0][1]} below mu, "
            f"at most {max(r[4] for r in rows)} sweeps")


# -- dynamics ---------------------------------------------------------------

def _fixed_reduced_system(rng):
    m = models.harmonic()
    cells = tise_adaptive(m.spec, m.product,
                          TiseConfig(zeta=1e-4, n_modes=1)).final_cells
    rb = ReducedBasis.create(m.product, cells)
    # the generator Stilde Hbb, staged on the basis as the propagator's is
    rb.stage([ReducedHamiltonian(m.spec, m.product, cells).Hbb])
    psi = rng.normal(size=len(cells)) + 1j * rng.normal(size=len(cells))
    psi /= rb.physical_norm(psi)
    return rb, rb.generators[0], psi


def check_fixed_basis_unitarity(rng):
    rb, h1, psi = _fixed_reduced_system(rng)
    cfg = PropagationConfig(tau0=0.02)
    for _ in range(200):
        psi = taylor_step(h1, psi, 0.02, cfg).psi
    drift = abs(rb.physical_norm(psi) - 1.0) / 200
    assert drift <= 1e-10, f"per-step norm drift {drift:.2e}"
    return f"per-step drift {drift:.1e}"


def check_taylor_tail(rng):
    _, h1, psi = _fixed_reduced_system(rng)
    cfg = PropagationConfig(tau0=0.02, max_taylor_terms=30)
    a = taylor_step(h1, psi, 0.02, cfg)
    cfg2 = PropagationConfig(tau0=0.02, max_taylor_terms=60)
    b = taylor_step(h1, psi, 0.02, cfg2)
    dev = np.linalg.norm(a.psi - b.psi)
    assert dev <= 10 * cfg.taylor_eps, f"doubling term budget moved result {dev:.2e}"
    return f"terms {a.terms}, budget-doubling delta {dev:.1e}"


def check_oracle_agreement(rng):
    _, h1, psi = _fixed_reduced_system(rng)
    cfg = PropagationConfig(tau0=0.02)
    step_op = scipy.linalg.expm(-1j * 0.02 * h1)
    psi_ref = psi.copy()
    worst = 0.0
    for _ in range(100):
        psi = taylor_step(h1, psi, 0.02, cfg).psi
        psi_ref = step_op @ psi_ref
        worst = max(worst, np.abs(psi - psi_ref).max())
    assert worst <= 1e-8, f"propagator deviates from dense exponential: {worst:.2e}"
    return f"max deviation over 100 steps {worst:.1e}"


def _carried_generator(name, spec, product, traj):
    """One run of :func:`check_carried_generator`: no refresh, and every
    carried generator within 1e-12 of a fresh ``Stilde @ H`` at the end."""
    kinds = [kind for _, kind, _ in traj.events]
    assert "basis" in kinds and "refresh" not in kinds, (
        f"{name}: event kinds {sorted(set(kinds))}")
    stilde = ReducedBasis.create(product, traj.final_cells).Stilde
    fresh = [stilde @ h for h in ReducedHamiltonian(
        spec, product, traj.final_cells).blocks]
    assert [g.shape for g in traj.generator] == [stilde.shape] * len(fresh), (
        f"{name}: not one n x n generator per block at the final cells")
    err = max(np.abs(g - f).max() / np.abs(f).max()
              for g, f in zip(traj.generator, fresh))
    assert err <= 1e-12, f"{name}: carried generator deviates by {err:.2e}"
    return (f"{name}: {kinds.count('basis')} changes, deviation {err:.1e}, "
            f"step norm move {traj.norm_step_max:.1e}")


def check_carried_generator(rng):
    # a field-free harmonic run, then the tests' driven helium adapting on
    # its folded product (three distinct blocks, two pulses sharing one)
    m = models.harmonic()
    x0 = 2.5 + 0.1 * rng.uniform(-1.0, 1.0)
    grid, pair = m.grids[0], m.pairs[0]
    psi = models.coherent_state(grid, x0, 0.0, np.sqrt(0.5))
    cells = expand_cells(CellSet(np.flatnonzero(
        np.abs(analyze(pair, psi)) >= 1e-6)[:, None]), m.lattices[0])
    c0 = project_state(m.product, cells, psi * np.sqrt(grid.dx))
    c0 /= ReducedBasis.create(m.product, cells).physical_norm(c0)
    harmonic = _carried_generator("harmonic", m.spec, m.product, tdse_adaptive(
        m.spec, m.product, c0, cells, (0.0, 30.0),
        cfg=PropagationConfig(zeta=1e-6, snapshot_every=0)))
    he = models.helium_1d()
    x, folded = models.position_coupling(he.grids), he.product.folded()
    spec = dataclasses.replace(he.spec, control_terms=(
        x, x, models.momentum_coupling(he.grids)))
    pulses = (ControlPulse.table([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
              ControlPulse.xuv(0.5, 0.5, 0.2),
              ControlPulse.table([0.0, 0.3, 0.6, 1.0], [0.0, 1.0, 0.0, 0.0]))
    ground = tise_adaptive(spec, folded, TiseConfig(zeta=1e-2, n_modes=1))
    return harmonic + "; " + _carried_generator(
        "folded helium", spec, folded, tdse_adaptive(
            spec, folded, ground.eigenvectors[:, 0], ground.final_cells,
            (0.0, 1.0), pulses, PropagationConfig(zeta=1e-2, tau0=0.02),
            basis=ground.reduced_basis, hamiltonian=ground.hamiltonian))


# the fourth-order commutator-free Magnus step (Alvermann & Fehske, J. Comput.
# Phys. 230, 5930 (2011)): Gauss nodes and the weights of its two exponentials
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 + 2.0 * math.sqrt(3.0)) / 12.0,
                (3.0 - 2.0 * math.sqrt(3.0)) / 12.0)


def _grid_propagation(spec, pulses, psi, t_span, tau):
    """Driven two-axis propagation on the product grid, apart from the
    reduced basis: commutator-free Magnus steps of about ``tau``.

    ``H(t) psi`` is applied through its Kronecker structure: each axis's
    kinetic matrix on its side of the ``N1 x N2`` table, plus the drift's
    potential diagonal and ``u_g(t)`` times each coupling's diagonal (the
    couplings must be position-type).  Each exponential is a Taylor series
    summed until a term's norm drops below 1e-15.  Steps end at every pulse
    time where a signal's slope may jump (support ends and table knots), so
    the fourth order holds on each smooth stretch.
    """
    if any(k is not None for c in spec.control_terms for k in c.kinetic):
        raise ValueError("the grid propagation takes position couplings only")
    t1, t2 = (kinetic_matrix(g, tk).astype(complex)
              for g, tk in zip(spec.grids, spec.kinetic))
    drift = grid_potential(spec)
    couplings = [grid_potential(c) for c in spec.control_terms]
    psi = np.asarray(psi, dtype=complex).reshape(drift.shape)

    def exp_step(psi, diag, dt):
        acc, term = psi.copy(), psi
        for k in range(1, 80):
            term = (-1j * dt / k) * (t1 @ term + term @ t2.T + diag * term)
            acc += term
            if np.linalg.norm(term) < 1e-15:
                return acc
        raise AssertionError(f"grid Taylor series unconverged at dt {dt}")

    kinks = {t for p in pulses for t in (*p.support, *p.times)}
    edges = sorted({*t_span, *(t for t in kinks if t_span[0] < t < t_span[1])})
    for a, b in zip(edges, edges[1:]):
        n = math.ceil((b - a) / tau)
        h = (b - a) / n
        for i in range(n):
            u = [[p.value(a + (i + c) * h) for p in pulses] for c in _CF4_NODES]
            # exp(-i h (w2 H(t1) + w1 H(t2))) after exp(-i h (w1 H(t1) + w2 H(t2))):
            # each exponent is (h / 2) (H0 + 2 sum_g v_g X_g)
            for w1, w2 in (_CF4_WEIGHTS, _CF4_WEIGHTS[::-1]):
                diag = drift + sum(2.0 * (w1 * ua + w2 * ub) * x
                                   for ua, ub, x in zip(*u, couplings))
                psi = exp_step(psi, diag, 0.5 * h)
    return psi.ravel()


def check_driven_oracle(rng):
    # the driven helium of the benchmark (nir and xuv on one position
    # coupling, zeta 1e-4, tau0 0.02), run past the xuv peak at t ~ 2.8
    model = models.helium_1d()
    x = models.position_coupling(model.grids)
    spec = dataclasses.replace(model.spec, control_terms=(x, x))
    pulses = (ControlPulse.nir(0.066, 11.0),
              ControlPulse.xuv(0.02, 2.07, 1.5, t_on=0.25))
    zeta, t_span = 1e-4, (0.0, 4.0)
    folded = model.product.folded()
    ground = tise_adaptive(spec, folded, TiseConfig(zeta=zeta, n_modes=1))
    psi0 = folded.reconstruct(ground.final_cells, ground.eigenvectors[:, 0])
    coarse, ref = (_grid_propagation(spec, pulses, psi0, t_span, tau)
                   for tau in (0.04, 0.02))
    richardson = np.linalg.norm(coarse - ref)

    def propagate(tau0, patience):
        cfg = PropagationConfig(zeta=zeta, tau0=tau0, growth_patience=patience,
                                snapshot_every=0)
        traj = tdse_adaptive(spec, folded, ground.eigenvectors[:, 0],
                             ground.final_cells, t_span, pulses=pulses, cfg=cfg)
        return traj.n_steps, folded.reconstruct(traj.final_cells,
                                                traj.final_coefficients)

    # the paper's cap alone: start there and never grow, so no step exceeds it
    cap = step_cap(spec, pulses, PropagationConfig(zeta=zeta))
    n_paper, psi_paper = propagate(cap.first_order, 10 ** 9)
    n_new, psi_new = propagate(0.02, 3)
    err_paper = np.linalg.norm(psi_paper - ref)
    err_new = np.linalg.norm(psi_new - ref)
    moved = np.linalg.norm(psi_new - psi_paper)
    detail = (f"{n_paper} steps at the paper's cap {cap.first_order:.4f}, "
              f"{n_new} at the {cap.binding} cap {cap.tau:.4f}: errors "
              f"{err_paper:.2e} and {err_new:.2e}, runs {moved:.1e} apart, "
              f"oracle Richardson change {richardson:.1e}")
    assert 10.0 * richardson <= min(err_paper, err_new), (
        "oracle not converged: " + detail)
    assert err_new <= max(2.0 * err_paper, 0.1 * zeta), (
        "the midpoint cap loses accuracy: " + detail)
    assert moved <= 0.1 * zeta, "the midpoint cap moves the state: " + detail
    return detail


CHECKS = [
    ("fourier_grid/cardinality", check_cardinality),
    ("fourier_grid/bandlimited-reproduction", check_bandlimited_reproduction),
    ("fourier_grid/norm-preservation", check_norm_preservation),
    ("vn_basis/biorthogonality-completeness", check_biorthogonality),
    ("vn_basis/spectrum-preservation", check_spectrum_preservation),
    ("vn_basis/sparsity-direction", check_sparsity_direction),
    ("reduced_space/incremental-vs-fresh", check_incremental_inverse),
    ("reduced_space/projector-idempotence-rank", check_projector),
    ("reduced_space/deformation-identity", check_deformation_identity),
    ("reduced_space/orthogonal-decomposition", check_orthogonal_decomposition),
    ("reduced_space/lattice-neighbours", check_lattice_neighbours),
    ("reduced_space/exchange-fold", check_exchange_fold),
    ("hamiltonian/similarity-real-spectrum", check_h1_similarity),
    ("hamiltonian/generalized-equivalence", check_generalized_equivalence),
    ("hamiltonian/cache-audit", check_cache_audit),
    ("hamiltonian/sop-monotone", check_sop_monotone),
    ("solvers/variational-interlacing", check_interlacing),
    ("solvers/boundary-convergence", check_boundary_convergence),
    ("solvers/full-set-equivalence", check_full_set_equivalence),
    ("solvers/shift-invert-certificate", check_shift_invert_certificate),
    ("dynamics/fixed-basis-unitarity", check_fixed_basis_unitarity),
    ("dynamics/taylor-tail", check_taylor_tail),
    ("dynamics/oracle-agreement", check_oracle_agreement),
    ("dynamics/carried-generator", check_carried_generator),
    ("dynamics/driven-oracle", check_driven_oracle),
]


def run_validation(seed: int = 1234):
    """Run the invariant suite; returns a list of :class:`CheckResult`."""
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            detail = fn(rng)
            ok = True
        except AssertionError as exc:
            detail, ok = str(exc), False
        except Exception as exc:  # a crashed check is a failed check
            detail, ok = f"{type(exc).__name__}: {exc}", False
        results.append(CheckResult(name=name, ok=ok, detail=detail,
                                   seconds=time.perf_counter() - start))
    return results
