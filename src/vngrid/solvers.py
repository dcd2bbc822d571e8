"""Adaptive eigenmode solver and dense reference diagonalization.

The stationary solver grows the active cell set iteratively:

    10  seed the basis at the potential minima with zero momentum
    20  solve the reduced generalized eigenproblem
    30  stop if every tracked mode is below the cutoff on the basis boundary
    40  prune cells below the cutoff (max over tracked modes)
    50  expand by one ring of lattice neighbours, every cell within
        Euclidean distance sqrt 2 in lattice steps, and extend the reduced
        matrices incrementally
    60  repeat

No classical trajectories or action estimates enter; the occupied region is
discovered from the eigenvectors themselves.  The eigenproblem is solved in
the Hermitian generalized form

    (Btilde^H H Btilde) v = E (Btilde^H Btilde) v,

which avoids inverting the reduced overlap and yields vectors normalized to
unit physical norm.

Each iteration reads only the lowest ``n_modes`` pairs.  Small bases, and
the first iteration, use a dense generalized ``eigh``.  From
``_SHIFT_INVERT_MIN`` (128) cells on, where shift-invert is measured to be
the faster of the two, an iteration is warm-started from the
previous one and solved by shift-invert (Ericsson & Ruhe, Math. Comp.
1980): one ``LDL^H`` factorization of ``H - sigma S`` with ``sigma`` below
the previous lowest eigenvalue, then block inverse iteration from the
previous vectors with Rayleigh-Ritz on ``(H, S)``.  Sylvester's law of
inertia certifies the result (Parlett, *The Symmetric Eigenvalue
Problem*): the factorization at ``sigma`` must count no eigenvalue below
it, and a second one between the last wanted and the first unwanted Ritz
value must count exactly ``n_modes``.  A solve that fails either count, or
does not converge, falls back to the dense ``eigh``.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import scipy.linalg

from .errors import ConvergenceError
from .hamiltonian import (OperatorSpec, ReducedHamiltonian,
                          dense_grid_hamiltonian, grid_potential)
from .reduced_space import (CellSet, ReducedBasis, boundary_mask,
                            cell_change, embed_coefficients, expand_cells,
                            prune_cells)

# Warm solves use shift-invert from this basis size on.  Measured per warm
# solve (best of 5, one BLAS thread), shift-invert took 1.3-82x eigh's time
# at n <= 65 (up to 8 factorizations and 96 sweeps from a poor start), and
# from n = 75 on it won: 0.9-0.5x on the double well (n = 75-115), 0.6-0.8x
# on helium's n = 173 (folded) and 337 iterations (4 factorizations and 5
# sweeps), 0.2-0.4x from n = 399 on (2 factorizations, 2-3 sweeps).  The
# threshold keeps a margin above that crossover.
_SHIFT_INVERT_MIN = 128
_EXTRA_VECTORS = 2        # block size is n_modes plus these
_SHIFT_MARGIN = 1e-3      # sigma sits this far (times max(1, |E|)) below E
_SHIFT_TRIES = 8          # each retry puts sigma 4x as far below E
_RESIDUAL_TOL = 1e-12     # relative residual of every wanted Ritz pair
_MAX_SWEEPS = 100
_START_SEED = 0           # fills the block's extra columns, reproducibly
_SWAP_TOL = 1e-12         # relative swap asymmetry of a symmetric seed potential


@dataclasses.dataclass(frozen=True)
class TiseConfig:
    """Knobs of the adaptive eigenmode search."""

    zeta: float = 1e-6
    n_modes: int = 1
    max_iterations: int = 200

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclasses.dataclass
class EigenResult:
    """Converged eigenmodes in reduced coordinates.

    ``eigenvectors[:, m]`` is mode ``m`` over ``final_cells`` in canonical
    order, normalized to unit physical norm.  ``history`` records
    (lattice cells, max boundary amplitude) per iteration.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    final_cells: CellSet
    iterations: int
    history: list
    reduced_basis: ReducedBasis
    hamiltonian: ReducedHamiltonian


def lattice_potential(spec: OperatorSpec, lattices) -> np.ndarray:
    """Potential sampled on the product of lattice position sublattices: the
    :func:`~vngrid.hamiltonian.grid_potential` table at the lattice sites."""
    # lattice site a sits at grid sample a*Np (= every (N/Nx)-th point)
    return grid_potential(spec)[np.ix_(*(np.arange(lat.Nx) * lat.Np
                                         for lat in lattices))]


def seed_cells(v_lattice: np.ndarray, lattices) -> CellSet:
    """Cells at strict local minima of the lattice-sampled potential, p = 0.

    Neighborhoods wrap periodically in every position axis.  A potential
    with no strict local minimum (monotonic, constant, or tied plateaus)
    falls back to the first global-minimum site; on a square two-axis
    lattice whose potential is swap-symmetric to a relative 1e-12, that
    site's mirror joins it, so an exchange-symmetric model gets an
    exchange-symmetric seed.
    """
    v = np.asarray(v_lattice, dtype=float)
    if v.shape != tuple(lat.Nx for lat in lattices):
        raise ValueError("lattice potential shape mismatch")
    if not np.all(np.isfinite(v)):
        raise ValueError("lattice potential contains non-finite entries")
    d = len(lattices)
    minima_mask = np.ones_like(v, dtype=bool)
    for off in itertools.product((-1, 0, 1), repeat=d):
        if all(o == 0 for o in off):
            continue
        shifted = v
        for ax, o in enumerate(off):
            shifted = np.roll(shifted, o, axis=ax)
        minima_mask &= v < shifted
    sites = np.argwhere(minima_mask)
    if sites.size == 0:
        sites = np.argwhere(v == v.min())[:1]
        if (d == 2 and v.shape[0] == v.shape[1]
                and np.abs(v - v.T).max() <= _SWAP_TOL * np.abs(v).max()):
            sites = np.unique(np.vstack([sites, sites[:, ::-1]]), axis=0)
    cells = [[int(a) * lat.Np + lat.p_zero_index
              for a, lat in zip(site, lattices)] for site in sites]
    return CellSet(np.array(cells, dtype=np.intp), ndof=d)


def solve_reduced_eig(hbb: np.ndarray, sinv_tilde: np.ndarray, n_modes: int,
                      warm=None):
    """Lowest generalized eigenpairs of ``hbb v = E sinv_tilde v``.

    Vectors are overlap-normalized: ``v^H sinv_tilde v = 1`` (unit physical
    norm).  Requires at least ``n_modes`` basis vectors.  ``warm`` is
    ``(E0, start)``: an estimate of the lowest eigenvalue and start vectors
    (columns), typically the previous iteration's carried over by
    :func:`~vngrid.reduced_space.embed_coefficients`.  With it, a basis of
    ``_SHIFT_INVERT_MIN`` cells or more is solved by
    :func:`shift_invert_eig`, and by the dense ``eigh`` if that fails.
    """
    n = hbb.shape[0]
    if n < n_modes:
        raise ValueError(f"basis of size {n} cannot yield {n_modes} modes")
    if warm is not None and n >= _SHIFT_INVERT_MIN:
        try:
            res = shift_invert_eig(hbb, sinv_tilde, n_modes, *warm)
            return res.eigenvalues, res.eigenvectors
        except ShiftInvertError:
            pass
    return scipy.linalg.eigh(hbb, sinv_tilde, subset_by_index=[0, n_modes - 1])


class ShiftInvertError(ArithmeticError):
    """A shift-invert solve failed an inertia count or did not converge."""


@dataclasses.dataclass
class ShiftInvertResult:
    """Certified lowest eigenpairs and the evidence for them.

    ``below_sigma`` and ``below_mu`` are the inertia counts (eigenvalues
    below the shift) at the accepted ``sigma`` and at the midpoint between
    the last wanted and the first unwanted Ritz value; a certified result
    has 0 and ``n_modes``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sigma: float
    below_sigma: int
    below_mu: int
    factorizations: int
    sweeps: int


def shift_invert_eig(hbb, sinv_tilde, n_modes: int, e0: float,
                     start=None) -> ShiftInvertResult:
    """Lowest ``n_modes`` eigenpairs by certified shift-invert.

    ``sigma`` starts at ``e0`` less a margin and is lowered until the
    ``LDL^H`` factorization of ``hbb - sigma sinv_tilde`` shows no negative
    eigenvalue.  A block of ``n_modes + 2`` vectors, ``start``'s columns
    first and fixed-seed random ones after, is then iterated with the
    factorization, each sweep followed by Rayleigh-Ritz on ``(hbb,
    sinv_tilde)``, until every wanted pair's relative residual is below
    tolerance.  A second factorization at ``mu`` must count exactly
    ``n_modes`` eigenvalues below it.  Raises :class:`ShiftInvertError` if
    a count fails or the iteration does not converge.
    """
    h = np.asarray(hbb)
    s = np.asarray(sinv_tilde)
    n, k = h.shape[0], n_modes
    b = min(k + _EXTRA_VECTORS, n)
    if b <= k:
        raise ShiftInvertError(f"basis of size {n} leaves no room to certify "
                               f"{k} modes")
    buf = np.empty((n, n), dtype=complex)
    margin = _SHIFT_MARGIN * max(1.0, abs(e0))
    for attempt in range(_SHIFT_TRIES):
        sigma = e0 - margin * 4.0 ** attempt
        ldu, ipiv, below_sigma = _factor_shifted(h, s, sigma, buf)
        if below_sigma == 0:
            break
    else:
        raise ShiftInvertError(f"no shift below the spectrum found from {e0:.6g}")

    x = np.empty((n, b), dtype=complex)
    m = 0 if start is None else min(np.shape(start)[1], b)
    if m:
        x[:, :m] = np.asarray(start)[:, :m]
    rng = np.random.default_rng(_START_SEED)
    x[:, m:] = rng.standard_normal((n, b - m)) + 1j * rng.standard_normal((n, b - m))
    sx = s @ x
    for sweep in range(1, _MAX_SWEEPS + 1):
        y = _solve_shifted(ldu, ipiv, sx)
        hy, sy = h @ y, s @ y
        try:
            w, c = scipy.linalg.eigh(y.conj().T @ hy, y.conj().T @ sy)
        except np.linalg.LinAlgError as exc:
            raise ShiftInvertError("Rayleigh-Ritz overlap lost definiteness") from exc
        x, hx, sx = y @ c, hy @ c, sy @ c
        r = np.linalg.norm(hx[:, :k] - sx[:, :k] * w[:k], axis=0)
        scale = (np.linalg.norm(hx[:, :k], axis=0)
                 + np.abs(w[:k]) * np.linalg.norm(sx[:, :k], axis=0))
        if np.all(r <= _RESIDUAL_TOL * scale):
            break
    else:
        raise ShiftInvertError(f"block inverse iteration did not converge in "
                               f"{_MAX_SWEEPS} sweeps")

    mu = 0.5 * (w[k - 1] + w[k])
    _, _, below_mu = _factor_shifted(h, s, mu, buf)
    if below_mu != k:
        raise ShiftInvertError(f"{below_mu} eigenvalues below {mu:.6g}, "
                               f"{k} wanted")
    return ShiftInvertResult(eigenvalues=w[:k], eigenvectors=x[:, :k],
                             sigma=sigma, below_sigma=below_sigma,
                             below_mu=below_mu, factorizations=attempt + 2,
                             sweeps=sweep)


def _factor_shifted(h, s, shift, buf):
    """Bunch-Kaufman ``LDL^H`` of ``h - shift s`` and its count of negative
    eigenvalues (``None`` if ``D`` is singular).

    The matrix is formed in the C-ordered ``buf`` and factored in place as
    LAPACK's column-major view of it, which for Hermitian ``h`` and ``s`` is
    the complex conjugate: same inertia, conjugated solves
    (:func:`_solve_shifted`).
    """
    np.multiply(s, -shift, out=buf)
    buf += h
    lwork, _ = scipy.linalg.lapack.zhetrf_lwork(h.shape[0], lower=1)
    ldu, ipiv, info = scipy.linalg.lapack.zhetrf(
        buf.T, lower=1, lwork=int(lwork.real), overwrite_a=1)
    if info > 0:
        return ldu, ipiv, None
    return ldu, ipiv, _negative_count(ldu, ipiv)


def _solve_shifted(ldu, ipiv, rhs):
    """``(h - shift s)^-1 rhs`` from the conjugate factor of
    :func:`_factor_shifted`."""
    y, _ = scipy.linalg.lapack.zhetrs(ldu, ipiv, rhs.conj(), lower=1)
    return y.conj()


def _negative_count(ldu, ipiv) -> int:
    """Negative eigenvalues of the block-diagonal ``D`` of a lower ``zhetrf``.

    By Sylvester's law of inertia this is the number of eigenvalues of the
    factored matrix below zero.  A 2x2 block occupies two rows with equal
    negative ``ipiv`` entries.
    """
    d = np.diagonal(ldu).real
    pair = ipiv < 0
    first = np.flatnonzero(pair)[::2]
    a, c, off = d[first], d[first + 1], ldu[first + 1, first]
    det = a * c - np.abs(off) ** 2
    return (int(np.count_nonzero(d[~pair] < 0)) + int(np.count_nonzero(det < 0))
            + 2 * int(np.count_nonzero((det > 0) & (a + c < 0))))


def tise_adaptive(spec: OperatorSpec, product, config: TiseConfig,
                  seeds: CellSet | None = None) -> EigenResult:
    """Run the adaptive eigenmode algorithm to convergence.

    ``seeds`` defaults to the potential-minimum cells.  On a folded product
    basis (:meth:`~vngrid.reduced_space.ProductBasis.folded`) the search
    runs on orbit representatives, seeded from the representatives of the
    seeds, and finds the lowest modes of the exchange-symmetric sector; its
    cells and vectors are folded, and ``history`` counts lattice cells.
    Raises :class:`~vngrid.errors.ConvergenceError` (with the iteration
    history attached) if the boundary amplitudes do not drop below the
    cutoff within the configured iteration budget.
    """
    lattices, fold = product.lattices, product.fold
    if seeds is None:
        seeds = seed_cells(lattice_potential(spec, lattices), lattices)
    seeds = product.representatives(seeds)
    rb = ReducedBasis.create(product, seeds)
    ham = ReducedHamiltonian(spec, product, seeds)
    history = []
    warm = None
    for it in range(1, config.max_iterations + 1):
        n_solve = min(config.n_modes, rb.n)
        w, v = solve_reduced_eig(ham.Hbb, rb.Sinv_tilde, n_solve, warm)
        bmask = boundary_mask(rb.cells, lattices, fold=fold)
        amp = rb.amplitudes(v)
        b_amp = float(amp[bmask].max()) if bmask.any() else 0.0
        history.append((rb.n_lattice, b_amp))
        if rb.n >= config.n_modes and b_amp < config.zeta:
            return EigenResult(eigenvalues=w, eigenvectors=v, final_cells=rb.cells,
                               iterations=it, history=history,
                               reduced_basis=rb, hamiltonian=ham)
        kept = prune_cells(rb.cells, amp, config.zeta)
        change = cell_change(rb.cells, expand_cells(kept, lattices, fold=fold))
        warm = (w[0], embed_coefficients(v, change))
        rb.update(change)
        ham.update(change)
    raise ConvergenceError(
        f"eigenmode search did not converge in {config.max_iterations} "
        f"iterations (last boundary amplitude {history[-1][1]:.3e})",
        history=history)


def reference_full_eig(spec: OperatorSpec,
                       n_values: int | None = None) -> np.ndarray:
    """Sorted eigenvalues of the dense full-grid Hamiltonian (oracle)."""
    h = dense_grid_hamiltonian(spec)
    w = scipy.linalg.eigh(h, eigvals_only=True)
    return w if n_values is None else w[:n_values]
