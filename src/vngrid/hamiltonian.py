"""Hamiltonians on the grid and their reduced-basis matrix elements.

An operator is described as a sum of one-axis terms (kinetic diagonals in
the spectral basis, potential diagonals in the sampling basis) plus
sum-of-products interaction terms whose factors are one-axis diagonals.
Multi-axis matrix elements between product-lattice cells then factorize
into per-axis elements, so only one-dimensional element tables are ever
computed.

Symmetry cache
--------------
Dual-basis columns form an exact discrete Gabor family: column ``(a, b)``
is a roll/modulation of a single window.  For a potential diagonal ``V``
this gives

    <b_(a,beta)| V |b_(c,delta)> =
        exp(i*(k_beta*xbar_a - k_delta*xbar_c)) * C(a, c, k_delta - k_beta),

    C(a, c, dk) = sum_m conj(b0_a(x_m)) V(x_m) exp(i*dk*x_m) b0_c(x_m),

where ``b0_a`` are the zero-momentum columns.  The expensive sum ``C``
depends on the momentum difference only, so one (Nx x Nx) table per
momentum offset serves every momentum pair with that offset, and its
Hermitian partner serves the opposite offset.  Kinetic-type diagonals
``T(k)`` are filled without symmetry, as the hermitized spectral sandwich
``U^H diag(T) U`` with ``U`` the unitary DFT of every column: a fill over
their position-offset classes saved at most 0.3 ms per table at the
lattices measured, and was slower on most.  The tables are filled in
complex128.  An audit recomputes sampled entries by direct quadrature in
extended precision and allows 1e-12; the harmonic, double-well and helium
tables deviate from the extended-precision sandwich ``B^H V B`` by at most
2e-13, about 1e-15 of their largest entry.

Assembly
--------
An operator is a rank expansion ``sum_r prod_k F_r^(k)`` of dense
``(n x n)`` per-axis element tables over every cell of an axis: the
one-axis terms of axis ``d`` summed into one table and lifted by the other
axes' dual overlaps ``Sinv``, plus one factor product per sum-of-products
term.  The per-axis factor stacks of a :class:`ReducedHamiltonian` are the
only copy of its element tables: each distinct registered diagonal is
filled once per construction, written into every stack entry that reads
it, and dropped.  A reduced block is one contraction over the rank: per
row, a GEMM of the axis-0 factors against the other axes' factors over the
distinct column indices of each axis, from which the block's columns are
gathered.

An operator whose own terms are exchange symmetric
(:attr:`OperatorSpec.exchange_symmetric`, its couplings left out), on two
axes that read one element cache, holds one stack for both axes.  Each
of its sum-of-products terms puts ``sqrt(lambda_r)`` on both factors
(``i sqrt(-lambda_r)`` for a negative coefficient), so its column is the
same on both axes, and its one-axis terms, when it has them, are its
first two columns, which the second axis reads swapped: the contraction
swaps them in each per-chunk slab, never in the stack.  Helium's drift
and its ``x_1 + x_2`` and ``p_1 + p_2`` couplings hold one ``(60, 60,
62)`` stack of 3.6 MB at the desk-scale lattice, 61.5 MB at the
paper-scale one (``(156, 156, 158)``).  Every other operator, a coupling
on one axis among them, keeps a stack per axis and its coefficients on
the first axis's factors.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .fourier_grid import HBAR, FourierGrid
from .reduced_space import CellChange, CellSet, ProductBasis, carry_hermitian
from .vn_basis import BasisPair, hermitize as _hermitize

DENSE_LIMIT = 4096  # dense full-grid constructions refuse beyond this
_CHUNK_ENTRIES = 1 << 16  # per-chunk pair-table entries in block contraction


# ---------------------------------------------------------------------------
# operator description
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SopTerm:
    """One product term of a sum-of-products interaction.

    ``coefficient`` carries sign and magnitude; each factor is a real
    unit-norm diagonal sampled on its axis grid.
    """

    coefficient: float
    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            if abs(np.linalg.norm(f) - 1.0) > 1e-8:
                raise ValueError("sum-of-products factors must be unit vectors")


@dataclasses.dataclass(frozen=True)
class OperatorSpec:
    """Hamiltonian as kinetic + separable + sum-of-products (+ driven) terms.

    ``kinetic[d]`` is the spectral diagonal in FFT order (or None),
    ``potentials[d]`` the sampling diagonal (or None).  ``control_terms``
    are coupling operators of the same shape, scaled at propagation time by
    scalar signals; they carry no controls of their own.
    """

    grids: tuple
    kinetic: tuple
    potentials: tuple
    sop_terms: tuple = ()
    control_terms: tuple = ()

    def __post_init__(self):
        d = len(self.grids)
        if len(self.kinetic) != d or len(self.potentials) != d:
            raise ValueError("per-axis term count does not match grid count")
        for dof, g in enumerate(self.grids):
            for arr in (self.kinetic[dof], self.potentials[dof]):
                if arr is not None and np.shape(arr) != (g.N,):
                    raise ValueError(f"axis {dof} diagonal has wrong length")
        for t in self.sop_terms:
            if len(t.factors) != d:
                raise ValueError("sum-of-products term must cover every axis")
            for dof, f in enumerate(t.factors):
                if np.shape(f) != (self.grids[dof].N,):
                    raise ValueError("factor length does not match its grid")
        for c in self.control_terms:
            if c.grids != self.grids:
                raise ValueError("control term lives on different grids")
            if c.control_terms:
                raise ValueError("control terms cannot be nested")

    @property
    def ndof(self):
        return len(self.grids)

    @property
    def exchange_symmetric(self) -> bool:
        """Whether swapping two axes leaves this operator and every control
        coupling unchanged: one grid object for both, equal kinetic and
        equal potential diagonals, and equal factors in every
        sum-of-products term (array comparisons only)."""
        if self.ndof != 2 or self.grids[0] is not self.grids[1]:
            return False

        def same(a, b):
            return (a is None) == (b is None) and (a is None
                                                   or np.array_equal(a, b))

        # the factors compared as two stacks: one comparison for every term
        factors = [np.stack(f) for f in zip(*(t.factors for t in self.sop_terms))]
        return (same(*self.kinetic) and same(*self.potentials)
                and (not factors or same(*factors))
                and all(c.exchange_symmetric for c in self.control_terms))

    @classmethod
    def build(cls, grids, masses=None, potentials=None, sop_terms=()):
        """Assemble a spec with the kinetic energy ``k^2/(2m)`` on each axis
        and no control couplings (:func:`dataclasses.replace` adds them).

        ``potentials`` entries are sampling diagonals, each an array or
        None.  Sum-of-products factors are normalized, their norms moved
        into the coefficients.
        """
        grids = tuple(grids)
        d = len(grids)
        if masses is None:
            masses = (1.0,) * d
        kin = [(HBAR * g.fft_wavenumbers()) ** 2 / (2.0 * m)
               for g, m in zip(grids, masses)]
        pot = [None if potentials is None or potentials[dof] is None
               else np.asarray(potentials[dof], dtype=float) for dof in range(d)]
        norm_terms = []
        for t in sop_terms:
            coeff = t.coefficient
            facs = []
            for f in t.factors:
                f = np.asarray(f, dtype=float)
                nrm = np.linalg.norm(f)
                coeff *= nrm
                facs.append(f / nrm if nrm else f)
            norm_terms.append(SopTerm(coeff, tuple(facs)))
        return cls(grids=grids, kinetic=tuple(kin), potentials=tuple(pot),
                   sop_terms=tuple(norm_terms))


# ---------------------------------------------------------------------------
# sum-of-products fitting (two axes, symmetric eigendecomposition)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SopFit:
    """Result of a two-axis sum-of-products fit."""

    terms: tuple
    max_abs_error: float

    @property
    def rank(self):
        return len(self.terms)


def potfit2(v_grid, tolerance: float) -> SopFit:
    """Decompose an exactly symmetric two-axis potential table into a sum
    of products with equal factors on both axes.

    The table's eigendecomposition is its optimal expansion (the singular
    values are the eigenvalues' magnitudes); it is truncated at the smallest
    rank whose residual spectral norm is at or below ``tolerance`` (entrywise
    error is bounded by the spectral norm).  Each term's coefficient is its
    eigenvalue, sign included, so an exchange-symmetric interaction shares
    one factor per term.  Raises :class:`ValueError` for a table that is not
    exactly symmetric.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    if v_grid.ndim != 2:
        raise ValueError("sum-of-products fitting is implemented for 2 axes only")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not np.all(np.isfinite(v_grid)):
        raise ValueError("potential table contains non-finite entries")
    if not np.array_equal(v_grid, v_grid.T):
        raise ValueError("sum-of-products fitting needs an exactly symmetric "
                         "table")

    lam, w = np.linalg.eigh(v_grid)
    order = np.argsort(-np.abs(lam))
    lam, w = lam[order], w[:, order]
    rank = int(np.sum(np.abs(lam) > tolerance))
    terms = []
    for r in range(rank):
        f = _fix_sign(w[:, r].copy())
        terms.append(SopTerm(float(lam[r]), (f, f)))
    rec = (w[:, :rank] * lam[:rank]) @ w[:, :rank].T
    max_err = float(np.abs(v_grid - rec).max()) if rank else float(np.abs(v_grid).max())
    return SopFit(terms=tuple(terms), max_abs_error=max_err)


def _fix_sign(vec):
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


# ---------------------------------------------------------------------------
# full-grid tables and dense references
# ---------------------------------------------------------------------------

def _axis_mul(arr, diag, axis, ndim):
    shape = [1] * ndim
    shape[axis] = -1
    return arr * np.asarray(diag).reshape(shape)


def kinetic_matrix(grid: FourierGrid, tk_fft) -> np.ndarray:
    """Dense sampling-basis matrix of a spectral diagonal ``T(k)``."""
    f = np.fft.fft(np.eye(grid.N), axis=0)
    m = np.fft.ifft(np.asarray(tk_fft)[:, None] * f, axis=0)
    m = _hermitize(m)
    if np.abs(m.imag).max() < 1e-13 * max(1.0, np.abs(m.real).max()):
        return np.ascontiguousarray(m.real)
    return m


def grid_potential(spec: OperatorSpec) -> np.ndarray:
    """The operator's diagonal on the full product grid, as a table over the
    grid points: every one-axis potential plus every sum-of-products term."""
    dims = [g.N for g in spec.grids]
    diag = np.zeros(dims)
    for dof in range(spec.ndof):
        v = spec.potentials[dof]
        if v is not None:
            diag = diag + _axis_mul(np.ones(dims), v, dof, len(dims))
    for t in spec.sop_terms:
        term = np.full(dims, t.coefficient)
        for dof, f in enumerate(t.factors):
            term = _axis_mul(term, f, dof, len(dims))
        diag = diag + term
    return diag


def dense_grid_hamiltonian(spec: OperatorSpec) -> np.ndarray:
    """Dense Hamiltonian on the full product grid (reference oracle), without
    the control couplings of ``spec``.

    Refuses above :data:`DENSE_LIMIT` total points.
    """
    dims = [g.N for g in spec.grids]
    total = int(np.prod(dims))
    if total > DENSE_LIMIT:
        raise ValueError(f"dense grid Hamiltonian of size {total} exceeds "
                         f"limit {DENSE_LIMIT}")
    h = np.zeros((total, total), dtype=complex)
    for dof, g in enumerate(spec.grids):
        tk = spec.kinetic[dof]
        if tk is None:
            continue
        mats = [np.eye(n) for n in dims]
        mats[dof] = kinetic_matrix(g, tk)
        lifted = mats[0]
        for m in mats[1:]:
            lifted = np.kron(lifted, m)
        h += lifted
    h[np.arange(total), np.arange(total)] += grid_potential(spec).ravel()
    h = _hermitize(h)
    if np.abs(h.imag).max() < 1e-13 * max(1.0, np.abs(h.real).max()):
        return np.ascontiguousarray(h.real)
    return h


# ---------------------------------------------------------------------------
# the per-pair element cache
# ---------------------------------------------------------------------------

class ElementCache:
    """Element tables of one-axis diagonals for one basis pair.

    Each registered diagonal (a slot) is expanded by :meth:`table` into the
    dense element table over every pair of lattice cells.  The cache keeps
    the slots and what the fills need, not the tables: its caller keeps
    the one copy it reads.  Every table is filled in
    complex128 and is exactly Hermitian.  A potential table is filled over
    its symmetry classes: one ``(Nx x Nx)`` core per momentum offset, all
    offsets from one GEMM over the zero-momentum columns, each setting its
    Hermitian partner too, gathered into the table through one all-cells
    index and phase mesh built with the cache.  A kinetic table is the
    hermitized sandwich ``U^H diag(t) U`` over the unitary spectral columns
    ``U`` of every cell, computed once when the cache is built.

    ``stats`` counts per slot filled at least once: ``misses`` the values
    computed (a potential's canonical class values, every entry of a
    kinetic table), ``hits`` the table entries served beyond them.
    """

    def __init__(self, pair: BasisPair):
        lat = pair.lattice
        grid = pair.grid
        self.pair = pair
        self.lattice = lat
        self.Nx, self.Np = lat.Nx, lat.Np
        cols0 = np.arange(lat.Nx) * lat.Np + lat.p_zero_index
        self._B0 = pair.B[:, cols0]
        self._spectral = np.fft.fft(pair.B, axis=0) / np.sqrt(grid.N)
        # dk x_m = 2 pi Nx db m / N for the offsets db = 1 - Np .. 0, one row
        # each: integer-reduced phases
        whole = np.mod(np.outer(lat.Nx * np.arange(1 - lat.Np, 1),
                                np.arange(grid.N)), grid.N)
        whole = np.where(whole > grid.N // 2, whole - grid.N, whole)
        self._offsets = np.exp(1j * (2.0 * np.pi * whole / grid.N))
        cells = np.arange(lat.n_cells)
        a1, b1 = np.divmod(cells[:, None], lat.Np)
        a2, b2 = np.divmod(cells[None, :], lat.Np)
        self._pot_index = (b2 - b1 + lat.Np - 1, a1, a2)
        # phase argument k_b1 xbar_a1 - k_b2 xbar_a2 = 2 pi (integer)/N;
        # reducing the integer mod N keeps the argument small and the phase
        # accurate to machine epsilon
        nmom = lat.momentum_indices
        whole = np.mod((nmom[b1] * a1 - nmom[b2] * a2) * lat.Np, grid.N)
        whole = np.where(whole > grid.N // 2, whole - grid.N, whole)
        self._phase = np.exp(1j * (2.0 * np.pi * whole / grid.N))
        self._slots = []            # (kind, payload)
        self._by_content = {}
        self._filled = set()        # slots filled at least once

    def register(self, kind: str, payload) -> int:
        """Register a diagonal (dedup by content) and return its slot id."""
        if kind not in ("potential", "kinetic"):
            raise ValueError(f"unknown element kind {kind!r}")
        payload = np.ascontiguousarray(payload, dtype=float)
        key = (kind, payload.tobytes())
        if key not in self._by_content:
            self._by_content[key] = len(self._slots)
            self._slots.append((kind, payload))
        return self._by_content[key]

    def table(self, slot: int) -> np.ndarray:
        """Dense element table of ``slot`` over every lattice cell, filled
        afresh by each call; the cache does not keep it."""
        kind, payload = self._slots[slot]
        fill = (self.potential_values if kind == "potential"
                else self.kinetic_values)
        self._filled.add(slot)
        return fill(payload)

    # -- fills -------------------------------------------------------------

    def potential_values(self, v) -> np.ndarray:
        """All-cells element table of the sampling diagonal ``v``.

        The ``Np`` cores of momentum offset ``db <= 0`` are one GEMM,
        ``(v e^(i dk x)) @ P`` with ``P[m, (a, c)] = conj(b0_a(x_m)) b0_c(x_m)``;
        their Hermitian partners ``-db`` are conjugate transposes.
        """
        nx, np_ = self.Nx, self.Np
        b0 = self._B0
        prods = (b0.conj()[:, :, None] * b0[:, None, :]).reshape(len(b0), -1)
        half = ((v * self._offsets) @ prods).reshape(np_, nx, nx)
        half[-1] = _hermitize(half[-1])
        # offsets 1 - Np .. 0, then the partners 1 .. Np - 1
        cores = np.concatenate([half, half[-2::-1].conj().transpose(0, 2, 1)])
        return self._phase * cores[self._pot_index]

    def kinetic_values(self, tk) -> np.ndarray:
        """All-cells element table of the spectral diagonal ``tk``: the
        sandwich ``U^H diag(tk) U`` of the unitary spectral columns, one GEMM."""
        u = self._spectral
        return _hermitize(u.conj().T @ (tk[:, None] * u))

    # -- verification ------------------------------------------------------

    def direct_element(self, slot: int, cell_i: int, cell_j: int) -> complex:
        """Element by direct quadrature, bypassing the cache.

        Evaluated in extended precision so the audit reference is more
        accurate than either computation path.
        """
        kind, payload = self._slots[slot]
        bi = self.pair.B[:, cell_i].astype(np.clongdouble)
        bj = self.pair.B[:, cell_j].astype(np.clongdouble)
        if kind == "potential":
            return complex(np.sum(bi.conj() * payload * bj))
        tmat = kinetic_matrix(self.pair.grid, payload).astype(np.clongdouble)
        return complex(np.sum(bi.conj() * (tmat @ bj)))

    def audit(self, rng, n_samples: int = 50) -> float:
        """Max |table - direct| over ``max(n_samples, slots)`` random elements
        of the registered slots, at least one in each slot; each slot's
        table is filled once."""
        n_slots = len(self._slots)
        if not n_slots:
            return 0.0
        n_cells = self.lattice.n_cells
        extra = rng.integers(n_slots, size=max(0, n_samples - n_slots))
        samples = [[] for _ in range(n_slots)]
        for slot in np.concatenate([np.arange(n_slots), extra]).tolist():
            samples[slot].append((int(rng.integers(n_cells)),
                                  int(rng.integers(n_cells))))
        worst = 0.0
        for slot, pairs in enumerate(samples):
            tab = self.table(slot)
            for i, j in pairs:
                worst = max(worst, abs(tab[i, j]
                                       - self.direct_element(slot, i, j)))
        return worst

    @property
    def stats(self):
        nx, np_ = self.Nx, self.Np
        n_entries = self.lattice.n_cells ** 2
        computed = {"potential": np_ * nx * nx - nx * (nx - 1) // 2,
                    "kinetic": n_entries}
        misses = sum(computed[self._slots[slot][0]] for slot in self._filled)
        return {"hits": len(self._filled) * n_entries - misses,
                "misses": misses}


# ---------------------------------------------------------------------------
# reduced Hamiltonian
# ---------------------------------------------------------------------------

class _Factors(NamedTuple):
    """One operator's rank expansion (:meth:`ReducedHamiltonian._factor_stacks`)."""

    stacks: list    # per axis: (n, n, rank), or one (n, n) table with one axis
    swap: bool      # the second axis reads the first's stack, columns 0, 1 swapped


class ReducedHamiltonian:
    """Hermitian ``Btilde^H H Btilde`` blocks, maintained incrementally.

    Holds the drift matrix and one matrix per control coupling.  The
    reduced generator is ``Stilde (Hbb + sum_g u_g H_g)``, applied staged:
    a reduced basis stages ``Stilde @ b`` for every distinct block ``b``
    (:meth:`~vngrid.reduced_space.ReducedBasis.stage`) and carries them
    through each basis change from the added cells' rows alone
    (:meth:`rows`), and :meth:`combined` of those generators gives the
    generator for one matrix-vector product per application.

    Every operator is held as a rank expansion ``sum_r prod_k F_r^(k)`` of
    per-axis element tables over the whole lattice: the one-axis terms of
    axis ``d`` summed into ``H_d`` and lifted by the other axes' ``Sinv``,
    plus one coefficient-scaled factor product per sum-of-products term.
    A block is then one contraction over the rank.  Axes backed by the same
    :class:`~vngrid.vn_basis.BasisPair` object share one element cache, and
    each distinct slot of a cache is filled once per construction, for
    every operator and axis that reads it; the factor stacks are the only
    copy of the tables.  An operator whose own terms are exchange
    symmetric, on two axes that share one cache, holds one stack for both
    (module docstring): each sum-of-products term carries
    ``sqrt(lambda_r)`` on each factor, and the contraction swaps the two
    one-axis columns in the second axis's small per-chunk slab.  Control
    terms that are the same object (several pulses through one coupling)
    share one block, assembled and updated once.

    A folded basis (:meth:`~vngrid.reduced_space.ProductBasis.folded`)
    holds only the exchange-symmetric sector, so it takes only an operator
    whose terms and couplings are all exchange symmetric; any other is a
    ``ValueError``.

    :attr:`blocks` are the reduced matrices themselves.  A propagation
    takes them out (:meth:`take_blocks`) and its staging consumes them;
    the stacks, cells and caches stay.
    """

    def __init__(self, spec: OperatorSpec, product: ProductBasis,
                 cells: CellSet):
        if spec.ndof != product.ndof:
            raise ValueError("operator and basis dimensionality differ")
        if product.fold and not spec.exchange_symmetric:
            raise ValueError("a folded basis holds only the exchange-symmetric "
                             "sector: the operator or a coupling breaks the swap")
        self.spec = spec
        self.product = product
        by_pair = {}
        for pair in product.pairs:
            if id(pair) not in by_pair:
                by_pair[id(pair)] = ElementCache(pair)
        self.caches = tuple(by_pair[id(pair)] for pair in product.pairs)
        distinct = {id(c): c for c in spec.control_terms}
        group = {key: g for g, key in enumerate(distinct)}
        self._group_of = tuple(group[id(c)] for c in spec.control_terms)
        drift = dataclasses.replace(spec, control_terms=())
        self._drift, *controls = self._factor_stacks(
            [self._terms(op) for op in (drift, *distinct.values())])
        self._controls = tuple(controls)
        self.cells = cells
        # the distinct blocks, drift first: a block that several control
        # terms share appears once
        self.blocks = tuple(self.rows(cells, cells))
        self._buffer = None

    # -- rank expansion ------------------------------------------------------

    def _terms(self, spec: OperatorSpec):
        """The rank terms of ``spec``, registered in the caches, and whether
        both axes read one stack.

        A term holds per axis the ``(coefficient, slot)`` tables summed into
        its factor, or None for the axis pair's ``Sinv``; the one-axis terms
        come first, in axis order.  With one axis every table is summed into
        a single term.  Both axes read one stack exactly when ``spec``, which
        carries no couplings here, is exchange symmetric and they share a
        cache; each sum-of-products coefficient is then split over both
        factors, imaginary for a negative one, and otherwise it stays on the
        first.
        """
        d = spec.ndof
        shared = spec.exchange_symmetric and self.caches[0] is self.caches[1]
        terms = []
        for dof in range(d):
            parts = [(1.0, self.caches[dof].register(kind, diag))
                     for kind, diag in (("kinetic", spec.kinetic[dof]),
                                        ("potential", spec.potentials[dof]))
                     if diag is not None and np.any(diag)]
            if parts:
                terms.append([parts if k == dof else None for k in range(d)])
        for t in spec.sop_terms:
            c = t.coefficient
            if shared:
                root = math.sqrt(c) if c >= 0 else 1j * math.sqrt(-c)
                coefficients = (root, root)
            else:
                coefficients = (c,) + (1.0,) * (d - 1)
            terms.append([[(coefficient, self.caches[k].register("potential", f))]
                          for k, (coefficient, f)
                          in enumerate(zip(coefficients, t.factors))])
        if d == 1 and terms:
            return [[[part for (parts,) in terms for part in parts]]], False
        return terms, shared

    def _factor_stacks(self, operators):
        """Per-axis :class:`_Factors` of each operator's :meth:`_terms`: a
        single ``(n, n)`` table with one axis, and None for an operator
        without terms.

        An operator whose axes read one stack (exchange symmetric on a
        shared cache) holds the first axis's stack for both, and the second
        axis reads its one-axis columns, the first two when it has them,
        swapped.  Each distinct slot of each cache is filled once, written
        (times its coefficient) into every stack entry that reads it, and
        dropped.
        """
        readers = {}        # (cache, slot) -> [(stack, term, coefficient)]
        out = []
        for terms, shared in operators:
            if not terms:
                out.append(None)
                continue
            stacks = []
            for k, pair in enumerate(self.product.pairs[:1 if shared else None]):
                stack = np.empty((pair.n, pair.n, len(terms)), dtype=complex)
                for r, term in enumerate(terms):
                    if term[k] is None:
                        stack[:, :, r] = pair.Sinv
                    for c, slot in term[k] or ():
                        readers.setdefault((self.caches[k], slot), []).append(
                            (stack, r, c))
                # with one axis the one term is the operator
                stacks.append(stack if len(terms[0]) > 1 else stack[:, :, 0])
            if shared:
                stacks.append(stacks[0])
            out.append(_Factors(stacks, shared and terms[0][1] is None))
        written = set()
        for (cache, slot), entries in readers.items():
            tab = cache.table(slot)
            for stack, r, c in entries:
                if (id(stack), r) in written:
                    stack[:, :, r] += c * tab
                else:
                    np.multiply(tab, c, out=stack[:, :, r])
                    written.add((id(stack), r))
        return out

    # -- block assembly -------------------------------------------------------

    def _block(self, rows: CellSet, cols: CellSet, factors) -> np.ndarray:
        """The block of the operator ``factors`` between two row sets, through
        :meth:`~vngrid.reduced_space.ProductBasis.entries` (so folded on a
        folded basis)."""
        if factors is None or not len(rows) or not len(cols):
            return np.zeros((len(rows), len(cols)), dtype=complex)
        return self.product.entries(
            lambda ri, ci: self._contract(ri, ci, factors), rows, cols)

    @staticmethod
    def _contract(ri, ci, factors) -> np.ndarray:
        """``out[i, j] = sum_r prod_k F_r^(k)[ri[i, k], ci[j, k]]`` for the
        :class:`_Factors` ``factors``.

        Rows are taken in chunks; per row, the axis-0 factor over the
        distinct axis-0 columns multiplies (one batched GEMM over the rank)
        the product of the other axes' factors over their distinct columns,
        and the block's columns are gathered from that small product table.
        With ``swap`` the second axis's slab has its first two columns
        swapped; the shared stack is never written.
        """
        stacks, swap = factors
        if len(stacks) == 1:
            return stacks[0].take(ri[:, 0], axis=0).take(ci[:, 0], axis=1)
        out = np.empty((len(ri), len(ci)), dtype=complex)
        distinct, inverse = zip(*(np.unique(ci[:, k], return_inverse=True)
                                  for k in range(len(stacks))))
        widths = [len(u) for u in distinct]
        n_rest = int(np.prod(widths[1:]))
        gather = inverse[0] * n_rest + np.ravel_multi_index(inverse[1:],
                                                            widths[1:])
        step = max(1, _CHUNK_ENTRIES // (widths[0] * n_rest))
        for lo in range(0, len(ri), step):
            chunk = ri[lo:lo + step]
            left, right, *more = (f[chunk[:, k, None], u] for k, (f, u)
                                  in enumerate(zip(stacks, distinct)))
            if swap:
                right[:, :, [0, 1]] = right[:, :, [1, 0]]
            for g in more:
                right = (right[:, :, None, :] * g[:, None, :, :]).reshape(
                    len(chunk), -1, g.shape[-1])
            pairs = left @ right.transpose(0, 2, 1)
            out[lo:lo + step] = pairs.reshape(len(chunk), -1)[:, gather]
        return out

    # -- incremental maintenance ----------------------------------------------

    def rows(self, added: CellSet, cells: CellSet):
        """The rows of ``added`` over ``cells`` of each of :attr:`blocks`."""
        return [self._block(added, cells, factors)
                for factors in (self._drift, *self._controls)]

    def update(self, change: CellChange):
        """Re-target to the new cells of ``change`` (the
        :func:`~vngrid.reduced_space.cell_change` from the current cells)
        and return the added cells.

        Every distinct block is carried as the reduced overlap is
        (:func:`~vngrid.reduced_space.carry_hermitian`): only the rows of
        added cells are assembled, and the result matches a from-scratch
        assembly to round-off (helium: 5e-15 after one change; folded, where
        a fresh block is hermitized as a whole, 1.8e-14 after 20).  Each old
        block is freed as its successor is built, so the carry holds one
        block more than it keeps, not twice as many.
        """
        rows = self.rows(change.added, change.new)
        blocks, self.blocks = list(self.blocks), ()
        for i, fresh in enumerate(rows):
            blocks[i] = carry_hermitian(blocks[i], change, fresh)
        self.blocks = tuple(blocks)
        self.cells = change.new
        return change.added

    def take_blocks(self) -> list:
        """Hand :attr:`blocks` over as a list and keep none of them.

        Staging consumes the list
        (:meth:`~vngrid.reduced_space.ReducedBasis.stage`), freeing each
        block as soon as its generator exists.  The factor stacks, cells and
        caches stay, so :meth:`rows` still assembles any part of a block;
        :attr:`Hbb`, :attr:`Hbb_controls` and :meth:`update` need
        blocks, and find none.
        """
        blocks, self.blocks = list(self.blocks), ()
        return blocks

    # -- application ------------------------------------------------------------

    @property
    def Hbb(self):
        """The drift block."""
        return self.blocks[0]

    @property
    def Hbb_controls(self):
        """One block per control term; terms sharing a block share the array."""
        return tuple(self.blocks[1 + g] for g in self._group_of)

    def combined(self, controls, blocks) -> np.ndarray:
        """Drift plus signal-scaled control matrices, ``b_0 + sum_g u_g b_g``,
        of ``blocks`` laid out as :attr:`blocks`.

        ``blocks`` are this object's :attr:`blocks`, which combine to ``Hbb
        + sum_g u_g H_g``, or a basis's staged generators ``Stilde @ b``,
        which combine to ``Stilde (Hbb + sum_g u_g H_g)``.  ``controls``
        holds one signal per control term; the signals of terms that share a
        block are summed first.  With every signal zero this returns the
        drift block itself.  Otherwise the result is written into one buffer
        owned by this object and reused by every call, whichever blocks it
        combines: it is valid until the next call, and must not be modified.
        """
        drift, *shared = blocks
        weights = [0.0] * len(shared)
        for u, g in zip(controls, self._group_of):
            weights[g] += u
        terms = [(w, hc) for w, hc in zip(weights, shared) if w]
        if not terms:
            return drift
        if self._buffer is None or self._buffer.shape != drift.shape:
            self._buffer = np.empty_like(drift)
        (w, hc), *rest = terms
        h = np.multiply(hc, w, out=self._buffer)
        h += drift
        for w, hc in rest:
            h += w * hc
        return h

    def cache_stats(self):
        """Element-cache counters summed over the distinct caches in use."""
        out = {"hits": 0, "misses": 0}
        for c in {id(c): c for c in self.caches}.values():
            for k, v in c.stats.items():
                out[k] += v
        return out

