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
momentum offset serves every momentum pair with that offset.  Kinetic-type
diagonals ``T(k)`` swap the roles of position and momentum: elements depend
on the position offset ``(a - c) mod Nx`` and the individual momenta,

    <b_(a,beta)| T |b_(c,delta)> =
        sum_n conj(u_beta[n]) T(k_n) u_delta[n] exp(i*k_n*dxlat*(a - c)),

with ``u_beta`` the spectral coefficients of the zero-shift columns.
Hermitian symmetry halves both tables.  Every cached value has a
single-integer canonical address (:func:`canonical_key`); an audit
recomputes sampled entries by direct quadrature.

Assembly
--------
Each registered diagonal is expanded once, from the cached planes, into a
dense ``(n x n)`` element table over every cell of its axis.  An operator
is then a rank expansion ``sum_r prod_k F_r^(k)`` of such tables: the
one-axis terms of axis ``d`` summed into one table and lifted by the other
axes' dual overlaps ``Sinv``, plus one factor product per sum-of-products
term.  A reduced block is one contraction over the rank: per row, a GEMM
of the axis-0 factors against the other axes' factors over the distinct
column indices of each axis, from which the block's columns are gathered.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fourier_grid import HBAR, FourierGrid
from .reduced_space import CellSet, ProductBasis
from .vn_basis import BasisPair

_SIZE_LIMIT = 4096  # dense full-grid constructions refuse beyond this
_CHUNK_ENTRIES = 1 << 16  # per-chunk pair-table entries in block contraction


def _hermitize(m):
    return 0.5 * (m + m.conj().T)


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

    @classmethod
    def build(cls, grids, masses=None, kinetic=None, potentials=None,
              sop_terms=(), control_terms=()):
        """Assemble a spec; kinetic defaults to ``k^2/(2m)`` per axis.

        ``kinetic``/``potentials`` entries may be arrays, callables (of the
        FFT-ordered wavenumbers resp. the sample points), or None.
        """
        grids = tuple(grids)
        d = len(grids)
        if masses is None:
            masses = (1.0,) * d
        kin = []
        for dof, g in enumerate(grids):
            spec_k = None if kinetic is None else kinetic[dof]
            if spec_k is None:
                k = g.fft_wavenumbers()
                kin.append((HBAR * k) ** 2 / (2.0 * masses[dof]))
            elif callable(spec_k):
                kin.append(np.asarray(spec_k(g.fft_wavenumbers()), dtype=float))
            else:
                kin.append(np.asarray(spec_k, dtype=float))
        pot = []
        for dof, g in enumerate(grids):
            spec_v = None if potentials is None else potentials[dof]
            if spec_v is None:
                pot.append(None)
            elif callable(spec_v):
                pot.append(np.asarray(spec_v(g.sample_points), dtype=float))
            else:
                pot.append(np.asarray(spec_v, dtype=float))
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
                   sop_terms=tuple(norm_terms), control_terms=tuple(control_terms))


# ---------------------------------------------------------------------------
# sum-of-products fitting (two axes, singular value decomposition)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SopFit:
    """Result of a two-axis sum-of-products fit."""

    terms: tuple
    max_abs_error: float
    spectral_residual: float

    @property
    def rank(self):
        return len(self.terms)


def potfit2(v_grid, tolerance: float) -> SopFit:
    """Decompose a two-axis potential table into a sum of products.

    The singular value decomposition is optimal for two axes; the expansion
    is truncated at the smallest rank whose residual spectral norm is at or
    below ``tolerance`` (entrywise error is bounded by the spectral norm).
    A symmetric table is decomposed with matching left/right factors, so
    exchange-symmetric interactions share one factor family per term.
    """
    v_grid = np.asarray(v_grid, dtype=float)
    if v_grid.ndim != 2:
        raise ValueError("sum-of-products fitting is implemented for 2 axes only")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not np.all(np.isfinite(v_grid)):
        raise ValueError("potential table contains non-finite entries")

    if np.array_equal(v_grid, v_grid.T):
        lam, w = np.linalg.eigh(v_grid)
        order = np.argsort(-np.abs(lam))
        lam, w = lam[order], w[:, order]
        sv = np.abs(lam)
        rank = int(np.sum(sv > tolerance))
        terms = []
        for r in range(rank):
            f = _fix_sign(w[:, r].copy())
            terms.append(SopTerm(float(lam[r]), (f, f)))
        rec = (w[:, :rank] * lam[:rank]) @ w[:, :rank].T
    else:
        u, s, vt = np.linalg.svd(v_grid, full_matrices=False)
        rank = int(np.sum(s > tolerance))
        terms = []
        for r in range(rank):
            ur, vr = u[:, r].copy(), vt[r].copy()
            if ur[int(np.argmax(np.abs(ur)))] < 0:
                ur, vr = -ur, -vr
            terms.append(SopTerm(float(s[r]), (ur, vr)))
        rec = (u[:, :rank] * s[:rank]) @ vt[:rank]
        sv = s
    residual = float(sv[rank]) if rank < len(sv) else 0.0
    max_err = float(np.abs(v_grid - rec).max()) if rank else float(np.abs(v_grid).max())
    return SopFit(terms=tuple(terms), max_abs_error=max_err, spectral_residual=residual)


def _fix_sign(vec):
    if vec[int(np.argmax(np.abs(vec)))] < 0:
        return -vec
    return vec


def sop_table(spec: OperatorSpec) -> np.ndarray:
    """Reconstructed interaction table ``sum_r c_r f_r^(1) x f_r^(2)``."""
    if spec.ndof != 2:
        raise ValueError("table reconstruction assumes two axes")
    out = np.zeros((spec.grids[0].N, spec.grids[1].N))
    for t in spec.sop_terms:
        out += t.coefficient * np.outer(t.factors[0], t.factors[1])
    return out


# ---------------------------------------------------------------------------
# full-grid application and dense references
# ---------------------------------------------------------------------------

def _axis_mul(arr, diag, axis, ndim):
    shape = [1] * ndim
    shape[axis] = -1
    return arr * np.asarray(diag).reshape(shape)


def apply_H_grid(spec: OperatorSpec, psi, controls=()) -> np.ndarray:
    """Apply the Hamiltonian to a sampling tensor.

    Kinetic diagonals act through per-axis FFTs, everything else pointwise.
    ``controls`` are the instantaneous signal values multiplying each
    control term.
    """
    psi = np.asarray(psi, dtype=complex)
    dims = tuple(g.N for g in spec.grids)
    if psi.shape != dims:
        raise ValueError(f"state shape {psi.shape} does not match grids {dims}")
    out = np.zeros_like(psi)
    for dof in range(spec.ndof):
        tk = spec.kinetic[dof]
        if tk is not None:
            out += np.fft.ifft(_axis_mul(np.fft.fft(psi, axis=dof), tk, dof, psi.ndim),
                               axis=dof)
        v = spec.potentials[dof]
        if v is not None:
            out += _axis_mul(psi, v, dof, psi.ndim)
    for t in spec.sop_terms:
        term = psi * t.coefficient
        for dof, f in enumerate(t.factors):
            term = _axis_mul(term, f, dof, psi.ndim)
        out += term
    for u, cspec in zip(controls, spec.control_terms):
        if u:
            out += u * apply_H_grid(cspec, psi)
    return out


def kinetic_matrix(grid: FourierGrid, tk_fft) -> np.ndarray:
    """Dense sampling-basis matrix of a spectral diagonal ``T(k)``."""
    f = np.fft.fft(np.eye(grid.N), axis=0)
    m = np.fft.ifft(np.asarray(tk_fft)[:, None] * f, axis=0)
    m = _hermitize(m)
    if np.abs(m.imag).max() < 1e-13 * max(1.0, np.abs(m.real).max()):
        return np.ascontiguousarray(m.real)
    return m


def dense_grid_hamiltonian(spec: OperatorSpec, controls=(),
                           size_limit: int = _SIZE_LIMIT) -> np.ndarray:
    """Dense Hamiltonian on the full product grid (reference oracle).

    Refuses above ``size_limit`` total points.
    """
    dims = [g.N for g in spec.grids]
    total = int(np.prod(dims))
    if total > size_limit:
        raise ValueError(f"dense grid Hamiltonian of size {total} exceeds "
                         f"limit {size_limit}")
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
    h[np.arange(total), np.arange(total)] += diag.ravel()
    for u, cspec in zip(controls, spec.control_terms):
        if u:
            h = h + u * dense_grid_hamiltonian(cspec, size_limit=size_limit)
    h = _hermitize(h)
    if np.abs(h.imag).max() < 1e-13 * max(1.0, np.abs(h.real).max()):
        return np.ascontiguousarray(h.real)
    return h


# ---------------------------------------------------------------------------
# canonical keys and the per-pair element cache
# ---------------------------------------------------------------------------

def _geom_cap(nx, np_):
    return max(nx * nx * (2 * np_ - 1), np_ * np_ * nx)


def canonical_key(lattice, cell_i: int, cell_j: int, slot: int,
                  kind: str = "potential"):
    """Single-integer canonical address of a one-axis matrix element.

    Returns ``(key, conjugate)``: elements related by Hermitian symmetry or
    by the momentum-offset (potential) / position-offset (kinetic)
    degeneracy share a key; ``conjugate`` records the orientation fold.
    """
    nx, np_ = lattice.Nx, lattice.Np
    a1, b1 = divmod(int(cell_i), np_)
    a2, b2 = divmod(int(cell_j), np_)
    if kind == "potential":
        conj = (a1, b1) > (a2, b2)
        if conj:
            a1, b1, a2, b2 = a2, b2, a1, b1
        geom = (a1 * nx + a2) * (2 * np_ - 1) + (b2 - b1 + np_ - 1)
        kind_bit = 0
    elif kind == "kinetic":
        da = (a1 - a2) % nx
        alt = ((nx - da) % nx, b2, b1)
        conj = alt < (da, b1, b2)
        if conj:
            da, b1, b2 = alt
        geom = (da * np_ + b1) * np_ + b2
        kind_bit = 1
    else:
        raise ValueError(f"unknown element kind {kind!r}")
    return (slot * 2 + kind_bit) * _geom_cap(nx, np_) + geom, conj


class _Geometry:
    """Per-axis index meshes and phases of one batch of element lookups."""

    __slots__ = ("a1", "b1", "a2", "b2", "dk_idx", "da", "phase", "size",
                 "shape")

    def __init__(self, cache, rows, cols):
        np_ = cache.Np
        self.a1, self.b1 = np.divmod(np.asarray(rows, dtype=np.intp)[:, None], np_)
        self.a2, self.b2 = np.divmod(np.asarray(cols, dtype=np.intp)[None, :], np_)
        self.dk_idx = self.b2 - self.b1 + np_ - 1
        self.da = np.mod(self.a1 - self.a2, cache.Nx)
        # phase argument k_b1 xbar_a1 - k_b2 xbar_a2 = 2 pi (integer)/N plus
        # an x0 term; reducing the integer mod N keeps the argument small and
        # the phase accurate to machine epsilon
        grid = cache.pair.grid
        nmom = cache.lattice.momentum_indices
        whole = np.mod((nmom[self.b1] * self.a1 - nmom[self.b2] * self.a2)
                       * np_, grid.N)
        whole = np.where(whole > grid.N // 2, whole - grid.N, whole)
        theta = 2.0 * np.pi * whole / grid.N
        if grid.x0 != 0.0:
            theta = theta + ((nmom[self.b1] - nmom[self.b2])
                             * (2.0 * np.pi * grid.x0 / grid.L))
        self.phase = np.exp(1j * theta)
        self.size = self.dk_idx.size
        self.shape = self.dk_idx.shape


class ElementCache:
    """Symmetry cache of one-axis matrix elements for one basis pair.

    Cached values live in stacked arrays per registered slot: one
    ``(Nx x Nx)`` core per momentum offset (potential) and one ``Nx``-vector
    of position offsets per momentum pair (kinetic).  They are filled lazily,
    one momentum-offset plane or momentum pair at a time, by small dense
    products with the zero-momentum / zero-shift columns, and each fill also
    sets its Hermitian partner.  :meth:`table` expands a slot once into the
    dense element table over every lattice cell; reduced blocks are
    contracted from those tables.

    Accounting happens at fill time: ``misses`` counts the canonical values
    computed by plane and pair fills, ``hits`` the element requests served
    beyond those.
    """

    def __init__(self, pair: BasisPair):
        lat = pair.lattice
        grid = pair.grid
        self.pair = pair
        self.lattice = lat
        self.Nx, self.Np = lat.Nx, lat.Np
        self.hits = 0
        self.misses = 0
        cols0 = np.arange(lat.Nx) * lat.Np + lat.p_zero_index
        self._B0 = pair.B[:, cols0]
        self._dk_step = lat.dp_lat / HBAR
        self._spec_cols = np.fft.fft(pair.B[:, :lat.Np], axis=0) / np.sqrt(grid.N)
        # k_n dxlat da = 2 pi n Np da / N: integer-reduced for exact phases
        n_fft = np.rint(grid.fft_wavenumbers() * grid.L
                        / (2.0 * np.pi)).astype(np.intp)
        whole = np.mod(np.outer(n_fft * lat.Np, np.arange(lat.Nx)), grid.N)
        whole = np.where(whole > grid.N // 2, whole - grid.N, whole)
        self._trans = np.exp(2j * np.pi * whole / grid.N)
        self._slots = []            # (kind, payload)
        self._by_content = {}
        self._pot_stack = {}        # slot -> (2Np-1, Nx, Nx)
        self._pot_built = {}        # slot -> bool (2Np-1,)
        self._kin_stack = {}        # slot -> (Np, Np, Nx)
        self._kin_built = {}        # slot -> bool (Np, Np)
        self._tables = {}           # slot -> (n_cells, n_cells)

    # -- registration ------------------------------------------------------

    def register(self, kind: str, payload) -> int:
        """Register a diagonal (dedup by content) and return its slot id."""
        payload = np.ascontiguousarray(payload, dtype=float)
        key = (kind, payload.tobytes())
        if key in self._by_content:
            return self._by_content[key]
        slot = len(self._slots)
        self._slots.append((kind, payload))
        self._by_content[key] = slot
        if kind == "potential":
            self._pot_stack[slot] = np.zeros(
                (2 * self.Np - 1, self.Nx, self.Nx), dtype=complex)
            self._pot_built[slot] = np.zeros(2 * self.Np - 1, dtype=bool)
        elif kind == "kinetic":
            self._kin_stack[slot] = np.zeros((self.Np, self.Np, self.Nx),
                                             dtype=complex)
            self._kin_built[slot] = np.zeros((self.Np, self.Np), dtype=bool)
        else:
            raise ValueError(f"unknown element kind {kind!r}")
        return slot

    def geometry(self, rows, cols) -> _Geometry:
        return _Geometry(self, rows, cols)

    # -- lookups -----------------------------------------------------------

    def potential_values(self, slot: int, geom: _Geometry) -> np.ndarray:
        built = self._pot_built[slot]
        fresh = 0
        for dk_idx in np.unique(geom.dk_idx):
            if not built[dk_idx]:
                fresh += self._fill_potential_plane(slot, int(dk_idx))
        self._count(geom.size, fresh)
        core = self._pot_stack[slot][geom.dk_idx, geom.a1, geom.a2]
        return geom.phase * core

    def kinetic_values(self, slot: int, geom: _Geometry) -> np.ndarray:
        built = self._kin_built[slot]
        fresh = 0
        for flat in np.unique(geom.b1 * self.Np + geom.b2):
            p, q = divmod(int(flat), self.Np)
            if not built[p, q]:
                fresh += self._fill_kinetic_pair(slot, p, q)
        self._count(geom.size, fresh)
        return self._kin_stack[slot][geom.b1, geom.b2, geom.da]

    def _count(self, served: int, fresh: int):
        self.misses += fresh
        self.hits += max(served - fresh, 0)

    def table(self, slot: int) -> np.ndarray:
        """Dense element table of ``slot`` over every lattice cell.

        Filled once per slot from the cached planes, through the lookups.
        """
        tab = self._tables.get(slot)
        if tab is None:
            cells = np.arange(self.lattice.n_cells)
            geom = self.geometry(cells, cells)
            if self._slots[slot][0] == "potential":
                tab = self.potential_values(slot, geom)
            else:
                tab = self.kinetic_values(slot, geom)
            self._tables[slot] = tab
        return tab

    def _plane_values(self, dk_idx: int) -> int:
        """Canonical values held by a potential plane and its partner."""
        nx = self.Nx
        return nx * (nx + 1) // 2 if dk_idx == self.Np - 1 else nx * nx

    def _pair_values(self, p: int, q: int) -> int:
        """Canonical values held by a kinetic momentum pair and its mirror."""
        return self.Nx // 2 + 1 if p == q else self.Nx

    # -- fills -------------------------------------------------------------

    def _fill_potential_plane(self, slot: int, dk_idx: int):
        _, v = self._slots[slot]
        grid = self.pair.grid
        # dk x_m = 2 pi Nx db m / N (+ x0 term): integer-reduced phase
        db = dk_idx - (self.Np - 1)
        m = np.arange(grid.N)
        whole = np.mod(self.Nx * db * m, grid.N)
        whole = np.where(whole > grid.N // 2, whole - grid.N, whole)
        theta = 2.0 * np.pi * whole / grid.N
        if grid.x0 != 0.0:
            theta = theta + db * self._dk_step * grid.x0
        weight = v * np.exp(1j * theta)
        # plane fills run once per offset and are tiny; extended precision
        # keeps every cached value beyond the 1e-12 audit comfortably
        b0 = self._B0.astype(np.clongdouble)
        core = (b0.conj().T @ (weight.astype(np.clongdouble)[:, None] * b0)
                ).astype(complex)
        partner = 2 * (self.Np - 1) - dk_idx
        if partner == dk_idx:
            core = _hermitize(core)
        self._pot_stack[slot][dk_idx] = core
        self._pot_built[slot][dk_idx] = True
        if partner != dk_idx:
            self._pot_stack[slot][partner] = core.conj().T
            self._pot_built[slot][partner] = True
        return self._plane_values(dk_idx)

    def _fill_kinetic_pair(self, slot: int, p: int, q: int):
        _, tk = self._slots[slot]
        qn = (self._spec_cols[:, p].conj().astype(np.clongdouble)
              * tk * self._spec_cols[:, q])
        tv = (qn @ self._trans.astype(np.clongdouble)).astype(complex)
        mirror = np.roll(tv[::-1], 1).conj()
        if p == q:
            tv = 0.5 * (tv + mirror)  # enforce the exact Hermitian fold
            mirror = np.roll(tv[::-1], 1).conj()
        self._kin_stack[slot][p, q] = tv
        self._kin_built[slot][p, q] = True
        if p != q:
            self._kin_stack[slot][q, p] = mirror
            self._kin_built[slot][q, p] = True
        return self._pair_values(p, q)

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

    def cached_element(self, slot: int, cell_i: int, cell_j: int) -> complex:
        kind, _ = self._slots[slot]
        geom = self.geometry([cell_i], [cell_j])
        if kind == "potential":
            return complex(self.potential_values(slot, geom)[0, 0])
        return complex(self.kinetic_values(slot, geom)[0, 0])

    def audit(self, rng, n_samples: int = 50) -> float:
        """Max |cached - direct| over random elements of registered slots."""
        if not self._slots:
            return 0.0
        n_cells = self.lattice.n_cells
        worst = 0.0
        for _ in range(n_samples):
            slot = int(rng.integers(len(self._slots)))
            i = int(rng.integers(n_cells))
            j = int(rng.integers(n_cells))
            dev = abs(self.cached_element(slot, i, j)
                      - self.direct_element(slot, i, j))
            worst = max(worst, dev)
        return worst

    @property
    def stats(self):
        stored = 0
        for built in self._pot_built.values():
            stored += sum(self._plane_values(dk_idx)
                          for dk_idx in np.flatnonzero(built[self.Np - 1:])
                          + self.Np - 1)
        for built in self._kin_built.values():
            stored += sum(self._pair_values(p, q)
                          for p, q in zip(*np.nonzero(np.triu(built))))
        return {"hits": self.hits, "misses": self.misses, "stored": stored}


# ---------------------------------------------------------------------------
# reduced Hamiltonian
# ---------------------------------------------------------------------------

class ReducedHamiltonian:
    """Hermitian ``Btilde^H H Btilde`` blocks, maintained incrementally.

    Holds the drift matrix and one matrix per control coupling; applying
    the reduced generator to a coefficient vector is the factored product
    ``Stilde @ (Hbb @ psi)`` (two matrix-vector products, never a
    matrix-matrix product).

    Every operator is held as a rank expansion ``sum_r prod_k F_r^(k)`` of
    per-axis element tables over the whole lattice: the one-axis terms of
    axis ``d`` summed into ``H_d`` and lifted by the other axes' ``Sinv``,
    plus one coefficient-scaled factor product per sum-of-products term.
    A block is then one contraction over the rank.  Axes backed by the same
    :class:`~vngrid.vn_basis.BasisPair` object share one element cache, so
    exchange-symmetric terms reuse cached values and tables.
    """

    def __init__(self, spec: OperatorSpec, product: ProductBasis,
                 cells: CellSet, caches=None):
        if isinstance(product, BasisPair):
            product = ProductBasis(product)
        if spec.ndof != product.ndof:
            raise ValueError("operator and basis dimensionality differ")
        self.spec = spec
        self.product = product
        if caches is None:
            by_pair = {}
            caches = []
            for pair in product.pairs:
                if id(pair) not in by_pair:
                    by_pair[id(pair)] = ElementCache(pair)
                caches.append(by_pair[id(pair)])
        self.caches = tuple(caches)
        self._drift = self._factors(spec)
        self._controls = tuple(self._factors(c) for c in spec.control_terms)
        self.cells = cells
        self.Hbb = self._block(cells, cells, self._drift)
        self.Hbb_controls = tuple(self._block(cells, cells, f)
                                  for f in self._controls)

    # -- rank expansion ------------------------------------------------------

    def _table(self, dof: int, kind: str, payload) -> np.ndarray:
        cache = self.caches[dof]
        return cache.table(cache.register(kind, payload))

    def _factors(self, spec: OperatorSpec):
        """Per-axis ``(n_k, n_k, rank)`` factor stacks of ``spec``.

        With one axis the rank is summed out into a single ``(n, n)`` table;
        an operator without terms gives None.
        """
        d = spec.ndof
        factors = [[] for _ in range(d)]
        for dof in range(d):
            h_d = None
            for kind, diag in (("kinetic", spec.kinetic[dof]),
                               ("potential", spec.potentials[dof])):
                if diag is not None and np.any(diag):
                    tab = self._table(dof, kind, diag)
                    h_d = tab if h_d is None else h_d + tab
            if h_d is not None:
                for k in range(d):
                    factors[k].append(h_d if k == dof
                                      else self.product.pairs[k].Sinv)
        for t in spec.sop_terms:
            for k in range(d):
                tab = self._table(k, "potential", t.factors[k])
                factors[k].append(t.coefficient * tab if k == 0 else tab)
        if not factors[0]:
            return None
        if d == 1:
            return [sum(factors[0][1:], factors[0][0])]
        return [np.stack(f, axis=-1) for f in factors]

    # -- block assembly -------------------------------------------------------

    def _block(self, rows: CellSet, cols: CellSet, factors) -> np.ndarray:
        """``out[i, j] = sum_r prod_k F_r^(k)[rows_k[i], cols_k[j]]``.

        Rows are taken in chunks; per row, the axis-0 factor over the
        distinct axis-0 columns multiplies (one batched GEMM over the rank)
        the product of the other axes' factors over their distinct columns,
        and the block's columns are gathered from that small product table.
        """
        if factors is None or not len(rows) or not len(cols):
            return np.zeros((len(rows), len(cols)), dtype=complex)
        ri, ci = rows.indices, cols.indices
        if len(factors) == 1:
            return factors[0][np.ix_(ri[:, 0], ci[:, 0])]
        out = np.empty((len(rows), len(cols)), dtype=complex)
        distinct, inverse = zip(*(np.unique(ci[:, k], return_inverse=True)
                                  for k in range(len(factors))))
        widths = [len(u) for u in distinct]
        n_rest = int(np.prod(widths[1:]))
        gather = inverse[0] * n_rest + np.ravel_multi_index(inverse[1:],
                                                            widths[1:])
        step = max(1, _CHUNK_ENTRIES // (widths[0] * n_rest))
        for lo in range(0, len(rows), step):
            chunk = ri[lo:lo + step]
            left, right, *more = (f[chunk[:, k, None], u]
                                  for k, (f, u) in enumerate(zip(factors,
                                                                 distinct)))
            for g in more:
                right = (right[:, :, None, :] * g[:, None, :, :]).reshape(
                    len(chunk), -1, g.shape[-1])
            pairs = left @ right.transpose(0, 2, 1)
            out[lo:lo + step] = pairs.reshape(len(chunk), -1)[:, gather]
        return out

    def element(self, cell_i, cell_j) -> complex:
        """Single drift element through the cache path."""
        rows = CellSet([cell_i], ndof=self.product.ndof)
        cols = CellSet([cell_j], ndof=self.product.ndof)
        return complex(self._block(rows, cols, self._drift)[0, 0])

    # -- incremental maintenance ----------------------------------------------

    def update(self, new_cells: CellSet):
        """Re-target to ``new_cells``: drop removed rows, compute added ones.

        Only rows/columns touching added cells are recomputed; retained
        entries are copied, so the result is identical to a from-scratch
        assembly (the cache guarantees value equality).
        """
        old = self.cells
        keep_new = new_cells.member_mask(old)
        kept_rows_new = np.where(keep_new)[0]
        old_rows = np.array([old.position(c) for c in new_cells if c in old],
                            dtype=np.intp)
        added_rows_new = np.where(~keep_new)[0]
        added = CellSet(new_cells.indices[added_rows_new], ndof=new_cells.ndof)
        mats = []
        for old_mat, factors in zip((self.Hbb, *self.Hbb_controls),
                                    (self._drift, *self._controls)):
            n = len(new_cells)
            new_mat = np.zeros((n, n), dtype=complex)
            new_mat[np.ix_(kept_rows_new, kept_rows_new)] = \
                old_mat[np.ix_(old_rows, old_rows)]
            if len(added):
                blk = self._block(added, new_cells, factors)
                new_mat[added_rows_new, :] = blk
                new_mat[:, added_rows_new] = blk.conj().T
            mats.append(new_mat)
        self.cells = new_cells
        self.Hbb = mats[0]
        self.Hbb_controls = tuple(mats[1:])
        return added

    # -- application ------------------------------------------------------------

    def combined(self, controls=()) -> np.ndarray:
        """Drift plus signal-scaled control matrices."""
        h = self.Hbb
        for u, hc in zip(controls, self.Hbb_controls):
            if u:
                h = h + u * hc
        return h

    def cache_stats(self):
        return cache_totals(self)


def cache_totals(*hamiltonians) -> dict:
    """Element-cache counters summed over the distinct caches in use."""
    seen = {}
    for ham in hamiltonians:
        for c in ham.caches:
            seen[id(c)] = c.stats
    out = {"hits": 0, "misses": 0, "stored": 0}
    for s in seen.values():
        for k in out:
            out[k] += s[k]
    return out


def apply_reduced(stilde: np.ndarray, hbb: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Factored reduced-generator application ``Stilde @ (Hbb @ psi)``."""
    return stilde @ (hbb @ psi)


def assemble_reduced_hamiltonian(spec: OperatorSpec, product, cells: CellSet,
                                 caches=None) -> ReducedHamiltonian:
    """From-scratch reduced Hamiltonian over the given cells."""
    return ReducedHamiltonian(spec, product, cells, caches=caches)


def reduced_via_gaussians(spec: OperatorSpec, product, rb) -> np.ndarray:
    """Reduced generator through Gaussian-side overlaps (dense cross-check).

    ``Stilde (R^H S^-1 (G^H H G) S^-1 R)``: algebraically identical to
    ``Stilde (Btilde^H H Btilde)`` but built from the localized family,
    where the full-space sandwich is cheap.  Test-scale sizes only.
    """
    if isinstance(product, BasisPair):
        product = ProductBasis(product)
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
