"""Reduced phase-space subspaces: active cell sets and their overlap inverses.

A state localized in phase space has significant overlap with only a few
lattice Gaussians, so its dual-basis coefficient vector is sparse.  The
reduced subspace keeps the dual vectors of an active cell set; the rest of
the Hilbert space is spanned by the complementary Gaussians and is exactly
orthogonal to it, so discarding sub-threshold coefficients is a controlled
projection.

For several degrees of freedom the lattice is the tensor product of the
per-axis lattices.  A cell is then a tuple of per-axis flat indices, and the
reduced overlap ``Btilde^H Btilde`` factorizes into per-axis entries, which
is how all reduced matrices are built here (no full-dimension basis matrix
is ever materialized outside small dense cross-checks).

Cell-set geometry (expansion by one ring of neighbours, the boundary, the
rows a change keeps and adds) runs on flat product-lattice keys.  Each axis
shape has one neighbour table, built on first use and shared read-only, of
``Nx * Np * m`` entries for the stencil's ``m`` offsets: its memory
grows with the sum over axes, never with the product lattice.  A
set's neighbour keys are one row gather per axis; membership is read from a
boolean occupancy array over the product lattice, with one extra sentinel
slot per axis that stands for every position beyond a momentum band.  The
rows a change keeps, drops and adds are worked out once, into the
:class:`CellChange` record of :func:`cell_change`, which everything carried
across the change reads.

The inverse ``Stilde = (Btilde^H Btilde)^-1`` is formed on first read and
from then on updated incrementally when cells are added or removed: one
block update per change, :func:`grow_inverse`, reads the
:class:`CellChange` and the added rows of the new overlap, and factorizes
only the dropped block of the inverse and the Schur complement of the added
cells.  The same update carries the generators ``Stilde @ H`` that a
propagator stages on the basis (:meth:`ReducedBasis.stage`) from the added
rows of ``H`` alone: the inverse and each generator take one gather into
the new order and GEMMs of the change's rank.

Conditioning
------------
The reduced overlap of any cell set is a principal submatrix of the
lattice's ``S^-1 = kron_axis S_axis^-1``, and a folded one is the isometric
compression ``P^T S^-1 P``.  Either way Cauchy interlacing keeps its
eigenvalues within those of ``S^-1``, so its 2-norm condition number is at
most ``prod_axis cond(S_axis)``.  :class:`ProductBasis` checks that product
once, when it is made, and no reduced overlap is factored to check it
again; only a from-scratch inverse (:func:`_fresh_inverse`) makes exact
checks of its own.

Exchange fold
-------------
Two axes that share one basis pair describe identical particles when the
operator commutes with their swap ``(c1, c2) -> (c2, c1)``; a symmetric
state then stays in the symmetric sector.  A folded :class:`ProductBasis`
(:meth:`ProductBasis.folded`) carries that sector on one row per swap
orbit, its representative ``r = (c1, c2)`` with ``c1 <= c2``: the basis
vector is ``(e_(c1 c2) + e_(c2 c1)) / sqrt 2`` off the diagonal and
``e_(cc)`` on it.  With the weight ``w = sqrt 2`` off the diagonal and 1 on
it, a folded reduced matrix has the entries

    M_f[i, j] = (w_i w_j / 2) (M[r_i, r_j] + M[r_i, swap r_j]),

which is ``P^T M P`` for a swap-symmetric ``M`` and the orthonormal
embedding ``P`` of the sector, and a folded coefficient ``c_f`` stands for
the amplitude ``c_f / w`` at both cells of its orbit.  Cutoffs compare that
unfolded amplitude, so they mean what they mean on the unfolded lattice.
Cell bookkeeping with ``fold`` set maps every neighbour to its
representative before it reads occupancy, so it runs on representative
sets as it runs on closed sets.  Everything downstream of a folded basis's
entries (inverse updates, staged generators, eigensolves) runs unchanged at
about half the size.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import (zdotc as _zdotc, zgemm as _zgemm,
                               zgemv as _zgemv)
from scipy.linalg.lapack import (zlange as _zlange, zposv as _zposv,
                                 zpotrf as _zpotrf, zpotri as _zpotri)

from .errors import DegenerateUpdateError, IllConditionedBasisError
from .vn_basis import (COND_LIMIT, BasisPair, VonNeumannLattice,
                       hermitize as _hermitize)

# ---------------------------------------------------------------------------
# cell sets and lattice geometry
# ---------------------------------------------------------------------------

class CellSet:
    """Ordered set of lattice cells.

    Cells are rows of per-axis flat lattice indices (one entry per degree of
    freedom), all non-negative.  The canonical order is ascending
    lexicographic, which fixes the layout of every reduced vector and
    matrix.  Cells are compared by flat keys: each row raveled in C order
    over one past the largest index on each axis, which keeps the
    lexicographic order.  Which rows of one set are rows of another is read
    off a :func:`cell_change` between them.
    """

    __slots__ = ("indices",)

    def __init__(self, indices, ndof=None):
        arr = np.asarray(indices, dtype=np.intp)
        if arr.size == 0:
            arr = arr.reshape(0, ndof if ndof else 1)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("cell indices must form a (n, ndof) array")
        if ndof is not None and arr.shape[1] != ndof:
            raise ValueError(f"expected {ndof} indices per cell, got {arr.shape[1]}")
        if np.any(arr < 0):
            raise ValueError("cell indices must be non-negative")
        _, first = np.unique(_keys(arr, _dims(arr)), return_index=True)
        arr = np.ascontiguousarray(arr[first])
        arr.flags.writeable = False
        self.indices = arr

    def __len__(self):
        return self.indices.shape[0]

    def __iter__(self):
        return (tuple(row) for row in self.indices)

    def __eq__(self, other):
        return isinstance(other, CellSet) and np.array_equal(self.indices, other.indices)

    def __repr__(self):
        return f"CellSet({len(self)} cells, ndof={self.ndof})"

    @property
    def ndof(self):
        return self.indices.shape[1]

    def subset(self, mask) -> "CellSet":
        """Cells at the true entries of a boolean row mask (kept canonical,
        so not re-sorted)."""
        return CellSet._canonical(self.indices[mask])

    @classmethod
    def _canonical(cls, rows) -> "CellSet":
        """Wrap an ``(n, ndof)`` index array that is already unique and in
        canonical order, without sorting it again (the array is frozen)."""
        out = cls.__new__(cls)
        out.indices = rows
        rows.setflags(write=False)
        return out


def _dims(rows):
    """One past the largest index on each axis (at least 1)."""
    return rows.max(axis=0, initial=0) + 1


def _keys(rows, dims):
    """Flat C-order keys of non-negative index rows within ``dims`` (not
    read for one axis, whose keys are the indices)."""
    if rows.shape[1] == 1:
        return rows[:, 0]
    return np.ravel_multi_index(tuple(rows.T), dims)


@functools.lru_cache(maxsize=None)
def _stencil_tables(shapes):
    """One neighbour table per axis of ``shapes`` (built once per ``shapes``,
    read-only).

    The stencil is every offset of Euclidean length <= sqrt 2 in the
    ``2 * len(shapes)`` lattice axes (the paper's one ring of neighbours),
    in lexicographic order, so the zero offset is the middle column.  Row
    ``i = a * Np + b`` of an axis's table holds, per offset, the neighbour
    under that axis's part ``(da, db)``: the cell
    ``((a + da) mod Nx) * Np + b + db``, or -1 where ``b + db`` leaves the
    momentum band.  A cell set's neighbours on an axis are then one row
    gather.
    """
    offs = np.array([off for off in itertools.product((-1, 0, 1),
                                                      repeat=2 * len(shapes))
                     if sum(o * o for o in off) <= 2], dtype=np.intp)
    tables = []
    for (nx, np_), da, db in zip(shapes, offs[:, 0::2].T, offs[:, 1::2].T):
        a, b = np.divmod(np.arange(nx * np_), np_)
        nb = b[:, None] + db
        table = np.where((nb >= 0) & (nb < np_),
                         np.mod(a[:, None] + da, nx) * np_ + nb, -1)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _neighbour_keys(cells: CellSet, lattices, fold=False):
    """Occupancy keys ``(n, m)`` of every cell's neighbours (in the stencil
    order of :func:`_stencil_tables`), and the occupancy shape they index.
    With ``fold`` (two axes, the cells exchange-orbit representatives) each
    key is that of the neighbour's representative: the smaller of its two
    indices first.  A neighbour beyond a momentum band (-1) is then the
    first index, so its key still lands on a sentinel slot.

    The occupancy array has ``Nx * Np + 1`` slots per axis: the cells and,
    last, a sentinel slot that is never occupied.  Each axis contributes
    one row gather from its stencil table (:func:`_stencil_tables`), and the
    keys combine them in C order over that shape (so, read over the cells,
    they are in canonical order).  A -1 entry, a neighbour beyond a momentum
    band, lands the key on a sentinel slot without a mask: in this mixed
    radix, -1 on an axis is its sentinel digit with a borrow from the axis
    before it, and a borrow past the first axis leaves a negative key, which
    wraps around the flat array as Python indices do.  Raises
    :class:`ValueError` for a cell outside the lattice.
    """
    if isinstance(lattices, VonNeumannLattice):
        lattices = (lattices,)
    shapes = tuple((lat.Nx, lat.Np) for lat in lattices)
    if cells.ndof != len(shapes):
        raise ValueError("cell dimensionality does not match lattice count")
    gathers = []
    for k, table in enumerate(_stencil_tables(shapes)):
        rows = cells.indices[:, k]
        try:
            gathers.append(table.take(rows, axis=0))
        except IndexError:
            raise ValueError(f"cell index {rows.max()} on axis {k} is outside "
                             f"the lattice of {len(table)} cells") from None
    if fold:
        gathers = [np.minimum(*gathers), np.maximum(*gathers)]
    keys = gathers[0]
    for nbr, (nx, np_) in zip(gathers[1:], shapes[1:]):
        keys = keys * (nx * np_ + 1) + nbr
    return keys, tuple(nx * np_ + 1 for nx, np_ in shapes)


def expand_cells(cells: CellSet, lattices, *, fold: bool = False) -> CellSet:
    """Union of ``cells`` with every lattice cell within Euclidean distance
    sqrt 2, one ring of neighbours.

    Distances are Euclidean in integer lattice coordinates over all
    position/momentum axes; position axes wrap periodically, momentum axes
    clamp at the bandwidth truncation (no wrap, out-of-band offsets dropped).

    The neighbours come from per-axis stencil tables
    (:func:`_stencil_tables`), of ``Nx * Np * m`` entries per axis shape for
    the stencil's ``m`` offsets, built once per process.  Their keys are
    scattered into an occupancy array of one byte per product-lattice cell,
    plus a sentinel slot per axis that catches the out-of-band ones
    (:func:`_neighbour_keys`); its occupied cells are the result, already
    unique and in canonical order.
    With ``fold`` (a folded basis's :attr:`ProductBasis.fold`), ``cells``
    are exchange-orbit representatives and so is the result: the
    representatives of the expanded swap closure.
    Raises :class:`ValueError` for a cell outside the lattice.
    """
    keys, shape = _neighbour_keys(cells, lattices, fold)
    occupied = np.zeros(shape, dtype=bool)
    occupied.reshape(-1)[keys] = True
    inside = occupied[(slice(-1),) * len(shape)]
    return CellSet._canonical(np.column_stack(inside.nonzero()))


def boundary_mask(cells: CellSet, lattices, *,
                  fold: bool = False) -> np.ndarray:
    """Boolean mask over ``cells`` marking boundary members.

    A cell is boundary if some position within sqrt 2 (x wrapped, p
    clamped) is not a member; positions beyond the momentum band count as
    non-members, so cells on the bandwidth edge are always boundary cells
    and convergence there certifies that the band contains the state.

    The members' own keys (the zero offset of :func:`_neighbour_keys`) mark
    an occupancy array of one byte per product-lattice cell, whose sentinel
    slots stay empty for the out-of-band neighbours; a cell is interior
    when every neighbour key reads occupied.  With ``fold`` (a folded
    basis's :attr:`ProductBasis.fold`), ``cells`` are exchange-orbit
    representatives, marked as their swap closure's members are.  Raises
    :class:`ValueError` for a cell outside the lattice.
    """
    keys, shape = _neighbour_keys(cells, lattices, fold)
    occupied = np.zeros(math.prod(shape), dtype=bool)
    occupied[keys[:, keys.shape[1] // 2]] = True
    return ~occupied[keys].all(axis=1)


def prune_cells(cells: CellSet, amplitudes, zeta: float) -> CellSet:
    """Retain cells whose amplitude (max over tracked states) is >= zeta.

    ``amplitudes`` is (n_cells,) or (n_cells, n_states) of non-negative
    magnitudes (:meth:`ReducedBasis.amplitudes`), aligned with the canonical
    cell order.  Never empties the set: if everything falls below the cutoff
    the single largest-amplitude cell is kept.
    """
    amp = np.asarray(amplitudes)
    if amp.ndim == 2:
        amp = amp.max(axis=1)
    if amp.shape != (len(cells),):
        raise ValueError("amplitude vector is not aligned with the cell set")
    keep = amp >= zeta
    if not keep.any():
        keep[int(amp.argmax())] = True
    return cells.subset(keep)


class CellChange(NamedTuple):
    """A change from one canonical cell set to another (:func:`cell_change`).

    ``kept`` marks the old rows that stay and ``fresh`` the new rows that are
    added; ``dropped_rows`` and ``fresh_rows`` are the indices of the rows
    that these masks leave out and mark.  ``source`` is the old row each new
    row carries (0 on fresh rows): a gather of rows and then columns by it
    is several times faster than an ``np.ix_`` copy.  ``added`` and
    ``removed`` are the cells of the fresh and the dropped rows.  Everything
    carried across the change reads these fields, so no consumer derives an
    index again; at n ~ 55 :func:`cell_change` takes about 18 us.  The
    arrays are read-only."""
    new: CellSet
    kept: np.ndarray
    fresh: np.ndarray
    source: np.ndarray
    added: CellSet
    removed: CellSet
    fresh_rows: np.ndarray
    dropped_rows: np.ndarray


def cell_change(old_cells: CellSet, new_cells: CellSet) -> CellChange:
    """The :class:`CellChange` from ``old_cells`` to ``new_cells``.

    Both sets are canonical, so their flat keys ascend: one binary search of
    the new keys in the old gives ``source`` and which new rows are carried,
    and the carried rows' sources mark the old rows that are kept.
    """
    old, new = old_cells.indices, new_cells.indices
    dims = None if old.shape[1] == 1 else np.maximum(_dims(old), _dims(new))
    old_keys, new_keys = _keys(old, dims), _keys(new, dims)
    source = old_keys.searchsorted(new_keys)
    if len(old_keys):
        carried = old_keys.take(source, mode="clip") == new_keys
    else:
        carried = np.zeros(len(new_keys), dtype=bool)
    kept = np.zeros(len(old_keys), dtype=bool)
    kept[source[carried]] = True
    fresh = ~carried
    fresh_rows = fresh.nonzero()[0]
    dropped_rows = (~kept).nonzero()[0]
    source[fresh_rows] = 0
    for rows in (kept, fresh, source, fresh_rows, dropped_rows):
        rows.setflags(write=False)
    return CellChange(new_cells, kept, fresh, source,
                      CellSet._canonical(new.take(fresh_rows, axis=0)),
                      CellSet._canonical(old.take(dropped_rows, axis=0)),
                      fresh_rows, dropped_rows)


def embed_coefficients(vec, change: CellChange):
    """Carry a coefficient vector across a cell-set change.

    The result holds the old coefficients at surviving cells and zeros at
    fresh cells.  A 2-D ``vec`` carries its columns (one vector each) alike.
    """
    vec = np.asarray(vec)
    if len(change.fresh_rows) == len(change.new):     # nothing is carried
        return np.zeros((len(change.new),) + vec.shape[1:], dtype=vec.dtype)
    new_vec = vec.take(change.source, axis=0)
    new_vec[change.fresh_rows] = 0
    return new_vec


def carry_hermitian(mat, change: CellChange, fresh_rows):
    """Move a Hermitian reduced matrix across a change: the kept block
    ``mat[kept, kept]`` is gathered into the new order, the rows of the
    added cells over every new cell are written, and their conjugates fill
    the fresh columns."""
    out = mat.take(change.source, axis=0).take(change.source, axis=1)
    out[change.fresh_rows] = fresh_rows
    out.T[change.fresh_rows] = fresh_rows.conj()
    return out


# ---------------------------------------------------------------------------
# block-inverse updates
# ---------------------------------------------------------------------------

def grow_inverse(W, change, s_a, carry=()):
    """Inverse of the overlap after a change of cells, from the old inverse
    ``W`` alone.

    ``change`` is the :class:`CellChange` from the cells of ``W``, whose
    ``source``, ``fresh_rows`` and ``dropped_rows`` are read as they are.
    ``s_a`` holds the new overlap's added rows ``(a x n)`` over every new
    row, the only part of it read (the layout of each carry pair's
    ``H_A``).  ``W`` and ``s_a`` are complex arrays.

    Only the dropped block of ``W`` and the Schur complement of the added
    block (each the size of its part of the change) are factorized, both
    before anything is written; either one not positive definite raises
    :class:`DegenerateUpdateError`, the Schur complement signalling that
    the added columns are (nearly) linearly dependent on the kept basis.

    ``carry`` is a list of ``[G, H_A]`` pairs, ``G = W @ H_old`` over the
    old rows and ``H_A`` the added rows ``(a x n)`` of the new Hermitian
    ``H``, the only part of it read; each ``G`` is replaced by the result
    times ``H``.  The inverse and each ``G`` take one gather into the new
    order, dropped rows included, and GEMMs of the change's rank, in
    ``O(n^2 (d + a))`` for ``d`` cells dropped and ``a`` added: at n ~ 55,
    with one ``G`` and one BLAS thread, about 113 us.

    With ``K``, ``D`` and ``A`` the kept, dropped and added cells, ``C =
    S'_KA`` the added columns in the kept rows (the fresh ones do not enter
    the result) and ``E`` the embedding of a kept block into the new order
    (zero fresh rows and columns):

        Y = W_DD^-1 W_DK,     P = W_KK - Y^H W_DK      (the kept inverse)
        X = P C,              F1 = (S'_AA - C^H X)^-1, Xe = [X; -I]
        L = [-Y^H | Xe F1],   R = [W_DK; Xe^H]
        new inverse  = E(W_KK) + (L R + R^H L^H) / 2
        new G        = P H + Xe F1 (Xe^H H)

    ``W_DK`` and ``Y`` are held over the new columns and ``X`` over the new
    rows, so ``P M`` for any ``M`` over the new rows is ``E(W_KK) M - Y^H
    (W_DK M)``.  ``E(W_KK)`` and, in exact arithmetic, ``L R`` are
    Hermitian, so adding the Hermitian part of ``L R`` hermitizes the
    inverse inside its update: one GEMM of rank ``2 (d + a)``, with no pass
    or temporary of the inverse's size.

    ``G`` reads only ``H_A``: the drop gives ``E(G_KK) - Y^H G_DK = P
    H_KK``, ``P H_KA`` comes with ``X``, and then ``Xe^H H = C^H (P H) -
    H_A``, as the fresh rows of ``P H`` are zero.

    Each matrix is one gather, rows then columns (:func:`_gather`), into a
    block that holds it in the new order and below it the right factor of
    its update; the inverse's block holds ``L^H`` between two copies of
    ``R``, so ``[L^H; R]`` and ``[R; L^H]`` are both row ranges of it.
    Each update is an in-place ``zgemm`` that reads its left factor
    conjugate-transposed (:func:`_add_adjoint_product`).
    """
    src, fi, di = change.source, change.fresh_rows, change.dropped_rows
    n, d, a = len(src), len(di), len(fi)
    k = d + a
    cols = s_a.conj().T                     # the new overlap's added columns
    order = np.concatenate((src, di)) if d else src
    # rows: the new inverse, then R, L^H and R again
    blk, rows = _gather(W, order, src, fi, a + 2 * k)
    if a:
        blk[:n + d, fi] = 0.0
    new, right, lh = blk[:n], blk[n:n + k], blk[n + k:n + 2 * k]
    if d:
        # W is Hermitian, and the factorization reads one triangle only
        np.negative(_pd_solve(rows[n:].take(di, axis=1), right[:d],
                              "dropped block of the inverse is singular"),
                    out=lh[:d])
    if a:
        # P times C and every H_KA at once, from [E(W_KK); W_DK] times
        # them; the fresh rows come out zero
        b = np.hstack([cols] + [h_a.conj().T for _, h_a in carry])
        pb = blk[:n + d] @ b
        if d:
            _add_adjoint_product(pb[:n], lh[:d], pb[n:])
        xe = pb[:n, :a]
        schur = _zgemm(-1.0, cols, xe, 1.0, cols.take(fi, axis=0),
                       trans_a=2)                   # S'_AA - C^H X
        xe[fi, np.arange(a)] = -1.0              # Xe = [X; -I]
        xeh = right[d:]
        np.conjugate(xe.T, out=xeh)
        # F1 Xe^H is solved for directly: it is the added rows of L^H (the
        # factorization reads one triangle of the Schur complement only)
        lh[d:] = _pd_solve(
            schur, xeh,
            f"Schur complement of {a} added cells is not positive definite")
    # both factorizations have passed: from here on nothing raises
    for i, pair in enumerate(carry, 1):
        G, h_a = pair
        grown, _ = _gather(G, order, src, fi, a)
        ph, xh = grown[:n], grown[n + d:]
        if d:       # P H_KK; the fresh columns are written below
            _add_adjoint_product(ph, lh[:d], grown[n:n + d])
        if a:
            ph[:, fi] = pb[:n, i * a:(i + 1) * a]
            np.negative(h_a, out=xh)
            _add_adjoint_product(xh, cols, ph)    # Xe^H H = C^H (P H) - H_A
            _add_adjoint_product(ph, lh[d:], xh)
        pair[0] = ph
    if k:
        blk[n + 2 * k:] = right
        _add_adjoint_product(new, blk[n + k:], blk[n:n + 2 * k], 0.5)
    return new


def shrink_inverse(W, change):
    """The drop-only case of :func:`grow_inverse`: the inverse of the kept
    principal block, from ``W`` alone, for a ``change`` that adds no cells."""
    if len(change.fresh_rows):
        raise ValueError("shrink_inverse takes a change that adds no cells")
    return grow_inverse(W, change, np.empty((0, len(change.new)), complex))


def _gather(mat, order, src, fi, spare):
    """``mat`` in a new order, as the top of a new block of ``len(order) +
    spare`` rows: its rows ``order`` with the rows ``fi`` zeroed, then its
    columns ``src`` (a :class:`CellChange` ``source``).  The ``spare`` rows
    below are left for the caller to write.  Returns the block and the row
    gather, over every column of ``mat``."""
    rows = mat.take(order, axis=0)
    rows[fi] = 0.0
    out = np.empty((len(order) + spare, len(src)), dtype=complex)
    # the indices are in range: "clip" only lets take write unbuffered
    rows.take(src, axis=1, out=out[:len(order)], mode="clip")
    return out, rows


def _pd_solve(a, b, failure):
    """``a^-1 b`` by Cholesky for a Hermitian complex ``a``; raises
    :class:`DegenerateUpdateError` with ``failure`` if ``a`` is not positive
    definite.  One LAPACK ``zposv``, the factorization and solve of
    :func:`scipy.linalg.cho_factor` and :func:`scipy.linalg.cho_solve` (same
    bits), bound once, without their per-call checks, which dominate at the
    sizes of a change."""
    _, x, info = _zposv(a, b, lower=False)
    if info != 0:
        raise DegenerateUpdateError(failure)
    return x


def _add_adjoint_product(c, ah, b, alpha=1.0):
    """``c += alpha * (ah^H @ b)`` in place, for a C-contiguous complex
    ``c`` and C-contiguous ``ah`` and ``b``: one BLAS ``zgemm`` on the
    transposes, which reads ``ah`` conjugate-transposed, with no temporary
    the size of ``c`` or of ``ah^H``."""
    if not c.flags.c_contiguous or c.dtype != np.complex128:
        raise ValueError("gemm updates in place only a C-contiguous complex "
                         "matrix")
    _zgemm(alpha, b.T, ah.T, trans_b=2, beta=1.0, c=c.T, overwrite_c=True)


# ---------------------------------------------------------------------------
# product basis over several degrees of freedom
# ---------------------------------------------------------------------------

class ProductBasis:
    """Tensor product of per-axis biorthogonal pairs.

    Full-dimension basis vectors are Kronecker products of per-axis columns
    and are materialized lazily; overlaps factorize into per-axis entries.
    Passing the same :class:`~vngrid.vn_basis.BasisPair` object for several
    axes shares its element cache downstream, so symmetric interactions reuse
    each other's matrix elements.

    ``fold`` is True on a basis made by :meth:`folded`, whose rows are one
    representative ``c1 <= c2`` per swap orbit ``{(c1, c2), (c2, c1)}``, in
    canonical order, with weights ``w = sqrt 2`` off the diagonal and 1 on
    it: a folded coefficient ``c_f`` stands for ``c_f / w`` at each cell of
    its orbit (module docstring).  The cell-set methods below map between
    those rows and lattice cells; on an unfolded basis they return their
    arguments.

    Raises :class:`IllConditionedBasisError` if the product of the axes'
    ``cond_S``, the bound on every reduced overlap (module docstring),
    exceeds the limit.
    """

    def __init__(self, pairs):
        if isinstance(pairs, BasisPair):
            pairs = (pairs,)
        self.pairs = tuple(pairs)
        if not self.pairs:
            raise ValueError("at least one basis pair required")
        self.lattices = tuple(p.lattice for p in self.pairs)
        self.grids = tuple(p.grid for p in self.pairs)
        self.fold = False
        cond = math.prod(p.cond_S for p in self.pairs)
        if cond > COND_LIMIT:
            raise IllConditionedBasisError(
                f"product-lattice overlap of {self.n_cells} cells is "
                f"ill-conditioned (cond ~ {cond:.2e} > {COND_LIMIT:.0e}, the "
                f"product of its axes' condition numbers)",
                cond=cond, size=self.n_cells)

    def folded(self) -> "ProductBasis":
        """The same basis on its exchange-symmetric sector (module docstring).

        Needs two axes backed by one :class:`~vngrid.vn_basis.BasisPair`
        object; whether the operator commutes with the swap is the caller's
        test (:attr:`~vngrid.hamiltonian.OperatorSpec.exchange_symmetric`).
        """
        if self.ndof != 2 or self.pairs[0] is not self.pairs[1]:
            raise ValueError("an exchange fold needs two axes sharing one "
                             "basis pair")
        out = ProductBasis(self.pairs)
        out.fold = True
        return out

    def representatives(self, cells: CellSet) -> CellSet:
        """The rows that carry a set of lattice cells: itself, or one orbit
        representative per orbit that meets it."""
        if not self.fold:
            return cells
        return CellSet(np.sort(cells.indices, axis=1), ndof=2)

    def weights(self, cells: CellSet):
        """``w`` per row ``cells``, or None unfolded; raises
        :class:`ValueError` for a row that is not a representative."""
        if not self.fold:
            return None
        ri = cells.indices
        if ri.shape[1] != 2 or np.any(ri[:, 0] > ri[:, 1]):
            raise ValueError("cells are not exchange-orbit representatives")
        return np.where(ri[:, 0] == ri[:, 1], 1.0, math.sqrt(2.0))

    def lattice_count(self, cells: CellSet) -> int:
        """Lattice cells the rows ``cells`` span."""
        if not self.fold:
            return len(cells)
        ri = cells.indices
        return 2 * len(ri) - int(np.count_nonzero(ri[:, 0] == ri[:, 1]))

    def _orbits(self, cells: CellSet):
        """The swap closure of the rows ``cells`` and, per row, the closure
        rows of the representative and of its mirror (equal on the
        diagonal)."""
        ri = cells.indices
        off = ri[:, 0] != ri[:, 1]
        closure = CellSet(np.concatenate([ri, ri[off, ::-1]]), ndof=2)
        dims = _dims(closure.indices)
        keys = _keys(closure.indices, dims)
        return (closure, np.searchsorted(keys, _keys(ri, dims)),
                np.searchsorted(keys, _keys(ri[:, ::-1], dims)))

    def lattice_cells(self, cells: CellSet) -> CellSet:
        """The lattice cells the rows ``cells`` span."""
        return self._orbits(cells)[0] if self.fold else cells

    def unfold(self, cells: CellSet, coeffs):
        """Lattice cells and coefficients of a state over the rows ``cells``:
        folded, the swap closure and ``c / w`` at both cells of each orbit
        (``P c``).  A 2-D ``coeffs`` unfolds its columns."""
        coeffs = np.asarray(coeffs)
        if not self.fold:
            return cells, coeffs
        closure, at, mirror = self._orbits(cells)
        w = self.weights(cells).reshape((-1,) + (1,) * (coeffs.ndim - 1))
        out = np.empty((len(closure),) + coeffs.shape[1:], dtype=coeffs.dtype)
        out[at] = out[mirror] = coeffs / w
        return closure, out

    def restrict(self, cells: CellSet, values):
        """Row values from values ``v`` over the lattice cells the rows span:
        folded, ``P^T v``, the folded coefficients of a symmetric vector and
        the inverse of :meth:`unfold` on it.  A 2-D ``values`` restricts its
        columns."""
        values = np.asarray(values)
        if not self.fold:
            return values
        _, at, mirror = self._orbits(cells)
        half = (0.5 * self.weights(cells)).reshape(
            (-1,) + (1,) * (values.ndim - 1))
        return half * (values[at] + values[mirror])

    @property
    def ndof(self):
        return len(self.pairs)

    @property
    def n_cells(self):
        n = 1
        for p in self.pairs:
            n *= p.n
        return n

    def entries(self, contract, rows: CellSet, cols: CellSet) -> np.ndarray:
        """Reduced-matrix entries between two row sets, from ``contract(ri,
        ci)``, the lattice-cell entries between two arrays of index rows.

        Unfolded, they are passed through.  Folded, ``contract`` is called
        once, for the columns followed by their mirrors, and the two halves
        are summed and scaled by ``w_i w_j / 2``.  The block over the rows
        that are also columns is hermitized: a sum-of-products operator
        commutes with the swap only to round-off.
        """
        ri, ci = rows.indices, cols.indices
        if not self.fold:
            return contract(ri, ci)
        both = contract(ri, np.concatenate([ci, ci[:, ::-1]]))
        out = both[:, :len(ci)] + both[:, len(ci):]
        del both
        out *= (self.weights(rows) / math.sqrt(2.0))[:, None]
        out *= self.weights(cols) / math.sqrt(2.0)
        shared = cell_change(rows, cols)
        block = np.ix_(shared.kept, ~shared.fresh)
        out[block] = _hermitize(out[block])
        return out

    def overlap(self, rows: CellSet, cols: CellSet) -> np.ndarray:
        """Entries of ``Btilde^H Btilde`` between two cell lists."""
        return self.entries(self._overlap, rows, cols)

    def _overlap(self, ri, ci):
        first, *rest = self.pairs
        out = first.Sinv.take(ri[:, 0], axis=0).take(ci[:, 0], axis=1)
        for k, pair in enumerate(rest, 1):
            out *= pair.Sinv[ri[:, k, None], ci[:, k]]
        return out

    def dual_columns(self, cells: CellSet) -> np.ndarray:
        """Weighted ``Btilde`` matrix (grid points x rows); test-scale only.

        Each lattice cell's column is the Kronecker product of its axes'
        columns, built by one broadcast product per axis.  On a folded basis
        the columns are the orbits' combinations."""
        lattice = self.lattice_cells(cells).indices
        out = self.pairs[0].B[:, lattice[:, 0]]
        for k, pair in enumerate(self.pairs[1:], 1):
            out = (out[:, None] * pair.B[:, lattice[:, k]]).reshape(
                -1, len(lattice))
        return self.restrict(cells, out.T).T

    def reconstruct(self, cells: CellSet, coeffs) -> np.ndarray:
        """Weighted grid vector ``sum_j c_j b_cell_j`` (flattened) of
        coefficients over the rows ``cells``.

        The unfolded coefficients are scattered into an array over every
        lattice cell, which one contraction per axis takes to the grid (each
        moves its axis last, so the axes end in their own order), as
        :func:`~vngrid.dynamics.project_state` does the other way."""
        cells, coeffs = self.unfold(cells, coeffs)
        psi = np.zeros([p.n for p in self.pairs], dtype=complex)
        psi[tuple(cells.indices.T)] = coeffs
        for pair in self.pairs:
            psi = np.tensordot(psi, pair.B, axes=(0, 1))
        return psi.ravel()


# ---------------------------------------------------------------------------
# reduced basis with its overlap inverse
# ---------------------------------------------------------------------------

class ReducedBasis:
    """Active cells with ``Sinv_tilde = Btilde^H Btilde`` and its inverse.

    Mutated only between solver phases (single writer).  The overlap
    entries are exact per-axis products, carried across each update by
    :func:`carry_hermitian`: bit for bit a fresh overlap, or folded within
    round-off of one, whose block is hermitized as a whole.  Their
    conditioning is bounded by the :class:`ProductBasis` (module docstring),
    so neither creation nor an update factors them.  ``Stilde``, which the
    eigenmode search never reads, is formed from scratch on first read or
    by :meth:`stage` (:func:`_fresh_inverse`, with its exact checks).  Each
    :meth:`update` carries it, and the :attr:`generators` staged with it,
    to the new cells.

    On a folded product basis the cells are orbit representatives:
    ``n`` counts them, ``n_lattice`` the lattice cells they span, and
    :meth:`amplitudes` gives the unfolded amplitudes the cutoffs compare.
    """

    def __init__(self, product: ProductBasis, cells: CellSet,
                 Sinv_tilde: np.ndarray):
        self.product = product
        self._set_cells(cells)
        self.Sinv_tilde = Sinv_tilde
        self._stilde = None
        self.generators = []        # Stilde @ each staged block

    @classmethod
    def create(cls, product: ProductBasis, cells: CellSet) -> "ReducedBasis":
        return cls(product, cells, product.overlap(cells, cells))

    @property
    def n(self):
        return len(self.cells)

    def _set_cells(self, cells):
        self.cells = cells
        self._weights = self.product.weights(cells)
        self.n_lattice = self.product.lattice_count(cells)

    def amplitudes(self, coeffs, rows=slice(None)):
        """``|c|`` of the coefficient rows ``rows`` (a mask or index; all by
        default), unfolded on a folded basis: ``|c| / w``.  A 2-D ``coeffs``
        gives one column per state."""
        amp = np.abs(coeffs[rows])
        if self._weights is not None:
            w = self._weights[rows]
            amp /= w if amp.ndim == 1 else w[:, None]
        return amp

    @property
    def Stilde(self) -> np.ndarray:
        """``(Btilde^H Btilde)^-1``, inverted from scratch on first read."""
        if self._stilde is None:
            self._stilde = _fresh_inverse(self.Sinv_tilde, self.n)
        return self._stilde

    def stage(self, blocks: list):
        """Form ``Stilde`` from scratch and stage ``Stilde @ b`` for each
        Hermitian block ``b`` over the current cells, one GEMM each, as
        :attr:`generators`.

        The blocks are consumed: the list is emptied, each block leaving it
        as soon as its generator exists, so that a caller holding no other
        reference (a propagation's handed-over Hamiltonian, after
        :meth:`~vngrid.hamiltonian.ReducedHamiltonian.take_blocks`) frees it
        then.  Generators staged before are dropped once the new ``Stilde``
        exists, before the first new one is formed; a caller that assembles
        the blocks afresh (a propagation's refresh) calls :meth:`unstage`
        first, so that neither the old ``Stilde`` nor the old generators are
        held while it assembles.
        """
        self._stilde = _fresh_inverse(self.Sinv_tilde, self.n)
        self.generators = []
        blocks.reverse()
        while blocks:
            self.generators.append(self._stilde @ blocks.pop())

    def unstage(self):
        """Drop ``Stilde`` and the staged generators; the overlap stays."""
        self._stilde, self.generators = None, []

    @property
    def Btilde(self) -> np.ndarray:
        """Materialized weighted dual columns (test-scale only)."""
        return self.product.dual_columns(self.cells)

    def physical_norm(self, coeffs) -> float:
        """Norm of the represented state: sqrt(c^H (Btilde^H Btilde) c).

        One bound BLAS ``zgemv`` on the F-ordered view of the overlap and one
        ``zdotc``: the bits of ``np.vdot(c, Sinv_tilde @ c)``, without the
        per-call overhead of the ``numpy`` forms at a propagator's sizes."""
        coeffs = np.asarray(coeffs, dtype=complex)
        sc = _zgemv(1.0, self.Sinv_tilde.T, coeffs, 0.0, None, 0, 1, 0, 1, 1)
        return math.sqrt(max(0.0, _zdotc(coeffs, sc).real))

    def update(self, change: CellChange, rows=()):
        """Switch to the new cells of ``change``, the :func:`cell_change`
        from the current cells, carrying the overlap, its inverse and the
        staged generators.

        Returns the change's ``(added, removed)`` cell sets.  Only the added
        overlap rows are computed, and they are all the inverse's one block
        update reads of the new overlap: ``grow_inverse(Stilde, change,
        s_a, carry)``, which factorizes only the dropped block of the
        current inverse and the Schur complement of the added block (a
        drop-only change has no added rows).  Before the first read of
        ``Stilde`` only the overlap is carried.  At n ~ 55 with one staged
        generator and one BLAS thread an update takes about 150 us.

        ``rows`` holds each staged block's added rows over the new cells
        (``ReducedHamiltonian.rows(change.added, change.new)``), one per
        generator, or :class:`ValueError` is raised; each generator becomes
        the new ``Stilde @ H`` through the same update as the inverse.  An
        update that raises leaves everything as it was: the cells,
        ``Sinv_tilde``, ``Stilde`` and every generator, since both
        factorizations run before anything is written.
        """
        if len(rows) != len(self.generators):
            raise ValueError("one row block per staged generator required")
        new_cells, added, removed = change.new, change.added, change.removed
        if len(removed) == 0 and len(added) == 0:
            self._set_cells(new_cells)
            return added, removed
        if len(new_cells) == 0:
            raise DegenerateUpdateError("cannot reduce to an empty cell set")
        s_a = self.product.overlap(added, new_cells)
        sinv = carry_hermitian(self.Sinv_tilde, change, s_a)
        if self._stilde is not None:
            carry = [[g, r] for g, r in zip(self.generators, rows)]
            self._stilde = grow_inverse(self._stilde, change, s_a, carry)
            self.generators = [g for g, _ in carry]
        self._set_cells(new_cells)
        self.Sinv_tilde = sinv
        return added, removed


def _fresh_inverse(sinv: np.ndarray, n: int) -> np.ndarray:
    """Inverse of the reduced overlap by Cholesky, with a conditioning check.

    One copy of the overlap is factored (LAPACK ``zpotrf``) and inverted
    (``zpotri``, which writes a real diagonal) in place, reading and
    writing its upper triangle, and the other triangle is filled with the
    conjugates: the result is exactly Hermitian, and the only matrix of its
    size made.

    The check uses the 1-norm condition number ``||S||_1 ||S^-1||_1``, read
    off the overlap and its inverse in O(n^2) by LAPACK ``zlange``, which
    makes no temporary (``np.linalg.norm`` makes an n x n one per call).
    For a Hermitian matrix the 1-norm bounds the 2-norm from above, so this
    never passes a matrix whose 2-norm condition number exceeds the limit.
    A failed factorization (not positive definite) counts as infinitely
    ill-conditioned.
    """
    inv = np.array(sinv, dtype=complex, order="C")
    # the F-ordered view of a C-ordered Hermitian matrix is its transpose,
    # whose lower triangle is the matrix's upper triangle
    _, info = _zpotrf(inv.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        _, info = _zpotri(inv.T, lower=1, overwrite_c=1)
    if info != 0:
        raise IllConditionedBasisError(
            f"reduced overlap of {n} cells is not positive definite",
            cond=math.inf, size=n)
    # the strict lower triangle from the upper one, a panel of rows at a
    # time: no temporary larger than a panel
    for lo in range(0, len(inv), 64):
        hi = lo + 64
        inv[lo:hi, :lo] = inv[:lo, lo:hi].T.conj()
        diag = inv[lo:hi, lo:hi]
        lower = np.tri(len(diag), k=-1, dtype=bool)
        diag[lower] = diag.T[lower].conj()
    # ``zlange`` reads each F-ordered view, the transpose, whose 1-norm is
    # the matrix's infinity norm: its 1-norm, since the matrix is Hermitian
    cond = float(_zlange("1", sinv.T) * _zlange("1", inv.T))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedBasisError(
            f"reduced overlap of {n} cells is ill-conditioned (cond ~ {cond:.2e})",
            cond=cond, size=n)
    return inv


# ---------------------------------------------------------------------------
# dense single-axis constructions (cross-checks and small systems)
# ---------------------------------------------------------------------------

def restrict_basis(pair: BasisPair, cells: CellSet) -> ReducedBasis:
    """Reduced basis over the columns of one pair selected by ``cells``."""
    return ReducedBasis.create(ProductBasis(pair), cells)


def reduced_gaussians(rb: ReducedBasis) -> np.ndarray:
    """Biorthogonal partners of the retained dual vectors.

    ``Gtilde = Btilde (Btilde^H Btilde)^-1``: away from the subspace
    boundary these are nearly the original Gaussians; near it they deform by
    subtraction of complementary components.
    """
    return rb.Btilde @ rb.Stilde


def complementary_basis(pair: BasisPair, cells: CellSet):
    """Bases ``(Gbar, Bbar)`` of the orthogonal complement.

    The complement is spanned by the Gaussians outside the active set; those
    are exactly orthogonal to the retained dual vectors.  ``Bbar`` is the
    right pseudo-inverse family ``Gbar (Gbar^H Gbar)^-1``.
    """
    out = np.setdiff1d(np.arange(pair.n), cells.indices[:, 0])
    if not out.size:
        raise ValueError("complement of the full cell set is empty")
    Gbar = pair.G[:, out]
    gram = _hermitize(Gbar.conj().T @ Gbar)
    cho = scipy.linalg.cho_factor(gram)
    Bbar = Gbar @ scipy.linalg.cho_solve(cho, np.eye(len(out), dtype=complex))
    return Gbar, Bbar
