import dataclasses
import functools
import itertools

import numpy as np
import pytest
import scipy.linalg

from vngrid.errors import DegenerateUpdateError, IllConditionedBasisError
from vngrid.fourier_grid import build_grid
from vngrid.reduced_space import (CellSet, ProductBasis, ReducedBasis,
                                  _fresh_inverse, _stencil_tables,
                                  boundary_mask, cell_change,
                                  complementary_basis, embed_coefficients,
                                  expand_cells, grow_inverse, prune_cells,
                                  reduced_gaussians, restrict_basis,
                                  shrink_inverse)
from vngrid.vn_basis import build_basis_pair, build_lattice


@pytest.fixture(scope="module")
def pair48():
    return build_basis_pair(build_lattice(build_grid(12.0, 48), 3, 16))


@pytest.fixture(scope="module")
def pair60():
    return build_basis_pair(build_lattice(build_grid(15.0, 60), 5, 12))


def _position(cells, cell):
    """Row of ``cell`` in ``cells``; KeyError if it is not a member."""
    rows = np.flatnonzero(cell_change(cells, CellSet([cell], ndof=cells.ndof)).kept)
    if not len(rows):
        raise KeyError(tuple(cell))
    return int(rows[0])


def _random_pd(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a @ a.conj().T + n * np.eye(n)


# -- cell sets and geometry ---------------------------------------------------

def test_cellset_canonical_order_and_dedup():
    cs = CellSet([[3], [1], [3], [2]])
    assert cs.indices[:, 0].tolist() == [1, 2, 3]
    assert (2,) in set(cs) and (5,) not in set(cs)
    cs2 = CellSet([[2, 1], [1, 9], [1, 2]], ndof=2)
    assert [tuple(r) for r in cs2.indices] == [(1, 2), (1, 9), (2, 1)]


def test_cellset_repr():
    cells = CellSet([[2, 1], [1, 9], [2, 1]])
    assert repr(cells) == "CellSet(2 cells, ndof=2)"


@pytest.mark.parametrize("ndof, folded", [
    pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
    pytest.param(3, False, id="3"), pytest.param(2, True, id="2-folded")])
def test_cell_change_against_set_oracle(ndof, folded, rng):
    # folded: the sets are exchange-orbit representatives, as a folded
    # propagation changes them
    def random_set(n, hi):
        raw = rng.integers(0, hi, size=(n, ndof))
        cs = CellSet(raw, ndof=ndof)
        assert list(cs) == sorted(set(map(tuple, raw.tolist())))
        return CellSet(np.sort(cs.indices, axis=1), ndof=2) if folded else cs

    a = random_set(30, 5)
    empty = CellSet(np.zeros((0, ndof)), ndof=ndof)
    cases = [(a, random_set(25, 5)), (a, random_set(40, 9)),
             (random_set(40, 9), a), (a, a), (a, empty), (empty, a),
             (a, CellSet(a.indices + 5, ndof=ndof))]
    for old, new in cases:
        at_old = {cell: k for k, cell in enumerate(old)}
        at_new = {cell: k for k, cell in enumerate(new)}
        change = cell_change(old, new)
        assert change.new is new
        assert change.kept.tolist() == [cell in at_new for cell in old]
        assert change.fresh.tolist() == [cell not in at_old for cell in new]
        assert change.source.tolist() == [at_old.get(cell, 0) for cell in new]
        assert list(change.added) == [c for c in new if c not in at_old]
        assert list(change.removed) == [c for c in old if c not in at_new]
        # the row indices match the masks and the oracle
        assert change.fresh_rows.tolist() == np.flatnonzero(change.fresh).tolist()
        assert change.dropped_rows.tolist() == np.flatnonzero(~change.kept).tolist()
        assert change.fresh_rows.tolist() == [k for k, c in enumerate(new)
                                              if c not in at_old]
        assert change.dropped_rows.tolist() == [k for k, c in enumerate(old)
                                                if c not in at_new]
        assert not any(m.flags.writeable for m in change[1:4] + change[6:])
        with pytest.raises(ValueError):
            change.fresh_rows[:1] = 0
        vec = rng.normal(size=len(old)) + 1j * rng.normal(size=len(old))
        expect = np.zeros(len(new), dtype=complex)
        for k, cell in enumerate(old):
            if cell in at_new:
                expect[at_new[cell]] = vec[k]
        assert np.array_equal(embed_coefficients(vec, change), expect)
        # a masked subset is the canonical set of the masked rows
        mask = rng.random(len(old)) < 0.5
        assert old.subset(mask) == CellSet(old.indices[mask], ndof=ndof)
        for cell in old:
            assert (cell in new) == (cell in at_new)
            if cell in at_new:
                assert _position(new, cell) == at_new[cell]
            else:
                with pytest.raises(KeyError):
                    _position(new, cell)


def test_cellset_rejects_negative_indices():
    with pytest.raises(ValueError, match="non-negative"):
        CellSet([[-1]])
    with pytest.raises(ValueError, match="non-negative"):
        CellSet([[0, 3], [2, -4]], ndof=2)


def test_expand_cells_moore_neighborhood():
    # single interior cell, radius sqrt(2): 3x3 block of 9 cells
    g = build_grid(10.0, 40)
    lat = build_lattice(g, 5, 8)
    seed = CellSet([[lat.cell_index(2, 4)]])
    grown = expand_cells(seed, lat)
    assert len(grown) == 9
    coords = {lat.cell_coords(i) for (i,) in grown}
    assert coords == {(a, b) for a in (1, 2, 3) for b in (3, 4, 5)}


def test_the_stencil_takes_no_radius():
    # the one ring is fixed: a positional radius is not read as ``fold``
    lat = build_lattice(build_grid(10.0, 40), 5, 8)
    seed = CellSet([[lat.cell_index(2, 4)]])
    with pytest.raises(TypeError):
        expand_cells(seed, lat, 1.5)
    with pytest.raises(TypeError):
        boundary_mask(seed, lat, 1.5)


def test_expand_cells_wraps_x_clamps_p():
    g = build_grid(10.0, 40)
    lat = build_lattice(g, 5, 8)
    # corner cell: x wraps around, p clamps at the band edge
    seed = CellSet([[lat.cell_index(0, 0)]])
    grown = expand_cells(seed, lat)
    coords = {lat.cell_coords(i) for (i,) in grown}
    assert len(grown) == 6
    assert coords == {(a % 5, b) for a in (-1, 0, 1) for b in (0, 1)}


def test_boundary_cells_geometry():
    g = build_grid(10.0, 40)
    lat = build_lattice(g, 5, 8)
    # 3x3 interior block: the 8 perimeter cells are the boundary
    block = CellSet([[lat.cell_index(a, b)] for a in (1, 2, 3)
                     for b in (3, 4, 5)])
    bnd = block.subset(boundary_mask(block, lat))
    assert len(bnd) == 8
    assert (lat.cell_index(2, 4),) not in bnd
    # singleton is its own boundary
    single = CellSet([[lat.cell_index(2, 4)]])
    assert single.subset(boundary_mask(single, lat)) == single
    # full lattice: periodic in x, so only the momentum-edge rows remain
    full = CellSet(np.arange(lat.n_cells)[:, None])
    bnd_full = full.subset(boundary_mask(full, lat))
    coords = {lat.cell_coords(i)[1] for (i,) in bnd_full}
    assert coords == {0, lat.Np - 1}
    assert len(bnd_full) == 2 * lat.Nx


def test_cells_outside_the_lattice_are_rejected(ho_model):
    lat = ho_model.lattices[0]
    assert lat.n_cells == 120
    outside = CellSet([[125]])
    with pytest.raises(ValueError, match="lattice of 120 cells"):
        expand_cells(outside, lat)
    with pytest.raises(ValueError, match="lattice of 120 cells"):
        boundary_mask(outside, lat)
    pair = (lat, lat)
    with pytest.raises(ValueError, match="axis 1 is outside the lattice"):
        expand_cells(CellSet([[3, 7], [5, 120]], ndof=2), pair)


# -- neighbour tables against a brute-force oracle -----------------------------

@dataclasses.dataclass(frozen=True)
class _OneCellLattice:
    """The 1 x 1 lattice, which no Fourier grid (N >= 2) carries."""
    Nx: int = 1
    Np: int = 1

    def cell_coords(self, i):
        assert i == 0
        return 0, 0

    def cell_index(self, a, b):
        assert a == b == 0
        return 0


def _lattice(nx, np_):
    if nx * np_ == 1:
        return _OneCellLattice()
    return build_lattice(build_grid(10.0, nx * np_), nx, np_)


def _oracle_neighbours(cell, lattices, offsets):
    """Each neighbour of ``cell`` under ``offsets`` as a tuple, None where
    it leaves a momentum band, from per-axis (a, b) coordinates."""
    coords = [lat.cell_coords(i) for lat, i in zip(lattices, cell)]
    out = []
    for off in offsets:
        nbr = []
        for lat, (a, b), da, db in zip(lattices, coords, off[0::2], off[1::2]):
            if not 0 <= b + db < lat.Np:
                break
            nbr.append(lat.cell_index((a + da) % lat.Nx, b + db))
        out.append(tuple(nbr) if len(nbr) == len(lattices) else None)
    return out


def _offsets(lattices, radius):
    r = int(np.floor(radius))
    return [off for off in itertools.product(range(-r, r + 1),
                                             repeat=2 * len(lattices))
            if sum(o * o for o in off) <= radius * radius]


def _grown(cells, lattices, radius):
    """The oracle's expansion of ``cells`` by every offset within
    ``radius``."""
    offsets = _offsets(lattices, radius)
    return {n for cell in cells
            for n in _oracle_neighbours(cell, lattices, offsets) if n is not None}


def _check_against_oracle(cells, lattices):
    """Expansion and boundary of ``cells`` against the oracle's one ring
    (every offset of length <= sqrt 2)."""
    offsets = _offsets(lattices, np.sqrt(2.0))
    members = set(cells)
    nbrs = [_oracle_neighbours(cell, lattices, offsets) for cell in cells]
    grown = {n for row in nbrs for n in row if n is not None}
    assert list(expand_cells(cells, lattices)) == sorted(grown)
    bnd = [any(n not in members for n in row) for row in nbrs]
    assert boundary_mask(cells, lattices).tolist() == bnd


def _check_change(old, new):
    change = cell_change(old, new)
    in_old, in_new = set(old), set(new)
    assert change.kept.tolist() == [cell in in_new for cell in old]
    assert change.fresh.tolist() == [cell not in in_old for cell in new]


_SHAPES = [(5, 8), (3, 16), (4, 6), (1, 2), (2, 1), (2, 2), (1, 1)]


# ``radius`` shapes the second set only: the oracle grows it by that radius,
# and the one-ring stencil is checked on both sets
@pytest.mark.parametrize("radius", [1.0, np.sqrt(2.0) + 1e-9, 2.3])
@pytest.mark.parametrize("ndof", [1, 2, 3])
def test_neighbour_tables_match_brute_force(ndof, radius, rng):
    for trial in range(12 if ndof < 3 else 4):
        shapes = [_SHAPES[k] for k in rng.integers(len(_SHAPES), size=ndof)]
        lattices = tuple(_lattice(*s) for s in shapes)
        n = int(rng.integers(1, (25, 15, 6)[ndof - 1]))
        raw = np.column_stack([rng.integers(nx * np_, size=n)
                               for nx, np_ in shapes])
        # and one cell on a band edge: first or last momentum row
        raw[0] = [lat.cell_index(int(rng.integers(lat.Nx)),
                                 [0, lat.Np - 1][int(rng.integers(2))])
                  for lat in lattices]
        cells = CellSet(raw, ndof=ndof)
        _check_against_oracle(cells, lattices)
        grown = CellSet(sorted(_grown(cells, lattices, radius)), ndof=ndof)
        _check_against_oracle(grown, lattices)
        other = CellSet(np.column_stack([rng.integers(nx * np_, size=n)
                                         for nx, np_ in shapes]), ndof=ndof)
        empty = CellSet(np.zeros((0, ndof)), ndof=ndof)
        for old, new in [(cells, grown), (grown, cells), (cells, other),
                         (cells, cells), (cells, empty), (empty, cells)]:
            _check_change(old, new)
    # sets apart from each other: everything is dropped and added
    a = CellSet([[0], [1]])
    b = CellSet([[2], [3], [4]])
    change = cell_change(a, b)
    assert change.kept.tolist() == [False, False]
    assert change.fresh.tolist() == [True, True, True]


def test_edge_lattices_match_brute_force():
    for nx, np_ in itertools.product((1, 2), repeat=2):
        lat = (_lattice(nx, np_),)
        every = CellSet(np.arange(nx * np_)[:, None])
        for cell in range(nx * np_):
            _check_against_oracle(CellSet([[cell]]), lat)
        _check_against_oracle(every, lat)
        # the whole lattice: only momentum-edge cells are boundary, and with
        # one or two momentum rows every cell is on an edge
        assert boundary_mask(every, lat).all()


def test_axis_tables_are_built_once_and_read_only(he_model):
    _stencil_tables.cache_clear()
    lat = he_model.lattices
    cells = CellSet([[7, 30], [8, 30], [40, 2]], ndof=2)
    for _ in range(3):
        grown = expand_cells(cells, lat)
        boundary_mask(grown, lat)
        cell_change(cells, grown)
    # both helium axes share one (5, 12) shape: the stencil's tables are
    # built on the first call and read by every later one
    info = _stencil_tables.cache_info()
    assert info.misses == 1 and info.currsize == 1 and info.hits == 5
    # the 33 offsets of length <= sqrt(2) in four axes, per axis
    for table in _stencil_tables(((5, 12), (5, 12))):
        assert table.shape == (60, 33) and not table.flags.writeable


def test_prune_cells_rules(rng):
    cells = CellSet(np.arange(6)[:, None])
    amps = np.array([1.0, 0.5, 2e-6, 1e-9, 3e-2, 0.0])
    kept = prune_cells(cells, amps, 1e-6)
    assert [i for (i,) in kept] == [0, 1, 2, 4]
    assert prune_cells(cells, amps + 1.0, 1e-6) == cells
    only = prune_cells(cells, amps, 10.0)
    assert [i for (i,) in only] == [0]
    # joint max over tracked states protects cells any mode still needs
    two = np.array([[1e-9, 0.5], [0.4, 1e-9], [1e-9, 1e-9]])
    kept2 = prune_cells(CellSet(np.arange(3)[:, None]), two, 1e-6)
    assert [i for (i,) in kept2] == [0, 1]


def test_embed_coefficients():
    old = CellSet([[1], [3], [5]])
    new = CellSet([[2], [3], [5]])
    vec = np.array([1.0 + 0j, 2.0, 3.0])
    change = cell_change(old, new)
    out = embed_coefficients(vec, change)
    np.testing.assert_allclose(out, [0.0, 2.0, 3.0])
    # columns are carried alike
    out2 = embed_coefficients(np.column_stack([vec, 2 * vec]), change)
    np.testing.assert_allclose(out2, [[0.0, 0.0], [2.0, 4.0], [3.0, 6.0]])


# -- block-inverse updates ----------------------------------------------------

def _change(old, new):
    """The :func:`cell_change` between two 1-D cell sets of row labels."""
    return cell_change(CellSet(np.asarray(old)), CellSet(np.asarray(new)))


def test_grow_inverse_trivial_cases(rng):
    a = _random_pd(rng, 6)
    ainv = np.linalg.inv(a)
    out = grow_inverse(ainv, _change(range(6), range(6)),
                       np.zeros((0, 6), dtype=complex))
    np.testing.assert_allclose(out, ainv)
    z = grow_inverse(np.eye(4, dtype=complex), _change(range(4), range(6)),
                     np.eye(6, dtype=complex)[4:])
    np.testing.assert_allclose(z, np.eye(6), atol=1e-14)


def test_grow_inverse_against_dense_oracle(rng):
    big = _random_pd(rng, 40)
    ainv = np.linalg.inv(big[:36, :36])
    z = grow_inverse(ainv, _change(range(36), range(40)), big[36:])
    np.testing.assert_allclose(z, np.linalg.inv(big), atol=1e-9)


def test_grow_inverse_writes_the_fresh_layout(rng):
    # added rows interleaved with kept ones: the same entries as the added-last
    # layout, permuted, up to the rounding of the update's GEMM, which sums
    # in tile order and so by row position
    big = _random_pd(rng, 30)
    fresh = np.zeros(30, dtype=bool)
    fresh[[0, 7, 8, 21, 29]] = True
    kept = ~fresh
    ainv = np.linalg.inv(big[np.ix_(kept, kept)])
    order = np.concatenate([np.flatnonzero(kept), np.flatnonzero(fresh)])
    last = np.empty_like(big)
    last[np.ix_(order, order)] = grow_inverse(
        ainv, _change(range(25), range(30)), big[np.ix_(order[25:], order)])
    eps = np.finfo(float).eps
    interleaved = grow_inverse(ainv, _change(np.flatnonzero(kept), range(30)),
                               big[fresh])
    assert np.abs(interleaved - last).max() <= 2 * eps * np.abs(last).max()
    np.testing.assert_allclose(last, np.linalg.inv(big), atol=1e-9)


def test_grow_inverse_rejects_degenerate(rng):
    a = _random_pd(rng, 5)
    ainv = np.linalg.inv(a)
    # the added rows duplicate kept rows 0 and 1: Schur complement singular
    s_a = np.hstack([a[:2], a[:2, :2]])
    with pytest.raises(DegenerateUpdateError):
        grow_inverse(ainv, _change(range(5), range(7)), s_a)


def test_fresh_inverse_is_exactly_hermitian_and_matches_cholesky(he_model):
    # a helium reduced overlap: a 21 x 21 block of cells on each axis
    block = np.arange(20, 41)
    cells = CellSet(np.stack(np.meshgrid(block, block), -1).reshape(-1, 2))
    sinv = ReducedBasis.create(he_model.product, cells).Sinv_tilde
    inv = _fresh_inverse(sinv, len(cells))
    assert inv.flags.c_contiguous
    assert np.array_equal(inv, inv.conj().T)
    assert not inv.diagonal().imag.any()
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sinv),
                                 np.eye(len(cells)))
    assert np.linalg.norm(inv - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)


def test_fresh_inverse_conditioning_check(rng):
    a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
    s = a @ a.conj().T + 30 * np.eye(30)
    np.testing.assert_allclose(_fresh_inverse(s, 30) @ s, np.eye(30),
                               atol=1e-12)
    # the 1-norm condition number bounds the 2-norm one from above, so a
    # matrix beyond the limit in the 2-norm is always rejected
    q, _ = np.linalg.qr(a)
    near = (q * np.logspace(0, -12.5, 30)) @ q.conj().T
    with pytest.raises(IllConditionedBasisError) as err:
        _fresh_inverse(0.5 * (near + near.conj().T), 30)
    assert err.value.cond >= 10 ** 12.5 * (1 - 1e-6)
    # not positive definite: the Cholesky factorization fails
    with pytest.raises(IllConditionedBasisError) as err:
        _fresh_inverse(np.diag([1.0, -1.0]).astype(complex), 2)
    assert err.value.cond == np.inf


def test_shrink_inverse_against_dense_oracle(rng):
    big = _random_pd(rng, 40)
    zinv = np.linalg.inv(big)
    keep = np.sort(rng.choice(40, size=32, replace=False))
    out = shrink_inverse(zinv, _change(range(40), keep))
    np.testing.assert_allclose(out, np.linalg.inv(big[np.ix_(keep, keep)]),
                               atol=1e-9)
    np.testing.assert_allclose(shrink_inverse(zinv, _change(range(40),
                                                            range(40))), zinv)
    # a change that adds cells is not the drop-only case
    with pytest.raises(ValueError, match="adds no cells"):
        shrink_inverse(zinv, _change(range(40), range(41)))


def test_grow_then_shrink_round_trip(rng):
    big = _random_pd(rng, 30)
    ainv = np.linalg.inv(big[:24, :24])
    z = grow_inverse(ainv, _change(range(24), range(30)), big[24:])
    back = shrink_inverse(z, _change(range(30), range(24)))
    np.testing.assert_allclose(back, ainv, atol=1e-9)


def _random_change(rng, universe, n_old, d, a):
    """A change inside ``universe`` rows: ``n_old`` old rows, ``d`` of them
    dropped and ``a`` others added, interleaved in the new order.  Returns
    the old and new rows and the :func:`cell_change` between them."""
    old = np.sort(rng.choice(universe, size=n_old, replace=False))
    keep = np.ones(n_old, dtype=bool)
    keep[rng.choice(n_old, size=d, replace=False)] = False
    others = np.setdiff1d(np.arange(universe), old)
    new = np.sort(np.concatenate([old[keep],
                                  rng.choice(others, size=a, replace=False)]))
    return old, new, _change(old, new)


def test_fused_update_against_dense_oracles(rng):
    # one call drops d and adds a interleaved cells, and carries two
    # generators from the added rows of their H': the inverse is inv(S')
    # and each G is inv(S') @ H'; after 20 random changes, one that only
    # drops cells and one that only adds them
    sizes = itertools.chain((rng.integers(1, 9, size=2) for _ in range(20)),
                            [(6, 0), (0, 6)])
    for d, a in sizes:
        big = _random_pd(rng, 50)
        hs = [_random_pd(rng, 50) for _ in range(2)]
        old, new, change = _random_change(rng, 50, 36, int(d), int(a))
        added = new[change.fresh_rows]
        assert len(change.dropped_rows) == d and len(added) == a
        w = np.linalg.inv(big[np.ix_(old, old)])
        carry = [[w @ h[np.ix_(old, old)], h[np.ix_(added, new)]]
                 for h in hs]
        out = grow_inverse(w, change, big[np.ix_(added, new)], carry)
        ref = np.linalg.inv(big[np.ix_(new, new)])
        np.testing.assert_allclose(out, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())
        for (g, _), h in zip(carry, hs):
            g_ref = ref @ h[np.ix_(new, new)]
            np.testing.assert_allclose(g, g_ref, rtol=0,
                                       atol=1e-12 * np.abs(g_ref).max())


def test_update_rejects_a_singular_dropped_block(rng):
    w = np.linalg.inv(_random_pd(rng, 12))
    w[3, :] = w[:, 3] = 0.0           # dropped block [[0, 0], [0, w77]]
    kept = np.setdiff1d(np.arange(12), [3, 7])
    with pytest.raises(DegenerateUpdateError, match="dropped block"):
        shrink_inverse(w, _change(range(12), kept))
    s_a = np.ones((1, 11), dtype=complex)
    s_a[0, -1] = 10.0
    with pytest.raises(DegenerateUpdateError, match="dropped block"):
        grow_inverse(w, _change(range(12), np.r_[kept, 12]), s_a)


# -- reduced basis -------------------------------------------------------------

def test_restrict_full_set_recovers_pair(pair60):
    cells = CellSet(np.arange(pair60.n)[:, None])
    rb = restrict_basis(pair60, cells)
    np.testing.assert_allclose(rb.Sinv_tilde, pair60.Sinv, atol=1e-12)
    np.testing.assert_allclose(rb.Stilde, pair60.S, atol=1e-9)


def test_restrict_single_cell(pair60):
    rb = restrict_basis(pair60, CellSet([[17]]))
    bk = pair60.B[:, 17]
    assert rb.Stilde.shape == (1, 1)
    assert rb.Stilde[0, 0] == pytest.approx(1.0 / np.vdot(bk, bk).real, rel=1e-12)


def test_reduced_pair_biorthogonal(pair60, rng):
    cells = CellSet(np.sort(rng.choice(pair60.n, size=20, replace=False))[:, None])
    rb = restrict_basis(pair60, cells)
    gt = reduced_gaussians(rb)
    # oracle: right pseudo-inverse via SVD
    oracle = np.linalg.pinv(rb.Btilde).conj().T
    np.testing.assert_allclose(gt, oracle, atol=1e-9)
    np.testing.assert_allclose(gt.conj().T @ rb.Btilde, np.eye(20), atol=1e-9)


def test_reduced_gaussians_full_and_interior(pair48, rng):
    n = pair48.n
    all_cells = CellSet(np.arange(n)[:, None])
    rb = restrict_basis(pair48, all_cells)
    np.testing.assert_allclose(reduced_gaussians(rb), pair48.G, atol=1e-8)
    # keep a wide block: an interior Gaussian barely deforms
    lat = pair48.lattice
    block = CellSet([[lat.cell_index(a, b)] for a in range(3)
                     for b in range(2, 14)])
    rb2 = restrict_basis(pair48, block)
    gt = reduced_gaussians(rb2)
    interior = _position(block, (lat.cell_index(1, 8),))
    dev = np.abs(gt[:, interior] - pair48.G[:, lat.cell_index(1, 8)]).max()
    assert dev < 1e-3


def test_deformation_identity_boundary_cell(pair48, rng):
    cells = CellSet(np.sort(rng.choice(pair48.n, size=14, replace=False))[:, None])
    rb = restrict_basis(pair48, cells)
    gt = reduced_gaussians(rb)
    gbar, bbar = complementary_basis(pair48, cells)
    outside = [i for i in range(pair48.n) if (i,) not in cells]
    for col, (k,) in enumerate(cells):
        expect = pair48.G[:, k] - bbar @ pair48.S[outside, k]
        assert np.abs(gt[:, col] - expect).max() < 1e-8


def test_complementary_basis_orthogonality(pair60, rng):
    cells = CellSet(np.sort(rng.choice(pair60.n, size=18, replace=False))[:, None])
    rb = restrict_basis(pair60, cells)
    gbar, bbar = complementary_basis(pair60, cells)
    m = pair60.n - 18
    assert np.abs(gbar.conj().T @ rb.Btilde).max() < 1e-9
    np.testing.assert_allclose(gbar.conj().T @ bbar, np.eye(m), atol=1e-9)
    # direct sum: P + Pbar = identity on random states
    p = rb.Btilde @ reduced_gaussians(rb).conj().T
    pbar = bbar @ gbar.conj().T
    psi = rng.normal(size=pair60.n) + 1j * rng.normal(size=pair60.n)
    np.testing.assert_allclose(p @ psi + pbar @ psi, psi, atol=1e-8)


def test_complementary_requires_room(pair60):
    with pytest.raises(ValueError):
        complementary_basis(pair60, CellSet(np.arange(pair60.n)[:, None]))


def selection_matrix(n: int, cells: CellSet) -> np.ndarray:
    """0/1 matrix R with ``Btilde = B R``."""
    idx = cells.indices[:, 0]
    R = np.zeros((n, len(idx)))
    R[idx, np.arange(len(idx))] = 1.0
    return R


def coefficient_projector(rb: ReducedBasis, pair) -> np.ndarray:
    """Projector onto the reduced subspace in dual-coefficient coordinates.

    ``P = R Stilde R^H Sinv``; idempotent of rank n_active, and equal to the
    similarity transform of ``Btilde Gtilde^H`` into coefficient space.
    """
    R = selection_matrix(pair.n, rb.cells)
    return R @ rb.Stilde @ R.conj().T @ pair.Sinv


def test_coefficient_projector(pair60, rng):
    full = restrict_basis(pair60, CellSet(np.arange(pair60.n)[:, None]))
    np.testing.assert_allclose(coefficient_projector(full, pair60),
                               np.eye(pair60.n), atol=1e-8)
    cells = CellSet(np.sort(rng.choice(pair60.n, size=15, replace=False))[:, None])
    rb = restrict_basis(pair60, cells)
    p = coefficient_projector(rb, pair60)
    np.testing.assert_allclose(p @ p, p, atol=1e-8)
    # composed route: transform the grid-space projector into coefficients
    proj_grid = rb.Btilde @ reduced_gaussians(rb).conj().T
    composed = scipy.linalg.solve(pair60.B, proj_grid @ pair60.B)
    np.testing.assert_allclose(p, composed, atol=1e-8)
    rank = int(np.sum(scipy.linalg.svdvals(p) > 1e-8))
    assert rank == 15


@pytest.mark.parametrize("ndof,read", [(1, True), (2, True), (1, False),
                                       (2, False)],
                         ids=["1", "2", "1-never-read", "2-never-read"])
def test_incremental_updates_match_fresh(ndof, read, pair48, pair60, rng):
    # on two axes the kept and added rows interleave in the canonical order;
    # an eigenmode search never reads Stilde, a propagation reads it at once
    product = ProductBasis(pair60) if ndof == 1 else ProductBasis((pair48,) * 2)
    universe = list(itertools.product(*(range(p.n) for p in product.pairs)))
    start = rng.choice(len(universe), size=22, replace=False)
    rb = ReducedBasis.create(product, CellSet([universe[k] for k in start],
                                              ndof=ndof))
    for step in range(20):
        current = set(map(tuple, rb.cells.indices.tolist()))
        outside = [c for c in universe if c not in current]
        add = [outside[k] for k in rng.choice(len(outside), size=3, replace=False)]
        inside = sorted(current)
        drop = [inside[k] for k in rng.choice(len(inside), size=2, replace=False)]
        new = sorted((current - set(drop)) | set(add))
        added, removed = rb.update(cell_change(rb.cells, CellSet(new, ndof=ndof)))
        assert sorted(added) == sorted(add) and sorted(removed) == sorted(drop)
        # the carried overlap is the fresh one, bit for bit
        assert np.array_equal(rb.Sinv_tilde, product.overlap(rb.cells, rb.cells))
        if read:
            fresh = np.linalg.inv(rb.Sinv_tilde)
            assert np.abs(rb.Stilde - fresh).max() < 1e-8
            assert np.abs(rb.Stilde @ rb.Sinv_tilde - np.eye(rb.n)).max() < 1e-8
    if not read:
        assert rb._stilde is None
        np.testing.assert_allclose(rb.Stilde @ rb.Sinv_tilde, np.eye(rb.n),
                                   atol=1e-8)


def test_update_noop_and_embedding(pair60):
    product = ProductBasis(pair60)
    cells = CellSet(np.arange(8)[:, None])
    rb = ReducedBasis.create(product, cells)
    st = rb.Stilde.copy()
    added, removed = rb.update(cell_change(cells, cells))
    assert len(added) == 0 and len(removed) == 0
    np.testing.assert_allclose(rb.Stilde, st)


@pytest.mark.parametrize("ndof", [1, 2, 3])
def test_carried_generator_matches_stilde_times_block(ndof, pair48, pair60,
                                                      monkeypatch):
    # drift, a position block that two control terms share and a momentum
    # block, staged on the basis and carried through 100 random updates
    # (grow-only, shrink-only, mixed, one no-op), none of which forms the
    # inverse from scratch
    import vngrid.reduced_space as reduced_space
    from vngrid import models
    from vngrid.hamiltonian import OperatorSpec, ReducedHamiltonian

    small = build_basis_pair(build_lattice(build_grid(6.0, 12), 3, 4))
    product = ProductBasis({1: (pair60,), 2: (pair48,) * 2,
                            3: (small,) * 3}[ndof])
    grids = product.grids
    pos = models.position_coupling(grids)
    spec = dataclasses.replace(OperatorSpec.build(
        grids, potentials=tuple(0.5 * g.centered_points ** 2 for g in grids)),
        control_terms=(pos, pos, models.momentum_coupling(grids)))
    rng = np.random.default_rng(ndof)
    universe = np.array(list(itertools.product(*(range(p.n)
                                                 for p in product.pairs))))
    cells = CellSet(universe[rng.choice(len(universe), 30, replace=False)],
                    ndof=ndof)
    rb = ReducedBasis.create(product, cells)
    ham = ReducedHamiltonian(spec, product, cells)
    assert len(ham.blocks) == 3
    rb.stage(list(ham.blocks))
    refreshes = []
    real_fresh = reduced_space._fresh_inverse

    def counted_fresh(*args, **kwargs):
        refreshes.append(step)
        return real_fresh(*args, **kwargs)

    monkeypatch.setattr(reduced_space, "_fresh_inverse", counted_fresh)
    worst = 0.0
    for step in range(100):
        current = rb.cells.indices
        if step == 10:
            kind = "none"
        elif len(current) > 45:
            kind = "shrink"
        elif len(current) < 20:
            kind = "grow"
        else:
            kind = ("grow", "shrink", "mixed")[step % 3]
        keep = np.ones(len(current), dtype=bool)
        if kind in ("shrink", "mixed"):
            keep[rng.choice(len(current), rng.integers(1, 5), replace=False)] = False
        rows = [current[keep]]
        if kind in ("grow", "mixed"):
            inside = set(map(tuple, current.tolist()))
            outside = [i for i, c in enumerate(universe.tolist())
                       if tuple(c) not in inside]
            rows.append(universe[rng.choice(outside, rng.integers(1, 5),
                                            replace=False)])
        new_cells = CellSet(np.concatenate(rows), ndof=ndof)
        change = cell_change(rb.cells, new_cells)
        rb.update(change, ham.rows(change.added, change.new))
        ham.update(change)              # the full blocks, for the reference
        assert len(rb.generators) == 3
        for g, h in zip(rb.generators, ham.blocks):
            ref = rb.Stilde @ h
            worst = max(worst, np.abs(g - ref).max() / np.abs(ref).max())
    # 99 changes, each one block update (the no-op makes none)
    assert refreshes == []
    assert worst <= 1e-12


def test_update_takes_one_row_block_per_staged_generator(pair60):
    # rows passed to an unstaged basis, and a staged basis updated without
    # rows or with the wrong number of row blocks, raise before anything
    # changes; the right rows then carry each generator
    product = ProductBasis(pair60)
    rb = ReducedBasis.create(product, CellSet(np.arange(8)[:, None]))
    change = cell_change(rb.cells, CellSet(np.arange(1, 9)[:, None]))
    h = product.overlap(rb.cells, rb.cells)        # a Hermitian block
    h_a = product.overlap(change.added, change.new)
    cells = rb.cells
    with pytest.raises(ValueError, match="one row block per staged"):
        rb.update(change, [h_a])
    assert rb.generators == []
    rb.stage([h, 2.0 * h])
    generators = list(rb.generators)
    for rows in ((), ([h_a],), ([h_a] * 3,)):     # none, too few, too many
        with pytest.raises(ValueError, match="one row block per staged"):
            rb.update(change, *rows)
    assert rb.cells is cells
    assert all(g is before for g, before in zip(rb.generators, generators))
    rb.update(change, [h_a, 2.0 * h_a])
    h_new = product.overlap(rb.cells, rb.cells)
    for g, scale in zip(rb.generators, (1.0, 2.0)):
        np.testing.assert_allclose(g, scale * rb.Stilde @ h_new, rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("failure", ["schur", "dropped"])
def test_failed_update_leaves_basis_and_pairs_untouched(failure, pair60,
                                                        monkeypatch, rng):
    # a change that drops and adds cells fails in one of its two
    # factorizations: the cells, both overlaps and every staged generator
    # stay the objects (and the values) they were
    import vngrid.reduced_space as reduced_space

    product = ProductBasis(pair60)
    rb = ReducedBasis.create(product, CellSet(np.arange(10, 30)[:, None]))
    new_cells = CellSet(np.r_[5, 10:12, 13:20, 21:30, 31][:, None])
    change = cell_change(rb.cells, new_cells)
    assert len(change.removed) == 2 and len(change.added) == 2 and change.fresh[0]
    blocks = [(_random_pd(rng, 20), _random_pd(rng, 20)) for _ in range(2)]
    rb.stage([b for b, _ in blocks])
    rows = [h[change.fresh_rows] for _, h in blocks]
    if failure == "schur":
        # the first added cell's overlap duplicates that of kept cell 15,
        # with its diagonal nudged below: the Schur complement is negative
        real = product.overlap

        def duplicated(rows, cols):
            out = real(rows, cols)
            j = _position(cols, (15,))
            out[0] = real(CellSet([[15]]), cols)[0]
            out[0, 0] = out[0, j] * (1 - 1e-6)
            return out

        monkeypatch.setattr(product, "overlap", duplicated)
        match = "Schur complement"
    else:
        real_solve = reduced_space._pd_solve

        def failing(a, b, message):
            if "dropped" in message:
                raise DegenerateUpdateError(message)
            return real_solve(a, b, message)

        monkeypatch.setattr(reduced_space, "_pd_solve", failing)
        match = "dropped"
    cells, sinv, stilde = rb.cells, rb.Sinv_tilde, rb.Stilde
    values = (sinv.copy(), stilde.copy())
    generators = list(rb.generators)
    copies = [g.copy() for g in generators]
    with pytest.raises(DegenerateUpdateError, match=match):
        rb.update(change, rows)
    assert rb.cells is cells and rb.Sinv_tilde is sinv and rb.Stilde is stilde
    assert np.array_equal(sinv, values[0]) and np.array_equal(stilde, values[1])
    assert len(rb.generators) == 2
    for g, before, copy in zip(rb.generators, generators, copies):
        assert g is before and np.array_equal(g, copy)


def test_selection_matrix(pair60):
    cells = CellSet([[2], [5]])
    r = selection_matrix(pair60.n, cells)
    np.testing.assert_allclose(r.T @ r, np.eye(2))
    np.testing.assert_allclose(pair60.B @ r, pair60.B[:, [2, 5]])


# -- product basis (two axes) ---------------------------------------------------

def test_product_overlap_factorizes(pair48, rng):
    product = ProductBasis((pair48, pair48))
    cells = CellSet(rng.integers(0, pair48.n, size=(10, 2)))
    ov = product.overlap(cells, cells)
    bt = product.dual_columns(cells)
    np.testing.assert_allclose(ov, bt.conj().T @ bt, atol=1e-10)


def test_product_reduced_basis_matches_dense(pair48, rng):
    product = ProductBasis((pair48, pair48))
    cells = CellSet(rng.integers(0, pair48.n, size=(12, 2)))
    rb = ReducedBasis.create(product, cells)
    bt = product.dual_columns(rb.cells)
    dense = np.linalg.inv(bt.conj().T @ bt)
    np.testing.assert_allclose(rb.Stilde, dense, atol=1e-8)
    psi = rng.normal(size=rb.n) + 1j * rng.normal(size=rb.n)
    assert rb.physical_norm(psi) == pytest.approx(
        np.linalg.norm(bt @ psi), rel=1e-10)


def _ix_overlap(product, rows, cols):
    """``ProductBasis.overlap`` with every per-axis block taken by ``np.ix_``."""
    def contract(ri, ci):
        out = np.ones((len(ri), len(ci)), dtype=complex)
        for k, pair in enumerate(product.pairs):
            out *= pair.Sinv[np.ix_(ri[:, k], ci[:, k])]
        return out
    return product.entries(contract, rows, cols)


def _loop_reconstruct(product, cells, coeffs):
    """``ProductBasis.reconstruct`` as a sum over the lattice cells of each
    coefficient times the cell's Kronecker-product column."""
    cells, coeffs = product.unfold(cells, coeffs)
    psi = np.zeros([g.N for g in product.grids], dtype=complex)
    for j, cell in enumerate(cells):
        term = product.pairs[0].B[:, cell[0]] * coeffs[j]
        for k in range(1, product.ndof):
            term = np.multiply.outer(term, product.pairs[k].B[:, cell[k]])
        psi += term
    return psi.ravel()


@pytest.mark.parametrize("model", ["harmonic", "helium", "helium-folded",
                                   "three-axis"])
def test_overlap_equals_its_ix_form(model, ho_model, he_model, rng):
    # and the grid maps equal their per-cell forms: the dual columns form
    # np.kron's products, so their bits; reconstruct sums in another order
    if model == "three-axis":
        small = build_basis_pair(build_lattice(build_grid(6.0, 12), 3, 4))
        product = ProductBasis((small,) * 3)
    else:
        product = ho_model.product if model == "harmonic" else he_model.product
    if model == "helium-folded":
        product = product.folded()
    n = product.pairs[0].n
    rows, cols = (product.representatives(CellSet(
        rng.integers(n, size=(size, product.ndof)))) for size in (40, 70))
    assert np.array_equal(product.overlap(rows, cols),
                          _ix_overlap(product, rows, cols))
    kron = np.array([functools.reduce(np.kron, [p.B[:, c] for p, c in
                                                zip(product.pairs, cell)])
                     for cell in product.lattice_cells(rows)])
    assert np.array_equal(product.dual_columns(rows),
                          product.restrict(rows, kron).T)
    c = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    ref = _loop_reconstruct(product, rows, c)
    assert (np.abs(product.reconstruct(rows, c) - ref).max()
            <= 1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("n", [55, 499])
def test_physical_norm_has_the_bits_of_the_numpy_form(n, ho_model, he_model,
                                                      rng):
    product = ho_model.product if n == 55 else he_model.product
    universe = np.array(list(itertools.product(*(range(p.n)
                                                 for p in product.pairs))))
    cells = CellSet(universe[rng.choice(len(universe), n, replace=False)],
                    ndof=product.ndof)
    rb = ReducedBasis.create(product, cells)
    assert rb.n == n
    for _ in range(5):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert rb.physical_norm(c) == float(np.sqrt(max(0.0, np.real(
            np.vdot(c, rb.Sinv_tilde @ c)))))


# -- exchange fold ------------------------------------------------------------------

def _random_orbits(rng, folded, size=30):
    n = folded.pairs[0].n
    return folded.representatives(CellSet(rng.integers(n, size=(size, 2))))


def test_fold_needs_two_axes_sharing_one_pair(pair48, pair60):
    with pytest.raises(ValueError, match="sharing one basis pair"):
        ProductBasis(pair60).folded()
    with pytest.raises(ValueError, match="sharing one basis pair"):
        ProductBasis((pair60, build_basis_pair(pair60.lattice))).folded()
    folded = ProductBasis((pair60, pair60)).folded()
    with pytest.raises(ValueError, match="representatives"):
        ReducedBasis.create(folded, CellSet([[3, 1]]))


def test_fold_unfold_and_restrict_round_trip(pair60, rng):
    folded = ProductBasis((pair60, pair60)).folded()
    reps = _random_orbits(rng, folded)
    reps = CellSet(np.vstack([reps.indices, [[7, 7], [9, 9]]]))
    cells = folded.lattice_cells(reps)
    diag = int(np.count_nonzero(reps.indices[:, 0] == reps.indices[:, 1]))
    assert len(cells) == folded.lattice_count(reps) == 2 * len(reps) - diag
    assert folded.representatives(cells) == reps
    c = rng.normal(size=(len(reps), 2)) + 1j * rng.normal(size=(len(reps), 2))
    unfolded_cells, u = folded.unfold(reps, c)
    assert unfolded_cells == cells
    # both cells of an orbit carry c / w, and the embedding is isometric
    mirror = [_position(cells, (b, a)) for a, b in cells]
    np.testing.assert_array_equal(u, u[mirror])
    np.testing.assert_allclose(np.linalg.norm(u, axis=0),
                               np.linalg.norm(c, axis=0), rtol=1e-14)
    np.testing.assert_allclose(folded.restrict(reps, u), c, rtol=1e-14)


def test_folded_bookkeeping_matches_the_swap_closure(pair60, rng):
    folded = ProductBasis((pair60, pair60)).folded()
    lattices, fold = folded.lattices, folded.fold
    reps = _random_orbits(rng, folded, size=60)
    for _ in range(2):
        cells = folded.lattice_cells(reps)
        grown = expand_cells(reps, lattices, fold=fold)
        assert grown == folded.representatives(expand_cells(cells, lattices))
        at = cell_change(cells, reps).kept
        np.testing.assert_array_equal(
            boundary_mask(reps, lattices, fold=fold),
            boundary_mask(cells, lattices)[at])
        reps = grown


def test_folded_amplitudes_are_unfolded(pair60):
    folded = ProductBasis((pair60, pair60)).folded()
    reps = CellSet([[4, 4], [4, 5]])
    rb = ReducedBasis.create(folded, reps)
    assert rb.n == 2 and rb.n_lattice == 3
    np.testing.assert_allclose(rb.amplitudes(np.array([1.0, 1.0])),
                               [1.0, np.sqrt(0.5)], rtol=1e-15)
    np.testing.assert_allclose(
        rb.amplitudes(np.array([[1.0, 2.0], [3.0, 4.0]]), [False, True]),
        [[3.0 / np.sqrt(2.0), 4.0 / np.sqrt(2.0)]], rtol=1e-15)


def test_folded_dual_columns_span_the_symmetric_sector(pair60, rng):
    folded = ProductBasis((pair60, pair60)).folded()
    reps = _random_orbits(rng, folded, size=12)
    rb = ReducedBasis.create(folded, reps)
    bt = rb.Btilde
    np.testing.assert_allclose(bt.conj().T @ bt, rb.Sinv_tilde, atol=1e-13)
    n = pair60.grid.N
    cols = bt.reshape(n, n, -1)
    np.testing.assert_allclose(cols, cols.transpose(1, 0, 2), atol=1e-15)
    c = rng.normal(size=len(reps)) + 1j * rng.normal(size=len(reps))
    np.testing.assert_allclose(folded.reconstruct(reps, c), bt @ c, atol=1e-13)
