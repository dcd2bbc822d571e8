"""Periodized Gaussian lattice and its biorthogonal (dual) basis.

A von Neumann lattice places one Gaussian per phase-space cell of area
``2*pi*hbar``: ``Nx`` positions times ``Np`` momenta with ``Nx*Np = N``,
covering exactly the rectangle spanned by an N-point Fourier grid.  Each
basis function is the periodized, momentum-boosted Gaussian

    g(x) = (2*pi*sigma_x^2)^(-1/4) * sum_m exp(-((y + m*L)/(2*sigma_x))^2)
           * exp(i*pbar*y),        y = mod_L(x - xbar),

sampled at the grid points (collocation).  Lattice sites are aligned with
the grid: every ``xbar`` is a sample point and every ``pbar`` a spectral
frequency, which makes the sampled basis an exact discrete Gabor family
(every column is a roll/modulation of a single window).

The Gaussians are linearly independent but not orthogonal.  Expansions use
the pair of biorthogonal bases: the Gaussian family ``G`` supplies the bras
and its dual family ``B`` the kets,

    psi = sum_j <g_j|psi> |b_j>,

so the coefficient vector ``<g_j|psi>`` is phase-space local and sparse for
localized states, while its modulus squared equals the Husimi density at
the lattice points.

Storage convention: basis matrices hold columns scaled by ``sqrt(dx)``
(the orthonormal-cardinal representation), so biorthogonality and
completeness are plain matrix identities, ``G^H B = B G^H = 1``, with no
explicit quadrature weights.  Raw sample values are available through
:func:`gaussian_column`.

Conditioning caveat: at critical sampling the Gaussian overlap matrix
``S = G^H G`` is exactly singular whenever ``Nx`` and ``Np`` are both even
(the discrete Zak transform of an even window has a zero that lands on a
lattice sample).  Choose a lattice with one odd dimension; the condition
number then grows roughly with the square of the odd factor.
:func:`build_basis_pair` rejects ill-conditioned lattices.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .errors import IllConditionedBasisError
from .fourier_grid import HBAR, FourierGrid

_N_IMAGES = 3  # periodization images; exact at double precision for sigma < L/6
COND_LIMIT = 1e12  # largest accepted condition number of an overlap matrix


@dataclasses.dataclass(frozen=True)
class VonNeumannLattice:
    """Rectangular phase-space lattice aligned with a Fourier grid.

    Cell ``i = a*Np + b`` sits at ``(x_centers[a], p_centers[b])``; the
    canonical ordering is row-major over (position index, momentum index).

    ``dx_lat * dp_lat = 2*pi*hbar``: one Planck cell per basis function.
    """

    grid: FourierGrid
    Nx: int
    Np: int
    sigma_x: float
    dx_lat: float = dataclasses.field(init=False)
    dp_lat: float = dataclasses.field(init=False)
    x_centers: np.ndarray = dataclasses.field(init=False, repr=False)
    p_centers: np.ndarray = dataclasses.field(init=False, repr=False)
    momentum_indices: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        g = self.grid
        if self.Nx < 1 or self.Np < 1 or self.Nx * self.Np != g.N:
            raise ValueError(
                f"lattice {self.Nx}x{self.Np} does not tile an N={g.N} grid")
        if g.N % self.Nx != 0 or g.N % self.Np != 0:
            raise ValueError("lattice dimensions must divide the grid size")
        if not self.sigma_x > 0:
            raise ValueError("sigma_x must be positive")
        object.__setattr__(self, "dx_lat", g.L / self.Nx)
        object.__setattr__(self, "dp_lat", HBAR * 2.0 * g.K / self.Np)
        x_centers = g.sample_points[:: self.Np].copy()
        # momentum sublattice: every Nx-th spectral index, spanning the band
        blo = math.ceil((-g.n_max + 1) / self.Nx)
        bhi = g.n_max // self.Nx
        nvals = self.Nx * np.arange(blo, bhi + 1)
        if nvals.size != self.Np:
            raise ValueError("momentum sublattice does not fit the spectral band")
        p_centers = HBAR * 2.0 * np.pi * nvals / g.L
        for arr in (x_centers, p_centers, nvals):
            arr.flags.writeable = False
        object.__setattr__(self, "x_centers", x_centers)
        object.__setattr__(self, "p_centers", p_centers)
        object.__setattr__(self, "momentum_indices", nvals)

    @property
    def n_cells(self) -> int:
        return self.Nx * self.Np

    @property
    def p_zero_index(self) -> int:
        """Momentum row of ``pbar = 0`` (always present by construction)."""
        idx = np.where(self.momentum_indices == 0)[0]
        if idx.size == 0:
            raise ValueError("lattice has no zero-momentum row")
        return int(idx[0])

    def cell_index(self, a: int, b: int) -> int:
        return a * self.Np + b

    def cell_coords(self, i: int) -> tuple[int, int]:
        return divmod(int(i), self.Np)


def balanced_sigma(grid: FourierGrid, Nx: int, Np: int) -> float:
    """Width giving equal relative extent in x and p: sqrt(hbar*dx/(2*dp))."""
    dx_lat = grid.L / Nx
    dp_lat = HBAR * 2.0 * grid.K / Np
    return math.sqrt(HBAR * dx_lat / (2.0 * dp_lat))


def build_lattice(grid: FourierGrid, Nx: int, Np: int,
                  sigma_x: float | None = None) -> VonNeumannLattice:
    """Construct an aligned lattice; ``sigma_x`` defaults to the balanced width."""
    if sigma_x is None:
        sigma_x = balanced_sigma(grid, Nx, Np)
    return VonNeumannLattice(grid=grid, Nx=Nx, Np=Np, sigma_x=float(sigma_x))


def gaussian_window(lattice: VonNeumannLattice) -> np.ndarray:
    """Periodized Gaussian envelope sampled at offsets ``y_r = r*dx``, r=0..N-1."""
    g = lattice.grid
    y = g.dx * np.arange(g.N)
    s = lattice.sigma_x
    pref = (2.0 * np.pi * s * s) ** -0.25
    win = np.zeros(g.N)
    for m in range(-_N_IMAGES, _N_IMAGES + 1):
        win += pref * np.exp(-((y + m * g.L) / (2.0 * s)) ** 2)
    return win


def gaussian_column(lattice: VonNeumannLattice, i: int) -> np.ndarray:
    """Raw samples of lattice Gaussian ``i`` at the grid points.

    The offsets ``mod_L(x_j - xbar)`` land exactly on grid offsets, so the
    column is an index roll of the window times the momentum phase
    ``exp(i*pbar*mod_L(x_j - xbar)/hbar)``.
    """
    if not 0 <= i < lattice.n_cells:
        raise IndexError(f"cell index {i} out of range")
    g = lattice.grid
    a, b = lattice.cell_coords(i)
    r = np.mod(np.arange(g.N) - a * lattice.Np, g.N)
    win = gaussian_window(lattice)
    return win[r] * _modulation(g.N, int(lattice.momentum_indices[b]), r)


def _modulation(N: int, n: int, r: np.ndarray) -> np.ndarray:
    """Exact unit phases exp(2 pi i n r / N) via integer reduction mod N.

    Arguments n*r can reach ~1e4 radians; reducing the integer first keeps
    every stored basis phase accurate to machine epsilon.
    """
    whole = np.mod(n * r, N)
    whole = np.where(whole > N // 2, whole - N, whole)
    return np.exp(2j * np.pi * whole / N)


def _gabor_matrix(lattice: VonNeumannLattice, window: np.ndarray,
                  n_offsets: np.ndarray) -> np.ndarray:
    """Assemble all N columns as rolls/modulations of one window vector.

    ``n_offsets`` are integer spectral indices: column (a, b) is
    ``roll(window * exp(2 pi i n_b r / N), a * Np)``.
    """
    g = lattice.grid
    N, Np, Nx = g.N, lattice.Np, lattice.Nx
    r = np.arange(N)
    out = np.empty((N, N), dtype=complex)
    for b, n in enumerate(n_offsets):
        base = window * _modulation(N, int(n), r)
        for a in range(Nx):
            out[:, a * Np + b] = np.roll(base, a * Np)
    return out


def hermitize(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2``, with one transposed read (the bits of the plain
    expression, about 3x faster on large matrices)."""
    out = np.conj(m.T, order="C")
    out += m
    out *= 0.5
    return out


@dataclasses.dataclass(frozen=True)
class BasisPair:
    """Gaussian basis ``G``, its dual ``B``, and the overlap matrices.

    All matrices are stored in the sqrt(dx)-weighted representation, so

        ``G^H B = 1``,  ``B G^H = 1``,  ``S = G^H G``,  ``Sinv = B^H B``,
        ``B = G S^-1``, ``G = B S``

    hold as plain matrix identities.  ``B`` is assembled Gabor-covariantly
    from its dual window (mathematically identical to ``G @ Sinv``), which
    keeps every column an exact roll/modulation of one vector; lattice
    symmetries of matrix elements then hold to rounding, not merely to the
    solver tolerance.
    """

    lattice: VonNeumannLattice
    G: np.ndarray
    B: np.ndarray
    S: np.ndarray
    Sinv: np.ndarray
    cond_S: float

    @property
    def grid(self) -> FourierGrid:
        return self.lattice.grid

    @property
    def n(self) -> int:
        return self.lattice.n_cells


def build_basis_pair(lattice: VonNeumannLattice) -> BasisPair:
    """Build the biorthogonal pair for a lattice.

    Raises
    ------
    IllConditionedBasisError
        If ``cond(S)`` exceeds :data:`COND_LIMIT`.  In particular any critical
        lattice with both dimensions even is exactly singular.
    """
    g = lattice.grid
    win = gaussian_window(lattice) * np.sqrt(g.dx)
    n_lat = lattice.momentum_indices
    G = _gabor_matrix(lattice, win, n_lat)
    S = hermitize(G.conj().T @ G)
    cond = float(np.linalg.cond(S))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedBasisError(
            f"Gaussian overlap matrix is ill-conditioned "
            f"(cond ~ {cond:.2e} > {COND_LIMIT:.0e}) for lattice "
            f"{lattice.Nx}x{lattice.Np}; both dimensions even makes the "
            f"critical lattice singular, and an oversized sigma_x has the "
            f"same effect.",
            cond=cond, size=g.N)
    c, low = scipy.linalg.cho_factor(S)
    Sinv0 = scipy.linalg.cho_solve((c, low), np.eye(g.N, dtype=complex))
    b_ref = lattice.p_zero_index
    dual_window_col = (G @ Sinv0)[:, lattice.cell_index(0, b_ref)]
    B = _gabor_matrix(lattice, dual_window_col, n_lat - n_lat[b_ref])
    Sinv = hermitize(B.conj().T @ B)
    for arr in (G, B, S, Sinv):
        arr.flags.writeable = False
    return BasisPair(lattice=lattice, G=G, B=B, S=S, Sinv=Sinv, cond_S=cond)


def analyze(pair: BasisPair, psi: np.ndarray) -> np.ndarray:
    """Phase-space coefficients ``<g_i|psi>`` of a raw sampling vector."""
    psi = np.asarray(psi, dtype=complex)
    return pair.G.conj().T @ psi * np.sqrt(pair.grid.dx)


def synthesize(pair: BasisPair, coeffs: np.ndarray) -> np.ndarray:
    """Reconstruct the raw sampling vector from phase-space coefficients."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return pair.B @ coeffs / np.sqrt(pair.grid.dx)


def transform_operator(pair: BasisPair, op: np.ndarray) -> np.ndarray:
    """Similarity transform of a grid operator into dual-basis coordinates.

    ``O_B = B^-1 O B`` preserves the spectrum; for a Hermitian grid operator
    the result is similar to Hermitian (real eigenvalues, unitary evolution).
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (pair.n, pair.n):
        raise ValueError(f"operator shape {op.shape} != {(pair.n, pair.n)}")
    return scipy.linalg.solve(pair.B, op @ pair.B)
