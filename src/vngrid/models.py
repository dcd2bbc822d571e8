"""Built-in model systems.

Model potentials are expressed in box-centered coordinates ``xc = x - L/2``
so that symmetric potentials sit in the middle of the periodic box; output
files report centered positions for the same reason.

Lattice conditioning note: pick lattices with one odd dimension.  At
critical sampling an even-by-even Gaussian lattice has an exactly singular
overlap matrix and is rejected by the basis builder.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .fourier_grid import FourierGrid, build_grid
from .hamiltonian import OperatorSpec, SopFit, potfit2
from .reduced_space import ProductBasis
from .vn_basis import build_basis_pair, build_lattice

HELIUM_REGULARIZER = 0.739707902  # softening that matches the physical binding


@dataclasses.dataclass
class ModelSystem:
    """A ready-to-solve model: grids, lattices, basis pairs, operator."""

    product: ProductBasis
    spec: OperatorSpec
    sop_fit: SopFit | None = None

    @property
    def grids(self):
        return self.product.grids

    @property
    def lattices(self):
        return self.product.lattices

    @property
    def pairs(self):
        return self.product.pairs


def _axis(L, N, Nx, Np, sigma_x):
    """The grid of one axis and the basis pair of its lattice."""
    grid = build_grid(L, N)
    return grid, build_basis_pair(build_lattice(grid, Nx, Np, sigma_x))


def harmonic(L=24.0, N=120, Nx=8, Np=15, mass=1.0, omega=1.0,
             sigma_x=None) -> ModelSystem:
    """1D harmonic oscillator ``V = m omega^2 xc^2 / 2``."""
    grid, pair = _axis(L, N, Nx, Np, sigma_x)
    xc = grid.centered_points
    spec = OperatorSpec.build(
        (grid,), masses=(mass,),
        potentials=(0.5 * mass * omega ** 2 * xc ** 2,))
    return ModelSystem(ProductBasis(pair), spec)


def double_well(L=80.0, N=160, Nx=5, Np=32, mass=1.0, omega=1.0,
                barrier=20.0, half_separation=22.0,
                sigma_x=None) -> ModelSystem:
    """Symmetric quartic double well.

    ``V(xc) = m omega^2 b ((xc/d)^2 - 1)^2`` with barrier height ``b`` at
    the origin and degenerate minima ``V(+-d) = 0``.
    """
    grid, pair = _axis(L, N, Nx, Np, sigma_x)
    u = (grid.centered_points / half_separation) ** 2 - 1.0
    spec = OperatorSpec.build(
        (grid,), masses=(mass,),
        potentials=(mass * omega ** 2 * barrier * u ** 2,))
    return ModelSystem(ProductBasis(pair), spec)


def helium_1d(L=15.0, N=60, Nx=5, Np=12, a0=HELIUM_REGULARIZER,
              sop_tolerance=1e-6, sigma_x=None) -> ModelSystem:
    """Two electrons on a line with a softened Coulomb interaction.

    ``H = sum_i [p_i^2/2 - 2 / sqrt(xc_i^2 + a0^2)]
         + 1 / sqrt((xc_1 - xc_2)^2 + a0^2)``

    in atomic units (nuclear charge 2).  The electron-electron term is
    decomposed into a sum of products before assembly; both axes share one
    basis pair, so exchange-symmetric matrix elements are cached once.

    The table is exactly symmetric, so every sum-of-products term has equal
    factors on both axes, and the Hamiltonian (with ``position_coupling`` or
    ``momentum_coupling`` pulses) commutes with the swap of the electrons
    (:attr:`~vngrid.hamiltonian.OperatorSpec.exchange_symmetric`).
    ``product.folded()`` (:meth:`~vngrid.reduced_space.ProductBasis.folded`)
    then carries the exchange-symmetric sector on one row per swap orbit: a
    folded coefficient ``c`` stands for ``c / sqrt 2`` at both cells of an
    off-diagonal orbit and for ``c`` on the diagonal.  ``vngrid tdse`` runs
    helium folded.
    """
    grid, pair = _axis(L, N, Nx, Np, sigma_x)
    xc = grid.centered_points
    v_nuc = -2.0 / np.sqrt(xc ** 2 + a0 ** 2)
    v_int = 1.0 / np.sqrt((xc[:, None] - xc[None, :]) ** 2 + a0 ** 2)
    fit = potfit2(v_int, sop_tolerance)
    spec = OperatorSpec.build(
        (grid, grid), masses=(1.0, 1.0),
        potentials=(v_nuc, v_nuc),
        sop_terms=fit.terms)
    return ModelSystem(ProductBasis((pair, pair)), spec, sop_fit=fit)


def tabulated(x_table, v_table, L, N, Nx, Np, mass=1.0,
              sigma_x=None) -> ModelSystem:
    """1D model with a potential interpolated from a table in xc coordinates."""
    grid, pair = _axis(L, N, Nx, Np, sigma_x)
    v = np.interp(grid.centered_points, np.asarray(x_table, float),
                  np.asarray(v_table, float))
    spec = OperatorSpec.build((grid,), masses=(mass,), potentials=(v,))
    return ModelSystem(ProductBasis(pair), spec)


def position_coupling(grids, scale=1.0) -> OperatorSpec:
    """Dipole-type coupling ``scale * sum_i xc_i`` (driven by a pulse)."""
    return OperatorSpec(
        grids=tuple(grids),
        kinetic=(None,) * len(grids),
        potentials=tuple(scale * g.centered_points for g in grids))


def momentum_coupling(grids, scale=1.0) -> OperatorSpec:
    """Momentum-kick coupling ``scale * sum_i p_i``."""
    return OperatorSpec(
        grids=tuple(grids),
        kinetic=tuple(scale * g.fft_wavenumbers() for g in grids),
        potentials=(None,) * len(grids))


def coherent_state(grid: FourierGrid, x0: float, p0: float,
                   sigma: float) -> np.ndarray:
    """Raw samples of a periodized Gaussian wavepacket at (x0, p0) in xc.

    Normalized to unit physical norm on the grid.
    """
    y = grid.centered_points - x0
    y = y - grid.L * np.round(y / grid.L)
    psi = np.zeros(grid.N, dtype=complex)
    for m in range(-2, 3):
        z = y + m * grid.L
        psi += np.exp(-(z / (2.0 * sigma)) ** 2 + 1j * p0 * z)
    psi /= np.sqrt(grid.dx * np.sum(np.abs(psi) ** 2))
    return psi
