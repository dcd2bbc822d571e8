"""Adaptive phase-space quantum dynamics on a periodized von Neumann lattice.

States live on a pseudospectral Fourier grid and are expanded over the
basis biorthogonal to a lattice of periodized Gaussians; the expansion
coefficients are phase-space local, so the active basis can be pruned to
the occupied region of phase space with a single amplitude cutoff.  The
package provides the basis machinery, symmetry-cached reduced Hamiltonians
with incremental inverse updates, an adaptive eigenmode solver, and a
Taylor propagator with a multi-factor step controller.
"""

from .errors import (ConfigError, ConvergenceError, DegenerateUpdateError,
                     IllConditionedBasisError, TimestepUnderflowError)
from .fourier_grid import FourierGrid, build_grid, cardinal, dirichlet_kernel
from .vn_basis import (BasisPair, VonNeumannLattice, analyze, balanced_sigma,
                       build_basis_pair, build_lattice, gaussian_column,
                       synthesize, transform_operator)
from .reduced_space import (CellSet, ProductBasis, ReducedBasis, cell_change,
                            complementary_basis, embed_coefficients,
                            expand_cells, grow_inverse, prune_cells,
                            reduced_gaussians, restrict_basis)
from .hamiltonian import (ElementCache, OperatorSpec, ReducedHamiltonian,
                          SopFit, SopTerm, dense_grid_hamiltonian, potfit2)
from .solvers import (EigenResult, TiseConfig, lattice_potential,
                      reference_full_eig, seed_cells, solve_reduced_eig,
                      tise_adaptive)
from .dynamics import (ControlPulse, PropagationConfig, Trajectory,
                       expm_propagate, max_timestep, midpoint_timestep,
                       project_state, taylor_step, tdse_adaptive)
from . import models

__version__ = "0.1.0"
