"""Pseudospectral Fourier grid.

The discrete Hilbert space consists of band-limited periodic functions on
``x in [0, L)`` sampled at ``N`` equidistant points ``x_j = j*L/N``.
Two orthogonal bases span the same space:

* the spectral basis ``phi_n(x) = exp(i*k_n*x)/sqrt(L)`` with
  ``k_n = 2*pi*n/L`` and ``n = -N/2+1, ..., N/2``,
* the cardinal (periodic sinc) basis ``theta_m``, which satisfies
  ``theta_m(x_j) = delta_jm`` so that a function in the space is fully
  described by its values at the sample points.

The cardinal functions are not unit-normalized: ``<theta_n, theta_m> =
(N/L) * delta_nm``.  Throughout the package, inner products of sampling
vectors therefore carry the quadrature weight ``dx = L/N``; for two grid
functions this weighted sum equals the continuum integral exactly.

Units are atomic (``hbar = 1``) everywhere.
"""

from __future__ import annotations

import dataclasses

import numpy as np

HBAR = 1.0

_DIRICHLET_SINGULAR = 1e-12


@dataclasses.dataclass(frozen=True)
class FourierGrid:
    """Discrete Fourier-grid Hilbert space for one degree of freedom.

    Parameters
    ----------
    L : float
        Domain length (a.u.), must be positive.
    N : int
        Number of sample points; must be even and at least 2.

    Attributes
    ----------
    dx : float
        Sample spacing ``L/N``; also the quadrature weight.
    n_max : int
        Largest spectral index, ``N = 2*n_max``.
    K : float
        Momentum bandwidth ``pi*N/L``; the grid spans the phase-space
        rectangle ``[0, L) x [-K, K)`` of area ``2*K*L = 2*pi*N``.
    sample_points : ndarray
        ``x_j = j*dx`` for ``j = 0..N-1``.
    k_values : ndarray
        Spectral frequencies ``2*pi*n/L`` for ``n = -n_max+1 .. n_max``,
        in ascending order.  The single unpaired endpoint sits at ``+K``.
    """

    L: float
    N: int
    dx: float = dataclasses.field(init=False)
    n_max: int = dataclasses.field(init=False)
    K: float = dataclasses.field(init=False)
    sample_points: np.ndarray = dataclasses.field(init=False, repr=False)
    k_values: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"domain length must be positive, got L={self.L}")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 2, got N={self.N}")
        dx = self.L / self.N
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "n_max", self.N // 2)
        object.__setattr__(self, "K", np.pi * self.N / self.L)
        x = dx * np.arange(self.N)
        n = np.arange(-self.n_max + 1, self.n_max + 1)
        k = 2.0 * np.pi * n / self.L
        x.flags.writeable = False
        k.flags.writeable = False
        object.__setattr__(self, "sample_points", x)
        object.__setattr__(self, "k_values", k)

    @property
    def centered_points(self) -> np.ndarray:
        """Sample points shifted to box-centered coordinates ``x - L/2``."""
        return self.sample_points - 0.5 * self.L

    def fft_wavenumbers(self) -> np.ndarray:
        """Spectral frequencies aligned with ``numpy.fft`` output order.

        The Nyquist slot (index ``N/2``) carries ``+K``, matching the
        ascending-order convention of :attr:`k_values`.
        """
        n = np.arange(self.N)
        n = np.where(n <= self.n_max, n, n - self.N)
        return 2.0 * np.pi * n / self.L


def build_grid(L: float, N: int) -> FourierGrid:
    """Construct a :class:`FourierGrid`; rejects invalid parameters."""
    return FourierGrid(L=float(L), N=int(N))


def dirichlet_kernel(N: int, alpha):
    """Periodic sinc ``sin(N*alpha/2) / (N*sin(alpha/2))``.

    At the singular points ``alpha = 2*pi*m`` the analytic limit
    ``(-1)**(m*(N-1))`` is returned; the limit branch triggers whenever
    ``|sin(alpha/2)| < 1e-12`` to avoid catastrophic cancellation.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    alpha = np.asarray(alpha, dtype=float)
    half = np.sin(0.5 * alpha)
    singular = np.abs(half) < _DIRICHLET_SINGULAR
    safe = np.where(singular, 1.0, half)
    out = np.sin(0.5 * N * alpha) / (N * safe)
    if np.any(singular):
        m = np.rint(alpha / (2.0 * np.pi)).astype(int)
        limit = np.where((m * (N - 1)) % 2 == 0, 1.0, -1.0)
        out = np.where(singular, limit, out)
    if out.ndim == 0:
        return float(out)
    return out


def cardinal(grid: FourierGrid, m: int, x):
    """Cardinal basis function ``theta_m`` evaluated at ``x``.

    ``theta_m(x) = exp(i*pi*(x - x_m)/L) * D(N, 2*pi*(x - x_m)/L)`` where
    ``D`` is the periodic sinc.  Satisfies ``theta_m(x_j) = delta_jm``.
    """
    if not 0 <= m < grid.N:
        raise IndexError(f"cardinal index {m} out of range [0, {grid.N})")
    u = np.asarray(x, dtype=float) - grid.sample_points[m]
    phase = np.exp(1j * np.pi * u / grid.L)
    return phase * dirichlet_kernel(grid.N, 2.0 * np.pi * u / grid.L)


def synthesize_spectral(grid: FourierGrid, coeffs, x) -> np.ndarray:
    """Evaluate ``sum_n c_n phi_n(x)`` at arbitrary points ``x``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phases = np.exp(1j * np.outer(x, grid.k_values)) / np.sqrt(grid.L)
    return phases @ coeffs
