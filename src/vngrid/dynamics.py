"""Time propagation in the adaptive reduced basis.

The propagator is a dynamically truncated Taylor expansion of the step
operator written as a recursion of matrix-vector products,

    psi_(0) = psi(t),     psi_(k) = (-i tau / k) Stilde (Hbb psi_(k-1)),
    psi(t + tau) = sum_k psi_(k),

terminated once the coefficient norm of the latest term drops below a tail
cutoff.  If the series has not converged after the configured maximum
number of terms, the step is declared too large and the caller halves it.

With control signals ``u_g`` each term is one matrix-vector product with
the staged generator ``G(u) = G_0 + sum_g u_g G_g``, ``G_0 = Stilde Hbb`` and
``G_g = Stilde H_g``, staged once on the reduced basis
(:meth:`~vngrid.reduced_space.ReducedBasis.stage`).  A basis change then
derives its row indices once (:func:`~vngrid.reduced_space.cell_change`),
and ``Stilde`` and each ``G`` take one gather and GEMMs of the change's
rank in the basis's one block update, from the added cells' rows of each
block (:meth:`ReducedHamiltonian.rows`), ``O(n^2 (d + a))`` for ``d``
cells dropped and ``a`` added: about 245 us per change of the seed-0
harmonic run (n ~ 55, one BLAS thread) for bookkeeping, assembly and update.
:func:`taylor_step` runs each term as one BLAS ``zgemv`` on ``G(u)`` plus
three vector calls.

With the exact inverse only the series tail moves the physical norm over a
step (measured below 1 % of ``taylor_eps``), and a drifted inverse moves it
at first order: a step that moves it by more than ``taylor_eps`` stages
``G`` again, from a fresh ``Stilde`` and freshly assembled blocks, having
dropped the drifted ones before it assembles
(:meth:`~vngrid.reduced_space.ReducedBasis.unstage`).

The step controller combines three limits:

* a hard cap on tau from the control signals, when any pulse moves
  (:func:`step_cap`, derived below);
* cancellation of any step after which a freshly added boundary cell
  already exceeds the amplitude cutoff (the state must not cross a full
  cell layer per step);
* gradual (20%) growth after a quiet stretch without basis changes.

Basis changes prune sub-cutoff cells (their coefficient mass is discarded
and logged, never renormalized away) and expand by one ring of lattice
neighbours around the survivors, every cell within Euclidean distance
sqrt 2 in lattice steps; fresh cells start at zero amplitude.  Control
signals are sampled at the step midpoint.

The slope cap
-------------
A driven generator is ``H(t) = H0 + sum_g u_g(t) X_g``, and every step
applies ``exp(-i tau H(t_m))`` at its midpoint ``t_m``: the exponential
midpoint rule.  Its one-step error is the part of the first two Magnus
terms that it drops (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
(2009)), to leading order

    quadrature  sum_g X_g int (u_g - u_g(t_m)) dt   = sum_g X_g u_g'' tau^3 / 24,
    commutator  sum_g [H0, X_g] u_g' tau^3 / 12.

(``[X_g, X_h]`` is zero or a multiple of the identity for the couplings of
:mod:`~vngrid.models`, sums of ``x_i`` or of ``p_i``, so it moves only a
global phase.)  The paper's cap ``tau <= sqrt(zeta / (2 K max|u'|))``, with
``K`` the grid's momentum bandwidth, is the first-order error of freezing
the signal over a step, ``|X| |u'| tau^2 / 2``, with the coupling's scale
taken as ``|X| = 4 K``.  Take that scale, and ``|[H0, X]| <= K |X|``.  The
midpoint error per step is then

    K tau^3 (|u''| + 2 K |u'|) / 6 <= zeta
    =>  tau <= (6 zeta / (K (max|u''| + 2 K max|u'|)))^(1/3).

The condition ``|[H0, X]| <= K |X|`` belongs to the system, not to the
signal, and :func:`commutator_ratio` measures it from the operator's
diagonals, by the leading terms ``[T(p), f(x)] ~ -i T'(p) f'(x)`` and
``[V(x), a(p)] ~ i V'(x) a'(p)``.  For a position coupling ``x`` the ratio
is ``(K / m) / max|x|``, for a momentum coupling ``p`` it is
``max|V'| / K``.  The models' default grids keep it well below ``K`` (1.7
against 12.6 for helium's ``x1 + x2``); a light mass, a steep potential
under a momentum coupling or a coarse grid can push it above, and there
the midpoint bound is 0 and the paper's cap holds.

``u'`` and ``u''`` are summed over the pulses, since ``dH/dt`` carries
every signal at once.  The bound needs a bounded ``u''``:

* an ``xuv`` pulse's slope jumps once, by ``J``, at its onset.  The one
  step across the jump drops at most ``X J tau^2 / 8``, which the same
  scale bounds by ``tau <= sqrt(2 zeta / (K J))``;
* a ``table`` pulse's slope jumps at every knot, and any number of knots
  may fall in one step.  Its ``|u''|`` is unbounded there, so its midpoint
  bound is 0 and the paper's cap holds, with ``max|u'|`` read exactly off
  the knots.

Each bound alone keeps a step's error below ``zeta``, so the controller
caps tau at the larger of the two (:class:`StepCap`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import (dznrm2 as _dznrm2, zaxpy as _zaxpy,
                               zgemv as _zgemv, zscal as _zscal)

from .errors import (DegenerateUpdateError, IllConditionedBasisError,
                     TimestepUnderflowError)
from .hamiltonian import (DENSE_LIMIT, OperatorSpec, ReducedHamiltonian,
                          grid_potential)
from .reduced_space import (CellSet, ReducedBasis, boundary_mask,
                            cell_change, embed_coefficients, expand_cells,
                            prune_cells)

_TAU_FLOOR = 1e-12
_SHRINK = 0.5    # step factor after a rejected step
_GROWTH = 1.2    # step factor after a quiet stretch


@dataclasses.dataclass(frozen=True)
class PropagationConfig:
    """Propagator and step-controller settings.

    The Taylor tail is measured in the plain coefficient 2-norm; ``zeta`` is
    the basis-adaptation amplitude cutoff, distinct from the series cutoff
    ``taylor_eps``.
    """

    zeta: float = 1e-6
    tau0: float = 0.05
    max_taylor_terms: int = 30
    taylor_eps: float = 1e-12
    growth_patience: int = 3
    snapshot_every: int = 50

    def __post_init__(self):
        if self.max_taylor_terms < 2:
            raise ValueError("max_taylor_terms must be at least 2")
        if self.tau0 <= 0 or self.taylor_eps <= 0 or self.zeta <= 0:
            raise ValueError("tau0, taylor_eps and zeta must be positive")


@dataclasses.dataclass
class TaylorStep:
    """Outcome of one propagation attempt.

    ``too_large`` signals that the series hit the term limit before the
    tail cutoff; the input state is untouched in that case.
    """

    psi: np.ndarray | None
    terms: int
    too_large: bool


def taylor_step(g: np.ndarray, psi: np.ndarray, tau: float,
                cfg: PropagationConfig) -> TaylorStep:
    """One Taylor step of ``exp(-i G tau) psi`` for the generator matrix ``g``.

    ``g`` is the staged generator (:meth:`ReducedHamiltonian.combined` of a
    basis's generators), or any square matrix matching ``psi``.  It is made a
    C-contiguous complex array once per step, never per term.  Each term is
    then four BLAS calls: ``zgemv`` on the F-ordered view ``g.T`` (the
    product ``numpy`` forms for ``g @ v``), ``zscal`` by ``-i tau / k``,
    ``zaxpy`` into the result, and the ``dznrm2`` tail test.  The scale by a
    purely imaginary factor and the sum with weight 1 round once per entry,
    so the result has the bits of the ``numpy`` recursion
    ``term = (-1j * tau / k) * (g @ term); acc += term``.  With one BLAS
    thread a term costs about 3 us at n = 56 (the recursion: 6 us), and
    about 215 us at n = 499, where memory bandwidth bounds the product.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    acc = psi.astype(complex, copy=True)
    g = np.ascontiguousarray(g, dtype=complex)
    if not acc.size or g.shape != (acc.size, acc.size):
        raise ValueError(f"generator of shape {g.shape} does not act on a "
                         f"state of length {acc.size}")
    gt = g.T                     # F-ordered view: zgemv reads it without a copy
    term = acc
    for k in range(1, cfg.max_taylor_terms + 1):
        # g @ term with every argument positional, up to trans = 1: parsing
        # keywords would add a fifth to a term at n ~ 55
        term = _zgemv(1.0, gt, term, 0.0, None, 0, 1, 0, 1, 1)
        _zscal(-1j * tau / k, term)
        _zaxpy(term, acc)                             # acc += term, in place
        if _dznrm2(term) <= cfg.taylor_eps:
            return TaylorStep(psi=acc, terms=k, too_large=False)
    return TaylorStep(psi=None, terms=cfg.max_taylor_terms, too_large=True)


def max_timestep(zeta: float, bandwidth: float, max_du_dt: float) -> float:
    """The paper's cap: the largest step for a piecewise-constant signal.

    ``sqrt(zeta / (2 K max_t |du/dt|))`` keeps the first-order error of
    freezing the signal over one step below the amplitude cutoff.  It holds
    for any signal of bounded slope, and is the floor of :func:`step_cap`
    (the derivation is in the module docstring).
    """
    if zeta <= 0 or bandwidth <= 0 or max_du_dt <= 0:
        raise ValueError("all arguments must be positive")
    return math.sqrt(zeta / (2.0 * bandwidth * max_du_dt))


def midpoint_timestep(zeta: float, bandwidth: float, max_du_dt: float,
                      max_d2u_dt2: float, max_jump: float = 0.0) -> float:
    """The largest step of the exponential midpoint rule for a signal with
    bounded second derivative (the derivation is in the module docstring).

    ``(6 zeta / (K (max|u''| + 2 K max|u'|)))^(1/3)``, and at most
    ``sqrt(2 zeta / (K J))`` for a jump ``J`` of the slope.  An unbounded
    ``max|u''|`` gives 0.
    """
    if zeta <= 0 or bandwidth <= 0 or max_du_dt <= 0:
        raise ValueError("zeta, bandwidth and max_du_dt must be positive")
    if max_d2u_dt2 < 0 or max_jump < 0:
        raise ValueError("max_d2u_dt2 and max_jump must not be negative")
    tau = (6.0 * zeta / (bandwidth * (max_d2u_dt2 + 2.0 * bandwidth
                                      * max_du_dt))) ** (1.0 / 3.0)
    if max_jump > 0:
        tau = min(tau, math.sqrt(2.0 * zeta / (bandwidth * max_jump)))
    return tau


@dataclasses.dataclass(frozen=True)
class StepCap:
    """The slope cap of a driven run: both bounds, of which the larger holds.

    ``midpoint`` is 0 where the midpoint bound does not apply: a signal's
    ``|u''|`` is unbounded, or a coupling fails ``|[H0, X]| <= K |X|``.
    """

    first_order: float
    midpoint: float

    @property
    def tau(self) -> float:
        return max(self.first_order, self.midpoint)

    @property
    def binding(self) -> str:
        """Which bound sets the cap: ``"midpoint"`` or ``"first_order"``."""
        return "midpoint" if self.midpoint > self.first_order else "first_order"


def commutator_ratio(spec: OperatorSpec) -> float:
    """Largest ``|[H0, X]| / |X|`` over the control couplings ``X`` of
    ``spec``, 0 without any (module docstring).

    Per axis, ``[T(p), f(x)]`` counts ``max|T'| max|f'|`` and ``[V(x), a(p)]``
    counts ``max|V'| max|a'|``, with second-order differences over the
    sample points and the sorted wavenumbers; ``|X|`` is ``max|f|`` plus
    each axis's ``max|a|``.
    """
    def slope(diag, axis, step):
        return float(np.abs(np.gradient(diag, step, axis=axis,
                                        edge_order=2)).max())

    v = grid_potential(spec)
    ratio = 0.0
    for c in spec.control_terms:
        f = grid_potential(c)
        comm, size = 0.0, float(np.abs(f).max())
        for dof, g in enumerate(spec.grids):
            order = np.argsort(g.fft_wavenumbers())
            k = g.fft_wavenumbers()[order]
            if spec.kinetic[dof] is not None:
                comm += (slope(spec.kinetic[dof][order], 0, k)
                         * slope(f, dof, g.dx))
            if c.kinetic[dof] is not None:
                comm += slope(c.kinetic[dof][order], 0, k) * slope(v, dof, g.dx)
                size += float(np.abs(c.kinetic[dof]).max())
        if size > 0.0:
            ratio = max(ratio, comm / size)
    return ratio


def step_cap(spec: OperatorSpec, pulses, cfg: PropagationConfig) -> StepCap | None:
    """The cap on tau that ``pulses`` set on the couplings of ``spec``, or
    None when no signal moves.

    Each pulse's :meth:`ControlPulse.bounds` gives its slope, curvature and
    slope jump; each is summed over the pulses.  The midpoint bound is 0
    unless :func:`commutator_ratio` is at most ``K``.
    """
    bounds = [p.bounds() for p in pulses]
    slope = sum(b.slope for b in bounds)
    if slope == 0.0:
        return None
    bandwidth = max(g.K for g in spec.grids)
    mid = 0.0
    if commutator_ratio(spec) <= bandwidth:
        mid = midpoint_timestep(cfg.zeta, bandwidth, slope,
                                sum(b.curvature for b in bounds),
                                sum(b.jump for b in bounds))
    return StepCap(first_order=max_timestep(cfg.zeta, bandwidth, slope),
                   midpoint=mid)


def expm_propagate(h: np.ndarray, psi: np.ndarray, tau: float) -> np.ndarray:
    """Reference step ``exp(-i H tau) psi`` by scaling-and-squaring."""
    h = np.asarray(h)
    if h.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense exponential limited to {DENSE_LIMIT}")
    return scipy.linalg.expm(-1j * tau * h) @ np.asarray(psi, dtype=complex)


# ---------------------------------------------------------------------------
# control pulses
# ---------------------------------------------------------------------------

class SignalBounds(NamedTuple):
    """What the slope cap reads of one signal (:meth:`ControlPulse.bounds`)."""

    slope: float        # max |du/dt|
    curvature: float    # max |d2u/dt2|, inf where the slope jumps at knots
    jump: float         # the slope's jump at an isolated kink


@dataclasses.dataclass(frozen=True)
class ControlPulse:
    """Scalar control signal u(t), sampled at each step's midpoint.

    Kinds: ``nir`` (sine carrier under a sin^2 envelope with exactly zero
    derivative at both ends of its support ``[0, 4 T]``), ``xuv`` (sine
    carrier under a Gaussian envelope centered ``5 T / 4`` after onset), and
    ``table`` (linear interpolation of samples).
    """

    kind: str
    amplitude: float = 0.0
    period: float = 0.0
    sigma: float = 0.0
    t_on: float = 0.0
    times: tuple = ()
    samples: tuple = ()

    @classmethod
    def nir(cls, amplitude, period, t_on=0.0):
        return cls(kind="nir", amplitude=amplitude, period=period, t_on=t_on)

    @classmethod
    def xuv(cls, amplitude, period, sigma, t_on=0.0):
        return cls(kind="xuv", amplitude=amplitude, period=period, sigma=sigma,
                   t_on=t_on)

    @classmethod
    def table(cls, times, samples):
        """Linear interpolation of ``samples`` at knot ``times``, which must
        increase (a repeated time would be a jump of the signal)."""
        times = tuple(float(t) for t in times)
        samples = tuple(float(u) for u in samples)
        if not times or len(times) != len(samples):
            raise ValueError("a table pulse needs one sample per knot time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("table pulse knot times must increase")
        return cls(kind="table", times=times, samples=samples)

    @property
    def support(self):
        if self.kind == "nir":
            return (self.t_on, self.t_on + 4.0 * self.period)
        if self.kind == "xuv":
            return (self.t_on, self.t_on + 1.25 * self.period + 8.0 * self.sigma)
        return (self.times[0], self.times[-1])

    def values(self, t) -> np.ndarray:
        """Signal at the times ``t`` (any shape): one numpy formula per kind."""
        t = np.asarray(t, dtype=float)
        s = t - self.t_on
        if self.kind == "nir":
            u = (self.amplitude * np.sin(2.0 * np.pi * s / self.period - np.pi)
                 * np.sin(np.pi * s / (4.0 * self.period)) ** 2)
            return np.where((s >= 0.0) & (s <= 4.0 * self.period), u, 0.0)
        if self.kind == "xuv":
            env = np.exp(-(s - 1.25 * self.period) ** 2 / (2.0 * self.sigma ** 2))
            u = self.amplitude * np.sin(2.0 * np.pi * s / self.period) * env
            return np.where(s >= 0.0, u, 0.0)
        if self.kind == "table":
            return np.interp(t, self.times, self.samples)
        raise ValueError(f"unknown pulse kind {self.kind!r}")

    def value(self, t: float) -> float:
        """Signal value at time ``t``."""
        return float(self.values(t))

    def bounds(self) -> SignalBounds:
        """``max|du/dt|`` and ``max|d2u/dt2|`` over the support, and the
        slope's jump at a kink.

        ``nir`` is twice differentiable everywhere, and ``xuv``'s slope jumps
        from 0 at its onset; both are read off one sampling at 4000 points.
        ``table`` is read exactly off its knots: its slope is the largest
        ``|du/dt|`` of a segment, and since the slope jumps at every knot
        its ``|u''|`` is unbounded unless the signal is constant (module
        docstring).
        """
        t0, t1 = self.support
        if t1 <= t0:
            return SignalBounds(0.0, 0.0, 0.0)
        if self.kind == "table":
            slope = float(np.abs(np.diff(self.samples)
                                 / np.diff(self.times)).max())
            return SignalBounds(slope, math.inf if slope else 0.0, 0.0)
        t = np.linspace(t0, t1, 4000)
        du = np.gradient(self.values(t), t)
        slope = float(np.abs(du).max())
        jump = 0.0
        if self.kind == "xuv":   # |du/dt| just after the onset
            jump = abs(2.0 * math.pi * self.amplitude / self.period * math.exp(
                -(1.25 * self.period) ** 2 / (2.0 * self.sigma ** 2)))
        return SignalBounds(slope, float(np.abs(np.gradient(du, t)).max()), jump)


# ---------------------------------------------------------------------------
# trajectory bookkeeping
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Snapshot:
    t: float
    cells: CellSet
    coefficients: np.ndarray


@dataclasses.dataclass
class Trajectory:
    """Accepted-step record of an adaptive propagation."""

    times: np.ndarray
    n_active: np.ndarray           # lattice cells (folded: in the rows' orbits)
    n_basis: np.ndarray            # rows of the reduced basis
    norms: np.ndarray              # physical norm before the step's basis change
    taus: np.ndarray
    discarded: np.ndarray          # cumulative |discarded mass| after that change
    events: list                   # (t, kind, detail)
    snapshots: list
    final_cells: CellSet
    final_coefficients: np.ndarray
    generator: list                 # Stilde @ each distinct block, at final_cells
    tau_cap: StepCap | None         # None when no signal moves
    norm_step_max: float            # largest norm move of a step, changes apart

    @property
    def n_steps(self):
        return len(self.times)


def tdse_adaptive(spec: OperatorSpec, product, psi0: np.ndarray,
                  cells0: CellSet, t_span, pulses=(),
                  cfg: PropagationConfig = PropagationConfig(),
                  max_steps: int | None = None,
                  basis: ReducedBasis | None = None,
                  hamiltonian: ReducedHamiltonian | None = None) -> Trajectory:
    """Propagate a reduced state over ``t_span`` with on-the-fly adaptation.

    ``psi0`` must have unit physical norm over ``cells0``.  ``pulses`` are
    matched positionally to the control couplings of ``spec``.

    ``basis`` and ``hamiltonian`` hand over a reduced basis and Hamiltonian
    that already cover ``cells0`` (for example those an eigenmode search
    leaves behind), instead of building both from scratch.  The basis
    stages the generators from the Hamiltonian's blocks, once, and carries
    them as it adapts in place.  Staging consumes the blocks: they are
    taken out of the Hamiltonian
    (:meth:`~vngrid.hamiltonian.ReducedHamiltonian.take_blocks`) and each
    is freed as soon as its generator exists, so a handed-over Hamiltonian
    ends the run without blocks, while its factor stacks, cells and caches
    stay (a refresh assembles from the stacks).  Both must cover
    exactly ``cells0`` on ``product``'s basis pairs, folded where it is
    folded, and the Hamiltonian must have been built for ``spec``;
    otherwise :class:`ValueError` is raised.

    On a folded product basis (:meth:`~vngrid.reduced_space.ProductBasis.folded`)
    ``cells0`` are orbit representatives and ``psi0`` is folded; so are the
    snapshots and the final state (``product.unfold`` gives their lattice
    cells and coefficients), while ``n_active`` counts lattice cells.

    Raises :class:`~vngrid.errors.TimestepUnderflowError` if step halving
    hits the floor, and :class:`~vngrid.errors.DegenerateUpdateError` or
    :class:`~vngrid.errors.IllConditionedBasisError` if a change or refresh
    breaks the maintained inverse; the event log rides on the exception.
    """
    if len(pulses) != len(spec.control_terms):
        raise ValueError("one pulse per control coupling required")
    if basis is not None and basis.cells != cells0:
        raise ValueError("handed-over basis does not cover cells0")
    if hamiltonian is not None and (hamiltonian.cells != cells0
                                    or hamiltonian.spec is not spec):
        raise ValueError("handed-over Hamiltonian does not match cells0 and spec")
    for handed in (basis, hamiltonian):
        if handed is not None and not _same_product(handed.product, product):
            raise ValueError(f"handed-over {type(handed).__name__} lives on "
                             f"another product basis")
    t0, t_end = float(t_span[0]), float(t_span[1])
    rb = basis if basis is not None else ReducedBasis.create(product, cells0)
    psi = np.asarray(psi0, dtype=complex).copy()
    norm0 = rb.physical_norm(psi)
    if abs(norm0 - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {norm0} is not 1")
    ham = hamiltonian or ReducedHamiltonian(spec, product, cells0)
    lattices, fold = product.lattices, product.fold

    cap = step_cap(spec, pulses, cfg)
    tau_cap = math.inf if cap is None else cap.tau
    tau = min(cfg.tau0, tau_cap)

    times, n_active, n_basis, norms, taus, discarded = [], [], [], [], [], []
    events = []
    snapshots = [Snapshot(t0, rb.cells, psi.copy())]
    watch_rows: np.ndarray | None = None   # fresh rows of the last expansion
    quiet = 0
    lost = 0.0
    norm_in = norm0      # the physical norm at the start of the step
    norm_step_max = 0.0
    t = t0
    accepted = 0
    # the boundary rows of the current cells
    edge = boundary_mask(rb.cells, lattices, fold=fold).nonzero()[0]
    # the blocks are consumed: each is freed once its generator exists, and
    # the generators are carried across basis changes
    rb.stage(ham.take_blocks())

    try:
        while t < t_end - 1e-12 and (max_steps is None or accepted < max_steps):
            tau_eff = min(tau, t_end - t)
            u_mid = tuple(p.value(t + 0.5 * tau_eff) for p in pulses)
            step = taylor_step(ham.combined(u_mid, rb.generators), psi,
                               tau_eff, cfg)
            if step.too_large:
                tau = _shrink(tau, events, t, "series")
                quiet = 0
                continue
            if watch_rows is not None and len(watch_rows):
                if rb.amplitudes(step.psi, watch_rows).max() > cfg.zeta:
                    tau = _shrink(tau, events, t, "fresh-cell overshoot")
                    quiet = 0
                    continue
            # step accepted
            watch_rows = None
            psi = step.psi
            t += tau_eff
            accepted += 1
            quiet += 1
            times.append(t)
            taus.append(tau_eff)
            n_active.append(rb.n_lattice)
            n_basis.append(rb.n)
            norms.append(rb.physical_norm(psi))
            move, norm_in = abs(norms[-1] - norm_in), norms[-1]
            norm_step_max = max(norm_step_max, move)
            if move > cfg.taylor_eps:       # the inverse drifted: form it again
                rb.unstage()
                rb.stage(ham.rows(rb.cells, rb.cells))
                events.append((t, "refresh", f"norm moved {move:.2e}"))

            amp = rb.amplitudes(psi)
            if len(edge) and amp.take(edge).max() >= cfg.zeta:
                kept = prune_cells(rb.cells, amp, cfg.zeta)
                new_cells = expand_cells(kept, lattices, fold=fold)
                change = cell_change(rb.cells, new_cells)
                psi = embed_coefficients(psi, change)
                added, removed = rb.update(
                    change, ham.rows(change.added, change.new))
                # norms[-1] is the norm before the change
                norm_in = rb.physical_norm(psi)
                lost += abs(norms[-1] ** 2 - norm_in ** 2)
                events.append((t, "basis", f"+{len(added)} -{len(removed)} cells"))
                watch_rows = change.fresh_rows
                edge = boundary_mask(change.new, lattices, fold=fold).nonzero()[0]
                quiet = 0
            elif quiet >= cfg.growth_patience:
                grown = min(tau * _GROWTH, tau_cap)
                if grown > tau:
                    events.append((t, "grow", f"tau -> {grown:.3e}"))
                tau = grown
                quiet = 0
            discarded.append(lost)
            if cfg.snapshot_every and accepted % cfg.snapshot_every == 0:
                snapshots.append(Snapshot(t, rb.cells, psi.copy()))
    except (DegenerateUpdateError, IllConditionedBasisError,
            TimestepUnderflowError) as exc:
        exc.events = events
        raise

    if snapshots[-1].t != t:
        snapshots.append(Snapshot(t, rb.cells, psi.copy()))
    return Trajectory(times=np.asarray(times), n_active=np.asarray(n_active),
                      n_basis=np.asarray(n_basis), norms=np.asarray(norms),
                      taus=np.asarray(taus), discarded=np.asarray(discarded),
                      events=events, snapshots=snapshots, final_cells=rb.cells,
                      final_coefficients=psi, generator=rb.generators,
                      tau_cap=cap, norm_step_max=norm_step_max)


def _same_product(a, b) -> bool:
    """Whether two product bases hold the same basis pairs (the same
    objects: pairs hold arrays) and are both folded or both unfolded."""
    return (len(a.pairs) == len(b.pairs)
            and all(p is q for p, q in zip(a.pairs, b.pairs))
            and a.fold == b.fold)


def _shrink(tau, events, t, reason):
    new_tau = tau * _SHRINK
    events.append((t, "shrink", f"{reason}: tau -> {new_tau:.3e}"))
    if new_tau < _TAU_FLOOR:
        raise TimestepUnderflowError(
            f"time step fell below {_TAU_FLOOR} ({reason})")
    return new_tau


def project_state(product, cells: CellSet, psi_weighted) -> np.ndarray:
    """Reduced coefficients of a weighted grid state: ``Stilde Btilde^H psi``.

    This is the orthogonal projection onto the reduced subspace expressed in
    dual coordinates; with a subsequent normalization it initializes
    propagation from any grid wavefunction.  On a folded basis the
    projection is onto the exchange-symmetric part of the subspace.

    ``B^H psi`` is taken over every lattice cell by one contraction per axis
    (each moves its axis last, so the axes end in their own order), and the
    rows' lattice cells are gathered from it.
    """
    rb = ReducedBasis.create(product, cells)
    bt_psi = np.asarray(psi_weighted, dtype=complex).reshape(
        [g.N for g in product.grids])
    for pair in product.pairs:
        bt_psi = np.tensordot(bt_psi, pair.B.conj(), axes=(0, 0))
    lattice_cells = product.lattice_cells(cells).indices
    return rb.Stilde @ product.restrict(cells, bt_psi[tuple(lattice_cells.T)])
