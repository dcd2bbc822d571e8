"""Time propagation in the adaptive reduced basis.

The propagator is a dynamically truncated Taylor expansion of the step
operator written as a recursion of matrix-vector products,

    psi_(0) = psi(t),     psi_(k) = (-i tau / k) Stilde (Hbb psi_(k-1)),
    psi(t + tau) = sum_k psi_(k),

terminated once the coefficient norm of the latest term drops below a tail
cutoff.  If the series has not converged after the configured maximum
number of terms, the step is declared too large and the caller halves it.

The step controller combines three limits:

* a hard cap derived from the control-signal slope,
  ``tau <= sqrt(zeta / (2 K max_t |du/dt|))``;
* cancellation of any step after which a freshly added boundary cell
  already exceeds the amplitude cutoff (the state must not cross a full
  cell layer per step);
* gradual (20%) growth after a quiet stretch without basis changes.

Basis changes prune sub-cutoff cells (their coefficient mass is discarded
and logged, never renormalized away) and expand one neighborhood radius
around the survivors; fresh cells start at zero amplitude.  Control signals
are treated as piecewise constant, sampled at the step midpoint.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .errors import TimestepUnderflowError
from .hamiltonian import OperatorSpec, ReducedHamiltonian
from .reduced_space import (CellSet, DEFAULT_RADIUS, ProductBasis, ReducedBasis,
                            boundary_mask, embed_coefficients, expand_cells,
                            prune_cells)

_TAU_FLOOR = 1e-12
_ORACLE_LIMIT = 4096


@dataclasses.dataclass(frozen=True)
class PropagationConfig:
    """Propagator and step-controller settings.

    The Taylor tail is measured in the plain coefficient 2-norm; ``zeta`` is
    the basis-adaptation amplitude cutoff, distinct from the series cutoff
    ``taylor_eps``.
    """

    zeta: float = 1e-6
    radius: float = DEFAULT_RADIUS
    tau0: float = 0.05
    max_taylor_terms: int = 30
    taylor_eps: float = 1e-12
    shrink_factor: float = 0.5
    growth_factor: float = 1.2
    growth_patience: int = 3
    t_max_cap: float | None = None
    snapshot_every: int = 50

    def __post_init__(self):
        if not 0 < self.shrink_factor < 1 < self.growth_factor:
            raise ValueError("need 0 < shrink_factor < 1 < growth_factor")
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


def taylor_step(apply_h1, psi: np.ndarray, tau: float,
                cfg: PropagationConfig) -> TaylorStep:
    """One Taylor step of ``exp(-i H1 tau)`` via repeated applications.

    ``apply_h1`` maps a coefficient vector to ``H1 @ v``; the ``-i tau / k``
    factors are applied here.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    acc = psi.astype(complex, copy=True)
    term = acc.copy()
    for k in range(1, cfg.max_taylor_terms + 1):
        term = (-1j * tau / k) * apply_h1(term)
        acc += term
        if np.linalg.norm(term) <= cfg.taylor_eps:
            return TaylorStep(psi=acc, terms=k, too_large=False)
    return TaylorStep(psi=None, terms=cfg.max_taylor_terms, too_large=True)


def max_timestep(zeta: float, bandwidth: float, max_du_dt: float) -> float:
    """Largest step consistent with a piecewise-constant control signal.

    ``sqrt(zeta / (2 K max_t |du/dt|))``: keeps the first-order error of
    freezing the signal over one step below the amplitude cutoff.
    """
    if zeta <= 0 or bandwidth <= 0 or max_du_dt <= 0:
        raise ValueError("all arguments must be positive")
    return math.sqrt(zeta / (2.0 * bandwidth * max_du_dt))


def expm_propagate(h: np.ndarray, psi: np.ndarray, tau: float) -> np.ndarray:
    """Reference step ``exp(-i H tau) psi`` by scaling-and-squaring."""
    h = np.asarray(h)
    if h.shape[0] > _ORACLE_LIMIT:
        raise ValueError(f"dense exponential limited to {_ORACLE_LIMIT}")
    return scipy.linalg.expm(-1j * tau * h) @ np.asarray(psi, dtype=complex)


# ---------------------------------------------------------------------------
# control pulses
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ControlPulse:
    """Scalar control signal u(t), piecewise-constant per step.

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
        return cls(kind="table", times=tuple(float(t) for t in times),
                   samples=tuple(float(u) for u in samples))

    @property
    def support(self):
        if self.kind == "nir":
            return (self.t_on, self.t_on + 4.0 * self.period)
        if self.kind == "xuv":
            return (self.t_on, self.t_on + 1.25 * self.period + 8.0 * self.sigma)
        return (self.times[0], self.times[-1])

    def value(self, t: float) -> float:
        s = t - self.t_on
        if self.kind == "nir":
            if not 0.0 <= s <= 4.0 * self.period:
                return 0.0
            return (self.amplitude * math.sin(2.0 * math.pi * s / self.period - math.pi)
                    * math.sin(math.pi * s / (4.0 * self.period)) ** 2)
        if self.kind == "xuv":
            if s < 0.0:
                return 0.0
            env = math.exp(-(s - 1.25 * self.period) ** 2 / (2.0 * self.sigma ** 2))
            return self.amplitude * math.sin(2.0 * math.pi * s / self.period) * env
        if self.kind == "table":
            return float(np.interp(t, self.times, self.samples))
        raise ValueError(f"unknown pulse kind {self.kind!r}")

    def envelope(self, t: float) -> float:
        s = t - self.t_on
        if self.kind == "nir":
            if not 0.0 <= s <= 4.0 * self.period:
                return 0.0
            return self.amplitude * math.sin(math.pi * s / (4.0 * self.period)) ** 2
        if self.kind == "xuv":
            if s < 0.0:
                return 0.0
            return self.amplitude * math.exp(
                -(s - 1.25 * self.period) ** 2 / (2.0 * self.sigma ** 2))
        return abs(self.value(t))

    def max_abs_derivative(self, n_samples: int = 4000) -> float:
        t0, t1 = self.support
        if t1 <= t0:
            return 0.0
        t = np.linspace(t0, t1, n_samples)
        u = np.array([self.value(ti) for ti in t])
        return float(np.abs(np.gradient(u, t)).max())


def pulse_value(pulse: ControlPulse, t: float) -> float:
    """Signal value at time t (zero outside the pulse support)."""
    return pulse.value(t)


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
    n_active: np.ndarray
    norms: np.ndarray
    taus: np.ndarray
    discarded: np.ndarray          # cumulative |discarded mass|
    events: list                   # (t, kind, detail)
    snapshots: list
    final_cells: CellSet
    final_coefficients: np.ndarray
    hamiltonian: ReducedHamiltonian

    @property
    def n_steps(self):
        return len(self.times)


def tdse_adaptive(spec: OperatorSpec, product, psi0: np.ndarray,
                  cells0: CellSet, t_span, pulses=(),
                  cfg: PropagationConfig = PropagationConfig(),
                  max_steps: int | None = None) -> Trajectory:
    """Propagate a reduced state over ``t_span`` with on-the-fly adaptation.

    ``psi0`` must have unit physical norm over ``cells0``.  ``pulses`` are
    matched positionally to the control couplings of ``spec``.  Raises
    :class:`~vngrid.errors.TimestepUnderflowError` if step halving hits the
    floor; the event log rides on the exception.
    """
    if not isinstance(product, ProductBasis):
        product = ProductBasis(product)
    if len(pulses) != len(spec.control_terms):
        raise ValueError("one pulse per control coupling required")
    t0, t_end = float(t_span[0]), float(t_span[1])
    rb = ReducedBasis.create(product, cells0)
    psi = np.asarray(psi0, dtype=complex).copy()
    norm0 = rb.physical_norm(psi)
    if abs(norm0 - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {norm0} is not 1")
    ham = ReducedHamiltonian(spec, product, cells0)
    lattices = product.lattices

    tau_cap = cfg.t_max_cap
    if pulses:
        bandwidth = max(g.K for g in product.grids)
        slopes = [p.max_abs_derivative() for p in pulses]
        slope = max(slopes) if slopes else 0.0
        if slope > 0.0:
            bound = max_timestep(cfg.zeta, bandwidth, slope)
            tau_cap = bound if tau_cap is None else min(tau_cap, bound)
    tau = min(cfg.tau0, tau_cap) if tau_cap is not None else cfg.tau0

    times, n_active, norms, taus, discarded = [], [], [], [], []
    events = []
    snapshots = [Snapshot(t0, rb.cells, psi.copy())]
    watch_rows: np.ndarray | None = None   # fresh cells of the last expansion
    quiet = 0
    lost = 0.0
    t = t0
    cells = cells0
    accepted = 0

    while t < t_end - 1e-12 and (max_steps is None or accepted < max_steps):
        tau_eff = min(tau, t_end - t)
        u_mid = tuple(p.value(t + 0.5 * tau_eff) for p in pulses)
        h_now = ham.combined(u_mid)
        stilde = rb.Stilde
        step = taylor_step(lambda v: stilde @ (h_now @ v), psi, tau_eff, cfg)
        if step.too_large:
            tau = _shrink(tau, cfg, events, t, "series")
            quiet = 0
            continue
        if watch_rows is not None and watch_rows.size:
            if np.abs(step.psi[watch_rows]).max() > cfg.zeta:
                tau = _shrink(tau, cfg, events, t, "fresh-cell overshoot")
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
        n_active.append(rb.n)
        norms.append(rb.physical_norm(psi))
        discarded.append(lost)

        bmask = boundary_mask(cells, lattices, cfg.radius)
        hot = bool(bmask.any() and np.abs(psi[bmask]).max() >= cfg.zeta)
        if hot:
            kept = prune_cells(cells, np.abs(psi), cfg.zeta)
            new_cells = expand_cells(kept, lattices, cfg.radius)
            norm_before = rb.physical_norm(psi)
            new_psi, _ = embed_coefficients(psi, cells, new_cells)
            added, removed = rb.update(new_cells)
            ham.update(new_cells)
            norm_after = rb.physical_norm(new_psi)
            lost += abs(norm_before ** 2 - norm_after ** 2)
            events.append((t, "basis", f"+{len(added)} -{len(removed)} cells"))
            if len(added):
                watch_rows = np.array([new_cells.position(c) for c in added],
                                      dtype=np.intp)
            psi = new_psi
            cells = new_cells
            quiet = 0
        elif quiet >= cfg.growth_patience:
            grown = tau * cfg.growth_factor
            if tau_cap is not None:
                grown = min(grown, tau_cap)
            if grown > tau:
                events.append((t, "grow", f"tau -> {grown:.3e}"))
            tau = grown
            quiet = 0
        if cfg.snapshot_every and accepted % cfg.snapshot_every == 0:
            snapshots.append(Snapshot(t, cells, psi.copy()))

    if not snapshots or snapshots[-1].t != t:
        snapshots.append(Snapshot(t, cells, psi.copy()))
    return Trajectory(times=np.asarray(times), n_active=np.asarray(n_active),
                      norms=np.asarray(norms), taus=np.asarray(taus),
                      discarded=np.asarray(discarded), events=events,
                      snapshots=snapshots, final_cells=cells,
                      final_coefficients=psi, hamiltonian=ham)


def _shrink(tau, cfg, events, t, reason):
    new_tau = tau * cfg.shrink_factor
    events.append((t, "shrink", f"{reason}: tau -> {new_tau:.3e}"))
    if new_tau < _TAU_FLOOR:
        raise TimestepUnderflowError(
            f"time step fell below {_TAU_FLOOR} ({reason})", events=events)
    return new_tau


def project_state(product, cells: CellSet, psi_weighted) -> np.ndarray:
    """Reduced coefficients of a weighted grid state: ``Stilde Btilde^H psi``.

    This is the orthogonal projection onto the reduced subspace expressed in
    dual coordinates; with a subsequent normalization it initializes
    propagation from any grid wavefunction.
    """
    if not isinstance(product, ProductBasis):
        product = ProductBasis(product)
    rb = ReducedBasis.create(product, cells)
    psi = np.asarray(psi_weighted, dtype=complex).ravel()
    bt_psi = np.empty(len(cells), dtype=complex)
    shape = [g.N for g in product.grids]
    psi_t = psi.reshape(shape)
    for j, cell in enumerate(cells):
        v = psi_t
        for k, pair in enumerate(product.pairs):
            v = np.tensordot(pair.B[:, cell[k]].conj(), v, axes=(0, 0))
        bt_psi[j] = v
    return rb.Stilde @ bt_psi
