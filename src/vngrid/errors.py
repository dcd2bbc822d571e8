"""Exception types shared across the engine.

Every engine error has ``events``, empty by default.  An error that ends
a propagation, a :class:`TimestepUnderflowError`,
:class:`DegenerateUpdateError` or :class:`IllConditionedBasisError`,
carries the propagator's events so far instead: the one ``except`` of
:func:`~vngrid.dynamics.tdse_adaptive` attaches them.
"""


class VngridError(Exception):
    """Base class for engine errors."""

    events = ()


class IllConditionedBasisError(VngridError):
    """Overlap matrix condition number exceeds the safe limit.

    Raised when a lattice/width combination produces a (near-)singular
    Gaussian overlap matrix, e.g. a critically sampled lattice whose
    dimensions are both even; when the product of a product lattice's
    per-axis condition numbers, which bounds every reduced overlap's
    (:mod:`vngrid.reduced_space`), exceeds the limit; or when a reduced
    overlap fails the exact check of a from-scratch inverse.
    """

    def __init__(self, message, cond=None, size=None):
        super().__init__(message)
        self.cond = cond
        self.size = size


class DegenerateUpdateError(VngridError):
    """Schur complement of a block-inverse update is not positive definite."""


class ConvergenceError(VngridError):
    """Iterative eigenmode search did not converge.

    Carries the per-iteration ``history`` of (basis size, boundary amplitude)
    so the failure can be diagnosed.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history or []


class TimestepUnderflowError(VngridError):
    """Adaptive propagation halved the step below the hard floor."""


class ConfigError(VngridError):
    """Run configuration violates the published schema."""
