"""Span recorder that wraps vngrid's functions from outside the package.

Nothing under ``src/`` is edited: each layer boundary is a function that a
caller looks up by name, and the recorder replaces that name with a timing
wrapper.  ``from .x import f`` binds ``f`` per importing module, so a
function is wrapped on every module that calls it (for example
``vngrid.solvers.boundary_mask`` and ``vngrid.dynamics.boundary_mask``).
Methods are wrapped on their class, which every caller shares.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends; self
times are derived from the nesting afterwards.  A wrapped name that the
package no longer has is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import importlib
import time

ROOT = "entry"


class Tracer:
    """In-memory span list plus the counts and facts the hooks collect."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.counts = collections.Counter()
        self.facts = {}
        self.absent = []
        self.hook_errors = []
        self.caches = {}
        self.results = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def first_entry(self, names) -> float | None:
        starts = [s[1] for s in self.spans if s[0] in names]
        return min(starts) if starts else None

    def last_exit(self, names) -> float | None:
        ends = [s[2] for s in self.spans if s[0] in names]
        return max(ends) if ends else None

    # -- wrapping ----------------------------------------------------------

    def install(self, table):
        for module, path, name, hook in table:
            self.wrap(module, path, name, hook)

    def wrap(self, module: str, path: str, name: str, hook=None):
        """Replace ``module.path`` by a wrapper that records a span ``name``.

        ``hook(tracer, name, args, out)`` runs after the span has closed.
        """
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module}.{path}")
            return
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if binder else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if hook is not None:
                tracer.guarded(hook, f"{module}.{path}", name, args, out)
            return out

        setattr(owner, attr, binder(traced) if binder else traced)
        self._undo.append((owner, attr, raw))

    def guarded(self, fn, where, *args):
        """Run a hook; a failure is recorded, and the program's run goes on."""
        try:
            fn(self, *args)
        except Exception as exc:  # hooks read the program's objects, which may change
            self.hook_errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def restore(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def read_results(self):
        """Turn kept solver results and cache counters into facts and counts.

        Called once the run is over, so that reading adds nothing to the
        measured wall time.
        """
        for name, out in self.results:
            self.guarded(RESULT_READERS[name], f"{name} result", out)
        self.results.clear()
        self.guarded(_cache_totals, "ElementCache.stats")


# ---------------------------------------------------------------------------
# hooks: counts from arguments and return values
# ---------------------------------------------------------------------------

def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _keep(tr, name, args, out):
    tr.results.append((name, out))


def _tise_result(tr, out):
    tr.facts["eigenvalues"] = [float(e) for e in out.eigenvalues]
    tr.facts["tise_iterations"] = int(out.iterations)
    tr.facts["n_final"] = len(out.final_cells)


def _tdse_result(tr, out):
    import numpy as np

    tr.facts["tdse"] = {
        "t_start": float(out.times[0] - out.taus[0]),
        "t_final": float(out.times[-1]),
        "steps": int(out.n_steps),
        "norm_drift": float(np.abs(out.norms - 1.0).max()),
        "discarded": float(out.discarded[-1]),
        "n_min": int(out.n_active.min()),
        "n_max": int(out.n_active.max()),
        "basis_events": sum(1 for e in out.events if e[1] == "basis"),
        "digest": digest(out.times, out.n_active, out.norms, out.discarded,
                         out.taus, out.final_coefficients),
    }


RESULT_READERS = {"solvers.tise": _tise_result, "dynamics.tdse": _tdse_result}


def _cache_totals(tr):
    for cache in tr.caches.values():
        stats = cache.stats
        tr.counts["hamiltonian.cache_requests"] += stats["hits"] + stats["misses"]
        tr.counts["hamiltonian.cache_misses"] += stats["misses"]


def _matrices(ham):
    return 1 + len(ham.Hbb_controls)


def _assemble_init(tr, name, args, out):
    ham = args[0]
    tr.counts["hamiltonian.entries_assembled"] += ham.Hbb.size * _matrices(ham)
    for cache in ham.caches:
        tr.caches[id(cache)] = cache


def _assemble_update(tr, name, args, out):
    ham = args[0]
    tr.counts["hamiltonian.entries_assembled"] += (
        len(out) * len(ham.cells) * _matrices(ham))


def _cells_changed(tr, name, args, out):
    added, removed = out
    tr.counts["reduced_space.cells_added"] += len(added)
    tr.counts["reduced_space.cells_removed"] += len(removed)


def _sop_rank(tr, name, args, out):
    tr.counts["hamiltonian.sop_rank"] = out.rank


def _eig_size(tr, name, args, out):
    n = args[0].shape[0]
    tr.counts["solvers.eig_n_max"] = max(tr.counts["solvers.eig_n_max"], n)


def _taylor_terms(tr, name, args, out):
    n = len(args[1])
    tr.counts["dynamics.taylor_terms"] += out.terms
    # each term applies Stilde @ (H @ v): two complex n x n matvecs, 8 flop
    # per complex multiply-add
    tr.counts["dynamics.matvec_flop"] += out.terms * 16 * n * n


# ---------------------------------------------------------------------------
# what is wrapped: (module, attribute path, span name, hook)
# ---------------------------------------------------------------------------

SOLVER_WRAPS = (
    ("vngrid.solvers", "tise_adaptive", "solvers.tise", _keep),
    ("vngrid.dynamics", "tdse_adaptive", "dynamics.tdse", _keep),
)
LAYER_WRAPS = SOLVER_WRAPS + (
    ("vngrid.cli", "build_model", "models.build", None),
    ("vngrid.models", "harmonic", "models.build", None),
    ("vngrid.models", "build_basis_pair", "vn_basis.build", None),
    ("vngrid.models", "potfit2", "hamiltonian.sop_fit", _sop_rank),
    ("vngrid.hamiltonian", "ReducedHamiltonian.__init__", "hamiltonian.assemble",
     _assemble_init),
    ("vngrid.hamiltonian", "ReducedHamiltonian.update", "hamiltonian.assemble",
     _assemble_update),
    ("vngrid.hamiltonian", "ElementCache.potential_values", "hamiltonian.lookup",
     None),
    ("vngrid.hamiltonian", "ElementCache.kinetic_values", "hamiltonian.lookup",
     None),
    ("vngrid.hamiltonian", "ReducedHamiltonian.combined", "hamiltonian.combined",
     None),
    ("vngrid.reduced_space", "ReducedBasis.create", "reduced_space.inverse", None),
    ("vngrid.reduced_space", "ReducedBasis.update", "reduced_space.inverse",
     _cells_changed),
    ("vngrid.reduced_space", "grow_inverse", "reduced_space.grow", None),
    ("vngrid.reduced_space", "shrink_inverse", "reduced_space.shrink", None),
    ("vngrid.reduced_space", "ReducedBasis.physical_norm", "reduced_space.norm",
     None),
    ("vngrid.solvers", "solve_reduced_eig", "solvers.eig", _eig_size),
    ("vngrid.dynamics", "taylor_step", "dynamics.taylor", _taylor_terms),
) + tuple((module, fn, "reduced_space.bookkeeping", None) for module, fn in (
    ("vngrid.solvers", "boundary_mask"),
    ("vngrid.solvers", "prune_cells"),
    ("vngrid.solvers", "expand_cells"),
    ("vngrid.dynamics", "boundary_mask"),
    ("vngrid.dynamics", "prune_cells"),
    ("vngrid.dynamics", "expand_cells"),
    ("vngrid.dynamics", "embed_coefficients"),
))


# ---------------------------------------------------------------------------
# derived figures
# ---------------------------------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def by_name(spans):
    """``{name: (self seconds, calls)}`` summed over every span of a name."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        s, n = out.get(span[0], (0.0, 0))
        out[span[0]] = (s + own, n + 1)
    return out


def percentile(values, q):
    """Nearest-rank percentile, ``q`` in [0, 100]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
