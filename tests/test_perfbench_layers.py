"""The benchmark's traced layers name functions that exist in vngrid, and
its hooks read the arguments those functions take.

``perfbench/spans.py`` wraps each layer by module and attribute path and
records a missing name as absent instead of failing, so a rename in the
package would silently drop a layer from the benchmark's figures; a hook
that fails is recorded too, so a changed signature would silently zero a
count.
"""

import collections
import dataclasses
import importlib
import importlib.util
import pathlib

import numpy as np

import vngrid
from vngrid import models
from vngrid.dynamics import PropagationConfig, project_state, taylor_step
from vngrid.hamiltonian import ReducedHamiltonian
from vngrid.reduced_space import CellSet, ReducedBasis, expand_cells

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _defined(module, path):
    # the same lookup as Tracer.wrap: a method must be defined on its class
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner is not None and attr in vars(owner)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layers_exist():
    spans = _load_spans()
    missing = [f"{module}.{path}" for module, path, *_ in spans.LAYER_WRAPS
               if not _defined(module, path)]
    assert not missing


def test_taylor_hook_counts_the_terms_of_a_real_step(rng):
    spans = _load_spans()
    n = 7
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    args = (g, psi, 0.1, PropagationConfig())
    out = taylor_step(*args)
    tr = spans.Tracer()
    spans._taylor_terms(tr, "dynamics.taylor", args, out)
    assert tr.counts["dynamics.taylor_terms"] == out.terms > 1
    # the flop count scales with n = len(psi), the hook's args[1]
    flop = tr.counts["dynamics.matvec_flop"]
    assert flop > 0 and flop % (out.terms * n * n) == 0


def _coherent_initial(ho_model):
    """The harmonic benchmark's seed-0 coherent state: its cells and its
    normalized reduced coefficients."""
    grid, lat, pair = ho_model.grids[0], ho_model.lattices[0], ho_model.pairs[0]
    psi = models.coherent_state(grid, 2.5, 0.0, np.sqrt(0.5))
    occupied = np.flatnonzero(np.abs(vngrid.analyze(pair, psi)) >= 1e-6)
    cells = expand_cells(CellSet(occupied[:, None]), lat)
    c0 = project_state(ho_model.product, cells, psi * np.sqrt(grid.dx))
    c0 /= ReducedBasis.create(ho_model.product, cells).physical_norm(c0)
    return cells, c0


def test_bookkeeping_layers_run_once_per_basis_change(ho_model, monkeypatch):
    # the benchmark splits a basis change's time by the functions that the
    # propagator calls through these names: each runs once per basis change,
    # and the boundary also once at the start.  The propagator assembles
    # the added rows (and, once, the full blocks it stages) and never
    # carries the full blocks (update)
    import vngrid.dynamics as dynamics

    calls = collections.Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[f"{owner.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    cells, c0 = _coherent_initial(ho_model)
    names = ("prune_cells", "expand_cells", "cell_change", "embed_coefficients",
             "boundary_mask")
    for name in names:
        spy(dynamics, name)
    spy(ReducedHamiltonian, "rows")
    spy(ReducedHamiltonian, "update")
    spy(ReducedBasis, "update")
    cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
    traj = dynamics.tdse_adaptive(ho_model.spec, ho_model.product, c0, cells,
                                  (0.0, 5.0), cfg=cfg)
    events = sum(kind == "basis" for _, kind, _ in traj.events)
    assert events > 2
    expect = {f"vngrid.dynamics.{name}": events for name in names}
    expect["vngrid.dynamics.boundary_mask"] += 1
    expect["ReducedHamiltonian.rows"] = events + 1
    expect["ReducedBasis.update"] = events
    assert calls["ReducedHamiltonian.update"] == 0
    assert dict(calls) == expect


def test_traced_runs_name_every_layer_and_break_no_hook(ho_model, he_model):
    # the benchmark's wraps installed over a harmonic propagation with basis
    # changes and a folded helium ground search followed by driven
    # propagation (three pulses, two sharing a coupling): every name is
    # found, every hook reads the arguments and results it is given, and the
    # propagator's layers each record a span
    import vngrid.dynamics as dynamics
    import vngrid.solvers as solvers

    spans = _load_spans()
    tr = spans.Tracer()
    tr.install(spans.LAYER_WRAPS)
    try:
        cells, c0 = _coherent_initial(ho_model)
        cfg = PropagationConfig(zeta=1e-6, tau0=0.05, snapshot_every=0)
        traj = dynamics.tdse_adaptive(ho_model.spec, ho_model.product, c0,
                                      cells, (0.0, 5.0), cfg=cfg)
        x = models.position_coupling(he_model.grids)
        spec = dataclasses.replace(he_model.spec, control_terms=(
            x, x, models.momentum_coupling(he_model.grids)))
        pulses = (dynamics.ControlPulse.table([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
                  dynamics.ControlPulse.xuv(0.5, 0.5, 0.2),
                  dynamics.ControlPulse.table([0.0, 0.3, 0.6, 1.0],
                                              [0.0, 1.0, 0.0, 0.0]))
        folded = he_model.product.folded()
        ground = solvers.tise_adaptive(spec, folded,
                                       solvers.TiseConfig(zeta=1e-2, n_modes=1))
        driven = dynamics.tdse_adaptive(
            spec, folded, ground.eigenvectors[:, 0], ground.final_cells,
            (0.0, 1.0), pulses=pulses,
            cfg=PropagationConfig(zeta=1e-2, tau0=0.02, snapshot_every=0),
            basis=ground.reduced_basis, hamiltonian=ground.hamiltonian)
    finally:
        tr.restore()
    tr.read_results()
    assert tr.absent == []
    assert tr.hook_errors == []
    changes = [sum(kind == "basis" for _, kind, _ in t.events)
               for t in (traj, driven)]
    assert changes[0] > 2 and changes[1] > 0
    assert tr.counts["reduced_space.cells_added"] > 0
    assert tr.facts["tdse"]["steps"] == driven.n_steps
    recorded = {name for name, *_ in tr.spans}
    assert {"dynamics.tdse", "solvers.tise", "hamiltonian.assemble",
            "hamiltonian.combined", "reduced_space.inverse",
            "reduced_space.grow", "reduced_space.norm", "dynamics.taylor",
            "reduced_space.bookkeeping"} <= recorded
