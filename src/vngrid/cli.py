"""Configuration-driven command line front end.

Commands
--------
``vngrid tise <config.json>``   adaptive eigenmode run, CSV artifacts
``vngrid tdse <config.json>``   adaptive propagation from the ground state
``vngrid validate``             invariant suite, pass/fail table

Configs are JSON validated against the packaged schema
(``config_schema.json``); fully resolved settings (defaults materialized)
are embedded in ``run_meta.json``.  CSV files use 17-significant-digit
float formatting and canonical orderings, so identical configs reproduce
byte-identical tables.

Exit codes: 0 success, 2 configuration error, 3 no convergence,
4 time-step underflow, 5 degenerate basis, 1 anything else (``--debug``
re-raises it with a traceback instead).  The output directory is made when
the first file is written: a configuration error leaves none, and exits 3-5
write their partial ``run_meta.json`` into it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import os
import resource
import sys
import time

from .errors import (ConfigError, ConvergenceError, DegenerateUpdateError,
                     IllConditionedBasisError, TimestepUnderflowError)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_TAU_UNDERFLOW = 4
EXIT_DEGENERATE_BASIS = 5
# the exit code of each failure a run can end in
_EXIT_CODES = {ConvergenceError: EXIT_NO_CONVERGENCE,
               TimestepUnderflowError: EXIT_TAU_UNDERFLOW,
               DegenerateUpdateError: EXIT_DEGENERATE_BASIS,
               IllConditionedBasisError: EXIT_DEGENERATE_BASIS}

# each config model: its function in ``vngrid.models``, and the keyword
# argument each of its config fields sets
_MODELS = {
    "harmonic": ("harmonic", {"m": "mass", "omega": "omega"}),
    "double_well": ("double_well", {"m": "mass", "omega": "omega",
                                    "b": "barrier", "d": "half_separation"}),
    "helium1d": ("helium_1d", {"a0": "a0", "sop_tolerance": "sop_tolerance"}),
    "table": ("tabulated", {"m": "mass"}),
}


def _model_defaults(name: str) -> dict:
    """The config fields of model ``name`` with their defaults, read off
    the signature of its function in ``vngrid.models``."""
    from . import models

    function, fields = _MODELS[name]
    params = inspect.signature(getattr(models, function)).parameters
    return {field: params[kw].default for field, kw in fields.items()}


def _pulse_fields(kind: str) -> set:
    """The config fields that a pulse of ``kind`` reads besides its
    coupling: the parameters of its :class:`~vngrid.dynamics.ControlPulse`
    constructor."""
    from .dynamics import ControlPulse

    return set(inspect.signature(getattr(ControlPulse, kind)).parameters)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux reports
    ``ru_maxrss`` in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Parse, schema-validate and default-materialize a run configuration.

    Solver defaults are the fields of :class:`~vngrid.solvers.TiseConfig`
    and :class:`~vngrid.dynamics.PropagationConfig`; the propagator's
    ``snapshot_every`` is an output setting.  A model takes the fields of
    its :data:`_MODELS` entry, defaulted as its function in
    ``vngrid.models`` defaults them (and ``table`` its ``file``); any other
    is a configuration error, as is a pulse field that its kind does not
    read (:func:`_pulse_fields`).
    """
    import jsonschema

    from .dynamics import PropagationConfig
    from .solvers import TiseConfig

    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    schema_path = os.path.join(os.path.dirname(__file__), "config_schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        lines = [f"  at /{'/'.join(str(p) for p in e.absolute_path)}: {e.message}"
                 for e in errors]
        raise ConfigError("config violates schema:\n" + "\n".join(lines))

    solver = cfg.get("solver", {})
    if ("tise" in solver) == ("tdse" in solver):
        raise ConfigError("at /solver: exactly one of 'tise' or 'tdse' required")
    name = cfg["model"]["name"]
    model = _model_defaults(name)
    known = {"name", *model} | ({"file"} if name == "table" else set())
    foreign = sorted(set(cfg["model"]) - known)
    if foreign:
        raise ConfigError(f"at /model: model {name!r} has no parameter "
                          f"{', '.join(map(repr, foreign))}")
    model.update(cfg["model"])
    if name == "table" and "file" not in model:
        raise ConfigError("at /model: table model requires 'file'")
    n_dof = 2 if name == "helium1d" else 1
    if len(cfg["grid"]) != n_dof or len(cfg["lattice"]) != n_dof:
        raise ConfigError(f"at /grid: model {name!r} needs {n_dof} grid and "
                          f"lattice entries")
    if n_dof == 2 and (cfg["grid"][0] != cfg["grid"][1]
                       or cfg["lattice"][0] != cfg["lattice"][1]):
        raise ConfigError("at /grid: helium1d axes must share one grid/lattice")
    prop = dataclasses.asdict(PropagationConfig())
    resolved = {
        "grid": [dict(g) for g in cfg["grid"]],
        "lattice": [dict(lt) for lt in cfg["lattice"]],
        "model": model,
        "solver": {},
        "output": dict({"directory": "vngrid_run",
                        "snapshot_every": prop.pop("snapshot_every")},
                       **cfg.get("output", {})),
    }
    if "tise" in solver:
        resolved["solver"]["tise"] = dict(dataclasses.asdict(TiseConfig()),
                                          **solver["tise"])
    else:
        tdse = {**prop, "pulses": [], "max_steps": None, "initial_zeta": None,
                **solver["tdse"]}
        if not tdse["t_span"][0] < tdse["t_span"][1]:
            raise ConfigError("at /solver/tdse/t_span: end must be after start")
        for i, pulse in enumerate(tdse["pulses"]):
            unread = sorted(set(pulse) - _pulse_fields(pulse["kind"])
                            - {"kind", "coupling", "scale"})
            if unread:
                raise ConfigError(
                    f"at /solver/tdse/pulses/{i}: a {pulse['kind']!r} pulse "
                    f"reads no {', '.join(map(repr, unread))}")
        if tdse["initial_zeta"] is None:
            tdse["initial_zeta"] = tdse["zeta"]
        resolved["solver"]["tdse"] = tdse
    return resolved


def build_model(cfg: dict):
    from . import models

    g0 = cfg["grid"][0]
    l0 = cfg["lattice"][0]
    m = cfg["model"]
    function, fields = _MODELS[m["name"]]
    kw = dict(L=g0["L"], N=g0["N"], Nx=l0["Nx"], Np=l0["Np"],
              sigma_x=l0.get("sigma_x"),
              **{arg: m[field] for field, arg in fields.items()})
    if m["name"] != "table":
        return getattr(models, function)(**kw)
    import numpy as np

    try:
        table = np.loadtxt(m["file"], delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read table potential file {m['file']}: "
                          f"{exc}") from exc
    if table.shape[1] < 2:
        raise ConfigError(f"table potential file {m['file']} needs x,V columns")
    if not np.all(np.isfinite(table)):
        raise ConfigError(f"table potential file {m['file']} contains "
                          f"non-finite values")
    return models.tabulated(table[:, 0], table[:, 1], **kw)


def _build_pulses(cfg_pulses, grids):
    """Pulses and their couplings, positionally matched.

    Pulses with the same ``(coupling, scale)`` get the same coupling object,
    so the reduced Hamiltonian holds one block for them.
    """
    from . import models
    from .dynamics import ControlPulse

    pulses, couplings, made = [], [], {}
    for i, p in enumerate(cfg_pulses):
        fields = _pulse_fields(p["kind"]) & set(p)
        try:
            pulses.append(getattr(ControlPulse, p["kind"])(
                **{f: p[f] for f in fields}))
        except ValueError as exc:
            raise ConfigError(f"at /solver/tdse/pulses/{i}: {exc}") from exc
        key = (p["coupling"], p.get("scale", 1.0))
        if key not in made:
            build = (models.position_coupling if key[0] == "position"
                     else models.momentum_coupling)
            made[key] = build(grids, key[1])
        couplings.append(made[key])
    return pulses, couplings


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _axis_names(ndof):
    cols = []
    for d in range(ndof):
        cols += [f"x_{d + 1}", f"p_{d + 1}"]
    return cols


def _cell_position(lat, i):
    """Centre ``(x, p)`` of cell ``i`` of one axis's lattice, x centred."""
    a, b = lat.cell_coords(i)
    return lat.x_centers[a] - 0.5 * lat.grid.L, lat.p_centers[b]


class HeatmapWriter:
    """Amplitude rasters over every cell of a product lattice (inactive
    cells at zero), and the cell list of an active set.

    Each axis's position columns are formatted once, when the writer is
    made; a raster then formats only its active amplitudes.
    """

    def __init__(self, lattices):
        self._axes = [[",".join(_fmt(v) for v in _cell_position(lat, i))
                       for i in range(lat.n_cells)] for lat in lattices]
        self._names = ",".join(_axis_names(len(lattices)))
        self._prefixes = [",".join(parts)
                          for parts in itertools.product(*self._axes)]
        zero = "," + _fmt(0.0) + "\n"
        self._zero_rows = [p + zero for p in self._prefixes]
        self._shape = [lat.n_cells for lat in lattices]

    def write(self, path, cells, coeffs):
        import numpy as np

        rows = list(self._zero_rows)
        flat = np.ravel_multi_index(tuple(cells.indices.T), self._shape)
        # scalar abs per coefficient, not np.abs over the array: the two can
        # differ in the last bit, and the CSV bytes stay fixed across versions
        for k, c in zip(flat.tolist(), np.asarray(coeffs)):
            rows[k] = self._prefixes[k] + "," + _fmt(abs(c)) + "\n"
        with open(path, "w") as fh:
            fh.write(self._names + ",amplitude\n")
            fh.write("".join(rows))

    def write_cells_csv(self, path, cells):
        """One row per cell of ``cells``: its row number and position."""
        with open(path, "w") as fh:
            fh.write("cell," + self._names + "\n")
            for j, cell in enumerate(cells):
                pos = [axis[i] for axis, i in zip(self._axes, cell)]
                fh.write(",".join([str(j), *pos]) + "\n")


def _add_sop_meta(meta, model):
    fit = model.sop_fit
    if fit is not None:
        meta["sop"] = {"rank": fit.rank, "max_abs_error": fit.max_abs_error,
                       "rank_over_N": fit.rank / min(g.N for g in model.grids)}


def _write_meta(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")


def _solver_settings(cfg: dict, command: str) -> dict:
    """The config's ``solver`` block for ``command``; a config written for
    the other command is a configuration error."""
    (block,) = cfg["solver"]
    if block != command:
        raise ConfigError(f"at /solver: 'vngrid {command}' needs a "
                          f"{command!r} block, and this config has {block!r}")
    return cfg["solver"][command]


def _fail(out_dir, payload, exc, events=False) -> int:
    """Partial ``run_meta.json`` with the error text, then the exit code of
    ``exc`` (:data:`_EXIT_CODES`).  A failed eigenmode search adds its
    iteration history; with ``events``, any other failure adds the
    propagator's events so far."""
    if isinstance(exc, ConvergenceError):
        payload = dict(payload, n_history=[list(h) for h in exc.history])
    elif events:
        payload = dict(payload, events=[list(e) for e in exc.events])
    os.makedirs(out_dir, exist_ok=True)
    _write_meta(os.path.join(out_dir, "run_meta.json"),
                dict(payload, error=str(exc)))
    print(f"error: {exc}", file=sys.stderr)
    return _EXIT_CODES[type(exc)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_tise(args) -> int:
    from .solvers import TiseConfig, tise_adaptive

    cfg = load_config(args.config)
    out_dir = args.out or cfg["output"]["directory"]
    tise_cfg = TiseConfig(**_solver_settings(cfg, "tise"))
    failed = {"config": cfg, "converged": False}
    try:
        t_start = time.perf_counter()
        model = build_model(cfg)
        t_build = time.perf_counter() - t_start
        t_start = time.perf_counter()
        res = tise_adaptive(model.spec, model.product, tise_cfg)
    except tuple(_EXIT_CODES) as exc:
        return _fail(out_dir, failed, exc)
    t_solve = time.perf_counter() - t_start

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "eigenvalues.csv"), "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, e in enumerate(res.eigenvalues):
            fh.write(f"{i},{_fmt(e)}\n")
    heatmap = HeatmapWriter(model.lattices)
    heatmap.write_cells_csv(os.path.join(out_dir, "cells.csv"),
                            res.final_cells)
    for mode in range(res.eigenvectors.shape[1]):
        heatmap.write(os.path.join(out_dir, f"mode_{mode:03d}.csv"),
                      res.final_cells, res.eigenvectors[:, mode])
    meta = {
        "config": cfg,
        "converged": True,
        "iterations": res.iterations,
        "n_history": [list(h) for h in res.history],
        "n_final": len(res.final_cells),
        "eigenvalues": [float(e) for e in res.eigenvalues],
        "cache": res.hamiltonian.cache_stats(),
        "timings": {"build_s": t_build, "solve_s": t_solve,
                    "peak_rss_mb": _peak_rss_mb()},
    }
    _add_sop_meta(meta, model)
    _write_meta(os.path.join(out_dir, "run_meta.json"), meta)
    print(f"converged in {res.iterations} iterations, "
          f"{len(res.final_cells)} active cells -> {out_dir}")
    return EXIT_OK


def cmd_tdse(args) -> int:
    import numpy as np

    from .dynamics import PropagationConfig, tdse_adaptive
    from .solvers import TiseConfig, tise_adaptive

    cfg = load_config(args.config)
    out_dir = args.out or cfg["output"]["directory"]
    sc = _solver_settings(cfg, "tdse")
    prop_cfg = PropagationConfig(
        snapshot_every=cfg["output"]["snapshot_every"],
        **{f.name: sc[f.name] for f in dataclasses.fields(PropagationConfig)
           if f.name in sc})
    failed = {"config": cfg, "completed": False}
    try:
        t_start = time.perf_counter()
        model = build_model(cfg)
        pulses, couplings = _build_pulses(sc["pulses"], model.grids)
        if couplings:
            model.spec = dataclasses.replace(model.spec,
                                             control_terms=tuple(couplings))
        product = _exchange_sector(model)
        t_build = time.perf_counter() - t_start

        # initial state: adaptive ground state at the configured cutoff; its
        # reduced basis and Hamiltonian (controls included) carry on into
        # the propagation
        t_start = time.perf_counter()
        ground = tise_adaptive(model.spec, product,
                               TiseConfig(zeta=sc["initial_zeta"], n_modes=1))
        t_ground = time.perf_counter() - t_start

        t_start = time.perf_counter()
        traj = tdse_adaptive(model.spec, product,
                             ground.eigenvectors[:, 0], ground.final_cells,
                             tuple(sc["t_span"]), pulses=pulses, cfg=prop_cfg,
                             max_steps=sc["max_steps"],
                             basis=ground.reduced_basis,
                             hamiltonian=ground.hamiltonian)
    except tuple(_EXIT_CODES) as exc:
        return _fail(out_dir, failed, exc, events=True)
    t_prop = time.perf_counter() - t_start

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trajectory.csv"), "w") as fh:
        fh.write("t,n_active,norm,discarded,tau\n")
        for i in range(traj.n_steps):
            fh.write(",".join([_fmt(traj.times[i]), str(int(traj.n_active[i])),
                               _fmt(traj.norms[i]), _fmt(traj.discarded[i]),
                               _fmt(traj.taus[i])]) + "\n")
    with open(os.path.join(out_dir, "pulse.csv"), "w") as fh:
        fh.write("t," + ",".join(f"u_{i}" for i in range(len(pulses))) + "\n")
        signals = [p.values(traj.times) for p in pulses]
        for i, t in enumerate(traj.times):
            fh.write(",".join([_fmt(t)] + [_fmt(u[i]) for u in signals]) + "\n")
    heatmap = HeatmapWriter(model.lattices)
    for i, snap in enumerate(traj.snapshots):
        heatmap.write(os.path.join(out_dir, f"snapshot_{i:03d}.csv"),
                      *product.unfold(snap.cells, snap.coefficients))
    n_total = product.n_cells
    n_ground = product.lattice_count(ground.final_cells)
    folded = product.fold
    meta = {
        "config": cfg,
        "completed": True,
        "steps": int(traj.n_steps),
        "t_final": float(traj.times[-1]) if traj.n_steps else sc["t_span"][0],
        "n_max": int(traj.n_active.max()) if traj.n_steps else n_ground,
        "reduction_ratio": (float(traj.n_active.max()) / n_total
                            if traj.n_steps else None),
        "norm_final": float(traj.norms[-1]) if traj.n_steps else 1.0,
        "discarded_total": float(traj.discarded[-1]) if traj.n_steps else 0.0,
        "norm_step_max": traj.norm_step_max,
        "events": [[float(t), kind, detail] for t, kind, detail in traj.events],
        "tau_cap": (None if traj.tau_cap is None else {
            "first_order": traj.tau_cap.first_order,
            "midpoint": traj.tau_cap.midpoint,
            "binding": traj.tau_cap.binding}),
        "exchange": "symmetric" if folded else None,
        "n_folded_max": (None if not folded
                         else int(traj.n_basis.max()) if traj.n_steps
                         else len(ground.final_cells)),
        "ground_state": {"energy": float(ground.eigenvalues[0]),
                         "n_cells": n_ground,
                         "n_folded": len(ground.final_cells) if folded else None,
                         "iterations": ground.iterations},
        "cache": ground.hamiltonian.cache_stats(),
        "timings": {"build_s": t_build, "ground_s": t_ground, "prop_s": t_prop,
                    "peak_rss_mb": _peak_rss_mb()},
    }
    _add_sop_meta(meta, model)
    _write_meta(os.path.join(out_dir, "run_meta.json"), meta)
    print(f"propagated {traj.n_steps} steps to t={meta['t_final']:.4g}, "
          f"max {meta['n_max']} of {n_total} cells -> {out_dir}")
    return EXIT_OK


def _exchange_sector(model):
    """The model's basis, folded onto its exchange-symmetric sector when the
    operator and every coupling commute with the swap of two axes on one
    grid (:attr:`~vngrid.hamiltonian.OperatorSpec.exchange_symmetric`);
    :meth:`~vngrid.reduced_space.ProductBasis.folded` refuses axes that do
    not share one basis pair.

    The dynamics from a symmetric ground state then never leaves the
    sector.  The eigenmode command does not fold: with several modes it
    would drop the antisymmetric ones.
    """
    if model.spec.exchange_symmetric:
        return model.product.folded()
    return model.product


def cmd_validate(args) -> int:
    from .validate import run_validation

    results = run_validation(seed=args.seed)
    width = max(len(r.name) for r in results)
    n_fail = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        n_fail += not r.ok
        print(f"{mark}  {r.name:<{width}}  [{r.seconds:6.2f}s]  {r.detail}")
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_OTHER


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser():
    ap = argparse.ArgumentParser(prog="vngrid",
                                 description="adaptive phase-space quantum dynamics")
    ap.add_argument("--debug", action="store_true",
                    help="re-raise unexpected errors with a traceback")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (("tise", cmd_tise, True),
                                   ("tdse", cmd_tdse, True),
                                   ("validate", cmd_validate, False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config", help="path to run configuration (JSON)")
            p.add_argument("--out", default=None, help="output directory")
        else:
            p.add_argument("--seed", type=int, default=1234,
                           help="seed for randomized checks")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
