"""Configuration-driven command line front end.

Commands
--------
``vngrid tise <config.json>``   adaptive eigenmode run, CSV artifacts
``vngrid tdse <config.json>``   adaptive propagation from the ground state
``vngrid validate``             invariant suite, pass/fail table
``vngrid bench``                cache and inverse-update timing report

Configs are JSON validated against the packaged schema
(``config_schema.json``); fully resolved settings (defaults materialized)
are embedded in ``run_meta.json``.  CSV files use 17-significant-digit
float formatting and canonical orderings, so identical configs reproduce
byte-identical tables.

Exit codes: 0 success, 2 configuration error, 3 no convergence,
4 time-step underflow, 1 anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_TAU_UNDERFLOW = 4

_MODEL_DEFAULTS = {
    "harmonic": {"m": 1.0, "omega": 1.0},
    "double_well": {"m": 1.0, "omega": 1.0, "b": 20.0, "d": 22.0},
    "helium1d": {"a0": 0.739707902, "sop_tolerance": 1e-6},
    "table": {"m": 1.0},
}
_TISE_DEFAULTS = {"zeta": 1e-6, "radius": 2.0 ** 0.5 + 1e-9,
                  "n_modes": 1, "max_iterations": 200}
_TDSE_DEFAULTS = {"zeta": 1e-6, "radius": 2.0 ** 0.5 + 1e-9, "tau0": 0.05,
                  "max_taylor_terms": 30, "taylor_eps": 1e-12,
                  "growth_patience": 3, "pulses": [], "max_steps": None,
                  "initial_zeta": None}
_OUTPUT_DEFAULTS = {"directory": "vngrid_run", "snapshot_every": 50}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _set_thread_env(n: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    """Parse, schema-validate and default-materialize a run configuration."""
    import jsonschema

    from .errors import ConfigError

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
    model = dict(_MODEL_DEFAULTS[name])
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
    resolved = {
        "grid": [dict({"x0": 0.0}, **g) for g in cfg["grid"]],
        "lattice": [dict(lt) for lt in cfg["lattice"]],
        "model": model,
        "solver": {},
        "output": dict(_OUTPUT_DEFAULTS, **cfg.get("output", {})),
    }
    if "tise" in solver:
        resolved["solver"]["tise"] = dict(_TISE_DEFAULTS, **solver["tise"])
    else:
        tdse = dict(_TDSE_DEFAULTS, **solver["tdse"])
        if tdse["initial_zeta"] is None:
            tdse["initial_zeta"] = tdse["zeta"]
        resolved["solver"]["tdse"] = tdse
    return resolved


def build_model(cfg: dict, controls=()):
    from . import models

    g0 = cfg["grid"][0]
    l0 = cfg["lattice"][0]
    m = cfg["model"]
    kw = dict(L=g0["L"], N=g0["N"], Nx=l0["Nx"], Np=l0["Np"],
              sigma_x=l0.get("sigma_x"), controls=controls)
    if m["name"] == "harmonic":
        return models.harmonic(mass=m["m"], omega=m["omega"], **kw)
    if m["name"] == "double_well":
        return models.double_well(mass=m["m"], omega=m["omega"],
                                  barrier=m["b"], half_separation=m["d"], **kw)
    if m["name"] == "helium1d":
        return models.helium_1d(a0=m["a0"], sop_tolerance=m["sop_tolerance"], **kw)
    import numpy as np
    table = np.loadtxt(m["file"], delimiter=",", ndmin=2)
    return models.tabulated(table[:, 0], table[:, 1], mass=m["m"], **kw)


def _build_pulses(cfg_pulses, grids):
    from . import models
    from .dynamics import ControlPulse

    pulses, couplings = [], []
    for p in cfg_pulses:
        if p["kind"] == "nir":
            pulses.append(ControlPulse.nir(p["amplitude"], p["period"],
                                           p.get("t_on", 0.0)))
        elif p["kind"] == "xuv":
            pulses.append(ControlPulse.xuv(p["amplitude"], p["period"],
                                           p["sigma"], p.get("t_on", 0.0)))
        else:
            pulses.append(ControlPulse.table(p["times"], p["samples"]))
        scale = p.get("scale", 1.0)
        if p["coupling"] == "position":
            couplings.append(models.position_coupling(grids, scale))
        else:
            couplings.append(models.momentum_coupling(grids, scale))
    return pulses, couplings


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _axis_names(ndof):
    cols = []
    for d in range(ndof):
        cols += [f"x_{d + 1}", f"p_{d + 1}"]
    return cols


def _cell_position(lattices, cell):
    out = []
    for lat, idx in zip(lattices, cell):
        a, b = lat.cell_coords(idx)
        out += [lat.x_centers[a] - 0.5 * lat.grid.L, lat.p_centers[b]]
    return out


def write_cells_csv(path, lattices, cells):
    with open(path, "w") as fh:
        fh.write("cell," + ",".join(_axis_names(len(lattices))) + "\n")
        for j, cell in enumerate(cells):
            pos = _cell_position(lattices, cell)
            fh.write(",".join([str(j)] + [_fmt(v) for v in pos]) + "\n")


def write_heatmap_csv(path, lattices, cells, coeffs):
    """Amplitude raster over every lattice cell (inactive cells at zero)."""
    import numpy as np

    amp = {cell: abs(c) for cell, c in zip(cells, np.asarray(coeffs))}
    with open(path, "w") as fh:
        fh.write(",".join(_axis_names(len(lattices))) + ",amplitude\n")
        ranges = [range(lat.n_cells) for lat in lattices]
        for combo in itertools.product(*ranges):
            pos = _cell_position(lattices, combo)
            fh.write(",".join(_fmt(v) for v in pos)
                     + "," + _fmt(amp.get(combo, 0.0)) + "\n")


def _add_sop_meta(meta, model):
    fit = model.sop_fit
    if fit is not None:
        meta["sop"] = {"rank": fit.rank, "max_abs_error": fit.max_abs_error,
                       "rank_over_N": fit.rank / min(g.N for g in model.grids)}


def _write_meta(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=repr)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_tise(args) -> int:
    from .errors import ConvergenceError
    from .solvers import TiseConfig, tise_adaptive

    cfg = load_config(args.config)
    out_dir = args.out or cfg["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()
    model = build_model(cfg)
    t_build = time.perf_counter() - t_start
    sc = cfg["solver"]["tise"]
    tise_cfg = TiseConfig(zeta=sc["zeta"], radius=sc["radius"],
                          n_modes=sc["n_modes"],
                          max_iterations=sc["max_iterations"])
    t_start = time.perf_counter()
    try:
        res = tise_adaptive(model.spec, model.product, tise_cfg)
    except ConvergenceError as exc:
        _write_meta(os.path.join(out_dir, "run_meta.json"),
                    {"config": cfg, "converged": False, "error": str(exc),
                     "n_history": [list(h) for h in exc.history]})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    t_solve = time.perf_counter() - t_start

    with open(os.path.join(out_dir, "eigenvalues.csv"), "w") as fh:
        fh.write("index,eigenvalue\n")
        for i, e in enumerate(res.eigenvalues):
            fh.write(f"{i},{_fmt(e)}\n")
    write_cells_csv(os.path.join(out_dir, "cells.csv"), model.lattices,
                    res.final_cells)
    for mode in range(res.eigenvectors.shape[1]):
        write_heatmap_csv(os.path.join(out_dir, f"mode_{mode:03d}.csv"),
                          model.lattices, res.final_cells,
                          res.eigenvectors[:, mode])
    meta = {
        "config": cfg,
        "converged": True,
        "iterations": res.iterations,
        "n_history": [list(h) for h in res.history],
        "n_final": len(res.final_cells),
        "eigenvalues": [float(e) for e in res.eigenvalues],
        "cache": res.hamiltonian.cache_stats(),
        "timings": {"build_s": t_build, "solve_s": t_solve},
    }
    _add_sop_meta(meta, model)
    _write_meta(os.path.join(out_dir, "run_meta.json"), meta)
    print(f"converged in {res.iterations} iterations, "
          f"{len(res.final_cells)} active cells -> {out_dir}")
    return EXIT_OK


def cmd_tdse(args) -> int:
    import numpy as np

    from .dynamics import PropagationConfig, tdse_adaptive
    from .errors import ConvergenceError, TimestepUnderflowError
    from .hamiltonian import cache_totals
    from .solvers import TiseConfig, tise_adaptive

    cfg = load_config(args.config)
    out_dir = args.out or cfg["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    sc = cfg["solver"]["tdse"]
    t_start = time.perf_counter()
    model = build_model(cfg)
    pulses, couplings = _build_pulses(sc["pulses"], model.grids)
    if couplings:
        model.spec = dataclasses.replace(model.spec,
                                         control_terms=tuple(couplings))
    t_build = time.perf_counter() - t_start

    # initial state: adaptive ground state at the configured cutoff
    t_start = time.perf_counter()
    try:
        ground = tise_adaptive(model.spec, model.product,
                               TiseConfig(zeta=sc["initial_zeta"],
                                          radius=sc["radius"], n_modes=1))
    except ConvergenceError as exc:
        print(f"error: ground-state preparation failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    t_ground = time.perf_counter() - t_start

    prop_cfg = PropagationConfig(
        zeta=sc["zeta"], radius=sc["radius"], tau0=sc["tau0"],
        max_taylor_terms=sc["max_taylor_terms"], taylor_eps=sc["taylor_eps"],
        growth_patience=sc["growth_patience"],
        snapshot_every=cfg["output"]["snapshot_every"])
    t_start = time.perf_counter()
    try:
        traj = tdse_adaptive(model.spec, model.product,
                             ground.eigenvectors[:, 0], ground.final_cells,
                             tuple(sc["t_span"]), pulses=pulses, cfg=prop_cfg,
                             max_steps=sc["max_steps"])
    except TimestepUnderflowError as exc:
        _write_meta(os.path.join(out_dir, "run_meta.json"),
                    {"config": cfg, "completed": False, "error": str(exc),
                     "events": [list(e) for e in exc.events]})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TAU_UNDERFLOW
    t_prop = time.perf_counter() - t_start

    with open(os.path.join(out_dir, "trajectory.csv"), "w") as fh:
        fh.write("t,n_active,norm,discarded,tau\n")
        for i in range(traj.n_steps):
            fh.write(",".join([_fmt(traj.times[i]), str(int(traj.n_active[i])),
                               _fmt(traj.norms[i]), _fmt(traj.discarded[i]),
                               _fmt(traj.taus[i])]) + "\n")
    with open(os.path.join(out_dir, "pulse.csv"), "w") as fh:
        fh.write("t," + ",".join(f"u_{i}" for i in range(len(pulses))) + "\n")
        for t in traj.times:
            vals = [p.value(float(t)) for p in pulses]
            fh.write(",".join([_fmt(t)] + [_fmt(v) for v in vals]) + "\n")
    for i, snap in enumerate(traj.snapshots):
        write_heatmap_csv(os.path.join(out_dir, f"snapshot_{i:03d}.csv"),
                          model.lattices, snap.cells, snap.coefficients)
    n_total = model.product.n_cells
    meta = {
        "config": cfg,
        "completed": True,
        "steps": int(traj.n_steps),
        "t_final": float(traj.times[-1]) if traj.n_steps else sc["t_span"][0],
        "n_max": int(traj.n_active.max()) if traj.n_steps else len(ground.final_cells),
        "reduction_ratio": (float(traj.n_active.max()) / n_total
                            if traj.n_steps else None),
        "norm_final": float(traj.norms[-1]) if traj.n_steps else 1.0,
        "discarded_total": float(traj.discarded[-1]) if traj.n_steps else 0.0,
        "events": [[float(t), kind, detail] for t, kind, detail in traj.events],
        "ground_state": {"energy": float(ground.eigenvalues[0]),
                         "n_cells": len(ground.final_cells),
                         "iterations": ground.iterations},
        "cache": cache_totals(ground.hamiltonian, traj.hamiltonian),
        "timings": {"build_s": t_build, "ground_s": t_ground, "prop_s": t_prop},
    }
    _add_sop_meta(meta, model)
    _write_meta(os.path.join(out_dir, "run_meta.json"), meta)
    print(f"propagated {traj.n_steps} steps to t={meta['t_final']:.4g}, "
          f"max {meta['n_max']} of {n_total} cells -> {out_dir}")
    return EXIT_OK


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


def cmd_bench(args) -> int:
    import numpy as np

    from . import models
    from .hamiltonian import ReducedHamiltonian, kinetic_matrix
    from .reduced_space import grow_inverse
    from .solvers import TiseConfig, tise_adaptive

    rng = np.random.default_rng(args.seed)

    model = models.double_well()
    res = tise_adaptive(model.spec, model.product, TiseConfig(zeta=1e-6, n_modes=8))
    cells = res.final_cells
    print(f"double-well assembly over {len(cells)} active cells")

    t0 = time.perf_counter()
    ham = ReducedHamiltonian(model.spec, model.product, cells)
    t_cached = time.perf_counter() - t0
    stats = ham.cache_stats()

    pair = model.pairs[0]
    tmat = kinetic_matrix(pair.grid, model.spec.kinetic[0])
    vdiag = model.spec.potentials[0]
    idx = cells.indices[:, 0]
    t0 = time.perf_counter()
    direct = np.empty((len(idx), len(idx)), dtype=complex)
    hcols = tmat @ pair.B[:, idx] + vdiag[:, None] * pair.B[:, idx]
    for r, i in enumerate(idx):
        direct[r] = pair.B[:, i].conj() @ hcols
    t_direct = time.perf_counter() - t0
    dev = np.abs(direct - ham.Hbb).max()
    reuse = (stats["hits"] + stats["misses"]) / max(1, stats["misses"])
    print(f"  cached assembly  : {t_cached * 1e3:8.2f} ms "
          f"(table entries served beyond fills {stats['hits']}, canonical "
          f"values computed {stats['misses']})")
    print(f"  dense no-reuse   : {t_direct * 1e3:8.2f} ms, "
          f"max deviation {dev:.2e}")
    print(f"  symmetry reuse   : x{reuse:.1f} table entries per canonical "
          f"value computed; wall-clock speedup x{t_direct / t_cached:.2f} at "
          f"this size")

    n, m = 400, 8
    a = rng.normal(size=(n + m, n + m))
    big = a @ a.T + (n + m) * np.eye(n + m)
    ainv = np.linalg.inv(big[:n, :n])
    t0 = time.perf_counter()
    for _ in range(20):
        z = grow_inverse(ainv, big[:n, n:], big[n:, n:])
    t_update = (time.perf_counter() - t0) / 20
    t0 = time.perf_counter()
    for _ in range(20):
        zf = np.linalg.inv(big)
    t_fresh = (time.perf_counter() - t0) / 20
    print(f"block inverse update {n}+{m}: {t_update * 1e3:.2f} ms vs fresh "
          f"{t_fresh * 1e3:.2f} ms (x{t_fresh / t_update:.1f}), "
          f"deviation {np.abs(z - zf).max():.2e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser():
    ap = argparse.ArgumentParser(prog="vngrid",
                                 description="adaptive phase-space quantum dynamics")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (("tise", cmd_tise, True),
                                   ("tdse", cmd_tdse, True),
                                   ("validate", cmd_validate, False),
                                   ("bench", cmd_bench, False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config", help="path to run configuration (JSON)")
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="cap BLAS/OpenMP worker threads")
        p.add_argument("--seed", type=int, default=1234,
                       help="seed for randomized checks and benches")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # thread cap must land in the environment before numpy is imported
    if "--threads" in argv:
        i = argv.index("--threads")
        if i + 1 < len(argv):
            try:
                _set_thread_env(int(argv[i + 1]))
            except ValueError:
                pass
    args = _parser().parse_args(argv)
    if args.threads is not None:
        _set_thread_env(args.threads)
    from .errors import ConfigError

    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
