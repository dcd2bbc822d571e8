import json
import os

import numpy as np
import pytest

from vngrid.cli import EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK, main


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _harmonic_cfg(out, **solver):
    # Np = 15 keeps the window momentum width small enough for excited
    # modes to drop below the cutoff inside the band
    return {
        "grid": [{"L": 20.0, "N": 60}],
        "lattice": [{"Nx": 4, "Np": 15}],
        "model": {"name": "harmonic"},
        "solver": solver,
        "output": {"directory": out},
    }


def test_tise_artifacts_and_determinism(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    cfg = _harmonic_cfg(out1, tise={"zeta": 1e-6, "n_modes": 4})
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["tise", path]) == EXIT_OK
    assert main(["tise", path, "--out", out2]) == EXIT_OK
    for name in ("eigenvalues.csv", "cells.csv", "mode_000.csv",
                 "mode_003.csv", "run_meta.json"):
        assert os.path.exists(os.path.join(out1, name))
    for name in ("eigenvalues.csv", "cells.csv", "mode_000.csv"):
        with open(os.path.join(out1, name), "rb") as a, \
             open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read()


def test_tise_eigenvalues_content(tmp_path):
    out = str(tmp_path / "run")
    path = _write(tmp_path, "cfg.json",
                  _harmonic_cfg(out, tise={"zeta": 1e-6, "n_modes": 5}))
    assert main(["tise", path]) == EXIT_OK
    rows = open(os.path.join(out, "eigenvalues.csv")).read().strip().split("\n")
    assert rows[0] == "index,eigenvalue"
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    np.testing.assert_allclose(vals, np.arange(5) + 0.5, atol=1e-6)
    assert np.all(np.diff(vals) >= 0)
    # heatmap raster covers the whole lattice, inactive cells at zero
    heat = np.loadtxt(os.path.join(out, "mode_000.csv"), delimiter=",",
                      skiprows=1)
    assert heat.shape == (60, 3)
    assert (heat[:, 2] == 0.0).any() and (heat[:, 2] > 0.0).any()


def test_run_meta_embeds_resolved_config(tmp_path):
    out = str(tmp_path / "run")
    path = _write(tmp_path, "cfg.json", _harmonic_cfg(out, tise={}))
    assert main(["tise", path]) == EXIT_OK
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    solver = meta["config"]["solver"]["tise"]
    assert solver["zeta"] == 1e-6 and solver["n_modes"] == 1
    assert solver["max_iterations"] == 200
    assert meta["config"]["model"]["m"] == 1.0
    assert meta["config"]["grid"][0]["x0"] == 0.0
    assert meta["converged"] is True
    assert meta["cache"]["hits"] > 0


def test_schema_violations_are_config_errors(tmp_path):
    # two solver sections
    cfg = _harmonic_cfg(str(tmp_path / "x"), tise={}, tdse={"t_span": [0, 1]})
    assert main(["tise", _write(tmp_path, "a.json", cfg)]) == EXIT_CONFIG
    # unknown model name
    cfg = _harmonic_cfg(str(tmp_path / "x"), tise={})
    cfg["model"]["name"] = "quartic"
    assert main(["tise", _write(tmp_path, "b.json", cfg)]) == EXIT_CONFIG
    # wrong type with a field path in the message
    cfg = _harmonic_cfg(str(tmp_path / "x"), tise={"zeta": "small"})
    assert main(["tise", _write(tmp_path, "c.json", cfg)]) == EXIT_CONFIG
    # missing config file
    assert main(["tise", str(tmp_path / "none.json")]) == EXIT_CONFIG


def test_nonconvergence_exit_code(tmp_path):
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tise={"max_iterations": 1, "n_modes": 6})
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == EXIT_NO_CONVERGENCE
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["converged"] is False and meta["n_history"]


def test_tdse_run_and_norm_column(tmp_path):
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 3.0], "tau0": 0.05,
                                   "zeta": 1e-6})
    cfg["output"]["snapshot_every"] = 30
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_OK
    rows = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",",
                      skiprows=1)
    norm = rows[:, 2]
    assert np.all(norm <= 1.0 + 1e-10) and np.all(norm >= 1.0 - 1e-5)
    assert os.path.exists(os.path.join(out, "pulse.csv"))
    assert os.path.exists(os.path.join(out, "snapshot_000.csv"))
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["completed"] is True
    assert meta["ground_state"]["energy"] == pytest.approx(0.5, abs=1e-6)


def test_tdse_pulse_artifacts(tmp_path):
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={
        "t_span": [0.0, 0.3], "tau0": 0.05, "zeta": 1e-3,
        "pulses": [{"kind": "table", "coupling": "momentum",
                    "times": [0.0, 1.0, 2.0], "samples": [0.0, 0.5, 0.0]}]})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_OK
    pulse = np.loadtxt(os.path.join(out, "pulse.csv"), delimiter=",",
                       skiprows=1)
    assert pulse.shape[1] == 2
    # controller respects the slope-derived cap from the first step on
    traj = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",",
                      skiprows=1)
    from vngrid.dynamics import max_timestep
    cap = max_timestep(1e-3, np.pi * 60 / 20.0, 0.5)
    assert traj[0, 4] <= min(0.05, cap) + 1e-12


def test_tise_double_well_config(tmp_path):
    out = str(tmp_path / "run")
    cfg = {
        "grid": [{"L": 80.0, "N": 160}],
        "lattice": [{"Nx": 5, "Np": 32}],
        "model": {"name": "double_well", "m": 1.0, "omega": 1.0,
                  "b": 20.0, "d": 22.0},
        "solver": {"tise": {"zeta": 1e-6, "n_modes": 8}},
        "output": {"directory": out},
    }
    assert main(["tise", _write(tmp_path, "dw.json", cfg)]) == EXIT_OK
    rows = open(os.path.join(out, "eigenvalues.csv")).read().strip().split("\n")
    vals = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert len(vals) == 8 and np.all(np.diff(vals) >= 0)
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["converged"] and meta["n_final"] < 160


def _assert_cache_and_sop(meta, n_grid):
    # fill-time accounting: misses are canonical values computed by plane and
    # pair fills, stored is derived from the filled planes
    cache = meta["cache"]
    assert cache["hits"] > 0 and cache["misses"] > 0
    assert cache["stored"] == cache["misses"]
    sop = meta["sop"]
    assert sop["rank"] >= 1 and sop["max_abs_error"] <= 1e-6
    assert sop["rank_over_N"] == sop["rank"] / n_grid


def test_tise_helium_meta_reports_cache_and_sop(tmp_path):
    out = str(tmp_path / "run")
    cfg = {
        "grid": [{"L": 15.0, "N": 60}, {"L": 15.0, "N": 60}],
        "lattice": [{"Nx": 5, "Np": 12}, {"Nx": 5, "Np": 12}],
        "model": {"name": "helium1d"},
        "solver": {"tise": {"zeta": 1e-2, "n_modes": 1}},
        "output": {"directory": out},
    }
    assert main(["tise", _write(tmp_path, "he.json", cfg)]) == EXIT_OK
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    _assert_cache_and_sop(meta, 60)


def test_tdse_helium_desk_scale(tmp_path):
    # two-axis driven run: completes, reduction ratio reported below 0.5
    out = str(tmp_path / "run")
    cfg = {
        "grid": [{"L": 15.0, "N": 60}, {"L": 15.0, "N": 60}],
        "lattice": [{"Nx": 5, "Np": 12}, {"Nx": 5, "Np": 12}],
        "model": {"name": "helium1d"},
        "solver": {"tdse": {
            "zeta": 1e-4, "t_span": [0.0, 1.0], "tau0": 0.02,
            "pulses": [
                {"kind": "nir", "amplitude": 0.066, "period": 11.0,
                 "coupling": "position"},
                {"kind": "xuv", "amplitude": 0.02, "period": 2.07,
                 "sigma": 1.5, "t_on": 0.25, "coupling": "position"},
            ]}},
        "output": {"directory": out, "snapshot_every": 100},
    }
    assert main(["tdse", _write(tmp_path, "he.json", cfg)]) == EXIT_OK
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["completed"] is True
    assert meta["reduction_ratio"] < 0.5
    assert abs(meta["norm_final"] - 1.0) < 1e-6
    _assert_cache_and_sop(meta, 60)


def test_bench_runs(capsys):
    assert main(["bench", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "speedup" in out and "block inverse" in out
