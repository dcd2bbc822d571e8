import dataclasses
import importlib
import json
import os

import numpy as np
import pytest

from vngrid.cli import (EXIT_CONFIG, EXIT_DEGENERATE_BASIS, EXIT_NO_CONVERGENCE,
                        EXIT_OK, EXIT_OTHER, EXIT_TAU_UNDERFLOW, load_config,
                        main)


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
    assert meta["config"]["grid"] == [{"L": 20.0, "N": 60}]
    assert meta["converged"] is True
    assert meta["cache"]["hits"] > 0
    assert meta["timings"]["peak_rss_mb"] > 0


@pytest.mark.parametrize("name, function, fields", [
    ("harmonic", "harmonic", {"m": "mass", "omega": "omega"}),
    ("double_well", "double_well", {"m": "mass", "omega": "omega",
                                    "b": "barrier", "d": "half_separation"}),
    ("helium1d", "helium_1d", {"a0": "a0", "sop_tolerance": "sop_tolerance"}),
    ("table", "tabulated", {"m": "mass"}),
])
def test_model_defaults_are_the_model_functions(tmp_path, name, function,
                                                fields):
    # a model field left out of the config resolves to its function's
    # default, so a default changed in vngrid.models reaches run_meta.json
    import inspect

    from vngrid import models

    cfg = _harmonic_cfg(str(tmp_path / "run"), tise={})
    cfg["model"] = {"name": name, **({"file": "v.csv"} if name == "table"
                                     else {})}
    if name == "helium1d":
        cfg["grid"], cfg["lattice"] = cfg["grid"] * 2, cfg["lattice"] * 2
    resolved = load_config(_write(tmp_path, "cfg.json", cfg))["model"]
    params = inspect.signature(getattr(models, function)).parameters
    assert resolved.pop("name") == name
    resolved.pop("file", None)
    assert resolved == {field: params[kw].default
                        for field, kw in fields.items()}


def test_solver_defaults_are_the_config_dataclasses(tmp_path):
    # the run_meta.json solver section resolved from {} holds the field
    # values of TiseConfig and PropagationConfig
    from vngrid.dynamics import PropagationConfig
    from vngrid.solvers import TiseConfig

    out = str(tmp_path / "run")
    path = _write(tmp_path, "cfg.json", _harmonic_cfg(out, tise={}))
    assert main(["tise", path]) == EXIT_OK
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["config"]["solver"]["tise"] == dataclasses.asdict(TiseConfig())
    cfg = load_config(_write(tmp_path, "tdse.json",
                             _harmonic_cfg(out, tdse={"t_span": [0.0, 1.0]})))
    prop = dataclasses.asdict(PropagationConfig())
    assert cfg["output"]["snapshot_every"] == prop.pop("snapshot_every")
    tdse = cfg["solver"]["tdse"]
    assert {k: tdse[k] for k in prop} == prop
    assert tdse["initial_zeta"] == prop["zeta"]


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
    # the neighbour stencil is fixed: no solver block takes a radius
    for command, block in (("tise", {"radius": 2.0}),
                           ("tdse", {"t_span": [0, 1], "radius": 2.0})):
        cfg = _harmonic_cfg(str(tmp_path / "x"), **{command: block})
        path = _write(tmp_path, f"{command}.json", cfg)
        assert main([command, path]) == EXIT_CONFIG


def test_schema_solver_blocks_are_the_config_fields():
    # each solver setting the schema admits is a config field, and each
    # config field is settable; the propagator's snapshot_every is an output
    # setting, and t_span, max_steps, initial_zeta and pulses are read by
    # the tdse command itself
    from vngrid import cli
    from vngrid.dynamics import PropagationConfig
    from vngrid.solvers import TiseConfig

    with open(os.path.join(os.path.dirname(cli.__file__),
                           "config_schema.json")) as fh:
        solver = json.load(fh)["properties"]["solver"]["properties"]
    fields = {f.name for f in dataclasses.fields(TiseConfig)}
    assert set(solver["tise"]["properties"]) == fields
    fields = {f.name for f in dataclasses.fields(PropagationConfig)}
    assert set(solver["tdse"]["properties"]) == (
        fields - {"snapshot_every"}
        | {"t_span", "max_steps", "initial_zeta", "pulses"})


def test_grid_offset_is_a_config_error(tmp_path):
    # the models sample every grid from x = 0; an offset would be ignored
    # while run_meta.json recorded it
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tise={})
    cfg["grid"][0]["x0"] = 0.1
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert not os.path.exists(out)


@pytest.mark.parametrize("model, grids, named", [
    ({"name": "helium1d", "m": 7.0, "omega": 3.0, "b": 1.0}, None,
     "at /model: model 'helium1d' has no parameter 'b', 'm', 'omega'"),
    ({"name": "harmonic", "a0": 1.0}, None,
     "at /model: model 'harmonic' has no parameter 'a0'"),
    ({"name": "double_well", "file": "v.csv"}, None,
     "at /model: model 'double_well' has no parameter 'file'"),
    ({"name": "table", "file": "v.csv", "omega": 2.0}, None,
     "at /model: model 'table' has no parameter 'omega'"),
    ({"name": "table"}, None, "at /model: table model requires 'file'"),
    ({"name": "helium1d"}, [{"L": 20.0, "N": 60}],
     "at /grid: model 'helium1d' needs 2 grid and lattice entries"),
    ({"name": "helium1d"}, [{"L": 20.0, "N": 60}, {"L": 20.0, "N": 64}],
     "at /grid: helium1d axes must share one grid/lattice"),
], ids=["helium-mass", "harmonic-a0", "double-well-file", "table-omega",
        "table-no-file", "helium-one-grid", "helium-two-grids"])
def test_field_of_another_model_is_a_config_error(tmp_path, capsys, model,
                                                  grids, named):
    # a model is built from its own fields only, on one grid and lattice per
    # axis: any other field would be ignored while run_meta.json recorded
    # it, and so would a second helium grid.  ``grids`` None gives each
    # axis the harmonic config's grid
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tise={"zeta": 1e-2})
    cfg["model"] = model
    if grids is None:
        grids = cfg["grid"] * (2 if model["name"] == "helium1d" else 1)
    cfg["grid"], cfg["lattice"] = grids, cfg["lattice"] * len(grids)
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not os.path.exists(out)


def test_table_model_of_the_harmonic_potential_gives_its_bytes(tmp_path):
    # a table of the harmonic potential at the grid's centred points, as
    # repr floats, reads back to the same samples: the same run, byte for
    # byte
    from vngrid import models

    m = models.harmonic(L=20.0, N=60, Nx=4, Np=15)
    table = tmp_path / "v.csv"
    table.write_text("".join(
        f"{float(x)!r},{float(v)!r}\n"
        for x, v in zip(m.grids[0].centered_points, m.spec.potentials[0])))
    for name, model in (("harmonic", {"name": "harmonic"}),
                        ("table", {"name": "table", "file": str(table)})):
        cfg = _harmonic_cfg(str(tmp_path / name),
                            tise={"zeta": 1e-6, "n_modes": 2})
        cfg["model"] = model
        assert main(["tise", _write(tmp_path, f"{name}.json", cfg)]) == EXIT_OK
    names = ["cells.csv", "eigenvalues.csv", "mode_000.csv", "mode_001.csv"]
    assert sorted(os.listdir(tmp_path / "table")) == names + ["run_meta.json"]
    for name in names:
        assert ((tmp_path / "table" / name).read_bytes()
                == (tmp_path / "harmonic" / name).read_bytes())


def test_validate_prints_each_check_and_fails_on_any(monkeypatch, capsys):
    # a failed assertion and a crash are both failed checks
    from vngrid import validate

    def passes(rng):
        return "fine"

    def fails(rng):
        raise AssertionError("off by one")

    def crashes(rng):
        raise ValueError("bad input")

    monkeypatch.setattr(validate, "CHECKS", [
        ("a/passes", passes), ("b/fails", fails), ("c/crashes", crashes)])
    assert main(["validate"]) == EXIT_OTHER
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert [line.split()[:2] for line in lines[:3]] == [
        ["PASS", "a/passes"], ["FAIL", "b/fails"], ["FAIL", "c/crashes"]]
    assert lines[0].endswith("fine") and lines[1].endswith("off by one")
    assert lines[2].endswith("ValueError: bad input")
    assert lines[3] == "1/3 checks passed"


def test_nonconvergence_exit_code(tmp_path):
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tise={"max_iterations": 1, "n_modes": 6})
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == EXIT_NO_CONVERGENCE
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["converged"] is False and meta["n_history"]


def test_tdse_ground_state_nonconvergence_writes_meta(tmp_path, monkeypatch):
    import vngrid.solvers as solvers
    from vngrid.errors import ConvergenceError

    def no_ground_state(*args, **kwargs):
        raise ConvergenceError("injected", history=[(4, 0.5)])

    monkeypatch.setattr(solvers, "tise_adaptive", no_ground_state)
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 1.0]})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_NO_CONVERGENCE
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["completed"] is False
    assert meta["n_history"] == [[4, 0.5]]
    assert meta["error"] == "injected"


def test_empty_or_reversed_t_span_is_config_error(tmp_path, capsys):
    for t_span in ([1.0, 0.0], [0.5, 0.5]):
        cfg = _harmonic_cfg(str(tmp_path / "run"), tdse={"t_span": t_span})
        assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
        assert "t_span" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("pulse", [
    {"kind": "nir"},
    {"kind": "xuv", "amplitude": 0.02, "period": 2.0},
    {"kind": "table", "samples": [0.0, 1.0]},
    {"kind": "table", "times": [0.0, 0.0], "samples": [0.0, 1.0]},
], ids=["nir-fields", "xuv-sigma", "table-times", "table-repeated-time"])
def test_malformed_pulse_is_config_error(tmp_path, capsys, pulse):
    cfg = _harmonic_cfg(str(tmp_path / "run"), tdse={
        "t_span": [0.0, 1.0], "pulses": [dict(pulse, coupling="position")]})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert "/solver/tdse/pulses/0" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("pulse, unread", [
    ({"kind": "table", "times": [0.0, 1.0], "samples": [0.0, 1.0],
      "t_on": 5.0, "amplitude": 0.1, "sigma": 1.0},
     "'amplitude', 'sigma', 't_on'"),
    ({"kind": "nir", "amplitude": 0.1, "period": 2.0, "sigma": 1.0,
      "times": [0.0, 1.0], "samples": [0.0, 1.0]},
     "'samples', 'sigma', 'times'"),
    ({"kind": "xuv", "amplitude": 0.1, "period": 2.0, "sigma": 1.0,
      "samples": [0.0, 1.0]}, "'samples'"),
], ids=["table", "nir", "xuv"])
def test_pulse_field_its_kind_does_not_read_is_config_error(tmp_path, capsys,
                                                            pulse, unread):
    cfg = _harmonic_cfg(str(tmp_path / "run"), tdse={
        "t_span": [0.0, 1.0],
        "pulses": [{"kind": "nir", "amplitude": 0.1, "period": 2.0,
                    "coupling": "position"}, dict(pulse, coupling="position")]})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: at /solver/tdse/pulses/1: a {pulse['kind']!r} pulse "
        f"reads no {unread}\n")
    assert not os.path.exists(tmp_path / "run")


def test_nonfinite_table_potential_is_config_error(tmp_path, capsys):
    table = tmp_path / "v.csv"
    table.write_text("-10,50\n0,nan\n10,50\n")
    cfg = _harmonic_cfg(str(tmp_path / "run"), tise={})
    cfg["model"] = {"name": "table", "file": str(table)}
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert str(table) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("command, solver", [
    ("tdse", {"tise": {}}),
    ("tise", {"tdse": {"t_span": [0.0, 1.0]}}),
], ids=["tdse-on-tise-config", "tise-on-tdse-config"])
def test_config_for_the_other_command_is_config_error(tmp_path, capsys,
                                                      command, solver):
    cfg = _harmonic_cfg(str(tmp_path / "run"), **solver)
    assert main([command, _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert "at /solver:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("content", [None, "-10,50\n0,low\n10,50\n",
                                     "-10\n0\n10\n"],
                         ids=["missing", "non-numeric", "one-column"])
def test_unreadable_table_potential_is_config_error(tmp_path, capsys, content):
    table = tmp_path / "v.csv"
    if content is not None:
        table.write_text(content)
    cfg = _harmonic_cfg(str(tmp_path / "run"), tise={})
    cfg["model"] = {"name": "table", "file": str(table)}
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == EXIT_CONFIG
    assert str(table) in capsys.readouterr().err


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
    assert meta["timings"]["peak_rss_mb"] > 0
    assert meta["ground_state"]["energy"] == pytest.approx(0.5, abs=1e-6)
    # one axis never folds
    assert meta["exchange"] is None and meta["n_folded_max"] is None
    assert meta["ground_state"]["n_folded"] is None


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
    # fill-time accounting: misses are the values computed by the potential
    # class fills and the direct kinetic fills
    cache = meta["cache"]
    assert cache["hits"] > 0 and cache["misses"] > 0
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


def _helium_tdse_cfg(out):
    return {
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


@pytest.fixture(scope="module")
def he_tdse_run(tmp_path_factory):
    """Output directory of one driven helium ``tdse`` run."""
    tmp = tmp_path_factory.mktemp("he_tdse")
    out = str(tmp / "run")
    assert main(["tdse", _write(tmp, "he.json", _helium_tdse_cfg(out))]) == EXIT_OK
    return out


def test_tdse_helium_desk_scale(he_tdse_run):
    # two-axis driven run: completes, reduction ratio reported below 0.5
    meta = json.load(open(os.path.join(he_tdse_run, "run_meta.json")))
    assert meta["completed"] is True
    assert meta["reduction_ratio"] < 0.5
    assert abs(meta["norm_final"] - 1.0) < 1e-6
    # the drift monitor's reading: no step moved the norm past the bound
    assert meta["norm_step_max"] <= meta["config"]["solver"]["tdse"]["taylor_eps"]
    assert "refresh" not in [e[1] for e in meta["events"]]
    _assert_cache_and_sop(meta, 60)


def test_tdse_helium_runs_in_the_exchange_symmetric_sector(he_tdse_run):
    # the ground search and the propagation run on 499 swap orbits; the
    # outputs count and show the 981 lattice cells they span
    meta = json.load(open(os.path.join(he_tdse_run, "run_meta.json")))
    assert meta["exchange"] == "symmetric"
    assert meta["ground_state"]["n_cells"] == meta["n_max"] == 981
    assert meta["ground_state"]["n_folded"] == meta["n_folded_max"] == 499
    traj = np.loadtxt(os.path.join(he_tdse_run, "trajectory.csv"),
                      delimiter=",", skiprows=1)
    assert np.all(traj[:, 1] == 981)
    amp = np.loadtxt(os.path.join(he_tdse_run, "snapshot_001.csv"),
                     delimiter=",", skiprows=1)[:, 4].reshape(60, 60)
    assert np.count_nonzero(amp) == 981
    np.testing.assert_array_equal(amp, amp.T)


def test_tdse_meta_reports_the_tau_cap(he_tdse_run, tmp_path):
    # helium's smooth pulses take the midpoint rule's bound; a table's
    # slope jumps at its knots, so the paper's first-order cap binds
    cap = json.load(open(os.path.join(he_tdse_run, "run_meta.json")))["tau_cap"]
    assert cap["binding"] == "midpoint"
    assert cap["first_order"] < cap["midpoint"]
    traj = np.loadtxt(os.path.join(he_tdse_run, "trajectory.csv"),
                      delimiter=",", skiprows=1)
    assert traj[:, 4].max() <= cap["midpoint"] * (1 + 1e-12)
    metas = {}
    for name, pulses in (("table", [{"kind": "table", "coupling": "momentum",
                                     "times": [0.0, 1.0, 2.0],
                                     "samples": [0.0, 0.5, 0.0]}]),
                         ("free", [])):
        out = str(tmp_path / name)
        cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 0.1], "tau0": 0.05,
                                       "zeta": 1e-3, "pulses": pulses})
        assert main(["tdse", _write(tmp_path, f"{name}.json", cfg)]) == EXIT_OK
        metas[name] = json.load(open(os.path.join(out, "run_meta.json")))
    assert metas["table"]["tau_cap"] == {
        "first_order": pytest.approx(0.0103, rel=1e-2), "midpoint": 0.0,
        "binding": "first_order"}
    assert metas["free"]["tau_cap"] is None


def _reference_heatmap(path, lattices, cells, coeffs):
    """The raster written cell by cell (the writer's former loop)."""
    import itertools

    from vngrid.cli import _axis_names, _cell_position, _fmt

    ranges = [range(lat.n_cells) for lat in lattices]
    amp = np.zeros([len(r) for r in ranges])
    amp[tuple(cells.indices.T)] = [abs(c) for c in np.asarray(coeffs)]
    with open(path, "w") as fh:
        fh.write(",".join(_axis_names(len(lattices))) + ",amplitude\n")
        for combo in itertools.product(*ranges):
            pos = [v for lat, i in zip(lattices, combo)
                   for v in _cell_position(lat, i)]
            fh.write(",".join(_fmt(v) for v in pos)
                     + "," + _fmt(amp[combo]) + "\n")


def test_heatmap_writer_matches_cell_by_cell_reference(tmp_path):
    from vngrid import models
    from vngrid.cli import HeatmapWriter
    from vngrid.solvers import TiseConfig, tise_adaptive

    cases = []
    for model in (models.harmonic(L=20.0, N=60, Nx=4, Np=15),
                  models.double_well()):
        res = tise_adaptive(model.spec, model.product,
                            TiseConfig(zeta=1e-6, n_modes=2))
        cases += [(model, res.final_cells, res.eigenvectors[:, m])
                  for m in range(2)]
    he = models.helium_1d()
    folded = he.product.folded()
    res = tise_adaptive(he.spec, folded, TiseConfig(zeta=1e-2, n_modes=1))
    cases.append((he, *folded.unfold(res.final_cells, res.eigenvectors[:, 0])))
    for i, (model, cells, coeffs) in enumerate(cases):
        new, ref = tmp_path / f"new_{i}.csv", tmp_path / f"ref_{i}.csv"
        HeatmapWriter(model.lattices).write(new, cells, coeffs)
        _reference_heatmap(ref, model.lattices, cells, coeffs)
        assert new.read_bytes() == ref.read_bytes()


def test_tdse_propagates_in_the_ground_state_objects(tmp_path, monkeypatch):
    # the propagator takes over the eigenmode search's basis and blocks
    import vngrid.dynamics as dynamics

    def no_rebuild(*args, **kwargs):
        raise AssertionError("tdse rebuilt the reduced Hamiltonian")

    monkeypatch.setattr(dynamics, "ReducedHamiltonian", no_rebuild)
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 0.5], "zeta": 1e-6})
    assert main(["--debug", "tdse", _write(tmp_path, "cfg.json", cfg)]) == EXIT_OK


@pytest.mark.parametrize("command, module, name", [
    ("tise", "vngrid.solvers", "tise_adaptive"),
    ("tdse", "vngrid.dynamics", "tdse_adaptive")])
def test_cli_looks_up_the_solvers_at_call_time(tmp_path, monkeypatch, command,
                                               module, name):
    # perfbench times CLI runs by wrapping these module attributes: a
    # command that bound them at import would run unwrapped and untimed
    class Reached(Exception):
        pass

    def stub(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(importlib.import_module(module), name, stub)
    solver = {"t_span": [0.0, 0.5]} if command == "tdse" else {}
    cfg = _harmonic_cfg(str(tmp_path / "run"), **{command: solver})
    with pytest.raises(Reached):
        main(["--debug", command, _write(tmp_path, "cfg.json", cfg)])


def _meta_without_timings(path):
    meta = json.load(open(path))
    meta.pop("timings")
    return meta


def test_tdse_outputs_byte_identical_across_runs(he_tdse_run, tmp_path):
    # the driven run reuses one buffer for its generator; repeated runs of
    # one config must still write the same bytes (run_meta: all but timings)
    out = str(tmp_path / "again")
    path = _write(tmp_path, "he.json", _helium_tdse_cfg(he_tdse_run))
    assert main(["tdse", path, "--out", out]) == EXIT_OK
    names = sorted(os.listdir(he_tdse_run))
    assert names == sorted(os.listdir(out))
    assert "pulse.csv" in names and "snapshot_001.csv" in names
    for name in names:
        a, b = os.path.join(he_tdse_run, name), os.path.join(out, name)
        if name == "run_meta.json":
            assert _meta_without_timings(a) == _meta_without_timings(b)
        else:
            assert open(a, "rb").read() == open(b, "rb").read(), name


def test_even_by_even_lattice_exits_degenerate_basis(tmp_path):
    # a critical 6 x 10 lattice has an exactly singular Gaussian overlap
    for command, solver, flag in (("tise", {}, "converged"),
                                  ("tdse", {"t_span": [0.0, 0.1]}, "completed")):
        out = str(tmp_path / command)
        cfg = _harmonic_cfg(out, **{command: solver})
        cfg["lattice"] = [{"Nx": 6, "Np": 10}]
        path = _write(tmp_path, "even.json", cfg)
        assert main([command, path]) == EXIT_DEGENERATE_BASIS
        meta = json.load(open(os.path.join(out, "run_meta.json")))
        assert meta[flag] is False
        assert "ill-conditioned" in meta["error"]


def test_mid_propagation_update_failure_exits_degenerate_basis(tmp_path,
                                                               monkeypatch):
    # the ground state is prepared at a coarser cutoff, so propagation grows
    # the basis at once; the second growth fails
    import vngrid.reduced_space as reduced_space
    import vngrid.solvers as solvers
    from vngrid.errors import DegenerateUpdateError

    real_grow = reduced_space.grow_inverse
    calls = []

    def failing_grow(*args):
        calls.append(1)
        if len(calls) == 2:
            raise DegenerateUpdateError("injected Schur failure")
        return real_grow(*args)

    real_tise = solvers.tise_adaptive

    def tise_then_fail(*args, **kwargs):
        res = real_tise(*args, **kwargs)
        monkeypatch.setattr(reduced_space, "grow_inverse", failing_grow)
        return res

    monkeypatch.setattr(solvers, "tise_adaptive", tise_then_fail)
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 1.0], "tau0": 0.05,
                                   "zeta": 1e-6, "initial_zeta": 1e-2})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == \
        EXIT_DEGENERATE_BASIS
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["completed"] is False
    assert meta["error"] == "injected Schur failure"
    assert meta["events"][0][1:] == ["basis", "+10 -0 cells"]


def test_failed_refresh_exits_degenerate_basis(tmp_path, monkeypatch,
                                              inverse_drift):
    # a defect injected after the third change forces a refresh, and the
    # fresh inverse it forms fails.  The run starts from the ground state,
    # whose norm a defect moves only through the part that is not
    # stationary, so the defect is large (1e-8 moved it by 1.1e-13 a step)
    import vngrid.reduced_space as reduced_space
    from vngrid.errors import IllConditionedBasisError

    def failing_fresh(sinv, n, **kwargs):
        raise IllConditionedBasisError("injected refresh failure", size=n)

    unstage = reduced_space.ReducedBasis.unstage

    def refresh_then_fail(self):             # only a refresh unstages
        monkeypatch.setattr(reduced_space, "_fresh_inverse", failing_fresh)
        unstage(self)

    monkeypatch.setattr(reduced_space.ReducedBasis, "unstage",
                        refresh_then_fail)
    updates = inverse_drift(3, 1e-4)
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 1.0], "tau0": 0.05,
                                   "zeta": 1e-6, "initial_zeta": 1e-2})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == \
        EXIT_DEGENERATE_BASIS
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["completed"] is False
    assert meta["error"] == "injected refresh failure"
    kinds = [e[1] for e in meta["events"]]
    assert kinds.count("basis") == len(updates) >= 3
    assert "refresh" not in kinds


def test_step_underflow_exits_tau_underflow(tmp_path, monkeypatch):
    # every Taylor series runs out of terms, so the step halves to the floor
    import vngrid.dynamics as dynamics

    def series_too_long(g, psi, tau, cfg):
        return dynamics.TaylorStep(psi=None, terms=cfg.max_taylor_terms,
                                   too_large=True)

    monkeypatch.setattr(dynamics, "taylor_step", series_too_long)
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tdse={"t_span": [0.0, 1.0], "tau0": 0.05})
    assert main(["tdse", _write(tmp_path, "cfg.json", cfg)]) == \
        EXIT_TAU_UNDERFLOW
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["completed"] is False
    assert "time step fell below" in meta["error"]
    # 0.05 halves below 1e-12 on the 36th rejection
    assert len(meta["events"]) == 36
    assert all(e[0] == 0.0 and e[1] == "shrink" for e in meta["events"])
    assert meta["events"][-1][2].startswith("series: tau -> ")


def test_debug_reraises_unexpected_errors(monkeypatch):
    import vngrid.cli as cli

    def broken(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert main(["validate"]) == EXIT_OTHER
    with pytest.raises(RuntimeError, match="unexpected"):
        main(["--debug", "validate"])


def test_tise_lattice_product_beyond_the_limit_exits_degenerate_basis(
        tmp_path, monkeypatch):
    # a limit between one helium axis's cond(S) (15.0) and their product
    # (225): each axis passes, and the product basis is refused when the
    # model is built, before the search makes a reduced overlap
    import vngrid.reduced_space as reduced_space

    monkeypatch.setattr(reduced_space, "COND_LIMIT", 100.0)
    out = str(tmp_path / "run")
    cfg = dict(_helium_tdse_cfg(out), solver={"tise": {"zeta": 1e-2}})
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == \
        EXIT_DEGENERATE_BASIS
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["converged"] is False
    assert "product-lattice overlap of 3600 cells is ill-conditioned" in \
        meta["error"]


@pytest.mark.parametrize("model,limit", [("double_well", 2), ("harmonic", 9)])
def test_ill_conditioned_tise_basis_exits_degenerate_basis(
        tmp_path, monkeypatch, model, limit):
    # a product-check limit below the single axis's cond(S) (15.0 for the
    # double well, 131 for the harmonic lattice): the axis passes the
    # engine's limit when its basis pair is built, and the product check,
    # which on one axis repeats that one, refuses it
    import vngrid.reduced_space as reduced_space

    monkeypatch.setattr(reduced_space, "COND_LIMIT", float(limit))
    out = str(tmp_path / "run")
    cfg = _harmonic_cfg(out, tise={})
    if model == "double_well":
        cfg.update(grid=[{"L": 80.0, "N": 160}], lattice=[{"Nx": 5, "Np": 32}],
                   model={"name": "double_well"})
    assert main(["tise", _write(tmp_path, "cfg.json", cfg)]) == \
        EXIT_DEGENERATE_BASIS
    meta = json.load(open(os.path.join(out, "run_meta.json")))
    assert meta["converged"] is False
    n = cfg["lattice"][0]["Nx"] * cfg["lattice"][0]["Np"]
    assert f"overlap of {n} cells is ill-conditioned" in meta["error"]


def test_threads_option_is_a_usage_error(tmp_path, capsys):
    # BLAS fixes its thread count when numpy is imported, before any option
    # is parsed: the count is set in the environment instead
    path = _write(tmp_path, "cfg.json", _harmonic_cfg(str(tmp_path / "run"),
                                                      tise={}))
    with pytest.raises(SystemExit) as exc:
        main(["tise", path, "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
