"""The benchmark's workloads: inputs made from a seed, and the correctness gate.

Seed 0 gives exactly the configurations in ``perfbench/README.md``; other
seeds perturb only inputs that keep the work comparable.  The program
receives only the generated config (CLI workloads) or state parameters (API
workload).

This module is imported by the harness and by its child processes; it
imports nothing outside the standard library.
"""

from __future__ import annotations

import math
import random

EIG_TOL = 1e-5            # acceptance criterion 09
NORM_TOL = 1e-6           # acceptance criterion 08
DISCARD_RATE_FACTOR = 10  # discarded mass per unit time <= 10 zeta (criterion 08)

_HELIUM = {
    "grid": [{"L": 15.0, "N": 60}, {"L": 15.0, "N": 60}],
    "lattice": [{"Nx": 5, "Np": 12}, {"Nx": 5, "Np": 12}],
    "model": {"name": "helium1d"},
}


def _perturb(seed: int, count: int):
    """``count`` numbers in [-1, 1] from ``seed``; all zero for seed 0."""
    if seed == 0:
        return [0.0] * count
    rng = random.Random(seed)
    return [rng.uniform(-1.0, 1.0) for _ in range(count)]


def he_tise(seed: int) -> dict:
    # Every input of this run moves the cell count or the iteration count
    # (model, grid, lattice, cutoff), so all seeds run criterion 09's config.
    return {"command": "tise",
            "config": dict(_HELIUM, solver={"tise": {"zeta": 1e-5, "n_modes": 1}})}


def he_tdse_driven(seed: int) -> dict:
    # The XUV onset moves by up to +-0.05: the slope cap on tau, and so the
    # step count, does not depend on it, and the field stays weak on [0, 1].
    (du,) = _perturb(seed, 1)
    pulses = [
        {"kind": "nir", "amplitude": 0.066, "period": 11.0,
         "coupling": "position"},
        {"kind": "xuv", "amplitude": 0.02, "period": 2.07, "sigma": 1.5,
         "t_on": 0.25 + 0.05 * du, "coupling": "position"},
    ]
    return {"command": "tdse",
            "config": dict(_HELIUM, solver={"tdse": {
                "zeta": 1e-4, "t_span": [0.0, 1.0], "tau0": 0.02,
                "pulses": pulses}})}


def ho_tdse_free(seed: int) -> dict:
    # The coherent state's centre moves by up to +-0.02 in x and p: over
    # x0 in [2.4, 2.6] the step count varied by 2% and the basis changes by
    # 7%, so a smaller move keeps the work within about 1%.
    dx, dp = _perturb(seed, 2)
    return {"api": "tdse_free",
            "state": {"x0": 2.5 + 0.02 * dx, "p0": 0.02 * dp,
                      "sigma": math.sqrt(0.5), "seed_cutoff": 1e-6},
            "zeta": 1e-6, "tau0": 0.05, "t_span": [0.0, 400.0]}


WORKLOADS = {
    "he_tise": he_tise,
    "he_tdse_driven": he_tdse_driven,
    "ho_tdse_free": ho_tdse_free,
}


def needs_oracle(inp: dict) -> bool:
    """The helium workloads are checked against the dense ground energy."""
    return inp.get("config", {}).get("model", {}).get("name") == "helium1d"


def is_tdse(inp: dict) -> bool:
    return inp.get("command") == "tdse" or inp.get("api") == "tdse_free"


def zeta(inp: dict) -> float:
    if "config" in inp:
        solver = inp["config"]["solver"]
        return (solver.get("tise") or solver.get("tdse"))["zeta"]
    return inp["zeta"]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def accuracy(inp: dict, run: dict, e_dense: float | None) -> dict:
    """Accuracy figures of one run, read from its stable outputs.

    ``eig_err`` compares the ground energy (``eigenvalues.csv`` for TISE,
    the ground-state solver's return value for TDSE) with the dense oracle;
    ``norm_drift`` and ``discarded_mass`` come from ``trajectory.csv`` or
    the propagator's return value.  Missing figures are left out.
    """
    out = {}
    energy = run.get("csv_energy")
    if energy is None and run.get("facts", {}).get("eigenvalues"):
        energy = run["facts"]["eigenvalues"][0]
    if e_dense is not None and energy is not None:
        out["eig_err"] = abs(energy - e_dense)
    traj = run.get("csv_trajectory") or run.get("facts", {}).get("tdse")
    if traj:
        out["norm_drift"] = traj["norm_drift"]
        out["discarded_mass"] = traj["discarded"]
        out["discard_rate"] = traj["discarded"] / (traj["t_final"] - traj["t_start"])
    return out


def gate(inp: dict, run: dict, first: dict | None, first_traced: dict | None,
         e_dense: float | None) -> list:
    """Reasons this run fails; empty when it passes.

    ``first`` and ``first_traced`` are the first passing run and the first
    passing traced run of the same invocation: outputs must be
    byte-identical to the former, and a traced run's counts identical to
    the latter's.
    """
    if run.get("rc") != 0:
        return [f"exit code {run.get('rc')}"]
    if "wall_s" not in run:
        return ["the program never entered a solver"]
    reasons = []
    acc = accuracy(inp, run, e_dense)
    if needs_oracle(inp):
        if "eig_err" not in acc:
            reasons.append("no eig_err: no ground energy in the outputs, "
                           "or the dense oracle failed")
        elif acc["eig_err"] > EIG_TOL:
            reasons.append(f"eig_err {acc['eig_err']:.3e} > {EIG_TOL:g}")
    if is_tdse(inp):
        if "norm_drift" not in acc:
            reasons.append("no trajectory in the outputs")
        else:
            if acc["norm_drift"] > NORM_TOL:
                reasons.append(f"norm_drift {acc['norm_drift']:.3e} > {NORM_TOL:g}")
            limit = DISCARD_RATE_FACTOR * zeta(inp)
            if acc["discard_rate"] > limit:
                reasons.append(f"discarded mass rate {acc['discard_rate']:.3e}"
                               f" > {limit:g} per unit time")
    layers = run.get("layers", {})
    if run.get("traced") and abs(layers.get("trace.self_sum_s", -1.0)
                                 - layers.get("trace.wall_s", 0.0)) > 1e-6:
        reasons.append("span self times do not sum to the traced wall time")
    if first is not None and run.get("digest") != first.get("digest"):
        reasons.append("outputs differ from the first run")
    if run.get("traced") and first_traced is not None:
        changed = sorted(k for k, v in run.get("counts", {}).items()
                         if first_traced["counts"].get(k) != v)
        if changed:
            reasons.append("counts differ from the first traced run: "
                           + ", ".join(changed))
    return reasons
