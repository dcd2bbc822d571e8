"""List the statements of ``src/vngrid`` that only the tests reach.

Runs every caller of the package that is not a test, then the pytest suite,
each under ``line_coverage.trace`` in this process, and prints each
statement (as ``line_coverage.statements`` counts them) that the suite runs
and no caller does; ``raise`` statements are left out.  The callers run
first, so the modules are imported under their trace.  The callers:

* each benchmark workload (``perfbench/workloads.py``) at seed 0, run as
  ``perfbench/worker.py`` runs it;
* the benchmark oracle, ``reference_full_eig`` on helium;
* ``vngrid validate``;
* ``vngrid tise`` and ``vngrid tdse`` on each model of ``cli._MODELS``, the
  ``tdse`` runs driven by one pulse of each kind, on both couplings.

    python3 tools/reach.py

Prints, per module, each such statement (line number and source line), then
the count per module and the total.  Takes a few minutes; the exit code is
pytest's.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile

import line_coverage   # tools/line_coverage.py: this directory is sys.path[0]

_ROOT = line_coverage._ROOT
# the grid and lattice of each model's runs: its function's defaults
# (``table``'s file samples the harmonic potential on the harmonic axis)
_AXES = {"harmonic": (24.0, 120, 8, 15), "double_well": (80.0, 160, 5, 32),
         "helium1d": (15.0, 60, 5, 12), "table": (24.0, 120, 8, 15)}
_PULSES = [
    {"kind": "nir", "amplitude": 0.05, "period": 2.0, "coupling": "position"},
    {"kind": "xuv", "amplitude": 0.02, "period": 1.0, "sigma": 0.5,
     "t_on": 0.1, "coupling": "momentum"},
    {"kind": "table", "times": [0.0, 0.25, 0.5], "samples": [0.0, 0.01, 0.0],
     "coupling": "position", "scale": 0.5},
]


def _cli_config(name, work):
    L, N, Nx, Np = _AXES[name]
    axes = 2 if name == "helium1d" else 1
    model = {"name": name}
    if name == "table":
        model["file"] = os.path.join(work, "harmonic.csv")
        with open(model["file"], "w") as fh:
            for i in range(-60, 61):
                x = 0.2 * i
                fh.write(f"{x!r},{0.5 * x * x!r}\n")
    return {"grid": [{"L": L, "N": N}] * axes,
            "lattice": [{"Nx": Nx, "Np": Np}] * axes, "model": model}


def callers(work):
    """Run every caller that is not a test; raise if one of them fails."""
    sys.path[:0] = [os.path.join(_ROOT, d) for d in ("src", "perfbench")]
    import worker
    import workloads

    from vngrid import cli

    def check(what, code):
        if code != 0:
            raise RuntimeError(f"{what} exited {code}")

    for name, make in workloads.WORKLOADS.items():
        job = {"input": make(0), "work": work,
               "out": os.path.join(work, f"bench_{name}")}
        program = (worker.api_program if "api" in job["input"]
                   else worker.cli_program)(job)
        check(name, program())
    job = {"input": workloads.he_tise(0), "work": work}
    worker.oracle(job)
    check("validate", cli.main(["validate"]))
    for name in cli._MODELS:
        # helium's search tracks one mode, the 1-D models' two
        tise = {"zeta": 1e-5, "n_modes": 1 if name == "helium1d" else 2}
        tdse = {"zeta": 1e-4, "t_span": [0.0, 0.5], "pulses": _PULSES}
        for command, solver in (("tise", tise), ("tdse", tdse)):
            run = os.path.join(work, f"{command}_{name}")
            with open(run + ".json", "w") as fh:
                json.dump(dict(_cli_config(name, work),
                               solver={command: solver}), fh)
            check(f"{command} {name}",
                  cli.main([command, run + ".json", "--out", run]))


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        with contextlib.redirect_stdout(io.StringIO()):
            _, reached = line_coverage.trace(lambda: callers(work))
    code, tested = line_coverage.run_tests()

    def only_tested(path, shown, node):
        return (not isinstance(node, ast.Raise)
                and bool(shown & tested.get(path, set()))
                and not shown & reached.get(path, set()))

    line_coverage.report(only_tested)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
