"""One run of one workload in a fresh process; the result goes to a JSON file.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``

The job names the generated input, an output directory and whether the run
is traced.  The harness sets ``PYTHONPATH`` to the checkout's ``src`` and
caps BLAS/OpenMP threads in this process's environment before it starts.
An untraced run wraps only the solver entry points (their timestamps mark
set-up, solve and output); a traced run wraps every layer in
``spans.LAYER_WRAPS``.  With ``"oracle": true`` the job computes the dense
ground energy instead of running the workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time

import spans  # perfbench/spans.py: this directory is sys.path[0]

clock = time.perf_counter


class _SetupDone(BaseException):
    """Raised by the solver stub of a set-up probe (passes ``except Exception``)."""


def warm_up():
    """Import the numeric stack and make its first LAPACK/FFT calls.

    The first LAPACK call costs 0.2-0.8 s and would land in whichever phase
    calls first; libraries load once per process, so this is not the
    program's own set-up.
    """
    import jsonschema  # noqa: F401 - imported by the config loader
    import numpy as np
    import scipy.linalg

    a = np.eye(6, dtype=complex) + 0.1
    b = np.eye(6, dtype=complex) * 2.0
    scipy.linalg.eigh(a, b, subset_by_index=[0, 0])
    scipy.linalg.eigh(a.real, eigvals_only=True)
    np.linalg.cond(b)
    np.linalg.svd(a.real)
    cho = scipy.linalg.cho_factor(b)
    scipy.linalg.cho_solve(cho, a)
    np.fft.ifft(np.fft.fft(a, axis=0), axis=0)
    import vngrid  # noqa: F401
    import vngrid.cli  # noqa: F401


# ---------------------------------------------------------------------------
# the program under test, called only through its public names
# ---------------------------------------------------------------------------

def cli_program(job):
    import vngrid.cli

    cfg_path = os.path.join(job["work"], "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(job["input"]["config"], fh)
    argv = [job["input"]["command"], cfg_path, "--out", job["out"]]
    return lambda: vngrid.cli.main(argv)


def api_program(job):
    import numpy as np

    import vngrid
    from vngrid.reduced_space import CellSet, ReducedBasis, expand_cells

    inp = job["input"]
    st = inp["state"]

    def run():
        model = vngrid.models.harmonic()
        grid, lat, pair = model.grids[0], model.lattices[0], model.pairs[0]
        psi = vngrid.models.coherent_state(grid, st["x0"], st["p0"], st["sigma"])
        coeffs = vngrid.analyze(pair, psi)
        occupied = np.where(np.abs(coeffs) >= st["seed_cutoff"])[0]
        cells = expand_cells(CellSet(occupied[:, None]), lat)
        c0 = vngrid.dynamics.project_state(model.product, cells,
                                           psi * np.sqrt(grid.dx))
        c0 /= ReducedBasis.create(model.product, cells).physical_norm(c0)
        cfg = vngrid.dynamics.PropagationConfig(
            zeta=inp["zeta"], tau0=inp["tau0"], snapshot_every=0)
        vngrid.dynamics.tdse_adaptive(model.spec, model.product, c0, cells,
                                      tuple(inp["t_span"]), cfg=cfg)
        return 0

    return run


def setup_probe(program) -> float:
    """Seconds from the program's start to its first solver entry.

    The solvers are replaced by a stub that stops the program there.
    """
    import vngrid.dynamics
    import vngrid.solvers

    hit = []

    def stub(*args, **kwargs):
        hit.append(clock())
        raise _SetupDone

    saved = (vngrid.solvers.tise_adaptive, vngrid.dynamics.tdse_adaptive)
    vngrid.solvers.tise_adaptive = vngrid.dynamics.tdse_adaptive = stub
    t0 = clock()
    try:
        program()
    except _SetupDone:
        pass
    finally:
        vngrid.solvers.tise_adaptive, vngrid.dynamics.tdse_adaptive = saved
    if not hit:
        raise RuntimeError("set-up probe never reached a solver")
    return hit[0] - t0


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def read_outputs(out_dir: str) -> dict:
    """Digest of every CSV file, plus the figures the gate reads from them."""
    found = {"output_bytes": 0}
    if not os.path.isdir(out_dir):
        return found
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        found["output_bytes"] += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(name.encode() + b"\0" + data)
    found["digest"] = h.hexdigest()
    eig = os.path.join(out_dir, "eigenvalues.csv")
    if os.path.exists(eig):
        with open(eig) as fh:
            found["csv_energy"] = float(fh.read().splitlines()[1].split(",")[1])
    traj = os.path.join(out_dir, "trajectory.csv")
    if os.path.exists(traj):
        with open(traj) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        t = [float(r[0]) for r in rows]
        tau = [float(r[4]) for r in rows]
        found["csv_trajectory"] = {
            "t_start": t[0] - tau[0],
            "t_final": t[-1],
            "norm_drift": max(abs(float(r[2]) - 1.0) for r in rows),
            "discarded": float(rows[-1][3]),
        }
    return found


def layer_metrics(tr: spans.Tracer, wall: float, solver_exit: float,
                  root_end: float, output_bytes: int) -> dict:
    """Per-layer figures of a traced run, keyed as in BENCHMARK.json."""
    names = spans.by_name(tr.spans)

    def self_s(name):
        return names.get(name, (0.0, 0))[0]

    def calls(name):
        return names.get(name, (0.0, 0))[1]

    m = {"entry.self_s": self_s(spans.ROOT)}
    for name in ("models.build", "vn_basis.build", "hamiltonian.sop_fit",
                 "hamiltonian.lookup", "hamiltonian.combined",
                 "reduced_space.inverse", "reduced_space.grow",
                 "reduced_space.shrink", "reduced_space.bookkeeping",
                 "reduced_space.norm", "solvers.eig", "dynamics.taylor"):
        m[name + "_s"] = self_s(name)
        m[name + "_calls"] = calls(name)
    del m["dynamics.taylor_calls"]        # reported as dynamics.steps_attempted
    m["hamiltonian.contract_s"] = self_s("hamiltonian.assemble")
    m["hamiltonian.assemble_s"] = m["hamiltonian.contract_s"] + m["hamiltonian.lookup_s"]
    m["hamiltonian.assemble_calls"] = calls("hamiltonian.assemble")
    m["solvers.tise_self_s"] = self_s("solvers.tise")
    m["solvers.tise_calls"] = calls("solvers.tise")
    m["dynamics.tdse_self_s"] = self_s("dynamics.tdse")
    m["dynamics.tdse_calls"] = calls("dynamics.tdse")

    c = tr.counts
    m.update({
        "hamiltonian.entries_assembled": c["hamiltonian.entries_assembled"],
        "hamiltonian.cache_requests": c["hamiltonian.cache_requests"],
        "hamiltonian.cache_misses": c["hamiltonian.cache_misses"],
        "hamiltonian.sop_rank": c["hamiltonian.sop_rank"],
        "reduced_space.cells_added": c["reduced_space.cells_added"],
        "reduced_space.cells_removed": c["reduced_space.cells_removed"],
        "solvers.eig_n_max": c["solvers.eig_n_max"],
        "solvers.n_final": tr.facts.get("n_final", 0),
        "solvers.tise_iterations": tr.facts.get("tise_iterations", 0),
        "dynamics.taylor_terms": c["dynamics.taylor_terms"],
        "dynamics.matvec_gflop": c["dynamics.matvec_flop"] / 1e9,
    })
    tdse = tr.facts.get("tdse", {})
    attempted = calls("dynamics.taylor")
    accepted = tdse.get("steps", 0)
    step_ms = [(s[2] - s[1]) * 1e3 for s in tr.spans if s[0] == "dynamics.taylor"]
    m.update({
        "dynamics.steps_attempted": attempted,
        "dynamics.steps_accepted": accepted,
        "dynamics.accept_ratio": accepted / attempted if attempted else 0.0,
        "dynamics.step_ms_p50": spans.percentile(step_ms, 50),
        "dynamics.step_ms_p90": spans.percentile(step_ms, 90),
        "dynamics.basis_events": tdse.get("basis_events", 0),
        "dynamics.n_active_min": tdse.get("n_min", 0),
        "dynamics.n_active_max": tdse.get("n_max", 0),
        "cli.output_s": root_end - solver_exit,
        "cli.output_bytes": output_bytes,
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(spans.self_times(tr.spans)),
        "trace.spans": len(tr.spans),
        "trace.absent_names": len(tr.absent),
    })
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def oracle(job) -> dict:
    import vngrid.cli
    from vngrid.solvers import reference_full_eig

    cfg_path = os.path.join(job["work"], "oracle.json")
    config = dict(job["input"]["config"], solver={"tise": {}})
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    model = vngrid.cli.build_model(vngrid.cli.load_config(cfg_path))
    return {"e_dense": float(reference_full_eig(model.spec, 1)[0])}


def run(job) -> dict:
    warm_up()
    program = api_program(job) if "api" in job["input"] else cli_program(job)
    setup = [] if job["traced"] else [setup_probe(program)
                                      for _ in range(job["setup_probes"])]
    tr = spans.Tracer(clock)
    tr.install(spans.LAYER_WRAPS if job["traced"] else spans.SOLVER_WRAPS)
    root = tr.begin(spans.ROOT)
    rc = program()
    tr.end(root)
    tr.read_results()
    _, start, end, _ = tr.spans[root]
    solver_names = ("solvers.tise", "dynamics.tdse")
    entry, leave = tr.first_entry(solver_names), tr.last_exit(solver_names)
    outputs = read_outputs(job["out"])
    result = {"rc": rc, "traced": job["traced"], "facts": tr.facts,
              "absent": tr.absent, "hook_errors": tr.hook_errors}
    result.update(outputs)
    if entry is None:
        return result
    result.update({
        "wall_s": end - start,
        "setup_s": setup + [entry - start],
        "solve_s": leave - entry,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if "digest" not in result and "tdse" in tr.facts:
        result["digest"] = tr.facts["tdse"]["digest"]
    if job["traced"]:
        result["layers"] = layer_metrics(tr, end - start, leave, end,
                                         outputs["output_bytes"])
    return result


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    result = oracle(job) if job.get("oracle") else run(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
