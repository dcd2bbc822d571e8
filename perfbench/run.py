"""vngrid benchmark: time to solution, memory and accuracy, and a per-layer split.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh child process (``worker.py``) with one BLAS/OpenMP
thread.  Runs go one at a time in a closed loop: the next run starts when
the previous one has ended, until ``--seconds`` have passed (at least one
run).  Every run passes the correctness gate in ``workloads.gate`` or counts
as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the untraced runs, set-up time over every set-up probe.  ``--trace 1``
runs pairs of one untraced and one traced run, starting another pair only
if it should end within ``--seconds``, and reports the per-layer metrics:
medians over the traced runs, ``trace.overhead_s`` as the difference of the
traced and untraced median wall times, and the accuracy figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
package sources next to this directory the harness exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads  # perfbench/workloads.py: this directory is sys.path[0]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_work", "cache")
BUDGET_S = 165.0          # whole invocation, oracle included
SETUP_PROBES = 5          # set-up repetitions per untraced run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(job: dict, work: str, timeout: float) -> dict:
    """Run ``worker.py`` on ``job``; a crash or timeout gives ``rc`` only."""
    os.makedirs(work, exist_ok=True)
    job = dict(job, work=work, out=os.path.join(work, "out"))
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"rc": "timeout"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        sys.stderr.write(proc.stderr[-2000:])
        return {"rc": proc.returncode or "no result"}
    with open(result_path) as fh:
        result = json.load(fh)
    shutil.rmtree(work, ignore_errors=True)
    return result


def dense_energy(inp: dict, work: str, deadline: float) -> float | None:
    """Dense ground energy of a helium input, or None if the oracle failed.

    The oracle costs about 6 s, so its value is kept in the checkout, keyed
    by the model part of the config and the bytes of every package source.
    """
    key = hashlib.sha256(json.dumps(
        [inp["config"][k] for k in ("grid", "lattice", "model")]).encode())
    src = os.path.join(ROOT, "src", "vngrid")
    for name in sorted(os.listdir(src)):
        path = os.path.join(src, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                key.update(name.encode() + b"\0" + fh.read())
    cache = os.path.join(CACHE, f"oracle-{key.hexdigest()}.json")
    if os.path.exists(cache):
        with open(cache) as fh:
            return json.load(fh)["e_dense"]
    res = run_child({"oracle": True, "input": inp}, os.path.join(work, "oracle"),
                    deadline - time.monotonic())
    if "e_dense" in res:
        os.makedirs(CACHE, exist_ok=True)
        with open(cache, "w") as fh:
            json.dump(res, fh)
    return res.get("e_dense")


def measure(inp: dict, seconds: float, traced: bool, work: str,
            deadline: float) -> tuple:
    """Closed loop of runs; returns ``(runs, e_dense)``.

    Each run is gated as soon as it ends; ``run["failed"]`` holds the
    reasons it failed.
    """
    e_dense = dense_energy(inp, work, deadline) if workloads.needs_oracle(inp) else None
    per_layer = [m for m in bench_spec()["per_layer"] if m["unit"] == "count"]
    runs, first, first_traced = [], None, None
    start = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        for traced_run in ((False, True) if traced else (False,)):
            t0 = time.monotonic()
            job = {"input": inp, "traced": traced_run, "setup_probes": SETUP_PROBES}
            run = run_child(job, os.path.join(work, f"run{len(runs)}"),
                            deadline - t0)
            longest = max(longest, time.monotonic() - t0)
            if traced_run and "layers" in run:
                run["counts"] = {m["name"]: run["layers"].get(m["name"])
                                 for m in per_layer}
            run["failed"] = workloads.gate(inp, run, first, first_traced, e_dense)
            if not run["failed"]:
                first = first or run
                if traced_run:
                    first_traced = first_traced or run
            runs.append(run)
        now = time.monotonic()
        # A traced invocation runs untraced/traced pairs, twice the work per
        # round, so it starts another pair only if that should end in time.
        planned = now - start + (now - round_start if traced else 0.0)
        if planned >= seconds or now + longest * (2 if traced else 1) > deadline:
            return runs, e_dense


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def summarize(runs: list, inp: dict, e_dense, traced: bool) -> dict:
    """Metric values of one invocation, over the runs that passed."""
    ok = [r for r in runs if not r["failed"]]
    plain = [r for r in ok if not r.get("traced")]
    values = {
        "wall_s": _median(r["wall_s"] for r in plain),
        "setup_s": _median(s for r in plain for s in r["setup_s"]),
        "solve_s": _median(r["solve_s"] for r in plain),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
    }
    if traced:
        layered = [r for r in ok if r.get("traced")]
        names = layered[0]["layers"] if layered else {}
        for key in names:
            values[key] = _median(r["layers"][key] for r in layered)
        values["trace.overhead_s"] = (values.get("trace.wall_s", 0.0)
                                      - values["wall_s"])
        for key in ("eig_err", "norm_drift", "discarded_mass"):
            values["accuracy." + key] = _median(
                workloads.accuracy(inp, r, e_dense).get(key) for r in ok)
    return values


def report(name: str, seed: int, runs: list, values: dict, spec: dict,
           traced: bool, e_dense) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    failed = sum(1 for r in runs if r["failed"])
    plain = sum(1 for r in runs if not r.get("traced") and not r["failed"])
    print(f"workload {name}  seed {seed}  runs {len(runs)}  failed {failed}"
          f"  failed_frac {failed / len(runs):.3f}"
          + (f"  dense ground energy {e_dense:.12f}" if e_dense is not None else ""))
    for i, r in enumerate(runs):
        status = "ok" if not r["failed"] else "FAILED: " + "; ".join(r["failed"])
        kind = "traced" if r.get("traced") else "untraced"
        wall = r.get("wall_s")
        print(f"  run {i} {kind:8s} wall {wall if wall is None else round(wall, 4)} s"
              f"  {status}")
        for note in r.get("hook_errors", []) + [f"absent: {a}" for a in r.get("absent", [])]:
            print(f"    {note}")
    # A traced invocation also prints the end-to-end figures of its untraced
    # runs, so one command shows every metric; its JSON line has the
    # per-layer metrics only.
    shown = spec["end_to_end"] + (spec["per_layer"] if traced else [])
    metrics = {}
    for m in shown:
        if m["name"] not in values:
            print(f"  {m['name']:34s} no value: no passing run measured it")
        value = values.get(m["name"], 0.0)
        print(f"  {m['name']:34s} {value:>16.6g} {m['unit']}")
        if (m in spec["per_layer"]) == traced:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"  (medians over {plain} passing untraced runs"
          + (f" and {sum(1 for r in runs if r.get('traced') and not r['failed'])}"
             " passing traced runs)" if traced else ")"))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vngrid", "__init__.py")):
        print(f"error: no vngrid sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    spec = bench_spec()
    inp = workloads.WORKLOADS[args.workload](args.seed)
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        runs, e_dense = measure(inp, args.seconds, bool(args.trace), work,
                                deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = summarize(runs, inp, e_dense, bool(args.trace))
    metrics = report(args.workload, args.seed, runs, values, spec,
                     bool(args.trace), e_dense)
    failed = sum(1 for r in runs if r["failed"])
    complete = all(m in values for m in metrics)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
