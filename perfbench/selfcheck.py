"""Self-checks of the benchmark harness.

Usage (from the root of a checkout): ``python3 perfbench/selfcheck.py``

1. Self-time arithmetic and wrapping on a synthetic span tree and module.
2. The correctness gate on synthetic run results.
3. An injected failing run counts in ``failed``/``attempted``.
4. Two traced runs of the same seed give identical counts.

Checks 3 and 4 start real child runs (about a minute in all).  Exits 0
when every check passes.
"""

from __future__ import annotations

import os
import shutil
import sys
import types

import run as harness  # perfbench/run.py: this directory is sys.path[0]
import spans
import workloads


def check_self_times():
    tree = [["entry", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["b", 2.0, 3.0, 1],
            ["a", 5.0, 9.0, 0],
            ["c", 6.0, 7.0, 3],
            ["c", 7.5, 8.0, 3]]
    own = spans.self_times(tree)
    assert own == [3.0, 2.0, 1.0, 2.5, 1.0, 0.5], own
    assert spans.by_name(tree) == {"entry": (3.0, 1), "a": (4.5, 2),
                                   "b": (1.0, 1), "c": (1.5, 2)}
    assert sum(own) == 10.0

    # wrapping: nesting, class and static methods, absent names, hook errors
    mod = types.ModuleType("perfbench_synthetic")

    class Thing:
        @classmethod
        def make(cls):
            return mod.leaf()

        @staticmethod
        def helper():
            return 2

    mod.Thing = Thing
    mod.leaf = lambda: 1
    sys.modules[mod.__name__] = mod
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    try:
        tr.wrap(mod.__name__, "Thing.make", "outer")
        tr.wrap(mod.__name__, "Thing.helper", "helper",
                hook=lambda t, name, args, out: out.missing_attribute)
        tr.wrap(mod.__name__, "leaf", "inner")
        tr.wrap(mod.__name__, "gone", "never")
        tr.wrap(mod.__name__, "Gone.method", "never")
        root = tr.begin(spans.ROOT)
        assert Thing.make() == 1 and Thing.helper() == 2
        tr.end(root)
    finally:
        tr.restore()
        del sys.modules[mod.__name__]
    assert [s[0] for s in tr.spans] == [spans.ROOT, "outer", "inner", "helper"]
    assert [s[3] for s in tr.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tr.spans) == [3.0, 2.0, 1.0, 1.0]
    assert tr.absent == [f"{mod.__name__}.gone", f"{mod.__name__}.Gone.method"]
    assert len(tr.hook_errors) == 1 and "AttributeError" in tr.hook_errors[0]
    assert Thing.make() == 1 and mod.leaf() == 1 and len(tr.spans) == 4
    assert spans.percentile([5, 1, 4, 2, 3], 50) == 3
    assert spans.percentile([5, 1, 4, 2, 3], 90) == 5


def check_gate():
    he = workloads.he_tise(0)
    run = {"rc": 0, "wall_s": 1.0, "csv_energy": -2.9}
    assert workloads.gate(he, run, None, None, -2.9) == []
    assert workloads.gate(he, run, None, None, -2.8)[0].startswith("eig_err")
    assert workloads.gate(he, run, None, None, None)[0].startswith("no eig_err")
    traj = {"norm_drift": 2e-6, "discarded": 1e-2, "t_final": 400.0,
            "t_start": 0.0, "digest": "a"}
    bad = workloads.gate(workloads.ho_tdse_free(0),
                         {"rc": 0, "wall_s": 1.0, "facts": {"tdse": traj},
                          "digest": "a"}, {"digest": "b"}, None, None)
    assert [r.split()[0] for r in bad] == ["norm_drift", "discarded", "outputs"], bad
    traced = {"rc": 0, "wall_s": 1.0, "csv_energy": -2.9, "traced": True,
              "layers": {"trace.self_sum_s": 1.0, "trace.wall_s": 1.0},
              "counts": {"solvers.eig_calls": 7}}
    first = dict(traced, counts={"solvers.eig_calls": 6})
    assert workloads.gate(he, traced, None, first, -2.9) == [
        "counts differ from the first traced run: solvers.eig_calls"]


def check_injected_failure(work):
    inp = workloads.ho_tdse_free(0)
    good = harness.run_child({"input": inp, "traced": False, "setup_probes": 1},
                             os.path.join(work, "good"), 120.0)
    broken = dict(inp, tau0=-1.0)      # PropagationConfig rejects it
    bad = harness.run_child({"input": broken, "traced": False, "setup_probes": 1},
                            os.path.join(work, "bad"), 120.0)
    runs = []
    for run in (good, bad):
        run["failed"] = workloads.gate(inp, run, None, None, None)
        runs.append(run)
    assert not good["failed"], good["failed"]
    assert bad["failed"] and bad["failed"][0].startswith("exit code"), bad["failed"]
    values = harness.summarize(runs, inp, None, traced=False)
    assert values["wall_s"] == good["wall_s"]
    metrics = harness.report("ho_tdse_free", 0, runs, values, harness.bench_spec(),
                             False, None)
    assert set(metrics) == {m["name"] for m in harness.bench_spec()["end_to_end"]}
    assert sum(1 for r in runs if r["failed"]) / len(runs) == 0.5


def check_repeated_counts(work):
    counted = [m["name"] for m in harness.bench_spec()["per_layer"]
               if m["unit"] == "count"]
    for name in ("ho_tdse_free", "he_tdse_driven"):
        inp = workloads.WORKLOADS[name](0)
        first, second = (
            harness.run_child({"input": inp, "traced": True, "setup_probes": 0},
                              os.path.join(work, f"{name}{i}"), 150.0)
            for i in range(2))
        for key in counted:
            assert first["layers"][key] == second["layers"][key], (name, key)
        assert first["digest"] == second["digest"], name
        shown = {k: first["layers"][k] for k in (
            "dynamics.taylor_terms", "dynamics.basis_events",
            "hamiltonian.entries_assembled", "solvers.eig_calls")}
        print(f"  {name}: counts repeat exactly, e.g. {shown}")


def main() -> int:
    if not os.path.isfile(os.path.join(harness.ROOT, "src", "vngrid", "__init__.py")):
        print(f"error: no vngrid sources under {harness.ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(harness.ROOT, ".perfbench_work", f"selfcheck-{os.getpid()}")
    try:
        for check in (check_self_times, check_gate,
                      lambda: check_injected_failure(work),
                      lambda: check_repeated_counts(work)):
            check()
        print("selfcheck: all checks passed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
