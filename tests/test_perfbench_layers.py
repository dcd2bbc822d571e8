"""The benchmark's traced layers name functions that exist in vngrid, and
its hooks read the arguments those functions take.

``perfbench/spans.py`` wraps each layer by module and attribute path and
records a missing name as absent instead of failing, so a rename in the
package would silently drop a layer from the benchmark's figures; a hook
that fails is recorded too, so a changed signature would silently zero a
count.
"""

import importlib
import importlib.util
import pathlib

from vngrid.dynamics import PropagationConfig, taylor_step

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
