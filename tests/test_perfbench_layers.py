"""The benchmark's traced layers name functions that exist in vngrid.

``perfbench/spans.py`` wraps each layer by module and attribute path and
records a missing name as absent instead of failing, so a rename in the
package would silently drop a layer from the benchmark's figures.
"""

import importlib
import importlib.util
import pathlib

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _defined(module, path):
    # the same lookup as Tracer.wrap: a method must be defined on its class
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return owner is not None and attr in vars(owner)


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{path}" for module, path, *_ in spans.LAYER_WRAPS
               if not _defined(module, path)]
    assert not missing
