"""The benchmark's traced run still finds every function it measures.

perfbench/layertrace.py wraps ffe functions by module path and silently leaves
out every per-layer metric whose function is gone, so a renamed or moved
function would drop metrics from a traced result. This loads the tracer by
path, installs it, and checks that its metrics are exactly the per-layer names
BENCHMARK.json declares, each finite; it changes nothing under perfbench/.
"""
import importlib.util
import json
import math
import sys
from pathlib import Path

import ffe.classify

ROOT = Path(__file__).resolve().parent.parent


def _load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "ffe_benchmark_layertrace", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(targets):
    """Every name bound in an ffe module, and every traced class attribute."""
    out = {
        (key, name): value
        for key, module in list(sys.modules.items())
        if module is not None and (key == "ffe" or key.startswith("ffe."))
        for name, value in vars(module).items()
    }
    for _, module, path, _ in targets:
        owner, _, attr = path.rpartition(".")
        if owner:
            out[(module, path)] = vars(getattr(sys.modules[module], owner))[attr]
    return out


def test_traced_metrics_match_benchmark():
    layertrace = _load_layertrace()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = layertrace.Tracer()
    before = _bindings(layertrace.TARGETS)
    try:
        tracer.install()
        assert tracer.missing == set()
        ffe.classify.classify_lu(ffe.classify.classify_lfp(3, "all")).to_json()
        metrics = layertrace.layer_metrics(tracer, 1, 0.0, 0.0)
    finally:
        tracer.uninstall()
        after = _bindings(layertrace.TARGETS)
        assert all(after[key] is value for key, value in before.items())
    assert set(metrics) == declared
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["classify.orbits"]["value"] == 9
