"""The per-layer call metrics in BENCHMARK.json name functions that still exist.

`bench/run.py --trace 1` counts calls of each layer's public functions by
name; a metric whose function was renamed or removed would read 0 silently.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _call_metrics() -> list[tuple[str, str]]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return [tuple(name.split(".")[:2]) for name in names
            if name.endswith(".calls") and name.count(".") == 2]


def test_benchmark_call_metrics_name_public_functions():
    metrics = _call_metrics()
    assert metrics
    for layer, fn in metrics:
        module = importlib.import_module(
            "holelab." + ("_parallel" if layer == "parallel" else layer))
        obj = getattr(module, fn, None)
        assert not fn.startswith("_"), f"{layer}.{fn}"
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, f"{layer}.{fn}"
