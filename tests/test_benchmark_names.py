"""The functions named by the benchmark's per-layer metrics exist.

A per-layer metric ``<module>.<function>.<stat>`` is traced through the
public function ``damped_eb.<module>.<function>``, named after the module
that defines it; a function that moved, went private or became an alias of
another module's function leaves the metric absent.
"""
import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions_of_their_modules():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = sorted({tuple(n.split(".")[:2]) for n in names if n.count(".") == 2})
    assert functions
    problems = []
    for module_name, fn_name in functions:
        module = importlib.import_module(f"damped_eb.{module_name}")
        fn = getattr(module, fn_name, None)
        if not inspect.isfunction(fn):
            problems.append(f"{module_name}.{fn_name}: no such function")
        elif fn.__module__ != module.__name__:
            problems.append(f"{module_name}.{fn_name}: defined in {fn.__module__}")
    assert not problems, problems
