"""The benchmark in ``perfbench/`` reaches metriclab by name: its tracer
wraps the functions listed in ``LAYERS`` and its workloads call
``ml.<name>``, ``cli.<name>`` and ``suites.<name>``. These tests read those
files (without importing or changing them) and check that every such name
exists, so a rename fails here and not only in a benchmark run."""

import ast
import importlib
from pathlib import Path

import metriclab
from metriclab import cli, suites

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def test_traced_layers_resolve_to_callables():
    (layers,) = [node.value for node in ast.walk(_parse("tracer.py"))
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    entries = ast.literal_eval(layers)
    assert entries
    for modname, attr, *_ in entries:
        assert modname.split(".")[0] == "metriclab", modname
        target = getattr(importlib.import_module(modname), attr, None)
        assert callable(target), f"{modname}.{attr}"


def test_workload_names_exist():
    modules = {"ml": metriclab, "cli": cli, "suites": suites}
    used = {(node.value.id, node.attr) for node in ast.walk(_parse("workloads.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {alias for alias, _ in used} == set(modules)
    missing = sorted(f"{alias}.{attr}" for alias, attr in used
                     if not hasattr(modules[alias], attr))
    assert not missing
