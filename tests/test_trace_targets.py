"""The benchmark's traced functions exist in the library.

perfbench/layers.py names each function its traced run wraps as
``<module>.<function>``; a renamed or deleted one would leave its
per-layer metric at zero. TARGETS is read from the file's syntax tree, so
the benchmark's modules are neither imported nor edited.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _target_names():
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [ast.literal_eval(entry.elts[0]) for entry in node.value.elts]
    raise AssertionError(f"{LAYERS} assigns no TARGETS")


def test_benchmark_trace_targets_resolve_to_library_functions():
    names = _target_names()
    assert names
    missing = []
    for name in names:
        module, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"skinseg.{module}"), function, None)):
            missing.append(name)
    assert missing == []
