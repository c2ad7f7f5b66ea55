"""The benchmark's tracer names functions of the package by string; a
rename there would silently drop a span, so each name must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced
    for module, names in traced.items():
        mod = importlib.import_module(f"mrkit.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"mrkit.{module}.{name}"
