"""The public surface: the package exports and the functions the benchmark tracer wraps."""

import ast
import importlib
import inspect
from pathlib import Path

import fairscore

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> tuple[str, ...]:
    """``TARGETS`` of the benchmark tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_all_names_resolve():
    missing = [name for name in fairscore.__all__ if not hasattr(fairscore, name)]
    assert missing == []


def test_tracer_targets_are_public_functions():
    # the tracer wraps a name only when it is a public function defined in its
    # own module; any other target counts in bench.missing_targets
    targets = tracer_targets()
    assert targets
    for target in targets:
        layer, attr = target.split(".")
        module = importlib.import_module(f"fairscore.{layer}")
        obj = vars(module).get(attr)
        assert not attr.startswith("_"), target
        assert inspect.isfunction(obj), target
        assert obj.__module__ == module.__name__, target
