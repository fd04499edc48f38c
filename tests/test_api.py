"""The public surface: the package exports, the functions the benchmark tracer
wraps, and no shipped definition that only the tests use."""

import ast
import importlib
import inspect
from collections import Counter
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


def _referenced(tree: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute under ``tree``."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def test_every_definition_is_used_in_the_package():
    # a function, class or method that only the tests or the export table
    # name is code the package ships without running; dunders are called by
    # Python itself. ``ScoredPopulation.records`` alone is exempt: no command
    # needs it, but the benchmark tracer reads it to count the records.
    package = Path(fairscore.__file__).parent
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")
    }
    referenced = sum((_referenced(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if referenced[node.name] == _referenced(node)[node.name]:
                unused.append(f"{module}:{node.name}")
    assert unused == ["population.py:records"]
    assert _referenced(ast.parse(TRACER.read_text(encoding="utf-8")))["records"]
