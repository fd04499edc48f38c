"""The public surface: the package exports, the functions the benchmark tracer
wraps, no shipped definition that only the tests use, and which modules the
CLI imports."""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


ARRAY_VALUES = {
    "FairScores": lambda: fairscore.FairScores(np.array([0.0, 1.0]), fairscore.ThetaPolicy()),
    "EmpiricalDistribution": lambda: fairscore.EmpiricalDistribution(np.array([0.0, 1.0])),
    "QuantileGrid": lambda: fairscore.QuantileGrid(np.array([0.0, 1.0])),
    "DiscreteMeasure": lambda: fairscore.DiscreteMeasure(np.eye(2), np.array([0.5, 0.5])),
    "TransportPlan": lambda: fairscore.TransportPlan(np.eye(2) / 2, 0.01, 1, True, 0.0),
    "BregmanBarycenter": lambda: fairscore.BregmanBarycenter(
        np.eye(2), np.array([0.5, 0.5]), (np.eye(2),), 1, 0.0
    ),
}


@pytest.mark.parametrize("name", list(ARRAY_VALUES))
def test_values_holding_arrays_are_equal_only_to_themselves(name):
    # a field-wise == would compare arrays, whose truth value is ambiguous
    a, b = ARRAY_VALUES[name](), ARRAY_VALUES[name]()
    assert type(a).__name__ == name
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


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


def test_every_module_parses_at_the_declared_python_floor():
    # the grammar of the oldest Python that pyproject.toml admits, checked on
    # whichever newer interpreter runs the tests
    pyproject = (Path(fairscore.__file__).parents[2] / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert floor
    for path in sorted(Path(fairscore.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ast.parse(source, str(path), feature_version=(int(floor[1]), int(floor[2])))


def _message_templates(tree: ast.AST) -> Counter:
    """Each string literal under ``tree``, an f-string with ``{}`` for each field."""
    templates = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            templates["".join(
                part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
            )] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            templates[node.value] += 1
    return templates


# Each input rule's message, in the module of the one type or function that
# checks the rule, and the texts of the copies it replaced.
RULE_OWNERS = {
    "theta {} outside [0, 1]": "interpolation.py",
    "theta override {} for group {} outside [0, 1]": "interpolation.py",
    "specify exactly one of threshold or top_k": "metrics.py",
    "number of weights must match number of distributions": "solver_settings.py",
    "barycenter weights must be strictly positive": "solver_settings.py",
    "barycenter weights must sum to 1": "solver_settings.py",
    "fair scores are not aligned with the population": "metrics.py",
}
REPLACED_COPIES = [
    "sweep theta {} outside [0, 1]",
    "configure at most one of selection threshold and top-k",
    "number of weights must match number of measures",
    "weights must be strictly positive and sum to 1",
]


def test_each_input_rule_is_checked_in_one_place():
    # a JoinedStr's constant parts are Constant nodes too; a part never equals
    # a whole message, so only whole literals are counted
    package = Path(fairscore.__file__).parent
    found = {
        path.name: _message_templates(ast.parse(path.read_text(encoding="utf-8")))
        for path in package.glob("*.py")
    }
    for message, owner in RULE_OWNERS.items():
        assert {module: t[message] for module, t in found.items() if t[message]} == {owner: 1}
    for message in REPLACED_COPIES:
        assert [module for module, t in found.items() if t[message]] == []


def _imported_modules(nodes) -> set[str]:
    """The fairscore modules that the import statements among ``nodes`` name."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names |= {alias.name.removeprefix("fairscore.") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "fairscore") == "fairscore":  # ``from . import cli``
                names |= {alias.name for alias in node.names}
            else:  # ``from .cli import main`` and ``from fairscore.cli import main``
                names.add(node.module.removeprefix("fairscore."))
    return names


def _runtime_statements(body):
    """The statements of ``body`` that run on import: ``if`` blocks are entered,
    except ``if TYPE_CHECKING:``; functions and classes are not."""
    for node in body:
        if isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                yield from _runtime_statements(node.body + node.orelse)
        else:
            yield node


def test_cli_is_imported_by_no_module_and_imports_no_optional_one():
    # ``oracle``, ``synth``, the n-D layer ``transportnd`` and the 1-D layer
    # ``empirical`` and ``transport1d`` are loaded only by the commands and
    # score dimensions that run them
    # (``test_cli_and_transform_load_no_synth_oracle_or_hashlib`` checks the
    # loaded modules of a run); here the source says so
    package = Path(fairscore.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")
    }
    importers = [name for name, tree in trees.items() if "cli" in _imported_modules(ast.walk(tree))]
    assert importers == []
    at_import = _imported_modules(_runtime_statements(trees["cli"].body))
    assert at_import & {"oracle", "synth", "transportnd", "empirical", "transport1d"} == set()
    assert "population" in at_import
