"""The package's public names: each module's ``__all__`` is the one list."""

import ast
import importlib
import pathlib

import pytest

import distlab

MODULES = ["cli", "distortion", "distribution", "fieldio", "fields", "gallery", "monotonicity", "sobolev", "staircase"]
PACKAGE = pathlib.Path(distlab.__file__).parent
TESTS = pathlib.Path(__file__).parent


def test_the_package_root_holds_the_version():
    assert isinstance(distlab.__version__, str) and distlab.__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"distlab.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def _imported_names(path: pathlib.Path):
    """(module, name) for every public name ``path`` imports from a distlab module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            module = f"distlab.{node.module}"
        elif node.module.startswith("distlab."):
            module = node.module
        else:
            continue
        yield from ((module, a.name) for a in node.names if not a.name.startswith("_"))


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("test_*.py")), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_names_imported_across_modules_are_listed(path):
    unlisted = [(m, n) for m, n in _imported_names(path) if n not in importlib.import_module(m).__all__]
    assert unlisted == []
