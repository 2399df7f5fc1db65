"""Library checks must survive `python -O`, which strips `assert`
statements: every check in the package raises an exception instead, and
a failed cross-check raises CrossCheckError (CLI exit 4), never a bare
AssertionError.  No module reads the environment, so every bound is an
argument or a fixed cap that a caller can see.  Every name a module
exports in `__all__` exists, since the traced benchmark wraps them by
name."""

import ast
import importlib
from pathlib import Path

import tanglelab

SOURCES = sorted(Path(tanglelab.__file__).parent.glob("*.py"))


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_bare_asserts_in_the_package():
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
            or isinstance(node, ast.Raise) and node.exc and _raises_assertion_error(node)
        ]
    assert not found, found


def test_no_module_reads_the_environment():
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.alias) and node.name in names
        ]
    assert not found, found


def test_every_exported_name_exists():
    missing = []
    for path in SOURCES:
        module = importlib.import_module(f"tanglelab.{path.stem}")
        missing += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing, missing
