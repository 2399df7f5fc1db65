"""Library checks must survive `python -O`, which strips `assert`
statements: every check in the package raises an exception instead, and
a failed cross-check raises CrossCheckError (CLI exit 4), never a bare
AssertionError.  No module reads the environment, so every bound is an
argument or a fixed cap that a caller can see.  No module imports
`dataclasses`, and `cli` imports no subsystem at module level, so a
fresh call compiles only what its command runs.  Every name a module
exports in `__all__` exists, since the traced benchmark wraps them by
name."""

import ast
import importlib
import sys
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


def _eager_imports(tree):
    """Import statements that run when the module is imported: all but
    those inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module:
        return ["." + node.module]
    return ["." + alias.name for alias in node.names]


def test_no_module_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, and each
    # decorated class execs generated methods: about 30 ms per process
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and "dataclasses" in [m.split(".")[0] for m in _imported_modules(node)]
        ]
    assert not found, found


def test_cli_imports_only_the_stdlib_errors_and_tangle_core_eagerly():
    # each command imports the subsystem it runs inside its own function
    path = Path(tanglelab.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"cli.py:{node.lineno}: {name}"
        for node in _eager_imports(tree)
        for name in _imported_modules(node)
        if name not in (".errors", ".tangle_core")
        and name.split(".")[0] not in sys.stdlib_module_names
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
