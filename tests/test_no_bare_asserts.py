"""Library checks must survive `python -O`, which strips `assert`
statements: every check in the package raises an exception instead."""

import ast
from pathlib import Path

import tanglelab

SOURCES = sorted(Path(tanglelab.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_the_package():
    assert len(SOURCES) >= 10
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found
