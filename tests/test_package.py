"""The package surface: what ``pressim`` exports, and what it imports."""

import ast
from pathlib import Path

import pressim

SRC = Path(pressim.__file__).parent
TESTS = Path(__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in pressim.__all__ if not hasattr(pressim, name)]
    assert missing == []


def test_no_library_module_imports_from_the_tests():
    # the tests import their helpers as top-level modules: ``from reference import ...``
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    offending = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offending += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] in test_modules
            ]
    assert offending == []
