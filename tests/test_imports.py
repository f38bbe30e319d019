"""Every module of the package uses each name it imports.

A name bound by an import and never read is left-over surface. An import
kept on purpose (a re-export) says so with ``# noqa: F401`` on its line.
The package's ``__init__.py`` re-exports by design and is not checked.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "tssf")
MODULES = sorted(
    name for name in os.listdir(PACKAGE) if name.endswith(".py") and name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marked = any(
                "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            )
            if not marked:
                for alias in node.names:
                    imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom numpy import linalg, fft\nfrom a import b  # noqa: F401\nfft.x\n"
    assert unused_imports(source) == [(1, "os"), (2, "linalg")]
