"""Every module of the package uses each name it imports or keeps private.

A name bound by an import and never read is left-over surface. An import
kept on purpose (a re-export) says so with ``# noqa: F401`` on its line.
The package's ``__init__.py`` re-exports by design and is not checked for
imports. Likewise, a private (``_``-prefixed) module-level function, class
or constant that no module of the package reads is dead code. No module
imports another module's private ``_UPPER_CASE`` constant by name: such a
binding is a copy that neither a patch nor an edit of the original reaches.

Imports sit at module level: ``import tssf`` loads every module of the
package, so an import inside a function only binds a name already loaded.
The one exception defers a module that ``import tssf`` must not load.
"""

import ast
import os
import re

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


def unread_private_names(sources):
    """Sorted names of the private module-level functions, classes and
    constants defined in ``sources`` that no source reads."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(n for n in defined - read if n.startswith("_") and not n.startswith("__"))


def package_sources():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield fh.read()


def test_every_private_name_is_read():
    assert unread_private_names(package_sources()) == []


def test_the_check_sees_an_unread_private_name():
    a = "_A = 1\n_B = 2\ndef _f():\n    return _A\nclass _K:\n    pass\n__all__ = []\n"
    b = "from a import _K\nx = _K()\ny = mod._f\n"
    assert unread_private_names([a, b]) == ["_B"]
    assert unread_private_names([a]) == ["_B", "_K", "_f"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom numpy import linalg, fft\nfrom a import b  # noqa: F401\nfft.x\n"
    assert unused_imports(source) == [(1, "os"), (2, "linalg")]


def copied_private_constants(source):
    """(line, name) of each private ``_UPPER_CASE`` name imported by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if re.fullmatch(r"_[A-Z][A-Z0-9_]*", alias.name)
            )
    return found


@pytest.mark.parametrize("module", sorted(MODULES + ["__init__.py"]))
def test_no_private_constant_is_copied(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert copied_private_constants(fh.read()) == []


def test_the_check_sees_a_copied_private_constant():
    source = "from .dataio import _BLOCK_BYTES, _blockwise, X\nfrom . import _T2\nimport _Z\n"
    source += "def f():\n    from a import _B as b, __ALL__\n"
    assert copied_private_constants(source) == [(1, "_BLOCK_BYTES"), (2, "_T2"), (5, "_B")]


# (module file, function, imported module) of each import kept in a function
DEFERRED_IMPORTS = [("dataio.py", "fir_bandpass", "scipy.signal")]


def function_imports(source):
    """(function, module) of each import statement inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    found.extend((fn.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    found.append((fn.name, "." * node.level + (node.module or "")))
    return found


def test_imports_only_at_module_level():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found.extend((name, *where) for where in function_imports(fh.read()))
    assert found == DEFERRED_IMPORTS


def test_the_check_sees_an_import_in_a_function():
    source = "import os\ndef f():\n    import numpy.linalg\n    from . import errors\n"
    source += "class K:\n    def g(self):\n        from .a import b\n"
    assert function_imports(source) == [("f", "numpy.linalg"), ("f", "."), ("g", ".a")]
