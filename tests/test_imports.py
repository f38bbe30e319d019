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

A float, int8 or uint32 conversion of an array is written in ``rules.py``
alone, which checks a caller's values before the cast, unless it is one
of ``OWN_CONVERSIONS``. A pipeline's scoring state has one writer,
``TssfPipeline._compile``.
"""

import ast
import os
import re

import numpy as np
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


# Every float, int8 or uint32 conversion of a caller's array goes through
# its rule in rules.py (real numbers, labels, session ids), which checks
# the values before the cast. These functions convert arrays the library
# built or checked itself, and say why:
OWN_CONVERSIONS = {
    ("dataio.py", "write_trials"),  # a TrialSet's checked fields, in file byte order
    ("evalstats.py", "wilcoxon_one_sided"),  # tie counts of a rank array
    ("linmodel.py", "_check_dataset"),  # labels after _check_labels
    ("pipelines.py", "_floats"),  # a model file field after its own check
}
CHECKED_DTYPES = {np.dtype(np.int8), np.dtype(np.uint32)}


def _checked_kind(node):
    # True if the dtype expression is a float, int8 or uint32 dtype, or one
    # that cannot be read off the source (a variable)
    try:
        dtype = np.dtype(eval(ast.unparse(node), {"__builtins__": {}, "np": np, "float": float, "int": int}))
    except Exception:
        return True
    return dtype.kind == "f" or dtype in CHECKED_DTYPES


def casts(source):
    """(function, line) of each ``np.asarray``, ``np.ascontiguousarray`` or
    ``.astype`` call with a float, int8 or uint32 dtype; ``function`` is the
    outermost enclosing def (``Class.method`` for a method)."""
    found = []

    def dtype_of(call):
        func = call.func
        keyword = [k.value for k in call.keywords if k.arg == "dtype"]
        if func.attr == "astype":
            return (call.args[:1] or keyword or [None])[0]
        if isinstance(func.value, ast.Name) and func.value.id == "np":
            return (call.args[1:2] or keyword or [None])[0]
        return None

    def visit(node, owner, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, owner or child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or (f"{cls}.{child.name}" if cls else child.name))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in ("asarray", "ascontiguousarray", "astype")
            ):
                dtype = dtype_of(child)
                if dtype is not None and _checked_kind(dtype):
                    found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_every_checked_kind_of_cast_is_a_rule():
    owners = set()
    for module in MODULES:
        if module != "rules.py":
            with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
                owners.update((module, owner) for owner, _ in casts(fh.read()))
    assert owners == OWN_CONVERSIONS


def test_the_check_sees_a_cast():
    source = (
        "def f(x, d):\n    return np.asarray(x, dtype=float), np.asarray(x), np.asarray(x, int)\n"
        "def g(x, d):\n    return x.astype('<u4'), x.astype(np.int64), x.astype(d)\n"
        "class K:\n    def m(self, x):\n        return np.ascontiguousarray(x, np.float32)\n"
        "y = np.asarray(z, dtype=np.int8)\nw = np.ascontiguousarray(z)\n"
    )
    assert casts(source) == [("f", 2), ("g", 4), ("g", 4), ("K.m", 7), (None, 8)]


# The compiled form a pipeline scores with, and its k, are written by
# TssfPipeline._compile alone, for a fit and a load alike, by one set of
# rules; __init__ only marks a pipeline unfitted and holds the spec's k.
SCORING_STATE = {"filters", "_coef", "_intercept", "_var_floor", "k"}
INIT_WRITES = {("filters", "None"), ("k", "k")}


def scoring_state_writes(source):
    """(function, attribute, line) of each assignment, augmented assignment
    or ``setattr`` of a :data:`SCORING_STATE` attribute, on any object,
    outside ``TssfPipeline._compile``; ``function`` is the outermost
    enclosing def (``Class.method`` for a method), and ``TssfPipeline.__init__``
    may write the :data:`INIT_WRITES` pairs."""
    found = []

    def attributes(target):
        # the attribute targets of an assignment, through tuple unpacking
        if isinstance(target, (ast.Tuple, ast.List)):
            return [a for elt in target.elts for a in attributes(elt)]
        if isinstance(target, ast.Starred):
            return attributes(target.value)
        return [target] if isinstance(target, ast.Attribute) else []

    def writes(node, owner):
        if isinstance(node, ast.Assign):
            value = ast.unparse(node.value)
            for target in node.targets:
                for attr in attributes(target):
                    if owner != "TssfPipeline.__init__" or (attr.attr, value) not in INIT_WRITES:
                        yield attr.attr
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            yield from (attr.attr for attr in attributes(node.target))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value

    def visit(node, owner, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, owner or child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or (f"{cls}.{child.name}" if cls else child.name))
                continue
            if owner != "TssfPipeline._compile":
                found.extend(
                    (owner, name, child.lineno)
                    for name in writes(child, owner)
                    if name in SCORING_STATE
                )
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_only_compile_writes_the_scoring_state():
    found = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            found.extend((module, *where) for where in scoring_state_writes(fh.read()))
    assert found == []


def test_the_check_sees_a_scoring_state_write():
    source = (
        "class TssfPipeline:\n"
        "    def __init__(self, k):\n"
        "        self.k, self.filters, self._coef = k, None, None\n"
        "        self.k = k\n        self.filters = None\n        self._coef = None\n"
        "    def _compile(self, f):\n        self.filters, self.k = f, 1\n"
        "    def fit(self):\n        self.filters = 1\n        self._intercept += 1\n"
        "        x.k, (y._var_floor, *z.filters) = 1, (2, 3)\n"
        "        def inner():\n            self.k = 2\n"
        "def load(p):\n    p.k: int = 2\n    setattr(p, '_coef', 3)\n    p.name = p.k = 4\n"
        "k = filters = None\n"
    )
    assert scoring_state_writes(source) == [
        ("TssfPipeline.__init__", "k", 3),
        ("TssfPipeline.__init__", "filters", 3),
        ("TssfPipeline.__init__", "_coef", 3),
        ("TssfPipeline.__init__", "_coef", 6),
        ("TssfPipeline.fit", "filters", 10),
        ("TssfPipeline.fit", "_intercept", 11),
        ("TssfPipeline.fit", "k", 12),
        ("TssfPipeline.fit", "_var_floor", 12),
        ("TssfPipeline.fit", "filters", 12),
        ("TssfPipeline.fit", "k", 14),
        ("load", "k", 16),
        ("load", "_coef", 17),
        ("load", "k", 18),
    ]
