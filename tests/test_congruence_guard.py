"""Every two-sided product ``A @ X @ A`` or ``A.T @ X @ A`` goes through
``manifold._congruence``.

``_congruence`` makes its result exactly symmetric, so every whitening by
``m^{-1/2}`` and un-whitening by ``m^{1/2}`` rounds the same way wherever it
is done: ``tangent_vectors`` at a fitted mean reproduces the training
features bit for bit. A product written by hand elsewhere needs a reason,
given in a comment beside it, and a place in ``HAND_WRITTEN``.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "tssf")

# the functions allowed to write the product by hand, and why:
HAND_WRITTEN = {
    "_block_scores",  # the scoring hot path; eigh reads one triangle
    "_karcher_hessian",  # a stack of factors L_t about one x
    "exact_decision_value",  # the reference route checks unsymmetrized products
}


def _operands(node):
    # the factors of a chain of @ products, left to right
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _operands(node.left) + _operands(node.right)
    return [node]


def _factor(node):
    # a factor with its transpose taken off: A.T and A are the same factor
    if isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    return ast.dump(node)


def two_sided_products(source):
    """(function, line) of each @ chain in which one factor, up to ``.T``,
    appears twice with a factor between; ``function`` is the outermost
    enclosing def (``Class.method`` for a method), None at module level."""
    found = []

    def visit(node, owner, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, owner, owner or child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or (f"{cls}.{child.name}" if cls else child.name))
            elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                chain = _operands(child)
                keys = [_factor(f) for f in chain]
                if any(keys[i] in keys[i + 2 :] for i in range(len(keys))):
                    found.append((owner, child.lineno))
                for factor in chain:
                    visit(factor, owner)
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def package_products():
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                found.extend((name, *where) for where in two_sided_products(fh.read()))
    return found


def test_every_two_sided_product_is_a_congruence():
    owners = {owner for _, owner, _ in package_products()}
    assert owners == {"_congruence"} | HAND_WRITTEN


def test_the_check_sees_a_two_sided_product():
    source = (
        "def f(a, x):\n    return a.T @ x @ a, a @ x, a @ a\n"
        "def g(a, x, b):\n    return a @ (x @ a), b @ x @ a.T @ b, b @ f(a @ x @ a)\n"
        "class K:\n    def m(self, h, x):\n        def inner():\n            return h @ x @ h.T\n"
        "        return inner\n"
        "z = w @ x @ w\n"
    )
    assert two_sided_products(source) == [
        ("f", 2), ("g", 4), ("g", 4), ("g", 4), ("K.m", 8), (None, 10)
    ]
