"""Every eigenvalue count is made by ``hill.spectrum``.

The counts of the propositions (n(L1), n(L2), z(Lcal)), of the hypothesis
(H4) and of the ``spectrum`` command all come from
:func:`gnlstab.hill.spectrum`.  In ``src/gnlstab`` the counting helper
``_summarize`` is used only there, and the zero-tolerance gate
``_zero_tolerance`` only in ``_summarize``: no second counting path, with a
counting or tolerance rule of its own, comes back beside it.
"""

import ast
from pathlib import Path

import gnlstab

#: each counting helper and the one function that may use it, as module.qualname
ONLY_FROM = {"_summarize": "hill.spectrum", "_zero_tolerance": "hill._summarize"}

SOURCES = sorted(Path(gnlstab.__file__).parent.glob("*.py"))


def uses(source: str, module: str) -> list:
    """(helper, where) of each call of, reference to or import of a counting
    helper in ``source``; ``where`` is the qualified name of the enclosing
    function or class, or the module at top level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = None
        if name in ONLY_FROM:
            found.append((name, ".".join([module, *scope])))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_rule_sees_calls_references_and_imports():
    source = (
        "from .hill import _zero_tolerance\n"
        "def _summarize(eigenvalues, tol):\n"
        "    return _zero_tolerance(eigenvalues, tol)\n"
        "def spectrum(ops):\n"
        "    return _summarize(ops.eigenvalues, None)\n"
        "class Store:\n"
        "    def summary(self):\n"
        "        return hill._summarize(self.eigenvalues, None)\n"
        "def check(ops):\n"
        "    count = _summarize\n"
        "    return count(ops.eigenvalues, None)\n"
    )
    assert uses(source, "hill") == [
        ("_zero_tolerance", "hill"),
        ("_zero_tolerance", "hill._summarize"),
        ("_summarize", "hill.spectrum"),
        ("_summarize", "hill.Store.summary"),
        ("_summarize", "hill.check"),
    ]


def test_only_spectrum_counts():
    # one use of each helper, where it is allowed: a second caller, or a
    # second call in the allowed one, is a second counting path
    found = [use for path in SOURCES for use in uses(path.read_text(encoding="utf-8"), path.stem)]
    assert sorted(found) == sorted(ONLY_FROM.items())
