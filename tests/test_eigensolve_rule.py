"""Every dense eigensolve of the package is one of a known few.

A dense eigensolve of order d costs O(d^3), and the operator store, the
scan's reductions and the Cholesky certificates exist so that none is
repeated.  Each use of ``eig``, ``eigh``, ``eigvals`` or ``eigvalsh`` (called,
referenced or imported, from numpy or scipy alike) in ``src/gnlstab`` is
listed below with the function it lies in, so a new dense eigensolve, or a
second one in a listed function, cannot come back silently.  The only one
in ``waves.py`` is the Newton guard's fallback, which runs where the
Cholesky certificate fails.
"""

import ast
from pathlib import Path

import gnlstab

EIGENSOLVES = {"eig", "eigh", "eigvals", "eigvalsh"}

#: (solver, module.qualname) of each allowed use, one entry per use
ALLOWED = [
    # the L1 and L2 spectra of a sector block, once per operator store
    ("eigvalsh", "hill.SectorBlock.l1_eigs"),
    ("eigvalsh", "hill.SectorBlock.l2_eigs"),
    # eigenpairs for an eigenfunction export
    ("eigh", "hill.spectrum"),
    # the Ritz steps: of the reduced rows on a trial span of k + 11 vectors,
    # and of Newton's certificate on 10
    ("eigh", "spectral._rayleigh_ritz"),
    # the dense rows and their lambda^2 cross-check
    ("eigvals", "scan._crosscheck"),
    ("eig", "scan._dense_row"),
    # L2 = Q D Q^T of a sector, once per operator store
    ("eigh", "scan._Reduction._of"),
    # Newton's guard, where its certificate fails
    ("eigvalsh", "waves._check_regular"),
]

SOURCES = sorted(Path(gnlstab.__file__).parent.glob("*.py"))


def uses(source: str, module: str) -> list:
    """(solver, where) of each call of, reference to or import of a dense
    eigensolver in ``source``; ``where`` is the qualified name of the
    enclosing function or class, or the module at top level."""
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
        if name in EIGENSOLVES:
            found.append((name, ".".join([module, *scope])))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_rule_sees_calls_references_and_imports():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import eigh\n"
        "def spectra(a):\n"
        "    return np.linalg.eigvalsh(a), eigh(a)\n"
        "class Row:\n"
        "    def solve(self, a):\n"
        "        solver = np.linalg.eig\n"
        "        return solver(a), numpy.linalg.eigvals(a)\n"
        "def fine(a):\n"
        "    return np.linalg.cholesky(a), np.linalg.eigenvalues\n"
    )
    assert uses(source, "m") == [
        ("eigh", "m"),
        ("eigvalsh", "m.spectra"),
        ("eigh", "m.spectra"),
        ("eig", "m.Row.solve"),
        ("eigvals", "m.Row.solve"),
    ]


def test_every_dense_eigensolve_is_listed():
    found = [use for path in SOURCES for use in uses(path.read_text(encoding="utf-8"), path.stem)]
    assert sorted(found) == sorted(ALLOWED)
