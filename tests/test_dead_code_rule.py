"""Every private module-level name of the package is used.

A private function, class or constant of ``src/gnlstab`` (a module-level
name with one leading underscore) serves the package alone, so one that no
code of the package reads is dead: a wrapper left behind by a refactor, or
a helper whose last caller went.  Each must be read somewhere in
``src/gnlstab`` outside its own definition; an import alone, a recursive
call or an assignment to the name does not count.
"""

import ast
from pathlib import Path

import gnlstab

SOURCES = sorted(Path(gnlstab.__file__).parent.glob("*.py"))


def _defined(statement: ast.stmt) -> list:
    """The private names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced(sources: dict) -> list:
    """``module.name`` of each private module-level definition in
    ``sources`` (module -> source text) that no code reads outside that
    definition, in module and source order."""
    definitions, read = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            own = _defined(statement)
            definitions += [(module, name) for name in own]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return [f"{module}.{name}" for module, name in definitions if name not in read]


def test_the_rule_sees_an_unreferenced_helper():
    sources = {
        "a": (
            "from .b import _shared\n"
            "_LIMIT = 3\n"
            "_UNUSED = 4\n"
            "__all__ = ['solve']\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _wrapper(x):\n"
            "    return _helper(x)\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Row:\n"
            "    pass\n"
            "def solve(x):\n"
            "    _UNUSED = 5\n"
            "    return _Row(), _helper(x), _shared\n"
        ),
        "b": "def _shared():\n    pass\ndef _imported():\n    pass\n",
        "c": "from .b import _imported\nfrom . import b\nb._shared()\n",
    }
    assert unreferenced(sources) == ["a._UNUSED", "a._wrapper", "a._recursive", "b._imported"]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced(sources) == []
