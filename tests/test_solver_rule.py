"""The wave solver has one settable value, its grid size ``modes``.

Its limits (Newton tolerance and step cap, minimization tolerance and
iteration cap) are module constants of ``waves.py``, and the minimization
starts from the parity seed.  No function there takes a ``config`` and no
dataclass there holds a tolerance, a step budget or a seed, so no second
mechanism for the solver's limits comes back beside the constants.
"""

import ast
from pathlib import Path

from gnlstab import waves

#: field-name endings of a solver knob kept on a record
KNOB_SUFFIXES = ("_tolerance", "_steps", "_guess")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def violations(source: str) -> list:
    """Each function taking ``config`` and each dataclass field named like a knob."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            if any(p is not None and p.arg == "config" for p in params):
                found.append(f"{node.name}() takes config")
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id.endswith(KNOB_SUFFIXES)):
                    found.append(f"{node.name}.{item.target.id}")
    return found


def test_the_rule_sees_both_kinds_of_knob():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Limits:\n"
        "    newton_tolerance: float = 1e-11\n"
        "    newton_max_steps: int = 30\n"
        "    user_guess: object = None\n"
        "    mode_count: int = 128\n"
        "class Plain:\n"
        "    x_tolerance: float = 1.0\n"
        "def solve(params, config=None): ...\n"
        "def polish(wave, *, config): ...\n"
        "def fine(params, modes=128): ...\n"
    )
    assert violations(source) == [
        "Limits.newton_tolerance", "Limits.newton_max_steps", "Limits.user_guess",
        "solve() takes config", "polish() takes config",
    ]


def test_waves_keeps_its_limits_as_module_constants():
    assert violations(Path(waves.__file__).read_text(encoding="utf-8")) == []
