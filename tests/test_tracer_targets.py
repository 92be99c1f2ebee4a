"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` patches functions where their callers look them up
(``gnlstab.scan.build_block``, ``ParityBasis.matrix``, ...).  A renamed or
no longer imported name makes ``perfbench/run.py --trace 1`` fail with a
KeyError, so each target is checked here against the package.  The other
way round, an import kept only for the tracer must name a target, and every
other import must be used.
"""

import ast
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(p for p in (ROOT / "src" / "gnlstab").glob("*.py") if p.name != "__init__.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module_path, attribute", [(t[0], t[1]) for t in tracer.TARGETS], ids=lambda v: str(v)
)
def test_target_resolves(module_path, attribute):
    owner = importlib.import_module(module_path)
    *classes, leaf = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert leaf in owner.__dict__, f"{module_path}.{attribute} is gone"
    assert callable(owner.__dict__[leaf])


def test_install_and_uninstall_restore_every_target():
    t = tracer.Tracer(time.perf_counter)
    t.install()
    assert t.uninstall() == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_unused_imports_are_exactly_the_tracer_targets(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, kept = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            names = {(a.asname or a.name).split(".")[0] for a in node.names}
            imported |= names
            if "# noqa: F401" in "\n".join(lines[node.lineno - 1 : node.end_lineno]):
                kept |= names
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == kept
    module = f"gnlstab.{path.stem}"
    assert kept <= {t[1] for t in tracer.TARGETS if t[0] == module}
