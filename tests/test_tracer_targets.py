"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/tracer.py`` patches functions where their callers look them up
(``gnlstab.scan.build_block``, ``ParityBasis.matrix``, ...).  A renamed or
no longer imported name makes ``perfbench/run.py --trace 1`` fail with a
KeyError, so each target is checked here against the package.
"""

import importlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
