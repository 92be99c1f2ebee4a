"""The sector is chosen where an operator store is made, and nowhere else.

Only the functions that make or narrow a store take a ``sector``: every
other public function and method of the operator layers takes a wave, for
its "auto" store, or a store, used as it is, so no consumer decides the
sector a second time.
"""

import functools
import inspect

from gnlstab import evolve, hill, scan

#: the functions that choose a sector: they make or narrow a store, or resolve "auto"
SECTOR_CHOOSERS = {"hill.hill_operators", "hill.resolve_sector", "hill.HillOperators.restrict"}


def _function(member):
    """The function behind a class attribute, or None."""
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, functools.cached_property):
        return member.func
    return member if inspect.isfunction(member) else None


def public_callables(module):
    """(name, function) of each public function that ``module`` defines, and
    of each public method of the public classes it defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = _function(member)
                if not attr.startswith("_") and func is not None:
                    yield f"{short}.{name}.{attr}", func


def test_only_the_sector_choosers_take_a_sector():
    walked = dict(pair for module in (hill, scan, evolve) for pair in public_callables(module))
    # the walk reaches each layer's functions and methods, each where it is defined
    assert {"hill.build_block", "hill.spectrum", "scan.scan_kappa",
            "evolve.evolve_and_fit"} <= walked.keys()
    assert "scan.build_block" not in walked
    takers = {name for name, f in walked.items() if "sector" in inspect.signature(f).parameters}
    assert takers == SECTOR_CHOOSERS
