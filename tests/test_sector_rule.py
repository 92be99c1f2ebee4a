"""The sector is chosen where an operator store is made, and nowhere else,
and every consumer takes that store.

Only the functions that make or narrow a store take a ``sector``, and only
the wave-level callables take a wave: the one that makes a store, the one
that resolves "auto" by the wave's parity, the one-operator assembly and
the grid stepper of the splitting scheme.  Every other public function and
method of the operator layers takes a store, used as it is, so no consumer
decides the sector a second time or assembles L1 and L2 again.
"""

import functools
import inspect
import typing

from gnlstab import evolve, hill, scan
from gnlstab.hill import HillOperators
from gnlstab.waves import WaveProfile

#: the functions that choose a sector: they make or narrow a store, or resolve "auto"
SECTOR_CHOOSERS = {"hill.hill_operators", "hill.resolve_sector", "hill.HillOperators.restrict"}

#: the wave-level callables: they make a store, resolve "auto", assemble one
#: operator on a given basis, or step perturbations on the wave's grid
WAVE_TAKERS = {"hill.hill_operators", "hill.resolve_sector", "hill.build_hill",
               "evolve.splitting_stepper"}


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


def layer_callables():
    """name -> function of every public callable of the operator layers."""
    return dict(pair for module in (hill, scan, evolve) for pair in public_callables(module))


def test_only_the_sector_choosers_take_a_sector():
    walked = layer_callables()
    # the walk reaches each layer's functions and methods, each where it is defined
    assert {"hill.build_block", "hill.spectrum", "scan.scan_kappa",
            "evolve.evolve_and_fit"} <= walked.keys()
    assert "scan.build_block" not in walked
    takers = {name for name, f in walked.items() if "sector" in inspect.signature(f).parameters}
    assert takers == SECTOR_CHOOSERS


def parameter_types(func):
    """The evaluated annotation of each parameter of ``func``."""
    return [p.annotation for p in inspect.signature(func, eval_str=True).parameters.values()]


def test_only_the_wave_level_callables_take_a_wave():
    callables = layer_callables()
    # no consumer takes a wave or a store: a store is the one operator input
    unions = {
        name for name, f in callables.items() for t in parameter_types(f)
        if typing.get_origin(t) is typing.Union
        and {WaveProfile, HillOperators} <= set(typing.get_args(t))
    }
    assert unions == set()
    takers = {
        name for name, f in callables.items() for t in parameter_types(f)
        if t is WaveProfile or WaveProfile in typing.get_args(t)
    }
    assert takers == WAVE_TAKERS
    # and the ten consumers of the operator layers take a store
    consumers = ["hill.spectrum", "hill.check_propositions", "hill.build_block",
                 "scan.evolution_block", "scan.instability_eigs", "scan.growth_row",
                 "scan.scan_kappa", "scan.verify_hypotheses", "evolve.evolve_and_fit",
                 "evolve.linearized_rhs"]
    for name in consumers:
        assert parameter_types(callables[name])[0] is HillOperators, name
