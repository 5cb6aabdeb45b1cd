"""Lattice-valued subgroups of finite groups.

Level subsets, membership algebra, generated L-subgroups, maximal
L-subgroups, Frattini L-subgroups and non-generator points, plus a
property-based verification harness and a small CLI.

``import lsubgroups`` loads none of the layers.  The first read of any
exported name (PEP 562 ``__getattr__``, ``from lsubgroups import ...`` and
``from lsubgroups import *`` included) imports the whole library at once,
without the harness, and binds every export, so no later call pays for a
first load.  The harness loads on first use of one of its own names.  A
command of ``lsubgroups.cli`` imports only the modules it runs.

``lsubgroups.frattini`` is always the function.  Importing the submodule of
that name would rebind the package attribute to the module; the package
binds the whole namespace instead, so the submodule is reached as
``sys.modules["lsubgroups.frattini"]`` or by ``from lsubgroups.frattini
import ...``.
"""

import importlib
import sys
import types

# every layer's exports, in load order
_EXPORTS = {
    "errors": (
        "DEFAULT_BUDGET", "DocumentError", "EmptySubsetError", "HypothesisNotMetError",
        "InstanceTooLargeError", "LPointNotInParentError", "LSubgroupsError",
        "MismatchedCarriersError", "NoIdentityError", "NoInverseError",
        "NonDistributiveLatticeError", "NotAHomomorphismError", "NotALatticeError",
        "NotAPosetError", "NotAnLSubgroupError", "NotAssociativeError", "NotASubgroupError",
        "NotClosedError", "NotMaximalError", "SearchExhaustedError", "UnknownBuiltinError",
        "UnknownElementError",
    ),
    "lattice": ("FiniteLattice", "chain_lattice", "lattice_from_document", "validate_lattice"),
    "groups": (
        "FiniteGroup", "GroupHom", "all_subgroups", "builtin_group", "frattini_classical",
        "group_from_document", "hom_from_document", "identity_hom", "inner_automorphism",
        "is_normal_subgroup", "is_subgroup", "maximal_subgroups_of", "subgroup_closure",
        "validate_group", "validate_hom",
    ),
    "lsets": (
        "LPoint", "LSubset", "adjoin_point", "are_jointly_supstar", "characteristic", "constant",
        "contains", "generate", "generate_oracle", "has_sup_property", "intersection_of",
        "is_l_subgroup", "is_l_subgroup_of", "is_normal_in", "is_normal_in_group",
        "is_proper_l_subgroup", "l_subset", "l_subset_from_document", "point_in", "pullback",
        "pushforward", "set_product", "union_of",
    ),
    "maximal": (
        "LevelProfile", "LevelRelation", "MaximalityVerdict", "TipRelation",
        "candidate_space_size", "enumerate_l_subgroups", "is_maximal", "level_profile",
        "maximal_l_subgroups", "sufficient_maximal_check", "tip_relation",
    ),
    "frattini": (
        "FrattiniReport", "frattini", "frattini_level_compare", "is_non_generator",
        "maximal_avoiding", "non_generator_points", "non_generator_subgroup",
    ),
}

_HARNESS_NAMES = (
    "ConverseCounterexample", "InstanceSpec", "SuiteReport", "build_instance", "make_lattice",
    "random_l_subgroup", "random_l_subset_below", "reference_nonmaximal_pair", "run_suite",
    "search_converse_counterexample",
)

# the exports and the layer modules, which the eager package also bound
__all__ = sorted({*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)})


def _load() -> None:
    """Import every layer and bind its exports; later reads skip ``__getattr__``."""
    namespace = globals()
    for layer, names in _EXPORTS.items():
        module = importlib.import_module(f"{__name__}.{layer}")
        namespace.update((name, getattr(module, name)) for name in names)


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    if name in __all__:
        _load()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HARNESS_NAMES})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # the import system binds a loaded submodule on its package; the
        # frattini submodule imports every other layer, so when it would
        # shadow the function, bind the whole namespace instead
        if name == "frattini" and isinstance(value, types.ModuleType):
            _load()
        else:
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
__version__ = "0.1.0"
