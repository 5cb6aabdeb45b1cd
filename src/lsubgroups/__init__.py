"""Lattice-valued subgroups of finite groups.

Level subsets, membership algebra, generated L-subgroups, maximal
L-subgroups, Frattini L-subgroups and non-generator points, plus a
property-based verification harness, loaded on first use of one of its
names, and a small CLI.
"""

from .errors import (
    DocumentError,
    EmptySubsetError,
    HypothesisNotMetError,
    InstanceTooLargeError,
    LPointNotInParentError,
    LSubgroupsError,
    MismatchedCarriersError,
    NoIdentityError,
    NoInverseError,
    NonDistributiveLatticeError,
    NotAHomomorphismError,
    NotALatticeError,
    NotAPosetError,
    NotAnIsomorphismError,
    NotAnLSubgroupError,
    NotAssociativeError,
    NotASubgroupError,
    NotClosedError,
    NotMaximalError,
    NotNormalInGroupError,
    SearchExhaustedError,
    UnknownBuiltinError,
    UnknownElementError,
)
from .lattice import FiniteLattice, chain_lattice, lattice_from_document, validate_lattice
from .groups import (
    FiniteGroup,
    GroupHom,
    all_subgroups,
    builtin_group,
    frattini_classical,
    group_from_document,
    hom_from_document,
    identity_hom,
    inner_automorphism,
    is_normal_subgroup,
    is_subgroup,
    maximal_subgroups_of,
    subgroup_closure,
    validate_group,
    validate_hom,
)
from .lsets import (
    LPoint,
    LSubset,
    adjoin_point,
    are_jointly_supstar,
    characteristic,
    constant,
    contains,
    generate,
    generate_oracle,
    has_sup_property,
    intersection_of,
    is_l_subgroup,
    is_l_subgroup_of,
    is_normal_in,
    is_normal_in_group,
    is_proper_l_subgroup,
    l_subset,
    l_subset_from_document,
    point_in,
    pullback,
    pushforward,
    set_product,
    union_of,
)
from .maximal import (
    DEFAULT_BUDGET,
    LevelProfile,
    LevelRelation,
    MaximalityVerdict,
    TipRelation,
    candidate_space_size,
    enumerate_l_subgroups,
    is_maximal,
    level_profile,
    maximal_l_subgroups,
    sufficient_maximal_check,
    tip_relation,
    transport_maximal,
    transport_maximal_preimage,
)
from .frattini import (
    FrattiniReport,
    check_nongenerator_inclusion,
    constant_obstructed,
    frattini,
    frattini_image_inclusion,
    frattini_is_normal,
    frattini_level_compare,
    is_non_generator,
    maximal_avoiding,
    non_generator_points,
    non_generator_subgroup,
    nongenerators_conjugation_closed,
)

# The harness loads on first use of one of its names (PEP 562).  The rest
# stays eager: importing a submodule such as lsubgroups.frattini rebinds the
# package attribute of that name from the function to the module.
_HARNESS_NAMES = (
    "ConverseCounterexample", "InstanceSpec", "SuiteReport", "build_instance", "make_lattice",
    "random_l_subgroup", "random_l_subset_below", "reference_nonmaximal_pair", "run_suite",
    "search_converse_counterexample",
)


def __getattr__(name: str):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return [*globals(), *_HARNESS_NAMES]


__version__ = "0.1.0"
