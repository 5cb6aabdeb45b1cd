"""Exception types, and the default search budget, shared across the package.

Every structural defect gets its own class so callers (and the CLI exit-code
mapping) can distinguish bad input from blown search budgets.
"""


class LSubgroupsError(Exception):
    """Base class for all package errors."""


class DocumentError(LSubgroupsError):
    """A JSON document is malformed or fails cross-validation."""


# ---------------------------------------------------------------- lattices

class NotAPosetError(LSubgroupsError):
    """The declared order pairs violate antisymmetry."""


class NotALatticeError(LSubgroupsError):
    """Some pair of elements lacks a least upper bound or greatest lower bound."""


class UnknownElementError(LSubgroupsError):
    """An element name is not part of the carrier."""


class EmptySubsetError(LSubgroupsError):
    """A non-empty subset was required."""


class NonDistributiveLatticeError(LSubgroupsError):
    """The operation is only defined over distributive lattices."""


# ---------------------------------------------------------------- groups

class NotClosedError(LSubgroupsError):
    """An operation-table entry is not a known element."""


class NotAssociativeError(LSubgroupsError):
    """The operation table has a non-associative triple."""


class NoIdentityError(LSubgroupsError):
    """The operation table has no two-sided identity."""


class NoInverseError(LSubgroupsError):
    """Some element lacks a two-sided inverse."""


class UnknownBuiltinError(LSubgroupsError):
    """The requested builtin group name is not recognised."""


class NotASubgroupError(LSubgroupsError):
    """A set of elements was required to be a subgroup."""


class NotAHomomorphismError(LSubgroupsError):
    """A map between groups does not respect the operations."""


# ---------------------------------------------------------------- L-subsets

class MismatchedCarriersError(LSubgroupsError):
    """Operands live over different groups or different lattices."""


class NotAnLSubgroupError(LSubgroupsError):
    """An argument was required to be a lattice-valued subgroup."""


class LPointNotInParentError(LSubgroupsError):
    """The lattice point exceeds the parent's membership value."""


class NotMaximalError(LSubgroupsError):
    """The argument was required to be a maximal L-subgroup."""


class HypothesisNotMetError(LSubgroupsError):
    """A stated precondition of the check does not hold for this input."""


# ---------------------------------------------------------------- search

# the largest answer a search may build unless the caller passes a budget:
# members of L(mu), or level cuts; defined here, not in maximal, so that the
# CLI's parser needs no library layer
DEFAULT_BUDGET = 10_000_000


class InstanceTooLargeError(LSubgroupsError):
    """An answer, or an input, is larger than the bound set on it.

    ``size`` is how far the refusing layer got, or the size it was given;
    ``budget`` is the bound it passed.
    """

    def __init__(self, size: int, budget: int, message: str):
        super().__init__(message)
        self.size = size
        self.budget = budget


class SearchExhaustedError(LSubgroupsError):
    """A search that must succeed ran out of candidates."""
