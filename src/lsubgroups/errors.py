"""Exception types shared across the package.

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


class NotAnIsomorphismError(LSubgroupsError):
    """A bijective homomorphism was required."""


# ---------------------------------------------------------------- L-subsets

class MismatchedCarriersError(LSubgroupsError):
    """Operands live over different groups or different lattices."""


class NotAnLSubgroupError(LSubgroupsError):
    """An argument was required to be a lattice-valued subgroup."""


class LPointNotInParentError(LSubgroupsError):
    """The lattice point exceeds the parent's membership value."""


class NotNormalInGroupError(LSubgroupsError):
    """The parent L-subgroup must be normal in the ambient group."""


class NotMaximalError(LSubgroupsError):
    """The argument was required to be a maximal L-subgroup."""


class HypothesisNotMetError(LSubgroupsError):
    """A stated precondition of the check does not hold for this input."""


# ---------------------------------------------------------------- search

class InstanceTooLargeError(LSubgroupsError):
    """A search space, or the work done so far, exceeds the configured budget."""

    def __init__(self, size, budget, message: str | None = None):
        super().__init__(message or f"candidate space {size} exceeds budget {budget}")
        self.size = size
        self.budget = budget


class SearchExhaustedError(LSubgroupsError):
    """A search that must succeed ran out of candidates."""
