"""Maximal L-subgroups: coatoms by level cuts, enumeration, detection, level profiles.

Over a finite distributive lattice, where join-irreducibles are join-prime,
a member eta of L(mu), the L-subgroups below mu, is an antitone map j -> H_j
from the join-irreducibles to the subgroups and the empty set, with H_j
(eta's level at j) inside mu's level mu_j and eta(x) the join of the j with
x in H_j.  Non-distributive lattices are refused.

The coatoms of L(mu), the members other than mu with nothing strictly
between them and mu, come in closed form without walking L(mu).  For each
join-irreducible j and each lower cover M of mu_j in Sub(G) ∪ {∅} (a
maximal subgroup of mu_j, or ∅ when mu_j is trivial), the cut theta^{j,M}
keeps mu_i at every join-irreducible i not above j and cuts it to mu_i ∩ M
at every i ≥ j.  Each cut is antitone and proper, and every proper member
eta lies under one: take j minimal where eta differs from mu and M ⊇ eta_j.
So the coatoms are the cuts under no other cut.  They are found once per
parent and cached; the maximal L-subgroups are the non-constant ones, and
the Frattini module reads them too.

Two independent maximality tests are provided: the definitional one (is
there a coatom strictly above eta?), which the preconditions of
``tip_relation`` and the transports read, and the lattice-point test (eta
is maximal iff adjoining any missing point generates all of mu), kept as
the reference the test suite holds the coatoms to.
``enumerate_l_subgroups`` walks all of L(mu) as level maps.  One level
classifier places each level of eta inside mu's; the level profile and the
sufficient pattern read it, and the profile pins down the single defect
level that maximality forces when the images are jointly supstar.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import InstanceTooLargeError, NotAnIsomorphismError
from .errors import NotAnLSubgroupError, NotMaximalError
from .groups import GroupHom, _indices, _lower_covers, _subgroup_table
from .lsets import _down_sizes, _level_mask, _level_masks
from .lsets import (
    LPoint,
    LSubset,
    adjoin_point,
    contains,
    generate,
    is_l_subgroup,
    is_l_subgroup_of,
    is_proper_l_subgroup,
    pullback,
    pushforward,
)

DEFAULT_BUDGET = 10_000_000


class LevelRelation(enum.Enum):
    EQUAL = "equal"
    PROPER_SUBGROUP = "proper_subgroup"
    PROPER_MAXIMAL_SUBGROUP = "proper_maximal_subgroup"


class TipRelation(enum.Enum):
    EQUAL = "equal"
    PARENT_COVERS = "parent_covers"
    VIOLATION = "violation"


@dataclass(frozen=True)
class MaximalityVerdict:
    """Outcome of a maximality test, with a witness when the answer is no.

    ``witness_between`` is an L-subgroup strictly between the candidate and
    its parent (definitional route); ``witness_point`` is a lattice point of
    the parent, outside the candidate, whose adjunction fails to generate
    the parent (point route).
    """

    maximal: bool
    reason: str | None = None
    witness_between: LSubset | None = None
    witness_point: LPoint | None = None

    def __bool__(self) -> bool:
        return self.maximal


@dataclass(frozen=True)
class LevelProfile:
    """How each level of eta sits inside the matching level of mu.

    ``witness_levels`` lists (lattice element, relation) over the union of
    the two images, in lattice carrier order.  ``unique_defect_level`` is
    set exactly when one single level is not Equal.
    """

    witness_levels: tuple[tuple[str, LevelRelation], ...]
    unique_defect_level: str | None

    def defects(self) -> tuple[tuple[str, LevelRelation], ...]:
        return tuple((a, rel) for a, rel in self.witness_levels if rel is not LevelRelation.EQUAL)


# ------------------------------------------------------------- enumeration

def candidate_space_size(mu: LSubset) -> int:
    """Size of the raw search space: the product of the down-set sizes.

    A statistic only; the enumeration budget counts the work actually done.
    """
    total = 1
    for x in mu.group.elements:
        total *= len(mu.lattice.down_set(mu.value(x)))
    return total


@lru_cache(maxsize=64)
def _enumeration(mu: LSubset, budget: int) -> tuple[LSubset, ...]:
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    leq, join, bottom = lat._leq, lat._join, lat.index(lat.bottom)
    # antitone: H_j must sit inside H_i for every join-irreducible i below j
    earlier = [[p for p in range(k) if leq[irreducibles[p]][j]] for k, j in enumerate(irreducibles)]
    subgroups = [(0, ())] + [(h, _indices(h)) for h in _subgroup_table(group)]
    fitting: dict[int, list] = {}  # bound mask -> the subgroups (or ∅) inside it
    found: list[LSubset] = []
    visited = 0

    def walk(k: int, acc: list[int], chosen: tuple[int, ...]) -> None:
        nonlocal visited
        visited += 1
        if visited > budget:
            raise InstanceTooLargeError(visited, budget, (
                f"enumeration of L(mu) exceeded its budget of {budget} partial level maps "
                f"after {len(found)} members"
            ))
        if k == len(irreducibles):
            found.append(LSubset(group, lat, tuple(acc)))
            return
        j, bound = irreducibles[k], levels[k]
        for p in earlier[k]:
            bound &= chosen[p]
        if bound not in fitting:
            fitting[bound] = [(h, xs) for h, xs in subgroups if not h & ~bound]
        for h, xs in fitting[bound]:
            nxt = list(acc)
            for x in xs:
                nxt[x] = join[nxt[x]][j]
            walk(k + 1, nxt, chosen + (h,))

    walk(0, [bottom] * len(group), ())
    found.sort(key=lambda s: s.value_indices())
    return tuple(found)


@lru_cache(maxsize=64)
def _coatoms(mu: LSubset, budget: int) -> tuple[LSubset, ...]:
    """Members of L(mu) other than mu with nothing strictly between them and mu.

    Constants are kept.  Built from the level cuts theta^{j,M} of the module
    docstring, each packed into one integer with |G| bits per
    join-irreducible, so containment is one mask test; the coatoms are the
    cuts under no other cut, in canonical order.  The budget counts units of
    work: one per cut built and one per ordered pair of cuts the filter may
    compare, n + n² for n cuts, charged before comparing.  Raises
    NotAnLSubgroupError when mu is not an L-subgroup (some level at a
    join-irreducible is neither empty nor a subgroup),
    NonDistributiveLatticeError over a non-distributive lattice and
    InstanceTooLargeError when the work exceeds ``budget``.
    """
    if not is_l_subgroup(mu):
        raise NotAnLSubgroupError("the coatoms of L(mu) require mu to be an L-subgroup")
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    leq, join, bottom = lat._leq, lat._join, lat.index(lat.bottom)
    n = len(group)
    packed = sum(level << k * n for k, level in enumerate(levels))
    cuts: list[int] = []
    for j, level in zip(irreducibles, levels):
        if not level:
            continue
        spread = sum(1 << k * n for k, i in enumerate(irreducibles) if leq[j][i])
        kept = packed & ~(((1 << n) - 1) * spread)
        # only the trivial subgroup has no maximal subgroup; ∅ covers it
        cuts.extend(kept | packed & m * spread for m in _lower_covers(group, level) or (0,))
    work = len(cuts) * (len(cuts) + 1)
    if work > budget:
        raise InstanceTooLargeError(work, budget, (
            f"coatoms of L(mu) need {work} units of work ({len(cuts)} level cuts and the "
            f"ordered pairs among them), over the budget of {budget}"
        ))
    found: list[LSubset] = []
    for c in cuts:
        if any(c != d and not c & ~d for d in cuts):
            continue
        vals = [bottom] * n
        for k, j in enumerate(irreducibles):
            for x in range(n):
                if c >> k * n + x & 1:
                    vals[x] = join[vals[x]][j]
        found.append(LSubset(group, lat, tuple(vals)))
    found.sort(key=lambda s: s.value_indices())
    return tuple(found)


def _highest_coatom(mu: LSubset, budget: int, keep) -> LSubset | None:
    """The coatom of L(mu) of highest rank that ``keep`` accepts, or None.

    Rank is the summed down-set size of the values, which grows strictly
    along containment; ties go to the first in canonical order.  This is
    the first hit of a scan of all of L(mu) in that order whenever every
    hit lies under an accepted coatom.
    """
    sizes = _down_sizes(mu.lattice)
    return min(
        (c for c in _coatoms(mu, budget) if keep(c)),
        key=lambda c: -sum(sizes[v] for v in c.value_indices()),
        default=None,
    )


def enumerate_l_subgroups(
    mu: LSubset, only_proper: bool = False, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, ...]:
    """All L-subgroups sitting below mu pointwise, in canonical order.

    Found as level maps (see the module docstring); mu need not be an
    L-subgroup.  Canonical order is lexicographic on the value tuple (group
    element order, lattice index order).  ``only_proper`` drops the
    constants and mu itself.  The budget counts units of work, here one per
    partial level map the walk visits.  Raises NonDistributiveLatticeError
    over a non-distributive lattice and InstanceTooLargeError once the walk
    has visited more than ``budget`` partial level maps.
    """
    everything = _enumeration(mu, budget)
    if not only_proper:
        return everything
    return tuple(s for s in everything if not s.is_constant() and s != mu)


# ---------------------------------------------------------------- strategies

def _definition_verdict(eta: LSubset, mu: LSubset, budget: int) -> MaximalityVerdict:
    # every member strictly between eta and mu lies under a coatom strictly
    # above eta, so eta is maximal exactly when there is no such coatom
    theta = _highest_coatom(mu, budget, lambda c: c != eta and contains(c, eta))
    if theta is None:
        return MaximalityVerdict(True)
    return MaximalityVerdict(False, "strictly_between", witness_between=theta)


def _missing_points(eta: LSubset, mu: LSubset) -> Iterable[LPoint]:
    lat = eta.lattice
    for x in mu.group.elements:
        cap = mu.value(x)
        have = eta.value(x)
        for a in lat.elements:
            if lat.leq(a, cap) and not lat.leq(a, have):
                yield LPoint(x, a)


def _lpoint_verdict(eta: LSubset, mu: LSubset) -> MaximalityVerdict:
    for point in _missing_points(eta, mu):
        if generate(adjoin_point(eta, point)) != mu:
            return MaximalityVerdict(False, "point_fails_to_generate", witness_point=point)
    return MaximalityVerdict(True)


def is_maximal(
    eta: LSubset, mu: LSubset, strategy: str = "both", budget: int = DEFAULT_BUDGET
) -> MaximalityVerdict:
    """Test whether eta is a maximal L-subgroup of mu.

    ``definition`` looks for a coatom of L(mu) strictly above eta and
    returns the one of highest rank as ``witness_between`` (see
    ``_highest_coatom``), a containment-maximal member strictly between;
    ``lpoint`` checks that every point of mu outside eta generates
    mu when adjoined; ``both`` returns the definitional verdict, adding the
    point witness to a negative one.  A candidate that is not a proper
    L-subgroup of mu is never maximal and is reported with reason
    ``not_proper``.
    """
    if strategy not in ("definition", "lpoint", "both"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not is_proper_l_subgroup(eta, mu):
        return MaximalityVerdict(False, "not_proper")
    if strategy == "definition":
        return _definition_verdict(eta, mu, budget)
    if strategy == "lpoint":
        return _lpoint_verdict(eta, mu)
    by_definition = _definition_verdict(eta, mu, budget)
    if by_definition.maximal:
        return by_definition
    by_point = _lpoint_verdict(eta, mu)
    return MaximalityVerdict(
        False,
        by_definition.reason,
        witness_between=by_definition.witness_between,
        witness_point=by_point.witness_point,
    )


def maximal_l_subgroups(mu: LSubset, budget: int = DEFAULT_BUDGET) -> tuple[LSubset, ...]:
    """All maximal L-subgroups of mu, in canonical order.

    These are the non-constant coatoms of L(mu): proper members with
    nothing in L(mu) strictly between them and mu.
    """
    return tuple(c for c in _coatoms(mu, budget) if not c.is_constant())


# ------------------------------------------------------------ level structure

def tip_relation(eta: LSubset, mu: LSubset) -> TipRelation:
    """Relate the tips of a maximal eta and its parent.

    Either the tips agree or the parent's tip covers eta's; anything else
    would contradict maximality and is reported as Violation, which the
    harness property ``maximal_tips`` treats as a failure.  Maximality is
    read from the coatoms of L(mu) at ``DEFAULT_BUDGET``.  Raises
    NotMaximalError when eta is not maximal in mu.
    """
    if not is_maximal(eta, mu, strategy="definition"):
        raise NotMaximalError("tip relation is defined for maximal L-subgroups")
    lat = mu.lattice
    e = mu.group.identity
    if eta.value(e) == mu.value(e):
        return TipRelation.EQUAL
    if lat.is_cover(mu.value(e), eta.value(e)):
        return TipRelation.PARENT_COVERS
    return TipRelation.VIOLATION


def _level_relation(eta: LSubset, mu: LSubset, a: str) -> LevelRelation:
    # mu is an L-subgroup here, so its non-empty levels are in the subgroup table
    ai = mu.lattice.index(a)
    lv_eta, lv_mu = _level_mask(eta, ai), _level_mask(mu, ai)
    if lv_eta == lv_mu:
        return LevelRelation.EQUAL
    if lv_eta and lv_eta in _lower_covers(mu.group, lv_mu):
        return LevelRelation.PROPER_MAXIMAL_SUBGROUP
    return LevelRelation.PROPER_SUBGROUP


def level_profile(eta: LSubset, mu: LSubset) -> LevelProfile:
    """Classify eta's levels against mu's over the union of their images.

    When eta is in fact maximal and jointly supstar with mu, exactly one
    level may differ, and when the tips also agree that defect level must
    be a maximal subgroup classically; the harness property
    ``maximal_level_profiles`` checks both facts.
    """
    if not is_l_subgroup_of(eta, mu):
        raise NotAnLSubgroupError("level profiles require eta in L(mu)")
    image = eta.image() | mu.image()
    rows = tuple((a, _level_relation(eta, mu, a)) for a in mu.lattice.elements if a in image)
    defects = [a for a, rel in rows if rel is not LevelRelation.EQUAL]
    return LevelProfile(rows, defects[0] if len(defects) == 1 else None)


def sufficient_maximal_check(eta: LSubset, mu: LSubset) -> bool:
    """Level-pattern condition that forces maximality.

    True when the tips agree and, over every lattice element a below the
    tip of mu, exactly one level of eta is a maximal subgroup of the
    matching level of mu while all the others coincide.  A true answer
    implies maximality (the harness property ``sufficient_condition_sound``
    checks it); a false answer implies nothing.
    """
    if not is_l_subgroup_of(eta, mu):
        return False
    tip = mu.value(mu.group.identity)
    if eta.value(mu.group.identity) != tip:
        return False
    defects = [
        rel for a in mu.lattice.down_set(tip)
        if (rel := _level_relation(eta, mu, a)) is not LevelRelation.EQUAL
    ]
    return defects == [LevelRelation.PROPER_MAXIMAL_SUBGROUP]


# ---------------------------------------------------------------- transport

def _transport(
    move, f: GroupHom, eta: LSubset, mu: LSubset, budget: int
) -> tuple[LSubset, MaximalityVerdict]:
    # move is pushforward or pullback; both keep maximality along a bijection
    if not f.bijective:
        raise NotAnIsomorphismError("transport requires a bijective homomorphism")
    if not is_maximal(eta, mu, strategy="definition", budget=budget):
        raise NotMaximalError("transport requires a maximal L-subgroup")
    moved = move(f, eta)
    return moved, is_maximal(moved, move(f, mu), strategy="both", budget=budget)


def transport_maximal(
    f: GroupHom, eta: LSubset, mu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, MaximalityVerdict]:
    """Push a maximal L-subgroup through an isomorphism.

    Returns f(eta) together with its maximality verdict inside f(mu).
    """
    return _transport(pushforward, f, eta, mu, budget)


def transport_maximal_preimage(
    f: GroupHom, theta: LSubset, nu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, MaximalityVerdict]:
    """Pull a maximal L-subgroup back through an isomorphism."""
    return _transport(pullback, f, theta, nu, budget)
