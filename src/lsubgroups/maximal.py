"""Maximal L-subgroups: enumeration, three detection strategies, level profiles.

L(mu), the L-subgroups below mu, is enumerated through levels.  Over a
finite distributive lattice, where join-irreducibles are join-prime, a
member eta is an antitone map j -> H_j from the join-irreducibles to the
subgroups and the empty set, with H_j (eta's level at j) inside mu's level
at j and eta(x) the join of the j with x in H_j.  Non-distributive lattices
are refused; the budget bounds the partial level maps the walk visits.

A maximal L-subgroup of mu is a proper L-subgroup with nothing strictly
between it and mu.  Two independent tests are provided: the definitional
search through the full enumeration of L(mu), and the lattice-point test
(eta is maximal iff adjoining any missing point generates all of mu).  The
list of all maximal L-subgroups is read off the coatoms of L(mu), found
once per parent and cached (the Frattini module reads them too).  The
level-profile machinery classifies how each level subset of eta sits inside
the matching level of mu and pins down the single defect level that
maximality forces when the images are jointly supstar.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable

from .errors import InstanceTooLargeError, NonDistributiveLatticeError, NotAnIsomorphismError
from .errors import NotAnLSubgroupError, NotMaximalError
from .groups import GroupHom, all_subgroups, maximal_subgroups_of
from .lsets import (
    LPoint,
    LSubset,
    adjoin_point,
    contains,
    generate,
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


def _down_sizes(lat) -> list[int]:
    # |down-set| grows strictly along the order, no matter how the carrier
    # happens to be listed, which makes it a safe rank for largest-first scans
    leq = lat._leq
    n = len(lat.elements)
    return [sum(1 for j in range(n) if leq[j][i]) for i in range(n)]


def _rank_function(lat):
    sizes = _down_sizes(lat)

    def rank(s: LSubset) -> int:
        return sum(sizes[v] for v in s.value_indices())

    return rank


@lru_cache(maxsize=64)
def _enumeration(mu: LSubset, budget: int) -> tuple[LSubset, ...]:
    group, lat = mu.group, mu.lattice
    if not lat.distributive:
        raise NonDistributiveLatticeError("L-subgroup tests require a distributive lattice")
    leq, join, bottom = lat._leq, lat._join, lat.index(lat.bottom)
    order = sorted(range(len(lat)), key=_down_sizes(lat).__getitem__)
    # j is join-irreducible when the elements strictly below it join to less
    irreducibles = [
        j for j in order
        if reduce(lambda a, i: join[a][i], (i for i in order if i != j and leq[i][j]), bottom) != j
    ]
    # antitone: H_j must sit inside H_i for every join-irreducible i below j
    earlier = [[p for p in range(k) if leq[irreducibles[p]][j]] for k, j in enumerate(irreducibles)]
    vals = mu.value_indices()
    levels = [sum(1 << x for x, v in enumerate(vals) if leq[j][v]) for j in irreducibles]
    indexed = [()] + [tuple(map(group.index, s)) for s in all_subgroups(group)]
    subgroups = [(sum(1 << x for x in xs), xs) for xs in indexed]
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
def _by_rank(mu: LSubset, budget: int) -> tuple[LSubset, ...]:
    # stable largest-first order of L(mu): anything strictly above a member
    # comes before it
    return tuple(sorted(_enumeration(mu, budget), key=_rank_function(mu.lattice), reverse=True))


@lru_cache(maxsize=64)
def _coatoms(mu: LSubset, budget: int) -> tuple[LSubset, ...]:
    """Members of L(mu) other than mu with nothing strictly between them and mu.

    Constants are kept.  A member that is not a coatom lies strictly under
    one, which ranks higher, so a largest-first scan need only test each
    member against the coatoms found so far.  Canonical order.
    """
    leq = mu.lattice._leq

    def below(lo: LSubset, hi: LSubset) -> bool:
        return all(leq[a][b] for a, b in zip(lo.value_indices(), hi.value_indices()))

    found: list[LSubset] = []
    for eta in _by_rank(mu, budget):
        if eta != mu and not any(below(eta, c) for c in found):
            found.append(eta)
    found.sort(key=lambda s: s.value_indices())
    return tuple(found)


def enumerate_l_subgroups(
    mu: LSubset, only_proper: bool = False, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, ...]:
    """All L-subgroups sitting below mu pointwise, in canonical order.

    Found as level maps (see the module docstring); mu need not be an
    L-subgroup.  Canonical order is lexicographic on the value tuple (group
    element order, lattice index order).  ``only_proper`` drops the
    constants and mu itself.  Raises NonDistributiveLatticeError over a
    non-distributive lattice and InstanceTooLargeError once the walk has
    visited more than ``budget`` partial level maps.
    """
    everything = _enumeration(mu, budget)
    if not only_proper:
        return everything
    return tuple(s for s in everything if not s.is_constant() and s != mu)


# ---------------------------------------------------------------- strategies

def _definition_verdict(eta: LSubset, mu: LSubset, budget: int) -> MaximalityVerdict:
    # scan largest-first: anything strictly above a witness ranks higher and
    # was already rejected, so the first hit is a containment-maximal witness
    for theta in _by_rank(mu, budget):
        if theta == eta or theta == mu:
            continue
        if contains(theta, eta) and contains(mu, theta):
            return MaximalityVerdict(False, "strictly_between", witness_between=theta)
    return MaximalityVerdict(True)


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

    ``definition`` searches the enumeration of L(mu) for something strictly
    between; ``lpoint`` checks that every point of mu outside eta generates
    mu when adjoined; ``both`` runs the two and insists they agree.  A
    candidate that is not a proper L-subgroup of mu is never maximal and is
    reported with reason ``not_proper``.
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
    by_point = _lpoint_verdict(eta, mu)
    assert by_definition.maximal == by_point.maximal, (
        "definitional and point maximality tests disagree"
    )
    if by_definition.maximal:
        return by_definition
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
    harness property ``maximal_tips`` treats as a failure.  Raises
    NotMaximalError when eta is not maximal in mu.
    """
    if not is_maximal(eta, mu, strategy="lpoint"):
        raise NotMaximalError("tip relation is defined for maximal L-subgroups")
    lat = mu.lattice
    e = mu.group.identity
    if eta.value(e) == mu.value(e):
        return TipRelation.EQUAL
    if lat.is_cover(mu.value(e), eta.value(e)):
        return TipRelation.PARENT_COVERS
    return TipRelation.VIOLATION


def level_profile(eta: LSubset, mu: LSubset) -> LevelProfile:
    """Classify eta's levels against mu's over the union of their images.

    When eta is in fact maximal and jointly supstar with mu, exactly one
    level may differ, and when the tips also agree that defect level must
    be a maximal subgroup classically; the harness property
    ``maximal_level_profiles`` checks both facts.
    """
    if not is_l_subgroup_of(eta, mu):
        raise NotAnLSubgroupError("level profiles require eta in L(mu)")
    group = mu.group
    lat = mu.lattice
    image = eta.image() | mu.image()
    rows: list[tuple[str, LevelRelation]] = []
    for a in lat.elements:
        if a not in image:
            continue
        lv_eta, lv_mu = eta.level(a), mu.level(a)
        if lv_eta == lv_mu:
            rows.append((a, LevelRelation.EQUAL))
        elif lv_eta and lv_eta in maximal_subgroups_of(group, lv_mu):
            rows.append((a, LevelRelation.PROPER_MAXIMAL_SUBGROUP))
        else:
            rows.append((a, LevelRelation.PROPER_SUBGROUP))
    defects = [a for a, rel in rows if rel is not LevelRelation.EQUAL]
    return LevelProfile(tuple(rows), defects[0] if len(defects) == 1 else None)


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
    group = mu.group
    lat = mu.lattice
    e = group.identity
    if eta.value(e) != mu.value(e):
        return False
    defects = 0
    for a in lat.down_set(mu.value(e)):
        lv_eta, lv_mu = eta.level(a), mu.level(a)
        if lv_eta == lv_mu:
            continue
        if lv_eta and lv_eta in maximal_subgroups_of(group, lv_mu):
            defects += 1
            if defects > 1:
                return False
        else:
            return False
    return defects == 1


# ---------------------------------------------------------------- transport

def transport_maximal(
    f: GroupHom, eta: LSubset, mu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, MaximalityVerdict]:
    """Push a maximal L-subgroup through an isomorphism.

    Returns f(eta) together with its (asserted positive) maximality verdict
    inside f(mu).
    """
    if not f.bijective:
        raise NotAnIsomorphismError("transport requires a bijective homomorphism")
    if not is_maximal(eta, mu, strategy="lpoint"):
        raise NotMaximalError("transport requires a maximal L-subgroup")
    image_eta = pushforward(f, eta)
    image_mu = pushforward(f, mu)
    verdict = is_maximal(image_eta, image_mu, strategy="both", budget=budget)
    assert verdict.maximal, "isomorphic image of a maximal L-subgroup must be maximal"
    return image_eta, verdict


def transport_maximal_preimage(
    f: GroupHom, theta: LSubset, nu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, MaximalityVerdict]:
    """Pull a maximal L-subgroup back through an isomorphism."""
    if not f.bijective:
        raise NotAnIsomorphismError("transport requires a bijective homomorphism")
    if not is_maximal(theta, nu, strategy="lpoint"):
        raise NotMaximalError("transport requires a maximal L-subgroup")
    back_theta = pullback(f, theta)
    back_nu = pullback(f, nu)
    verdict = is_maximal(back_theta, back_nu, strategy="both", budget=budget)
    assert verdict.maximal, "isomorphic preimage of a maximal L-subgroup must be maximal"
    return back_theta, verdict
