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
parent and cached with their cuts packed into integers; the maximal
L-subgroups are the non-constant ones, and the Frattini module reads them.
With M ranging over the subgroups of mu_j maximal among those that hold
theta_j and miss x, for each j ≤ a, the same builder gives
``frattini.maximal_avoiding``.

``is_maximal`` answers by the definition: eta is maximal exactly when no
coatom is strictly above it, one mask test per coatom against eta packed
the same way.  A no also names a point of mu outside eta that fails to
generate mu when adjoined, from the lattice-point test (eta
is maximal iff adjoining any missing point generates mu), which
``_lpoint_verdict`` keeps as the reference the tests hold the coatoms to.
It compares the generated levels at the join-irreducibles, as bitmasks,
with mu's, and builds no L-subset per point.
``enumerate_l_subgroups`` walks all of L(mu) as level maps.  One level
classifier places each level of eta inside mu's; the level profile and the
sufficient pattern read it, and the profile pins down the single defect
level that maximality forces when the images are jointly supstar.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

from .errors import InstanceTooLargeError, NotAnIsomorphismError
from .errors import NotAnLSubgroupError, NotMaximalError
from .groups import GroupHom, _indices, _lower_covers, _subgroup_table
from .lsets import _down_sizes, _level_masks
from .lsets import (
    LPoint,
    LSubset,
    generate,  # unused; bench/tests/test_bench.py::test_tracer_restores_every_binding reads it
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


class MaximalityVerdict(NamedTuple):
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


class LevelProfile(NamedTuple):
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


def _pack(levels: tuple[int, ...], n: int) -> int:
    # one level mask per join-irreducible, |G| bits each, the first lowest
    return sum(level << k * n for k, level in enumerate(levels))


def _maximal_cuts(mu: LSubset, budget: int, pick) -> tuple[tuple[int, LSubset], ...]:
    """The level cuts of mu that lie under no other cut, in canonical order.

    ``pick(j, level)`` gives the masks M to cut with at the join-irreducible
    j, where mu's level is the non-empty mask ``level``; the cut theta^{j,M}
    of the module docstring meets every level at or above j with M.  Each
    cut is packed into one integer with |G| bits per join-irreducible, so
    containment is one mask test.  The budget counts units of work: one per
    cut built and one per ordered pair of cuts the filter may compare,
    n + n² for n cuts, charged before comparing.  Each cut comes with its
    packed form, which is its levels at the join-irreducibles laid out by
    ``_pack``, since every cut is antitone.  Raises
    NotAnLSubgroupError when mu is not an L-subgroup (some level at a
    join-irreducible is neither empty nor a subgroup),
    NonDistributiveLatticeError over a non-distributive lattice and
    InstanceTooLargeError when the work exceeds ``budget``.
    """
    if not is_l_subgroup(mu):
        raise NotAnLSubgroupError("level cuts of mu require mu to be an L-subgroup")
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    leq, join, bottom = lat._leq, lat._join, lat.index(lat.bottom)
    n = len(group)
    packed = _pack(levels, n)
    cuts: list[int] = []
    for j, level in zip(irreducibles, levels):
        if not level:
            continue
        spread = sum(1 << k * n for k, i in enumerate(irreducibles) if leq[j][i])
        kept = packed & ~(((1 << n) - 1) * spread)
        cuts.extend(kept | packed & m * spread for m in pick(j, level))
    work = len(cuts) * (len(cuts) + 1)
    if work > budget:
        raise InstanceTooLargeError(work, budget, (
            f"the level cuts of mu need {work} units of work ({len(cuts)} level cuts and the "
            f"ordered pairs among them), over the budget of {budget}"
        ))
    found: list[tuple[int, LSubset]] = []
    for c in cuts:
        if any(c != d and not c & ~d for d in cuts):
            continue
        vals = [bottom] * n
        for k, j in enumerate(irreducibles):
            for x in range(n):
                if c >> k * n + x & 1:
                    vals[x] = join[vals[x]][j]
        found.append((c, LSubset(group, lat, tuple(vals))))
    found.sort(key=lambda cut: cut[1].value_indices())
    return tuple(found)


@lru_cache(maxsize=64)
def _coatom_index(mu: LSubset, budget: int) -> tuple[tuple[LSubset, ...], tuple]:
    """The coatoms of L(mu) in canonical order, alone and with their packed cuts.

    Constants are kept.  The cuts with M a lower cover of mu_j; only the
    trivial subgroup has no maximal subgroup, and ∅ covers it.
    """
    cuts = _maximal_cuts(mu, budget, lambda j, level: _lower_covers(mu.group, level) or (0,))
    return tuple(c for _, c in cuts), cuts


def _coatoms(mu: LSubset, budget: int) -> tuple[LSubset, ...]:
    """Members of L(mu) other than mu with nothing strictly between them and mu."""
    return _coatom_index(mu, budget)[0]


@lru_cache(maxsize=64)
def _coatom_scan(mu: LSubset, budget: int) -> tuple[tuple[int, LSubset], ...]:
    """The coatoms with their packed cuts, by rank descending, canonical order on ties.

    Rank, the summed down-set size of the values, grows strictly along
    containment: the first coatom a witness scan accepts is the first hit
    of a scan of all of L(mu) by rank whenever every hit lies under one.
    """
    sizes = _down_sizes(mu.lattice)
    cuts = _coatom_index(mu, budget)[1]
    return tuple(sorted(cuts, key=lambda cut: -sum(sizes[v] for v in cut[1].value_indices())))


def enumerate_l_subgroups(mu: LSubset, budget: int = DEFAULT_BUDGET) -> tuple[LSubset, ...]:
    """All L-subgroups sitting below mu pointwise, in canonical order.

    Found as level maps (see the module docstring); mu need not be an
    L-subgroup.  Canonical order is lexicographic on the value tuple (group
    element order, lattice index order).  The budget counts units of work,
    here one per partial level map the walk visits.  Raises
    NonDistributiveLatticeError over a non-distributive lattice and
    InstanceTooLargeError once the walk has visited more than ``budget``
    partial level maps.
    """
    return _enumeration(mu, budget)


# --------------------------------------------------------------- maximality

def _lpoint_verdict(eta: LSubset, mu: LSubset) -> MaximalityVerdict:
    # eta is a proper member of L(mu).  At each join-irreducible j,
    # <eta ∪ a_x> has the closure of theta_j, eta's level with x added when
    # j ≤ a, or ∅ when theta_j is empty: j is join-prime, so j is under the
    # tip exactly when it is under some value
    group, lat = mu.group, mu.lattice
    leq, table = lat._leq, _subgroup_table(group)
    irreducibles, have = _level_masks(eta)
    want = _level_masks(mu)[1]
    closures = {0: 0}
    for x, (cap, low) in enumerate(zip(mu.value_indices(), eta.value_indices())):
        for a in range(len(lat)):
            if not leq[a][cap] or leq[a][low]:
                continue
            for j, level, target in zip(irreducibles, have, want):
                theta = level | 1 << x if leq[j][a] else level
                if theta not in closures:
                    closures[theta] = next(m for m in table if not theta & ~m)
                if closures[theta] != target:
                    point = LPoint(group.elements[x], lat.elements[a])
                    return MaximalityVerdict(False, "point_fails_to_generate", witness_point=point)
    return MaximalityVerdict(True)


def is_maximal(eta: LSubset, mu: LSubset, *, budget: int = DEFAULT_BUDGET) -> MaximalityVerdict:
    """Test whether eta is a maximal L-subgroup of mu.

    Looks for a coatom of L(mu) strictly above eta, one mask test each
    against eta packed once, and returns the first in scan order (see
    ``_coatom_scan``) as ``witness_between``, a containment-maximal member
    strictly between.  A negative verdict also carries ``witness_point``:
    the first point of mu outside eta, in group order and then lattice
    order, whose adjunction fails to generate mu (see ``_lpoint_verdict``).
    A candidate that is not a proper L-subgroup of mu is never maximal and
    is reported with reason ``not_proper``.
    """
    if not is_proper_l_subgroup(eta, mu):
        return MaximalityVerdict(False, "not_proper")
    # every member strictly between eta and mu lies under a coatom strictly
    # above eta, so eta is maximal exactly when there is no such coatom
    pe = _pack(_level_masks(eta)[1], len(mu.group))
    theta = next((c for p, c in _coatom_scan(mu, budget) if p != pe and not pe & ~p), None)
    if theta is None:
        return MaximalityVerdict(True)
    point = _lpoint_verdict(eta, mu).witness_point
    return MaximalityVerdict(False, "strictly_between", witness_between=theta, witness_point=point)


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
    if not is_maximal(eta, mu):
        raise NotMaximalError("tip relation is defined for maximal L-subgroups")
    lat = mu.lattice
    e = mu.group.identity
    if eta.value(e) == mu.value(e):
        return TipRelation.EQUAL
    if lat.is_cover(mu.value(e), eta.value(e)):
        return TipRelation.PARENT_COVERS
    return TipRelation.VIOLATION


def _level_relations(eta: LSubset, mu: LSubset, elements):
    # yields (a, how eta's level at a sits in mu's) for each a.  The level at
    # a is the meet of the levels at the join-irreducibles below a, the whole
    # group at the bottom; mu is an L-subgroup here, so its non-empty levels
    # are in the subgroup table
    lat, group = mu.lattice, mu.group
    irreducibles, have = _level_masks(eta)
    want = _level_masks(mu)[1]
    for a in elements:
        ai = lat.index(a)
        lv_eta = lv_mu = (1 << len(group)) - 1
        for j, h, m in zip(irreducibles, have, want):
            if lat._leq[j][ai]:
                lv_eta, lv_mu = lv_eta & h, lv_mu & m
        if lv_eta == lv_mu:
            yield a, LevelRelation.EQUAL
        elif lv_eta and lv_eta in _lower_covers(group, lv_mu):
            yield a, LevelRelation.PROPER_MAXIMAL_SUBGROUP
        else:
            yield a, LevelRelation.PROPER_SUBGROUP


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
    rows = tuple(_level_relations(eta, mu, [a for a in mu.lattice.elements if a in image]))
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
    rows = _level_relations(eta, mu, mu.lattice.down_set(tip))
    defects = [rel for _, rel in rows if rel is not LevelRelation.EQUAL]
    return defects == [LevelRelation.PROPER_MAXIMAL_SUBGROUP]


# ---------------------------------------------------------------- transport

def _transport(
    move, f: GroupHom, eta: LSubset, mu: LSubset, budget: int
) -> tuple[LSubset, MaximalityVerdict]:
    # move is pushforward or pullback; both keep maximality along a bijection
    if not f.bijective:
        raise NotAnIsomorphismError("transport requires a bijective homomorphism")
    if not is_maximal(eta, mu, budget=budget):
        raise NotMaximalError("transport requires a maximal L-subgroup")
    moved = move(f, eta)
    return moved, is_maximal(moved, move(f, mu), budget=budget)


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
