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
If mu_i is not inside M at some i > j, the cut lies strictly under a cut
at i; otherwise it differs from mu only at j, under no other cut.  So the
coatoms are the cuts whose M holds mu's levels strictly above j.  They are
found once per parent and kept in one cache with their Birkhoff codes
(below); the maximal L-subgroups are the non-constant ones, and the Frattini
module reads them, ``frattini.maximal_avoiding`` through the same builder.

``is_maximal`` answers by the definition: eta is maximal exactly when no
coatom is strictly above it, one mask test per coatom against eta's
code.  A no also names a point of mu outside eta that fails to generate
mu when adjoined, read off those coatoms in closed form: <eta ∪ a_x>
falls short of mu exactly when it lies under a coatom, that is when
a ≤ theta(x) for a coatom theta above eta.  The lattice-point search
(eta is maximal iff adjoining any missing point generates mu) is kept as
``_lpoint_verdict``, the reference the tests hold the closed form to;
``_point_fails`` decides one point by comparing the generated levels at
the join-irreducibles, as bitmasks, with mu's, and builds no L-subset.
``enumerate_l_subgroups`` walks L(mu) as level maps, depth first over the
join-irreducibles.  The subtree below a node depends only on the bounds
its choices leave on the later join-irreducibles, so it is walked once and
a repeat is charged its recorded visits.  As eta(x) is the join of the
join-irreducibles whose level holds x (Birkhoff), a member packs into one
integer with a field per group element, put together from the recorded
subtrees by one OR per level and decoded through a table.  The level cuts
are packed the same way, and no module but this one knows the layout:
``_code`` packs a map's values and ``_point_code`` a point's.  One level
classifier places each level of eta inside mu's; the level profile and the
sufficient pattern read it, and the profile pins down the single defect
level that maximality forces when the images are jointly supstar.
"""
from __future__ import annotations

import enum
from functools import lru_cache, reduce
from itertools import repeat
from math import prod
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, InstanceTooLargeError, NotAnIsomorphismError
from .errors import NotAnLSubgroupError, NotMaximalError
from .groups import GroupHom, _closure, _lower_covers, _subgroups_within
from .lsets import _level_masks
from .lsets import (
    LPoint,
    LSubset,
    generate,  # unused; read by bench/tests/test_bench.py::test_tracer_restores_every_binding
    # and patched by tests/test_maximal.py::TestTipRelation::test_preconditions_read_the_coatoms
    is_l_subgroup,
    is_l_subgroup_of,
    is_proper_l_subgroup,
    pullback,
    pushforward,
)


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
    return prod(map(mu.lattice._down_sizes.__getitem__, mu.value_indices()))


@lru_cache(maxsize=64)
def _birkhoff(lat) -> tuple[int, object, object, bytes]:
    # a member's value at x is the join of the join-irreducibles whose level
    # holds x, so it packs into a field of one bit per join-irreducible, in
    # the lattice's _irreducibles order.  Returns the field width in bits, a
    # decoder of codes with one field per group element into their values,
    # the bytes of lattice indices that LSubset keeps, the encoder back that
    # _code wraps, and a translate table of each index's down-set size less
    # one (a rank that fits a byte), each table padded to 256 bytes
    irreducibles, leq = lat._irreducibles, lat._leq
    size = -(-len(irreducibles) // 8) or 1
    fields = [sum(1 << k for k, j in enumerate(irreducibles) if leq[j][a]) for a in range(len(lat))]
    ranks = bytes(s - 1 for s in lat._down_sizes).ljust(256, b"\0")
    if size == 1:
        table, encoding = bytearray(256), bytes(fields).ljust(256, b"\0")
        for a, c in enumerate(fields):
            table[c] = a
        return 8, lambda codes, n: map(
            bytes.translate, map(int.to_bytes, codes, repeat(n), repeat("little")), repeat(table)
        ), lambda vals: int.from_bytes(vals.translate(encoding), "little"), ranks
    raws = [c.to_bytes(size, "little") for c in fields]
    by_raw = dict(zip(raws, range(len(lat))))
    return 8 * size, lambda codes, n: (
        bytes([by_raw[raw[i:i + size]] for i in range(0, n * size, size)])
        for raw in map(int.to_bytes, codes, repeat(n * size), repeat("little"))
    ), lambda vals: int.from_bytes(b"".join(map(raws.__getitem__, vals)), "little"), ranks


@lru_cache(maxsize=4096)
def _spread(mask: int, width: int) -> int:
    # one set bit at the start of the field of each element in mask: each
    # binary digit of mask read as a hexadecimal digit, width / 4 digits apart
    return int(("0" * (width // 4 - 1)).join(format(mask, "b")), 16)


def _code(lat, vals: bytes) -> int:
    # the Birkhoff code of a map's values, the lattice indices by group
    # element: element x's field holds bit k when the k-th join-irreducible
    # is under vals[x].  Containment of members is containment of their codes
    return _birkhoff(lat)[2](vals)


def _point_code(lat, x: int, a: int) -> int:
    # the code of a_x, {x} at each join-irreducible j ≤ a: _spread(1 << x, width) is 1 << width * x
    leq = lat._leq
    return sum(1 << k for k, j in enumerate(lat._irreducibles) if leq[j][a]) << _birkhoff(lat)[0] * x


def _level_cuts(mu: LSubset, budget: int, pick) -> tuple[tuple[int, LSubset], ...]:
    """The level cuts of mu that ``pick`` keeps, each with its code, in canonical order.

    ``pick(j, level, above)`` sees each join-irreducible j where mu's level
    is the non-empty mask ``level``, with ``above`` the OR of mu's levels
    strictly above j, and returns how many cuts at j it weighed and the
    masks M it keeps.  The builder compares no cuts.  The budget counts
    n + n² units for the n cuts weighed.  A cut is packed into its
    Birkhoff code (see ``_code``), from which its L-subset is decoded.  Raises
    NotAnLSubgroupError when mu is not an L-subgroup,
    NonDistributiveLatticeError over a non-distributive lattice and
    InstanceTooLargeError when the work exceeds ``budget``.
    """
    if not is_l_subgroup(mu):
        raise NotAnLSubgroupError("level cuts of mu require mu to be an L-subgroup")
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    leq, n, full = lat._leq, len(group), (1 << len(group)) - 1
    width, decode, *_ = _birkhoff(lat)
    # a cut at j by M clears the bits at j and above of the elements outside M
    code, everyone = _code(lat, mu.value_indices()), _spread(full, width)
    weighed, codes = 0, []
    for j, level in zip(irreducibles, levels):
        if not level:
            continue
        bits = sum(1 << k for k, i in enumerate(irreducibles) if leq[j][i])
        above = reduce(int.__or__, (lv for i, lv in zip(irreducibles, levels) if i != j and leq[j][i]), 0)
        count, masks = pick(j, level, above)
        weighed += count
        codes.extend(code & ~((everyone ^ _spread(m, width)) * bits) for m in masks)
    work = weighed * (weighed + 1)
    if work > budget:
        raise InstanceTooLargeError(work, budget, (
            f"the level cuts of mu need {work} units of work ({weighed} level cuts and the "
            f"ordered pairs among them), over the budget of {budget}"
        ))
    found = sorted(zip(decode(codes, n), codes))
    return tuple((c, LSubset(group, lat, vals)) for vals, c in found)


@lru_cache(maxsize=64)
def _coatom_index(mu: LSubset, budget: int) -> tuple[tuple[int, LSubset], ...]:
    """The coatoms of L(mu) in canonical order, with their codes: the one coatom cache.

    Constants are kept.  Every cut by a lower cover M of mu_j (∅ when mu_j
    is trivial) is weighed, and kept when M holds mu's levels above j.
    """
    def pick(j: int, level: int, above: int) -> tuple[int, list[int]]:
        covers = _lower_covers(mu.group, level) or (0,)
        return len(covers), [m for m in covers if not above & ~m]

    return _level_cuts(mu, budget, pick)


def _meet_of_cuts(mu: LSubset, cuts) -> LSubset:
    """The meet of the (code, L-subset) cuts ``cuts``, or mu when there are none.

    Over a distributive lattice the meet of two values keeps exactly the
    join-irreducibles below both, so the meet of level maps is the AND of
    their codes, decoded once.
    """
    codes = [p for p, _ in cuts]
    if not codes:
        return mu
    decode = _birkhoff(mu.lattice)[1]
    return LSubset(mu.group, mu.lattice, next(decode([reduce(int.__and__, codes)], len(mu.group))))


def _highest(lat, coatoms: list[LSubset]) -> LSubset | None:
    """The highest-ranked of ``coatoms``, the first on ties; None when there are none.

    Rank, the summed down-set size of the values, grows strictly along
    containment, so the coatom returned is the first hit of a scan of all
    of L(mu) by rank whenever every hit there lies under one of
    ``coatoms``.  Each rank is one translate of the values and one sum.
    """
    *_, ranks = _birkhoff(lat)
    return max(coatoms, key=lambda c: sum(c.value_indices().translate(ranks)), default=None)


def _highest_coatom(mu: LSubset, budget: int, hit) -> LSubset | None:
    """The highest-ranked coatom whose code ``hit`` accepts, the first in canonical order on ties."""
    return _highest(mu.lattice, [c for p, c in _coatom_index(mu, budget) if hit(p)])


def enumerate_l_subgroups(mu: LSubset, budget: int = DEFAULT_BUDGET) -> tuple[LSubset, ...]:
    """All L-subgroups sitting below mu pointwise, in canonical order.

    Found as level maps (see the module docstring); mu need not be an
    L-subgroup.  Canonical order is lexicographic on the value bytes (group
    element order, lattice index order).  Each call walks L(mu) afresh and
    returns a new tuple that nothing else holds, so a listing is freed as
    soon as its caller drops it; a caller that reads L(mu) more than once
    keeps the tuple itself.  The budget counts units of work, here one per
    partial level map of the depth-first walk; a repeated subtree, walked
    once, is charged its full visit count each time.  Raises
    NonDistributiveLatticeError over a non-distributive lattice and
    InstanceTooLargeError once the walk has visited more than ``budget``
    partial level maps, naming how many members it had found by then.
    """
    # A node's key is the bounds left on the join-irreducibles from its own
    # on: mu's levels met with the levels chosen below each (antitone).  A
    # repeat that the budget runs out in is walked again to the exact visit.
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    leq, m = lat._leq, len(irreducibles)
    # at position k, the later positions whose bound the choice meets
    later = [[leq[j][i] for i in irreducibles[k + 1:]] for k, j in enumerate(irreducibles)]
    fitting: dict[int, list[int]] = {}  # bound mask -> the subgroups (or ∅) inside it
    records = {(): (1, 1, ())}  # key -> (visits, members, ((choice, child key), ...))
    visited = members = 0

    def walk(key: tuple[int, ...]) -> None:
        nonlocal visited, members
        visited += 1
        if visited > budget:
            raise InstanceTooLargeError(visited, budget, (
                f"enumeration of L(mu) exceeded its budget of {budget} partial level maps "
                f"after {members} members"
            ))
        if not key:  # a leaf: walked only to be refused, or as all of L(mu) over one element
            members += 1
            return
        if key in records:  # a repeat that the budget runs out in
            children = records[key][2]
        else:
            bound, rest, meets = key[0], key[1:], later[m - len(key)]
            if bound not in fitting:
                fitting[bound] = [0, *_subgroups_within(group, bound)]
            children = tuple(
                (h, tuple([b & h if meet else b for b, meet in zip(rest, meets)])) for h in fitting[bound]
            ) if True in meets else tuple(zip(fitting[bound], repeat(rest)))
        start = visited - 1, members
        for _, child in children:
            record = records.get(child)
            if record is not None and visited + record[0] <= budget:
                visited += record[0]
                members += record[1]
            else:
                walk(child)
        records[key] = (visited - start[0], members - start[1], children)

    root = tuple(levels)
    walk(root)
    width, decode, *_ = _birkhoff(lat)
    codes: dict[tuple[int, ...], list[int]] = {(): [0]}

    def assemble(key: tuple[int, ...]) -> list[int]:
        shift, listed = m - len(key), []
        for h, child in records[key][2]:
            below = codes[child] if child in codes else assemble(child)
            listed += map((_spread(h, width) << shift).__or__, below) if h else below
        codes[key] = listed
        return listed

    found = sorted(decode(codes[root] if root in codes else assemble(root), len(group)))
    # walk and assemble refer to themselves, so their closures wait for the
    # cycle collector: free the codes and records before building the members
    codes.clear()
    records.clear()
    return tuple(map(LSubset, repeat(group), repeat(lat), found))


# --------------------------------------------------------------- maximality

def _point_fails(nu: LSubset, mu: LSubset, x: int, a: int, closures: dict | None = None) -> bool:
    # does adjoining the point a_x (indices) to nu in L(mu) fail to generate
    # mu?  At each join-irreducible j, <nu ∪ a_x> has the closure of theta_j,
    # nu's level with x added when j ≤ a, or ∅ when theta_j is empty: j is
    # join-prime, so j is under the tip exactly when it is under some value.
    # ``closures`` keeps each mask's closure across calls on one group
    group, leq = mu.group, mu.lattice._leq
    closures = {0: 0} if closures is None else closures
    irreducibles, have = _level_masks(nu)
    for j, level, target in zip(irreducibles, have, _level_masks(mu)[1]):
        theta = level | 1 << x if leq[j][a] else level
        if theta not in closures:
            closures[theta] = _closure(group, theta)
        if closures[theta] != target:
            return True
    return False


def _lpoint_verdict(eta: LSubset, mu: LSubset) -> MaximalityVerdict:
    # the point route, kept as the reference for is_maximal's witness_point:
    # eta, a proper member of L(mu), is maximal iff adjoining any point of mu
    # outside eta generates mu; the first point that fails, in group order
    # and then lattice order, is the witness
    lat, closures = mu.lattice, {0: 0}
    leq = lat._leq
    for x, (cap, low) in enumerate(zip(mu.value_indices(), eta.value_indices())):
        for a in range(len(lat)):
            if leq[a][cap] and not leq[a][low] and _point_fails(eta, mu, x, a, closures):
                point = LPoint(mu.group.elements[x], lat.elements[a])
                return MaximalityVerdict(False, "point_fails_to_generate", witness_point=point)
    return MaximalityVerdict(True)


def is_maximal(eta: LSubset, mu: LSubset, *, budget: int = DEFAULT_BUDGET) -> MaximalityVerdict:
    """Test whether eta is a maximal L-subgroup of mu.

    One pass over the coatoms of L(mu) keeps the hits, those strictly above
    eta, by one mask test each against eta's code; eta is maximal exactly
    when there is none.  Otherwise the highest-ranked hit (``_highest``)
    is ``witness_between``, a containment-maximal member strictly between.
    ``witness_point`` is the first x, in group order, where the hits'
    values reach a lattice index outside eta(x)'s down-set, at the lowest
    such index a: a_x fails to generate mu exactly when a ≤ theta(x) for a
    hit theta (see the module docstring), so this is the first failing
    point of the search ``_lpoint_verdict``, kept as its reference.
    A candidate that is not a proper L-subgroup of mu is never maximal and
    is reported with reason ``not_proper``.
    """
    if not is_proper_l_subgroup(eta, mu):
        return MaximalityVerdict(False, "not_proper")
    # every member strictly between eta and mu lies under a coatom strictly
    # above eta, so eta is maximal exactly when there is no such coatom
    lat, low = mu.lattice, eta.value_indices()
    pe = _code(lat, low)
    hits = [c for p, c in _coatom_index(mu, budget) if p != pe and not pe & ~p]
    if not hits:
        return MaximalityVerdict(True)
    down = lat._down
    for x, v in enumerate(low):  # some hit lies above eta at some x, where the loop stops
        missing = 0
        for c in hits:
            missing |= down[c.value_indices()[x]]
        if missing := missing & ~down[v]:
            break
    point = LPoint(mu.group.elements[x], lat.elements[(missing & -missing).bit_length() - 1])
    theta = _highest(lat, hits)
    return MaximalityVerdict(False, "strictly_between", witness_between=theta, witness_point=point)


def maximal_l_subgroups(mu: LSubset, budget: int = DEFAULT_BUDGET) -> tuple[LSubset, ...]:
    """All maximal L-subgroups of mu, in canonical order.

    These are the non-constant coatoms of L(mu): proper members with
    nothing in L(mu) strictly between them and mu.
    """
    return tuple(c for _, c in _coatom_index(mu, budget) if not c.is_constant())


# ------------------------------------------------------------ level structure

def tip_relation(eta: LSubset, mu: LSubset, *, budget: int = DEFAULT_BUDGET) -> TipRelation:
    """Relate the tips of a maximal eta and its parent.

    Either the tips agree or the parent's tip covers eta's; anything else
    would contradict maximality and is reported as Violation, which the
    harness property ``maximal_tips`` treats as a failure.  Maximality is
    read from the coatoms of L(mu) at ``budget``.  Raises NotMaximalError
    when eta is not maximal in mu and InstanceTooLargeError when the
    coatoms exceed the budget.
    """
    if not is_maximal(eta, mu, budget=budget):
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
    # are subgroups
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
    return is_l_subgroup_of(eta, mu) and _sufficient_pattern(eta, mu)


def _sufficient_pattern(eta: LSubset, mu: LSubset) -> bool:
    # the level pattern of sufficient_maximal_check, for eta already in L(mu)
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
