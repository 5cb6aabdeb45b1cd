"""Frattini L-subgroups and non-generator lattice points.

The Frattini L-subgroup of mu is the pointwise meet of all maximal
L-subgroups of mu, falling back to mu itself when there are none.  A point
a_x of mu is a non-generator when it can be dropped from any generating
family: whenever adjoining a_x to some L-subset of mu generates mu, that
L-subset already generates mu on its own.  Over chain lattices the join of
all non-generator points coincides with the Frattini L-subgroup, and the
report produced here carries both sides of that comparison.

Both constructions read the coatoms of L(mu), the members other than mu
with nothing strictly between them and mu, which ``maximal`` builds in
closed form from level cuts: a cut meets mu's levels at and above one
join-irreducible j with one lower cover of mu's level at j.  The maximal
L-subgroups are the non-constant coatoms.  Generation is monotone and every
member of L(mu) other than mu lies below some coatom, so a_x is a
non-generator exactly when it lies in every coatom, and the non-generator
subgroup is the meet of all coatoms.  It is enough to quantify over L(mu)
rather than over all L-subsets of mu: adjoining a point to eta and to the
subgroup generated by eta produce the same generated subgroup.
``maximal_avoiding`` reads the same cut builder, cutting only at the j
maximal among the join-irreducibles ≤ a, with the subgroups of mu_j
maximal among those that hold theta_j and miss x (``groups._maximal_masks``
filters them).  The test suite checks both against scans of L(mu), and the
reduction to L(mu) against the raw definition on tiny instances.

``frattini`` builds one report per parent and budget, testing each coatom
for constancy once.  Both meets are one AND over the coatoms' Birkhoff
codes, decoded once (``maximal._meet_of_cuts``): phi over the non-constant
ones, the non-generator subgroup over all of them.  A point a_x meets the
coatoms as one mask test each, against the code ``maximal._point_code``
gives its level map: {x} at each join-irreducible j ≤ a.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import DEFAULT_BUDGET, HypothesisNotMetError, LPointNotInParentError
from .errors import NotAnIsomorphismError, NotNormalInGroupError
from .groups import GroupHom, _indices, _maximal_masks, _subgroups_within, frattini_classical
from .lsets import LPoint, LSubset, _level_masks, contains
from .lsets import is_normal_in, is_normal_in_group, point_in, pushforward
from .maximal import _coatom_index, _highest_coatom, _level_cuts, _meet_of_cuts, _point_code


class FrattiniReport(NamedTuple):
    """Frattini L-subgroup alongside the non-generator subgroup.

    ``used_fallback`` records the no-maximal-subgroups case, in which phi is
    mu itself.  Both sides come from the level cuts of mu (see the module
    docstring): ``nongen`` is the join of all non-generator points, which is
    the meet of all coatoms of L(mu); phi is the meet of the non-constant
    ones (``maximal_count`` of them), so it always contains ``nongen``.
    Each meet is one AND of the coatoms' codes.  Over a finite chain the two
    coincide unless some coatom is constant (``constant_obstructed``); the
    harness property ``nongenerators_inside_frattini`` checks both.
    """

    phi: LSubset
    maximal_count: int
    used_fallback: bool
    nongen: LSubset
    equality_holds: bool
    constant_obstructed: bool

    def as_document(self) -> dict:
        return {
            "phi": self.phi.values(),
            "lambda": self.nongen.values(),
            "maximal_count": self.maximal_count,
            "used_fallback": self.used_fallback,
            "equality_holds": self.equality_holds,
            "constant_obstructed": self.constant_obstructed,
        }


def constant_obstructed(mu: LSubset, budget: int = DEFAULT_BUDGET) -> bool:
    """True when some coatom of L(mu) is constant, as the ``frattini`` report says.

    Such a constant has nothing strictly between it and mu, yet it is not a
    maximal L-subgroup, so it enters the meet that gives the non-generator
    subgroup but not the one that gives phi: adjoining a missing point to it
    generates mu while the constant itself does not.  On instances free of
    this obstruction the two constructions coincide over chain lattices; on
    obstructed ones the non-generator subgroup can be strictly smaller,
    starting with mu the characteristic function of the trivial subgroup.
    """
    return frattini(mu, budget).constant_obstructed


def frattini(mu: LSubset, budget: int = DEFAULT_BUDGET) -> FrattiniReport:
    """The Frattini L-subgroup of mu and its non-generator subgroup, once per (mu, budget)."""
    return _frattini_report(mu, budget)


# a plain function keeps ``frattini`` a function that tracers can wrap
@lru_cache(maxsize=64)
def _frattini_report(mu: LSubset, budget: int) -> FrattiniReport:
    coatoms = _coatom_index(mu, budget)
    maximals = [cut for cut in coatoms if not cut[1].is_constant()]
    phi, nongen = _meet_of_cuts(mu, maximals), non_generator_subgroup(mu, budget=budget)
    obstructed = len(maximals) < len(coatoms)
    return FrattiniReport(phi, len(maximals), not maximals, nongen, nongen == phi, obstructed)


def is_non_generator(
    point: LPoint, mu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[bool, LSubset | None]:
    """Decide whether the point can always be dropped from generating families.

    A false answer returns the witness eta with <eta, a_x> = mu yet
    <eta> != mu: the coatom of L(mu) of highest rank whose code misses the
    point's, first in canonical order on ties (``maximal._highest_coatom``).
    A coatom missing a_x generates mu with it, and any witness lies under
    such a coatom, so this is also the first witness of a largest-first
    scan of L(mu), containment-maximal among all witnesses.
    """
    if not point_in(point, mu):
        raise LPointNotInParentError(f"{point} is not a point of the parent")
    mask = _point_code(mu.lattice, mu.group.index(point.point), mu.lattice.index(point.height))
    witness = _highest_coatom(mu, budget, lambda p: mask & ~p)
    return witness is None, witness


def non_generator_points(
    mu: LSubset, budget: int = DEFAULT_BUDGET
) -> frozenset[LPoint]:
    """All non-generator points a_x of mu, over every x and every a ≤ mu(x).

    A point is a non-generator exactly when it lies in every coatom of
    L(mu): a_x qualifies when a ≤ lambda(x), for lambda the meet of the
    coatoms (mu itself when there are none), one AND of their codes, read
    from the lattice's down rows.
    """
    lat, lam = mu.lattice, _meet_of_cuts(mu, _coatom_index(mu, budget))
    values = zip(mu.group.elements, lam.value_indices())
    return frozenset(LPoint(x, lat.elements[a]) for x, v in values for a in _indices(lat._down[v]))


def non_generator_subgroup(mu: LSubset, budget: int = DEFAULT_BUDGET) -> LSubset:
    """Join of all non-generator points, a member of L(mu).

    The points are folded by group and lattice index into one byte per
    element, joined through the lattice's join table.
    """
    group, lat = mu.group, mu.lattice
    at, height, join = group._index, lat._index, lat._join
    tops = bytearray([height[lat.bottom]]) * len(group)
    # the meet of the coatoms, expanded into points and joined back up, since
    # bench/tests/test_bench.py::test_traced_counts_repeat_exactly counts this call
    for x, a in non_generator_points(mu, budget=budget):
        i = at[x]
        tops[i] = join[tops[i]][height[a]]
    return LSubset(group, lat, bytes(tops))


def check_nongenerator_inclusion(mu: LSubset, budget: int = DEFAULT_BUDGET) -> dict:
    """Compare the non-generator subgroup with the Frattini L-subgroup.

    Returns the inclusion, the equality and the obstruction flag; the
    harness property ``nongenerators_inside_frattini`` states when the
    first two hold.
    """
    report = frattini(mu, budget=budget)
    return {
        "inclusion": contains(report.phi, report.nongen),
        "equality": report.equality_holds,
        "constant_obstructed": report.constant_obstructed,
    }


def frattini_level_compare(mu: LSubset, b: str, budget: int = DEFAULT_BUDGET) -> dict:
    """Compare the classical Frattini subgroup of a level with the level of phi.

    ``forward_inclusion`` asks whether the classical Frattini subgroup of
    the level subset mu_b sits inside the level of the Frattini L-subgroup;
    ``reverse_inclusion`` reports the converse, which can fail.  Requires a
    chain lattice.  The forward inclusion is only guaranteed for attained
    levels of a parent whose Frattini L-subgroup keeps the tip, so both of
    those facts are reported (``level_attained``, ``tip_condition_holds``)
    rather than enforced.
    """
    if not mu.lattice.is_upper_well_ordered():
        raise HypothesisNotMetError("level comparison is stated over chain lattices")
    level_mu = mu.level(b)
    phi = frattini(mu, budget).phi
    classical = frattini_classical(mu.group, level_mu) if level_mu else frozenset()
    level_phi = phi.level(b)
    return {
        "forward_inclusion": classical <= level_phi,
        "reverse_inclusion": level_phi <= classical,
        "tip_condition_holds": phi.value(mu.group.identity) == mu.value(mu.group.identity),
        "level_attained": b in mu.image(),
        "classical": classical,
        "phi_level": level_phi,
    }


def nongenerators_conjugation_closed(
    mu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[bool, dict | None]:
    """Check that conjugation permutes the non-generator points.

    The points below lambda, the non-generator subgroup of the ``frattini``
    report, are read as one mask of heights per element: the lattice's
    down-set row of its value.  Requires mu normal in the ambient group.
    Returns (True, None) or the first counterexample, naming the point and
    conjugator: points in group order and then lattice order, conjugators
    in group order, each conjugate read off the table by index.  No
    counterexample is ever expected.
    """
    if not is_normal_in_group(mu):
        raise NotNormalInGroupError("conjugation closure needs mu normal in the group")
    group, lat = mu.group, mu.lattice
    held = [lat._down[v] for v in frattini(mu, budget).nongen.value_indices()]
    table, inv, names = group._table, group._inv, group.elements
    for x, heights in enumerate(held):
        conjugates = [table[row[x]][inv[g]] for g, row in enumerate(table)]
        missing = heights & ~reduce(int.__and__, map(held.__getitem__, conjugates))
        if missing:
            low = missing & -missing
            g, y = next((g, y) for g, y in enumerate(conjugates) if not held[y] & low)
            a = lat.elements[low.bit_length() - 1]
            point, image = LPoint(names[x], a), LPoint(names[y], a)
            return False, {"point": point, "conjugator": names[g], "moved": image}
    return True, None


def frattini_is_normal(mu: LSubset, budget: int = DEFAULT_BUDGET) -> bool:
    """Over a chain lattice, return whether phi of a normal mu is normal in mu."""
    if not mu.lattice.is_upper_well_ordered():
        raise HypothesisNotMetError("normality of phi is stated over chain lattices")
    if not is_normal_in_group(mu):
        raise NotNormalInGroupError("normality of phi needs mu normal in the group")
    return is_normal_in(frattini(mu, budget).phi, mu)


def frattini_image_inclusion(f: GroupHom, mu: LSubset, budget: int = DEFAULT_BUDGET) -> bool:
    """Return whether f(phi(mu)) sits inside phi(f(mu)) for an isomorphism f."""
    if not f.bijective:
        raise NotAnIsomorphismError("the image comparison requires an isomorphism")
    phi_source = frattini(mu, budget).phi
    phi_target = frattini(pushforward(f, mu), budget).phi
    return contains(phi_target, pushforward(f, phi_source))


def maximal_avoiding(
    mu: LSubset, theta: LSubset, point: LPoint, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, ...]:
    """Largest members of L(mu) containing theta and missing the point, in canonical order.

    Such a member nu has x outside nu_j for some join-irreducible j ≤ a,
    and nu_j inside some K maximal among the subgroups (or ∅) of mu_j that
    hold theta_j and miss x, so nu lies under the level cut theta^{j,K}.
    A cut at j lies strictly under one at any j' with j < j' ≤ a, and the
    cuts at the j maximal under a are incomparable: they are the answer,
    with no filter.  The budget counts n + n² units for the n cuts built.
    Never empty when theta ∈ L(mu); empty when theta is not below mu or the
    point lies in the L-subgroup theta generates.
    """
    if not point_in(point, mu):
        raise LPointNotInParentError(f"{point} is not a point of the parent")
    if point_in(point, theta):
        raise LPointNotInParentError(f"{point} already lies inside theta")
    x, a = mu.group.index(point.point), mu.lattice.index(point.height)
    below, leq = contains(mu, theta), mu.lattice._leq
    seeds = dict(zip(*_level_masks(theta)))

    def pick(j: int, level: int, above: int) -> tuple[int, list[int]]:
        if not (below and leq[j][a]) or any(i != j and leq[j][i] and leq[i][a] for i in seeds):
            return 0, []
        # largest first; ∅ comes last and qualifies only when no subgroup
        # does (x = e and theta_j empty)
        fits = (*reversed(_subgroups_within(mu.group, level)), 0)
        tops = _maximal_masks(fits, lambda h: not seeds[j] & ~h and not h >> x & 1)
        return len(tops), tops

    return tuple(c for _, c in _level_cuts(mu, budget, pick))
