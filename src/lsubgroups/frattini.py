"""Frattini L-subgroups and non-generator lattice points.

The Frattini L-subgroup of mu is the pointwise meet of all maximal
L-subgroups of mu, falling back to mu itself when there are none.  A point
a_x of mu is a non-generator when it can be dropped from any generating
family: whenever adjoining a_x to some L-subset of mu generates mu, that
L-subset already generates mu on its own.  Over every finite distributive
lattice the join of all non-generator points is the Frattini L-subgroup
unless some coatom of L(mu) is constant; the report carries both sides.

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

``frattini`` keeps no cache: each call builds its report from the one
coatom cache, ``maximal._coatom_index``.  Both meets are one AND over the
coatoms' codes (``maximal._meet_of_codes``): phi over the non-constant
ones (``_phi``), the non-generator subgroup over all.  A point a_x meets
the coatoms as one mask test each, against the code ``maximal._point_code``
gives its level map: {x} at each join-irreducible j ≤ a.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import DEFAULT_BUDGET, HypothesisNotMetError, LPointNotInParentError
from .groups import _frattini_mask, _indices, _maximal_masks, _names, _subgroups_within
from .lsets import LPoint, LSubset, _level_at, _level_masks, contains, point_in
from .maximal import _coatom_index, _highest, _level_cuts, _meet_of_codes, _point_code


class FrattiniReport(NamedTuple):
    """Frattini L-subgroup alongside the non-generator subgroup.

    ``used_fallback`` records the no-maximal-subgroups case, in which phi is
    mu itself.  Both sides come from the level cuts of mu (see the module
    docstring): ``nongen`` is the join of all non-generator points, which is
    the meet of all coatoms of L(mu); phi is the meet of the non-constant
    ones (``maximal_count`` of them), so it always contains ``nongen``.
    Each meet is one AND of the coatoms' codes.  Over every finite distributive
    lattice the two coincide unless some coatom is constant
    (``constant_obstructed``); ``nongenerators_inside_frattini`` checks both.
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


def _phi(mu: LSubset, budget: int) -> tuple[LSubset, int, int]:
    """Phi, the AND of the non-constant coatoms' codes (mu if none), and the two coatom counts."""
    coatoms = _coatom_index(mu, budget)
    maximals = [p for p, c in coatoms if not c.is_constant()]
    return _meet_of_codes(mu, maximals), len(maximals), len(coatoms)


def frattini(mu: LSubset, budget: int = DEFAULT_BUDGET) -> FrattiniReport:
    """The Frattini L-subgroup of mu and its non-generator subgroup, built afresh on each call."""
    phi, maximals, coatoms = _phi(mu, budget)
    nongen = non_generator_subgroup(mu, budget=budget)
    return FrattiniReport(phi, maximals, not maximals, nongen, nongen == phi, maximals < coatoms)


def is_non_generator(
    point: LPoint, mu: LSubset, budget: int = DEFAULT_BUDGET
) -> tuple[bool, LSubset | None]:
    """Decide whether the point can always be dropped from generating families.

    A false answer returns the witness eta with <eta, a_x> = mu yet
    <eta> != mu: the coatom of L(mu) of highest rank whose code misses the
    point's, first in canonical order on ties (``maximal._highest``).
    A coatom missing a_x generates mu with it, and any witness lies under
    such a coatom, so this is also the first witness of a largest-first
    scan of L(mu), containment-maximal among all witnesses.
    """
    if not point_in(point, mu):
        raise LPointNotInParentError(f"{point} is not a point of the parent")
    mask = _point_code(mu.lattice, mu.group.index(point.point), mu.lattice.index(point.height))
    witness = _highest([cut for cut in _coatom_index(mu, budget) if mask & ~cut[0]])
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
    lat, lam = mu.lattice, _meet_of_codes(mu, [cut[0] for cut in _coatom_index(mu, budget)])
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


def frattini_level_compare(mu: LSubset, b: str, budget: int = DEFAULT_BUDGET) -> dict:
    """Compare the classical Frattini subgroup of a level with the level of phi.

    ``forward_inclusion`` asks whether the classical Frattini subgroup of
    the level subset mu_b sits inside the level of the Frattini L-subgroup;
    ``reverse_inclusion`` reports the converse, which can fail.  Requires the
    paper's upper well-ordered lattice, which a finite lattice is exactly when
    it is a chain; no other Frattini statement here does: off chains, F20 and
    S4 break the forward inclusion (the README's scope list gives them).
    It is only guaranteed for attained levels of a parent whose Frattini
    L-subgroup keeps the tip, so both of those facts are reported
    (``level_attained``, ``tip_condition_holds``) rather than enforced.
    Phi is read alone (``_phi``), refused past the budget as in ``frattini``.
    Both levels at b are bitmasks (``lsets._level_at``); mu's, a subgroup once
    the coatoms accept mu, meets its maximal subgroups in ``_frattini_mask``.
    """
    if not mu.lattice.is_chain():
        raise HypothesisNotMetError("level comparison is stated over chain lattices")
    group, a = mu.group, mu.lattice.index(b)
    phi, e = _phi(mu, budget)[0], group.identity_index
    level_mu, level_phi = _level_at(mu, a), _level_at(phi, a)
    classical = _frattini_mask(group, level_mu) if level_mu else 0
    return {
        "forward_inclusion": not classical & ~level_phi,
        "reverse_inclusion": not level_phi & ~classical,
        "tip_condition_holds": phi.value_indices()[e] == mu.value_indices()[e],
        "level_attained": a in mu.value_indices(),
        "classical": _names(group, classical),
        "phi_level": _names(group, level_phi),
    }


def maximal_avoiding(
    mu: LSubset, theta: LSubset, point: LPoint, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, ...]:
    """Largest members of L(mu) containing theta and missing the point, in canonical order.

    Such a member nu has x outside nu_j for some join-irreducible j ≤ a,
    and nu_j inside some K maximal among the subgroups (or ∅) of mu_j that
    hold theta_j and miss x, so nu lies under the level cut theta^{j,K}.
    A cut at j lies strictly under one at any j' with j < j' ≤ a, and the
    cuts at the j maximal under a are incomparable: they are the answer,
    with no filter.  The budget is the largest answer it may build.
    Never empty when theta ∈ L(mu); empty when theta is not below mu or the
    point lies in the L-subgroup theta generates.  Mismatched carriers
    raise MismatchedCarriersError before any other check.
    """
    below, leq = contains(mu, theta), mu.lattice._leq
    if not point_in(point, mu):
        raise LPointNotInParentError(f"{point} is not a point of the parent")
    if point_in(point, theta):
        raise LPointNotInParentError(f"{point} already lies inside theta")
    x, a = mu.group.index(point.point), mu.lattice.index(point.height)
    seeds = dict(zip(*_level_masks(theta)))

    def pick(j: int, level: int, above: int) -> list[int]:
        if not (below and leq[j][a]) or any(i != j and leq[j][i] and leq[i][a] for i in seeds):
            return []
        # largest first; ∅ comes last and qualifies only when no subgroup
        # does (x = e and theta_j empty)
        fits = (*reversed(_subgroups_within(mu.group, level)), 0)
        return _maximal_masks(fits, lambda h: not seeds[j] & ~h and not h >> x & 1)

    return tuple(c for _, c in _level_cuts(mu, budget, pick))
