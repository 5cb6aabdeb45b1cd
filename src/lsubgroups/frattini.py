"""Frattini L-subgroups and non-generator lattice points.

The Frattini L-subgroup of mu is the pointwise meet of all maximal
L-subgroups of mu, falling back to mu itself when there are none.  A point
a_x of mu is a non-generator when it can be dropped from any generating
family: whenever adjoining a_x to some L-subset of mu generates mu, that
L-subset already generates mu on its own.  Over chain lattices the join of
all non-generator points coincides with the Frattini L-subgroup, and the
report produced here carries both sides of that comparison.

Both constructions come from one pass over L(mu) that finds its coatoms:
the members other than mu with nothing strictly between them and mu.  The
maximal L-subgroups are the non-constant coatoms.  Generation is monotone
and every member of L(mu) other than mu lies below some coatom, so a_x is a
non-generator exactly when it lies in every coatom, and the non-generator
subgroup is the meet of all coatoms.  It is enough to quantify over L(mu)
rather than over all L-subsets of mu: adjoining a point to eta and to the
subgroup generated by eta produce the same generated subgroup.  The
point-by-point search of ``is_non_generator`` is kept as the reference; the
test suite checks the coatom form against it, and the reduction to L(mu)
against the raw definition on tiny instances.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    HypothesisNotMetError,
    LPointNotInParentError,
    NotNormalInGroupError,
    NotAnIsomorphismError,
)
from .groups import GroupHom, frattini_classical
from .lsets import (
    LPoint,
    LSubset,
    adjoin_point,
    contains,
    generate,
    intersection_of,
    is_l_subgroup_of,
    is_normal_in,
    is_normal_in_group,
    point_in,
    pushforward,
)
from .maximal import (
    DEFAULT_BUDGET,
    _by_rank,
    _coatoms,
    enumerate_l_subgroups,
    maximal_l_subgroups,
)


@dataclass(frozen=True)
class FrattiniReport:
    """Frattini L-subgroup alongside the non-generator subgroup.

    ``used_fallback`` records the no-maximal-subgroups case, in which phi is
    mu itself.  ``nongen`` is the join of all non-generator points, which is
    the meet of all coatoms of L(mu); phi is the meet of the non-constant
    ones, so it always contains ``nongen``.  Over a finite chain the two
    coincide unless some coatom is constant (see ``constant_obstructed``),
    and that is asserted.
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
    """True when some coatom of L(mu) is constant.

    Such a constant has nothing strictly between it and mu, yet it is not a
    maximal L-subgroup, so it enters the meet that gives the non-generator
    subgroup but not the one that gives phi: adjoining a missing point to it
    generates mu while the constant itself does not.  On instances free of
    this obstruction the two constructions coincide over chain lattices; on
    obstructed ones the non-generator subgroup can be strictly smaller,
    starting with mu the characteristic function of the trivial subgroup.
    """
    return any(c.is_constant() for c in _coatoms(mu, budget))


def frattini(mu: LSubset, budget: int = DEFAULT_BUDGET) -> FrattiniReport:
    """Compute the Frattini L-subgroup of mu and its non-generator subgroup."""
    maximals = maximal_l_subgroups(mu, budget=budget)
    phi = _meet(maximals, mu)
    nongen = non_generator_subgroup(mu, budget=budget)
    assert contains(phi, nongen), "non-generator points must lie inside the Frattini L-subgroup"
    equality = nongen == phi
    obstructed = constant_obstructed(mu, budget=budget)
    if mu.lattice.is_upper_well_ordered() and not obstructed:
        assert equality, "over a finite chain the two constructions must coincide"
    return FrattiniReport(phi, len(maximals), not maximals, nongen, equality, obstructed)


def is_non_generator(
    point: LPoint, mu: LSubset, budget: int = DEFAULT_BUDGET, method: str = "search"
) -> tuple[bool, LSubset | None]:
    """Decide whether the point can always be dropped from generating families.

    The default ``search`` method scans L(mu) largest-first; a false answer
    returns the witness eta with <eta, a_x> = mu yet <eta> != mu, and the
    scan order makes that witness containment-maximal among all witnesses.
    The ``chain`` method uses membership in the Frattini L-subgroup
    instead, which is only valid over chain lattices; it exists as a faster
    route and is cross-checked against the search in tests.
    """
    if method not in ("search", "chain"):
        raise ValueError(f"unknown method {method!r}")
    if method == "chain" and not mu.lattice.is_upper_well_ordered():
        raise HypothesisNotMetError("the chain shortcut needs a chain lattice")
    if not point_in(point, mu):
        raise LPointNotInParentError(f"{point} is not a point of the parent")
    if point.height == mu.lattice.bottom:
        return True, None  # adjoining a bottom point changes nothing
    if method == "chain":
        return point_in(point, _phi_only(mu, budget)), None
    for eta in _by_rank(mu, budget):
        if eta == mu:
            continue
        if generate(adjoin_point(eta, point)) == mu:
            return False, eta
    return True, None


def non_generator_points(
    mu: LSubset, budget: int = DEFAULT_BUDGET
) -> frozenset[LPoint]:
    """All non-generator points a_x of mu, over every x and every a ≤ mu(x).

    A point is a non-generator exactly when it lies in every coatom of
    L(mu): a_x qualifies when a ≤ lambda(x), for lambda the meet of the
    coatoms (mu itself when there are none).
    """
    lam = _meet(_coatoms(mu, budget), mu)
    return frozenset(
        LPoint(x, a) for x in mu.group.elements for a in mu.lattice.down_set(lam.value(x))
    )


def non_generator_subgroup(mu: LSubset, budget: int = DEFAULT_BUDGET) -> LSubset:
    """Join of all non-generator points; checked to be an L-subgroup of mu."""
    lat = mu.lattice
    points = non_generator_points(mu, budget=budget)
    heights: dict[str, list[str]] = {x: [] for x in mu.group.elements}
    for p in points:
        heights[p.point].append(p.height)
    vals = tuple(lat.index(lat.join_set(heights[x])) for x in mu.group.elements)
    result = LSubset(mu.group, lat, vals)
    assert is_l_subgroup_of(result, mu), "non-generator points must form an L-subgroup of mu"
    return result


def _meet(family: tuple[LSubset, ...], mu: LSubset) -> LSubset:
    return intersection_of(family) if family else mu


def _phi_only(mu: LSubset, budget: int) -> LSubset:
    return _meet(maximal_l_subgroups(mu, budget=budget), mu)


def check_nongenerator_inclusion(mu: LSubset, budget: int = DEFAULT_BUDGET) -> dict:
    """Compare the non-generator subgroup with the Frattini L-subgroup.

    Inclusion of the non-generator subgroup is expected unconditionally;
    over a chain lattice equality is asserted unless the instance is
    constant-obstructed, and the obstruction flag is part of the result.
    """
    report = frattini(mu, budget=budget)
    inclusion = contains(report.phi, report.nongen)
    if mu.lattice.is_upper_well_ordered() and not report.constant_obstructed:
        assert report.equality_holds
    return {
        "inclusion": inclusion,
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
    phi = _phi_only(mu, budget)
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
    mu: LSubset,
    budget: int = DEFAULT_BUDGET,
    _points: frozenset[LPoint] | None = None,
) -> tuple[bool, dict | None]:
    """Check that conjugation permutes the non-generator points.

    Requires mu normal in the ambient group.  Returns (True, None) or a
    counterexample naming the point and conjugator; no counterexample is
    ever expected.
    """
    if not is_normal_in_group(mu):
        raise NotNormalInGroupError("conjugation closure needs mu normal in the group")
    points = _points if _points is not None else non_generator_points(mu, budget=budget)
    group = mu.group
    for p in points:
        for g in group.elements:
            moved = LPoint(group.conjugate(g, p.point), p.height)
            if moved not in points:
                return False, {"point": p, "conjugator": g, "moved": moved}
    return True, None


def frattini_is_normal(mu: LSubset, budget: int = DEFAULT_BUDGET) -> bool:
    """Over a chain lattice, phi of a normal mu is normal in mu (asserted)."""
    if not mu.lattice.is_upper_well_ordered():
        raise HypothesisNotMetError("normality of phi is stated over chain lattices")
    if not is_normal_in_group(mu):
        raise NotNormalInGroupError("normality of phi needs mu normal in the group")
    phi = _phi_only(mu, budget)
    result = is_normal_in(phi, mu)
    assert result, "the Frattini L-subgroup of a normal parent must be normal in it"
    return result


def frattini_image_inclusion(f: GroupHom, mu: LSubset, budget: int = DEFAULT_BUDGET) -> bool:
    """f(phi(mu)) sits inside phi(f(mu)) for an isomorphism f (asserted)."""
    if not f.bijective:
        raise NotAnIsomorphismError("the image comparison requires an isomorphism")
    phi_source = _phi_only(mu, budget)
    image_mu = pushforward(f, mu)
    phi_target = _phi_only(image_mu, budget)
    result = contains(phi_target, pushforward(f, phi_source))
    assert result, "the image of phi must land inside phi of the image"
    return result


def maximal_avoiding(
    mu: LSubset, theta: LSubset, point: LPoint, budget: int = DEFAULT_BUDGET
) -> tuple[LSubset, ...]:
    """Largest members of L(mu) containing theta and missing the point.

    Finite exhaustion over the enumeration of L(mu); existence is
    guaranteed because theta itself qualifies, and the result is asserted
    non-empty.
    """
    if not point_in(point, mu):
        raise LPointNotInParentError(f"{point} is not a point of the parent")
    if point_in(point, theta):
        raise LPointNotInParentError(f"{point} already lies inside theta")
    candidates = [
        nu
        for nu in enumerate_l_subgroups(mu, budget=budget)
        if contains(nu, theta) and not point_in(point, nu)
    ]
    tops = tuple(
        nu
        for nu in candidates
        if not any(other != nu and contains(other, nu) for other in candidates)
    )
    assert tops, "theta itself satisfies the constraints, so a maximal member exists"
    return tops
