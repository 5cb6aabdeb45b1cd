"""Maximal L-subgroups: strategies, profiles, transport, enumeration."""
import gc
import random
import tracemalloc
from functools import reduce
from itertools import product as cartesian
from operator import and_

import pytest

import lsubgroups.groups as groups_module
import lsubgroups.maximal as maximal_module
from lsubgroups import lsets
from lsubgroups import (
    DEFAULT_BUDGET,
    InstanceSpec,
    InstanceTooLargeError,
    LPoint,
    LSubset,
    LevelRelation,
    MaximalityVerdict,
    NonDistributiveLatticeError,
    NotAnIsomorphismError,
    NotAnLSubgroupError,
    NotMaximalError,
    TipRelation,
    adjoin_point,
    build_instance,
    builtin_group,
    candidate_space_size,
    chain_lattice,
    constant,
    constant_obstructed,
    contains,
    enumerate_l_subgroups,
    frattini,
    generate,
    generate_oracle,
    identity_hom,
    inner_automorphism,
    is_l_subgroup_of,
    is_maximal,
    is_non_generator,
    is_proper_l_subgroup,
    l_subset,
    level_profile,
    make_lattice,
    maximal_avoiding,
    maximal_l_subgroups,
    non_generator_points,
    point_in,
    search_converse_counterexample,
    sufficient_maximal_check,
    tip_relation,
    transport_maximal,
    transport_maximal_preimage,
    validate_hom,
    validate_lattice,
)
from lsubgroups.lsets import _level_masks
from lsubgroups.groups import _indices, _lower_covers, _subgroup_table
from lsubgroups.maximal import _code, _coatom_index, _highest_coatom, _lpoint_verdict, _point_code, _point_fails

from conftest import dihedral, elementary_abelian
from element_walk import search_l_subgroup_values


def brute_force_l_subgroups(mu):
    """Oracle: walk the whole value-tuple product and filter by definition."""
    group, lat = mu.group, mu.lattice
    domains = [lat.down_set(mu.value(x)) for x in group.elements]
    found = []
    for values in cartesian(*domains):
        table = dict(zip(group.elements, values))
        ok = all(
            lat.leq(lat.meet(table[x], table[y]), table[group.op(x, y)])
            for x in group.elements
            for y in group.elements
        ) and all(table[group.inverse(x)] == table[x] for x in group.elements)
        if ok:
            found.append(
                LSubset(group, lat, tuple(lat.index(table[x]) for x in group.elements))
            )
    return found


def lpoint_verdict_by_generate(eta, mu):
    """Oracle for the point test: generate eta ∪ a_x for each missing point a_x.

    Points run in group order, then lattice order, as in ``_lpoint_verdict``.
    """
    if not is_proper_l_subgroup(eta, mu):
        return MaximalityVerdict(False, "not_proper")
    lat = mu.lattice
    for x in mu.group.elements:
        for a in lat.elements:
            if lat.leq(a, mu.value(x)) and not lat.leq(a, eta.value(x)):
                point = LPoint(x, a)
                if generate(adjoin_point(eta, point)) != mu:
                    return MaximalityVerdict(False, "point_fails_to_generate", witness_point=point)
    return MaximalityVerdict(True)


def brute_force_maximals(mu):
    pool = brute_force_l_subgroups(mu)
    proper = [s for s in pool if not s.is_constant() and s != mu]
    result = []
    for eta in proper:
        blocked = any(
            theta != eta and theta != mu and contains(theta, eta) and contains(mu, theta)
            for theta in pool
        )
        if not blocked:
            result.append(eta)
    return sorted(result, key=lambda s: s.value_indices())


class TestEnumeration:
    def test_candidate_space_sizes(self, d8_case, q8_maximal_case):
        assert candidate_space_size(d8_case["mu"]) == 2880
        assert candidate_space_size(q8_maximal_case["mu"]) == 3600

    def test_matches_brute_force(self, d8_case, q8_maximal_case, q8_converse_case):
        for mu in [d8_case["mu"], q8_maximal_case["mu"], q8_converse_case["mu"]]:
            assert list(enumerate_l_subgroups(mu)) == sorted(
                brute_force_l_subgroups(mu), key=lambda s: s.value_indices()
            )

    def test_trivial_group_has_two_members_over_two_chain(self):
        g = builtin_group("C1")
        mu = constant(g, chain_lattice(["0", "1"]), "1")
        assert len(enumerate_l_subgroups(mu)) == 2

    def test_budget_guard(self, d8_case):
        with pytest.raises(InstanceTooLargeError):
            enumerate_l_subgroups(d8_case["mu"], budget=100)

    def test_budget_error_names_the_enumeration_and_its_progress(self, d8_case):
        # the walk over the d8 parent visits 204 partial level maps
        with pytest.raises(InstanceTooLargeError, match=r"enumeration of L\(mu\) .* after \d+ members"):
            enumerate_l_subgroups(d8_case["mu"], budget=203)
        assert len(enumerate_l_subgroups(d8_case["mu"], budget=204)) == 94

    def test_budget_counts_work_not_the_raw_space(self):
        # 4^12 raw candidates, yet the walk lists every member after
        # visiting 98 partial level maps
        mu = constant(builtin_group("C12"), chain_lattice(["0", "a", "b", "1"]), "1")
        assert candidate_space_size(mu) == 16_777_216 > DEFAULT_BUDGET
        assert len(enumerate_l_subgroups(mu)) == 65

    def test_listing_is_freed_with_its_caller(self):
        # each call returns a fresh tuple that nothing else keeps: once the
        # caller drops it, none of its members outlives the next collection
        g = elementary_abelian(4)
        mu = constant(g, chain_lattice(["0", "a", "b", "1"]), "1")
        members = enumerate_l_subgroups(mu)
        assert len(members) == 2550
        del members
        gc.collect()
        left = [o for o in gc.get_objects() if isinstance(o, LSubset) and o.group is g and o is not mu]
        assert left == []

    def test_non_distributive_refused(self):
        pentagon = validate_lattice(
            ["0", "x", "z", "y", "1"],
            [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")],
        )
        mu = constant(builtin_group("C2"), pentagon, "1")
        with pytest.raises(NonDistributiveLatticeError, match="require a distributive lattice"):
            enumerate_l_subgroups(mu)
        with pytest.raises(NonDistributiveLatticeError, match="require a distributive lattice"):
            maximal_l_subgroups(mu)


class TestLevelMapsMatchTheElementSearch:
    """The level-map enumeration against the element-wise search, which
    stays as its reference, on seeded parents over chains, products and
    divisor lattices, on parents that are not L-subgroups, and on the
    trivial group."""

    @staticmethod
    def by_search(mu):
        found = search_l_subgroup_values(mu.group, mu.lattice, lower=None, upper=mu.value_indices())
        return sorted(
            (LSubset(mu.group, mu.lattice, vals) for vals in found), key=lambda s: s.value_indices()
        )

    @pytest.mark.parametrize(
        "spec",
        [InstanceSpec(0)]
        + [
            InstanceSpec(1, lattice_kind=kind)
            for kind in ("product2x2", "product2x3", "divisors12", "divisors30", "chain1", "chain2")
        ]
        # more than 8 join-irreducibles: a member's code needs more than one byte per element
        + [InstanceSpec(1, lattice_kind=kind) for kind in ("chain10", "chain12", "chain16")],
        ids=["chains", "product2x2", "product2x3", "divisors12", "divisors30", "chain1", "chain2",
             "chain10", "chain12", "chain16"],
    )
    def test_seeded_parents(self, spec):
        for trial in range(120):
            mu = build_instance(spec, trial).mu
            assert list(enumerate_l_subgroups(mu)) == self.by_search(mu)

    def test_parents_that_are_not_l_subgroups(self):
        for trial in range(120):
            for raw in build_instance(InstanceSpec(2), trial).raws:
                assert list(enumerate_l_subgroups(raw)) == self.by_search(raw)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_constant_top_over_the_trivial_group(self, length):
        lat = make_lattice(f"chain{length}")
        mu = constant(builtin_group("C1"), lat, lat.top)
        assert list(enumerate_l_subgroups(mu)) == self.by_search(mu)
        assert len(enumerate_l_subgroups(mu)) == length


def enumeration_by_recursive_walk(mu, budget):
    """Reference for the memoised walk: the depth-first walk over level maps
    that visits every partial level map in a call of its own and builds each
    member by joining, at each x, the join-irreducibles whose level holds x.
    Returns the members in canonical order and the number of partial level
    maps visited; refuses as ``enumerate_l_subgroups`` must."""
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    leq, join, bottom = lat._leq, lat._join, lat.index(lat.bottom)
    earlier = [[p for p in range(k) if leq[irreducibles[p]][j]] for k, j in enumerate(irreducibles)]
    subgroups = [(0, ())] + [(h, _indices(h)) for h in _subgroup_table(group)]
    found = []
    visited = 0

    def walk(k, acc, chosen):
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
        for h, xs in subgroups:
            if not h & ~bound:
                nxt = list(acc)
                for x in xs:
                    nxt[x] = join[nxt[x]][j]
                walk(k + 1, nxt, chosen + (h,))

    walk(0, [bottom] * len(group), ())
    return sorted(found, key=lambda s: s.value_indices()), visited


def refusal(call):
    with pytest.raises(InstanceTooLargeError) as caught:
        call()
    error = caught.value
    return type(error), str(error), error.args, error.size, error.budget


class TestMemoisedWalkMatchesTheRecursiveWalk:
    """The memoised walk against the recursive walk it replaced, which stays
    as its reference: the same members in the same order, and the same
    refusal (type, message, args) at budgets that run out at the first
    visits, inside the walk and at its last visit, on seeded parents over
    six lattice kinds and a chain of 12, on parents that are not
    L-subgroups and on the trivial group."""

    @staticmethod
    def check(mu):
        members, visits = enumeration_by_recursive_walk(mu, DEFAULT_BUDGET)
        assert enumerate_l_subgroups(mu, budget=visits) == tuple(members)
        for budget in {1, 2, visits // 3, visits // 2, 2 * visits // 3, visits - 1}:
            if 0 < budget < visits:
                expected = refusal(lambda: enumeration_by_recursive_walk(mu, budget))
                assert refusal(lambda: enumerate_l_subgroups(mu, budget=budget)) == expected
        return visits

    @pytest.mark.parametrize(
        "kind", ["chain2-6", "chain8", "chain12", "product2x3", "product3x3", "divisors12", "divisors30"]
    )
    def test_seeded_parents(self, kind):
        spec = InstanceSpec(7, lattice_kind=kind, group_kind="Q8|D8|C6|V4|C12|C8")
        visits = [self.check(build_instance(spec, trial).mu) for trial in range(20)]
        assert max(visits) > 100

    def test_parents_that_are_not_l_subgroups(self):
        for trial in range(40):
            for raw in build_instance(InstanceSpec(2), trial).raws:
                self.check(raw)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_trivial_group(self, length):
        lat = make_lattice(f"chain{length}")
        for value in lat.elements:
            self.check(constant(builtin_group("C1"), lat, value))
        mu = constant(builtin_group("C1"), lat, lat.top)
        assert refusal(lambda: enumerate_l_subgroups(mu, budget=0)) == refusal(
            lambda: enumeration_by_recursive_walk(mu, 0)
        )


class TestHopelessParent:
    """Constant-top C2^5 over divisors30: at each of the three atoms the level
    is one of the 374 subgroups or ∅, so |L(mu)| = 375³, about 5.3·10⁷.  A
    repeated subtree is charged its recorded visits, so the walk reaches the
    budget without building any member."""

    @staticmethod
    def parent():
        lat = make_lattice("divisors30")
        return constant(elementary_abelian(5), lat, lat.top)

    def test_refused_at_the_default_budget(self):
        # the root, 70 whole subtrees below the first atom of 1 + 375·376
        # visits each, one more node there, 345 whole subtrees of 1 + 375
        # visits, one node and 207 leaves make 10^7 visits and 9,973,332
        # members; the next visit is refused
        error = refusal(lambda: enumerate_l_subgroups(self.parent()))
        assert error[1] == (
            "enumeration of L(mu) exceeded its budget of 10000000 partial level maps after 9973332 members"
        )
        assert error[3:] == (DEFAULT_BUDGET + 1, DEFAULT_BUDGET)

    def test_refusal_matches_the_recursive_walk(self):
        mu = self.parent()
        expected = refusal(lambda: enumeration_by_recursive_walk(mu, 10**5))
        assert expected[1].endswith("after 99732 members")
        assert refusal(lambda: enumerate_l_subgroups(mu, budget=10**5)) == expected

    def test_refusal_builds_nothing(self):
        # the walk counts visits and members before it packs any member, so a
        # refused enumeration allocates under 0.1 MB; a walk that packed the
        # members as it went peaked at 6.3 MB here, and at 696 MB of RSS at
        # the default budget
        mu = self.parent()
        _subgroup_table(mu.group)  # the group's table is built once, outside the measure
        tracemalloc.start()
        try:
            with pytest.raises(InstanceTooLargeError):
                enumerate_l_subgroups(mu, budget=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestPointCodes:
    """A point's code, built in closed form, is the code of its level map."""

    @pytest.mark.parametrize(
        "kind",
        [*(f"chain{n}" for n in range(1, 17)), "product2x3", "product3x3", "divisors30", "divisors720"],
    )
    def test_matches_the_code_of_the_level_map(self, kind):
        # chain10 and longer have fields of more than one byte; a_x takes the
        # value a at x and the bottom, under no join-irreducible, elsewhere
        lat = make_lattice(kind)
        for x in range(8):
            for a in range(len(lat)):
                vals = bytearray([lat.index(lat.bottom)] * 8)
                vals[x] = a
                assert _point_code(lat, x, a) == _code(lat, bytes(vals))

    @pytest.mark.parametrize("kind", ["chain2-6", "chain16", "product2x3", "divisors30"])
    def test_member_code_holds_its_levels(self, kind):
        # field x of a member's code holds bit k exactly when its level at the
        # k-th join-irreducible holds x
        for seed in range(4):
            mu = build_instance(InstanceSpec(seed, lattice_kind=kind)).mu
            lat, n = mu.lattice, len(mu.group)
            width = maximal_module._birkhoff(lat)[0]
            for nu in enumerate_l_subgroups(mu)[:40]:
                code = _code(lat, nu.value_indices())
                for k, level in enumerate(_level_masks(nu)[1]):
                    assert level == sum(1 << x for x in range(n) if code >> width * x + k & 1)


class TestClosedFormCoatoms:
    """The coatoms of L(mu) come from level cuts, never from a walk of L(mu):
    their parent check, their budget unit and the parents they reach."""

    def test_parent_that_is_not_an_l_subgroup(self):
        # L(mu) is still enumerated (it holds only the constant 0); before the
        # closed form the coatom readers answered from it (no maximals, an
        # obstructing constant, the fallback phi), now they refuse the parent
        lat = chain_lattice(["0", "1"])
        c2 = builtin_group("C2")
        mu = l_subset(c2, lat, {"e": "0", "g": "1"})
        assert enumerate_l_subgroups(mu) == (constant(c2, lat, "0"),)
        for call in (maximal_l_subgroups, constant_obstructed, frattini, non_generator_points):
            with pytest.raises(NotAnLSubgroupError, match="require mu to be an L-subgroup"):
                call(mu)
        with pytest.raises(NotAnLSubgroupError):
            is_non_generator(LPoint("g", "1"), mu)

    def test_parent_levels_are_built_once(self, d8_case):
        # the parent check and the cuts read the same cached level masks
        maximal_module._coatom_index.cache_clear()
        lsets._level_masks.cache_clear()
        maximal_l_subgroups(d8_case["mu"])
        info = lsets._level_masks.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_every_coatom_reader_shares_one_build(self, d8_case):
        # the maximals, both maximality verdicts and the non-generator
        # witness read one coatom list per parent and budget
        mu, eta, phi = d8_case["mu"], d8_case["eta1"], d8_case["phi"]
        maximal_module._coatom_index.cache_clear()
        assert len(maximal_l_subgroups(mu)) == 4
        assert is_maximal(eta, mu).maximal
        assert is_maximal(phi, mu).reason == "strictly_between"
        points = (LPoint(x, a) for x in mu.group.elements for a in mu.lattice.elements)
        outside = next(p for p in points if point_in(p, mu) and not point_in(p, phi))
        assert is_non_generator(outside, mu)[1] is not None
        assert maximal_module._coatom_index.cache_info().misses == 1

    def test_budget_counts_cuts_and_the_pairs_among_them(self, d8_case):
        # mu's levels at the join-irreducibles a, b, c, 1 are D8, the Klein
        # subgroup, the centre and {e}, with 3 + 3 + 1 + 1 lower covers: 8
        # cuts and 64 ordered pairs, 72 units in all
        mu = d8_case["mu"]
        with pytest.raises(InstanceTooLargeError, match=r"need 72 units of work \(8 level cuts"):
            maximal_l_subgroups(mu, budget=71)
        assert len(maximal_l_subgroups(mu, budget=72)) == 4

    @pytest.mark.parametrize(
        "group, maximal_subgroups",
        [(elementary_abelian(5), 31), (dihedral(24), 6), (builtin_group("C12"), 2)],
        ids=["C2^5", "D24", "C12"],
    )
    def test_constant_top_over_divisors30(self, group, maximal_subgroups):
        # each of the 3 atoms of the divisor lattice of 30 cuts the whole
        # group down to one maximal subgroup; the raw space is 8^|G|
        lat = make_lattice("divisors30")
        top = constant(group, lat, lat.top)
        report = frattini(top, budget=10**5)
        assert report.maximal_count == 3 * maximal_subgroups
        assert not constant_obstructed(top)


def level_cuts_by_pair_filter(mu, pick):
    """Reference for the closed-form cut choices: every cut theta^{j,M} with
    M in ``pick(j, level)``, kept when no other cut lies over it, comparing
    every ordered pair of cuts as packed masks; in canonical order, each
    unpacked by joining the join-irreducibles whose level holds x.  A cut
    packs per element: element b's bit k, set when the level at the k-th
    join-irreducible holds b, sits at b * width + k, for a width of 8 bits
    per started byte of join-irreducibles."""
    group, lat = mu.group, mu.lattice
    irreducibles, levels = _level_masks(mu)
    width = 8 * (-(-len(irreducibles) // 8) or 1)
    cuts = []
    for j, level in zip(irreducibles, levels):
        if level:
            for m in pick(j, level):
                cut = [lv & m if lat._leq[j][i] else lv for i, lv in zip(irreducibles, levels)]
                cuts.append(sum(
                    1 << b * width + k for k, lv in enumerate(cut) for b in range(len(group)) if lv >> b & 1
                ))
    found = []
    for c in cuts:
        if any(c != d and not c & ~d for d in cuts):
            continue
        vals = {
            x: lat.join_set(lat.elements[i] for k, i in enumerate(irreducibles) if c >> b * width + k & 1)
            for b, x in enumerate(group.elements)
        }
        found.append((c, l_subset(group, lat, vals)))
    return sorted(found, key=lambda cut: cut[1].value_indices())


def avoiding_by_pair_filter(mu, theta, point):
    """Reference for ``maximal_avoiding``: the cuts at every join-irreducible
    j ≤ a by the subgroups (or ∅) of mu_j maximal among those that hold
    theta_j and miss x, then the pair filter."""
    if not contains(mu, theta):
        return ()
    x, a = mu.group.index(point.point), mu.lattice.index(point.height)
    seeds = dict(zip(*_level_masks(theta)))

    def pick(j, level):
        if not mu.lattice._leq[j][a]:
            return []
        fit = [h for h in (*_subgroup_table(mu.group), 0)
               if not seeds[j] & ~h and not h & ~level and not h >> x & 1]
        return [h for h in fit if not any(h != k and not h & ~k for k in fit)]

    return tuple(c for _, c in level_cuts_by_pair_filter(mu, pick))


SCALE_PARENTS = {
    "C2^5 over divisors30": (elementary_abelian, 5, "divisors30"),
    "D24 over divisors30": (dihedral, 24, "divisors30"),
    "C2^6 over chain16": (elementary_abelian, 6, "chain16"),
    "C2^6 over product4x4": (elementary_abelian, 6, "product4x4"),
}


class TestClosedFormCutsMatchThePairFilter:
    """The coatoms keep a lower-cover cut at j exactly when its cover holds
    mu's levels strictly above j, and ``maximal_avoiding`` cuts only at the
    join-irreducibles maximal under a; both against every candidate cut and
    the pairwise filter, on seeded parents and members of their L(mu), and
    on constant tops that no walk of L(mu) reaches."""

    @staticmethod
    def covers(mu):
        return lambda j, level: _lower_covers(mu.group, level) or (0,)

    @pytest.mark.parametrize(
        "kind", ["chain2-6", "chain8", "product2x3", "product3x3", "divisors12", "divisors30"]
    )
    def test_coatoms_on_seeded_parents(self, kind):
        spec = InstanceSpec(7, lattice_kind=kind, group_kind="Q8|D8|C6|V4|C12|C8")
        for trial in range(30):
            mu = build_instance(spec, trial).mu
            for parent in (mu, *enumerate_l_subgroups(mu)[::7]):
                expected = level_cuts_by_pair_filter(parent, self.covers(parent))
                assert list(_coatom_index(parent, DEFAULT_BUDGET)) == expected

    @pytest.mark.parametrize("name", sorted(SCALE_PARENTS))
    def test_coatoms_on_constant_tops(self, name):
        build, size, kind = SCALE_PARENTS[name]
        lat = make_lattice(kind)
        mu = constant(build(size), lat, lat.top)
        assert list(_coatom_index(mu, DEFAULT_BUDGET)) == level_cuts_by_pair_filter(mu, self.covers(mu))

    @pytest.mark.parametrize("kind", ["chain2-6", "product2x3", "product3x3", "divisors30"])
    def test_avoiding_on_seeded_parents(self, kind):
        spec = InstanceSpec(8, lattice_kind=kind)
        checked = 0
        for trial in range(30):
            mu = build_instance(spec, trial).mu
            group, lat = mu.group, mu.lattice
            members = enumerate_l_subgroups(mu)
            for theta in (constant(group, lat, lat.bottom), members[trial % len(members)]):
                for x in group.elements:
                    for a in lat.down_set(mu.value(x)):
                        point = LPoint(x, a)
                        if not point_in(point, theta):
                            assert maximal_avoiding(mu, theta, point) == avoiding_by_pair_filter(mu, theta, point)
                            checked += 1
        assert checked > 250

    def test_avoiding_on_the_constant_top_of_c2_5_over_divisors30(self):
        group, lat = elementary_abelian(5), make_lattice("divisors30")
        mu, theta = constant(group, lat, "30"), constant(group, lat, "1")
        for x in group.elements[1:3]:
            for a in ("30", "6", "5"):
                point = LPoint(x, a)
                tops = maximal_avoiding(mu, theta, point)
                assert tops == avoiding_by_pair_filter(mu, theta, point)
                assert len(tops) == {"30": 48, "6": 32, "5": 16}[a]


class TestWorkedMaximality:
    def test_q8_pair_is_maximal(self, q8_maximal_case):
        verdict = is_maximal(q8_maximal_case["eta"], q8_maximal_case["mu"])
        assert verdict.maximal

    def test_parent_in_itself_is_not(self, d8_case):
        verdict = is_maximal(d8_case["mu"], d8_case["mu"])
        assert not verdict.maximal
        assert verdict.reason == "not_proper"

    def test_converse_pair_is_not_maximal(self, q8_converse_case):
        verdict = is_maximal(q8_converse_case["eta"], q8_converse_case["mu"])
        assert not verdict.maximal
        assert verdict.witness_between == q8_converse_case["theta"]
        assert verdict.witness_point is not None

    def test_d8_maximals_are_exactly_the_four(self, d8_case):
        expected = sorted(
            [d8_case["eta1"], d8_case["eta2"], d8_case["eta3"], d8_case["eta4"]],
            key=lambda s: s.value_indices(),
        )
        assert list(maximal_l_subgroups(d8_case["mu"])) == expected

    def test_maximals_match_brute_force(self, d8_case, q8_maximal_case, q8_converse_case):
        for mu in [d8_case["mu"], q8_maximal_case["mu"], q8_converse_case["mu"]]:
            assert list(maximal_l_subgroups(mu)) == brute_force_maximals(mu)

    def test_trivial_group_has_no_maximals(self, five_chain):
        g = builtin_group("C1")
        mu = constant(g, five_chain, "1")
        assert maximal_l_subgroups(mu) == ()

    def test_q8_maximal_list_contains_the_displayed_member(self, q8_maximal_case):
        assert q8_maximal_case["eta"] in maximal_l_subgroups(q8_maximal_case["mu"])


class TestStrategyAgreement:
    @pytest.mark.parametrize("case", ["d8", "q8max", "q8conv"])
    def test_full_enumeration_agreement(self, case, d8_case, q8_maximal_case, q8_converse_case):
        mu = {"d8": d8_case["mu"], "q8max": q8_maximal_case["mu"], "q8conv": q8_converse_case["mu"]}[case]
        for nu in enumerate_l_subgroups(mu):
            verdict = is_maximal(nu, mu)
            if verdict.reason != "not_proper":
                assert verdict.maximal == _lpoint_verdict(nu, mu).maximal

    def test_removed_parameters_are_refused(self, d8_case):
        # no route choice, no proper-only filter, no oracle limits and no
        # search pool: each is refused rather than taken for another argument
        with pytest.raises(TypeError):
            is_maximal(d8_case["eta1"], d8_case["mu"], "definition")
        with pytest.raises(TypeError):
            enumerate_l_subgroups(d8_case["mu"], only_proper=True)
        with pytest.raises(TypeError):
            generate_oracle(d8_case["eta1"], max_group_order=4)
        with pytest.raises(TypeError):
            search_converse_counterexample(seeds=[0])


class TestTipRelation:
    def test_equal_tip(self, d8_case):
        assert tip_relation(d8_case["eta1"], d8_case["mu"]) is TipRelation.EQUAL

    def test_equal_tip_on_q8_pair(self, q8_maximal_case):
        assert tip_relation(q8_maximal_case["eta"], q8_maximal_case["mu"]) is TipRelation.EQUAL

    def test_covered_tip(self, d8_case):
        assert tip_relation(d8_case["eta4"], d8_case["mu"]) is TipRelation.PARENT_COVERS

    def test_rejects_non_maximal(self, d8_case):
        with pytest.raises(NotMaximalError):
            tip_relation(d8_case["phi"], d8_case["mu"])

    def test_preconditions_read_the_coatoms(self, d8_case, q8_maximal_case, monkeypatch):
        # maximality preconditions use the closed form, never the point
        # route's one generate call per missing point
        def refuse(*args, **kwargs):
            raise AssertionError("generate called")

        monkeypatch.setattr(maximal_module, "generate", refuse)
        assert tip_relation(d8_case["eta4"], d8_case["mu"]) is TipRelation.PARENT_COVERS
        assert tip_relation(q8_maximal_case["eta"], q8_maximal_case["mu"]) is TipRelation.EQUAL
        f = inner_automorphism(d8_case["group"], "r")
        assert transport_maximal(f, d8_case["eta1"], d8_case["mu"])[1].maximal
        assert transport_maximal_preimage(f, d8_case["eta2"], d8_case["mu"])[1].maximal
        g = identity_hom(q8_maximal_case["group"])
        assert transport_maximal(g, q8_maximal_case["eta"], q8_maximal_case["mu"])[1].maximal
        with pytest.raises(NotMaximalError):
            tip_relation(d8_case["phi"], d8_case["mu"])

    def test_budget_reaches_the_coatoms(self, d8_case):
        # the D8 parent's coatoms need 72 units (see the budget test above)
        eta, mu = d8_case["eta4"], d8_case["mu"]
        with pytest.raises(InstanceTooLargeError, match=r"need 72 units of work \(8 level cuts"):
            tip_relation(eta, mu, budget=71)
        assert tip_relation(eta, mu, budget=72) is TipRelation.PARENT_COVERS

    def test_violation_is_reported(self, d8_case, monkeypatch):
        # a tip two steps below mu's: with the maximality gate bypassed the
        # answer is Violation, a value that survives python -O
        monkeypatch.setattr(maximal_module, "is_maximal", lambda *args, **kwargs: MaximalityVerdict(True))
        eta = constant(d8_case["group"], d8_case["lattice"], "b")
        assert tip_relation(eta, d8_case["mu"]) is TipRelation.VIOLATION


class TestLevelProfile:
    def test_converse_profile_single_defect(self, q8_converse_case):
        profile = level_profile(q8_converse_case["eta"], q8_converse_case["mu"])
        assert profile.unique_defect_level == "c"
        rels = dict(profile.witness_levels)
        assert rels["c"] is LevelRelation.PROPER_MAXIMAL_SUBGROUP
        assert rels["1"] is LevelRelation.EQUAL
        assert rels["a"] is LevelRelation.EQUAL

    def test_converse_defect_sets(self, q8_converse_case):
        eta, mu = q8_converse_case["eta"], q8_converse_case["mu"]
        assert eta.level("c") == {"1", "-1"}
        assert mu.level("c") == {"1", "-1", "i", "-i"}

    def test_equal_pair_has_no_defect(self, d8_case):
        profile = level_profile(d8_case["mu"], d8_case["mu"])
        assert profile.unique_defect_level is None
        assert profile.defects() == ()

    def test_eta2_defect_at_b(self, d8_case):
        profile = level_profile(d8_case["eta2"], d8_case["mu"])
        assert profile.unique_defect_level == "b"
        assert dict(profile.witness_levels)["b"] is LevelRelation.PROPER_MAXIMAL_SUBGROUP
        assert d8_case["eta2"].level("b") == {"e", "r2"}

    def test_eta4_defect_is_empty_level(self, d8_case):
        profile = level_profile(d8_case["eta4"], d8_case["mu"])
        assert profile.unique_defect_level == "1"
        assert dict(profile.witness_levels)["1"] is LevelRelation.PROPER_SUBGROUP


def level_relation_per_element(eta, mu, a):
    """Reference for the level classifier: each level at a read on its own,
    as the meet of the levels at the join-irreducibles below a."""
    ai = mu.lattice.index(a)

    def level_at(s):
        below = (m for j, m in zip(*lsets._level_masks(s)) if s.lattice._leq[j][ai])
        return reduce(and_, below, (1 << len(s.group)) - 1)

    lv_eta, lv_mu = level_at(eta), level_at(mu)
    if lv_eta == lv_mu:
        return LevelRelation.EQUAL
    if lv_eta and lv_eta in _lower_covers(mu.group, lv_mu):
        return LevelRelation.PROPER_MAXIMAL_SUBGROUP
    return LevelRelation.PROPER_SUBGROUP


class TestLevelRelationsMatchThePerElementForm:
    @pytest.mark.parametrize("kind", ["chain2-6", "product2x3", "divisors30"])
    def test_seeded_instances(self, kind):
        defects = sufficient = 0
        for seed in range(40):
            mu = build_instance(InstanceSpec(seed, lattice_kind=kind)).mu
            lat, e = mu.lattice, mu.group.identity
            for eta in enumerate_l_subgroups(mu):
                image = eta.image() | mu.image()
                rows = tuple(
                    (a, level_relation_per_element(eta, mu, a)) for a in lat.elements if a in image
                )
                lone = [a for a, rel in rows if rel is not LevelRelation.EQUAL]
                profile = level_profile(eta, mu)
                assert profile.witness_levels == rows
                assert profile.unique_defect_level == (lone[0] if len(lone) == 1 else None)
                below_tip = [
                    rel for a in lat.down_set(mu.value(e))
                    if (rel := level_relation_per_element(eta, mu, a)) is not LevelRelation.EQUAL
                ]
                expected = eta.value(e) == mu.value(e) and below_tip == [
                    LevelRelation.PROPER_MAXIMAL_SUBGROUP
                ]
                assert sufficient_maximal_check(eta, mu) == expected
                defects += profile.unique_defect_level is not None
                sufficient += expected
        assert defects > 40 and sufficient > 10


class TestRecords:
    def test_verdict_truth_follows_maximal(self):
        # a non-empty tuple is truthy, so __bool__ must read the field
        assert bool(MaximalityVerdict(False, "x")) is False
        assert bool(MaximalityVerdict(True)) is True

    def test_verdict_fields_defaults_and_repr(self):
        verdict = MaximalityVerdict(False, "not_proper")
        assert (verdict.witness_between, verdict.witness_point) == (None, None)
        assert repr(verdict) == (
            "MaximalityVerdict(maximal=False, reason='not_proper', "
            "witness_between=None, witness_point=None)"
        )

    def test_records_are_hashable_and_immutable(self, d8_case):
        profile = level_profile(d8_case["eta2"], d8_case["mu"])
        verdict = is_maximal(d8_case["phi"], d8_case["mu"])
        for record, field in [(profile, "unique_defect_level"), (verdict, "maximal")]:
            assert hash(record) == hash(type(record)(*record))
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert profile.defects() == (("b", LevelRelation.PROPER_MAXIMAL_SUBGROUP),)
        assert repr(profile).startswith("LevelProfile(witness_levels=((")


class TestSufficientCheck:
    def test_holds_for_equal_tip_maximals(self, d8_case):
        for key in ["eta1", "eta2", "eta3"]:
            assert sufficient_maximal_check(d8_case[key], d8_case["mu"])

    def test_fails_for_lowered_tip(self, d8_case):
        assert not sufficient_maximal_check(d8_case["eta4"], d8_case["mu"])

    def test_fails_for_parent_itself(self, d8_case):
        assert not sufficient_maximal_check(d8_case["mu"], d8_case["mu"])

    def test_converse_pair_fails_over_all_levels(self, q8_converse_case):
        # over the attained values there is a single defect, but quantifying
        # over every level below the tip exposes a second one at b
        eta, mu = q8_converse_case["eta"], q8_converse_case["mu"]
        assert not sufficient_maximal_check(eta, mu)
        assert eta.level("b") == {"1", "-1"}
        assert mu.level("b") == {"1", "-1", "i", "-i"}

    @pytest.mark.parametrize(
        "parent, table, defects",
        [
            # {e} inside the centre at c, the Klein subgroup inside D8 at a:
            # two defects, each a maximal subgroup
            ("mu", {"e": "1", "r2": "b", "s": "b", "sr2": "b",
                    "r": "0", "r3": "0", "sr": "0", "sr3": "0"}, ["a", "c"]),
            # {e} at 1 under the constant top: one defect, not maximal in D8
            ("top", {"e": "1", "r2": "c", "s": "c", "sr2": "c",
                     "r": "c", "r3": "c", "sr": "c", "sr3": "c"}, ["1"]),
        ],
        ids=["two_maximal_defects", "lone_non_maximal_defect"],
    )
    def test_refuses_other_defect_patterns(self, d8_case, parent, table, defects):
        d8, lat = d8_case["group"], d8_case["lattice"]
        mu = d8_case["mu"] if parent == "mu" else constant(d8, lat, "1")
        eta = l_subset(d8, lat, table)
        assert eta.tip() == mu.tip()
        assert [a for a, _ in level_profile(eta, mu).defects()] == defects
        assert not sufficient_maximal_check(eta, mu)


class TestTransport:
    def test_identity(self, q8_maximal_case):
        f = identity_hom(q8_maximal_case["group"])
        image, verdict = transport_maximal(f, q8_maximal_case["eta"], q8_maximal_case["mu"])
        assert image == q8_maximal_case["eta"]
        assert verdict.maximal

    def test_inner_automorphism_of_d8(self, d8_case):
        f = inner_automorphism(d8_case["group"], "r")
        image, verdict = transport_maximal(f, d8_case["eta1"], d8_case["mu"])
        assert verdict.maximal

    def test_q8_relabeling(self, q8_maximal_case):
        g = q8_maximal_case["group"]
        swap = {"1": "1", "-1": "-1", "i": "j", "-i": "-j", "j": "i", "-j": "-i",
                "k": "-k", "-k": "k"}
        f = validate_hom(g, g, swap)
        image, verdict = transport_maximal(f, q8_maximal_case["eta"], q8_maximal_case["mu"])
        assert verdict.maximal
        assert image.value("j") == "b"

    def test_preimage_direction(self, d8_case):
        f = inner_automorphism(d8_case["group"], "s")
        back, verdict = transport_maximal_preimage(f, d8_case["eta2"], d8_case["mu"])
        assert verdict.maximal

    def test_requires_isomorphism(self, d8_case):
        d8 = d8_case["group"]
        c2 = builtin_group("C2")
        f = validate_hom(d8, c2, {x: ("g" if x.startswith("s") else "e") for x in d8.elements})
        with pytest.raises(NotAnIsomorphismError):
            transport_maximal(f, d8_case["eta1"], d8_case["mu"])

    def test_requires_maximal_input(self, d8_case):
        f = identity_hom(d8_case["group"])
        with pytest.raises(NotMaximalError):
            transport_maximal(f, d8_case["phi"], d8_case["mu"])


class TestScrambledElementOrder:
    """Carrier listings need not follow the lattice order; the ranking used
    by the largest-first scans must be monotone regardless."""

    @staticmethod
    def _top_first_chain():
        from lsubgroups import validate_lattice

        return validate_lattice(
            ["1", "c", "b", "a", "0"],
            [("0", "a"), ("a", "b"), ("b", "c"), ("c", "1")],
        )

    def test_maximals_match_brute_force(self, d8):
        from lsubgroups import l_subset

        lat = self._top_first_chain()
        assert lat.top == "1" and lat.bottom == "0"
        mu = l_subset(d8, lat, {
            "e": "1", "r2": "c", "s": "b", "sr2": "b",
            "r": "a", "r3": "a", "sr": "a", "sr3": "a",
        })
        assert list(maximal_l_subgroups(mu)) == brute_force_maximals(mu)
        assert len(maximal_l_subgroups(mu)) == 4

    def test_witnesses_stay_containment_maximal(self, d8):
        from lsubgroups import LSubset, l_subset
        from lsubgroups.frattini import is_non_generator
        from lsubgroups import LPoint, contains

        lat = self._top_first_chain()
        mu = l_subset(d8, lat, {
            "e": "1", "r2": "c", "s": "b", "sr2": "b",
            "r": "a", "r3": "a", "sr": "a", "sr3": "a",
        })
        ok, witness = is_non_generator(LPoint("r2", "c"), mu)
        assert not ok
        expected = l_subset(d8, lat, {
            "e": "1", "r2": "b", "s": "b", "sr2": "b",
            "r": "a", "r3": "a", "sr": "a", "sr3": "a",
        })
        assert witness == expected


class TestRandomInstances:
    def test_agreement_on_generated_parents(self):
        for seed in range(6):
            inst = build_instance(InstanceSpec(seed=seed, lattice_kind="chain2-4"))
            for nu in enumerate_l_subgroups(inst.mu):
                verdict = is_maximal(nu, inst.mu)
                if verdict.reason != "not_proper":
                    assert verdict.maximal == _lpoint_verdict(nu, inst.mu).maximal

    def test_point_test_matches_generation_off_chains(self):
        # every member of L(mu), over product and divisor lattices too, where
        # trivial levels and levels at unattained join-irreducibles occur
        checked = maximal = 0
        for seed in range(60):
            inst = build_instance(InstanceSpec(
                seed=seed, lattice_kind="chain2-5|product2x2|product2x3|divisors12|divisors30"
            ))
            for nu in enumerate_l_subgroups(inst.mu):
                expected = lpoint_verdict_by_generate(nu, inst.mu)
                verdict = is_maximal(nu, inst.mu)
                assert (verdict.maximal, verdict.witness_point) == (expected.maximal, expected.witness_point)
                if verdict.reason != "not_proper":
                    assert _lpoint_verdict(nu, inst.mu) == expected
                checked += 1
                maximal += expected.maximal
        assert checked > 1000 and maximal > 100

    def test_maximals_match_brute_force_on_small_instances(self):
        for seed in range(4):
            inst = build_instance(
                InstanceSpec(seed=seed, lattice_kind="chain2-3", group_kind="V4|C6")
            )
            assert list(maximal_l_subgroups(inst.mu)) == brute_force_maximals(inst.mu)


def highest_coatom_by_contains(mu, keep):
    """Reference for the witness scans: the coatom of highest rank (summed
    down-set sizes of the values) that ``keep`` accepts, first in canonical
    order on ties, compared point by point."""
    lat = mu.lattice
    return min(
        (c for _, c in _coatom_index(mu, DEFAULT_BUDGET) if keep(c)),
        key=lambda c: -sum(len(lat.down_set(v)) for v in c.values().values()),
        default=None,
    )


def is_maximal_by_contains(eta, mu):
    if not is_proper_l_subgroup(eta, mu):
        return MaximalityVerdict(False, "not_proper")
    theta = highest_coatom_by_contains(mu, lambda c: c != eta and contains(c, eta))
    if theta is None:
        return MaximalityVerdict(True)
    point = _lpoint_verdict(eta, mu).witness_point
    return MaximalityVerdict(False, "strictly_between", witness_between=theta, witness_point=point)


class TestWitnessPins:
    """Every verdict and witness of ``is_maximal`` and ``is_non_generator``
    against the rank-ordered scan of the coatoms with pointwise containment
    and point membership."""

    @pytest.mark.parametrize("kind", ["chain2-6", "product2x3", "divisors30"])
    def test_seeded_instances(self, kind):
        between = points = 0
        for seed in range(40):
            mu = build_instance(InstanceSpec(seed, lattice_kind=kind)).mu
            for nu in enumerate_l_subgroups(mu):
                verdict = is_maximal(nu, mu)
                assert verdict == is_maximal_by_contains(nu, mu)
                between += verdict.witness_between is not None
            for x in mu.group.elements:
                for a in mu.lattice.down_set(mu.value(x)):
                    point = LPoint(x, a)
                    witness = highest_coatom_by_contains(mu, lambda c: not point_in(point, c))
                    assert is_non_generator(point, mu) == (witness is None, witness)
                    points += witness is not None
        assert between > 40 and points > 40

    def test_non_distributive_lattice_on_m3(self):
        # eta not below mu: not a member and not proper; eta below mu: refused
        m3 = validate_lattice(
            ["0", "p", "q", "r", "1"],
            [("0", "p"), ("0", "q"), ("0", "r"), ("p", "1"), ("q", "1"), ("r", "1")],
        )
        c2 = builtin_group("C2")
        mu = constant(c2, m3, "p")
        outside = l_subset(c2, m3, {"e": "q", "g": "0"})
        inside = l_subset(c2, m3, {"e": "p", "g": "0"})
        assert not is_l_subgroup_of(outside, mu)
        assert is_maximal(outside, mu) == MaximalityVerdict(False, "not_proper")
        with pytest.raises(NonDistributiveLatticeError, match="require a distributive lattice"):
            is_l_subgroup_of(inside, mu)
        with pytest.raises(NonDistributiveLatticeError, match="require a distributive lattice"):
            is_maximal(inside, mu)


class TestClosedFormWitness:
    """``is_maximal`` reads both witnesses off the coatoms above the
    candidate, with no point search and no subgroup closure, and its codes
    and ranks hold where a field or a rank outgrows one byte."""

    def test_no_point_search(self, monkeypatch):
        cases = []
        for seed in range(16):
            mu = build_instance(InstanceSpec(seed, lattice_kind="chain2-6|product2x3|divisors30")).mu
            cases += [(nu, mu, is_maximal(nu, mu)) for nu in enumerate_l_subgroups(mu)]

        def refuse(*args):
            raise AssertionError("is_maximal ran the point search")

        monkeypatch.setattr(maximal_module, "_lpoint_verdict", refuse)
        monkeypatch.setattr(maximal_module, "_closure", refuse)
        monkeypatch.setattr(groups_module, "_closure", refuse)
        assert [is_maximal(nu, mu) for nu, mu, _ in cases] == [verdict for *_, verdict in cases]
        assert sum(verdict.witness_point is not None for *_, verdict in cases) > 100

    def test_points_match_generation_over_chain16(self):
        # sixteen join-irreducibles give two-byte fields, past the one-byte translate
        checked = negative = 0
        for seed in (1, 2, 3, 4, 7):
            mu = build_instance(InstanceSpec(seed, lattice_kind="chain16")).mu
            assert maximal_module._birkhoff(mu.lattice)[0] == 16
            for nu in enumerate_l_subgroups(mu):
                verdict, expected = is_maximal(nu, mu), lpoint_verdict_by_generate(nu, mu)
                assert (verdict.maximal, verdict.witness_point) == (expected.maximal, expected.witness_point)
                assert verdict == is_maximal_by_contains(nu, mu)
                checked += 1
                negative += verdict.witness_point is not None
        assert checked > 800 and negative > 400

    def test_chain_of_256(self):
        # the top's down-set has 256 elements, kept as 255 in the rank table
        lat = chain_lattice([f"t{k}" for k in range(256)])
        v4 = builtin_group("V4")

        def member(e, a, bc):
            return l_subset(v4, lat, {"e": f"t{e}", "a": f"t{a}", "b": f"t{bc}", "c": f"t{bc}"})

        mu, rng = member(255, 200, 100), random.Random(0)
        pool = [mu, *maximal_l_subgroups(mu)]
        for _ in range(24):
            bc = rng.randrange(101)
            a = rng.randrange(bc, 201)
            pool.append(member(rng.randrange(a, 256), a, bc))
        verdicts = [is_maximal(nu, mu) for nu in pool]
        assert verdicts == [is_maximal_by_contains(nu, mu) for nu in pool]
        assert sum(v.maximal for v in verdicts) == 3 and sum(v.witness_point is not None for v in verdicts) > 10
        for x, cap in zip(v4.elements, mu.value_indices()):
            for a in {0, 1, 99, 100, 101, 199, 200, 201, 254, 255} & set(range(cap + 1)):
                point, mask = LPoint(x, lat.elements[a]), _point_code(lat, v4.index(x), a)
                assert _highest_coatom(mu, DEFAULT_BUDGET, lambda p: mask & ~p) == highest_coatom_by_contains(
                    mu, lambda c: not point_in(point, c)
                )


class TestPointFails:
    """``_point_fails`` decides one point of the point route as generation
    does, over every member of L(mu) but mu, constants included, so a level
    left empty at a join-irreducible not under the point stays empty."""

    @staticmethod
    def check(mu):
        lat, checked, failing = mu.lattice, 0, 0
        for nu in enumerate_l_subgroups(mu):
            if nu == mu:
                continue
            for x, (cap, low) in enumerate(zip(mu.value_indices(), nu.value_indices())):
                for a in range(len(lat)):
                    if lat._leq[a][cap] and not lat._leq[a][low]:
                        fails = generate(adjoin_point(nu, LPoint(mu.group.elements[x], lat.elements[a]))) != mu
                        assert _point_fails(nu, mu, x, a) == fails
                        checked += 1
                        failing += fails
        return checked, failing

    @pytest.mark.parametrize("kind, seeds", [("chain2-6", 30), ("product2x3", 20), ("divisors30", 12)])
    def test_seeded_parents(self, kind, seeds):
        checked = failing = 0
        for seed in range(seeds):
            c, f = self.check(build_instance(InstanceSpec(seed, lattice_kind=kind)).mu)
            checked, failing = checked + c, failing + f
        assert 0 < failing < checked

    @pytest.mark.parametrize("group", ["C1", "C2", "V4"])
    def test_constant_tops_over_short_chains(self, group):
        checked = failing = 0
        for n in range(1, 5):
            lat = make_lattice(f"chain{n}")
            c, f = self.check(constant(builtin_group(group), lat, lat.top))
            checked, failing = checked + c, failing + f
        assert 0 < failing < checked


class TestRefusals:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: level_profile(constant(builtin_group("C2"), chain_lattice(["0", "1"]), "1"),
                               constant(builtin_group("C2"), chain_lattice(["0", "1"]), "0")),
         NotAnLSubgroupError, "level profiles require eta in L(mu)"),
    ], ids=["eta outside L(mu)"])
    def test_type_and_message(self, call, error, message):
        with pytest.raises(error) as refused:
            call()
        assert (type(refused.value), str(refused.value)) == (error, message)
