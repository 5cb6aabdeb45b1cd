"""Level sets, membership algebra, subgroup predicates, generation, transport."""
import random
import time
from functools import reduce
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsubgroups import (
    FiniteGroup,
    InstanceSpec,
    InstanceTooLargeError,
    LPoint,
    LSubset,
    MismatchedCarriersError,
    NonDistributiveLatticeError,
    NotAnLSubgroupError,
    UnknownElementError,
    adjoin_point,
    all_subgroups,
    are_jointly_supstar,
    build_instance,
    builtin_group,
    chain_lattice,
    characteristic,
    constant,
    contains,
    enumerate_l_subgroups,
    frattini,
    generate,
    generate_oracle,
    has_sup_property,
    inner_automorphism,
    intersection_of,
    is_l_subgroup,
    is_l_subgroup_of,
    is_maximal,
    is_normal_in,
    is_normal_in_group,
    is_proper_l_subgroup,
    is_subgroup,
    l_subset,
    l_subset_from_document,
    level_profile,
    make_lattice,
    maximal_l_subgroups,
    non_generator_subgroup,
    point_in,
    pullback,
    pushforward,
    random_l_subset_below,
    set_product,
    subgroup_closure,
    union_of,
    validate_group,
    validate_hom,
    validate_lattice,
)
from lsubgroups import lsets
from lsubgroups.errors import DocumentError
from lsubgroups.harness import PROPERTIES, Instance

from conftest import SEEDED_SPECS
from element_walk import meet_over_walk, search_l_subgroup_values


def levelwise_is_l_subgroup(mu):
    """Oracle: every non-empty level, over every lattice element, is a
    subgroup, checked on frozensets of names."""
    return all(
        is_subgroup(mu.group, lv) for a in mu.lattice.elements if (lv := mu.level(a))
    )


def levelwise_is_l_subgroup_of(eta, mu):
    """Oracle: every non-empty level of mu is a subgroup, and every non-empty
    level of eta is a subgroup inside the matching level of mu."""
    return levelwise_is_l_subgroup(mu) and all(
        is_subgroup(eta.group, lv) and lv <= mu.level(a)
        for a in eta.lattice.elements
        if (lv := eta.level(a))
    )


def c4_identity_third():
    """C4 = <g> listed as g, g2, e, g3: the identity is element 2."""
    powers, names = ["e", "g", "g2", "g3"], ["g", "g2", "e", "g3"]
    return validate_group(
        names, [[powers[(powers.index(x) + powers.index(y)) % 4] for y in names] for x in names]
    )


def levelwise_is_normal_in_group(mu):
    """Oracle: every level of mu is closed under conjugation by the group."""
    group = mu.group
    return all(
        group.conjugate(g, x) in lv
        for a in mu.lattice.elements
        for lv in [mu.level(a)]
        for g in group.elements
        for x in lv
    )


def levelwise_is_normal_in(eta, mu):
    """Oracle: every level of eta is closed under conjugation by the
    matching level of mu."""
    group = eta.group
    return all(
        group.conjugate(g, x) in lv
        for a in eta.lattice.elements
        for lv in [eta.level(a)]
        for g in mu.level(a)
        for x in lv
    )


def seeded_probes(spec, trials=40, cap=24):
    """Per trial: the instance and its probes, namely mu, eta, the raws and
    (a seeded sample of at most ``cap``) members of L(mu)."""
    for trial in range(trials):
        inst = build_instance(spec, trial)
        members = list(enumerate_l_subgroups(inst.mu))
        if len(members) > cap:
            members = random.Random(trial).sample(members, cap)
        yield inst, [inst.mu, inst.eta, *inst.raws, *members]


def diamond():
    return validate_lattice(["0", "p", "q", "1"], [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])


def pentagon():
    return validate_lattice(
        ["0", "x", "z", "y", "1"],
        [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")],
    )


def m3():
    return validate_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
    )


class TestLevelsAndStats:
    def test_levels_of_d8_parent(self, d8_case):
        mu = d8_case["mu"]
        assert mu.level("b") == {"e", "r2", "s", "sr2"}
        assert mu.level("c") == {"e", "r2"}
        assert mu.level("0") == set(d8_case["group"].elements)
        assert mu.level("1") == {"e"}

    def test_tip_tail_image(self, d8_case):
        mu = d8_case["mu"]
        assert mu.tip() == "1"
        assert mu.tail() == "a"
        assert mu.image() == {"1", "c", "b", "a"}

    def test_phi_tip_tail(self, d8_case):
        phi = d8_case["phi"]
        assert phi.tip() == "c"
        assert phi.tail() == "0"

    def test_constant_stats(self, d8, five_chain):
        t = constant(d8, five_chain, "b")
        assert t.tip() == t.tail() == "b"
        assert t.is_constant()

    def test_levels_nested_under_containment(self, d8_case):
        mu, eta = d8_case["mu"], d8_case["eta1"]
        assert contains(mu, eta)
        for a in d8_case["lattice"].elements:
            assert eta.level(a) <= mu.level(a)

    def test_unknown_level(self, d8_case):
        with pytest.raises(UnknownElementError):
            d8_case["mu"].level("zz")


class TestConstructors:
    def test_totality_enforced(self, d8, five_chain):
        with pytest.raises(UnknownElementError):
            l_subset(d8, five_chain, {"e": "1"})

    def test_unknown_key_rejected(self, d8, five_chain):
        values = {x: "a" for x in d8.elements}
        values["zz"] = "a"
        with pytest.raises(UnknownElementError):
            l_subset(d8, five_chain, values)

    def test_unknown_keys_of_mixed_types_listed_in_map_order(self):
        # keys that do not sort together are still reported, not a TypeError
        v4 = builtin_group("V4")
        values = {"zz": "0", **{x: "1" for x in v4.elements}, 1: "0"}
        with pytest.raises(UnknownElementError, match=r"unknown group elements \['zz', 1\]"):
            l_subset(v4, chain_lattice(["0", "1"]), values)

    def test_parent_cap_enforced(self, d8_case):
        mu = d8_case["mu"]
        too_big = {x: "1" for x in d8_case["group"].elements}
        with pytest.raises(MismatchedCarriersError):
            l_subset(d8_case["group"], d8_case["lattice"], too_big, parent=mu)

    def test_characteristic(self, d8, five_chain):
        chi = characteristic(d8, five_chain, ["e", "r2"])
        assert chi.value("e") == "1"
        assert chi.value("r") == "0"

    def test_document_round_trip(self, d8_case):
        mu = d8_case["mu"]
        doc = mu.as_document()
        again = l_subset_from_document(doc, d8_case["group"], d8_case["lattice"])
        assert again == mu

    def test_document_missing_value(self, d8, five_chain):
        with pytest.raises(DocumentError):
            l_subset_from_document({"values": {"e": "1"}}, d8, five_chain)

    def test_document_value_that_is_a_list(self, d8, five_chain):
        values = {x: "0" for x in d8.elements}
        values["e"] = ["1"]
        with pytest.raises(DocumentError, match="must be a lattice element name"):
            l_subset_from_document({"values": values}, d8, five_chain)


class TestValueRepresentation:
    """Values are bytes, one lattice index per group element, whatever built them."""

    @staticmethod
    def assert_one_representation(sub):
        # equal, with equal hashes, to the same values built from a tuple, a
        # list, bytes and names
        vals = sub.value_indices()
        assert type(vals) is bytes and len(vals) == len(sub.group)
        rebuilt = [
            LSubset(sub.group, sub.lattice, tuple(vals)),
            LSubset(sub.group, sub.lattice, list(vals)),
            LSubset(sub.group, sub.lattice, bytes(vals)),
            l_subset(sub.group, sub.lattice, sub.values()),
        ]
        for other in rebuilt:
            assert type(other.value_indices()) is bytes
            assert other == sub and hash(other) == hash(sub)

    def test_tuple_list_bytes_and_names_agree(self, d8, five_chain):
        names = {x: five_chain.elements[i % 5] for i, x in enumerate(d8.elements)}
        indices = [five_chain.index(names[x]) for x in d8.elements]
        vals = bytes(indices)
        built = [
            LSubset(d8, five_chain, tuple(indices)),
            LSubset(d8, five_chain, indices),
            LSubset(d8, five_chain, vals),
            l_subset(d8, five_chain, names),
        ]
        assert built[2].value_indices() is vals  # bytes are kept, not copied
        assert {hash(sub) for sub in built} == {hash(vals)}
        for sub in built:
            assert sub == built[0] and sub.value_indices() == vals
            self.assert_one_representation(sub)

    def test_members_coatoms_and_generated(self, d8_case):
        mu = d8_case["mu"]
        members = enumerate_l_subgroups(mu)
        assert len(members) > 1
        for sub in (*members, *maximal_l_subgroups(mu), generate(d8_case["eta1"])):
            self.assert_one_representation(sub)

    def test_every_constructor_builds_bytes(self, d8_case):
        group, lat, mu, eta = d8_case["group"], d8_case["lattice"], d8_case["mu"], d8_case["eta1"]
        point = LPoint("r", "b")
        iso = validate_hom(group, group, {x: x for x in group.elements})
        built = [
            constant(group, lat, "c"),
            characteristic(group, lat, ["e", "r2"]),
            union_of([mu, eta]),
            intersection_of([mu, eta]),
            intersection_of([eta]),
            set_product(mu, eta),
            adjoin_point(eta, point),
            point.as_l_subset(group, lat),
            pushforward(iso, eta),
            pullback(iso, eta),
            non_generator_subgroup(mu),
            frattini(mu).phi,
            random_l_subset_below(random.Random(0), mu),
        ]
        for sub in built:
            self.assert_one_representation(sub)

    def test_wide_level_codes_decode_to_bytes(self):
        # chain16 has 15 join-irreducibles, so each element's field in the
        # level-map codes is two bytes wide
        lat = make_lattice("chain16")
        mu = constant(builtin_group("C3"), lat, "1")
        members = enumerate_l_subgroups(mu)
        assert len(members) == 136  # e at or above the other two, which agree: 16 + 15 + ... + 1
        for sub in (*members, *maximal_l_subgroups(mu)):
            self.assert_one_representation(sub)


class TestSetAlgebra:
    def test_containment_of_worked_pair(self, q8_maximal_case):
        assert contains(q8_maximal_case["mu"], q8_maximal_case["eta"])
        assert not contains(q8_maximal_case["eta"], q8_maximal_case["mu"])

    def test_intersection_of_singleton(self, d8_case):
        assert intersection_of([d8_case["mu"]]) == d8_case["mu"]

    def test_meet_of_the_four_maximals_is_phi(self, d8_case):
        meet = intersection_of([d8_case["eta1"], d8_case["eta2"], d8_case["eta3"], d8_case["eta4"]])
        assert meet == d8_case["phi"]

    def test_mismatched_carriers(self, d8_case, q8_maximal_case):
        with pytest.raises(MismatchedCarriersError):
            union_of([d8_case["mu"], q8_maximal_case["mu"]])

    def test_empty_family(self):
        with pytest.raises(MismatchedCarriersError):
            intersection_of([])

    def test_level_of_intersection_is_intersection_of_levels(self, d8_case):
        family = [d8_case["mu"], d8_case["eta1"], d8_case["eta3"]]
        meet = intersection_of(family)
        for a in d8_case["lattice"].elements:
            expected = family[0].level(a) & family[1].level(a) & family[2].level(a)
            assert meet.level(a) == expected


class TestSetProduct:
    def test_product_of_points(self, d8, five_chain):
        p = LPoint("r", "b").as_l_subset(d8, five_chain)
        q = LPoint("s", "c").as_l_subset(d8, five_chain)
        expected = LPoint(d8.op("r", "s"), "b").as_l_subset(d8, five_chain)
        assert set_product(p, q) == expected

    def test_identity_point_absorbs(self, d8_case):
        mu = d8_case["mu"]
        chi = characteristic(d8_case["group"], d8_case["lattice"], ["e"])
        assert set_product(chi, mu) == mu

    def test_bottom_annihilates(self, d8_case):
        bottom = constant(d8_case["group"], d8_case["lattice"], "0")
        assert set_product(bottom, d8_case["mu"]) == bottom

    def test_associative_on_worked_data(self, d8_case):
        a, b, c = d8_case["eta1"], d8_case["eta4"], d8_case["phi"]
        assert set_product(set_product(a, b), c) == set_product(a, set_product(b, c))


class TestSubgroupPredicates:
    def test_worked_parents_are_l_subgroups(self, d8_case, q8_maximal_case):
        assert is_l_subgroup(d8_case["mu"])
        assert is_l_subgroup(q8_maximal_case["mu"])

    def test_constants_are_l_subgroups(self, d8, five_chain):
        # the bottom constant has only empty levels above the bottom, the
        # one-element lattice has no join-irreducibles, and over C1 every
        # L-subset is a constant
        point = validate_lattice(["*"], [])
        for group in (d8, builtin_group("C1")):
            for lat in (five_chain, point):
                for a in lat.elements:
                    assert is_l_subgroup(constant(group, lat, a))

    def test_swapped_values_fail(self, d8, five_chain):
        # raising r above r2 breaks the product law at r * r = r2
        bad = l_subset(
            d8,
            five_chain,
            {"e": "1", "r": "c", "r2": "a", "r3": "a",
             "s": "b", "sr": "a", "sr2": "b", "sr3": "a"},
        )
        assert not is_l_subgroup(bad)

    def test_takes_no_strategy(self, d8_case):
        with pytest.raises(TypeError):
            is_l_subgroup(d8_case["mu"], "pointwise")

    def test_empty_level_at_one_irreducible(self):
        # {e, a} at p, nothing at q: the level at q is empty, the rest subgroups
        v4 = builtin_group("V4")
        mu = l_subset(v4, diamond(), {"e": "p", "a": "p", "b": "0", "c": "0"})
        assert mu.level("q") == frozenset()
        assert is_l_subgroup(mu)
        assert lsets._pointwise_is_l_subgroup(mu)

    def test_unattained_irreducible_level_is_read(self):
        # every attained level is a subgroup, but the level at the atom 2,
        # which no element attains, is {e, a, b}
        v4 = builtin_group("V4")
        mu = l_subset(v4, make_lattice("divisors30"), {"e": "30", "a": "6", "b": "10", "c": "1"})
        assert all(is_subgroup(v4, mu.level(v)) for v in mu.image() if mu.level(v))
        assert mu.level("2") == {"e", "a", "b"}
        assert not is_l_subgroup(mu)
        assert not lsets._pointwise_is_l_subgroup(mu)

    def test_non_distributive_refused(self):
        g = builtin_group("C2")
        bad = constant(g, pentagon(), "1")
        with pytest.raises(NonDistributiveLatticeError):
            is_l_subgroup(bad)

    def test_library_does_not_lean_on_the_pointwise_test(self, monkeypatch, d8_case, q8_maximal_case):
        # the pointwise test is the harness's reference only
        def refuse(mu):
            raise AssertionError("the pointwise subgroup test was called")

        monkeypatch.setattr(lsets, "_pointwise_is_l_subgroup", refuse)
        for mu, eta in [(d8_case["mu"], d8_case["eta1"]), (q8_maximal_case["mu"], q8_maximal_case["eta"])]:
            assert is_l_subgroup_of(eta, mu)
            assert is_maximal(eta, mu)
            assert level_profile(eta, mu).unique_defect_level is not None
            assert frattini(mu).maximal_count > 0

    def test_membership_of_worked_pair(self, q8_maximal_case):
        assert is_l_subgroup_of(q8_maximal_case["eta"], q8_maximal_case["mu"])
        assert is_proper_l_subgroup(q8_maximal_case["eta"], q8_maximal_case["mu"])

    def test_parent_is_not_proper_in_itself(self, d8_case):
        assert not is_proper_l_subgroup(d8_case["mu"], d8_case["mu"])

    def test_constant_member_is_not_proper(self, d8_case):
        tail = constant(d8_case["group"], d8_case["lattice"], "a")
        assert is_l_subgroup_of(tail, d8_case["mu"])
        assert not is_proper_l_subgroup(tail, d8_case["mu"])


def two_subgroup_family(seed=10, trials=12):
    """Seeded L-subsets over product2x3 and divisors30 on V4, C6 and D8: e at
    the top, two random proper non-trivial subgroups at two random values
    other than the top and the bottom, and each element at the join of the
    values of the subgroups holding it.  The attained levels are e's, each
    subgroup, their intersection and the group; when the two values are
    incomparable with a meet above the bottom, the level at each
    join-irreducible below that meet, which no element attains, is the
    union of the two subgroups."""
    rng = random.Random(seed)
    for kind in ("product2x3", "divisors30"):
        lat = make_lattice(kind)
        for name in ("V4", "C6", "D8"):
            group = builtin_group(name)
            subgroups = all_subgroups(group)[1:-1]
            heights = [a for a in lat.elements if a not in (lat.bottom, lat.top)]
            for _ in range(trials):
                pieces = [(rng.choice(subgroups), rng.choice(heights)) for _ in range(2)]
                values = {x: lat.join_set(a for h, a in pieces if x in h) for x in group.elements}
                values[group.identity] = lat.top
                yield l_subset(group, lat, values)


def level_at_by_fold(mu, a):
    """Reference for ``lsets._level_at``: the AND of mu's levels at the
    join-irreducibles below a (Birkhoff), the whole group at the bottom."""
    leq, full = mu.lattice._leq, (1 << len(mu.group)) - 1
    return reduce(int.__and__, (lv for j, lv in zip(*lsets._level_masks(mu)) if leq[j][a]), full)


class TestLevelAtMatchesTheFold:
    """``lsets._level_at`` reads a level through one translate row per lattice
    index.  Each level is held to the fold over the join-irreducibles and to
    ``LSubset.level`` on names, at every index: the bottom, indices that are
    not join-irreducible and indices that no value attains."""

    @staticmethod
    def check_every_level(mu) -> int:
        # returns how many lattice indices no value of mu attains
        lat, group = mu.lattice, mu.group
        for a, name in enumerate(lat.elements):
            mask = lsets._level_at(mu, a)
            assert mask == level_at_by_fold(mu, a)
            assert {x for k, x in enumerate(group.elements) if mask >> k & 1} == mu.level(name)
        return len(lat) - len(set(mu.value_indices()))

    @pytest.mark.parametrize("kind", ["chain2-6", "product2x3", "divisors30"])
    def test_seeded_instances(self, kind):
        unattained = 0
        for seed in range(20):
            inst = build_instance(InstanceSpec(seed, lattice_kind=kind))
            unattained += self.check_every_level(inst.mu) + self.check_every_level(inst.eta)
        assert unattained > 40

    def test_s6_parent(self, s6_parent):
        # all three levels of the 3-chain are attained, and the bottom's is S6
        assert self.check_every_level(s6_parent) == 0
        assert lsets._level_at(s6_parent, 0) == (1 << 720) - 1


def unattained_irreducible_defect(mu):
    """Every attained level is a subgroup, but the level at some join-
    irreducible (one lower cover) that no element attains is not."""
    lat, group, image = mu.lattice, mu.group, mu.image()
    irreducibles = [a for a in lat.elements if sum(lat.is_cover(a, b) for b in lat.elements) == 1]
    return all(is_subgroup(group, mu.level(v)) for v in image) and any(
        a not in image and mu.level(a) and not is_subgroup(group, mu.level(a))
        for a in irreducibles
    )


class TestUnattainedIrreducibleLevels:
    def test_subgroup_test_reads_them(self):
        # a test that read levels only at attained values would call every
        # patterned member an L-subgroup
        patterned = 0
        for mu in two_subgroup_family():
            assert is_l_subgroup(mu) == lsets._pointwise_is_l_subgroup(mu)
            patterned += unattained_irreducible_defect(mu)
        assert patterned >= 3


class TestPredicatesMatchTheLevelRoute:
    """The subgroup test reads the level masks at the join-irreducibles and
    normality is read off the Cayley table; the frozenset level characterisations
    stay here as the reference, with the pointwise subgroup test, checked on
    seeded instances over chains, a product lattice and a divisor lattice."""

    @SEEDED_SPECS
    def test_subgroup_test(self, spec):
        seen = set()
        for _, probes in seeded_probes(spec):
            for probe in probes:
                answer = is_l_subgroup(probe)
                assert answer == lsets._pointwise_is_l_subgroup(probe)
                assert answer == levelwise_is_l_subgroup(probe)
                seen.add(answer)
        assert seen == {True, False}

    @SEEDED_SPECS
    def test_membership(self, spec):
        seen = set()
        for inst, probes in seeded_probes(spec):
            for parent in [inst.mu, *inst.raws]:
                for probe in probes:
                    answer = is_l_subgroup_of(probe, parent)
                    assert answer == levelwise_is_l_subgroup_of(probe, parent)
                    seen.add(answer)
        assert seen == {True, False}

    @SEEDED_SPECS
    def test_normality_in_the_group(self, spec):
        seen = set()
        for _, probes in seeded_probes(spec):
            for probe in probes:
                if not levelwise_is_l_subgroup(probe):
                    with pytest.raises(NotAnLSubgroupError):
                        is_normal_in_group(probe)
                    continue
                answer = is_normal_in_group(probe)
                assert answer == levelwise_is_normal_in_group(probe)
                seen.add(answer)
        assert seen == {True, False}

    @SEEDED_SPECS
    def test_normality_in_a_parent(self, spec):
        seen = set()
        for inst, probes in seeded_probes(spec):
            top = constant(inst.group, inst.lattice, inst.lattice.top)
            for parent in [inst.mu, top]:
                for probe in probes:
                    if not levelwise_is_l_subgroup_of(probe, parent):
                        with pytest.raises(NotAnLSubgroupError):
                            is_normal_in(probe, parent)
                        continue
                    answer = is_normal_in(probe, parent)
                    assert answer == levelwise_is_normal_in(probe, parent)
                    seen.add(answer)
        assert seen == {True, False}


def set_product_by_names(mu, eta):
    """Oracle: (mu ∘ eta)(x) as the join over every y of mu(y) ∧ eta(y⁻¹x),
    read pair by pair through element and lattice names."""
    group, lat = mu.group, mu.lattice
    return l_subset(group, lat, {
        x: lat.join_set(
            lat.meet(mu.value(y), eta.value(group.op(group.inverse(y), x))) for y in group.elements
        )
        for x in group.elements
    })


class TestSetProductMatchesThePairwiseRoute:
    """The set product runs along the rows of the Cayley table; the
    name-level pairwise join stays here as its reference, on every ordered
    pair of probes of seeded instances."""

    @SEEDED_SPECS
    def test_seeded_pairs(self, spec):
        moved = 0
        for _, probes in seeded_probes(spec, trials=12, cap=4):
            for mu, eta in cartesian(probes, repeat=2):
                product = set_product(mu, eta)
                assert product == set_product_by_names(mu, eta)
                moved += product not in (mu, eta)
        assert moved


class TestKernelsReadTheTable:
    """No check pays a method call per group pair: with the index and name
    accessors of ``FiniteGroup`` refusing, the set product, both normality
    tests, the pointwise and direct subgroup tests, inner automorphisms and
    the suite's conjugation-closure property still answer, and answer as
    before."""

    @pytest.mark.parametrize("case, member", [("d8_case", "phi"), ("q8_maximal_case", "eta")])
    def test_worked_cases(self, case, member, request, monkeypatch):
        data = request.getfixturevalue(case)
        group, mu, eta = data["group"], data["mu"], data[member]
        levels = [mu.level(a) for a in mu.lattice.elements]
        expected = (
            set_product_by_names(mu, eta),
            set_product_by_names(eta, mu),
            levelwise_is_normal_in_group(mu),
            levelwise_is_normal_in(eta, mu),
            levelwise_is_l_subgroup(mu),
            levelwise_is_l_subgroup(eta),
            [is_subgroup(group, level) for level in levels],
            {x: group.conjugate(group.elements[1], x) for x in group.elements},
        )

        closure = Instance.pinned(mu, eta, {"d8_case": "D8", "q8_maximal_case": "Q8"}[case])

        def refuse(*args):
            raise AssertionError("a per-pair accessor of FiniteGroup was called")

        for name in ("op_index", "inverse_index", "conjugate"):
            monkeypatch.setattr(FiniteGroup, name, refuse)
        assert (
            set_product(mu, eta),
            set_product(eta, mu),
            is_normal_in_group(mu),
            is_normal_in(eta, mu),
            lsets._pointwise_is_l_subgroup(mu),
            lsets._pointwise_is_l_subgroup(eta),
            [is_subgroup(group, level) for level in levels],
            inner_automorphism(group, group.elements[1]).mapping,
        ) == expected
        assert PROPERTIES["nongenerator_conjugation_closure"](closure) is None


class TestNormality:
    def test_worked_parent_normal(self, d8_case):
        assert is_normal_in_group(d8_case["mu"])

    def test_phi_normal_in_parent(self, d8_case):
        assert is_normal_in(d8_case["phi"], d8_case["mu"])

    def test_reflection_support_is_not_normal(self, d8, five_chain):
        top = constant(d8, five_chain, "1")
        eta = l_subset(
            d8,
            five_chain,
            {"e": "1", "s": "b", "r": "0", "r2": "0", "r3": "0",
             "sr": "0", "sr2": "0", "sr3": "0"},
        )
        assert is_l_subgroup_of(eta, top)
        assert not is_normal_in(eta, top)

    def test_non_normal_only_in_the_last_rows(self, d8):
        # D8 listed as e, r2, s, sr2, r, r3, sr, sr3, with {e, s} at the top:
        # every pair (x, y) whose products xy and yx part across the level
        # lies in G∖N({e, s}) = {r, r3, sr, sr3}, the last four elements, so
        # a scan of only the first half of the rows would answer normal
        order = ["e", "r2", "s", "sr2", "r", "r3", "sr", "sr3"]
        group = validate_group(order, [[d8.op(x, y) for y in order] for x in order])
        mu = characteristic(group, chain_lattice(["0", "1"]), ["e", "s"])
        assert is_l_subgroup(mu)
        assert not levelwise_is_normal_in_group(mu)
        assert not is_normal_in_group(mu)

    def test_normality_in_group_matches_top_parent(self, d8_case):
        top = constant(d8_case["group"], d8_case["lattice"], "1")
        for probe in [d8_case["mu"], d8_case["eta1"]]:
            assert is_normal_in_group(probe) == is_normal_in(probe, top)

    def test_requires_l_subgroups(self, d8, five_chain):
        # tip away from the identity, so this is not an L-subgroup
        lopsided = l_subset(
            d8,
            five_chain,
            {"e": "a", "r": "c", "r2": "a", "r3": "a",
             "s": "a", "sr": "a", "sr2": "a", "sr3": "a"},
        )
        assert not is_l_subgroup(lopsided)
        with pytest.raises(NotAnLSubgroupError):
            is_normal_in_group(lopsided)


class TestSupProperties:
    def test_chain_valued_always_has_it(self, d8_case):
        assert has_sup_property(d8_case["mu"])
        assert are_jointly_supstar(d8_case["eta1"], d8_case["mu"])

    def test_incomparable_image_fails(self):
        g = builtin_group("C2")
        lat = diamond()
        spread = l_subset(g, lat, {"e": "p", "g": "q"})
        assert not has_sup_property(spread)

    def test_bottom_image_is_neutral(self, d8_case):
        bottom = constant(d8_case["group"], d8_case["lattice"], "0")
        assert are_jointly_supstar(bottom, d8_case["mu"])


class TestGeneration:
    def test_already_closed_is_fixed(self, q8_maximal_case):
        assert generate(q8_maximal_case["eta"]) == q8_maximal_case["eta"]

    def test_adjoining_the_missing_point_rebuilds_the_parent(self, d8_case):
        # theta = eta1; raising r2 to c recovers mu exactly
        theta = d8_case["eta1"]
        assert generate(adjoin_point(theta, LPoint("r2", "c"))) == d8_case["mu"]

    def test_all_bottom_seed(self, d8, five_chain):
        bottom = constant(d8, five_chain, "0")
        assert generate(bottom) == bottom

    def test_tip_is_preserved_and_attained(self, d8_case):
        rng = random.Random(11)
        for _ in range(20):
            raw = random_l_subset_below(rng, d8_case["mu"])
            gen = generate(raw)
            assert gen.tip() == raw.tip()
            assert gen.value("e") == raw.tip()
            assert contains(gen, raw)
            assert generate(gen) == gen

    def test_monotone(self, d8_case):
        rng = random.Random(13)
        for _ in range(10):
            lo = random_l_subset_below(rng, d8_case["mu"])
            hi = union_of([lo, random_l_subset_below(rng, d8_case["mu"])])
            assert contains(generate(hi), generate(lo))

    def test_non_distributive_refused(self):
        g = builtin_group("C2")
        with pytest.raises(NonDistributiveLatticeError):
            generate(constant(g, pentagon(), "1"))

    def test_crisp_generation_is_classical_closure(self, d8):
        lat = chain_lattice(["0", "1"])
        chi = characteristic(d8, lat, ["s", "r2"])
        expected = characteristic(d8, lat, subgroup_closure(d8, ["s", "r2"]))
        assert generate(chi) == expected


class TestGenerationOracle:
    def test_matches_on_worked_data(self, q8_maximal_case):
        eta = q8_maximal_case["eta"]
        assert generate_oracle(eta) == eta

    def test_matches_on_adjoined_point(self, d8_case):
        seed = adjoin_point(d8_case["eta1"], LPoint("r2", "c"))
        assert generate_oracle(seed) == generate(seed) == d8_case["mu"]

    def test_guard(self):
        # the one bound is the size of L(c), 10,000 members, refused with the
        # enumeration's own message as soon as the walk counts past it
        d8 = constant(builtin_group("D8"), make_lattice("chain16"), "1")
        with pytest.raises(InstanceTooLargeError) as refused:
            generate_oracle(d8)
        assert str(refused.value) == "enumeration of L(mu) stopped at 11043 members, over its budget of 10000"
        assert (refused.value.size, refused.value.budget) == (11043, 10000)
        c256 = constant(builtin_group("C256"), make_lattice("chain16"), "1")
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError) as refused:
            generate_oracle(c256)
        assert time.perf_counter() - start < 0.25  # about 5 ms
        assert (refused.value.size, refused.value.budget) == (11136, 10000)

    @pytest.mark.parametrize("group, kind, members", [
        ("C12", "chain2", 7), ("D8", "divisors30", 1331), ("C12", "chain16", 9996),
    ])
    def test_answers_within_the_budget(self, group, kind, members):
        # the shape of the carriers bounds nothing: 12 elements, 8 levels and
        # 16 levels all answer, the last with L(c) just under the budget
        lat = make_lattice(kind)
        top = constant(builtin_group(group), lat, lat.top)
        assert len(enumerate_l_subgroups(top)) == members
        assert generate_oracle(top) == generate(top) == top

    @pytest.mark.parametrize("group_kind, lattice_kind", [
        ("D8", "divisors30"), ("C12|C8", "chain7-8"), ("C12", "chain2"),
    ])
    def test_matches_on_larger_carriers(self, group_kind, lattice_kind):
        # seeded raws over 12 elements, or 7 to 8 levels, or both; every pair
        # of orders and levels that the plan names is drawn
        spec = InstanceSpec(seed=5, lattice_kind=lattice_kind, group_kind=group_kind)
        shapes = set()
        for trial in range(12):
            inst = build_instance(spec, trial)
            shapes.add((len(inst.group), len(inst.lattice)))
            for raw in inst.raws:
                assert generate_oracle(raw) == generate(raw), (trial, raw.values())
        assert len(shapes) == (4 if group_kind == "C12|C8" else 1)

    @pytest.mark.parametrize("lattice", [m3, pentagon], ids=["M3", "N5"])
    def test_non_distributive_refused(self, lattice):
        # as generate is: the level maps it meets over need a distributive lattice
        lat = lattice()
        eta = l_subset(builtin_group("C2"), lat, {"e": lat.elements[1], "g": lat.elements[3]})
        with pytest.raises(NonDistributiveLatticeError):
            generate_oracle(eta)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_on_random_instances(self, seed):
        # off chains too, where generation joins at the join-irreducibles only
        spec = InstanceSpec(seed=seed, lattice_kind="chain2-5|product2x2|product2x3|divisors12")
        inst = build_instance(spec)
        raw = random_l_subset_below(random.Random(seed), inst.mu)
        assert generate(raw) == generate_oracle(raw)

    @pytest.mark.parametrize("kind", ["chain3", "chain4", "product2x2", "product2x3", "divisors12"])
    def test_matches_with_the_identity_not_first(self, kind):
        group, lat = c4_identity_third(), make_lattice(kind)
        rng = random.Random(41)
        for _ in range(20):
            raw = random_l_subset_below(rng, constant(group, lat, lat.top))
            assert generate(raw) == generate_oracle(raw) == meet_over_walk(raw)


def oracle_by_members(eta):
    """Reference for ``generate_oracle``: the pointwise meet of the listed
    members of L(c), c the constant at eta's tip, that contain eta, under
    the oracle's budget."""
    c = constant(eta.group, eta.lattice, eta.tip())
    return intersection_of(nu for nu in enumerate_l_subgroups(c, lsets._ORACLE_BUDGET) if contains(nu, eta))


class TestOracleMatchesTheMembersRoute:
    """``generate_oracle`` meets the codes of the members of L(c) that hold
    eta's code; the reference decodes and lists the members and meets those
    that contain eta pointwise.  They give the same answer, or the same
    refusal, on seeded raws over chains, products and divisor lattices, and
    over chain16, whose sixteen join-irreducibles take two-byte code fields
    and where L(c) of D8's top passes the budget."""

    @pytest.mark.parametrize("kind", ["chain2-6", "product2x3", "divisors30", "chain16"])
    def test_seeded_raws(self, kind):
        spec = InstanceSpec(seed=3, lattice_kind=kind)
        for trial in range(20):
            for raw in build_instance(spec, trial).raws:
                assert generate_oracle(raw) == oracle_by_members(raw), (trial, raw.values())

    @pytest.mark.parametrize("group", ["D8", "C256"])
    def test_refusals_over_chain16(self, group):
        top = constant(builtin_group(group), make_lattice("chain16"), "1")
        refusals = []
        for route in (generate_oracle, oracle_by_members):
            with pytest.raises(InstanceTooLargeError) as refused:
                route(top)
            refusals.append((str(refused.value), refused.value.size, refused.value.budget))
        assert refusals[0] == refusals[1]


class TestOracleMatchesTheWalk:
    """``generate_oracle`` meets the members of L(c), with c the constant at
    eta's tip, that contain eta; the element walk meets every L-subgroup of
    the group above eta.  The two agree on seeded raws over chains, products
    and divisor lattices, and on raws whose tip is below the top, where c is
    a proper constant.  ``TestGenerationOracle`` holds them together on the
    C4 listed with its identity third."""

    @pytest.mark.parametrize("kind", ["chain2-6", "product2x3", "divisors12", "chain1"])
    def test_seeded_raws(self, kind):
        spec = InstanceSpec(seed=7, lattice_kind=kind)
        for trial in range(25):
            for raw in build_instance(spec, trial).raws:
                assert generate_oracle(raw) == meet_over_walk(raw), (trial, raw.values())

    @pytest.mark.parametrize("kind", ["chain4", "product2x3", "divisors12"])
    def test_tips_below_the_top(self, kind):
        spec = InstanceSpec(seed=11, lattice_kind=kind)
        proper = 0
        for trial in range(10):
            inst = build_instance(spec, trial)
            lat = inst.lattice
            for a in lat.elements:
                raw = intersection_of([inst.raws[0], constant(inst.group, lat, a)])
                proper += raw.tip() != lat.top
                assert generate_oracle(raw) == meet_over_walk(raw), (trial, a, raw.values())
        assert proper


class TestElementSearch:
    """The element walk, the reference for the level-map enumeration and the
    oracle, against the product space filtered by the pointwise test:
    unbounded in lexicographic order, and between seeded bounds in the order
    its docstring states."""

    @pytest.mark.parametrize(
        "kind, names",
        [
            ("chain2", ["C1", "C2", "C3", "V4", "C4", "C5", "C6", "C7", "C8", "Q8", "D8"]),
            ("chain3", ["C1", "C2", "C3", "V4", "C4", "C5", "C6"]),
            ("product2x2", ["C1", "C2", "C3", "V4", "C4", "C5", "C6"]),
        ],
    )
    def test_yields_the_filtered_product_space_in_order(self, kind, names):
        lat = make_lattice(kind)
        for name in names:
            group = builtin_group(name)
            found = list(search_l_subgroup_values(group, lat, lower=None, upper=None))
            expected = [
                vals for vals in cartesian(range(len(lat)), repeat=len(group))
                if lsets._pointwise_is_l_subgroup(LSubset(group, lat, vals))
            ]
            assert found == expected, name

    @staticmethod
    def draw_bounds(rng, n, lat):
        # each side is left open in one draw of three; a drawn lower bound
        # lies under the upper one at about half of the elements
        leq, nl, bottom = lat._leq, len(lat), lat.index(lat.bottom)
        upper = [rng.randrange(nl) for _ in range(n)]
        lower = [rng.choice([v for v in range(nl) if leq[v][u]]) if rng.random() < 0.5 else bottom for u in upper]
        side = rng.randrange(3)
        return (None if side == 1 else tuple(lower)), (None if side == 2 else tuple(upper))

    @pytest.mark.parametrize("kind", ["chain3", "product2x2"])
    @pytest.mark.parametrize(
        "group", [builtin_group(name) for name in ("C5", "C6", "Q8", "D8")] + [c4_identity_third()],
        ids=["C5", "C6", "Q8", "D8", "C4 identity third"],
    )
    def test_bounded_walk_yields_the_filtered_box_in_order(self, kind, group):
        # the product space between the bounds, filtered by the pointwise
        # test, in the documented order: by the identity's value first, then
        # by element order (plain lexicographic order when e is element 0)
        lat = make_lattice(kind)
        leq, n, e = lat._leq, len(group), group.identity_index
        rng = random.Random(f"{kind} {group.elements}")
        for _ in range(12):
            lower, upper = self.draw_bounds(rng, n, lat)
            lo = lower or (lat.index(lat.bottom),) * n
            hi = upper or (lat.index(lat.top),) * n
            box = cartesian(*([v for v in range(len(lat)) if leq[lo[i]][v] and leq[v][hi[i]]] for i in range(n)))
            expected = sorted(
                (vals for vals in box if lsets._pointwise_is_l_subgroup(LSubset(group, lat, vals))),
                key=lambda vals: (vals[e], vals),
            )
            found = list(search_l_subgroup_values(group, lat, lower=lower, upper=upper))
            assert found == expected, (lower, upper)


class TestDiamondGeneration:
    def test_join_of_incomparables_can_exceed_levelwise_closure(self):
        # values p and q on a three-cycle join to the top at every generator,
        # so the generated subgroup tops out strictly above each level closure
        g = builtin_group("C3")
        lat = diamond()
        eta = l_subset(g, lat, {"e": "1", "g": "p", "g2": "q"})
        gen = generate(eta)
        assert gen.value("g2") == "1"
        assert subgroup_closure(g, eta.level("1")) == {"e"}
        assert not has_sup_property(eta)
        assert generate_oracle(eta) == gen


class TestGenerationTransport:
    @staticmethod
    def _parity(d8):
        c2 = builtin_group("C2")
        return validate_hom(d8, c2, {x: ("g" if x.startswith("s") else "e") for x in d8.elements})

    def test_levels_of_generated_match_generated_levels(self, d8_case):
        # chain values always carry the sup-property, so the level sets of
        # the generated subgroup are the closures of the level sets
        rng = random.Random(23)
        for _ in range(10):
            raw = random_l_subset_below(rng, d8_case["mu"])
            assert has_sup_property(raw)
            gen = generate(raw)
            for b in d8_case["lattice"].down_set(raw.tip()):
                assert gen.level(b) == subgroup_closure(d8_case["group"], raw.level(b))

    def test_generation_commutes_with_image(self, d8_case):
        f = self._parity(d8_case["group"])
        rng = random.Random(29)
        for _ in range(10):
            raw = random_l_subset_below(rng, d8_case["mu"])
            assert generate(pushforward(f, raw)) == pushforward(f, generate(raw))

    def test_generation_commutes_with_preimage(self, d8_case, five_chain):
        f = self._parity(d8_case["group"])
        c2 = builtin_group("C2")
        for values in [{"e": "1", "g": "b"}, {"e": "c", "g": "c"}, {"e": "b", "g": "0"}]:
            theta = l_subset(c2, five_chain, values)
            assert generate(pullback(f, theta)) == pullback(f, generate(theta))


class TestTransport:
    def test_identity(self, d8_case):
        from lsubgroups import identity_hom

        f = identity_hom(d8_case["group"])
        assert pushforward(f, d8_case["mu"]) == d8_case["mu"]
        assert pullback(f, d8_case["mu"]) == d8_case["mu"]

    def test_non_surjective_image_is_bottom_off_range(self, five_chain):
        c2 = builtin_group("C2")
        c4 = builtin_group("C4")
        f = validate_hom(c2, c4, {"e": "e", "g": "g2"})
        mu = l_subset(c2, five_chain, {"e": "1", "g": "b"})
        image = pushforward(f, mu)
        assert image.value("g2") == "b"
        assert image.value("g") == "0"
        assert image.value("g3") == "0"

    def test_surjective_round_trip(self, five_chain):
        d8 = builtin_group("D8")
        c2 = builtin_group("C2")
        f = validate_hom(d8, c2, {x: ("g" if x.startswith("s") else "e") for x in d8.elements})
        nu = l_subset(c2, five_chain, {"e": "1", "g": "b"})
        assert pushforward(f, pullback(f, nu)) == nu

    def test_injective_round_trip(self, five_chain):
        c2 = builtin_group("C2")
        c4 = builtin_group("C4")
        f = validate_hom(c2, c4, {"e": "e", "g": "g2"})
        mu = l_subset(c2, five_chain, {"e": "c", "g": "a"})
        assert pullback(f, pushforward(f, mu)) == mu

    def test_adjunction(self, d8_case, five_chain):
        d8 = d8_case["group"]
        c2 = builtin_group("C2")
        f = validate_hom(d8, c2, {x: ("g" if x.startswith("s") else "e") for x in d8.elements})
        mu = d8_case["eta1"]
        for nu_vals in [{"e": "1", "g": "a"}, {"e": "b", "g": "b"}, {"e": "c", "g": "0"}]:
            nu = l_subset(c2, five_chain, nu_vals)
            assert contains(nu, pushforward(f, mu)) == contains(pullback(f, nu), mu)

    def test_index_transport_matches_the_name_formula(self):
        # f(mu)(y) is the join of mu over the fibre of y, f⁻¹(nu)(x) = nu(f(x))
        checked = 0
        for seed in range(20):
            inst = build_instance(InstanceSpec(seed))
            lat, rng = inst.lattice, random.Random(seed)
            for f in [*inst.homs, inst.iso]:
                assert f.image_indices == tuple(f.target.index(f(x)) for x in f.source.elements)
                for mu in inst.raws:
                    fibres = {y: [mu.value(x) for x in f.preimage(y)] for y in f.target.elements}
                    assert pushforward(f, mu).values() == {y: lat.join_set(v) for y, v in fibres.items()}
                nu = l_subset(f.target, lat, {y: rng.choice(lat.elements) for y in f.target.elements})
                assert pullback(f, nu).values() == {x: nu.value(f(x)) for x in f.source.elements}
                checked += 1
        assert checked >= 80

    def test_carrier_checks(self, d8_case, q8_maximal_case):
        from lsubgroups import identity_hom

        f = identity_hom(d8_case["group"])
        with pytest.raises(MismatchedCarriersError):
            pushforward(f, q8_maximal_case["mu"])


class TestPoints:
    def test_adjoin_changes_only_the_point(self, d8_case):
        eta = d8_case["eta1"]
        bumped = adjoin_point(eta, LPoint("r2", "c"))
        for x in d8_case["group"].elements:
            if x != "r2":
                assert bumped.value(x) == eta.value(x)
        assert bumped.value("r2") == "c"

    def test_bottom_point_always_member(self, d8_case):
        for x in d8_case["group"].elements:
            assert point_in(LPoint(x, "0"), d8_case["mu"])

    def test_membership_thresholds(self, d8_case):
        eta1 = d8_case["eta1"]
        assert point_in(LPoint("r2", "b"), eta1)
        assert not point_in(LPoint("r2", "c"), eta1)


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda: union_of([]), "union of an empty family is undefined"),
        (lambda: intersection_of([]), "intersection of an empty family is undefined"),
        (lambda: pullback(
            validate_hom(builtin_group("C2"), builtin_group("C2"), {"e": "e", "g": "g"}),
            constant(builtin_group("C3"), chain_lattice(["0", "1"]), "1"),
        ), "pullback needs an L-subset over the target group"),
    ], ids=["empty union", "empty intersection", "pullback over the wrong group"])
    def test_type_and_message(self, call, message):
        with pytest.raises(MismatchedCarriersError) as refused:
            call()
        assert (type(refused.value), str(refused.value)) == (MismatchedCarriersError, message)
