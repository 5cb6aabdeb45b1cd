"""Frattini L-subgroups, non-generators, level comparisons, normality."""
import importlib
import random
from itertools import product as cartesian

import pytest

from lsubgroups import (
    DEFAULT_BUDGET,
    HypothesisNotMetError,
    InstanceSpec,
    InstanceTooLargeError,
    LPoint,
    LSubset,
    MaximalityVerdict,
    NotAnLSubgroupError,
    UnknownElementError,
    adjoin_point,
    all_subgroups,
    build_instance,
    builtin_group,
    chain_lattice,
    characteristic,
    constant,
    contains,
    enumerate_l_subgroups,
    frattini,
    frattini_classical,
    frattini_level_compare,
    generate,
    identity_hom,
    inner_automorphism,
    intersection_of,
    is_l_subgroup,
    is_l_subgroup_of,
    is_maximal,
    is_non_generator,
    is_normal_in,
    is_normal_subgroup,
    is_normal_in_group,
    l_subset,
    make_lattice,
    maximal_avoiding,
    maximal_l_subgroups,
    non_generator_points,
    non_generator_subgroup,
    point_in,
    pushforward,
    random_l_subset_below,
    subgroup_closure,
    validate_hom,
    validate_lattice,
)
from lsubgroups import harness
from lsubgroups.errors import LPointNotInParentError, MismatchedCarriersError
from lsubgroups.harness import PROPERTIES, SKIPPED, Instance, PropertyFailure
from lsubgroups.maximal import _coatom_index

from conftest import (
    D8_PHI,
    F20,
    S4,
    SEEDED_SPECS,
    elementary_abelian,
    level_compare_by_names,
    permutation_group,
    s4_chain_parent,
)

# the package exports the function ``frattini`` under the module's name
frattini_module = importlib.import_module("lsubgroups.frattini")


def raw_l_subsets_below(mu):
    """Every L-subset under mu, with no subgroup requirement."""
    group, lat = mu.group, mu.lattice
    domains = [lat.down_set(mu.value(x)) for x in group.elements]
    for values in cartesian(*domains):
        yield LSubset(group, lat, tuple(lat.index(v) for v in values))


def is_non_generator_by_raw_definition(point, mu):
    """Oracle that quantifies over all L-subsets of mu, not only L(mu)."""
    for eta in raw_l_subsets_below(mu):
        if generate(adjoin_point(eta, point)) == mu and generate(eta) != mu:
            return False
    return True


def constant_obstructed_by_pairwise_scan(mu):
    """Oracle: some constant in L(mu) has nothing strictly between it and mu."""
    subgroups = enumerate_l_subgroups(mu)
    for kappa in subgroups:
        if not kappa.is_constant() or kappa == mu:
            continue
        blocked = not any(
            nu != kappa and nu != mu and contains(nu, kappa) and contains(mu, nu)
            for nu in subgroups
        )
        if blocked:
            return True
    return False


def maximal_avoiding_by_enumeration(mu, theta, point):
    """Oracle: the members of L(mu) that contain theta and miss the point,
    kept when no other such member lies above them, in canonical order."""
    candidates = [
        nu
        for nu in enumerate_l_subgroups(mu)
        if contains(nu, theta) and not point_in(point, nu)
    ]
    return tuple(
        nu
        for nu in candidates
        if not any(other != nu and contains(other, nu) for other in candidates)
    )


def rank(s):
    """Summed down-set sizes of the values: grows strictly along containment."""
    return sum(len(s.lattice.down_set(s.value(x))) for x in s.group.elements)


def by_rank(mu):
    """L(mu) in the stable order of decreasing rank: anything strictly above a
    member comes before it, and canonical order breaks ties."""
    return sorted(enumerate_l_subgroups(mu), key=rank, reverse=True)


def coatoms_largest_first(mu):
    """Members of L(mu) with nothing strictly between them and mu, in the
    stable order of decreasing rank."""
    members = enumerate_l_subgroups(mu)
    coatoms = [
        c
        for c in members
        if c != mu and not any(nu != c and nu != mu and contains(nu, c) for nu in members)
    ]
    return sorted(coatoms, key=rank, reverse=True)


def definition_verdict_by_scan(eta, mu, scan):
    """Oracle: the first member of ``scan = by_rank(mu)`` strictly between eta
    and mu, which is containment-maximal among all such members."""
    for theta in scan:
        if theta != eta and theta != mu and contains(theta, eta) and contains(mu, theta):
            return MaximalityVerdict(False, "strictly_between", witness_between=theta)
    return MaximalityVerdict(True)


def is_non_generator_by_scan(point, mu, scan):
    """Oracle: the first member of ``scan = by_rank(mu)`` other than mu that
    generates mu once the point is adjoined; a bottom point is always a
    non-generator."""
    if point.height == mu.lattice.bottom:
        return True, None
    for eta in scan:
        if eta != mu and generate(adjoin_point(eta, point)) == mu:
            return False, eta
    return True, None


def phi_by_intersection(mu):
    """Oracle: the pointwise meet of the maximal L-subgroups, mu when there are none."""
    maximals = maximal_l_subgroups(mu)
    return intersection_of(maximals) if maximals else mu


def nongen_by_intersection(mu):
    """Oracle: the pointwise meet of every coatom of L(mu), mu when there are none."""
    coatoms = [c for _, c, _ in _coatom_index(mu, DEFAULT_BUDGET)]
    return intersection_of(coatoms) if coatoms else mu


# F20 and S4 each have a cyclic H of order 4 that is not normal (<x ↦ 2x>
# and <(0 1 2 3)>); the count of maximal L-subgroups of c4_parent over each
C4_CASES = {"F20": (F20, "02413", 7), "S4": (S4, "1230", 9)}


def c4_parent(generators, h):
    """Over the 2x2 product: (1,1) on H = <h> and (1,0) elsewhere."""
    group = permutation_group(*generators)
    inside = subgroup_closure(group, [h])
    values = {x: "(1,1)" if x in inside else "(1,0)" for x in group.elements}
    return l_subset(group, make_lattice("product2x2"), values)


def nongen_by_name_fold(mu):
    """Oracle: the join of the non-generator points, folded by element and lattice names."""
    lat, tops = mu.lattice, {}
    for p in non_generator_points(mu):
        tops[p.point] = lat.join(tops.get(p.point, lat.bottom), p.height)
    return l_subset(mu.group, lat, tops)


class TestWorkedFrattini:
    def test_phi_table(self, d8_case):
        report = frattini(d8_case["mu"])
        assert report.phi == d8_case["phi"]
        assert report.maximal_count == 4
        assert not report.used_fallback
        assert report.equality_holds
        assert not report.constant_obstructed

    def test_document_shape(self, d8_case):
        doc = frattini(d8_case["mu"]).as_document()
        assert doc["phi"]["e"] == "c"
        assert doc["lambda"] == doc["phi"]
        assert doc["maximal_count"] == 4

    def test_document_keys_and_values(self, d8_case):
        assert frattini(d8_case["mu"]).as_document() == {
            "phi": D8_PHI,
            "lambda": D8_PHI,
            "maximal_count": 4,
            "used_fallback": False,
            "equality_holds": True,
            "constant_obstructed": False,
        }

    def test_report_is_an_immutable_hashable_record(self, d8_case):
        report = frattini(d8_case["mu"])
        assert hash(report) == hash(frattini(d8_case["mu"], budget=DEFAULT_BUDGET - 1))
        with pytest.raises(AttributeError):
            report.maximal_count = 5
        assert repr(report).startswith("FrattiniReport(phi=LSubset(")

    def test_phi_below_every_maximal(self, q8_maximal_case):
        from lsubgroups import maximal_l_subgroups

        mu = q8_maximal_case["mu"]
        report = frattini(mu)
        for m in maximal_l_subgroups(mu):
            assert contains(m, report.phi)
        assert contains(q8_maximal_case["eta"], report.phi)

    def test_trivial_group_falls_back(self, five_chain):
        g = builtin_group("C1")
        mu = constant(g, five_chain, "1")
        report = frattini(mu)
        assert report.used_fallback
        assert report.phi == mu


class TestNonGenerators:
    def test_b_at_r2_is_non_generator(self, d8_case):
        ok, witness = is_non_generator(LPoint("r2", "b"), d8_case["mu"])
        assert ok and witness is None

    def test_c_at_r2_is_not_with_the_expected_witness(self, d8_case):
        ok, witness = is_non_generator(LPoint("r2", "c"), d8_case["mu"])
        assert not ok
        assert witness == d8_case["eta1"]

    def test_bottom_points_always_qualify(self, d8_case):
        for x in d8_case["group"].elements:
            ok, _ = is_non_generator(LPoint(x, "0"), d8_case["mu"])
            assert ok

    def test_point_must_lie_in_parent(self, d8_case):
        with pytest.raises(LPointNotInParentError):
            is_non_generator(LPoint("r", "c"), d8_case["mu"])

    def test_parent_must_be_an_l_subgroup_at_every_height(self, d8_case):
        # the level at 1 is {e, r}, not a subgroup: a bottom point is refused
        # like any other, as frattini and non_generator_points refuse the parent
        bad = l_subset(d8_case["group"], chain_lattice(["0", "a", "1"]), {
            "e": "1", "r": "1", "r2": "0", "r3": "0", "s": "0", "sr": "0", "sr2": "0", "sr3": "0",
        })
        for height in ("0", "a"):
            with pytest.raises(NotAnLSubgroupError):
                is_non_generator(LPoint("r", height), bad)

    def test_lambda_values(self, d8_case):
        lam = non_generator_subgroup(d8_case["mu"])
        assert lam.value("r2") == "b"
        assert lam == d8_case["phi"]

    def test_reduction_to_l_subgroups_matches_raw_definition(self):
        # tiny instances where all of L^mu can be swept
        lat = chain_lattice(["0", "m", "1"])
        for group_name, table in [
            ("C2", {"e": "1", "g": "m"}),
            ("C2", {"e": "1", "g": "1"}),
            ("C3", {"e": "1", "g": "m", "g2": "m"}),
        ]:
            g = builtin_group(group_name)
            mu = l_subset(g, lat, table)
            for x in g.elements:
                for a in lat.down_set(mu.value(x)):
                    point = LPoint(x, a)
                    reduced, _ = is_non_generator(point, mu)
                    assert reduced == is_non_generator_by_raw_definition(point, mu)


class TestCoatomsMatchTheReferenceSearch:
    """The closed-form coatoms (level cuts) and the witnesses read off them
    against scans of the whole of L(mu): the pairwise coatom definition, the
    rank-ordered definitional scan of ``is_maximal``, the generate-based
    non-generator scan and the pairwise obstruction scan, on seeded
    instances over chains, product and divisor lattices, dense subgroup
    chains and constant parents."""

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec(0),
            InstanceSpec(
                1, lattice_kind="product2x2|product2x3|divisors12|divisors30|chain1|chain2"
            ),
            InstanceSpec(7, subgroup_density=0.9),
            InstanceSpec(3, subgroup_density=0.0),
        ],
        ids=["chains", "products", "dense", "constants"],
    )
    def test_seeded_instances(self, spec):
        for trial in range(80):
            mu = build_instance(spec, trial).mu
            scan = by_rank(mu)
            coatoms = coatoms_largest_first(mu)
            cuts = _coatom_index(mu, DEFAULT_BUDGET)
            assert tuple(c for _, c, _ in cuts) == tuple(sorted(coatoms, key=LSubset.value_indices))
            points = non_generator_points(mu)
            for x in mu.group.elements:
                for a in mu.lattice.down_set(mu.value(x)):
                    point = LPoint(x, a)
                    ok, witness = is_non_generator(point, mu)
                    assert (ok, witness) == is_non_generator_by_scan(point, mu, scan)
                    assert (point in points) == ok
                    if not ok:
                        assert witness == next(c for c in coatoms if not point_in(point, c))
            for eta in enumerate_l_subgroups(mu):
                if eta.is_constant() or eta == mu:
                    continue
                expected = definition_verdict_by_scan(eta, mu, scan)
                verdict = is_maximal(eta, mu)
                assert verdict == expected._replace(witness_point=verdict.witness_point)
                assert (verdict.witness_point is None) == verdict.maximal
            assert frattini(mu).constant_obstructed == constant_obstructed_by_pairwise_scan(mu)
            assert frattini(mu).constant_obstructed == any(c.is_constant() for c in coatoms)


class TestMeetsMatchTheIntersections:
    """phi and the non-generator subgroup, each one AND of coatom codes,
    against the pointwise meets of the decoded coatoms and against the
    name-level join of the non-generator points."""

    @staticmethod
    def check(mu):
        report = frattini(mu)
        assert report.phi == phi_by_intersection(mu)
        nongen = non_generator_subgroup(mu)
        assert nongen == report.nongen == nongen_by_intersection(mu) == nongen_by_name_fold(mu)
        # the report splits the coatoms itself; the public functions agree
        maximals = maximal_l_subgroups(mu)
        assert report.maximal_count == len(maximals)
        assert report.used_fallback == (not maximals)
        assert report.constant_obstructed == any(c.is_constant() for _, c, _ in _coatom_index(mu, DEFAULT_BUDGET))
        return report

    @pytest.mark.parametrize(
        "spec",
        [
            InstanceSpec(0),
            InstanceSpec(1, lattice_kind="product2x3|divisors30|chain1"),
            InstanceSpec(3, subgroup_density=0.0),
            InstanceSpec(11, lattice_kind="chain16", group_kind="D8|Q8|C6|V4|C2"),
        ],
        ids=["chains", "products", "constants", "chain16"],
    )
    def test_seeded_parents(self, spec):
        seen = {"fallback": 0, "obstructed": 0, "maximal": 0}
        for trial in range(60):
            report = self.check(build_instance(spec, trial).mu)
            seen["fallback"] += report.used_fallback
            seen["obstructed"] += report.constant_obstructed
            seen["maximal"] += report.maximal_count > 0
        if spec.subgroup_density == 0.0:  # a constant parent over a non-trivial group has no constant coatom
            assert seen.pop("obstructed") == 0
        assert all(seen.values()), seen

    def test_wide_fields(self):
        # more than 8 join-irreducibles: a value's code spans two bytes
        lat = make_lattice("chain16")
        assert len(lat._irreducibles) > 8
        for name in ("D8", "Q8", "C6"):
            group = builtin_group(name)
            for mu in (constant(group, lat, "1"), characteristic(group, lat, [group.identity])):
                self.check(mu)

    @pytest.mark.parametrize("group, kind", [
        ("D8", "chain5"), ("Q8", "product2x3"), ("C6", "divisors30"), ("V4", "chain16"), ("C1", "chain3"),
    ])
    def test_constant_tops(self, group, kind):
        lat = make_lattice(kind)
        report = self.check(constant(builtin_group(group), lat, lat.top))
        assert report.used_fallback == (group == "C1")

    @pytest.mark.parametrize("group, lattice, mu", [
        ("D8", ["0", "1"], {"e": "1"}),
        ("C6", ["0", "1"], {"e": "1"}),
        ("C2", ["0", "m", "1"], {"e": "1", "g": "m"}),
    ], ids=["d8_fallback", "c6_fallback", "c2_obstructed"])
    def test_fallback_and_obstructed(self, group, lattice, mu):
        g, lat = builtin_group(group), chain_lattice(lattice)
        report = self.check(l_subset(g, lat, {x: mu.get(x, "0") for x in g.elements}))
        assert report.constant_obstructed and not report.equality_holds

    def test_frattini_reads_no_intersection_of(self):
        assert "intersection_of" not in vars(frattini_module)


class TestChainEqualityBoundary:
    """The non-generator subgroup can sit strictly below phi on instances
    where a constant member of L(mu) has nothing strictly between it and mu;
    these pin the exact behaviour on the two smallest such cases, both over
    chains.  The boundary is the same over every finite distributive
    lattice: unobstructed, both sides are meets of the same coatoms, which
    the harness checks over products and divisor lattices too."""

    def test_characteristic_of_trivial_subgroup(self):
        lat = chain_lattice(["0", "1"])
        d8 = builtin_group("D8")
        mu = characteristic(d8, lat, ["e"])
        report = frattini(mu)
        assert report.used_fallback and report.phi == mu
        assert report.constant_obstructed
        assert not report.equality_holds
        assert report.nongen == constant(d8, lat, "0")
        ok, witness = is_non_generator(LPoint("e", "1"), mu)
        assert not ok and witness == constant(d8, lat, "0")

    def test_near_trivial_shape_with_a_maximal_present(self):
        lat = chain_lattice(["0", "m", "1"])
        c2 = builtin_group("C2")
        mu = l_subset(c2, lat, {"e": "1", "g": "m"})
        report = frattini(mu)
        assert report.maximal_count == 1
        assert report.phi == l_subset(c2, lat, {"e": "1", "g": "0"})
        assert report.nongen == l_subset(c2, lat, {"e": "m", "g": "0"})
        assert report.constant_obstructed
        assert not report.equality_holds
        assert contains(report.phi, report.nongen)
        # the identity at the top lies in phi but is not a non-generator
        point = LPoint("e", "1")
        assert point not in non_generator_points(mu)
        ok, witness = is_non_generator(point, mu)
        assert not ok and witness == l_subset(c2, lat, {"e": "m", "g": "m"})
        with pytest.raises(TypeError):
            is_non_generator(point, mu, method="chain")

    def test_worked_instances_are_unobstructed(self, d8_case, q8_maximal_case):
        assert not frattini(d8_case["mu"]).constant_obstructed
        assert not frattini(q8_maximal_case["mu"]).constant_obstructed


def inclusion_report(mu):
    """The inclusion, the equality and the obstruction flag, read off the ``frattini`` report."""
    report = frattini(mu)
    return {
        "inclusion": contains(report.phi, report.nongen),
        "equality": report.equality_holds,
        "constant_obstructed": report.constant_obstructed,
    }


class TestInclusionReport:
    def test_worked_instance(self, d8_case):
        result = inclusion_report(d8_case["mu"])
        assert result == {"inclusion": True, "equality": True, "constant_obstructed": False}

    def test_q8_instance(self, q8_maximal_case):
        result = inclusion_report(q8_maximal_case["mu"])
        assert result["inclusion"] and result["equality"]

    def test_obstructed_instance_reports_honestly(self):
        lat = chain_lattice(["0", "1"])
        mu = characteristic(builtin_group("C6"), lat, ["e"])
        result = inclusion_report(mu)
        assert result["inclusion"]
        assert not result["equality"]
        assert result["constant_obstructed"]


class TestLevelCompare:
    def test_worked_instance_at_b(self, d8_case):
        result = frattini_level_compare(d8_case["mu"], "b")
        assert result["forward_inclusion"] is True
        assert result["reverse_inclusion"] is False
        assert result["tip_condition_holds"] is False
        assert result["phi_level"] == {"e", "r2"}
        assert result["classical"] == {"e"}

    def test_tail_level(self, d8_case):
        result = frattini_level_compare(d8_case["mu"], "a")
        assert result["forward_inclusion"] is True
        assert result["level_attained"] is True

    def test_with_tip_condition_satisfied(self, q8_maximal_case):
        mu = q8_maximal_case["mu"]
        for b in sorted(mu.image()):
            result = frattini_level_compare(mu, b)
            assert result["tip_condition_holds"] is True
            assert result["forward_inclusion"] is True

    def test_bottom_level_compares_against_whole_group(self, d8_case):
        # the bottom is not attained here, but the comparison still makes
        # sense: the classical Frattini subgroup of the full group sits
        # inside the (full) bottom level of phi
        result = frattini_level_compare(d8_case["mu"], "0")
        assert result["level_attained"] is False
        assert result["classical"] == {"e", "r2"}
        assert result["forward_inclusion"] is True

    def test_unknown_level_rejected(self, d8_case):
        with pytest.raises(UnknownElementError):
            frattini_level_compare(d8_case["mu"], "zz")

    def test_needs_a_chain(self):
        lat = validate_lattice(
            ["0", "p", "q", "1"], [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]
        )
        mu = constant(builtin_group("C2"), lat, "1")
        with pytest.raises(HypothesisNotMetError):
            frattini_level_compare(mu, "1")

    @pytest.mark.parametrize("name", C4_CASES)
    def test_off_chains_the_inclusion_fails(self, name):
        # why the refusal stays: phi keeps the tip and (1,1) is attained, yet
        # the classical Frattini subgroup of the level escapes phi's level
        generators, h, maximal_count = C4_CASES[name]
        mu = c4_parent(generators, h)
        group, phi = mu.group, frattini(mu).phi
        assert is_l_subgroup(mu)
        assert len(maximal_l_subgroups(mu)) == maximal_count
        assert phi.value(group.identity) == mu.value(group.identity) == "(1,1)"
        assert len(frattini_classical(group, mu.level("(1,1)"))) == 2
        assert phi.level("(1,1)") == {group.identity}
        with pytest.raises(HypothesisNotMetError, match="stated over chain lattices"):
            frattini_level_compare(mu, "(1,1)")

    def test_trivial_group(self, five_chain):
        g = builtin_group("C1")
        mu = constant(g, five_chain, "1")
        result = frattini_level_compare(mu, "1")
        assert result["forward_inclusion"] and result["reverse_inclusion"]

    def test_matches_the_names_reference_on_seeded_chains(self):
        # the comparison reads both levels as bitmasks; every answer at
        # every level is held to the names reference
        rows = []
        for seed in range(40):
            mu = build_instance(InstanceSpec(seed, lattice_kind="chain2-6")).mu
            for b in mu.lattice.elements:
                result = frattini_level_compare(mu, b)
                assert result == level_compare_by_names(mu, b)
                rows.append(result)
        assert {r["reverse_inclusion"] for r in rows} == {True, False}
        assert {r["tip_condition_holds"] for r in rows} == {True, False}
        assert {r["level_attained"] for r in rows} == {True, False}

    def test_chain_valued_s4_parent(self):
        mu = s4_chain_parent()
        for b in mu.lattice.elements:
            assert frattini_level_compare(mu, b) == level_compare_by_names(mu, b)

    def test_s6_parent(self, s6_parent):
        mu, e = s6_parent, s6_parent.group.identity
        results = {b: frattini_level_compare(mu, b) for b in mu.lattice.elements}
        assert results == {b: level_compare_by_names(mu, b) for b in mu.lattice.elements}
        # phi is e at 1 and everything else at 0: the Frattini subgroups of
        # S6, A6 and {e} are all {e}
        assert [r["classical"] for r in results.values()] == [{e}, {e}, {e}]
        assert [len(r["phi_level"]) for r in results.values()] == [720, 1, 0]
        assert [r["forward_inclusion"] for r in results.values()] == [True, True, False]
        assert [r["reverse_inclusion"] for r in results.values()] == [False, True, True]
        assert not results["2"]["tip_condition_holds"]

    @pytest.mark.parametrize("chain, values, b, error", [
        (False, {"e": "0", "g": "1"}, "zz", HypothesisNotMetError),
        (True, {"e": "0", "g": "1"}, "zz", UnknownElementError),
        (True, {"e": "0", "g": "1"}, "1", NotAnLSubgroupError),
    ], ids=["non_chain_first", "unknown_level_next", "then_not_an_l_subgroup"])
    def test_refusal_order(self, chain, values, b, error):
        # a lattice that is not a chain is refused before the level is
        # looked up, and an unknown level before the parent is checked
        lat = chain_lattice(["0", "1"]) if chain else validate_lattice(
            ["0", "p", "q", "1"], [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]
        )
        mu = l_subset(builtin_group("C2"), lat, values)
        with pytest.raises(error):
            frattini_level_compare(mu, b)


def conjugation_closure(mu, group_name):
    """The outcome of ``nongenerator_conjugation_closure`` on mu: None, SKIPPED,
    or the detail of its failure."""
    try:
        return PROPERTIES["nongenerator_conjugation_closure"](Instance.pinned(mu, mu, group_name))
    except PropertyFailure as failure:
        return failure.detail


class TestConjugationClosure:
    def test_worked_instance(self, d8_case):
        assert conjugation_closure(d8_case["mu"], "D8") is None

    def test_abelian_parent(self, five_chain):
        g = builtin_group("C6")
        mu = l_subset(g, five_chain, {"e": "1", "g3": "b", "g": "a", "g2": "a",
                                      "g4": "a", "g5": "a"})
        assert conjugation_closure(mu, "C6") is None

    def test_q8_instance(self, q8_maximal_case):
        assert conjugation_closure(q8_maximal_case["mu"], "Q8") is None

    def test_first_counterexample_in_group_then_lattice_order(self, d8_case, monkeypatch):
        # a lambda that conjugation does not preserve, b at sr3, s and r: the
        # property takes the conjugators in group order and, for each, the
        # elements in group order, so conjugation by r moves s first
        mu = d8_case["mu"]
        inject_nongen(monkeypatch, l_subset(mu.group, mu.lattice, {
            x: "b" if x in ("sr3", "s", "r") else "0" for x in mu.group.elements
        }))
        assert conjugation_closure(mu, "D8") == {
            "reason": "conjugation moved a non-generator outside the set", "conjugator": "r", "element": "s",
        }

    def test_requires_normal_parent(self, five_chain):
        d8 = builtin_group("D8")
        mu = characteristic(d8, five_chain, ["e", "s"])
        assert not is_normal_in_group(mu)
        assert conjugation_closure(mu, "D8") == SKIPPED


def inject_nongen(monkeypatch, lam):
    """Make the ``frattini`` report that the closure property reads carry lam as its lambda."""
    monkeypatch.setattr(
        harness, "frattini",
        lambda mu, budget=DEFAULT_BUDGET: frattini(mu, budget)._replace(nongen=lam),
    )


def points_below(lam):
    lat = lam.lattice
    return frozenset(LPoint(x, a) for x, v in lam.values().items() for a in lat.down_set(v))


def conjugation_scan_by_names(mu, points):
    """Oracle: conjugation by each g, in group order, keeps the set of points
    below lambda; the first element x, in group order, whose points and those
    of gxg⁻¹ differ names the failure."""
    group, lat = mu.group, mu.lattice
    for g in group.elements:
        for x in group.elements:
            moved = group.conjugate(g, x)
            if any((LPoint(x, a) in points) != (LPoint(moved, a) in points) for a in lat.elements):
                return {"reason": "conjugation moved a non-generator outside the set", "conjugator": g, "element": x}
    return None


def is_abelian(group):
    return all(group.op(x, y) == group.op(y, x) for x in group.elements for y in group.elements)


class TestConjugationClosureMatchesTheNameScan:
    """The closure property reads lambda's value at each element as one byte
    and conjugates by table index; the scan over ``LPoint`` names stays here
    as its reference, on the non-generator points of seeded normal parents
    and on seeded lambdas put in their place, some closed under conjugation
    and some not, so that the first counterexample is compared too."""

    @staticmethod
    def normal_parents(spec, trials=40):
        for trial in range(trials):
            inst = build_instance(spec, trial)
            if is_normal_in_group(inst.mu):
                yield inst.mu, inst.group_name

    @SEEDED_SPECS
    def test_non_generator_points(self, spec):
        groups = set()
        for mu, name in self.normal_parents(spec):
            expected = conjugation_scan_by_names(mu, non_generator_points(mu))
            assert conjugation_closure(mu, name) == expected is None
            groups.add(mu.group)
        assert any(not is_abelian(group) for group in groups)

    @SEEDED_SPECS
    def test_seeded_point_sets(self, spec, monkeypatch):
        # a drawn lambda, its closure under conjugation (each value joined
        # over its conjugates) and that closure with one value lowered
        rng = random.Random(2026)
        seen = set()
        for mu, name in self.normal_parents(spec):
            group, lat = mu.group, mu.lattice
            for _ in range(4):
                drawn = random_l_subset_below(rng, mu)
                closed = {x: lat.join_set(drawn.value(group.conjugate(g, x)) for g in group.elements)
                          for x in group.elements}
                spoiled = dict(closed)
                raised = [x for x, v in closed.items() if v != lat.bottom]
                if raised:
                    x = rng.choice(raised)
                    spoiled[x] = rng.choice([a for a in lat.down_set(closed[x]) if a != closed[x]])
                for lam in (drawn, l_subset(group, lat, closed), l_subset(group, lat, spoiled)):
                    inject_nongen(monkeypatch, lam)
                    result = conjugation_closure(mu, name)
                    assert result == conjugation_scan_by_names(mu, points_below(lam))
                    seen.add(result is None)
        assert seen == {True, False}


def phi_is_normal(mu):
    """``frattini_normal_in_parent`` on mu, which must be normal in the group."""
    assert is_normal_in_group(mu)
    return is_normal_in(frattini(mu).phi, mu)


class TestFrattiniNormality:
    def test_worked_instance(self, d8_case):
        assert phi_is_normal(d8_case["mu"])

    def test_q8_instance(self, q8_maximal_case):
        assert phi_is_normal(q8_maximal_case["mu"])

    def test_trivial_instance(self, five_chain):
        mu = constant(builtin_group("C1"), five_chain, "1")
        assert phi_is_normal(mu)

    def test_holds_off_chains(self):
        lat = validate_lattice(
            ["0", "p", "q", "1"], [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")]
        )
        assert phi_is_normal(constant(builtin_group("C2"), lat, "1"))
        # a on a normal subgroup of S4 and b ≤ a elsewhere, over three lattices
        s4 = permutation_group(*S4)
        normals = [h for h in all_subgroups(s4) if is_normal_subgroup(s4, h, s4.elements)]
        parents = [
            l_subset(s4, lat, {x: a if x in h else b for x in s4.elements})
            for lat in map(make_lattice, ["product2x2", "product2x3", "divisors30"])
            for a in lat.elements
            for b in lat.down_set(a)
            for h in normals
        ]
        assert len(parents) == 216
        assert all(phi_is_normal(mu) for mu in parents)
        assert not is_normal_in_group(c4_parent(S4, "1230"))


def image_inclusion(f, mu):
    """``frattini_image_inclusion`` for f: f(phi(mu)) inside phi(f(mu))."""
    return contains(frattini(pushforward(f, mu)).phi, pushforward(f, frattini(mu).phi))


class TestFrattiniTransport:
    def test_identity_gives_equality(self, d8_case):
        f = identity_hom(d8_case["group"])
        assert pushforward(f, frattini(d8_case["mu"]).phi) == frattini(pushforward(f, d8_case["mu"])).phi

    def test_q8_relabeling(self, q8_maximal_case):
        g = q8_maximal_case["group"]
        swap = {"1": "1", "-1": "-1", "i": "j", "-i": "-j", "j": "i", "-j": "-i",
                "k": "-k", "-k": "k"}
        assert image_inclusion(validate_hom(g, g, swap), q8_maximal_case["mu"])

    def test_inner_automorphism(self, d8_case):
        assert image_inclusion(inner_automorphism(d8_case["group"], "sr"), d8_case["mu"])

    def test_requires_isomorphism(self, d8_case):
        # the property reports a transport map that is not an isomorphism
        d8 = d8_case["group"]
        c2 = builtin_group("C2")
        inst = Instance.pinned(d8_case["mu"], d8_case["mu"], "D8")
        prop = PROPERTIES["frattini_image_inclusion"]
        assert prop(inst) is None
        inst.iso = validate_hom(d8, c2, {x: ("g" if x.startswith("s") else "e") for x in d8.elements})
        with pytest.raises(PropertyFailure) as failure:
            prop(inst)
        assert failure.value.detail == {"reason": "the transport map is not an isomorphism"}


class TestMaximalAvoiding:
    def test_existence_and_constraints(self, d8_case):
        theta = d8_case["eta3"]
        point = LPoint("r", "a")
        assert not point_in(point, theta)
        tops = maximal_avoiding(d8_case["mu"], theta, point)
        assert tops
        for nu in tops:
            assert contains(nu, theta)
            assert not point_in(point, nu)

    def test_point_already_inside_is_rejected(self, d8_case):
        with pytest.raises(LPointNotInParentError):
            maximal_avoiding(d8_case["mu"], d8_case["mu"], LPoint("e", "1"))

    @pytest.mark.parametrize("theta", [
        lambda: constant(builtin_group("Q8"), make_lattice("chain3"), "0"),
        lambda: constant(builtin_group("D8"), chain_lattice(["0", "1", "a"]), "a"),
    ], ids=["another group", "the same names in another order"])
    def test_carriers_are_checked_first(self, theta):
        # Q8 has no element r, and over the reordered chain a_r lies inside
        # theta: either read of theta before the carrier check raises its own error
        mu = constant(builtin_group("D8"), make_lattice("chain3"), "1")
        with pytest.raises(MismatchedCarriersError, match="operands live over different carriers"):
            maximal_avoiding(mu, theta(), LPoint("r", "a"))

    def test_parent_that_is_not_an_l_subgroup(self):
        # the enumeration route accepted this parent (L(mu) holds only the
        # constant 0); the level cuts refuse it, as the coatoms do
        lat = chain_lattice(["0", "1"])
        c2 = builtin_group("C2")
        mu = l_subset(c2, lat, {"e": "0", "g": "1"})
        with pytest.raises(NotAnLSubgroupError, match="require mu to be an L-subgroup"):
            maximal_avoiding(mu, constant(c2, lat, "0"), LPoint("g", "1"))

    def test_budget_counts_the_cuts_it_builds(self, d8_case):
        # r2 at height b: b is the largest join-irreducible under b, and two
        # subgroups of the Klein level there, {e, s} and {e, sr2}, miss r2:
        # 2 cuts, the answer.  The four cuts at a by {e, s}, {e, sr2}, {e, sr}
        # and {e, sr3} lie under these two and are never built
        mu, theta = d8_case["mu"], constant(d8_case["group"], d8_case["lattice"], "0")
        point = LPoint("r2", "b")
        with pytest.raises(InstanceTooLargeError) as refused:
            maximal_avoiding(mu, theta, point, budget=1)
        assert str(refused.value) == "the level cuts of mu number 2, over the budget of 1"
        assert (refused.value.size, refused.value.budget) == (2, 1)
        tops = maximal_avoiding(mu, theta, point, budget=2)
        assert [sorted(nu.level("b")) for nu in tops] == [["e", "sr2"], ["e", "s"]]

    def test_constant_top_of_c2_5_over_divisors30(self):
        # |L(mu)| = 375^3, so no walk of L(mu) fits the default budget; each
        # atom j of the lattice cuts the group to one of the 16 hyperplanes of
        # C2^5 that miss x, and these 48 cuts are pairwise incomparable
        group, lat = elementary_abelian(5), make_lattice("divisors30")
        mu, theta = constant(group, lat, "30"), constant(group, lat, "1")
        x = group.elements[1]
        tops = maximal_avoiding(mu, theta, LPoint(x, "30"))
        assert len(tops) == 48
        cut_at = {"2": 0, "3": 0, "5": 0}
        for nu in tops:
            assert is_l_subgroup_of(nu, mu) and not point_in(LPoint(x, "30"), nu)
            cut = [j for j in cut_at if nu.level(j) != set(group.elements)]
            assert len(cut) == 1 and len(nu.level(cut[0])) == 16 and x not in nu.level(cut[0])
            cut_at[cut[0]] += 1
        assert cut_at == {"2": 16, "3": 16, "5": 16}


class TestMaximalAvoidingMatchesTheEnumeration:
    """The level cuts of ``maximal_avoiding`` against a filter of the whole
    of L(mu), in the same canonical order, for every missing point of three
    kinds of theta: a member of L(mu), a raw L-subset under mu that is not
    an L-subgroup, and an L-subset that is not below mu."""

    @pytest.mark.parametrize(
        "kind", ["chain2-6", "product2x2", "product2x3", "divisors12", "divisors30"]
    )
    def test_seeded_triples(self, kind):
        spec = InstanceSpec(5, lattice_kind=kind)
        rng = random.Random(f"avoiding:{kind}")
        seen = {"member": 0, "raw": 0, "raw, point in <theta>": 0, "not below": 0}
        for trial in range(60):
            mu = build_instance(spec, trial).mu
            group, lat = mu.group, mu.lattice
            thetas = {"member": rng.choice(enumerate_l_subgroups(mu))}
            raw = random_l_subset_below(rng, mu)
            if not is_l_subgroup(raw):
                thetas["raw"] = raw
            wild = LSubset(group, lat, tuple(rng.randrange(len(lat)) for _ in group.elements))
            if not contains(mu, wild):
                thetas["not below"] = wild
            for label, theta in thetas.items():
                spanned = generate(theta)
                for x in group.elements:
                    for a in lat.down_set(mu.value(x)):
                        point = LPoint(x, a)
                        if point_in(point, theta):
                            continue
                        tops = maximal_avoiding(mu, theta, point)
                        assert tops == maximal_avoiding_by_enumeration(mu, theta, point)
                        below = label != "not below"
                        assert bool(tops) == (below and not point_in(point, spanned))
                        seen[label] += 1
                        seen["raw, point in <theta>"] += label == "raw" and not tops
        assert all(seen.values()), seen


def test_non_generator_points_cover_all_heights(d8_case):
    mu = d8_case["mu"]
    points = non_generator_points(mu)
    lam = non_generator_subgroup(mu)
    for x in mu.group.elements:
        heights = [p.height for p in points if p.point == x]
        assert mu.lattice.join_set(heights) == lam.value(x)


def _subgroup_es_of_d8():
    """The non-normal L-subgroup of D8 that is the characteristic map of {e, s}."""
    return characteristic(builtin_group("D8"), chain_lattice(["0", "1"]), {"e", "s"})


class TestRefusals:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: maximal_avoiding(_subgroup_es_of_d8(), _subgroup_es_of_d8(), LPoint("r", "1")),
         LPointNotInParentError, "LPoint(point='r', height='1') is not a point of the parent"),
    ], ids=["point outside mu"])
    def test_type_and_message(self, call, error, message):
        with pytest.raises(error) as refused:
            call()
        assert (type(refused.value), str(refused.value)) == (error, message)
