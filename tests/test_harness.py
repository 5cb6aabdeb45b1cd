"""Instance generation, the theorem suite, and the counterexample search."""
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsubgroups import (
    InstanceSpec,
    builtin_group,
    build_instance,
    characteristic,
    chain_lattice,
    contains,
    frattini,
    frattini_classical,
    generate,
    is_l_subgroup_of,
    make_lattice,
    maximal_l_subgroups,
    maximal_subgroups_of,
    random_l_subgroup,
    random_l_subset_below,
    reference_nonmaximal_pair,
    run_suite,
    search_converse_counterexample,
    subgroup_closure,
)
from lsubgroups import are_jointly_supstar, enumerate_l_subgroups, is_maximal, is_proper_l_subgroup
from lsubgroups import level_profile
from lsubgroups.groups import all_subgroups
from lsubgroups.harness import (
    PROPERTIES,
    SKIPPED,
    Instance,
    _single_defect_pattern_over_images,
)

from conftest import Q8_ETA_CONVERSE, Q8_MU_CONVERSE, Q8_THETA_WITNESS


class TestLatticeKinds:
    def test_chain(self):
        lat = make_lattice("chain4")
        assert lat.is_chain() and len(lat) == 4

    def test_product_of_chains_is_distributive_non_chain(self):
        lat = make_lattice("product2x2")
        assert len(lat) == 4
        assert not lat.is_chain()
        assert lat.distributive

    def test_divisor_lattice(self):
        lat = make_lattice("divisors12")
        assert len(lat) == 6
        assert lat.top == "12" and lat.bottom == "1"
        assert not lat.is_chain()
        assert lat.distributive
        assert lat.join("4", "6") == "12"
        assert lat.meet("4", "6") == "2"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_lattice("moebius")


class TestGenerator:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_pairs_are_sound(self, seed):
        mu, eta = random_l_subgroup(InstanceSpec(seed=seed))
        assert is_l_subgroup_of(eta, mu)

    def test_determinism(self):
        spec = InstanceSpec(seed=42)
        a = build_instance(spec, trial=3)
        b = build_instance(spec, trial=3)
        assert a.mu == b.mu and a.eta == b.eta
        assert a.raws[0] == b.raws[0]
        assert a.points == b.points

    def test_zero_density_gives_constants(self):
        spec = InstanceSpec(seed=9, subgroup_density=0.0)
        for trial in range(5):
            mu, eta = random_l_subgroup(spec, trial)
            assert mu.is_constant()
            assert eta.is_constant()

    def test_two_chain_pairs_are_crisp(self):
        spec = InstanceSpec(seed=3, lattice_kind="chain2")
        for trial in range(5):
            mu, eta = random_l_subgroup(spec, trial)
            assert mu.image() <= {"0", "1"}
            support = mu.level("1")
            if support:
                assert mu == characteristic(mu.group, mu.lattice, support)

    def test_raw_subsets_stay_below_parent(self):
        inst = build_instance(InstanceSpec(seed=1))
        rng = random.Random(0)
        for _ in range(10):
            assert contains(inst.mu, random_l_subset_below(rng, inst.mu))

    def test_non_chain_kinds_generate(self):
        for kind in ["product2x2", "product2x3", "divisors12"]:
            mu, eta = random_l_subgroup(InstanceSpec(seed=5, lattice_kind=kind))
            assert is_l_subgroup_of(eta, mu)


class TestCrispCollapse:
    @pytest.mark.parametrize("name", ["Q8", "D8", "V4", "C1", "C2", "C3", "C4", "C6"])
    def test_whole_group_collapse(self, name):
        group = builtin_group(name)
        lat = chain_lattice(["0", "1"])
        everything = frozenset(group.elements)
        mu = characteristic(group, lat, everything)

        expected_maximals = sorted(
            (characteristic(group, lat, m) for m in maximal_subgroups_of(group, everything)),
            key=lambda s: s.value_indices(),
        )
        assert list(maximal_l_subgroups(mu)) == expected_maximals

        report = frattini(mu)
        assert report.phi == characteristic(group, lat, frattini_classical(group, everything))

    @pytest.mark.parametrize("name", ["D8", "Q8", "C6"])
    def test_generation_collapse(self, name):
        group = builtin_group(name)
        lat = chain_lattice(["0", "1"])
        rng = random.Random(7)
        for _ in range(10):
            members = [x for x in group.elements if rng.random() < 0.4]
            if not members:
                continue
            chi = characteristic(group, lat, members)
            assert generate(chi) == characteristic(group, lat, subgroup_closure(group, members))


class TestSuite:
    def test_small_run_passes(self):
        report = run_suite(InstanceSpec(seed=13), trials=8)
        assert report.passed
        assert set(PROPERTIES) <= set(report.properties)
        assert "converse_level_pattern_insufficient" in report.properties

    def test_reports_are_reproducible(self):
        spec = InstanceSpec(seed=99)
        one = run_suite(spec, trials=5).as_document()
        two = run_suite(spec, trials=5).as_document()
        assert one == two

    def test_report_serialises(self):
        report = run_suite(InstanceSpec(seed=4), trials=3)
        payload = json.dumps(report.as_document())
        parsed = json.loads(payload)
        assert parsed["passed"] is True
        assert parsed["trials"] == 3

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            run_suite(InstanceSpec(seed=0), trials=0)

    def test_failing_property_is_reported_and_shrunk(self):
        # inject a deliberately false property to exercise the failure path
        from lsubgroups import harness

        def always_wrong(inst):
            harness._fail(reason="intentional")

        original = dict(PROPERTIES)
        PROPERTIES["intentionally_false"] = always_wrong
        try:
            report = run_suite(InstanceSpec(seed=2), trials=2)
            assert not report.passed
            stats = report.properties["intentionally_false"]
            assert stats.failures == 2
            counter = stats.first_counterexample
            assert counter is not None
            assert counter["instance"]["lattice"] == "chain2"
        finally:
            PROPERTIES.clear()
            PROPERTIES.update(original)

    def test_skips_are_counted(self):
        report = run_suite(InstanceSpec(seed=21, lattice_kind="product2x2"), trials=2)
        assert report.passed
        # chain-only checks cannot run over a product lattice
        assert report.properties["frattini_normal_in_parent"].skipped == 2


class TestPinnedInstances:
    def test_every_property_passes_on_the_worked_instances(
        self, d8_case, q8_maximal_case, q8_converse_case
    ):
        pinned = [
            Instance.pinned(d8_case["mu"], d8_case["eta1"], "D8", label="dihedral"),
            Instance.pinned(q8_maximal_case["mu"], q8_maximal_case["eta"], "Q8", label="quaternion"),
            Instance.pinned(q8_converse_case["mu"], q8_converse_case["eta"], "Q8", label="converse"),
        ]
        for inst in pinned:
            for name, prop in PROPERTIES.items():
                outcome = prop(inst)  # raises PropertyFailure on violation
                assert outcome in (None, SKIPPED), name


class TestCrispPatternSearch:
    def test_no_crisp_counterexample_exists(self):
        # over the two-element lattice the level pattern determines
        # maximality outright, so the converse search must come up empty
        lat = chain_lattice(["0", "1"])
        for name in ["V4", "C6", "Q8", "D8"]:
            group = builtin_group(name)
            for sub in all_subgroups(group):
                mu = characteristic(group, lat, sub)
                for eta in enumerate_l_subgroups(mu):
                    if not is_proper_l_subgroup(eta, mu):
                        continue
                    if _single_defect_pattern_over_images(eta, mu):
                        assert is_maximal(eta, mu, "definition").maximal


class TestConversePattern:
    def test_lone_defect_sits_at_a_value_of_mu(self):
        # the converse-pattern check relies on this: with equal tips and a
        # chain for the joint image, a level b outside mu's image equals mu's
        # level at the least value of mu above b, and eta's level at b is
        # squeezed between eta's and mu's levels there
        seen = 0
        for kind in ("chain3-5", "product2x3", "divisors30"):
            for seed in range(6):
                mu = build_instance(InstanceSpec(seed=seed, lattice_kind=kind)).mu
                for eta in enumerate_l_subgroups(mu)[:200]:
                    if eta.tip() != mu.tip() or not are_jointly_supstar(eta, mu):
                        continue
                    defects = level_profile(eta, mu).defects()
                    if len(defects) == 1:
                        seen += 1
                        assert defects[0][0] in mu.image()
        assert seen > 50


class TestConverseSearch:
    def test_reference_pair_matches_frozen_tables(self):
        mu, eta = reference_nonmaximal_pair()
        assert mu.values() == Q8_MU_CONVERSE
        assert eta.values() == Q8_ETA_CONVERSE

    def test_search_finds_the_reference_instance(self):
        found = search_converse_counterexample()
        assert found.mu.values() == Q8_MU_CONVERSE
        assert found.eta.values() == Q8_ETA_CONVERSE
        assert found.witness.values() == Q8_THETA_WITNESS
        assert found.defect_level == "c"

    def test_description_is_json_ready(self):
        found = search_converse_counterexample()
        assert json.loads(json.dumps(found.describe()))["defect_level"] == "c"
