"""Instance generation, the theorem suite, and the counterexample search."""
import hashlib
import importlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsubgroups import (
    InstanceSpec,
    InstanceTooLargeError,
    builtin_group,
    build_instance,
    characteristic,
    chain_lattice,
    contains,
    frattini,
    frattini_classical,
    generate,
    generate_oracle,
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
from lsubgroups import HypothesisNotMetError, UnknownBuiltinError, constant
from lsubgroups import LevelRelation, MaximalityVerdict, TipRelation, is_non_generator
from lsubgroups import are_jointly_supstar, enumerate_l_subgroups, is_maximal, is_proper_l_subgroup
from lsubgroups import LPoint, adjoin_point, harness, l_subset, level_profile, lsets, point_in, validate_group
from lsubgroups import intersection_of, is_l_subgroup, is_normal_in, set_product
from lsubgroups.errors import SearchExhaustedError
from lsubgroups.groups import all_subgroups
from lsubgroups.harness import (
    PROPERTIES,
    SKIPPED,
    Instance,
    PropertyFailure,
    _chain_valued_l_subgroup,
    _named_quotient,
    _single_defect_pattern_over_images,
)

from conftest import Q8_ETA_CONVERSE, Q8_MU_CONVERSE, Q8_THETA_WITNESS, dihedral, direct_product, elementary_abelian
from conftest import s4_chain_parent
from suite_mutants import MUTANTS, ROOT

frattini_module = importlib.import_module("lsubgroups.frattini")
maximal_module = importlib.import_module("lsubgroups.maximal")


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

    def test_a_kind_is_shared_while_it_is_cached(self):
        # one object per kind among the 64 used last; a rebuild is equal and
        # hashes alike, so caches keyed by the lattice still hit.  __wrapped__
        # rebuilds without flushing the cache that other tests share
        assert make_lattice.cache_info().maxsize == 64
        for kind in ("chain3", "product2x3", "divisors30"):
            first = make_lattice(kind)
            assert make_lattice(kind) is first
            rebuilt = make_lattice.__wrapped__(kind)
            assert rebuilt is not first and rebuilt == first and hash(rebuilt) == hash(first)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown lattice kind"):
            make_lattice("moebius")

    @pytest.mark.parametrize("kind", [
        "chainx", "productx", "divisors", "product2", "product2x3x4",
        "product0x3", "divisors0", "divisors-4", "chain 3", "chain03",
    ])
    def test_malformed_kind(self, kind):
        # sizes are positive decimals without leading zeros or spaces
        with pytest.raises(ValueError, match="unknown lattice kind"):
            make_lattice(kind)
        with pytest.raises(ValueError, match="unknown lattice kind"):
            InstanceSpec(0, lattice_kind=kind)

    @pytest.mark.parametrize("lattice_kind, group_kind, error, message, density", [
        ("chain2-6", "C0|D8", UnknownBuiltinError, "unknown builtin group 'C0'", 0.6),
        ("chain2-6", "X9|V4", UnknownBuiltinError, "unknown builtin group 'X9'", 0.6),
        ("chain0-4", "Q8", ValueError, "unknown lattice kind 'chain0-4'", 0.6),
        ("chain3-2", "Q8", ValueError, "unknown lattice kind 'chain3-2'", 0.6),
        ("chain2-x", "Q8", ValueError, "unknown lattice kind 'chain2-x'", 0.6),
        ("chain2-17", "Q8", ValueError, "unknown lattice kind 'chain17'", 0.6),
        ("chain2-6|moebius", "Q8", ValueError, "unknown lattice kind 'moebius'", 0.6),
        *(("chain2-6", "Q8", ValueError, rf"subgroup_density {d!r} is outside \[0, 1\]", d)
          for d in (float("nan"), -1.0, 2.0, float("inf"))),
    ])
    def test_malformed_spec_is_refused_on_every_seed(self, lattice_kind, group_kind, error, message, density):
        # every alternative, and the density, is checked when the spec is
        # made, not only the ones that some trial happens to draw
        for seed in range(4):
            with pytest.raises(error, match=message):
                InstanceSpec(seed, lattice_kind=lattice_kind, group_kind=group_kind, subgroup_density=density)

    def test_chain_lengths_run_from_one_to_sixteen(self):
        assert len(make_lattice("chain1")) == 1
        assert len(make_lattice("chain16")) == 16
        for kind in ("chain0", "chain17", "chain30"):
            with pytest.raises(ValueError, match="unknown lattice kind"):
                make_lattice(kind)

    @pytest.mark.parametrize("size", ["1000000001", "1000000000039", "9" * 30, "7" * 5000])
    def test_divisor_sizes_past_the_bound_are_refused_before_factorising(self, size):
        # trial division runs to √n; the prime 10^12 + 39 took 0.36 s, and a
        # 20-digit prime would take minutes
        kind = f"divisors{size}"
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            make_lattice(kind)
        assert time.perf_counter() - start < 0.05
        assert str(refused.value) == f"unknown lattice kind {kind!r}: divisors<n> takes n up to 10^9"
        with pytest.raises(ValueError, match="takes n up to 10\\^9"):
            InstanceSpec(0, lattice_kind=f"chain3|{kind}")

    @pytest.mark.parametrize("build", [
        make_lattice, lambda kind: InstanceSpec(0, lattice_kind=f"chain3|{kind}"),
    ], ids=["make_lattice", "InstanceSpec"])
    def test_chain_sizes_past_the_digit_limit_are_refused_as_unknown(self, build):
        # int() refuses a decimal longer than 4,300 digits with its own error
        kind = "chain" + "7" * 5000
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            build(kind)
        assert time.perf_counter() - start < 0.05
        assert str(refused.value) == f"unknown lattice kind {kind!r}: a chain has 1 to 16 elements"

    @pytest.mark.parametrize("low, high, message", [
        ("7" * 5000, "3", "the range is empty"),
        ("2", "7" * 5000, "a chain has 1 to 16 elements"),
        ("7" * 5000, "7" * 5000, "a chain has 1 to 16 elements"),
    ], ids=["long_low", "long_high", "both_long"])
    def test_chain_ranges_past_the_digit_limit_are_refused_as_unknown(self, low, high, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^unknown lattice kind '[^']*': {message}$"):
            InstanceSpec(0, lattice_kind=f"chain{low}-{high}")
        assert time.perf_counter() - start < 0.05

    def test_divisor_sizes_up_to_the_bound_build(self):
        assert len(make_lattice("divisors720720")) == 240
        assert len(make_lattice("divisors999999937")) == 2  # the largest prime under 10^9
        assert len(make_lattice("divisors1000000000")) == 100

    @pytest.mark.parametrize("build", [
        make_lattice, lambda kind: InstanceSpec(0, lattice_kind=f"chain3|{kind}"),
    ], ids=["make_lattice", "InstanceSpec"])
    def test_product_sizes_past_the_bound_are_refused_before_building(self, build):
        # the m·n names and order pairs used to be built before the lattice's
        # own bound refused them: product300x300 took 0.24 s
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError) as refused:
            build("product100000x100000")
        assert time.perf_counter() - start < 0.05
        assert str(refused.value) == (
            "a lattice of 10000000000 elements is too large: lattices are built for up to 256 elements"
        )

    @pytest.mark.parametrize("build", [
        make_lattice, lambda kind: InstanceSpec(0, lattice_kind=f"chain3|{kind}"),
    ], ids=["make_lattice", "InstanceSpec"])
    @pytest.mark.parametrize("m, n, power", [
        ("7" * 5000, "2", 4999), ("3", "7" * 5000, 4999), ("7" * 5000, "7" * 5000, 9998), ("1", "9" * 11, 10),
    ], ids=["long_m", "long_n", "both_long", "eleven_digits"])
    def test_product_sizes_past_the_digit_limit_are_refused_as_too_large(self, build, m, n, power):
        # the size is never printed, so no decimal past int()'s digit limit is made
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError) as refused:
            build(f"product{m}x{n}")
        assert time.perf_counter() - start < 0.05
        assert str(refused.value) == (
            f"a lattice of at least 10^{power} elements is too large: lattices are built for up to 256 elements"
        )
        assert (refused.value.size, refused.value.budget) == (10**power, 256)


class TestSharedCarriers:
    def test_instances_reuse_the_group_and_its_subgroup_table(self):
        spec = InstanceSpec(seed=3)
        first = build_instance(spec, 0, override_lattice="chain4", override_group="D8")
        all_subgroups(first.group)
        second = build_instance(spec, 1, override_lattice="chain4", override_group="D8")
        assert second.group is first.group is builtin_group("D8")
        assert second.group._subgroups is first.group._subgroups is not None
        assert second.lattice is first.lattice


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


def name_based_parent(rng, group, lat, density):
    """The parent draw on subgroups as name sets and a scanned cover test, the oracle."""
    subs = all_subgroups(group)
    full = frozenset(group.elements)
    chain = [frozenset([group.identity])]
    while chain[-1] != full:
        chain.append(rng.choice([s for s in subs if chain[-1] < s]))
    kept = [h for h in chain[:-1] if rng.random() < density] + [full]

    def lower_covers(b):
        strictly_below = [a for a in lat.elements if a != b and lat.leq(a, b)]
        return [a for a in strictly_below if not any(a != c and lat.leq(a, c) for c in strictly_below)]

    values = []
    current = lat.top if rng.random() < 0.7 else rng.choice(lat.elements)
    for _ in kept:
        values.append(current)
        if rng.random() < 0.85:
            below = lower_covers(current)
            if rng.random() < 0.2:
                below = [a for a in lat.down_set(current) if a != current]
            if below:
                current = rng.choice(below)
    mapping = {x: values[next(i for i, h in enumerate(kept) if x in h)] for x in group.elements}
    return l_subset(group, lat, mapping)


def name_based_raw(rng, mu):
    """The raw draw under mu on down-sets of names, validated against mu, the oracle."""
    lat = mu.lattice
    mapping = {x: rng.choice(lat.down_set(mu.value(x))) for x in mu.group.elements}
    return l_subset(mu.group, lat, mapping, parent=mu)


def relisted(group, shift):
    """The same group with its element list rotated by ``shift``."""
    names = group.elements[shift:] + group.elements[:shift]
    return validate_group(names, [[group.op(x, y) for y in names] for x in names])


class TestDrawsMatchTheNameBasedOracle:
    LATTICES = ["chain2", "chain3", "chain4", "chain5", "chain6", "product2x3", "divisors30", "chain16"]

    @pytest.mark.parametrize("make_group", [
        lambda: builtin_group("V4"), lambda: builtin_group("C6"), lambda: builtin_group("Q8"),
        lambda: builtin_group("D8"), lambda: builtin_group("C12"),
        lambda: elementary_abelian(5), lambda: dihedral(16), lambda: relisted(builtin_group("D8"), 3),
    ], ids=["V4", "C6", "Q8", "D8", "C12", "C2^5", "D16", "D8-relisted"])
    def test_same_draws_and_same_states(self, make_group):
        group = make_group()
        for kind in self.LATTICES:
            lat = make_lattice(kind)
            for seed in range(20):
                rng, oracle_rng = random.Random(f"{seed}:{kind}"), random.Random(f"{seed}:{kind}")
                mu = _chain_valued_l_subgroup(rng, group, lat, 0.6)
                assert mu == name_based_parent(oracle_rng, group, lat, 0.6), (kind, seed)
                assert rng.getstate() == oracle_rng.getstate()
                for _ in range(3):
                    assert random_l_subset_below(rng, mu) == name_based_raw(oracle_rng, mu)
                    assert rng.getstate() == oracle_rng.getstate()

    def test_the_relisted_group_has_its_identity_inside(self):
        assert relisted(builtin_group("D8"), 3).identity_index == 5


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

    def test_failing_property_is_reported_and_shrunk(self, monkeypatch):
        # inject a deliberately false property to exercise the failure path
        def always_wrong(inst):
            harness._fail(reason="intentional")

        monkeypatch.setitem(PROPERTIES, "intentionally_false", always_wrong)
        report = run_suite(InstanceSpec(seed=2), trials=2)
        assert not report.passed
        stats = report.properties["intentionally_false"]
        assert stats.failures == 2
        # drawn as (chain3, D8); chain2 still fails, then C2, the first smaller group
        assert stats.first_counterexample == {
            "instance": build_instance(InstanceSpec(2), 0, "chain2", "C2").describe(),
            "detail": {"reason": "intentional"},
        }

    def test_a_counterexample_with_no_smaller_failing_variant_is_kept(self, monkeypatch):
        # fails only on the drawn (chain3, D8): neither chain2 nor any smaller
        # group fails, so the drawn instance itself is reported
        def drawn_only(inst):
            if (inst.lattice_kind, inst.group_name) == ("chain3", "D8"):
                harness._fail(reason="drawn")

        monkeypatch.setitem(PROPERTIES, "drawn_only", drawn_only)
        report = run_suite(InstanceSpec(seed=2), trials=2)
        stats = report.properties["drawn_only"]
        assert (stats.trials, stats.skipped, stats.failures) == (2, 0, 2)
        assert stats.first_counterexample == {
            "instance": build_instance(InstanceSpec(2), 0).describe(),
            "detail": {"reason": "drawn"},
        }

    def test_skips_are_counted(self):
        spec = InstanceSpec(seed=1, lattice_kind="product2x2|product2x3|divisors12|divisors30")
        report = run_suite(spec, trials=40)
        assert report.passed
        # off chains only the level comparison skips on every trial; phi's
        # normality skips a parent not normal in the group, maximal_avoiding
        # a theta that holds every point of mu
        skipped = {
            name: report.properties[name].skipped
            for name in ("frattini_normal_in_parent", "maximal_avoiding_exists",
                         "nongenerators_inside_frattini", "frattini_level_inclusion")
        }
        assert skipped == {
            "frattini_normal_in_parent": 0, "maximal_avoiding_exists": 11,
            "nongenerators_inside_frattini": 0, "frattini_level_inclusion": 40,
        }

    def test_erroring_property_is_reported_unshrunk(self, monkeypatch):
        # an exception other than PropertyFailure fails the property too; its
        # counterexample is the instance it raised on, with no shrinking
        def erroring(inst):
            raise ValueError(f"trial {inst.trial}")

        monkeypatch.setitem(PROPERTIES, "erroring", erroring)
        spec = InstanceSpec(seed=2)
        report = run_suite(spec, trials=2)
        assert not report.passed
        stats = report.properties["erroring"]
        assert (stats.trials, stats.skipped, stats.failures) == (2, 0, 2)
        assert stats.first_counterexample == {
            "instance": build_instance(spec, 0).describe(),
            "detail": {"error": "ValueError: trial 0"},
        }

    def test_exhausted_converse_search_is_a_failure(self, monkeypatch):
        def exhausted():
            raise SearchExhaustedError("no level-pattern counterexample found in the pool")

        monkeypatch.setattr(harness, "search_converse_counterexample", exhausted)
        report = run_suite(InstanceSpec(seed=2), trials=1)
        assert not report.passed
        assert report.properties["converse_level_pattern_insufficient"].as_document() == {
            "trials": 1,
            "skipped": 0,
            "failures": 1,
            "first_counterexample": {
                "detail": {"error": "no level-pattern counterexample found in the pool"},
            },
        }


class TestPropertyTable:
    def test_names_in_report_order(self):
        # the prop_<name> functions in definition order; the report keeps it
        assert list(PROPERTIES) == [
            "generator_soundness", "level_sets_of_intersections", "containment_is_levelwise",
            "subgroup_tests_agree", "generation_closure_laws", "generation_matches_exhaustive_meet",
            "sup_property_levelwise_generation", "generation_commutes_with_image",
            "generation_commutes_with_preimage", "image_preimage_laws", "set_product_associative",
            "set_product_of_points", "normality_matches_top_parent", "maximality_strategies_agree",
            "maximal_level_profiles", "sufficient_condition_sound", "maximal_tips",
            "transport_preserves_maximality", "nongenerators_form_l_subgroup",
            "nongenerators_inside_frattini", "frattini_below_each_maximal",
            "fallback_iff_no_maximals", "frattini_level_inclusion", "frattini_normal_in_parent",
            "nongenerator_conjugation_closure", "frattini_image_inclusion",
            "maximal_avoiding_exists", "crisp_case_collapses",
        ]

    def test_each_name_maps_to_its_function(self):
        for name, prop in PROPERTIES.items():
            assert prop is getattr(harness, f"prop_{name}")


def all_points(mu):
    return [LPoint(x, a) for x in mu.group.elements for a in mu.lattice.elements]


class TestMaximalityAgreementChecksThePoint:
    """A negative verdict must name a point of mu outside the candidate that
    fails to generate mu: ``maximality_strategies_agree`` reports a verdict
    naming any other point, or none, as a disagreement."""

    INSTANCES = [build_instance(InstanceSpec(seed=0), trial) for trial in range(12)]
    # each turns the point of a negative verdict into a wrong one, or keeps it when there is none
    WRONG = {
        "generates_mu": lambda nu, mu, point: next((
            p for p in all_points(mu)
            if point_in(p, mu) and not point_in(p, nu) and generate(adjoin_point(nu, p)) == mu
        ), point),
        "outside_mu": lambda nu, mu, point: next((p for p in all_points(mu) if not point_in(p, mu)), point),
        "inside_nu": lambda nu, mu, point: LPoint(mu.group.identity, nu.value(mu.group.identity)),
        "none": lambda nu, mu, point: None,
    }

    def test_real_verdicts_pass(self):
        for inst in self.INSTANCES:
            harness.prop_maximality_strategies_agree(inst)

    @pytest.mark.parametrize("wrong", sorted(WRONG))
    def test_a_wrong_point_is_a_disagreement(self, wrong, monkeypatch):
        changed = False

        def lying(nu, mu, **kwargs):
            nonlocal changed
            verdict = is_maximal(nu, mu, **kwargs)
            if verdict.maximal or verdict.reason == "not_proper":
                return verdict
            point = self.WRONG[wrong](nu, mu, verdict.witness_point)
            changed |= point != verdict.witness_point
            return verdict._replace(witness_point=point)

        monkeypatch.setattr(harness, "is_maximal", lying)
        failed = 0
        for inst in self.INSTANCES:
            changed = False
            try:
                harness.prop_maximality_strategies_agree(inst)
            except PropertyFailure as exc:
                assert changed and exc.detail["reason"] == "strategies disagree"
                failed += 1
            else:
                assert not changed
        assert failed >= 3


def _refusing(error):
    def refuse(*args, **kwargs):
        raise error("refused")
    return refuse


def _row(forward, tip):
    return lambda mu, b, **kwargs: {"forward_inclusion": forward, "tip_condition_holds": tip}


def _demoted(eta, mu):
    # the profile with its lone defect level called a proper subgroup, not a maximal one
    profile = level_profile(eta, mu)
    rows = tuple((a, LevelRelation.PROPER_SUBGROUP if a == profile.unique_defect_level else rel)
                 for a, rel in profile.witness_levels)
    return profile._replace(witness_levels=rows)


class TestPropertiesReadTheLibrary:
    """A property that reads a library function reports that function's
    wrong answer as a failure, and one that reads none reports a wrong
    instance.  It skips where the theorem's hypothesis fails: on the level
    comparison's typed refusal, on a row whose tip condition fails, or
    where the normality properties' own ``is_normal_in_group`` test says
    no."""

    # chain4 and D8, on which each of the first four runs to the end with the real library
    INSTANCE = build_instance(InstanceSpec(seed=0), 4)
    # chain5 and D8: 80 members and 5 maximals, for the properties that read the maximals
    MAXIMALS = build_instance(InstanceSpec(seed=0), 3)
    # chain6 and V4, whose first raw sample is no L-subgroup (trial 4's samples are constants)
    GENERATION = build_instance(InstanceSpec(seed=0), 0)
    # chain6 and C6, whose raw samples tell a product that squares its right operand
    PRODUCTS = build_instance(InstanceSpec(seed=0), 2)
    # chain5 and Q8, whose first two points, -i and -k, do not commute and sit above the bottom
    POINTS = build_instance(InstanceSpec(seed=0), 9)
    # chain2 and D8, with mu's top level of order 4 and its 3 maximal subgroups
    CRISP = build_instance(InstanceSpec(seed=0), 1, override_lattice="chain2", override_group="D8")

    @pytest.mark.parametrize("inst, prop, patched, wrong, detail", [
        (INSTANCE, "image_preimage_laws", "pullback",
         lambda f, nu: constant(f.source, nu.lattice, nu.lattice.top),
         {"law": "preimage of image equals for injective"}),
        (INSTANCE, "frattini_normal_in_parent", "is_normal_in", lambda eta, mu: False,
         {"reason": "phi is not normal in mu"}),
        (INSTANCE, "nongenerator_conjugation_closure", "frattini",
         lambda mu, **kwargs: frattini(mu)._replace(nongen=characteristic(mu.group, mu.lattice, ["e", "s"])),
         {"reason": "conjugation moved a non-generator outside the set", "conjugator": "r", "element": "s"}),
        (INSTANCE, "frattini_level_inclusion", "frattini_level_compare", _row(False, True),
         {"reason": "classical Frattini of the level escapes the level of phi"}),
        (MAXIMALS, "maximal_tips", "tip_relation", lambda eta, mu, **kwargs: TipRelation.VIOLATION,
         {"reason": "tip relation violated"}),
        (MAXIMALS, "transport_preserves_maximality", "pushforward",
         lambda f, nu: constant(f.target, nu.lattice, nu.lattice.bottom),
         {"reason": "transported subgroup lost maximality"}),
        (MAXIMALS, "maximal_avoiding_exists", "maximal_avoiding", lambda mu, theta, point, **kwargs: (),
         {"reason": "no maximal member avoiding the point"}),
        (MAXIMALS, "nongenerators_form_l_subgroup", "is_l_subgroup_of", lambda eta, mu: False,
         {"reason": "non-generator subgroup is not in L(mu)"}),
        (MAXIMALS, "fallback_iff_no_maximals", "maximal_l_subgroups", lambda mu, **kwargs: (),
         {"reason": "fallback flag disagrees with the maximal count"}),
        (MAXIMALS, "frattini_image_inclusion", "contains", lambda nu, eta: False,
         {"reason": "image of phi escapes phi of the image"}),
        (MAXIMALS, "sufficient_condition_sound", "is_maximal",
         lambda eta, mu, **kwargs: MaximalityVerdict(False),
         {"reason": "pattern held but candidate is not maximal"}),
        (MAXIMALS, "frattini_below_each_maximal", "frattini",
         lambda mu, **kwargs: frattini(mu)._replace(phi=mu),
         {"reason": "phi is not the meet of the maximal subgroups"}),
        (MAXIMALS, "nongenerators_inside_frattini", "is_non_generator",
         lambda point, mu, **kwargs: (is_non_generator(point, mu)[0], mu),
         {"reason": "the witness is mu, or does not generate mu with the point"}),
        # generation that hands back its input
        (GENERATION, "generation_closure_laws", "generate", lambda eta: eta,
         {"reason": "generation does not give an L-subgroup"}),
        (GENERATION, "generation_matches_exhaustive_meet", "generate", lambda eta: eta,
         {"reason": "formula and exhaustive meet disagree"}),
        (GENERATION, "sup_property_levelwise_generation", "generate", lambda eta: eta,
         {"reason": "level of generated subgroup differs from generated level"}),
        (GENERATION, "generation_commutes_with_image", "generate", lambda eta: eta,
         {"reason": "image of an L-subgroup is not an L-subgroup"}),
        (GENERATION, "generation_commutes_with_preimage", "generate", lambda eta: eta,
         {"reason": "preimage of an L-subgroup is not an L-subgroup"}),
        (INSTANCE, "generator_soundness", "is_l_subgroup_of", lambda eta, mu: False,
         {"reason": "generated pair fails the L(mu) membership test"}),
        (INSTANCE, "level_sets_of_intersections", "intersection_of", lambda family: family[0],
         {"reason": "level of intersection differs from intersection of levels"}),
        (INSTANCE, "subgroup_tests_agree", "is_l_subgroup", lambda eta: False,
         {"reason": "pointwise and levelwise verdicts differ"}),
        (PRODUCTS, "set_product_associative", "set_product", lambda a, b: set_product(a, set_product(b, b)),
         {"reason": "set product is not associative"}),
        # the operands swapped, as in the suite's mutant of set_product
        (POINTS, "set_product_of_points", "set_product", lambda a, b: set_product(b, a),
         {"reason": "product of points is not the point of the product"}),
        (INSTANCE, "normality_matches_top_parent", "is_normal_in", lambda eta, mu: not is_normal_in(eta, mu),
         {"reason": "normality in the group differs from normality below the constant top"}),
        (MAXIMALS, "maximal_level_profiles", "level_profile",
         lambda eta, mu: level_profile(eta, mu)._replace(unique_defect_level=None),
         {"reason": "no unique defect level"}),
        (CRISP, "crisp_case_collapses", "maximal_l_subgroups", lambda mu, **kwargs: (),
         {"reason": "crisp maximal subgroups differ from classical ones"}),
        # a second branch of each of these properties: four of the five maximals
        # of MAXIMALS keep mu's tip, and phi lies strictly below mu
        (MAXIMALS, "maximal_level_profiles", "level_profile", _demoted,
         {"reason": "equal-tip defect level not classically maximal"}),
        (MAXIMALS, "nongenerators_inside_frattini", "frattini",
         lambda mu, **kwargs: frattini(mu)._replace(nongen=mu),
         {"reason": "non-generator subgroup escapes phi"}),
        (MAXIMALS, "nongenerators_inside_frattini", "frattini",
         lambda mu, **kwargs: frattini(mu)._replace(equality_holds=False),
         {"reason": "unobstructed, but the two constructions differ"}),
        (MAXIMALS, "nongenerators_inside_frattini", "is_non_generator",
         lambda point, mu, **kwargs: (not is_non_generator(point, mu)[0], mu),
         {"reason": "verdict disagrees with the non-generator subgroup"}),
        (MAXIMALS, "maximal_avoiding_exists", "maximal_avoiding", lambda mu, theta, point, **kwargs: (mu,),
         {"reason": "avoiding witness violates its constraints"}),
        (CRISP, "crisp_case_collapses", "generate",
         lambda eta: constant(eta.group, eta.lattice, eta.lattice.bottom),
         {"reason": "crisp generation differs from classical closure"}),
        (CRISP, "crisp_case_collapses", "frattini",
         lambda mu, **kwargs: frattini(mu)._replace(phi=constant(mu.group, mu.lattice, mu.lattice.bottom)),
         {"reason": "crisp phi differs from the classical Frattini subgroup"}),
    ], ids=["image_preimage_laws", "frattini_normal_in_parent", "nongenerator_conjugation_closure",
            "frattini_level_inclusion", "maximal_tips", "transport_preserves_maximality",
            "maximal_avoiding_exists", "nongenerators_form_l_subgroup", "fallback_iff_no_maximals",
            "frattini_image_inclusion", "sufficient_condition_sound", "frattini_below_each_maximal",
            "nongenerators_inside_frattini", "generation_closure_laws",
            "generation_matches_exhaustive_meet", "sup_property_levelwise_generation",
            "generation_commutes_with_image", "generation_commutes_with_preimage",
            "generator_soundness", "level_sets_of_intersections", "subgroup_tests_agree",
            "set_product_associative", "set_product_of_points", "normality_matches_top_parent",
            "maximal_level_profiles", "crisp_case_collapses",
            "maximal_level_profiles-equal-tip", "nongenerators_inside_frattini-escapes",
            "nongenerators_inside_frattini-unobstructed", "nongenerators_inside_frattini-verdict",
            "maximal_avoiding_exists-constraints", "crisp_case_collapses-generation",
            "crisp_case_collapses-phi"])
    def test_a_wrong_answer_fails(self, monkeypatch, inst, prop, patched, wrong, detail):
        assert PROPERTIES[prop](inst) is None  # the real library passes
        monkeypatch.setattr(harness, patched, wrong)
        with pytest.raises(PropertyFailure) as failure:
            PROPERTIES[prop](inst)
        assert detail.items() <= failure.value.detail.items()

    def test_a_wrong_instance_fails(self):
        # containment_is_levelwise reads only the levels of the pair, so it is
        # fed mu and eta swapped, with eta strictly below mu
        inst = self.MAXIMALS
        assert inst.eta != inst.mu and PROPERTIES["containment_is_levelwise"](inst) is None
        swapped = Instance.pinned(inst.eta, inst.mu, inst.group_name, label="swapped")
        with pytest.raises(PropertyFailure) as failure:
            PROPERTIES["containment_is_levelwise"](swapped)
        assert failure.value.detail["reason"] == "eta level escapes mu level"

    @pytest.mark.parametrize("prop, patched, refusal", [
        ("frattini_normal_in_parent", "is_normal_in_group", lambda mu: False),
        ("nongenerator_conjugation_closure", "is_normal_in_group", lambda mu: False),
        ("frattini_level_inclusion", "frattini_level_compare", _refusing(HypothesisNotMetError)),
        ("frattini_level_inclusion", "frattini_level_compare", _row(False, False)),
    ], ids=["frattini_normal_in_parent", "nongenerator_conjugation_closure", "frattini_level_inclusion",
            "frattini_level_inclusion-tip"])
    def test_a_refusal_is_a_skip(self, monkeypatch, prop, patched, refusal):
        monkeypatch.setattr(harness, patched, refusal)
        assert PROPERTIES[prop](self.INSTANCE) == SKIPPED

    def test_a_variant_that_errors_is_not_a_failing_one(self):
        # the shrink pass keeps the first variant that raises PropertyFailure;
        # one that raises anything else is passed over, and with no failing
        # variant the instance it started from is kept
        variants = [build_instance(InstanceSpec(seed=0), trial) for trial in (1, 2)]

        def prop(inst):
            if inst is variants[0]:
                raise ValueError("not a failure")
            raise PropertyFailure({"trial": inst.trial})

        assert harness._first_failing(prop, variants, self.INSTANCE) is variants[1]
        assert harness._first_failing(prop, variants[:1], self.INSTANCE) is self.INSTANCE


def test_each_suite_mutant_anchor_occurs_once():
    # tests/suite_mutants.py applies each entry by replacing its anchor, so a
    # change to the library that moves or repeats one shows here, not only in CI
    for mutant in MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.anchor) == 1, mutant


class TestSampledPools:
    """Past 120 members the maximality properties read 60 seeded members of
    L(mu), then the maximals (and, for ``agree``, eta).  The pinned ``verify``
    digests record only counts, so the candidates read are pinned here, on the
    four trials of the default plan whose L(mu) is sampled."""

    TRIALS = (71, 157, 179, 188)

    @pytest.mark.parametrize("label, patched, prop, digest", [
        ("agree", "is_maximal", "maximality_strategies_agree",
         "879fcdab3bfb992dcd834fd8e2916b631fa937d9882b9cd00210bec5927d6f53"),
        ("suff", "_sufficient_pattern", "sufficient_condition_sound",
         "c63dd6586c08f2b1db893fe2cf21fc7442f0901c0fe98a303f8f2b6a98853c12"),
    ], ids=["agree", "suff"])
    def test_candidates_are_pinned(self, monkeypatch, label, patched, prop, digest):
        real, read = getattr(harness, patched), []

        def recording(nu, mu, **kwargs):
            read.append(nu.value_indices())
            return real(nu, mu, **kwargs)

        monkeypatch.setattr(harness, patched, recording)
        for trial in self.TRIALS:
            inst = build_instance(InstanceSpec(0), trial)
            assert len(inst.members) > 120
            PROPERTIES[prop](inst)
        assert hashlib.sha256(b"|".join(read)).hexdigest() == digest


class TestOneListingPerInstance:
    """The properties that read L(mu) share the instance's one listing."""

    @staticmethod
    def listings(monkeypatch, inst) -> int:
        calls = []

        def counted(mu, *args, **kwargs):
            calls.append(mu)
            return enumerate_l_subgroups(mu, *args, **kwargs)

        monkeypatch.setattr(harness, "enumerate_l_subgroups", counted)
        for name, prop in PROPERTIES.items():
            assert prop(inst) in (None, SKIPPED), name
        assert all(mu is inst.mu for mu in calls)
        return len(calls)

    def test_built_instance(self, monkeypatch):
        inst = build_instance(InstanceSpec(0), override_lattice="chain4", override_group="D8")
        assert self.listings(monkeypatch, inst) == 1

    def test_pinned_instance(self, monkeypatch, d8_case):
        inst = Instance.pinned(d8_case["mu"], d8_case["eta1"], "D8", label="dihedral")
        assert self.listings(monkeypatch, inst) == 1


class TestOneAnswerPerInstance:
    """The properties ask an instance's ``once`` for ``generate``, for mu's
    normality and for the Frattini reports, so each distinct question is
    answered once per instance; the homs that depend on the group alone are
    made once per group."""

    @staticmethod
    def answers(monkeypatch, inst) -> tuple[list, list, list]:
        generated, normal, reports = [], [], []

        def counted(calls, fn):
            def wrapped(arg):
                calls.append(arg)
                return fn(arg)
            return wrapped

        monkeypatch.setattr(harness, "generate", counted(generated, generate))
        monkeypatch.setattr(harness, "is_normal_in_group", counted(normal, harness.is_normal_in_group))
        monkeypatch.setattr(harness, "frattini", counted(reports, frattini))
        for name, prop in PROPERTIES.items():
            assert prop(inst) in (None, SKIPPED), name
        return generated, normal, reports

    @pytest.mark.parametrize("pinned", [False, True], ids=["built", "pinned"])
    def test_each_question_is_answered_once(self, monkeypatch, d8_case, pinned):
        if pinned:
            inst = Instance.pinned(d8_case["mu"], d8_case["eta1"], "D8", label="dihedral")
        else:
            inst = build_instance(InstanceSpec(0), override_lattice="chain4", override_group="D8")
        generated, normal, reports = self.answers(monkeypatch, inst)
        assert generated and len(generated) == len(set(generated))
        assert normal == [inst.mu]
        # the image of mu under iso is mu itself here, so it reuses mu's report
        assert reports == [inst.mu]

    def test_trials_of_one_group_share_the_fixed_homs(self):
        first, second = (
            build_instance(InstanceSpec(0), trial, override_lattice="chain2", override_group="D8")
            for trial in (0, 1)
        )
        assert len(first.homs) == len(second.homs) == 4
        for k in (0, 2, 3):  # the identity, the map onto C1 and the named quotient
            assert first.homs[k] is second.homs[k]
        assert first.homs[1] is not second.homs[1] and first.iso is not second.iso
        identity = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]
        drawn = [
            [list(inst.homs[1].mapping.values()), list(inst.iso.mapping.values())] for inst in (first, second)
        ]
        assert drawn == [
            [identity, identity],
            [["e", "r3", "r2", "r", "sr2", "sr", "s", "sr3"], identity],
        ]


class TestWorkCountsPerPass:
    """Work counts of one pass of the ``verify --seed 0 --trials 50`` plan,
    read through counting wrappers, so a change that repeats work shows
    here even where ``verify`` still passes and no timing can see it."""

    def test_frattini_layer(self, monkeypatch):
        counts, comparing = dict.fromkeys(("reports", "phi_meets_in_compare"), 0), []
        report, meet = frattini_module.FrattiniReport, frattini_module._meet_of_codes
        compare = harness.frattini_level_compare

        def built(*fields):
            counts["reports"] += 1
            return report(*fields)

        def comparing_levels(*args):
            comparing.append(args)
            try:
                return compare(*args)
            finally:
                comparing.pop()

        def meeting(*args):
            counts["phi_meets_in_compare"] += bool(comparing)
            return meet(*args)

        monkeypatch.setattr(frattini_module, "FrattiniReport", built)
        monkeypatch.setattr(harness, "frattini_level_compare", comparing_levels)
        monkeypatch.setattr(frattini_module, "_meet_of_codes", meeting)
        maximal_module._coatom_index.cache_clear()
        assert run_suite(InstanceSpec(seed=0), trials=50).passed
        counts["coatom_misses"] = maximal_module._coatom_index.cache_info().misses
        # one report per instance, since each of the 50 images of mu under
        # iso is mu; one coatom build for each of the 43 distinct parents and
        # the Q8 parent of the converse search; one phi per level compared
        assert counts == {"reports": 50, "phi_meets_in_compare": 74, "coatom_misses": 44}

    def test_generation_normality_homs_and_listings(self, monkeypatch):
        counts = dict.fromkeys(("generate", "is_normal_in_group", "homs_built", "enumerate_l_subgroups",
                                "generate_oracle", "member_walks"), 0)

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in ("generate", "is_normal_in_group", "enumerate_l_subgroups", "generate_oracle"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        monkeypatch.setattr(maximal_module, "_member_codes", counted("member_walks", maximal_module._member_codes))
        monkeypatch.setattr(harness.GroupHom, "__init__", counted("homs_built", harness.GroupHom.__init__))
        harness._fixed_homs.cache_clear()
        maximal_module._coatom_index.cache_clear()
        assert run_suite(InstanceSpec(seed=0), trials=50).passed
        # generate and mu's normality answered once per question per instance
        # (Instance.once); two drawn homs per instance and the 3 fixed homs of
        # each of the 4 groups; L(mu) listed once per instance, and each
        # listing and each oracle call walks L(mu) or L(c) once
        assert counts == {"generate": 278, "is_normal_in_group": 50, "homs_built": 112,
                          "enumerate_l_subgroups": 50, "generate_oracle": 50, "member_walks": 100}


class TestOracleLimits:
    def test_exhaustive_meet_skips_what_the_oracle_refuses(self, monkeypatch):
        # the property skips whatever the oracle refuses, so a budget one
        # below |L(c)| skips the instance instead of erroring
        inst = build_instance(InstanceSpec(0))
        prop = PROPERTIES["generation_matches_exhaustive_meet"]
        assert prop(inst) is None
        raw = inst.raws[0]
        size = len(enumerate_l_subgroups(constant(inst.group, inst.lattice, raw.tip())))
        monkeypatch.setattr(lsets, "_ORACLE_BUDGET", size - 1)
        with pytest.raises(InstanceTooLargeError) as refused:
            generate_oracle(raw)
        assert (refused.value.size, refused.value.budget) == (size, size - 1)
        assert prop(inst) == SKIPPED


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


class TestNamedQuotients:
    @pytest.mark.parametrize("name, target, image", [
        ("D8", "C2", {"e": "e", "r": "e", "r2": "e", "r3": "e", "s": "g", "sr": "g", "sr2": "g", "sr3": "g"}),
        ("Q8", "V4", {"1": "e", "-1": "e", "i": "a", "-i": "a", "j": "b", "-j": "b", "k": "c", "-k": "c"}),
        ("V4", "C2", {"e": "e", "a": "g", "b": "e", "c": "g"}),
        ("C6", "C3", {"e": "e", "g": "g", "g2": "g2", "g3": "e", "g4": "g", "g5": "g2"}),
        ("C12", "C6", {
            "e": "e", "g": "g", "g2": "g2", "g3": "g3", "g4": "g4", "g5": "g5",
            "g6": "e", "g7": "g", "g8": "g2", "g9": "g3", "g10": "g4", "g11": "g5",
        }),
    ])
    def test_document_is_pinned(self, name, target, image):
        hom = _named_quotient(name, builtin_group(name))
        assert hom.target is builtin_group(target)
        assert hom.as_document() == {"map": image}

    @pytest.mark.parametrize("name", ["C1", "C2", "C3"])
    def test_groups_of_prime_order_or_less_have_none(self, name):
        assert _named_quotient(name, builtin_group(name)) is None

    def test_a_group_that_is_not_the_builtin_of_its_name_has_none(self):
        d8, c2 = builtin_group("D8"), builtin_group("C2")
        assert _named_quotient("S4", s4_chain_parent().group) is None
        assert _named_quotient("D8xD8xC2", direct_product(d8, d8, c2)) is None
        assert _named_quotient("C8", dihedral(8)) is None

    def test_pinned_instances_of_groups_that_are_not_builtins_run_every_property(self):
        # S4 on a 4-chain, and a chain-valued parent of D8×D8×C2 over chain3,
        # 29,416 members, where the exhaustive-meet oracle refuses L(c)
        s4_mu = s4_chain_parent()
        group = direct_product(builtin_group("D8"), builtin_group("D8"), builtin_group("C2"))
        draw = random.Random(6)
        mu, eta = (_chain_valued_l_subgroup(draw, group, make_lattice("chain3"), 0.6) for _ in range(2))
        pinned = [
            Instance.pinned(s4_mu, intersection_of([s4_mu, constant(s4_mu.group, s4_mu.lattice, "1")]), "S4"),
            Instance.pinned(mu, intersection_of([mu, eta]), "D8xD8xC2"),
        ]
        skipped = []
        for inst in pinned:
            assert len(inst.homs) == 3
            skipped.append([name for name, prop in PROPERTIES.items() if prop(inst) == SKIPPED])
        assert skipped == [
            ["frattini_level_inclusion", "crisp_case_collapses"],
            ["generation_matches_exhaustive_meet", "crisp_case_collapses"],
        ]


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
                        assert is_maximal(eta, mu).maximal


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

    def test_the_reference_pair_alone_is_searched(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the search built a seeded instance")

        monkeypatch.setattr(harness, "build_instance", refuse)
        monkeypatch.setattr(harness, "random_l_subgroup", refuse)
        found = search_converse_counterexample()
        assert found.eta.values() == Q8_ETA_CONVERSE
        assert found.witness.values() == Q8_THETA_WITNESS
        assert found.defect_level == "c"

    def test_description_is_json_ready(self):
        found = search_converse_counterexample()
        assert json.loads(json.dumps(found.describe()))["defect_level"] == "c"
