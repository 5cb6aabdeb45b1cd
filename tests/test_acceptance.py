"""Acceptance gate: the end-to-end criteria, one test per criterion.

Every comparison is exact lattice-element equality; the only tolerances are
wall-clock budgets on the enumeration-heavy computations.  Each test prints
a single PASS line so a plain ``pytest -s tests/test_acceptance.py`` reads
as a checklist.
"""
import random
import time

from lsubgroups import (
    InstanceSpec,
    LPoint,
    LevelRelation,
    build_instance,
    builtin_group,
    candidate_space_size,
    chain_lattice,
    characteristic,
    enumerate_l_subgroups,
    frattini,
    frattini_classical,
    frattini_level_compare,
    generate,
    generate_oracle,
    is_maximal,
    is_non_generator,
    level_profile,
    maximal_l_subgroups,
    non_generator_subgroup,
    random_l_subset_below,
    run_suite,
)

from lsubgroups.maximal import _lpoint_verdict

from conftest import D8_PHI


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_q8_maximal_pair(q8_maximal_case):
    mu, eta = q8_maximal_case["mu"], q8_maximal_case["eta"]
    assert candidate_space_size(mu) <= 3600
    start = time.monotonic()
    enumerate_l_subgroups(mu)
    verdict = is_maximal(eta, mu)
    elapsed = time.monotonic() - start
    assert verdict.maximal
    assert elapsed < 5.0
    _report(1, f"Q8 pair maximal in {elapsed:.3f}s over <=3600 candidates")


def test_criterion_2_converse_counterexample(q8_converse_case):
    mu, eta, theta = q8_converse_case["mu"], q8_converse_case["eta"], q8_converse_case["theta"]
    verdict = is_maximal(eta, mu)
    assert not verdict.maximal
    assert verdict.witness_between == theta

    profile = level_profile(eta, mu)
    assert profile.unique_defect_level == "c"
    assert dict(profile.witness_levels)["c"] is LevelRelation.PROPER_MAXIMAL_SUBGROUP
    assert eta.level("c") == {"1", "-1"}
    assert mu.level("c") == {"1", "-1", "i", "-i"}
    _report(2, "level pattern holds, maximality fails, witness matches the published table")


def test_criterion_3_d8_maximals_and_frattini(d8_case):
    mu = d8_case["mu"]
    assert candidate_space_size(mu) <= 2880
    start = time.monotonic()
    maximals = maximal_l_subgroups(mu)
    report = frattini(mu)
    elapsed = time.monotonic() - start
    expected = sorted(
        [d8_case["eta1"], d8_case["eta2"], d8_case["eta3"], d8_case["eta4"]],
        key=lambda s: s.value_indices(),
    )
    assert list(maximals) == expected
    assert report.phi.values() == D8_PHI
    assert elapsed < 10.0
    _report(3, f"all four maximal L-subgroups and the Frattini table reproduced in {elapsed:.3f}s")


def test_criterion_4_nongenerator_points(d8_case):
    mu = d8_case["mu"]
    ok_b, _ = is_non_generator(LPoint("r2", "b"), mu)
    assert ok_b
    ok_c, witness = is_non_generator(LPoint("r2", "c"), mu)
    assert not ok_c
    assert witness == d8_case["eta1"]
    lam = non_generator_subgroup(mu)
    assert lam == frattini(mu).phi
    _report(4, "non-generator verdicts and the witness match; lambda equals phi pointwise")


def test_criterion_5_level_comparison(d8_case):
    mu = d8_case["mu"]
    report = frattini(mu)
    assert report.phi.level("b") == {"e", "r2"}
    klein = frozenset({"e", "r2", "s", "sr2"})
    assert frattini_classical(d8_case["group"], klein) == {"e"}
    compare = frattini_level_compare(mu, "b")
    assert compare["forward_inclusion"] is True
    assert compare["reverse_inclusion"] is False
    _report(5, "classical Frattini of the level sits inside the level of phi, converse fails")


def test_criterion_6_generation_oracle_equivalence():
    mismatches = 0
    for seed in range(100):
        inst = build_instance(
            InstanceSpec(seed=seed, lattice_kind="chain2-5", group_kind="Q8|D8|C6|V4")
        )
        assert len(inst.group) <= 8 and len(inst.lattice) <= 5
        raw = random_l_subset_below(random.Random(seed), inst.mu)
        if generate(raw) != generate_oracle(raw):
            mismatches += 1
    assert mismatches == 0
    _report(6, "formula and exhaustive-meet generation agree on 100 seeded instances")


def test_criterion_7_strategy_agreement(d8_case, q8_maximal_case, q8_converse_case):
    checked = 0
    parents = [d8_case["mu"], q8_maximal_case["mu"], q8_converse_case["mu"]]
    for seed in range(50):
        inst = build_instance(
            InstanceSpec(seed=1000 + seed, lattice_kind="chain2-4", group_kind="Q8|D8|C6|V4")
        )
        parents.append(inst.mu)
    for mu in parents:
        for nu in enumerate_l_subgroups(mu):
            verdict = is_maximal(nu, mu)
            if verdict.reason == "not_proper":
                continue
            assert verdict.maximal == _lpoint_verdict(nu, mu).maximal
            checked += 1
    _report(7, f"the coatom test and the point test agree on {checked} proper candidates")


def test_criterion_8_theorem_suite():
    start = time.monotonic()
    report = run_suite(
        InstanceSpec(seed=20260809, lattice_kind="chain2-6", group_kind="Q8|D8|C6|V4"),
        trials=200,
    )
    elapsed = time.monotonic() - start
    failing = {name: stats for name, stats in report.properties.items() if stats.failures}
    assert not failing, failing
    assert report.passed
    assert elapsed < 300.0
    _report(8, f"{len(report.properties)} properties over 200 instances, zero failures, {elapsed:.1f}s")


def test_criterion_9_crisp_collapse():
    lat = chain_lattice(["0", "1"])
    for name in ["Q8", "D8", "V4", "C1", "C2", "C3", "C4", "C6"]:
        group = builtin_group(name)
        everything = frozenset(group.elements)
        mu = characteristic(group, lat, everything)
        expected = characteristic(group, lat, frattini_classical(group, everything))
        assert frattini(mu).phi == expected
    _report(9, "two-valued Frattini collapses to the classical subgroup for every builtin")
