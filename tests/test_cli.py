"""End-to-end runs of the command line front end."""
import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lsubgroups import builtin_group, l_subset_from_document
from lsubgroups.cli import main

from conftest import D8_MU, D8_PHI, FIVE_CHAIN, Q8_ETA_MAXIMAL, Q8_MU_MAXIMAL

D8_ELEMENTS = list(D8_MU)
SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLES = SRC.parent / "samples"


@pytest.fixture
def docs(tmp_path):
    """Write the worked-instance documents and return their paths."""
    paths = {}

    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)

    write("chain5.json", {"chain": FIVE_CHAIN})
    write("d8.json", {"builtin": "D8"})
    write("q8.json", {"builtin": "Q8"})
    write("mu_d8.json", {"values": D8_MU})
    write("mu_q8.json", {"values": Q8_MU_MAXIMAL})
    write("eta_q8.json", {"values": Q8_ETA_MAXIMAL})
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def module_env():
    """The environment of a fresh interpreter that imports the library from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_module(argv, *flags):
    """Run the CLI in a fresh interpreter started with the given flags."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "lsubgroups.cli", *argv],
        capture_output=True, env=module_env(), timeout=300,
    )


def run_python(code):
    """Run a snippet in a fresh interpreter and return what it prints, parsed as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=module_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


# every name the package exported when all of its imports were eager
PACKAGE_EXPORTS = {
    "errors": (
        "DocumentError EmptySubsetError HypothesisNotMetError InstanceTooLargeError "
        "LPointNotInParentError LSubgroupsError MismatchedCarriersError NoIdentityError "
        "NoInverseError NonDistributiveLatticeError NotAHomomorphismError NotALatticeError "
        "NotAPosetError NotAnIsomorphismError NotAnLSubgroupError NotAssociativeError "
        "NotASubgroupError NotClosedError NotMaximalError NotNormalInGroupError "
        "SearchExhaustedError UnknownBuiltinError UnknownElementError"
    ),
    "lattice": "FiniteLattice chain_lattice lattice_from_document validate_lattice",
    "groups": (
        "FiniteGroup GroupHom all_subgroups builtin_group frattini_classical group_from_document "
        "hom_from_document identity_hom inner_automorphism is_normal_subgroup is_subgroup "
        "maximal_subgroups_of subgroup_closure validate_group validate_hom"
    ),
    "lsets": (
        "LPoint LSubset adjoin_point are_jointly_supstar characteristic constant contains "
        "generate generate_oracle has_sup_property intersection_of is_l_subgroup "
        "is_l_subgroup_of is_normal_in is_normal_in_group is_proper_l_subgroup l_subset "
        "l_subset_from_document point_in pullback pushforward set_product union_of"
    ),
    "maximal": (
        "DEFAULT_BUDGET LevelProfile LevelRelation MaximalityVerdict TipRelation "
        "candidate_space_size enumerate_l_subgroups is_maximal level_profile "
        "maximal_l_subgroups sufficient_maximal_check tip_relation transport_maximal "
        "transport_maximal_preimage"
    ),
    "frattini": (
        "FrattiniReport check_nongenerator_inclusion constant_obstructed frattini "
        "frattini_image_inclusion frattini_is_normal frattini_level_compare is_non_generator "
        "maximal_avoiding non_generator_points non_generator_subgroup "
        "nongenerators_conjugation_closed"
    ),
    "harness": (
        "ConverseCounterexample InstanceSpec SuiteReport build_instance make_lattice "
        "random_l_subgroup random_l_subset_below reference_nonmaximal_pair run_suite "
        "search_converse_counterexample"
    ),
}


class TestValidate:
    def test_full_stack(self, docs, capsys):
        code, out, _ = run(
            capsys, "validate",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 0
        assert "chain=True" in out
        assert "L-subgroup=True" in out

    def test_json_mode(self, docs, capsys):
        code, out, _ = run(
            capsys, "validate", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lattice"]["distributive"] is True
        assert payload["subset"]["tip"] == "1"

    def test_nothing_to_validate(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2
        assert "error" in err

    def test_pair_diagnostics(self, docs, capsys):
        code, out, _ = run(
            capsys, "validate", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["q8.json"],
            "-s", docs["mu_q8.json"], "-s2", docs["eta_q8.json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["subset2"]["contained_in_first"] is True
        assert payload["subset2"]["member_of_first"] is True
        assert payload["subset2"]["proper_member"] is True


class TestLevels:
    def test_table(self, docs, capsys):
        code, out, _ = run(
            capsys, "levels",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 0
        assert "b: {e, r2, s, sr2}" in out

    def test_json(self, docs, capsys):
        code, out, _ = run(
            capsys, "levels", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        payload = json.loads(out)
        assert payload["levels"]["c"] == ["e", "r2"]


class TestGenerate:
    def test_closed_input_round_trips(self, docs, capsys):
        code, out, _ = run(
            capsys, "generate", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["q8.json"], "-s", docs["eta_q8.json"],
        )
        assert code == 0
        assert json.loads(out)["values"] == Q8_ETA_MAXIMAL

    def test_emitted_document_reingests(self, docs, capsys, q8, five_chain):
        _, out, _ = run(
            capsys, "generate", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["q8.json"], "-s", docs["eta_q8.json"],
        )
        again = l_subset_from_document(json.loads(out), q8, five_chain)
        assert again.values() == Q8_ETA_MAXIMAL


class TestMaximals:
    def test_worked_q8_instance(self, docs, capsys):
        code, out, _ = run(
            capsys, "maximals", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["q8.json"], "-s", docs["mu_q8.json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert any(entry["values"] == Q8_ETA_MAXIMAL for entry in payload["maximals"])
        assert all(entry["verdict"] for entry in payload["maximals"])


class TestFrattini:
    def test_worked_d8_instance_table(self, docs, capsys):
        code, out, _ = run(
            capsys, "frattini",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 0
        assert "maximal count: 4" in out

    def test_worked_d8_instance_json(self, docs, capsys):
        code, out, _ = run(
            capsys, "frattini", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        payload = json.loads(out)
        assert payload["phi"] == D8_PHI
        assert payload["lambda"] == D8_PHI
        assert payload["used_fallback"] is False


class TestNongen:
    def test_reports_points(self, docs, capsys):
        code, out, _ = run(
            capsys, "nongen", "--format", "json",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == D8_PHI
        assert payload["points"]["b@r2"] is True
        assert payload["points"]["c@r2"] is False


class TestVerify:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "5", "--trials", "3")
        assert code == 0
        assert "passed" in out

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "5", "--trials", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("fmt, digest", [
        ("table", "d7bf12bba54726bd04bd550482c0d965d5af4abaa4511a5ce7ceb50bf4572993"),
        ("json", "fee54db66545052b2b1eea79bc0aac619c5b1f78e6752d6ac8b935a98424cab1"),
    ], ids=["table", "json"])
    def test_seed_zero_report_is_pinned(self, capsys, fmt, digest):
        # the full report of 200 seeded instances, byte for byte: a refactor
        # must leave it unchanged.  A change that adds, removes or renames a
        # property, or changes what one reports, moves these digests; update
        # them on purpose and say so in CHANGES.md
        code, out, _ = run(capsys, "verify", "--seed", "0", "--trials", "200", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_same_report_without_asserts(self):
        # python -O strips assert statements; no answer may depend on them
        argv = ["verify", "--seed", "0", "--trials", "25", "--format", "json"]
        plain, optimised = run_module(argv), run_module(argv, "-O")
        assert plain.returncode == optimised.returncode == 0
        assert optimised.stdout == plain.stdout


class TestWithoutAsserts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["maximals", "-l", "chain5.json", "-g", "q8.json", "-s", "mu_q8.json", "--format", "json"],
            ["frattini", "-l", "chain5.json", "-g", "d8.json", "-s", "mu_d8.json"],
            ["nongen", "-l", "chain5.json", "-g", "d8.json", "-s", "mu_d8.json", "--format", "json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_same_output_on_the_samples(self, argv):
        argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
        plain, optimised = run_module(argv), run_module(argv, "-O")
        assert plain.returncode == optimised.returncode == 0
        assert optimised.stdout == plain.stdout

    def test_library_has_no_assert_statements(self):
        # an assert vanishes under -O, so a check the answers rely on must raise
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted((SRC / "lsubgroups").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestColdImport:
    """A command that does not verify loads neither the harness nor dataclasses."""

    def test_cli_import_leaves_the_harness_and_dataclasses_unloaded(self):
        loaded = run_python(
            "import json, sys, types, lsubgroups.cli, lsubgroups\n"
            "print(json.dumps([[m for m in ('lsubgroups.harness', 'dataclasses') if m in sys.modules],"
            " isinstance(lsubgroups.frattini, types.FunctionType)]))"
        )
        assert loaded == [[], True]

    def test_a_harness_name_loads_it_on_first_use(self):
        seen = run_python(
            "import json, sys, lsubgroups\n"
            "before = 'lsubgroups.harness' in sys.modules\n"
            "run_suite = lsubgroups.run_suite\n"
            "print(json.dumps([before, run_suite is sys.modules['lsubgroups.harness'].run_suite]))"
        )
        assert seen == [False, True]

    @pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
    def test_every_export_resolves_to_its_module_object(self, module):
        import lsubgroups

        source = importlib.import_module(f"lsubgroups.{module}")
        listed = dir(lsubgroups)
        for name in PACKAGE_EXPORTS[module].split():
            assert getattr(lsubgroups, name) is getattr(source, name), name
            assert name in listed

    def test_unknown_name_raises_attribute_error(self):
        import lsubgroups

        with pytest.raises(AttributeError, match="no_such_name"):
            lsubgroups.no_such_name

    def test_verify_in_a_fresh_process(self):
        done = run_module(["verify", "--seed", "0", "--trials", "3"])
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().splitlines()[-1] == "passed"


class TestHasse:
    def test_lattice_diagram(self, docs, capsys):
        code, out, _ = run(capsys, "hasse", "-l", docs["chain5.json"], "--format", "dot")
        assert code == 0
        assert '"0" -> "a";' in out
        assert '"c" -> "1";' in out

    def test_level_diagram(self, docs, capsys):
        code, out, _ = run(
            capsys, "hasse", "--format", "dot",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 0
        assert '"{e}" -> "{e,r2}";' in out

    def test_dot_only_for_hasse(self, docs, capsys):
        code, _, err = run(
            capsys, "levels", "--format", "dot",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 2

    @pytest.mark.parametrize("with_subset", [False, True], ids=["lattice", "levels"])
    def test_json_refused(self, docs, capsys, with_subset):
        argv = ["hasse", "-l", docs["chain5.json"], "--format", "json"]
        if with_subset:
            argv += ["-g", docs["d8.json"], "-s", docs["mu_d8.json"]]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "json" in err


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "-l", "/nonexistent.json")
        assert code == 2
        assert "no such file" in err

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "validate", "-l", str(path))
        assert code == 2

    def test_cross_validation_failure(self, tmp_path, docs, capsys):
        bad = tmp_path / "bad_subset.json"
        bad.write_text(json.dumps({"values": {"e": "1"}}))
        code, _, _ = run(
            capsys, "levels",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", str(bad),
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["maximals", "frattini", "nongen"])
    def test_parent_that_is_not_an_l_subgroup(self, tmp_path, docs, capsys, command):
        # r at the top but r2 = r·r at the bottom breaks the subgroup law
        values = {x: "0" for x in D8_ELEMENTS}
        values.update({"e": "1", "r": "1", "r3": "1"})
        bad = tmp_path / "not_a_subgroup.json"
        bad.write_text(json.dumps({"values": values}))
        code, out, err = run(
            capsys, command, "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", str(bad),
        )
        assert (code, out) == (2, "")
        assert err == "error: the parent L-subset (-s) is not an L-subgroup\n"

    @pytest.mark.parametrize("command", ["maximals", "frattini", "nongen"])
    def test_parent_over_a_non_distributive_lattice(self, tmp_path, docs, capsys, command):
        pentagon = tmp_path / "pentagon.json"
        pentagon.write_text(json.dumps({
            "elements": ["0", "x", "z", "y", "1"],
            "le": [["0", "x"], ["x", "z"], ["z", "1"], ["0", "y"], ["y", "1"]],
        }))
        top = tmp_path / "top.json"
        top.write_text(json.dumps({"values": {x: "1" for x in D8_ELEMENTS}}))
        code, out, err = run(capsys, command, "-l", str(pentagon), "-g", docs["d8.json"], "-s", str(top))
        assert (code, out) == (2, "")
        assert err == "error: L-subgroup tests require a distributive lattice\n"

    @pytest.mark.parametrize(
        "command, flag, value, least",
        [("verify", "--trials", "0", 1), ("verify", "--trials", "-3", 1), ("maximals", "--budget", "-1", 0)],
    )
    def test_counts_out_of_range(self, docs, capsys, command, flag, value, least):
        # refused as malformed input while parsing, before any work is done
        with pytest.raises(SystemExit) as stop:
            main([command, flag, value,
                  "-l", docs["chain5.json"], "-g", docs["q8.json"], "-s", docs["mu_q8.json"]])
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"error: argument {flag}: must be at least {least}, not {value}\n")

    def test_reader_that_leaves_early(self, tmp_path):
        # C2^6 with long element names over a 60-chain: the level table runs
        # to some 140 KB, more than a pipe holds, so the CLI is still writing
        # when the reader takes one line and closes its end
        names = [f"element_{i:06b}_with_a_rather_long_name" for i in range(64)]
        chain = [f"c{k}" for k in range(60)]
        for name, payload in [
            ("group.json", {"elements": names, "table": [[names[i ^ j] for j in range(64)] for i in range(64)]}),
            ("chain.json", {"chain": chain}),
            ("top.json", {"values": {x: chain[-1] for x in names}}),
        ]:
            (tmp_path / name).write_text(json.dumps(payload))
        argv = ["levels", "-l", "chain.json", "-g", "group.json", "-s", "top.json"]
        with subprocess.Popen(
            [sys.executable, "-m", "lsubgroups.cli", *argv], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
        ) as child:
            assert child.stdout.readline() == b"level subsets\n"
            child.stdout.close()
            err = child.stderr.read()
            assert (child.wait(timeout=300), err) == (141, b"")

    def test_budget_exceeded(self, docs, capsys):
        code, _, err = run(
            capsys, "maximals", "--budget", "10",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 3
        assert "budget" in err

    def test_large_raw_space_is_not_refused(self, tmp_path, capsys):
        # 4^12 raw candidates, above the default budget, but few members
        paths = {}
        for name, payload in [
            ("chain4.json", {"chain": ["0", "a", "b", "1"]}),
            ("c12.json", {"builtin": "C12"}),
            ("top.json", {"values": {x: "1" for x in builtin_group("C12").elements}}),
        ]:
            (tmp_path / name).write_text(json.dumps(payload))
            paths[name] = str(tmp_path / name)
        code, out, err = run(
            capsys, "maximals", "--format", "json",
            "-l", paths["chain4.json"], "-g", paths["c12.json"], "-s", paths["top.json"],
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["count"] == 2
