"""End-to-end runs of the command line front end."""
import ast
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lsubgroups.cli as cli_module
import lsubgroups.groups as groups_module
import lsubgroups.maximal as maximal_module
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


def run_python(code, *argv):
    """Run a snippet in a fresh interpreter and return what it prints, parsed as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, env=module_env(), timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


# every name the package exports, by the module that defines it
PACKAGE_EXPORTS = {
    "errors": (
        "DocumentError EmptySubsetError HypothesisNotMetError InstanceTooLargeError "
        "LPointNotInParentError LSubgroupsError MismatchedCarriersError NoIdentityError "
        "NoInverseError NonDistributiveLatticeError NotAHomomorphismError NotALatticeError "
        "NotAPosetError NotAnLSubgroupError NotAssociativeError NotASubgroupError "
        "NotClosedError NotMaximalError SearchExhaustedError UnknownBuiltinError "
        "UnknownElementError"
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
        "maximal_l_subgroups sufficient_maximal_check tip_relation"
    ),
    "frattini": (
        "FrattiniReport frattini frattini_level_compare is_non_generator maximal_avoiding "
        "non_generator_points non_generator_subgroup"
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

    def test_large_lattice(self, tmp_path, capsys):
        # 256 elements: the product of two 16-element chains
        names = [f"({i},{j})" for i in range(16) for j in range(16)]
        pairs = [[f"({i},{j})", f"({i + 1},{j})"] for i in range(15) for j in range(16)]
        pairs += [[f"({i},{j})", f"({i},{j + 1})"] for i in range(16) for j in range(15)]
        path = tmp_path / "product16x16.json"
        path.write_text(json.dumps({"elements": names, "le": pairs}))
        code, out, _ = run(capsys, "validate", "-l", str(path))
        assert code == 0
        assert out.startswith("lattice: 256 elements") and "distributive=True" in out

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

    def test_each_document_is_read_once(self, docs, capsys, monkeypatch):
        reads = []
        load = cli_module._load_json
        monkeypatch.setattr(cli_module, "_load_json", lambda path: reads.append(path) or load(path))
        code, _, _ = run(
            capsys, "validate",
            "-l", docs["chain5.json"], "-g", docs["q8.json"],
            "-s", docs["mu_q8.json"], "-s2", docs["eta_q8.json"],
        )
        assert code == 0
        names = ("chain5.json", "q8.json", "mu_q8.json", "eta_q8.json")
        assert sorted(reads) == sorted(docs[name] for name in names)


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


D8_SAMPLE = ["-l", "chain5.json", "-g", "d8.json", "-s", "mu_d8.json"]
Q8_SAMPLE = ["-l", "chain5.json", "-g", "q8.json", "-s", "mu_q8.json"]
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# id: (argv on samples/, exit code, sha256 of stdout, sha256 of stderr)
SAMPLE_BYTES = {
    "validate": (["validate", *D8_SAMPLE], 0,
        "75d25925b303ac4c41959ec0b1be8e40e351e51f6e059cd9a212a271983d6a0d", EMPTY),
    "levels": (["levels", *D8_SAMPLE], 0,
        "0fd9918621c07a1ffa945bdecb55414ebb417d84f5f9d564eec44cad8fe6e27f", EMPTY),
    "generate": (["generate", "-l", "chain5.json", "-g", "q8.json", "-s", "eta_q8.json"], 0,
        "10afc8639bae6cb548714efd4ff1c6d31235264b91c82376f3d0fc7985204ac6", EMPTY),
    "hasse": (["hasse", "-l", "chain5.json", "--format", "dot"], 0,
        "f47ed8a538c8a4f3541d9e51f53aa7fd58a50e43dbe1fea6c20b1620888eacc4", EMPTY),
    "maximals d8 table": (["maximals", *D8_SAMPLE], 0,
        "eec647018e97cf2807696be8383fdcf916f6bed409616a285ddde1bf3bd73e66", EMPTY),
    "maximals d8 json": (["maximals", *D8_SAMPLE, "--format", "json"], 0,
        "9b677d4c4d8f84d47fbcb8c2d83d8bd5e234508a42bad61972a1c47ed84c769c", EMPTY),
    "maximals q8 table": (["maximals", *Q8_SAMPLE], 0,
        "173515f74d4079a9126a94e28791dae50abe26d8a6bdd17eb4d45305185096a8", EMPTY),
    "maximals q8 json": (["maximals", *Q8_SAMPLE, "--format", "json"], 0,
        "de3da3635b0d2a2ab5507a79321832395337f0b72d375fbc17624f6625b37a19", EMPTY),
    "frattini d8 table": (["frattini", *D8_SAMPLE], 0,
        "9f595513836f95312f41648b1feb8b56c038eb260e0462d3a0e9fea66947981e", EMPTY),
    "frattini d8 json": (["frattini", *D8_SAMPLE, "--format", "json"], 0,
        "56939c9ddc90450e9cc0f1ca9e60dedd565ca49f6c2b6834029b487e5fe61a9c", EMPTY),
    "frattini q8 table": (["frattini", *Q8_SAMPLE], 0,
        "d427607ed3375bcc4951fa79f4ce6be1eeb6621100e57d79c1b5fc3012653290", EMPTY),
    "frattini q8 json": (["frattini", *Q8_SAMPLE, "--format", "json"], 0,
        "9e46f3010d0abacdd4a8db3d6a96ce6b7c6ba20e9a9511a99de625be93520b67", EMPTY),
    "nongen d8 table": (["nongen", *D8_SAMPLE], 0,
        "4aab033932a1320deb7d7837dcaae48a1a480bc8211ac374351fe115491b5d1c", EMPTY),
    "nongen d8 json": (["nongen", *D8_SAMPLE, "--format", "json"], 0,
        "90f6e4e59b00b081cac867a6a75dec5aaffa0b8d5228d1691d37ce578c26f6c3", EMPTY),
    "nongen q8 table": (["nongen", *Q8_SAMPLE], 0,
        "5956bf2c9d37a86854d13c94021d694abb67c3035666cfcc85626d2fd350f8d5", EMPTY),
    "nongen q8 json": (["nongen", *Q8_SAMPLE, "--format", "json"], 0,
        "96e1c906fb2668ec62b35f6ea265089dd1151380b97a6003c22d1b7dda3a4774", EMPTY),
    # the D8 parent has 4 coatoms: "error: the level cuts of mu number 4, over the budget of 3"
    "maximals budget 3": (["maximals", "--budget", "3", *D8_SAMPLE], 3,
        EMPTY, "3466bd1c41edfff88fae1b0e7535c771b61c2015a0f6e4ad3e46d634a5c925d0"),
}


class TestSampleBytes:
    """Every README sample command but ``verify``, the three coatom readers on
    both sample parents in both formats, and the budget refusal, byte for
    byte.  A change that moves one of these digests changes what a user
    sees; update it on purpose and say so in CHANGES.md."""

    @pytest.mark.parametrize("case", sorted(SAMPLE_BYTES))
    def test_digests(self, capsys, case):
        argv, *pinned = SAMPLE_BYTES[case]
        code, out, err = run(capsys, *[str(SAMPLES / a) if a.endswith(".json") else a for a in argv])
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
        assert [code, *digests] == pinned


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

    def test_failing_property_exits_one(self, capsys, monkeypatch):
        from lsubgroups import harness

        def always_wrong(inst):
            harness._fail(reason="intentional")

        monkeypatch.setitem(harness.PROPERTIES, "intentionally_false", always_wrong)
        code, out, err = run(capsys, "verify", "--trials", "1")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("FAIL ")] == [
            "FAIL intentionally_false: trials=1 skipped=0 failures=1"
        ]
        assert lines[-1] == "FAILED"

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


def named_outside(owner, names):
    """Where a library module other than ``owner`` imports, reads or calls one of ``names``."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "lsubgroups").glob("*.py"))
        if path.stem != owner
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Name) and node.id in names
    ]


class TestModuleBoundaries:
    def test_only_groups_touches_the_subgroup_table(self):
        # groups._is_subgroup answers membership, and groups._closure and
        # groups._subgroups_within are the only readers of the table's order;
        # every other module goes through those, so the table can change in
        # one place
        assert named_outside("groups", {"_subgroup_table"}) == []

    def test_only_maximal_builds_level_map_codes(self):
        # the Birkhoff layout of a level map (one field per group element, one
        # bit per join-irreducible) is known to maximal alone; a point's code
        # comes from maximal._point_code and any map's from maximal._code, the
        # one encoder, whose table rides on _birkhoff with the rank table that
        # maximal._highest reads when it picks a witness; the
        # digit tables that read a level mask off the values are lsets' alone,
        # behind _level_masks and _level_at
        assert named_outside("maximal", {"_code", "_spread", "_birkhoff"}) == []
        assert named_outside("lsets", {"_level_rows"}) == []

    def test_library_imports_only_the_stdlib(self):
        # the library runs on a bare interpreter: every absolute import is of
        # a standard-library module (sys.stdlib_module_names exists from 3.10,
        # the floor in pyproject.toml); relative imports stay in the package
        outside = [
            f"{path.name}:{node.lineno} {name}"
            for path in sorted((SRC / "lsubgroups").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            for name in (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
                else []
            )
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
        assert outside == []

    def test_library_has_no_unused_imports(self):
        # a name an import binds is read somewhere in its module; annotations
        # count, as they stay in the syntax tree under postponed evaluation
        unused = []
        for path in sorted((SRC / "lsubgroups").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [
                f"{path.stem}.{name}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for name in ((a.asname or a.name).partition(".")[0] for a in node.names)
                if name not in read
            ]
        # generate stays imported in maximal until the benchmark's tracer goes:
        # bench/tests/test_bench.py::test_tracer_restores_every_binding reads it
        assert unused == ["maximal.generate"]

    def test_chain_hypothesis_is_stated_once(self):
        # the level comparison is the one statement that needs a chain (F20
        # and S4 break it off chains): the library refuses there alone, and
        # the harness skips there alone, on that refusal, with no chain test of its own
        def owners(path, hit):
            found = []

            def visit(node, owner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    owner = f"{path.stem}.{node.name}"
                if hit(node):
                    found.append(owner)
                for child in ast.iter_child_nodes(node):
                    visit(child, owner)

            visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
            return found

        def named(node, name):
            return isinstance(node, ast.Name) and node.id == name or (
                isinstance(node, ast.Attribute) and node.attr == name
            )

        def raises_hypothesis(node):
            return isinstance(node, ast.Raise) and node.exc is not None and any(
                named(n, "HypothesisNotMetError") for n in ast.walk(node.exc)
            )

        raises = [
            owner
            for path in sorted((SRC / "lsubgroups").glob("*.py"))
            for owner in owners(path, raises_hypothesis)
        ]
        assert raises == ["frattini.frattini_level_compare"]

        def catches_hypothesis(node):
            return isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                named(n, "HypothesisNotMetError") for n in ast.walk(node.type)
            )

        harness_path = SRC / "lsubgroups" / "harness.py"
        assert owners(harness_path, catches_hypothesis) == ["harness.prop_frattini_level_inclusion"]
        assert owners(harness_path, lambda node: named(node, "is_chain")) == []


# the library layers a command loads besides the package, cli and errors
COMMAND_LAYERS = {
    "validate": "lattice groups lsets",
    "levels": "lattice groups lsets",
    "generate": "lattice groups lsets",
    "hasse": "lattice",
    "maximals": "lattice groups lsets maximal",
    "frattini": "lattice groups lsets maximal frattini",
    "nongen": "lattice groups lsets maximal frattini",
}
LOAD_CASES = {
    **{case: (argv, code, COMMAND_LAYERS[argv[0]]) for case, (argv, code, *_) in SAMPLE_BYTES.items()},
    "hasse levels": (["hasse", *D8_SAMPLE, "--format", "dot"], 0, "lattice groups lsets"),
    "validate bad group": (["validate", "-l", "chain5.json", "-g", "bad_group.json"], 2, "lattice groups"),
}
RUN_AND_LIST_MODULES = (
    "import contextlib, io, json, sys, lsubgroups.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = lsubgroups.cli.main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('lsubgroups'))]))"
)

# what ``from lsubgroups import *`` bound when all of the package's imports
# were eager: the library's exports and the submodules bound on the package
STAR_NAMES = sorted({
    *(name for module, names in PACKAGE_EXPORTS.items() if module != "harness" for name in names.split()),
    "errors", "groups", "lattice", "lsets", "maximal",
})


class TestColdImport:
    """``import lsubgroups`` loads no layer, a CLI command only the layers it
    runs, and the package namespace is the same whatever loaded first."""

    def test_cli_import_leaves_the_harness_and_dataclasses_unloaded(self):
        loaded = run_python(
            "import json, sys, types, lsubgroups.cli, lsubgroups\n"
            "before = sorted(m for m in sys.modules if m.startswith('lsubgroups'))\n"
            "function = isinstance(lsubgroups.frattini, types.FunctionType)\n"
            "print(json.dumps([before, [m for m in ('lsubgroups.harness', 'dataclasses') if m in sys.modules],"
            " function]))"
        )
        assert loaded == [["lsubgroups", "lsubgroups.cli", "lsubgroups.errors"], [], True]

    @pytest.mark.parametrize("case", sorted(LOAD_CASES))
    def test_a_command_loads_only_the_layers_it_runs(self, tmp_path, case):
        argv, code, layers = LOAD_CASES[case]
        # a two-element table whose product a·a is not an element
        bad = tmp_path / "bad_group.json"
        bad.write_text(json.dumps({"elements": ["e", "a"], "table": [["e", "a"], ["a", "b"]]}))
        argv = [str(bad if a == "bad_group.json" else SAMPLES / a) if a.endswith(".json") else a for a in argv]
        expected = sorted(["lsubgroups", "lsubgroups.cli", "lsubgroups.errors",
                           *(f"lsubgroups.{layer}" for layer in layers.split())])
        assert run_python(RUN_AND_LIST_MODULES, *argv) == [code, expected]

    @pytest.mark.parametrize("first", [
        "import lsubgroups.frattini",
        "import lsubgroups.harness",
        "import lsubgroups.frattini as imported\nassert isinstance(imported, types.FunctionType)",
        "from lsubgroups.frattini import frattini",
        "import lsubgroups.maximal, lsubgroups.frattini",
    ], ids=["frattini", "harness", "frattini-as", "from-frattini", "maximal-then-frattini"])
    def test_frattini_is_the_function_after_any_first_import(self, first):
        assert run_python(
            f"import json, sys, types\n{first}\nimport lsubgroups\n"
            "print(json.dumps([isinstance(lsubgroups.frattini, types.FunctionType),"
            " lsubgroups.frattini is sys.modules['lsubgroups.frattini'].frattini]))"
        ) == [True, True]

    def test_frattini_is_the_function_after_cli_commands(self):
        samples = [str(SAMPLES / a) for a in D8_SAMPLE[1::2]]
        assert run_python(
            "import contextlib, io, json, sys, types, lsubgroups, lsubgroups.cli\n"
            "l, g, s = sys.argv[1:]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [lsubgroups.cli.main(['frattini', '-l', l, '-g', g, '-s', s]),"
            " lsubgroups.cli.main(['validate', '-l', l, '-g', g, '-s', s])]\n"
            "print(json.dumps([codes, isinstance(lsubgroups.frattini, types.FunctionType)]))",
            *samples,
        ) == [[0, 0], True]

    def test_star_import_binds_the_names_the_eager_package_bound(self):
        assert len(STAR_NAMES) == 87
        bound = run_python(
            "import json\nnames = {}\nexec('from lsubgroups import *', names)\n"
            "print(json.dumps(sorted(set(names) - {'__builtins__'})))"
        )
        assert bound == STAR_NAMES

    def test_dir_lists_every_export_before_the_first_load(self):
        listed, loaded = run_python(
            "import json, sys, lsubgroups\n"
            "print(json.dumps([dir(lsubgroups), [m for m in sys.modules if m.startswith('lsubgroups.')]]))"
        )
        assert loaded == []
        assert {name for names in PACKAGE_EXPORTS.values() for name in names.split()} <= set(listed)

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

    @pytest.mark.parametrize("with_subset", [False, True], ids=["lattice", "levels"])
    def test_quotes_and_backslashes_are_escaped(self, tmp_path, capsys, with_subset):
        # each ID is one quoted DOT string that decodes back to its name
        odd = ['a"b', "c\\", '\\"']
        lattice = tmp_path / "odd_chain.json"
        lattice.write_text(json.dumps({"chain": ["0", *odd, "1"]}))
        argv = ["hasse", "--format", "dot", "-l", str(lattice)]
        if with_subset:
            names = ["e", *odd]  # C4 with three awkward element names
            table = [[names[(i + j) % 4] for j in range(4)] for i in range(4)]
            values = dict(zip(names, ["1", *odd]))
            for name, payload in [("odd_c4.json", {"elements": names, "table": table}),
                                  ("odd_mu.json", {"values": values})]:
                (tmp_path / name).write_text(json.dumps(payload))
            argv += ["-g", str(tmp_path / "odd_c4.json"), "-s", str(tmp_path / "odd_mu.json")]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        quoted = r'"(?:[^"\\]|\\.)*"'
        nodes, edges = [], []
        for line in out.splitlines()[2:-1]:
            match = re.fullmatch(rf"  ({quoted})(?: -> ({quoted}))?;", line)
            assert match, line
            lo, hi = (re.sub(r"\\(.)", r"\1", g[1:-1]) if g else None for g in match.groups())
            if hi is None:
                nodes.append(lo)
            else:
                edges.append((lo, hi))
        if with_subset:  # the levels from the bottom value up, each edge from smaller to larger
            assert nodes == ['{e,a"b,c\\,\\"}', '{e,c\\,\\"}', '{e,\\"}', "{e}"]
            assert edges == list(zip(nodes[1:], nodes))
        else:
            assert nodes == ["0", *odd, "1"]
            assert edges == list(zip(nodes, nodes[1:]))

    def test_dot_only_for_hasse(self, docs, capsys):
        code, _, err = run(
            capsys, "levels", "--format", "dot",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 2
        assert err == "error: dot output is only available for the hasse command\n"

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

    @pytest.mark.parametrize("flag, content", [
        ("-g", '{"builtin": 5}'),
        ("-g", '{"builtin": ["D8"]}'),
        ("-g", '{"elements": ["e", "g"], "table": [["e", ["g"]], ["g", "e"]]}'),
        ("-s", json.dumps({"values": {**{x: "0" for x in D8_ELEMENTS}, "e": ["1"]}})),
        ("-l", None),
        ("-l", b'{"chain": ["0", "\xff"]}'),
        ("-l", "[" * 100_000 + "]" * 100_000),
        ("-l", json.dumps({"chain": FIVE_CHAIN, "le": [["1", "0"]]})),
        ("-g", json.dumps({"builtin": "D8", **builtin_group("D8").as_document()})),
    ], ids=["builtin number", "builtin list", "table entry list", "value list", "directory",
            "not utf-8", "nested deep", "chain with le", "builtin with table"])
    def test_malformed_document(self, tmp_path, docs, capsys, flag, content):
        # each used to end in a traceback and exit 1
        path = tmp_path / "malformed.json"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        paths = {"-l": docs["chain5.json"], "-g": docs["d8.json"], "-s": docs["mu_d8.json"], flag: str(path)}
        code, out, err = run(capsys, "levels", *[a for pair in paths.items() for a in pair])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.load raises a plain ValueError for an integer longer than the
        # int() digit limit; that used to end in a traceback and exit 1, and
        # then in Python's advice to raise the limit, which a CLI user cannot
        # follow.  Without the limit the 'chain' check refuses the number instead
        path = tmp_path / "huge.json"
        path.write_text('{"chain": [' + "7" * 5000 + "]}")
        code, out, err = run(capsys, "validate", "-l", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "set_int_max_str_digits" not in err
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 4300:
            assert err == f"error: {path}: holds an integer longer than 4,300 digits\n"

    def test_builtin_name_that_is_not_a_decimal(self, tmp_path, capsys):
        # "²" passes str.isdigit() but not int(): this used to end in a traceback
        path = tmp_path / "c_squared.json"
        path.write_text(json.dumps({"builtin": "C\u00b2"}))
        code, out, err = run(capsys, "validate", "-g", str(path))
        assert (code, out) == (2, "")
        assert err == "error: unknown builtin group 'C\u00b2'\n"

    @pytest.mark.parametrize("argv, message", [
        (["levels", "-g", "d8.json", "-s", "mu_d8.json"], "this command needs a lattice document (-l)"),
        (["levels", "-l", "chain5.json", "-s", "mu_d8.json"], "this command needs a group document (-g)"),
        (["levels", "-l", "chain5.json", "-g", "d8.json"], "this command needs an L-subset document (-s)"),
        (["validate", "-s2", "mu_d8.json"], "-s2 needs a first L-subset to compare against"),
    ], ids=["no lattice", "no group", "no subset", "second subset alone"])
    def test_missing_document(self, docs, capsys, argv, message):
        code, out, err = run(capsys, *[docs.get(arg, arg) for arg in argv])
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("key, n", [("chain", 10_000), ("elements", 1025), ("chain", 257), ("elements", 257)])
    def test_lattice_past_the_limit(self, tmp_path, capsys, key, n):
        # a 69 KB chain of 10,000 names used to ask for n x n join and meet
        # tables, projected at minutes and gigabytes; past 256 an index no
        # longer fits the byte an L-subset keeps per value
        path = tmp_path / "large.json"
        path.write_text(json.dumps({key: [f"c{i}" for i in range(n)]}))
        code, out, err = run(capsys, "validate", "-l", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: a lattice of {n} elements is too large: lattices are built for up to 256 elements\n"

    @pytest.mark.parametrize("key", ["chain", "elements"])
    def test_lattice_at_the_limit(self, tmp_path, capsys, key):
        # 256 elements are admitted: the chain validates, and the antichain
        # of "elements" with no order pairs fails only as a lattice
        path = tmp_path / "large.json"
        path.write_text(json.dumps({key: [f"c{i}" for i in range(256)]}))
        code, out, err = run(capsys, "validate", "-l", str(path))
        if key == "chain":
            assert (code, err) == (0, "")
        else:
            assert (code, out) == (2, "")
            assert "no least upper bound" in err

    def test_cyclic_builtin_past_the_limit(self, tmp_path, capsys):
        # a 22-byte document used to ask for a table of 10^10 entries
        path = tmp_path / "c100000.json"
        path.write_text(json.dumps({"builtin": "C100000"}))
        code, out, err = run(capsys, "validate", "-g", str(path))
        assert (code, out) == (2, "")
        assert err == "error: builtin group 'C100000' is too large: Cn is built for n up to 256\n"

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
        # the budget is the most coatoms a command may build: the D8 parent has 4
        argv = ["-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"]]
        assert run(capsys, "maximals", "--budget", "3", *argv) == (
            3, "", "error: the level cuts of mu number 4, over the budget of 3\n"
        )
        assert run(capsys, "maximals", "--budget", "4", *argv)[0] == 0

    def test_a_subgroup_table_past_its_budget_exits_3(self, docs, capsys, monkeypatch, tmp_path):
        # D8 by its table, so that the builtin's cached subgroup table is not read
        d8 = tmp_path / "d8_table.json"
        d8.write_text(json.dumps(builtin_group("D8").as_document()))
        monkeypatch.setattr(groups_module, "_TABLE_BUDGET", 9)
        assert run(capsys, "frattini", "-l", docs["chain5.json"], "-g", str(d8), "-s", docs["mu_d8.json"]) == (
            3, "", "error: the subgroup table of the group of order 8 stopped at 10 subgroups, over its budget of 9\n"
        )

    @pytest.mark.parametrize("budget", ["72", "100000000"])
    def test_maximals_builds_the_coatoms_once_at_its_budget(self, docs, capsys, budget):
        # the tip relations read the coatoms that --budget built, not a
        # second set at the default budget
        maximal_module._coatom_index.cache_clear()
        code, out, err = run(
            capsys, "maximals", "--budget", budget,
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert (code, err) == (0, "")
        assert out.startswith("4 maximal L-subgroup(s)")
        assert maximal_module._coatom_index.cache_info().misses == 1

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
