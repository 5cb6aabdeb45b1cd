"""End-to-end runs of the command line front end."""
import json

import pytest

from lsubgroups import l_subset_from_document
from lsubgroups.cli import main

from conftest import D8_MU, D8_PHI, FIVE_CHAIN, Q8_ETA_MAXIMAL, Q8_MU_MAXIMAL

D8_ELEMENTS = list(D8_MU)


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

    def test_budget_exceeded(self, docs, capsys):
        code, _, err = run(
            capsys, "maximals", "--budget", "10",
            "-l", docs["chain5.json"], "-g", docs["d8.json"], "-s", docs["mu_d8.json"],
        )
        assert code == 3
        assert "budget" in err
