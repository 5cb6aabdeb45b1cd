"""Seeded document fuzzing of the command line front end.

Each case takes one README sample command, mutates one of its documents
(drops a key, swaps a value's type, duplicates or renames an element,
nests a value in lists, shallow or far too deep to read, or truncates the
text) and runs the CLI in process twice.  A malformed
document must be refused with exit code 2, a search that runs out of
budget with 3, and anything the mutation left well formed answered with
0; never an uncaught exception, and the same bytes on the rerun.
"""
import json
import random
from pathlib import Path

import pytest

from lsubgroups import builtin_group
from lsubgroups.cli import main

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

D8 = ["-l", "chain5.json", "-g", "d8.json", "-s", "mu_d8.json"]
Q8 = ["-l", "chain5.json", "-g", "q8.json", "-s", "mu_q8.json"]
COMMANDS = [
    ["validate", *D8],
    ["validate", *Q8, "-s2", "eta_q8.json"],
    ["levels", *D8],
    ["generate", "-l", "chain5.json", "-g", "q8.json", "-s", "eta_q8.json"],
    ["hasse", "-l", "chain5.json", "--format", "dot"],
    ["hasse", *D8, "--format", "dot"],
    *([command, *sample, *fmt]
      for command in ("maximals", "frattini", "nongen")
      for sample in (D8, Q8)
      for fmt in ([], ["--format", "json"])),
    ["maximals", "--budget", "3", *D8],
]

MUTATIONS = ("drop_key", "swap_type", "duplicate_element", "rename_element", "nest", "truncate")
SEEDS = range(4)
CASES_PER_SEED = 250


def nodes(doc, path=()):
    """(path, value) for every node under doc, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, (*path, i))


def at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def other_type(value, rng):
    choices = [None, True, 7, -1, 2.5, "x", "", [], ["x"], {}, {"x": "y"}]
    return rng.choice([c for c in choices if type(c) is not type(value)])


def mutate(text: str, rng: random.Random) -> str:
    """One seeded mutation of a JSON document's text."""
    kind = rng.choice(MUTATIONS)
    if kind == "truncate":
        return text[:rng.randrange(len(text))]
    doc = json.loads(text)
    every = list(nodes(doc))
    if kind == "drop_key":
        holder = rng.choice([v for _, v in every if isinstance(v, dict) and v])
        del holder[rng.choice(list(holder))]
    elif kind == "swap_type":
        path, value = rng.choice(every[1:])
        at(doc, path[:-1])[path[-1]] = other_type(value, rng)
    elif kind == "nest":
        path, value = rng.choice(every[1:])
        at(doc, path[:-1])[path[-1]] = "@nest@"
        depth = rng.choice((2, 100_000))
        return json.dumps(doc).replace('"@nest@"', "[" * depth + json.dumps(value) + "]" * depth)
    else:
        # element names are the strings of a list or the keys of an object
        holders = [v for _, v in every if isinstance(v, (list, dict)) and len(v) > 1]
        holder = rng.choice(holders)
        if isinstance(holder, list):
            i, j = rng.sample(range(len(holder)), 2)
            holder[i] = holder[j] if kind == "duplicate_element" else f"{holder[i]}'"
        else:
            old, new = rng.sample(list(holder), 2)
            value = holder.pop(old)
            # a duplicated key keeps the one read last, as JSON parsers do
            holder[new if kind == "duplicate_element" else f"{old}'"] = value
    return json.dumps(doc)


def base_text(name: str) -> str:
    """The sample's text; a builtin group is written out as its full table."""
    doc = json.loads((SAMPLES / name).read_text())
    if "builtin" in doc:
        doc = builtin_group(doc["builtin"]).as_document()
    return json.dumps(doc)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_sample_documents(tmp_path, capsys, seed):
    rng = random.Random(seed)
    codes = set()
    for case in range(CASES_PER_SEED):
        command = rng.choice(COMMANDS)
        target = rng.choice([a for a in command if a.endswith(".json")])
        mutated = tmp_path / f"{case}-{target}"
        mutated.write_text(mutate(base_text(target), rng))
        argv = [
            str(mutated) if a == target else str(SAMPLES / a) if a.endswith(".json") else a
            for a in command
        ]
        first = run(capsys, argv)
        assert first[0] in (0, 2, 3), (argv, first)
        assert "Traceback" not in first[1] + first[2], argv
        assert run(capsys, argv) == first, argv
        codes.add(first[0])
    assert {0, 2} <= codes
