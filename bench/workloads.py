"""The four benchmark workloads: their set-up, operations and output checks.

``prepare(name, seed, root)`` does a workload's set-up and returns a
``Plan``: the operations of one pass, each a label and a callable, and a
check per operation that returns a failure message or ``None``.  Checks run
outside the timed region.  Everything reaches the library through its
public functions, and the library only sees what the seed generates.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from inputs import GROUP_NAMES, LATTICE_NAMES, automorphism, chain_parent, group_table, lattice_spec

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

# far above every admitted raw candidate space, so budget semantics never
# decide which operations run
LADDER_BUDGET = 10 ** 30

# Admission: a ladder parent runs when its raw candidate space (the product
# of down-set sizes, computed without searching) is at most the cap.
FRATTINI_SPACE_CAP = 10 ** 8
ENUM_SPACE_CAP = 10 ** 14
PARENTS_PER_CELL = {"frattini_ladder": 1, "enum_ladder": 1}
DRAWS_PER_CELL = 8

# verify_suite runs the instances of `lsubgroups verify --seed 0 --trials 50`
# and the workload seed orders them.  Drawing the instances from the workload
# seed instead moves a pass's wall time by 15-20% between seeds, because
# trial costs are heavy-tailed, which would swamp the changes it must show.
VERIFY_SPEC_SEED = 0
VERIFY_TRIALS = 50

CLI_COMMANDS = [
    (["validate", "-l", "samples/chain5.json", "-g", "samples/d8.json", "-s", "samples/mu_d8.json"], 0),
    (["levels", "-l", "samples/chain5.json", "-g", "samples/d8.json", "-s", "samples/mu_d8.json"], 0),
    (["generate", "-l", "samples/chain5.json", "-g", "samples/q8.json", "-s", "samples/eta_q8.json"], 0),
    (["maximals", "-l", "samples/chain5.json", "-g", "samples/q8.json", "-s", "samples/mu_q8.json",
      "--format", "json"], 0),
    (["frattini", "-l", "samples/chain5.json", "-g", "samples/d8.json", "-s", "samples/mu_d8.json"], 0),
    (["nongen", "-l", "samples/chain5.json", "-g", "samples/d8.json", "-s", "samples/mu_d8.json",
      "--format", "json"], 0),
    (["hasse", "-l", "samples/chain5.json", "--format", "dot"], 0),
    (["hasse", "-l", "samples/chain5.json", "-g", "samples/d8.json", "-s", "samples/mu_d8.json",
      "--format", "dot"], 0),
    (["validate", "-l", "samples/chain5.json", "-g", "bench/data/bad_group.json"], 2),
]


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Plan:
    ops: list[Op]
    info: dict = field(default_factory=dict)


def module(name: str):
    """A library module by name, through sys.modules (package attributes can shadow it)."""
    return importlib.import_module(f"lsubgroups.{name}")


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def load_expected(name: str) -> dict:
    path = EXPECTED / f"{name}.json"
    return json.loads(path.read_text()) if path.exists() else {}


# ------------------------------------------------------------ verify_suite

def verify_trial(harness, spec, trial: int, span=None) -> dict:
    """One trial: build the instance and run every property on it.

    Returns the outcome of each property: ``ok``, ``skipped`` or the failure.
    """
    inst = harness.build_instance(spec, trial)
    outcomes = {}
    for name, prop in harness.PROPERTIES.items():
        try:
            if span is None:
                outcome = prop(inst)
            else:
                with span(f"harness.prop.{name}"):
                    outcome = prop(inst)
        except Exception as exc:  # a raising property is a failing property
            outcomes[name] = f"{type(exc).__name__}: {exc}"
        else:
            outcomes[name] = "skipped" if outcome == harness.SKIPPED else "ok"
    return outcomes


def converse_search(harness) -> dict:
    try:
        harness.search_converse_counterexample()
    except Exception as exc:
        return {"converse_level_pattern_insufficient": f"{type(exc).__name__}: {exc}"}
    return {"converse_level_pattern_insufficient": "ok"}


def _failed_properties(outcomes: dict) -> str | None:
    bad = {k: v for k, v in outcomes.items() if v not in ("ok", "skipped")}
    return f"failing properties: {bad}" if bad else None


def prepare_verify(seed: int, span=None) -> Plan:
    harness = module("harness")
    spec = harness.InstanceSpec(VERIFY_SPEC_SEED)
    ops = [
        Op(f"trial{t}", lambda t=t: verify_trial(harness, spec, t, span), _failed_properties)
        for t in range(VERIFY_TRIALS)
    ]
    ops.append(Op("converse", lambda: converse_search(harness), _failed_properties))
    random.Random(seed).shuffle(ops)
    return Plan(ops)


# ---------------------------------------------------------------- ladders

def build_ladder(kind: str, seed: int) -> tuple[list, list[dict]]:
    """Admitted ladder instances, and every parent turned away.

    Each admitted instance is ``(label, mu, back)``, where ``back`` maps an
    element to its preimage under the seed's automorphism.  For each group
    and lattice the parents are drawn in a fixed order; a parent is admitted
    when it is new in its cell and its raw candidate space is at most the
    workload's cap, until the cell holds its quota.
    """
    api = importlib.import_module("lsubgroups")
    cap = FRATTINI_SPACE_CAP if kind == "frattini_ladder" else ENUM_SPACE_CAP
    quota = PARENTS_PER_CELL[kind]
    lattices = {name: api.validate_lattice(*lattice_spec(name)) for name in LATTICE_NAMES}
    admitted, rejected = [], []
    for gname in GROUP_NAMES:
        group = api.validate_group(*group_table(gname))
        subgroups = api.all_subgroups(group)
        image = automorphism(gname, random.Random(f"{seed}:{gname}"))
        back = {y: x for x, y in image.items()}
        for lname in LATTICE_NAMES:
            lattice = lattices[lname]
            rng = random.Random(f"{gname}:{lname}")
            cell = []
            for draw in range(DRAWS_PER_CELL):
                if len(cell) == quota:
                    break
                mu = chain_parent(rng, api, group, lattice, subgroups, image)
                if rng.random() < 0.5:
                    mu = api.intersection_of([mu, chain_parent(rng, api, group, lattice, subgroups, image)])
                if mu in cell:
                    continue
                size = api.candidate_space_size(mu)
                label = f"{gname}/{lname}#{draw}"
                if size > cap:
                    rejected.append({"instance": label, "candidate_space_size": size})
                    continue
                cell.append(mu)
                admitted.append((label, mu, back))
    return admitted, rejected


def pulled_back(subset, back: dict[str, str]) -> dict[str, str]:
    """Values of an L-subset read through the inverse automorphism."""
    return {x: subset.value(y) for y, x in back.items()}


def base_key(subset, back: dict[str, str]) -> tuple[int, ...]:
    values = pulled_back(subset, back)
    return tuple(subset.lattice.index(values[x]) for x in subset.group.elements)


def frattini_digest(report, back: dict[str, str]) -> str:
    doc = report.as_document()
    doc["phi"] = pulled_back(report.phi, back)
    doc["lambda"] = pulled_back(report.nongen, back)
    return digest(doc)


def frattini_check(expected: dict, label: str, back: dict[str, str]):
    api = importlib.import_module("lsubgroups")

    def check(result) -> str | None:
        mu, report = result
        if not api.contains(report.phi, report.nongen):
            return "non-generator subgroup not inside phi"
        if not api.is_l_subgroup_of(report.phi, mu):
            return "phi is not in L(mu)"
        for m in api.maximal_l_subgroups(mu, budget=LADDER_BUDGET):
            if not api.contains(m, report.phi):
                return "phi not inside a maximal L-subgroup"
        want = expected.get(label)
        if want is None:
            return "no recorded digest for this instance"
        if want != frattini_digest(report, back):
            return "report differs from the recorded digest"
        return None

    return check


def run_frattini(mu):
    return mu, module("frattini").frattini(mu, budget=LADDER_BUDGET)


def run_enum(mu):
    maximal = module("maximal")
    members = maximal.enumerate_l_subgroups(mu, budget=LADDER_BUDGET)
    maximals = maximal.maximal_l_subgroups(mu, budget=LADDER_BUDGET)
    return mu, members, maximals


def enum_digest(members, maximals, back: dict[str, str]) -> str:
    """Digest of L(mu) and its maximals, read back in the base canonical order."""
    h = hashlib.sha256()
    for key in sorted(base_key(s, back) for s in members):
        h.update(repr(key).encode())
    h.update(b"|")
    for key in sorted(base_key(s, back) for s in maximals):
        h.update(repr(key).encode())
    return h.hexdigest()[:16]


def enum_check(expected: dict, label: str, back: dict[str, str]):
    api = importlib.import_module("lsubgroups")

    def check(result) -> str | None:
        mu, members, maximals = result
        keys = [s.value_indices() for s in members]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "enumeration not in strict canonical order"
        if mu not in members:
            return "mu missing from its own enumeration"
        listed = set(members)
        for m in maximals:
            if m not in listed or m.is_constant() or m == mu:
                return "a maximal is not a proper non-constant member"
        for a in maximals:
            for b in maximals:
                if a != b and api.contains(b, a):
                    return "two maximals are comparable"
        want = expected.get(label)
        if want is None:
            return "no recorded digest for this instance"
        if want != enum_digest(members, maximals, back):
            return "enumeration differs from the recorded digest"
        return None

    return check


def prepare_ladder(kind: str, seed: int) -> Plan:
    admitted, rejected = build_ladder(kind, seed)
    expected = load_expected(kind)
    ops = []
    for label, mu, back in admitted:
        if kind == "frattini_ladder":
            ops.append(Op(label, lambda mu=mu: run_frattini(mu), frattini_check(expected, label, back)))
        else:
            ops.append(Op(label, lambda mu=mu: run_enum(mu), enum_check(expected, label, back)))
    return Plan(ops, {"admitted": [label for label, *_ in admitted], "rejected": rejected})


# --------------------------------------------------------------- cli_cold

def cli_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def run_cli(root: Path, argv: list[str]) -> tuple[int, bytes]:
    done = subprocess.run(
        [sys.executable, "-m", "lsubgroups.cli", *argv],
        cwd=root, env=cli_env(root), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return done.returncode, done.stdout


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_check(expected: dict, argv: list[str], code: int):
    def check(result) -> str | None:
        got_code, stdout = result
        if got_code != code:
            return f"exit code {got_code}, expected {code}"
        want = expected.get(cli_key(argv))
        if want is None:
            return "no recorded output for this command"
        if stdout != want.encode():
            return "stdout differs from the recorded output"
        return None

    return check


def prepare_cli(seed: int, root: Path, runner=None) -> Plan:
    expected = load_expected("cli_cold")
    order = list(range(len(CLI_COMMANDS)))
    random.Random(seed).shuffle(order)
    runner = runner or (lambda argv: run_cli(root, argv))
    ops = []
    for i in order:
        argv, code = CLI_COMMANDS[i]
        ops.append(Op(argv[0], lambda argv=argv: runner(argv), cli_check(expected, argv, code)))
    return Plan(ops)


WORKLOADS = ("verify_suite", "frattini_ladder", "enum_ladder", "cli_cold")


def prepare(name: str, seed: int, root: Path, span=None, cli_runner=None) -> Plan:
    if name == "verify_suite":
        return prepare_verify(seed, span)
    if name in ("frattini_ladder", "enum_ladder"):
        return prepare_ladder(name, seed)
    if name == "cli_cold":
        return prepare_cli(seed, root, cli_runner)
    raise ValueError(f"unknown workload {name!r}")
