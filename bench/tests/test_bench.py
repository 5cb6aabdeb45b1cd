"""Tests of the benchmark itself: tally, tracer hygiene, repeatable counts, scaled latencies.

    python3 -m pytest -q bench/tests
"""
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hostspeed
import layers
import run
import workloads
from inputs import GROUP_NAMES, automorphism, group_table
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _package_bindings() -> dict:
    for layer in LAYERS:
        workloads.module(layer)
    names = ["lsubgroups", *(f"lsubgroups.{layer}" for layer in LAYERS)]
    return {name: dict(vars(sys.modules[name])) for name in names}


def test_verify_tally_matches_run_suite():
    harness = workloads.module("harness")
    spec = harness.InstanceSpec(5)
    trials = [workloads.verify_trial(harness, spec, t) for t in range(3)]
    trials.append(workloads.converse_search(harness))
    expected = harness.run_suite(spec, 3).as_document()["properties"]
    counts = {
        name: {key: stats[key] for key in ("trials", "skipped", "failures")}
        for name, stats in expected.items()
    }
    assert layers.verify_tally(trials) == counts


def test_tracer_restores_every_binding():
    before = _package_bindings()
    tracer = Tracer().install()
    try:
        maximal = sys.modules["lsubgroups.maximal"]
        lsets = sys.modules["lsubgroups.lsets"]
        # the binding imported into another module is patched too
        assert maximal.generate is not before["lsubgroups.lsets"]["generate"]
        assert lsets.generate is not before["lsubgroups.lsets"]["generate"]
        # the package attribute that shadows a module name is patched as a function
        assert isinstance(sys.modules["lsubgroups"].frattini, types.FunctionType)
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_tracer_counts_calls_and_passes_through_outside_spans():
    api = workloads.module("lsets")
    group = workloads.module("groups").builtin_group("D8")
    lattice = workloads.module("lattice").chain_lattice(["0", "a", "1"])
    eta = api.l_subset(group, lattice, {x: "a" if x == "s" else "0" for x in group.elements})
    tracer = Tracer().install()
    try:
        api.generate(eta)  # no benchmark span open: not recorded
        with tracer.span("bench.op"):
            api.generate(eta)
    finally:
        tracer.uninstall()
    tree = layers.CallTree(tracer.export()["tree"])
    assert tree.outermost("lsets.generate")[0] == 1
    assert tree.outermost("groups.subgroup_closure", under="lsets.generate")[0] >= 1


TRACED_LADDER = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from tracer import Tracer
plan = workloads.prepare("frattini_ladder", 7, None)
tracer = Tracer().install()
for op in plan.ops[:12]:
    with tracer.span("bench.op"):
        op.run()
tracer.uninstall()
print(json.dumps(tracer.export()))
"""


def test_traced_counts_repeat_exactly():
    code = TRACED_LADDER.format(src=str(ROOT / "src"), bench=str(BENCH))
    runs = []
    for _ in range(2):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=300).stdout
        trace = json.loads(out.splitlines()[-1])
        counts = {tuple(path): count for path, count, *_ in trace["tree"]}
        runs.append((counts, trace["counters"]))
    assert runs[0] == runs[1]
    assert runs[0][1]["frattini.nongen_points"] > 0


def test_automorphisms_preserve_the_product():
    for name in GROUP_NAMES:
        elements, table = group_table(name)
        index = {x: i for i, x in enumerate(elements)}
        for seed in range(5):
            image = automorphism(name, random.Random(seed))
            assert sorted(image.values()) == sorted(elements)
            for x in elements:
                for y in elements:
                    xy = table[index[x]][index[y]]
                    assert image[xy] == table[index[image[x]]][index[image[y]]]


def test_latencies_are_scaled_medians_over_passes():
    ref = hostspeed.REFERENCE_S
    # op "a" ran once at reference speed, once at half speed, once at reference speed
    passes = [
        {"ops": [["a", 0.010, None, ref, ref], ["b", 0.030, None, ref, ref]]},
        {"ops": [["a", 0.020, None, 2 * ref, 2 * ref], ["b", 0.090, None, ref, ref]]},
        {"ops": [["a", 0.012, None, ref, ref], ["b", 0.031, None, ref, ref]]},
    ]
    assert run.op_latencies(passes) == pytest.approx([0.010, 0.031])


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = {"trace": {"tree": [], "counters": {}}}
    reported = layers.per_layer(empty, ROOT)
    reported["trace.overhead_frac"] = (0.0, "ratio")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in reported.items()
    ]


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_cold", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
