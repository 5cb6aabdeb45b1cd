"""Per-layer metrics, computed from the call tree that ``tracer.Tracer`` records.

A layer is one module of the package.  Times named after functions are
inclusive times of the outermost calls (a call nested in another call of
the same group is not counted twice); ``<layer>.self_s`` is the layer's
self time, the time in its spans minus the time in their child spans.
Every metric is always reported: a layer the workload never reaches reads 0.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import cli_env

PROPERTIES = (
    "generator_soundness", "level_sets_of_intersections", "containment_is_levelwise",
    "subgroup_tests_agree", "generation_closure_laws", "generation_matches_exhaustive_meet",
    "sup_property_levelwise_generation", "generation_commutes_with_image",
    "generation_commutes_with_preimage", "image_preimage_laws", "set_product_associative",
    "set_product_of_points", "normality_matches_top_parent", "maximality_strategies_agree",
    "maximal_level_profiles", "sufficient_condition_sound", "maximal_tips",
    "transport_preserves_maximality", "nongenerators_form_l_subgroup",
    "nongenerators_inside_frattini", "frattini_below_each_maximal", "fallback_iff_no_maximals",
    "frattini_level_inclusion", "frattini_normal_in_parent", "nongenerator_conjugation_closure",
    "frattini_image_inclusion", "maximal_avoiding_exists", "crisp_case_collapses",
)
CONVERSE = "converse_level_pattern_insufficient"
CLI_COMMANDS = ("validate", "levels", "generate", "maximals", "frattini", "nongen", "hasse")
PARSERS = ("lattice.lattice_from_document", "groups.group_from_document",
           "lsets.l_subset_from_document", "groups.hom_from_document")


class CallTree:
    def __init__(self, entries: list):
        self.entries = [(tuple(path), count, total, own) for path, count, total, own in entries]

    def outermost(self, *names: str, under: str | None = None) -> tuple[int, float]:
        """Calls to any of ``names`` not nested in another of them: (count, time)."""
        count, total = 0, 0.0
        for path, n, t, _ in self.entries:
            if path[-1] in names and not any(p in names for p in path[:-1]):
                if under is None or under in path:
                    count += n
                    total += t
        return count, total

    def self_time(self, layer: str) -> float:
        return sum(own for path, _, _, own in self.entries if path[-1].split(".")[0] == layer)


def verify_tally(trials: list[dict]) -> dict:
    """Per-property counts over a pass's trials, in the shape of a suite report."""
    tally: dict[str, dict] = {}
    for outcomes in trials:
        for name, outcome in outcomes.items():
            entry = tally.setdefault(name, {"trials": 0, "skipped": 0, "failures": 0})
            entry["trials"] += 1
            if outcome == "skipped":
                entry["skipped"] += 1
            elif outcome != "ok":
                entry["failures"] += 1
    return tally


def cli_import_s(root: Path, repeats: int = 5) -> float:
    """Fresh-interpreter import of lsubgroups.cli, minus a bare interpreter start."""
    def timed(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=cli_env(root), check=True, timeout=60)
        return time.perf_counter() - start

    bare = statistics.median(timed("pass") for _ in range(repeats))
    full = statistics.median(timed("import lsubgroups.cli") for _ in range(repeats))
    return full - bare


def per_layer(traced: dict, root: Path) -> dict:
    """Every per-layer metric of one traced pass, as name -> (value, unit)."""
    trace = traced["trace"]
    tree = CallTree(trace["tree"])
    counters = trace["counters"]
    m: dict[str, tuple[float, str]] = {}

    m["lattice.validate_s"] = (tree.outermost(
        "lattice.validate_lattice", "lattice.chain_lattice", "lattice.lattice_from_document")[1], "s")
    calls, secs = tree.outermost("groups.validate_group", "groups.builtin_group")
    m["groups.validate_s"] = (secs, "s")
    m["groups.validate_calls"] = (calls, "count")
    m["groups.all_subgroups_s"] = (tree.outermost("groups.all_subgroups")[1], "s")
    m["groups.subgroups_found"] = (counters.get("groups.subgroups_found", 0), "count")
    calls, secs = tree.outermost("groups.subgroup_closure")
    m["groups.closure_calls"] = (calls, "count")
    m["groups.closure_s"] = (secs, "s")

    calls, secs = tree.outermost("lsets.generate")
    m["lsets.generate_calls"] = (calls, "count")
    m["lsets.generate_s"] = (secs, "s")
    calls, secs = tree.outermost("lsets.is_l_subgroup", "lsets.is_l_subgroup_of")
    m["lsets.is_l_subgroup_calls"] = (calls, "count")
    m["lsets.is_l_subgroup_s"] = (secs, "s")
    m["lsets.generate_oracle_s"] = (tree.outermost("lsets.generate_oracle")[1], "s")

    calls, secs = tree.outermost("maximal.enumerate_l_subgroups")
    members = counters.get("maximal.members", 0)
    m["maximal.enumerate_calls"] = (calls, "count")
    m["maximal.enumerate_s"] = (secs, "s")
    m["maximal.members"] = (members, "count")
    m["maximal.members_per_s"] = (members / secs if secs else 0.0, "1/s")
    m["maximal.maximals_s"] = (tree.outermost("maximal.maximal_l_subgroups")[1], "s")
    m["maximal.maximals_found"] = (counters.get("maximal.maximals_found", 0), "count")
    calls, secs = tree.outermost("maximal.is_maximal")
    m["maximal.is_maximal_calls"] = (calls, "count")
    m["maximal.is_maximal_s"] = (secs, "s")

    scan = "frattini.non_generator_points"
    tests = tree.outermost("frattini.is_non_generator")[0]
    points = counters.get("frattini.nongen_points", 0)
    m["frattini.frattini_s"] = (tree.outermost("frattini.frattini")[1], "s")
    m["frattini.nongen_scan_s"] = (tree.outermost(scan)[1], "s")
    m["frattini.nongen_generate_s"] = (tree.outermost("lsets.generate", under=scan)[1], "s")
    m["frattini.nongen_tests"] = (tests, "count")
    m["frattini.nongen_points"] = (points, "count")
    m["frattini.nongen_reuse_ratio"] = ((points - tests) / points if points else 0.0, "ratio")
    in_tests = tree.outermost("lsets.generate", under="frattini.is_non_generator")[0]
    m["frattini.generate_per_test"] = (in_tests / tests if tests else 0.0, "calls/test")
    m["frattini.obstruction_s"] = (tree.outermost("frattini.constant_obstructed")[1], "s")

    m["harness.build_instance_s"] = (tree.outermost("harness.build_instance")[1], "s")
    tally = verify_tally(traced.get("tally", []))
    m["harness.skipped"] = (sum(entry["skipped"] for entry in tally.values()), "count")
    for name in PROPERTIES:
        m[f"harness.prop.{name}_s"] = (tree.outermost(f"harness.prop.{name}")[1], "s")
    m[f"harness.prop.{CONVERSE}_s"] = (tree.outermost("harness.search_converse_counterexample")[1], "s")

    m["cli.import_s"] = (cli_import_s(root), "s")
    m["cli.parse_s"] = (tree.outermost(*PARSERS)[1], "s")
    commands = trace.get("commands", [])
    for command in CLI_COMMANDS:
        times = [t for name, t in commands if name == command]
        m[f"cli.{command}_ms"] = (1000 * statistics.mean(times) if times else 0.0, "ms")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tree.self_time(layer), "s")
    return m
