"""Known mutants of the library that the theorem suite itself must catch.

Each entry names a file under ``src/``, one exact anchor string in it, the
replacement, and the property of ``lsubgroups verify`` expected to fail.
Pytest does not collect this module; ``tests/test_harness.py`` checks that
each anchor occurs exactly once in its file.  Run it from the repository
root as a script:

    python tests/suite_mutants.py

For each entry it copies ``src/`` into a temporary directory, applies the
entry there and runs ``python -m lsubgroups.cli verify --seed 0 --trials
200`` on the copy.  A mutant is caught when that run exits 1 with a
``FAIL`` line for the entry's property.  Under each entry the script prints
every ``FAIL`` line of its run, so each property that the mutant fails shows
with its failure count, not only the expected one.  It lists the survivors
and exits 1 if there are any.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ["-m", "lsubgroups.cli", "verify", "--seed", "0", "--trials", "200"]


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    anchor: str
    replacement: str
    fails: str  # the property expected to fail


MUTANTS = (
    # phi met over every coatom, constant ones included, whenever a maximal exists
    Mutant("src/lsubgroups/frattini.py", "_meet_of_codes(mu, maximals)",
           "_meet_of_codes(mu, [cut[0] for cut in coatoms] if maximals else maximals)",
           "frattini_below_each_maximal"),
    # mu named as the witness of every point that is not a non-generator
    Mutant("src/lsubgroups/frattini.py", "return witness is None, witness",
           "return witness is None, witness if witness is None else mu", "nongenerators_inside_frattini"),
    # the last coatom dropped
    Mutant("src/lsubgroups/maximal.py", "return _level_cuts(mu, budget, pick)\n",
           "return _level_cuts(mu, budget, pick)[:-1]\n", "maximality_strategies_agree"),
    # lambda raised to mu's value at the last element, which conjugation can move
    Mutant("src/lsubgroups/frattini.py", "tops = bytearray([height[lat.bottom]]) * len(group)",
           "tops = bytearray([height[lat.bottom]]) * len(group)\n"
           "    tops[-1] = height[mu.value(group.elements[-1])]", "nongenerator_conjugation_closure"),
    # the set product's operands swapped, which keeps it associative
    Mutant("src/lsubgroups/lsets.py", "group, lat, ev = mu.group, mu.lattice, eta._vals",
           "group, lat, ev = mu.group, mu.lattice, mu._vals\n    mu = eta", "set_product_of_points"),
    # eta's levels required to hold mu's, not to lie inside them
    Mutant("src/lsubgroups/lsets.py", "if e & ~m or", "if m & ~e or", "generator_soundness"),
    # the oracle meets every member of L(c), not only those that contain eta
    Mutant("src/lsubgroups/maximal.py", "if not pe & ~p", "if True", "generation_matches_exhaustive_meet"),
    # the pointwise meet or join taken at the first element only
    Mutant("src/lsubgroups/lsets.py", "vals = [table[a][b] for a, b in zip(vals, member._vals)]",
           "vals = [table[a][b] for a, b in zip(vals, member._vals)][:1] + list(vals[1:])",
           "level_sets_of_intersections"),
    # a level read as the elements at or below a, not at or above it
    Mutant("src/lsubgroups/lsets.py", "if leq[ai][v]", "if leq[v][ai]", "containment_is_levelwise"),
    # the level at the last join-irreducible left unchecked
    Mutant("src/lsubgroups/lsets.py", "for level in _level_masks(mu)[1])",
           "for level in _level_masks(mu)[1][:-1])", "subgroup_tests_agree"),
    # the set product joins along row y, not row y⁻¹
    Mutant("src/lsubgroups/lsets.py", "zip(mu._vals, map(group._table.__getitem__, group._inv))",
           "zip(mu._vals, group._table)", "set_product_associative"),
    # eta's value read at zy, not at zy⁻¹
    Mutant("src/lsubgroups/lsets.py", "ev[table[z][inv[yi]]]", "ev[table[z][yi]]",
           "normality_matches_top_parent"),
    # a level read through the row of the index below it in carrier order
    Mutant("src/lsubgroups/lsets.py", "_level_rows(mu.lattice)[a]",
           "_level_rows(mu.lattice)[max(a - 1, 0)]", "maximal_level_profiles"),
    # the sufficient pattern let through with two or more defect levels
    Mutant("src/lsubgroups/maximal.py", "if not defects or defects & (defects - 1):",
           "if not defects:", "sufficient_condition_sound"),
    # a level called maximal in mu's exactly when it is not a lower cover
    Mutant("src/lsubgroups/maximal.py", "lv_eta in _lower_covers(group, lv_mu)",
           "lv_eta not in _lower_covers(group, lv_mu)", "maximal_level_profiles"),
    # the classical Frattini subgroup taken as the first maximal subgroup alone
    Mutant("src/lsubgroups/groups.py", "_lower_covers(group, mask), mask)",
           "_lower_covers(group, mask)[:1], mask)", "crisp_case_collapses"),
    # every meet of codes (phi, lambda and the exhaustive-meet oracle) taken as the first code alone
    Mutant("src/lsubgroups/maximal.py", "reduce(int.__and__, codes)",
           "reduce(int.__and__, codes[:1])", "frattini_below_each_maximal"),
    # the ∅ choice dropped from the codes packed at the last join-irreducible
    Mutant("src/lsubgroups/maximal.py", "map(_spread, children, repeat(width))",
           "map(_spread, children[1:], repeat(width))", "generation_matches_exhaustive_meet"),
)


def fail_lines(mutant: Mutant) -> tuple[int, list[str]]:
    """Run the suite on a copy of src/ with the mutant applied.

    Returns the run's exit code and its FAIL lines, in report order.
    """
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.path
        text = target.read_text()
        if text.count(mutant.anchor) != 1:
            raise SystemExit(f"{mutant.path}: the anchor {mutant.anchor!r} must occur exactly once")
        target.write_text(text.replace(mutant.anchor, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, *VERIFY], cwd=tmp, env=env, capture_output=True, text=True)
    return run.returncode, [line for line in run.stdout.splitlines() if line.startswith("FAIL ")]


def main() -> int:
    survivors = []
    for m in MUTANTS:
        code, lines = fail_lines(m)
        expected = [line for line in lines if line.startswith(f"FAIL {m.fails}:")]
        if code == 1 and expected:
            print(f"caught: {m.path}: {m.anchor!r}: {expected[0]}")
        else:
            survivors.append(m)
            print(f"survived: {m.path}: {m.anchor!r} -> {m.replacement!r} (expected {m.fails} to fail)")
        for line in lines:
            print(f"    {line}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
