"""The subgroup table against Dimino's builder on groups too slow for tier-1,
and the Frattini level comparison on S5 and S6.

Pytest does not collect this module.  Run it from the repository root as a
script:

    python tests/subgroup_table_heavy.py

It builds Sub(G) with the library's walk over greedy generating sequences
(``groups._subgroup_table``) and with ``dimino.dimino_subgroup_masks`` on
C2^7, D8×D8×C2, S5 and every builtin Cn, and compares the keys and their
order; on the first three it also checks that the walk built each
subgroup once.  For each of those it prints ``ok`` or ``MISMATCH``, the
build time of each builder, and the closures the walk attempted per
subgroup it built.  It then runs ``frattini_level_compare`` at every
level of S6 and S5 on a 3-chain by sign (``conftest.parity_parent``), with
Sub(G) built and phi cached, holds each answer to the names reference
``conftest.level_compare_by_names`` and prints ``ok`` or ``MISMATCH`` with
the time of the first call and the best of five more.  It exits 1 on any
mismatch.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from conftest import (  # noqa: E402
    S5,
    S6,
    direct_product,
    elementary_abelian,
    level_compare_by_names,
    parity_parent,
    permutation_group,
)
from dimino import dimino_subgroup_masks  # noqa: E402
from lsubgroups import builtin_group, frattini, frattini_level_compare  # noqa: E402
from lsubgroups.groups import _greedy_walk, _subgroup_table  # noqa: E402


def timed(build, group):
    start = time.perf_counter()
    result = build(group)
    return result, time.perf_counter() - start


def level_comparisons(name, mu) -> bool:
    """``frattini_level_compare`` at every level of mu against the names
    reference, printing each time; True when every answer matches."""
    frattini(mu)  # builds Sub(G) and caches phi: the times below are the comparison's own
    same = True
    for b in mu.lattice.elements:
        answer, first_s = timed(lambda parent: frattini_level_compare(parent, b), mu)
        best_s = min(timed(lambda parent: frattini_level_compare(parent, b), mu)[1] for _ in range(5))
        matches = answer == level_compare_by_names(mu, b)
        same &= matches
        print(
            f"{'ok' if matches else 'MISMATCH'} {name} level {b} (order {len(answer['classical'])} "
            f"Frattini subgroup, phi level of order {len(answer['phi_level'])}): "
            f"first {first_s * 1e3:.3f} ms, best of 5 {best_s * 1e3:.3f} ms"
        )
    return same


def main() -> int:
    d8, c2 = builtin_group("D8"), builtin_group("C2")
    named = {
        "C2^7": elementary_abelian(7),
        "D8xD8xC2": direct_product(d8, d8, c2),
        "S5": permutation_group(*S5),
    }
    differ = []
    for name, group in named.items():
        table, table_s = timed(_subgroup_table, group)
        oracle, oracle_s = timed(dimino_subgroup_masks, group)
        walked, attempts = _greedy_walk(group)
        # the table's dict would hide a subgroup the walk built twice
        same = list(table) == oracle and len(walked) == len(table)
        if not same:
            differ.append(name)
        print(
            f"{'ok' if same else 'MISMATCH'} {name} (order {len(group)}): {len(table)} subgroups, "
            f"{len(walked)} built; table {table_s:.3f} s, Dimino {oracle_s:.3f} s; "
            f"{attempts} closures attempted, {attempts / len(table):.2f} per subgroup built"
        )
    cyclic = [f"C{n}" for n in range(1, 257)]
    cyclic_differ = [
        c for c in cyclic if list(_subgroup_table(builtin_group(c))) != dimino_subgroup_masks(builtin_group(c))
    ]
    print(f"builtin C1-C256: {len(cyclic) - len(cyclic_differ)} of {len(cyclic)} the same")
    differ += cyclic_differ
    for name, group in [("S6", permutation_group(*S6)), ("S5", named["S5"])]:
        if not level_comparisons(f"{name} by sign", parity_parent(group)):
            differ.append(f"{name} level comparison")
    if differ:
        print(f"tables differ on: {', '.join(differ)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
