"""Dimino's coset extension of subgroups, kept as a test reference.

The library builds Sub(G) by a walk over greedy generating sequences
(``groups._greedy_walk``), which reaches each subgroup once.  This is the
builder it replaced: it extends every known subgroup by one element of
each right coset and drops the repeats with a dict, so it shares no step
but the coset closure with the walk.  The tests and
``tests/subgroup_table_heavy.py`` hold the library's table, keys and order,
to ``dimino_subgroup_masks``.  Import it with ``from dimino import ...``.
"""
from __future__ import annotations

from lsubgroups import FiniteGroup


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def dimino_subgroup_masks(group: FiniteGroup) -> list[int]:
    """Every subgroup as an element bitmask, by size and then element indices.

    For a known subgroup H, found with generators S, and an element g
    outside it, <H, g> is the union of the right cosets H·r reached from
    H·g by right multiplication with S and g.  Every subgroup other than
    {e} is <H, g> for one of its maximal subgroups H, so extending from {e}
    finds them all; the elements of H·g all give the same <H, g> and are
    tried once.
    """
    n, table = len(group), group._table
    trivial = 1 << group.identity_index
    generators = {trivial: ()}
    queue = [trivial]
    for h in queue:
        members = _indices(h)
        tried = h
        for g in range(n):
            if tried >> g & 1:
                continue
            coset = sum(1 << table[x][g] for x in members)
            tried |= coset
            step = generators[h] + (g,)
            bigger, reps = h | coset, [g]
            for r in reps:
                for s in step:
                    y = table[r][s]
                    if not bigger >> y & 1:
                        bigger |= sum(1 << table[x][y] for x in members)
                        reps.append(y)
            if bigger not in generators:
                generators[bigger] = step
                queue.append(bigger)
    queue.sort(key=lambda m: (m.bit_count(), _indices(m)))
    return queue
