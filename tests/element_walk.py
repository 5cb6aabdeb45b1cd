"""The element-wise walk over L-subgroups, kept as a test reference.

The library lists L-subgroups one way only, as level maps
(``maximal.enumerate_l_subgroups``), and computes the exhaustive meet of
``lsets.generate_oracle`` from that listing.  This walk assigns values
element by element instead, so it shares no code with either: the tests
hold the level-map enumeration to it, and ``generate_oracle`` to
``meet_over_walk``.  Import it with ``from element_walk import ...``.
"""
from __future__ import annotations

from lsubgroups import FiniteGroup, FiniteLattice, LSubset


def search_l_subgroup_values(
    group: FiniteGroup,
    lat: FiniteLattice,
    lower: tuple[int, ...] | None,
    upper: tuple[int, ...] | None,
):
    """Yield value tuples of L-subgroups between the given pointwise bounds.

    Depth-first assignment over inverse-pair orbits (x and x⁻¹ must share a
    value), with the identity first so every later value can be clipped to
    it, and with each product constraint checked once per orbit triple, as
    soon as its three orbits are assigned.  Each orbit's values between its
    bounds are fixed before the walk.  Yields in lexicographic order of the
    orbits' values by lattice index, the identity's orbit first and then
    the orbits by least element index: the lexicographic order of the value
    tuple when the identity is element 0, as in every builtin group, but
    not otherwise.
    """
    n = len(group)
    leq, meet = lat._leq, lat._meet
    nl = len(lat)

    e = group.identity_index
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for i in [e] + [k for k in range(n) if k != e]:
        if i in seen:
            continue
        orbit = (i,) if group.inverse_index(i) == i else (i, group.inverse_index(i))
        seen.update(orbit)
        orbits.append(orbit)

    pos = {}
    for p, orbit in enumerate(orbits):
        for i in orbit:
            pos[i] = p

    # a triple (i, j, ij) constrains three orbits: each orbit triple is
    # checked once, at the step at which all three are known, and never when
    # ij shares an orbit with i or j, as meet(v_i, v_j) ≤ v_i always holds,
    # nor when ij is the identity, whose value every later one is clipped to
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in orbits]
    checked: set[tuple[int, int, int]] = set()
    for i in range(n):
        for j in range(n):
            p = group.op_index(i, j)
            key = (min(pos[i], pos[j]), max(pos[i], pos[j]), pos[p])
            if pos[p] in key[:2] or pos[p] == 0 or key in checked:
                continue
            checked.add(key)
            buckets[max(key)].append((i, j, p))

    lower = lower or tuple(lat.index(lat.bottom) for _ in range(n))
    upper = upper or tuple(lat.index(lat.top) for _ in range(n))

    # each orbit's values between the bounds of all its elements, fixed
    # before the walk; a node only drops those not under the identity's
    # value, where an L-subgroup has its tip
    domains = [
        [v for v in range(nl) if all(leq[lower[i]][v] and leq[v][upper[i]] for i in orbit)]
        for orbit in orbits
    ]

    vals = [0] * n
    last = len(orbits) - 1

    def walk(step: int):
        orbit, bucket, tip = orbits[step], buckets[step], vals[e]
        for v in domains[step]:
            if step and not leq[v][tip]:
                continue
            for i in orbit:
                vals[i] = v
            for i, j, p in bucket:
                if not leq[meet[vals[i]][vals[j]]][vals[p]]:
                    break
            else:
                if step == last:
                    yield tuple(vals)
                else:
                    yield from walk(step + 1)

    yield from walk(0)


def meet_over_walk(eta: LSubset) -> LSubset:
    """The meet of every L-subgroup of the group that contains eta, found by
    walking the whole box above eta."""
    group, lat = eta.group, eta.lattice
    meet = lat._meet
    acc = [lat.index(lat.top)] * len(group)
    for vals in search_l_subgroup_values(group, lat, lower=eta.value_indices(), upper=None):
        acc = [meet[a][b] for a, b in zip(acc, vals)]
    return LSubset(group, lat, tuple(acc))
