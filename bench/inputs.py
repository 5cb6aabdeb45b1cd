"""Seeded inputs for the ladder workloads, built through the public API only.

The groups come from Cayley tables generated here (cyclic, dihedral and
elementary abelian), the lattices from chains and generating order pairs.
Each parent L-subgroup comes from a random chain of subgroups labelled with
a descending run of lattice values, optionally met with a second such chain.

The shape of each parent (which chain, which labels) is drawn from a stream
fixed per group and lattice; the workload seed draws an automorphism of each
group and the parent is carried through it.  So every seed runs isomorphic
instances with the same amount of work, while the concrete subgroups, the
element values and the canonical orders change with the seed.  Drawing the
shapes from the seed instead moved a pass's wall time by 25% between seeds.
"""
from __future__ import annotations

import math
import random

GROUP_NAMES = ("C12", "D16", "C2^4", "D24", "C2^5")
LATTICE_NAMES = ("chain3", "chain4", "chain5", "product2x3", "divisors30")


def group_table(name: str) -> tuple[list[str], list[list[str]]]:
    """Element names and Cayley table of a ladder group."""
    if name.startswith("C2^"):
        k = int(name[3:])
        elements = [format(i, f"0{k}b") for i in range(2 ** k)]
        return elements, [[elements[i ^ j] for j in range(2 ** k)] for i in range(2 ** k)]
    if name.startswith("C"):
        n = int(name[1:])
        elements = [f"r{i}" for i in range(n)]
        return elements, [[elements[(i + j) % n] for j in range(n)] for i in range(n)]
    if name.startswith("D"):
        # s^a r^i, with r^i s = s r^-i
        n = int(name[1:]) // 2
        pairs = [(a, i) for a in (0, 1) for i in range(n)]
        elements = [("s" if a else "r") + str(i) for a, i in pairs]

        def mul(x, y):
            (a, i), (b, j) = x, y
            return (a + b) % 2, ((-i if b else i) + j) % n

        return elements, [[elements[pairs.index(mul(x, y))] for y in pairs] for x in pairs]
    raise ValueError(f"unknown ladder group {name!r}")


def lattice_spec(name: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Element names and generating order pairs of a ladder lattice."""
    if name.startswith("chain"):
        n = int(name[5:])
        elements = ["0", *"abcdefgh"[: n - 2], "1"]
        return elements, list(zip(elements, elements[1:]))
    if name.startswith("product"):
        m, n = (int(part) for part in name[7:].split("x"))
        elements = [f"({i},{j})" for i in range(m) for j in range(n)]
        pairs = [(f"({i},{j})", f"({i + 1},{j})") for i in range(m - 1) for j in range(n)]
        pairs += [(f"({i},{j})", f"({i},{j + 1})") for i in range(m) for j in range(n - 1)]
        return elements, pairs
    if name.startswith("divisors"):
        n = int(name[8:])
        divs = [d for d in range(1, n + 1) if n % d == 0]
        pairs = [(str(d), str(e)) for d in divs for e in divs if d != e and e % d == 0]
        return [str(d) for d in divs], pairs
    raise ValueError(f"unknown ladder lattice {name!r}")


def automorphism(name: str, rng: random.Random) -> dict[str, str]:
    """A random automorphism of a ladder group, as a map of element names."""
    elements, _ = group_table(name)
    if name.startswith("C2^"):
        k = int(name[3:])
        while True:  # a random invertible matrix over GF(2), one column per basis vector
            columns = [rng.randrange(1, 2 ** k) for _ in range(k)]
            images = [0]
            for col in columns:
                images += [v ^ col for v in images]
            if len(set(images)) == 2 ** k:
                break
        # images[i] is the image of the vector i, bit b of i picking column b
        return {elements[i]: elements[images[i]] for i in range(2 ** k)}
    if name.startswith("C"):
        n = int(name[1:])
        u = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
        return {f"r{i}": f"r{u * i % n}" for i in range(n)}
    n = int(name[1:]) // 2
    u = rng.choice([u for u in range(1, n) if math.gcd(u, n) == 1])
    v = rng.randrange(n)
    mapping = {f"r{i}": f"r{u * i % n}" for i in range(n)}
    mapping.update({f"s{i}": f"s{(u * i + v) % n}" for i in range(n)})
    return mapping


def chain_parent(rng: random.Random, api, group, lattice, subgroups, image: dict[str, str]):
    """An L-subgroup from a random subgroup chain with antitone labels.

    The chain is drawn from ``subgroups`` and then carried through the
    automorphism ``image`` of the group.
    """
    full = frozenset(group.elements)
    chain = [subgroups[0]]
    while chain[-1] != full:
        chain.append(rng.choice([s for s in subgroups if chain[-1] < s]))
    kept = [h for h in chain[:-1] if rng.random() < 0.6] + [full]
    values = []
    current = lattice.top
    for _ in kept:
        values.append(current)
        below = [a for a in lattice.elements if lattice.is_cover(current, a)]
        if below:
            current = rng.choice(below)
    mapping = {}
    for x in group.elements:
        mapping[image[x]] = values[next(i for i, h in enumerate(kept) if x in h)]
    return api.l_subset(group, lattice, mapping)
