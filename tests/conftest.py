"""Shared fixtures: the two worked instances used across the suite, and group builders.

The value tables are frozen literals so every test checks the library
against independently written data rather than against other library calls.
``elementary_abelian``, ``dihedral``, ``permutation_group`` and
``direct_product`` build the larger groups the tests share (``F20``, ``S4``,
``A5``, ``S5`` and ``S6`` are generator pairs for ``permutation_group``),
``parity_parent`` puts a permutation group on a 3-chain by sign and
``s4_chain_parent`` puts S4 on a 4-chain,
``level_compare_by_names`` is the names reference for
``frattini_level_compare``, and ``SEEDED_SPECS`` parametrizes a test over
seeded instances; import them with ``from conftest import ...``.
"""
import pytest

from lsubgroups import (
    InstanceSpec,
    builtin_group,
    chain_lattice,
    frattini,
    frattini_classical,
    l_subset,
    validate_group,
)

FIVE_CHAIN = ["0", "a", "b", "c", "1"]

# seeded instances over chains, a product lattice and a divisor lattice, on
# which the fast routes are held to their references
SEEDED_SPECS = pytest.mark.parametrize(
    "spec",
    [InstanceSpec(0), InstanceSpec(1, lattice_kind="product2x3"), InstanceSpec(1, lattice_kind="divisors30")],
    ids=["chains", "product2x3", "divisors30"],
)

# D8 with centre C = {e, r2} and Klein subgroup K = {e, r2, s, sr2}
D8_MU = {
    "e": "1", "r2": "c",
    "s": "b", "sr2": "b",
    "r": "a", "r3": "a", "sr": "a", "sr3": "a",
}
D8_ETA1 = {
    "e": "1", "r2": "b", "s": "b", "sr2": "b",
    "r": "a", "r3": "a", "sr": "a", "sr3": "a",
}
D8_ETA2 = {
    "e": "1", "r2": "c",
    "s": "a", "sr2": "a", "r": "a", "r3": "a", "sr": "a", "sr3": "a",
}
D8_ETA3 = {
    "e": "1", "r2": "c", "s": "b", "sr2": "b",
    "r": "0", "r3": "0", "sr": "0", "sr3": "0",
}
D8_ETA4 = {
    "e": "c", "r2": "c", "s": "b", "sr2": "b",
    "r": "a", "r3": "a", "sr": "a", "sr3": "a",
}
D8_PHI = {
    "e": "c", "r2": "b", "s": "a", "sr2": "a",
    "r": "0", "r3": "0", "sr": "0", "sr3": "0",
}

# Q8 with centre C = {1, -1} and H = {1, -1, i, -i}
Q8_MU_MAXIMAL = {
    "1": "1", "-1": "1",
    "i": "b", "-i": "b",
    "j": "a", "-j": "a", "k": "a", "-k": "a",
}
Q8_ETA_MAXIMAL = {
    "1": "1", "-1": "c",
    "i": "b", "-i": "b",
    "j": "a", "-j": "a", "k": "a", "-k": "a",
}

# the level pattern holds for this pair yet eta is not maximal in mu
Q8_MU_CONVERSE = {
    "1": "1", "-1": "1",
    "i": "c", "-i": "c",
    "j": "a", "-j": "a", "k": "a", "-k": "a",
}
Q8_ETA_CONVERSE = {
    "1": "1", "-1": "1",
    "i": "a", "-i": "a", "j": "a", "-j": "a", "k": "a", "-k": "a",
}
Q8_THETA_WITNESS = {
    "1": "1", "-1": "1",
    "i": "b", "-i": "b",
    "j": "a", "-j": "a", "k": "a", "-k": "a",
}


def elementary_abelian(k):
    """C2^k on the bit strings of length k, multiplied by XOR."""
    names = [format(i, f"0{k}b") for i in range(2 ** k)]
    return validate_group(names, [[names[i ^ j] for j in range(2 ** k)] for i in range(2 ** k)])


def dihedral(order):
    """The dihedral group of the given order, as words s^a r^i."""
    # s^a r^i with r^i s = s r^-i
    n = order // 2
    pairs = [(a, i) for a in (0, 1) for i in range(n)]
    names = [("s" if a else "r") + str(i) for a, i in pairs]
    table = [
        [names[pairs.index(((a + b) % 2, ((-i if b else i) + j) % n))] for b, j in pairs]
        for a, i in pairs
    ]
    return validate_group(names, table)


# generators for permutation_group: F20 = <x ↦ x+1, x ↦ 2x> on 5 points,
# S4 = <(0 1 2 3), (0 1)>, A5 = <(0 1 2 3 4), (0 1 2)>, S5 = <(0 1 2 3 4), (0 1)>
# and S6 = <(0 1 2 3 4 5), (0 1)>
F20 = ((1, 2, 3, 4, 0), (0, 2, 4, 1, 3))
S4 = ((1, 2, 3, 0), (1, 0, 2, 3))
A5 = ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4))
S5 = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))
S6 = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))


def permutation_group(*generators):
    """The group the permutations generate, each a tuple of images of 0..n-1.

    Elements are named by their images ("1230" sends 0 to 1) and listed
    breadth first from the identity under right multiplication by the
    generators; p*q applies p first.
    """
    elements = [tuple(range(len(generators[0])))]
    for p in elements:  # grows while it is read: breadth first
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in elements:
                elements.append(q)
    names = ["".join(map(str, p)) for p in elements]
    index = {p: i for i, p in enumerate(elements)}
    table = [[names[index[tuple(q[i] for i in p)]] for q in elements] for p in elements]
    return validate_group(names, table)


def is_even(name):
    """Whether the permutation named by its images ("1230") is even: its
    length less its number of cycles is even."""
    images, seen, cycles = [int(c) for c in name], set(), 0
    for start in range(len(images)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = images[start]
    return (len(images) - cycles) % 2 == 0


def parity_parent(group):
    """A permutation group on the chain 0 < 1 < 2: the identity at the top,
    the other even permutations in the middle, the odd ones at the bottom."""
    return l_subset(group, chain_lattice(["0", "1", "2"]), {
        x: "2" if x == group.identity else "1" if is_even(x) else "0" for x in group.elements
    })


def s4_chain_parent():
    """S4 on the chain 0 < 1 < 2 < 3: the identity at 3, the rest of the
    Klein four-group at 2, the rest of A4 at 1 and the odd permutations at 0."""
    group = permutation_group(*S4)
    klein = {"0123", "1032", "2301", "3210"}
    return l_subset(group, chain_lattice(["0", "1", "2", "3"]), {
        x: "3" if x == group.identity else "2" if x in klein else "1" if is_even(x) else "0"
        for x in group.elements
    })


def level_compare_by_names(mu, b):
    """Reference for ``frattini_level_compare`` over a chain, on names: both
    levels at b read by ``LSubset.level`` and the classical Frattini subgroup
    of mu's by ``frattini_classical``."""
    phi, e = frattini(mu).phi, mu.group.identity
    level_mu, level_phi = mu.level(b), phi.level(b)
    classical = frattini_classical(mu.group, level_mu) if level_mu else frozenset()
    return {
        "forward_inclusion": classical <= level_phi,
        "reverse_inclusion": level_phi <= classical,
        "tip_condition_holds": phi.value(e) == mu.value(e),
        "level_attained": b in mu.image(),
        "classical": classical,
        "phi_level": level_phi,
    }


def direct_product(*groups):
    """The direct product, on tuples of element indices in lexicographic order.

    Elements are named by their components joined with ``.``; the first
    factor varies slowest.
    """
    tuples = [()]
    for g in groups:
        tuples = [(*p, i) for p in tuples for i in range(len(g))]
    index = {p: k for k, p in enumerate(tuples)}
    names = [".".join(g.elements[i] for g, i in zip(groups, p)) for p in tuples]
    table = [
        [names[index[tuple(g.op_index(a, b) for g, a, b in zip(groups, p, q))]] for q in tuples]
        for p in tuples
    ]
    return validate_group(names, table)


@pytest.fixture(scope="session")
def s6_parent():
    """S6 on a 3-chain by sign (``parity_parent``); about a second to build."""
    return parity_parent(permutation_group(*S6))


@pytest.fixture(scope="session")
def five_chain():
    return chain_lattice(FIVE_CHAIN)


@pytest.fixture(scope="session")
def d8():
    return builtin_group("D8")


@pytest.fixture(scope="session")
def q8():
    return builtin_group("Q8")


@pytest.fixture(scope="session")
def d8_case(d8, five_chain):
    """The dihedral worked instance: mu plus its four maximal L-subgroups."""
    build = lambda table: l_subset(d8, five_chain, table)
    return {
        "group": d8,
        "lattice": five_chain,
        "mu": build(D8_MU),
        "eta1": build(D8_ETA1),
        "eta2": build(D8_ETA2),
        "eta3": build(D8_ETA3),
        "eta4": build(D8_ETA4),
        "phi": build(D8_PHI),
    }


@pytest.fixture(scope="session")
def q8_maximal_case(q8, five_chain):
    return {
        "group": q8,
        "lattice": five_chain,
        "mu": l_subset(q8, five_chain, Q8_MU_MAXIMAL),
        "eta": l_subset(q8, five_chain, Q8_ETA_MAXIMAL),
    }


@pytest.fixture(scope="session")
def q8_converse_case(q8, five_chain):
    return {
        "group": q8,
        "lattice": five_chain,
        "mu": l_subset(q8, five_chain, Q8_MU_CONVERSE),
        "eta": l_subset(q8, five_chain, Q8_ETA_CONVERSE),
        "theta": l_subset(q8, five_chain, Q8_THETA_WITNESS),
    }
