"""Group validation, builtins, subgroup machinery and homomorphisms."""
import hashlib
import json
import random
import re
import time
from itertools import combinations

import pytest

from lsubgroups import (
    FiniteGroup,
    GroupHom,
    NoIdentityError,
    NoInverseError,
    NotAHomomorphismError,
    NotAssociativeError,
    NotASubgroupError,
    NotClosedError,
    UnknownBuiltinError,
    UnknownElementError,
    all_subgroups,
    builtin_group,
    chain_lattice,
    frattini_classical,
    group_from_document,
    hom_from_document,
    identity_hom,
    inner_automorphism,
    is_normal_subgroup,
    is_subgroup,
    l_subset,
    maximal_subgroups_of,
    pushforward,
    subgroup_closure,
    validate_group,
    validate_hom,
)
from lsubgroups.errors import DocumentError
from lsubgroups.groups import (
    _WITHIN_MEMO_SIZE,
    _closure,
    _greedy_walk,
    _is_subgroup,
    _light_associative,
    _product_generators,
    _subgroup_table,
    _subgroups_within,
)

from conftest import A5, F20, S4, S5, dihedral, direct_product, elementary_abelian, permutation_group
from dimino import dimino_subgroup_masks

KLEIN_TABLE = [
    ["e", "a", "b", "c"],
    ["a", "e", "c", "b"],
    ["b", "c", "e", "a"],
    ["c", "b", "a", "e"],
]


def brute_force_subgroups(group):
    """Independent oracle: test every subset directly against the axioms."""
    found = []
    elements = group.elements
    for r in range(1, len(elements) + 1):
        for subset in combinations(elements, r):
            s = set(subset)
            if group.identity not in s:
                continue
            if all(group.op(x, y) in s for x in s for y in s) and all(
                group.inverse(x) in s for x in s
            ):
                found.append(frozenset(s))
    return set(found)


def search_closure(group, seed):
    """Oracle: close a set of element indices under products, breadth first.

    The empty seed closes to {e}; inverses come for free in a finite group
    once products are closed.
    """
    current = set(seed) | {group.identity_index}
    frontier = list(current)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(current):
                for z in (group.op_index(x, y), group.op_index(y, x)):
                    if z not in current:
                        current.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(current)


def fixpoint_closure(group, mask):
    """Oracle: add the identity, products and inverses until nothing changes."""
    current = {group.identity_index} | {i for i in range(len(group)) if mask >> i & 1}
    while True:
        grown = current | {group.inverse_index(i) for i in current}
        grown |= {group.op_index(i, j) for i in current for j in current}
        if grown == current:
            return sum(1 << i for i in current)
        current = grown


def search_subgroups(group):
    """Oracle: every subgroup, extending known ones by one element and closing.

    The search the library ran before its subgroup table, in the same
    order: by size, then by element indices.
    """
    memo = {}

    def close(seed):
        if seed not in memo:
            memo[seed] = search_closure(group, seed)
        return memo[seed]

    trivial = close(frozenset())
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for sub in frontier:
            for g in range(len(group)):
                if g not in sub:
                    bigger = close(sub | {g})
                    if bigger not in found:
                        found.add(bigger)
                        fresh.append(bigger)
        frontier = fresh
    ordered = sorted(found, key=lambda sub: (len(sub), sorted(sub)))
    return tuple(frozenset(group.elements[i] for i in sub) for sub in ordered)


def scanned_maximal_subgroups(subgroups, sub):
    """Oracle: proper subgroups of ``sub`` with no subgroup strictly between."""
    below = [k for k in subgroups if k < sub]
    return tuple(k for k in below if not any(k < m for m in below))


def named_group(name):
    """A builtin group, or C2^k or a dihedral group other than D8 from the shared builders."""
    if name.startswith("C2^"):
        return elementary_abelian(int(name[3:]))
    if name.startswith("D") and name != "D8":
        return dihedral(int(name[1:]))
    return builtin_group(name)


def relabelled(group, seed):
    """The same group with its elements listed in a seeded random order.

    The identity is moved off index 0 when the shuffle leaves it there, as
    every builtin and shared builder lists it first.
    """
    names = list(group.elements)
    random.Random(seed).shuffle(names)
    if names[0] == group.identity and len(names) > 1:
        names[0], names[1] = names[1], names[0]
    return validate_group(names, [[group.op(x, y) for y in names] for x in names])


def validate_group_by_triples(elements, table):
    """The former ``validate_group``, verbatim: the reference for its row comparisons."""
    elements = tuple(elements)
    if not elements or len(set(elements)) != len(elements):
        raise NotClosedError("element names must be non-empty and unique")
    index = {name: i for i, name in enumerate(elements)}
    n = len(elements)
    if len(table) != n or any(len(row) != n for row in table):
        raise NotClosedError(f"operation table must be {n}x{n}")

    t: list[list[int]] = []
    for row in table:
        out = []
        for entry in row:
            if entry not in index:
                raise NotClosedError(f"table entry {entry!r} is not an element")
            out.append(index[entry])
        t.append(out)

    for i in range(n):
        for j in range(n):
            tij = t[i][j]
            for k in range(n):
                if t[tij][k] != t[i][t[j][k]]:
                    raise NotAssociativeError(
                        f"({elements[i]}*{elements[j]})*{elements[k]} != "
                        f"{elements[i]}*({elements[j]}*{elements[k]})"
                    )

    identity = None
    for i in range(n):
        if all(t[i][j] == j and t[j][i] == j for j in range(n)):
            identity = i
            break
    if identity is None:
        raise NoIdentityError("no two-sided identity element")

    inverse = [-1] * n
    for i in range(n):
        for j in range(n):
            if t[i][j] == identity and t[j][i] == identity:
                inverse[i] = j
                break
        if inverse[i] < 0:
            raise NoInverseError(f"element {elements[i]!r} has no two-sided inverse")

    return FiniteGroup(elements, t, identity, inverse)


def validation_outcome(validate, elements, table):
    """(identity index, inverses) on success, else (error type, message)."""
    try:
        group = validate(elements, table)
    except (NotClosedError, NotAssociativeError, NoIdentityError, NoInverseError) as exc:
        return type(exc), str(exc)
    return group.identity_index, [group.inverse_index(i) for i in range(len(group))]


# every builtin but the larger Cn, whose reference runs take seconds, and the
# shared builders up to order 32 (D8 is the builtin)
REFERENCE_GROUPS = [
    "Q8", "D8", "V4", *(f"C{n}" for n in (*range(1, 17), 24, 32)),
    *(f"C2^{k}" for k in range(1, 6)), *(f"D{order}" for order in range(4, 33, 2) if order != 8),
]


class TestRowsMatchTheTriples:
    @pytest.mark.parametrize("name", REFERENCE_GROUPS)
    def test_group_tables(self, name):
        names, table = named_group(name).as_document().values()
        assert validation_outcome(validate_group, names, table) == validation_outcome(
            validate_group_by_triples, names, table
        )

    @pytest.mark.parametrize("name", [name for name in REFERENCE_GROUPS if name != "C1"])
    def test_one_entry_corruptions(self, name):
        # each error keeps its type and its message, which names the first
        # failing triple or element
        group = named_group(name)
        names, n = list(group.elements), len(group)
        rng = random.Random(n)
        for _ in range(20):
            table = [[group.op(x, y) for y in names] for x in names]
            i, j = rng.randrange(n), rng.randrange(n)
            table[i][j] = names[(names.index(table[i][j]) + rng.randrange(1, n)) % n]
            outcome = validation_outcome(validate_group_by_triples, names, table)
            # a changed entry repeats a value in its row, so no group has the table
            assert isinstance(outcome[0], type) and issubclass(outcome[0], Exception)
            assert validation_outcome(validate_group, names, table) == outcome


def first_failing_triple(t):
    """The first (i, j, k) in index order with (ij)k != i(jk), or None."""
    n = len(t)
    return next(((i, j, k) for i in range(n) for j in range(n) for k in range(n)
                 if t[t[i][j]][k] != t[i][t[j][k]]), None)


class TestLightsTest:
    """Associativity is checked for greedy generators in the middle only."""

    @pytest.mark.parametrize("name", ["C1", "C6", "V4", "Q8", "D8", "C2^4", "D12"])
    def test_generators_span_the_table_by_right_multiplication(self, name):
        g = named_group(name)
        t = [[g.op_index(x, y) for y in range(len(g))] for x in range(len(g))]

        def span(gens):
            reached = list(gens)
            for z in reached:
                reached += [w for w in map(t[z].__getitem__, gens) if w not in reached]
            return set(reached)

        gens = _product_generators(t)
        assert span(gens) == set(range(len(g)))
        # greedy: each generator is the least element outside the span of those before it
        for k, s in enumerate(gens):
            assert s == min(set(range(len(g))) - span(gens[:k]))

    @pytest.mark.parametrize("name", ["C6", "Q8", "D8", "C2^3", "D12"])
    def test_agrees_with_the_triples_on_one_entry_corruptions(self, name):
        g = named_group(name)
        n = len(g)
        rng = random.Random(name)
        for _ in range(30):
            t = [[g.op_index(x, y) for y in range(n)] for x in range(n)]
            i, j = rng.randrange(n), rng.randrange(n)
            t[i][j] = (t[i][j] + rng.randrange(1, n)) % n
            assert _light_associative(t) == (first_failing_triple(t) is None)

    def test_first_failing_triple_with_a_middle_that_is_not_a_generator(self):
        # C6 with g3*g3 made g: the first failing triple is (g, g2, g3), and
        # g2 is no generator, so the message comes from the full scan
        g = builtin_group("C6")
        names, table = g.as_document().values()
        table[3][3] = "g"
        t = [[names.index(x) for x in row] for row in table]
        i, j, k = first_failing_triple(t)
        assert (i, j, k) == (1, 2, 3) and j not in _product_generators(t)
        with pytest.raises(NotAssociativeError) as refused:
            validate_group(names, table)
        assert str(refused.value) == "(g*g2)*g3 != g*(g2*g3)"
        assert validation_outcome(validate_group, names, table) == validation_outcome(
            validate_group_by_triples, names, table
        )

    def test_a_left_zero_table_is_associative(self):
        # x*y = x: every element is its own greedy generator, and the test
        # passes on every middle; the table has no identity
        names = ["a", "b", "c"]
        t = [[0, 0, 0], [1, 1, 1], [2, 2, 2]]
        assert _product_generators(t) == [0, 1, 2] and _light_associative(t)
        with pytest.raises(NoIdentityError):
            validate_group(names, [[names[v] for v in row] for row in t])


class TestValidation:
    def test_klein_table(self):
        g = validate_group(["e", "a", "b", "c"], KLEIN_TABLE)
        assert g.identity == "e"
        assert g.op("a", "b") == "c"
        assert g.inverse("a") == "a"

    def test_unknown_entry(self):
        with pytest.raises(NotClosedError):
            validate_group(["e"], [["x"]])

    def test_non_associative(self):
        # a*(a*a) = a*b = a but (a*a)*a = b*a = b
        table = [["b", "a"], ["a", "a"]]
        with pytest.raises(NotAssociativeError):
            validate_group(["a", "b"], table)

    def test_no_identity(self):
        table = [["a", "a"], ["a", "a"]]
        with pytest.raises(NoIdentityError):
            validate_group(["a", "b"], table)

    def test_no_inverse(self):
        table = [["e", "a"], ["a", "a"]]
        with pytest.raises(NoInverseError):
            validate_group(["e", "a"], table)


class TestBuiltins:
    def test_d8_centre(self):
        g = builtin_group("D8")
        centre = {x for x in g.elements if all(g.op(x, y) == g.op(y, x) for y in g.elements)}
        assert centre == {"e", "r2"}

    def test_q8_centre_and_order(self):
        g = builtin_group("Q8")
        assert len(g) == 8
        centre = {x for x in g.elements if all(g.op(x, y) == g.op(y, x) for y in g.elements)}
        assert centre == {"1", "-1"}

    def test_q8_relations(self):
        g = builtin_group("Q8")
        assert g.op("i", "i") == "-1"
        assert g.op("i", "j") == "k"
        assert g.op("j", "i") == "-k"
        assert g.op("j", "k") == "i"
        assert g.op("k", "i") == "j"

    def test_d8_relations(self):
        g = builtin_group("D8")
        assert g.op("r", "r") == "r2"
        assert g.op("s", "s") == "e"
        # r s = s r^-1
        assert g.op("r", "s") == g.op("s", "r3")

    def test_trivial_group(self):
        g = builtin_group("C1")
        assert g.elements == ("e",)

    def test_cyclic(self):
        g = builtin_group("C6")
        assert g.op("g2", "g4") == "e"
        assert g.inverse("g") == "g5"

    def test_unknown(self):
        # Cn takes n as an ASCII decimal with no leading zero, so each cyclic
        # group has one name: a superscript two passes str.isdigit() but not
        # int(), and C03 or an Arabic-Indic three would alias C3
        for name in ["S5", "C0", "C", "C²", "C03", "C\u0663", "C-3", "C 3", "C3 "]:
            with pytest.raises(UnknownBuiltinError):
                builtin_group(name)

    @pytest.mark.parametrize("name", ["C257", "C100000", "C" + "9" * 5000])
    def test_cyclic_order_is_bounded(self, name):
        # a 20-byte document used to ask for an n x n table, and a name of more
        # than 4,300 digits ended in int()'s ValueError; both are refused at once
        start = time.perf_counter()
        with pytest.raises(UnknownBuiltinError) as refused:
            builtin_group(name)
        assert time.perf_counter() - start < 0.1
        assert str(refused.value) == f"builtin group {name!r} is too large: Cn is built for n up to 256"

    def test_largest_cyclic_group_builds(self):
        g = builtin_group("C256")
        assert len(g.elements) == 256 and g.op("g255", "g") == "e"

    def test_one_shared_group_per_name(self):
        assert builtin_group("D8") is builtin_group("D8")
        assert builtin_group("C6") is not builtin_group("C12")

    def test_a_name_keeps_its_group_past_64_other_names(self):
        # a cache of 64 entries dropped C2 once C3 to C69 had been asked for,
        # and the next call built it again, with an empty subgroup table
        first = builtin_group("C2")
        for n in range(3, 70):
            builtin_group(f"C{n}")
        assert builtin_group("C2") is first

    def test_unknown_name_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(UnknownBuiltinError):
                builtin_group("X9")

    @pytest.mark.parametrize("name, digest", [
        ("Q8", "13c949959c132c8561e57ca31db2f2cb0ebce15df6d37a53ac5816f1085ef327"),
        ("D8", "966dec5610fc49ca320d54db6b397c48f1d7bc9ffff798c13c0cf3f8c943f115"),
        ("V4", "45f878e98be3aa61bbcbcea609dab35a8ee8682e7e82f68cb865037ba11c82c8"),
        ("C1", "82b3b206b2bef28c9f7effbc0cc0333a8c4407a461de26264adc32b968867284"),
        ("C2", "1cd1603fbe6f4a774dad61bc8c5fff8644cc730f80884e00646a51c7879c702c"),
        ("C6", "29da91506d137cbc8a608c3d50674cd3b935541c24b86f2c0b56ed33778f8a40"),
        ("C12", "efacb90ab3515f781cbab3047f6d04c75e682124427f65db4747edd2ca916da0"),
    ])
    def test_table_is_pinned(self, name, digest):
        # names, their order and every product, byte for byte: a rewrite of
        # the builders must leave each builtin's document unchanged
        document = json.dumps(builtin_group(name).as_document())
        assert hashlib.sha256(document.encode()).hexdigest() == digest


class TestSubgroups:
    def test_closure_of_r2(self):
        g = builtin_group("D8")
        assert subgroup_closure(g, ["r2"]) == {"e", "r2"}

    def test_closure_of_empty(self):
        g = builtin_group("D8")
        assert subgroup_closure(g, []) == {"e"}

    def test_closure_of_i(self):
        g = builtin_group("Q8")
        assert subgroup_closure(g, ["i"]) == {"1", "-1", "i", "-i"}

    def test_closure_is_idempotent_on_subgroups(self):
        g = builtin_group("D8")
        for h in all_subgroups(g):
            assert subgroup_closure(g, h) == h

    @pytest.mark.parametrize("name,count", [("Q8", 6), ("D8", 10), ("V4", 5), ("C6", 4)])
    def test_counts_match_brute_force(self, name, count):
        g = builtin_group(name)
        subgroups = set(all_subgroups(g))
        assert subgroups == brute_force_subgroups(g)
        assert len(subgroups) == count

    def test_every_subgroup_is_closed(self):
        g = builtin_group("Q8")
        for h in all_subgroups(g):
            assert is_subgroup(g, h)

    def test_q8_maximal_subgroups(self):
        g = builtin_group("Q8")
        maxes = maximal_subgroups_of(g, frozenset(g.elements))
        assert set(maxes) == {
            frozenset({"1", "-1", "i", "-i"}),
            frozenset({"1", "-1", "j", "-j"}),
            frozenset({"1", "-1", "k", "-k"}),
        }

    def test_trivial_has_no_maximal_subgroups(self):
        g = builtin_group("D8")
        assert maximal_subgroups_of(g, frozenset({"e"})) == ()

    def test_not_a_subgroup_rejected(self):
        g = builtin_group("D8")
        with pytest.raises(NotASubgroupError):
            maximal_subgroups_of(g, frozenset({"e", "r"}))


class TestSubgroupTable:
    """The subgroup table against a breadth-first search."""

    @pytest.mark.parametrize(
        "name", ["C1", "C2", "V4", "C6", "D8", "Q8", "C12", "D16", "C2^4", "D24", "C2^5"]
    )
    def test_all_subgroups_match_the_search_in_order(self, name):
        g = named_group(name)
        assert all_subgroups(g) == search_subgroups(g)

    @pytest.mark.parametrize("name", ["D6", "D8", "Q8", "D16", "D24"])
    def test_all_subgroups_match_the_search_in_any_element_order(self, name):
        # the builders list rotations first, which hides a coset extension
        # that forgets the generators of H: every reflection is then met in
        # a coset H·r before it is tried as an extension
        for seed in range(3):
            g = relabelled(named_group(name), seed)
            assert all_subgroups(g) == search_subgroups(g)

    @pytest.mark.parametrize("name", ["V4", "D8", "Q8"])
    def test_closure_of_every_subset(self, name):
        g = builtin_group(name)
        for r in range(len(g) + 1):
            for seed in combinations(range(len(g)), r):
                expected = frozenset(g.elements[i] for i in search_closure(g, seed))
                assert subgroup_closure(g, [g.elements[i] for i in seed]) == expected

    @pytest.mark.parametrize("name", ["V4", "C6", "Q8", "D8", "C12"])
    def test_mask_closure_of_every_mask(self, name):
        g = builtin_group(name)
        assert _closure(g, 0) == 1 << g.identity_index
        for mask in range(1 << len(g)):
            assert _closure(g, mask) == fixpoint_closure(g, mask)

    @pytest.mark.parametrize("name", ["V4", "C6", "Q8", "D8", "C12"])
    def test_membership_of_every_mask_matches_the_direct_check(self, name):
        g = builtin_group(name)
        for mask in range(1 << len(g)):
            subset = [x for i, x in enumerate(g.elements) if mask >> i & 1]
            assert _is_subgroup(g, mask) == is_subgroup(g, subset)

    @pytest.mark.parametrize("name", ["V4", "C6", "Q8", "D8", "C12"])
    def test_subgroups_within_every_mask(self, name):
        g = builtin_group(name)
        subgroups = all_subgroups(g)
        for bound in range(1 << len(g)):
            inside = frozenset(x for i, x in enumerate(g.elements) if bound >> i & 1)
            expected = tuple(sum(1 << g.index(x) for x in h) for h in subgroups if h <= inside)
            assert _subgroups_within(g, bound) == expected

    @pytest.mark.parametrize("name", ["D16", "C2^4", "D24"])
    def test_maximal_subgroups_and_frattini_of_every_subgroup(self, name):
        g = named_group(name)
        subgroups = search_subgroups(g)
        for h in subgroups:
            maximals = scanned_maximal_subgroups(subgroups, h)
            assert maximal_subgroups_of(g, h) == maximals
            assert frattini_classical(g, h) == frozenset.intersection(h, *maximals)

    def test_c2_6_counts_by_order_are_gaussian_binomials(self):
        # the subgroups of order 2^k of C2^6 are the k-dimensional subspaces
        # of GF(2)^6; at this size the breadth-first oracle is far too slow
        counts = {}
        for h in all_subgroups(elementary_abelian(6)):
            counts[len(h)] = counts.get(len(h), 0) + 1
        assert counts == {1: 1, 2: 63, 4: 651, 8: 1395, 16: 651, 32: 63, 64: 1}
        assert sum(counts.values()) == 2825


# the groups whose subgroup tables are held to Dimino's builder, besides the
# builtin Cn: the other reference groups, two non-nilpotent groups of the
# shared builders and five groups of order 60-120, by ``comparison_group``'s names
COMPARISON_GROUPS = [
    *(name for name in REFERENCE_GROUPS if not re.fullmatch(r"C[0-9]+", name)),
    "S4", "F20", "A5", "S5", "Q8xD8", "D8xC2^3", "C2^6",
]


def comparison_group(name):
    """A group of COMPARISON_GROUPS by name."""
    generators = {"S4": S4, "F20": F20, "A5": A5, "S5": S5}
    if name in generators:
        return permutation_group(*generators[name])
    if name == "Q8xD8":
        return direct_product(builtin_group("Q8"), builtin_group("D8"))
    if name == "D8xC2^3":
        return direct_product(builtin_group("D8"), elementary_abelian(3))
    return named_group(name)


class TestGreedyWalk:
    """The walk over greedy generating sequences against Dimino's builder."""

    def test_builtin_cyclic_groups(self):
        # Dimino's builder takes seconds over every Cn up to C256: the rest
        # run in tests/subgroup_table_heavy.py
        for n in (*range(1, 65), 96, 128, 255, 256):
            g = builtin_group(f"C{n}")
            assert list(_subgroup_table(g)) == dimino_subgroup_masks(g)

    @pytest.mark.parametrize("name", COMPARISON_GROUPS)
    def test_keys_and_order(self, name):
        g = comparison_group(name)
        assert list(_subgroup_table(g)) == dimino_subgroup_masks(g)

    @pytest.mark.parametrize("name", [*COMPARISON_GROUPS, "C12", "C32", "C256"])
    def test_keys_and_order_with_the_identity_off_index_0(self, name):
        g = relabelled(comparison_group(name), name)
        assert g.identity_index != 0
        assert list(_subgroup_table(g)) == dimino_subgroup_masks(g)

    @pytest.mark.parametrize("name", ["C1", "V4", "D8", "S4", "Q8xD8"])
    def test_each_subgroup_is_built_once_from_its_greedy_sequence(self, name):
        g = comparison_group(name)
        walked, attempts = _greedy_walk(g)
        masks = [h for h, _ in walked]
        assert sorted(masks) == sorted(_subgroup_table(g))
        for h, gens in walked:
            span = 1 << g.identity_index
            for k, x in enumerate(gens):
                # the least element outside the span so far
                assert x == (h & ~span & -(h & ~span)).bit_length() - 1
                span = _closure(g, span | 1 << x)
            assert span == h
        assert attempts >= len(walked) - 1
        if name == "Q8xD8":
            assert (attempts, len(walked)) == (707, 189)


class TestSubgroupsWithinMemo:
    @pytest.mark.parametrize("name", ["C2^4", "D16", "S4", "D24~"])
    def test_memo_matches_a_fresh_scan_for_every_subgroup(self, name):
        g = relabelled(named_group("D24"), 5) if name == "D24~" else comparison_group(name)
        table = _subgroup_table(g)
        for h in table:
            fresh = tuple(m for m in table if not m & ~h)
            first = _subgroups_within(g, h)
            assert first == fresh and _subgroups_within(g, h) is first

    def test_memo_is_bounded(self):
        g = validate_group(*builtin_group("C12").as_document().values())
        table = _subgroup_table(g)
        for bound in range(1 << len(g)):
            assert _subgroups_within(g, bound) == tuple(m for m in table if not m & ~bound)
            assert len(g._within) <= _WITHIN_MEMO_SIZE


class TestNormality:
    def test_centre_normal(self):
        g = builtin_group("D8")
        assert is_normal_subgroup(g, {"e", "r2"}, frozenset(g.elements))

    def test_reflection_not_normal(self):
        g = builtin_group("D8")
        assert not is_normal_subgroup(g, {"e", "s"}, frozenset(g.elements))
        assert g.conjugate("r", "s") == "sr2"

    def test_identity_conjugation(self):
        g = builtin_group("Q8")
        for x in g.elements:
            assert g.conjugate("1", x) == x

    def test_containment_required(self):
        g = builtin_group("D8")
        with pytest.raises(NotASubgroupError):
            is_normal_subgroup(g, frozenset(g.elements), {"e", "r2"})


class TestClassicalFrattini:
    def test_d8(self):
        g = builtin_group("D8")
        assert frattini_classical(g, frozenset(g.elements)) == {"e", "r2"}

    def test_klein_subgroup_of_d8(self):
        g = builtin_group("D8")
        assert frattini_classical(g, frozenset({"e", "r2", "s", "sr2"})) == {"e"}

    def test_trivial(self):
        g = builtin_group("D8")
        assert frattini_classical(g, frozenset({"e"})) == {"e"}

    def test_always_normal(self):
        for name in ["Q8", "D8", "V4", "C6"]:
            g = builtin_group(name)
            for h in all_subgroups(g):
                assert is_normal_subgroup(g, frattini_classical(g, h), h)


class TestHoms:
    def test_identity(self):
        g = builtin_group("Q8")
        f = identity_hom(g)
        assert f.bijective
        assert f("i") == "i"

    def test_parity_quotient(self):
        g = builtin_group("D8")
        c2 = builtin_group("C2")
        f = validate_hom(g, c2, {x: ("g" if x.startswith("s") else "e") for x in g.elements})
        assert f.surjective and not f.injective
        assert set(f.preimage("g")) == {"s", "sr", "sr2", "sr3"}

    def test_reflection_shift_is_automorphism(self):
        g = builtin_group("D8")
        words = {"e": "e", "r": "r", "r2": "r2", "r3": "r3",
                 "s": "sr", "sr": "sr2", "sr2": "sr3", "sr3": "s"}
        f = validate_hom(g, g, words)
        assert f.bijective

    def test_relation_breaking_map_rejected(self):
        g = builtin_group("D8")
        bad = {x: x for x in g.elements}
        bad["s"] = "r"  # s^2 = e but r^2 = r2
        # pairs are checked in element order, so (r, s) fails first:
        # f(r*s) = f(sr3) = sr3 but f(r)*f(s) = r*r = r2
        with pytest.raises(NotAHomomorphismError, match=re.escape("f(r*s) != f(r)*f(s)")):
            validate_hom(g, g, bad)

    def test_partial_map_rejected(self):
        g = builtin_group("C2")
        with pytest.raises(NotAHomomorphismError):
            validate_hom(g, g, {"e": "e"})

    def test_inner_automorphism(self):
        g = builtin_group("D8")
        f = inner_automorphism(g, "r")
        assert f.bijective
        assert f("s") == "sr2"

    def test_the_map_is_stored_once(self):
        # the hom is its image indices: the name map is a fresh copy, the
        # flags are read off the indices, and a call names an unknown element
        f = identity_hom(builtin_group("D8"))
        f.mapping["r"] = "e"
        assert f("r") == "r"
        assert f.as_document()["map"]["r"] == "r"
        lat = chain_lattice(["0", "1"])
        mu = l_subset(f.source, lat, {x: "1" if x in ("e", "r") else "0" for x in f.source.elements})
        assert pushforward(f, mu) == mu
        with pytest.raises(AttributeError):
            f.injective = False
        assert f.injective
        with pytest.raises(UnknownElementError, match="'zz'"):
            f("zz")

    @pytest.mark.parametrize("indices", [[0, 0, 0], [0], [0, 2], [0, -1]])
    def test_image_indices_are_checked(self, indices):
        # one index per source element, each naming a target element
        c2 = builtin_group("C2")
        with pytest.raises(NotAHomomorphismError, match="a hom needs 2 image indices, each below 2"):
            GroupHom(c2, c2, indices)

    @pytest.mark.parametrize("group", [
        *map(builtin_group, ["Q8", "D8", "V4", "C6", "C12"]), permutation_group(*S4), permutation_group(*F20),
    ], ids=["Q8", "D8", "V4", "C6", "C12", "S4", "F20"])
    def test_index_route_builds_the_name_route_hom(self, group):
        for g in group.elements:
            by_names = validate_hom(group, group, {x: group.conjugate(g, x) for x in group.elements})
            assert inner_automorphism(group, g).image_indices == by_names.image_indices
        by_names = validate_hom(group, group, {x: x for x in group.elements})
        assert identity_hom(group).image_indices == by_names.image_indices


class TestDocuments:
    def test_builtin_document(self):
        g = group_from_document({"builtin": "V4"})
        assert len(g) == 4

    def test_table_document(self):
        g = group_from_document({"elements": ["e", "a", "b", "c"], "table": KLEIN_TABLE})
        assert g == builtin_group("V4")

    def test_round_trip(self):
        g = builtin_group("D8")
        assert group_from_document(g.as_document()) == g

    def test_hom_document(self):
        g = builtin_group("C2")
        f = hom_from_document({"map": {"e": "e", "g": "g"}}, g, g)
        assert f.bijective

    @pytest.mark.parametrize("doc", [
        {},
        {"builtin": "S5"},
        {"elements": ["e"], "table": [["x"]]},
        {"elements": "e", "table": []},
    ])
    def test_malformed(self, doc):
        with pytest.raises(DocumentError):
            group_from_document(doc)

    @pytest.mark.parametrize("doc", [
        {"builtin": 5},
        {"builtin": ["D8"]},
        {"elements": ["e", "g"], "table": [["e", ["g"]], ["g", "e"]]},
    ])
    def test_value_of_the_wrong_type(self, doc):
        # each used to escape as AttributeError or TypeError
        with pytest.raises(DocumentError):
            group_from_document(doc)

    @pytest.mark.parametrize("mapping", [
        {"e": "e", "g": ["g"]},
        {"e": "e", "g": 5},
        {"e": "e", "g": "g", "zzz": "e"},
        {"e": "e", "g": "g", 5: "e", "zzz": "e"},
    ])
    def test_malformed_hom(self, mapping):
        g = builtin_group("C2")
        with pytest.raises(DocumentError):
            hom_from_document({"map": mapping}, g, g)

    def test_hom_names_its_unknown_keys(self):
        # in the map's order, with no sort that keys of mixed types would break
        g = builtin_group("C2")
        with pytest.raises(NotAHomomorphismError, match=r"unknown source elements \['zzz', 5\]"):
            validate_hom(g, g, {"e": "e", "zzz": "e", "g": "g", 5: "e"})


class TestRefusals:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: validate_group(["e", "g"], [["e", "g"], ["g"]]), NotClosedError,
         "operation table must be 2x2"),
        (lambda: group_from_document([]), DocumentError, "group document must be a JSON object"),
        (lambda: hom_from_document({}, builtin_group("C2"), builtin_group("C2")), DocumentError,
         "hom document needs a 'map' object"),
        (lambda: group_from_document(
            {"builtin": "V4", "elements": ["e", "a", "b", "c"], "table": KLEIN_TABLE}
        ), DocumentError, "group document gives 'builtin' together with 'elements' or 'table'"),
        (lambda: group_from_document({"builtin": "C2", "table": [["e"]]}), DocumentError,
         "group document gives 'builtin' together with 'elements' or 'table'"),
        # xy = y: every row is the element order, no column is
        (lambda: validate_group(["a", "b", "c"], [["a", "b", "c"]] * 3), NoIdentityError,
         "no two-sided identity element"),
        # e > a > z under the meet: a monoid whose zero is z
        (lambda: validate_group(["e", "a", "z"], [["e", "a", "z"], ["a", "a", "z"], ["z", "z", "z"]]),
         NoInverseError, "element 'a' has no two-sided inverse"),
        # (a*a)*k = a*(a*k) holds for k = a, b and fails first at k = c
        (lambda: validate_group(["a", "b", "c"], [["a", "a", "b"], ["a", "b", "c"], ["a", "c", "a"]]),
         NotAssociativeError, "(a*a)*c != a*(a*c)"),
    ], ids=["ragged table", "group document not an object", "hom document without a map",
            "builtin with elements and table", "builtin with table", "right-zero semigroup",
            "monoid with a zero", "first failure past k = 0"])
    def test_type_and_message(self, call, error, message):
        with pytest.raises(error) as refused:
            call()
        assert (type(refused.value), str(refused.value)) == (error, message)
