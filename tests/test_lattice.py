"""Lattice validation, order queries and the frame laws."""
import hashlib
import json
import random
import time
from collections import Counter
from functools import reduce
from itertools import chain, combinations, permutations

import pytest

from lsubgroups import (
    EmptySubsetError,
    InstanceTooLargeError,
    NotALatticeError,
    NotAPosetError,
    UnknownElementError,
    chain_lattice,
    lattice_from_document,
    make_lattice,
    validate_lattice,
)
from lsubgroups.errors import DocumentError, LSubgroupsError


def diamond():
    return validate_lattice(["0", "p", "q", "1"], [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")])


def pentagon():
    # 0 < x < z < 1 and 0 < y < 1 with y incomparable to both x and z
    return validate_lattice(
        ["0", "x", "z", "y", "1"],
        [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")],
    )


def powerset(xs):
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


class TestValidation:
    def test_five_chain(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        assert lat.top == "1"
        assert lat.bottom == "0"
        assert lat.is_chain()
        assert lat.distributive

    def test_two_chain(self):
        lat = chain_lattice(["0", "1"])
        assert lat.join("0", "1") == "1"
        assert lat.meet("0", "1") == "0"

    def test_pentagon_flagged_not_distributive(self):
        lat = pentagon()
        assert not lat.distributive
        # brute force the law over all triples to confirm the flag
        broken = [
            (a, b, c)
            for a in lat.elements
            for b in lat.elements
            for c in lat.elements
            if lat.meet(a, lat.join(b, c)) != lat.join(lat.meet(a, b), lat.meet(a, c))
        ]
        assert broken

    def test_diamond_distributive(self):
        assert diamond().distributive

    def test_antisymmetry_violation(self):
        with pytest.raises(NotAPosetError):
            validate_lattice(["a", "b"], [("a", "b"), ("b", "a")])

    def test_missing_upper_bound(self):
        with pytest.raises(NotALatticeError):
            validate_lattice(["0", "x", "y"], [("0", "x"), ("0", "y")])

    def test_unknown_element_in_pairs(self):
        with pytest.raises(UnknownElementError):
            validate_lattice(["a"], [("a", "zz")])

    def test_duplicates_rejected(self):
        with pytest.raises(NotALatticeError):
            validate_lattice(["a", "a"], [])

    @pytest.mark.parametrize("n", [257, 1025, 10_000])
    def test_element_count_is_bounded(self, n):
        # an L-subset keeps one byte per value, so a lattice index must fit
        # in a byte, and more than 256 names are refused before any row is built
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError) as refused:
            chain_lattice([f"c{i}" for i in range(n)])
        assert time.perf_counter() - start < 0.1
        assert (refused.value.size, refused.value.budget) == (n, 256)
        assert str(refused.value) == (
            f"a lattice of {n} elements is too large: lattices are built for up to 256 elements"
        )

    def test_bound_admits_256_elements(self):
        # the next check runs, so the bound let the list through
        with pytest.raises(NotALatticeError, match="duplicate element names"):
            validate_lattice(["a"] * 256, [])


class TestJoinMeet:
    def test_chain_join_meet_are_max_min(self):
        names = ["0", "a", "b", "c", "1"]
        lat = chain_lattice(names)
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                assert lat.join(x, y) == names[max(i, j)]
                assert lat.meet(x, y) == names[min(i, j)]

    def test_join_with_bottom_is_identity(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        for x in lat.elements:
            assert lat.join(x, lat.bottom) == x
            assert lat.meet(x, lat.top) == x

    def test_diamond_incomparable_pair(self):
        lat = diamond()
        assert lat.join("p", "q") == "1"
        assert lat.meet("p", "q") == "0"

    def test_unknown_element(self):
        lat = diamond()
        with pytest.raises(UnknownElementError):
            lat.join("p", "nope")

    def test_join_set_conventions(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        assert lat.join_set([]) == "0"
        assert lat.meet_set([]) == "1"
        assert lat.join_set(["a"]) == "a"
        assert lat.join_set(["a", "c"]) == "c"

    def test_fold_is_order_independent(self):
        lat = diamond()
        for subset in [("p", "q", "1"), ("0", "p", "q"), ("p", "q")]:
            joins = {lat.join_set(perm) for perm in permutations(subset)}
            meets = {lat.meet_set(perm) for perm in permutations(subset)}
            assert len(joins) == 1
            assert len(meets) == 1


class TestFrameLaws:
    @pytest.mark.parametrize("lat", [chain_lattice(["0", "a", "b", "c", "1"]), diamond(), pentagon()],
                             ids=["chain5", "diamond", "pentagon"])
    def test_all_triples(self, lat):
        for a in lat.elements:
            assert lat.join(a, a) == a
            assert lat.meet(a, a) == a
            for b in lat.elements:
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, lat.meet(a, b)) == a
                assert lat.meet(a, lat.join(a, b)) == a
                for c in lat.elements:
                    assert lat.join(a, lat.join(b, c)) == lat.join(lat.join(a, b), c)
                    assert lat.meet(a, lat.meet(b, c)) == lat.meet(lat.meet(a, b), c)


class TestOrderQueries:
    def test_chain_flags(self):
        assert chain_lattice(["0", "a", "b", "c", "1"]).is_chain()
        assert not diamond().is_chain()
        assert chain_lattice(["x"]).is_chain()

    def test_covers_on_chain(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        assert lat.is_cover("1", "c")
        assert not lat.is_cover("1", "b")  # c sits between
        assert not lat.is_cover("c", "1")
        assert lat.covers_of("b") == ("c",)

    def test_covers_on_diamond(self):
        assert set(diamond().covers_of("0")) == {"p", "q"}

    def test_covering_pairs_give_hasse(self):
        lat = chain_lattice(["0", "a", "b"])
        assert lat.covering_pairs() == (("0", "a"), ("a", "b"))


class TestSupstar:
    def test_chain_subsets_always_supstar(self):
        lat = chain_lattice(["0", "a", "b", "c", "1"])
        for subset in powerset(lat.elements):
            if subset:
                assert lat.is_supstar_subset(subset)

    def test_incomparable_pair_is_not(self):
        assert not diamond().is_supstar_subset(["p", "q"])

    def test_singleton(self):
        assert diamond().is_supstar_subset(["0"])

    def test_empty_rejected(self):
        with pytest.raises(EmptySubsetError):
            diamond().is_supstar_subset([])

    @pytest.mark.parametrize("lat", [diamond(), pentagon(), chain_lattice(["0", "a", "b", "c", "1"])],
                             ids=["diamond", "pentagon", "chain5"])
    def test_agrees_with_brute_force(self, lat):
        # every non-empty subset must contain its own supremum
        for xs in powerset(lat.elements):
            if not xs or len(xs) > 6:
                continue
            brute = all(
                lat.join_set(sub) in sub for sub in powerset(xs) if sub
            )
            assert lat.is_supstar_subset(xs) == brute


MIXED_SHAPES = "lattice document gives 'chain' together with 'elements' or 'le'"


class TestDocuments:
    def test_chain_shorthand(self):
        lat = lattice_from_document({"chain": ["0", "a", "1"]})
        assert lat.top == "1" and lat.is_chain()

    def test_pairs_form(self):
        doc = {"elements": ["0", "p", "q", "1"],
               "le": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"]]}
        lat = lattice_from_document(doc)
        assert lat == diamond()

    def test_round_trip(self):
        lat = diamond()
        assert lattice_from_document(lat.as_document()) == lat

    @pytest.mark.parametrize("doc", [
        [],
        {"chain": [1, 2]},
        {"elements": ["a"], "le": [["a"]]},
        {"le": []},
        {"elements": ["a", "b"], "le": [["a", "zz"]]},
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises(DocumentError):
            lattice_from_document(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"chain": [1, 2]}, "'chain' must be a list of element names"),
        ({"elements": ["0", 1]}, "'elements' must be a list of element names"),
        ({"chain": ["0", "1"], "le": [["1", "0"]]}, MIXED_SHAPES),
        ({"chain": ["0", "1"], "elements": ["0", "1"]}, MIXED_SHAPES),
        ({"chain": ["0", "0"]}, "duplicate element names"),
        ({"elements": ["0", "1", "0"], "le": [["0", "1"]]}, "duplicate element names"),
    ])
    def test_refusal_messages(self, doc, message):
        with pytest.raises(DocumentError) as refused:
            lattice_from_document(doc)
        assert str(refused.value) == message


def test_structural_equality_and_hash():
    one = chain_lattice(["0", "1"])
    two = chain_lattice(["0", "1"])
    assert one == two
    assert hash(one) == hash(two)
    assert one != chain_lattice(["0", "a", "1"])


# ------------------------------------------------------------------ oracle

def cubic_lattice(elements, pairs):
    """The former builder, the reference for ``validate_lattice``.

    A Warshall closure on boolean rows, each pair's bounds by a search over
    all elements, and distributivity over all triples.  Returns the tables,
    flags, rank and join-irreducibles that a lattice built from the same
    input carries, or raises the same first error.
    """
    elements = tuple(elements)
    if not elements:
        raise NotALatticeError("a lattice needs at least one element")
    if len(set(elements)) != len(elements):
        raise NotALatticeError("duplicate element names")
    index = {name: i for i, name in enumerate(elements)}
    n = len(elements)

    leq = [[i == j for j in range(n)] for i in range(n)]
    for pair in pairs:
        lo, hi = pair
        if lo not in index or hi not in index:
            raise UnknownElementError(f"order pair ({lo!r}, {hi!r}) uses unknown elements")
        leq[index[lo]][index[hi]] = True

    for k in range(n):
        row_k = leq[k]
        for i in range(n):
            if leq[i][k]:
                row_i = leq[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True

    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise NotAPosetError(
                    f"antisymmetry fails: {elements[i]!r} and {elements[j]!r} are order-equivalent"
                )

    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    everything = range(n)
    for i in range(n):
        for j in range(i, n):
            ubs = [k for k in everything if leq[i][k] and leq[j][k]]
            least = [u for u in ubs if all(leq[u][v] for v in ubs)]
            if len(least) != 1:
                raise NotALatticeError(
                    f"{elements[i]!r} and {elements[j]!r} have no least upper bound"
                )
            join[i][j] = join[j][i] = least[0]

            lbs = [k for k in everything if leq[k][i] and leq[k][j]]
            greatest = [l for l in lbs if all(leq[v][l] for v in lbs)]
            if len(greatest) != 1:
                raise NotALatticeError(
                    f"{elements[i]!r} and {elements[j]!r} have no greatest lower bound"
                )
            meet[i][j] = meet[j][i] = greatest[0]

    top_i = 0
    bottom_i = 0
    for i in range(1, n):
        top_i = join[top_i][i]
        bottom_i = meet[bottom_i][i]

    distributive = all(
        meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
        for a in everything
        for b in everything
        for c in everything
    )
    chained = all(leq[i][j] or leq[j][i] for i in range(n) for j in range(i + 1, n))

    # the rank and the join-irreducibles as the L-subset modules once
    # computed them for themselves
    sizes = tuple(sum(1 for j in range(n) if leq[j][i]) for i in range(n))
    order = sorted(range(n), key=sizes.__getitem__)
    irreducibles = tuple(
        j for j in order
        if reduce(lambda a, i: join[a][i], (i for i in order if i != j and leq[i][j]), bottom_i) != j
    )
    # the up-set and down-set rows the lattice keeps, read off the matrix
    up = tuple(sum(1 << j for j in range(n) if leq[i][j]) for i in range(n))
    down = tuple(sum(1 << i for i in range(n) if leq[i][j]) for j in range(n))
    return {
        "elements": elements, "leq": leq, "up": up, "down": down, "join": join, "meet": meet,
        "top": elements[top_i], "bottom": elements[bottom_i],
        "distributive": distributive, "chain": chained,
        "down_sizes": sizes, "irreducibles": irreducibles,
    }


def tables(lat):
    return {
        "elements": lat.elements, "leq": lat._leq, "up": lat._up, "down": lat._down,
        "join": lat._join, "meet": lat._meet, "top": lat.top, "bottom": lat.bottom,
        "distributive": lat.distributive, "chain": lat.is_chain(),
        "down_sizes": lat._down_sizes, "irreducibles": lat._irreducibles,
    }


def outcome(build, elements, pairs):
    """What a builder makes of the input: its tables, or its error's type and message."""
    try:
        result = build(elements, pairs)
    except LSubgroupsError as exc:
        return type(exc), str(exc)
    return result if isinstance(result, dict) else tables(result)


def kind_relation(kind):
    """The elements and generating pairs ``make_lattice`` validates for a kind."""
    if kind.startswith("chain"):
        lat = make_lattice(kind)
        return list(lat.elements), list(zip(lat.elements, lat.elements[1:]))
    if kind.startswith("divisors"):
        size = int(kind[len("divisors"):])
        divs = [d for d in range(1, size + 1) if size % d == 0]
        return [str(d) for d in divs], [(str(d), str(e)) for d in divs for e in divs if d != e and e % d == 0]
    m, n = map(int, kind[len("product"):].split("x"))
    names = [f"({i},{j})" for i in range(m) for j in range(n)]
    pairs = [(f"({i},{j})", f"({i + 1},{j})") for i in range(m - 1) for j in range(n)]
    pairs += [(f"({i},{j})", f"({i},{j + 1})") for i in range(m) for j in range(n - 1)]
    return names, pairs


HARNESS_KINDS = (
    [f"chain{k}" for k in range(1, 17)]
    + ["divisors30", "divisors60", "divisors720", "divisors5040"]
    + [f"product{m}x{n}" for m in range(1, 6) for n in range(1, 6)]
)

M3 = (["0", "a", "b", "c", "1"], [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
N5 = (["0", "x", "z", "y", "1"], [("0", "x"), ("x", "z"), ("z", "1"), ("0", "y"), ("y", "1")])


def random_relation(rng):
    """Up to nine elements under a random order, listed and paired in random order.

    Most draws add a bottom and a top, so most are lattices, about half of
    them non-distributive; some add a reversed pair (antisymmetry fails
    when it closes a cycle) or a pair with an unknown element.
    """
    n = rng.randint(1, 9)
    names = [f"x{k}" for k in range(n)]
    density = rng.random()
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < density / 2]
    if rng.random() < 0.8:
        pairs += [(names[0], x) for x in names[1:]] + [(x, names[-1]) for x in names[:-1]]
    roll = rng.random()
    if roll < 0.08 and n > 1:
        i, j = sorted(rng.sample(range(n), 2))
        pairs.append((names[j], names[i]))
    elif roll < 0.12:
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(names), "zz")[:: rng.choice((1, -1))])
    rng.shuffle(names)
    rng.shuffle(pairs)
    return names, pairs


class TestAgainstTheCubicBuilder:
    @pytest.mark.parametrize("kind", HARNESS_KINDS)
    def test_harness_kinds(self, kind):
        relation = kind_relation(kind)
        assert validate_lattice(*relation) == make_lattice(kind)
        assert outcome(validate_lattice, *relation) == outcome(cubic_lattice, *relation)

    @pytest.mark.parametrize("relation", [M3, N5], ids=["M3", "N5"])
    def test_non_distributive(self, relation):
        built = outcome(validate_lattice, *relation)
        assert built == outcome(cubic_lattice, *relation)
        assert built["distributive"] is False

    def test_seeded_random_relations(self):
        rng = random.Random(2026)
        seen = Counter()
        for _ in range(6000):
            relation = random_relation(rng)
            built = outcome(validate_lattice, *relation)
            assert built == outcome(cubic_lattice, *relation), relation
            if isinstance(built, dict):
                seen["distributive" if built["distributive"] else "non-distributive"] += 1
            else:
                seen[built[0].__name__ + (" lub" if "upper" in built[1] else "")] += 1
        # each kind of input and each first error turns up often
        assert min(seen.values()) >= 100 and len(seen) == 6, seen
        assert seen["non-distributive"] >= 1500, seen

    @pytest.mark.parametrize("elements, pairs", [
        ([], []), (["a", "b", "a"], []), (["a", "b"], [("a", "b"), ("b", "a")]),
    ])
    def test_degenerate_inputs(self, elements, pairs):
        assert outcome(validate_lattice, elements, pairs) == outcome(cubic_lattice, elements, pairs)


def pairwise_covers(lat):
    """The covering pairs by a scan of the order matrix, the reference.

    b covers a when a < b and no third element k has a ≤ k ≤ b.
    """
    leq, names = lat._leq, lat.elements
    pairs = []
    for a, row in enumerate(leq):
        above = [k for k, le in enumerate(row) if le and k != a]
        pairs += [(names[a], names[b]) for b in above if not any(leq[k][b] for k in above if k != b)]
    return tuple(pairs)


def assert_covers_match_the_scan(lat):
    expected = pairwise_covers(lat)
    assert lat.covering_pairs() == expected
    names = lat.elements
    assert tuple((a, b) for a in names for b in names if lat.is_cover(b, a)) == expected


class TestCoveringPairs:
    @pytest.mark.parametrize("kind", [*HARNESS_KINDS, "product16x16", "divisors720720"])
    def test_harness_kinds(self, kind):
        assert_covers_match_the_scan(make_lattice(kind))

    @pytest.mark.parametrize("relation", [M3, N5], ids=["M3", "N5"])
    def test_non_distributive(self, relation):
        assert_covers_match_the_scan(validate_lattice(*relation))


class TestDivisorKinds:
    def test_factorisation_matches_trial_division(self):
        # kind_relation lists the divisors by trial division over 1..N;
        # __wrapped__ skips make_lattice's cache, which these would flush
        for size in [*range(1, 2001), 720720]:
            kind = f"divisors{size}"
            built = make_lattice.__wrapped__(kind)
            assert tables(built) == tables(validate_lattice(*kind_relation(kind))), kind


class TestPinnedTables:
    @pytest.mark.parametrize("kind, digest", [
        ("chain1", "cf9aa0107af23d86480f2abbb6862b0a8174a2ef4ada8783392e86b3bccf8f84"),
        ("chain5", "71c6f6ed40b9a17da10a65ef1035bdbc3a7138bfe2a7176b4281b0083766fc77"),
        ("chain16", "eb4a588c01ad8ca9269b5e82e44c7b6dcaca9baab0d30104cc552d06a79c7d47"),
        ("divisors30", "660ecf2d1dbaa5da3c01fbd8dc566209e76eae7babf7f2678bb47ecb7de9383b"),
        ("divisors720", "65a2b7d1378e51b8bbfcc6f2667ee92f5aea93a3de29e56ecf91c1229d7aff88"),
        ("product2x3", "6cbb5b8166e347a072ab1713609b9e3e07bfe45f3b5f79d3e759a940284e7bc5"),
        ("product3x3", "410ebf14e2c2d4ce091bca453ea526a929c1a23762b37ca640859c5bcdd351f5"),
    ])
    def test_table_is_pinned(self, kind, digest):
        # elements, order, joins, meets, bounds, both flags and the
        # join-irreducibles in order, byte for byte, as the cubic builder
        # and the former rank computations gave them
        lat = make_lattice(kind)
        document = json.dumps([
            list(lat.elements), lat._leq, lat._join, lat._meet, lat.top, lat.bottom,
            lat.distributive, lat.is_chain(), list(lat._irreducibles),
        ])
        assert hashlib.sha256(document.encode()).hexdigest() == digest
