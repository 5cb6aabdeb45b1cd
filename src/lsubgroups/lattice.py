"""Finite bounded lattices over named elements.

A lattice is built from a list of element names and a set of generating
order pairs; the reflexive-transitive closure, the join/meet tables, the
rank, the join-irreducibles and the distributivity flag are all computed
during validation, from integer up-set and down-set rows.  Instances are
immutable and every query is read only.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DocumentError,
    EmptySubsetError,
    InstanceTooLargeError,
    NotALatticeError,
    NotAPosetError,
    UnknownElementError,
)


class FiniteLattice:
    """A validated finite lattice.

    Element names are opaque strings; there is no numeric coercion.  The
    ``distributive`` flag records whether a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c)
    holds for all triples.  Non-distributive lattices are constructible for
    negative tests, but theorem-level operations elsewhere refuse them.
    ``_down_sizes`` holds the down-set sizes, a rank, and ``_irreducibles``
    the join-irreducibles in rank order, the layout of every level map.
    ``_up`` and ``_down`` hold each element's up-set and down-set as integer
    bit rows, which the cover queries read.
    """

    __slots__ = (
        "elements", "top", "bottom", "distributive", "_index", "_leq", "_up", "_down", "_join",
        "_meet", "_chain", "_down_sizes", "_irreducibles", "_hash",
    )

    def __init__(self, elements, leq, up, down, join, meet, top, bottom, distributive, chain,
                 down_sizes, irreducibles):
        # Use validate_lattice() / chain_lattice(); this constructor trusts its input.
        self.elements: tuple[str, ...] = elements
        self._index = {name: i for i, name in enumerate(elements)}
        self._leq = leq
        self._up: tuple[int, ...] = up
        self._down: tuple[int, ...] = down
        self._join = join
        self._meet = meet
        self.top: str = top
        self.bottom: str = bottom
        self.distributive: bool = distributive
        self._chain = chain
        self._down_sizes: tuple[int, ...] = down_sizes
        self._irreducibles: tuple[int, ...] = irreducibles
        self._hash = hash((elements, tuple(map(tuple, leq))))

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self._leq == other._leq

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "chain" if self._chain else "lattice"
        return f"FiniteLattice({kind}, {len(self.elements)} elements)"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElementError(f"unknown lattice element {name!r}") from None

    def leq(self, a: str, b: str) -> bool:
        """True when a ≤ b."""
        return self._leq[self.index(a)][self.index(b)]

    def join(self, a: str, b: str) -> str:
        """Least upper bound of a and b."""
        return self.elements[self._join[self.index(a)][self.index(b)]]

    def meet(self, a: str, b: str) -> str:
        """Greatest lower bound of a and b."""
        return self.elements[self._meet[self.index(a)][self.index(b)]]

    def join_set(self, names: Iterable[str]) -> str:
        """Join of a finite set; the empty join is the bottom element."""
        acc = None
        for name in names:
            i = self.index(name)
            acc = i if acc is None else self._join[acc][i]
        return self.bottom if acc is None else self.elements[acc]

    def meet_set(self, names: Iterable[str]) -> str:
        """Meet of a finite set; the empty meet is the top element."""
        acc = None
        for name in names:
            i = self.index(name)
            acc = i if acc is None else self._meet[acc][i]
        return self.top if acc is None else self.elements[acc]

    def is_chain(self) -> bool:
        return self._chain

    def is_upper_well_ordered(self) -> bool:
        """Every non-empty subset of a finite chain contains its supremum."""
        return self._chain

    def down_set(self, a: str) -> tuple[str, ...]:
        """All elements ≤ a, in carrier order."""
        i = self.index(a)
        return tuple(x for j, x in enumerate(self.elements) if self._leq[j][i])

    def is_cover(self, b: str, a: str) -> bool:
        """True when b covers a (a < b, nothing between): ``up[a] & down[b]`` is {a, b}."""
        i, j = self.index(a), self.index(b)
        return i != j and self._up[i] & self._down[j] == 1 << i | 1 << j

    def covers_of(self, a: str) -> tuple[str, ...]:
        """The covers of a (the upper neighbours in the Hasse diagram)."""
        return tuple(b for b in self.elements if self.is_cover(b, a))

    def covering_pairs(self) -> tuple[tuple[str, str], ...]:
        """All (lower, upper) covering pairs, in carrier order, by the test of ``is_cover``."""
        down = self._down
        names = self.elements
        pairs = []
        for a, row in enumerate(self._up):
            above = row ^ (1 << a)
            while above:
                low = above & -above
                b = low.bit_length() - 1
                if row & down[b] == low | (1 << a):
                    pairs.append((names[a], names[b]))
                above ^= low
        return tuple(pairs)

    def is_supstar_subset(self, names: Iterable[str]) -> bool:
        """True when every non-empty subset of ``names`` contains its supremum.

        For a finite carrier this holds exactly when all members are pairwise
        comparable: the supremum of an incomparable pair {x, y} is outside
        {x, y}.  Subsets of a chain therefore always qualify.
        """
        idxs = sorted({self.index(name) for name in names})
        if not idxs:
            raise EmptySubsetError("supstar test requires a non-empty subset")
        leq = self._leq
        return all(leq[i][j] or leq[j][i] for i, j in combinations(idxs, 2))

    def as_document(self) -> dict:
        """JSON-ready form using the covering pairs as generating order."""
        return {
            "elements": list(self.elements),
            "le": [[a, b] for a, b in self.covering_pairs()],
        }


_MAX_ELEMENTS = 256


def _refuse_past_the_bound(n: int, count: str | None = None) -> None:
    # count, when given, stands for n in the message
    if n > _MAX_ELEMENTS:  # an index is one byte; the rows and tables grow as n²
        message = (
            f"a lattice of {count or n} elements is too large: "
            f"lattices are built for up to {_MAX_ELEMENTS} elements"
        )
        raise InstanceTooLargeError(n, _MAX_ELEMENTS, message)


def validate_lattice(elements: Sequence[str], pairs: Iterable[Sequence[str]]) -> FiniteLattice:
    """Build a lattice from element names and generating ≤ pairs.

    The order is the reflexive-transitive closure of ``pairs``, as integer
    up-set and down-set rows.  Raises InstanceTooLargeError for more than
    256 elements, before any row is built, so that every lattice index fits
    in the one byte per group element that an L-subset keeps.  Raises
    NotAPosetError when antisymmetry fails and NotALatticeError when some
    pair has no least upper bound (no element whose up-set is
    ``up[i] & up[j]``) or, dually, greatest lower bound.
    The distributivity flag holds when each join-irreducible is join-prime
    (Davey & Priestley, *Introduction to Lattices and Order*, ch. 5).
    """
    elements = tuple(elements)
    _refuse_past_the_bound(len(elements))
    if not elements:
        raise NotALatticeError("a lattice needs at least one element")
    if len(set(elements)) != len(elements):
        raise NotALatticeError("duplicate element names")
    index = {name: i for i, name in enumerate(elements)}
    n = len(elements)
    full = (1 << n) - 1

    up = [1 << i for i in range(n)]
    for pair in pairs:
        lo, hi = pair
        if lo not in index or hi not in index:
            raise UnknownElementError(f"order pair ({lo!r}, {hi!r}) uses unknown elements")
        up[index[lo]] |= 1 << index[hi]

    # Warshall closure on bit rows: all that is below k is below k's up-set
    for k in range(n):
        bit, row_k = 1 << k, up[k]
        for i in range(n):
            if up[i] & bit:
                up[i] |= row_k
    # rows[i][j] is "1" when i ≤ j; the columns are the down-sets
    rows = [format(row, f"0{n}b")[::-1] for row in up]
    down = [int("".join(column)[::-1], 2) for column in zip(*rows)]

    for i in range(n):
        twins = up[i] & down[i] & ~((2 << i) - 1)
        if twins:
            j = (twins & -twins).bit_length() - 1
            raise NotAPosetError(
                f"antisymmetry fails: {elements[i]!r} and {elements[j]!r} are order-equivalent"
            )

    by_up = {row: k for k, row in enumerate(up)}
    by_down = {row: k for k, row in enumerate(down)}
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            least = by_up.get(up[i] & up[j])
            if least is None:
                raise NotALatticeError(
                    f"{elements[i]!r} and {elements[j]!r} have no least upper bound"
                )
            join[i][j] = join[j][i] = least

            greatest = by_down.get(down[i] & down[j])
            if greatest is None:
                raise NotALatticeError(
                    f"{elements[i]!r} and {elements[j]!r} have no greatest lower bound"
                )
            meet[i][j] = meet[j][i] = greatest

    # |down-set| grows strictly along the order, so it is a rank; j is
    # join-irreducible when the elements strictly below it have a greatest
    sizes = tuple(row.bit_count() for row in down)
    irreducibles = tuple(
        j for j in sorted(range(n), key=sizes.__getitem__) if down[j] ^ 1 << j in by_down
    )
    # j is join-prime when the join of the elements not above j, whose
    # up-set is the AND of theirs, is not above j
    distributive = all(
        reduce(int.__and__, (up[x] for x in range(n) if not up[j] >> x & 1), full) & ~up[j]
        for j in irreducibles
    )

    return FiniteLattice(
        elements,
        [[bit == "1" for bit in row] for row in rows],
        tuple(up),
        tuple(down),
        join,
        meet,
        elements[by_down[full]],
        elements[by_up[full]],
        distributive,
        all(up[i] | down[i] == full for i in range(n)),
        sizes,
        irreducibles,
    )


def chain_lattice(elements: Sequence[str]) -> FiniteLattice:
    """The chain whose elements are listed from bottom to top."""
    elements = tuple(elements)
    return validate_lattice(elements, list(zip(elements, elements[1:])))


def lattice_from_document(doc: dict) -> FiniteLattice:
    """Parse ``{"elements": [...], "le": [[lo, hi], ...]}`` or ``{"chain": [...]}``."""
    if not isinstance(doc, dict):
        raise DocumentError("lattice document must be a JSON object")
    if "chain" in doc:
        names = doc["chain"]
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise DocumentError("'chain' must be a list of element names")
        try:
            return chain_lattice(names)
        except (InstanceTooLargeError, NotALatticeError, NotAPosetError, UnknownElementError) as exc:
            raise DocumentError(str(exc)) from exc
    if "elements" not in doc:
        raise DocumentError("lattice document needs 'elements' or 'chain'")
    names = doc["elements"]
    pairs = doc.get("le", [])
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise DocumentError("'elements' must be a list of element names")
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p) for p in pairs
    ):
        raise DocumentError("'le' must be a list of [lower, upper] pairs")
    try:
        return validate_lattice(names, pairs)
    except (InstanceTooLargeError, NotALatticeError, NotAPosetError, UnknownElementError) as exc:
        raise DocumentError(str(exc)) from exc
