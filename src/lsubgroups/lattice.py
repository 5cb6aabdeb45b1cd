"""Finite bounded lattices over named elements.

A lattice is built from a list of element names and a set of generating
order pairs; the reflexive-transitive closure, the join/meet tables and the
distributivity flag are all computed during validation.  Instances are
immutable and every query is read only.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DocumentError,
    EmptySubsetError,
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
    """

    __slots__ = (
        "elements",
        "top",
        "bottom",
        "distributive",
        "_index",
        "_leq",
        "_join",
        "_meet",
        "_chain",
        "_hash",
    )

    def __init__(self, elements, leq, join, meet, top, bottom, distributive, chain):
        # Use validate_lattice() / chain_lattice(); this constructor trusts its input.
        self.elements: tuple[str, ...] = elements
        self._index = {name: i for i, name in enumerate(elements)}
        self._leq = leq
        self._join = join
        self._meet = meet
        self.top: str = top
        self.bottom: str = bottom
        self.distributive: bool = distributive
        self._chain = chain
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
        """True when b covers a: a < b with nothing strictly between."""
        i, j = self.index(a), self.index(b)
        if i == j or not self._leq[i][j]:
            return False
        leq = self._leq
        return not any(
            k != i and k != j and leq[i][k] and leq[k][j] for k in range(len(self.elements))
        )

    def covers_of(self, a: str) -> tuple[str, ...]:
        """The covers of a (the upper neighbours in the Hasse diagram)."""
        return tuple(b for b in self.elements if self.is_cover(b, a))

    def covering_pairs(self) -> tuple[tuple[str, str], ...]:
        """All (lower, upper) covering pairs, in carrier order."""
        return tuple((a, b) for a in self.elements for b in self.covers_of(a))

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


def validate_lattice(elements: Sequence[str], pairs: Iterable[Sequence[str]]) -> FiniteLattice:
    """Build a lattice from element names and generating ≤ pairs.

    The order is the reflexive-transitive closure of ``pairs``.  Raises
    NotAPosetError when antisymmetry fails and NotALatticeError when some
    pair of elements has no least upper bound or greatest lower bound.
    Distributivity is checked over all triples and recorded as a flag.
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

    # Warshall closure; n stays small so cubic cost is irrelevant.
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
    chain = all(leq[i][j] or leq[j][i] for i in range(n) for j in range(i + 1, n))

    return FiniteLattice(
        elements,
        leq,
        join,
        meet,
        elements[top_i],
        elements[bottom_i],
        distributive,
        chain,
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
        except (NotALatticeError, NotAPosetError, UnknownElementError) as exc:
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
    except (NotALatticeError, NotAPosetError, UnknownElementError) as exc:
        raise DocumentError(str(exc)) from exc
