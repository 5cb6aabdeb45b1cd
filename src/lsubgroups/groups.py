"""Finite groups given by element lists and operation tables.

Everything here is classical: validation of Cayley tables, a handful of
builtin groups used throughout the examples, subgroup closure and
enumeration, normality, classical Frattini subgroups, and validated
homomorphisms.  A table is checked for associativity by Light's test
(Clifford & Preston, The Algebraic Theory of Semigroups, vol. I, 1961):
only the triples whose middle is one of a greedy generating set.  Inside
the library a subgroup is a bitmask over element indices, and each group
keeps one table of its subgroup masks, smallest first, holding the lower
covers of each mask once asked for.  The table is built once, by canonical
augmentation over greedy generating sequences (McKay, J. Algorithms 26,
1998): each subgroup is built once, from the span of its greedy sequence
less the last element.  No other module reads the table: ``_is_subgroup``
answers membership and ``_closure`` and ``_subgroups_within`` read its
order, the latter once per bound, through a bounded memo;
``_maximal_masks`` keeps the containment-maximal masks of a run.
A homomorphism is stored once, as ``image_indices``: f(x) by target index,
in source order.  Element names appear only in arguments and results, and
for a homomorphism only in ``mapping``, in calls and in documents.
"""
from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import islice
from operator import and_, itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    DocumentError,
    InstanceTooLargeError,
    NoIdentityError,
    NoInverseError,
    NotAHomomorphismError,
    NotAssociativeError,
    NotASubgroupError,
    NotClosedError,
    UnknownBuiltinError,
    UnknownElementError,
)


class FiniteGroup:
    """A validated finite group.

    Elements are opaque names; the table maps (row, column) index pairs to
    the index of the product.  Instances are immutable; the only interior
    state is two private memos, the subgroup table of ``_subgroup_table``
    and the bounds of ``_subgroups_within``, which are safe to share:
    ``builtin_group`` hands out one shared group per name, so each builtin
    builds its table once per process.
    """

    __slots__ = ("elements", "identity", "_index", "_table", "_inv", "_subgroups", "_within", "_hash")

    def __init__(self, elements, table, identity_index, inverse):
        self.elements: tuple[str, ...] = elements
        self._index = {name: i for i, name in enumerate(elements)}
        self._table = table
        self.identity: str = elements[identity_index]
        self._inv = inverse
        self._subgroups: dict[int, tuple[int, ...] | None] | None = None
        self._within: dict[int, tuple[int, ...]] = {}
        self._hash = hash(elements)  # __eq__ compares the elements first

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.elements == other.elements and self._table == other._table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup(order={len(self.elements)}, identity={self.identity!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElementError(f"unknown group element {name!r}") from None

    def op(self, x: str, y: str) -> str:
        return self.elements[self._table[self.index(x)][self.index(y)]]

    def inverse(self, x: str) -> str:
        return self.elements[self._inv[self.index(x)]]

    def conjugate(self, g: str, x: str) -> str:
        """g x g⁻¹."""
        gi, xi = self.index(g), self.index(x)
        return self.elements[self._table[self._table[gi][xi]][self._inv[gi]]]

    # index-level accessors for callers outside the library, such as the
    # tests; the library's own loops read the rows of ``_table`` and ``_inv``
    def op_index(self, i: int, j: int) -> int:
        return self._table[i][j]

    def inverse_index(self, i: int) -> int:
        return self._inv[i]

    @property
    def identity_index(self) -> int:
        return self._index[self.identity]

    def as_document(self) -> dict:
        return {
            "elements": list(self.elements),
            "table": [[self.elements[v] for v in row] for row in self._table],
        }


def _product_generators(t: list[list[int]]) -> list[int]:
    """A greedy generating sequence of the table ``t`` under products alone.

    The least element outside the span so far, repeatedly, where the span
    is everything reached from the generators by right multiplication with
    them.  No group axiom is needed, so validation can use it before the
    table is known to be associative.
    """
    gens: list[int] = []
    span: list[int] = []
    seen = bytearray(len(t))
    for g in range(len(t)):
        if seen[g]:
            continue
        gens.append(g)
        fresh = len(span)
        # g and the span so far times g; then each element new since, times every generator
        for w in [g, *(t[z][g] for z in span)]:
            if not seen[w]:
                seen[w] = 1
                span.append(w)
        for z in islice(span, fresh, None):  # also reads what the loop appends
            for w in map(t[z].__getitem__, gens):
                if not seen[w]:
                    seen[w] = 1
                    span.append(w)
    return gens


def _light_associative(t: list[list[int]]) -> bool:
    """Light's test: (x·s)·y = x·(s·y) for each greedy generator s, row by row."""
    return all(
        t[row[s]] == list(map(row.__getitem__, t[s])) for s in _product_generators(t) for row in t
    )


def validate_group(elements: Sequence[str], table: Sequence[Sequence[str]]) -> FiniteGroup:
    """Validate an operation table and derive identity and inverses.

    Checks, in order: entries name known elements (NotClosedError),
    associativity over all triples (NotAssociativeError), existence of a
    two-sided identity (NoIdentityError) and of two-sided inverses
    (NoInverseError).  Associativity is decided by Light's test (Clifford &
    Preston, The Algebraic Theory of Semigroups, vol. I, 1961): the
    triples (x, s, y) whose middle s is one of the greedy generators of
    ``_product_generators`` are enough, as the middles that pass are closed
    under products.  Only when the test fails are all triples scanned, so
    that the error names the first failing one.  Each check compares whole
    rows: (ij)k = i(jk) for all k is row ij against row i read along row
    j, the identity is the first element whose row and column are both the
    element order, and the inverse of i is where the identity stands in row
    i, checked on the other side (in a monoid a two-sided inverse is the
    only right inverse).  An error names the first failing triple, or
    element, in index order.
    """
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

    if not _light_associative(t):
        for i, row in enumerate(t):
            along_i = row.__getitem__
            for j, tij in enumerate(row):
                if t[tij] != list(map(along_i, t[j])):
                    k = next(k for k, (a, b) in enumerate(zip(t[tij], t[j])) if a != row[b])
                    raise NotAssociativeError(
                        f"({elements[i]}*{elements[j]})*{elements[k]} != "
                        f"{elements[i]}*({elements[j]}*{elements[k]})"
                    )

    order = list(range(n))
    identity = next((i for i, row in enumerate(t) if row == order and [r[i] for r in t] == order), None)
    if identity is None:
        raise NoIdentityError("no two-sided identity element")

    inverse = []
    for i, row in enumerate(t):
        j = row.index(identity) if identity in row else None
        if j is None or t[j][i] != identity:
            raise NoInverseError(f"element {elements[i]!r} has no two-sided inverse")
        inverse.append(j)

    return FiniteGroup(elements, t, identity, inverse)


# ---------------------------------------------------------------- builtins

def _from_indices(names: Sequence[str], mul) -> FiniteGroup:
    # the table of ``mul`` on element indices, validated like any document
    n = len(names)
    return validate_group(names, [[names[mul(x, y)] for y in range(n)] for x in range(n)])


def _quaternion_product(x: int, y: int) -> int:
    # ±u is 2u + (1 when negative), for the units 1, i, j, k as u = 0..3.
    # The unit of a product is u XOR v, negated when u = v ≠ 0 (u² = -1) or
    # when v does not follow u in the cycle i → j → k (ji = -k)
    u, v = x >> 1, y >> 1
    flip = 1 if u and v and (v - u) % 3 != 1 else 0
    return 2 * (u ^ v) + ((x ^ y ^ flip) & 1)


# the largest n for which ``builtin_group`` builds Cn
_MAX_CYCLIC_ORDER = 256


@lru_cache(maxsize=None)  # 259 names; refusals are not cached
def builtin_group(name: str) -> FiniteGroup:
    """Builtin groups with fixed element names: Q8, D8, V4 and Cn (e.g. C6).

    One shared, validated group per name: repeat calls return the same
    object, with its subgroup table and lower covers.  The elements, by
    index:

    - Q8: 1, -1, i, -i, j, -j, k, -k; ±u is element 2u + (1 when negative)
      for the units 1, i, j, k, with u² = -1 for u ≠ 1 and ij = k, jk = i,
      ki = j;
    - D8: e, r, r2, r3, s, sr, sr2, sr3; element 4i + j is s^i r^j, with
      r⁴ = s² = e and r^j s = s r^-j;
    - V4: e, a, b, c, multiplied by XOR of the indices;
    - Cn: e, g, g2, ..., g(n-1); element k is g^k, multiplied by adding
      the indices mod n.  n runs from 1 to 256: the table has n² entries,
      so a larger n is refused before anything is built.
    """
    if name == "Q8":
        return _from_indices(("1", "-1", "i", "-i", "j", "-j", "k", "-k"), _quaternion_product)
    if name == "D8":
        return _from_indices(
            ("e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"),
            lambda x, y: (x ^ y) & 4 | ((-x if y & 4 else x) + y) % 4,
        )
    if name == "V4":
        return _from_indices(("e", "a", "b", "c"), int.__xor__)
    # n is a positive ASCII decimal with no leading zero, so each Cn has one name
    if re.fullmatch(r"C[1-9][0-9]*", name):
        # the length test comes first, so that no huge decimal is converted
        if len(name) > len(str(_MAX_CYCLIC_ORDER)) + 1 or int(name[1:]) > _MAX_CYCLIC_ORDER:
            raise UnknownBuiltinError(
                f"builtin group {name!r} is too large: Cn is built for n up to {_MAX_CYCLIC_ORDER}"
            )
        n = int(name[1:])
        return _from_indices(("e", "g", *(f"g{k}" for k in range(2, n)))[:n], lambda x, y: (x + y) % n)
    raise UnknownBuiltinError(f"unknown builtin group {name!r}")


# ------------------------------------------------------------- subgroups

# each byte with its bits in reverse order: read through it, a little-endian
# mask compares low bit first
_LOW_BIT_FIRST = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
# the most bounds one group's ``_subgroups_within`` memo holds
_WITHIN_MEMO_SIZE = 1024
# the most subgroups ``_greedy_walk`` keeps: C2^8's 417,199 fit, C2^9's 8.3 million do not
_TABLE_BUDGET = 500_000


def _indices(mask: int) -> tuple[int, ...]:
    """Element indices of the set bits of ``mask``, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def _mask(group: FiniteGroup, names: Iterable[str]) -> int:
    mask = 0
    for x in names:
        mask |= 1 << group.index(x)
    return mask


def _names(group: FiniteGroup, mask: int) -> frozenset[str]:
    return frozenset(map(group.elements.__getitem__, _indices(mask)))


def _greedy_walk(group: FiniteGroup) -> tuple[list[tuple[int, tuple[int, ...]]], int]:
    """Every subgroup, each built once, with its greedy generating sequence.

    Returns the (mask, sequence) pairs in the order built, the trivial
    subgroup first, and the number of closures attempted.  The greedy
    sequence of a subgroup K starts with its least element other than e,
    and each next element is the least one of K outside the span so far.
    Cut off its last element g, and what is left is the greedy sequence of
    the span H, with g the least element of K outside H and above H's last
    generator.  So each subgroup has one parent, and the walk is canonical
    augmentation (McKay, J. Algorithms 26, 1998): H is extended only by an
    element g above its last generator that is the least of its right coset
    Hg; <H, g> is closed as the union of the right cosets H·r reached from
    H·g by right multiplication with H's generators and g (Dimino's coset
    step), and kept only when no element below g joins it.  The closure is
    abandoned as soon as one does.  The walk keeps at most
    ``_TABLE_BUDGET`` subgroups and raises InstanceTooLargeError on the
    next one, so no table is stored on the group.
    """
    table, n = group._table, len(group)
    full = (1 << n) - 1
    bits = [1 << i for i in range(n)]
    # H·g is column g of the bit table read at the members of H; index n
    # reads 0, so that the getter of the trivial subgroup returns a tuple
    columns = [[*map(bits.__getitem__, column), 0] for column in zip(*table)]
    walked = [(1 << group.identity_index, ())]
    attempts, budget = 0, _TABLE_BUDGET
    for h, gens in walked:
        coset_of = itemgetter(*_indices(h), n)
        # the elements outside H above its last generator, less each coset tried
        untried = full & ~h & -(2 << gens[-1] if gens else 1)
        while untried:
            g = (untried & -untried).bit_length() - 1
            coset = sum(coset_of(columns[g]))
            untried &= ~coset
            below = (1 << g) - 1
            if coset & below:
                continue
            attempts += 1
            step = gens + (g,)
            bigger, reps = h | coset, [g]
            for r in reps:
                row = table[r]
                for s in step:
                    y = row[s]
                    if not bigger >> y & 1:
                        coset = sum(coset_of(columns[y]))
                        if coset & below:
                            break
                        bigger |= coset
                        reps.append(y)
                else:
                    continue
                break
            else:
                if len(walked) == budget:
                    raise InstanceTooLargeError(budget + 1, budget, (
                        f"the subgroup table of the group of order {n} stopped at {budget + 1} "
                        f"subgroups, over its budget of {budget}"
                    ))
                walked.append((bigger, step))
    return walked, attempts


def _subgroup_table(group: FiniteGroup) -> dict[int, tuple[int, ...] | None]:
    """Every subgroup as an element bitmask, mapped to its lower covers.

    Keys run in ``all_subgroups`` order: by size, then by element indices.
    The covers start as None and are filled in by ``_lower_covers``.  Built
    once per group by ``_greedy_walk`` and sorted.
    """
    if group._subgroups is not None:
        return group._subgroups
    n = len(group)
    full, width = (1 << n) - 1, (n + 7) // 8
    masks = [h for h, _ in _greedy_walk(group)[0]]
    # of two masks of one size, the one that holds the lowest index where
    # they differ comes first, and so does its complement read low bit first
    masks.sort(key=lambda m: (m.bit_count(), (m ^ full).to_bytes(width, "little").translate(_LOW_BIT_FIRST)))
    group._subgroups = dict.fromkeys(masks)
    return group._subgroups


def _closure(group: FiniteGroup, mask: int) -> int:
    """The least subgroup holding the element bitmask ``mask``; {e} for 0.

    The first subgroup in the table that holds ``mask``: the table runs by
    size, so it is the least one.
    """
    return next(m for m in _subgroup_table(group) if not mask & ~m)


def _is_subgroup(group: FiniteGroup, mask: int) -> bool:
    """Is the element bitmask ``mask`` a subgroup?  A lookup in the table, built on first use."""
    return mask in (group._subgroups or _subgroup_table(group))


def _subgroups_within(group: FiniteGroup, bound: int) -> tuple[int, ...]:
    """The subgroups inside the element bitmask ``bound``, in table order (smallest first).

    Each bound is scanned once per group: the answer is kept in the group's
    memo, which is emptied once it holds ``_WITHIN_MEMO_SIZE`` bounds.
    """
    memo = group._within
    found = memo.get(bound)
    if found is None:
        outside = ~bound
        found = tuple([m for m in _subgroup_table(group) if not m & outside])
        if len(memo) >= _WITHIN_MEMO_SIZE:
            memo.clear()
        memo[bound] = found
    return found


def subgroup_closure(group: FiniteGroup, seed: Iterable[str]) -> frozenset[str]:
    """Smallest subgroup containing ``seed``; closure of the empty set is {e}."""
    return _names(group, _closure(group, _mask(group, seed)))


def is_subgroup(group: FiniteGroup, subset: Iterable[str]) -> bool:
    """Direct check: non-empty, closed under products and inverses."""
    idxs = {group.index(x) for x in subset}
    table, inv = group._table, group._inv
    return bool(idxs) and all(table[i][j] in idxs for i in idxs for j in idxs) and all(
        inv[i] in idxs for i in idxs
    )


def all_subgroups(group: FiniteGroup) -> tuple[frozenset[str], ...]:
    """Every subgroup, sorted by (size, element indices)."""
    return tuple(_names(group, m) for m in _subgroups_within(group, (1 << len(group)) - 1))


def _require_subgroup(group: FiniteGroup, subset: Iterable[str], label: str) -> int:
    """The bitmask of ``subset``; NotASubgroupError unless it is a subgroup."""
    sub = frozenset(subset)
    if not is_subgroup(group, sub):
        raise NotASubgroupError(f"{label} is not a subgroup: {sorted(sub)}")
    return _mask(group, sub)


def _lower_covers(group: FiniteGroup, mask: int) -> tuple[int, ...]:
    """Maximal proper subgroups of the subgroup with element bitmask ``mask``.

    Bitmasks in ``all_subgroups`` order; ``mask`` must be a subgroup, as at
    every caller (KeyError otherwise).  Filled into the table on first use.
    """
    table = _subgroup_table(group)
    covers = table[mask]
    if covers is None:
        found = _maximal_masks(reversed(_subgroups_within(group, mask)), mask.__ne__)
        covers = table[mask] = tuple(reversed(found))
    return covers


def _maximal_masks(masks_largest_first: Iterable[int], keep) -> list[int]:
    """The containment-maximal masks ``keep`` accepts: those no earlier kept mask holds."""
    found: list[int] = []
    for s in masks_largest_first:
        if keep(s) and all(s & ~m for m in found):
            found.append(s)
    return found


def maximal_subgroups_of(group: FiniteGroup, sub: Iterable[str]) -> tuple[frozenset[str], ...]:
    """Maximal proper subgroups of ``sub``; the trivial subgroup has none."""
    covers = _lower_covers(group, _require_subgroup(group, sub, "argument"))
    return tuple(_names(group, m) for m in covers)


def is_normal_subgroup(group: FiniteGroup, normal: Iterable[str], ambient: Iterable[str]) -> bool:
    """True when ``normal`` is a normal subgroup of ``ambient``."""
    normal = _require_subgroup(group, normal, "normal part")
    ambient = _require_subgroup(group, ambient, "ambient part")
    if normal & ~ambient:
        raise NotASubgroupError("normal part must be contained in the ambient subgroup")
    table, inv, inside = group._table, group._inv, _indices(normal)
    return all(normal >> table[table[h][x]][inv[h]] & 1 for h in _indices(ambient) for x in inside)


def _frattini_mask(group: FiniteGroup, mask: int) -> int:
    """Phi of the subgroup ``mask``: the AND of its lower covers, ``mask`` when it has none."""
    return reduce(and_, _lower_covers(group, mask), mask)


def frattini_classical(group: FiniteGroup, sub: Iterable[str]) -> frozenset[str]:
    """Intersection of the maximal subgroups of ``sub``; ``sub`` itself when none exist."""
    return _names(group, _frattini_mask(group, _require_subgroup(group, sub, "argument")))


# ------------------------------------------------------- homomorphisms

class GroupHom:
    """A homomorphism stored as ``image_indices``: f(x) by target index, in
    source order.  Made only once f(xy) = f(x)f(y) holds on the two tables."""

    __slots__ = ("source", "target", "image_indices")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, image_indices: Iterable[int]):
        f = tuple(image_indices)
        if len(f) != len(source) or not set(f) <= set(range(len(target))):
            raise NotAHomomorphismError(f"a hom needs {len(source)} image indices, each below {len(target)}")
        for x, fx, row in zip(source.elements, f, source._table):
            for y, fy, xy in zip(source.elements, f, row):
                if f[xy] != target._table[fx][fy]:
                    raise NotAHomomorphismError(f"f({x}*{y}) != f({x})*f({y})")
        self.source, self.target, self.image_indices = source, target, f

    def __call__(self, x: str) -> str:
        return self.target.elements[self.image_indices[self.source.index(x)]]

    def __repr__(self) -> str:
        kind = "iso" if self.bijective else "hom"
        return f"GroupHom({kind}, {len(self.source)}->{len(self.target)})"

    @property
    def injective(self) -> bool:
        return len(set(self.image_indices)) == len(self.source)

    @property
    def surjective(self) -> bool:
        return len(set(self.image_indices)) == len(self.target)

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    @property
    def mapping(self) -> dict[str, str]:
        return dict(zip(self.source.elements, map(self.target.elements.__getitem__, self.image_indices)))

    def preimage(self, y: str) -> tuple[str, ...]:
        yi = self.target.index(y)
        return tuple(x for x, v in zip(self.source.elements, self.image_indices) if v == yi)

    def as_document(self) -> dict:
        return {"map": self.mapping}


def validate_hom(source: FiniteGroup, target: FiniteGroup, mapping: Mapping[str, str]) -> GroupHom:
    """Check totality, unknown keys and target names, then f(xy) = f(x)f(y) on the image indices."""
    missing = [x for x in source.elements if x not in mapping]
    if missing:
        raise NotAHomomorphismError(f"map is not total; missing {missing}")
    # in the map's own order: keys of mixed types do not sort
    extra = [x for x in mapping if x not in source]
    if extra:
        raise NotAHomomorphismError(f"map mentions unknown source elements {extra}")
    return GroupHom(source, target, [target.index(mapping[x]) for x in source.elements])


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(group, group, range(len(group)))


def inner_automorphism(group: FiniteGroup, g: str) -> GroupHom:
    gi = group.index(g)
    return GroupHom(group, group, [group._table[r][group._inv[gi]] for r in group._table[gi]])


# ---------------------------------------------------------- documents

def group_from_document(doc: dict) -> FiniteGroup:
    """Parse ``{"elements": [...], "table": [[...], ...]}`` or ``{"builtin": "D8"}``.

    A document that gives ``builtin`` together with ``elements`` or ``table`` is refused.
    """
    if not isinstance(doc, dict):
        raise DocumentError("group document must be a JSON object")
    if "builtin" in doc:
        if "elements" in doc or "table" in doc:
            raise DocumentError("group document gives 'builtin' together with 'elements' or 'table'")
        if not isinstance(doc["builtin"], str):
            raise DocumentError("'builtin' must be a group name")
        try:
            return builtin_group(doc["builtin"])
        except UnknownBuiltinError as exc:
            raise DocumentError(str(exc)) from exc
    if "elements" not in doc or "table" not in doc:
        raise DocumentError("group document needs 'elements' and 'table', or 'builtin'")
    names = doc["elements"]
    table = doc["table"]
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise DocumentError("'elements' must be a list of element names")
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(isinstance(x, str) for x in row) for row in table
    ):
        raise DocumentError("'table' must be a list of rows of element names")
    try:
        return validate_group(names, table)
    except (NotClosedError, NotAssociativeError, NoIdentityError, NoInverseError) as exc:
        raise DocumentError(str(exc)) from exc


def hom_from_document(doc: dict, source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    """Parse ``{"map": {"x": "y", ...}}`` against validated source and target."""
    if not isinstance(doc, dict) or "map" not in doc or not isinstance(doc["map"], dict):
        raise DocumentError("hom document needs a 'map' object")
    if not all(isinstance(y, str) for y in doc["map"].values()):
        raise DocumentError("each value in 'map' must be an element name")
    try:
        return validate_hom(source, target, doc["map"])
    except (NotAHomomorphismError, UnknownElementError) as exc:
        raise DocumentError(str(exc)) from exc
