"""Finite groups given by element lists and operation tables.

Everything here is classical: validation of Cayley tables, a handful of
builtin groups used throughout the examples, subgroup closure and
enumeration, normality, classical Frattini subgroups, and validated
homomorphisms.  Inside the library a subgroup is a bitmask over element
indices, and each group keeps one table of its subgroup masks, smallest
first, built once by coset extension and holding the lower covers of each
mask once asked for.  No other module reads the table: ``_is_subgroup``
answers membership and ``_closure`` and ``_subgroups_within`` read its
order; ``_maximal_masks`` keeps the containment-maximal masks of a run.
Element names appear only in arguments and results.
"""
from __future__ import annotations

import re
from functools import lru_cache, reduce
from operator import and_
from typing import Iterable, Mapping, Sequence

from .errors import (
    DocumentError,
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
    state is one private memo, the subgroup table of ``_subgroup_table``,
    which is safe to share: ``builtin_group`` hands out one shared group
    per name, so each builtin builds its table once per process.
    """

    __slots__ = ("elements", "identity", "_index", "_table", "_inv", "_subgroups", "_hash")

    def __init__(self, elements, table, identity_index, inverse):
        self.elements: tuple[str, ...] = elements
        self._index = {name: i for i, name in enumerate(elements)}
        self._table = table
        self.identity: str = elements[identity_index]
        self._inv = inverse
        self._subgroups: dict[int, tuple[int, ...] | None] | None = None
        self._hash = hash((elements, tuple(map(tuple, table))))

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

    # index-level accessors used by the search code
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


def validate_group(elements: Sequence[str], table: Sequence[Sequence[str]]) -> FiniteGroup:
    """Validate an operation table and derive identity and inverses.

    Checks, in order: entries name known elements (NotClosedError),
    associativity over all triples (NotAssociativeError), existence of a
    two-sided identity (NoIdentityError) and of two-sided inverses
    (NoInverseError).
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


@lru_cache(maxsize=64)
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
      the indices mod n.  n runs from 1 to 256: the table has n² entries
      and validating it takes time cubic in n, so a larger n is refused
      before anything is built.
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


def _subgroup_table(group: FiniteGroup) -> dict[int, tuple[int, ...] | None]:
    """Every subgroup as an element bitmask, mapped to its lower covers.

    Keys run in ``all_subgroups`` order: by size, then by element indices.
    The covers start as None and are filled in by ``_lower_covers``.  Built
    once per group by coset extension (Dimino's algorithm): for a known
    subgroup H, found with generators S, and an element g outside it,
    <H, g> is the union of the right cosets H·r reached from H·g by right
    multiplication with S and g.  Every subgroup other than {e} is <H, g>
    for one of its maximal subgroups H, so extending from {e} finds them
    all; the elements of H·g all give the same <H, g> and are tried once.
    """
    if group._subgroups is not None:
        return group._subgroups
    table = group._table
    trivial = 1 << group.identity_index
    generators = {trivial: ()}
    queue = [trivial]
    for h in queue:
        members = _indices(h)
        tried = h
        for g in range(len(group)):
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
    group._subgroups = dict.fromkeys(queue)
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
    """The subgroups inside the element bitmask ``bound``, in table order (smallest first)."""
    return tuple(m for m in _subgroup_table(group) if not m & ~bound)


def subgroup_closure(group: FiniteGroup, seed: Iterable[str]) -> frozenset[str]:
    """Smallest subgroup containing ``seed``; closure of the empty set is {e}."""
    return _names(group, _closure(group, _mask(group, seed)))


def is_subgroup(group: FiniteGroup, subset: Iterable[str]) -> bool:
    """Direct check: non-empty, closed under products and inverses."""
    idxs = {group.index(x) for x in subset}
    if not idxs:
        return False
    return all(group.op_index(i, j) in idxs for i in idxs for j in idxs) and all(
        group.inverse_index(i) in idxs for i in idxs
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


def _lower_covers(group: FiniteGroup, mask: int) -> tuple[int, ...] | None:
    """Maximal proper subgroups of the subgroup with element bitmask ``mask``.

    Bitmasks in ``all_subgroups`` order; None when ``mask`` is not a
    subgroup.  Filled into the subgroup table per mask on first use.
    """
    table = _subgroup_table(group)
    if mask not in table:
        return None
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


def frattini_classical(group: FiniteGroup, sub: Iterable[str]) -> frozenset[str]:
    """Intersection of the maximal subgroups of ``sub``; ``sub`` itself when none exist."""
    mask = _require_subgroup(group, sub, "argument")
    return _names(group, reduce(and_, _lower_covers(group, mask), mask))


# ------------------------------------------------------- homomorphisms

class GroupHom:
    """A validated homomorphism; ``image_indices`` holds f(x) by target index, in source order."""

    __slots__ = ("source", "target", "mapping", "image_indices", "injective", "surjective")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: dict[str, str],
                 image_indices: tuple[int, ...], injective: bool, surjective: bool):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.image_indices = image_indices
        self.injective = injective
        self.surjective = surjective

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def __repr__(self) -> str:
        kind = "iso" if self.injective and self.surjective else "hom"
        return f"GroupHom({kind}, {len(self.source)}->{len(self.target)})"

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    def preimage(self, y: str) -> tuple[str, ...]:
        self.target.index(y)
        return tuple(x for x in self.source.elements if self.mapping[x] == y)

    def as_document(self) -> dict:
        return {"map": {x: self.mapping[x] for x in self.source.elements}}


def validate_hom(source: FiniteGroup, target: FiniteGroup, mapping: Mapping[str, str]) -> GroupHom:
    """Check totality, unknown keys and f(xy) = f(x)f(y); derive injective/surjective flags."""
    missing = [x for x in source.elements if x not in mapping]
    if missing:
        raise NotAHomomorphismError(f"map is not total; missing {missing}")
    # in the map's own order: keys of mixed types do not sort
    extra = [x for x in mapping if x not in source]
    if extra:
        raise NotAHomomorphismError(f"map mentions unknown source elements {extra}")
    f = [target.index(mapping[x]) for x in source.elements]
    table, target_table = source._table, target._table
    for i, x in enumerate(source.elements):
        for j, y in enumerate(source.elements):
            if f[table[i][j]] != target_table[f[i]][f[j]]:
                raise NotAHomomorphismError(f"f({x}*{y}) != f({x})*f({y})")
    image = set(f)
    injective = len(image) == len(source)
    surjective = len(image) == len(target)
    clean = {x: mapping[x] for x in source.elements}
    return GroupHom(source, target, clean, tuple(f), injective, surjective)


def identity_hom(group: FiniteGroup) -> GroupHom:
    return validate_hom(group, group, {x: x for x in group.elements})


def inner_automorphism(group: FiniteGroup, g: str) -> GroupHom:
    return validate_hom(group, group, {x: group.conjugate(g, x) for x in group.elements})


# ---------------------------------------------------------- documents

def group_from_document(doc: dict) -> FiniteGroup:
    """Parse ``{"elements": [...], "table": [[...], ...]}`` or ``{"builtin": "D8"}``."""
    if not isinstance(doc, dict):
        raise DocumentError("group document must be a JSON object")
    if "builtin" in doc:
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
