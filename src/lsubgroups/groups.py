"""Finite groups given by element lists and operation tables.

Everything here is classical: validation of Cayley tables, a handful of
builtin groups used throughout the examples, subgroup closure and
enumeration, normality, classical Frattini subgroups, and validated
homomorphisms.  Inside the library a subgroup is a bitmask over element
indices, and each group keeps one table of its subgroup masks, built once
by coset extension and holding the lower covers of each mask once asked
for; closure, enumeration, maximal subgroups and classical Frattini
subgroups all read it.  Element names appear only in arguments and
results.
"""
from __future__ import annotations

from functools import reduce
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
    which is safe to share.
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

def _cyclic(n: int) -> FiniteGroup:
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    table = [[names[(i + j) % n] for j in range(n)] for i in range(n)]
    return validate_group(names, table)


def _klein_four() -> FiniteGroup:
    names = ["e", "a", "b", "c"]
    prod = {
        ("e", x): x for x in names
    }
    prod.update({(x, "e"): x for x in names})
    prod.update({(x, x): "e" for x in names})
    prod.update({("a", "b"): "c", ("b", "a"): "c", ("b", "c"): "a", ("c", "b"): "a",
                 ("a", "c"): "b", ("c", "a"): "b"})
    table = [[prod[(x, y)] for y in names] for x in names]
    return validate_group(names, table)


def _dihedral8() -> FiniteGroup:
    # Words s^i r^j with r^4 = s^2 = e and r s = s r^-1.
    names = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]

    def decode(name: str) -> tuple[int, int]:
        i = 1 if name.startswith("s") else 0
        rest = name[1:] if i else name
        if rest in ("", "e"):
            j = 0
        elif rest == "r":
            j = 1
        else:
            j = int(rest[1:])
        return i, j

    def encode(i: int, j: int) -> str:
        j %= 4
        base = "" if j == 0 else ("r" if j == 1 else f"r{j}")
        if i % 2 == 0:
            return base or "e"
        return "s" + base if base else "s"

    def mul(x: str, y: str) -> str:
        i, j = decode(x)
        k, l = decode(y)
        return encode(i + k, (-j if k else j) + l)

    table = [[mul(x, y) for y in names] for x in names]
    return validate_group(names, table)


def _quaternion8() -> FiniteGroup:
    # Standard unit quaternions: i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j.
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    unit_mul = {
        ("1", x): (1, x) for x in "1ijk"
    }
    unit_mul.update({(x, "1"): (1, x) for x in "1ijk"})
    unit_mul.update({
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    })

    def split(name: str) -> tuple[int, str]:
        return (-1, name[1:]) if name.startswith("-") else (1, name)

    def fuse(sign: int, unit: str) -> str:
        return unit if sign > 0 else f"-{unit}"

    def mul(x: str, y: str) -> str:
        sx, ux = split(x)
        sy, uy = split(y)
        sp, up = unit_mul[(ux, uy)]
        return fuse(sx * sy * sp, up)

    table = [[mul(x, y) for y in names] for x in names]
    return validate_group(names, table)


def builtin_group(name: str) -> FiniteGroup:
    """Builtin groups with fixed element names: Q8, D8, V4 and Cn (e.g. C6)."""
    if name == "Q8":
        return _quaternion8()
    if name == "D8":
        return _dihedral8()
    if name == "V4":
        return _klein_four()
    if name.startswith("C") and name[1:].isdigit() and int(name[1:]) >= 1:
        return _cyclic(int(name[1:]))
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


def subgroup_closure(group: FiniteGroup, seed: Iterable[str]) -> frozenset[str]:
    """Smallest subgroup containing ``seed``; closure of the empty set is {e}.

    The first subgroup in the table that holds the seed: the table runs by
    size, so it is the least one.
    """
    seed = _mask(group, seed)
    return _names(group, next(m for m in _subgroup_table(group) if not seed & ~m))


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
    return tuple(_names(group, m) for m in _subgroup_table(group))


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
        # largest first: a subgroup under a larger proper one lies under a
        # maximal one, which is met earlier
        found: list[int] = []
        for s in reversed(table):
            if s != mask and not s & ~mask and not any(not s & ~m for m in found):
                found.append(s)
        covers = table[mask] = tuple(reversed(found))
    return covers


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
    """A validated homomorphism between two finite groups."""

    __slots__ = ("source", "target", "mapping", "injective", "surjective")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping: dict[str, str],
                 injective: bool, surjective: bool):
        self.source = source
        self.target = target
        self.mapping = mapping
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
    """Check totality and f(xy) = f(x)f(y); derive injective/surjective flags."""
    missing = [x for x in source.elements if x not in mapping]
    if missing:
        raise NotAHomomorphismError(f"map is not total; missing {missing}")
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
    return GroupHom(source, target, clean, injective, surjective)


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
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise DocumentError("'table' must be a list of rows")
    try:
        return validate_group(names, table)
    except (NotClosedError, NotAssociativeError, NoIdentityError, NoInverseError) as exc:
        raise DocumentError(str(exc)) from exc


def hom_from_document(doc: dict, source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    """Parse ``{"map": {"x": "y", ...}}`` against validated source and target."""
    if not isinstance(doc, dict) or "map" not in doc or not isinstance(doc["map"], dict):
        raise DocumentError("hom document needs a 'map' object")
    try:
        return validate_hom(source, target, doc["map"])
    except (NotAHomomorphismError, UnknownElementError) as exc:
        raise DocumentError(str(exc)) from exc
