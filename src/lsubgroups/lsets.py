"""Lattice-valued subsets of a finite group.

An LSubset is a total map from group elements into a lattice.  The module
provides the membership algebra (union, intersection, set product, lattice
points), level subsets, the subgroup and normality predicates, the
sup-property tests, generation of the smallest containing L-subgroup, and
transport along group homomorphisms.

Values are held as ``bytes``, one byte per group element holding its
lattice index, which the 256-element bound of ``validate_lattice`` makes
room for.  Bytes are immutable, hash and compare by value, sort in the
lexicographic order of the indices, and are not tracked by the cyclic
garbage collector, so a long listing of L(mu) sets off no collections
through its members' values.

Over a finite distributive lattice every element is the join of the
join-irreducibles below it, and the level at a join is the intersection of
the levels at its parts, so both the subgroup test and generation read the
levels at the join-irreducibles only.  The subgroup test asks
``groups._is_subgroup`` about those level bitmasks, cached per L-subset
and read by the maximal module too.  A per-lattice table holds one
translate row per lattice index, so the level at any index, attained or
not, is one ``bytes.translate`` of the values through its row, read as
one integer (``_level_at``).  The pointwise test is kept
only as the reference the harness holds it to; it, the set product and
the normality tests read the rows of the group's Cayley table by index.
Equality of L-subsets is exact pointwise equality, with no tolerance.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    DocumentError,
    MismatchedCarriersError,
    NonDistributiveLatticeError,
    NotAnLSubgroupError,
    UnknownElementError,
)
from .groups import FiniteGroup, GroupHom, _is_subgroup, subgroup_closure
from .lattice import FiniteLattice


class LSubset:
    """A total map from a finite group into a finite lattice.

    Values are stored as ``bytes``, one lattice index per group element in
    the group's element order, which makes equality, hashing (the hash of
    the bytes, which cache it) and pointwise folds cheap.  Any other
    sequence of indices is converted once; bytes are kept as given, since
    even a no-op ``bytes(b)`` costs a call.  Use :func:`l_subset` (or the
    constructors below) rather than building one by hand.
    """

    __slots__ = ("group", "lattice", "_vals")

    def __init__(self, group: FiniteGroup, lattice: FiniteLattice, vals: bytes | Iterable[int]):
        if vals.__class__ is not bytes:
            vals = bytes(vals)
        self.group = group
        self.lattice = lattice
        self._vals = vals

    # ------------------------------------------------------------ basics

    def value(self, x: str) -> str:
        return self.lattice.elements[self._vals[self.group.index(x)]]

    def values(self) -> dict[str, str]:
        """Value map keyed in group element order."""
        names = self.lattice.elements
        return {x: names[v] for x, v in zip(self.group.elements, self._vals)}

    def value_indices(self) -> bytes:
        """The lattice index of each value, one byte per group element in element order."""
        return self._vals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LSubset):
            return NotImplemented
        # tuples compare item by item with ``is`` before ``==``, so shared
        # carriers skip the structural comparison
        return self._vals == other._vals and (self.group, self.lattice) == (other.group, other.lattice)

    def __hash__(self) -> int:
        return hash(self._vals)

    def __repr__(self) -> str:
        parts = ", ".join(f"{x}->{v}" for x, v in self.values().items())
        return f"LSubset({parts})"

    # ------------------------------------------------------------ derived

    def level(self, a: str) -> frozenset[str]:
        """The level subset at a: all x with value(x) ≥ a."""
        ai = self.lattice.index(a)
        leq = self.lattice._leq
        return frozenset(
            x for x, v in zip(self.group.elements, self._vals) if leq[ai][v]
        )

    def tip(self) -> str:
        """Join of all membership values."""
        lat = self.lattice
        return lat.elements[lat._fold(lat._join, lat.bottom, self._vals)]

    def tail(self) -> str:
        """Meet of all membership values."""
        lat = self.lattice
        return lat.elements[lat._fold(lat._meet, lat.top, self._vals)]

    def image(self) -> frozenset[str]:
        """The set of attained values."""
        names = self.lattice.elements
        return frozenset(names[v] for v in set(self._vals))

    def is_constant(self) -> bool:
        return len(set(self._vals)) == 1

    def as_document(self) -> dict:
        return {"values": self.values()}


class LPoint(NamedTuple):
    """A lattice point a_x: height ``a`` at ``point`` x, bottom elsewhere."""

    point: str
    height: str

    def as_l_subset(self, group: FiniteGroup, lattice: FiniteLattice) -> LSubset:
        return adjoin_point(constant(group, lattice, lattice.bottom), self)


# ------------------------------------------------------------ constructors

def l_subset(
    group: FiniteGroup,
    lattice: FiniteLattice,
    mapping: Mapping[str, str],
    parent: LSubset | None = None,
) -> LSubset:
    """Build an LSubset from a total value map.

    Totality is enforced: every group element must be assigned a lattice
    element, and no unknown keys are allowed.  When ``parent`` is given the
    new subset must sit below it pointwise.
    """
    # in the map's own order: keys of mixed types do not sort
    extra = [x for x in mapping if x not in group]
    if extra:
        raise UnknownElementError(f"value map mentions unknown group elements {extra}")
    missing = [x for x in group.elements if x not in mapping]
    if missing:
        raise UnknownElementError(f"value map is missing group elements {missing}")
    vals = bytes([lattice.index(mapping[x]) for x in group.elements])
    result = LSubset(group, lattice, vals)
    if parent is not None:
        _same_carriers(result, parent)
        if not contains(parent, result):
            raise MismatchedCarriersError("values exceed the parent L-subset somewhere")
    return result


def constant(group: FiniteGroup, lattice: FiniteLattice, value: str) -> LSubset:
    v = lattice.index(value)
    return LSubset(group, lattice, bytes([v]) * len(group))


def characteristic(group: FiniteGroup, lattice: FiniteLattice, members: Iterable[str]) -> LSubset:
    """Top on ``members``, bottom elsewhere (the crisp embedding of a subset)."""
    members = {group.elements[group.index(x)] for x in members}
    top = lattice.index(lattice.top)
    bottom = lattice.index(lattice.bottom)
    return LSubset(
        group, lattice, bytes([top if x in members else bottom for x in group.elements])
    )


def l_subset_from_document(doc: dict, group: FiniteGroup, lattice: FiniteLattice) -> LSubset:
    """Parse ``{"values": {"x": "a", ...}}`` against a group and lattice."""
    if not isinstance(doc, dict) or "values" not in doc or not isinstance(doc["values"], dict):
        raise DocumentError("L-subset document needs a 'values' object")
    if not all(isinstance(a, str) for a in doc["values"].values()):
        raise DocumentError("each value in 'values' must be a lattice element name")
    try:
        return l_subset(group, lattice, doc["values"])
    except UnknownElementError as exc:
        raise DocumentError(str(exc)) from exc


# ------------------------------------------------------------ set algebra

def _same_carriers(*subsets: LSubset) -> None:
    # by ``is`` first, then structurally, as in ``LSubset.__eq__``
    carriers = subsets[0].group, subsets[0].lattice
    for other in subsets[1:]:
        if (other.group, other.lattice) != carriers:
            raise MismatchedCarriersError("operands live over different carriers")


def contains(outer: LSubset, inner: LSubset) -> bool:
    """True when inner ⊆ outer, i.e. inner(x) ≤ outer(x) for all x."""
    _same_carriers(outer, inner)
    leq = outer.lattice._leq
    return all(leq[i][o] for i, o in zip(inner._vals, outer._vals))


def _pointwise(family: Iterable[LSubset], meet: bool) -> LSubset:
    # the pointwise meet, or join, of a non-empty family over shared carriers
    family = list(family)
    if not family:
        name = "intersection" if meet else "union"
        raise MismatchedCarriersError(f"{name} of an empty family is undefined")
    _same_carriers(*family)
    lat, vals = family[0].lattice, family[0]._vals
    table = lat._meet if meet else lat._join
    for member in family[1:]:
        vals = [table[a][b] for a, b in zip(vals, member._vals)]
    return LSubset(family[0].group, lat, vals)


def union_of(family: Iterable[LSubset]) -> LSubset:
    """Pointwise join of a non-empty family over shared carriers."""
    return _pointwise(family, meet=False)


def intersection_of(family: Iterable[LSubset]) -> LSubset:
    """Pointwise meet of a non-empty family over shared carriers."""
    return _pointwise(family, meet=True)


def set_product(mu: LSubset, eta: LSubset) -> LSubset:
    """(mu ∘ eta)(x) = join over all factorisations x = yz of mu(y) ∧ eta(z)."""
    _same_carriers(mu, eta)
    group, lat, ev = mu.group, mu.lattice, eta._vals
    join, meet, bottom = lat._join, lat._meet, lat.index(lat.bottom)
    # z = y⁻¹x runs along row y⁻¹ of the table; a bottom mu(y) adds nothing
    vals = [bottom] * len(group)
    for a, row in zip(mu._vals, map(group._table.__getitem__, group._inv)):
        if a != bottom:
            vals = [join[v][meet[a][ev[z]]] for v, z in zip(vals, row)]
    return LSubset(group, lat, bytes(vals))


def adjoin_point(eta: LSubset, point: LPoint) -> LSubset:
    """eta ∪ a_x: join the height in at the point, leave everything else."""
    xi = eta.group.index(point.point)
    ai = eta.lattice.index(point.height)
    vals = bytearray(eta._vals)
    vals[xi] = eta.lattice._join[vals[xi]][ai]
    return LSubset(eta.group, eta.lattice, bytes(vals))


def point_in(point: LPoint, mu: LSubset) -> bool:
    """a_x ∈ mu means mu(x) ≥ a."""
    return mu.lattice.leq(point.height, mu.value(point.point))


# ----------------------------------------------------- subgroup predicates

def _pointwise_is_l_subgroup(mu: LSubset) -> bool:
    # the reference for is_l_subgroup, read only by the harness
    table, inv = mu.group._table, mu.group._inv
    vals, leq, meet = mu._vals, mu.lattice._leq, mu.lattice._meet
    for i, a in enumerate(vals):
        if vals[inv[i]] != a:
            return False
        meet_a = meet[a]
        for b, k in zip(vals, table[i]):
            if not leq[meet_a[b]][vals[k]]:
                return False
    return True


@lru_cache(maxsize=64)
def _level_rows(lat: FiniteLattice) -> tuple[bytes, ...]:
    # per lattice index a, a bytes.translate table taking each lattice index
    # b to the digit "1" when a ≤ b and "0" otherwise: a's up-set row in
    # binary, lowest bit first, padded to 256.  |L| rows of 256 bytes
    n = len(lat)
    return tuple(format(up, f"0{n}b")[::-1].encode().ljust(256, b"0") for up in lat._up)


@lru_cache(maxsize=64)
def _level_masks(mu: LSubset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the lattice's join-irreducibles, in order, and mu's level at each: the
    # values reversed, so element 0 is the last digit, translated through the
    # irreducible's row to one binary digit per element and read as one integer
    lat = mu.lattice
    if not lat.distributive:
        raise NonDistributiveLatticeError("L-subgroup tests require a distributive lattice")
    vals, rows = mu.value_indices()[::-1], _level_rows(lat)
    return lat._irreducibles, tuple([int(vals.translate(rows[j]), 2) for j in lat._irreducibles])


def _level_at(mu: LSubset, a: int) -> int:
    # mu's level at lattice index a as a bitmask: one translate of the
    # reversed values through a's row, read as one integer
    return int(mu.value_indices()[::-1].translate(_level_rows(mu.lattice)[a]), 2)


def is_l_subgroup(mu: LSubset) -> bool:
    """Is mu an L-subgroup of its group?

    True when every non-empty level subset is a subgroup.  Each level is
    the intersection of the levels at the join-irreducibles below it, so
    only those are read, as bitmasks: each must be empty or a subgroup.
    The harness compares it with the pointwise test.  Refuses
    non-distributive lattices, which the theory does not cover.
    """
    return all(not level or _is_subgroup(mu.group, level) for level in _level_masks(mu)[1])


def is_l_subgroup_of(eta: LSubset, mu: LSubset) -> bool:
    """eta ∈ L(mu): eta ⊆ mu with both L-subgroups of the group.

    One pass over the cached levels of both at the join-irreducibles: each
    is empty or a subgroup, and eta's lies in mu's, which gives eta ⊆ mu as
    every element is the join of the irreducibles below it.  Over a
    non-distributive lattice: False when eta is not below mu, else
    NonDistributiveLatticeError.  The tests hold it to the level oracle.
    """
    _same_carriers(eta, mu)
    if not mu.lattice.distributive and not contains(mu, eta):
        return False
    group = mu.group
    for e, m in zip(_level_masks(eta)[1], _level_masks(mu)[1]):
        if e & ~m or e and not _is_subgroup(group, e) or m and not _is_subgroup(group, m):
            return False
    return True


def is_proper_l_subgroup(eta: LSubset, mu: LSubset) -> bool:
    """Proper: in L(mu), non-constant, and different from mu."""
    return is_l_subgroup_of(eta, mu) and not eta.is_constant() and eta != mu


def is_normal_in_group(mu: LSubset) -> bool:
    """Is mu a normal L-subgroup of the whole group?

    Answered on the Cayley table: mu(xy) = mu(yx) for all x, y, each
    unordered pair read once, from row x and row y.  The level route (every
    non-empty level subset is a normal subgroup of the group) is the tests'
    reference.
    """
    if not is_l_subgroup(mu):
        raise NotAnLSubgroupError("normality is defined for L-subgroups")
    vals, table, n = mu._vals, mu.group._table, len(mu.group)
    return all(
        vals[row[j]] == vals[table[j][i]] for i, row in enumerate(table) for j in range(i + 1, n)
    )


def is_normal_in(eta: LSubset, mu: LSubset) -> bool:
    """Is eta a normal L-subgroup of mu?

    Answered on the Cayley table: eta(yxy⁻¹) ≥ eta(x) ∧ mu(y) for all x,
    y, with yx read along row y and (yx)y⁻¹ along row yx.  The level route
    (every non-empty level of eta is normal in the matching level of mu) is
    the tests' reference.
    """
    if not is_l_subgroup_of(eta, mu):
        raise NotAnLSubgroupError("normality in mu is defined for members of L(mu)")
    table, inv = eta.group._table, eta.group._inv
    leq, meet, ev = eta.lattice._leq, eta.lattice._meet, eta._vals
    return all(
        leq[meet[m][e]][ev[table[z][inv[yi]]]]
        for yi, m in enumerate(mu._vals)
        for e, z in zip(ev, table[yi])
    )


# --------------------------------------------------------- sup properties

def has_sup_property(mu: LSubset) -> bool:
    """True when every subset of the domain attains the join of its values.

    Finitely this says the image is a supstar subset of the lattice, i.e.
    its members are pairwise comparable.
    """
    return mu.lattice.is_supstar_subset(mu.image())


def are_jointly_supstar(eta: LSubset, theta: LSubset) -> bool:
    """True when the union of the two images is a supstar subset."""
    _same_carriers(eta, theta)
    return eta.lattice.is_supstar_subset(eta.image() | theta.image())


# --------------------------------------------------------------- generation

def generate(eta: LSubset) -> LSubset:
    """The smallest L-subgroup containing eta.

    With a0 the tip of eta, the result maps x to the join of the lattice
    elements a ≤ a0 whose level subset generates a subgroup containing x;
    the empty level set generates the trivial subgroup.  The join is taken
    over the join-irreducibles below a0 only: any other a is the join of
    the irreducibles below it, whose levels contain eta's level at a and so
    generate at least as much, which puts a under their join already.
    """
    lat, group = eta.lattice, eta.group
    if not lat.distributive:
        raise NonDistributiveLatticeError("generation requires a distributive lattice")
    leq, join, tip = lat._leq, lat._join, lat._fold(lat._join, lat.bottom, eta._vals)
    vals = bytearray([lat.index(lat.bottom)]) * len(group)
    for a in lat._irreducibles:
        if leq[a][tip]:
            level = (x for x, v in zip(group.elements, eta._vals) if leq[a][v])
            for x in subgroup_closure(group, level):
                i = group.index(x)
                vals[i] = join[vals[i]][a]
    return LSubset(group, lat, bytes(vals))


# the most members of L(c) the oracle lists before it refuses
_ORACLE_BUDGET = 10_000


def generate_oracle(eta: LSubset) -> LSubset:
    """Independent route to the generated L-subgroup, by the definition.

    The meet of every L-subgroup that contains eta.  Each such nu meets the
    constant c at eta's tip in an L-subgroup that still contains eta, so it
    is enough to meet the members of L(c) that contain eta.
    ``maximal._meet_above`` walks L(c) as ``enumerate_l_subgroups`` does
    and meets the members in their packed form, without building them.
    Raises NonDistributiveLatticeError over a non-distributive lattice, as
    ``generate`` does, and the enumeration's InstanceTooLargeError when
    L(c) has more than 10,000 members.
    """
    from .maximal import _meet_above  # maximal imports this module

    return _meet_above(constant(eta.group, eta.lattice, eta.tip()), eta, _ORACLE_BUDGET)


# ---------------------------------------------------------------- transport

def pushforward(f: GroupHom, mu: LSubset) -> LSubset:
    """f(mu)(y) = join of mu over the fibre of y; bottom on empty fibres."""
    if mu.group is not f.source and mu.group != f.source:
        raise MismatchedCarriersError("pushforward needs an L-subset over the source group")
    lat, target = mu.lattice, f.target
    join = lat._join
    vals = bytearray([lat.index(lat.bottom)]) * len(target)
    for y, v in zip(f.image_indices, mu._vals):
        vals[y] = join[vals[y]][v]
    return LSubset(target, lat, bytes(vals))


def pullback(f: GroupHom, nu: LSubset) -> LSubset:
    """f⁻¹(nu)(x) = nu(f(x))."""
    if nu.group is not f.target and nu.group != f.target:
        raise MismatchedCarriersError("pullback needs an L-subset over the target group")
    vals = nu._vals
    return LSubset(f.source, nu.lattice, bytes([vals[y] for y in f.image_indices]))
