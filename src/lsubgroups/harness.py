"""Randomized instances and the executable-theorem suite.

Instances are generated from a seed: a lattice (chain, product of chains,
or divisor lattice), a builtin group, a parent L-subgroup mu built from a
random subgroup chain with an antitone value assignment (meets of such maps
keep it an L-subgroup by construction), and a member eta of L(mu).  Every
theorem of the theory is expressed as a property over such instances: a
module-level ``prop_<name>`` function, reported under ``<name>`` in
definition order.  Known non-theorems are counterexample searches.  Same
seed, same report.
"""
from __future__ import annotations

import random
import re
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable

from .errors import HypothesisNotMetError, InstanceTooLargeError, SearchExhaustedError, UnknownBuiltinError
from .frattini import frattini, frattini_level_compare, is_non_generator, maximal_avoiding
from .groups import (
    FiniteGroup,
    GroupHom,
    _subgroups_within,
    builtin_group,
    frattini_classical,
    identity_hom,
    inner_automorphism,
    maximal_subgroups_of,
    subgroup_closure,
)
from .lattice import FiniteLattice, _refuse_past_the_bound, chain_lattice, validate_lattice
from .lsets import (
    LPoint,
    LSubset,
    _pointwise_is_l_subgroup,
    adjoin_point,
    are_jointly_supstar,
    characteristic,
    constant,
    contains,
    generate,
    generate_oracle,
    has_sup_property,
    intersection_of,
    is_l_subgroup,
    is_l_subgroup_of,
    is_normal_in,
    is_normal_in_group,
    is_proper_l_subgroup,
    l_subset,
    point_in,
    pullback,
    pushforward,
    set_product,
    union_of,
)
from .maximal import (
    LevelRelation,
    _lpoint_verdict,
    _point_fails,
    _sufficient_pattern,
    candidate_space_size,
    enumerate_l_subgroups,
    is_maximal,
    level_profile,
    maximal_l_subgroups,
    tip_relation,
    TipRelation,
)

_CHAIN_MIDS = "abcdefghijklmn"
_CHAIN_RANGE = re.compile(r"chain([1-9][0-9]*)-([1-9][0-9]*)")


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for a random instance.

    ``lattice_kind`` accepts ``chain<n>``, ``chain<a>-<b>`` (length drawn from
    the range), ``product<m>x<n>``, ``divisors<n>``, or several of these joined
    with ``|`` to be drawn from.  ``group_kind`` is a builtin group name, or
    names joined with ``|``.  ``subgroup_density`` in [0, 1] controls how many
    links the generating subgroup chains keep; at zero both members of the pair
    degenerate to constants.  Every alternative of either kind, and the density,
    is checked when the spec is made, whatever the seed: an unknown group name
    raises UnknownBuiltinError, a lattice of over 256 elements (``product20x20``)
    InstanceTooLargeError, and any other bad kind or density ValueError.
    """

    seed: int
    lattice_kind: str = "chain2-6"
    group_kind: str = "Q8|D8|C6|V4"
    subgroup_density: float = 0.6

    def __post_init__(self) -> None:
        # NaN fails both comparisons
        if not 0 <= self.subgroup_density <= 1:
            raise ValueError(f"subgroup_density {self.subgroup_density!r} is outside [0, 1]")
        for kind in self.lattice_kind.split("|"):
            bounds = _CHAIN_RANGE.fullmatch(kind)
            # decimals without leading zeros compare as (length, digits), with no int()
            if bounds and (len(bounds[1]), bounds[1]) > (len(bounds[2]), bounds[2]):
                raise ValueError(f"unknown lattice kind {kind!r}: the range is empty")
            make_lattice(f"chain{bounds[2]}" if bounds else kind)
        for name in self.group_kind.split("|"):
            builtin_group(name)


def _divisors(n: int) -> list[int]:
    """The divisors of n in ascending order, from its prime factorisation."""
    divs, p = [1], 2
    while p * p <= n:
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divs = [d * q for d in divs for q in powers]
        p += 1
    if n > 1:  # what is left is one prime
        divs += [d * n for d in divs]
    return sorted(divs)


_DIVISORS_MAX = 10**9


@lru_cache(maxsize=64)
def make_lattice(kind: str) -> FiniteLattice:
    """Build the named lattice kind; see InstanceSpec for the grammar.

    A kind is validated once, and shared while among the 64 kinds used last
    (kinds are unbounded); one pushed out is rebuilt, equal but a new object.
    Chains have 1 to 16 elements, and ``divisors<n>`` takes n up to 10^9: n
    is factorised by trial division up to √n, before the size bound refuses it.
    """
    # each size is a positive decimal with no leading zero
    match = re.fullmatch(r"(chain|divisors)([1-9][0-9]*)|product([1-9][0-9]*)x([1-9][0-9]*)", kind)
    if match is None:
        raise ValueError(f"unknown lattice kind {kind!r}")
    shape, size, m, n = match.groups()
    # digits are counted before int(), which refuses very long decimals with its own error
    if shape == "chain":
        if len(size) > 2 or int(size) > len(_CHAIN_MIDS) + 2:
            raise ValueError(f"unknown lattice kind {kind!r}: a chain has 1 to 16 elements")
        return chain_lattice(["0"] if size == "1" else ["0", *_CHAIN_MIDS[: int(size) - 2], "1"])
    if shape == "divisors":
        if len(size) > 10 or int(size) > _DIVISORS_MAX:
            raise ValueError(f"unknown lattice kind {kind!r}: divisors<n> takes n up to 10^9")
        divs = _divisors(int(size))
        pairs = [(str(d), str(e)) for d in divs for e in divs if d != e and e % d == 0]
        return validate_lattice([str(d) for d in divs], pairs)
    if max(len(m), len(n)) > 10:  # m·n has at least len(m) + len(n) - 1 digits
        power = len(m) + len(n) - 2
        _refuse_past_the_bound(10**power, f"at least 10^{power}")
    m, n = int(m), int(n)
    _refuse_past_the_bound(m * n)  # before the m·n names and the order pairs are built
    names = [f"({i},{j})" for i in range(m) for j in range(n)]
    pairs = [(f"({i},{j})", f"({i + 1},{j})") for i in range(m - 1) for j in range(n)]
    pairs += [(f"({i},{j})", f"({i},{j + 1})") for i in range(m) for j in range(n - 1)]
    return validate_lattice(names, pairs)


def _resolve(rng: random.Random, kinds: str) -> str:
    kind = rng.choice(kinds.split("|"))
    bounds = _CHAIN_RANGE.fullmatch(kind)
    return f"chain{rng.randint(int(bounds[1]), int(bounds[2]))}" if bounds else kind


def _chain_valued_l_subgroup(
    rng: random.Random, group: FiniteGroup, lat: FiniteLattice, density: float
) -> LSubset:
    # climb a random chain of subgroup masks up to the whole group, thin it by
    # the density knob, then label antitonely with a descending value sequence
    full = (1 << len(group)) - 1
    subs = _subgroups_within(group, full)
    chain = [1 << group.identity_index]
    while chain[-1] != full:
        low = chain[-1]
        ups = [s for s in subs if s != low and not low & ~s]
        chain.append(rng.choice(ups))
    kept = [h for h in chain[:-1] if rng.random() < density] + [full]

    values = []
    current = lat.top if rng.random() < 0.7 else rng.choice(lat.elements)
    for _ in kept:
        values.append(lat.index(current))
        if rng.random() < 0.85:
            # mostly step down a single cover so the labels spread out;
            # occasionally drop further to keep coarse instances in the mix
            below = [a for a in lat.elements if lat.is_cover(current, a)]
            if rng.random() < 0.2:
                below = [a for a in lat.down_set(current) if a != current]
            if below:
                current = rng.choice(below)

    return LSubset(group, lat, bytes([
        values[next(k for k, h in enumerate(kept) if h >> x & 1)] for x in range(len(group))
    ]))


def random_l_subset_below(rng: random.Random, mu: LSubset) -> LSubset:
    """Uniform raw L-subset under mu: independent draws from each down-set."""
    rows = mu.lattice._leq
    return LSubset(mu.group, mu.lattice, bytes([
        rng.choice([a for a, row in enumerate(rows) if row[v]]) for v in mu.value_indices()
    ]))


def random_l_subgroup(
    spec: InstanceSpec, trial: int = 0
) -> tuple[LSubset, LSubset]:
    """The (mu, eta) pair of the instance derived from spec and trial."""
    inst = build_instance(spec, trial)
    return inst.mu, inst.eta


_SPACE_CAP = 60_000


class Instance:
    """One concrete instance: the (mu, eta) pair and its seeded samples.

    The samples are drawn from ``rng``: three raw L-subsets under mu, then
    three points of mu.  The hom pool is the identity, an inner
    automorphism, the map onto C1 and, for a builtin with one, the named
    quotient; the inner automorphism and the isomorphism iso draw from
    their own streams, seeded by the spec seed and the trial, and the
    other three depend on the group alone and are shared by its instances.
    An instance keeps what several properties ask of it: L(mu), listed
    once, on first use of ``members``, and the answers of ``once``, by
    which the properties read ``generate``, mu's normality and the Frattini
    reports.  The maximals are not kept: each call reads the coatom cache.
    ``generate`` keeps no cache of its own: the benchmark's tracer reads
    each call down to the closures it makes, which a cached answer would not show.
    """

    def __init__(self, spec: InstanceSpec, trial: int, lattice_kind: str, group_name: str,
                 mu: LSubset, eta: LSubset, rng: random.Random):
        self.spec, self.trial = spec, trial
        self.lattice_kind, self.group_name = lattice_kind, group_name
        lat, g = mu.lattice, mu.group
        self.lattice, self.group = lat, g
        self.mu, self.eta = mu, eta
        self.raws = [random_l_subset_below(rng, mu) for _ in range(3)]
        self.points = []
        for _ in range(3):
            x = rng.choice(g.elements)
            self.points.append(LPoint(x, rng.choice(lat.down_set(mu.value(x)))))
        rng = random.Random(f"{spec.seed}:{trial}:homs")
        identity, *onto = _fixed_homs(group_name, g)
        self.homs = [identity, inner_automorphism(g, rng.choice(g.elements)), *onto]
        rng = random.Random(f"{spec.seed}:{trial}:isos")
        self.iso = inner_automorphism(g, rng.choice(g.elements))
        self._answers: dict[tuple, object] = {}

    @classmethod
    def pinned(cls, mu: LSubset, eta: LSubset, group_name: str, label: str = "pinned",
               seed: int = 0) -> "Instance":
        """Wrap a concrete (mu, eta) pair so the property suite can run on it.

        The samples still derive from the seed, so a pinned instance is as
        reproducible as a generated one.
        """
        return cls(InstanceSpec(seed=seed), -1, label, group_name, mu, eta,
                   random.Random(f"pinned:{label}:{seed}"))

    @cached_property
    def members(self) -> tuple[LSubset, ...]:
        """L(mu) in canonical order, listed on first use."""
        return enumerate_l_subgroups(self.mu)

    def once(self, fn: Callable, *args):
        """``fn(*args)``, computed on the first call for this instance and
        kept for the next.  The key is the function object and the
        value-equal arguments, so a function rebound between calls is asked
        afresh; a call that raises keeps nothing."""
        key = (fn, *args)
        answers = self._answers
        if key not in answers:
            answers[key] = fn(*args)
        return answers[key]

    def describe(self) -> dict:
        return {
            "seed": self.spec.seed,
            "trial": self.trial,
            "lattice": self.lattice_kind,
            "group": self.group_name,
            "mu": self.mu.values(),
            "eta": self.eta.values(),
        }


@lru_cache(maxsize=64)
def _fixed_homs(group_name: str, g: FiniteGroup) -> tuple[GroupHom, ...]:
    # the homs of the pool that depend on the group alone: the identity, the
    # map onto C1 and the named quotient, if any; kept like ``make_lattice``
    homs = (identity_hom(g), GroupHom(g, builtin_group("C1"), [0] * len(g)))
    named = _named_quotient(group_name, g)
    return homs if named is None else (*homs, named)


def _named_quotient(name: str, g: FiniteGroup) -> GroupHom | None:
    # onto a smaller builtin, by the element indices ``builtin_group``
    # documents; None unless g is the builtin of that name
    try:
        if builtin_group(name) != g:
            return None
    except UnknownBuiltinError:
        return None
    if name == "D8":
        target, image = "C2", lambda i: i >> 2  # s^i r^j -> g^i
    elif name == "Q8":
        target, image = "V4", lambda i: i >> 1  # ±u -> u
    elif name == "V4":
        target, image = "C2", lambda i: i & 1
    else:  # Cn onto C(n/p), for the first p of 2, 3 that divides n and is less than it
        n = int(name[1:])
        m = next((n // p for p in (2, 3) if n % p == 0 and n > p), None)
        if m is None:
            return None
        target, image = f"C{m}", lambda i: i % m
    return GroupHom(g, builtin_group(target), map(image, range(len(g))))


def build_instance(
    spec: InstanceSpec,
    trial: int = 0,
    override_lattice: str | None = None,
    override_group: str | None = None,
) -> Instance:
    rng = random.Random(f"{spec.seed}:{trial}:kinds")
    lattice_kind = override_lattice or _resolve(rng, spec.lattice_kind)
    group_name = override_group or _resolve(rng, spec.group_kind)
    lat, group = make_lattice(lattice_kind), builtin_group(group_name)
    rng = random.Random(f"{spec.seed}:{trial}:{lattice_kind}:{group_name}")

    def draw() -> LSubset:
        return _chain_valued_l_subgroup(rng, group, lat, spec.subgroup_density)

    mu = draw()
    if rng.random() < 0.5:
        mu = intersection_of([mu, draw()])
    retries = 0
    while candidate_space_size(mu) > _SPACE_CAP and retries < 12:
        mu = intersection_of([mu, draw()])
        retries += 1
    eta = intersection_of([mu, draw()])
    return Instance(spec, trial, lattice_kind, group_name, mu, eta, rng)


# ---------------------------------------------------------------- properties

class PropertyFailure(Exception):
    def __init__(self, detail: dict):
        super().__init__(str(detail))
        self.detail = detail


SKIPPED = "skipped"


def _fail(**detail) -> None:
    raise PropertyFailure(detail)


def prop_generator_soundness(inst: Instance):
    # membership needs mu's level at each join-irreducible empty or a subgroup;
    # every level is an intersection of those, so mu is an L-subgroup as well
    if not is_l_subgroup_of(inst.eta, inst.mu):
        _fail(reason="generated pair fails the L(mu) membership test")


def prop_level_sets_of_intersections(inst: Instance):
    family = [inst.mu, inst.eta, *inst.raws[:2]]
    meet_all = intersection_of(family)
    for a in inst.lattice.elements:
        expected = frozenset(inst.group.elements)
        for member in family:
            expected &= member.level(a)
        if meet_all.level(a) != expected:
            _fail(level=a, reason="level of intersection differs from intersection of levels")


def prop_containment_is_levelwise(inst: Instance):
    for a in inst.lattice.elements:
        if not inst.eta.level(a) <= inst.mu.level(a):
            _fail(level=a, reason="eta level escapes mu level")


def prop_subgroup_tests_agree(inst: Instance):
    for probe in [inst.mu, inst.eta, *inst.raws]:
        if is_l_subgroup(probe) != _pointwise_is_l_subgroup(probe):
            _fail(probe=probe.values(), reason="pointwise and levelwise verdicts differ")


def prop_generation_closure_laws(inst: Instance):
    raw = inst.raws[0]
    gen = inst.once(generate, raw)
    if not is_l_subgroup(gen):
        _fail(reason="generation does not give an L-subgroup")
    if not contains(gen, raw):
        _fail(reason="generation is not extensive")
    if inst.once(generate, gen) != gen:
        _fail(reason="generation is not idempotent")
    bigger = union_of([raw, inst.raws[1]])
    if not contains(inst.once(generate, bigger), gen):
        _fail(reason="generation is not monotone")
    if gen.tip() != raw.tip() or gen.value(inst.group.identity) != raw.tip():
        _fail(reason="generation must preserve the tip and attain it at the identity")


def prop_generation_matches_exhaustive_meet(inst: Instance):
    raw = inst.raws[0]
    try:
        oracle = generate_oracle(raw)
    except InstanceTooLargeError:  # beyond the oracle's own bound
        return SKIPPED
    if inst.once(generate, raw) != oracle:
        _fail(raw=raw.values(), reason="formula and exhaustive meet disagree")


def prop_sup_property_levelwise_generation(inst: Instance):
    raw = inst.raws[0]
    if not has_sup_property(raw):
        return SKIPPED
    gen = inst.once(generate, raw)
    for b in inst.lattice.down_set(raw.tip()):
        if subgroup_closure(inst.group, raw.level(b)) != gen.level(b):
            _fail(level=b, reason="level of generated subgroup differs from generated level")


def prop_generation_commutes_with_image(inst: Instance):
    raw = inst.raws[0]
    gen = inst.once(generate, raw)
    for f in inst.homs:
        image = pushforward(f, gen)
        if not is_l_subgroup(image):
            _fail(hom=f.as_document(), reason="image of an L-subgroup is not an L-subgroup")
        if inst.once(generate, pushforward(f, raw)) != image:
            _fail(hom=f.as_document(), reason="generation does not commute with the image")


def prop_generation_commutes_with_preimage(inst: Instance):
    raw = inst.raws[0]
    for f in inst.homs:
        theta = pushforward(f, raw)
        preimage = pullback(f, inst.once(generate, theta))
        if not is_l_subgroup(preimage):
            _fail(hom=f.as_document(), reason="preimage of an L-subgroup is not an L-subgroup")
        if inst.once(generate, pullback(f, theta)) != preimage:
            _fail(hom=f.as_document(), reason="generation does not commute with the preimage")


def prop_image_preimage_laws(inst: Instance):
    raw1, raw2 = inst.raws[0], inst.raws[1]
    for f in inst.homs:
        image1, image2 = pushforward(f, raw1), pushforward(f, raw2)
        if pushforward(f, union_of([raw1, raw2])) != union_of([image1, image2]):
            _fail(law="image of union", hom=f.as_document())
        if not contains(intersection_of([image1, image2]), pushforward(f, intersection_of([raw1, raw2]))):
            _fail(law="image of intersection", hom=f.as_document())
        back = pullback(f, image1)
        if not contains(back, raw1):
            _fail(law="preimage of image grows", hom=f.as_document())
        if f.injective and back != raw1:
            _fail(law="preimage of image equals for injective", hom=f.as_document())
        nu = union_of([image2, constant(f.target, inst.lattice, inst.points[0].height)])
        nu_back = pullback(f, nu)
        forth = pushforward(f, nu_back)
        if not contains(nu, forth):
            _fail(law="image of preimage shrinks", hom=f.as_document())
        if f.surjective and forth != nu:
            _fail(law="image of preimage equals for surjective", hom=f.as_document())
        if contains(nu, image1) != contains(nu_back, raw1):
            _fail(law="adjunction", hom=f.as_document())
        if f.injective and contains(raw1, nu_back) != contains(image1, nu):
            _fail(law="injective adjunction", hom=f.as_document())


def prop_set_product_associative(inst: Instance):
    r1, r2, r3 = inst.raws
    if set_product(set_product(r1, r2), r3) != set_product(r1, set_product(r2, r3)):
        _fail(reason="set product is not associative")


def prop_set_product_of_points(inst: Instance):
    lat, group = inst.lattice, inst.group
    p, q = inst.points[0], inst.points[1]
    lhs = set_product(p.as_l_subset(group, lat), q.as_l_subset(group, lat))
    rhs = LPoint(group.op(p.point, q.point), lat.meet(p.height, q.height)).as_l_subset(group, lat)
    if lhs != rhs:
        _fail(points=(p, q), reason="product of points is not the point of the product")


def prop_normality_matches_top_parent(inst: Instance):
    top = constant(inst.group, inst.lattice, inst.lattice.top)
    if inst.once(is_normal_in_group, inst.mu) != is_normal_in(inst.mu, top):
        _fail(reason="normality in the group differs from normality below the constant top")


def _pool(inst: Instance, label: str, *extra: LSubset) -> tuple[LSubset, ...]:
    """L(mu) up to 120 members; past that, 60 of them drawn by the label's
    stream, then the maximals, then extra."""
    if len(inst.members) <= 120:
        return inst.members
    rng = random.Random(f"{inst.spec.seed}:{inst.trial}:{label}")
    return (*rng.sample(inst.members, 60), *maximal_l_subgroups(inst.mu), *extra)


def prop_maximality_strategies_agree(inst: Instance):
    mu, group, lat = inst.mu, inst.group, inst.lattice
    for nu in _pool(inst, "agree", inst.eta):
        verdict = is_maximal(nu, mu)
        if verdict.reason == "not_proper":
            continue
        if verdict.maximal:
            agree = _lpoint_verdict(nu, mu).maximal
        elif (p := verdict.witness_point) is None:
            agree = False
        else:  # the named point must be a point of mu outside nu that fails to generate mu
            x, a = group.index(p.point), lat.index(p.height)
            inside = lat._leq[a][mu.value_indices()[x]] and not lat._leq[a][nu.value_indices()[x]]
            agree = inside and _point_fails(nu, mu, x, a)
        if not agree:
            _fail(candidate=nu.values(), reason="strategies disagree")


def prop_maximal_level_profiles(inst: Instance):
    for m in maximal_l_subgroups(inst.mu):
        profile = level_profile(m, inst.mu)
        if not are_jointly_supstar(m, inst.mu):
            continue
        if profile.unique_defect_level is None:
            _fail(maximal=m.values(), reason="no unique defect level")
        if m.value(inst.group.identity) == inst.mu.value(inst.group.identity):
            rels = dict(profile.witness_levels)
            if rels[profile.unique_defect_level] is not LevelRelation.PROPER_MAXIMAL_SUBGROUP:
                _fail(maximal=m.values(), reason="equal-tip defect level not classically maximal")


def prop_sufficient_condition_sound(inst: Instance):
    # the pool lies in L(mu), mu being an L-subgroup, so only the pattern is left to test
    for nu in _pool(inst, "suff"):
        if _sufficient_pattern(nu, inst.mu):
            if not is_maximal(nu, inst.mu).maximal:
                _fail(candidate=nu.values(), reason="pattern held but candidate is not maximal")


def prop_maximal_tips(inst: Instance):
    for m in maximal_l_subgroups(inst.mu):
        if tip_relation(m, inst.mu) is TipRelation.VIOLATION:
            _fail(maximal=m.values(), reason="tip relation violated")


def prop_transport_preserves_maximality(inst: Instance):
    # an isomorphism f maps L(mu) onto L(f(mu)) and keeps containment, so coatoms go to coatoms
    maximals = maximal_l_subgroups(inst.mu)
    if not maximals:
        return SKIPPED
    f, eta = inst.iso, maximals[0]
    if not f.bijective or not is_maximal(eta, inst.mu).maximal:
        _fail(reason="transport needs an isomorphism and a maximal L-subgroup")
    if not is_maximal(pushforward(f, eta), pushforward(f, inst.mu)).maximal:
        _fail(reason="transported subgroup lost maximality")


def prop_nongenerators_form_l_subgroup(inst: Instance):
    if not is_l_subgroup_of(inst.once(frattini, inst.mu).nongen, inst.mu):
        _fail(reason="non-generator subgroup is not in L(mu)")


def prop_nongenerators_inside_frattini(inst: Instance):
    mu, report = inst.mu, inst.once(frattini, inst.mu)
    if not contains(report.phi, report.nongen):
        _fail(reason="non-generator subgroup escapes phi")
    # equality off constant-obstructed instances, on every lattice: there
    # both sides are meets of the same coatoms, so this is a cheap sanity
    # check of the report (frattini_below_each_maximal checks phi)
    if not report.constant_obstructed and not report.equality_holds:
        _fail(reason="unobstructed, but the two constructions differ")
    # each point's verdict agrees with the report; the first "no" is checked by generation
    witnessed = False
    for p in inst.points:
        nongen, eta = is_non_generator(p, mu)
        if nongen != point_in(p, report.nongen):
            _fail(point=p, reason="verdict disagrees with the non-generator subgroup")
        if not nongen and not witnessed:
            witnessed = True
            if eta == mu or inst.once(generate, adjoin_point(eta, p)) != mu:
                _fail(point=p, reason="the witness is mu, or does not generate mu with the point")


def prop_frattini_below_each_maximal(inst: Instance):
    # the pointwise meet, a route the report's AND of Birkhoff codes does not share
    if inst.once(frattini, inst.mu).phi != intersection_of(maximal_l_subgroups(inst.mu) or [inst.mu]):
        _fail(reason="phi is not the meet of the maximal subgroups")


def prop_fallback_iff_no_maximals(inst: Instance):
    # a cheap sanity check of the report: frattini_below_each_maximal checks phi itself
    if inst.once(frattini, inst.mu).used_fallback != (len(maximal_l_subgroups(inst.mu)) == 0):
        _fail(reason="fallback flag disagrees with the maximal count")


def prop_frattini_level_inclusion(inst: Instance):
    # the suite's one chain skip reads the library's refusal: F20 and S4 break the inclusion off chains
    for b in sorted(inst.mu.image()):
        try:
            row = frattini_level_compare(inst.mu, b)
        except HypothesisNotMetError:
            return SKIPPED
        if not row["tip_condition_holds"]:  # the same on every row
            return SKIPPED
        if not row["forward_inclusion"]:
            _fail(level=b, reason="classical Frattini of the level escapes the level of phi")


def prop_frattini_normal_in_parent(inst: Instance):
    # conjugation by y fixes a normal mu, so it permutes the non-constant
    # coatoms of L(mu) and fixes phi, their meet: phi(yxy⁻¹) = phi(x) ≥ phi(x) ∧ mu(y)
    if not inst.once(is_normal_in_group, inst.mu):
        return SKIPPED
    if not is_normal_in(inst.once(frattini, inst.mu).phi, inst.mu):
        _fail(reason="phi is not normal in mu")


def prop_nongenerator_conjugation_closure(inst: Instance):
    # conjugation by g fixes a normal mu, so it permutes the coatoms of L(mu) and fixes lambda, their meet
    if not inst.once(is_normal_in_group, inst.mu):
        return SKIPPED
    lam, table, names = inst.once(frattini, inst.mu).nongen.value_indices(), inst.group._table, inst.group.elements
    for g, (row, back) in enumerate(zip(table, inst.group._inv)):
        moved = bytes(lam[table[gx][back]] for gx in row)  # lambda(gxg⁻¹) for each x
        if moved != lam:
            x = next(x for x, (a, b) in enumerate(zip(moved, lam)) if a != b)
            _fail(reason="conjugation moved a non-generator outside the set",
                  conjugator=names[g], element=names[x])


def prop_frattini_image_inclusion(inst: Instance):
    # an isomorphism f carries the maximal L-subgroups of mu onto those of f(mu)
    if not inst.iso.bijective:
        _fail(reason="the transport map is not an isomorphism")
    image = pushforward(inst.iso, inst.once(frattini, inst.mu).phi)
    if not contains(inst.once(frattini, pushforward(inst.iso, inst.mu)).phi, image):
        _fail(reason="image of phi escapes phi of the image")


def prop_maximal_avoiding_exists(inst: Instance):
    rng = random.Random(f"{inst.spec.seed}:{inst.trial}:zorn")
    pool = inst.members
    theta = pool[rng.randrange(len(pool))]
    missing = [
        LPoint(x, a)
        for x in inst.group.elements
        for a in inst.lattice.down_set(inst.mu.value(x))
        if not inst.lattice.leq(a, theta.value(x))
    ]
    if not missing:
        return SKIPPED
    point = missing[rng.randrange(len(missing))]
    tops = maximal_avoiding(inst.mu, theta, point)
    if not tops:
        _fail(reason="no maximal member avoiding the point")
    for nu in tops:
        if not contains(nu, theta) or inst.lattice.leq(point.height, nu.value(point.point)):
            _fail(reason="avoiding witness violates its constraints")


def prop_crisp_case_collapses(inst: Instance):
    if len(inst.lattice) != 2:
        return SKIPPED
    group, lat = inst.group, inst.lattice
    raw = inst.raws[0]
    support = raw.level(lat.top)
    if support:
        expected = characteristic(group, lat, subgroup_closure(group, support))
        if inst.once(generate, raw) != expected:
            _fail(reason="crisp generation differs from classical closure")
    top_level = inst.mu.level(lat.top)
    if top_level:
        expected_maximals = tuple(
            sorted(
                (characteristic(group, lat, m) for m in maximal_subgroups_of(group, top_level)),
                key=lambda s: s.value_indices(),
            )
        )
        if maximal_l_subgroups(inst.mu) != expected_maximals:
            _fail(reason="crisp maximal subgroups differ from classical ones")
        expected_phi = characteristic(group, lat, frattini_classical(group, top_level))
        if inst.once(frattini, inst.mu).phi != expected_phi:
            _fail(reason="crisp phi differs from the classical Frattini subgroup")


# every module-level prop_<name> function, in definition order, which is report order
PROPERTIES: dict[str, Callable[[Instance], object]] = {
    name[len("prop_"):]: prop for name, prop in globals().items() if name.startswith("prop_")
}


# ------------------------------------------------------------------ reports

@dataclass
class PropertyStats:
    trials: int = 0
    skipped: int = 0
    failures: int = 0
    first_counterexample: dict | None = None

    def as_document(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    seed: int
    trials: int
    properties: dict[str, PropertyStats] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(stats.failures == 0 for stats in self.properties.values())

    def as_document(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "properties": {name: stats.as_document() for name, stats in self.properties.items()},
        }


_SHRINK_GROUPS = ["C2", "C3", "V4", "C6", "Q8", "D8"]


def _first_failing(prop: Callable, variants: Iterable[Instance], best: Instance) -> Instance:
    # the first variant on which prop still fails, else best; a variant on
    # which prop raises anything else does not count as failing
    for candidate in variants:
        try:
            prop(candidate)
        except PropertyFailure:
            return candidate
        except Exception:
            pass
    return best


def _shrink(spec: InstanceSpec, trial: int, prop: Callable, first: Instance) -> dict:
    """Smallest failing variant: lattice size first, then group order.

    Reruns the property on deterministically regenerated instances, built
    lazily smallest first, and keeps the first variant that still fails.
    """
    chains = [f"chain{n}" for n in range(2, len(first.lattice))]
    best = _first_failing(prop, (build_instance(spec, trial, k, first.group_name) for k in chains), first)
    groups = [g for g in _SHRINK_GROUPS if len(builtin_group(g)) < len(best.group)]
    best = _first_failing(prop, (build_instance(spec, trial, best.lattice_kind, g) for g in groups), best)
    return best.describe()


def run_suite(spec: InstanceSpec, trials: int) -> SuiteReport:
    """Run every property over ``trials`` generated instances.

    The report is a pure function of (spec, trials): instances, samples and
    sub-searches all derive their randomness from the spec seed and the
    trial index.  The one-off counterexample search appears as its own
    entry with a single trial.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    stats = {name: PropertyStats() for name in PROPERTIES}
    for trial in range(trials):
        inst = build_instance(spec, trial)
        for name, prop in PROPERTIES.items():
            entry = stats[name]
            entry.trials += 1
            try:
                outcome = prop(inst)
            except Exception as failure:  # an erroring property is a failing property
                entry.failures += 1
                if entry.first_counterexample is None:
                    if isinstance(failure, PropertyFailure):  # shrunk; an error is kept as raised
                        found = _shrink(spec, trial, prop, inst)
                        detail = {k: str(v) for k, v in failure.detail.items()}
                    else:
                        found, detail = inst.describe(), {"error": f"{type(failure).__name__}: {failure}"}
                    entry.first_counterexample = {"instance": found, "detail": detail}
            else:
                entry.skipped += outcome == SKIPPED

    converse = PropertyStats(trials=1)
    try:
        search_converse_counterexample()
    except SearchExhaustedError as exc:
        converse.failures = 1
        converse.first_counterexample = {"detail": {"error": str(exc)}}
    stats["converse_level_pattern_insufficient"] = converse
    return SuiteReport(spec.seed, trials, stats)


# --------------------------------------------- converse counterexample search

@dataclass(frozen=True)
class ConverseCounterexample:
    mu: LSubset
    eta: LSubset
    witness: LSubset
    defect_level: str

    def describe(self) -> dict:
        return {
            "mu": self.mu.values(),
            "eta": self.eta.values(),
            "witness": self.witness.values(),
            "defect_level": self.defect_level,
        }


def reference_nonmaximal_pair() -> tuple[LSubset, LSubset]:
    """The seeded Q8 pair over the five-element chain.

    eta keeps the single-defect level pattern against mu over the attained
    values, yet fails maximality; it is always swept first by the search.
    """
    lat = chain_lattice(["0", "a", "b", "c", "1"])
    group = builtin_group("Q8")
    centre = {"1", "-1"}
    four = {"1", "-1", "i", "-i"}
    mu = l_subset(
        group,
        lat,
        {x: "1" if x in centre else ("c" if x in four else "a") for x in group.elements},
    )
    eta = l_subset(group, lat, {x: "1" if x in centre else "a" for x in group.elements})
    return mu, eta


def _single_defect_pattern_over_images(eta: LSubset, mu: LSubset) -> bool:
    # eta in L(mu).  With equal tips and a chain for the joint image, a level
    # b outside mu's image equals mu's level at the least value of mu above
    # b, so a lone defect always sits at a value of mu
    identity = mu.group.identity
    if eta.value(identity) != mu.value(identity) or not are_jointly_supstar(eta, mu):
        return False
    return [rel for _, rel in level_profile(eta, mu).defects()] == [
        LevelRelation.PROPER_MAXIMAL_SUBGROUP
    ]


def search_converse_counterexample() -> ConverseCounterexample:
    """Find a pair whose level pattern matches yet maximality fails.

    The pool is the reference Q8 pair alone, which always qualifies, so the
    search always succeeds; SearchExhaustedError is treated as a failure of
    the suite.
    """
    mu, eta = reference_nonmaximal_pair()
    if is_proper_l_subgroup(eta, mu) and _single_defect_pattern_over_images(eta, mu):
        verdict = is_maximal(eta, mu)
        if not verdict.maximal:
            return ConverseCounterexample(
                mu, eta, verdict.witness_between, level_profile(eta, mu).unique_defect_level
            )
    raise SearchExhaustedError("no level-pattern counterexample found in the pool")
