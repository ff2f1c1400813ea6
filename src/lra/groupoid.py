"""Finite groupoids with explicit tables, their maps, and their actions.

Composition convention: a product g*h is defined exactly when
tgt(g) == src(h), and then src(g*h) == src(g), tgt(g*h) == tgt(h).
(Other texts use the opposite convention.)  Objects sit inside the arrow
set as their identity arrows.

All constructions here are finite and checked exhaustively: pair, action,
direct product, base-map product, restriction, gauge, plus both map
notions with their verifiers, graphs, orbit tests, groupoid actions, a
pruned depth-first map search, and ``iter_candidate_maps``, the brute-force
candidate generator that tests use as its oracle and for the graph theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groebner import ResourceCapExceeded
from .verdict import VerdictReport, VerificationError


class FiniteGroup:
    """A finite group given by a multiplication table."""

    __slots__ = ("elements", "unit", "mul", "inverse")

    def __init__(self, elements, unit, mul):
        elements = tuple(elements)
        inverse = {}
        for g in elements:
            for h in elements:
                if (g, h) not in mul:
                    raise ValueError("multiplication table is not total")
                if mul[(g, h)] == unit:
                    inverse.setdefault(g, h)
        for g in elements:
            if g not in inverse:
                raise ValueError("element %r has no inverse" % (g,))
            if mul[(unit, g)] != g or mul[(g, unit)] != g:
                raise ValueError("unit law fails at %r" % (g,))
        for g in elements:
            for h in elements:
                for k in elements:
                    if mul[(mul[(g, h)], k)] != mul[(g, mul[(h, k)])]:
                        raise ValueError("associativity fails at %r" % ((g, h, k),))
        self.elements = elements
        self.unit = unit
        self.mul = dict(mul)
        self.inverse = inverse

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise ValueError("a cyclic group needs a positive order, got %d" % n)
        elements = tuple(range(n))
        mul = {(a, b): (a + b) % n for a in elements for b in elements}
        return cls(elements, 0, mul)

    @classmethod
    def trivial(cls):
        return cls.cyclic(1)

    def __repr__(self):
        return "FiniteGroup(%r)" % (list(self.elements),)


def _composable(arrows, src, tgt):
    """Each arrow g with the arrows h after it, tgt(g) == src(h), both in arrow order.

    The one walk over composable pairs: an index of arrows by source object,
    read at each arrow's target.
    """
    leaving = {}
    for h in arrows:
        leaving.setdefault(src[h], []).append(h)
    for g in arrows:
        yield g, leaving.get(tgt[g], ())


class FinGroupoid:
    """A finite groupoid: explicit source, target, identity, inverse, product."""

    __slots__ = ("objects", "arrows", "src", "tgt", "ident", "inv", "comp")

    def __init__(self, objects, arrows, src, tgt, ident, inv, comp):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.inv = dict(inv)
        self.comp = dict(comp)

    def hom(self, x, y):
        return [g for g in self.arrows if self.src[g] == x and self.tgt[g] == y]

    def orbit(self, x):
        return {self.tgt[g] for g in self.arrows if self.src[g] == x}

    def composable_pairs(self):
        for g, after in _composable(self.arrows, self.src, self.tgt):
            for h in after:
                yield g, h

    def __eq__(self, other):
        if not isinstance(other, FinGroupoid):
            return NotImplemented
        return (
            set(self.objects) == set(other.objects)
            and set(self.arrows) == set(other.arrows)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.ident == other.ident
            and self.inv == other.inv
            and self.comp == other.comp
        )

    def __repr__(self):
        return "FinGroupoid(%d objects, %d arrows)" % (len(self.objects), len(self.arrows))


def check_groupoid(g):
    """Exhaustive verification of all groupoid table invariants."""
    report = VerdictReport()
    objects, arrows = set(g.objects), set(g.arrows)
    ok = True
    for x in g.objects:
        if x not in g.ident or g.ident[x] not in arrows:
            report.add("identity arrow of %r exists" % (x,), False, "missing or dangling")
            ok = False
    for a in g.arrows:
        if a not in g.src or a not in g.tgt or g.src[a] not in objects or g.tgt[a] not in objects:
            report.add("endpoints of %r are objects" % (a,), False, "missing or dangling")
            ok = False
        if a not in g.inv or g.inv[a] not in arrows:
            report.add("inverse of %r exists" % (a,), False, "missing or dangling")
            ok = False
    if not ok:
        return report
    report.add("tables are total and closed", True)

    bad = [x for x in g.objects if g.src[g.ident[x]] != x or g.tgt[g.ident[x]] != x]
    if not report.add(
        "identity arrows are loops at their objects",
        not bad,
        "objects with displaced identities: %r" % bad,
    ):
        return report
    after = dict(_composable(g.arrows, g.src, g.tgt))
    domain = [(a, b) for a, bs in after.items() for b in bs]
    pairs = set(domain)
    missing = sorted((p for p in domain if p not in g.comp), key=repr)
    extra = sorted((p for p in g.comp if p not in pairs), key=repr)
    report.add(
        "product defined exactly on composable pairs",
        not missing and not extra,
        "missing: %r, extra: %r" % (missing[:3], extra[:3]),
    )
    if missing or extra:
        return report
    bad = [
        (a, b)
        for (a, b) in domain
        if g.comp[(a, b)] not in arrows
        or g.src[g.comp[(a, b)]] != g.src[a]
        or g.tgt[g.comp[(a, b)]] != g.tgt[b]
    ]
    if not report.add("products have the right endpoints", not bad, "bad pairs: %r" % bad[:3]):
        return report
    bad = [
        a
        for a in g.arrows
        if g.comp[(g.ident[g.src[a]], a)] != a or g.comp[(a, g.ident[g.tgt[a]])] != a
    ]
    report.add("identities are neutral", not bad, "arrows violating unit laws: %r" % bad[:3])
    bad = []
    for a in g.arrows:
        b = g.inv[a]
        if g.src[b] != g.tgt[a] or g.tgt[b] != g.src[a]:
            bad.append(a)
        elif g.comp[(a, b)] != g.ident[g.src[a]] or g.comp[(b, a)] != g.ident[g.tgt[a]]:
            bad.append(a)
    report.add("inverses cancel on both sides", not bad, "arrows with broken inverses: %r" % bad[:3])
    bad = [
        (a, b, c)
        for (a, b) in domain
        for c in after[b]
        if g.comp[(g.comp[(a, b)], c)] != g.comp[(a, g.comp[(b, c)])]
    ]
    report.add("associativity on all composable triples", not bad, "triples: %r" % bad[:3])
    return report


# -- constructors -----------------------------------------------------------


def _from_product(objects, arrows, src, tgt, ident, inv, product):
    """A groupoid whose product table is ``product(g, h)`` on exactly the composable pairs."""
    comp = {(g, h): product(g, h) for g, after in _composable(arrows, src, tgt) for h in after}
    return FinGroupoid(objects, arrows, src, tgt, ident, inv, comp)


def make_pair(objects):
    """The pair groupoid: one arrow (x, y) for every ordered pair."""
    objects = tuple(objects)
    arrows = [(x, y) for x in objects for y in objects]
    src = {(x, y): x for (x, y) in arrows}
    tgt = {(x, y): y for (x, y) in arrows}
    ident = {x: (x, x) for x in objects}
    inv = {(x, y): (y, x) for (x, y) in arrows}
    return _from_product(objects, arrows, src, tgt, ident, inv, lambda a, b: (a[0], b[1]))


def _check_group_action(group, objects, act):
    for x in objects:
        for g in group.elements:
            if (x, g) not in act or act[(x, g)] not in objects:
                raise VerificationError("action table is not total at %r" % ((x, g),))
    for x in objects:
        if act[(x, group.unit)] != x:
            raise VerificationError("action fails the unit axiom at %r" % (x,))
        for g1 in group.elements:
            for g2 in group.elements:
                if act[(x, group.mul[(g1, g2)])] != act[(act[(x, g1)], g2)]:
                    raise VerificationError(
                        "action fails compatibility at %r" % ((x, g1, g2),)
                    )


def make_action_groupoid(group, objects, act):
    """The action groupoid of a right group action: arrows (x, g): x -> x.g."""
    objects = tuple(objects)
    act = dict(act)
    _check_group_action(group, objects, act)
    arrows = [(x, g) for x in objects for g in group.elements]
    src = {(x, g): x for (x, g) in arrows}
    tgt = {(x, g): act[(x, g)] for (x, g) in arrows}
    ident = {x: (x, group.unit) for x in objects}
    inv = {(x, g): (act[(x, g)], group.inverse[g]) for (x, g) in arrows}
    return _from_product(
        objects, arrows, src, tgt, ident, inv, lambda a, b: (a[0], group.mul[(a[1], b[1])])
    )


def _componentwise(gamma, pi):
    """The product of pairs of arrows, one component in each groupoid."""
    return lambda a, b: (gamma.comp[(a[0], b[0])], pi.comp[(a[1], b[1])])


def make_direct_product(gamma, pi):
    """Componentwise structure on pairs of arrows over pairs of objects."""
    objects = [(m, n) for m in gamma.objects for n in pi.objects]
    arrows = [(g, w) for g in gamma.arrows for w in pi.arrows]
    src = {(g, w): (gamma.src[g], pi.src[w]) for (g, w) in arrows}
    tgt = {(g, w): (gamma.tgt[g], pi.tgt[w]) for (g, w) in arrows}
    ident = {(m, n): (gamma.ident[m], pi.ident[n]) for (m, n) in objects}
    inv = {(g, w): (gamma.inv[g], pi.inv[w]) for (g, w) in arrows}
    return _from_product(objects, arrows, src, tgt, ident, inv, _componentwise(gamma, pi))


def restrict_groupoid(gamma, objects):
    """Arrows with both endpoints in the chosen object subset."""
    objects = tuple(objects)
    keep = set(objects)
    for x in keep:
        if x not in gamma.objects:
            raise ValueError("%r is not an object of the groupoid" % (x,))
    arrows = [a for a in gamma.arrows if gamma.src[a] in keep and gamma.tgt[a] in keep]
    arrow_set = set(arrows)
    comp = {
        (a, b): c
        for (a, b), c in gamma.comp.items()
        if a in arrow_set and b in arrow_set
    }
    return FinGroupoid(
        objects,
        arrows,
        {a: gamma.src[a] for a in arrows},
        {a: gamma.tgt[a] for a in arrows},
        {x: gamma.ident[x] for x in objects},
        {a: gamma.inv[a] for a in arrows},
        comp,
    )


def _check_base_map(gamma, pi, phi):
    """A base map must be defined on every object of gamma and land in pi's objects."""
    for x in gamma.objects:
        if x not in phi:
            raise ValueError("phi is not defined at %r" % (x,))
        if phi[x] not in pi.objects:
            raise ValueError("phi does not land in the other base: %r -> %r" % (x, phi[x]))


def make_phi_product(gamma, pi, phi):
    """Arrows (g, w) whose pi-component matches phi of the gamma endpoints.

    This is the direct product restricted to the graph of phi, with each
    object (x, phi(x)) named x, so it lives on gamma's base.
    """
    _check_base_map(gamma, pi, phi)
    arrows = [
        (g, w)
        for g in gamma.arrows
        for w in pi.arrows
        if pi.src[w] == phi[gamma.src[g]] and pi.tgt[w] == phi[gamma.tgt[g]]
    ]
    return _from_product(
        gamma.objects,
        arrows,
        {(g, w): gamma.src[g] for (g, w) in arrows},
        {(g, w): gamma.tgt[g] for (g, w) in arrows},
        {x: (gamma.ident[x], pi.ident[phi[x]]) for x in gamma.objects},
        {(g, w): (gamma.inv[g], pi.inv[w]) for (g, w) in arrows},
        _componentwise(gamma, pi),
    )


def make_gauge(total, projection, group, act):
    """The gauge groupoid of a finite principal bundle.

    ``total`` carries a free right ``group`` action whose orbits are
    exactly the fibers of ``projection``.  Arrows are diagonal orbits of
    pairs, labeled by a canonical orbit representative; the product
    translates the middle terms by the unique matching group element.
    """
    total = tuple(total)
    for x in total:
        if x not in projection:
            raise ValueError("projection is not defined at %r" % (x,))
    act = dict(act)
    _check_group_action(group, total, act)
    base = []
    for x in total:
        if projection[x] not in base:
            base.append(projection[x])
    for x in total:
        for g in group.elements:
            if projection[act[(x, g)]] != projection[x]:
                raise VerificationError("the action does not preserve fibers")
            if g != group.unit and act[(x, g)] == x:
                raise VerificationError("the action is not free at %r" % (x,))
    for x in total:
        for y in total:
            if projection[x] == projection[y]:
                if not any(act[(x, g)] == y for g in group.elements):
                    raise VerificationError(
                        "the action is not transitive on the fiber over %r"
                        % (projection[x],)
                    )

    def canonical(pair):
        x1, x2 = pair
        orbit = [(act[(x1, g)], act[(x2, g)]) for g in group.elements]
        return min(orbit, key=repr)

    def translate(frm, to):
        for g in group.elements:
            if act[(frm, g)] == to:
                return g
        raise VerificationError("no group element translates %r to %r" % (frm, to))

    arrows = sorted({canonical((x1, x2)) for x1 in total for x2 in total}, key=repr)
    src = {a: projection[a[0]] for a in arrows}
    tgt = {a: projection[a[1]] for a in arrows}
    ident = {}
    for x in total:
        ident.setdefault(projection[x], canonical((x, x)))
    inv = {a: canonical((a[1], a[0])) for a in arrows}

    def product(a, b):
        return canonical((a[0], act[(b[1], translate(b[0], a[1]))]))

    return _from_product(base, arrows, src, tgt, ident, inv, product)


# -- maps of groupoids -------------------------------------------------------


@dataclass(frozen=True)
class GrpdMorphism:
    """An arrow map over a base map; validity is the verifier's verdict."""

    base: dict
    arrows: dict

    def __hash__(self):
        return hash((frozenset(self.base.items()), frozenset(self.arrows.items())))


@dataclass(frozen=True)
class GrpdComorphism:
    """A table on the pullback {(x, w) | phi(x) = src(w)} into the other groupoid."""

    base: dict
    table: dict

    def __hash__(self):
        return hash((frozenset(self.base.items()), frozenset(self.table.items())))


def pullback_domain(gamma, pi, phi):
    return [
        (x, w)
        for x in gamma.objects
        for w in pi.arrows
        if pi.src[w] == phi[x]
    ]


def check_grpd_morphism(gamma, pi, m):
    """Verify a morphism of groupoids from gamma to pi over its base map."""
    report = VerdictReport()
    for x in gamma.objects:
        if x not in m.base or m.base[x] not in pi.objects:
            report.add("base map is total at %r" % (x,), False, "missing or dangling")
            return report
    for g in gamma.arrows:
        if g not in m.arrows or m.arrows[g] not in pi.arrows:
            report.add("arrow map is total at %r" % (g,), False, "missing or dangling")
            return report
    report.add("maps are total", True)
    bad = [x for x in gamma.objects if m.arrows[gamma.ident[x]] != pi.ident[m.base[x]]]
    report.add(
        "identities map to identities over the base map",
        not bad,
        "objects: %r" % bad[:3],
    )
    bad = [
        g
        for g in gamma.arrows
        if pi.src[m.arrows[g]] != m.base[gamma.src[g]]
        or pi.tgt[m.arrows[g]] != m.base[gamma.tgt[g]]
    ]
    report.add("endpoints are respected", not bad, "arrows: %r" % bad[:3])
    if bad:
        return report
    bad = [
        (g, h)
        for g, h in gamma.composable_pairs()
        if m.arrows[gamma.comp[(g, h)]] != pi.comp[(m.arrows[g], m.arrows[h])]
    ]
    report.add(
        "products are preserved",
        not bad,
        "composable pairs with broken images: %r" % bad[:3],
    )
    return report


def check_grpd_comorphism(gamma, pi, m):
    """Verify a comorphism from pi to gamma over phi: base(gamma) -> base(pi)."""
    report = VerdictReport()
    phi = m.base
    for x in gamma.objects:
        if x not in phi or phi[x] not in pi.objects:
            report.add("base map is total at %r" % (x,), False, "missing or dangling")
            return report
    domain = pullback_domain(gamma, pi, phi)
    missing = [p for p in domain if p not in m.table]
    domain_set = set(domain)
    extra = [p for p in m.table if p not in domain_set]
    if missing or extra:
        report.add(
            "table is defined exactly on the pullback",
            False,
            "missing: %r, extra: %r" % (missing[:3], extra[:3]),
        )
        return report
    dangling = [p for p in domain if m.table[p] not in gamma.arrows]
    if dangling:
        report.add("table lands in the groupoid", False, "entries: %r" % dangling[:3])
        return report
    report.add("table is total on the pullback", True)
    bad = [(x, w) for (x, w) in domain if gamma.src[m.table[(x, w)]] != x]
    report.add(
        "sources project to the first component",
        not bad,
        "entries: %r" % bad[:3],
    )
    if bad:
        return report
    bad = [x for x in gamma.objects if m.table[(x, pi.ident[phi[x]])] != gamma.ident[x]]
    report.add(
        "identity arrows pull back to identities",
        not bad,
        "objects: %r" % bad[:3],
    )
    bad = [
        (x, w)
        for (x, w) in domain
        if phi[gamma.tgt[m.table[(x, w)]]] != pi.tgt[w]
    ]
    report.add("targets are compatible over the base map", not bad, "entries: %r" % bad[:3])
    if bad:
        return report
    after = dict(_composable(pi.arrows, pi.src, pi.tgt))
    bad = []
    for (x, w) in domain:
        g = m.table[(x, w)]
        for z in after[w]:
            if m.table[(x, pi.comp[(w, z)])] != gamma.comp[(g, m.table[(gamma.tgt[g], z)])]:
                bad.append((x, w, z))
    report.add(
        "products pull back through the cocycle identity",
        not bad,
        "triples: %r" % bad[:3],
    )
    return report


def graph_of_map(m):
    """The graph, as a set of phi-product arrows."""
    if isinstance(m, GrpdMorphism):
        return {(g, w) for g, w in m.arrows.items()}
    if isinstance(m, GrpdComorphism):
        return {(g, w) for (_, w), g in m.table.items()}
    raise TypeError("expected a groupoid morphism or comorphism")


def graph_subgroupoid_check(gamma, pi, phi, graph, product=None):
    """Is the given set of pairs a wide subgroupoid of the phi-product?

    ``product`` may carry a prebuilt phi-product for repeated checks over
    one base map.
    """
    report = VerdictReport()
    if product is None:
        product = make_phi_product(gamma, pi, phi)
    arrow_set = set(product.arrows)
    outside = [p for p in graph if p not in arrow_set]
    report.add(
        "graph lies inside the phi-product",
        not outside,
        "pairs outside: %r" % sorted(outside, key=repr)[:3],
    )
    if outside:
        return report
    missing = [x for x in gamma.objects if product.ident[x] not in graph]
    report.add(
        "graph contains every identity of the base",
        not missing,
        "objects without identities: %r" % missing[:3],
    )
    members = [p for p in product.arrows if p in graph]
    bad = [p for p in members if product.inv[p] not in graph]
    report.add("graph is closed under inversion", not bad, "arrows: %r" % bad[:3])
    bad = [
        (p, q)
        for p, after in _composable(members, product.src, product.tgt)
        for q in after
        if product.comp[(p, q)] not in graph
    ]
    report.add("graph is closed under the product", not bad, "pairs: %r" % bad[:3])
    return report


def compose_grpd_morphisms(m1, m2):
    return GrpdMorphism(
        {x: m2.base[y] for x, y in m1.base.items()},
        {g: m2.arrows[h] for g, h in m1.arrows.items()},
    )


def compose_grpd_comorphisms(m1, m2):
    """Chain tables: first pull back through m2, then through m1.

    m1 is a comorphism from pi to gamma over phi1, m2 one from sigma to pi
    over phi2; the composite pulls sigma back to gamma over phi2 . phi1.
    """
    base = {x: m2.base[y] for x, y in m1.base.items()}
    table = {}
    for x in m1.base:
        for (y, s), w in m2.table.items():
            if y == m1.base[x]:
                table[(x, s)] = m1.table[(x, w)]
    return GrpdComorphism(base, table)


# -- orbits ------------------------------------------------------------------


def orbit_condition(phi, gamma, pi, kind):
    """Necessary condition on orbits for a map over phi to exist.

    Morphisms send each orbit into an orbit; comorphisms need the phi-image
    of each orbit to cover the matching orbit.
    """
    if kind == "morphism":
        return all(
            {phi[y] for y in gamma.orbit(x)} <= pi.orbit(phi[x]) for x in gamma.objects
        )
    if kind == "comorphism":
        return all(
            pi.orbit(phi[x]) <= {phi[y] for y in gamma.orbit(x)} for x in gamma.objects
        )
    raise ValueError("kind must be 'morphism' or 'comorphism'")


# -- groupoid actions --------------------------------------------------------


class GroupoidAction:
    """An action of a groupoid on a fibred finite set.

    ``maps[g]`` is a bijection from the fiber over src(g) to the fiber
    over tgt(g); identities act as the identity and products compose in
    reverse order.
    """

    __slots__ = ("groupoid", "space", "projection", "maps")

    def __init__(self, groupoid, space, projection, maps):
        self.groupoid = groupoid
        self.space = tuple(space)
        self.projection = dict(projection)
        self.maps = {g: dict(table) for g, table in maps.items()}

    def fiber(self, m):
        return [z for z in self.space if self.projection[z] == m]

    def __eq__(self, other):
        if not isinstance(other, GroupoidAction):
            return NotImplemented
        return (
            self.groupoid == other.groupoid
            and set(self.space) == set(other.space)
            and self.projection == other.projection
            and self.maps == other.maps
        )


def check_groupoid_action(action):
    report = VerdictReport()
    g = action.groupoid
    covered = {action.projection[z] for z in action.space}
    report.add(
        "projection is onto the base",
        covered == set(g.objects),
        "uncovered objects: %r" % sorted(set(g.objects) - covered, key=repr),
    )
    for a in g.arrows:
        table = action.maps.get(a)
        if table is None:
            report.add("arrow %r acts" % (a,), False, "no map assigned")
            continue
        source_fiber = action.fiber(g.src[a])
        target_fiber = set(action.fiber(g.tgt[a]))
        total = set(table) == set(source_fiber)
        bijective = total and len(set(table.values())) == len(source_fiber) and set(
            table.values()
        ) <= target_fiber
        report.add(
            "arrow %r acts as a bijection between its fibers" % (a,),
            bijective,
            "table %r is not a bijection %r -> %r" % (table, source_fiber, sorted(target_fiber, key=repr)),
        )
    if not report.verdict:
        return report
    bad = [
        x
        for x in g.objects
        if any(action.maps[g.ident[x]][z] != z for z in action.fiber(x))
    ]
    report.add("identities act as the identity", not bad, "objects: %r" % bad[:3])
    bad = []
    for a, b in g.composable_pairs():
        ab = g.comp[(a, b)]
        for z in action.fiber(g.src[a]):
            if action.maps[ab][z] != action.maps[b][action.maps[a][z]]:
                bad.append((a, b, z))
    report.add(
        "products act in reverse order",
        not bad,
        "violations: %r" % bad[:3],
    )
    return report


def action_as_comorphism(action):
    """Encode an action as a comorphism into the pair groupoid of the space.

    Returns (pair groupoid on the space, comorphism from the acting
    groupoid to it over the projection).
    """
    pair = make_pair(action.space)
    table = {}
    for g in action.groupoid.arrows:
        for z, image in action.maps[g].items():
            table[(z, g)] = (z, image)
    return pair, GrpdComorphism(dict(action.projection), table)


def induced_groupoid_action(omega, gamma, phi, m):
    """Extract the action encoded by a comorphism over a fibred base map.

    ``m`` is a verified comorphism from gamma to omega over phi (omega's
    base is the space).  Each arrow acts by following its pullback arrow to
    its target; the verdict checks all action axioms exhaustively.
    """
    check_grpd_comorphism(omega, gamma, m).require(
        "the comorphism data does not verify"
    )
    space = omega.objects
    if {phi[z] for z in space} != set(gamma.objects):
        raise VerificationError("the base map is not surjective; no action is induced")
    maps = {}
    for g in gamma.arrows:
        table = {}
        for z in space:
            if phi[z] == gamma.src[g]:
                table[z] = omega.tgt[m.table[(z, g)]]
        maps[g] = table
    action = GroupoidAction(gamma, space, phi, maps)
    return action, check_groupoid_action(action)


def make_action_groupoid_of_action(action):
    """The action groupoid of a groupoid action, with its projection morphism.

    Arrows are pullback pairs (z, g) from z to the image of z under g;
    the projection (z, g) -> g is a morphism over the action's projection.
    """
    check_groupoid_action(action).require("the action tables do not verify")
    g = action.groupoid
    space = action.space
    proj = action.projection
    arrows = [(z, a) for z in space for a in g.arrows if proj[z] == g.src[a]]
    src = {(z, a): z for (z, a) in arrows}
    tgt = {(z, a): action.maps[a][z] for (z, a) in arrows}
    ident = {z: (z, g.ident[proj[z]]) for z in space}
    inv = {(z, a): (action.maps[a][z], g.inv[a]) for (z, a) in arrows}
    groupoid = _from_product(
        space, arrows, src, tgt, ident, inv, lambda p, q: (p[0], g.comp[(p[1], q[1])])
    )
    projection = GrpdMorphism(dict(proj), {(z, a): a for (z, a) in arrows})
    return groupoid, projection


# -- enumeration and isomorphism ---------------------------------------------


def iter_candidate_maps(gamma, pi, phi, kind, cap=10**6):
    """All typing-compatible candidates for one map kind over phi.

    Candidates respect sources and targets pointwise (maps that do not
    cannot pass either the direct verifier or the graph test, since their
    graphs leave the phi-product).  The full search space is capped.  This
    is the brute-force oracle for ``enumerate_maps``; only tests use it.
    """
    _check_base_map(gamma, pi, phi)
    if kind == "morphism":
        slots = list(gamma.arrows)
        options = [
            [w for w in pi.arrows if pi.src[w] == phi[gamma.src[g]] and pi.tgt[w] == phi[gamma.tgt[g]]]
            for g in slots
        ]
    elif kind == "comorphism":
        slots = pullback_domain(gamma, pi, phi)
        options = [
            [h for h in gamma.arrows if gamma.src[h] == x and phi[gamma.tgt[h]] == pi.tgt[w]]
            for (x, w) in slots
        ]
    else:
        raise ValueError("kind must be 'morphism' or 'comorphism'")
    size = 1
    for opts in options:
        size *= len(opts)
        if size > cap:
            raise ResourceCapExceeded(
                "map search space exceeds the cap of %d" % cap
            )
    if size == 0:
        return
    for combo in itertools.product(*options):
        if kind == "morphism":
            yield GrpdMorphism(dict(phi), dict(zip(slots, combo)))
        else:
            yield GrpdComorphism(dict(phi), dict(zip(slots, combo)))


def _depth_first(options, fits, leave, cap):
    """Assignments of one option per slot, in ``itertools.product`` order, that fit.

    Slot i takes its options in order; ``fits(i, values)`` sees ``values[:i + 1]``
    filled and returns False to cut the branch.  ``leave(i, values)`` undoes
    what an accepted ``fits`` recorded, before slot i takes its next option.
    The yielded list is reused: copy it before the next step.  More than
    ``cap`` partial assignments tried raises ResourceCapExceeded.
    """
    n = len(options)
    if not n:
        yield []
        return
    values = [None] * n
    tried = 0
    stack = [iter(options[0])]
    while stack:
        i = len(stack) - 1
        for value in stack[i]:
            tried += 1
            if tried > cap:
                raise ResourceCapExceeded("map search exceeds the cap of %d partial maps" % cap)
            values[i] = value
            if fits(i, values):
                break
        else:
            stack.pop()
            if stack:
                leave(i - 1, values)
            continue
        if i + 1 < n:
            stack.append(iter(options[i + 1]))
        else:
            yield values
            leave(i, values)


def _morphism_search(gamma, pi, phi, cap):
    """Arrow maps over phi that send identities to identities and keep every product.

    Each composable pair (g, h) is checked once, when the last of g, h, g*h
    is filled.
    """
    hom = {}
    for w in pi.arrows:
        hom.setdefault((pi.src[w], pi.tgt[w]), []).append(w)
    slots = list(gamma.arrows)
    unit = {gamma.ident[x]: pi.ident[phi[x]] for x in gamma.objects}
    options = [
        [unit[g]] if g in unit else hom.get((phi[gamma.src[g]], phi[gamma.tgt[g]]), [])
        for g in slots
    ]
    pos = {g: i for i, g in enumerate(slots)}
    rules = [[] for _ in slots]
    for g, h in gamma.composable_pairs():
        triple = (pos[g], pos[h], pos[gamma.comp[(g, h)]])
        rules[max(triple)].append(triple)

    def fits(i, values):
        return all(values[c] == pi.comp[(values[a], values[b])] for a, b, c in rules[i])

    for values in _depth_first(options, fits, lambda i, values: None, cap):
        yield GrpdMorphism(dict(phi), dict(zip(slots, values)))


def _comorphism_search(gamma, pi, phi, cap):
    """Pullback tables over phi that pull identities back to identities and keep
    the cocycle identity table[(x, w*z)] = table[(x, w)] * table[(tgt table[(x, w)], z)].

    Each triple (x, w, z) is checked once, when the last of its three slots
    is filled.  The third slot depends on the value of the first, so the
    filled slots are indexed by the target of their value.
    """
    slots = pullback_domain(gamma, pi, phi)
    typed = {}
    for h in gamma.arrows:
        typed.setdefault((gamma.src[h], phi[gamma.tgt[h]]), []).append(h)
    options = [
        [gamma.ident[x]] if w == pi.ident[phi[x]] else typed.get((x, pi.tgt[w]), [])
        for x, w in slots
    ]
    pos = {s: i for i, s in enumerate(slots)}
    after = dict(_composable(pi.arrows, pi.src, pi.tgt))
    factors = {}
    for w, z in pi.composable_pairs():
        factors.setdefault(pi.comp[(w, z)], []).append((w, z))
    landing = {}  # object y -> filled slots whose value ends at y, in slot order

    def fits(i, values):
        x, v = slots[i]
        g = values[i]
        for z in after[v]:  # slot i as (x, w)
            b, c = pos[(x, pi.comp[(v, z)])], pos[(gamma.tgt[g], z)]
            if b <= i and c <= i and values[b] != gamma.comp[(g, values[c])]:
                return False
        for w, z in factors[v]:  # slot i as (x, w*z), with (x, w) filled before it
            a = pos[(x, w)]
            if a < i:
                c = pos[(gamma.tgt[values[a]], z)]
                if c <= i and g != gamma.comp[(values[a], values[c])]:
                    return False
        for a in landing.get(x, ()):  # slot i as (tgt table[(x', w)], z), both others before it
            xa, w = slots[a]
            b = pos[(xa, pi.comp[(w, v)])]
            if b < i and values[b] != gamma.comp[(values[a], g)]:
                return False
        landing.setdefault(gamma.tgt[g], []).append(i)
        return True

    def leave(i, values):
        landing[gamma.tgt[values[i]]].pop()

    for values in _depth_first(options, fits, leave, cap):
        yield GrpdComorphism(dict(phi), dict(zip(slots, values)))


def _verified_maps(gamma, pi, phi, kind, cap):
    """Maps of one kind over phi that the direct verifier passes, in candidate order."""
    _check_base_map(gamma, pi, phi)
    if kind == "morphism":
        search, check = _morphism_search, check_grpd_morphism
    elif kind == "comorphism":
        search, check = _comorphism_search, check_grpd_comorphism
    else:
        raise ValueError("kind must be 'morphism' or 'comorphism'")
    return (m for m in search(gamma, pi, phi, cap) if check(gamma, pi, m).verdict)


def enumerate_maps(gamma, pi, phi, kind, cap=10**6):
    """Every map of one kind over phi, by a pruned depth-first search.

    The search fills the slots of ``iter_candidate_maps`` in order and cuts a
    branch at the first broken product rule (morphisms) or cocycle identity
    (comorphisms), so the maps come out in that generator's order.  Each
    complete map still passes the direct verifier before it is returned.
    ``cap`` bounds the partial maps tried.
    """
    return list(_verified_maps(gamma, pi, phi, kind, cap))


def find_isomorphism(g1, g2):
    """Isomorphism search; returns (object map, arrow map) or None.

    For each bijection of objects, the first morphism over it with an
    injective arrow map.
    """
    if len(g1.objects) != len(g2.objects) or len(g1.arrows) != len(g2.arrows):
        return None

    def hom_profile(g):
        return sorted(
            (len(g.hom(x, y)) for x in g.objects for y in g.objects)
        )

    if hom_profile(g1) != hom_profile(g2):
        return None
    for perm in itertools.permutations(g2.objects):
        for m in _verified_maps(g1, g2, dict(zip(g1.objects, perm)), "morphism", 10**6):
            if len(set(m.arrows.values())) == len(m.arrows):
                return m.base, m.arrows
    return None
