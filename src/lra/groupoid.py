"""Finite groupoids with explicit tables, their maps, and their actions.

Composition convention: a product g*h is defined exactly when
tgt(g) == src(h), and then src(g*h) == src(g), tgt(g*h) == tgt(h).
(Other texts use the opposite convention.)  Objects sit inside the arrow
set as their identity arrows.

All constructions here are finite and checked exactly: pair, action,
direct product, base-map product, restriction, gauge, plus both map
notions with their verifiers and graphs, and groupoid actions.
Associativity and the action law are decided on a generating set of the
table and scanned on every arrow only to name the faults when they fail;
the two map laws are scanned once on every composable pair, which costs
about as much as picking a generating set for a two-arrow law.
The table laws read ``_Tables``, an interned view built once the tables are
total: arrow i is ``g.arrows[i]``; ``src``, ``tgt``, ``ident`` and ``inv`` are
int lists; ``leaving[x]`` lists the arrows from object x in arrow order, and
``rows[a][pos[b]]`` is the index of a*b (None if missing or not an arrow), the
one read of each composable pair of ``g.comp``.  Witnesses name the labels.
A group is a groupoid with one object (``cyclic_group``), and a group
action is a ``GroupoidAction`` of it, so ``check_groupoid`` is the only
associativity check and ``check_groupoid_action`` the only check of the
action law.
Both map notions are searched as one thing, graphs in the phi-product
closed under its product (``enumerate_maps``).  By the graph theorem each
such graph is a map, so the search runs no verifier; ``iter_candidate_maps``,
the brute-force candidate generator, and the direct verifiers are the
tests' oracle for it.
"""

import itertools
import math
from collections import Counter

from .budget import budget
from .verdict import VerdictReport, VerificationError


def _composable(arrows, src, tgt):
    """Each arrow g with the arrows h after it, tgt(g) == src(h), both in arrow order.

    The walk over composable pairs by label (``_Tables`` holds it by index):
    an index of arrows by source object, read at each arrow's target.
    """
    leaving = {}
    for h in arrows:
        leaving.setdefault(src[h], []).append(h)
    for g in arrows:
        yield g, leaving.get(tgt[g], ())


class FinGroupoid:
    """A finite groupoid: explicit source, target, identity, inverse, product.

    Object and arrow labels are distinct: a repeated one is a ``ValueError``.
    The tables are checked by ``check_groupoid``."""

    __slots__ = ("objects", "arrows", "src", "tgt", "ident", "inv", "comp")

    def __init__(self, objects, arrows, src, tgt, ident, inv, comp):
        self.objects = tuple(objects)
        self.arrows = tuple(arrows)
        for what, labels in (("object", self.objects), ("arrow", self.arrows)):
            if len(set(labels)) < len(labels):
                repeated = next(label for label, n in Counter(labels).items() if n > 1)
                raise ValueError("repeated %s label %r" % (what, repeated))
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.ident = dict(ident)
        self.inv = dict(inv)
        self.comp = dict(comp)

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
    """Verification of all groupoid table invariants; associativity on a generating set."""
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
    t = _Tables(g)
    rows, src, tgt, ident, leaving, pos, label = t.rows, t.src, t.tgt, t.ident, t.leaving, t.pos, g.arrows
    bad = [
        (label[a], label[b])
        for a, row in enumerate(rows)
        for b, c in zip(leaving[tgt[a]], row)
        if c is None or src[c] != src[a] or tgt[c] != tgt[b]
    ]
    missing = [p for p in bad if p not in g.comp]  # a missing product is a bad pair too
    if missing or len(g.comp) != sum(map(len, rows)):  # else comp holds exactly the composable pairs
        pairs = {(label[a], label[b]) for a in range(len(rows)) for b in leaving[tgt[a]]}
        extra = [p for p in g.comp if p not in pairs]
        report.add(
            "product defined exactly on composable pairs",
            False,
            "missing: %r, extra: %r" % (sorted(missing, key=repr)[:3], sorted(extra, key=repr)[:3]),
        )
        return report
    report.add("product defined exactly on composable pairs", True)
    if not report.add("products have the right endpoints", not bad, "bad pairs: %r" % bad[:3]):
        return report
    bad = [
        label[a]
        for a in range(len(rows))
        if rows[ident[src[a]]][pos[a]] != a or rows[a][pos[ident[tgt[a]]]] != a
    ]
    report.add("identities are neutral", not bad, "arrows violating unit laws: %r" % bad[:3])
    bad = [
        label[a]
        for a, b in enumerate(t.inv)
        if src[b] != tgt[a] or tgt[b] != src[a]
        or rows[a][pos[b]] != ident[src[a]] or rows[b][pos[a]] != ident[tgt[a]]
    ]
    report.add("inverses cancel on both sides", not bad, "arrows with broken inverses: %r" % bad[:3])

    def triples(middles):  # (a b) c against a (b c), for each c after b
        return [
            (label[a], label[b], label[c])
            for a, row in enumerate(rows)
            for b, ab in zip(leaving[tgt[a]], row)
            if b in middles
            for c, ab_c, bc in zip(leaving[tgt[b]], rows[ab], rows[b])
            if ab_c != row[pos[bc]]
        ]

    bad = _law_faults(triples, t)
    report.add("associativity on all composable triples", not bad, "triples: %r" % bad[:3])
    return report


class _Tables:
    """The interned view of a groupoid's tables (see the module docstring)."""

    def __init__(self, g):
        arrows, get, missing = g.arrows, g.comp.get, object()
        index = {a: i for i, a in enumerate(arrows)}
        obj = {x: i for i, x in enumerate(g.objects)}
        self.src = [obj[g.src[a]] for a in arrows]
        self.tgt = [obj[g.tgt[a]] for a in arrows]
        self.ident = [index[g.ident[x]] for x in g.objects]
        self.inv = [index[g.inv[a]] for a in arrows]
        self.leaving, self.pos = [[] for _ in g.objects], []
        for a, x in enumerate(self.src):
            self.pos.append(len(self.leaving[x]))
            self.leaving[x].append(a)
        self.rows = [  # the one read of each composable pair
            [index.get(get((a, arrows[b]), missing)) for b in self.leaving[x]]
            for a, x in zip(arrows, self.tgt)
        ]


def _generators(t):
    """Each arrow of the view t, in index order, that table products of those picked before it miss.

    The closure starts empty and assumes neither associativity nor the unit
    laws; it needs a product on every composable pair, with the right endpoints.
    """
    rows, src, tgt, pos = t.rows, t.src, t.tgt, t.pos
    leaving, arriving = [[] for _ in t.leaving], [[] for _ in t.leaving]  # closure arrows by object
    closure, gens = [False] * len(rows), set()
    for a in range(len(rows)):
        if closure[a]:
            continue
        gens.add(a)
        new = [a]
        for u in new:  # u meets each closure arrow indexed before it, and itself
            if closure[u]:
                continue
            closure[u] = True
            s, e = src[u], tgt[u]
            leaving[s].append(u)
            arriving[e].append(u)
            new += [rows[u][pos[v]] for v in leaving[e]]
            new += [rows[v][pos[u]] for v in arriving[s]]
    return gens


def _law_faults(scan, t):
    """``scan(middles)`` lists the faults of a law with middle arrow index in ``middles``.

    The middle arrows where the law holds are closed under products (Light's
    associativity test, Clifford & Preston I, ch. 1; the action law needs an
    associative groupoid), so it holds everywhere if it holds on
    ``_generators(t)``; a fault there is reported from the scan over every
    arrow of the view t.
    """
    return scan(_generators(t)) and scan(range(len(t.rows)))


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


def cyclic_group(n):
    """Z/n as a groupoid with one object, 0, and arrows 0, ..., n - 1 under addition mod n."""
    if n < 1:
        raise ValueError("a cyclic group needs a positive order, got %d" % n)
    arrows = range(n)
    loops = dict.fromkeys(arrows, 0)
    return _from_product(
        (0,), arrows, loops, loops, {0: 0}, {a: -a % n for a in arrows}, lambda a, b: (a + b) % n
    )


def _group_action(group, space, act):
    """The right action ``act[(x, g)]`` of a one-object groupoid on ``space``, unchecked.

    Every point lies over the one object.  An empty space is acted on by the
    group's restriction to no objects, so the projection is still onto.
    """
    if len(group.objects) != 1:
        raise ValueError("a group is a groupoid with one object, got %d" % len(group.objects))
    space = tuple(space)
    point = group.objects[0]
    if not space:
        group = restrict_groupoid(group, ())
    maps = {g: {x: act[(x, g)] for x in space if (x, g) in act} for g in group.arrows}
    return GroupoidAction(group, space, dict.fromkeys(space, point), maps)


def make_action_groupoid(group, objects, act):
    """The action groupoid of a right action of a one-object groupoid: arrows (x, g): x -> x.g."""
    return make_action_groupoid_of_action(_group_action(group, objects, act))[0]


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


def _base_map_fault(gamma, pi, phi):
    """(check name, witness, error text) of the first fault of a base map on gamma, or None.

    A base map must be defined exactly on the objects of gamma and land in
    pi's objects.  The objects are scanned first, in order, then the keys.
    """
    for x in gamma.objects:
        if x not in phi:
            text = "phi is not defined at %r" % (x,)
        elif phi[x] not in pi.objects:
            text = "phi does not land in the other base: %r -> %r" % (x, phi[x])
        else:
            continue
        return "base map is total at %r" % (x,), "missing or dangling", text
    objects = set(gamma.objects)
    extra = [x for x in phi if x not in objects]
    if extra:
        return (
            "base map is defined only on objects of gamma",
            "extra objects: %r" % extra[:3],
            "phi is defined at %r, which is not an object" % (extra[0],),
        )
    return None


def _check_base_map(gamma, pi, phi):
    """Raise the ``ValueError`` of the first fault of a base map on gamma, if any."""
    fault = _base_map_fault(gamma, pi, phi)
    if fault:
        raise ValueError(fault[2])


def make_phi_product(gamma, pi, phi):
    """Arrows (g, w) whose pi-component matches phi of the gamma endpoints.

    This is the direct product restricted to the graph of phi, with each
    object (x, phi(x)) named x, so it lives on gamma's base.
    """
    _check_base_map(gamma, pi, phi)
    arrows = _phi_arrows(gamma, pi, phi)
    return _from_product(
        gamma.objects,
        arrows,
        {(g, w): gamma.src[g] for (g, w) in arrows},
        {(g, w): gamma.tgt[g] for (g, w) in arrows},
        {x: (gamma.ident[x], pi.ident[phi[x]]) for x in gamma.objects},
        {(g, w): (gamma.inv[g], pi.inv[w]) for (g, w) in arrows},
        _componentwise(gamma, pi),
    )


def _phi_arrows(gamma, pi, phi):
    """The arrows (g, w) of the phi-product, in gamma's arrow order, then pi's."""
    hom = {}
    for w in pi.arrows:
        hom.setdefault((pi.src[w], pi.tgt[w]), []).append(w)
    return [(g, w) for g in gamma.arrows for w in hom.get((phi[gamma.src[g]], phi[gamma.tgt[g]]), ())]


def make_gauge(total, projection, group, act):
    """The gauge groupoid of a finite principal bundle.

    ``total`` carries a free right action of the one-object groupoid
    ``group`` whose orbits are exactly the fibers of ``projection``.
    Arrows are diagonal orbits of pairs, labeled by a canonical orbit
    representative; the product translates the middle terms by the unique
    matching group element.
    """
    total = tuple(total)
    for x in total:
        if x not in projection:
            raise ValueError("projection is not defined at %r" % (x,))
    points = set(total)
    for x in projection:
        if x not in points:
            raise ValueError("projection is defined at %r, which is not a point of the total space" % (x,))
    action = _group_action(group, total, act)
    check_groupoid_action(action).require("the action tables do not verify")
    unit = group.ident[group.objects[0]]
    base = []
    for x in total:
        if projection[x] not in base:
            base.append(projection[x])
    for x in total:
        for g in group.arrows:
            if projection[act[(x, g)]] != projection[x]:
                raise VerificationError("the action does not preserve fibers")
            if g != unit and act[(x, g)] == x:
                raise VerificationError("the action is not free at %r" % (x,))
    size = Counter(projection[x] for x in total)  # free: a fiber is one orbit iff it has |G| points
    for x in total:
        if size[projection[x]] != len(group.arrows):
            raise VerificationError("the action is not transitive on the fiber over %r" % (projection[x],))

    def canonical(pair):
        x1, x2 = pair
        orbit = [(act[(x1, g)], act[(x2, g)]) for g in group.arrows]
        return min(orbit, key=repr)

    def translate(frm, to):  # exists: the action is transitive on each fiber
        return next(g for g in group.arrows if act[(frm, g)] == to)

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


class _GrpdMap:
    """The fields of both map notions: a base map and one table.  Two maps
    are equal exactly when they have the same class and the same fields, and
    equal maps hash equal."""

    __slots__ = ("base", "_table")

    def __init__(self, base, table):
        self.base = base
        self._table = table

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.base == other.base and self._table == other._table

    def __hash__(self):
        return hash((frozenset(self.base.items()), frozenset(self._table.items())))


class GrpdMorphism(_GrpdMap):
    """An arrow map over a base map; validity is the verifier's verdict."""

    __slots__ = ()
    arrows = _GrpdMap._table


class GrpdComorphism(_GrpdMap):
    """A table on the pullback {(x, w) | phi(x) = src(w)} into the other groupoid."""

    __slots__ = ()
    table = _GrpdMap._table


def pullback_domain(gamma, pi, phi):
    return [
        (x, w)
        for x in gamma.objects
        for w in pi.arrows
        if pi.src[w] == phi[x]
    ]


def check_grpd_morphism(gamma, pi, m):
    """Verify a morphism of groupoids from gamma to pi over its base map.

    Both gamma and pi must pass ``check_groupoid``.  F(g h) == F(g) F(h) is
    checked once on every composable pair.
    """
    report = VerdictReport()
    fault = _base_map_fault(gamma, pi, m.base)
    if fault:
        report.add(fault[0], False, fault[1])
        return report
    for g in gamma.arrows:
        if g not in m.arrows or m.arrows[g] not in pi.arrows:
            report.add("arrow map is total at %r" % (g,), False, "missing or dangling")
            return report
    if len(m.arrows) != len(gamma.arrows):
        extra = [g for g in m.arrows if g not in gamma.src]
        report.add("arrow map is defined only on arrows of gamma", False, "extra arrows: %r" % extra[:3])
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
    image = m.arrows
    bad = [
        (g, h)
        for g, after in _composable(gamma.arrows, gamma.src, gamma.tgt)
        for h in after
        if image[gamma.comp[(g, h)]] != pi.comp[(image[g], image[h])]
    ]
    report.add(
        "products are preserved",
        not bad,
        "composable pairs with broken images: %r" % bad[:3],
    )
    return report


def check_grpd_comorphism(gamma, pi, m):
    """Verify a comorphism from pi to gamma over phi: base(gamma) -> base(pi).

    Both gamma and pi must pass ``check_groupoid``.  The cocycle identity is
    checked once on every pullback pair (x, w) and every z after w.
    """
    report = VerdictReport()
    phi = m.base
    fault = _base_map_fault(gamma, pi, phi)
    if fault:
        report.add(fault[0], False, fault[1])
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
    table = m.table
    bad = []
    for (x, w) in domain:
        g = table[(x, w)]
        for z in after[w]:
            if table[(x, pi.comp[(w, z)])] != gamma.comp[(g, table[(gamma.tgt[g], z)])]:
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


def graph_subgroupoid_check(gamma, pi, phi, graph):
    """Is the given set of pairs a wide subgroupoid of the phi-product?

    A base map that is not a map from gamma's objects to pi's fails as in
    the direct verifiers.
    """
    report = VerdictReport()
    fault = _base_map_fault(gamma, pi, phi)
    if fault:
        report.add(fault[0], False, fault[1])
        return report
    arrows = _phi_arrows(gamma, pi, phi)
    arrow_set = set(arrows)
    outside = [p for p in graph if p not in arrow_set]
    report.add(
        "graph lies inside the phi-product",
        not outside,
        "pairs outside: %r" % sorted(outside, key=repr)[:3],
    )
    if outside:
        return report
    missing = [x for x in gamma.objects if (gamma.ident[x], pi.ident[phi[x]]) not in graph]
    report.add(
        "graph contains every identity of the base",
        not missing,
        "objects without identities: %r" % missing[:3],
    )
    members = [p for p in arrows if p in graph]
    bad = [p for p in members if (gamma.inv[p[0]], pi.inv[p[1]]) not in graph]
    report.add("graph is closed under inversion", not bad, "arrows: %r" % bad[:3])
    mul = _componentwise(gamma, pi)  # products of member pairs only
    src = {p: gamma.src[p[0]] for p in members}
    tgt = {p: gamma.tgt[p[0]] for p in members}
    bad = [(p, q) for p, after in _composable(members, src, tgt) for q in after if mul(p, q) not in graph]
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
    """Verify the action tables; the groupoid must pass ``check_groupoid``."""
    report = VerdictReport()
    g = action.groupoid
    objects = set(g.objects)
    covered = {action.projection[z] for z in action.space}
    report.add(
        "projection is onto the base",
        covered == objects,
        lambda: "uncovered objects: %r; points over non-objects: %r" % (
            sorted(objects - covered, key=repr),
            sorted((z for z in action.space if action.projection[z] not in objects), key=repr),
        ),
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
            "arrow %r: table %r is not a bijection %r -> %r"
            % (a, table, source_fiber, sorted(target_fiber, key=repr)),
        )
    if not report.verdict:
        return report
    bad = [
        x
        for x in g.objects
        if any(action.maps[g.ident[x]][z] != z for z in action.fiber(x))
    ]
    report.add("identities act as the identity", not bad, "objects: %r" % bad[:3])
    t = _Tables(g)
    maps = [action.maps[a] for a in g.arrows]
    fibers = [action.fiber(x) for x in g.objects]

    def violations(middles):
        return [
            (g.arrows[a], g.arrows[b], z)
            for a, row in enumerate(t.rows)
            for b, ab in zip(t.leaving[t.tgt[a]], row)
            if b in middles
            for z in fibers[t.src[a]]
            if maps[ab][z] != maps[b][maps[a][z]]
        ]

    bad = _law_faults(violations, t)
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


def induced_groupoid_action(omega, gamma, m):
    """Extract the action encoded by a comorphism over a fibred base map.

    ``m`` is a verified comorphism from gamma to omega over its base map
    phi = ``m.base`` (omega's base is the space), which the action takes as
    its projection.  Each arrow acts by following its pullback arrow to its
    target; the verdict checks all action axioms exhaustively.
    """
    check_grpd_comorphism(omega, gamma, m).require(
        "the comorphism data does not verify"
    )
    space, phi = omega.objects, m.base
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


def iter_candidate_maps(gamma, pi, phi, kind):
    """All typing-compatible candidates for one map kind over phi.

    Candidates respect sources and targets pointwise (maps that do not
    cannot pass either the direct verifier or the graph test, since their
    graphs leave the phi-product).  The size of the whole search space is
    spent from the step budget up front.  This is the brute-force oracle
    for ``enumerate_maps``; only tests use it.
    """
    _check_base_map(gamma, pi, phi)
    if kind == "morphism":
        slots, make = list(gamma.arrows), GrpdMorphism
        options = [
            [w for w in pi.arrows if pi.src[w] == phi[gamma.src[g]] and pi.tgt[w] == phi[gamma.tgt[g]]]
            for g in slots
        ]
    elif kind == "comorphism":
        slots, make = pullback_domain(gamma, pi, phi), GrpdComorphism
        options = [
            [h for h in gamma.arrows if gamma.src[h] == x and phi[gamma.tgt[h]] == pi.tgt[w]]
            for (x, w) in slots
        ]
    else:
        raise ValueError("kind must be 'morphism' or 'comorphism'")
    budget().spend("the candidate map space", math.prod(len(opts) for opts in options))
    for combo in itertools.product(*options):
        yield make(dict(phi), dict(zip(slots, combo)))


def _closed_graphs(gamma, pi, phi, kind, steps):
    """The maps of ``enumerate_maps``, one at a time; each option tried spends a step of ``steps``.

    By the graph theorem a map is one of its kind exactly when its graph is
    a wide subgroupoid of the phi-product, so the graphs with one arrow per
    slot that are closed under its product are the maps, and no verifier
    runs.  The slot of an identity takes only that identity.  Each chosen
    pair (p, q) with tgt(p) == src(q) needs p*q at its slot: chosen there
    already, or forced there until that slot is filled.  Products are taken
    componentwise for chosen pairs only.
    """
    _check_base_map(gamma, pi, phi)
    if kind == "morphism":
        slots, make = list(gamma.arrows), GrpdMorphism
        slot_of, value = (lambda p: p[0]), 1
    elif kind == "comorphism":
        slots, make = pullback_domain(gamma, pi, phi), GrpdComorphism
        slot_of, value = (lambda p: (gamma.src[p[0]], p[1])), 0
    else:
        raise ValueError("kind must be 'morphism' or 'comorphism'")
    if not slots:
        yield make(dict(phi), {})
        return
    arrows = _phi_arrows(gamma, pi, phi)
    mul = _componentwise(gamma, pi)
    src, tgt = gamma.src, gamma.tgt
    pos = {s: i for i, s in enumerate(slots)}
    at = {p: pos[slot_of(p)] for p in arrows}  # arrow -> position of its slot
    options = [[] for _ in slots]
    for p in arrows:
        options[at[p]].append(p)
    for x in gamma.objects:
        ident = (gamma.ident[x], pi.ident[phi[x]])
        options[at[ident]] = [ident]
    chosen = []  # the arrow in each filled slot, in slot order
    leaving, arriving = {}, {}  # object -> chosen arrows from / to it
    forced = {}  # slot position -> the product a chosen pair puts there
    undo = []  # per chosen arrow, the positions it forced

    def forces(i, p):
        """The positions that p at slot i forces, or None if p or one of its products clashes."""
        if forced.get(i, p) != p:
            return None
        s, t = src[p[0]], tgt[p[0]]
        products = [mul(p, q) for q in leaving.get(t, ())] + [mul(q, p) for q in arriving.get(s, ())]
        if s == t:
            products.append(mul(p, p))
        new = {}
        for r in products:
            j = at[r]
            held = chosen[j] if j < i else p if j == i else forced.get(j) or new.setdefault(j, r)
            if held != r:
                return None
        return new

    stack = [iter(options[0])]
    while stack:
        i = len(stack) - 1
        if len(chosen) > i:  # take back slot i's arrow before its next option
            p = chosen.pop()
            leaving[src[p[0]]].pop()
            arriving[tgt[p[0]]].pop()
            for j in undo.pop():
                del forced[j]
        for p in stack[i]:
            steps.spend("the map search")
            new = forces(i, p)
            if new is not None:
                break
        else:
            stack.pop()
            continue
        chosen.append(p)
        leaving.setdefault(src[p[0]], []).append(p)
        arriving.setdefault(tgt[p[0]], []).append(p)
        forced.update(new)
        undo.append(new)
        if i + 1 < len(slots):
            stack.append(iter(options[i + 1]))
        else:
            yield make(dict(phi), {slot_of(q): q[value] for q in chosen})


def enumerate_maps(gamma, pi, phi, kind):
    """Every map of one kind over phi, as a closed graph in the phi-product.

    A morphism picks an arrow (g, w) for each arrow g of gamma, a comorphism
    one for each pullback pair (src g, w).  Slots and options come in
    ``iter_candidate_maps`` order, and so do the maps.  A branch is cut as
    soon as two chosen arrows have a product the graph cannot hold; by the
    graph theorem every complete graph is a map, provided both groupoids
    pass ``check_groupoid``.  Each partial map tried spends one step of the
    step budget (see ``budget.step_budget``).
    """
    return list(_closed_graphs(gamma, pi, phi, kind, budget()))


def find_isomorphism(g1, g2):
    """Isomorphism search; returns (object map, arrow map) or None.

    For each bijection of objects, the first morphism over it with an
    injective arrow map.
    """
    if len(g1.objects) != len(g2.objects) or len(g1.arrows) != len(g2.arrows):
        return None

    def hom_profile(g):  # the sizes of all n^2 hom-sets, sorted: the empty ones first
        sizes = Counter((g.src[a], g.tgt[a]) for a in g.arrows)
        return [0] * (len(g.objects) ** 2 - len(sizes)) + sorted(sizes.values())

    if hom_profile(g1) != hom_profile(g2):
        return None
    steps = budget()  # one budget for every bijection
    for perm in itertools.permutations(g2.objects):
        for m in _closed_graphs(g1, g2, dict(zip(g1.objects, perm)), "morphism", steps):
            if len(set(m.arrows.values())) == len(m.arrows):
                return m.base, m.arrows
    return None
