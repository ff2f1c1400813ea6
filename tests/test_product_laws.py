"""Product laws agree with the full-scan rules of ``tests/conftest.py``.

``check_groupoid`` and ``check_groupoid_action`` scan their product law on a
generating set first; ``check_grpd_morphism`` and ``check_grpd_comorphism``
scan theirs once on every composable pair.  Here each is compared with the
full-scan rule on random groupoids (pair, action, cyclic, direct products,
relabelled copies), on random tables with the right endpoints, and on
one-entry mutants: the verdict and the witnesses must be the same.
"""

from hypothesis import given, settings, strategies as st

from conftest import (
    ref_action_faults,
    ref_associativity_faults,
    ref_closure,
    ref_cocycle_faults,
    ref_morphism_faults,
    ref_table_checks,
    shuffled_copy,
)
from lra.budget import ResourceCapExceeded, step_budget
from lra.groupoid import (
    FinGroupoid,
    GroupoidAction,
    GrpdComorphism,
    GrpdMorphism,
    check_groupoid,
    check_groupoid_action,
    check_grpd_comorphism,
    check_grpd_morphism,
    cyclic_group,
    enumerate_maps,
    make_action_groupoid,
    make_direct_product,
    make_pair,
    pullback_domain,
)
from lra.groupoid import _generators, _Tables

def _cyclic_action(rng):
    """Z/k acting on up to three points through a random permutation of order dividing k."""
    n = rng.randint(1, 3)
    perm = list(range(n))
    rng.shuffle(perm)
    powers = [list(range(n))]
    while len(powers) == 1 or powers[-1] != powers[0]:
        powers.append([perm[x] for x in powers[-1]])
    order = len(powers) - 1
    k = order * rng.randint(1, 2)
    act = {(x, g): powers[g % order][x] for x in range(n) for g in range(k)}
    return make_action_groupoid(cyclic_group(k), range(n), act)


def _small_groupoid(rng):
    kind = rng.choice(["pair", "cyclic", "action"])
    if kind == "pair":
        return make_pair(range(rng.randint(1, 3)))
    if kind == "cyclic":
        return cyclic_group(rng.randint(1, 6))
    return _cyclic_action(rng)


def random_groupoid(rng, limit=40):
    """A pair, cyclic or action groupoid, or a direct product of two, with at most
    ``limit`` arrows; half of them relabelled."""
    g = _small_groupoid(rng)
    while len(g.arrows) > limit:
        g = make_pair(range(rng.randint(1, 2)))
    if rng.random() < 0.4:
        other = _small_groupoid(rng)
        if len(g.arrows) * len(other.arrows) <= limit:
            g = make_direct_product(g, other)
    return shuffled_copy(g, rng) if rng.random() < 0.5 else g


def random_table(rng):
    """Hom-sets of one size k on up to three objects, random products with the right endpoints.

    Mostly neither associative nor unital.
    """
    n, k = rng.randint(1, 3), rng.randint(1, 3)
    arrows = [(x, y, i) for x in range(n) for y in range(n) for i in range(k)]
    comp = {(a, b): (a[0], b[1], rng.randrange(k)) for a in arrows for b in arrows if a[1] == b[0]}
    return FinGroupoid(
        range(n), arrows, {a: a[0] for a in arrows}, {a: a[1] for a in arrows},
        {x: (x, x, 0) for x in range(n)}, {a: (a[1], a[0], a[2]) for a in arrows}, comp,
    )


def product_mutant(g, rng):
    """g with one product changed to another arrow with the same endpoints, when there is one."""
    (a, b), c = rng.choice(sorted(g.comp.items(), key=repr))
    others = [d for d in g.arrows if d != c and g.src[d] == g.src[c] and g.tgt[d] == g.tgt[c]]
    if not others:
        return g
    comp = {**g.comp, (a, b): rng.choice(others)}
    return FinGroupoid(g.objects, g.arrows, g.src, g.tgt, g.ident, g.inv, comp)


def assert_agrees(report, name, faults, prefix):
    """The report's check ``name`` fails exactly on ``faults``, with their first three as witness."""
    (check,) = [c for c in report.checks if c.name == name]
    assert check.passed == (not faults), (name, faults[:3])
    assert check.witness == ("" if not faults else prefix % (faults[:3],))


def table_mutant(g, rng):
    """g with one entry of ident, inv, comp, src or tgt changed.

    The new value is another object or arrow, or a label of neither; a
    product may also be removed, or set on a random pair of arrows.
    """
    tables = {name: dict(getattr(g, name)) for name in ("src", "tgt", "ident", "inv", "comp")}
    name = rng.choice(["ident", "inv", "comp", "src", "tgt"])
    table, roll = tables[name], rng.random()
    if name == "comp" and roll < 0.2:
        del table[rng.choice(sorted(table, key=repr))]
    elif name == "comp" and roll < 0.4:
        table[(rng.choice(g.arrows), rng.choice(g.arrows))] = rng.choice(g.arrows)
    elif roll < 0.5:
        table[rng.choice(sorted(table, key=repr))] = "zz"
    else:
        table[rng.choice(sorted(table, key=repr))] = rng.choice(g.objects if name in ("src", "tgt") else g.arrows)
    return FinGroupoid(g.objects, g.arrows, **tables)


TABLE_CHECKS = (
    "product defined exactly on composable pairs",
    "products have the right endpoints",
    "identities are neutral",
    "inverses cancel on both sides",
)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 3))
def test_table_checks_agree_with_the_definitions(rng, source):
    """Names, order, verdicts and witnesses of the four table checks, against ``ref_table_checks``."""
    make = [random_groupoid, random_table, random_groupoid, random_table][source]
    g = make(rng) if source < 2 else table_mutant(make(rng), rng)
    report = check_groupoid(g)
    assert [(c.name, c.passed, c.witness) for c in report.checks if c.name in TABLE_CHECKS] == ref_table_checks(g)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2))
def test_associativity_on_generators_agrees_with_the_full_scan(rng, source):
    g = [random_groupoid, random_table, lambda r: product_mutant(random_groupoid(r), r)][source](rng)
    faults = ref_associativity_faults(g)
    assert_agrees(check_groupoid(g), "associativity on all composable triples", faults, "triples: %r")


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_generators_generate_every_arrow(rng, table):
    """Each generator lies outside the closure of those before it, and all of them reach every arrow."""
    g = random_table(rng) if table else product_mutant(random_groupoid(rng), rng)
    gens = {g.arrows[a] for a in _generators(_Tables(g))}
    assert ref_closure(g, gens) == set(g.arrows)
    ordered = [a for a in g.arrows if a in gens]
    for n, a in enumerate(ordered):
        assert a not in ref_closure(g, ordered[:n])


def test_generators_of_pair_groupoids_are_few():
    """In arrow order, a pair groupoid on n objects takes 2n - 1 generators and Z/12 takes 0 and 1."""
    for n in range(1, 6):
        g = make_pair(range(n))
        assert len(_generators(_Tables(g))) == 2 * n - 1
    assert _generators(_Tables(cyclic_group(12))) == {0, 1}  # arrow i of Z/12 is i


class _CountedTable(dict):
    """A product table that counts its reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)


def test_a_passing_check_reads_each_product_once():
    """The pair groupoid on 15 objects has 15^3 = 3,375 composable pairs."""
    g = make_pair(range(15))
    g.comp = _CountedTable(g.comp)
    assert check_groupoid(g).verdict
    assert g.comp.reads == 3375


def _maps(rng, gamma, pi, phi, kind):
    """Maps the search finds, one-entry mutants of them, and random candidates that respect
    sources and targets."""
    try:
        with step_budget(10**4):
            found = enumerate_maps(gamma, pi, phi, kind)
    except ResourceCapExceeded:
        found = []
    maps = rng.sample(found, min(3, len(found)))
    if kind == "morphism":
        make, table = GrpdMorphism, (lambda m: m.arrows)
        options = {
            g: [w for w in pi.arrows if pi.src[w] == phi[gamma.src[g]] and pi.tgt[w] == phi[gamma.tgt[g]]]
            for g in gamma.arrows
        }
    else:
        make, table = GrpdComorphism, (lambda m: m.table)
        options = {
            (x, w): [h for h in gamma.arrows if gamma.src[h] == x and phi[gamma.tgt[h]] == pi.tgt[w]]
            for (x, w) in pullback_domain(gamma, pi, phi)
        }
    slots = sorted(options, key=repr)
    for m in list(maps):
        slot = rng.choice(slots)
        maps.append(make(phi, {**table(m), slot: rng.choice(options[slot])}))
    if all(options.values()):
        maps += [make(phi, {s: rng.choice(o) for s, o in options.items()}) for _ in range(3)]
    return maps


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_map_laws_on_generators_agree_with_the_full_scans(rng):
    gamma, pi = random_groupoid(rng, 9), random_groupoid(rng, 12)
    phi = {x: rng.choice(pi.objects) for x in gamma.objects}
    for m in _maps(rng, gamma, pi, phi, "morphism"):
        assert_agrees(check_grpd_morphism(gamma, pi, m), "products are preserved",
                      ref_morphism_faults(gamma, pi, m), "composable pairs with broken images: %r")
    for m in _maps(rng, gamma, pi, phi, "comorphism"):
        assert_agrees(check_grpd_comorphism(gamma, pi, m), "products pull back through the cocycle identity",
                      ref_cocycle_faults(gamma, pi, m), "triples: %r")


def _regular_action(g):
    """g acting on its arrows by right multiplication: h lies over tgt h and h.a = h a."""
    return GroupoidAction(
        g, g.arrows, g.tgt,
        {a: {h: g.comp[(h, a)] for h in g.arrows if g.tgt[h] == g.src[a]} for a in g.arrows},
    )


def _swapped(action, rng):
    """The action with two images of one arrow's map swapped, when a fiber has two points."""
    movable = [a for a in action.groupoid.arrows if len(action.maps[a]) > 1]
    if not movable:
        return action
    a = rng.choice(movable)
    table = dict(action.maps[a])
    y, z = rng.sample(sorted(table, key=repr), 2)
    table[y], table[z] = table[z], table[y]
    return GroupoidAction(action.groupoid, action.space, action.projection, {**action.maps, a: table})


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_action_law_on_generators_agrees_with_the_full_scan(rng):
    action = _regular_action(random_groupoid(rng))
    for _ in range(rng.randint(0, 2)):
        action = _swapped(action, rng)
    report = check_groupoid_action(action)
    assert_agrees(report, "products act in reverse order", ref_action_faults(action), "violations: %r")
