import itertools
import random

import pytest

from conftest import (
    action_tables,
    all_base_maps,
    checked_isomorphism,
    composable_oracle,
    disjoint_union,
    groupoid_corpus,
    shuffled_copy,
)
from lra import budget
from lra.budget import ResourceCapExceeded, step_budget
from lra.groupoid import (
    FinGroupoid,
    GrpdComorphism,
    GrpdMorphism,
    GroupoidAction,
    action_as_comorphism,
    check_groupoid,
    check_groupoid_action,
    check_grpd_comorphism,
    check_grpd_morphism,
    compose_grpd_comorphisms,
    compose_grpd_morphisms,
    cyclic_group,
    enumerate_maps,
    find_isomorphism,
    graph_of_map,
    graph_subgroupoid_check,
    induced_groupoid_action,
    iter_candidate_maps,
    make_action_groupoid,
    make_action_groupoid_of_action,
    make_direct_product,
    make_gauge,
    make_pair,
    make_phi_product,
    orbit_condition,
    pullback_domain,
    restrict_groupoid,
)
from lra.verdict import VerificationError

Z2 = cyclic_group(2)
SWAP = {("1", 0): "1", ("2", 0): "2", ("1", 1): "2", ("2", 1): "1"}


def test_check_groupoid_examples():
    p3 = make_pair([1, 2, 3])
    assert check_groupoid(p3).verdict
    broken = FinGroupoid(
        p3.objects, p3.arrows, p3.src, p3.tgt, p3.ident,
        {**p3.inv, (1, 2): (1, 3)}, p3.comp,
    )
    report = check_groupoid(broken)
    assert not report.verdict
    assert "(1, 2)" in report.failures()[0].witness
    az2 = make_action_groupoid(Z2, ["1", "2"], SWAP)
    assert check_groupoid(az2).verdict


def test_make_pair_examples():
    assert len(make_pair([1, 2, 3]).arrows) == 9
    trivial = make_pair(["only"])
    assert len(trivial.arrows) == 1
    p = make_pair([1, 2, 3])
    assert p.orbit(2) == {1, 2, 3}


def test_make_action_groupoid_examples():
    az2 = make_action_groupoid(Z2, ["1", "2"], SWAP)
    assert len(az2.arrows) == 4
    assert az2.tgt[("1", 1)] == "2"
    triv = make_action_groupoid(cyclic_group(1), ["1", "2"], {("1", 0): "1", ("2", 0): "2"})
    assert len(triv.arrows) == 2
    assert all(triv.src[a] == triv.tgt[a] for a in triv.arrows)
    one_object = make_action_groupoid(Z2, ["o"], {("o", 0): "o", ("o", 1): "o"})
    assert len(one_object.objects) == 1 and len(one_object.arrows) == 2
    with pytest.raises(VerificationError):
        make_action_groupoid(Z2, ["1", "2"], {**SWAP, ("1", 0): "2"})
    bijection = r"arrow 0: table \{\} is not a bijection \['a'\] -> \['a'\]"
    with pytest.raises(VerificationError, match=bijection):
        make_action_groupoid(Z2, ["a"], {("a", 1): "a"})


@pytest.mark.parametrize("n", range(1, 9))
def test_cyclic_group_is_a_one_object_groupoid(n):
    zn = cyclic_group(n)
    assert check_groupoid(zn).verdict
    assert zn.objects == (0,) and zn.arrows == tuple(range(n))
    assert zn.comp == {(a, b): (a + b) % n for a in range(n) for b in range(n)}


def test_group_actions_need_a_one_object_groupoid():
    with pytest.raises(ValueError, match="a group is a groupoid with one object, got 2"):
        make_action_groupoid(make_pair(["a", "b"]), ["1"], {})


def test_actions_on_no_points_give_the_empty_groupoid():
    empty = FinGroupoid((), (), {}, {}, {}, {}, {})
    assert make_action_groupoid(Z2, [], {}) == empty
    assert make_gauge([], {}, Z2, {}) == empty


def test_make_direct_product_examples():
    p2 = make_pair([1, 2])
    prod = make_direct_product(p2, make_pair(["a", "b"]))
    assert len(prod.arrows) == 16 and len(prod.objects) == 4
    assert check_groupoid(prod).verdict
    az2 = make_action_groupoid(Z2, ["1", "2"], SWAP)
    assert check_groupoid(make_direct_product(p2, az2)).verdict
    trivial = make_pair(["t"])
    again = make_direct_product(p2, trivial)
    assert checked_isomorphism(again, p2) is not None


def test_find_isomorphism_tells_vertex_groups_apart():
    z4 = make_action_groupoid(cyclic_group(4), ["o"], {("o", g): "o" for g in range(4)})
    one_object_z2 = make_action_groupoid(Z2, ["o"], {("o", 0): "o", ("o", 1): "o"})
    klein = make_direct_product(one_object_z2, one_object_z2)
    assert sorted(len(klein.hom(x, y)) for x in klein.objects for y in klein.objects) == [4]
    assert find_isomorphism(z4, klein) is None
    assert find_isomorphism(klein, z4) is None
    assert checked_isomorphism(z4, z4) is not None


def test_find_isomorphism_spends_one_budget(monkeypatch):
    """Every object bijection spends from one budget, so a cap bounds the whole call.

    Z4+Z4+V4 and Z4+V4+V4 share their hom profile but are not isomorphic, so
    all six bijections are searched: 7,478 steps in all, at most 1,545 for
    one, so only a budget for the whole call runs out under a cap of 7,477.
    """
    z4, v4 = cyclic_group(4), make_direct_product(Z2, Z2)
    g1, g2 = disjoint_union(z4, z4, v4), disjoint_union(z4, v4, v4)
    with step_budget(10**6) as steps:
        assert find_isomorphism(g1, g2) is None
    spent = steps.cap - steps.left
    assert spent == 7478
    with step_budget(spent - 1), pytest.raises(ResourceCapExceeded, match="exhausted in the map search"):
        find_isomorphism(g1, g2)
    monkeypatch.setattr(budget, "DEFAULT_STEP_CAP", spent - 1)
    with pytest.raises(ResourceCapExceeded, match="step cap of %d exhausted in the map search" % (spent - 1)):
        find_isomorphism(g1, g2)


def test_make_phi_product_examples():
    p2 = make_pair([1, 2])
    const = make_phi_product(p2, make_pair(["a"]), {1: "a", 2: "a"})
    assert len(const.arrows) == 4
    assert checked_isomorphism(const, p2) is not None

    diagonal = make_phi_product(p2, p2, {1: 1, 2: 2})
    assert len(diagonal.arrows) == 4
    assert {(g, w) for g, w in diagonal.arrows} == {(g, g) for g in p2.arrows}

    matched = make_phi_product(p2, make_pair(["a", "b"]), {1: "a", 2: "b"})
    assert len(matched.arrows) == 4
    assert check_groupoid(matched).verdict


def test_restrict_groupoid_examples():
    assert restrict_groupoid(make_pair([1, 2, 3]), [1, 2]) == make_pair([1, 2])
    empty = restrict_groupoid(make_pair([1, 2]), [])
    assert len(empty.arrows) == 0 and check_groupoid(empty).verdict
    az2 = make_action_groupoid(Z2, ["1", "2"], SWAP)
    r = restrict_groupoid(az2, ["1"])
    assert len(r.arrows) == 1
    assert check_groupoid(r).verdict


def gauge_bundle():
    total = [("1", 0), ("1", 1), ("2", 0), ("2", 1)]
    projection = {p: p[0] for p in total}
    act = {((m, a), g): (m, (a + g) % 2) for (m, a) in total for g in Z2.arrows}
    return total, projection, act


def test_make_gauge_examples():
    total, projection, act = gauge_bundle()
    gauge = make_gauge(total, projection, Z2, act)
    assert len(gauge.arrows) == 8
    assert check_groupoid(gauge).verdict
    one_object_z2 = make_action_groupoid(Z2, ["o"], {("o", 0): "o", ("o", 1): "o"})
    model = make_direct_product(make_pair(["1", "2"]), one_object_z2)
    assert checked_isomorphism(gauge, model) is not None

    trivial = cyclic_group(1)
    pair_like = make_gauge(total, {p: p for p in total}, trivial, {(p, 0): p for p in total})
    assert pair_like == make_pair(total)

    not_free = {((m, a), g): (m, a) for (m, a) in total for g in Z2.arrows}
    with pytest.raises(VerificationError, match="free"):
        make_gauge(total, projection, Z2, not_free)
    with pytest.raises(ValueError, match="^projection is defined at 'zz', which is not a point of the total space$"):
        make_gauge(total, {**projection, "zz": "3"}, Z2, act)


def test_check_grpd_morphism_examples():
    p2 = make_pair([1, 2])
    pxy = make_pair(["x", "y"])
    phi = {1: "x", 2: "y"}
    functor = GrpdMorphism(phi, {(a, b): (phi[a], phi[b]) for (a, b) in p2.arrows})
    assert check_grpd_morphism(p2, pxy, functor).verdict
    ident = GrpdMorphism({x: x for x in p2.objects}, {a: a for a in p2.arrows})
    assert check_grpd_morphism(p2, p2, ident).verdict
    broken = GrpdMorphism(phi, {**functor.arrows, (1, 2): ("x", "x")})
    report = check_grpd_morphism(p2, pxy, broken)
    assert not report.verdict


def test_check_grpd_comorphism_examples():
    action = action_tables()[1]  # one-object Z/2 swapping two points
    pair_z, com = action_as_comorphism(action)
    assert check_grpd_comorphism(pair_z, action.groupoid, com).verdict

    # a transported identification over a bijection of equal-size pair bases
    p2, pab = make_pair(["1", "2"]), make_pair(["a", "b"])
    phi = {"1": "a", "2": "b"}
    inverse = {"a": "1", "b": "2"}
    table = {
        (x, (u, v)): (x, inverse[v])
        for x in p2.objects
        for (u, v) in pab.arrows
        if u == phi[x]
    }
    ported = GrpdComorphism(phi, table)
    assert check_grpd_comorphism(p2, pab, ported).verdict

    bad = dict(com.table)
    bad[("1", ("o", 0))] = ("1", "2")
    assert not check_grpd_comorphism(pair_z, action.groupoid, GrpdComorphism(com.base, bad)).verdict


def _failures(report):
    return [(c.name, c.witness) for c in report.failures()]


@pytest.mark.parametrize("image", [None, ("x", "z")])
def test_morphism_arrow_map_must_be_total(image):
    """An arrow of gamma with no image, or with an image outside pi, is named."""
    p2, pxy = make_pair([1, 2]), make_pair(["x", "y"])
    phi = {1: "x", 2: "y"}
    arrows = {(a, b): (phi[a], phi[b]) for (a, b) in p2.arrows}
    del arrows[(1, 2)]
    if image is not None:
        arrows[(1, 2)] = image
    report = check_grpd_morphism(p2, pxy, GrpdMorphism(phi, arrows))
    assert _failures(report) == [("arrow map is total at (1, 2)", "missing or dangling")]


@pytest.mark.parametrize(
    "key, value, failure",
    [
        (
            ("1", ("a", "b")), None,
            ("table is defined exactly on the pullback", "missing: [('1', ('a', 'b'))], extra: []"),
        ),
        (
            ("1", ("b", "a")), ("1", "2"),
            ("table is defined exactly on the pullback", "missing: [], extra: [('1', ('b', 'a'))]"),
        ),
        (
            ("2", ("b", "a")), ("2", "3"),
            ("table lands in the groupoid", "entries: [('2', ('b', 'a'))]"),
        ),
        (
            ("2", ("b", "a")), ("1", "1"),
            ("sources project to the first component", "entries: [('2', ('b', 'a'))]"),
        ),
        (
            ("1", ("a", "b")), ("1", "1"),
            ("targets are compatible over the base map", "entries: [('1', ('a', 'b'))]"),
        ),
    ],
)
def test_comorphism_table_faults_are_named(key, value, failure):
    """One bad entry of a transported identification fails exactly one check, at that entry."""
    p2, pab = make_pair(["1", "2"]), make_pair(["a", "b"])
    phi = {"1": "a", "2": "b"}
    inverse = {"a": "1", "b": "2"}
    table = {(x, w): (x, inverse[w[1]]) for x, w in pullback_domain(p2, pab, phi)}
    assert check_grpd_comorphism(p2, pab, GrpdComorphism(phi, table)).verdict
    if value is None:
        del table[key]
    else:
        table[key] = value
    assert _failures(check_grpd_comorphism(p2, pab, GrpdComorphism(phi, table))) == [failure]


@pytest.mark.parametrize(
    "table, entry, name",
    [
        ("ident", {2: None}, "identity arrow of 2 exists"),
        ("ident", {2: (2, 9)}, "identity arrow of 2 exists"),
        ("src", {(1, 2): 9}, "endpoints of (1, 2) are objects"),
        ("tgt", {(3, 1): None}, "endpoints of (3, 1) are objects"),
    ],
)
def test_check_groupoid_names_missing_or_dangling_entries(table, entry, name):
    """A hand-built table with a missing or dangling entry stops the check at that entry."""
    p3 = make_pair([1, 2, 3])
    tables = {"src": dict(p3.src), "tgt": dict(p3.tgt), "ident": dict(p3.ident)}
    for key, value in entry.items():
        if value is None:
            del tables[table][key]
        else:
            tables[table][key] = value
    broken = FinGroupoid(
        p3.objects, p3.arrows, tables["src"], tables["tgt"], tables["ident"], p3.inv, p3.comp
    )
    assert _failures(check_groupoid(broken)) == [(name, "missing or dangling")]


def test_action_names_an_arrow_without_a_map():
    """An action table with no map for one arrow fails that arrow's check alone."""
    action = action_tables()[1]
    maps = {a: table for a, table in action.maps.items() if a != ("o", 1)}
    broken = GroupoidAction(action.groupoid, action.space, action.projection, maps)
    report = check_groupoid_action(broken)
    assert _failures(report) == [("arrow ('o', 1) acts", "no map assigned")]


def test_graph_subgroupoid_examples():
    p2 = make_pair([1, 2])
    pxy = make_pair(["x", "y"])
    phi = {1: "x", 2: "y"}
    functor = GrpdMorphism(phi, {(a, b): (phi[a], phi[b]) for (a, b) in p2.arrows})
    assert graph_subgroupoid_check(p2, pxy, phi, graph_of_map(functor)).verdict

    action = action_tables()[1]
    pair_z, com = action_as_comorphism(action)
    assert graph_subgroupoid_check(
        pair_z, action.groupoid, com.base, graph_of_map(com)
    ).verdict

    broken = GrpdMorphism(phi, {**functor.arrows, (1, 2): ("x", "x")})
    assert not graph_subgroupoid_check(p2, pxy, phi, graph_of_map(broken)).verdict


def test_typing_violation_fails_both_tests():
    """Maps outside the typed universe fail the verifier and the graph test."""
    p2 = make_pair([1, 2])
    pxy = make_pair(["x", "y"])
    phi = {1: "x", 2: "y"}
    wrong = GrpdMorphism(
        phi, {a: ("x", "x") for a in p2.arrows}
    )  # sends everything to one loop
    assert not check_grpd_morphism(p2, pxy, wrong).verdict
    assert not graph_subgroupoid_check(p2, pxy, phi, graph_of_map(wrong)).verdict


def test_graph_theorem_exhaustive_on_corpus():
    corpus = groupoid_corpus()
    checked = 0
    for gname, gamma in corpus.items():
        for pname, pi in corpus.items():
            for phi in all_base_maps(gamma, pi):
                for kind in ("morphism", "comorphism"):
                    for m in iter_candidate_maps(gamma, pi, phi, kind):
                        if kind == "morphism":
                            direct = check_grpd_morphism(gamma, pi, m).verdict
                        else:
                            direct = check_grpd_comorphism(gamma, pi, m).verdict
                        via_graph = graph_subgroupoid_check(gamma, pi, phi, graph_of_map(m)).verdict
                        assert direct == via_graph, (gname, pname, phi, kind, m)
                        checked += 1
    assert checked > 500


def test_enumerate_maps_examples():
    p1 = make_pair(["p"])
    assert len(enumerate_maps(p1, p1, {"p": "p"}, "morphism")) == 1

    # comorphisms between two-point pair groupoids over a bijection: the
    # table is forced to match the unique section, one per bijection
    p2, pab = make_pair(["1", "2"]), make_pair(["a", "b"])
    bijections = [{"1": "a", "2": "b"}, {"1": "b", "2": "a"}]
    per_bijection = [len(enumerate_maps(p2, pab, phi, "comorphism")) for phi in bijections]
    assert per_bijection == [1, 1]

    one_object_z2 = make_action_groupoid(Z2, ["o"], {("o", 0): "o", ("o", 1): "o"})
    ms = enumerate_maps(one_object_z2, make_pair(["1", "2"]), {"o": "1"}, "morphism")
    assert len(ms) == 1  # only the trivial homomorphism into trivial isotropy


def test_enumerate_respects_cap():
    z3 = cyclic_group(3)
    g = make_action_groupoid(z3, ["o"], {("o", k): "o" for k in range(3)})
    with step_budget(10), pytest.raises(ResourceCapExceeded, match="in the candidate map space"):
        list(iter_candidate_maps(g, g, {"o": "o"}, "morphism"))


def trivial_bundle(k, m):
    """The trivial Z_k-bundle over m objects, Z_k on one object, and the constant base map."""
    zk = cyclic_group(k)
    objects = ["o%d" % n for n in range(m)]
    gamma = make_action_groupoid(zk, objects, {(x, g): x for x in objects for g in range(k)})
    pi = make_action_groupoid(zk, ["t"], {("t", g): "t" for g in range(k)})
    return gamma, pi, {x: "t" for x in objects}


def brute_force_maps(gamma, pi, phi, kind):
    check = check_grpd_morphism if kind == "morphism" else check_grpd_comorphism
    return [m for m in iter_candidate_maps(gamma, pi, phi, kind) if check(gamma, pi, m).verdict]


def test_search_matches_brute_force():
    """The pruned search returns exactly the verified candidates, in candidate order."""
    corpus = groupoid_corpus()
    cases = [
        (gamma, pi, phi)
        for gamma in corpus.values()
        for pi in corpus.values()
        for phi in all_base_maps(gamma, pi)
    ]
    cases.append(trivial_bundle(3, 3))
    for gamma, pi, phi in cases:
        for kind in ("morphism", "comorphism"):
            assert enumerate_maps(gamma, pi, phi, kind) == brute_force_maps(gamma, pi, phi, kind), (
                gamma, pi, phi, kind,
            )
    gamma, pi, phi = trivial_bundle(3, 3)
    assert [len(enumerate_maps(gamma, pi, phi, kind)) for kind in ("morphism", "comorphism")] == [27, 27]


def test_graph_search_is_exact():
    """Every closed graph the search yields is a verified map, also on reordered copies.

    The search calls no verifier, so each map it returns is checked here; on
    copies with shuffled labels and arrow order, where the slots and options
    of the search come in another order, the maps are still exactly the
    verified candidates, in candidate order.
    """
    rng = random.Random(7)
    corpus = list(groupoid_corpus().values())
    copies = [shuffled_copy(g, rng) for g in corpus]
    cases = [
        (gamma, pi, phi)
        for gamma in copies
        for pi in copies
        for phi in all_base_maps(gamma, pi)
    ]
    bundle, zk, _ = trivial_bundle(3, 3)
    gamma, pi = shuffled_copy(bundle, rng), shuffled_copy(zk, rng)
    cases.append((gamma, pi, {x: pi.objects[0] for x in gamma.objects}))
    for gamma, pi, phi in cases:
        for kind in ("morphism", "comorphism"):
            check = check_grpd_morphism if kind == "morphism" else check_grpd_comorphism
            found = enumerate_maps(gamma, pi, phi, kind)
            assert all(check(gamma, pi, m).verdict for m in found), (gamma.arrows, phi, kind)
            assert found == brute_force_maps(gamma, pi, phi, kind), (gamma.arrows, phi, kind)


@pytest.mark.parametrize("k, m", [(4, 2), (6, 2)])
def test_search_finds_every_bundle_map(k, m):
    """Over the constant base map both kinds are g -> a_x g, one a_x per object."""
    gamma, pi, phi = trivial_bundle(k, m)
    objects = gamma.objects
    choices = [dict(zip(objects, a)) for a in itertools.product(range(k), repeat=m)]
    morphisms = {
        GrpdMorphism(phi, {(x, g): ("t", a[x] * g % k) for x in objects for g in range(k)})
        for a in choices
    }
    comorphisms = {
        GrpdComorphism(phi, {(x, ("t", h)): (x, a[x] * h % k) for x in objects for h in range(k)})
        for a in choices
    }
    for kind, expected in (("morphism", morphisms), ("comorphism", comorphisms)):
        found = enumerate_maps(gamma, pi, phi, kind)
        assert len(found) == k ** m
        assert set(found) == expected


def test_search_respects_cap():
    gamma, pi, phi = trivial_bundle(3, 3)
    for kind in ("morphism", "comorphism"):
        with step_budget(10):
            with pytest.raises(ResourceCapExceeded, match="cap of 10 exhausted in the map search"):
                enumerate_maps(gamma, pi, phi, kind)


def test_orbit_condition_necessity_across_corpus():
    corpus = groupoid_corpus()
    observed_failure = False
    for gamma in corpus.values():
        for pi in corpus.values():
            for phi in all_base_maps(gamma, pi):
                for kind in ("morphism", "comorphism"):
                    found = enumerate_maps(gamma, pi, phi, kind)
                    if found:
                        assert orbit_condition(phi, gamma, pi, kind)
                    elif not orbit_condition(phi, gamma, pi, kind):
                        observed_failure = True
    assert observed_failure


def test_orbit_condition_examples():
    p2 = make_pair([1, 2])
    two_islands = restrict_groupoid(make_pair([1]), [1])
    # collapsing map: morphism condition holds into a transitive target
    assert orbit_condition({1: "a", 2: "a"}, p2, make_pair(["a", "b"]), "morphism")
    # comorphism needs the image of each orbit to cover the target orbit
    assert not orbit_condition({1: "a", 2: "a"}, p2, make_pair(["a", "b"]), "comorphism")
    assert two_islands is not None


def test_functoriality_of_map_composition():
    p2 = make_pair([1, 2])
    pab = make_pair(["a", "b"])
    pxy = make_pair(["x", "y"])
    phi1 = {1: "a", 2: "b"}
    phi2 = {"a": "x", "b": "y"}
    m1 = GrpdMorphism(phi1, {(a, b): (phi1[a], phi1[b]) for (a, b) in p2.arrows})
    m2 = GrpdMorphism(phi2, {(a, b): (phi2[a], phi2[b]) for (a, b) in pab.arrows})
    composed = compose_grpd_morphisms(m1, m2)
    assert check_grpd_morphism(p2, pxy, composed).verdict

    # comorphisms: chain the two forced pair-to-pair tables
    c1 = enumerate_maps(p2, pab, phi1, "comorphism")[0]
    c2 = enumerate_maps(pab, pxy, phi2, "comorphism")[0]
    chained = compose_grpd_comorphisms(c1, c2)
    assert check_grpd_comorphism(p2, pxy, chained).verdict


def test_action_round_trips():
    for action in action_tables():
        assert check_groupoid_action(action).verdict
        pair_z, com = action_as_comorphism(action)
        assert check_grpd_comorphism(pair_z, action.groupoid, com).verdict
        recovered, report = induced_groupoid_action(
            pair_z, action.groupoid, action.projection, com
        )
        assert report.verdict
        assert recovered == action


def test_induced_action_requires_surjective_base():
    action = action_tables()[1]
    pair_z, com = action_as_comorphism(action)
    bigger = make_action_groupoid(
        Z2, ["o", "iso"], {("o", 0): "o", ("o", 1): "o", ("iso", 0): "iso", ("iso", 1): "iso"}
    )
    # same swap tables, but the base map misses the extra object entirely
    table = {(z, ("o", g)): image for (z, (_, g)), image in com.table.items()}
    widened = GrpdComorphism(dict(com.base), table)
    assert check_grpd_comorphism(pair_z, bigger, widened).verdict
    with pytest.raises(VerificationError, match="surjective"):
        induced_groupoid_action(pair_z, bigger, dict(com.base), widened)


def test_action_groupoid_of_action():
    action = action_tables()[0]  # tautological swap action
    groupoid, projection = make_action_groupoid_of_action(action)
    assert check_groupoid(groupoid).verdict
    assert len(groupoid.arrows) == 4
    assert check_grpd_morphism(groupoid, action.groupoid, projection).verdict

    # embedding into the phi-product of pair(space) and the groupoid
    pair_z = make_pair(action.space)
    emb = {((z, action.maps[a][z]), a) for (z, a) in groupoid.arrows}
    assert graph_subgroupoid_check(
        pair_z, action.groupoid, action.projection, emb
    ).verdict

    trivial = action_tables()[5]
    identity_groupoid, _ = make_action_groupoid_of_action(trivial)
    assert len(identity_groupoid.arrows) == len(trivial.space)


def test_constructors_pass_check_groupoid():
    for g in groupoid_corpus().values():
        assert check_groupoid(g).verdict
    total, projection, act = gauge_bundle()
    assert check_groupoid(make_gauge(total, projection, Z2, act)).verdict
    p2 = make_pair([1, 2])
    assert check_groupoid(make_direct_product(p2, p2)).verdict
    assert check_groupoid(make_phi_product(p2, p2, {1: 1, 2: 2})).verdict


def test_product_tables_match_the_brute_force_pairs():
    """Builders, validator and verifiers share one composable-pair walk; test it alone."""

    def check(g):
        pairs = composable_oracle(g)
        assert set(g.comp) == set(pairs), g
        assert list(g.composable_pairs()) == pairs, g

    corpus = groupoid_corpus()
    for g in corpus.values():
        check(g)
    for gamma in corpus.values():
        for pi in corpus.values():
            check(make_direct_product(gamma, pi))
            for phi in all_base_maps(gamma, pi):
                check(make_phi_product(gamma, pi, phi))
    total, projection, act = gauge_bundle()
    check(make_gauge(total, projection, Z2, act))
    for action in action_tables():
        check(make_action_groupoid_of_action(action)[0])
    check(make_action_groupoid(Z2, ["1", "2"], SWAP))
    check(restrict_groupoid(make_pair([1, 2, 3]), [1, 3]))
