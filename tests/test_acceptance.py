"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line tagged with
its number so the whole gate is readable from the test log.  Every
comparison is exact rational equality; the only tolerances are the
stated wall-clock budgets.
"""

import functools
import itertools
import random
import time

from conftest import (
    action_tables,
    algebras,
    all_base_maps,
    checked_isomorphism,
    comorphism_suite,
    groupoid_corpus,
    morphism_suite,
    s_polynomial,
    sl2,
    sl2_action_images,
)
from lra.algebra import AlgebraPres, AlgMorphism
from lra.groebner import IdealPres, buchberger, normal_form
from lra.groupoid import (
    action_as_comorphism,
    check_groupoid_action,
    check_grpd_comorphism,
    cyclic_group,
    enumerate_maps,
    graph_of_map,
    graph_subgroupoid_check,
    induced_groupoid_action,
    iter_candidate_maps,
    make_direct_product,
    make_gauge,
    make_action_groupoid,
    make_pair,
)
from lra.maps import (
    PAComorphism,
    PAMorphism,
    chain_map_check,
    check_pacomorphism,
    check_pamorphism,
    compose_comorphisms,
    compose_morphisms,
    graph,
    graph_subalgebra_check,
)
from lra.poly import MPoly
from lra.pseudoalgebra import (
    axioms_check,
    make_action,
    make_cotangent_poisson,
    make_der,
    make_klie,
)
from lra.psisum import (
    MixedElement,
    PsiSumCtx,
    direct_sum,
    membership,
    psisum_bracket,
    triple_inclusion_check,
)


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print("ACCEPTANCE %02d %s: FAIL" % (number, title))
                raise
            print("ACCEPTANCE %02d %s: PASS" % (number, title))

        return run

    return wrap


@criterion(1, "axiom suites")
def test_criterion_01_axiom_suites():
    started = time.monotonic()
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        assert axioms_check(make_der(AlgebraPres.free(*names))).verdict
    assert axioms_check(sl2()).verdict
    qx = AlgebraPres.free("x")
    assert axioms_check(make_action(qx, sl2(), sl2_action_images(qx))).verdict
    q3 = AlgebraPres.free("x1", "x2", "x3")
    x1, x2, x3 = (q3.variable(i) for i in range(3))
    z = q3.zero()
    coadjoint = make_cotangent_poisson(
        q3, [[z, 2 * x2, (-2) * x3], [(-2) * x2, z, x1], [2 * x3, -x1, z]]
    )
    assert axioms_check(coadjoint).verdict
    assert time.monotonic() - started < 10.0


def _square_ctx():
    qx, qy = AlgebraPres.free("x"), AlgebraPres.free("y")
    return PsiSumCtx(
        make_der(qx), make_der(qy), AlgMorphism(qx, qy, [qy.variable(0) ** 2])
    )


def _member(ctx, gamma):
    y = ctx.f.algebra.variable(0)
    return MixedElement(ctx, [2 * y * gamma], [gamma])


@criterion(2, "twisted-sum membership and closure")
def test_criterion_02_membership_closure():
    ctx = _square_ctx()
    qy = ctx.f.algebra
    y = qy.variable(0)
    gammas = [
        qy.one(), y, y ** 2, 1 + y, 2 * y ** 3 - 1, y ** 4, 3 * y - 2,
        y ** 2 + y, 5 * y ** 3, 1 - y ** 2, y ** 5 + y,
    ]
    members = [_member(ctx, g) for g in gammas]
    for z in members:
        assert membership(ctx, z)
    pairs = list(itertools.combinations(members, 2))[:50]
    assert len(pairs) == 50
    for z1, z2 in pairs:
        assert membership(ctx, psisum_bracket(ctx, z1, z2))
    rng = random.Random(41)
    for _ in range(20):
        z1, z2, z3 = (members[rng.randrange(len(members))] for _ in range(3))
        total = (
            psisum_bracket(ctx, psisum_bracket(ctx, z1, z2), z3, check=False)
            + psisum_bracket(ctx, psisum_bracket(ctx, z2, z3), z1, check=False)
            + psisum_bracket(ctx, psisum_bracket(ctx, z3, z1), z2, check=False)
        )
        assert total.is_zero()


@criterion(3, "graph theorem equivalence for pseudoalgebra maps")
def test_criterion_03_graph_equivalence():
    m_suite = morphism_suite()
    c_suite = comorphism_suite()
    assert len(m_suite) >= 20 and len(c_suite) >= 20
    agreements = 0
    for label, m in m_suite:
        direct = check_pamorphism(m).verdict
        ctx, gens = graph(m)
        assert direct == graph_subalgebra_check(ctx, gens, "morphism").verdict, label
        agreements += 1
    for label, m in c_suite:
        direct = check_pacomorphism(m).verdict
        ctx, gens = graph(m)
        assert direct == graph_subalgebra_check(ctx, gens, "comorphism").verdict, label
        agreements += 1
    assert agreements == len(m_suite) + len(c_suite)


@criterion(4, "chain-map characterization")
def test_criterion_04_chain_map():
    for label, m in comorphism_suite():
        assert chain_map_check(m).verdict == check_pacomorphism(m).verdict, label


@criterion(5, "category laws")
def test_criterion_05_category_laws():
    alg = algebras()
    dx = make_der(alg["x"])
    dw = make_der(alg["w"])
    ds = make_der(alg["s"])
    duv = make_der(alg["uv"])
    x, w, s = alg["x"].variable(0), alg["w"].variable(0), alg["s"].variable(0)

    c1 = PAComorphism(
        dx, duv, AlgMorphism(alg["uv"], alg["x"], [x, x ** 2]), [[alg["x"].one(), 2 * x]]
    )
    c2 = PAComorphism(dw, dx, AlgMorphism(alg["x"], alg["w"], [w]), [[alg["w"].one()]])
    c3 = PAComorphism(ds, dw, AlgMorphism(alg["w"], alg["s"], [s ** 2]), [[2 * s]])

    chained = compose_comorphisms(c1, c2)
    assert check_pacomorphism(chained).verdict
    assert compose_comorphisms(compose_comorphisms(c1, c2), c3) == compose_comorphisms(
        c1, compose_comorphisms(c2, c3)
    )
    assert compose_comorphisms(PAComorphism.identity(duv), c1) == c1
    assert compose_comorphisms(c1, PAComorphism.identity(dx)) == c1

    dy, dz = make_der(alg["y"]), make_der(alg["z"])
    m1 = PAMorphism(dx, dy, AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]), [dy.basis(0)])
    m2 = PAMorphism(dy, dz, AlgMorphism(alg["y"], alg["z"], [alg["z"].variable(0)]), [dz.basis(0)])
    m3 = PAMorphism(dz, dw, AlgMorphism(alg["z"], alg["w"], [w]), [dw.basis(0)])
    assert check_pamorphism(compose_morphisms(m1, m2)).verdict
    assert compose_morphisms(compose_morphisms(m1, m2), m3) == compose_morphisms(
        m1, compose_morphisms(m2, m3)
    )
    assert compose_morphisms(PAMorphism.identity(dx), m1) == m1
    assert compose_morphisms(m1, PAMorphism.identity(dy)) == m1


@criterion(6, "triple-sum inclusion")
def test_criterion_06_triple_sum():
    qx, qy, qz = AlgebraPres.free("x"), AlgebraPres.free("y"), AlgebraPres.free("z")
    e, f, g = make_der(qx), make_der(qy), make_der(qz)
    psi = AlgMorphism(qx, qy, [qy.variable(0) ** 2])
    theta = AlgMorphism(qy, qz, [qz.variable(0) ** 3])
    ctx = PsiSumCtx(e, f, psi)
    z3 = qz.variable(0)
    elements = []
    for k in range(10):
        w_coeff = qz.const(k + 1) * z3 ** (k % 3)
        inner = _member(ctx, f.algebra.one())
        elements.append(([(inner, 3 * z3 ** 2 * w_coeff)], g.basis(0).scale(w_coeff)))
    assert len(elements) == 10
    report = triple_inclusion_check(e, f, g, psi, theta, elements)
    assert report.verdict, report.render_text()


@criterion(7, "groupoid graph theorem, exhaustive")
def test_criterion_07_groupoid_graph_theorem():
    started = time.monotonic()
    corpus = groupoid_corpus()
    for gamma in corpus.values():
        assert len(gamma.arrows) <= 6
    compared = 0
    for gamma in corpus.values():
        for pi in corpus.values():
            for phi in all_base_maps(gamma, pi):
                for kind in ("morphism", "comorphism"):
                    passing_direct = set(enumerate_maps(gamma, pi, phi, kind))
                    passing_graph = set()
                    for m in iter_candidate_maps(gamma, pi, phi, kind):
                        if graph_subgroupoid_check(gamma, pi, phi, graph_of_map(m)).verdict:
                            passing_graph.add(m)
                        compared += 1
                    assert passing_direct == passing_graph
    assert compared > 500
    assert time.monotonic() - started < 60.0


@criterion(8, "groupoid action round trip")
def test_criterion_08_action_round_trip():
    tables = action_tables()
    assert len(tables) >= 5
    for action in tables:
        report = check_groupoid_action(action)  # S(id) = Id and reversed products
        assert report.verdict
        pair_z, com = action_as_comorphism(action)
        assert check_grpd_comorphism(pair_z, action.groupoid, com).verdict
        recovered, verdict = induced_groupoid_action(
            pair_z, action.groupoid, action.projection, com
        )
        assert verdict.verdict
        assert recovered == action


@criterion(9, "gauge groupoid")
def test_criterion_09_gauge():
    z2 = cyclic_group(2)
    total = [("1", 0), ("1", 1), ("2", 0), ("2", 1)]
    projection = {p: p[0] for p in total}
    act = {((m, a), g): (m, (a + g) % 2) for (m, a) in total for g in z2.arrows}
    gauge = make_gauge(total, projection, z2, act)
    assert len(gauge.arrows) == 8
    one_object_z2 = make_action_groupoid(z2, ["o"], {("o", 0): "o", ("o", 1): "o"})
    model = make_direct_product(make_pair(["1", "2"]), one_object_z2)
    assert checked_isomorphism(gauge, model) is not None
    trivial = cyclic_group(1)
    assert make_gauge(total, {p: p for p in total}, trivial, {(p, 0): p for p in total}) == make_pair(total)


@criterion(10, "identity-sum degeneracy for Lie algebras")
def test_criterion_10_isum():
    e = sl2()
    f = make_klie({(0, 1): [0, 1]})
    q = AlgebraPres.scalars()
    ctx = PsiSumCtx(e, f, AlgMorphism.identity(q))
    ds = direct_sum(e, f)
    rng = random.Random(12)
    for _ in range(40):
        z = MixedElement(
            ctx,
            [q.const(rng.randint(-9, 9)) for _ in range(e.rank)],
            [q.const(rng.randint(-9, 9)) for _ in range(f.rank)],
        )
        assert membership(ctx, z)
    rank = e.rank + f.rank
    for i in range(rank):
        for j in range(rank):
            if i == j:
                continue
            w = psisum_bracket(ctx, _basis_mixed(ctx, i), _basis_mixed(ctx, j))
            flat = list(w.tensor) + list(w.f_part)
            expected = ds.palg.struct_coeffs(i, j)
            assert [c.constant_value() for c in flat] == [
                c.constant_value() for c in expected
            ]


def _basis_mixed(ctx, index):
    q = ctx.f.algebra
    tensor = [q.zero()] * ctx.e.rank
    f_part = [q.zero()] * ctx.f.rank
    if index < ctx.e.rank:
        tensor[index] = q.one()
    else:
        f_part[index - ctx.e.rank] = q.one()
    return MixedElement(ctx, tensor, f_part)


@criterion(11, "Groebner layer properties")
def test_criterion_11_groebner():
    started = time.monotonic()
    x, y = MPoly.variable(2, 0), MPoly.variable(2, 1)
    ideals = [
        IdealPres(2, []),
        IdealPres(2, [x ** 2 + y, y]),
        IdealPres(2, [x ** 3 - y, x * y ** 2]),
    ]
    rng = random.Random(99)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-5, 5)
        return MPoly(2, terms)

    for ideal in ideals:
        for _ in range(200):
            p, q = rand_poly(), rand_poly()
            np, nq = ideal.normal_form(p), ideal.normal_form(q)
            assert ideal.normal_form(np) == np
            assert ideal.normal_form(p + q) == ideal.normal_form(np + nq)
            assert ideal.normal_form(p * q) == ideal.normal_form(np * nq)
    for gens in ([x ** 2 + y, y], [x ** 3 - y, x * y ** 2], [x ** 2 + y ** 2 - 1, x * y - 1]):
        basis = buchberger(gens)
        for g in gens:
            assert normal_form(g, basis).is_zero()
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()
    assert time.monotonic() - started < 10.0
