import pytest

from fractions import Fraction

from conftest import (
    _comorphism_with_entry,
    _morphism_with_entry,
    algebras,
    comorphism_suite,
    dense_table,
    morphism_mutants,
    morphism_suite,
    ref_membership,
    ref_psisum_bracket,
    sl2,
)
from test_identities import _sphere_palg
from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.groebner import IdealPres
from lra.poly import MPoly
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
    induced_infinitesimal_action,
)
from lra.pseudoalgebra import PAElement, PAlg, axioms_check, make_cotangent_poisson, make_der, make_klie
from lra.psisum import membership_report, psisum_bracket
from lra.verdict import VerificationError


def curve_comorphism():
    alg = algebras()
    dx, duv = make_der(alg["x"]), make_der(alg["uv"])
    x = alg["x"].variable(0)
    psi = AlgMorphism(alg["uv"], alg["x"], [x, x ** 2])
    return PAComorphism(dx, duv, psi, [[alg["x"].one(), 2 * x]])


def test_check_pamorphism_examples():
    alg = algebras()
    dx, dy = make_der(alg["x"]), make_der(alg["y"])
    relabel = PAMorphism(
        dx, dy, AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]), [dy.basis(0)]
    )
    assert check_pamorphism(relabel).verdict

    ab = make_klie({}, rank=1)
    incl = AlgMorphism(alg["Q"], alg["x"], [])
    action = PAMorphism(ab, dx, incl, [dx.basis(0)])
    assert check_pamorphism(action).verdict

    x = alg["x"].variable(0)
    abelianized = PAMorphism(
        sl2(), dx, incl, [dx.basis(0).scale(x), dx.basis(0).scale(x), dx.basis(0).scale(x)]
    )
    report = check_pamorphism(abelianized)
    assert not report.verdict
    assert any("bracket condition" in c.name for c in report.failures())


def test_pamorphism_rejects_images_of_another_pseudoalgebra():
    a = AlgebraPres.free("x", "y")
    target = make_der(a)
    other = PAlg(a, 2, [Derivation.zero(a)] * 2)
    ident = AlgMorphism.identity(a)
    with pytest.raises(ValueError, match="element of the target"):
        PAMorphism(target, target, ident, [other.basis(0), target.basis(1)])
    images = [target.basis(1), target.basis(0)]
    m = PAMorphism(target, target, ident, images)
    assert all(stored is given for stored, given in zip(m.images, images))


def test_check_pacomorphism_examples():
    co = curve_comorphism()
    assert check_pacomorphism(co).verdict

    # degenerate zero comorphism between abelian Lie algebras over Q
    q = AlgebraPres.scalars()
    ab = make_klie({}, rank=1)
    zero = PAComorphism(ab, make_klie({}, rank=1), AlgMorphism.identity(q), [[q.zero()]])
    assert check_pacomorphism(zero).verdict

    alg = algebras()
    x = alg["x"].variable(0)
    mutant = PAComorphism(co.source, co.target, co.psi, [[alg["x"].one(), 3 * x]])
    report = check_pacomorphism(mutant)
    assert not report.verdict
    failing = report.failures()[0]
    assert "v" in failing.name and "3*x" in failing.witness


BAD_ANCHOR = "derivation does not preserve the ideal: derivative has normal form 4\\*x\\*y"
BAD_PSI = "morphism does not map the ideal into the ideal: normal form of the image is 3\\*y\\^2"


def test_map_verifiers_require_sound_anchors_and_psi():
    """On the circle Q[x,y]/(x^2+y^2-1), the anchor conditions raise when an anchor is the
    non-derivation (y, x) or psi is the map (x, 2y), which leaves the ideal; a comorphism
    with an all-zero row still reads psi(x_v)."""
    x, y = MPoly.variable(2, 0), MPoly.variable(2, 1)
    circle = AlgebraPres(("x", "y"), IdealPres(2, [x ** 2 + y ** 2 - 1]))
    sound = PAlg(circle, 1, [Derivation(circle, [-y, x])])
    unsound = PAlg(circle, 1, [Derivation(circle, [y, x])])
    ident, stretch = AlgMorphism.identity(circle), AlgMorphism(circle, circle, [x, 2 * y])
    cases = [
        (check_pamorphism, PAMorphism(unsound, sound, ident, [sound.basis(0)]), BAD_ANCHOR),
        (check_pamorphism, PAMorphism(sound, sound, stretch, [sound.basis(0)]), BAD_PSI),
        (check_pacomorphism, PAComorphism(sound, unsound, ident, [[circle.one()]]), BAD_ANCHOR),
        (check_pacomorphism, PAComorphism(sound, sound, stretch, [[circle.one()]]), BAD_PSI),
        (check_pacomorphism, PAComorphism(sound, sound, stretch, [[circle.zero()]]), BAD_PSI),
    ]
    for check, m, message in cases:
        with pytest.raises(VerificationError, match="^%s$" % message):
            check(m)


def test_graph_generators():
    alg = algebras()
    dx, dy = make_der(alg["x"]), make_der(alg["y"])
    relabel = PAMorphism(
        dx, dy, AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]), [dy.basis(0)]
    )
    ctx, gens = graph(relabel)
    assert len(gens) == 1
    assert list(gens[0].tensor) == [alg["y"].one()]
    assert list(gens[0].f_part) == [alg["y"].one()]

    co = curve_comorphism()
    ctx2, gens2 = graph(co)
    assert list(gens2[0].tensor) == [alg["x"].one(), 2 * alg["x"].variable(0)]
    assert list(gens2[0].f_part) == [alg["x"].one()]

    zero = PAMorphism(
        dx, dy, AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]), [PAElement(dy, [dy.algebra.zero()] * dy.rank)]
    )
    _, gens3 = graph(zero)
    assert list(gens3[0].tensor) == [alg["y"].one()]
    assert all(c.is_zero() for c in gens3[0].f_part)


def test_graph_theorem_equivalence_morphisms():
    suite = morphism_suite()
    assert len(suite) >= 20
    verdicts = []
    for label, m in suite:
        direct = check_pamorphism(m).verdict
        ctx, gens = graph(m)
        via_graph = graph_subalgebra_check(ctx, gens, "morphism").verdict
        assert direct == via_graph, label
        verdicts.append(direct)
    assert any(verdicts) and not all(verdicts)


def test_graph_theorem_equivalence_comorphisms():
    suite = comorphism_suite()
    assert len(suite) >= 20
    verdicts = []
    for label, m in suite:
        direct = check_pacomorphism(m).verdict
        ctx, gens = graph(m)
        via_graph = graph_subalgebra_check(ctx, gens, "comorphism").verdict
        assert direct == via_graph, label
        verdicts.append(direct)
    assert any(verdicts) and not all(verdicts)


def test_graph_kernels_match_the_paper_reference():
    """Both graph-theorem sides share the library's twisted-sum kernels; the
    reference formulas in conftest keep one comparison independent of them."""
    for label, m in morphism_suite() + comorphism_suite():
        ctx, gens = graph(m)
        for n, z in enumerate(gens):
            assert membership_report(ctx, z).verdict == ref_membership(ctx, z), (label, n)
        for n1 in range(len(gens)):
            for n2 in range(len(gens)):
                w = psisum_bracket(ctx, gens[n1], gens[n2], check=False)
                expected = ref_psisum_bracket(ctx, gens[n1], gens[n2])
                assert (list(w.tensor), list(w.f_part)) == expected, (label, n1, n2)


def test_graph_membership_splits_the_anchor_condition():
    """Graph containment in the sum is exactly the first map condition."""
    suite = comorphism_suite()
    for label, m in suite:
        report = check_pacomorphism(m)
        anchor_ok = all(c.passed for c in report.checks if "anchor" in c.name)
        ctx, gens = graph(m)
        contained = all(membership_report(ctx, z).verdict for z in gens)
        assert anchor_ok == contained, label


def test_chain_map_equivalence():
    for label, m in comorphism_suite():
        assert chain_map_check(m).verdict == check_pacomorphism(m).verdict, label


def test_chain_map_example_fails_at_degree_zero():
    co = curve_comorphism()
    assert chain_map_check(co).verdict
    alg = algebras()
    x = alg["x"].variable(0)
    mutant = PAComorphism(co.source, co.target, co.psi, [[alg["x"].one(), 3 * x]])
    report = chain_map_check(mutant)
    assert not report.verdict
    assert any(c.name.startswith("degree 0 at v") for c in report.failures())


def test_chain_map_over_the_sphere():
    """so(3) acting on Q[x,y,z]/(x^2 + y^2 + z^2 - 1) by rotations: the dual
    map's products leave the normal form, so each pulled-back entry must be
    reduced before the two sides compare and render."""
    sphere, sph = _sphere_palg()
    x, y, z = (sphere.variable(v) for v in range(3))
    identity = PAComorphism.identity(sph)
    assert chain_map_check(identity).verdict and check_pacomorphism(identity).verdict
    mutant = _comorphism_with_entry(_comorphism_with_entry(identity, 0, 1, x * y), 1, 2, x * z)
    assert not check_pacomorphism(mutant).verdict
    report = chain_map_check(mutant)
    assert not report.verdict
    witnesses = {c.name: c.witness for c in report.failures() if c.name.startswith("degree 1")}
    assert witnesses == {
        "degree 1 at the dual covector of e_0":
            "d of the pullback is {(0, 1): 0, (0, 2): 0, (1, 2): 1}"
            " but the pullback of d is {(0, 1): -y^3*z - y*z^3 + y*z, (0, 2): x*y, (1, 2): 1}",
        "degree 1 at the dual covector of e_1":
            "d of the pullback is {(0, 1): -y*z, (0, 2): 2*y^2 + z^2 - 2, (1, 2): x*y}"
            " but the pullback of d is {(0, 1): -x*z, (0, 2): -1, (1, 2): 0}",
        "degree 1 at the dual covector of e_2":
            "d of the pullback is {(0, 1): x*y + 1, (0, 2): -x*z, (1, 2): y*z}"
            " but the pullback of d is {(0, 1): 1, (0, 2): 0, (1, 2): 0}",
    }


def test_composite_comorphism_over_the_sphere():
    """Rows (x, y, z), (y, z, x), (z, x, y) composed with themselves over the so(3) rotations of
    Q[x,y,z]/(x^2 + y^2 + z^2 - 1): entries such as x^2 + y^2 + z^2 leave the normal form and must
    be reduced, so the composite is what the public constructor builds from its rows."""
    sphere, sph = _sphere_palg()
    x, y, z = (sphere.variable(v) for v in range(3))
    m = PAComorphism(sph, sph, AlgMorphism.identity(sphere), [[x, y, z], [y, z, x], [z, x, y]])
    composite = compose_comorphisms(m, m)
    assert composite == PAComorphism(composite.source, composite.target, composite.psi, composite.images)
    assert all(sphere.nf(c) == c for row in composite.images for c in row)
    one, s = sphere.one(), x * y + x * z + y * z
    assert composite.images == ((one, s, s), (s, one, s), (s, s, one))


def test_compose_morphisms_properties():
    alg = algebras()
    dx, dy, dz = make_der(alg["x"]), make_der(alg["y"]), make_der(alg["z"])
    to_y = PAMorphism(dx, dy, AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]), [dy.basis(0)])
    to_z = PAMorphism(dy, dz, AlgMorphism(alg["y"], alg["z"], [alg["z"].variable(0)]), [dz.basis(0)])
    back = PAMorphism(dz, dx, AlgMorphism(alg["z"], alg["x"], [alg["x"].variable(0)]), [dx.basis(0)])

    assert compose_morphisms(PAMorphism.identity(dx), PAMorphism.identity(dx)) == PAMorphism.identity(dx)
    assert compose_morphisms(to_y, to_z).psi.images == (alg["z"].variable(0),)
    left = compose_morphisms(compose_morphisms(to_y, to_z), back)
    right = compose_morphisms(to_y, compose_morphisms(to_z, back))
    assert left == right == PAMorphism.identity(dx)

    incl = AlgMorphism(alg["Q"], alg["x"], [])
    action = PAMorphism(sl2(), dx, incl, sl2_images_as_elements(dx))
    composite = compose_morphisms(action, to_y)
    assert check_pamorphism(composite).verdict

    with pytest.raises(ValueError, match="not composable"):
        compose_morphisms(to_y, back)


def sl2_images_as_elements(der):
    qx = der.algebra
    x = qx.variable(0)
    return [
        der.basis(0).scale((-2) * x),
        der.basis(0),
        der.basis(0).scale(-(x ** 2)),
    ]


def test_compose_comorphisms_properties():
    alg = algebras()
    dx, dw, ds, duv = (
        make_der(alg["x"]),
        make_der(alg["w"]),
        make_der(alg["s"]),
        make_der(alg["uv"]),
    )
    x, w, s = alg["x"].variable(0), alg["w"].variable(0), alg["s"].variable(0)
    c1 = curve_comorphism()  # Dx => Duv over (u,v) -> (x, x^2)
    c2 = PAComorphism(dw, dx, AlgMorphism(alg["x"], alg["w"], [w]), [[alg["w"].one()]])
    c3 = PAComorphism(ds, dw, AlgMorphism(alg["w"], alg["s"], [s ** 2]), [[2 * s]])

    once = compose_comorphisms(c1, c2)
    assert check_pacomorphism(once).verdict
    assert once.psi.images == (w, w ** 2)
    assert once.images[0] == (alg["w"].one(), 2 * w)

    # chain rule through x -> w -> s^2: coefficients (2s, 4s^3)
    chained = compose_comorphisms(once, c3)
    assert check_pacomorphism(chained).verdict
    assert chained.psi.images == (s ** 2, s ** 4)
    assert chained.images[0] == (2 * s, 4 * s ** 3)

    left = compose_comorphisms(compose_comorphisms(c1, c2), c3)
    right = compose_comorphisms(c1, compose_comorphisms(c2, c3))
    assert left == right

    assert compose_comorphisms(PAComorphism.identity(duv), c1) == c1
    assert compose_comorphisms(c1, PAComorphism.identity(dx)) == c1

    with pytest.raises(ValueError, match="not composable"):
        compose_comorphisms(c3, c2)


def test_composition_preserves_validity_across_suites():
    morphisms = [m for _, m in morphism_suite() if check_pamorphism(m).verdict]
    count = 0
    for m1 in morphisms:
        for m2 in morphisms:
            if m1.target == m2.source:
                assert check_pamorphism(compose_morphisms(m1, m2)).verdict
                count += 1
    assert count > 0
    comorphisms = [m for _, m in comorphism_suite() if check_pacomorphism(m).verdict]
    count = 0
    for m1 in comorphisms:
        for m2 in comorphisms:
            if m2.target == m1.source:
                assert check_pacomorphism(compose_comorphisms(m1, m2)).verdict
                count += 1
    assert count > 0


def test_induced_action_examples():
    alg = algebras()
    dx = make_der(alg["x"])
    incl = AlgMorphism(alg["Q"], alg["x"], [])
    ab = make_klie({}, rank=1)
    simple = PAMorphism(ab, dx, incl, [dx.basis(0)])
    ders, report = induced_infinitesimal_action(simple)
    assert report.verdict
    assert ders == [Derivation.partial(alg["x"], 0)]

    full = PAMorphism(sl2(), dx, incl, sl2_images_as_elements(dx))
    ders, report = induced_infinitesimal_action(full)
    assert report.verdict
    # oracle: operator commutators of the three vector fields
    h, e, f = ders
    assert e.commutator(f) == h
    assert h.commutator(e) == Derivation(alg["x"], [alg["x"].const(2)])

    x = alg["x"].variable(0)
    broken = PAMorphism(
        sl2(), dx, incl,
        [dx.basis(0).scale(x), dx.basis(0), dx.basis(0).scale(x ** 2)],
    )
    with pytest.raises(VerificationError):
        induced_infinitesimal_action(broken)


# -- witnesses are rendered only for failing checks ----------------------------


def _quadratic_poisson(names):
    """{x_i, x_j} = c_ij x_i x_j, a Poisson structure for any constants c_ij."""
    c = {(0, 1): Fraction(2), (0, 2): Fraction(3, 2), (1, 2): Fraction(-1)}
    alg = AlgebraPres.free(*names)
    x = [alg.variable(i) for i in range(3)]
    pi = [[x[i] * x[j] * (c[(i, j)] if i < j else -c[(j, i)]) if i != j else alg.zero()
           for j in range(3)] for i in range(3)]
    return make_cotangent_poisson(alg, pi)


def _poisson_maps():
    """psi: x_i -> lam_i y_i with its morphism e_i -> lam_i f_i and comorphism f_j -> e_j / lam_j."""
    lam = (Fraction(3), Fraction(-1), Fraction(1, 2))
    e, f = _quadratic_poisson(("x0", "x1", "x2")), _quadratic_poisson(("y0", "y1", "y2"))
    b = f.algebra
    psi = AlgMorphism(e.algebra, b, [b.variable(i) * lam[i] for i in range(3)])
    m = PAMorphism(e, f, psi, [f.basis(i).scale(lam[i]) for i in range(3)])
    rows = [[b.const(1 / lam[j] if k == j else 0) for k in range(3)] for j in range(3)]
    return e, m, PAComorphism(f, e, psi, rows)


def _verdicts(e, m, cm):
    return [
        axioms_check(e),
        check_pamorphism(m),
        check_pacomorphism(cm),
        chain_map_check(cm),
        graph_subalgebra_check(*graph(m), "morphism"),
        graph_subalgebra_check(*graph(cm), "comorphism"),
    ]


def _count_renders(monkeypatch):
    calls = []
    render = AlgebraPres.render

    def counting(self, p):
        calls.append(p)
        return render(self, p)

    monkeypatch.setattr(AlgebraPres, "render", counting)
    return calls


def test_passing_verdicts_render_no_witness(monkeypatch):
    e, m, cm = _poisson_maps()
    calls = _count_renders(monkeypatch)
    assert all(report.verdict for report in _verdicts(e, m, cm))
    assert calls == []


def test_failing_witnesses_keep_their_text(monkeypatch):
    """One-entry mutants: witnesses read as they did when they were formatted
    eagerly (chain-map and span-residual witnesses: as rendered canonically)."""
    e, m, cm = _poisson_maps()
    y0 = m.target.algebra.variable(0)
    table = dense_table(e)
    table[(0, 1)] = [c + e.algebra.variable(2) for c in table[(0, 1)]]
    broken = PAlg(e.algebra, 3, e.anchors, table)
    mutant, comutant = _morphism_with_entry(m, 1, 2, y0), _comorphism_with_entry(cm, 2, 0, y0)
    lie_mutant = morphism_mutants(PAMorphism.identity(sl2()), 1)[0]
    calls = _count_renders(monkeypatch)
    reports = _verdicts(broken, mutant, comutant)
    reports.append(graph_subalgebra_check(*graph(lie_mutant), "morphism"))
    assert calls and not any(report.verdict for report in reports)
    witnesses = {c.name: c.witness for report in reports for c in report.failures()}
    expected = {
        "anchor respects [e_0, e_1] on x0":
            "anchor of bracket gives -4*x0^2*x1 - 2*x0*x1*x2 - 3/2*x0*x2^2, commutator gives -4*x0^2*x1",
        "Jacobi identity on (e_0, e_1, e_2)": "jacobiator is (x2^2, -3/2*x2^2, 3/2*x0*x2 - x1*x2 - 1/2*x2^2)",
        "anchor condition on e_1 at x0": "psi([e_1, x0]) = 6*y0*y1 but [image, psi(x0)] = -9/2*y0^2*y2 + 6*y0*y1",
        "bracket condition on (e_0, e_1)":
            "image of the bracket is (-6*y1, -6*y0, 6*y0^2)"
            " but bracket of the images is (9/2*y0*y2 - 6*y1, -6*y0, 9/2*y0^2)",
        "anchor condition on f_2 at x1":
            "[f_2, psi(x1)] = -y1*y2 but sum_k b_k psi([e_k, x1]) = -6*y0^2*y1 - y1*y2",
        "bracket condition on (f_0, f_2)":
            "image of the bracket is (3/2*y0^2 + 1/2*y2, 0, 3*y0)"
            " but the bracket formula gives (1/2*y2, 0, 3*y0)",
        "degree 0 at x1":
            "d(psi(x1)) = (-2*y0*y1, 0, -y1*y2)"
            " but the pulled-back differential is (-2*y0*y1, 0, -6*y0^2*y1 - y1*y2)",
        "degree 1 at the dual covector of e_0":
            "d of the pullback is {(0, 1): -2/3*y1, (0, 2): -3/2*y0^2 - 1/2*y2, (1, 2): -y0*y1}"
            " but the pullback of d is {(0, 1): -2/3*y1, (0, 2): -1/2*y2, (1, 2): 2*y0*y1}",
        "generator 1 is a member of the twisted sum":
            "sum_i psi([X_i, x0]) b_i differs from [Y, psi(x0)];"
            " sum_i psi([X_i, x1]) b_i differs from [Y, psi(x1)]",
        "bracket of generators 0 and 1 stays in the span":
            "residual after subtracting the span combination:"
            " tensor(0, 0, 0) + f(0, 2, 0)",
    }
    assert {name: witnesses.get(name) for name in expected} == expected
