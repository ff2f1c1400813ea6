import random

import pytest

from conftest import ref_anchor, ref_identity_holds, ref_psisum_bracket, sl2
from lra.algebra import AlgebraPres, AlgMorphism
from lra.pseudoalgebra import axioms_check, bracket, make_der, make_klie
from lra import psisum
from lra.psisum import (
    MixedElement,
    PsiSumCtx,
    TripleElement,
    TripleSumCtx,
    _left_bracket,
    direct_sum,
    membership_report,
    psisum_anchor,
    psisum_bracket,
    triple_inclusion_check,
)
from lra.verdict import VerificationError


def square_ctx():
    """E = derivations of Q[x], F = derivations of Q[y], psi: x -> y^2."""
    qx, qy = AlgebraPres.free("x"), AlgebraPres.free("y")
    e, f = make_der(qx), make_der(qy)
    psi = AlgMorphism(qx, qy, [qy.variable(0) ** 2])
    return PsiSumCtx(e, f, psi)


def member_of(ctx, gamma):
    """dx tensor 2y*gamma + gamma*dy; every member has this shape here."""
    y = ctx.f.algebra.variable(0)
    return MixedElement(ctx, [2 * y * gamma], [gamma])


def test_membership_examples():
    ctx = square_ctx()
    qy = ctx.f.algebra
    assert membership_report(ctx, member_of(ctx, qy.one())).verdict
    assert not membership_report(ctx, MixedElement(ctx, [qy.one()], [qy.one()])).verdict


def test_membership_vacuous_for_lie_algebras():
    q = AlgebraPres.scalars()
    ctx = PsiSumCtx(sl2(), make_klie({}, rank=2), AlgMorphism.identity(q))
    rng = random.Random(1)
    for _ in range(10):
        z = MixedElement(
            ctx,
            [q.const(rng.randint(-5, 5)) for _ in range(3)],
            [q.const(rng.randint(-5, 5)) for _ in range(2)],
        )
        assert membership_report(ctx, z).verdict


def test_membership_generator_sufficiency_sampling():
    """Checking the identity on variables matches sampling 20 other elements."""
    ctx = square_ctx()
    qx, qy = ctx.e.algebra, ctx.f.algebra
    x, y = qx.variable(0), qy.variable(0)
    rng = random.Random(9)
    samples = []
    while len(samples) < 20:
        p = qx.const(rng.randint(-4, 4)) + qx.const(rng.randint(-4, 4)) * x ** rng.randint(
            1, 4
        )
        if not p.is_constant():
            samples.append(p)
    candidates = [
        member_of(ctx, qy.one()),
        member_of(ctx, y ** 2 - 3),
        MixedElement(ctx, [qy.one()], [qy.one()]),
        MixedElement(ctx, [y], [qy.zero()]),
    ]
    for z in candidates:
        on_generators = membership_report(ctx, z).verdict
        on_samples = all(ref_identity_holds(ctx, z, a) for a in samples)
        assert on_generators == on_samples


def test_anchor_examples():
    ctx = square_ctx()
    qy = ctx.f.algebra
    y = qy.variable(0)
    z = member_of(ctx, qy.one())
    assert psisum_anchor(ctx, z, y ** 3) == 3 * y ** 2
    zero_f = MixedElement(ctx, [qy.zero()], [qy.zero()])
    assert psisum_anchor(ctx, zero_f, y ** 3).is_zero()
    assert psisum_anchor(ctx, z, qy.const(4)).is_zero()
    with pytest.raises(VerificationError):
        psisum_anchor(ctx, MixedElement(ctx, [qy.one()], [qy.one()]), y)


def test_bracket_example_and_closure():
    ctx = square_ctx()
    qy = ctx.f.algebra
    y = qy.variable(0)
    z1 = member_of(ctx, qy.one())
    z2 = member_of(ctx, y ** 2)
    w = psisum_bracket(ctx, z1, z2)
    # by hand: [m_1, m_{y^2}] = dx (x) 4y^2 + 2y dy
    assert list(w.tensor) == [4 * y ** 2]
    assert list(w.f_part) == [2 * y]
    assert membership_report(ctx, w).verdict
    assert psisum_bracket(ctx, z1, z1).is_zero()
    with pytest.raises(VerificationError, match="not a member"):
        psisum_bracket(ctx, z1, MixedElement(ctx, [qy.one()], [qy.one()]))


def test_bracket_leibniz_rule_over_b():
    ctx = square_ctx()
    qy = ctx.f.algebra
    y = qy.variable(0)
    members = [member_of(ctx, g) for g in (qy.one(), y, y ** 2 - 1)]
    scalars = [y, y ** 2, qy.one() + 2 * y]
    for z1 in members:
        for z2 in members:
            for b in scalars:
                lhs = psisum_bracket(ctx, z1, z2.scale(b), check=False)
                rhs = psisum_bracket(ctx, z1, z2, check=False).scale(b) + z2.scale(
                    psisum_anchor(ctx, z1, b)
                )
                assert lhs == rhs


def test_jacobi_on_members():
    ctx = square_ctx()
    qy = ctx.f.algebra
    y = qy.variable(0)
    rng = random.Random(17)

    def rand_member():
        gamma = qy.const(rng.randint(-3, 3)) + qy.const(rng.randint(-3, 3)) * y ** rng.randint(1, 3)
        return member_of(ctx, gamma)

    def brk(a, b):
        return psisum_bracket(ctx, a, b, check=False)

    for _ in range(20):
        z1, z2, z3 = rand_member(), rand_member(), rand_member()
        total = brk(brk(z1, z2), z3) + brk(brk(z2, z3), z1) + brk(brk(z3, z1), z2)
        assert total.is_zero()


def test_direct_sum_of_der_algebras():
    qx, qy = AlgebraPres.free("x"), AlgebraPres.free("y")
    ds = direct_sum(make_der(qx), make_der(qy))
    assert ds.palg.rank == 2
    assert ds.palg.algebra.variables == ("x", "y")
    assert all(c.is_zero() for c in ds.palg.struct_coeffs(0, 1))
    assert ds.palg.anchors[0].images == (ds.palg.algebra.one(), ds.palg.algebra.zero())
    assert axioms_check(ds.palg).verdict
    assert ds.renamed == {}


def test_direct_sum_renames_collisions():
    qx1, qx2 = AlgebraPres.free("x"), AlgebraPres.free("x")
    ds = direct_sum(make_der(qx1), make_der(qx2))
    assert ds.palg.algebra.variables == ("x", "x_1")
    assert ds.renamed == {"x": "x_1"}


def test_direct_sum_of_lie_algebras():
    g1 = sl2()
    g2 = make_klie({(0, 1): [0, 1]})
    ds = direct_sum(g1, g2)
    assert ds.palg.algebra.arity == 0
    assert ds.palg.rank == 5
    assert axioms_check(ds.palg).verdict
    # cross brackets vanish, block brackets agree with the factors
    assert all(c.is_zero() for c in ds.palg.struct_coeffs(0, 3))
    assert [c.constant_value() for c in ds.palg.struct_coeffs(0, 1)] == [0, 2, 0, 0, 0]
    assert [c.constant_value() for c in ds.palg.struct_coeffs(3, 4)] == [0, 0, 0, 0, 1]


def test_direct_sum_with_zero_rank_factor_is_base_extension():
    from lra.pseudoalgebra import PAlg

    qx, qy = AlgebraPres.free("x"), AlgebraPres.free("y")
    e = make_der(qx)
    f = PAlg(qy, 0, [], {})
    ds = direct_sum(e, f)
    assert ds.palg.rank == e.rank
    assert ds.palg.algebra.variables == ("x", "y")
    assert ds.palg.anchors[0].images == (
        ds.palg.algebra.one(),
        ds.palg.algebra.zero(),
    )


def test_isum_accepts_everything_and_matches_direct_sum():
    g1, g2 = sl2(), make_klie({(0, 1): [0, 1]})
    q = AlgebraPres.scalars()
    ctx = PsiSumCtx(g1, g2, AlgMorphism.identity(q))
    ds = direct_sum(g1, g2)
    rng = random.Random(2)
    for _ in range(25):
        z = MixedElement(
            ctx,
            [q.const(rng.randint(-4, 4)) for _ in range(3)],
            [q.const(rng.randint(-4, 4)) for _ in range(2)],
        )
        assert membership_report(ctx, z).verdict
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            zi = _basis_mixed(ctx, i)
            zj = _basis_mixed(ctx, j)
            w = psisum_bracket(ctx, zi, zj)
            expected = ds.palg.struct_coeffs(i, j)
            flat = list(w.tensor) + list(w.f_part)
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


def triple_data():
    qx, qy, qz = AlgebraPres.free("x"), AlgebraPres.free("y"), AlgebraPres.free("z")
    e, f, g = make_der(qx), make_der(qy), make_der(qz)
    psi = AlgMorphism(qx, qy, [qy.variable(0) ** 2])
    theta = AlgMorphism(qy, qz, [qz.variable(0) ** 3])
    return e, f, g, psi, theta


def test_triple_inclusion_passes_for_constructed_members():
    e, f, g, psi, theta = triple_data()
    ctx = PsiSumCtx(e, f, psi)
    qy, qz = f.algebra, g.algebra
    z3 = qz.variable(0)
    elements = []
    for w_coeff in (qz.one(), z3, z3 ** 2, 1 + z3, 2 * z3 ** 3):
        inner = member_of_ctx(ctx, qy.one())
        c = 3 * z3 ** 2 * w_coeff
        elements.append(([(inner, c)], g.basis(0).scale(w_coeff)))
    report = triple_inclusion_check(e, f, g, psi, theta, elements)
    assert report.verdict, report.render_text()


def test_triple_element_rejects_a_g_part_of_another_pseudoalgebra():
    e, f, g, psi, theta = triple_data()
    ctx = TripleSumCtx(e, f, g, psi, theta)
    with pytest.raises(ValueError, match="not an element of G"):
        TripleElement(ctx, [], f.basis(0))
    w = g.basis(0)
    assert TripleElement(ctx, [], w).g_part is w


def test_triple_witness_does_not_follow_term_order(monkeypatch):
    """The bracket witness renders every part canonically: the same members,
    built with their terms inserted in the other order, give the same text."""
    e, f, g, psi, theta = triple_data()
    ctx = PsiSumCtx(e, f, psi)
    qy, qz = f.algebra, g.algebra
    z3 = qz.variable(0)
    right_bracket = psisum._right_bracket
    # a right association off by a sign, so that every pair fails with a witness
    monkeypatch.setattr(psisum, "_right_bracket", lambda *args: tuple(-z for z in right_bracket(*args)))

    def witnesses(w_coeffs):
        elements = []
        for w_coeff in w_coeffs:
            inner = member_of_ctx(ctx, qy.one())
            elements.append(([(inner, 3 * z3 ** 2 * w_coeff)], g.basis(0).scale(w_coeff)))
        report = triple_inclusion_check(e, f, g, psi, theta, elements)
        return [c.witness for c in report.failures()]

    forward = [qz.one() + z3, z3 ** 2 - 2 * z3]
    backward = [z3 + qz.one(), (-2 * z3) + z3 ** 2]
    assert [list(p.terms) for p in forward] != [list(p.terms) for p in backward]
    assert forward == backward
    text = witnesses(forward)
    assert text == witnesses(backward)
    assert text == [
        "left association gives tensor(6*z^7 + 12*z^6 - 12*z^5) + f(z^2 + 2*z - 2)"
        " / tensor(3*z^4 + 6*z^3 - 6*z^2) + f(z^2 + 2*z - 2),"
        " right gives tensor(-6*z^7 - 12*z^6 + 12*z^5) + f(-z^2 - 2*z + 2)"
        " / tensor(-3*z^4 - 6*z^3 + 6*z^2) + f(-z^2 - 2*z + 2)"
    ]


def member_of_ctx(ctx, gamma):
    y = ctx.f.algebra.variable(0)
    return MixedElement(ctx, [2 * y * gamma], [gamma])


def test_triple_inclusion_trivial_for_lie_algebras():
    q = AlgebraPres.scalars()
    e, f, g = sl2(), make_klie({}, rank=1), make_klie({(0, 1): [0, 1]})
    ident = AlgMorphism.identity(q)
    elements = []
    for coeffs in ([1, 0, 2], [0, 1, 1], [3, -1, 0]):
        inner = MixedElement(
            PsiSumCtx(e, f, ident), [q.const(c) for c in coeffs], [q.one()]
        )
        elements.append(([(inner, q.one())], g.basis(0)))
    report = triple_inclusion_check(e, f, g, ident, ident, elements)
    assert report.verdict


def test_triple_inclusion_rejects_nonmembers():
    e, f, g, psi, theta = triple_data()
    ctx = PsiSumCtx(e, f, psi)
    qy, qz = f.algebra, g.algebra
    bad_inner = MixedElement(ctx, [qy.one()], [qy.one()])
    with pytest.raises(VerificationError, match="non-member"):
        triple_inclusion_check(e, f, g, psi, theta, [([(bad_inner, qz.one())], g.basis(0))])
    good_inner = member_of_ctx(ctx, qy.one())
    with pytest.raises(VerificationError, match="left association"):
        triple_inclusion_check(
            e, f, g, psi, theta, [([(good_inner, qz.one())], g.basis(0))]
        )


def test_triple_sum_matches_the_paper_reference():
    """Rank-2 inner and middle summands over two-variable algebras.

    E = Der(Q[u,v]), F = Der(Q[x,y]), G = Der(Q[z]), psi: u -> x+y, v -> xy,
    theta: x -> z^2, y -> z^3.  Inner members are Y(psi(u_i)) e_i + Y for
    Y = f_j, with outer coefficients W(theta(x_j)) for W = w d/dz.  The
    left-association bracket of every pair, flattened, must equal the
    reference bracket in E + G along theta.psi (E-part) and in F + G along
    theta (F- and G-parts).
    """
    quv, qxy, qz = AlgebraPres.free("u", "v"), AlgebraPres.free("x", "y"), AlgebraPres.free("z")
    e, f, g = make_der(quv), make_der(qxy), make_der(qz)
    x, y = qxy.variable(0), qxy.variable(1)
    z = qz.variable(0)
    psi = AlgMorphism(quv, qxy, [x + y, x * y])
    theta = AlgMorphism(qxy, qz, [z ** 2, z ** 3])
    inner_ctx = PsiSumCtx(e, f, psi)
    inner = []
    for j in range(f.rank):
        y_j = f.basis(j).coords
        tensor = [ref_anchor(f, y_j, psi.apply(quv.variable(i))) for i in range(e.rank)]
        inner.append(MixedElement(inner_ctx, tensor, y_j))
    elements = []
    for w in (qz.one(), z, z ** 2 + 1, 2 * z ** 3 - z):
        big_w = g.basis(0).scale(w)
        outer = [ref_anchor(g, big_w.coords, theta.apply(b)) for b in (x, y)]
        elements.append((list(zip(inner, outer)), big_w))

    report = triple_inclusion_check(e, f, g, psi, theta, elements)
    assert report.verdict, report.render_text()
    assert len(report.checks) == 4 + 6

    ctx = TripleSumCtx(e, f, g, psi, theta)
    members = [TripleElement(ctx, parts, g_part) for parts, g_part in elements]
    for n1 in range(len(members)):
        for n2 in range(n1 + 1, len(members)):
            (u1, v1), (u2, v2) = members[n1].flatten(), members[n2].flatten()
            u, v = _left_bracket(ctx, members[n1], members[n2]).flatten()
            ref_e, ref_w = ref_psisum_bracket(ctx.composed, u1, u2)
            ref_f, ref_w_again = ref_psisum_bracket(ctx.right, v1, v2)
            assert (list(u.tensor), list(v.tensor), list(v.f_part)) == (ref_e, ref_f, ref_w)
            assert list(u.f_part) == ref_w == ref_w_again
            assert any(not c.is_zero() for c in u.tensor + v.tensor)


def quotient_ctx():
    """Twisted sum over quotient algebras on both sides."""
    from lra.groebner import IdealPres
    from lra.poly import MPoly

    t = MPoly.variable(1, 0)
    a = AlgebraPres(("x",), IdealPres(1, [t ** 2]))
    b = AlgebraPres(("y",), IdealPres(1, [t ** 4]))
    from lra.algebra import Derivation

    e = make_der(a, [Derivation(a, [a.variable(0)])])   # x d/dx on Q[x]/(x^2)
    f = make_der(b, [Derivation(b, [b.variable(0)])])   # y d/dy on Q[y]/(y^4)
    psi = AlgMorphism(a, b, [b.variable(0) ** 2])
    return PsiSumCtx(e, f, psi)


def test_membership_over_quotient_algebras():
    ctx = quotient_ctx()
    b = ctx.f.algebra
    y = b.variable(0)
    # identity at x: psi(x) * beta = gamma * 2 psi(x), i.e. y^2 beta = 2 y^2 gamma
    member = MixedElement(ctx, [b.const(2)], [b.one()])
    assert membership_report(ctx, member).verdict
    # beta only matters modulo the annihilator of y^2
    shifted = MixedElement(ctx, [b.const(2) + y ** 2], [b.one()])
    assert membership_report(ctx, shifted).verdict
    nonmember = MixedElement(ctx, [b.one()], [b.one()])
    assert not membership_report(ctx, nonmember).verdict
    w = psisum_bracket(ctx, member, shifted)
    assert membership_report(ctx, w).verdict


def test_direct_sum_with_quotient_factor():
    from lra.groebner import IdealPres
    from lra.poly import MPoly
    from lra.algebra import Derivation

    t = MPoly.variable(1, 0)
    a3 = AlgebraPres(("x",), IdealPres(1, [t ** 3]))
    e = make_der(a3, [Derivation(a3, [a3.variable(0)])])
    ds = direct_sum(e, sl2())
    assert ds.palg.rank == 4
    assert ds.palg.algebra.variables == ("x",)
    assert not ds.palg.algebra.is_free()
    assert axioms_check(ds.palg).verdict
