import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import jacobiator, sl2, sl2_action_images
from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.groebner import IdealPres
from lra.poly import MPoly
from lra.pseudoalgebra import (
    KForm,
    PAlg,
    PAElement,
    anchor_apply,
    _anchor_axiom,
    _derivation_checks,
    axioms_check,
    bracket,
    differential,
    make_action,
    make_cotangent_poisson,
    make_der,
    make_klie,
)
from lra.psisum import MixedElement, PsiSumCtx
from lra.restriction import ResidueElement, RestrictionCtx
from lra.verdict import VerificationError


# -- an independent operator oracle -----------------------------------------


def op_apply(element, p):
    """First-order differential operator application, written from scratch."""
    out = MPoly.zero(p.arity)
    for i, coeff in enumerate(element.parent.anchors):
        xi = element.coords[i]
        if xi.is_zero():
            continue
        partial_sum = MPoly.zero(p.arity)
        for v, image in enumerate(coeff.images):
            partial_sum = partial_sum + p.partial(v) * image
        out = out + xi * partial_sum
    return element.parent.algebra.nf(out)


def test_bracket_matches_operator_commutator():
    qx = AlgebraPres.free("x")
    der = make_der(qx)
    x = qx.variable(0)
    X = der.basis(0)
    Y = der.basis(0).scale(x)
    b = bracket(X, Y)
    for p in (x, x ** 2, x ** 3):
        commutator = op_apply(X, op_apply(Y, p)) - op_apply(Y, op_apply(X, p))
        assert op_apply(b, p) == qx.nf(commutator)
    assert b == der.basis(0)  # [d, x d] = d


def test_bracket_antisymmetry_and_zero_anchor():
    qx = AlgebraPres.free("x")
    der = make_der(qx)
    X = der.basis(0).scale(qx.parse("x^2 - 1"))
    assert bracket(X, X).is_zero()
    abelian = make_klie({}, rank=2)
    assert bracket(abelian.basis(0), abelian.basis(1)).is_zero()


def test_anchor_apply_examples():
    qx = AlgebraPres.free("x")
    der = make_der(qx)
    x = qx.variable(0)
    assert anchor_apply(der.basis(0), x ** 2) == 2 * x
    assert anchor_apply(der.basis(0), qx.const(5)).is_zero()
    a3 = AlgebraPres(("x",), IdealPres(1, [MPoly.variable(1, 0) ** 3]))
    e3 = make_der(a3, [Derivation(a3, [a3.variable(0)])])
    # oracle: apply_derivation of x d/dx to x^2, then reduce
    oracle = Derivation(a3, [a3.variable(0)]).apply(a3.variable(0) ** 2)
    assert anchor_apply(e3.basis(0), a3.variable(0) ** 2) == oracle == a3.nf(2 * a3.variable(0) ** 2)


def test_axioms_check_examples():
    assert axioms_check(make_der(AlgebraPres.free("x", "y"))).verdict
    # rank-1 derivations of Q[x]: Jacobi of f d, g d, h d expands symbolically;
    # instance it on d, x d, x^2 d inside the rank-1 module
    qx = AlgebraPres.free("x")
    der = make_der(qx)
    x = qx.variable(0)
    triple = [der.basis(0), der.basis(0).scale(x), der.basis(0).scale(x ** 2)]
    assert jacobiator(*triple).is_zero()

    # mutant of a nilpotent-type table: perturbing [e1,e3] from 0 to e1 breaks
    # Jacobi on (e1,e2,e3) with witness -e3
    heis = make_klie({(0, 1): [0, 0, 1]})
    assert axioms_check(heis).verdict
    q = AlgebraPres.scalars()
    table = {(0, 1): [q.zero(), q.zero(), q.one()], (0, 2): [q.one(), q.zero(), q.zero()]}
    mutant = PAlg(q, 3, [Derivation.zero(q)] * 3, table)
    report = axioms_check(mutant)
    assert not report.verdict
    assert any("Jacobi" in c.name for c in report.failures())


def test_jacobi_on_random_elements_of_passing_palg():
    qx = AlgebraPres.free("x")
    act = make_action(qx, sl2(), sl2_action_images(qx))
    rng = random.Random(11)
    x = qx.variable(0)

    def rand_elem():
        coords = []
        for _ in range(act.rank):
            coords.append(
                qx.const(rng.randint(-3, 3)) + qx.const(rng.randint(-2, 2)) * x ** rng.randint(1, 2)
            )
        return PAElement(act, coords)

    for _ in range(50):
        assert jacobiator(rand_elem(), rand_elem(), rand_elem()).is_zero()


def test_leibniz_compatibility_invariants():
    qx = AlgebraPres.free("x")
    act = make_action(qx, sl2(), sl2_action_images(qx))
    rng = random.Random(3)
    x = qx.variable(0)

    def rand_poly():
        return qx.const(rng.randint(-3, 3)) + qx.const(rng.randint(-3, 3)) * x ** rng.randint(1, 3)

    def rand_elem():
        return PAElement(act, [rand_poly() for _ in range(act.rank)])

    for _ in range(20):
        X, Y, a, b = rand_elem(), rand_elem(), rand_poly(), rand_poly()
        lhs = bracket(X, Y.scale(a))
        rhs = bracket(X, Y).scale(a) + Y.scale(anchor_apply(X, a))
        assert lhs == rhs
        assert anchor_apply(X.scale(a), b) == qx.nf(a * anchor_apply(X, b))


def test_differential_examples():
    qxy = AlgebraPres.free("x", "y")
    der = make_der(qxy)
    a = qxy.parse("x*y")
    da = differential(der, KForm.scalar(der, a))
    assert list(da.data) == [qxy.parse("y"), qxy.parse("x")]
    assert all(c.is_zero() for c in differential(der, KForm.scalar(der, qxy.one())).data)
    for text in ("x", "y", "x^2*y"):
        form = differential(der, KForm.scalar(der, qxy.parse(text)))
        dd = differential(der, form)
        assert all(v.is_zero() for v in dd.data.values())
    with pytest.raises(ValueError, match="degree-2"):
        differential(der, differential(der, da))


def test_square_zero_on_scalars_for_every_constructed_palg():
    qx = AlgebraPres.free("x")
    qxy = AlgebraPres.free("x", "y")
    q3 = AlgebraPres.free("x1", "x2", "x3")
    x1, x2, x3 = (q3.variable(i) for i in range(3))
    z = q3.zero()
    constructed = [
        make_der(qx),
        make_der(qxy),
        make_der(qx, [Derivation.partial(qx, 0), Derivation(qx, [qx.variable(0)])]),
        make_klie({(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}),
        make_action(qx, sl2(), sl2_action_images(qx)),
        make_cotangent_poisson(qxy, [[qxy.zero(), qxy.one()], [-qxy.one(), qxy.zero()]]),
        make_cotangent_poisson(
            q3, [[z, 2 * x2, (-2) * x3], [(-2) * x2, z, x1], [2 * x3, -x1, z]]
        ),
    ]
    for palg in constructed:
        for v in range(palg.algebra.arity):
            form = differential(palg, KForm.scalar(palg, palg.algebra.variable(v)))
            again = differential(palg, form)
            assert all(value.is_zero() for value in again.data.values())


def test_differential_pairs_with_anchor():
    qx = AlgebraPres.free("x")
    act = make_action(qx, sl2(), sl2_action_images(qx))
    rng = random.Random(23)
    x = qx.variable(0)
    for _ in range(20):
        a = qx.const(rng.randint(-3, 3)) * x ** rng.randint(0, 3)
        X = PAElement(act, [qx.const(rng.randint(-2, 2)) * x ** rng.randint(0, 2) for _ in range(3)])
        da = differential(act, KForm.scalar(act, a))
        pairing = qx.nf(sum((c * xi for c, xi in zip(da.data, X.coords)), qx.zero()))
        assert pairing == anchor_apply(X, a)


def test_make_der_examples():
    qx = AlgebraPres.free("x")
    d1 = make_der(qx)
    assert d1.rank == 1
    assert d1.anchors[0] == Derivation.partial(qx, 0)
    x = qx.variable(0)
    d2 = make_der(qx, [Derivation.partial(qx, 0), Derivation(qx, [x])])
    assert list(d2.struct_coeffs(0, 1)) == [qx.one(), qx.zero()]
    dxy = make_der(AlgebraPres.free("x", "y"))
    assert dxy.rank == 2
    assert all(c.is_zero() for c in dxy.struct_coeffs(0, 1))


def test_make_der_requires_expressible_commutators():
    qxy = AlgebraPres.free("x", "y")
    # span of {x d/dy, y d/dx} is not closed: the commutator is x d/dx - y d/dy
    basis = [
        Derivation(qxy, [qxy.zero(), qxy.variable(0)]),
        Derivation(qxy, [qxy.variable(1), qxy.zero()]),
    ]
    with pytest.raises(VerificationError, match="not expressible"):
        make_der(qxy, basis)


def test_make_der_verifies_supplied_structure():
    qx = AlgebraPres.free("x")
    x = qx.variable(0)
    basis = [Derivation.partial(qx, 0), Derivation(qx, [x])]
    good = make_der(qx, basis, structure={(0, 1): [qx.one(), qx.zero()]})
    assert axioms_check(good).verdict
    with pytest.raises(VerificationError, match="do not match"):
        make_der(qx, basis, structure={(0, 1): [qx.zero(), qx.zero()]})


def _numeric_jacobi(table, rank):
    """Independent Jacobi check over Fractions for constant tables."""

    def brk(u, v):
        out = [Fraction(0)] * rank
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if ui and vj and i != j:
                    sign = 1 if i < j else -1
                    row = table.get((min(i, j), max(i, j)), [0] * rank)
                    for k, c in enumerate(row):
                        out[k] += sign * ui * vj * Fraction(c)
        return out

    basis = [[Fraction(int(i == n)) for i in range(rank)] for n in range(rank)]
    for a in range(rank):
        for b in range(rank):
            for c in range(rank):
                total = [
                    p + q + r
                    for p, q, r in zip(
                        brk(brk(basis[a], basis[b]), basis[c]),
                        brk(brk(basis[b], basis[c]), basis[a]),
                        brk(brk(basis[c], basis[a]), basis[b]),
                    )
                ]
                if any(total):
                    return False
    return True


def test_make_klie_examples():
    table = {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}
    assert _numeric_jacobi(table, 3)
    assert axioms_check(make_klie(table)).verdict
    assert axioms_check(make_klie({}, rank=1)).verdict
    broken = {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [0, 1, 0]}
    assert not _numeric_jacobi(broken, 3)
    with pytest.raises(VerificationError, match="Jacobi"):
        make_klie(broken)


def test_make_action_examples():
    qx = AlgebraPres.free("x")
    x = qx.variable(0)
    abelian = make_klie({}, rank=1)
    e = make_action(qx, abelian, [Derivation.partial(qx, 0)])
    assert e.rank == 1 and e.anchors[0] == Derivation.partial(qx, 0)

    # [X, Y] = Y demands [theta(X), theta(Y)] = theta(Y)
    solvable = make_klie({(0, 1): [0, 1]})
    with pytest.raises(VerificationError, match="Lie algebra morphism"):
        make_action(qx, solvable, [Derivation(qx, [x]), Derivation.partial(qx, 0)])
    fixed = make_action(qx, solvable, [Derivation(qx, [-x]), Derivation.partial(qx, 0)])
    assert axioms_check(fixed).verdict

    zero = make_action(qx, sl2(), [Derivation.zero(qx)] * 3)
    assert axioms_check(zero).verdict

    full = make_action(qx, sl2(), sl2_action_images(qx))
    assert axioms_check(full).verdict


def test_make_cotangent_poisson_examples():
    qxy = AlgebraPres.free("x", "y")
    one, zero = qxy.one(), qxy.zero()
    symplectic = make_cotangent_poisson(qxy, [[zero, one], [-one, zero]])
    assert axioms_check(symplectic).verdict
    assert bracket(symplectic.basis(0), symplectic.basis(1)).is_zero()

    trivial = make_cotangent_poisson(qxy, [[zero, zero], [zero, zero]])
    assert axioms_check(trivial).verdict
    assert all(d.images == (qxy.zero(), qxy.zero()) for d in trivial.anchors)

    q3 = AlgebraPres.free("x1", "x2", "x3")
    x1, x2, x3 = (q3.variable(i) for i in range(3))
    z = q3.zero()
    coadjoint = make_cotangent_poisson(
        q3, [[z, 2 * x2, (-2) * x3], [(-2) * x2, z, x1], [2 * x3, -x1, z]]
    )
    assert axioms_check(coadjoint).verdict

    with pytest.raises(VerificationError, match="not Poisson"):
        make_cotangent_poisson(q3, [[z, x1, z], [-x1, z, x2], [z, -x2, z]])
    with pytest.raises(ValueError, match="antisymmetric"):
        make_cotangent_poisson(qxy, [[zero, one], [one, zero]])


def test_make_der_solves_structure_over_quotient_algebras():
    a3 = AlgebraPres(("x",), IdealPres(1, [MPoly.variable(1, 0) ** 3]))
    x = a3.variable(0)
    basis = [Derivation(a3, [x]), Derivation(a3, [x ** 2])]
    e = make_der(a3, basis)
    # [x d, x^2 d] = x^2 d, found by the bounded-degree solver
    assert list(e.struct_coeffs(0, 1)) == [a3.zero(), a3.one()]
    assert axioms_check(e).verdict


def test_line_bracket_formula():
    """[f d, g d] = (f g' - g f') d for the rank-1 derivation module."""
    qx = AlgebraPres.free("x")
    der = make_der(qx)
    for ftext, gtext in (("x", "x^2"), ("x^3 - 1", "2*x"), ("x^2 + x", "x^3")):
        f, g = qx.parse(ftext), qx.parse(gtext)
        value = bracket(der.basis(0).scale(f), der.basis(0).scale(g))
        expected = f * g.partial(0) - g * f.partial(0)
        assert value.coords[0] == expected


# -- the anchor axiom against the operator oracle ------------------------------


def _circle():
    """Q[x,y]/(x^2 + y^2 - 1)."""
    return AlgebraPres(("x", "y"), IdealPres(2, [MPoly.variable(2, 0) ** 2 + MPoly.variable(2, 1) ** 2 - MPoly.one(2)]))


def palg_corpus():
    """The tests/data pseudoalgebras, the constructors' outputs and two circle bundles."""
    from lra import documents as docs

    data = pathlib.Path(__file__).parent / "data"
    out = [docs.to_palg(docs.load_document(path).body) for path in sorted(data.glob("palg_*.json"))]
    qx = AlgebraPres.free("x")
    qxy = AlgebraPres.free("x", "y")
    q3 = AlgebraPres.free("x1", "x2", "x3")
    x1, x2, x3 = (q3.variable(i) for i in range(3))
    z = q3.zero()
    out += [
        make_der(qxy),
        make_der(qx, [Derivation.partial(qx, 0), Derivation(qx, [qx.variable(0)])]),
        make_klie({(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}),
        make_action(qx, sl2(), sl2_action_images(qx)),
        make_cotangent_poisson(q3, [[z, 2 * x2, (-2) * x3], [(-2) * x2, z, x1], [2 * x3, -x1, z]]),
    ]
    circle = _circle()
    x, y = circle.variable(0), circle.variable(1)
    rotation, x_rotation = Derivation(circle, [-y, x]), Derivation(circle, [-x * y, x * x])
    out.append(make_der(circle, [rotation, x_rotation]))
    out.append(PAlg(circle, 2, [rotation, x_rotation], {}))  # wrong table: [R, xR] = -y R
    return out


def anchor_mutants(e):
    """Copies of ``e`` with one anchor image entry plus 1, or times the first variable."""
    alg = e.algebra
    out = []
    for i, delta in enumerate(e.anchors):
        for v, image in enumerate(delta.images):
            values = [image + alg.one()]
            if alg.arity and not image.is_zero():
                values.append(image * alg.variable(0))
            for value in values:
                images = list(delta.images)
                images[v] = value
                anchors = list(e.anchors)
                anchors[i] = Derivation(alg, images)
                out.append(PAlg(alg, e.rank, anchors, e.structure))
    return out


def oracle_anchor_verdicts(e):
    """(name, verdict) of every anchor-axiom check, from op_apply alone.

    Empty when some anchor entry carries an ideal generator outside the
    ideal, because the axiom check stops at that point.
    """
    alg = e.algebra
    units = [e.basis(i) for i in range(e.rank)]
    if any(not op_apply(u, g).is_zero() for u in units for g in alg.ideal.groebner):
        return []
    out = []
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            for v in range(alg.arity):
                a = alg.variable(v)
                lhs = op_apply(e.bracket_basis(i, j), a)
                rhs = alg.nf(op_apply(units[i], op_apply(units[j], a)) - op_apply(units[j], op_apply(units[i], a)))
                out.append(("anchor respects [e_%d, e_%d] on %s" % (i, j, alg.variables[v]), lhs == rhs))
    return out


def test_anchor_axiom_matches_the_operator_oracle():
    verdicts = []
    for e in palg_corpus():
        for candidate in [e] + anchor_mutants(e):
            report = axioms_check(candidate)
            got = [(c.name, c.passed) for c in report.checks if c.name.startswith("anchor respects")]
            assert got == oracle_anchor_verdicts(candidate)
            verdicts += [passed for _, passed in got]
    assert True in verdicts and False in verdicts


def _plane_basis():
    """d/dx, d/dy, x d/dx on Q[x,y], and 1 and 0 there."""
    qxy = AlgebraPres.free("x", "y")
    basis = [Derivation.partial(qxy, 0), Derivation.partial(qxy, 1), Derivation(qxy, [qxy.variable(0), qxy.zero()])]
    return qxy, basis, qxy.one(), qxy.zero()


def test_make_der_table_may_leave_out_a_commuting_pair():
    qxy, basis, one, zero = _plane_basis()
    # [d/dx, d/dy] = 0 and [d/dy, x d/dx] = 0 are left out
    e = make_der(qxy, basis, structure={(0, 2): [one, zero, zero]})
    assert all(c.is_zero() for c in e.struct_coeffs(0, 1))


def test_make_der_table_leaving_out_a_bracket_fails():
    qxy, basis, one, zero = _plane_basis()
    # [d/dx, x d/dx] = d/dx is left out, so it reads as zero
    with pytest.raises(VerificationError, match="do not match"):
        make_der(qxy, basis, structure={(0, 1): [zero] * 3, (1, 2): [zero] * 3})


def test_non_derivations_of_a_quotient_are_rejected():
    circle = _circle()
    x, y = circle.variable(0), circle.variable(1)
    rotation, d_x = Derivation(circle, [-y, x]), Derivation.partial(circle, 0)
    failing = []
    for structure in (None, {}):  # solved for, or supplied: the same axiom report
        with pytest.raises(VerificationError) as err:
            make_der(circle, [rotation, d_x], structure=structure)
        failing.append([c.name for c in err.value.report.failures()])
    assert failing == [["anchor of e_1 is a derivation"]] * 2
    with pytest.raises(VerificationError):
        make_action(circle, make_klie({}, rank=2), [rotation, d_x])


# -- the Jacobi identity against the bracket-based reference --------------------


def _derivation_pool(algebra):
    """Anchor candidates: every one is a derivation of ``algebra``."""
    x, y = algebra.variable(0), algebra.variable(1)
    zero = algebra.zero()
    if algebra.is_free():
        z = algebra.variable(2)
        images = [[algebra.one(), zero, zero], [zero, algebra.one(), zero], [zero, zero, algebra.one()],
                  [-y, x, zero], [x, zero, z], [y * z, zero, zero], [zero, zero, zero]]
    else:
        images = [[-y * f, x * f] for f in (algebra.one(), x, y, x * y, 2 * algebra.one(), zero)]
    return [Derivation(algebra, row) for row in images]


_ALGEBRAS = [AlgebraPres.free("x", "y", "z"), _circle()]


@st.composite
def random_tables(draw):
    """Rank-3/4 pseudoalgebras over Q[x,y,z] or the circle, mostly failing ones."""
    alg = _ALGEBRAS[draw(st.integers(0, 1))]
    rank = draw(st.integers(3, 4))
    pool = _derivation_pool(alg)
    anchors = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(rank)]
    monomials = [alg.one()] + [alg.variable(v) for v in range(alg.arity)] + [alg.variable(0) * alg.variable(1)]
    coefficient = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), 2])

    def entry():
        return sum((draw(coefficient) * m for m in draw(st.lists(st.sampled_from(monomials), max_size=2))),
                   alg.zero())

    table = {(i, j): [entry() for _ in range(rank)] for i in range(rank) for j in range(i + 1, rank)}
    return PAlg(alg, rank, anchors, table)


def reference_axioms_report(e):
    """The axiom report with each Jacobi check decided by the conftest jacobiator."""
    report = _derivation_checks(e.anchors)
    if not report.verdict:
        return report
    _anchor_axiom(report, e.anchors, e.structure)
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            for k in range(j + 1, e.rank):
                jac = jacobiator(e.basis(i), e.basis(j), e.basis(k))
                report.add(
                    "Jacobi identity on (e_%d, e_%d, e_%d)" % (i, j, k),
                    jac.is_zero(),
                    "jacobiator is %s" % e.render_element(jac.coords),
                )
    return report


def test_jacobi_from_the_table_matches_the_bracket():
    """Whole axiom reports agree with the reference on random tables; both
    Jacobi verdicts occur over both algebras."""
    seen = set()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(random_tables())
    def compare(e):
        report = axioms_check(e)
        got = [(c.name, c.passed, c.witness) for c in report.checks]
        assert got == [(c.name, c.passed, c.witness) for c in reference_axioms_report(e).checks]
        seen.update((e.algebra.is_free(), c.passed) for c in report.checks if c.name.startswith("Jacobi"))

    compare()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_anchor_apply_on_constants_keeps_the_ideal_check():
    circle = _circle()
    x, y = circle.variable(0), circle.variable(1)
    e = PAlg(circle, 2, [Derivation(circle, [-y, x]), Derivation.partial(circle, 0)], {})
    for a in (circle.zero(), circle.one(), circle.const(Fraction(-3, 2))):
        assert anchor_apply(e.basis(0), a).is_zero()
        with pytest.raises(VerificationError, match="derivation does not preserve the ideal"):
            anchor_apply(e.basis(1), a)


@pytest.mark.parametrize("owners", ["pseudoalgebras", "twisted sums", "restrictions"])
def test_coordinate_vectors_of_different_owners_do_not_mix(owners):
    """Equal coordinates over unequal owners neither compare equal nor combine."""
    qx, qy = AlgebraPres.free("x"), AlgebraPres.free("y")
    dx, dy = make_der(qx), make_der(qy)
    x, y = qx.variable(0), qy.variable(0)
    if owners == "pseudoalgebras":
        u = dx.basis(0)
        v = PAElement(PAlg(qx, 1, [Derivation(qx, [x])]), [qx.one()])
    elif owners == "twisted sums":
        u = MixedElement(PsiSumCtx(dx, dy, AlgMorphism(qx, qy, [y])), [y], [qy.one()])
        v = MixedElement(PsiSumCtx(dx, dy, AlgMorphism(qx, qy, [y ** 2])), [y], [qy.one()])
    else:
        u = ResidueElement(RestrictionCtx(dx, [x]), [qx.one()])
        v = ResidueElement(RestrictionCtx(dx, [x - 1]), [qx.one()])
    assert u.coords == v.coords and u != v
    for combine in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="elements belong to different %s" % owners):
            combine(u, v)
