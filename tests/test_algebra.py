import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lra import documents as docs
from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.documents import load_document, to_algebra
from lra.budget import ResourceCapExceeded, step_budget
from lra.groebner import IdealPres
from lra.poly import MPoly
from lra.pseudoalgebra import make_der
from lra.restriction import RestrictionCtx
from lra.verdict import VerificationError

from conftest import ref_derive, subs
from test_poly import small_polys

T = MPoly.variable(1, 0)


def quotient(power, name="x"):
    return AlgebraPres((name,), IdealPres(1, [T ** power]))


def test_algebra_presentation_rejects_unit_ideal():
    with pytest.raises(ValueError, match="quotient algebra is zero"):
        AlgebraPres(("x",), IdealPres(1, [T, T - 1]))
    with pytest.raises(ValueError, match="duplicate"):
        AlgebraPres(("x", "x"))


@pytest.mark.parametrize("name", ["x y", "", "1x", "x-1", "x^2", "\u00e9", "x\n", 3, None])
def test_algebra_presentation_rejects_unreadable_names(name):
    """Every name must read back as one variable, or documents written from
    the algebra would not load."""
    with pytest.raises(ValueError, match="bad variable name"):
        AlgebraPres(("x", name))


def test_tensor_renames_are_readable_names():
    a = AlgebraPres(("x", "x_1"))
    t, renaming = a.tensor(AlgebraPres(("x", "y")))
    assert t.variables == ("x", "x_1", "x_2", "y")
    assert renaming == {"x": "x_2"}
    doc = docs.parse_document(docs.render_document(docs.document(t)))
    assert to_algebra(doc.body) == t


def test_scalars_algebra():
    q = AlgebraPres.scalars()
    assert q.arity == 0
    assert q.render(q.const(Fraction(3, 2))) == "3/2"
    assert q.parse("1/2 + 1") == q.const(Fraction(3, 2))


def test_morphism_examples():
    a2, b4, b3 = quotient(2), quotient(4, "y"), quotient(3, "y")
    y = b4.variable(0)
    good = AlgMorphism(a2, b4, [y ** 2])
    assert good.check().verdict
    bad = AlgMorphism(a2, b3, [b3.variable(0)])
    report = bad.check()
    assert not report.verdict
    assert "y" in report.failures()[0].witness
    assert AlgMorphism.identity(a2).check().verdict


def test_apply_morphism_examples():
    a2, b4 = quotient(2), quotient(4, "y")
    y = b4.variable(0)
    m = AlgMorphism(a2, b4, [y ** 2])
    assert m.apply(a2.variable(0)) == y ** 2
    assert m.apply(a2.one()) == b4.one()
    # substitution-then-reduce agrees with reduce-then-substitute
    p = (a2.variable(0) + 1) ** 2
    assert m.apply(p) == m.apply(a2.nf(p)) == b4.nf(2 * y ** 2 + 1)


def test_apply_refuses_invalid_morphism():
    a2, b3 = quotient(2), quotient(3)
    bad = AlgMorphism(a2, b3, [b3.variable(0)])
    with pytest.raises(VerificationError):
        bad.apply(a2.variable(0))


def test_morphism_compose():
    a, b, c = quotient(2), quotient(4), quotient(8)
    m1 = AlgMorphism(a, b, [b.variable(0) ** 2])
    m2 = AlgMorphism(b, c, [c.variable(0) ** 2])
    composite = m1.compose(m2)
    assert composite.check().verdict
    assert composite.apply(a.variable(0)) == c.variable(0) ** 4


def test_derivation_examples():
    a3 = quotient(3)
    x = a3.variable(0)
    euler = Derivation(a3, [x])
    assert euler.check().verdict
    ddx = Derivation(a3, [a3.one()])
    report = ddx.check()
    assert not report.verdict
    assert "3*x^2" in report.failures()[0].witness
    free = AlgebraPres.free("x", "y")
    assert Derivation(free, [free.parse("x*y"), free.parse("y^2")]).check().verdict


def test_apply_derivation_examples():
    free = AlgebraPres.free("x", "y")
    dx = Derivation.partial(free, 0)
    assert free.render(dx.apply(free.parse("x^2*y"))) == "2*x*y"
    assert dx.apply(free.one()).is_zero()
    a3 = quotient(3)
    x = a3.variable(0)
    euler = Derivation(a3, [x])
    assert euler.apply(x ** 2) == a3.nf(2 * x ** 2)
    with pytest.raises(VerificationError):
        Derivation(a3, [a3.one()]).apply(x)


def test_derivation_leibniz_on_random_pairs():
    a = AlgebraPres(("x", "y"), IdealPres(2, [MPoly.variable(2, 0) ** 3]))
    x, y = a.variable(0), a.variable(1)
    d = Derivation(a, [x * y, y ** 2])
    assert d.check().verdict
    rng = random.Random(5)

    def rand_poly():
        out = a.zero()
        for _ in range(rng.randint(1, 4)):
            out = out + a.const(rng.randint(-4, 4)) * x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
        return a.nf(out)

    for _ in range(25):
        p, q = rand_poly(), rand_poly()
        assert d.apply(a.nf(p * q)) == a.nf(d.apply(p) * q + p * d.apply(q))


PLANE = to_algebra(
    load_document(os.path.join(os.path.dirname(__file__), "data", "palg_der_plane.json")).body["algebra"]
)
CIRCLE = AlgebraPres(
    ("x", "y"), IdealPres(2, [MPoly.variable(2, 0) ** 2 + MPoly.variable(2, 1) ** 2 - 1])
)


@pytest.mark.parametrize("case", ["constant", "missing variables", "zero image"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_derivation_apply_is_the_leibniz_sum(case, data):
    """``apply`` agrees with nf(sum_i dp/dx_i * images[i]), built from partials."""
    algebra = data.draw(st.sampled_from([AlgebraPres.free("x", "y", "z"), PLANE, CIRCLE]))
    n = algebra.arity
    p = data.draw(small_polys(arity=n, max_terms=5, max_exp=3))
    if case == "constant":
        p = MPoly.const(n, p.constant_value() + 1)
    elif case == "missing variables":
        kept = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
        p = MPoly(n, {e: c for e, c in p.terms.items() if all(e[i] == 0 or i in kept for i in range(n))})
    if algebra is CIRCLE:
        # the circle's derivations are the multiples of the rotation (-y, x)
        h = data.draw(small_polys(arity=2, max_terms=3, max_exp=2))
        if case == "zero image":
            h = MPoly.zero(2)
        x, y = algebra.variable(0), algebra.variable(1)
        images = [-y * h, x * h]
    else:
        images = [data.draw(small_polys(arity=n, max_terms=3, max_exp=2)) for _ in range(n)]
        if case == "zero image":
            images[data.draw(st.integers(0, n - 1))] = MPoly.zero(n)
    d = Derivation(algebra, images)
    expected = MPoly.zero(n)
    for i, image in enumerate(d.images):
        expected = expected + p.partial(i) * image
    assert d.apply(p) == algebra.nf(expected)


CIRCLE_ENDOMORPHISMS = (
    ("x", "y"), ("y", "x"), ("-x", "y"), ("3/5*x - 4/5*y", "4/5*x + 3/5*y"), ("x", "y*x^2 + y^3"),
)


@pytest.mark.parametrize(
    "case", ["zero", "constant", "variable", "rescaled variable", "monomial", "polynomial"]
)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_shortcuts_match_the_general_path(case, data):
    """``Derivation.apply`` is ``ref_derive`` and ``AlgMorphism.apply`` is
    nf(subs(p, images)), both when the first call fills the table and when
    the second reads it.  The image of one monomial with coefficient 1 is
    the stored table entry itself; every other result owns its term dict."""
    algebra = data.draw(st.sampled_from([AlgebraPres.free("x", "y", "z"), CIRCLE]))
    n = algebra.arity
    v = data.draw(st.integers(0, n - 1))
    coeff = data.draw(st.fractions(-6, 6, max_denominator=4).filter(bool))
    p = {
        "zero": MPoly.zero(n),
        "constant": MPoly.const(n, coeff),
        "variable": MPoly.variable(n, v),
        "rescaled variable": MPoly.variable(n, v).scale(Fraction(2, 3)),
        "monomial": MPoly.monomial(n, data.draw(st.tuples(*[st.integers(0, 3)] * n)), coeff),
        "polynomial": data.draw(small_polys(arity=n, max_terms=5, max_exp=3)),
    }[case]
    if algebra is CIRCLE:
        h = data.draw(small_polys(arity=2, max_terms=3, max_exp=2))
        x, y = algebra.variable(0), algebra.variable(1)
        d = Derivation(algebra, [-y * h, x * h])
        images = data.draw(st.sampled_from(CIRCLE_ENDOMORPHISMS))
        m = AlgMorphism(algebra, algebra, [algebra.parse(text) for text in images])
    else:
        d = Derivation(algebra, [data.draw(small_polys(arity=n, max_terms=3, max_exp=2)) for _ in range(n)])
        images = [data.draw(small_polys(arity=2, max_terms=3, max_exp=2)) for _ in range(n)]
        m = AlgMorphism(algebra, CIRCLE, images)
    assert d.check().verdict and m.check().verdict
    for f, expected in ((d, ref_derive(d, p)), (m, m.target.nf(subs(p, m.images)))):
        first, second = f.apply(p), f.apply(p)
        assert first == second == expected
        assert set(p.terms) <= set(f._table)
        if list(p.terms.values()) == [1]:
            assert first is second is f._table[next(iter(p.terms))]
            continue
        stored = list(f.images) + list(f._table.values()) + [first]
        assert all(second.terms is not q.terms for q in stored)
        assert all(first.terms is not q.terms for q in stored[:-1])


def test_unsound_derivation_raises_over_a_true_table():
    """The table is the Leibniz extension on the free algebra, so the failed
    check leaves true entries behind, and ``apply`` still raises."""
    x, y = CIRCLE.variable(0), CIRCLE.variable(1)
    d = Derivation(CIRCLE, [y, x])
    with pytest.raises(VerificationError, match="derivation does not preserve the ideal"):
        d.apply(x * y)
    assert (2, 0) in d._table and (0, 2) in d._table  # read by the check of x^2 + y^2 - 1
    for exp, entry in d._table.items():
        assert entry == ref_derive(d, MPoly.monomial(2, exp))


@pytest.mark.parametrize("kind", ["derivation", "morphism"])
def test_apply_stopped_by_the_budget_leaves_no_entry(kind):
    """An entry is stored only once its normal form has returned."""
    x, y = CIRCLE.variable(0), CIRCLE.variable(1)
    p = x ** 6 * y ** 6  # the morphism reaches it through more reductions than a cap of 1 allows
    if kind == "derivation":
        f = Derivation(CIRCLE, [-y, x])
        expected = ref_derive(f, p)
    else:
        f = AlgMorphism(CIRCLE, CIRCLE, [y, x])
        expected = CIRCLE.nf(subs(p, f.images))
    assert f.check().verdict
    seeded = dict(f._table)
    with pytest.raises(ResourceCapExceeded), step_budget(1):
        f.apply(p)
    if kind == "derivation":
        assert f._table == seeded
    else:  # the powers below x^6 y^6 that finished before the stop stay
        assert (6, 6) not in f._table
        for exp, entry in f._table.items():
            assert entry == CIRCLE.nf(subs(MPoly.monomial(2, exp), f.images))
    assert f.apply(p) == expected
    assert f._table[(6, 6)] == expected


def test_apply_checks_the_ideal_before_any_shortcut():
    x, y = CIRCLE.variable(0), CIRCLE.variable(1)
    for d in (Derivation(CIRCLE, [CIRCLE.one(), CIRCLE.zero()]), Derivation(CIRCLE, [y, x])):
        assert not d.check().verdict
        for p in (CIRCLE.zero(), CIRCLE.const(3), x, x * y):
            with pytest.raises(VerificationError, match="derivation does not preserve the ideal"):
                d.apply(p)
    stretch = AlgMorphism(CIRCLE, CIRCLE, [x, 2 * y])
    for p in (CIRCLE.zero(), CIRCLE.const(3), y, x * y):
        with pytest.raises(VerificationError, match="morphism does not map the ideal into the ideal"):
            stretch.apply(p)


def test_map_surface_over_the_circle():
    """The printed form, equality, the cached report and the arity errors of
    algebra maps and derivations, and of a restriction's ideal generators."""
    x, y, t = CIRCLE.variable(0), CIRCLE.variable(1), MPoly.variable(1, 0)
    identity = AlgMorphism.identity(CIRCLE)
    assert repr(identity) == "AlgMorphism(x->x, y->y)"
    assert repr(Derivation.partial(CIRCLE, 0)) == "Derivation(x->1, y->0)"
    assert repr(AlgMorphism(CIRCLE, quotient(2, "t"), [t, t ** 3])) == "AlgMorphism(x->t, y->0)"
    assert repr(Derivation(CIRCLE, [-y, x ** 3])) == "Derivation(x->-y, y->-x*y^2 + x)"
    same_images = Derivation(CIRCLE, [x, y])
    assert same_images.images == identity.images
    assert same_images != identity and identity != same_images
    assert not (same_images == identity or identity == same_images)
    assert identity == AlgMorphism(CIRCLE, CIRCLE, [x, y + x ** 2 + y ** 2 - 1])
    assert same_images == Derivation(CIRCLE, [x + x * (x ** 2 + y ** 2 - 1), y])
    for f in (identity, same_images, Derivation(CIRCLE, [-y, x])):
        assert f.check() is f.check()
    rotations = make_der(CIRCLE, [Derivation(CIRCLE, [-y, x])])
    for free in (False, True):
        a = AlgebraPres.free("x", "y") if free else CIRCLE
        parent = make_der(a) if free else rotations
        builds = (
            lambda: AlgMorphism(a, a, [t, a.variable(1)]),
            lambda: AlgMorphism(quotient(2), a, [t]),
            lambda: Derivation(a, [a.variable(0), t]),
            lambda: RestrictionCtx(parent, [t]),
        )
        for build in builds:
            with pytest.raises(ValueError, match="arity"):
                build()


def test_commutator_is_a_derivation():
    free = AlgebraPres.free("x", "y")
    d1 = Derivation(free, [free.parse("x"), free.parse("y")])
    d2 = Derivation(free, [free.parse("y"), free.parse("x^2")])
    comm = d1.commutator(d2)
    assert comm.check().verdict
    p, q = free.parse("x*y"), free.parse("x + y^2")
    lhs = d1.apply(d2.apply(p * q)) - d2.apply(d1.apply(p * q))
    assert comm.apply(p * q) == lhs


def test_tensor_product_presentation():
    a = quotient(2)
    b = AlgebraPres(("x", "z"), IdealPres(2, [MPoly.variable(2, 1) ** 2]))
    t, renaming = a.tensor(b)
    assert t.variables == ("x", "x_1", "z")
    assert renaming == {"x": "x_1"}
    # both lifted relations still hold
    assert t.nf(t.variable("x") ** 2).is_zero()
    assert t.nf(t.variable("z") ** 2).is_zero()
    assert not t.nf(t.variable("x_1") ** 2).is_zero()
