"""Every stored coordinate is in normal form, whatever operation built it.

Sums, differences, negations and rational multiples skip the normal form,
which is Q-linear; products, substitutions and derivation images reduce.
Over the circle Q[x, y]/(x^2 + y^2 - 1) most products need a reduction, so
the invariant is not vacuous there.
"""

from hypothesis import given, settings, strategies as st

from conftest import reduced, stored_reduced
from lra import documents as docs
from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.groebner import IdealPres
from lra.maps import PAComorphism, PAMorphism
from lra.poly import MPoly
from lra.pseudoalgebra import PAElement, PAlg, bracket, make_der
from lra.psisum import MixedElement, PsiSumCtx, psisum_bracket
from lra.restriction import RestrictionCtx, quotient_bracket

_x, _y = MPoly.variable(2, 0), MPoly.variable(2, 1)
CIRCLE = AlgebraPres(("x", "y"), IdealPres(2, [_x ** 2 + _y ** 2 - 1]))
X, Y = CIRCLE.variable(0), CIRCLE.variable(1)
# the rotation field R = -y d/dx + x d/dy and y R; [R, y R] = R(y) R = x R
ROTATION = [Derivation(CIRCLE, [-Y, X]), Derivation(CIRCLE, [-Y * Y, X * Y])]
E = make_der(CIRCLE, ROTATION, {(0, 1): [X, CIRCLE.zero()]})
ROTATE = AlgMorphism(CIRCLE, CIRCLE, [-Y, X])
SUM = PsiSumCtx(E, E, ROTATE)
# zero anchors preserve every ideal, so every element certifies for the quotient
BUNDLE = PAlg(CIRCLE, 2, [Derivation.zero(CIRCLE)] * 2, {(0, 1): [X, Y]})
QUOTIENT = RestrictionCtx(BUNDLE, [X - Y])

polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=4
).map(lambda terms: MPoly(2, terms))
pairs = st.lists(polys, min_size=2, max_size=2)
elements = pairs.map(lambda coords: PAElement(E, coords))
mixed = st.tuples(pairs, pairs).map(lambda parts: MixedElement(SUM, *parts))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@SETTINGS
@given(elements, elements, polys, rationals)
def test_linear_operations_and_scalings(a, b, p, q):
    for v in (a, a + b, a - b, -a, a.scale(q), a.scale(3), a.scale(p)):
        assert stored_reduced(v)


@SETTINGS
@given(elements, elements)
def test_brackets(a, b):
    assert stored_reduced(bracket(a, b))
    assert stored_reduced(bracket(a + b, a.scale(X)))


@SETTINGS
@given(elements, elements, elements, pairs, pairs)
def test_map_images(x, img0, img1, row0, row1):
    assert stored_reduced(PAMorphism(E, E, ROTATE, [img0, img1]).apply(x))
    assert reduced(CIRCLE, PAComorphism(E, E, ROTATE, [row0, row1]).apply(x))


@SETTINGS
@given(mixed, mixed, polys)
def test_twisted_sum_brackets(z1, z2, p):
    for z in (z1, z1 + z2, z1 - z2, z1.scale(p), psisum_bracket(SUM, z1, z2, check=False)):
        assert stored_reduced(z)


@SETTINGS
@given(pairs, pairs)
def test_quotient_brackets(u, w):
    value = quotient_bracket(QUOTIENT, PAElement(BUNDLE, u), PAElement(BUNDLE, w))
    assert stored_reduced(value)


# x^2 + y^2 is 1 on the circle and x^3 is x - x*y^2: neither text is reduced
UNREDUCED = ["x^2 + y^2", "x^3"]


def test_loaded_documents_are_reduced():
    """Loaders parse payloads as written; the constructors they build through reduce."""
    body = docs.palg_document(E).body
    body["anchor"][0] = ["-x^2*y - y^3", "x^3 + x*y^2"]
    body["structure"][0]["coeffs"] = ["x^3 + x*y^2", "x^2 + y^2 - 1"]
    assert docs.to_palg(body) == E

    x = docs.to_element({"coords": UNREDUCED}, E)
    assert stored_reduced(x) and x == PAElement(E, [CIRCLE.one(), X - X * Y * Y])
    assert stored_reduced(docs.to_mixed_element({"tensor": UNREDUCED, "f_part": UNREDUCED[::-1]}, SUM))
    psi = docs.from_algmorphism(ROTATE)
    m = docs.to_pamorphism({"psi": psi, "images": [UNREDUCED, UNREDUCED[::-1]]}, E, E)
    assert all(stored_reduced(img) for img in m.images)
    co = docs.to_pacomorphism({"psi": psi, "images": [UNREDUCED, UNREDUCED[::-1]]}, E, E)
    assert all(reduced(CIRCLE, row) for row in co.images)
