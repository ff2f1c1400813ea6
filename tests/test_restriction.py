import pytest

from conftest import subs
from lra.algebra import AlgebraPres, Derivation
from lra.pseudoalgebra import PAElement, bracket, make_der
from lra.restriction import (
    ResidueElement,
    RestrictionCtx,
    in_lower,
    in_upper,
    quotient_bracket,
)
from lra.verdict import VerificationError


def der_line():
    qx = AlgebraPres.free("x")
    return qx, make_der(qx)


def der_plane():
    qxy = AlgebraPres.free("x", "y")
    return qxy, make_der(qxy)


def test_improper_ideal_rejected():
    qx, der = der_line()
    with pytest.raises(VerificationError, match="not proper"):
        RestrictionCtx(der, [qx.one()])
    with pytest.raises(VerificationError, match="not proper"):
        RestrictionCtx(der, [qx.variable(0), qx.variable(0) - 1])


def test_in_upper_examples():
    qx, der = der_line()
    x = qx.variable(0)
    ctx = RestrictionCtx(der, [x])
    assert in_upper(ctx, der.basis(0).scale(x))      # (x d)(x) = x
    assert not in_upper(ctx, der.basis(0))           # d(x) = 1
    zero_ideal_ctx = RestrictionCtx(der, [qx.zero()])
    assert in_upper(zero_ideal_ctx, der.basis(0))


def test_in_lower_examples():
    qx, der = der_line()
    x = qx.variable(0)
    ctx = RestrictionCtx(der, [x])
    assert in_lower(ctx, der.basis(0).scale(x))
    assert not in_lower(ctx, der.basis(0))
    assert in_lower(ctx, PAElement(der, [qx.zero()] * der.rank))


def test_quotient_bracket_example():
    qxy, der = der_plane()
    x = qxy.variable(0)
    y = qxy.variable(1)
    ctx = RestrictionCtx(der, [y])
    euler_x = der.basis(0).scale(x)
    dx = der.basis(0)
    value = quotient_bracket(ctx, euler_x, dx)
    # [x d/dx, d/dx] = -d/dx, already free of y
    assert value == ResidueElement(ctx, [-qxy.one(), qxy.zero()])
    assert quotient_bracket(ctx, euler_x, euler_x).is_zero()


def test_quotient_bracket_requires_certificates():
    qxy, der = der_plane()
    y = qxy.variable(1)
    ctx = RestrictionCtx(der, [y])
    dy = der.basis(1)  # d/dy moves y outside the ideal
    assert not in_upper(ctx, dy)
    with pytest.raises(VerificationError, match="certified"):
        quotient_bracket(ctx, dy, der.basis(0))


def test_representative_independence():
    qxy, der = der_plane()
    x, y = qxy.variable(0), qxy.variable(1)
    ctx = RestrictionCtx(der, [y])
    X = der.basis(0).scale(x)
    Y = der.basis(0)
    # shifts from the ideal multiples of certified elements
    U = der.basis(1).scale(y)              # y * (y-preserving d/dy)
    V = der.basis(0).scale(y * x ** 2)     # y * (x^2 d/dx)
    assert in_upper(ctx, X + U) and in_upper(ctx, Y + V)
    assert in_lower(ctx, U) and in_lower(ctx, V)
    assert quotient_bracket(ctx, X + U, Y + V) == quotient_bracket(ctx, X, Y)


def test_quotient_bracket_leibniz_rule():
    qxy, der = der_plane()
    x, y = qxy.variable(0), qxy.variable(1)
    ctx = RestrictionCtx(der, [y])
    quotient = ctx.quotient_algebra
    elements = [
        der.basis(0),
        der.basis(0).scale(x),
        der.basis(0).scale(x ** 2 - 1) + der.basis(1).scale(y * x),
    ]
    scalars = [x, x ** 2 + 2, qxy.one() + x]
    for X in elements:
        for Y in elements:
            for a in scalars:
                lhs = quotient_bracket(ctx, X, Y.scale(a))
                parent_rhs = bracket(X, Y).scale(a) + Y.scale(
                    sum(
                        (xi * d.apply(a) for xi, d in zip(X.coords, der.anchors)),
                        qxy.zero(),
                    )
                )
                assert lhs == ResidueElement(ctx, parent_rhs.coords)
                for c in lhs.coords:
                    assert quotient.nf(c) == c


def test_restriction_reproduces_line_derivations():
    """Restricting the plane's derivations along (y) recovers the line's."""
    qxy, der = der_plane()
    qx = AlgebraPres.free("x")
    line = make_der(qx, [Derivation.partial(qx, 0), Derivation(qx, [qx.variable(0)])])
    x, y = qxy.variable(0), qxy.variable(1)
    ctx = RestrictionCtx(der, [y])
    plane_elems = {"d": der.basis(0), "xd": der.basis(0).scale(x)}
    line_elems = {"d": line.basis(0), "xd": line.basis(1)}
    drop_y = [qx.variable(0), qx.zero()]  # substitute y -> 0

    for n1, p1 in plane_elems.items():
        for n2, p2 in plane_elems.items():
            reduced = quotient_bracket(ctx, p1, p2)
            assert reduced.coords[1].is_zero()
            projected = subs(reduced.coords[0], drop_y)
            expected = bracket(line_elems[n1], line_elems[n2])
            # expected is c0 * d + c1 * (x d); compare total d/dx coefficient
            total = expected.coords[0] + expected.coords[1] * qx.variable(0)
            assert projected == total


def test_sl2_action_restricted_to_the_origin():
    """Certify the isotropy of the standard line action at the origin."""
    from conftest import sl2, sl2_action_images
    from lra.pseudoalgebra import make_action

    qx = AlgebraPres.free("x")
    act = make_action(qx, sl2(), sl2_action_images(qx))  # basis (h, e, f)
    ctx = RestrictionCtx(act, [qx.variable(0)])
    h, e, f = act.basis(0), act.basis(1), act.basis(2)
    assert in_upper(ctx, h)       # -2x d/dx fixes (x)
    assert not in_upper(ctx, e)   # d/dx moves x to 1
    assert in_upper(ctx, f)       # -x^2 d/dx fixes (x)
    # the certified bracket reproduces [h, f] = -2f with coordinates mod (x)
    value = quotient_bracket(ctx, h, f)
    assert value == ResidueElement(ctx, [qx.zero(), qx.zero(), qx.const(-2)])
