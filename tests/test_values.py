"""Value semantics of the library's records and map classes.

A map compares equal to another exactly when both have the same class and
the same fields, so a morphism never equals a comorphism built from the same
data; groupoid maps also hash by their data.  Documents survive a render
and parse as equal values, and a direct sum records only the right-hand
variables it had to rename.
"""

import pytest

from lra import documents as docs
from lra.algebra import AlgebraPres, AlgMorphism
from lra.groupoid import GrpdComorphism, GrpdMorphism, make_pair
from lra.maps import PAComorphism, PAMorphism
from lra.pseudoalgebra import make_der
from lra.psisum import direct_sum


def _pa_maps():
    qx, qy = AlgebraPres.free("x"), AlgebraPres.free("y")
    dx, dy = make_der(qx), make_der(qy)
    x, ident = qx.variable(0), AlgMorphism.identity(qx)
    morphism = PAMorphism.identity(dx)
    same_data = object.__new__(PAComorphism)
    for name in ("source", "target", "psi", "images"):
        setattr(same_data, name, getattr(morphism, name))
    return {
        "morphism": morphism,
        "morphism rebuilt": PAMorphism(dx, dx, AlgMorphism.identity(qx), [dx.basis(0)]),
        "morphism other image": PAMorphism(dx, dx, ident, [dx.basis(0).scale(x)]),
        "morphism other psi": PAMorphism(dx, dx, AlgMorphism(qx, qx, [2 * x]), [dx.basis(0)]),
        "morphism other target": PAMorphism(dx, dy, AlgMorphism(qx, qy, [qy.variable(0)]), [dy.basis(0)]),
        "comorphism": PAComorphism.identity(dx),
        "comorphism rebuilt": PAComorphism(dx, dx, ident, [[qx.one()]]),
        "comorphism raw": PAComorphism._raw(dx, dx, ident, [[qx.one()]]),
        "comorphism other image": PAComorphism(dx, dx, ident, [[x]]),
        "comorphism same data": same_data,
    }


def _grpd_maps():
    g = make_pair(["a", "b"])
    base, arrows = {x: x for x in g.objects}, {w: w for w in g.arrows}
    return {
        "morphism": GrpdMorphism(base, arrows),
        "morphism rebuilt": GrpdMorphism(dict(base), dict(arrows)),
        "morphism other arrow": GrpdMorphism(base, {**arrows, ("a", "b"): ("a", "a")}),
        "comorphism same data": GrpdComorphism(base, arrows),
        "comorphism rebuilt": GrpdComorphism(dict(base), dict(arrows)),
        "comorphism other base": GrpdComorphism({"a": "b", "b": "b"}, arrows),
    }


def _documents():
    g = make_pair(["a", "b"])
    made = {
        "groupoid": docs.document(g),
        "grpdmap": docs.document(GrpdMorphism({x: x for x in g.objects}, {w: w for w in g.arrows})),
        "palg": docs.document(make_der(AlgebraPres.free("x", "y"))),
    }
    made.update({"%s again" % k: docs.parse_document(docs.render_document(d)) for k, d in made.items()})
    made["groupoid empty body"] = docs.parse_document('{"kind": "groupoid", "version": "1", "body": {}}')
    return made


def _renamings():
    def renamed(left, right):
        return direct_sum(make_der(AlgebraPres.free(*left)), make_der(AlgebraPres.free(*right))).renamed

    return {
        "disjoint": renamed(("x",), ("y", "z")),
        "none": {},
        "second suffix": renamed(("x", "x_1"), ("x", "y")),
        "x to x_2": {"x": "x_2"},
        "both collide": renamed(("x", "y"), ("y", "x")),
        "y to y_1, x to x_1": {"y": "y_1", "x": "x_1"},
    }


CASES = [
    (_pa_maps, "morphism", "morphism rebuilt", True),
    (_pa_maps, "morphism", "morphism other image", False),
    (_pa_maps, "morphism", "morphism other psi", False),
    (_pa_maps, "morphism", "morphism other target", False),
    (_pa_maps, "comorphism", "comorphism rebuilt", True),
    (_pa_maps, "comorphism", "comorphism raw", True),
    (_pa_maps, "comorphism", "comorphism other image", False),
    (_pa_maps, "morphism", "comorphism", False),
    (_pa_maps, "morphism", "comorphism same data", False),
    (_grpd_maps, "morphism", "morphism rebuilt", True),
    (_grpd_maps, "morphism", "morphism other arrow", False),
    (_grpd_maps, "morphism", "comorphism same data", False),
    (_grpd_maps, "comorphism same data", "comorphism rebuilt", True),
    (_grpd_maps, "comorphism same data", "comorphism other base", False),
    (_documents, "groupoid", "groupoid again", True),
    (_documents, "grpdmap", "grpdmap again", True),
    (_documents, "palg", "palg again", True),
    (_documents, "groupoid", "groupoid empty body", False),
    (_renamings, "disjoint", "none", True),
    (_renamings, "second suffix", "x to x_2", True),
    (_renamings, "both collide", "y to y_1, x to x_1", True),
]


@pytest.mark.parametrize(
    "make, left, right, equal", CASES, ids=["%s: %s / %s" % (c[0].__name__[1:], c[1], c[2]) for c in CASES]
)
def test_values_are_equal_exactly_when_class_and_fields_are(make, left, right, equal):
    values = make()
    a, b = values[left], values[right]
    assert (a == b, b == a, a != b) == (equal, equal, not equal)
    if isinstance(a, (GrpdMorphism, GrpdComorphism)):
        assert len({a, b}) == (1 if equal else 2)
        assert hash(a) == hash(b) or not equal
    if make is _renamings:
        assert list(a) == list(b)
