"""Direct sums and twisted sums of pseudoalgebras along an algebra map.

Given pseudoalgebras E over A and F over B and an algebra map psi: A -> B,
the twisted sum lives inside (E tensor_A B) + F.  Because E is free, the
tensor factor is the free B-module on E's basis, so a mixed element is a
vector of B-coefficients on E's basis plus an element of F.  The kernel
ideal of the multiplication map A tensor B -> B is never materialized:
membership is decided by the equivalent identity

    sum_i psi([X_i, a]) b_i  =  [Y, psi(a)]   for all a in A,

checked on the variables of A only -- both sides are psi-twisted
derivations in a, so agreement on generators propagates to all of A (the
sampling test in the suite guards this reduction).  The identity is
decided by ``pseudoalgebra._anchor_identity``, one reduction of lhs - rhs
summed from the monomial tables of psi and the anchors, and the bracket of
the sum is ``pseudoalgebra._leibniz_bracket``, here and in the map verifiers.

Triple sums use the same ``membership_report`` and ``psisum_bracket``: a
flattened member of the triple sum E + F + G is a pair of mixed elements,
its (E-part, G-part) in E + G along theta.psi and its (F-part, G-part) in
F + G along theta, so re-association is decided by twisted sums of
twisted sums.
"""

from collections import namedtuple

from .algebra import Derivation
from .pseudoalgebra import (
    CoordVector,
    PAlg,
    PAElement,
    _anchor_identity,
    _combine,
    _leibniz_bracket,
    anchor_apply,
    axioms_check,
    bracket,
)
from .verdict import VerdictReport


class PsiSumCtx:
    """Two pseudoalgebras joined along a verified algebra map psi: A -> B.

    It owns the mixed elements: their coordinates live in B, one per
    E-basis vector and then one per F-basis vector.  The constructor
    decides psi and the axioms of both summands, those of E once when F is
    the same object.
    """

    __slots__ = ("e", "f", "psi")

    def __init__(self, e, f, psi):
        if psi.source != e.algebra or psi.target != f.algebra:
            raise ValueError("psi must map E's algebra into F's algebra")
        psi.check().require("psi is not an algebra morphism")
        axioms_check(e).require("the first summand fails its axioms")
        if f is not e:
            axioms_check(f).require("the second summand fails its axioms")
        self.e = e
        self.f = f
        self.psi = psi

    @property
    def algebra(self):
        return self.f.algebra

    @property
    def rank(self):
        return self.e.rank + self.f.rank

    def __eq__(self, other):
        if not isinstance(other, PsiSumCtx):
            return NotImplemented
        return self.e == other.e and self.f == other.f and self.psi == other.psi


class MixedElement(CoordVector):
    """An element of (E tensor_A B) + F in free-module normal form.

    ``tensor`` holds one B-coefficient per E-basis vector (coefficients on
    one basis vector are always merged); ``f_part`` holds B-coordinates on
    F's basis.  ``coords`` is ``tensor`` followed by ``f_part``.
    """

    __slots__ = ()
    _owners = "twisted sums"

    def __init__(self, ctx, tensor, f_part):
        tensor, f_part = tuple(tensor), tuple(f_part)
        if len(tensor) != ctx.e.rank:
            raise ValueError("tensor part needs one coefficient per E-basis vector")
        if len(f_part) != ctx.f.rank:
            raise ValueError("F-part needs one coordinate per F-basis vector")
        super().__init__(ctx, tensor + f_part)

    @property
    def tensor(self):
        return self.coords[: self.owner.e.rank]

    @property
    def f_part(self):
        return self.coords[self.owner.e.rank :]

    def f_element(self):
        return PAElement._raw(self.owner.f, self.f_part)

    def render(self):
        return "tensor%s + f%s" % (self._render(self.tensor), self._render(self.f_part))


# -- the direct sum ------------------------------------------------------


DirectSum = namedtuple("DirectSum", "palg renamed")
DirectSum.__doc__ = """A direct sum pseudoalgebra over the tensor algebra.

Left-hand variables keep their names in the tensor algebra; ``renamed``
maps each right-hand name that collided to the name it got there.
"""


def direct_sum(e, f):
    """The direct sum of two pseudoalgebras over the tensor product algebra.

    Basis: E's basis followed by F's basis.  Anchors act through the
    factor they came from; cross brackets vanish; brackets within a factor
    keep their structure coefficients, lifted to the tensor algebra.
    """
    axioms_check(e).require("the first summand fails its axioms")
    axioms_check(f).require("the second summand fails its axioms")
    a, b = e.algebra, f.algebra
    tensor_algebra, right_renaming = a.tensor(b)
    n_left = a.arity
    arity = tensor_algebra.arity
    anchors = []
    for d in e.anchors:
        images = [q.lift(arity) for q in d.images] + [tensor_algebra.zero()] * b.arity
        anchors.append(Derivation(tensor_algebra, images))
    for d in f.anchors:
        images = [tensor_algebra.zero()] * a.arity + [q.lift(arity, n_left) for q in d.images]
        anchors.append(Derivation(tensor_algebra, images))

    rank = e.rank + f.rank
    structure = {}
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            row = [c.lift(arity) for c in e.struct_coeffs(i, j)]
            structure[(i, j)] = row + [tensor_algebra.zero()] * f.rank
    for i in range(f.rank):
        for j in range(i + 1, f.rank):
            row = [c.lift(arity, n_left) for c in f.struct_coeffs(i, j)]
            structure[(e.rank + i, e.rank + j)] = [tensor_algebra.zero()] * e.rank + row
    # cross brackets [e_i, f_j] are zero: omitted entries default to zero

    return DirectSum(PAlg(tensor_algebra, rank, anchors, structure), right_renaming)


# -- membership and structure maps ---------------------------------------


def membership_report(ctx, z):
    """Decide membership of a mixed element in the twisted sum."""
    report = VerdictReport()
    a_alg = ctx.e.algebra
    for v, name in enumerate(a_alg.variables):
        diff = _anchor_identity(ctx.psi, ctx.e.anchors, enumerate(z.tensor), z.f_element(), v)
        report.add(
            "membership identity at %s" % name,
            not diff.terms,
            "sum_i psi([X_i, %s]) b_i differs from [Y, psi(%s)]" % (name, name),
        )
    if a_alg.arity == 0:
        report.add("membership identity is vacuous over the scalars", True)
    return report


def psisum_anchor(ctx, z, b_elem):
    """Anchor of the twisted sum: only the F-part acts."""
    membership_report(ctx, z).require("anchor is only defined on members of the twisted sum")
    return anchor_apply(z.f_element(), b_elem)


def psisum_bracket(ctx, z1, z2, check=True):
    """Bracket of two members of the twisted sum.

    [sum_i e_i@b_i + Y, sum_j e_j@b'_j + Y']
      = sum_{i,j} [e_i, e_j]@(b_i b'_j) + sum_j e_j@[Y, b'_j]
        - sum_i e_i@[Y', b_i] + [Y, Y'],
    with A-coefficients of [e_i, e_j] pushed through psi into B.
    """
    z1._same_owner(z2)
    if check:
        for label, z in (("first", z1), ("second", z2)):
            membership_report(ctx, z).require(
                "%s argument is not a member of the twisted sum" % label
            )
    y1 = z1.f_element()
    y2 = z2.f_element()
    tensor = _leibniz_bracket(ctx.e, ctx.psi, z1.tensor, z2.tensor, y1, y2)
    return MixedElement._raw(ctx, tensor + list(bracket(y1, y2).coords))


# -- the triple sum ------------------------------------------------------


class TripleSumCtx:
    """Three pseudoalgebras chained along composable algebra maps.

    Elements of the left association ((E + F along psi) + G along theta)
    are stored as a list of (member of the inner sum, coefficient in C)
    pairs plus an element of G; flattening lands everything in the common
    ambient module (E tensor C) + (F tensor C) + G.
    """

    __slots__ = ("inner", "right", "composed", "g", "theta")

    def __init__(self, e, f, g, psi, theta):
        if theta.source != f.algebra or theta.target != g.algebra:
            raise ValueError("theta must map F's algebra into G's algebra")
        self.inner = PsiSumCtx(e, f, psi)       # E + F along psi
        self.right = PsiSumCtx(f, g, theta)     # F + G along theta
        self.composed = PsiSumCtx(e, g, psi.compose(theta))
        self.g = g
        self.theta = theta


class TripleElement:
    """A member of the left association, as constructed by the caller."""

    __slots__ = ("ctx", "parts", "g_part")

    def __init__(self, ctx, parts, g_part):
        if g_part.parent != ctx.g:
            raise ValueError("the G-part is not an element of G")
        c_alg = ctx.g.algebra
        self.ctx = ctx
        self.parts = [(z, c_alg.nf(c)) for z, c in parts]
        self.g_part = g_part

    def flatten(self):
        """The member in the ambient (E tensor C) + (F tensor C) + G, as a pair
        of mixed elements: (E-part, G-part) in E + G along theta.psi and
        (F-part, G-part) in F + G along theta."""
        ctx = self.ctx
        terms = ((c, enumerate(z.coords)) for z, c in self.parts)
        flat = _combine(ctx.g.algebra, ctx.inner.rank, terms, ctx.theta)
        w = list(self.g_part.coords)
        n = ctx.inner.e.rank
        return (
            MixedElement._raw(ctx.composed, flat[:n] + w),
            MixedElement._raw(ctx.right, flat[n:] + w),
        )


def _left_bracket(ctx, t1, t2):
    """Bracket in the left association, returned as a TripleElement."""
    parts = []
    c_alg = ctx.g.algebra
    for z1, c1 in t1.parts:
        for z2, c2 in t2.parts:
            prod = c_alg.nf(c1 * c2)
            if not prod.is_zero():
                parts.append((psisum_bracket(ctx.inner, z1, z2, check=False), prod))
    for z2, c2 in t2.parts:
        coeff = anchor_apply(t1.g_part, c2)
        if not coeff.is_zero():
            parts.append((z2, coeff))
    for z1, c1 in t1.parts:
        coeff = anchor_apply(t2.g_part, c1)
        if not coeff.is_zero():
            parts.append((z1, -coeff))
    return TripleElement(ctx, parts, bracket(t1.g_part, t2.g_part))


def _right_bracket(ctx, flat1, flat2):
    """Bracket in the right association, on flattened members: the E-part
    in E + G along the composed map, the F- and G-parts in F + G along theta."""
    (u1, v1), (u2, v2) = flat1, flat2
    return (
        psisum_bracket(ctx.composed, u1, u2, check=False),
        psisum_bracket(ctx.right, v1, v2, check=False),
    )


def triple_inclusion_check(e, f, g, psi, theta, elements):
    """Re-associate members of the left triple sum and verify the inclusion.

    Preconditions (violations raise): every inner component is a member of
    E + F along psi, and each supplied element satisfies the outer
    membership identity of the left association, which is membership of
    its flattened (F-part, G-part) in F + G along theta.  The report then
    asserts that every flattened element is a member of the right
    association, which needs only its (E-part, G-part) to be a member of
    E + G along theta.psi, and that pairwise brackets agree after
    re-association.
    """
    ctx = TripleSumCtx(e, f, g, psi, theta)
    checked = []
    flats = []
    for n, (parts, g_part) in enumerate(elements):
        for z, _ in parts:
            membership_report(ctx.inner, z).require(
                "element %d has a non-member inner component" % n
            )
        t = TripleElement(ctx, parts, g_part)
        flat = t.flatten()
        membership_report(ctx.right, flat[1]).require(
            "element %d is not a member of the left association" % n
        )
        checked.append(t)
        flats.append(flat)

    report = VerdictReport()
    for n, (u, _) in enumerate(flats):
        report.fold(
            "element %d re-associates into the right sum" % n,
            membership_report(ctx.composed, u),
        )

    for n1 in range(len(checked)):
        for n2 in range(n1 + 1, len(checked)):
            left = _left_bracket(ctx, checked[n1], checked[n2]).flatten()
            right = _right_bracket(ctx, flats[n1], flats[n2])
            report.add(
                "brackets of elements %d and %d agree under re-association" % (n1, n2),
                left == right,
                lambda: "left association gives %s / %s, right gives %s / %s"
                % tuple(z.render() for z in left + right),
            )
    return report
