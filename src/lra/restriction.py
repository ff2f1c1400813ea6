"""Restriction of a pseudoalgebra along an ideal of its coefficient algebra.

Given an ideal J of the algebra, the elements whose anchor preserves J
form a subalgebra; reducing their coordinates modulo J gives the bracket
of the quotient over A/J.  Membership in the upper set is decided on the
ideal generators only: the anchor of a fixed element is a derivation, so
it maps an algebra combination of generators into J whenever it maps each
generator into J.
"""

from .algebra import AlgebraPres
from .groebner import IdealPres
from .pseudoalgebra import CoordVector, bracket, anchor_apply
from .verdict import VerificationError


class RestrictionCtx:
    """A pseudoalgebra with a chosen proper ideal of its algebra.

    ``quotient_algebra`` presents A/J on the same variables: its ideal is
    the parent ideal joined with J, with the basis recomputed.  It owns the
    residues, one coordinate in A/J per basis vector of the parent.
    """

    __slots__ = ("parent", "ideal_gens", "quotient_algebra")

    def __init__(self, parent, ideal_gens):
        algebra = parent.algebra
        gens = [algebra.nf(g) for g in ideal_gens]
        combined = IdealPres(
            algebra.arity,
            list(algebra.ideal.generators) + gens,
            algebra.ideal.order,
        )
        if combined.is_trivial():
            raise VerificationError("the ideal is not proper: it contains 1")
        self.parent = parent
        self.ideal_gens = tuple(gens)
        self.quotient_algebra = AlgebraPres(algebra.variables, combined)

    @property
    def algebra(self):
        return self.quotient_algebra

    @property
    def rank(self):
        return self.parent.rank

    def __eq__(self, other):
        if not isinstance(other, RestrictionCtx):
            return NotImplemented
        return self.parent == other.parent and self.quotient_algebra == other.quotient_algebra

    def reduces_to_zero(self, a):
        """Membership of an algebra element in the ideal (mod the parent ideal)."""
        return self.quotient_algebra.nf(a).is_zero()


def in_upper(ctx, x):
    """True iff the anchor of ``x`` maps every ideal generator into the ideal."""
    if x.parent != ctx.parent:
        raise ValueError("element does not belong to the parent pseudoalgebra")
    return all(ctx.reduces_to_zero(anchor_apply(x, g)) for g in ctx.ideal_gens)


def in_lower(ctx, x):
    """True iff every coordinate of ``x`` lies in the ideal (module is free)."""
    if x.parent != ctx.parent:
        raise ValueError("element does not belong to the parent pseudoalgebra")
    return all(ctx.reduces_to_zero(c) for c in x.coords)


class ResidueElement(CoordVector):
    """Coordinates of a restricted element, reduced modulo the ideal."""

    __slots__ = ()
    _owners = "restrictions"


def quotient_bracket(ctx, x, y):
    """Bracket of certified elements, with coordinates reduced modulo the ideal.

    Both arguments must preserve the ideal; the bracket is computed in the
    parent and then reduced, which is well defined on residue classes.
    """
    for name, elem in (("first", x), ("second", y)):
        if not in_upper(ctx, elem):
            raise VerificationError(
                "%s argument does not preserve the ideal; the quotient bracket "
                "is only defined on certified elements" % name
            )
    return ResidueElement(ctx, bracket(x, y).coords)
