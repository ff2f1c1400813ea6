"""Presented commutative algebras Q[x1..xn]/I, their morphisms and derivations.

Every element is canonicalized by normal form against the ideal's reduced
Groebner basis, so equality of residue classes is equality of stored
polynomials.

A derivation or an algebra map keeps a table from exponent tuples to the
normal form of each monomial's image, filled on first use and kept as long
as its object; it is the only formula for an image.  ``check`` sums each
ideal generator over it, ``apply`` maps p = sum c_a x^a to sum c_a table[a]
(reduced, as the normal form is Q-linear), and ``_add_image``
adds w * s * sum c_a table[a], for a term dict w and a rational s, straight
into a caller's ``poly._Sum``, so brackets, anchors, commutators and the
anchor identity need no intermediate image.  A derivation's entry is the
normal form of the Leibniz extension of x^a; an algebra map's is
nf(table[a/2]^2) or nf(table[a - e_v] * psi(x_v)), as nf is a ring
homomorphism modulo the target ideal.
"""

from __future__ import annotations

from .groebner import IdealPres
from .poly import MPoly, _add_product, _Sum, is_variable_name, parse_poly, poly_to_string
from .verdict import VerdictReport


class AlgebraPres:
    """A commutative unitary Q-algebra presented by variables and an ideal."""

    __slots__ = ("variables", "ideal")

    def __init__(self, variables, ideal=None, order="grevlex"):
        variables = tuple(variables)
        for name in variables:
            if not (isinstance(name, str) and is_variable_name(name)):
                raise ValueError("bad variable name %r" % (name,))
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if ideal is None:
            ideal = IdealPres(len(variables), (), order)
        if ideal.arity != len(variables):
            raise ValueError("ideal arity does not match the variable count")
        if ideal.is_trivial():
            raise ValueError("ideal contains 1; the quotient algebra is zero")
        self.variables = variables
        self.ideal = ideal

    @classmethod
    def free(cls, *names):
        return cls(names)

    @classmethod
    def scalars(cls):
        """The ground field Q, presented with no variables."""
        return cls(())

    @property
    def arity(self):
        return len(self.variables)

    def is_free(self):
        return self.ideal.is_empty()

    def nf(self, p):
        return self.ideal.normal_form(p)

    def zero(self):
        return MPoly.zero(self.arity)

    def one(self):
        return MPoly.one(self.arity)

    def const(self, value):
        return MPoly.const(self.arity, value)

    def variable(self, which):
        if isinstance(which, str):
            which = self.variables.index(which)
        return MPoly.variable(self.arity, which)

    def parse(self, text):
        return self.nf(parse_poly(text, self.variables))

    def render(self, p):
        return poly_to_string(p, self.variables, self.ideal.order)

    def tensor(self, other):
        """Tensor product over Q: disjoint variables, union of lifted ideals.

        Returns (algebra, right_renaming); left variable names are kept and
        colliding right ones get a numeric suffix.
        """
        left_names = list(self.variables)
        used = set(left_names)
        right_names = []
        right_renaming = {}
        for name in other.variables:
            candidate = name
            k = 1
            while candidate in used:
                candidate = "%s_%d" % (name, k)
                k += 1
            used.add(candidate)
            right_names.append(candidate)
            if candidate != name:
                right_renaming[name] = candidate
        arity = len(left_names) + len(right_names)
        gens = [g.lift(arity, 0) for g in self.ideal.generators]
        gens += [g.lift(arity, len(left_names)) for g in other.ideal.generators]
        algebra = AlgebraPres(
            left_names + right_names,
            IdealPres(arity, gens, self.ideal.order),
        )
        return algebra, right_renaming

    def __eq__(self, other):
        if not isinstance(other, AlgebraPres):
            return NotImplemented
        return self.variables == other.variables and self.ideal == other.ideal

    def __hash__(self):
        return hash((self.variables, self.ideal))

    def __repr__(self):
        if self.ideal.is_empty():
            return "AlgebraPres(%r)" % (list(self.variables),)
        return "AlgebraPres(%r mod %r)" % (
            list(self.variables),
            [self.render(g) for g in self.ideal.groebner],
        )


def _variable_table(arity, images, constant):
    """The table that maps x_v to ``images[v]`` for each variable, and 1 to ``constant``."""
    table = {(0,) * v + (1,) + (0,) * (arity - v - 1): q for v, q in enumerate(images)}
    return {(0,) * arity: constant, **table}


def _table_add(out, p, table, build, weight, scale=1):
    """``out += scale * weight * sum_a c_a table[a]`` over the terms c_a x^a of ``p``, for a
    ``_Sum`` ``out`` and a term dict ``weight``; a missing entry is ``build(a)``, stored once it returns."""
    for exp, c in p.terms.items():
        image = table.get(exp)
        if image is None:
            image = table[exp] = build(exp)
        if image.terms:
            _add_product(out, weight, image.terms, c * scale)


def _table_sum(p, table, build, arity):
    """sum_a c_a table[a], finished: reduced when the table entries are.  For
    one monomial with coefficient 1 it is the stored entry itself."""
    if len(p.terms) == 1 and 1 in p.terms.values():
        (exp,) = p.terms
        if exp not in table:
            table[exp] = build(exp)
        return table[exp]
    out = _Sum()
    _table_add(out, p, table, build, {(0,) * arity: 1})
    return MPoly._raw(arity, out.finish())


class AlgMorphism:
    """An algebra map, stored as one target element per source variable.

    ``_table`` of monomial images is a map on the free algebra, so it fills
    before the ideal verdict, which ``_verified`` records.
    """

    __slots__ = ("source", "target", "images", "_report", "_table", "_verified")

    def __init__(self, source, target, images):
        images = [target.nf(q) for q in images]
        if len(images) != source.arity:
            raise ValueError(
                "expected %d images, got %d" % (source.arity, len(images))
            )
        for q in images:
            if q.arity != target.arity:
                raise ValueError("image arity does not match the target algebra")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._report = None
        self._table = _variable_table(source.arity, images, target.one())
        self._verified = False

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra, [algebra.variable(i) for i in range(algebra.arity)])

    def check(self):
        """Pass iff every source-ideal generator, summed over the table, maps into the target ideal."""
        if self._report is not None:
            return self._report
        report = VerdictReport()
        for g in self.source.ideal.generators:
            image = _table_sum(g, self._table, self._monomial_image, self.target.arity)
            report.add(
                "generator %s maps into the target ideal" % self.source.render(g),
                image.is_zero(),
                lambda: "normal form of the image is %s" % self.target.render(image),
            )
        if not self.source.ideal.generators:
            report.add("source ideal is empty", True)
        self._report = report
        self._verified = report.verdict
        return report

    def require(self):
        """Raise ``VerificationError`` unless the map sends the ideal into the ideal."""
        if not self._verified:
            self.check().require("morphism does not map the ideal into the ideal")

    def apply(self, p):
        """The image of ``p`` in normal form, summed from the table of monomial images."""
        self.require()
        if p.arity != self.source.arity:
            raise ValueError("element arity does not match the source algebra")
        return _table_sum(p, self._table, self._monomial_image, self.target.arity)

    def _add_image(self, out, p, weight, scale=1):
        """``out += scale * weight * self(p)`` for a ``_Sum`` ``out``, from the table."""
        self.require()
        _table_add(out, p, self._table, self._monomial_image, weight, scale)

    def _monomial_image(self, exp):
        """table[a] = nf(table[a/2]^2) when every exponent is even, else
        nf(table[a - e_v] * images[v]) for the first v with a_v odd: the missing
        entries below ``exp`` fill in a loop of length logarithmic in the
        exponents, so powers are reduced as they grow, and each is stored once
        its normal form has returned."""
        table, images = self._table, self.images
        chain = []
        while exp not in table:
            v = next((v for v, a in enumerate(exp) if a & 1), None)
            chain.append((exp, v))
            if v is None:
                exp = tuple(a >> 1 for a in exp)
            else:
                exp = exp[:v] + (exp[v] - 1,) + exp[v + 1 :]
        image = table[exp]
        for exp, v in reversed(chain):
            factor = image if v is None else images[v]
            out = _Sum()
            if image.terms and factor.terms:
                _add_product(out, image.terms, factor.terms)
            image = table[exp] = self.target.nf(MPoly._raw(self.target.arity, out.finish()))
        return image

    def compose(self, then):
        """The composite ``then . self`` (self: A->B, then: B->C)."""
        if then.source != self.target:
            raise ValueError("morphisms are not composable")
        return AlgMorphism(self.source, then.target, [then.apply(q) for q in self.images])

    def __eq__(self, other):
        if not isinstance(other, AlgMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __repr__(self):
        body = ", ".join(
            "%s->%s" % (name, self.target.render(q))
            for name, q in zip(self.source.variables, self.images)
        )
        return "AlgMorphism(%s)" % body


class Derivation:
    """A K-linear derivation of an algebra, stored by variable images.

    Well-definedness on the quotient requires the Leibniz extension to map
    the ideal into itself; checking the Groebner generators suffices since
    every ideal element is an algebra combination of them.  As for
    ``AlgMorphism``, ``_table`` of monomial images is the Leibniz extension
    on the free algebra, so it fills before that check, whose verdict
    ``_verified`` records.
    """

    __slots__ = ("algebra", "images", "_report", "_table", "_verified")

    def __init__(self, algebra, images):
        images = [algebra.nf(q) for q in images]
        if len(images) != algebra.arity:
            raise ValueError(
                "expected %d images, got %d" % (algebra.arity, len(images))
            )
        self.algebra = algebra
        self.images = tuple(images)
        self._report = None
        self._table = _variable_table(algebra.arity, images, algebra.zero())
        self._verified = False

    @classmethod
    def _raw(cls, algebra, images):
        """Trusted constructor: ``images`` are ``algebra.arity`` reduced polynomials."""
        d = object.__new__(cls)
        d.algebra = algebra
        d.images = tuple(images)
        d._report = None
        d._table = _variable_table(algebra.arity, images, algebra.zero())
        d._verified = False
        return d

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, [algebra.zero()] * algebra.arity)

    @classmethod
    def partial(cls, algebra, index):
        images = [
            algebra.one() if i == index else algebra.zero()
            for i in range(algebra.arity)
        ]
        return cls(algebra, images)

    def check(self):
        """Pass iff the image of every Groebner element, summed over the table, reduces to zero."""
        if self._report is not None:
            return self._report
        report = VerdictReport()
        for g in self.algebra.ideal.groebner:
            value = _table_sum(g, self._table, self._monomial_image, self.algebra.arity)
            report.add(
                "ideal generator %s stays in the ideal" % self.algebra.render(g),
                value.is_zero(),
                lambda: "derivative has normal form %s" % self.algebra.render(value),
            )
        if not self.algebra.ideal.groebner:
            report.add("free algebra: every derivation preserves the zero ideal", True)
        self._report = report
        self._verified = report.verdict
        return report

    def require(self):
        """Raise ``VerificationError`` unless the derivation preserves the ideal."""
        if not self._verified:
            self.check().require("derivation does not preserve the ideal")

    def apply(self, p):
        """The Leibniz extension in normal form, summed from the table of monomial images."""
        self.require()
        if p.arity != self.algebra.arity:
            raise ValueError("element arity does not match the algebra")
        return _table_sum(p, self._table, self._monomial_image, p.arity)

    def _add_image(self, out, p, weight, scale=1):
        """``out += scale * weight * self(p)`` for a ``_Sum`` ``out``, from the table."""
        self.require()
        _table_add(out, p, self._table, self._monomial_image, weight, scale)

    def _monomial_image(self, exp):
        """nf of sum_i a_i x^(a - e_i) images[i], the Leibniz extension of x^a."""
        out = _Sum()
        for i, (a, image) in enumerate(zip(exp, self.images)):
            if a and image.terms:
                _add_product(out, {exp[:i] + (a - 1,) + exp[i + 1 :]: a}, image.terms)
        return self.algebra.nf(MPoly._raw(self.algebra.arity, out.finish()))

    def _add_commutator(self, out, other):
        """``out[v] += self(q_v) - other(p_v)`` for the images p_v of self and q_v of other."""
        one = {(0,) * self.algebra.arity: 1}
        for t, p, q in zip(out, self.images, other.images):
            self._add_image(t, q, one)
            other._add_image(t, p, one, -1)

    def commutator(self, other):
        """[self, other], summed from the reduced monomial tables: no ``nf``."""
        if other.algebra != self.algebra:
            raise ValueError("derivations live on different algebras")
        out = [_Sum() for _ in self.images]
        self._add_commutator(out, other)
        return Derivation._raw(self.algebra, [MPoly._raw(self.algebra.arity, t.finish()) for t in out])

    def __eq__(self, other):
        if not isinstance(other, Derivation):
            return NotImplemented
        return self.algebra == other.algebra and self.images == other.images

    def __repr__(self):
        body = ", ".join(
            "%s->%s" % (name, self.algebra.render(q))
            for name, q in zip(self.algebra.variables, self.images)
        )
        return "Derivation(%s)" % body

