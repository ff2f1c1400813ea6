"""Presented commutative algebras Q[x1..xn]/I, their morphisms and derivations.

Every element is canonicalized by normal form against the ideal's reduced
Groebner basis, so equality of residue classes is equality of stored
polynomials.

An algebra map and a derivation are linear maps fixed by their images of
the variables: the one extends multiplicatively, the other by the Leibniz
rule.  Both keep, in their shared base ``_TableMap``, a table from exponent
tuples to the normal form of each monomial's image, filled on first use and
kept as long as its object; it is the only formula for an image.  ``check``
sums ideal elements over it, ``apply`` maps p = sum c_a x^a to sum c_a
table[a] (reduced, as the normal form is Q-linear), and ``_add_image`` adds
w * s * sum c_a table[a], for a term dict w and a rational s, straight into
a caller's ``poly._Sum``, so brackets, anchors, commutators and the anchor
identity need no intermediate image.  A derivation's entry is the normal
form of the Leibniz extension of x^a; an algebra map's is nf(table[a/2]^2)
or nf(table[a - e_v] * psi(x_v)), as nf is a ring homomorphism modulo the
target ideal.
"""

from .groebner import IdealPres
from .poly import MPoly, _add_product, _Sum, is_variable_name, parse_poly, poly_to_string
from .verdict import VerdictReport


class AlgebraPres:
    """A commutative unitary Q-algebra presented by variables and an ideal."""

    __slots__ = ("variables", "ideal")

    def __init__(self, variables, ideal=None):
        variables = tuple(variables)
        for name in variables:
            if not (isinstance(name, str) and is_variable_name(name)):
                raise ValueError("bad variable name %r" % (name,))
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        if ideal is None:
            ideal = IdealPres(len(variables))
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


class _TableMap:
    """What ``AlgMorphism`` and ``Derivation`` share: the variable images, the
    table of monomial images, the cached ideal verdict and the table sums.

    A subclass has ``source`` and ``target`` algebras and supplies
    ``_monomial_image`` for a missing entry, ``_relations`` for the ideal
    elements that ``check`` sums, and the texts of its checks and of
    ``require``.  The table is a map on the free algebra, so it fills before
    the ideal verdict, which ``_verified`` records.
    """

    __slots__ = ("images", "_report", "_table", "_verified")

    def __init__(self, images, constant):
        """Trusted setup: ``images`` are reduced; ``constant`` is the image of 1."""
        n = len(images)
        self.images = tuple(images)
        self._report = None
        self._table = {(0,) * n: constant}
        self._table.update(((0,) * v + (1,) + (0,) * (n - v - 1), q) for v, q in enumerate(images))
        self._verified = False

    def check(self):
        """Pass iff every ideal element of ``_relations``, summed over the table, reduces to zero."""
        if self._report is not None:
            return self._report
        report = VerdictReport()
        relations = self._relations()
        for g in relations:
            image = self._sum(g)
            report.add(
                self._CHECK % self.source.render(g),
                image.is_zero(),
                lambda: self._WITNESS % self.target.render(image),
            )
        if not relations:
            report.add(self._NO_RELATIONS, True)
        self._report = report
        self._verified = report.verdict
        return report

    def require(self):
        """Raise ``VerificationError`` unless ``check`` passes."""
        if not self._verified:
            self.check().require(self._REFUSAL)

    def _add_image(self, out, p, weight, scale=1):
        """``out += scale * weight * self(p)`` for a ``_Sum`` ``out``, from the table."""
        self.require()
        self._add_table(out, p, weight, scale)

    def _add_table(self, out, p, weight, scale=1):
        """``out += scale * weight * sum_a c_a table[a]`` over the terms c_a x^a of ``p``,
        with no ideal check; a missing entry is stored once ``_monomial_image`` returns."""
        table = self._table
        for exp, c in p.terms.items():
            image = table.get(exp)
            if image is None:
                image = table[exp] = self._monomial_image(exp)
            if image.terms:
                _add_product(out, weight, image.terms, c * scale)

    def _sum(self, p):
        """sum_a c_a table[a] with no ideal check, reduced as the entries are.
        For one monomial with coefficient 1 it is the stored entry itself."""
        if len(p.terms) == 1 and 1 in p.terms.values():
            (exp,) = p.terms
            if exp not in self._table:
                self._table[exp] = self._monomial_image(exp)
            return self._table[exp]
        arity = self.target.arity
        out = _Sum()
        self._add_table(out, p, {(0,) * arity: 1})
        return MPoly._raw(arity, out.finish())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.source, self.target, self.images) == (other.source, other.target, other.images)

    def __repr__(self):
        body = ", ".join(
            "%s->%s" % (name, self.target.render(q))
            for name, q in zip(self.source.variables, self.images)
        )
        return "%s(%s)" % (type(self).__name__, body)


class AlgMorphism(_TableMap):
    """An algebra map, stored as one target element per source variable."""

    __slots__ = ("source", "target")
    _CHECK = "generator %s maps into the target ideal"
    _WITNESS = "normal form of the image is %s"
    _NO_RELATIONS = "source ideal is empty"
    _REFUSAL = "morphism does not map the ideal into the ideal"

    def __init__(self, source, target, images):
        images = [target.nf(q) for q in images]
        if len(images) != source.arity:
            raise ValueError(
                "expected %d images, got %d" % (source.arity, len(images))
            )
        self.source = source
        self.target = target
        super().__init__(images, target.one())

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra, [algebra.variable(i) for i in range(algebra.arity)])

    def _relations(self):
        return self.source.ideal.generators

    def apply(self, p):
        """The image of ``p`` in normal form, summed from the table of monomial images."""
        self.require()
        if p.arity != self.source.arity:
            raise ValueError("element arity does not match the source algebra")
        return self._sum(p)

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


class Derivation(_TableMap):
    """A K-linear derivation of an algebra, stored by variable images.

    Well-definedness on the quotient requires the Leibniz extension to map
    the ideal into itself; checking the Groebner generators suffices since
    every ideal element is an algebra combination of them.
    """

    __slots__ = ("algebra",)
    _CHECK = "ideal generator %s stays in the ideal"
    _WITNESS = "derivative has normal form %s"
    _NO_RELATIONS = "free algebra: every derivation preserves the zero ideal"
    _REFUSAL = "derivation does not preserve the ideal"

    def __init__(self, algebra, images):
        images = [algebra.nf(q) for q in images]
        if len(images) != algebra.arity:
            raise ValueError(
                "expected %d images, got %d" % (algebra.arity, len(images))
            )
        self.algebra = algebra
        super().__init__(images, algebra.zero())

    @classmethod
    def _raw(cls, algebra, images):
        """Trusted constructor: ``images`` are ``algebra.arity`` reduced polynomials."""
        d = object.__new__(cls)
        d.algebra = algebra
        _TableMap.__init__(d, images, algebra.zero())
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

    @property
    def source(self):
        """A derivation of A is a linear map A -> A."""
        return self.algebra

    target = source

    def _relations(self):
        return self.algebra.ideal.groebner

    def apply(self, p):
        """The Leibniz extension in normal form, summed from the table of monomial images."""
        self.require()
        if p.arity != self.algebra.arity:
            raise ValueError("element arity does not match the algebra")
        return self._sum(p)

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
