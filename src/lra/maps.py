"""Morphisms and comorphisms of Lie pseudoalgebras.

A morphism from E over A to F over B covers an algebra map psi: A -> B and
sends E into F, extending psi-semilinearly from basis images.  A
comorphism from F to E runs against psi: its module map sends F into
E tensor_A B, stored as one row of B-coefficients (on E's basis) per
F-basis vector.

Both notions are verified on basis data; the graph of either map is a
family of mixed elements of the twisted sum, and the graph checker
decides the subalgebra property, which matches the direct verifiers
case by case.  The anchor conditions are instances of the twisted-sum
membership identity (see ``psisum``) and the comorphism bracket condition
is the twisted-sum bracket, so both verifiers call the same kernels as
the graph checker.
"""

from .algebra import AlgMorphism
from .poly import MPoly, _add_product, _Sum
from .pseudoalgebra import (
    PAElement,
    _anchor_axiom,
    _anchor_identity,
    _combine,
    _combine_add,
    _leibniz_add,
    _reduce,
    _sides,
    anchor_derivation,
    differential,
)
from .psisum import MixedElement, PsiSumCtx, membership_report, psisum_bracket
from .verdict import VerdictReport


class _PAMap:
    """The fields of both map notions; two maps are equal exactly when they
    have the same class and the same fields."""

    __slots__ = ("source", "target", "psi", "images")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.psi == other.psi
            and self.images == other.images
        )


class PAMorphism(_PAMap):
    """A pseudoalgebra morphism candidate: psi plus basis images in F."""

    __slots__ = ()

    def __init__(self, source, target, psi, images):
        if psi.source != source.algebra or psi.target != target.algebra:
            raise ValueError("psi must map the source algebra into the target algebra")
        images = list(images)
        for img in images:
            if img.parent is not target and img.parent != target:
                raise ValueError("each image must be an element of the target")
        if len(images) != source.rank:
            raise ValueError("need one image per source basis vector")
        self.source = source
        self.target = target
        self.psi = psi
        self.images = tuple(images)

    @classmethod
    def identity(cls, e):
        return cls(e, e, AlgMorphism.identity(e.algebra), [e.basis(i) for i in range(e.rank)])

    def apply(self, x):
        """psi-semilinear extension from basis images: sum_i psi(x_i) Psi(e_i)."""
        f = self.target
        return PAElement._raw(f, _combine(f.algebra, f.rank, self._terms(enumerate(x.coords))))

    def _terms(self, pairs):
        """The weighted sum of ``apply`` on (i, x_i) pairs: pairs (psi(x_i),
        coordinates of Psi(e_i))."""
        return ((self.psi.apply(c), enumerate(self.images[i].coords)) for i, c in pairs if c.terms)

    def __repr__(self):
        return "PAMorphism(%d -> %d basis images)" % (self.source.rank, self.target.rank)


class PAComorphism(_PAMap):
    """A comorphism candidate from F (over B) to E (over A), over psi: A -> B.

    ``images[j][k]`` is the B-coefficient of the k-th E-basis vector in the
    image of the j-th F-basis vector.
    """

    __slots__ = ()

    def __init__(self, source, target, psi, images):
        if psi.source != target.algebra or psi.target != source.algebra:
            raise ValueError("psi must map the target algebra into the source algebra")
        b_alg = source.algebra
        rows = []
        for row in images:
            row = [b_alg.nf(c) for c in row]
            if len(row) != target.rank:
                raise ValueError("each image row needs one coefficient per E-basis vector")
            rows.append(tuple(row))
        if len(rows) != source.rank:
            raise ValueError("need one image row per F-basis vector")
        self.source = source
        self.target = target
        self.psi = psi
        self.images = tuple(rows)

    @classmethod
    def _raw(cls, source, target, psi, rows):
        """Trusted constructor: ``source.rank`` rows of ``target.rank`` coefficients in normal form."""
        m = object.__new__(cls)
        m.source, m.target, m.psi, m.images = source, target, psi, tuple(map(tuple, rows))
        return m

    @classmethod
    def identity(cls, e):
        rows = [
            [e.algebra.one() if k == j else e.algebra.zero() for k in range(e.rank)]
            for j in range(e.rank)
        ]
        return cls(e, e, AlgMorphism.identity(e.algebra), rows)

    def apply(self, y):
        """B-linear extension: the tensor coefficients of the image of y."""
        return _combine(self.source.algebra, self.target.rank, zip(y.coords, map(enumerate, self.images)))

    def __repr__(self):
        return "PAComorphism(%d -> %d tensor rows)" % (self.source.rank, self.target.rank)


# -- direct verifiers ------------------------------------------------------


def check_pamorphism(m):
    """Both defining conditions, on basis vectors against algebra variables.

    (1) psi([e_i, a]) = [Psi(e_i), psi(a)] for every source variable a;
    (2) Psi([e_i, e_j]) = [Psi(e_i), Psi(e_j)] for i < j.
    Basis data suffices: both sides of (1) are psi-twisted derivations in a,
    and (2) extends to general elements via (1) and semilinearity.  Each
    check reduces lhs - rhs once.
    """
    report = VerdictReport()
    e, f = m.source, m.target
    a_alg, b_alg = e.algebra, f.algebra
    one = b_alg.one()
    for i in range(e.rank):
        for v, name in enumerate(a_alg.variables):
            diff = _anchor_identity(m.psi, e.anchors, [(i, one)], m.images[i], v)
            report.add(
                "anchor condition on e_%d at %s" % (i, name),
                not diff.terms,
                lambda: "psi([e_{0}, {1}]) = {2} but [image, psi({1})] = {3}".format(
                    i, name, *_sides(b_alg.render, m.psi.apply(e.anchors[i].images[v]), diff)
                ),
            )
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            out = [_Sum() for _ in range(f.rank)]
            _combine_add(out, m._terms(e.structure[(i, j)]))
            _leibniz_add(out, f, None, m.images[i].coords, m.images[j].coords, m.images[i], m.images[j], -1)
            diff = [_reduce(b_alg, t) for t in out]
            report.add(
                "bracket condition on (e_%d, e_%d)" % (i, j),
                not any(diff),
                lambda: "image of the bracket is %s but bracket of the images is %s"
                % _sides(f.render_element, m.apply(e.bracket_basis(i, j)).coords, diff),
            )
    if not report.checks:
        report.add("no conditions to check (rank <= 1 over the scalars)", True)
    return report


def check_pacomorphism(m):
    """Both defining conditions of a comorphism, on basis data.

    (1) [f_j, psi(a)] = sum_k b_{jk} psi([e_k, a]) for every A-variable a;
    (2) the image of [f_i, f_j] equals the twisted-sum bracket formula
        evaluated on the image rows.
    """
    report = VerdictReport()
    f, e = m.source, m.target
    a_alg, b_alg = e.algebra, f.algebra
    for j in range(f.rank):
        for v, name in enumerate(a_alg.variables):
            diff = _anchor_identity(m.psi, e.anchors, enumerate(m.images[j]), f.basis(j), v)
            report.add(
                "anchor condition on f_%d at %s" % (j, name),
                not diff.terms,
                lambda: "[f_{0}, psi({1})] = {2} but sum_k b_k psi([e_k, {1}]) = {3}".format(
                    j, name, *_sides(b_alg.render, f.anchors[j].apply(m.psi.images[v]), -diff)
                ),
            )
    for i in range(f.rank):
        for j in range(i + 1, f.rank):
            out = [_Sum() for _ in range(e.rank)]
            _combine_add(out, ((c, enumerate(m.images[k])) for k, c in f.structure[(i, j)]))
            _leibniz_add(out, e, m.psi, m.images[i], m.images[j], f.basis(i), f.basis(j), -1)
            diff = [_reduce(b_alg, t) for t in out]
            report.add(
                "bracket condition on (f_%d, f_%d)" % (i, j),
                not any(diff),
                lambda: "image of the bracket is %s but the bracket formula gives %s"
                % _sides(f.render_element, m.apply(f.bracket_basis(i, j)), diff),
            )
    if not report.checks:
        report.add("no conditions to check (rank <= 1 over the scalars)", True)
    return report


# -- graphs ----------------------------------------------------------------


def graph(m):
    """Graph generators of a map candidate, as mixed elements.

    Morphism case: e_i tensor 1 + Psi(e_i); comorphism case: Psi(f_j) + f_j.
    Returns (twisted-sum context, generator list).
    """
    if isinstance(m, PAMorphism):
        ctx = PsiSumCtx(m.source, m.target, m.psi)
        b_alg = m.target.algebra
        gens = [
            MixedElement._raw(
                ctx,
                [b_alg.one() if k == i else b_alg.zero() for k in range(m.source.rank)] + list(img.coords),
            )
            for i, img in enumerate(m.images)
        ]
        return ctx, gens
    if isinstance(m, PAComorphism):
        ctx = PsiSumCtx(m.target, m.source, m.psi)
        gens = [
            MixedElement._raw(ctx, row + m.source.basis(j).coords)
            for j, row in enumerate(m.images)
        ]
        return ctx, gens
    raise TypeError("expected a PAMorphism or PAComorphism")


def graph_subalgebra_check(ctx, generators, kind):
    """Decide whether the generated B-submodule is a subalgebra of the sum.

    Checks that every generator is a member and that every pairwise
    bracket lies in the B-span of the generators.  Span membership uses
    the graph shape: the distinguished block (tensor coordinates for
    morphism graphs, F-coordinates for comorphism graphs) determines the
    only possible combination, so subtracting it must leave zero.
    """
    if kind not in ("morphism", "comorphism"):
        raise ValueError("kind must be 'morphism' or 'comorphism'")
    report = VerdictReport()
    for n, gen in enumerate(generators):
        report.fold("generator %d is a member of the twisted sum" % n, membership_report(ctx, gen))
    if not report.verdict:
        return report
    for n1 in range(len(generators)):
        for n2 in range(n1 + 1, len(generators)):
            w = psisum_bracket(ctx, generators[n1], generators[n2], check=False)
            residual = _span_residual(ctx, generators, w, kind)
            report.add(
                "bracket of generators %d and %d stays in the span" % (n1, n2),
                residual.is_zero(),
                lambda: "residual after subtracting the span combination: %s" % residual.render(),
            )
    if not generators:
        report.add("empty generator family is trivially closed", True)
    return report


def _span_residual(ctx, generators, w, kind):
    """w minus the span combination its distinguished block names, summed
    into one accumulator per coordinate and reduced once."""
    coeffs = w.tensor if kind == "morphism" else w.f_part
    out = [_Sum() for _ in range(ctx.rank)]
    _combine_add(out, [(ctx.algebra.one(), enumerate(w.coords))])
    _combine_add(out, zip(coeffs, (enumerate(gen.coords) for gen in generators)), sign=-1)
    return MixedElement._raw(ctx, [_reduce(ctx.algebra, t) for t in out])


# -- composition -----------------------------------------------------------


def compose_morphisms(m1, m2):
    """The composite of morphisms m1: E -> F and m2: F -> G."""
    if m2.source != m1.target:
        raise ValueError("morphisms are not composable")
    images = [m2.apply(img) for img in m1.images]
    return PAMorphism(m1.source, m2.target, m1.psi.compose(m2.psi), images)


def compose_comorphisms(m1, m2):
    """The composite of comorphisms m1: F => E over psi and m2: G => F over theta.

    The result maps G into E tensor C over theta . psi, pushing m1's
    B-coefficients through theta and multiplying by m2's C-coefficients.
    """
    if m2.target != m1.source:
        raise ValueError("comorphisms are not composable")
    theta, c_alg = m2.psi, m2.source.algebra
    rows = [_combine(c_alg, m1.target.rank, zip(row, map(enumerate, m1.images)), theta) for row in m2.images]
    return PAComorphism._raw(m2.source, m1.target, m1.psi.compose(theta), rows)


# -- the dual chain map ----------------------------------------------------


def _dual_one_form(m, xi_coeffs):
    """Pull a one-form on E back to a one-form on F through the tensor rows:
    the coefficient of e_k in every row, weighted by psi(xi_k)."""
    columns = zip(*m.images)
    terms = ((m.psi.apply(c), enumerate(column)) for c, column in zip(xi_coeffs, columns) if not c.is_zero())
    return tuple(_combine(m.source.algebra, m.source.rank, terms))


def _dual_two_form(m, omega_table):
    """Pull a two-form on E back to F: antisymmetrized products of rows."""
    b_alg = m.source.algebra
    pushed = [(p, q, m.psi.apply(c).terms) for (p, q), c in omega_table.items() if c.terms]
    rows = m.images
    table = {}
    for i in range(m.source.rank):
        for j in range(i + 1, m.source.rank):
            acc = _Sum()
            for p, q, c in pushed:
                if not c:
                    continue
                minor = _Sum()
                for r, s, sign in ((p, q, 1), (q, p, -1)):
                    if rows[i][r].terms and rows[j][s].terms:
                        _add_product(minor, rows[i][r].terms, rows[j][s].terms, sign)
                minor = minor.finish()
                if minor:
                    _add_product(acc, c, minor)
            table[(i, j)] = _reduce(b_alg, acc)
    return table


def _render_two_form(alg, table):
    """Canonical text of a two-form: each entry by its pair (i, j), in pair order."""
    return "{%s}" % ", ".join("(%d, %d): %s" % (i, j, alg.render(c)) for (i, j), c in sorted(table.items()))


def chain_map_check(m):
    """The dual map commutes with the differentials on degrees 0 and 1.

    Degree 0 is tested on every variable of A, degree 1 on every dual
    basis covector of E; free modules make the dual map explicit from the
    tensor rows.
    """
    report = VerdictReport()
    f, e = m.source, m.target
    a_alg = e.algebra
    for v in range(a_alg.arity):
        var = a_alg.variable(v)
        lhs = differential(f, m.psi.apply(var))
        rhs = _dual_one_form(m, differential(e, var))
        report.add(
            "degree 0 at %s" % a_alg.variables[v],
            lhs == rhs,
            lambda: "d(psi(%s)) = %s but the pulled-back differential is %s"
            % (a_alg.variables[v], f.render_element(lhs), f.render_element(rhs)),
        )
    for k in range(e.rank):
        covector = [e.algebra.one() if i == k else e.algebra.zero() for i in range(e.rank)]
        lhs = differential(f, _dual_one_form(m, covector))
        rhs = _dual_two_form(m, differential(e, covector))
        report.add(
            "degree 1 at the dual covector of e_%d" % k,
            lhs == rhs,
            lambda: "d of the pullback is %s but the pullback of d is %s"
            % (_render_two_form(f.algebra, lhs), _render_two_form(f.algebra, rhs)),
        )
    if not report.checks:
        report.add("no conditions to check (scalars and rank zero)", True)
    return report


# -- induced infinitesimal actions ------------------------------------------


def induced_infinitesimal_action(m):
    """Derivations induced by composing a verified map with the target anchor.

    The input carries morphism data from a pseudoalgebra S (typically a
    Lie algebra over Q) to a pseudoalgebra with anchor; each S-basis
    vector yields the derivation of the target algebra obtained by pushing
    its image through the anchor.  The verdict confirms that each output
    is a valid derivation and, per basis pair and target variable, that
    brackets are preserved: the outputs satisfy the anchor axiom on the
    structure table of S pushed through psi.  The outputs project onto the
    source anchor through psi by the anchor condition of the morphism,
    which is required first (semilinearity holds by the semilinear
    extension of the map).
    """
    check_pamorphism(m).require("the map is not a pseudoalgebra morphism")
    derivations = [anchor_derivation(img) for img in m.images]
    report = VerdictReport()
    for i, d in enumerate(derivations):
        report.fold("induced map %d is a derivation" % i, d.check())
    pushed = {(i, j): [(k, m.psi.apply(c)) for k, c in row] for (i, j), row in m.source.structure.items() if i < j}
    _anchor_axiom(report, derivations, pushed)
    if not report.checks:
        report.add("nothing to verify (empty action data)", True)
    return derivations, report
