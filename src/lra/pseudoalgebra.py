"""Lie pseudoalgebras presented as free modules with polynomial structure.

A pseudoalgebra here is a free module over a presented algebra, carrying
an anchor (one derivation per basis vector) and a bracket given by a
structure table on basis pairs.  The bracket of arbitrary elements is the
Leibniz-compatible bilinear extension:

    [X, Y] = sum_{i<j} (x_i y_j - x_j y_i) [e_i, e_j]
           + sum_k theta(X)(y_k) e_k - sum_k theta(Y)(x_k) e_k

Axioms are checked on basis data only.  The rule [fX, Y] = f[X, Y] -
rho(Y)(f) X gives the Jacobiator of basis vectors straight from the
table c_ab^l and the anchors: coordinate m of [[e_a, e_b], e_c] is

    sum_l c_ab^l c_lc^m - rho_c(c_ab^m),

and the Jacobiator is its cyclic sum over (a, b, c).  Basis triples
suffice: once rho is a derivation on each basis vector and sends
brackets to commutators, the Jacobiator is alternating and A-linear in
each argument, since J(fX, Y, Z) = f J(X, Y, Z) + (rho([Y, Z]) -
[rho(Y), rho(Z)])(f) X.  So it vanishes when it vanishes on e_a, e_b,
e_c for a < b < c.

Each formula sums into one ``poly._Sum`` accumulator per output
coordinate and reduces it once, at the end, since the normal form is
Q-linear.  ``_combine_add`` (weighted sums of coefficient vectors),
``_anchor_sum`` (the anchor) and ``_leibniz_add`` (the bracket) add into
given accumulators; ``_combine``, ``anchor_apply`` and ``_leibniz_bracket``
finish one each.  An identity lhs = rhs is decided the same way: both
sides go into one accumulator with opposite signs, and one reduction
tests nf(lhs - rhs) for zero (``_anchor_identity``, ``_anchor_axiom`` and
the bracket conditions of ``maps``).  Only a failing check needs the two
sides, for its witness; by linearity one side, read as before, and the
difference give the other with no new reduction (``_sides``).
"""

from collections import defaultdict
from fractions import Fraction

from .algebra import AlgebraPres, Derivation
from .poly import MPoly, _add_product, _Sum, monomials_up_to
from .verdict import VerdictReport, VerificationError


class PAlg:
    """A Lie pseudoalgebra over a presented algebra.

    structure[(i, j)] for i < j holds the coefficients of [e_i, e_j] on the
    basis.  The i = j and i > j entries follow from antisymmetry.
    ``_nonzero`` holds the nonzero entries of every row, i >= j included,
    as (index, coefficient) pairs; it is built once, for the Jacobiator.
    """

    __slots__ = ("algebra", "rank", "anchors", "structure", "_nonzero")

    def __init__(self, algebra, rank, anchors, structure=None):
        anchors = list(anchors)
        if len(anchors) != rank:
            raise ValueError("need one anchor derivation per basis vector")
        for d in anchors:
            if d.algebra != algebra:
                raise ValueError("anchor derivation lives on the wrong algebra")
        table = {}
        structure = dict(structure or {})
        for i in range(rank):
            for j in range(i + 1, rank):
                row = structure.pop((i, j), None)
                if row is None:
                    row = [algebra.zero()] * rank
                row = [algebra.nf(c) for c in row]
                if len(row) != rank:
                    raise ValueError("structure row (%d,%d) has wrong length" % (i, j))
                table[(i, j)] = tuple(row)
        if structure:
            raise ValueError("structure table keys must satisfy i < j; got %r" % sorted(structure))
        self.algebra = algebra
        self.rank = rank
        self.anchors = tuple(anchors)
        self.structure = table
        nonzero = dict.fromkeys(((i, i) for i in range(rank)), ())
        for (i, j), row in table.items():
            pairs = nonzero[(i, j)] = tuple((l, c) for l, c in enumerate(row) if c.terms)
            nonzero[(j, i)] = tuple((l, -c) for l, c in pairs)
        self._nonzero = nonzero

    def struct_coeffs(self, i, j):
        """Coefficients of [e_i, e_j], valid for any i, j."""
        if i < j:
            return self.structure[(i, j)]
        if i > j:
            return tuple(-c for c in self.structure[(j, i)])
        return (self.algebra.zero(),) * self.rank

    def basis(self, i):
        coords = [self.algebra.zero()] * self.rank
        coords[i] = self.algebra.one()
        return PAElement._raw(self, coords)

    def zero_element(self):
        return PAElement._raw(self, [self.algebra.zero()] * self.rank)

    def bracket_basis(self, i, j):
        return PAElement._raw(self, self.struct_coeffs(i, j))

    def render_element(self, coords):
        return "(%s)" % ", ".join(self.algebra.render(c) for c in coords)

    def __eq__(self, other):
        if not isinstance(other, PAlg):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.rank == other.rank
            and self.anchors == other.anchors
            and self.structure == other.structure
        )

    def __repr__(self):
        return "PAlg(rank=%d over %r)" % (self.rank, self.algebra)


class CoordVector:
    """A vector of coordinates over an owner's algebra, stored in normal form.

    The owner provides ``algebra``, where the coordinates live, and
    ``rank``, their number: a pseudoalgebra for its elements, a twisted
    sum for mixed elements, a restriction for residues.  Every stored
    coordinate equals its normal form over ``owner.algebra``.

    The public constructor validates the length and reduces each
    coordinate, so loaders and callers may pass any polynomials.  The
    trusted ``_raw`` does neither; internal results build through it.  The
    normal form by a Groebner basis is Q-linear, so sums, differences,
    negations and rational multiples of reduced coordinates are reduced:
    those operations skip ``nf``.  Only a product, a substitution or a
    derivation image needs it, such as scaling by a polynomial.
    """

    __slots__ = ("owner", "coords")
    _owners = "owners"  # what a subclass calls its owners, for errors

    def __init__(self, owner, coords):
        coords = tuple(map(owner.algebra.nf, coords))
        if len(coords) != owner.rank:
            raise ValueError("expected %d coordinates, got %d" % (owner.rank, len(coords)))
        self.owner = owner
        self.coords = coords

    @classmethod
    def _raw(cls, owner, coords):
        """Trusted constructor: ``coords`` are ``owner.rank`` reduced polynomials."""
        v = object.__new__(cls)
        v.owner = owner
        v.coords = tuple(coords)
        return v

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def _same_owner(self, other):
        if self.owner is not other.owner and self.owner != other.owner:
            raise ValueError("elements belong to different %s" % self._owners)

    def __add__(self, other):
        self._same_owner(other)
        return self._raw(self.owner, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._same_owner(other)
        return self._raw(self.owner, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self._raw(self.owner, [-a for a in self.coords])

    def scale(self, a):
        """Multiply by a rational constant or by an element of the owner's algebra."""
        if isinstance(a, (int, Fraction)):
            return self._raw(self.owner, [c.scale(a) for c in self.coords])
        nf = self.owner.algebra.nf
        return self._raw(self.owner, [nf(a * c) for c in self.coords])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.owner is other.owner or self.owner == other.owner) and self.coords == other.coords

    def _render(self, coords):
        return "(%s)" % ", ".join(map(self.owner.algebra.render, coords))

    def render(self):
        """Canonical text: each coordinate rendered by the owner's algebra."""
        return self._render(self.coords)

    def __repr__(self):
        return type(self).__name__ + self._render(self.coords)


class PAElement(CoordVector):
    """An element of a PAlg: one coordinate per basis vector."""

    __slots__ = ()
    _owners = "pseudoalgebras"

    @property
    def parent(self):
        return self.owner


def _reduce(alg, out):
    """The finished sum ``out`` in normal form over ``alg``; an empty sum is
    zero and skips ``nf``."""
    terms = out.finish()
    return alg.nf(MPoly._raw(alg.arity, terms)) if terms else MPoly._raw(alg.arity, terms)


def _combine_add(out, terms, push=None, sign=1):
    """``out[k] += sign * sum_n w_n push(v_n)[k]`` for ``_Sum`` accumulators ``out``.

    ``terms`` yields pairs of a weight w_n and a vector v_n with one entry
    per accumulator; ``push`` is an algebra map that carries the entries
    into the algebra of the weights (``None`` is the identity), and adds
    each pushed entry straight from its table.  Zero weights and zero
    entries cost no product and no push.
    """
    for weight, vector in terms:
        if not weight.terms:
            continue
        for k, c in enumerate(vector):
            if c.terms:
                if push is None:
                    _add_product(out[k], weight.terms, c.terms, sign)
                else:
                    push._add_image(out[k], c, weight.terms, sign)


def _combine(alg, rank, terms, push=None):
    """Coordinates of sum_n w_n push(v_n), each in normal form over ``alg``:
    one ``_combine_add`` into ``rank`` accumulators, each reduced once.  This
    is the one weighted sum of coefficient vectors: brackets, the anchor
    axiom, map extensions, span residuals and flattening all call it or its
    accumulating form.
    """
    out = [_Sum() for _ in range(rank)]
    _combine_add(out, terms, push)
    return [_reduce(alg, t) for t in out]


def bracket(x, y):
    """The bracket of two elements of one pseudoalgebra."""
    x._same_owner(y)
    return PAElement._raw(x.parent, _leibniz_bracket(x.parent, None, x.coords, y.coords, x, y))


def _leibniz_bracket(e, push, u, w, x, y):
    """The Leibniz-extended bracket, shared by every bracket formula.

    Returns the coefficients, each in normal form,

        out[k] = sum_{i != j} u_i w_j push([e_i, e_j]_k) + theta(x)(w_k) - theta(y)(u_k)

    over the algebra of ``x`` and ``y``.  ``u`` and ``w`` are coefficients
    on the basis of ``e``; ``push`` carries the structure coefficients of
    ``e`` into that algebra (``None`` is the identity).
    """
    out = [_Sum() for _ in range(e.rank)]
    _leibniz_add(out, e, push, u, w, x, y)
    return [_reduce(x.parent.algebra, t) for t in out]


def _leibniz_add(out, e, push, u, w, x, y, sign=1):
    """``out[k] += sign * (the bracket formula of _leibniz_bracket)[k]``.  The
    structure part reads the stored rows only: a pair i > j enters as
    -u_i w_j [e_j, e_i]."""
    rows = e.structure
    ku = [i for i, c in enumerate(u) if c.terms]
    kw = [j for j, c in enumerate(w) if c.terms]
    _combine_add(out, ((u[i] * w[j], rows[(i, j)]) for i in ku for j in kw if i < j), push, sign)
    _combine_add(out, ((u[i] * w[j], rows[(j, i)]) for i in ku for j in kw if i > j), push, -sign)
    for k, t in enumerate(out):
        _anchor_sum(t, x, w[k], sign)
        _anchor_sum(t, y, u[k], -sign)


def anchor_apply(x, a):
    """Apply the anchor of ``x`` to an algebra element."""
    alg = x.parent.algebra
    if a.arity != alg.arity:
        raise ValueError("argument arity does not match the coefficient algebra")
    out = _Sum()
    _anchor_sum(out, x, a)
    return _reduce(alg, out)


def _anchor_sum(out, x, a, sign=1):
    """``out += sign * theta(x)(a)`` for a ``_Sum`` ``out``: sum_i x_i rho_i(a),
    from the tables.  Each rho_i with x_i != 0 must be a derivation, even of a constant."""
    for xi, delta in zip(x.coords, x.parent.anchors):
        if xi.terms:
            delta._add_image(out, a, xi.terms, sign)


def _anchor_identity(psi, anchors, terms, y, v):
    """nf(lhs - rhs) for the anchor identity at the variable x_v of A,

        lhs = sum_i psi(rho_i(x_v)) b_i,    rhs = theta(y)(psi(x_v)),

    zero exactly when the identity holds.  ``terms`` pairs each index i of
    the ``anchors`` rho_i with b_i in the algebra of ``y``.  rho_i(x_v) and
    psi(x_v) are the variable entries of their maps' tables, and each
    psi(rho_i(x_v)) b_i is summed from the table of psi; each map used must
    pass its ideal check, and psi must even when every b_i is zero.
    """
    out = _Sum()
    for i, b in terms:
        if b.terms:
            anchors[i].require()
            psi._add_image(out, anchors[i].images[v], b.terms)
    psi.require()
    _anchor_sum(out, y, psi.images[v], -1)
    return _reduce(y.parent.algebra, out)


def anchor_derivation(x):
    """The anchor of ``x`` packaged as a Derivation of the algebra; its
    images come from ``anchor_apply`` in normal form."""
    alg = x.parent.algebra
    return Derivation._raw(alg, [anchor_apply(x, alg.variable(v)) for v in range(alg.arity)])


def axioms_check(e):
    """Verify the defining identities on basis data.

    Checks, itemized per witness: every anchor entry is a derivation, the
    anchor sends basis brackets to commutators (tested on algebra
    variables), and the Jacobi identity holds on all basis triples
    a < b < c.  Coordinate m of the Jacobiator of a triple is the cyclic
    sum of sum_l c_ab^l c_lc^m - rho_c(c_ab^m), read from the table.
    Given the first two axioms the Jacobiator is A-trilinear and
    alternating (see the module docstring), so basis triples suffice.
    When some anchor entry is not a derivation the report stops there.
    """
    report = _derivation_checks(e.anchors)
    if not report.verdict:
        return report

    _anchor_axiom(report, e.anchors, e.structure)

    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            for k in range(j + 1, e.rank):
                jac = _basis_jacobiator(e, i, j, k)
                report.add(
                    "Jacobi identity on (e_%d, e_%d, e_%d)" % (i, j, k),
                    all(c.is_zero() for c in jac),
                    lambda: "jacobiator is %s" % e.render_element(jac),
                )
    return report


def _basis_jacobiator(e, a, b, c):
    """Coordinates of [[e_a, e_b], e_c] + [[e_b, e_c], e_a] + [[e_c, e_a], e_b].

    By [fX, Y] = f[X, Y] - rho(Y)(f) X, coordinate m of [[e_i, e_j], e_k]
    is sum_l c_ij^l c_lk^m - rho_k(c_ij^m), straight from the table; rho_k
    of a constant is zero.  The anchors must be known to be derivations.
    """
    alg = e.algebra
    one = alg.one().terms
    nonzero = e._nonzero
    out = [_Sum() for _ in range(e.rank)]
    for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
        for l, u in nonzero[(i, j)]:
            for m, v in nonzero[(l, k)]:
                _add_product(out[m], u.terms, v.terms)
            e.anchors[k]._add_image(out[l], u, one, -1)
    return [_reduce(alg, t) for t in out]


def _derivation_checks(derivations):
    """A report with one check per basis entry: is it a derivation of its algebra?"""
    report = VerdictReport()
    for i, delta in enumerate(derivations):
        report.fold("anchor of e_%d is a derivation" % i, delta.check())
    return report


def _anchor_axiom(report, derivations, structure):
    """Add the anchor axiom [d_i, d_j] = sum_k c_ij^k d_k to ``report``.

    ``structure[(i, j)]`` holds c_ij^k for i < j, in normal form over the
    algebra of the derivations ``d_k``, which must already be known to be
    derivations.  One check per pair and variable x_v: nf([d_i, d_j](x_v) -
    sum_k c_ij^k d_k(x_v)) is zero.  The commutator needs no ``nf``.
    """
    for (i, j), row in structure.items():
        alg = derivations[i].algebra
        out = [_Sum() for _ in range(alg.arity)]
        derivations[i]._add_commutator(out, derivations[j])
        _combine_add(out, zip(row, (delta.images for delta in derivations)), sign=-1)
        for v, t in enumerate(out):
            diff = _reduce(alg, t)
            report.add(
                "anchor respects [e_%d, e_%d] on %s" % (i, j, alg.variables[v]),
                not diff.terms,
                lambda: "anchor of bracket gives %s, commutator gives %s"
                % _sides(alg.render, derivations[i].commutator(derivations[j]).images[v], diff)[::-1],
            )


def _sides(render, side, diff):
    """``side`` and the other side, side - diff for diff = nf(side - other side), rendered."""
    if isinstance(side, MPoly):
        return render(side), render(side - diff)
    return render(side), render([a - b for a, b in zip(side, diff)])


def differential(e, omega):
    """Exterior differential on degrees 0 and 1, on forms as plain data.

    Degree 0: an algebra element a (an ``MPoly``) gives the tuple of
    <da, e_i> = theta(e_i)(a).  Degree 1: ``e.rank`` coefficients <xi, e_i>
    give a dict on the pairs i < j of
    <dxi, e_i ^ e_j> = theta(e_i)<xi, e_j> - theta(e_j)<xi, e_i> - <xi, [e_i, e_j]>.
    A dict is a degree-2 form, which is not supported.  Each entry is
    reduced where it is made, so inputs need not be.
    """
    alg = e.algebra
    if isinstance(omega, MPoly):
        return tuple(d.apply(omega) for d in e.anchors)
    if isinstance(omega, dict):
        raise ValueError("the differential of a degree-2 form is not supported")
    omega = tuple(omega)
    if len(omega) != e.rank:
        raise ValueError("degree-1 form needs one coefficient per basis vector")
    if any(c.arity != alg.arity for c in omega):
        raise ValueError("form arity does not match the coefficient algebra")
    one = alg.one().terms
    table = {}
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            value = _Sum()
            e.anchors[i]._add_image(value, omega[j], one)
            e.anchors[j]._add_image(value, omega[i], one, -1)
            for k, c in e._nonzero[(i, j)]:
                if omega[k].terms:
                    _add_product(value, c.terms, omega[k].terms, -1)
            table[(i, j)] = _reduce(alg, value)
    return table


# -- constructors --------------------------------------------------------


def _structure_from_commutators(algebra, basis):
    """Solve for the structure coefficients of pairwise commutators."""
    columns = [d.images for d in basis]
    table = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            row = _solve_span(algebra, columns, basis[i].commutator(basis[j]).images)
            if row is None:
                raise VerificationError(
                    "commutator of basis entries %d and %d is not expressible in the span "
                    "(searched coefficient degrees up to the data degree plus 2)" % (i, j)
                )
            table[(i, j)] = row
    return table


def _solve_span(algebra, columns, target):
    """Find algebra coefficients c_k with sum_k c_k * columns[k][v] = target[v] mod I.

    ``target`` holds derivation images, so it is in normal form already.

    Exact bounded-degree linear solve over Q; the coefficient degree bound
    grows up to the data degree plus 2, so genuinely low-degree witnesses
    are always found.
    """
    data_degree = 0
    for col in columns:
        for q in col:
            data_degree = max(data_degree, q.total_degree())
    for q in target:
        data_degree = max(data_degree, q.total_degree())
    for bound in range(data_degree + 3):
        solution = _solve_span_at(algebra, columns, target, bound)
        if solution is not None:
            return solution
    return None


def _solve_span_at(algebra, columns, target, degree):
    arity = algebra.arity
    rank = len(columns)
    monos = monomials_up_to(arity, degree)
    unknowns = [(k, m) for k in range(rank) for m in monos]
    width = len(unknowns)
    rows = defaultdict(lambda: [0] * (width + 1))  # one row per (variable, monomial)
    for col_index, (k, m) in enumerate(unknowns):
        mono = MPoly.monomial(arity, m)
        for v in range(arity):
            prod = algebra.nf(mono * columns[k][v])
            for gamma, c in prod.terms.items():
                rows[(v, gamma)][col_index] += c
    for v in range(arity):
        for gamma, c in target[v].terms.items():
            rows[(v, gamma)][-1] += c

    matrix = [rows[key] for key in sorted(rows)]
    pivot_cols = []
    r = 0
    for col in range(width):
        pivot = None
        for i in range(r, len(matrix)):
            if matrix[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        lead = matrix[r][col]
        matrix[r] = [Fraction(value, lead) for value in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivot_cols.append(col)
        r += 1
    for i in range(r, len(matrix)):
        if matrix[i][-1] != 0:
            return None  # inconsistent at this degree bound
    values = [0] * width
    for row_index, col in enumerate(pivot_cols):
        values[col] = matrix[row_index][-1]
    return [MPoly(arity, {m: values[n] for n, (kk, m) in enumerate(unknowns) if kk == k}) for k in range(rank)]


def make_der(algebra, basis=None, structure=None):
    """The pseudoalgebra of derivations spanned by a finite basis.

    For a free polynomial algebra the default basis is the partial
    derivatives (zero structure table).  For user-supplied bases the
    pairwise commutators are expressed in the span automatically, or taken
    from caller-supplied coefficients (a pair left out is zero);
    inexpressible commutators are an error.  The axiom check then decides
    that each basis entry is a derivation (checked first, before any
    commutator is solved for), that the coefficients give the commutators,
    and the Jacobi identity.
    """
    if basis is None:
        if not algebra.is_free():
            raise ValueError(
                "a derivation basis must be supplied for quotient algebras"
            )
        basis = [Derivation.partial(algebra, i) for i in range(algebra.arity)]
        structure = {}
    basis = list(basis)
    failure = "derivations and structure coefficients do not match the axioms"
    if structure is None:
        # commutators of non-derivations of a quotient are not defined on it
        _derivation_checks(basis).require(failure)
        structure = _structure_from_commutators(algebra, basis)
    e = PAlg(algebra, len(basis), basis, structure)
    axioms_check(e).require(failure)
    return e


def make_klie(structure, rank=None):
    """A Lie algebra over Q, from rational structure constants on pairs i<j."""
    if rank is None:
        rank = 1 + max((max(i, j) for i, j in structure), default=-1)
        rank = max(rank, max((len(v) for v in structure.values()), default=0))
    algebra = AlgebraPres.scalars()
    table = {
        key: [algebra.const(c) for c in row] for key, row in structure.items()
    }
    e = PAlg(algebra, rank, [Derivation.zero(algebra)] * rank, table)
    axioms_check(e).require("structure constants do not satisfy the Jacobi identity")
    return e


def make_action(algebra, klie, theta):
    """The action pseudoalgebra of a Q-Lie algebra acting by derivations.

    ``theta`` assigns a derivation of ``algebra`` to each basis vector of
    ``klie``.  The axiom check decides that every image is a derivation
    and that theta is a Lie algebra morphism: its anchor condition on the
    constant structure table of ``klie`` is [theta_i, theta_j] =
    sum_k c_ij^k theta_k.
    """
    theta = list(theta)
    if klie.algebra.arity != 0:
        raise ValueError("the acting object must be a Lie algebra over Q")
    if len(theta) != klie.rank:
        raise ValueError("need one derivation per Lie algebra basis vector")
    table = {
        key: [algebra.const(c.constant_value()) for c in row]
        for key, row in klie.structure.items()
    }
    e = PAlg(algebra, klie.rank, theta, table)
    axioms_check(e).require("theta is not a Lie algebra morphism into the derivations")
    return e


def make_cotangent_poisson(algebra, pi):
    """The pseudoalgebra of one-forms of a polynomial Poisson structure.

    ``pi`` is an antisymmetric matrix of polynomials.  The anchor sends
    dx_i to sum_j pi[i][j] d/dx_j and the bracket of basis one-forms is
    [dx_i, dx_j] = d(pi[i][j]).  The axiom check passes exactly when pi
    satisfies the Poisson (Jacobi) condition; failures are reported with
    the witness triple.
    """
    if not algebra.is_free():
        raise ValueError("a free polynomial algebra is required")
    n = algebra.arity
    if len(pi) != n or any(len(row) != n for row in pi):
        raise ValueError("pi must be an n-by-n matrix of polynomials")
    for i in range(n):
        for j in range(n):
            if algebra.nf(pi[i][j] + pi[j][i]) != algebra.zero():
                raise ValueError("pi is not antisymmetric at (%d, %d)" % (i, j))
    anchors = [Derivation(algebra, [pi[i][j] for j in range(n)]) for i in range(n)]
    table = {
        (i, j): [pi[i][j].partial(k) for k in range(n)]
        for i in range(n)
        for j in range(i + 1, n)
    }
    e = PAlg(algebra, n, anchors, table)
    report = axioms_check(e)
    if not report.verdict:
        raise VerificationError("pi is not Poisson", report)
    return e
