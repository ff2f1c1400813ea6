"""Shared objects and candidate-suite builders.

Mutation protocol (kept reproducible on purpose): a mutant copies a valid
map and perturbs exactly one polynomial entry of one image, either adding
1 or multiplying by the first variable of the coefficient algebra the
entry lives in.  Mutants are enumerated deterministically.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.groupoid import (
    FinGroupoid,
    GroupoidAction,
    GrpdMorphism,
    check_grpd_morphism,
    cyclic_group,
    find_isomorphism,
    make_action_groupoid,
    make_pair,
    restrict_groupoid,
)
from lra.maps import PAComorphism, PAMorphism
from lra.poly import MPoly, order_key
from lra.pseudoalgebra import PAElement, bracket, make_der, make_klie


def coefficient_form(c):
    """The one coefficient form of ``lra.poly``: an int exactly when the value
    is integral, otherwise a Fraction with denominator > 1; never a bool or a
    float."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


# -- Groebner reference ------------------------------------------------------


def s_polynomial(f, g, order="grevlex"):
    """x^a f / lc(f) - x^b g / lc(g), the leading terms cancelling at lcm(lm f, lm g)."""
    key = order_key(order)
    ef = max(f.terms, key=key)
    eg = max(g.terms, key=key)
    cf, cg = f.terms[ef], g.terms[eg]
    m = tuple(map(max, ef, eg))
    mf = MPoly.monomial(f.arity, tuple(map(sub, m, ef)), Fraction(1, 1) / cf)
    mg = MPoly.monomial(g.arity, tuple(map(sub, m, eg)), Fraction(1, 1) / cg)
    return mf * f - mg * g


def subs(p, images, arity=0):
    """``p`` with ``images[i]`` (all of one arity) substituted for variable i:
    sum_a c_a prod_i images[i]^a_i, each power built in a loop from the one
    below it.  ``arity`` is that of the result when there are no images.
    The reference for the images of algebra maps, which the library reduces
    in the target quotient one factor at a time."""
    arity = images[0].arity if images else arity
    powers = [[MPoly.one(arity)] for _ in images]
    out = MPoly.zero(arity)
    for exp, c in p.terms.items():
        term = MPoly.const(arity, c)
        for row, image, e in zip(powers, images, exp):
            while len(row) <= e:
                row.append(row[-1] * image)
            term = term * row[e]
        out = out + term
    return out


def ref_poly_to_string(p, names, order="grevlex"):
    """Canonical rendering written term by term on Fractions, the reference for ``poly_to_string``."""
    if p.is_zero():
        return "0"
    pieces = []
    for exp in sorted(p.terms, key=order_key(order), reverse=True):
        coeff = p.terms[exp]
        mono = "*".join(name if e == 1 else "%s^%d" % (name, e) for name, e in zip(names, exp) if e)
        mag = abs(coeff)
        body = str(mag) if not mono else mono if mag == 1 else "%s*%s" % (mag, mono)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    return ("-" if sign == "-" else "") + body + "".join(" %s %s" % piece for piece in pieces[1:])


# -- pseudoalgebra test objects ------------------------------------------


def algebras():
    return {
        "x": AlgebraPres.free("x"),
        "y": AlgebraPres.free("y"),
        "z": AlgebraPres.free("z"),
        "w": AlgebraPres.free("w"),
        "s": AlgebraPres.free("s"),
        "uv": AlgebraPres.free("u", "v"),
        "xy": AlgebraPres.free("x", "y"),
        "Q": AlgebraPres.scalars(),
    }


def sl2():
    """Basis order (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return make_klie({(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})


def sl2_action_images(algebra):
    """h -> -2x d/dx, e -> d/dx, f -> -x^2 d/dx."""
    x = algebra.variable(0)
    return [
        Derivation(algebra, [(-2) * x]),
        Derivation.partial(algebra, 0),
        Derivation(algebra, [-(x ** 2)]),
    ]


def dense_table(e):
    """The structure table of ``e`` as ``PAlg`` takes it: the dense row
    ``e.struct_coeffs(i, j)`` on every pair i < j."""
    return {(i, j): e.struct_coeffs(i, j) for i in range(e.rank) for j in range(i + 1, e.rank)}


# -- the normal-form invariant of coordinate vectors --------------------------


def reduced(algebra, coords):
    """Every polynomial in ``coords`` equals its normal form over ``algebra``."""
    return all(algebra.nf(c) == c for c in coords)


def stored_reduced(v):
    """The invariant of ``PAElement``, ``MixedElement`` and ``ResidueElement``:
    every stored coordinate is in normal form over the owner's algebra."""
    return reduced(v.owner.algebra, v.coords)


# -- the Jacobi identity through the general bracket ---------------------------


def jacobiator(x, y, z):
    """[[x, y], z] + [[y, z], x] + [[z, x], y], through the Leibniz-extended bracket.

    The reference for the axiom check, which reads the Jacobiator of
    basis vectors straight from the structure table and the anchors.
    """
    return bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)


# -- reference formulas of the twisted sum -----------------------------------
#
# Written straight from the paper and independent of the library's bracket
# and anchor code, so the direct verifiers and the graph test, which share
# that code, are each compared with a second implementation.


def ref_anchor(palg, coords, p):
    """theta(sum_i c_i e_i)(p) = sum_i c_i sum_v dp/dx_v theta(e_i)(x_v), as an operator."""
    out = palg.algebra.zero()
    for c, delta in zip(coords, palg.anchors):
        for v, image in enumerate(delta.images):
            out = out + c * p.partial(v) * image
    return palg.algebra.nf(out)


def ref_push(psi, p):
    """psi(p) = nf(p(images of psi)) in the target: substitution, then one nf."""
    return psi.target.nf(subs(p, psi.images, psi.target.arity))


def ref_derive(delta, p):
    """delta(p) = nf(sum_v dp/dx_v delta(x_v)), the Leibniz rule from plain partials."""
    out = p.zero(p.arity)
    for v, image in enumerate(delta.images):
        out = out + p.partial(v) * image
    return delta.algebra.nf(out)


def ref_identity_holds(ctx, z, a):
    """sum_i psi([e_i, a]) b_i = [Y, psi(a)] at one element a of A."""
    e, f, psi = ctx.e, ctx.f, ctx.psi
    lhs = f.algebra.zero()
    for i, b in enumerate(z.tensor):
        unit = [e.algebra.one() if k == i else e.algebra.zero() for k in range(e.rank)]
        lhs = lhs + ref_push(psi, ref_anchor(e, unit, a)) * b
    rhs = ref_anchor(f, z.f_part, ref_push(psi, a))
    return f.algebra.nf(lhs - rhs).is_zero()


def ref_membership(ctx, z):
    """Membership in the twisted sum: the identity on every variable of A."""
    a_alg = ctx.e.algebra
    return all(ref_identity_holds(ctx, z, a_alg.variable(v)) for v in range(a_alg.arity))


def ref_leibniz(e, push, u, w, anchored, x, y):
    """out[k] = sum_{i,j} u_i w_j push([e_i, e_j]_k) + theta(x)(w_k) - theta(y)(u_k),
    reduced, with theta the anchor of the pseudoalgebra ``anchored``, which
    owns the coordinates ``x`` and ``y`` and the algebra of the result."""
    alg = anchored.algebra
    out = [alg.zero() for _ in range(e.rank)]
    for i in range(e.rank):
        for j in range(e.rank):
            for k, c in enumerate(e.struct_coeffs(i, j)):
                out[k] = out[k] + u[i] * w[j] * push(c)
    return [alg.nf(out[k] + ref_anchor(anchored, x, w[k]) - ref_anchor(anchored, y, u[k])) for k in range(e.rank)]


def ref_psisum_bracket(ctx, z1, z2):
    """(tensor, F-part) of [sum_i e_i@b_i + Y, sum_j e_j@b'_j + Y'], reduced:

    sum_{i,j} psi([e_i, e_j]) b_i b'_j + sum_k e_k@(theta(Y)(b'_k) - theta(Y')(b_k)) + [Y, Y'].
    """
    e, f = ctx.e, ctx.f
    y1, y2 = z1.f_part, z2.f_part
    return (
        ref_leibniz(e, lambda c: ref_push(ctx.psi, c), z1.tensor, z2.tensor, f, y1, y2),
        ref_leibniz(f, lambda c: c, y1, y2, f, y1, y2),
    )


# -- two-sided references for the identities the verifiers decide -------------
#
# Each builds both sides of an identity of the paper with MPoly arithmetic
# and nf, compares them, and renders a failing check's witness as the
# library does: a list of (name, passed, witness) in the order of its report.


def _check(name, lhs, rhs, text, render):
    return name, lhs == rhs, "" if lhs == rhs else text % (render(lhs), render(rhs))


def _unit(palg, i):
    return [palg.algebra.one() if k == i else palg.algebra.zero() for k in range(palg.rank)]


def ref_pamorphism_checks(m):
    """(1) psi(rho_i(x_v)) = theta(Psi(e_i))(psi(x_v)); (2) Psi([e_i, e_j]) =
    [Psi(e_i), Psi(e_j)], the image sum_k psi(c_ij^k) Psi(e_k) semilinear."""
    e, f, psi = m.source, m.target, m.psi
    b_alg = f.algebra
    checks = []
    for i in range(e.rank):
        for v, a in enumerate(e.algebra.variables):
            lhs = ref_push(psi, ref_derive(e.anchors[i], e.algebra.variable(v)))
            rhs = ref_anchor(f, m.images[i].coords, ref_push(psi, e.algebra.variable(v)))
            text = "psi([e_%d, %s]) = %%s but [image, psi(%s)] = %%s" % (i, a, a)
            checks.append(_check("anchor condition on e_%d at %s" % (i, a), lhs, rhs, text, b_alg.render))
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            x, y = m.images[i].coords, m.images[j].coords
            lhs = [b_alg.zero()] * f.rank
            for c, img in zip(e.struct_coeffs(i, j), m.images):
                lhs = [t + ref_push(psi, c) * d for t, d in zip(lhs, img.coords)]
            rhs = ref_leibniz(f, lambda c: c, x, y, f, x, y)
            text = "image of the bracket is %s but bracket of the images is %s"
            checks.append(_check("bracket condition on (e_%d, e_%d)" % (i, j), [b_alg.nf(t) for t in lhs], rhs,
                                 text, f.render_element))
    return checks or [("no conditions to check (rank <= 1 over the scalars)", True, "")]


def ref_pacomorphism_checks(m):
    """(1) [f_j, psi(x_v)] = sum_k b_jk psi(rho_k(x_v)); (2) the image
    sum_l c_ij^l b_l of [f_i, f_j] equals the twisted-sum bracket formula on
    the rows b_i and b_j of f_i and f_j."""
    f, e, psi = m.source, m.target, m.psi
    b_alg = f.algebra
    checks = []
    for j in range(f.rank):
        for v, a in enumerate(e.algebra.variables):
            lhs = ref_anchor(f, _unit(f, j), ref_push(psi, e.algebra.variable(v)))
            rhs = b_alg.zero()
            for b, rho in zip(m.images[j], e.anchors):
                rhs = rhs + b * ref_push(psi, ref_derive(rho, e.algebra.variable(v)))
            text = "[f_%d, psi(%s)] = %%s but sum_k b_k psi([e_k, %s]) = %%s" % (j, a, a)
            name = "anchor condition on f_%d at %s" % (j, a)
            checks.append(_check(name, lhs, b_alg.nf(rhs), text, b_alg.render))
    for i in range(f.rank):
        for j in range(i + 1, f.rank):
            lhs = [b_alg.zero()] * e.rank
            for c, row in zip(f.struct_coeffs(i, j), m.images):
                lhs = [t + c * d for t, d in zip(lhs, row)]
            rhs = ref_leibniz(e, lambda c: ref_push(psi, c), m.images[i], m.images[j], f, _unit(f, i), _unit(f, j))
            text = "image of the bracket is %s but the bracket formula gives %s"
            checks.append(_check("bracket condition on (f_%d, f_%d)" % (i, j), [b_alg.nf(t) for t in lhs], rhs,
                                 text, f.render_element))
    return checks or [("no conditions to check (rank <= 1 over the scalars)", True, "")]


def ref_membership_checks(ctx, z):
    """The membership identity of ``psisum`` on every variable of A."""
    a_alg = ctx.e.algebra
    checks = []
    for v, a in enumerate(a_alg.variables):
        holds = ref_identity_holds(ctx, z, a_alg.variable(v))
        text = "" if holds else "sum_i psi([X_i, %s]) b_i differs from [Y, psi(%s)]" % (a, a)
        checks.append(("membership identity at %s" % a, holds, text))
    return checks or [("membership identity is vacuous over the scalars", True, "")]


def ref_anchor_axiom_checks(derivations, structure):
    """[d_i, d_j](x_v) = d_i(d_j(x_v)) - d_j(d_i(x_v)) against sum_k c_ij^k d_k(x_v)."""
    checks = []
    for (i, j), row in structure.items():
        alg = derivations[i].algebra
        for v, a in enumerate(alg.variables):
            x_v = alg.variable(v)
            comm = alg.nf(ref_derive(derivations[i], ref_derive(derivations[j], x_v))
                          - ref_derive(derivations[j], ref_derive(derivations[i], x_v)))
            image = alg.zero()
            for c, delta in zip(row, derivations):
                image = image + c * ref_derive(delta, x_v)
            text = "anchor of bracket gives %s, commutator gives %s"
            checks.append(_check("anchor respects [e_%d, e_%d] on %s" % (i, j, a), alg.nf(image), comm, text,
                                 alg.render))
    return checks


# -- mutation protocol ------------------------------------------------------


def _morphism_with_entry(m, i, k, value):
    images = [PAElement(m.target, list(img.coords)) for img in m.images]
    coords = list(images[i].coords)
    coords[k] = value
    images[i] = PAElement(m.target, coords)
    return PAMorphism(m.source, m.target, m.psi, images)


def morphism_mutants(m, count):
    """Deterministic single-entry mutants of a morphism candidate."""
    b = m.target.algebra
    out = []
    for i in range(m.source.rank):
        for k in range(m.target.rank):
            entry = m.images[i].coords[k]
            out.append(_morphism_with_entry(m, i, k, entry + b.one()))
            if b.arity and not entry.is_zero():
                out.append(_morphism_with_entry(m, i, k, entry * b.variable(0)))
            if len(out) >= count:
                return out[:count]
    return out[:count]


def _comorphism_with_entry(m, j, k, value):
    rows = [list(row) for row in m.images]
    rows[j][k] = value
    return PAComorphism(m.source, m.target, m.psi, rows)


def comorphism_mutants(m, count):
    b = m.source.algebra
    out = []
    for j in range(m.source.rank):
        for k in range(m.target.rank):
            entry = m.images[j][k]
            out.append(_comorphism_with_entry(m, j, k, entry + b.one()))
            if b.arity and not entry.is_zero():
                out.append(_comorphism_with_entry(m, j, k, entry * b.variable(0)))
            if len(out) >= count:
                return out[:count]
    return out[:count]


# -- candidate suites --------------------------------------------------------


def morphism_suite():
    """At least 20 candidates: valid morphisms plus single-entry mutants."""
    alg = algebras()
    dx, dy = make_der(alg["x"]), make_der(alg["y"])
    duv, dxy = make_der(alg["uv"]), make_der(alg["xy"])
    q = alg["Q"]
    x = alg["x"].variable(0)
    ab = make_klie({}, rank=1)
    g_sl2 = sl2()
    incl_x = AlgMorphism(q, alg["x"], [])

    relabel = PAMorphism(
        dx, dy, AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]), [dy.basis(0)]
    )
    relabel2 = PAMorphism(
        duv,
        dxy,
        AlgMorphism(alg["uv"], alg["xy"], [alg["xy"].variable(0), alg["xy"].variable(1)]),
        [dxy.basis(0), dxy.basis(1)],
    )
    action_ab = PAMorphism(ab, dx, incl_x, [dx.basis(0)])
    action_sl2 = PAMorphism(
        g_sl2,
        dx,
        incl_x,
        [
            dx.basis(0).scale((-2) * x),
            dx.basis(0),
            dx.basis(0).scale(-(x ** 2)),
        ],
    )
    zero_map = PAMorphism(ab, dx, incl_x, [PAElement(dx, [dx.algebra.zero()] * dx.rank)])
    borel = make_klie({(0, 1): [0, 2]})
    borel_incl = PAMorphism(
        borel, g_sl2, AlgMorphism.identity(q), [g_sl2.basis(0), g_sl2.basis(1)]
    )
    # rank-2 bases with a nonzero polynomial structure table on both sides
    dx2 = make_der(alg["x"], [Derivation.partial(alg["x"], 0), Derivation(alg["x"], [x])])
    dy2 = make_der(
        alg["y"],
        [Derivation.partial(alg["y"], 0), Derivation(alg["y"], [alg["y"].variable(0)])],
    )
    basis_change = PAMorphism(
        dx2,
        dy2,
        AlgMorphism(alg["x"], alg["y"], [alg["y"].variable(0)]),
        [dy2.basis(0), dy2.basis(1)],
    )
    valids = [
        ("relabel-rank1", relabel),
        ("identity-rank1", PAMorphism.identity(dx)),
        ("relabel-rank2", relabel2),
        ("identity-rank2", PAMorphism.identity(duv)),
        ("abelian-action", action_ab),
        ("sl2-action", action_sl2),
        ("zero-map", zero_map),
        ("borel-inclusion", borel_incl),
        ("sl2-identity", PAMorphism.identity(g_sl2)),
        ("structured-relabel", basis_change),
    ]
    suite = list(valids)
    for label, m in valids:
        for n, mut in enumerate(morphism_mutants(m, 2)):
            suite.append(("%s-mutant%d" % (label, n), mut))
    return suite


def comorphism_suite():
    alg = algebras()
    dx = make_der(alg["x"])
    dw = make_der(alg["w"])
    ds = make_der(alg["s"])
    dt_ = make_der(alg["y"])
    duv = make_der(alg["uv"])
    dxy = make_der(alg["xy"])
    x = alg["x"].variable(0)
    s = alg["s"].variable(0)
    y = alg["y"].variable(0)

    curve_uv = PAComorphism(
        dx, duv, AlgMorphism(alg["uv"], alg["x"], [x, x ** 2]), [[alg["x"].one(), 2 * x]]
    )
    relabel_w = PAComorphism(
        dw, dx, AlgMorphism(alg["x"], alg["w"], [alg["w"].variable(0)]), [[alg["w"].one()]]
    )
    square_s = PAComorphism(
        ds, dx, AlgMorphism(alg["x"], alg["s"], [s ** 2]), [[2 * s]]
    )
    relabel_2d = PAComorphism(
        dxy,
        duv,
        AlgMorphism(alg["uv"], alg["xy"], [alg["xy"].variable(0), alg["xy"].variable(1)]),
        [
            [alg["xy"].one(), alg["xy"].zero()],
            [alg["xy"].zero(), alg["xy"].one()],
        ],
    )
    curve_2d = PAComorphism(
        dt_, dxy, AlgMorphism(alg["xy"], alg["y"], [y, y ** 2]), [[alg["y"].one(), 2 * y]]
    )
    ab = make_klie({}, rank=1)
    q = AlgebraPres.scalars()
    zero_co = PAComorphism(ab, make_klie({}, rank=1), AlgMorphism.identity(q), [[q.const(3)]])

    # source with a nonzero structure table: basis {d/dx, x d/dx} of the line
    qu = AlgebraPres.free("u")
    du = make_der(qu)
    dx2 = make_der(alg["x"], [Derivation.partial(alg["x"], 0), Derivation(alg["x"], [x])])
    structured = PAComorphism(
        dx2, du, AlgMorphism(qu, alg["x"], [x]), [[alg["x"].one()], [x]]
    )

    valids = [
        ("curve-uv", curve_uv),
        ("identity-rank1", PAComorphism.identity(dx)),
        ("identity-rank2", PAComorphism.identity(duv)),
        ("relabel-w", relabel_w),
        ("square-s", square_s),
        ("relabel-2d", relabel_2d),
        ("curve-2d", curve_2d),
        ("scalars", zero_co),
        ("structured-source", structured),
    ]
    suite = list(valids)
    for label, m in valids:
        for n, mut in enumerate(comorphism_mutants(m, 2)):
            suite.append(("%s-mutant%d" % (label, n), mut))
    return suite


# -- groupoid corpus ---------------------------------------------------------


def groupoid_corpus():
    """Named groupoids with at most 6 arrows each."""
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    swap = make_action_groupoid(
        z2, ["1", "2"], {("1", 0): "1", ("2", 0): "2", ("1", 1): "2", ("2", 1): "1"}
    )
    return {
        "pair1": make_pair(["p"]),
        "pair2": make_pair(["a", "b"]),
        "z2": make_action_groupoid(z2, ["o"], {("o", 0): "o", ("o", 1): "o"}),
        "z3": make_action_groupoid(z3, ["o"], {("o", g): "o" for g in range(3)}),
        "swap": swap,
        "swap-restricted": restrict_groupoid(swap, ["1"]),
    }


def composable_oracle(g):
    """Brute force: every pair (a, b) with tgt(a) == src(b), a then b in arrow order."""
    return [(a, b) for a in g.arrows for b in g.arrows if g.tgt[a] == g.src[b]]


def shuffled_copy(g, rng):
    """g with its objects and arrows relabelled and listed in a random order."""
    objects = {x: "x%d" % n for n, x in enumerate(rng.sample(g.objects, len(g.objects)))}
    arrows = {a: "a%d" % n for n, a in enumerate(rng.sample(g.arrows, len(g.arrows)))}
    return FinGroupoid(
        rng.sample(list(objects.values()), len(objects)),
        rng.sample(list(arrows.values()), len(arrows)),
        {arrows[a]: objects[x] for a, x in g.src.items()},
        {arrows[a]: objects[x] for a, x in g.tgt.items()},
        {objects[x]: arrows[a] for x, a in g.ident.items()},
        {arrows[a]: arrows[b] for a, b in g.inv.items()},
        {(arrows[a], arrows[b]): arrows[c] for (a, b), c in g.comp.items()},
    )


def all_base_maps(gamma, pi):
    """Every map from gamma's objects to pi's objects."""
    import itertools

    domain = list(gamma.objects)
    for values in itertools.product(pi.objects, repeat=len(domain)):
        yield dict(zip(domain, values))


def checked_isomorphism(g1, g2):
    """``find_isomorphism(g1, g2)``, asserted to be a morphism that is bijective on objects and arrows."""
    found = find_isomorphism(g1, g2)
    if found is not None:
        base, arrows = found
        assert check_grpd_morphism(g1, g2, GrpdMorphism(base, arrows)).verdict
        for images, targets in ((list(base.values()), g2.objects), (list(arrows.values()), g2.arrows)):
            assert len(set(images)) == len(images) and set(images) == set(targets)
    return found


def orbit(g, x):
    """The objects that an arrow of g leads to from x."""
    return {g.tgt[a] for a in g.arrows if g.src[a] == x}


def orbit_condition(phi, gamma, pi, kind):
    """Necessary condition on orbits for a map over phi to exist.

    Morphisms send each orbit into an orbit; comorphisms need the phi-image
    of each orbit to cover the matching orbit.
    """
    if kind == "morphism":
        return all({phi[y] for y in orbit(gamma, x)} <= orbit(pi, phi[x]) for x in gamma.objects)
    if kind == "comorphism":
        return all(orbit(pi, phi[x]) <= {phi[y] for y in orbit(gamma, x)} for x in gamma.objects)
    raise ValueError("kind must be 'morphism' or 'comorphism'")


def disjoint_union(*parts):
    """The disjoint union of groupoids, each label of part k tagged as (k, label)."""
    objects, arrows, src, tgt, ident, inv, comp = [], [], {}, {}, {}, {}, {}
    for k, g in enumerate(parts):
        objects += [(k, x) for x in g.objects]
        arrows += [(k, a) for a in g.arrows]
        src.update(((k, a), (k, x)) for a, x in g.src.items())
        tgt.update(((k, a), (k, x)) for a, x in g.tgt.items())
        ident.update(((k, x), (k, a)) for x, a in g.ident.items())
        inv.update(((k, a), (k, b)) for a, b in g.inv.items())
        comp.update((((k, a), (k, b)), (k, c)) for (a, b), c in g.comp.items())
    return FinGroupoid(objects, arrows, src, tgt, ident, inv, comp)


def action_tables():
    """Five distinct verified groupoid actions for round-trip tests."""
    corpus = groupoid_corpus()
    z2g = corpus["z2"]
    z3g = corpus["z3"]
    swap = corpus["swap"]
    pair2 = corpus["pair2"]
    pair1 = corpus["pair1"]

    tautological = GroupoidAction(
        swap,
        ["1", "2"],
        {"1": "1", "2": "2"},
        {a: {swap.src[a]: swap.tgt[a]} for a in swap.arrows},
    )
    z2_swap = GroupoidAction(
        z2g,
        ["1", "2"],
        {"1": "o", "2": "o"},
        {("o", 0): {"1": "1", "2": "2"}, ("o", 1): {"1": "2", "2": "1"}},
    )
    z2_mixed = GroupoidAction(
        z2g,
        ["1", "2", "3"],
        {"1": "o", "2": "o", "3": "o"},
        {
            ("o", 0): {"1": "1", "2": "2", "3": "3"},
            ("o", 1): {"1": "2", "2": "1", "3": "3"},
        },
    )
    z3_cycle = GroupoidAction(
        z3g,
        ["1", "2", "3"],
        {"1": "o", "2": "o", "3": "o"},
        {
            ("o", 0): {"1": "1", "2": "2", "3": "3"},
            ("o", 1): {"1": "2", "2": "3", "3": "1"},
            ("o", 2): {"1": "3", "2": "1", "3": "2"},
        },
    )
    pair_action = GroupoidAction(
        pair2,
        ["a", "b"],
        {"a": "a", "b": "b"},
        {(u, v): {u: v} for (u, v) in pair2.arrows},
    )
    trivial = GroupoidAction(
        pair1,
        ["1", "2"],
        {"1": "p", "2": "p"},
        {("p", "p"): {"1": "1", "2": "2"}},
    )
    return [tautological, z2_swap, z2_mixed, z3_cycle, pair_action, trivial]


# -- product laws, scanned in full --------------------------------------------
#
# Straight from the definitions, over every arrow, with no generating set;
# each lists its faults in arrow order, first factor first.


def ref_closure(g, arrows):
    """The arrows reached from ``arrows`` by table products, the arrows included."""
    closure = set(arrows)
    while True:
        new = {g.comp[(a, b)] for a in closure for b in closure if g.tgt[a] == g.src[b]} - closure
        if not new:
            return closure
        closure |= new


def ref_associativity_faults(g):
    """Composable triples (a, b, c) with (a b) c != a (b c)."""
    return [
        (a, b, c)
        for a in g.arrows
        for b in g.arrows
        if g.tgt[a] == g.src[b]
        for c in g.arrows
        if g.tgt[b] == g.src[c] and g.comp[(g.comp[(a, b)], c)] != g.comp[(a, g.comp[(b, c)])]
    ]


def ref_table_checks(g):
    """(name, passed, witness) of the product-domain, endpoint, unit and inverse checks.

    Faults come in arrow order, first factor first, and the domain witness
    lists missing and extra pairs sorted by repr.  The list is cut where a
    failing check ends the report, and is empty when the tables are not
    total or an identity is not a loop at its object.
    """
    arrows, objects = set(g.arrows), set(g.objects)
    total = all(x in g.ident and g.ident[x] in arrows for x in g.objects) and all(
        a in g.src and a in g.tgt and g.src[a] in objects and g.tgt[a] in objects
        and a in g.inv and g.inv[a] in arrows
        for a in g.arrows
    )
    if not total or any(g.src[g.ident[x]] != x or g.tgt[g.ident[x]] != x for x in g.objects):
        return []
    pairs = [(a, b) for a in g.arrows for b in g.arrows if g.tgt[a] == g.src[b]]
    missing = sorted((p for p in pairs if p not in g.comp), key=repr)
    extra = sorted((p for p in g.comp if p not in set(pairs)), key=repr)
    checks = [(
        "product defined exactly on composable pairs",
        not (missing or extra),
        "missing: %r, extra: %r" % (missing[:3], extra[:3]) if missing or extra else "",
    )]
    if missing or extra:
        return checks

    def check(name, faults, text):
        checks.append((name, not faults, text % (faults[:3],) if faults else ""))

    src, tgt, ident, inv, comp = g.src, g.tgt, g.ident, g.inv, g.comp
    check("products have the right endpoints", [
        (a, b) for a, b in pairs
        if comp[(a, b)] not in arrows or src[comp[(a, b)]] != src[a] or tgt[comp[(a, b)]] != tgt[b]
    ], "bad pairs: %r")
    if not checks[-1][1]:
        return checks
    check("identities are neutral", [
        a for a in g.arrows if comp[(ident[src[a]], a)] != a or comp[(a, ident[tgt[a]])] != a
    ], "arrows violating unit laws: %r")
    check("inverses cancel on both sides", [
        a for a in g.arrows
        if src[inv[a]] != tgt[a] or tgt[inv[a]] != src[a]
        or comp[(a, inv[a])] != ident[src[a]] or comp[(inv[a], a)] != ident[tgt[a]]
    ], "arrows with broken inverses: %r")
    return checks


def ref_morphism_faults(gamma, pi, m):
    """Composable pairs (g, h) of gamma with F(g h) != F(g) F(h)."""
    f = m.arrows
    return [(g, h) for g, h in composable_oracle(gamma) if f[gamma.comp[(g, h)]] != pi.comp[(f[g], f[h])]]


def ref_cocycle_faults(gamma, pi, m):
    """(x, w, z), phi(x) = src w and tgt w = src z, with T(x, w z) != T(x, w) T(y, z), y = tgt T(x, w)."""
    t = m.table
    return [
        (x, w, z)
        for x in gamma.objects
        for w in pi.arrows
        if pi.src[w] == m.base[x]
        for z in pi.arrows
        if pi.tgt[w] == pi.src[z]
        and t[(x, pi.comp[(w, z)])] != gamma.comp[(t[(x, w)], t[(gamma.tgt[t[(x, w)]], z)])]
    ]


def ref_action_faults(action):
    """(a, b, z), a b composable and z over src a, where z.(a b) != (z.a).b."""
    g, maps = action.groupoid, action.maps
    return [
        (a, b, z)
        for a, b in composable_oracle(g)
        for z in action.space
        if action.projection[z] == g.src[a] and maps[g.comp[(a, b)]][z] != maps[b][maps[a][z]]
    ]
