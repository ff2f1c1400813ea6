"""The identities the verifiers decide from one reduced difference, against
two-sided references built straight from the paper's formulas.

``check_pamorphism``, ``check_pacomorphism``, ``membership_report`` and the
anchor axiom of ``axioms_check`` sum lhs - rhs into one accumulator and
reduce it once; a failing check reads one side and derives the other from
the difference.  The references in ``conftest`` build both sides with MPoly
arithmetic, substitution and ``nf`` and compare them.  Verdicts and witness
texts must agree check by check, on the free Lie-Poisson so(3)* over
Q[x,y,z], on the circle and on the sphere, valid maps and single-entry
mutants alike.
"""

from fractions import Fraction

import pytest

from conftest import (
    comorphism_mutants,
    dense_table,
    morphism_mutants,
    ref_anchor_axiom_checks,
    ref_membership_checks,
    ref_pacomorphism_checks,
    ref_pamorphism_checks,
)
from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.groebner import IdealPres
from lra.maps import PAComorphism, PAMorphism, check_pacomorphism, check_pamorphism, graph
from lra.pseudoalgebra import PAlg, axioms_check, make_cotangent_poisson, make_der
from lra.psisum import membership_report


def _triples(report, prefix=""):
    return [(c.name, c.passed, c.witness) for c in report.checks if c.name.startswith(prefix)]


def _quotient(names, relation):
    free = AlgebraPres.free(*names)
    return AlgebraPres(names, IdealPres(len(names), [free.parse(relation)]))


def _so3_poisson():
    """Lie-Poisson so(3)* on Q[x,y,z], and the abelian cotangent pseudoalgebra of Q[s,t]."""
    q = AlgebraPres.free("x", "y", "z")
    x, y, z = (q.variable(v) for v in range(3))
    zero = q.zero()
    so3 = make_cotangent_poisson(q, [[zero, z, -y], [-z, zero, x], [y, -x, zero]])
    qst = AlgebraPres.free("s", "t")
    flat = make_cotangent_poisson(qst, [[qst.zero()] * 2] * 2)
    return q, so3, qst, flat


def _circle_palg():
    """The rotation R and y R on the circle, with [R, y R] = x R."""
    circle = _quotient(("x", "y"), "x^2 + y^2 - 1")
    x, y = circle.variable(0), circle.variable(1)
    rotation = Derivation(circle, [-y, x])
    return circle, make_der(circle, [rotation, Derivation(circle, [-y * y, x * y])], {(0, 1): [x, circle.zero()]})


def _sphere_palg():
    """The three infinitesimal rotations of the sphere, structure solved for."""
    sphere = _quotient(("x", "y", "z"), "x^2 + y^2 + z^2 - 1")
    x, y, z = (sphere.variable(v) for v in range(3))
    zero = sphere.zero()
    rotations = [[zero, -z, y], [z, zero, -x], [-y, x, zero]]
    return sphere, make_der(sphere, [Derivation(sphere, images) for images in rotations])


def morphisms():
    """Named morphism candidates, passing and failing, and six single-entry mutants of each."""
    q, so3, qst, flat = _so3_poisson()
    x, y, z = (q.variable(v) for v in range(3))
    casimir = AlgMorphism(qst, q, [x * x + y * y + z * z, x])
    circle, rot = _circle_palg()
    sphere, sph = _sphere_palg()
    cx, cy = circle.variable(0), circle.variable(1)
    sx, sy, sz = (sphere.variable(v) for v in range(3))
    bases = [
        # the differentials of a Poisson map: d(psi(s)), d(psi(t))
        ("so3-casimir", PAMorphism(flat, so3, casimir, [so3.basis(0).scale(2 * x) + so3.basis(1).scale(2 * y)
                                                          + so3.basis(2).scale(2 * z), so3.basis(0)])),
        # s -> x, t -> y is not Poisson: {x, y} = z
        ("so3-coordinates", PAMorphism(flat, so3, AlgMorphism(qst, q, [x, y]), [so3.basis(0), so3.basis(1)])),
        ("so3-identity", PAMorphism.identity(so3)),
        ("circle-identity", PAMorphism.identity(rot)),
        ("circle-rotate", PAMorphism(rot, rot, AlgMorphism(circle, circle, [-cy, cx]),
                                     [rot.basis(0), rot.basis(1)])),
        ("sphere-identity", PAMorphism.identity(sph)),
        ("sphere-cycle", PAMorphism(sph, sph, AlgMorphism(sphere, sphere, [sy, sz, sx]),
                                    [sph.basis(1), sph.basis(2), sph.basis(0)])),
    ]
    out = list(bases)
    for label, m in bases:
        out += [("%s-mutant%d" % (label, n), mut) for n, mut in enumerate(morphism_mutants(m, 6))]
    return out


def comorphisms():
    """Named comorphism candidates, as ``morphisms``."""
    q, so3, qst, flat = _so3_poisson()
    x, y, z = (q.variable(v) for v in range(3))
    circle, rot = _circle_palg()
    sphere, sph = _sphere_palg()
    half = Fraction(1, 2)
    bases = [
        ("so3-identity", PAComorphism.identity(so3)),
        ("so3-to-flat", PAComorphism(so3, flat, AlgMorphism(qst, q, [x * x + y * y + z * z, x]),
                                     [[2 * x, q.one()], [2 * y, q.zero()], [2 * z, q.zero()]])),
        ("circle-identity", PAComorphism.identity(rot)),
        ("circle-scaled", PAComorphism(rot, rot, AlgMorphism.identity(circle), [
            [circle.one(), circle.zero()], [circle.variable(0).scale(half), circle.one()],
        ])),
        ("sphere-identity", PAComorphism.identity(sph)),
    ]
    out = list(bases)
    for label, m in bases:
        out += [("%s-mutant%d" % (label, n), mut) for n, mut in enumerate(comorphism_mutants(m, 6))]
    return out


# each condition both passes and fails somewhere in its suite
BOTH_VERDICTS = {(kind, passed) for kind in ("anchor condition", "bracket condition") for passed in (True, False)}


def test_morphism_conditions_match_the_two_sided_reference():
    verdicts = set()
    for label, m in morphisms():
        got = _triples(check_pamorphism(m))
        assert got == ref_pamorphism_checks(m), label
        verdicts.update((name.split(" on ")[0], passed) for name, passed, _ in got)
    assert verdicts == BOTH_VERDICTS


def test_comorphism_conditions_match_the_two_sided_reference():
    verdicts = set()
    for label, m in comorphisms():
        got = _triples(check_pacomorphism(m))
        assert got == ref_pacomorphism_checks(m), label
        verdicts.update((name.split(" on ")[0], passed) for name, passed, _ in got)
    assert verdicts == BOTH_VERDICTS


def test_membership_matches_the_two_sided_reference():
    """Every graph generator of every candidate, in the twisted sum of the
    morphism's own context; one context answers all of its generators."""
    verdicts = set()
    for label, m in morphisms() + comorphisms():
        ctx, gens = graph(m)
        for n, z in enumerate(gens):
            got = _triples(membership_report(ctx, z))
            assert got == ref_membership_checks(ctx, z), (label, n)
            verdicts.update(passed for _, passed, _ in got)
    assert verdicts == {True, False}


def _structure_mutants(e):
    """Each nonzero structure entry plus 1, and each entry times the first variable."""
    alg = e.algebra
    out = []
    for key, row in dense_table(e).items():
        for k in range(e.rank):
            for value in (row[k] + alg.one(), row[k] * alg.variable(0)):
                if value != row[k]:
                    table = dense_table(e)
                    table[key] = row[:k] + (value,) + row[k + 1 :]
                    out.append(PAlg(alg, e.rank, e.anchors, table))
    return out


@pytest.mark.parametrize("build", [_so3_poisson, _circle_palg, _sphere_palg], ids=["so3", "circle", "sphere"])
def test_anchor_axiom_matches_the_two_sided_reference(build):
    e = build()[1]
    verdicts = set()
    for candidate in [e] + _structure_mutants(e):
        got = _triples(axioms_check(candidate), "anchor respects")
        assert got == ref_anchor_axiom_checks(candidate.anchors, dense_table(candidate))
        verdicts.update(passed for _, passed, _ in got)
    assert verdicts == {True, False}
