"""Seeded input documents, command lines and known answers for each workload.

Every workload is a list of jobs.  A job is one ``lra`` command line over
documents written here, plus a check of its exit code and output against
an answer known from how the input was built.  Nothing in this module
imports ``lra``: the program under test only ever sees the documents.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import polys as P

WORKLOADS = ("ideal-completion", "palg-verdicts", "groupoid-search")


@dataclass
class Job:
    label: str
    argv: list
    check: Callable  # (exit code, stdout text) -> problem text or None


@dataclass
class Workload:
    jobs: list
    # ideal-completion only: (document path, variables, generator texts, system name)
    systems: list = field(default_factory=list)


# -- documents -----------------------------------------------------------------


class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def doc(self, name, kind, body):
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"kind": kind, "version": "1", "body": body}, handle, sort_keys=True, indent=2)
        return path

    def copy(self, source):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        path = os.path.join(self.workdir, "corpus-" + os.path.basename(source))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


def _algebra(names, ideal=()):
    return {"variables": list(names), "ideal": list(ideal), "order": "grevlex"}


def _nonzero(rng, values=(1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))):
    return rng.choice(values) * rng.choice((1, -1))


# -- known-answer checks -------------------------------------------------------


def _report(out):
    report = json.loads(out)
    return report, {c["name"]: c["status"] for c in report["checks"]}


def expect_verdict(code, count=None, failing=None, failing_prefix="", passing=()):
    """Exit ``code``; with ``failing``, the failed checks named with
    ``failing_prefix`` are exactly that set; checks in ``passing`` pass."""

    def check(got, out):
        if got != code:
            return "exit %r, expected %r" % (got, code)
        report, status = _report(out)
        if report["verdict"] != ("pass" if code == 0 else "fail"):
            return "verdict %r does not match exit %d" % (report["verdict"], code)
        if count is not None and len(status) != count:
            return "%d checks, expected %d" % (len(status), count)
        if failing is not None:
            got_failing = {n for n, s in status.items() if s == "fail" and n.startswith(failing_prefix)}
            if got_failing != set(failing):
                return "failed checks %r, expected %r" % (sorted(got_failing), sorted(failing))
        for name in passing:
            if status.get(name) != "pass":
                return "check %r did not pass" % name
        return None

    return check


def expect_maps(expected):
    """``grpd enumerate`` found exactly the ``expected`` canonical maps."""

    def check(got, out):
        if got != 0:
            return "exit %r, expected 0" % got
        found = json.loads(out)
        maps = {_canonical_map(m) for m in found["maps"]}
        if found["count"] != len(expected) or maps != expected:
            return "found %d maps, expected %d" % (found["count"], len(expected))
        return None

    return check


def _canonical_map(m):
    if m["maptype"] == "morphism":
        return ("morphism", tuple(sorted(m["base"].items())), tuple(sorted(m["arrows"].items())))
    return ("comorphism", tuple(sorted(m["base"].items())), tuple(sorted(map(tuple, m["table"]))))


# -- ideal-completion -----------------------------------------------------------


def _ideal_jobs(w, rng, plan):
    """``check-algebra`` on seeded variants of classic systems.

    A variant permutes the generators and rescales each by a nonzero
    rational, so its reduced basis is the same for every seed.
    """
    jobs, systems = [], []
    for system, copies in plan:
        family, n = system.rsplit("-", 1)
        names, eqs = getattr(P, family)(int(n))
        for copy in range(copies):
            gens = [P.scale(p, _nonzero(rng)) for p in eqs]
            rng.shuffle(gens)
            texts = [P.render(p, names) for p in gens]
            path = w.doc("%s-v%d" % (system, copy), "algebra", _algebra(names, texts))
            jobs.append(
                Job(
                    "check-algebra %s" % system,
                    ["--format", "json", "check-algebra", path],
                    expect_verdict(0, count=1 + len(texts)),
                )
            )
            systems.append((path, names, texts, system))
    return jobs, systems


# -- palg-verdicts ---------------------------------------------------------------


def _cotangent_body(names, pi):
    """Pseudoalgebra of one-forms of the Poisson matrix ``pi``."""
    n = len(names)
    return {
        "algebra": _algebra(names),
        "rank": n,
        "anchor": [[P.render(pi[i][j], names) for j in range(n)] for i in range(n)],
        "structure": [
            {"i": i, "j": j, "coeffs": [P.render(P.partial(pi[i][j], k), names) for k in range(n)]}
            for i in range(n)
            for j in range(i + 1, n)
        ],
    }


def _quadratic_pi(n, c):
    """pi_ij = c_ij x_i x_j: Poisson for every antisymmetric constant c."""
    x = [P.var(n, i) for i in range(n)]
    pi = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), cij in c.items():
        pi[i][j] = P.scale(P.mul(x[i], x[j]), cij)
        pi[j][i] = P.scale(pi[i][j], -1)
    return pi


def _so_basis(n):
    """Basis L_ab = E_ab - E_ba (a < b) of so(n), as sparse matrices."""
    basis = []
    for a in range(n):
        for b in range(a + 1, n):
            basis.append(({(a, b): 1, (b, a): -1}, (a, b)))
    return basis


def _so_structure(n, scales):
    """Structure constants of [f_p, f_q] in the scaled basis f_p = s_p L_p.

    The bracket is minus the matrix commutator, which is the commutator of
    the linear vector fields x -> L x; it is a Lie bracket either way.
    """
    basis = _so_basis(n)
    index = {pair: p for p, (_, pair) in enumerate(basis)}

    def matmul(a, b):
        out = {}
        for (i, k), v in a.items():
            for (k2, j), u in b.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + v * u
        return out

    table = {}
    for p, (mp, _) in enumerate(basis):
        for q in range(p + 1, len(basis)):
            mq = basis[q][0]
            comm = matmul(mq, mp)
            for key, v in matmul(mp, mq).items():
                comm[key] = comm.get(key, 0) - v
            coeffs = {}
            for (a, b), v in comm.items():
                if a < b and v:
                    r = index[(a, b)]
                    coeffs[r] = Fraction(v) * scales[p] * scales[q] / scales[r]
            table[(p, q)] = coeffs
    return basis, table


def _lie_poisson_body(n_so, rng):
    """Lie-Poisson structure of so(n) in a seeded rescaled basis."""
    dim = n_so * (n_so - 1) // 2
    scales = [_nonzero(rng) for _ in range(dim)]
    _, table = _so_structure(n_so, scales)
    names = ["w%d" % i for i in range(dim)]
    x = [P.var(dim, i) for i in range(dim)]
    pi = [[{} for _ in range(dim)] for _ in range(dim)]
    for (p, q), coeffs in table.items():
        pi[p][q] = P.add(*[P.scale(x[r], c) for r, c in coeffs.items()])
        pi[q][p] = P.scale(pi[p][q], -1)
    return _cotangent_body(names, pi)


def _sphere_rotation_body(n, rng):
    """so(n) acting by rotation fields on Q[x] / (sum x_i^2 - 1)."""
    names = ["x%d" % i for i in range(n)]
    x = [P.var(n, i) for i in range(n)]
    basis = _so_basis(n)
    scales = [_nonzero(rng) for _ in basis]
    _, table = _so_structure(n, scales)
    anchor = []
    for (mat, _), s in zip(basis, scales):
        row = []
        for i in range(n):
            image = P.add(*[P.scale(x[j], v * s) for (a, j), v in mat.items() if a == i])
            row.append(P.render(image, names))
        anchor.append(row)
    rank = len(basis)
    structure = [
        {
            "i": p,
            "j": q,
            "coeffs": [P.render(P.const(n, table[(p, q)].get(r, 0)), names) for r in range(rank)],
        }
        for p in range(rank)
        for q in range(p + 1, rank)
    ]
    sphere = P.add(*[P.mul(xi, xi) for xi in x], P.const(n, -1))
    algebra = _algebra(names, [P.render(sphere, names)])
    return {"algebra": algebra, "rank": rank, "anchor": anchor, "structure": structure}, basis


def _scaling_maps(n, lam, src_names, tgt_names):
    """psi: x_i -> lam_i y_i with the morphism and comorphism it carries.

    For quadratic Poisson matrices with equal constants on both sides,
    e_i -> lam_i f_i is a morphism and f_j -> (1/lam_j) e_j a comorphism.
    """
    psi = {
        "source": _algebra(src_names),
        "target": _algebra(tgt_names),
        "images": [P.render(P.scale(P.var(n, i), lam[i]), tgt_names) for i in range(n)],
    }
    morph = [[P.render(P.const(n, lam[i] if k == i else 0), tgt_names) for k in range(n)] for i in range(n)]
    comorph = [[P.render(P.const(n, Fraction(1) / lam[j] if k == j else 0), tgt_names) for k in range(n)] for j in range(n)]
    return psi, morph, comorph


def _bump(rows, i, k, names):
    """Single-entry mutant: add 1 to entry (i, k) of a constant table."""
    out = [list(r) for r in rows]
    value = Fraction(out[i][k]) + 1
    out[i][k] = P.render(P.const(len(names), value), names)
    return out


def _random_poly(rng, n, degree):
    """A small random polynomial with at least one term."""
    p = {}
    while not p:
        for _ in range(3):
            exp = [0] * n
            for _ in range(rng.randint(0, degree)):
                exp[rng.randrange(n)] += 1
            p = P.add(p, {tuple(exp): Fraction(rng.randint(1, 4) * rng.choice((1, -1)))})
    return p


def _palg_jobs(w, rng, size, tests_data):
    ok = expect_verdict(0)
    jobs = []

    def job(label, argv, check):
        jobs.append(Job(label, ["--format", "json"] + argv, check))

    # quadratic Poisson matrices: axioms, maps between two copies, mutants
    for n in size["poisson"]:
        xs = ["x%d" % i for i in range(n)]
        ys = ["y%d" % i for i in range(n)]
        zs = ["z%d" % i for i in range(n)]
        c = {(i, j): _nonzero(rng) for i in range(n) for j in range(i + 1, n)}
        pi_x = _quadratic_pi(n, c)
        e = w.doc("poisson%d-x" % n, "palg", _cotangent_body(xs, pi_x))
        f = w.doc("poisson%d-y" % n, "palg", _cotangent_body(ys, pi_x))
        g = w.doc("poisson%d-z" % n, "palg", _cotangent_body(zs, pi_x))
        job("check-palg poisson-%d" % n, ["check-palg", e], expect_verdict(0, count=n + n * n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 6))

        lam = [_nonzero(rng) for _ in range(n)]
        mu = [_nonzero(rng) for _ in range(n)]
        psi, morph, comorph = _scaling_maps(n, lam, xs, ys)
        m = w.doc("poisson%d-morph" % n, "pamorphism", {"psi": psi, "images": morph})
        cm = w.doc("poisson%d-comorph" % n, "pacomorphism", {"psi": psi, "images": comorph})
        composite = [lam[i] * mu[i] for i in range(n)]
        cpsi, cmorph, ccomorph = _scaling_maps(n, composite, xs, zs)
        m_xz = w.doc("poisson%d-composite-morph" % n, "pamorphism", {"psi": cpsi, "images": cmorph})
        cm_xz = w.doc("poisson%d-composite-comorph" % n, "pacomorphism", {"psi": cpsi, "images": ccomorph})
        ipsi, imorph, _ = _scaling_maps(n, [1] * n, xs, xs)
        m_id = w.doc("poisson%d-identity" % n, "pamorphism", {"psi": ipsi, "images": imorph})
        job("check morphism poisson-%d" % n, ["check", "morphism", e, f, m], ok)
        job("check comorphism poisson-%d" % n, ["check", "comorphism", e, f, cm], ok)
        job("check chainmap poisson-%d" % n, ["check", "chainmap", e, f, cm], ok)
        job("check morphism composite poisson-%d" % n, ["check", "morphism", e, g, m_xz], ok)
        job("check comorphism composite poisson-%d" % n, ["check", "comorphism", e, g, cm_xz], ok)
        job("check morphism identity poisson-%d" % n, ["check", "morphism", e, e, m_id], ok)

        # a mutant adding 1 at (i, k) breaks the anchor condition at every
        # variable v != k, because pi_kv != 0 there
        for kind, rows in (("morphism", morph), ("comorphism", comorph)):
            i, k = rng.randrange(n), rng.randrange(n)
            doc_kind = "pamorphism" if kind == "morphism" else "pacomorphism"
            path = w.doc("poisson%d-%s-mutant" % (n, kind), doc_kind, {"psi": psi, "images": _bump(rows, i, k, ys)})
            basis = "e" if kind == "morphism" else "f"
            failing = ["anchor condition on %s_%d at %s" % (basis, i, xs[v]) for v in range(n) if v != k]
            job("check %s mutant poisson-%d" % (kind, n), ["check", kind, e, f, path],
                expect_verdict(1, failing=failing, failing_prefix="anchor condition"))
            if kind == "morphism":
                graph_failing = ["direct: " + name for name in failing]
                job("graph-theorem mutant poisson-%d" % n, ["graph-theorem", "morphism", e, f, path],
                    expect_verdict(1, failing=graph_failing, failing_prefix="direct: anchor condition",
                                   passing=["direct verifier and graph test agree"]))
        if n in size["graph"]:
            job("graph-theorem morphism poisson-%d" % n, ["graph-theorem", "morphism", e, f, m], ok)
            job("graph-theorem comorphism poisson-%d" % n, ["graph-theorem", "comorphism", e, f, cm], ok)

        # twisted sum along psi: tensor b and F-part lam*b make a member
        if n in size["psisum"]:
            psi_doc = w.doc("poisson%d-psi" % n, "morphism", psi)
            elements = []
            for t in range(3):
                b = [_random_poly(rng, n, 1) for _ in range(n)]
                body = {
                    "tensor": [P.render(bi, ys) for bi in b],
                    "f_part": [P.render(P.scale(bi, lam[i]), ys) for i, bi in enumerate(b)],
                }
                elements.append(w.doc("poisson%d-mixed%d" % (n, t), "element", body))
            job("psisum closure-suite poisson-%d" % n, ["psisum", "closure-suite", e, f, psi_doc] + elements,
                expect_verdict(0, count=6))

        # (x_k) is a Poisson ideal: every element preserves it
        k = rng.randrange(n)
        inside = [P.mul(P.var(n, k), _random_poly(rng, n, 1)) for _ in range(n)]
        outside = list(inside)
        r = rng.randrange(n)
        outside[r] = P.add(inside[r], P.const(n, 1))
        for tag, coords, code in (("inside", inside, 0), ("outside", outside, 1)):
            el = w.doc("poisson%d-%s" % (n, tag), "element", {"coords": [P.render(q, xs) for q in coords]})
            job("restrict member %s poisson-%d" % (tag, n),
                ["restrict", "member", e, el, "--ideal", xs[k]],
                expect_verdict(code, count=2, passing=["anchor preserves the ideal (upper membership)"]))

        # [e_i, e_j] = d(pi_ij) = c_ij (x_j e_i + x_i e_j), untouched modulo x_k
        i, j = rng.sample([v for v in range(n) if v != k], 2)
        units = [
            w.doc("poisson%d-e%d" % (n, t), "element",
                  {"coords": [P.render(P.const(n, 1 if v == t else 0), xs) for v in range(n)]})
            for t in (i, j)
        ]
        coords = ", ".join(P.render(P.partial(pi_x[i][j], r), xs) for r in range(n))
        job("restrict bracket poisson-%d" % n, ["restrict", "bracket", e] + units + ["--ideal", xs[k]],
            expect_verdict(0, count=1, passing=["quotient bracket = (%s)" % coords]))

    # Lie-Poisson matrices of so(n)
    for n_so in size["lie_poisson"]:
        path = w.doc("lie-poisson-so%d" % n_so, "palg", _lie_poisson_body(n_so, rng))
        job("check-palg lie-poisson-so%d" % n_so, ["check-palg", path], ok)

    # so(n) rotations of the sphere: axioms, identity maps and mutants
    for n in size["rotation"]:
        body, basis = _sphere_rotation_body(n, rng)
        names = body["algebra"]["variables"]
        e = w.doc("so%d-sphere" % n, "palg", body)
        job("check-palg so%d-sphere" % n, ["check-palg", e], ok)
        rank = len(basis)
        ident = [[P.render(P.const(n, 1 if k == i else 0), names) for k in range(rank)] for i in range(rank)]
        psi = {"source": body["algebra"], "target": body["algebra"], "images": list(names)}
        m = w.doc("so%d-identity" % n, "pamorphism", {"psi": psi, "images": ident})
        job("check morphism so%d-identity" % n, ["check", "morphism", e, e, m], ok)
        # adding f_k to the image of f_i adds the rotation in plane (a, b) of
        # basis vector k to the anchor, which moves exactly x_a and x_b
        i, k = rng.randrange(rank), rng.randrange(rank)
        mutant = w.doc("so%d-mutant" % n, "pamorphism", {"psi": psi, "images": _bump(ident, i, k, names)})
        a, b = basis[k][1]
        failing = ["anchor condition on e_%d at %s" % (i, names[v]) for v in (a, b)]
        job("check morphism so%d-mutant" % n, ["check", "morphism", e, e, mutant],
            expect_verdict(1, failing=failing, failing_prefix="anchor condition"))
        if n in size["graph"]:
            job("graph-theorem so%d-identity" % n, ["graph-theorem", "morphism", e, e, m], ok)

    # the pseudoalgebra corpus of the test suite, as short jobs
    data = lambda name: w.copy(os.path.join(tests_data, name))  # noqa: E731
    line, plane, sl2 = data("palg_der_line.json"), data("palg_der_plane.json"), data("palg_sl2_action.json")
    job("check-palg corpus line", ["check-palg", line], ok)
    job("check-palg corpus plane", ["check-palg", plane], ok)
    job("check-palg corpus sl2", ["check-palg", sl2], ok)
    job("check comorphism corpus curve", ["check", "comorphism", plane, line, data("pacomorphism_curve.json")], ok)
    job("check algmorphism corpus curve", ["check", "algmorphism", data("morphism_curve.json")], ok)
    job("check derivation corpus euler", ["check", "derivation", data("derivation_euler.json")], ok)
    job("check-algebra corpus truncated", ["check-algebra", data("algebra_truncated.json")], ok)
    return jobs


# -- groupoid-search -------------------------------------------------------------


def _labels(rng, count, prefix):
    """Distinct seeded labels."""
    out = set()
    while len(out) < count:
        out.add("%s%s%d" % (prefix, "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3)), rng.randrange(100)))
    out = sorted(out)
    rng.shuffle(out)
    return out


def _groupoid_body(objects, arrows, src, tgt, ident, inv, comp):
    return {
        "objects": list(objects),
        "arrows": list(arrows),
        "src": dict(src),
        "tgt": dict(tgt),
        "id": dict(ident),
        "inv": dict(inv),
        "comp": sorted([list(k) + [v] for k, v in comp.items()]),
    }


def _bundle(rng, objects, k):
    """Z_k acting trivially on ``objects``: one loop per (object, element).

    Returns the document body and the arrow label of (x, g).
    """
    label = dict(zip([(x, g) for x in objects for g in range(k)], _labels(rng, len(objects) * k, "g")))
    arrows = list(label.values())
    src = {label[(x, g)]: x for x in objects for g in range(k)}
    ident = {x: label[(x, 0)] for x in objects}
    inv = {label[(x, g)]: label[(x, (-g) % k)] for x in objects for g in range(k)}
    comp = {
        (label[(x, g)], label[(x, h)]): label[(x, (g + h) % k)]
        for x in objects
        for g in range(k)
        for h in range(k)
    }
    rng.shuffle(arrows)
    return _groupoid_body(objects, arrows, src, src, ident, inv, comp), label


def _pair(rng, objects):
    label = dict(zip([(x, y) for x in objects for y in objects], _labels(rng, len(objects) ** 2, "p")))
    arrows = list(label.values())
    rng.shuffle(arrows)
    return _groupoid_body(
        objects,
        arrows,
        {a: x for (x, y), a in label.items()},
        {a: y for (x, y), a in label.items()},
        {x: label[(x, x)] for x in objects},
        {a: label[(y, x)] for (x, y), a in label.items()},
        {(label[(x, y)], label[(y, z)]): label[(x, z)] for x in objects for y in objects for z in objects},
    ), label


def _grpd_jobs(w, rng, size, tests_data):
    jobs = []

    def job(label, argv, check):
        jobs.append(Job(label, ["--format", "json"] + argv, check))

    ok = expect_verdict(0)

    # maps from the trivial Z_k-bundle over m objects to Z_k: over the constant
    # base map both kinds are exactly one endomorphism g -> a_x g per object
    k, m = size["bundle"]
    objects = _labels(rng, m, "o")
    (target_obj,) = _labels(rng, 1, "t")
    gamma_body, gl = _bundle(rng, objects, k)
    pi_body, pl = _bundle(rng, [target_obj], k)
    gamma = w.doc("bundle", "groupoid", gamma_body)
    pi = w.doc("zk", "groupoid", pi_body)
    phi = {x: target_obj for x in objects}
    phi_text = ",".join("%s->%s" % item for item in phi.items())
    base = tuple(sorted(phi.items()))
    choices = [dict(zip(objects, c)) for c in itertools.product(range(k), repeat=m)]
    morphisms = {
        ("morphism", base, tuple(sorted((gl[(x, g)], pl[(target_obj, a[x] * g % k)]) for x in objects for g in range(k))))
        for a in choices
    }
    comorphisms = {
        ("comorphism", base, tuple(sorted((x, pl[(target_obj, h)], gl[(x, a[x] * h % k)]) for x in objects for h in range(k))))
        for a in choices
    }
    for kind, expected in (("morphism", morphisms), ("comorphism", comorphisms)):
        job("grpd enumerate %s Z%d^%d" % (kind, k, m),
            ["grpd", "enumerate", gamma, pi, "--phi", phi_text, "--kind", kind], expect_maps(expected))

    # one valid map of each kind, a single-entry mutant, and their graph tests
    a = {x: 1 + rng.randrange(k - 1) for x in objects}
    morph = {"maptype": "morphism", "base": phi,
             "arrows": {gl[(x, g)]: pl[(target_obj, a[x] * g % k)] for x in objects for g in range(k)}}
    comorph = {"maptype": "comorphism", "base": phi,
               "table": sorted([x, pl[(target_obj, h)], gl[(x, a[x] * h % k)]] for x in objects for h in range(k))}
    # the mutants send one identity to a non-identity arrow
    x0 = rng.choice(objects)
    bad_morph = dict(morph, arrows=dict(morph["arrows"]))
    bad_morph["arrows"][gl[(x0, 0)]] = pl[(target_obj, 1)]
    bad_comorph = dict(comorph, table=[list(r) for r in comorph["table"]])
    for row in bad_comorph["table"]:
        if row[0] == x0 and row[1] == pl[(target_obj, 0)]:
            row[2] = gl[(x0, 1)]
    for name, body, code in (("morphism", morph, 0), ("comorphism", comorph, 0),
                             ("morphism-mutant", bad_morph, 1), ("comorphism-mutant", bad_comorph, 1)):
        path = w.doc("bundle-" + name, "grpdmap", body)
        job("grpd check-map %s" % name, ["grpd", "check-map", gamma, pi, path], expect_verdict(code))
        job("grpd graph-theorem %s" % name, ["grpd", "graph-theorem", gamma, pi, path],
            expect_verdict(code, passing=["direct verifier and graph test agree"]))

    # pair groupoids satisfy the axioms; a changed loop product breaks them
    for n in size["pair"]:
        body, _ = _pair(rng, _labels(rng, n, "q"))
        job("grpd check pair-%d" % n, ["grpd", "check", w.doc("pair%d" % n, "groupoid", body)], ok)
    broken = dict(gamma_body, comp=[list(entry) for entry in gamma_body["comp"]])
    for entry in broken["comp"]:
        if entry[:2] == [gl[(x0, 1)], gl[(x0, 1)]]:
            entry[2] = gl[(x0, 3 % k)]
    job("grpd check bundle-broken", ["grpd", "check", w.doc("bundle-broken", "groupoid", broken)],
        expect_verdict(1, passing=["tables are total and closed", "products have the right endpoints"]))

    for name in ("groupoid_pair2.json", "groupoid_swap.json"):
        job("grpd check corpus %s" % name, ["grpd", "check", w.copy(os.path.join(tests_data, name))], ok)
    return jobs


# -- sizes and entry point ---------------------------------------------------------

SIZES = {
    "full": {
        "ideal": [("katsura-3", 4), ("cyclic-4", 4), ("katsura-4", 6)],
        "palg": {"poisson": [5, 7], "graph": [5, 4], "psisum": [5], "lie_poisson": [3, 4], "rotation": [3, 4]},
        "grpd": {"bundle": (3, 3), "pair": [10, 15]},
    },
    "smoke": {
        "ideal": [("katsura-2", 2)],
        "palg": {"poisson": [3], "graph": [3], "psisum": [3], "lie_poisson": [3], "rotation": [3]},
        "grpd": {"bundle": (2, 2), "pair": [3]},
    },
}


def build(name, seed, workdir, smoke, tests_data):
    """Write the documents of workload ``name`` for ``seed`` into ``workdir``."""
    size = SIZES["smoke" if smoke else "full"]
    rng = random.Random("%s/%d" % (name, seed))
    w = _Writer(workdir)
    if name == "ideal-completion":
        jobs, systems = _ideal_jobs(w, rng, size["ideal"])
        return Workload(jobs, systems)
    if name == "palg-verdicts":
        return Workload(_palg_jobs(w, rng, size["palg"], tests_data))
    if name == "groupoid-search":
        return Workload(_grpd_jobs(w, rng, size["grpd"], tests_data))
    raise ValueError("unknown workload %r" % name)
