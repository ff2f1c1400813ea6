"""The golden corpus: command lines whose exact output is committed.

Each record holds one ``lra`` command line (its argv and step cap), its
exit code, stdout and stderr, with report times stripped; a command line
with ``-o`` also records the file it wrote.  The command
lines are:

- every job of the three benchmark workloads at smoke size (seed 7), in
  text and in ``--format json``;
- ``check-algebra`` on katsura-3 and cyclic-4 under grevlex, katsura-3
  under grlex and cyclic-4 under lex;
- every ``tests/data`` document through each command that reads it;
- ``grpd build`` of every kind (empty object sets and failing actions
  included), ``compose`` of morphisms and comorphisms, and ``-o`` runs,
  whose record also holds the text written to the file;
- ``check chainmap`` on one-entry mutants of a passing comorphism, so
  the records carry degree-0 and degree-1 witnesses;
- product laws: ``grpd check`` on Z/n and pair(abc) x Z/3 tables, some
  with one product changed, and ``check-map`` and ``graph-theorem`` on a
  morphism and a comorphism, each whole and with one entry changed; the
  first bad triple or pair of most broken inputs has its middle arrow
  outside the generating set picked greedily in arrow order;
- pseudoalgebras with seeded random structure tables over Q[x,y,z] and
  over the circle Q[x,y]/(x^2 + y^2 - 1), most of them failing, so
  their reports carry Jacobi and anchor witnesses;
- algebra documents with malformed polynomial text (exit 2 with a
  location);
- integers longer than CPython's 4,300-digit conversion limit: a map
  whose witness has 4,401 digits (exit 1), an algebra with a 5,000-digit
  coefficient (exit 0), an algebra with a 5,000-digit exponent and a
  pseudoalgebra whose rank is a 5,000-digit JSON integer (exit 2 with a
  location); and a document nested 100,000 arrays deep (exit 2);
- loader faults (exit 2 with a location): a pseudoalgebra document with
  a malformed body read where an algebra is expected, a morphism with a
  fault in each of its two algebras, and groupoids with a ``tgt`` value
  that is not an object or an ``inv`` value that is not an arrow;
- a few runs under ``LRA_STEP_CAP`` 1 to 5.

This is a change detector, not an oracle: a record only says what the
program printed when it was written.  ``tests/test_golden.py`` runs every
command line in-process and prints a unified diff on a mismatch.  After a
change of output that is meant, rewrite the records with

    PYTHONPATH=src python tests/golden/corpus.py

and name every changed record, and why it changed, in CHANGES.md.
"""

import contextlib
import difflib
import importlib.util
import io
import json
import os
import pathlib
import random
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DATA = ROOT / "tests" / "data"
PERFBENCH = ROOT / "perfbench"
RECORDS = HERE / "records.json"
SEED = 7

_TIMES = (
    (re.compile(r"time: [0-9.]+ ms"), "time: * ms"),
    (re.compile(r'"timing_ms": [0-9.eE+-]+'), '"timing_ms": *'),
)


def _load_workloads():
    """perfbench/workloads.py, loaded by path (it imports its sibling ``polys``)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("lra_golden_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


# -- documents written here ------------------------------------------------------


def _doc(workdir, name, kind, body):
    path = workdir / (name + ".json")
    path.write_text(json.dumps({"kind": kind, "version": "1", "body": body}, sort_keys=True, indent=2))
    return str(path)


def _factor_text(rng, names):
    """One factor: an integer, a fraction or a variable with an optional exponent."""
    roll = rng.random()
    if roll < 0.2:
        return str(rng.randint(1, 3))
    if roll < 0.3:
        return "%d/%d" % (rng.randint(1, 3), rng.randint(1, 3))
    name = rng.choice(names)
    return name if rng.random() < 0.7 else "%s^%d" % (name, rng.randint(0, 2))


def _poly_terms(rng, names, max_terms=2, max_factors=3):
    """Signed term bodies; the factors repeat variables and numbers freely."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        factors = [_factor_text(rng, names) for _ in range(rng.randint(1, max_factors))]
        terms.append((rng.choice("+-"), "*".join(factors)))
    return terms


def _text(terms):
    if not terms:
        return "0"
    (sign, body), rest = terms[0], terms[1:]
    return ("-" if sign == "-" else "") + body + "".join(" %s %s" % term for term in rest)


def _times(terms, factor, flip=False):
    return [("-" if (sign == "-") != flip else "+", body + "*" + factor) for sign, body in terms]


def _palg_body(variables, ideal, anchors, table):
    return {
        "algebra": {"variables": list(variables), "ideal": list(ideal), "order": "grevlex"},
        "rank": len(anchors),
        "anchor": anchors,
        "structure": [{"i": i, "j": j, "coeffs": row} for (i, j), row in sorted(table.items())],
    }


CIRCLE = ("x", "y"), ("x^2 + y^2 - 1",)


def _random_palgs(rng):
    """(name, body) of seeded random tables: free Q[x,y,z], and the circle with
    anchors f*(-y, x), which are derivations of the circle."""
    out = []
    for n, rank in enumerate((3, 3, 3, 4, 4, 4)):
        names = ("x", "y", "z")
        anchors = [[_text(_poly_terms(rng, names, 1, 2)) for _ in names] for _ in range(rank)]
        table = {(i, j): [_text(_poly_terms(rng, names)) for _ in range(rank)]
                 for i in range(rank) for j in range(i + 1, rank)}
        out.append(("free-random-%d" % n, _palg_body(names, (), anchors, table)))
    names, ideal = CIRCLE
    for n, rank in enumerate((3, 3, 3, 4, 4, 4)):
        anchors = []
        for _ in range(rank):
            f = _poly_terms(rng, names, 2, 2)
            anchors.append([_text(_times(f, "y", flip=True)), _text(_times(f, "x"))])
        table = {(i, j): [_text(_poly_terms(rng, names)) for _ in range(rank)]
                 for i in range(rank) for j in range(i + 1, rank)}
        out.append(("circle-random-%d" % n, _palg_body(names, ideal, anchors, table)))
    rotations = [["-y", "x"], ["-x*y", "x^2"]]
    # [R, xR] = -y R passes; the zero table and a wrong sign fail
    out.append(("circle-rotations", _palg_body(names, ideal, rotations, {(0, 1): ["-y", "0"]})))
    out.append(("circle-rotations-zero-table", _palg_body(names, ideal, rotations, {})))
    out.append(("circle-rotations-wrong-sign", _palg_body(names, ideal, rotations, {(0, 1): ["y", "0"]})))
    three = rotations + [["-y^3", "x*y^2"]]
    out.append(("circle-rank3-zero-table", _palg_body(names, ideal, three, {})))
    return out


def _groupoid_body(objects, arrows, src, ident, inv, product):
    """A groupoid document: ``product(a, b)`` on every pair with src(b) == tgt-object of a.

    ``src`` maps each arrow to its (source, target) objects.
    """
    comp = [[a, b, product(a, b)] for a in arrows for b in arrows if src[a][1] == src[b][0]]
    return {
        "objects": list(objects),
        "arrows": list(arrows),
        "src": {a: src[a][0] for a in arrows},
        "tgt": {a: src[a][1] for a in arrows},
        "id": dict(ident),
        "inv": dict(inv),
        "comp": comp,
    }


def _cyclic_body(n):
    """Z/n on the one object "o": arrows "0", ..., "n-1" under addition."""
    arrows = [str(k) for k in range(n)]
    return _groupoid_body(
        ["o"], arrows, dict.fromkeys(arrows, ("o", "o")), {"o": "0"},
        {a: str(-int(a) % n) for a in arrows}, lambda a, b: str((int(a) + int(b)) % n),
    )


def _pair_cyclic_body(objects, k):
    """The pair groupoid on one-letter ``objects`` times Z/k: arrows "xyc" from x to y."""
    arrows = ["%s%s%d" % (x, y, c) for x in objects for y in objects for c in range(k)]
    return _groupoid_body(
        objects, arrows, {a: (a[0], a[1]) for a in arrows}, {x: x + x + "0" for x in objects},
        {a: "%s%s%d" % (a[1], a[0], -int(a[2:]) % k) for a in arrows},
        lambda a, b: "%s%s%d" % (a[0], b[1], (int(a[2:]) + int(b[2:])) % k),
    )


def _with_product(body, a, b, c):
    """``body`` with the product of (a, b) changed to c."""
    return dict(body, comp=[[x, y, c if (x, y) == (a, b) else z] for x, y, z in body["comp"]])


BAD_POLYNOMIALS = (
    "2*x^", "1/0", "q + 1", "x 2", "x + ", "", "x $ y", "x\n+ y^", "x +\n\n  3/0*y", "*x", "x^y",
)


# -- the command lines -----------------------------------------------------------


def _both_formats(name, argv, cap=None):
    return [(name + " [text]", argv, cap), (name + " [json]", ["--format", "json"] + argv, cap)]


def _data(name):
    return "{data}/%s.json" % name


def cases(workdir):
    """(name, argv, step cap) of every record; writes the documents into ``workdir``."""
    workdir = pathlib.Path(workdir)
    out = []
    workloads = _load_workloads()
    for workload in ("ideal-completion", "palg-verdicts", "groupoid-search"):
        sub = workdir / workload
        load = workloads.build(workload, SEED, str(sub), True, str(DATA))
        for job in load.jobs:
            argv = [arg.replace(str(workdir), "{work}") for arg in job.argv]
            assert argv[:2] == ["--format", "json"]
            label = job.label
            if workload == "ideal-completion":  # the variants of one system share a label
                label = "check-algebra " + pathlib.Path(argv[-1]).stem
            out += _both_formats("%s: %s" % (workload, label), argv[2:])

    ideals = workdir / "ideals"
    ideals.mkdir()
    systems = (("katsura-3", "grevlex"), ("cyclic-4", "grevlex"), ("katsura-3", "grlex"), ("cyclic-4", "lex"))
    for system, order in systems:
        family, n = system.rsplit("-", 1)
        names, eqs = getattr(workloads.P, family)(int(n))
        name = "%s-%s" % (system, order)
        body = {"variables": names, "ideal": [workloads.P.render(p, names) for p in eqs], "order": order}
        _doc(ideals, name, "algebra", body)
        out += _both_formats("ideal: check-algebra " + name, ["check-algebra", "{work}/ideals/%s.json" % name])

    line, plane, sl2 = _data("palg_der_line"), _data("palg_der_plane"), _data("palg_sl2_action")
    curve, swap, pair = _data("morphism_curve"), _data("groupoid_swap"), _data("groupoid_pair2")
    data_lines = [
        ["check-algebra", _data("algebra_line")],
        ["check-algebra", _data("algebra_truncated")],
        ["check", "algmorphism", curve],
        ["check", "derivation", _data("derivation_euler")],
        ["check-palg", line],
        ["check-palg", plane],
        ["check-palg", sl2],
        ["check", "morphism", line, line, _data("pamorphism_line_identity")],
        ["graph-theorem", "morphism", line, line, _data("pamorphism_line_identity")],
        ["check", "comorphism", plane, line, _data("pacomorphism_curve")],
        ["check", "chainmap", plane, line, _data("pacomorphism_curve")],
        ["graph-theorem", "comorphism", plane, line, _data("pacomorphism_curve")],
        ["psisum", "member", plane, line, curve, _data("element_curve")],
        ["psisum", "bracket", plane, line, curve, _data("element_curve"), _data("element_curve")],
        ["psisum", "closure-suite", plane, line, curve, _data("element_curve"), _data("element_curve")],
        ["restrict", "member", sl2, _data("element_sl2"), "--ideal", "x"],
        ["restrict", "bracket", sl2, _data("element_sl2"), _data("element_sl2"), "--ideal", "x"],
        ["grpd", "check", pair],
        ["grpd", "check", swap],
        ["grpd", "check-map", swap, pair, _data("grpdmap_swap_pair2_morphism")],
        ["grpd", "check-map", swap, pair, _data("grpdmap_swap_pair2_comorphism")],
        ["grpd", "graph-theorem", swap, pair, _data("grpdmap_swap_pair2_morphism")],
        ["grpd", "graph-theorem", swap, pair, _data("grpdmap_swap_pair2_comorphism")],
        ["grpd", "enumerate", swap, pair, "--phi", "1->a,2->b", "--kind", "morphism"],
        ["grpd", "enumerate", swap, pair, "--phi", "1->a,2->b", "--kind", "comorphism"],
    ]
    for argv in data_lines:
        out += _both_formats("data: " + " ".join(argv), argv)

    maps = workdir / "maps"
    maps.mkdir()
    for name, variables, psi, images in (
        ("line-identity", ["x"], ["x"], [["1"]]),
        ("line-scale", ["x"], ["2*x"], [["1/2"]]),
        ("plane-identity", ["u", "v"], ["u", "v"], [["1", "0"], ["0", "1"]]),
    ):
        algebra = {"variables": variables, "ideal": [], "order": "grevlex"}
        _doc(maps, name, "pacomorphism", {"images": images, "psi": {"images": psi, "source": algebra, "target": algebra}})
    co = "{work}/maps/%s.json"
    output = "{work}/out/%s.json"
    (workdir / "out").mkdir()
    written_lines = [
        ["compose", "morphism", line, line, line, _data("pamorphism_line_identity"), _data("pamorphism_line_identity")],
        ["compose", "comorphism", plane, line, line, _data("pacomorphism_curve"), co % "line-identity"],
        ["compose", "comorphism", plane, line, line, _data("pacomorphism_curve"), co % "line-scale"],
        ["compose", "comorphism", plane, plane, line, co % "plane-identity", _data("pacomorphism_curve")],
        ["compose", "comorphism", line, plane, line, co % "line-identity", _data("pacomorphism_curve")],
        ["compose", "comorphism", plane, line, line, _data("pacomorphism_curve"), co % "line-scale",
         "-o", output % "compose"],
        ["psisum", "bracket", plane, line, curve, _data("element_curve"), _data("element_curve"),
         "-o", output % "bracket"],
        ["grpd", "build", "pair", "--objects", "a,b,c"],
        ["grpd", "build", "pair", "--objects", ""],
        ["grpd", "build", "pair", "--objects", "x,y", "-o", output % "pair"],
        ["grpd", "build", "action", "--cyclic", "2", "--objects", "1,2", "--perm", "1->2,2->1"],
        ["grpd", "build", "action", "--cyclic", "4", "--objects", "a,b,c", "--perm", "a->b,b->a,c->c"],
        ["grpd", "build", "action", "--cyclic", "3", "--objects", "o", "--perm", "o->o"],
        ["grpd", "build", "action", "--cyclic", "2", "--objects", "", "--perm", ""],
        ["grpd", "build", "action", "--cyclic", "3", "--objects", "a,b", "--perm", "a->b,b->a"],
        ["grpd", "build", "gauge", "--cyclic", "2", "--total", "p,q,r,s",
         "--proj", "p->m,q->m,r->n,s->n", "--perm", "p->q,q->p,r->s,s->r"],
        ["grpd", "build", "gauge", "--cyclic", "1", "--total", "p,q", "--proj", "p->m,q->n", "--perm", "p->p,q->q"],
        ["grpd", "build", "gauge", "--cyclic", "2", "--total", "", "--proj", "", "--perm", ""],
        ["grpd", "build", "gauge", "--cyclic", "2", "--total", "p,q", "--proj", "p->m,q->m", "--perm", "p->p,q->q"],
        ["grpd", "build", "gauge", "--cyclic", "1", "--total", "p,q", "--proj", "p->m,q->m", "--perm", "p->p,q->q"],
        ["grpd", "build", "gauge", "--cyclic", "2", "--total", "p,q", "--proj", "p->m,q->n", "--perm", "p->q,q->p"],
        ["grpd", "build", "product", swap, pair],
        ["grpd", "build", "phi-product", swap, pair, "--phi", "1->a,2->b"],
        ["grpd", "build", "phi-product", pair, swap, "--phi", "a->1,b->1"],
        ["grpd", "build", "restrict", pair, "--objects", "a"],
        ["grpd", "build", "restrict", swap, "--objects", ""],
    ]
    for argv in written_lines:  # the format does not change a written document
        out.append(("written: " + " ".join(argv), argv, None))

    # Product laws.  Picked greedily in arrow order, {0, 1} generates Z/4 and
    # Z/6, and aa0, aa1, ab0, ac0, ba0, ca0 generate pair(abc) x Z/3.  The
    # first bad triple of each broken table, and the first bad pair or triple
    # of each broken map, has its middle arrow outside that set, except for
    # the tables broken "at generators".
    laws = workdir / "laws"
    laws.mkdir()
    z4, z6, p3z3 = _cyclic_body(4), _cyclic_body(6), _pair_cyclic_body("abc", 3)
    tables = {
        "z3": _cyclic_body(3),
        "z4": z4,
        "z6": z6,
        "pair3-z3": p3z3,
        "z4-broken-off-generators": _with_product(z4, "3", "2", "0"),
        "z4-broken-at-generators": _with_product(z4, "1", "1", "0"),
        "z4-broken-units": _with_product(z4, "0", "1", "2"),
        "pair3-z3-broken-off-generators": _with_product(p3z3, "ab2", "ba0", "aa0"),
        "pair3-z3-broken-at-generators": _with_product(p3z3, "aa1", "aa1", "aa0"),
    }
    for name, body in tables.items():
        _doc(laws, name, "groupoid", body)
        out += _both_formats("laws: grpd check " + name, ["grpd", "check", "{work}/laws/%s.json" % name])
    constant = dict.fromkeys("abc", "o")
    projection = {a: a[2:] for a in p3z3["arrows"]}
    pullback = sorted([x, w, x + x + str(int(w) % 3)] for x in "abc" for w in z6["arrows"])
    grpdmaps = {
        "morphism": ("z3", {"maptype": "morphism", "base": constant, "arrows": projection}),
        "morphism-broken": ("z3", {"maptype": "morphism", "base": constant, "arrows": dict(projection, ab2="0")}),
        "comorphism": ("z6", {"maptype": "comorphism", "base": constant, "table": pullback}),
        "comorphism-broken": ("z6", {"maptype": "comorphism", "base": constant,
                                     "table": [[x, w, "aa1" if (x, w) == ("a", "3") else g] for x, w, g in pullback]}),
    }
    for name, (pi, body) in grpdmaps.items():
        _doc(laws, name, "grpdmap", body)
        for command in ("check-map", "graph-theorem"):
            argv = ["grpd", command, "{work}/laws/pair3-z3.json", "{work}/laws/%s.json" % pi, "{work}/laws/%s.json" % name]
            out += _both_formats("laws: grpd %s %s" % (command, name), argv)

    # Chain maps: one-entry mutants of a passing comorphism, so each record
    # fails on some degree-0 and degree-1 checks and prints their witnesses.
    chainmaps = workdir / "chainmaps"
    chainmaps.mkdir()
    poisson = "{work}/palg-verdicts/poisson3-%s.json"
    comorph = json.loads((workdir / "palg-verdicts" / "poisson3-comorph.json").read_text())["body"]
    mutants = {"workload-mutant": poisson % "comorphism-mutant"}
    for i, k, text in ((0, 0, "0"), (1, 2, "y0"), (2, 1, "1/2*y0^2 - y2"), (1, 1, "-1 + y1*y2")):
        name = "poisson3-entry-%d-%d" % (i, k)
        rows = [[text if (r, c) == (i, k) else v for c, v in enumerate(row)] for r, row in enumerate(comorph["images"])]
        _doc(chainmaps, name, "pacomorphism", dict(comorph, images=rows))
        mutants[name] = "{work}/chainmaps/%s.json" % name
    curve = dict(json.loads((DATA / "pacomorphism_curve.json").read_text())["body"], images=[["1", "3*x"]])
    _doc(chainmaps, "curve-entry-0-1", "pacomorphism", curve)
    for name, path in mutants.items():
        argv = ["check", "chainmap", poisson % "x", poisson % "y", path]
        out += _both_formats("chainmap: " + name, argv)
    out += _both_formats("chainmap: curve-entry-0-1", ["check", "chainmap", plane, line, "{work}/chainmaps/curve-entry-0-1.json"])

    palgs = workdir / "palgs"
    palgs.mkdir()
    for name, body in _random_palgs(random.Random("golden/%d" % SEED)):
        _doc(palgs, name, "palg", body)
        out += _both_formats("palg: check-palg " + name, ["check-palg", "{work}/palgs/%s.json" % name])

    for n, text in enumerate(BAD_POLYNOMIALS):
        _doc(palgs, "bad%d" % n, "algebra", {"variables": ["x", "y"], "ideal": [text], "order": "grevlex"})
        out += _both_formats("parse: %r" % text, ["check-algebra", "{work}/palgs/bad%d.json" % n])

    big = workdir / "big"
    big.mkdir()
    _doc(big, "long-witness", "morphism", {
        "source": {"variables": ["x"], "ideal": ["x^4400"], "order": "grevlex"},
        "target": {"variables": ["y"], "ideal": [], "order": "grevlex"},
        "images": ["10*y"],
    })
    _doc(big, "long-coefficient", "algebra",
         {"variables": ["x", "y"], "ideal": ["x^2 - %s/7*y" % ("3" * 4999 + "1")], "order": "grevlex"})
    _doc(big, "long-exponent", "algebra", {"variables": ["x", "y"], "ideal": ["y + x^" + "1" * 5000], "order": "grevlex"})
    rank = json.dumps({"kind": "palg", "version": "1", "body": _palg_body(("x",), (), [["1"]], {})})
    (big / "long-rank.json").write_text(rank.replace('"rank": 1', '"rank": ' + "1" * 5000))
    (big / "deep.json").write_text("[" * 100000 + "]" * 100000)
    out += _both_formats("long: check algmorphism long-witness", ["check", "algmorphism", "{work}/big/long-witness.json"])
    out += _both_formats("long: check-algebra long-coefficient", ["check-algebra", "{work}/big/long-coefficient.json"])
    out += _both_formats("long: check-algebra long-exponent", ["check-algebra", "{work}/big/long-exponent.json"])
    out += _both_formats("long: check-palg long-rank", ["check-palg", "{work}/big/long-rank.json"])
    out += _both_formats("deep: check-algebra deep", ["check-algebra", "{work}/big/deep.json"])

    faults = workdir / "faults"
    faults.mkdir()
    free_x = {"variables": ["x"], "ideal": [], "order": "grevlex"}
    _doc(faults, "palg-bad-rank", "palg", dict(_palg_body(("x",), (), [["1"]], {}), rank="one"))
    _doc(faults, "morphism-two-faults", "morphism", {
        "source": dict(free_x, ideal=["x^"]),
        "target": {"variables": ["y", "y"], "ideal": [], "order": "grevlex"},
        "images": ["y"],
    })
    pair2 = json.loads((DATA / "groupoid_pair2.json").read_text())["body"]
    for field in ("tgt", "inv"):
        _doc(faults, "pair2-bad-%s" % field, "groupoid", dict(pair2, **{field: dict(pair2[field], **{"('a', 'b')": "zz"})}))
    out += _both_formats("fault: check-algebra palg-bad-rank", ["check-algebra", "{work}/faults/palg-bad-rank.json"])
    out += _both_formats("fault: check algmorphism morphism-two-faults",
                         ["check", "algmorphism", "{work}/faults/morphism-two-faults.json"])
    for field in ("tgt", "inv"):
        out += _both_formats("fault: grpd check pair2-bad-" + field, ["grpd", "check", "{work}/faults/pair2-bad-%s.json" % field])

    capped = [
        ["check-palg", "{work}/palgs/circle-rotations.json"],
        ["check-palg", "{work}/palgs/circle-random-0.json"],
        ["check-palg", sl2],
        ["check", "comorphism", plane, line, _data("pacomorphism_curve")],
        ["grpd", "enumerate", pair, pair, "--phi", "a->a,b->b", "--kind", "morphism"],
    ]
    for argv in capped:
        for cap in range(1, 6):
            out += _both_formats("cap %d: %s" % (cap, " ".join(argv)), argv, cap)
    return out


# -- running and comparing -----------------------------------------------------------


def run(argv, cap, workdir):
    """The record of one command line, run in-process."""
    from lra import cli

    subs = {"{data}": str(DATA), "{work}": str(workdir)}
    real = [arg.replace("{data}", subs["{data}"]).replace("{work}", subs["{work}"]) for arg in argv]
    saved = os.environ.pop("LRA_STEP_CAP", None)
    if cap is not None:
        os.environ["LRA_STEP_CAP"] = str(cap)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(real)
    finally:
        os.environ.pop("LRA_STEP_CAP", None)
        if saved is not None:
            os.environ["LRA_STEP_CAP"] = saved

    def clean(text):
        for placeholder, path in subs.items():
            text = text.replace(path, placeholder)
        for pattern, repl in _TIMES:
            text = pattern.sub(repl, text)
        return text.splitlines()

    record = {"argv": argv, "cap": cap, "exit": code, "stdout": clean(out.getvalue()), "stderr": clean(err.getvalue())}
    if "-o" in argv:
        written = pathlib.Path(real[argv.index("-o") + 1])
        record["file"] = clean(written.read_text(encoding="utf-8") if written.exists() else "")
    return record


def generate(workdir):
    """Every record, keyed by name."""
    records = {}
    for name, argv, cap in cases(workdir):
        assert name not in records, name
        records[name] = run(argv, cap, workdir)
    return records


def load_records():
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def _lines(records):
    lines = []
    for name in sorted(records):
        r = records[name]
        lines.append("## %s" % name)
        lines.append("argv: %s" % " ".join(r["argv"]))
        lines.append("cap: %s, exit: %s" % (r["cap"], r["exit"]))
        lines += ["out| " + line for line in r["stdout"]]
        lines += ["err| " + line for line in r["stderr"]]
        lines += ["file| " + line for line in r.get("file", ())]
    return lines


def diff(expected, actual):
    """A unified diff of two record sets; empty when they agree."""
    if expected == actual:
        return ""
    return "\n".join(difflib.unified_diff(_lines(expected), _lines(actual), "golden", "now", lineterm=""))


def main():
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        records = generate(workdir)
    RECORDS.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print("wrote %d records to %s" % (len(records), RECORDS.relative_to(ROOT)))


if __name__ == "__main__":
    main()
