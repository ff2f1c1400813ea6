"""The sparse pseudoalgebra loader against the dense reference.

``documents.to_palg`` parses only the structure texts other than "0" and
fills ``PAlg.structure`` once.  ``conftest.ref_to_palg`` parses every text
of the dense rows and builds through the public constructor.  On every
document both give the same table and anchors, or the same
``DocumentError`` text.
"""

import copy
import importlib.util
import pathlib
from itertools import combinations

import pytest

from conftest import ref_to_palg
from lra import documents as docs
from lra.algebra import AlgebraPres, Derivation
from lra.groebner import IdealPres
from lra.poly import parse_poly
from lra.pseudoalgebra import axioms_check, make_cotangent_poisson, make_der, make_klie

TESTS = pathlib.Path(__file__).resolve().parent


def _palg_bodies(directory):
    """(file name, body) of every pseudoalgebra document under ``directory``."""
    out = []
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        try:
            doc = docs.load_document(path)
        except docs.DocumentError:
            continue
        if doc.kind == "palg":
            out.append((path.name, doc.body))
    return out


def _corpus_palg_bodies(workdir):
    """(file name, body) of every pseudoalgebra document that the golden
    corpus writes (the benchmark's smoke instances, seeded random tables and
    two fault documents among them), then of the full-size palg-verdicts
    workload at seed 7."""
    spec = importlib.util.spec_from_file_location("lra_golden_corpus_palgs", TESTS / "golden" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    corpus.cases(workdir / "golden")
    corpus._load_workloads().build("palg-verdicts", 7, str(workdir / "full"), False, str(TESTS / "data"))
    return _palg_bodies(workdir / "golden") + _palg_bodies(workdir / "full")


def _so(n):
    """so(n) over Q on the basis E_ab - E_ba, a < b, by matrix commutators."""
    basis = list(combinations(range(n), 2))
    mats = []
    for a, b in basis:
        m = [[0] * n for _ in range(n)]
        m[a][b], m[b][a] = 1, -1
        mats.append(m)
    table = {}
    for i, j in combinations(range(len(basis)), 2):
        p, q = mats[i], mats[j]
        c = [[sum(p[r][k] * q[k][s] - q[r][k] * p[k][s] for k in range(n)) for s in range(n)] for r in range(n)]
        table[(i, j)] = [c[a][b] for a, b in basis]
    return make_klie(table, len(basis))


def _sphere():
    """so(3) acting by rotations on Q[x, y, z] / (x^2 + y^2 + z^2 - 1)."""
    names = ("x", "y", "z")
    algebra = AlgebraPres(names, IdealPres(3, [parse_poly("x^2 + y^2 + z^2 - 1", names)]))
    rotations = []
    for a, b in combinations(range(3), 2):
        images = [algebra.zero()] * 3
        images[a], images[b] = -algebra.variable(b), algebra.variable(a)
        rotations.append(Derivation(algebra, images))
    return make_der(algebra, rotations)


def _hand_built():
    xyz = AlgebraPres.free("x", "y", "z")
    x, y, z = (xyz.variable(v) for v in range(3))
    zero = xyz.zero()
    lie_poisson = [[zero, z, -y], [-z, zero, x], [y, -x, zero]]
    return [
        ("cotangent of so(3)*", docs.document(make_cotangent_poisson(xyz, lie_poisson)).body),
        ("so(4)", docs.document(_so(4)).body),
        ("sphere", docs.document(_sphere()).body),
    ]


def _same_as_reference(body):
    try:
        expected = ref_to_palg(body)
    except docs.DocumentError as err:
        with pytest.raises(docs.DocumentError) as got:
            docs.to_palg(body)
        assert str(got.value) == str(err)
        return None
    loaded = docs.to_palg(body)
    assert loaded.algebra == expected.algebra and loaded.rank == expected.rank
    assert loaded.anchors == expected.anchors
    assert loaded.structure == expected.structure
    return loaded


def test_loader_matches_the_dense_reference(tmp_path):
    bodies = _palg_bodies(TESTS / "data") + _corpus_palg_bodies(tmp_path) + _hand_built()
    refused = {name for name, body in bodies if _same_as_reference(body) is None}
    assert refused == {"long-rank.json", "palg-bad-rank.json"}
    names = {name for name, _ in bodies}
    assert len(bodies) > 40 and {"palg_sl2_action.json", "so4-sphere.json", "circle-random-0.json", "so(4)"} <= names


def test_a_coefficient_in_the_ideal_leaves_its_row():
    body = _hand_built()[2][1]
    entry = next(e for e in body["structure"] if "0" in e["coeffs"])
    k = entry["coeffs"].index("0")
    sphere = copy.deepcopy(body)
    sphere["structure"][body["structure"].index(entry)]["coeffs"][k] = "x^2 + y^2 + z^2 - 1"
    loaded = _same_as_reference(sphere)
    pair = (entry["i"], entry["j"])
    assert loaded.structure[pair] and k not in dict(loaded.structure[pair])
    assert loaded == docs.to_palg(body)
    assert axioms_check(loaded).verdict


def _fault(edit):
    body = copy.deepcopy(docs.document(_so(3)).body)
    edit(body["structure"])
    return body


FAULTS = {
    "short row": (lambda s: s[0]["coeffs"].pop(), "need one coefficient per basis vector (at body.structure[0])"),
    "repeated pair": (lambda s: s.append(dict(s[1])), "repeated pair (0, 2) (at body.structure[3])"),
    "i equals j": (lambda s: s[1].update(j=0), "indices must satisfy 0 <= i < j < rank (at body.structure[1])"),
    "i above j": (lambda s: s[2].update(i=2, j=1), "indices must satisfy 0 <= i < j < rank (at body.structure[2])"),
    "bad polynomial": (
        lambda s: s[2]["coeffs"].__setitem__(1, "0 +"),
        "bad polynomial '0 +': expected a coefficient or variable (line 1, column 4) (at body.structure[2])",
    ),
    "empty text": (
        lambda s: s[0]["coeffs"].__setitem__(1, ""),
        "bad polynomial '': expected a coefficient or variable (line 1, column 1) (at body.structure[0])",
    ),
    "unknown variable": (
        lambda s: s[0]["coeffs"].__setitem__(2, "w"),
        "bad polynomial 'w': unknown variable 'w' (line 1, column 1) (at body.structure[0])",
    ),
    "non-string entry": (lambda s: s[1]["coeffs"].__setitem__(0, 0), "expected a string (at body.structure[1].coeffs[0])"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_one_fault_documents_keep_their_error_text(name):
    edit, message = FAULTS[name]
    body = _fault(edit)
    for load in (docs.to_palg, ref_to_palg):
        with pytest.raises(docs.DocumentError) as err:
            load(body)
        assert str(err.value) == message
