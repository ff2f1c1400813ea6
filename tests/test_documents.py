import json
import pathlib

import pytest

from conftest import algebras, groupoid_corpus, sl2, sl2_action_images
from lra import documents as docs
from lra.algebra import AlgebraPres, AlgMorphism, Derivation
from lra.groebner import IdealPres
from lra.maps import PAComorphism, PAMorphism
from lra.poly import MPoly
from lra.pseudoalgebra import make_action, make_der
from lra.psisum import MixedElement, PsiSumCtx


def sample_documents():
    alg = algebras()
    qx = alg["x"]
    x = qx.variable(0)
    quotient = AlgebraPres(("t",), IdealPres(1, [MPoly.variable(1, 0) ** 3]))
    dx = make_der(qx)
    duv = make_der(alg["uv"])
    act = make_action(qx, sl2(), sl2_action_images(qx))
    psi = AlgMorphism(alg["uv"], qx, [x, x ** 2])
    co = PAComorphism(dx, duv, psi, [[qx.one(), 2 * x]])
    relabel = PAMorphism(
        dx, make_der(alg["y"]),
        AlgMorphism(qx, alg["y"], [alg["y"].variable(0)]),
        [make_der(alg["y"]).basis(0)],
    )
    out = [
        docs.algebra_document(qx),
        docs.algebra_document(quotient),
        docs.algmorphism_document(psi),
        docs.derivation_document(Derivation(quotient, [quotient.variable(0)])),
        docs.palg_document(dx),
        docs.palg_document(act),
        docs.element_document(act.basis(1).scale(x)),
        docs.pamorphism_document(relabel),
        docs.pacomorphism_document(co),
    ]
    for g in groupoid_corpus().values():
        out.append(docs.groupoid_document(g))
    return out


def test_render_parse_round_trip_is_identity():
    for doc in sample_documents():
        text = docs.render_document(doc)
        again = docs.parse_document(text)
        assert again == doc
        assert docs.render_document(again) == text


def test_parse_rejects_bad_envelopes():
    with pytest.raises(docs.DocumentError, match="invalid JSON"):
        docs.parse_document("{nope")
    with pytest.raises(docs.DocumentError, match="missing field"):
        docs.parse_document('{"kind": "algebra", "version": "1"}')
    with pytest.raises(docs.DocumentError, match="unknown kind"):
        docs.parse_document('{"kind": "widget", "version": "1", "body": {}}')
    with pytest.raises(docs.DocumentError, match="unknown kind"):
        docs.parse_document('{"kind": "action", "version": "1", "body": {}}')
    with pytest.raises(docs.DocumentError, match="unsupported version"):
        docs.parse_document('{"kind": "algebra", "version": "9", "body": {}}')


@pytest.mark.parametrize("junk", [[], 0])
@pytest.mark.parametrize(
    "name, field, key, location",
    [
        ("groupoid_pair2", "id", "a", "body.id['a']"),
        ("grpdmap_swap_pair2_morphism", "arrows", "('1', 0)", 'body.arrows["(\'1\', 0)"]'),
        ("grpdmap_swap_pair2_comorphism", "base", "1", "body.base['1']"),
    ],
)
def test_table_values_must_be_strings(name, field, key, location, junk):
    path = pathlib.Path(__file__).parent / "data" / (name + ".json")
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["body"][field][key] = junk
    with pytest.raises(docs.DocumentError) as err:
        docs.parse_document(json.dumps(raw))
    assert str(err.value) == "expected a string (at %s)" % location


def test_schema_violations_name_the_field():
    with pytest.raises(docs.DocumentError, match="body.variables"):
        docs.parse_document('{"kind": "algebra", "version": "1", "body": {"ideal": []}}')
    text = (
        '{"kind": "palg", "version": "1", "body": {"algebra": {"variables": ["x"],'
        ' "ideal": []}, "rank": 1, "anchor": [["1"]], "structure":'
        ' [{"i": 1, "j": 0, "coeffs": ["0"]}]}}'
    )
    with pytest.raises(docs.DocumentError, match="structure"):
        docs.parse_document(text)


def test_bad_polynomial_reports_position():
    doc = docs.parse_document(
        '{"kind": "algebra", "version": "1", "body": {"variables": ["x"], "ideal": ["2*x^"]}}'
    )
    with pytest.raises(docs.DocumentError, match="column 5"):
        docs.to_algebra(doc.body)


def test_groupoid_doc_round_trips_through_builder():
    from lra.groupoid import check_groupoid, make_pair, make_phi_product

    g = make_phi_product(make_pair(["1", "2"]), make_pair(["a"]), {"1": "a", "2": "a"})
    doc = docs.groupoid_document(g)
    rebuilt = docs.to_groupoid(docs.parse_document(docs.render_document(doc)).body)
    assert check_groupoid(rebuilt).verdict
    assert len(rebuilt.arrows) == len(g.arrows)


def test_groupoid_doc_detects_dangling_arrow():
    from lra.groupoid import make_pair

    body = docs.from_groupoid(make_pair(["a", "b"]))
    body["comp"][0][2] = "nonsense"
    with pytest.raises(docs.DocumentError, match="unknown arrow"):
        docs._validate_body("groupoid", body)


def test_semantic_binding_errors():
    alg = algebras()
    dx = make_der(alg["x"])
    duv = make_der(alg["uv"])
    x = alg["x"].variable(0)
    psi = AlgMorphism(alg["uv"], alg["x"], [x, x ** 2])
    co_doc = docs.pacomorphism_document(PAComorphism(dx, duv, psi, [[alg["x"].one(), 2 * x]]))
    with pytest.raises(docs.DocumentError, match="does not connect"):
        docs.to_pacomorphism(co_doc.body, dx, dx)


def test_mixed_element_documents():
    alg = algebras()
    e, f = make_der(alg["x"]), make_der(alg["y"])
    y = alg["y"].variable(0)
    ctx = PsiSumCtx(e, f, AlgMorphism(alg["x"], alg["y"], [y ** 2]))
    z = MixedElement(ctx, [2 * y], [alg["y"].one()])
    doc = docs.mixed_element_document(z)
    again = docs.to_mixed_element(docs.parse_document(docs.render_document(doc)).body, ctx)
    assert again == z


def test_committed_corpus_is_byte_stable():
    """render . parse is the identity, byte for byte, on the shipped corpus."""
    corpus_dir = pathlib.Path(__file__).parent / "data"
    files = sorted(corpus_dir.glob("*.json"))
    assert len(files) >= 10
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert docs.render_document(docs.parse_document(text)) == text, path.name


def test_committed_corpus_objects_verify():
    from lra.groupoid import check_groupoid
    from lra.pseudoalgebra import axioms_check

    corpus_dir = pathlib.Path(__file__).parent / "data"
    for path in sorted(corpus_dir.glob("*.json")):
        doc = docs.load_document(path)
        if doc.kind == "algebra":
            docs.to_algebra(doc.body)
        elif doc.kind == "derivation":
            assert docs.to_derivation(doc.body).check().verdict
        elif doc.kind == "morphism":
            assert docs.to_algmorphism(doc.body).check().verdict
        elif doc.kind == "palg":
            assert axioms_check(docs.to_palg(doc.body)).verdict
        elif doc.kind == "groupoid":
            assert check_groupoid(docs.to_groupoid(doc.body)).verdict
