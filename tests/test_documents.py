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
from lra.restriction import ResidueElement, RestrictionCtx


CONVERTERS = {
    "algebra": docs.to_algebra,
    "morphism": docs.to_algmorphism,
    "derivation": docs.to_derivation,
    "palg": docs.to_palg,
    "groupoid": docs.to_groupoid,
    "grpdmap": docs.to_grpdmap,
}


def convert(text):
    """Parse a document and read its body with the converter of its kind."""
    doc = docs.parse_document(text)
    return CONVERTERS[doc.kind](doc.body)


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
        docs.document(qx),
        docs.document(quotient),
        docs.document(psi),
        docs.document(Derivation(quotient, [quotient.variable(0)])),
        docs.document(dx),
        docs.document(act),
        docs.document(act.basis(1).scale(x)),
        docs.document(relabel),
        docs.document(co),
    ]
    for g in groupoid_corpus().values():
        out.append(docs.document(g))
    return out


def test_render_parse_round_trip_is_identity():
    for doc in sample_documents():
        text = docs.render_document(doc)
        again = docs.parse_document(text)
        assert again == doc
        assert docs.render_document(again) == text


def test_document_refuses_an_object_of_no_kind():
    """A residue class of a restriction has no document kind."""
    dx = make_der(algebras()["x"])
    residue = ResidueElement(RestrictionCtx(dx, [dx.algebra.variable(0)]), [dx.algebra.one()])
    with pytest.raises(TypeError, match="^no document kind carries a ResidueElement$"):
        docs.document(residue)


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
        convert(json.dumps(raw))
    assert str(err.value) == "expected a string (at %s)" % location


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, field, at, row, message",
    [
        ("groupoid_pair2", "objects", 2, "a", "repeated object 'a' (at body.objects[2])"),
        (
            "groupoid_pair2", "arrows", 4, "('a', 'b')",
            "repeated arrow \"('a', 'b')\" (at body.arrows[4])",
        ),
        (
            "groupoid_pair2", "comp", 8, ["('a', 'a')", "('a', 'a')", "('a', 'b')"],
            "repeated pair (\"('a', 'a')\", \"('a', 'a')\") (at body.comp[8])",
        ),
        (
            "grpdmap_swap_pair2_comorphism", "table", 0, ["1", "('a', 'a')", "('1', 1)"],
            "repeated pair ('1', \"('a', 'a')\") (at body.table[1])",
        ),
        (
            "palg_sl2_action", "structure", 3, {"coeffs": ["0", "0", "0"], "i": 0, "j": 1},
            "repeated pair (0, 1) (at body.structure[3])",
        ),
        ("algebra_line", "variables", 1, "x", "repeated variable 'x' (at body.variables[1])"),
        (
            "palg_sl2_action", "algebra.variables", 1, "x",
            "repeated variable 'x' (at body.algebra.variables[1])",
        ),
        (
            "morphism_curve", "target.variables", 0, "x",
            "repeated variable 'x' (at body.target.variables[1])",
        ),
        (
            "derivation_euler", "algebra.variables", 0, "t",
            "repeated variable 't' (at body.algebra.variables[1])",
        ),
    ],
)
def test_repeated_entries_are_rejected(tmp_path, capsys, name, field, at, row, message):
    """A later entry must not silently replace an earlier one."""
    from lra.cli import main

    raw = json.loads((DATA / (name + ".json")).read_text(encoding="utf-8"))
    entries = raw["body"]
    for key in field.split("."):
        entries = entries[key]
    entries.insert(at, row)
    with pytest.raises(docs.DocumentError) as err:
        convert(json.dumps(raw))
    assert str(err.value) == message
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    argv = {
        "groupoid_pair2": ["grpd", "check", path],
        "palg_sl2_action": ["check-palg", path],
        "algebra_line": ["check-algebra", path],
        "morphism_curve": ["check", "algmorphism", path],
        "derivation_euler": ["check", "derivation", path],
    }.get(name, ["grpd", "check-map", DATA / "groupoid_swap.json", DATA / "groupoid_pair2.json", path])
    assert main([str(arg) for arg in argv]) == 2
    assert capsys.readouterr().err == "lra: input error: %s\n" % message


@pytest.mark.parametrize(
    "anchor",
    ['"(\'a\', \'a\')": "a",\n', '"(\'b\', \'b\')": "b"'],
    ids=["before", "after"],
)
def test_repeated_json_key_is_rejected(tmp_path, capsys, anchor):
    """A second tgt entry for ('a', 'b') must not replace the first, wherever it stands.

    Written as raw text: ``json.dumps`` cannot write a repeated key.
    """
    from lra.cli import main

    text = (DATA / "groupoid_pair2.json").read_text(encoding="utf-8")
    tgt = text.index('"tgt": {')
    at = text.index(anchor, tgt) + len(anchor)
    extra = '      "(\'a\', \'b\')": "a",\n' if anchor.endswith("\n") else ',\n      "(\'a\', \'b\')": "a"'
    text = text[:at] + extra + text[at:]
    assert text[tgt:].count('"(\'a\', \'b\')":') == 2
    message = "repeated key \"('a', 'b')\" in a JSON object"
    with pytest.raises(docs.DocumentError) as err:
        docs.parse_document(text)
    assert str(err.value) == message
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    assert main(["grpd", "check", str(path)]) == 2
    assert capsys.readouterr().err == "lra: input error: %s\n" % message


def test_schema_violations_name_the_field():
    with pytest.raises(docs.DocumentError, match="body.variables"):
        convert('{"kind": "algebra", "version": "1", "body": {"ideal": []}}')
    text = (
        '{"kind": "palg", "version": "1", "body": {"algebra": {"variables": ["x"],'
        ' "ideal": []}, "rank": 1, "anchor": [["1"]], "structure":'
        ' [{"i": 1, "j": 0, "coeffs": ["0"]}]}}'
    )
    with pytest.raises(docs.DocumentError, match="structure"):
        convert(text)


def test_bad_polynomial_reports_position():
    doc = docs.parse_document(
        '{"kind": "algebra", "version": "1", "body": {"variables": ["x"], "ideal": ["2*x^"]}}'
    )
    with pytest.raises(docs.DocumentError, match="column 5"):
        docs.to_algebra(doc.body)


def test_groupoid_doc_round_trips_through_builder():
    from lra.groupoid import check_groupoid, make_pair, make_phi_product

    g = make_phi_product(make_pair(["1", "2"]), make_pair(["a"]), {"1": "a", "2": "a"})
    doc = docs.document(g)
    rebuilt = docs.to_groupoid(docs.parse_document(docs.render_document(doc)).body)
    assert check_groupoid(rebuilt).verdict
    assert len(rebuilt.arrows) == len(g.arrows)


def test_groupoid_doc_detects_dangling_arrow():
    from lra.groupoid import make_pair

    body = docs.from_groupoid(make_pair(["a", "b"]))
    body["comp"][0][2] = "nonsense"
    with pytest.raises(docs.DocumentError, match="unknown arrow"):
        docs.to_groupoid(body)


@pytest.mark.parametrize(
    "row, message",
    [
        (["('a', 'a')", "('a', 'b')"], "expected [g, h, gh] (at body.comp[1])"),
        (["('a', 'a')", [], "('a', 'b')"], "expected [g, h, gh] (at body.comp[1])"),
        (["('a', 'a')", "('a', 'b')", 0], "expected [g, h, gh] (at body.comp[1])"),
        (["('a', 'a')", "('a', 'b')", "zz"], "unknown arrow 'zz' (at body.comp[1])"),
    ],
)
def test_product_rows_name_their_fault(row, message):
    """A row that is not three strings is malformed; three strings must all be arrows."""
    body = json.loads((DATA / "groupoid_pair2.json").read_text(encoding="utf-8"))["body"]
    body["comp"][1] = row
    with pytest.raises(docs.DocumentError) as err:
        docs.to_groupoid(body)
    assert str(err.value) == message


def test_semantic_binding_errors():
    alg = algebras()
    dx = make_der(alg["x"])
    duv = make_der(alg["uv"])
    x = alg["x"].variable(0)
    psi = AlgMorphism(alg["uv"], alg["x"], [x, x ** 2])
    co_doc = docs.document(PAComorphism(dx, duv, psi, [[alg["x"].one(), 2 * x]]))
    with pytest.raises(docs.DocumentError, match="does not connect"):
        docs.to_pacomorphism(co_doc.body, dx, dx)


def test_mixed_element_documents():
    alg = algebras()
    e, f = make_der(alg["x"]), make_der(alg["y"])
    y = alg["y"].variable(0)
    ctx = PsiSumCtx(e, f, AlgMorphism(alg["x"], alg["y"], [y ** 2]))
    z = MixedElement(ctx, [2 * y], [alg["y"].one()])
    doc = docs.document(z)
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


@pytest.mark.parametrize("order", ["grevlex", "grlex", "lex"])
def test_algebra_with_huge_exponents(tmp_path, capsys, order):
    """An exponent of 2^16 + 1 loads and completes; the basis is worked out by hand.

    The leads x^65537 and y^2 are coprime, so the generators already form the
    reduced basis, smallest lead first; x^131074 = (x^65537)^2 reduces to y^2.
    """
    from lra.cli import main

    body = {"variables": ["x", "y"], "ideal": ["y^2", "x^65537 - y"], "order": order}
    path = tmp_path / "huge.json"
    docs.save_document(docs.Document("algebra", body), path)
    algebra = docs.to_algebra(docs.load_document(path).body)
    x, y = algebra.variable(0), algebra.variable(1)
    assert algebra.ideal.groebner == (y ** 2, x ** 65537 - y)
    assert algebra.nf(x ** 131074).is_zero()
    assert algebra.nf(x ** 65538) == x * y
    assert algebra.nf(x ** 65536 * y + 1) == x ** 65536 * y + 1
    assert main(["--format", "json", "check-algebra", str(path)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[0] == {"name": "reduced %s basis: [y^2, x^65537 - y]" % order, "status": "pass", "witness": ""}
    assert [c["status"] for c in checks] == ["pass"] * 3
