"""JSON document formats for every object the command line handles.

Every document is an envelope {"kind": ..., "version": "1", "body": ...}
with a kind-specific body.  Rendering is canonical (sorted keys, fixed
indentation, sorted table entries), so parse . render is the identity on
documents and rendered corpora are diff-stable.

Polynomial payloads are strings in the shared polynomial grammar, parsed
against the variables of the algebra embedded in (or supplied with) the
document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import AlgebraPres, AlgMorphism, Derivation
from .groebner import IdealPres
from .groupoid import FinGroupoid, GrpdComorphism, GrpdMorphism
from .maps import PAComorphism, PAMorphism
from .poly import PolyParseError, parse_poly
from .pseudoalgebra import PAlg, PAElement
from .psisum import MixedElement

VERSION = "1"

KINDS = (
    "algebra",
    "morphism",
    "derivation",
    "palg",
    "element",
    "pamorphism",
    "pacomorphism",
    "groupoid",
    "grpdmap",
)


class DocumentError(ValueError):
    """Malformed document: bad JSON, bad schema, or bad payload."""

    def __init__(self, message, path=""):
        if path:
            message = "%s (at %s)" % (message, path)
        super().__init__(message)
        self.path = path


@dataclass
class Document:
    kind: str
    version: str
    body: dict


def _unique_keys(pairs):
    """A JSON object from its key-value pairs; a repeated key is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError("repeated key %r in a JSON object" % key)
        obj[key] = value
    return obj


def parse_document(text):
    """Parse and structurally validate one document."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise DocumentError(
            "invalid JSON: %s (line %d, column %d)" % (err.msg, err.lineno, err.colno)
        ) from None
    if not isinstance(raw, dict):
        raise DocumentError("a document must be a JSON object")
    for field in ("kind", "version", "body"):
        if field not in raw:
            raise DocumentError("missing field", field)
    if raw["kind"] not in KINDS:
        raise DocumentError("unknown kind %r" % raw["kind"], "kind")
    if raw["version"] != VERSION:
        raise DocumentError("unsupported version %r" % raw["version"], "version")
    if not isinstance(raw["body"], dict):
        raise DocumentError("body must be an object", "body")
    _validate_body(raw["kind"], raw["body"])
    return Document(raw["kind"], raw["version"], raw["body"])


def render_document(doc):
    payload = {"kind": doc.kind, "version": doc.version, "body": doc.body}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise DocumentError("cannot read %s: %s" % (path, err)) from None
    return parse_document(text)


def save_document(doc, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_document(doc))


# -- structural schemas ------------------------------------------------------


def _expect(body, field, types, path, required=True):
    if field not in body:
        if required:
            raise DocumentError("missing field", "%s.%s" % (path, field))
        return None
    value = body[field]
    if not isinstance(value, types):
        raise DocumentError(
            "field has the wrong type (expected %s)"
            % (types.__name__ if isinstance(types, type) else "/".join(t.__name__ for t in types)),
            "%s.%s" % (path, field),
        )
    return value


def _expect_str_list(body, field, path, required=True):
    value = _expect(body, field, list, path, required)
    if value is None:
        return None
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise DocumentError("expected a string", "%s.%s[%d]" % (path, field, i))
    return value


def _expect_str_rows(body, field, path, shape="a list of strings", width=None):
    """A list field whose entries are lists of strings (``width`` of them, if given)."""
    rows = _expect(body, field, list, path)
    for n, row in enumerate(rows):
        if (
            not isinstance(row, list)
            or not all(isinstance(s, str) for s in row)
            or width not in (None, len(row))
        ):
            raise DocumentError("expected %s" % shape, "%s.%s[%d]" % (path, field, n))
    return rows


def _no_repeats(keys, what, path):
    """Reject the first key that equals an earlier one; ``path`` names the list."""
    if len(set(keys)) < len(keys):
        seen = set()
        for n, key in enumerate(keys):
            if key in seen:
                raise DocumentError("repeated %s %r" % (what, key), "%s[%d]" % (path, n))
            seen.add(key)


def _expect_str_table(body, field, path):
    """An object field whose values are all strings."""
    table = _expect(body, field, dict, path)
    for key, value in table.items():
        if not isinstance(value, str):
            raise DocumentError("expected a string", "%s.%s[%r]" % (path, field, key))
    return table


def _validate_algebra_body(body, path):
    _expect_str_list(body, "variables", path)
    _expect_str_list(body, "ideal", path)
    order = _expect(body, "order", str, path, required=False)
    if order is not None and order not in ("grevlex", "grlex", "lex"):
        raise DocumentError("unknown monomial order %r" % order, "%s.order" % path)


def _validate_morphism_body(body, path):
    source = _expect(body, "source", dict, path)
    target = _expect(body, "target", dict, path)
    _validate_algebra_body(source, "%s.source" % path)
    _validate_algebra_body(target, "%s.target" % path)
    _expect_str_list(body, "images", path)


def _validate_body(kind, body):
    path = "body"
    if kind == "algebra":
        _validate_algebra_body(body, path)
    elif kind == "morphism":
        _validate_morphism_body(body, path)
    elif kind == "derivation":
        algebra = _expect(body, "algebra", dict, path)
        _validate_algebra_body(algebra, "%s.algebra" % path)
        _expect_str_list(body, "images", path)
    elif kind == "palg":
        algebra = _expect(body, "algebra", dict, path)
        _validate_algebra_body(algebra, "%s.algebra" % path)
        rank = _expect(body, "rank", int, path)
        if len(_expect_str_rows(body, "anchor", path)) != rank:
            raise DocumentError("need one anchor row per basis vector", "%s.anchor" % path)
        structure = _expect(body, "structure", list, path)
        for n, entry in enumerate(structure):
            epath = "%s.structure[%d]" % (path, n)
            if not isinstance(entry, dict):
                raise DocumentError("expected an object", epath)
            i = _expect(entry, "i", int, epath)
            j = _expect(entry, "j", int, epath)
            if not 0 <= i < j < rank:
                raise DocumentError("indices must satisfy 0 <= i < j < rank", epath)
            _expect_str_list(entry, "coeffs", epath)
    elif kind == "element":
        has_coords = "coords" in body
        has_mixed = "tensor" in body or "f_part" in body
        if has_coords == has_mixed:
            raise DocumentError(
                "an element carries either 'coords' or both 'tensor' and 'f_part'", path
            )
        if has_coords:
            _expect_str_list(body, "coords", path)
        else:
            _expect_str_list(body, "tensor", path)
            _expect_str_list(body, "f_part", path)
    elif kind in ("pamorphism", "pacomorphism"):
        psi = _expect(body, "psi", dict, path)
        _validate_morphism_body(psi, "%s.psi" % path)
        _expect_str_rows(body, "images", path)
    elif kind == "groupoid":
        _no_repeats(_expect_str_list(body, "objects", path), "object", "%s.objects" % path)
        arrows = _expect_str_list(body, "arrows", path)
        _no_repeats(arrows, "arrow", "%s.arrows" % path)
        arrow_set = set(arrows)
        for field in ("src", "tgt", "inv"):
            for key in _expect_str_table(body, field, path):
                if key not in arrow_set:
                    raise DocumentError("unknown arrow %r" % key, "%s.%s" % (path, field))
        ident = _expect_str_table(body, "id", path)
        for key, value in ident.items():
            if value not in arrow_set:
                raise DocumentError(
                    "identity of %r is not an arrow" % key, "%s.id[%r]" % (path, key)
                )
        comp = _expect_str_rows(body, "comp", path, "[g, h, gh]", 3)
        for n, entry in enumerate(comp):
            for s in entry:
                if s not in arrow_set:
                    raise DocumentError("unknown arrow %r" % s, "%s.comp[%d]" % (path, n))
        _no_repeats([(g, h) for g, h, _ in comp], "pair", "%s.comp" % path)
    elif kind == "grpdmap":
        maptype = _expect(body, "maptype", str, path)
        if maptype not in ("morphism", "comorphism"):
            raise DocumentError("maptype must be 'morphism' or 'comorphism'", "%s.maptype" % path)
        _expect_str_table(body, "base", path)
        if maptype == "morphism":
            _expect_str_table(body, "arrows", path)
        else:
            table = _expect_str_rows(body, "table", path, "[x, w, g]", 3)
            _no_repeats([(x, w) for x, w, _ in table], "pair", "%s.table" % path)


# -- converters: documents -> objects ---------------------------------------


def _parse_payload(algebra, text, path):
    """Parse a polynomial over the variables of ``algebra``, unreduced: every
    converter hands it to a constructor that reduces (``IdealPres`` takes
    generators as given)."""
    try:
        return parse_poly(text, algebra.variables)
    except PolyParseError as err:
        raise DocumentError("bad polynomial %r: %s" % (text, err), path) from None


def to_algebra(body, path="body"):
    variables = tuple(body["variables"])
    order = body.get("order", "grevlex")
    free = AlgebraPres(variables, order=order)
    gens = [_parse_payload(free, s, "%s.ideal" % path) for s in body["ideal"]]
    try:
        return AlgebraPres(variables, IdealPres(len(variables), gens, order))
    except ValueError as err:
        raise DocumentError(str(err), path) from None


def from_algebra(algebra):
    return {
        "variables": list(algebra.variables),
        "ideal": [algebra.render(g) for g in algebra.ideal.generators],
        "order": algebra.ideal.order,
    }


def algebra_document(algebra):
    return Document("algebra", VERSION, from_algebra(algebra))


def to_algmorphism(body, path="body"):
    source = to_algebra(body["source"], "%s.source" % path)
    target = to_algebra(body["target"], "%s.target" % path)
    if len(body["images"]) != source.arity:
        raise DocumentError("need one image per source variable", "%s.images" % path)
    images = [_parse_payload(target, s, "%s.images" % path) for s in body["images"]]
    return AlgMorphism(source, target, images)


def from_algmorphism(m):
    return {
        "source": from_algebra(m.source),
        "target": from_algebra(m.target),
        "images": [m.target.render(q) for q in m.images],
    }


def algmorphism_document(m):
    return Document("morphism", VERSION, from_algmorphism(m))


def to_derivation(body, path="body"):
    algebra = to_algebra(body["algebra"], "%s.algebra" % path)
    if len(body["images"]) != algebra.arity:
        raise DocumentError("need one image per variable", "%s.images" % path)
    images = [_parse_payload(algebra, s, "%s.images" % path) for s in body["images"]]
    return Derivation(algebra, images)


def from_derivation(d):
    return {
        "algebra": from_algebra(d.algebra),
        "images": [d.algebra.render(q) for q in d.images],
    }


def derivation_document(d):
    return Document("derivation", VERSION, from_derivation(d))


def to_palg(body, path="body"):
    algebra = to_algebra(body["algebra"], "%s.algebra" % path)
    rank = body["rank"]
    anchors = []
    for i, row in enumerate(body["anchor"]):
        if len(row) != algebra.arity:
            raise DocumentError(
                "need one image per variable", "%s.anchor[%d]" % (path, i)
            )
        anchors.append(
            Derivation(algebra, [_parse_payload(algebra, s, "%s.anchor[%d]" % (path, i)) for s in row])
        )
    structure = {}
    for n, entry in enumerate(body["structure"]):
        if len(entry["coeffs"]) != rank:
            raise DocumentError(
                "need one coefficient per basis vector", "%s.structure[%d]" % (path, n)
            )
        structure[(entry["i"], entry["j"])] = [
            _parse_payload(algebra, s, "%s.structure[%d]" % (path, n))
            for s in entry["coeffs"]
        ]
    return PAlg(algebra, rank, anchors, structure)


def from_palg(e):
    structure = []
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            structure.append(
                {
                    "i": i,
                    "j": j,
                    "coeffs": [e.algebra.render(c) for c in e.structure[(i, j)]],
                }
            )
    return {
        "algebra": from_algebra(e.algebra),
        "rank": e.rank,
        "anchor": [[e.algebra.render(q) for q in d.images] for d in e.anchors],
        "structure": structure,
    }


def palg_document(e):
    return Document("palg", VERSION, from_palg(e))


def to_element(body, palg, path="body"):
    coords = body.get("coords")
    if coords is None:
        raise DocumentError("expected a plain element with 'coords'", path)
    if len(coords) != palg.rank:
        raise DocumentError("need one coordinate per basis vector", "%s.coords" % path)
    return PAElement(palg, [_parse_payload(palg.algebra, s, "%s.coords" % path) for s in coords])


def from_element(x):
    return {"coords": [x.parent.algebra.render(c) for c in x.coords]}


def element_document(x):
    return Document("element", VERSION, from_element(x))


def to_mixed_element(body, ctx, path="body"):
    tensor = body.get("tensor")
    f_part = body.get("f_part")
    if tensor is None or f_part is None:
        raise DocumentError("expected a mixed element with 'tensor' and 'f_part'", path)
    b_alg = ctx.f.algebra
    if len(tensor) != ctx.e.rank:
        raise DocumentError("need one tensor coefficient per E-basis vector", "%s.tensor" % path)
    if len(f_part) != ctx.f.rank:
        raise DocumentError("need one coordinate per F-basis vector", "%s.f_part" % path)
    return MixedElement(
        ctx,
        [_parse_payload(b_alg, s, "%s.tensor" % path) for s in tensor],
        [_parse_payload(b_alg, s, "%s.f_part" % path) for s in f_part],
    )


def from_mixed_element(z):
    b_alg = z.owner.f.algebra
    return {
        "tensor": [b_alg.render(c) for c in z.tensor],
        "f_part": [b_alg.render(c) for c in z.f_part],
    }


def mixed_element_document(z):
    return Document("element", VERSION, from_mixed_element(z))


def to_pamorphism(body, e, f, path="body"):
    psi = to_algmorphism(body["psi"], "%s.psi" % path)
    if psi.source != e.algebra or psi.target != f.algebra:
        raise DocumentError(
            "psi does not connect the supplied pseudoalgebras", "%s.psi" % path
        )
    if len(body["images"]) != e.rank:
        raise DocumentError("need one image per source basis vector", "%s.images" % path)
    images = []
    for i, row in enumerate(body["images"]):
        if len(row) != f.rank:
            raise DocumentError(
                "need one coordinate per target basis vector", "%s.images[%d]" % (path, i)
            )
        images.append(
            PAElement(f, [_parse_payload(f.algebra, s, "%s.images[%d]" % (path, i)) for s in row])
        )
    return PAMorphism(e, f, psi, images)


def from_pamorphism(m):
    return {
        "psi": from_algmorphism(m.psi),
        "images": [[m.target.algebra.render(c) for c in img.coords] for img in m.images],
    }


def pamorphism_document(m):
    return Document("pamorphism", VERSION, from_pamorphism(m))


def to_pacomorphism(body, e, f, path="body"):
    """Build a comorphism from F to E; the document's psi runs E-side to F-side."""
    psi = to_algmorphism(body["psi"], "%s.psi" % path)
    if psi.source != e.algebra or psi.target != f.algebra:
        raise DocumentError(
            "psi does not connect the supplied pseudoalgebras", "%s.psi" % path
        )
    if len(body["images"]) != f.rank:
        raise DocumentError("need one image row per F-basis vector", "%s.images" % path)
    images = []
    for j, row in enumerate(body["images"]):
        if len(row) != e.rank:
            raise DocumentError(
                "need one coefficient per E-basis vector", "%s.images[%d]" % (path, j)
            )
        images.append([_parse_payload(f.algebra, s, "%s.images[%d]" % (path, j)) for s in row])
    return PAComorphism(f, e, psi, images)


def from_pacomorphism(m):
    return {
        "psi": from_algmorphism(m.psi),
        "images": [[m.source.algebra.render(c) for c in row] for row in m.images],
    }


def pacomorphism_document(m):
    return Document("pacomorphism", VERSION, from_pacomorphism(m))


# -- groupoids ---------------------------------------------------------------


def _label_map(items, path):
    mapping = {}
    for item in items:
        label = item if isinstance(item, str) else str(item)
        if label in mapping:
            raise DocumentError("labels collide after stringification: %r" % label, path)
        mapping[item] = label
    return mapping


def from_groupoid(g):
    objs = _label_map(g.objects, "body.objects")
    arrs = _label_map(g.arrows, "body.arrows")
    return {
        "objects": sorted(objs.values()),
        "arrows": sorted(arrs.values()),
        "src": {arrs[a]: objs[g.src[a]] for a in g.arrows},
        "tgt": {arrs[a]: objs[g.tgt[a]] for a in g.arrows},
        "id": {objs[x]: arrs[g.ident[x]] for x in g.objects},
        "inv": {arrs[a]: arrs[g.inv[a]] for a in g.arrows},
        "comp": sorted([[arrs[a], arrs[b], arrs[c]] for (a, b), c in g.comp.items()]),
    }


def groupoid_document(g):
    return Document("groupoid", VERSION, from_groupoid(g))


def to_groupoid(body, path="body"):
    objects = body["objects"]
    arrows = body["arrows"]
    for field in ("src", "tgt", "inv"):
        if set(body[field]) != set(arrows):
            raise DocumentError("table must cover every arrow exactly", "%s.%s" % (path, field))
    if set(body["id"]) != set(objects):
        raise DocumentError("identity table must cover every object", "%s.id" % path)
    for a in arrows:
        if body["src"][a] not in objects or body["tgt"][a] not in objects:
            raise DocumentError("endpoint of %r is not an object" % a, "%s.src" % path)
    comp = {}
    for g1, g2, g3 in body["comp"]:
        comp[(g1, g2)] = g3
    return FinGroupoid(
        objects,
        arrows,
        dict(body["src"]),
        dict(body["tgt"]),
        dict(body["id"]),
        dict(body["inv"]),
        comp,
    )


def from_grpdmap(m):
    if isinstance(m, GrpdMorphism):
        return {
            "maptype": "morphism",
            "base": {str(k): str(v) for k, v in m.base.items()},
            "arrows": {str(k): str(v) for k, v in m.arrows.items()},
        }
    return {
        "maptype": "comorphism",
        "base": {str(k): str(v) for k, v in m.base.items()},
        "table": sorted([[str(x), str(w), str(g)] for (x, w), g in m.table.items()]),
    }


def grpdmap_document(m):
    return Document("grpdmap", VERSION, from_grpdmap(m))


def to_grpdmap(body, path="body"):
    if body["maptype"] == "morphism":
        return GrpdMorphism(dict(body["base"]), dict(body["arrows"]))
    table = {}
    for x, w, g in body["table"]:
        table[(x, w)] = g
    return GrpdComorphism(dict(body["base"]), table)
