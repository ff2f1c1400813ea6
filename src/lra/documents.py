"""JSON document formats for every object the command line handles.

Every document is an envelope {"kind": ..., "version": "1", "body": ...}
with a kind-specific body.  ``parse_document`` checks the envelope only.
The converter of the kind (``to_algebra``, ``to_palg``, ``to_groupoid``,
...) checks the body as it reads it, each field once, and rejects a bad
field with a ``DocumentError`` that names its location; a body with
several faults reports the first in the converter's reading order.
``document`` builds the document of an object: the kind its class is
written as, with the body from that kind's writer (``from_algebra``, ...).

Rendering is canonical (sorted keys, fixed indentation, sorted table
entries), so parse . render is the identity on documents and rendered
corpora are diff-stable.

Polynomial payloads are strings in the shared polynomial grammar, parsed
against the variables of the algebra embedded in (or supplied with) the
document.
"""

import json
from collections import namedtuple

from .algebra import AlgebraPres, AlgMorphism, Derivation
from .groebner import IdealPres
from .groupoid import FinGroupoid, GrpdComorphism, GrpdMorphism, _owning
from .maps import PAComorphism, PAMorphism
from .poly import PolyParseError, _name_index, _read_int, _read_poly, is_variable_name
from .pseudoalgebra import PAlg, PAElement
from .psisum import MixedElement

VERSION = "1"

class DocumentError(ValueError):
    """Malformed document: bad JSON, bad schema, or bad payload."""

    def __init__(self, message, path=""):
        if path:
            message = "%s (at %s)" % (message, path)
        super().__init__(message)
        self.path = path


Document = namedtuple("Document", "kind body")


def _unique_keys(pairs):
    """A JSON object from its key-value pairs; a repeated key is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError("repeated key %r in a JSON object" % key)
        obj[key] = value
    return obj


def _json_int(literal):
    """A JSON integer literal of any length; ``int`` refuses more than 4,300 digits."""
    return -_read_int(literal[1:]) if literal[0] == "-" else _read_int(literal)


def parse_document(text):
    """Parse one document and check its envelope: the JSON itself, repeated
    keys, ``kind``, ``version``, and that ``body`` is an object.  The body
    is checked by the converter of its kind."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except json.JSONDecodeError as err:
        raise DocumentError(
            "invalid JSON: %s (line %d, column %d)" % (err.msg, err.lineno, err.colno)
        ) from None
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("a document must be a JSON object")
    for field in ("kind", "version", "body"):
        if field not in raw:
            raise DocumentError("missing field", field)
    for field in ("kind", "version"):
        if not isinstance(raw[field], str):
            raise DocumentError("expected a string", field)
    if raw["kind"] not in KINDS:
        raise DocumentError("unknown kind %r" % raw["kind"], "kind")
    if raw["version"] != VERSION:
        raise DocumentError("unsupported version %r" % raw["version"], "version")
    if not isinstance(raw["body"], dict):
        raise DocumentError("body must be an object", "body")
    return Document(raw["kind"], raw["body"])


def render_document(doc):
    payload = {"kind": doc.kind, "version": VERSION, "body": doc.body}
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


# -- field readers -------------------------------------------------------------


def _expect(body, field, kind, path):
    """The value of a required field of type ``kind`` (a bool is not an int)."""
    if field not in body:
        raise DocumentError("missing field", "%s.%s" % (path, field))
    value = body[field]
    if not isinstance(value, kind) or (type(value) is bool and kind is int):
        raise DocumentError("field has the wrong type (expected %s)" % kind.__name__, "%s.%s" % (path, field))
    return value


def _expect_str_list(body, field, path):
    value = _expect(body, field, list, path)
    for i, item in enumerate(value):
        if not isinstance(item, str):
            raise DocumentError("expected a string", "%s.%s[%d]" % (path, field, i))
    return value


def _expect_str_rows(body, field, path):
    """A list field whose entries are lists of strings."""
    rows = _expect(body, field, list, path)
    for n, row in enumerate(rows):
        if not isinstance(row, list) or not all(isinstance(s, str) for s in row):
            raise DocumentError("expected a list of strings", "%s.%s[%d]" % (path, field, n))
    return rows


def _is_str_triple(row):
    return isinstance(row, list) and len(row) == 3 and all(isinstance(s, str) for s in row)


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


# -- converters: documents -> objects ---------------------------------------


def _parse_payloads(index, texts, path):
    """Parse polynomials over the variables of ``index`` (``poly._name_index``),
    unreduced: every converter hands them to a constructor that reduces
    (``IdealPres`` takes generators as given).  A converter builds the index
    once for all the texts it reads."""
    out = []
    for text in texts:
        try:
            out.append(_read_poly(text, index))
        except PolyParseError as err:
            raise DocumentError("bad polynomial %r: %s" % (text, err), path) from None
    return out


def to_algebra(body, path="body"):
    variables = tuple(_expect_str_list(body, "variables", path))
    for n, name in enumerate(variables):
        if not is_variable_name(name):
            raise DocumentError("bad variable name %r" % name, "%s.variables[%d]" % (path, n))
    _no_repeats(variables, "variable", "%s.variables" % path)
    ideal = _expect_str_list(body, "ideal", path)
    order = _expect(body, "order", str, path) if "order" in body else "grevlex"
    if order not in ("grevlex", "grlex", "lex"):
        raise DocumentError("unknown monomial order %r" % order, "%s.order" % path)
    gens = _parse_payloads(_name_index(variables), ideal, "%s.ideal" % path)
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


def to_algmorphism(body, path="body"):
    source = to_algebra(_expect(body, "source", dict, path), "%s.source" % path)
    target = to_algebra(_expect(body, "target", dict, path), "%s.target" % path)
    images = _expect_str_list(body, "images", path)
    if len(images) != source.arity:
        raise DocumentError("need one image per source variable", "%s.images" % path)
    images = _parse_payloads(_name_index(target.variables), images, "%s.images" % path)
    return AlgMorphism(source, target, images)


def from_algmorphism(m):
    return {
        "source": from_algebra(m.source),
        "target": from_algebra(m.target),
        "images": [m.target.render(q) for q in m.images],
    }


def to_derivation(body, path="body"):
    algebra = to_algebra(_expect(body, "algebra", dict, path), "%s.algebra" % path)
    images = _expect_str_list(body, "images", path)
    if len(images) != algebra.arity:
        raise DocumentError("need one image per variable", "%s.images" % path)
    images = _parse_payloads(_name_index(algebra.variables), images, "%s.images" % path)
    return Derivation(algebra, images)


def from_derivation(d):
    return {
        "algebra": from_algebra(d.algebra),
        "images": [d.algebra.render(q) for q in d.images],
    }


def to_palg(body, path="body"):
    """The pseudoalgebra of a document body, built straight into its sparse table.

    Each anchor row is parsed and reduced as a derivation.  Of a structure
    entry only the texts other than "0" are parsed, all entries first, so a
    bad text anywhere is reported before any entry is reduced; over a
    quotient algebra each parsed coefficient then goes through ``nf``.  A
    coefficient that is zero is left out of its row, and ``PAlg._raw``
    fills the table, negated rows included, once.
    """
    algebra = to_algebra(_expect(body, "algebra", dict, path), "%s.algebra" % path)
    index = _name_index(algebra.variables)
    rank = _expect(body, "rank", int, path)
    rows = _expect_str_rows(body, "anchor", path)
    if len(rows) != rank:
        raise DocumentError("need one anchor row per basis vector", "%s.anchor" % path)
    anchors = []
    for i, row in enumerate(rows):
        where = "%s.anchor[%d]" % (path, i)
        if len(row) != len(index):
            raise DocumentError("need one image per variable", where)
        anchors.append(Derivation(algebra, _parse_payloads(index, row, where)))
    structure = {}
    for n, entry in enumerate(_expect(body, "structure", list, path)):
        where = "%s.structure[%d]" % (path, n)
        if not isinstance(entry, dict):
            raise DocumentError("expected an object", where)
        i = _expect(entry, "i", int, where)
        j = _expect(entry, "j", int, where)
        if not 0 <= i < j < rank:
            raise DocumentError("indices must satisfy 0 <= i < j < rank", where)
        if (i, j) in structure:
            raise DocumentError("repeated pair %r" % ((i, j),), where)
        coeffs = _expect_str_list(entry, "coeffs", where)
        if len(coeffs) != rank:
            raise DocumentError("need one coefficient per basis vector", where)
        ks = [k for k, text in enumerate(coeffs) if text != "0"]
        structure[(i, j)] = list(zip(ks, _parse_payloads(index, [coeffs[k] for k in ks], where)))
    if not algebra.is_free():
        nf = algebra.nf
        structure = {pair: [(k, nf(c)) for k, c in row] for pair, row in structure.items()}
    rows = {pair: [(k, c) for k, c in row if c.terms] for pair, row in structure.items()}
    return PAlg._raw(algebra, rank, anchors, rows)


def from_palg(e):
    structure = []
    for i in range(e.rank):
        for j in range(i + 1, e.rank):
            structure.append(
                {
                    "i": i,
                    "j": j,
                    "coeffs": [e.algebra.render(c) for c in e.struct_coeffs(i, j)],
                }
            )
    return {
        "algebra": from_algebra(e.algebra),
        "rank": e.rank,
        "anchor": [[e.algebra.render(q) for q in d.images] for d in e.anchors],
        "structure": structure,
    }


def _is_plain(body, path):
    """Whether an element body carries 'coords' rather than 'tensor' and 'f_part'."""
    plain = "coords" in body
    if plain == ("tensor" in body or "f_part" in body):
        raise DocumentError("an element carries either 'coords' or both 'tensor' and 'f_part'", path)
    return plain


def to_element(body, palg, path="body"):
    if not _is_plain(body, path):
        raise DocumentError("expected a plain element with 'coords'", path)
    coords = _expect_str_list(body, "coords", path)
    if len(coords) != palg.rank:
        raise DocumentError("need one coordinate per basis vector", "%s.coords" % path)
    return PAElement(palg, _parse_payloads(_name_index(palg.algebra.variables), coords, "%s.coords" % path))


def from_element(x):
    return {"coords": [x.parent.algebra.render(c) for c in x.coords]}


def to_mixed_element(body, ctx, path="body"):
    if _is_plain(body, path):
        raise DocumentError("expected a mixed element with 'tensor' and 'f_part'", path)
    tensor = _expect_str_list(body, "tensor", path)
    f_part = _expect_str_list(body, "f_part", path)
    if len(tensor) != ctx.e.rank:
        raise DocumentError("need one tensor coefficient per E-basis vector", "%s.tensor" % path)
    if len(f_part) != ctx.f.rank:
        raise DocumentError("need one coordinate per F-basis vector", "%s.f_part" % path)
    index = _name_index(ctx.f.algebra.variables)
    tensor = _parse_payloads(index, tensor, "%s.tensor" % path)
    return MixedElement(ctx, tensor, _parse_payloads(index, f_part, "%s.f_part" % path))


def from_mixed_element(z):
    b_alg = z.owner.f.algebra
    return {
        "tensor": [b_alg.render(c) for c in z.tensor],
        "f_part": [b_alg.render(c) for c in z.f_part],
    }


def _psi(body, e, f, path):
    """The algebra map of a (co)morphism body, which must run from E's algebra to F's."""
    psi = to_algmorphism(_expect(body, "psi", dict, path), "%s.psi" % path)
    if psi.source != e.algebra or psi.target != f.algebra:
        raise DocumentError("psi does not connect the supplied pseudoalgebras", "%s.psi" % path)
    return psi


def to_pamorphism(body, e, f, path="body"):
    psi = _psi(body, e, f, path)
    rows = _expect_str_rows(body, "images", path)
    if len(rows) != e.rank:
        raise DocumentError("need one image per source basis vector", "%s.images" % path)
    index = _name_index(f.algebra.variables)
    images = []
    for i, row in enumerate(rows):
        where = "%s.images[%d]" % (path, i)
        if len(row) != f.rank:
            raise DocumentError("need one coordinate per target basis vector", where)
        images.append(PAElement(f, _parse_payloads(index, row, where)))
    return PAMorphism(e, f, psi, images)


def from_pamorphism(m):
    return {
        "psi": from_algmorphism(m.psi),
        "images": [[m.target.algebra.render(c) for c in img.coords] for img in m.images],
    }


def to_pacomorphism(body, e, f, path="body"):
    """Build a comorphism from F to E; the document's psi runs E-side to F-side."""
    psi = _psi(body, e, f, path)
    rows = _expect_str_rows(body, "images", path)
    if len(rows) != f.rank:
        raise DocumentError("need one image row per F-basis vector", "%s.images" % path)
    index = _name_index(f.algebra.variables)
    images = []
    for j, row in enumerate(rows):
        where = "%s.images[%d]" % (path, j)
        if len(row) != e.rank:
            raise DocumentError("need one coefficient per E-basis vector", where)
        images.append(_parse_payloads(index, row, where))
    return PAComorphism(f, e, psi, images)


def from_pacomorphism(m):
    return {
        "psi": from_algmorphism(m.psi),
        "images": [[m.source.algebra.render(c) for c in row] for row in m.images],
    }


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


def to_groupoid(body, path="body"):
    """The groupoid of a document body, which owns its interned tables.

    Each ``comp`` row is placed by arrow index; a row on a pair that is not
    composable is kept as an extra pair, which ``check_groupoid`` reports.
    The groupoid keeps the body's ``src``, ``tgt``, ``inv`` and ``id`` tables.
    """
    objects = _expect_str_list(body, "objects", path)
    _no_repeats(objects, "object", "%s.objects" % path)
    arrows = _expect_str_list(body, "arrows", path)
    _no_repeats(arrows, "arrow", "%s.arrows" % path)
    object_set, arrow_set = set(objects), set(arrows)
    tables = {}
    for field, values, fault in (
        ("src", object_set, "endpoint of %r is not an object"),
        ("tgt", object_set, "endpoint of %r is not an object"),
        ("inv", arrow_set, "inverse of %r is not an arrow"),
    ):
        table = tables[field] = _expect_str_table(body, field, path)
        for key, value in table.items():
            if key not in arrow_set:
                raise DocumentError("unknown arrow %r" % key, "%s.%s" % (path, field))
            if value not in values:
                raise DocumentError(fault % key, "%s.%s[%r]" % (path, field, key))
        if len(table) != len(arrows):
            raise DocumentError("table must cover every arrow exactly", "%s.%s" % (path, field))
    ident = _expect_str_table(body, "id", path)
    for key, value in ident.items():
        if value not in arrow_set:
            raise DocumentError("identity of %r is not an arrow" % key, "%s.id[%r]" % (path, key))
    if set(ident) != object_set:
        raise DocumentError("identity table must cover every object", "%s.id" % path)
    rows = _expect(body, "comp", list, path)

    def fill(g, index, t):
        src, tgt, pos, products, extra = t.src, t.tgt, t.pos, t.rows, t.extra
        for n, row in enumerate(rows):
            try:  # an arrow is a string, so a list of three arrows is a well-formed row
                x, y, xy = row if isinstance(row, list) else ()
                a, b, c = index[x], index[y], index[xy]
            except (KeyError, TypeError, ValueError):
                where = "%s.comp[%d]" % (path, n)
                if not _is_str_triple(row):
                    raise DocumentError("expected [g, h, gh]", where) from None
                raise DocumentError("unknown arrow %r" % next(z for z in row if z not in index), where) from None
            if tgt[a] == src[b]:
                held = products[a]
                if held[pos[b]] is None:
                    held[pos[b]] = c
                    continue
            elif (x, y) not in extra:
                extra[(x, y)] = xy
                continue
            raise DocumentError("repeated pair %r" % ((x, y),), "%s.comp[%d]" % (path, n))

    return _owning(objects, arrows, tables["src"], tables["tgt"], ident, tables["inv"], fill)


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


def to_grpdmap(body, path="body"):
    maptype = _expect(body, "maptype", str, path)
    if maptype not in ("morphism", "comorphism"):
        raise DocumentError("maptype must be 'morphism' or 'comorphism'", "%s.maptype" % path)
    base = dict(_expect_str_table(body, "base", path))
    if maptype == "morphism":
        return GrpdMorphism(base, dict(_expect_str_table(body, "arrows", path)))
    table = {}
    for n, row in enumerate(_expect(body, "table", list, path)):
        if not _is_str_triple(row):
            raise DocumentError("expected [x, w, g]", "%s.table[%d]" % (path, n))
        x, w, g = row
        if (x, w) in table:
            raise DocumentError("repeated pair %r" % ((x, w),), "%s.table[%d]" % (path, n))
        table[(x, w)] = g
    return GrpdComorphism(base, table)


# -- the one writer ----------------------------------------------------------

# Each kind with the classes whose objects it carries and the writer of its
# body; a plain and a mixed element are both of kind "element".
_WRITERS = (
    ("algebra", (AlgebraPres,), from_algebra),
    ("morphism", (AlgMorphism,), from_algmorphism),
    ("derivation", (Derivation,), from_derivation),
    ("palg", (PAlg,), from_palg),
    ("element", (PAElement,), from_element),
    ("element", (MixedElement,), from_mixed_element),
    ("pamorphism", (PAMorphism,), from_pamorphism),
    ("pacomorphism", (PAComorphism,), from_pacomorphism),
    ("groupoid", (FinGroupoid,), from_groupoid),
    ("grpdmap", (GrpdMorphism, GrpdComorphism), from_grpdmap),
)

KINDS = tuple(dict.fromkeys(kind for kind, _, _ in _WRITERS))


def document(x):
    """The document of ``x``, of the kind its class is written as."""
    for kind, classes, write in _WRITERS:
        if isinstance(x, classes):
            return Document(kind, write(x))
    raise TypeError("no document kind carries a %s" % type(x).__name__)
