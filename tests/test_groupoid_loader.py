"""``documents.to_groupoid`` against the label-keyed loader of ``tests/conftest.py``.

The loader places each product row straight into the interned tables that
the groupoid owns.  On corpus groupoids, relabelled copies and documents
with one fault of every kind, it must raise the reference's
``DocumentError`` text or give a groupoid whose interned tables are those
``RefTables`` reads from the reference's, whose ``check_groupoid`` report
is the reference's, and whose derived ``comp`` is the reference's product
table.  The map search and the isomorphism search answer alike on loaded
and constructor-built groupoids.
"""

import json

from hypothesis import given, settings, strategies as st

from conftest import RefTables, groupoid_corpus, ref_to_groupoid, shuffled_copy
from lra import documents as docs
from lra.budget import ResourceCapExceeded, step_budget
from lra.groupoid import (
    _tables,
    check_groupoid,
    cyclic_group,
    enumerate_maps,
    find_isomorphism,
    make_direct_product,
    make_pair,
)


def _groupoids():
    """The corpus with a few larger groupoids: a pair groupoid on three objects, Z/4, Z/2 x pair2."""
    corpus = groupoid_corpus()
    return list(corpus.values()) + [
        make_pair(["a", "b", "c"]),
        cyclic_group(4),
        make_direct_product(cyclic_group(2), corpus["pair2"]),
    ]


GROUPOIDS = _groupoids()


def _body(g):
    """A fresh copy of the document body of g, as ``load_document`` would hand it over."""
    return json.loads(docs.render_document(docs.document(g)))["body"]


def _composable(body, composable):
    """Pairs [g, h] of the body's arrows that are (or are not) composable."""
    return [
        [g, h]
        for g in body["arrows"]
        for h in body["arrows"]
        if (body["tgt"][g] == body["src"][h]) == composable
    ]


def _with_fault(body, rng, kind):
    """``body`` with one fault of the given kind, or unchanged when the groupoid has no place for it."""
    comp, arrows, objects = body["comp"], body["arrows"], body["objects"]
    n = rng.randrange(len(comp))
    if kind == "missing product":
        del comp[n]
    elif kind == "extra pair" and _composable(body, False):
        comp.append(rng.choice(_composable(body, False)) + [rng.choice(arrows)])
    elif kind == "repeated composable pair":
        comp.insert(rng.randrange(len(comp) + 1), comp[n][:2] + [rng.choice(arrows)])
    elif kind == "repeated extra pair" and _composable(body, False):
        row = rng.choice(_composable(body, False)) + [rng.choice(arrows)]
        comp[rng.randrange(len(comp)):0] = [row, row[:2] + [rng.choice(arrows)]]
    elif kind == "product of another arrow":
        comp[n][2] = rng.choice(arrows)
    elif kind == "unknown arrow":
        comp[n][rng.randrange(3)] = "zz"
    elif kind == "non-string entry":
        comp[n][rng.randrange(3)] = rng.choice([0, None, [], {}])
    elif kind == "malformed row":
        comp[n] = rng.choice([comp[n][:2], comp[n] + [comp[n][0]], "".join(comp[n]), {}, 7])
    elif kind in ("src", "tgt", "inv", "id"):
        table = body[kind]
        key = rng.choice(sorted(table))
        values = objects if kind in ("src", "tgt") else arrows
        roll = rng.random()
        if roll < 0.25:
            del table[key]
        elif roll < 0.4:
            table["zz"] = rng.choice(values)
        elif roll < 0.55:
            table[key] = "zz"
        elif roll < 0.65:
            table[key] = 0
        else:
            table[key] = rng.choice(values)
    elif kind == "labels":
        field = rng.choice(["objects", "arrows"])
        labels = body[field]
        labels.insert(rng.randrange(len(labels) + 1), rng.choice(labels + [0]))
    return body


FAULTS = (
    None, "missing product", "extra pair", "repeated composable pair", "repeated extra pair",
    "product of another arrow", "unknown arrow", "non-string entry", "malformed row",
    "src", "tgt", "inv", "id", "labels",
)


def _load(convert, body):
    """(error text, None) or (None, groupoid) of ``convert`` on a copy of body."""
    try:
        return None, convert(json.loads(json.dumps(body)))
    except docs.DocumentError as err:
        return str(err), None


def _report(g):
    return [(c.name, c.passed, c.witness) for c in check_groupoid(g).checks]


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(FAULTS))
def test_the_loader_agrees_with_the_label_keyed_reference(rng, fault):
    g = rng.choice(GROUPOIDS)
    if rng.random() < 0.5:
        g = shuffled_copy(g, rng)
    body = _body(g)
    if fault is not None:
        body = _with_fault(body, rng, fault)
    error, loaded = _load(docs.to_groupoid, body)
    ref_error, ref = _load(ref_to_groupoid, body)
    assert error == ref_error
    if loaded is None:
        return
    assert _report(loaded) == _report(ref)
    assert loaded.comp == ref.comp
    t, r = _tables(loaded), RefTables(ref)  # a loaded document's label tables are total
    assert (t.src, t.tgt, t.ident, t.inv, t.leaving, t.pos, t.rows) == (
        r.src, r.tgt, r.ident, r.inv, r.leaving, r.pos, r.rows
    )
    composable = {(ref.arrows[a], ref.arrows[b]) for a, x in enumerate(r.tgt) for b in r.leaving[x]}
    assert t.extra == {p: c for p, c in ref.comp.items() if p not in composable}


def test_every_fault_kind_is_reached():
    """Each fault kind gives a DocumentError or a failing report on pair groupoid documents."""
    import random

    rng = random.Random(3)
    seen = set()
    for fault in FAULTS[1:]:
        for _ in range(60):
            body = _with_fault(_body(make_pair(["a", "b", "c"])), rng, fault)
            error, loaded = _load(docs.to_groupoid, body)
            seen.add((fault, "error" if error else "pass" if check_groupoid(loaded).verdict else "fail"))
    assert {fault for fault, outcome in seen if outcome != "pass"} == set(FAULTS[1:])


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_searches_answer_alike_on_loaded_and_constructed_groupoids(rng):
    """``enumerate_maps`` and ``find_isomorphism`` on loaded groupoids and on equal ones built by the constructor."""
    gamma, pi = (shuffled_copy(rng.choice(GROUPOIDS), rng) for _ in range(2))
    loaded = [docs.to_groupoid(_body(g)) for g in (gamma, pi)]
    built = [ref_to_groupoid(_body(g)) for g in (gamma, pi)]
    assert loaded == built
    for g in loaded:
        assert check_groupoid(g).verdict
    phi = {x: rng.choice(loaded[1].objects) for x in loaded[0].objects}
    for kind in ("morphism", "comorphism"):
        answers = []
        for g1, g2 in (loaded, built):
            try:
                with step_budget(10**4):
                    answers.append(enumerate_maps(g1, g2, phi, kind))
            except ResourceCapExceeded:
                answers.append("cap")
        assert answers[0] == answers[1]
    relabelled = _body(shuffled_copy(gamma, rng))
    found = find_isomorphism(loaded[0], docs.to_groupoid(relabelled))
    assert found is not None and found == find_isomorphism(built[0], ref_to_groupoid(relabelled))
    assert find_isomorphism(loaded[0], loaded[1]) == find_isomorphism(built[0], built[1])
