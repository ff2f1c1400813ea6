import contextlib
import io
import json
import os
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import algebras, sl2, sl2_action_images
from lra import documents as docs
from lra.algebra import AlgebraPres, AlgMorphism
from lra.cli import COMMANDS, UsageError, _check_variant, _report_json, build_parser, main
from lra.groebner import IdealPres
from lra.maps import PAComorphism, PAMorphism
from lra.poly import MPoly
from lra.pseudoalgebra import make_action, make_der
from lra.psisum import MixedElement, PsiSumCtx
from lra.verdict import VerdictReport

DATA = {path.stem: path for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.json"))}


@pytest.fixture()
def workspace(tmp_path):
    alg = algebras()
    qx, qy, quv = alg["x"], alg["y"], alg["uv"]
    x = qx.variable(0)
    y = qy.variable(0)
    dx, dy, duv = make_der(qx), make_der(qy), make_der(quv)

    paths = {}

    def put(name, doc):
        path = tmp_path / name
        docs.save_document(doc, path)
        paths[name] = str(path)

    put("qx.json", docs.document(qx))
    put("dx.json", docs.document(dx))
    put("dy.json", docs.document(dy))
    put("duv.json", docs.document(duv))
    put("act.json", docs.document(make_action(qx, sl2(), sl2_action_images(qx))))

    psi_curve = AlgMorphism(quv, qx, [x, x ** 2])
    put("psi_curve.json", docs.document(psi_curve))
    co = PAComorphism(dx, duv, psi_curve, [[qx.one(), 2 * x]])
    put("co.json", docs.document(co))
    mut = PAComorphism(dx, duv, psi_curve, [[qx.one(), 3 * x]])
    put("mut.json", docs.document(mut))

    relabel = PAMorphism(dx, dy, AlgMorphism(qx, qy, [y]), [dy.basis(0)])
    put("relabel.json", docs.document(relabel))

    psi_square = AlgMorphism(qx, qy, [y ** 2])
    put("psi_square.json", docs.document(psi_square))
    ctx = PsiSumCtx(dx, dy, psi_square)
    put("member.json", docs.document(MixedElement(ctx, [2 * y], [qy.one()])))
    put(
        "member2.json",
        docs.document(MixedElement(ctx, [2 * y ** 3], [y ** 2])),
    )
    put("nonmember.json", docs.document(MixedElement(ctx, [qy.one()], [qy.one()])))

    put("elem_x.json", docs.document(dx.basis(0).scale(x)))
    put("elem_d.json", docs.document(dx.basis(0)))
    return tmp_path, paths


def test_check_comorphism_exit_codes(workspace, capsys):
    _, p = workspace
    assert main(["check", "comorphism", p["duv.json"], p["dx.json"], p["co.json"]]) == 0
    assert main(["check", "comorphism", p["duv.json"], p["dx.json"], p["mut.json"]]) == 1
    out = capsys.readouterr().out
    assert "3*x" in out  # witness printed
    assert main(["check", "comorphism", p["duv.json"], p["dx.json"], "missing.json"]) == 2


def test_algebra_map_of_a_high_power(tmp_path, capsys):
    """x |-> y maps (x^1500) into (y^2); the power is far past the recursion limit."""
    source = AlgebraPres(("x",), IdealPres(1, [MPoly.variable(1, 0) ** 1500]))
    target = AlgebraPres(("y",), IdealPres(1, [MPoly.variable(1, 0) ** 2]))
    path = tmp_path / "high_power.json"
    docs.save_document(docs.document(AlgMorphism(source, target, [target.variable(0)])), path)
    assert main(["check", "algmorphism", str(path)]) == 0
    assert "x^1500" in capsys.readouterr().out


def test_coefficients_of_any_length(tmp_path, capsys):
    """Integers past CPython's 4,300-digit str limit parse and print."""
    source = docs.Document("morphism", {
        "source": {"variables": ["x"], "ideal": ["x^4400"], "order": "grevlex"},
        "target": {"variables": ["y"], "ideal": [], "order": "grevlex"},
        "images": ["10*y"],
    })
    path = tmp_path / "long_witness.json"
    docs.save_document(source, path)
    assert main(["check", "algmorphism", str(path)]) == 1
    assert "normal form of the image is 1%s*y^4400" % ("0" * 4400) in capsys.readouterr().out
    long = "7" * 4999 + "1"
    algebra = tmp_path / "long_coefficient.json"
    docs.save_document(docs.Document("algebra", {"variables": ["x"], "ideal": ["x^2 - %s/3" % long]}), algebra)
    assert main(["check-algebra", str(algebra)]) == 0
    assert "[x^2 - %s/3]" % long in capsys.readouterr().out


def test_algebra_map_powers_reduce_in_the_target(tmp_path, monkeypatch, capsys):
    """x^2000 into Q[y]/(y^2) along x -> y + 1: the powers are reduced as
    they grow, so the witness comes quickly and a cap of one step stops the
    command at its second reduction."""
    path = tmp_path / "power.json"
    docs.save_document(docs.Document("morphism", {
        "source": {"variables": ["x"], "ideal": ["x^2000"], "order": "grevlex"},
        "target": {"variables": ["y"], "ideal": ["y^2"], "order": "grevlex"},
        "images": ["y + 1"],
    }), path)
    assert main(["check", "algmorphism", str(path)]) == 1
    assert "-- normal form of the image is 2000*y + 1\n" in capsys.readouterr().out
    monkeypatch.setenv("LRA_STEP_CAP", "1")
    assert main(["check", "algmorphism", str(path)]) == 3
    assert "step cap of 1 exhausted" in capsys.readouterr().err


def test_algebra_map_of_a_hundred_digit_power(tmp_path, capsys):
    """x^(10^100) into Q[y]/(y^2) along x -> y + 1: the walk to the power
    squares, so it takes a few hundred steps, not 10^100."""
    n = 10 ** 100
    path = tmp_path / "power.json"
    docs.save_document(docs.Document("morphism", {
        "source": {"variables": ["x"], "ideal": ["x^%d" % n], "order": "grevlex"},
        "target": {"variables": ["y"], "ideal": ["y^2"], "order": "grevlex"},
        "images": ["y + 1"],
    }), path)
    assert main(["check", "algmorphism", str(path)]) == 1
    assert "-- normal form of the image is %d*y + 1\n" % n in capsys.readouterr().out


def test_internal_errors_exit_four(monkeypatch, capsys):
    """An exception that is neither an input error, a failed precondition nor
    the step cap is a bug: exit 4 with its traceback, never exit 1 or 2."""
    from lra import cli

    def boom(g):
        raise KeyError("internal bug")

    monkeypatch.setattr(cli, "check_groupoid", boom)
    assert main(["grpd", "check", str(DATA["groupoid_pair2"])]) == 4
    err = capsys.readouterr().err
    assert err.startswith("lra: internal error: KeyError: 'internal bug'\nTraceback (most recent call last):\n")
    assert err.endswith("KeyError: 'internal bug'\n")


def test_plain_value_errors_in_a_verifier_exit_four(workspace, monkeypatch, capsys):
    """Only a document, polynomial, file or command-line value is an input
    error; a plain ValueError raised while verifying valid input is a bug."""
    from lra import cli

    def boom(m):
        raise ValueError("internal bug")

    _, p = workspace
    monkeypatch.setattr(cli, "check_pacomorphism", boom)
    assert main(["check", "comorphism", p["duv.json"], p["dx.json"], p["co.json"]]) == 4
    err = capsys.readouterr().err
    assert err.startswith("lra: internal error: ValueError: internal bug\nTraceback (most recent call last):\n")


def test_long_exponents_and_json_integers_are_located_input_errors(tmp_path, capsys):
    """An exponent or a JSON integer literal past the 4,300-digit limit exits 2
    with the place of the bad value."""
    algebra = tmp_path / "long_exponent.json"
    docs.save_document(docs.Document("algebra", {"variables": ["x", "y"], "ideal": ["y + x^" + "1" * 5000]}), algebra)
    assert main(["check-algebra", str(algebra)]) == 2
    assert capsys.readouterr().err.endswith("': exponent too large (line 1, column 7) (at body.ideal)\n")
    body = docs.from_palg(make_der(algebras()["x"]))
    for rank in ("1" * 5000, "-" + "7" * 5000):
        palg = tmp_path / "long_rank.json"
        palg.write_text(json.dumps({"kind": "palg", "version": "1", "body": dict(body, rank=0)}).replace(
            '"rank": 0', '"rank": ' + rank))
        assert main(["check-palg", str(palg)]) == 2
        assert capsys.readouterr().err == "lra: input error: need one anchor row per basis vector (at body.anchor)\n"


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["check-algebra", str(path)]) == 2
    assert capsys.readouterr().err == "lra: input error: document nests too deeply\n"


def test_check_other_kinds(workspace):
    _, p = workspace
    assert main(["check-algebra", p["qx.json"]]) == 0
    assert main(["check-palg", p["act.json"]]) == 0
    assert main(["check", "morphism", p["dx.json"], p["dy.json"], p["relabel.json"]]) == 0
    assert main(["check", "chainmap", p["duv.json"], p["dx.json"], p["co.json"]]) == 0
    assert main(["check", "algmorphism", p["psi_curve.json"]]) == 0


def test_graph_theorem_command(workspace):
    _, p = workspace
    assert main(["graph-theorem", "comorphism", p["duv.json"], p["dx.json"], p["co.json"]]) == 0
    assert main(["graph-theorem", "comorphism", p["duv.json"], p["dx.json"], p["mut.json"]]) == 1


def test_compose_command(workspace, tmp_path):
    _, p = workspace
    out = tmp_path / "composite.json"
    code = main(
        [
            "compose", "morphism",
            p["dx.json"], p["dy.json"], p["dy.json"],
            p["relabel.json"], _identity_morphism_doc(tmp_path),
            "-o", str(out),
        ]
    )
    assert code == 0
    doc = docs.load_document(out)
    assert doc.kind == "pamorphism"


def _identity_morphism_doc(tmp_path):
    qy = AlgebraPres.free("y")
    dy = make_der(qy)
    path = tmp_path / "id_dy.json"
    docs.save_document(docs.document(PAMorphism.identity(dy)), path)
    return str(path)


def test_restrict_commands(workspace):
    _, p = workspace
    assert main(["restrict", "member", p["dx.json"], p["elem_x.json"], "--ideal", "x"]) == 0
    assert (
        main(
            ["restrict", "member", p["dx.json"], p["elem_d.json"], "--ideal", "x", "--kind", "upper"]
        )
        == 1
    )
    assert main(["restrict", "bracket", p["dx.json"], p["elem_x.json"], p["elem_x.json"], "--ideal", "x"]) == 0
    # improper ideal is a verification failure, not a crash
    assert main(["restrict", "member", p["dx.json"], p["elem_x.json"], "--ideal", "1"]) == 1


def test_psisum_commands(workspace, capsys):
    _, p = workspace
    base = ["psisum", "member", p["dx.json"], p["dy.json"], p["psi_square.json"]]
    assert main(base + [p["member.json"]]) == 0
    assert main(base + [p["nonmember.json"]]) == 1
    assert (
        main(
            [
                "psisum", "bracket",
                p["dx.json"], p["dy.json"], p["psi_square.json"],
                p["member.json"], p["member2.json"],
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                "psisum", "closure-suite",
                p["dx.json"], p["dy.json"], p["psi_square.json"],
                p["member.json"], p["member2.json"],
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "bracket of elements 0 and 1 is a member" in out


def test_json_format(workspace, capsys):
    _, p = workspace
    assert main(["--format", "json", "check-palg", p["dx.json"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["checks"]


@pytest.mark.parametrize("checks", [
    [],
    [("anchor on e_0", True, "")],
    [("caf\u00e9 \u2202x", False, 'quote " and backslash \\ and tab \t'), ("\x00\x1f\n", True, "")],
    [("long", False, "w" * 20000), ("empty witness", False, ""), ("\u2028 \ud83d\ude00", True, "")],
])
@pytest.mark.parametrize("timing_ms", [0.0, 0.001, 2.5, 12345.678, 1e-07, 1e16])
def test_report_json_matches_the_generic_encoder(checks, timing_ms):
    report = VerdictReport()
    for name, passed, witness in checks:
        report.add(name, passed, witness)
    report.timing_ms = timing_ms
    assert _report_json(report) == json.dumps(report.to_json_dict(), sort_keys=True, indent=2)


def test_grpd_commands(tmp_path, capsys):
    pair_path = tmp_path / "pair.json"
    assert main(["grpd", "build", "pair", "--objects", "a,b", "-o", str(pair_path)]) == 0
    assert main(["grpd", "check", str(pair_path)]) == 0

    az2 = tmp_path / "az2.json"
    assert (
        main(
            [
                "grpd", "build", "action",
                "--cyclic", "2", "--objects", "1,2", "--perm", "1->2,2->1",
                "-o", str(az2),
            ]
        )
        == 0
    )
    assert main(["grpd", "check", str(az2)]) == 0

    phi_path = tmp_path / "phi.json"
    assert (
        main(
            [
                "grpd", "build", "phi-product", str(pair_path), str(pair_path),
                "--phi", "a->a,b->b", "-o", str(phi_path),
            ]
        )
        == 0
    )
    assert main(["grpd", "check", str(phi_path)]) == 0

    gauge_path = tmp_path / "gauge.json"
    assert (
        main(
            [
                "grpd", "build", "gauge",
                "--cyclic", "2",
                "--total", "p,q,r,s",
                "--proj", "p->1,q->1,r->2,s->2",
                "--perm", "p->q,q->p,r->s,s->r",
                "-o", str(gauge_path),
            ]
        )
        == 0
    )
    doc = docs.load_document(gauge_path)
    assert len(doc.body["arrows"]) == 8

    product_path = tmp_path / "product.json"
    assert main(["grpd", "build", "product", str(pair_path), str(az2), "-o", str(product_path)]) == 0
    assert main(["grpd", "check", str(product_path)]) == 0

    restricted_path = tmp_path / "restricted.json"
    assert (
        main(
            [
                "grpd", "build", "restrict", str(pair_path),
                "--objects", "a", "-o", str(restricted_path),
            ]
        )
        == 0
    )
    assert len(docs.load_document(restricted_path).body["arrows"]) == 1

    capsys.readouterr()
    assert (
        main(
            [
                "grpd", "enumerate", str(pair_path), str(pair_path),
                "--phi", "a->a,b->b", "--kind", "morphism",
            ]
        )
        == 0
    )
    assert "found 1 verified" in capsys.readouterr().out


def test_grpd_map_commands(tmp_path):
    from lra.groupoid import GrpdMorphism, make_pair

    p2 = make_pair(["1", "2"])
    pxy = make_pair(["x", "y"])
    phi = {"1": "x", "2": "y"}
    functor = GrpdMorphism(phi, {(a, b): (phi[a], phi[b]) for (a, b) in p2.arrows})

    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    mp = tmp_path / "map.json"
    docs.save_document(docs.document(p2), g1)
    docs.save_document(docs.document(pxy), g2)
    docs.save_document(docs.document(functor), mp)
    assert main(["grpd", "check-map", str(g1), str(g2), str(mp)]) == 0
    assert main(["grpd", "graph-theorem", str(g1), str(g2), str(mp)]) == 0

    broken = GrpdMorphism(phi, {**functor.arrows, ("1", "2"): ("x", "x")})
    docs.save_document(docs.document(broken), mp)
    assert main(["grpd", "check-map", str(g1), str(g2), str(mp)]) == 1


@pytest.mark.parametrize(
    "field, key, value, failing",
    [
        ("comp", (("a", "b"), ("b", "a")), ("b", "b"), "products have the right endpoints"),
        ("ident", "a", ("b", "b"), "identity arrows are loops at their objects"),
    ],
)
def test_grpd_check_reports_broken_tables(tmp_path, capsys, field, key, value, failing):
    from lra.groupoid import make_pair

    g = make_pair(["a", "b"])
    getattr(g, field)[key] = value
    path = tmp_path / "broken.json"
    docs.save_document(docs.document(g), path)
    assert main(["--format", "json", "grpd", "check", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks[-1] == {"name": failing, "status": "fail", "witness": checks[-1]["witness"]}
    assert [c["name"] for c in checks if c["status"] == "fail"] == [failing]


@pytest.mark.parametrize(
    "field, fault",
    [
        ("src", "endpoint of \"('a', 'b')\" is not an object"),
        ("tgt", "endpoint of \"('a', 'b')\" is not an object"),
        ("inv", "inverse of \"('a', 'b')\" is not an arrow"),
    ],
)
def test_grpd_tables_name_the_bad_value(tmp_path, capsys, field, fault):
    """A dangling endpoint or inverse exits 2 at the table and key that hold it."""
    raw = json.loads(DATA["groupoid_pair2"].read_text(encoding="utf-8"))
    raw["body"][field]["('a', 'b')"] = "zz"
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["grpd", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "lra: input error: %s (at body.%s[\"('a', 'b')\"])\n" % (fault, field)
    assert captured.out == ""


def test_resource_cap_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("LRA_STEP_CAP", "2")
    body = {
        "variables": ["x", "y"],
        "ideal": ["x^3 + y", "x*y + 1", "y^2 - x"],
        "order": "grevlex",
    }
    path = tmp_path / "alg.json"
    docs.save_document(docs.Document("algebra", body), path)
    assert main(["check-algebra", str(path)]) == 3


def test_step_cap_bounds_the_whole_command(tmp_path, monkeypatch, capsys):
    """check-algebra spends Buchberger at load and one normal form per generator from one budget.

    Counted here: each Buchberger run and each normal form fits under the
    total minus one, so only a budget for the whole command can run out.
    """
    from lra import budget, groebner

    body = {"variables": ["x", "y"], "ideal": ["x^3 + y", "x*y + 1", "y^2 - x"], "order": "grevlex"}
    path = tmp_path / "alg.json"
    docs.save_document(docs.Document("algebra", body), path)
    units, opened = [], []

    def counted(fn):
        def wrapper(*args):
            steps = budget.budget()
            before = steps.left
            try:
                return fn(*args)
            finally:
                units.append(before - steps.left)

        return wrapper

    @contextlib.contextmanager
    def spy(cap, open_budget=budget.step_budget):
        with open_budget(cap) as steps:
            opened.append(steps)
            yield steps

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "buchberger", counted(groebner.buchberger))
        patch.setattr(groebner.IdealPres, "normal_form", counted(groebner.IdealPres.normal_form))
        patch.setattr(budget, "step_budget", spy)
        assert main(["check-algebra", str(path)]) == 0
    (steps,) = opened
    total = steps.cap - steps.left
    assert sum(units) == total and 0 < max(units) < total
    capsys.readouterr()
    monkeypatch.setenv("LRA_STEP_CAP", str(total))
    assert main(["check-algebra", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("LRA_STEP_CAP", str(total - 1))
    assert main(["check-algebra", str(path)]) == 3
    assert capsys.readouterr().err.startswith("lra: resource cap: step cap of %d exhausted in " % (total - 1))


def test_step_cap_bounds_the_map_search(monkeypatch, capsys):
    pair = str(DATA["groupoid_pair2"])
    argv = ["grpd", "enumerate", pair, pair, "--phi", "a->a,b->b", "--kind", "morphism"]
    monkeypatch.setenv("LRA_STEP_CAP", "2")
    assert main(argv) == 3
    assert capsys.readouterr().err == "lra: resource cap: step cap of 2 exhausted in the map search\n"
    monkeypatch.delenv("LRA_STEP_CAP")
    assert main(argv) == 0


def test_step_budget_closes_with_the_command(workspace, tmp_path, monkeypatch):
    """The command's budget is open while it runs and gone after any exit or exception."""
    from lra import budget, cli

    _, p = workspace
    alg = tmp_path / "alg.json"
    body = {"variables": ["x", "y"], "ideal": ["x^3 + y", "x*y + 1", "y^2 - x"], "order": "grevlex"}
    docs.save_document(docs.Document("algebra", body), alg)
    monkeypatch.setenv("LRA_STEP_CAP", "5")
    for argv, code in (
        (["grpd", "check", str(DATA["groupoid_pair2"])], 0),
        (["check", "comorphism", p["duv.json"], p["dx.json"], p["mut.json"]], 1),
        (["check-algebra", str(tmp_path / "missing.json")], 2),
        (["check-algebra", str(alg)], 3),
    ):
        assert main(argv) == code
        assert budget.default_step_cap() == budget.DEFAULT_STEP_CAP
    seen = []

    def boom(g):
        seen.append(budget.default_step_cap())
        raise RuntimeError("internal bug")

    monkeypatch.setattr(cli, "check_groupoid", boom)
    assert main(["grpd", "check", str(DATA["groupoid_pair2"])]) == 4
    assert seen == [5]
    assert budget.default_step_cap() == budget.DEFAULT_STEP_CAP


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_step_cap_below_one_exits_two(monkeypatch, capsys, cap):
    monkeypatch.setenv("LRA_STEP_CAP", cap)
    assert main(["check-algebra", str(DATA["algebra_line"])]) == 2
    assert capsys.readouterr().err == "lra: LRA_STEP_CAP must be at least 1, got %s\n" % cap


def test_step_cap_that_is_not_an_integer_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("LRA_STEP_CAP", "abc")
    assert main(["check-algebra", str(DATA["algebra_line"])]) == 2
    assert capsys.readouterr().err == "lra: LRA_STEP_CAP must be an integer\n"


def test_bad_inputs_exit_two(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["check-algebra", str(path)]) == 2
    bad_poly = tmp_path / "badpoly.json"
    docs.save_document(
        docs.Document("algebra", {"variables": ["x"], "ideal": ["2*x^"]}), bad_poly
    )
    assert main(["check-algebra", str(bad_poly)]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [["check-palg", "x"], ["--format=json", "grpd", "check", "x"]])
def test_parser_for_one_command_prints_the_full_usage(capsys, argv):
    usage = build_parser().format_usage()
    assert build_parser(argv).format_usage() == usage
    assert main(["--format", "yaml"] + argv) == 2
    assert capsys.readouterr().err.startswith(usage)


def test_compose_comorphism_command(workspace, tmp_path):
    _, p = workspace
    qw = AlgebraPres.free("w")
    dw = make_der(qw)
    qx = AlgebraPres.free("x")
    relabel = PAComorphism(
        dw,
        make_der(qx),
        AlgMorphism(qx, qw, [qw.variable(0)]),
        [[qw.one()]],
    )
    dw_path = tmp_path / "dw.json"
    relabel_path = tmp_path / "relabel_co.json"
    out = tmp_path / "chained.json"
    docs.save_document(docs.document(dw), dw_path)
    docs.save_document(docs.document(relabel), relabel_path)
    code = main(
        [
            "compose", "comorphism",
            p["duv.json"], p["dx.json"], str(dw_path),
            p["co.json"], str(relabel_path),
            "-o", str(out),
        ]
    )
    assert code == 0
    doc = docs.load_document(out)
    assert doc.kind == "pacomorphism"
    assert doc.body["psi"]["images"] == ["w", "w^2"]
    assert doc.body["images"] == [["1", "2*w"]]


def test_check_palg_failure_exits_one(tmp_path):
    body = {
        "algebra": {"variables": [], "ideal": [], "order": "grevlex"},
        "rank": 3,
        "anchor": [[], [], []],
        "structure": [
            {"i": 0, "j": 1, "coeffs": ["0", "2", "0"]},
            {"i": 0, "j": 2, "coeffs": ["0", "0", "-2"]},
            {"i": 1, "j": 2, "coeffs": ["0", "1", "0"]},
        ],
    }
    path = tmp_path / "broken.json"
    docs.save_document(docs.Document("palg", body), path)
    assert main(["check-palg", str(path)]) == 1


@pytest.mark.parametrize(
    "edit, location",
    [
        (lambda body: body.update(rank=True), "body.rank"),
        (lambda body: body["structure"][0].update(i=False, j=True), "body.structure[0].i"),
    ],
    ids=["rank", "indices"],
)
def test_booleans_are_not_integers(tmp_path, capsys, edit, location):
    """JSON true and false are not integers, though Python's bool is an int."""
    raw = json.loads(DATA["palg_sl2_action"].read_text(encoding="utf-8"))
    edit(raw["body"])
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["check-palg", str(path)]) == 2
    message = "field has the wrong type (expected int) (at %s)" % location
    assert capsys.readouterr().err == "lra: input error: %s\n" % message


def _pair_without_product(tmp_path):
    """make_pair(["a", "b"]) with the product of (a, b) and (b, a) deleted."""
    from lra.groupoid import make_pair

    g = make_pair(["a", "b"])
    del g.comp[(("a", "b"), ("b", "a"))]
    broken = tmp_path / "broken.json"
    docs.save_document(docs.document(g), broken)
    good = tmp_path / "good.json"
    docs.save_document(docs.document(make_pair(["a", "b"])), good)
    return str(broken), str(good)


def _identity_map_doc(tmp_path, base):
    from lra.groupoid import GrpdMorphism, make_pair

    path = tmp_path / "map.json"
    arrows = {a: a for a in make_pair(["a", "b"]).arrows}
    docs.save_document(docs.document(GrpdMorphism(base, arrows)), path)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-map", "{broken}", "{good}", "{map}"],
        ["graph-theorem", "{good}", "{broken}", "{map}"],
        ["enumerate", "{broken}", "{good}", "--phi", "a->a,b->b", "--kind", "morphism"],
        ["build", "product", "{good}", "{broken}"],
        ["build", "phi-product", "{broken}", "{good}", "--phi", "a->a,b->b"],
        ["build", "restrict", "{broken}", "--objects", "a"],
    ],
)
def test_grpd_commands_reject_broken_groupoids(tmp_path, capsys, argv):
    broken, good = _pair_without_product(tmp_path)
    identity = _identity_map_doc(tmp_path, {"a": "a", "b": "b"})
    paths = {"broken": broken, "good": good, "map": identity}
    assert main(["grpd"] + [arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert "%s is not a groupoid" % broken in err
    assert "[FAIL] product defined exactly on composable pairs" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["enumerate", "{g}", "{g}", "--phi", "a->a", "--kind", "morphism"],
            "phi is not defined at 'b'",
        ),
        (["build", "phi-product", "{g}", "{g}", "--phi", "a->a"], "phi is not defined at 'b'"),
        (
            ["enumerate", "{g}", "{g}", "--phi", "a->zz,b->a", "--kind", "comorphism"],
            "phi does not land in the other base",
        ),
        # 'b' is missing and 'zz' extra: the objects are scanned first
        (
            ["enumerate", "{g}", "{g}", "--phi", "a->a,zz->a", "--kind", "morphism"],
            "phi is not defined at 'b'",
        ),
        (["build", "phi-product", "{g}", "{g}", "--phi", "a->a,zz->a"], "phi is not defined at 'b'"),
    ],
)
def test_grpd_commands_reject_bad_base_maps(tmp_path, capsys, argv, message):
    _, good = _pair_without_product(tmp_path)
    assert main(["grpd"] + [arg.format(g=good) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "lra: input error: %s" % message in err
    if "a->zz,b->a" in argv:
        assert "'a' -> 'zz'" in err


def _base_with_extra_key_doc(tmp_path, kind):
    """The identity map of make_pair(["a", "b"]) whose base also sends zz to a."""
    from lra.groupoid import GrpdComorphism, GrpdMorphism, make_pair

    g = make_pair(["a", "b"])
    base = {"a": "a", "b": "b", "zz": "a"}
    if kind == "morphism":
        m = GrpdMorphism(base, {a: a for a in g.arrows})
    else:
        m = GrpdComorphism(base, {(g.src[w], w): w for w in g.arrows})
    path = tmp_path / ("extra-%s.json" % kind)
    docs.save_document(docs.document(m), path)
    return str(path)


def _assert_map_fails_both_sides(capsys, good, path, failing):
    """check-map fails with ``failing``, and so do both sides of graph-theorem, which agree."""
    assert main(["grpd", "check-map", good, good, path]) == 1
    assert "[FAIL] %s" % failing in capsys.readouterr().out
    assert main(["grpd", "graph-theorem", good, good, path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] direct: %s" % failing in out
    assert "[FAIL] graph: %s" % failing in out
    assert "[ok  ] direct verifier and graph test agree" in out


@pytest.mark.parametrize("kind", ["morphism", "comorphism"])
def test_grpd_base_map_keys_outside_gamma_fail(tmp_path, capsys, kind):
    _, good = _pair_without_product(tmp_path)
    path = _base_with_extra_key_doc(tmp_path, kind)
    failing = "base map is defined only on objects of gamma -- extra objects: ['zz']"
    _assert_map_fails_both_sides(capsys, good, path, failing)


def test_grpd_partial_base_map_fails_both_sides(tmp_path, capsys):
    _, good = _pair_without_product(tmp_path)
    for base in ({"a": "a"}, {"a": "a", "zz": "a"}):  # the missing 'b' is named before the extra 'zz'
        partial = _identity_map_doc(tmp_path, base)
        _assert_map_fails_both_sides(capsys, good, partial, "base map is total at 'b' -- missing or dangling")


@pytest.mark.parametrize("kind", ["morphism", "comorphism"])
def test_grpd_enumerate_rejects_base_map_keys_outside_gamma(tmp_path, capsys, kind):
    _, good = _pair_without_product(tmp_path)
    argv = ["grpd", "enumerate", good, good, "--phi", "a->a,b->b,zz->a", "--kind", kind]
    assert main(argv) == 2
    assert capsys.readouterr().err == "lra: input error: phi is defined at 'zz', which is not an object\n"


def test_grpd_witnesses_do_not_depend_on_hash_seed(tmp_path):
    """Failing witnesses list arrows in table order, not in set order."""
    import os
    import subprocess
    import sys

    from lra.groupoid import GrpdMorphism, cyclic_group, make_action_groupoid

    z3 = cyclic_group(3)
    objects = ["o1", "o2", "o3"]
    bundle = make_action_groupoid(z3, objects, {(x, g): x for x in objects for g in range(3)})
    point = make_action_groupoid(z3, ["t"], {("t", g): "t" for g in range(3)})
    mutant = {(x, g): ("t", g) for x in objects for g in range(3)}
    mutant[("o2", 0)] = ("t", 1)
    broken = make_action_groupoid(z3, objects, {(x, g): x for x in objects for g in range(3)})
    broken.comp[(("o3", 1), ("o3", 1))] = ("o3", 0)
    paths = {}
    for name, doc in (
        ("bundle", docs.document(bundle)),
        ("point", docs.document(point)),
        ("mutant", docs.document(GrpdMorphism({x: "t" for x in objects}, mutant))),
        ("broken", docs.document(broken)),
    ):
        paths[name] = str(tmp_path / (name + ".json"))
        docs.save_document(doc, paths[name])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    for argv in (
        ["grpd", "graph-theorem", paths["bundle"], paths["point"], paths["mutant"]],
        ["grpd", "check", paths["broken"]],
    ):
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-m", "lra", "--format", "json"] + argv,
                env=env, capture_output=True, text=True, check=False,
            )
            assert run.returncode == 1, run.stderr
            payload = json.loads(run.stdout)
            payload.pop("timing_ms")
            outputs.append(payload)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (
            ["psisum", "bracket", "{dx}", "{dy}", "{psi_square}", "{member}"],
            "bracket needs two elements, got 1",
        ),
        (
            ["restrict", "bracket", "{dx}", "{elem_x}", "--ideal", "x"],
            "bracket needs two elements, got 1",
        ),
        (
            ["grpd", "build", "action", "--cyclic", "2", "--objects", "a,b", "--perm", "a->zz,b->a"],
            "permutation sends 'a' outside the objects: 'zz'",
        ),
        (
            ["grpd", "build", "action", "--cyclic", "0", "--objects", "a", "--perm", "a->a"],
            "a cyclic group needs a positive order, got 0",
        ),
        (
            [
                "grpd", "build", "gauge", "--cyclic", "2",
                "--total", "p,q", "--proj", "p->1", "--perm", "p->q,q->p",
            ],
            "projection is not defined at 'q'",
        ),
        (["grpd", "build", "product", "{groupoid_pair2}"], "product needs two inputs, got 1"),
        (["grpd", "build", "restrict", "--objects", "a"], "restrict needs one input, got 0"),
        (
            ["grpd", "build", "pair", "{groupoid_pair2}", "--objects", "a,b"],
            "pair needs no inputs, got 1",
        ),
        (["check", "algmorphism", "{psi_curve}", "{psi_curve}"], "algmorphism needs one path, got 2"),
        (["check", "derivation", "{derivation_euler}", "extra"], "derivation needs one path, got 2"),
        (["check", "morphism", "{dx}", "{dy}"], "morphism needs three paths, got 2"),
        (
            ["restrict", "member", "{dx}", "{elem_x}", "{elem_d}", "--ideal", "x"],
            "member needs one element, got 2",
        ),
        (
            ["psisum", "bracket", "{dx}", "{dy}", "{psi_square}", "{member}", "{member}", "{member}"],
            "bracket needs two elements, got 3",
        ),
        (
            [
                "grpd", "build", "action", "--cyclic", "2",
                "--objects", "a,b", "--perm", "a->b,b->a,zz->a",
            ],
            "permutation moves 'zz', which is not an object",
        ),
        (
            [
                "grpd", "build", "pair", "--objects", "a",
                "--phi", "zz", "--cyclic", "-3", "--proj", "junk",
            ],
            "pair takes no --cyclic",
        ),
        (["grpd", "build", "pair", "--objects", "a", "--phi", "zz"], "pair takes no --phi"),
        (["grpd", "build", "gauge", "--objects", "a"], "gauge takes no --objects"),
        (
            ["grpd", "build", "product", "{groupoid_pair2}", "{groupoid_swap}", "--perm", "a->b"],
            "product takes no --perm",
        ),
        (
            ["restrict", "bracket", "{dx}", "{elem_x}", "{elem_x}", "--ideal", "x", "--kind", "lower"],
            "bracket takes no --kind",
        ),
        (
            ["psisum", "member", "{dx}", "{dy}", "{psi_square}", "{member}", "-o", "out.json"],
            "member takes no --output",
        ),
        (
            [
                "grpd", "enumerate", "{groupoid_pair2}", "{groupoid_pair2}",
                "--phi", "a->a,b->b,a->b", "--kind", "morphism",
            ],
            "repeated key 'a' in the base map",
        ),
        (
            [
                "grpd", "build", "phi-product", "{groupoid_pair2}", "{groupoid_pair2}",
                "--phi", "a->a,b->b,b->b",
            ],
            "repeated key 'b' in the base map",
        ),
        (
            ["grpd", "build", "action", "--cyclic", "2", "--objects", "a,b", "--perm", "a->b,b->a, a -> a"],
            "repeated key 'a' in the permutation",
        ),
        (
            [
                "grpd", "build", "gauge", "--cyclic", "2", "--total", "p,q",
                "--proj", "p->1,q->1,p->2", "--perm", "p->q,q->p",
            ],
            "repeated key 'p' in the projection",
        ),
        (["grpd", "build", "pair", "--objects", "a,b,a"], "repeated label 'a' in --objects"),
        (
            ["grpd", "build", "action", "--cyclic", "2", "--objects", "a, a", "--perm", "a->a"],
            "repeated label 'a' in --objects",
        ),
        (
            ["grpd", "build", "restrict", "{groupoid_pair2}", "--objects", "b,a,b"],
            "repeated label 'b' in --objects",
        ),
        (
            ["grpd", "build", "gauge", "--cyclic", "1", "--total", "p,p", "--proj", "p->1", "--perm", "p->p"],
            "repeated label 'p' in --total",
        ),
        (
            [
                "grpd", "enumerate", "{groupoid_pair2}", "{groupoid_pair2}",
                "--phi", "a:a", "--kind", "morphism",
            ],
            "bad base map entry 'a:a' (expected key->value)",
        ),
        (
            ["grpd", "build", "action", "--cyclic", "2", "--objects", "a,b", "--perm", "a->b"],
            "permutation misses 'b'",
        ),
        (
            ["grpd", "build", "restrict", "{groupoid_pair2}", "--objects", "zz"],
            "'zz' is not an object of the groupoid",
        ),
        (
            [
                "grpd", "build", "gauge", "--cyclic", "2", "--total", "p,q",
                "--proj", "p->m,q->m,zz->n", "--perm", "p->q,q->p",
            ],
            "projection is defined at 'zz', which is not a point of the total space",
        ),
    ],
)
def test_malformed_command_lines_exit_two(workspace, capsys, argv, culprit):
    _, p = workspace
    paths = {name[: -len(".json")]: path for name, path in p.items()}
    paths.update(DATA)
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "lra: input error: %s\n" % culprit
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["grpd", "build", "pair", "--objects", "a", "--phi", "zz"], True),
        (["grpd", "build", "restrict", "{groupoid_pair2}", "--objects", "a,a"], True),
        (["grpd", "check", "{bad}"], False),
    ],
)
def test_bad_flags_and_bad_documents_differ_by_type(tmp_path, argv, usage):
    """A bad command-line value raises ``UsageError``; a bad document a plain ``DocumentError``."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "groupoid", "version": "1", "body": {"objects": []}}')
    argv = [arg.format(bad=bad, **DATA) for arg in argv]
    args = build_parser(argv).parse_args(argv)
    with pytest.raises(docs.DocumentError) as err:
        _check_variant(args)
        args.entry.handler(args)
    assert isinstance(err.value, UsageError) == usage
    assert main(argv) == 2


@pytest.mark.parametrize(
    "command, source, edit, message",
    [
        (
            ["restrict", "member", "{dx}", "{bad}", "--ideal", "x"],
            "member", None,
            "expected a plain element with 'coords' (at body)",
        ),
        (
            ["restrict", "member", "{dx}", "{bad}", "--ideal", "x"],
            "elem_x", {"coords": ["x", "1"]},
            "need one coordinate per basis vector (at body.coords)",
        ),
        (
            ["psisum", "member", "{dx}", "{dy}", "{psi_square}", "{bad}"],
            "elem_x", None,
            "expected a mixed element with 'tensor' and 'f_part' (at body)",
        ),
        (
            ["psisum", "member", "{dx}", "{dy}", "{psi_square}", "{bad}"],
            "member", {"tensor": []},
            "need one tensor coefficient per E-basis vector (at body.tensor)",
        ),
        (
            ["psisum", "member", "{dx}", "{dy}", "{psi_square}", "{bad}"],
            "member", {"f_part": ["1", "y"]},
            "need one coordinate per F-basis vector (at body.f_part)",
        ),
        (
            ["check", "morphism", "{dx}", "{dy}", "{bad}"],
            "relabel", {"images": [["1", "y"]]},
            "need one coordinate per target basis vector (at body.images[0])",
        ),
        (
            ["check", "morphism", "{dy}", "{dx}", "{bad}"],
            "relabel", None,
            "psi does not connect the supplied pseudoalgebras (at body.psi)",
        ),
        (
            ["check", "comorphism", "{duv}", "{dx}", "{bad}"],
            "co", {"images": [["1", "2*x", "0"]]},
            "need one coefficient per E-basis vector (at body.images[0])",
        ),
        (
            ["check", "comorphism", "{duv}", "{dx}", "{bad}"],
            "co", {"images": [["1", "2*x"], ["0", "1"]]},
            "need one image row per F-basis vector (at body.images)",
        ),
        (
            ["check-algebra", "{bad}"],
            "qx", {"variables": ["x y"]},
            "bad variable name 'x y' (at body.variables[0])",
        ),
        (
            ["check-palg", "{bad}"],
            "dx", {"algebra": {"variables": ["2z"], "ideal": []}},
            "bad variable name '2z' (at body.algebra.variables[0])",
        ),
        (
            ["check", "algmorphism", "{bad}"],
            "psi_curve", {"source": {"variables": ["u", "v\u00e9"], "ideal": []}},
            "bad variable name 'v\u00e9' (at body.source.variables[1])",
        ),
        (
            ["check", "algmorphism", "{bad}"],
            "psi_curve", {"target": {"variables": ["x", ""], "ideal": []}},
            "bad variable name '' (at body.target.variables[1])",
        ),
        (
            ["check", "algmorphism", "{bad}"],
            "psi_curve", {"images": ["x"]},
            "need one image per source variable (at body.images)",
        ),
        (
            ["check", "derivation", "{bad}"],
            "derivation_euler", {"images": []},
            "need one image per variable (at body.images)",
        ),
        (
            ["check-palg", "{bad}"],
            "act", {"structure": [{"i": 0, "j": 1, "coeffs": ["0"]}]},
            "need one coefficient per basis vector (at body.structure[0])",
        ),
        (
            ["check-palg", "{bad}"],
            "dx", {"structure": [0]},
            "expected an object (at body.structure[0])",
        ),
        (
            ["check", "morphism", "{dx}", "{dy}", "{bad}"],
            "relabel", {"images": []},
            "need one image per source basis vector (at body.images)",
        ),
        (
            ["restrict", "member", "{dx}", "{bad}", "--ideal", "x"],
            "elem_x", {"tensor": ["1"]},
            "an element carries either 'coords' or both 'tensor' and 'f_part' (at body)",
        ),
    ],
)
def test_loaders_name_the_bad_field(workspace, capsys, command, source, edit, message):
    """A document that does not fit its schema, or the pseudoalgebras it is read
    against, exits 2 at its field; ``source`` names a workspace or data document."""
    tmp_path, p = workspace
    paths = {name[: -len(".json")]: path for name, path in p.items()}
    doc = docs.load_document(paths.get(source) or DATA[source])
    doc.body.update(edit or {})
    bad = tmp_path / "bad.json"
    docs.save_document(doc, bad)
    assert main([arg.format(bad=bad, **paths) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.err == "lra: input error: %s\n" % message
    assert captured.out == ""


def test_arrow_map_with_an_extra_arrow_fails_both_tests(tmp_path, capsys):
    """An arrow-map key outside gamma fails the direct verifier as it fails the graph test."""
    from lra.groupoid import GrpdMorphism, make_pair

    pair = make_pair(["a", "b"])
    g, mp = tmp_path / "pair.json", tmp_path / "map.json"
    docs.save_document(docs.document(pair), g)
    extra = GrpdMorphism({"a": "a", "b": "b"}, {**{w: w for w in pair.arrows}, "zz": ("a", "a")})
    docs.save_document(docs.document(extra), mp)
    assert main(["--format", "json", "grpd", "check-map", str(g), str(g), str(mp)]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        {
            "name": "arrow map is defined only on arrows of gamma",
            "status": "fail",
            "witness": "extra arrows: ['zz']",
        }
    ]
    assert main(["--format", "json", "grpd", "graph-theorem", str(g), str(g), str(mp)]) == 1
    status = {c["name"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert status["direct verifier and graph test agree"] == "pass"
    assert status["graph: graph lies inside the phi-product"] == "fail"


# -- robustness: command lines from the table and mutated corpus documents ----

# Markers for JSON integer literals longer than CPython's 4,300-digit
# conversion limit, which ``json.dumps`` cannot write; ``_json_text`` puts the
# literals in place of the quoted markers.
LONG_INTEGERS = {"\0long": "1" * 5000, "\0negative-long": "-" + "7" * 5000}
JUNK = (
    [], {}, 0, None, "zz", "x^", -1, 3, "x", "1/2", "x^2 + 1", "palg", "algebra", ["x", "y"], [["1"]],
    *LONG_INTEGERS, "9" * 5000 + "*x", "x^" + "1" * 5000, "y^" + "1" * 5000 + " + 1",
)
DELETE = object()
OPTION_VALUES = (
    "", "x", "zz", "x^", "1", "a,b", "1,2", "p,q", "1->2,2->1", "a->b,b->a", "p->q,q->p",
    "1->a,2->b", "a->a,b->b", "a->1,b->2", "p->1,q->1", "zz->a",
)


def _run(argv):
    """Exit code of ``main(argv)``, with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(arg) for arg in argv])


@st.composite
def command_lines(draw):
    """A command line of some table entry, with 0 to required + 1 corpus documents."""
    entry = draw(st.sampled_from(COMMANDS))
    argv = list(entry.words)
    positionals = [(flags[0], o) for flags, o in entry.arguments if not flags[0].startswith("-")]
    needed = 0
    if "choices" in positionals[0][1]:
        choices = positionals.pop(0)[1]["choices"]
        argv.append(draw(st.sampled_from(list(choices))))
        if isinstance(choices, dict):
            needed = 2 if choices[argv[-1]] is None else choices[argv[-1]]
    needed += sum(1 for _, o in positionals if "nargs" not in o)
    argv += draw(st.lists(st.sampled_from(sorted(DATA.values())), max_size=needed + 1))
    for flags, o in entry.arguments:
        if not flags[0].startswith("-") or not draw(st.booleans()):
            continue
        if flags[-1] == "--output":
            value = os.devnull
        elif "choices" in o:
            value = draw(st.sampled_from(o["choices"]))
        elif o.get("type") is int:
            value = draw(st.integers(-1, 4))
        else:
            value = draw(st.sampled_from(OPTION_VALUES))
        argv += [flags[-1], value]
    return argv


@settings(derandomize=True, max_examples=300, deadline=None)
@given(command_lines())
def test_command_lines_from_the_table_never_crash(argv):
    assert _run(argv) in (0, 1, 2, 3)


CORPUS_COMMANDS = (
    ["check-algebra", "algebra_truncated"],
    ["check", "derivation", "derivation_euler"],
    ["check", "algmorphism", "morphism_curve"],
    ["check-palg", "palg_sl2_action"],
    ["check", "morphism", "palg_der_line", "palg_der_line", "pamorphism_line_identity"],
    ["graph-theorem", "comorphism", "palg_der_plane", "palg_der_line", "pacomorphism_curve"],
    ["restrict", "bracket", "palg_sl2_action", "element_sl2", "element_sl2", "--ideal", "x"],
    [
        "psisum", "closure-suite", "palg_der_plane", "palg_der_line", "morphism_curve",
        "element_curve", "element_curve",
    ],
    ["grpd", "check", "groupoid_pair2"],
    ["grpd", "graph-theorem", "groupoid_swap", "groupoid_pair2", "grpdmap_swap_pair2_morphism"],
    ["grpd", "check-map", "groupoid_swap", "groupoid_pair2", "grpdmap_swap_pair2_comorphism"],
    ["grpd", "enumerate", "groupoid_swap", "groupoid_pair2", "--phi", "1->a,2->b", "--kind", "morphism"],
    ["grpd", "build", "phi-product", "groupoid_pair2", "groupoid_swap", "--phi", "a->1,b->2"],
)


def _with_corpus(argv):
    return [DATA.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("argv", CORPUS_COMMANDS)
def test_corpus_commands_pass(argv):
    """Every command line the mutation test starts from passes on the unmutated corpus."""
    assert _run(_with_corpus(argv)) == 0


def _nodes(value, path=()):
    """Every path below the root of a JSON value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _json_text(doc):
    text = json.dumps(doc)
    for marker, literal in LONG_INTEGERS.items():
        text = text.replace(json.dumps(marker), literal)
    return text


@st.composite
def mutants(draw):
    """A corpus command line, and one of its documents with one or two values
    replaced or deleted."""
    argv = draw(st.sampled_from(CORPUS_COMMANDS))
    slot = draw(st.sampled_from([n for n, arg in enumerate(argv) if arg in DATA]))
    doc = json.loads(DATA[argv[slot]].read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        if not nodes:
            break
        # a field of the body first, then a node in it: short tables such as a
        # groupoid's `id` are hit as often as its long `comp` list
        field = draw(st.sampled_from(list(dict.fromkeys(path[:2] for path in nodes))))
        path = draw(st.sampled_from([p for p in nodes if p[:2] == field]))
        junk = draw(st.sampled_from(JUNK + (DELETE,)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if junk is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(junk))
    return argv, slot, _json_text(doc)


LOCATION = re.compile(r"\(at [^)]*\)|\(line \d+, column \d+\)")


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mutants())
def test_mutated_documents_never_crash(tmp_path_factory, case):
    """The exit-code contract on mutated documents: no exception escapes
    ``main``, the exit code is 0, 1, 2 or 3, and an input error names its
    location in a document or the documents that disagree."""
    argv, slot, text = case
    path = tmp_path_factory.getbasetemp() / "mutant.json"
    path.write_text(text, encoding="utf-8")
    argv = [str(arg) for arg in _with_corpus(argv)]
    argv[slot] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        message = err.getvalue()
        named = sum(1 for arg in set(argv) if arg.endswith(".json") and arg in message)
        assert LOCATION.search(message) or named >= 2, message
