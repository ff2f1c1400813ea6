"""Command line front end.

Exit codes: 0 = pass, 1 = fail (witness printed), 2 = input error,
3 = resource cap exceeded.  ``--format json`` switches reports to JSON.
The environment variable ``LRA_STEP_CAP`` overrides the default
reduction-step budget of the Groebner engine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import documents as docs
from . import groebner
from .groupoid import (
    FiniteGroup,
    GrpdMorphism,
    check_groupoid,
    check_grpd_comorphism,
    check_grpd_morphism,
    enumerate_maps,
    graph_of_map,
    graph_subgroupoid_check,
    make_action_groupoid,
    make_direct_product,
    make_gauge,
    make_pair,
    make_phi_product,
    restrict_groupoid,
)
from .maps import (
    chain_map_check,
    check_pacomorphism,
    check_pamorphism,
    compose_comorphisms,
    compose_morphisms,
    graph,
    graph_subalgebra_check,
)
from .pseudoalgebra import axioms_check
from .psisum import PsiSumCtx, membership_report, psisum_bracket
from .restriction import RestrictionCtx, in_lower, in_upper, quotient_bracket
from .verdict import VerdictReport, VerificationError


def _emit_report(args, report):
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        print(report.render_text())
    return 0 if report.verdict else 1


def _emit_document(args, doc):
    text = docs.render_document(doc)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load(path, kind):
    doc = docs.load_document(path)
    if doc.kind != kind:
        raise docs.DocumentError("expected a %r document, got %r" % (kind, doc.kind))
    return doc


def _load_palg(path):
    return docs.to_palg(_load(path, "palg").body)


def _load_groupoid(path):
    g = docs.to_groupoid(_load(path, "groupoid").body)
    check_groupoid(g).require("%s is not a groupoid" % path)
    return g


def _load_psictx(e_path, f_path, psi_path):
    e = _load_palg(e_path)
    f = _load_palg(f_path)
    psi = docs.to_algmorphism(_load(psi_path, "morphism").body)
    if psi.source != e.algebra or psi.target != f.algebra:
        raise docs.DocumentError("psi does not connect the two coefficient algebras")
    return PsiSumCtx(e, f, psi)


def _parse_mapping(text, what="mapping"):
    mapping = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise docs.DocumentError("bad %s entry %r (expected key->value)" % (what, chunk))
        key, _, value = chunk.partition("->")
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_items(text):
    return [item.strip() for item in text.split(",") if item.strip()]


def _bracket_pair(elements):
    if len(elements) < 2:
        raise docs.DocumentError("bracket needs two elements, got %d" % len(elements))
    return elements[:2]


def _agreement(direct, via_graph):
    """Both reports side by side, plus the check that their verdicts agree."""
    report = VerdictReport()
    report.merge(direct, prefix="direct: ")
    report.merge(via_graph, prefix="graph: ")
    report.add(
        "direct verifier and graph test agree",
        direct.verdict == via_graph.verdict,
        "the two verdicts disagree",
    )
    return report


# -- handlers ----------------------------------------------------------------


def cmd_check_algebra(args):
    algebra = docs.to_algebra(_load(args.document, "algebra").body)
    report = VerdictReport()
    report.add("presentation is a nonzero algebra", True)
    for g in algebra.ideal.generators:
        report.add(
            "generator %s reduces to zero against the stored basis" % algebra.render(g),
            algebra.nf(g).is_zero(),
            "nonzero normal form",
        )
    return _emit_report(args, report)


def cmd_check_palg(args):
    e = _load_palg(args.document)
    return _emit_report(args, axioms_check(e))


def cmd_check(args):
    if args.what == "algmorphism":
        m = docs.to_algmorphism(_load(args.paths[0], "morphism").body)
        return _emit_report(args, m.check())
    if args.what == "derivation":
        d = docs.to_derivation(_load(args.paths[0], "derivation").body)
        return _emit_report(args, d.check())
    if len(args.paths) != 3:
        raise docs.DocumentError("expected E.palg F.palg MAP.json")
    e = _load_palg(args.paths[0])
    f = _load_palg(args.paths[1])
    if args.what == "morphism":
        m = docs.to_pamorphism(_load(args.paths[2], "pamorphism").body, e, f)
        return _emit_report(args, check_pamorphism(m))
    if args.what == "comorphism":
        m = docs.to_pacomorphism(_load(args.paths[2], "pacomorphism").body, e, f)
        return _emit_report(args, check_pacomorphism(m))
    if args.what == "chainmap":
        m = docs.to_pacomorphism(_load(args.paths[2], "pacomorphism").body, e, f)
        return _emit_report(args, chain_map_check(m))
    raise docs.DocumentError("unknown check %r" % args.what)


def cmd_graph_theorem(args):
    e = _load_palg(args.e)
    f = _load_palg(args.f)
    if args.kind == "morphism":
        m = docs.to_pamorphism(_load(args.map, "pamorphism").body, e, f)
        direct = check_pamorphism(m)
    else:
        m = docs.to_pacomorphism(_load(args.map, "pacomorphism").body, e, f)
        direct = check_pacomorphism(m)
    ctx, gens = graph(m)
    return _emit_report(args, _agreement(direct, graph_subalgebra_check(ctx, gens, args.kind)))


def cmd_compose(args):
    e = _load_palg(args.e)
    f = _load_palg(args.f)
    g = _load_palg(args.g)
    if args.kind == "morphism":
        m1 = docs.to_pamorphism(_load(args.m1, "pamorphism").body, e, f)
        m2 = docs.to_pamorphism(_load(args.m2, "pamorphism").body, f, g)
        return _emit_document(args, docs.pamorphism_document(compose_morphisms(m1, m2)))
    m1 = docs.to_pacomorphism(_load(args.m1, "pacomorphism").body, e, f)
    m2 = docs.to_pacomorphism(_load(args.m2, "pacomorphism").body, f, g)
    return _emit_document(args, docs.pacomorphism_document(compose_comorphisms(m1, m2)))


def cmd_restrict(args):
    e = _load_palg(args.palg)
    gens = [e.algebra.parse(text) for text in args.ideal]
    ctx = RestrictionCtx(e, gens)
    if args.action == "member":
        x = docs.to_element(_load(args.elements[0], "element").body, e)
        report = VerdictReport()
        if args.kind in ("upper", "both"):
            report.add(
                "anchor preserves the ideal (upper membership)",
                in_upper(ctx, x),
                "some generator is carried outside the ideal",
            )
        if args.kind in ("lower", "both"):
            report.add(
                "all coordinates lie in the ideal (lower membership)",
                in_lower(ctx, x),
                "some coordinate has a nonzero residue",
            )
        return _emit_report(args, report)
    x, y = (docs.to_element(_load(path, "element").body, e) for path in _bracket_pair(args.elements))
    value = quotient_bracket(ctx, x, y)
    report = VerdictReport()
    report.add(
        "quotient bracket = (%s)"
        % ", ".join(ctx.quotient_algebra.render(c) for c in value.coords),
        True,
    )
    return _emit_report(args, report)


def cmd_psisum(args):
    ctx = _load_psictx(args.e, args.f, args.psi)
    elements = [
        docs.to_mixed_element(_load(path, "element").body, ctx) for path in args.elements
    ]
    if args.action == "member":
        return _emit_report(args, membership_report(ctx, elements[0]))
    if args.action == "bracket":
        value = psisum_bracket(ctx, *_bracket_pair(elements))
        doc = docs.mixed_element_document(value)
        if getattr(args, "output", None):
            return _emit_document(args, doc)
        report = VerdictReport()
        b_alg = ctx.f.algebra
        report.add(
            "bracket = tensor(%s) + f(%s)"
            % (
                ", ".join(b_alg.render(c) for c in value.tensor),
                ", ".join(b_alg.render(c) for c in value.f_part),
            ),
            True,
        )
        report.merge(membership_report(ctx, value), prefix="closure: ")
        return _emit_report(args, report)
    report = VerdictReport()
    for n, z in enumerate(elements):
        report.fold("element %d is a member" % n, membership_report(ctx, z))
    if report.verdict:
        for n1 in range(len(elements)):
            for n2 in range(n1 + 1, len(elements)):
                w = psisum_bracket(ctx, elements[n1], elements[n2], check=False)
                report.fold(
                    "bracket of elements %d and %d is a member" % (n1, n2),
                    membership_report(ctx, w),
                )
    return _emit_report(args, report)


def _cyclic_action_from_perm(n, objects, perm):
    group = FiniteGroup.cyclic(n)
    step = dict(perm)
    for x in objects:
        if x not in step:
            raise docs.DocumentError("permutation misses %r" % x)
        if step[x] not in objects:
            raise docs.DocumentError("permutation sends %r outside the objects: %r" % (x, step[x]))
    current = {x: x for x in objects}
    act = {}
    for g in range(n):
        for x in objects:
            act[(x, g)] = current[x]
        current = {x: step[current[x]] for x in objects}
    for x in objects:
        if current[x] != x:
            raise docs.DocumentError("the permutation does not have order dividing %d" % n)
    return group, act


def cmd_grpd_build(args):
    if args.what == "pair":
        g = make_pair(_parse_items(args.objects))
    elif args.what == "action":
        objects = _parse_items(args.objects)
        group, act = _cyclic_action_from_perm(
            args.cyclic, objects, _parse_mapping(args.perm, "permutation")
        )
        g = make_action_groupoid(group, objects, act)
    elif args.what == "product":
        g = make_direct_product(_load_groupoid(args.inputs[0]), _load_groupoid(args.inputs[1]))
    elif args.what == "phi-product":
        g = make_phi_product(
            _load_groupoid(args.inputs[0]),
            _load_groupoid(args.inputs[1]),
            _parse_mapping(args.phi, "base map"),
        )
    elif args.what == "restrict":
        g = restrict_groupoid(_load_groupoid(args.inputs[0]), _parse_items(args.objects))
    elif args.what == "gauge":
        total = _parse_items(args.total)
        group, act = _cyclic_action_from_perm(
            args.cyclic, total, _parse_mapping(args.perm, "permutation")
        )
        g = make_gauge(total, _parse_mapping(args.proj, "projection"), group, act)
    else:
        raise docs.DocumentError("unknown construction %r" % args.what)
    return _emit_document(args, docs.groupoid_document(g))


def cmd_grpd_check(args):
    g = docs.to_groupoid(_load(args.document, "groupoid").body)
    return _emit_report(args, check_groupoid(g))


def cmd_grpd_check_map(args):
    gamma = _load_groupoid(args.gamma)
    pi = _load_groupoid(args.pi)
    m = docs.to_grpdmap(_load(args.map, "grpdmap").body)
    if isinstance(m, GrpdMorphism):
        return _emit_report(args, check_grpd_morphism(gamma, pi, m))
    return _emit_report(args, check_grpd_comorphism(gamma, pi, m))


def cmd_grpd_graph_theorem(args):
    gamma = _load_groupoid(args.gamma)
    pi = _load_groupoid(args.pi)
    m = docs.to_grpdmap(_load(args.map, "grpdmap").body)
    if isinstance(m, GrpdMorphism):
        direct = check_grpd_morphism(gamma, pi, m)
    else:
        direct = check_grpd_comorphism(gamma, pi, m)
    via_graph = graph_subgroupoid_check(gamma, pi, m.base, graph_of_map(m))
    return _emit_report(args, _agreement(direct, via_graph))


def cmd_grpd_enumerate(args):
    gamma = _load_groupoid(args.gamma)
    pi = _load_groupoid(args.pi)
    phi = _parse_mapping(args.phi, "base map")
    found = enumerate_maps(gamma, pi, phi, args.kind)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "count": len(found),
                    "maps": [docs.from_grpdmap(m) for m in found],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print("found %d verified %ss" % (len(found), args.kind))
        for m in found:
            print("  %s" % json.dumps(docs.from_grpdmap(m), sort_keys=True))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lra",
        description="Exact constructions and decision procedures for Lie "
        "pseudoalgebras over polynomial quotient rings and for finite groupoids.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-algebra", help="validate an algebra presentation")
    p.add_argument("document")
    p.set_defaults(handler=cmd_check_algebra)

    p = sub.add_parser("check-palg", help="run the pseudoalgebra axiom checks")
    p.add_argument("document")
    p.set_defaults(handler=cmd_check_palg)

    p = sub.add_parser("check", help="verify maps: morphism/comorphism/chainmap/...")
    p.add_argument(
        "what", choices=("morphism", "comorphism", "chainmap", "algmorphism", "derivation")
    )
    p.add_argument("paths", nargs="+")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("graph-theorem", help="compare a direct verifier with the graph test")
    p.add_argument("kind", choices=("morphism", "comorphism"))
    p.add_argument("e")
    p.add_argument("f")
    p.add_argument("map")
    p.set_defaults(handler=cmd_graph_theorem)

    p = sub.add_parser("compose", help="compose two verified maps")
    p.add_argument("kind", choices=("morphism", "comorphism"))
    p.add_argument("e")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("restrict", help="membership and brackets for ideal restrictions")
    p.add_argument("action", choices=("member", "bracket"))
    p.add_argument("palg")
    p.add_argument("elements", nargs="+")
    p.add_argument("--ideal", action="append", required=True, help="ideal generator (repeatable)")
    p.add_argument("--kind", choices=("upper", "lower", "both"), default="both")
    p.set_defaults(handler=cmd_restrict)

    p = sub.add_parser("psisum", help="membership and brackets in a twisted sum")
    p.add_argument("action", choices=("member", "bracket", "closure-suite"))
    p.add_argument("e")
    p.add_argument("f")
    p.add_argument("psi")
    p.add_argument("elements", nargs="+")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_psisum)

    grpd = sub.add_parser("grpd", help="finite groupoid commands")
    gsub = grpd.add_subparsers(dest="grpd_command", required=True)

    p = gsub.add_parser("build", help="construct a groupoid")
    p.add_argument(
        "what", choices=("pair", "action", "product", "phi-product", "gauge", "restrict")
    )
    p.add_argument("inputs", nargs="*", help="input groupoid documents where applicable")
    p.add_argument("--objects", default="", help="comma-separated object labels")
    p.add_argument("--cyclic", type=int, default=1, help="order of the cyclic group")
    p.add_argument("--perm", default="", help="generator permutation, e.g. 'a->b,b->a'")
    p.add_argument("--phi", default="", help="base map, e.g. 'a->x,b->y'")
    p.add_argument("--total", default="", help="total space labels for gauge")
    p.add_argument("--proj", default="", help="projection for gauge, e.g. 'p->m'")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_grpd_build)

    p = gsub.add_parser("check", help="verify all groupoid axioms")
    p.add_argument("document")
    p.set_defaults(handler=cmd_grpd_check)

    p = gsub.add_parser("check-map", help="verify a groupoid morphism or comorphism")
    p.add_argument("gamma")
    p.add_argument("pi")
    p.add_argument("map")
    p.set_defaults(handler=cmd_grpd_check_map)

    p = gsub.add_parser("graph-theorem", help="compare the direct verifier with the graph test")
    p.add_argument("gamma")
    p.add_argument("pi")
    p.add_argument("map")
    p.set_defaults(handler=cmd_grpd_graph_theorem)

    p = gsub.add_parser("enumerate", help="list every map of one kind over a base map (pruned search)")
    p.add_argument("gamma")
    p.add_argument("pi")
    p.add_argument("--phi", required=True)
    p.add_argument("--kind", choices=("morphism", "comorphism"), required=True)
    p.set_defaults(handler=cmd_grpd_enumerate)

    return parser


def main(argv=None):
    previous_cap = groebner.default_step_cap()
    cap = os.environ.get("LRA_STEP_CAP")
    if cap:
        try:
            groebner.set_default_step_cap(int(cap))
        except ValueError:
            print("lra: LRA_STEP_CAP must be an integer", file=sys.stderr)
            return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        code = err.code
        groebner.set_default_step_cap(previous_cap)
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except groebner.ResourceCapExceeded as err:
        print("lra: resource cap: %s" % err, file=sys.stderr)
        return 3
    except VerificationError as err:
        print("lra: fail: %s" % err, file=sys.stderr)
        if err.report is not None:
            print(err.report.render_text(), file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print("lra: input error: %s" % err, file=sys.stderr)
        return 2
    finally:
        groebner.set_default_step_cap(previous_cap)


if __name__ == "__main__":
    sys.exit(main())
