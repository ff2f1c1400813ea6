"""Command line front end.

Exit codes: 0 = pass, 1 = fail (witness printed), 2 = input error (a
document, polynomial, file or command-line value; a bad command-line
value raises ``UsageError``, a ``DocumentError``), 3 = resource cap
exceeded, 4 = internal error (any other exception, a plain ``ValueError``
included, with its traceback).  ``--format json`` switches reports to JSON.
Each command runs under one step budget: reduction steps, S-pairs and
partial maps of the groupoid search all spend from it.  The environment
variable ``LRA_STEP_CAP`` sets its size (default ``DEFAULT_STEP_CAP``).

Every command is declared once, in ``COMMANDS``: its words, help text,
argparse arguments and handler.  ``build_parser`` adds only the entry
the command line names (all of them for help and for unknown commands).
Where a command takes a variable number of documents, its first
positional's choices give the count for each variant, and an option read
by only some variants lists them; ``main`` rejects any other count, and
such an option set for another variant, with exit 2 before a document is
read.
"""

import argparse
import json
import os
import sys
from collections import namedtuple

from . import budget
from . import documents as docs
from .groupoid import (
    GrpdMorphism,
    _check_base_map,
    check_groupoid,
    check_grpd_comorphism,
    check_grpd_morphism,
    cyclic_group,
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
from .poly import PolyParseError
from .pseudoalgebra import axioms_check
from .psisum import PsiSumCtx, membership_report, psisum_bracket
from .restriction import RestrictionCtx, in_lower, in_upper, quotient_bracket
from .verdict import VerdictReport, VerificationError


_CHECK_JSON = '    {\n      "name": %s,\n      "status": %s,\n      "witness": %s\n    }'


def _report_json(report):
    """``json.dumps(report.to_json_dict(), sort_keys=True, indent=2)``, written
    out for the fixed shape of a report.  With ``indent`` set, ``json.dumps``
    runs the pure-Python encoder; here each leaf goes through ``json.dumps``
    alone, which takes the C encoder, and the text is the same."""
    d = report.to_json_dict()
    dumps = json.dumps
    checks = ",\n".join(
        _CHECK_JSON % (dumps(c["name"]), dumps(c["status"]), dumps(c["witness"])) for c in d["checks"]
    )
    return '{\n  "checks": %s,\n  "timing_ms": %s,\n  "verdict": %s\n}' % (
        "[\n%s\n  ]" % checks if checks else "[]",
        dumps(d["timing_ms"]),
        dumps(d["verdict"]),
    )


def _emit_report(args, report):
    if args.format == "json":
        print(_report_json(report))
    else:
        print(report.render_text())
    return 0 if report.verdict else 1


def _emit_document(args, value):
    text = docs.render_document(docs.document(value))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load(path, kind):
    doc = docs.load_document(path)
    if doc.kind != kind:
        raise docs.DocumentError("expected a %r document, got %r" % (kind, doc.kind), "kind")
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
        raise docs.DocumentError(
            "psi in %s does not connect the coefficient algebras of %s and %s" % (psi_path, e_path, f_path)
        )
    return PsiSumCtx(e, f, psi)


class UsageError(docs.DocumentError):
    """A bad command-line value: exits 2 like a bad document, and is told apart by type."""


def _parse_mapping(text, what):
    mapping = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise UsageError("bad %s entry %r (expected key->value)" % (what, chunk))
        key, _, value = (part.strip() for part in chunk.partition("->"))
        if key in mapping:
            raise UsageError("repeated key %r in the %s" % (key, what))
        mapping[key] = value
    return mapping


def _parse_items(text, option):
    items = [item.strip() for item in text.split(",") if item.strip()]
    seen = set()
    for item in items:
        if item in seen:
            raise UsageError("repeated label %r in %s" % (item, option))
        seen.add(item)
    return items


def _from_flags(build, *values):
    """``build(*values)`` on command-line values: its plain ``ValueError`` is an input error."""
    try:
        return build(*values)
    except VerificationError:
        raise
    except ValueError as err:
        raise UsageError(str(err)) from None


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
    basis = ", ".join(algebra.render(g) for g in algebra.ideal.groebner)
    report.add("reduced %s basis: [%s]" % (algebra.ideal.order, basis), True)
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


def _load_map(kind, path, e, f):
    if kind == "morphism":
        return docs.to_pamorphism(_load(path, "pamorphism").body, e, f)
    return docs.to_pacomorphism(_load(path, "pacomorphism").body, e, f)


def _direct(kind, m):
    return check_pamorphism(m) if kind == "morphism" else check_pacomorphism(m)


def cmd_check(args):
    if args.what == "algmorphism":
        m = docs.to_algmorphism(_load(args.paths[0], "morphism").body)
        return _emit_report(args, m.check())
    if args.what == "derivation":
        d = docs.to_derivation(_load(args.paths[0], "derivation").body)
        return _emit_report(args, d.check())
    e = _load_palg(args.paths[0])
    f = _load_palg(args.paths[1])
    if args.what == "chainmap":
        return _emit_report(args, chain_map_check(_load_map("comorphism", args.paths[2], e, f)))
    return _emit_report(args, _direct(args.what, _load_map(args.what, args.paths[2], e, f)))


def cmd_graph_theorem(args):
    e = _load_palg(args.e)
    f = _load_palg(args.f)
    m = _load_map(args.kind, args.map, e, f)
    direct = _direct(args.kind, m)
    ctx, gens = graph(m)
    return _emit_report(args, _agreement(direct, graph_subalgebra_check(ctx, gens, args.kind)))


def cmd_compose(args):
    e = _load_palg(args.e)
    f = _load_palg(args.f)
    g = _load_palg(args.g)
    m1 = _load_map(args.kind, args.m1, e, f)
    m2 = _load_map(args.kind, args.m2, f, g)
    compose = compose_morphisms if args.kind == "morphism" else compose_comorphisms
    return _emit_document(args, compose(m1, m2))


def cmd_restrict(args):
    e = _load_palg(args.palg)
    gens = [e.algebra.parse(text) for text in args.ideal]
    ctx = RestrictionCtx(e, gens)
    elements = [docs.to_element(_load(path, "element").body, e) for path in args.elements]
    if args.action == "member":
        (x,) = elements
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
    value = quotient_bracket(ctx, *elements)
    report = VerdictReport()
    report.add("quotient bracket = %s" % value.render(), True)
    return _emit_report(args, report)


def cmd_psisum(args):
    ctx = _load_psictx(args.e, args.f, args.psi)
    elements = [
        docs.to_mixed_element(_load(path, "element").body, ctx) for path in args.elements
    ]
    if args.action == "member":
        return _emit_report(args, membership_report(ctx, elements[0]))
    if args.action == "bracket":
        value = psisum_bracket(ctx, *elements)
        if args.output:
            return _emit_document(args, value)
        report = VerdictReport()
        report.add("bracket = %s" % value.render(), True)
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


def _cyclic_action(args, objects):
    """The cyclic group of order ``--cyclic`` acting on ``objects`` through ``--perm``."""
    step = _parse_mapping(args.perm, "permutation")
    group = _from_flags(cyclic_group, args.cyclic)
    for x in objects:
        if x not in step:
            raise UsageError("permutation misses %r" % x)
        if step[x] not in objects:
            raise UsageError("permutation sends %r outside the objects: %r" % (x, step[x]))
    for x in step:
        if x not in objects:
            raise UsageError("permutation moves %r, which is not an object" % x)
    current = {x: x for x in objects}
    act = {}
    for g in group.arrows:
        for x in objects:
            act[(x, g)] = current[x]
        current = {x: step[current[x]] for x in objects}
    for x in objects:
        if current[x] != x:
            raise UsageError("the permutation does not have order dividing %d" % args.cyclic)
    return group, act


def cmd_grpd_build(args):
    inputs = [_load_groupoid(path) for path in args.inputs]
    if args.what == "pair":
        g = make_pair(_parse_items(args.objects, "--objects"))
    elif args.what == "product":
        g = make_direct_product(*inputs)
    elif args.what == "phi-product":
        g = _from_flags(make_phi_product, *inputs, _parse_mapping(args.phi, "base map"))
    elif args.what == "restrict":
        g = _from_flags(restrict_groupoid, *inputs, _parse_items(args.objects, "--objects"))
    elif args.what == "action":
        objects = _parse_items(args.objects, "--objects")
        group, act = _cyclic_action(args, objects)
        g = make_action_groupoid(group, objects, act)
    else:
        total = _parse_items(args.total, "--total")
        group, act = _cyclic_action(args, total)
        g = _from_flags(make_gauge, total, _parse_mapping(args.proj, "projection"), group, act)
    return _emit_document(args, g)


def cmd_grpd_check(args):
    g = docs.to_groupoid(_load(args.document, "groupoid").body)
    return _emit_report(args, check_groupoid(g))


def _grpd_direct(args):
    """The two groupoids and the map of a grpd map command, with the direct verdict."""
    gamma = _load_groupoid(args.gamma)
    pi = _load_groupoid(args.pi)
    m = docs.to_grpdmap(_load(args.map, "grpdmap").body)
    check = check_grpd_morphism if isinstance(m, GrpdMorphism) else check_grpd_comorphism
    return gamma, pi, m, check(gamma, pi, m)


def cmd_grpd_check_map(args):
    return _emit_report(args, _grpd_direct(args)[3])


def cmd_grpd_graph_theorem(args):
    gamma, pi, m, direct = _grpd_direct(args)
    via_graph = graph_subgroupoid_check(gamma, pi, m.base, graph_of_map(m))
    return _emit_report(args, _agreement(direct, via_graph))


def cmd_grpd_enumerate(args):
    gamma = _load_groupoid(args.gamma)
    pi = _load_groupoid(args.pi)
    phi = _parse_mapping(args.phi, "base map")
    _from_flags(_check_base_map, gamma, pi, phi)
    found = enumerate_maps(gamma, pi, phi, args.kind)
    if args.format == "json":
        payload = {"count": len(found), "maps": [docs.from_grpdmap(m) for m in found]}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("found %d verified %ss" % (len(found), args.kind))
        for m in found:
            print("  %s" % json.dumps(docs.from_grpdmap(m), sort_keys=True))
    return 0


# -- command table -----------------------------------------------------------


def _arg(*flags, **options):
    return flags, options


Command = namedtuple("Command", "words help handler arguments")
Command.__doc__ = """One command: its words, help text, handler and argparse arguments.

A command with a variadic positional (``nargs`` "+" or "*") gives its
first positional a dict as ``choices``: each variant maps to the number
of paths the variadic positional takes, or None for any number.  An
option of such a command that only some variants read names them in
``variants``.
"""


GROUP_HELP = {"grpd": "finite groupoid commands"}
MAP_KINDS = ("morphism", "comorphism")

COMMANDS = (
    Command(("check-algebra",), "validate an algebra presentation", cmd_check_algebra,
            (_arg("document"),)),
    Command(("check-palg",), "run the pseudoalgebra axiom checks", cmd_check_palg,
            (_arg("document"),)),
    Command(("check",), "verify maps: morphism/comorphism/chainmap/...", cmd_check, (
        _arg("what", choices={"morphism": 3, "comorphism": 3, "chainmap": 3,
                              "algmorphism": 1, "derivation": 1}),
        _arg("paths", nargs="+"),
    )),
    Command(("graph-theorem",), "compare a direct verifier with the graph test", cmd_graph_theorem,
            (_arg("kind", choices=MAP_KINDS), _arg("e"), _arg("f"), _arg("map"))),
    Command(("compose",), "compose two verified maps", cmd_compose, (
        _arg("kind", choices=MAP_KINDS),
        _arg("e"), _arg("f"), _arg("g"), _arg("m1"), _arg("m2"), _arg("-o", "--output"),
    )),
    Command(("restrict",), "membership and brackets for ideal restrictions", cmd_restrict, (
        _arg("action", choices={"member": 1, "bracket": 2}),
        _arg("palg"),
        _arg("elements", nargs="+"),
        _arg("--ideal", action="append", required=True, help="ideal generator (repeatable)"),
        _arg("--kind", choices=("upper", "lower", "both"), default="both", variants=("member",)),
    )),
    Command(("psisum",), "membership and brackets in a twisted sum", cmd_psisum, (
        _arg("action", choices={"member": 1, "bracket": 2, "closure-suite": None}),
        _arg("e"), _arg("f"), _arg("psi"), _arg("elements", nargs="+"),
        _arg("-o", "--output", variants=("bracket",)),
    )),
    Command(("grpd", "build"), "construct a groupoid", cmd_grpd_build, (
        _arg("what", choices={"pair": 0, "action": 0, "product": 2, "phi-product": 2,
                              "gauge": 0, "restrict": 1}),
        _arg("inputs", nargs="*", help="input groupoid documents where applicable"),
        _arg("--objects", default="", help="comma-separated object labels",
             variants=("pair", "action", "restrict")),
        _arg("--cyclic", type=int, default=1, help="order of the cyclic group",
             variants=("action", "gauge")),
        _arg("--perm", default="", help="generator permutation, e.g. 'a->b,b->a'",
             variants=("action", "gauge")),
        _arg("--phi", default="", help="base map, e.g. 'a->x,b->y'", variants=("phi-product",)),
        _arg("--total", default="", help="total space labels for gauge", variants=("gauge",)),
        _arg("--proj", default="", help="projection for gauge, e.g. 'p->m'", variants=("gauge",)),
        _arg("-o", "--output"),
    )),
    Command(("grpd", "check"), "verify all groupoid axioms", cmd_grpd_check, (_arg("document"),)),
    Command(("grpd", "check-map"), "verify a groupoid morphism or comorphism", cmd_grpd_check_map,
            (_arg("gamma"), _arg("pi"), _arg("map"))),
    Command(("grpd", "graph-theorem"), "compare the direct verifier with the graph test",
            cmd_grpd_graph_theorem, (_arg("gamma"), _arg("pi"), _arg("map"))),
    Command(("grpd", "enumerate"), "list every map of one kind over a base map (pruned search)",
            cmd_grpd_enumerate, (
                _arg("gamma"), _arg("pi"), _arg("--phi", required=True),
                _arg("--kind", choices=MAP_KINDS, required=True),
            )),
)


def build_parser(argv=()):
    """A parser holding the command whose words open ``argv``, or every command."""
    rest = list(argv)
    while rest and (rest[0] == "--format" or rest[0].startswith("--format=")):
        del rest[: 2 if rest[0] == "--format" else 1]
    named = [c for c in COMMANDS if tuple(rest[: len(c.words)]) == c.words] or COMMANDS
    parser = argparse.ArgumentParser(
        prog="lra",
        description="Exact constructions and decision procedures for Lie "
        "pseudoalgebras over polynomial quotient rings and for finite groupoids.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for entry in named:
        prefix, name = entry.words[:-1], entry.words[-1]
        if prefix not in groups:
            group = groups[()].add_parser(prefix[0], help=GROUP_HELP[prefix[0]])
            groups[prefix] = group.add_subparsers(dest=prefix[0] + "_command", required=True)
        p = groups[prefix].add_parser(name, help=entry.help)
        for flags, options in entry.arguments:
            p.add_argument(*flags, **{k: v for k, v in options.items() if k != "variants"})
        p.set_defaults(entry=entry)
    if named is not COMMANDS:
        # usage lines still list every command, as the full parser prints them
        for prefix, group in groups.items():
            names = dict.fromkeys(
                c.words[len(prefix)] for c in COMMANDS if c.words[: len(prefix)] == prefix
            )
            group.metavar = "{%s}" % ",".join(names)
    return parser


_COUNT_WORDS = ("no", "one", "two", "three")


def _check_variant(args):
    """Reject a path count, or an option value, that the command's variant does not take."""
    (first,), options = args.entry.arguments[0]
    if not isinstance(options.get("choices"), dict):
        return
    variant = getattr(args, first)
    want = options["choices"][variant]
    for flags, options in args.entry.arguments[1:]:
        name = flags[-1].lstrip("-").replace("-", "_")
        value = getattr(args, name)
        if "nargs" in options and want is not None and len(value) != want:
            noun = name if want != 1 else name[:-1]
            raise UsageError(
                "%s needs %s %s, got %d" % (variant, _COUNT_WORDS[want], noun, len(value))
            )
        if variant not in options.get("variants", (variant,)) and value != options.get("default"):
            raise UsageError("%s takes no %s" % (variant, flags[-1]))


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        cap = int(os.environ.get("LRA_STEP_CAP") or budget.DEFAULT_STEP_CAP)
    except ValueError:
        print("lra: LRA_STEP_CAP must be an integer", file=sys.stderr)
        return 2
    if cap < 1:
        print("lra: LRA_STEP_CAP must be at least 1, got %d" % cap, file=sys.stderr)
        return 2
    try:
        args = build_parser(argv).parse_args(argv)
        _check_variant(args)
        with budget.step_budget(cap):
            return args.entry.handler(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    except budget.ResourceCapExceeded as err:
        print("lra: resource cap: %s" % err, file=sys.stderr)
        return 3
    except VerificationError as err:
        print("lra: fail: %s" % err, file=sys.stderr)
        if err.report is not None:
            print(err.report.render_text(), file=sys.stderr)
        return 1
    except (OSError, docs.DocumentError, PolyParseError) as err:
        print("lra: input error: %s" % err, file=sys.stderr)
        return 2
    except Exception as err:  # a bug in lra, never a verdict or an input error
        import traceback  # here only: loading it would cost every start-up time and memory
        print("lra: internal error: %s: %s" % (type(err).__name__, err), file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
