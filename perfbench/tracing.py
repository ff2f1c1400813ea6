"""Per-layer tracing of ``lra`` from outside the package.

``Tracer.install`` replaces each traced function of ``lra`` by a wrapper
that records a span (name, start, end, parent span) around every call.
Every module attribute and class attribute that binds the function is
patched, so calls between modules (``from .x import f``) are seen too.
Spans are folded, as they close, into per-name call counts, total time
(outermost calls only, so recursion is not counted twice) and self time
(the span minus the time of the spans it directly caused).
"""

import sys
import time

# (metric prefix, module, owner attribute or None, function name)
SPANS = [
    ("cli.main", "lra.cli", None, "main"),
    ("documents.load", "lra.documents", None, "load_document"),
    ("poly.MPoly.init", "lra.poly", "MPoly", "__init__"),
    ("poly.mul", "lra.poly", "MPoly", "__mul__"),
    ("poly.add", "lra.poly", "MPoly", "__add__"),
    ("groebner.buchberger", "lra.groebner", None, "buchberger"),
    ("groebner.normal_form", "lra.groebner", None, "normal_form"),
    ("algebra.nf", "lra.algebra", "AlgebraPres", "nf"),
    ("algebra.Derivation.apply", "lra.algebra", "Derivation", "apply"),
    ("pseudoalgebra.bracket", "lra.pseudoalgebra", None, "bracket"),
    ("pseudoalgebra.anchor_apply", "lra.pseudoalgebra", None, "anchor_apply"),
    ("pseudoalgebra.axioms_check", "lra.pseudoalgebra", None, "axioms_check"),
    ("maps.check_pamorphism", "lra.maps", None, "check_pamorphism"),
    ("maps.check_pacomorphism", "lra.maps", None, "check_pacomorphism"),
    ("maps.chain_map_check", "lra.maps", None, "chain_map_check"),
    ("maps.graph_subalgebra_check", "lra.maps", None, "graph_subalgebra_check"),
    ("psisum.membership_report", "lra.psisum", None, "membership_report"),
    ("psisum.psisum_bracket", "lra.psisum", None, "psisum_bracket"),
    ("restriction.in_upper", "lra.restriction", None, "in_upper"),
    ("restriction.in_lower", "lra.restriction", None, "in_lower"),
    ("restriction.quotient_bracket", "lra.restriction", None, "quotient_bracket"),
    ("groupoid.check_groupoid", "lra.groupoid", None, "check_groupoid"),
    ("groupoid.check_grpd_morphism", "lra.groupoid", None, "check_grpd_morphism"),
    ("groupoid.check_grpd_comorphism", "lra.groupoid", None, "check_grpd_comorphism"),
    ("groupoid.graph_subgroupoid_check", "lra.groupoid", None, "graph_subgroupoid_check"),
    ("groupoid.enumerate_maps", "lra.groupoid", None, "enumerate_maps"),
]

# a generator whose yielded items are counted rather than timed
CANDIDATES = ("groupoid.candidates", "lra.groupoid", None, "iter_candidate_maps")


class Tracer:
    def __init__(self):
        names = [name for name, *_ in SPANS]
        self.calls = dict.fromkeys(names, 0)
        self.total_s = dict.fromkeys(names, 0.0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.tally = {"candidates": 0, "found": 0}
        self._active = dict.fromkeys(names, 0)
        # open spans, innermost last: [start, time covered by child spans]
        self._stack = []
        self._patches = []  # (holder, attribute, original)

    def reset(self):
        """Zero the counts before a pass; the wrappers keep these dicts."""
        for table in (self.calls, self.total_s, self.self_s, self.tally):
            for key in table:
                table[key] = 0

    def _span(self, name, fn):
        stack, active = self._stack, self._active
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if not active[name]:
                    total_s[name] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _wrap(self, name, fn):
        tally = self.tally
        if name == "groupoid.enumerate_maps":

            def found(*args, **kwargs):
                result = fn(*args, **kwargs)
                tally["found"] += len(result)
                return result

            return self._span(name, found)
        if name == CANDIDATES[0]:

            def candidates(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tally["candidates"] += 1
                    yield item

            return candidates
        return self._span(name, fn)

    def install(self):
        """Patch every binding of the traced functions in the loaded ``lra``."""
        modules = [m for key, m in sys.modules.items() if key == "lra" or key.startswith("lra.")]
        holders = list(modules)
        for m in modules:
            holders.extend(
                v for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith("lra")
            )
        for name, module, owner, attr in SPANS + [CANDIDATES]:
            holder = sys.modules[module]
            if owner is not None:
                holder = getattr(holder, owner)
            original = vars(holder)[attr]
            replacement = self._wrap(name, original)
            for h in holders:
                for key, value in list(vars(h).items()):
                    if value is original:
                        self._patches.append((h, key, original))
                        setattr(h, key, replacement)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def counts(self):
        """Per-pass counts, which must repeat exactly for a given seed."""
        out = {name + ".calls": n for name, n in self.calls.items()}
        out["groupoid.candidates"] = self.tally["candidates"]
        out["groupoid.enumerate_maps.found"] = self.tally["found"]
        return out
