"""Reduced Groebner bases computed by sympy, the known answer for ideal-completion.

Reads a JSON list of systems ``{"variables": [...], "generators": [...]}``
from standard input and prints one JSON list of reduced grevlex bases, each
a list of polynomials given as ``[[exponents, "p/q"], ...]``.  It runs in a
process of its own, so sympy's memory is not counted as the workload's.
"""

import json
import sys

import sympy


def reduced_basis(variables, generators):
    symbols = sympy.symbols(variables)
    names = dict(zip(variables, symbols))
    polys = [sympy.sympify(text.replace("^", "**"), locals=names) for text in generators]
    basis = sympy.groebner(polys, *symbols, order="grevlex", domain="QQ")
    out = []
    for g in basis.polys:
        out.append([[list(exp), str(sympy.Rational(c))] for exp, c in g.terms()])
    return out


def main():
    systems = json.load(sys.stdin)
    json.dump([reduced_basis(s["variables"], s["generators"]) for s in systems], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
