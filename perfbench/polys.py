"""A tiny polynomial toolkit for building benchmark inputs.

Polynomials are dicts from exponent tuples to nonzero Fractions.  This
module is independent of ``lra`` on purpose: the benchmark builds its
documents and its expected answers without asking the program under test.
"""

from fractions import Fraction


def const(arity, value):
    value = Fraction(value)
    return {(0,) * arity: value} if value else {}


def var(arity, index):
    return {tuple(1 if i == index else 0 for i in range(arity)): Fraction(1)}


def add(*polys):
    out = {}
    for p in polys:
        for exp, c in p.items():
            acc = out.get(exp, 0) + c
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
    return out


def scale(p, value):
    value = Fraction(value)
    return {exp: c * value for exp, c in p.items()} if value else {}


def mul(*polys):
    out = None
    for p in polys:
        if out is None:
            out = dict(p)
            continue
        prod = {}
        for e1, c1 in out.items():
            for e2, c2 in p.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                acc = prod.get(exp, 0) + c1 * c2
                if acc:
                    prod[exp] = acc
                else:
                    prod.pop(exp, None)
        out = prod
    return out


def partial(p, index):
    out = {}
    for exp, c in p.items():
        if exp[index]:
            lowered = exp[:index] + (exp[index] - 1,) + exp[index + 1 :]
            out[lowered] = c * exp[index]
    return out


def grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def render(p, names):
    """Text in the shared polynomial grammar: ``3/2*x^2*y - z + 1``."""
    if not p:
        return "0"
    pieces = []
    for exp in sorted(p, key=grevlex_key, reverse=True):
        c = p[exp]
        mono = "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, exp) if e)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += " %s %s" % (sign, body)
    return text


def katsura(n):
    """Katsura-n: n+1 variables u0..un, n+1 equations."""
    arity = n + 1
    u = [var(arity, i) for i in range(arity)]
    eqs = [add(u[0], *[scale(u[i], 2) for i in range(1, arity)], const(arity, -1))]
    for m in range(n):
        terms = [
            mul(u[abs(i)], u[abs(m - i)])
            for i in range(-n, n + 1)
            if abs(m - i) <= n
        ]
        eqs.append(add(*terms, scale(u[m], -1)))
    return ["u%d" % i for i in range(arity)], eqs


def cyclic(n):
    """Cyclic-n: n variables z0..z(n-1), n equations."""
    z = [var(n, i) for i in range(n)]
    eqs = []
    for k in range(1, n):
        eqs.append(add(*[mul(*[z[(i + j) % n] for j in range(k)]) for i in range(n)]))
    eqs.append(add(mul(*z), const(n, -1)))
    return ["z%d" % i for i in range(n)], eqs
