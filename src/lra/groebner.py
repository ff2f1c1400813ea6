"""Groebner bases over the rationals.

Multivariate division with remainder, Buchberger completion to a reduced
basis, and presented ideals with canonical (reduced, sorted) bases that
make ideal membership decidable.

One kernel, ``_reduce_terms``, divides with remainder.  It holds each
term under its *negated key*, a flat tuple that is smallest for the
largest monomial (for grevlex ``(-deg,) + e[::-1]``), so a min-heap hands
out the leading term, and since the key is linear in the exponent a
shifted term's key is a sum of two keys.  Completion runs on primitive
integer polynomials with a positive leading coefficient.  It keeps its
S-pairs in a heap in normal selection order (smallest lcm of the leading
monomials first), pruned by the Gebauer-Moeller criteria (1988), and makes
each element of the reduced basis monic over Q once, at the end.
Division by a monic rational basis (``normal_form``, ``IdealPres``) runs
through the same kernel.

Work spends from one step budget per scope, opened by ``step_budget``:
reduction steps, S-pairs and (in ``groupoid``) partial maps tried.  An
S-pair that the criteria drop spends nothing, so a budget that a
completion without them exhausts may now suffice; the basis is the same.
A call outside any block gets a fresh ``DEFAULT_STEP_CAP`` budget.
Exhausting it raises ``ResourceCapExceeded`` -- out of resources, never a
wrong answer.
"""

from __future__ import annotations

import contextlib
import contextvars
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, le, sub

from .poly import MPoly, order_key

DEFAULT_STEP_CAP = 10**6


class ResourceCapExceeded(RuntimeError):
    """The step budget ran out before the computation finished."""


class _Budget:
    __slots__ = ("cap", "left")

    def __init__(self, cap):
        self.cap = self.left = cap

    def spend(self, operation, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceCapExceeded("step cap of %d exhausted in %s" % (self.cap, operation))


_open_budget = contextvars.ContextVar("lra_step_budget", default=None)


@contextlib.contextmanager
def step_budget(cap):
    """Open one budget of ``cap`` steps for everything the block runs; yields it."""
    steps = _Budget(int(cap))
    token = _open_budget.set(steps)
    try:
        yield steps
    finally:
        _open_budget.reset(token)


def budget():
    """The open budget, or a fresh default one outside any ``step_budget`` block."""
    return _open_budget.get() or _Budget(DEFAULT_STEP_CAP)


def default_step_cap():
    """The cap of the open budget, or ``DEFAULT_STEP_CAP`` outside any block."""
    return budget().cap


def _divides(small, big):
    return all(map(le, small, big))


# -- negated keys ------------------------------------------------------------


def _grevlex_negated(exp):
    return (-sum(exp),) + exp[::-1]


def _grevlex_exponent(key):
    return key[:0:-1]


def _grlex_negated(exp):
    return (-sum(exp),) + tuple([-e for e in exp])


def _grlex_exponent(key):
    return tuple([-e for e in key[1:]])


def _lex_negated(exp):
    return tuple([-e for e in exp])


# per order: exponent -> negated key, and back
_NEGATED = {
    "grevlex": (_grevlex_negated, _grevlex_exponent),
    "grlex": (_grlex_negated, _grlex_exponent),
    "lex": (_lex_negated, _lex_negated),
}


def _negated(order):
    order_key(order)  # validates the tag
    return _NEGATED[order]


# -- the reduction kernel ----------------------------------------------------------


def _reduce_terms(work, prepared, exponent, steps):
    """Full remainder of ``work`` (negated key -> coefficient) against a prepared basis.

    ``prepared`` holds (leading exponent, its negated key, leading
    coefficient, tail as (negated key, coefficient) pairs) per element.
    With leading coefficient 1 a term reduces by plain subtraction; any
    other (integer) one first scales the whole polynomial by lc/gcd(c, lc),
    so integer coefficients stay integers and the remainder is determined
    up to a nonzero factor.  Returns exponent -> coefficient, leading
    term first; ``work`` is consumed.
    """
    heap = list(work)
    heapify(heap)
    remainder = {}
    while heap:
        key = heappop(heap)
        c = work.pop(key, None)
        if c is None:
            continue  # cancelled, or a second heap entry of one term
        exp = exponent(key)
        for lead, lead_key, lc, tail in prepared:
            if all(map(le, lead, exp)):
                steps.spend("polynomial reduction")
                if lc != 1:
                    m = lc // gcd(c, lc)
                    if m != 1:
                        for k in work:
                            work[k] *= m
                        for e in remainder:
                            remainder[e] *= m
                    c = c * m // lc
                c = -c
                shift = tuple(map(sub, key, lead_key))
                for tail_key, tc in tail:
                    t = tuple(map(add, tail_key, shift))
                    old = work.get(t)
                    if old is None:
                        work[t] = c * tc
                        heappush(heap, t)
                    else:
                        acc = old + c * tc
                        if acc:
                            work[t] = acc
                        else:
                            del work[t]
                break
        else:
            remainder[exp] = c
    return remainder


def _prepare(basis, negated, exponent):
    """Prepared entries of the monic multiples of the nonzero elements of ``basis``."""
    prepared = []
    for g in basis:
        if g.is_zero():
            continue
        keyed = {negated(e): c for e, c in g.terms.items()}
        lead_key = min(keyed)
        lc = keyed.pop(lead_key)
        prepared.append((exponent(lead_key), lead_key, 1, [(k, c / lc) for k, c in keyed.items()]))
    return prepared


def _divide(p, prepared, negated, exponent):
    work = {negated(e): c for e, c in p.terms.items()}
    return MPoly._raw(p.arity, _reduce_terms(work, prepared, exponent, budget()))


def normal_form(p, basis, order="grevlex"):
    """Remainder of ``p`` under multivariate division by ``basis``.

    Unique (depends only on the residue class of ``p``) whenever ``basis``
    is a Groebner basis for the chosen order.  Dividing by g or by g/lc(g)
    leaves the same remainder, so the basis is made monic first.
    """
    negated, exponent = _negated(order)
    for g in basis:
        if g.arity != p.arity:
            raise ValueError("arity mismatch between polynomial and basis")
    return _divide(p, _prepare(basis, negated, exponent), negated, exponent)


def s_polynomial(f, g, order="grevlex"):
    key = order_key(order)
    (ef, cf) = f.leading(key)
    (eg, cg) = g.leading(key)
    m = tuple(map(max, ef, eg))
    mf = MPoly.monomial(f.arity, tuple(map(sub, m, ef)), Fraction(1, 1) / cf)
    mg = MPoly.monomial(g.arity, tuple(map(sub, m, eg)), Fraction(1, 1) / cg)
    return mf * f - mg * g


# -- completion --------------------------------------------------------------------


def _primitive(terms, negated):
    """Prepared entry of the primitive integer multiple, with a positive leading
    coefficient, of ``terms`` (exponent -> nonzero int, leading term first)."""
    items = iter(terms.items())
    lead, lc = next(items)
    content = gcd(*terms.values())
    if lc < 0:
        content = -content
    return lead, negated(lead), lc // content, [(negated(e), c // content) for e, c in items]


def _s_terms(f, g, lcm_key):
    """(lc_g/k) x^a f - (lc_f/k) x^b g with k = gcd(lc_f, lc_g), as negated key ->
    int; x^a f and x^b g share the leading monomial of key ``lcm_key``."""
    _, key_f, lc_f, tail_f = f
    _, key_g, lc_g, tail_g = g
    k = gcd(lc_f, lc_g)
    cf, cg = lc_g // k, -(lc_f // k)
    shift = tuple(map(sub, lcm_key, key_f))
    work = {tuple(map(add, t, shift)): cf * c for t, c in tail_f}
    shift = tuple(map(sub, lcm_key, key_g))
    for t, c in tail_g:
        t = tuple(map(add, t, shift))
        acc = work.get(t, 0) + cg * c
        if acc:
            work[t] = acc
        else:
            work.pop(t, None)
    return work


def buchberger(generators, order="grevlex"):
    """Reduced Groebner basis of the ideal spanned by ``generators``.

    The result is autoreduced, monic and sorted by leading monomial, so
    equal ideals (over the same order) get structurally equal bases.
    """
    negated, exponent = _negated(order)
    key = order_key(order)
    steps = budget()
    arity = None
    integral = []  # each nonzero generator times the lcm of its denominators
    for p in generators:
        if arity is None:
            arity = p.arity
        elif p.arity != arity:
            raise ValueError("generators have mixed arities")
        if not p.is_zero():
            den = lcm(*(c.denominator for c in p.terms.values()))
            integral.append({negated(e): c.numerator * (den // c.denominator) for e, c in p.terms.items()})
    if arity is None:
        raise ValueError("cannot infer arity from an empty generator list; use IdealPres")

    elements = []  # prepared entries; pairs and the basis name them by index
    basis = []  # elements that take new pairs, smallest leading monomial first
    queue = []  # (key of the lcm, i, j, lcm): the heap of S-pairs

    def update(h):
        """Add element h: pair it with the basis, then prune by Gebauer-Moeller."""
        lead = elements[h][0]
        new = [(g, tuple(map(max, lead, elements[g][0]))) for g in basis]
        kept = []
        for n, (g, m) in enumerate(new):
            coprime = m == tuple(map(add, lead, elements[g][0]))
            # criteria M and F: another new pair's lcm divides this one's
            if coprime or not (
                any(_divides(other, m) for _, other in new[n + 1 :])
                or any(_divides(other, m) for _, other, _ in kept)
            ):
                kept.append((g, m, coprime))
        # criterion B: lead divides an old pair's lcm but neither lcm with lead equals it
        queue[:] = [
            pair
            for pair in queue
            if not _divides(lead, pair[3])
            or tuple(map(max, elements[pair[1]][0], lead)) == pair[3]
            or tuple(map(max, elements[pair[2]][0], lead)) == pair[3]
        ]
        heapify(queue)
        for g, m, coprime in kept:
            if not coprime:  # Buchberger's product criterion
                heappush(queue, (key(m), g, h, m))
        basis[:] = [g for g in basis if not _divides(lead, elements[g][0])] + [h]
        basis.sort(key=lambda g: elements[g][1], reverse=True)

    def add_remainder(work):
        r = _reduce_terms(work, [elements[g] for g in basis], exponent, steps)
        if r:
            elements.append(_primitive(r, negated))
            update(len(elements) - 1)

    # each generator enters reduced by the basis so far, smallest lead first
    # (largest negated key), so no leading monomial of the basis divides another
    integral.sort(key=min, reverse=True)
    for work in integral:
        add_remainder(work)
    while queue:
        _, i, j, m = heappop(queue)
        steps.spend("the S-pairs of Buchberger completion")
        add_remainder(_s_terms(elements[i], elements[j], negated(m)))

    # interreduce, smallest lead first: a tail term is smaller than its lead,
    # so only the (already reduced) elements with smaller leads divide it
    reduced = []
    for g in basis:
        _, lead_key, lc, tail = elements[g]
        work = dict(tail)
        work[lead_key] = lc
        reduced.append(_primitive(_reduce_terms(work, reduced, exponent, steps), negated))
    return [
        MPoly._raw(arity, {lead: Fraction(1), **{exponent(k): Fraction(c, lc) for k, c in tail}})
        for lead, _, lc, tail in reduced
    ]


class IdealPres:
    """An ideal of Q[x1..xn] presented by generators plus a reduced basis.

    The basis is also held prepared for division (each element monic and
    split into its leading monomial and a tail under negated keys), so
    ``normal_form`` never searches for a leading monomial again.
    """

    __slots__ = ("arity", "generators", "order", "groebner", "_negated", "_exponent", "_prepared")

    def __init__(self, arity, generators=(), order="grevlex"):
        negated, exponent = _negated(order)
        gens = []
        for p in generators:
            if p.arity != arity:
                raise ValueError("generator arity %d does not match ideal arity %d" % (p.arity, arity))
            if not p.is_zero():
                gens.append(p)
        self.arity = arity
        self.generators = tuple(gens)
        self.order = order
        self.groebner = tuple(buchberger(gens, order)) if gens else ()
        self._negated, self._exponent = negated, exponent
        self._prepared = _prepare(self.groebner, negated, exponent)

    def normal_form(self, p):
        if p.arity != self.arity:
            raise ValueError("arity mismatch: polynomial has %d variables, ideal %d" % (p.arity, self.arity))
        if not self.groebner:
            return p
        return _divide(p, self._prepared, self._negated, self._exponent)

    def contains(self, p):
        return self.normal_form(p).is_zero()

    def is_trivial(self):
        """True when the ideal is the whole ring (1 reduces everything)."""
        return any(g.is_constant() and not g.is_zero() for g in self.groebner)

    def is_empty(self):
        return not self.groebner

    def __eq__(self, other):
        if not isinstance(other, IdealPres):
            return NotImplemented
        return (
            self.arity == other.arity
            and self.order == other.order
            and self.groebner == other.groebner
        )

    def __hash__(self):
        return hash((self.arity, self.order, self.groebner))

    def __repr__(self):
        return "IdealPres(arity=%d, groebner=%r)" % (self.arity, list(self.groebner))

