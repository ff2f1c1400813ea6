"""Groebner bases over the rationals.

Multivariate division with remainder, Buchberger completion to a reduced
basis, and presented ideals with canonical (reduced, sorted) bases that
make ideal membership decidable.

One kernel, ``_reduce_terms``, divides with remainder.  It holds each
term under a *packed key* (Monagan and Pearce, CASC 2007): one int, with a
field per exponent topped by a guard bit and, for grevlex and grlex, the
degree above the fields.  The key is affine in the exponent and smaller
for larger monomials, exactly as the monomial order ranks them, so a
min-heap of ints hands out the leading term, a shifted term's key is
``tail_key + (key - lead_key)`` and "lead divides term" is an addition and
a mask.  An exponent that outgrows its field clears its guard bit, and
the work restarts from the budget it began with on fields twice as wide.
Completion runs on primitive integer polynomials, keeps its S-pairs in a
heap in normal selection order pruned by the Gebauer-Moeller criteria
(1988), and makes each element of the reduced basis monic at the end.

Each reduction step and each S-pair spends one step of the open budget
(``budget.step_budget``), and running out of it raises
``budget.ResourceCapExceeded``, never a wrong answer.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, and_, le, mul, rshift

# DEFAULT_STEP_CAP and default_step_cap are read here by the benchmark
# harness (perfbench/run.py), which names this module.
from .budget import DEFAULT_STEP_CAP, budget, default_step_cap  # noqa: F401
from .poly import MPoly, _coefficient, order_key


def _divides(small, big):
    return all(map(le, small, big))


_FIELD_BITS = 8  # bits per exponent field, guard bit included; doubled on overflow


class _Overflow(Exception):
    """An exponent outgrew its field."""


class _Packing:
    """Packed keys of one order and arity: with B = 2**bits and d = deg e, e has
    key G + sum(e_i B^i) - d B^n (grevlex), ~(d B^n + sum(e_i B^(n-1-i)))
    (grlex) or ~sum(e_i B^(n-1-i)) (lex); G, ``guards``, sets the top bit of
    each of the n low fields, as in every valid key.  The monomial of key k
    divides that of key t exactly when (cover - k + t) & guards == guards."""

    def __init__(self, order, arity, bits):
        field, self.order, self.arity, self.bits = 1 << bits, order, arity, bits
        places = [field**i for i in range(arity)]
        top, ones, self.mask = field**arity, sum(places), (field >> 1) - 1
        self.guards = guards = ones << (bits - 1)
        if order == "grevlex":
            self.base, self.weights, self.flip, self.cover = guards, [p - top for p in places], 0, guards
        else:
            places.reverse()  # e_0 in the most significant field
            weights = [-(p + top if order == "grlex" else p) for p in places]
            self.base, self.weights, self.flip, self.cover = -1, weights, -1, 2 * guards - ones
        self.shifts = [p.bit_length() - 1 for p in places]

    def wider(self):
        return _Packing(self.order, self.arity, 2 * self.bits)

    def key(self, exp):
        return self.base + sum(map(mul, exp, self.weights))

    def keyed(self, terms):
        """``terms`` (exponent -> coefficient) under packed keys."""
        if max(chain.from_iterable(terms), default=0) > self.mask:
            raise _Overflow
        base, weights = self.base, self.weights
        return {base + sum(map(mul, e, weights)): c for e, c in terms.items()}

    def exponent(self, key):
        return tuple(map(and_, map(rshift, repeat(key ^ self.flip), self.shifts), repeat(self.mask)))


# -- the reduction kernel ----------------------------------------------------------


def _reduce_terms(work, prepared, guards, steps):
    """Full remainder, key -> coefficient with the leading term first, of ``work``
    (consumed) against ``prepared``: (lead key, cover - lead key, lc, tail as
    (key, coefficient) pairs) per element.  An integer lc other than 1 first
    scales the whole polynomial by lc/gcd(c, lc), so integers stay integers."""
    heap = list(work)
    heapify(heap)
    remainder = {}
    while heap:
        key = heappop(heap)
        c = work.pop(key, None)
        if c is None:
            continue  # cancelled, or a second heap entry of one term
        for lead_key, divisor, lc, tail in prepared:
            if (divisor + key) & guards == guards:
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
                shift = key - lead_key
                for tail_key, tc in tail:
                    t = tail_key + shift
                    old = work.get(t)
                    if old is None:
                        if t & guards != guards:
                            raise _Overflow
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
            remainder[key] = c
    return remainder


def _prepare(basis, pack):
    """``pack``, widened until ``basis`` fits, and its nonzero elements prepared, monic."""
    try:
        prepared = []
        for keyed in (pack.keyed(g.terms) for g in basis if not g.is_zero()):
            lead_key = min(keyed)
            lc = keyed.pop(lead_key)
            tail = [(k, _coefficient(Fraction(c, lc))) for k, c in keyed.items()]
            prepared.append((lead_key, pack.cover - lead_key, 1, tail))
        return pack, prepared
    except _Overflow:
        return _prepare(basis, pack.wider())


def _divide(p, basis, pack, prepared):
    """Remainder of ``p`` by ``basis``, prepared under ``pack``; a copy of ``p`` if nothing reduces."""
    steps = budget()
    left = steps.left
    try:
        remainder = _reduce_terms(pack.keyed(p.terms), prepared, pack.guards, steps)
    except _Overflow:
        steps.left = left
        return _divide(p, basis, *_prepare(basis, pack.wider()))
    if steps.left == left:
        return MPoly._raw(p.arity, dict(p.terms))
    return MPoly._raw(p.arity, {pack.exponent(k): _coefficient(c) for k, c in remainder.items()})


def normal_form(p, basis, order="grevlex"):
    """Remainder of ``p`` under division by the monic multiples of ``basis``.

    It depends only on the residue class of ``p`` whenever ``basis`` is a
    Groebner basis for the chosen order (dividing by g or g/lc(g) is alike)."""
    order_key(order)  # validates the tag
    if any(g.arity != p.arity for g in basis):
        raise ValueError("arity mismatch between polynomial and basis")
    if not any(basis):
        return MPoly._raw(p.arity, dict(p.terms))
    return _divide(p, basis, *_prepare(basis, _Packing(order, p.arity, _FIELD_BITS)))


# -- completion --------------------------------------------------------------------


def _primitive(terms, pack):
    """Prepared entry of the primitive integer multiple, with a positive leading
    coefficient, of ``terms`` (packed key -> nonzero int, leading term first)."""
    items = iter(terms.items())
    lead_key, lc = next(items)
    content = gcd(*terms.values()) if lc > 0 else -gcd(*terms.values())
    return lead_key, pack.cover - lead_key, lc // content, [(k, c // content) for k, c in items]


def _s_terms(f, g, lcm_key, guards):
    """(lc_g/k) x^a f - (lc_f/k) x^b g with k = gcd(lc_f, lc_g), as packed key ->
    int; x^a f and x^b g share the leading monomial of key ``lcm_key``."""
    (key_f, _, lc_f, tail_f), (key_g, _, lc_g, tail_g) = f, g
    k = gcd(lc_f, lc_g)
    cf, cg = lc_g // k, -(lc_f // k)
    shift = lcm_key - key_f
    work = {t + shift: cf * c for t, c in tail_f}
    shift = lcm_key - key_g
    for t, c in tail_g:
        t += shift
        acc = work.get(t, 0) + cg * c
        if acc:
            work[t] = acc
        else:
            work.pop(t, None)
    if any(t & guards != guards for t in work):
        raise _Overflow
    return work


def buchberger(generators, order="grevlex"):
    """Reduced Groebner basis of the ideal spanned by ``generators``.

    The result is autoreduced, monic and sorted by leading monomial, so
    equal ideals (over the same order) get structurally equal bases.
    """
    order_key(order)  # validates the tag
    arity = None
    integral = []  # each nonzero generator times the lcm of its denominators
    for p in generators:
        if arity is None:
            arity = p.arity
        elif p.arity != arity:
            raise ValueError("generators have mixed arities")
        if not p.is_zero():
            den = lcm(*(c.denominator for c in p.terms.values()))
            integral.append({e: c.numerator * (den // c.denominator) for e, c in p.terms.items()})
    if arity is None:
        raise ValueError("cannot infer arity from an empty generator list; use IdealPres")
    steps = budget()
    left, pack = steps.left, _Packing(order, arity, _FIELD_BITS)
    while True:
        try:
            return _complete([pack.keyed(terms) for terms in integral], pack, steps)
        except _Overflow:
            steps.left, pack = left, pack.wider()


def _complete(integral, pack, steps):
    guards, exponent = pack.guards, pack.exponent
    elements, leads = [], []  # prepared entries, which pairs and the basis name by index; their leads
    basis = []  # elements that take new pairs, smallest leading monomial first
    queue = []  # (-key of the lcm, i, j, lcm): the heap of S-pairs, smallest lcm first

    def update(h):
        """Add element h: pair it with the basis, then prune by Gebauer-Moeller."""
        lead = leads[h]
        new = [(g, tuple(map(max, lead, leads[g]))) for g in basis]
        kept = []
        for n, (g, m) in enumerate(new):
            coprime = m == tuple(map(add, lead, leads[g]))
            # criteria M and F: another new pair's lcm divides this one's
            if coprime or not (
                any(_divides(other, m) for _, other in new[n + 1 :])
                or any(_divides(other, m) for _, other, _ in kept)
            ):
                kept.append((g, m, coprime))
        # criterion B: lead divides an old pair's lcm but neither lcm with lead equals it
        queue[:] = [
            pair for pair in queue if not _divides(lead, pair[3])
            or tuple(map(max, leads[pair[1]], lead)) == pair[3]
            or tuple(map(max, leads[pair[2]], lead)) == pair[3]
        ]
        heapify(queue)
        for g, m, coprime in kept:
            if not coprime:  # Buchberger's product criterion
                heappush(queue, (-pack.key(m), g, h, m))
        basis[:] = [g for g in basis if not _divides(lead, leads[g])] + [h]
        basis.sort(key=lambda g: elements[g][0], reverse=True)

    def add_remainder(work):
        r = _reduce_terms(work, [elements[g] for g in basis], guards, steps)
        if r:
            elements.append(_primitive(r, pack))
            leads.append(exponent(elements[-1][0]))
            update(len(elements) - 1)

    # each generator enters reduced by the basis so far, smallest lead first
    # (largest key), so no leading monomial of the basis divides another
    integral.sort(key=min, reverse=True)
    for work in integral:
        add_remainder(work)
    while queue:
        lcm_key, i, j, _ = heappop(queue)
        steps.spend("the S-pairs of Buchberger completion")
        add_remainder(_s_terms(elements[i], elements[j], -lcm_key, guards))

    # interreduce, smallest lead first: a tail term is smaller than its lead,
    # so only the (already reduced) elements with smaller leads divide it
    reduced = []
    for g in basis:
        lead_key, _, lc, tail = elements[g]
        work = dict(tail)
        work[lead_key] = lc
        reduced.append(_primitive(_reduce_terms(work, reduced, guards, steps), pack))
    arity = pack.arity
    return [MPoly._raw(arity, {exponent(lead): 1, **{exponent(k): _coefficient(Fraction(c, lc)) for k, c in tail}})
            for lead, _, lc, tail in reduced]


class IdealPres:
    """An ideal of Q[x1..xn] presented by generators plus a reduced basis.

    The basis is also held prepared for division (each element monic and
    split into its leading monomial and a tail under packed keys), so
    ``normal_form`` never searches for a leading monomial again.
    """

    __slots__ = ("arity", "generators", "order", "groebner", "_prepared")

    def __init__(self, arity, generators=(), order="grevlex"):
        order_key(order)  # validates the tag
        gens = []
        for p in generators:
            if p.arity != arity:
                raise ValueError("generator arity %d does not match ideal arity %d" % (p.arity, arity))
            if not p.is_zero():
                gens.append(p)
        self.arity, self.generators, self.order = arity, tuple(gens), order
        self.groebner = tuple(buchberger(gens, order)) if gens else ()
        self._prepared = _prepare(self.groebner, _Packing(order, arity, _FIELD_BITS)) if gens else None

    def normal_form(self, p):
        if p.arity != self.arity:
            raise ValueError("arity mismatch: polynomial has %d variables, ideal %d" % (p.arity, self.arity))
        if not self.groebner:
            return p
        if not p.terms:
            return MPoly._raw(self.arity, {})
        return _divide(p, self.groebner, *self._prepared)

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
        return (self.arity, self.order, self.groebner) == (other.arity, other.order, other.groebner)

    def __hash__(self):
        return hash((self.arity, self.order, self.groebner))

    def __repr__(self):
        return "IdealPres(arity=%d, groebner=%r)" % (self.arity, list(self.groebner))

