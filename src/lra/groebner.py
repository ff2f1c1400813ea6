"""Groebner bases over the rationals.

Multivariate division with remainder, Buchberger completion to a reduced
basis, and presented ideals with canonical (reduced, sorted) bases that
make ideal membership decidable.

Work spends from one step budget per scope, opened by ``step_budget``:
reduction steps, S-pairs and (in ``groupoid``) partial maps tried.  A call
outside any block gets a fresh ``DEFAULT_STEP_CAP`` budget.  Exhausting it
raises ``ResourceCapExceeded`` -- out of resources, never a wrong answer.
"""

from __future__ import annotations

import contextlib
import contextvars
from fractions import Fraction

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
    return all(a <= b for a, b in zip(small, big))


def _prepare(basis, key):
    """(leading exponent, leading coefficient, element) for each nonzero element."""
    return [g.leading(key) + (g,) for g in basis if not g.is_zero()]


def _reduce_terms(arity, work, prepared, key, steps):
    """Full remainder of the term dict ``work`` against a prepared basis."""
    remainder = {}
    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        for lead, lc, g in prepared:
            if _divides(lead, exp):
                steps.spend("polynomial reduction")
                shift = tuple(a - b for a, b in zip(exp, lead))
                factor = coeff / lc
                for gexp, gc in g.terms.items():
                    tgt = tuple(a + b for a, b in zip(gexp, shift))
                    if tgt == exp:
                        continue
                    acc = work.get(tgt, Fraction(0)) - factor * gc
                    if acc == 0:
                        work.pop(tgt, None)
                    else:
                        work[tgt] = acc
                break
        else:
            remainder[exp] = coeff
    return MPoly._raw(arity, remainder)


def normal_form(p, basis, order="grevlex"):
    """Remainder of ``p`` under multivariate division by ``basis``.

    Unique (depends only on the residue class of ``p``) whenever ``basis``
    is a Groebner basis for the chosen order.
    """
    key = order_key(order)
    for g in basis:
        if g.arity != p.arity:
            raise ValueError("arity mismatch between polynomial and basis")
    return _reduce_terms(p.arity, dict(p.terms), _prepare(basis, key), key, budget())


def s_polynomial(f, g, order="grevlex"):
    key = order_key(order)
    (ef, cf) = f.leading(key)
    (eg, cg) = g.leading(key)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = MPoly.monomial(f.arity, tuple(a - b for a, b in zip(lcm, ef)), Fraction(1, 1) / cf)
    mg = MPoly.monomial(g.arity, tuple(a - b for a, b in zip(lcm, eg)), Fraction(1, 1) / cg)
    return mf * f - mg * g


def _monic(p, key):
    _, c = p.leading(key)
    return p.scale(Fraction(1, 1) / c)


def buchberger(generators, order="grevlex"):
    """Reduced Groebner basis of the ideal spanned by ``generators``.

    The result is autoreduced, monic and sorted by leading monomial, so
    equal ideals (over the same order) get structurally equal bases.
    """
    key = order_key(order)
    steps = budget()
    arity = None
    basis = []
    for p in generators:
        if arity is None:
            arity = p.arity
        elif p.arity != arity:
            raise ValueError("generators have mixed arities")
        if not p.is_zero():
            basis.append(_monic(p, key))
    if arity is None:
        raise ValueError("cannot infer arity from an empty generator list; use IdealPres")
    if not basis:
        return []

    prepared = _prepare(basis, key)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]

    def pair_weight(ij):
        # normal selection: smallest lcm of the leading monomials first
        return key(tuple(max(a, b) for a, b in zip(prepared[ij[0]][0], prepared[ij[1]][0])))

    while pairs:
        i, j = min(pairs, key=pair_weight)
        pairs.remove((i, j))
        steps.spend("the S-pairs of Buchberger completion")
        lead_i, lead_j = prepared[i][0], prepared[j][0]
        if all(a == 0 or b == 0 for a, b in zip(lead_i, lead_j)):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        s = s_polynomial(basis[i], basis[j], order)
        r = _reduce_terms(arity, dict(s.terms), prepared, key, steps)
        if not r.is_zero():
            r = _monic(r, key)
            basis.append(r)
            prepared.append(r.leading(key) + (r,))
            new = len(basis) - 1
            pairs.extend((k, new) for k in range(new))

    # minimalize: drop any element whose lead another element's lead divides
    leads = [g.leading(key)[0] for g in basis]
    minimal = [
        g
        for i, g in enumerate(basis)
        if not any(  # of equal leads only the first stays
            j != i and _divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
            for j in range(len(basis))
        )
    ]

    # interreduce: no lead divides another, so one reduction of each element
    # against the others keeps every (monic) lead and leaves the reduced basis
    for i, g in enumerate(minimal):
        others = _prepare(minimal[:i] + minimal[i + 1 :], key)
        minimal[i] = _reduce_terms(arity, dict(g.terms), others, key, steps)

    minimal.sort(key=lambda g: key(g.leading(key)[0]))
    return minimal


class IdealPres:
    """An ideal of Q[x1..xn] presented by generators plus a reduced basis.

    The basis is also held prepared for division (each element with its
    leading monomial and coefficient), so ``normal_form`` never searches
    for a leading monomial again.
    """

    __slots__ = ("arity", "generators", "order", "groebner", "_key", "_prepared")

    def __init__(self, arity, generators=(), order="grevlex"):
        key = order_key(order)  # validates the tag
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
        self._key = key
        self._prepared = _prepare(self.groebner, key)

    def normal_form(self, p):
        if p.arity != self.arity:
            raise ValueError("arity mismatch: polynomial has %d variables, ideal %d" % (p.arity, self.arity))
        if not self.groebner:
            return p
        return _reduce_terms(self.arity, dict(p.terms), self._prepared, self._key, budget())

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

