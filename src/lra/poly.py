"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is stored as a mapping from exponent tuples to nonzero
coefficients; the number of variables (arity) is fixed per polynomial.
A coefficient has one form: an ``int`` when it is integral, otherwise a
``Fraction`` with denominator > 1, so integer arithmetic runs at int
speed.  Two places set it: ``_coefficient``, for single values, and
``_Sum.finish``, for a sum of products, which the product kernel
``_add_product`` keeps as unreduced integer pairs until it is finished.
Everything is exact -- no floats anywhere, and a quotient of coefficients
is always taken as a ``Fraction``.

This module also owns the text grammar shared by all document formats:
terms like ``3/2*x^2*y`` joined by ``+`` and ``-``, with variable names
declared externally (per algebra).
"""

import re
from fractions import Fraction
from itertools import product
from math import gcd
from operator import add as _add, neg

_new = object.__new__


def grevlex_key(exp):
    """Graded reverse lexicographic key; larger key means larger monomial."""
    return (sum(exp), tuple(map(neg, reversed(exp))))


def grlex_key(exp):
    return (sum(exp), exp)


def lex_key(exp):
    return exp


MONOMIAL_ORDERS = {"grevlex": grevlex_key, "grlex": grlex_key, "lex": lex_key}


def order_key(order):
    try:
        return MONOMIAL_ORDERS[order]
    except KeyError:
        raise ValueError("unknown monomial order %r" % (order,)) from None


def _coefficient(value):
    """``value``, an int or a Fraction, in the one coefficient form: an int
    when it is integral, else a Fraction with denominator > 1.  A bool or an
    int subclass becomes an int; anything else is a TypeError."""
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (int, Fraction)):
        return _coefficient(Fraction(value))
    raise TypeError("coefficients must be integers or Fractions, got %r" % (value,))


class _Sum(dict):
    """One sum of term products, ``out`` of ``_add_product``: a map from each
    exponent to an unreduced ``(numerator, denominator)`` pair of ints, the
    denominator positive and the numerator nonzero.  No ``Fraction`` is
    built while the sum runs; ``finish`` reduces each pair once, at the end.
    An accumulator serves one sum and is dropped after ``finish``."""

    __slots__ = ()

    def finish(self):
        """The terms of the sum, each coefficient in the form of
        ``_coefficient``: an int when the denominator divides the numerator,
        else a Fraction in lowest terms."""
        out = {}
        for exp, (n, d) in self.items():
            if d != 1:
                g = gcd(n, d)
                n = n // d if g == d else Fraction(n // g, d // g)
            out[exp] = n
        return out


def _add_product(out, a, b, scale=1):
    """``out += scale * a * b`` for term dicts ``a`` and ``b`` of one arity, a
    ``_Sum`` ``out`` and a nonzero rational ``scale`` (an int or a Fraction),
    which a table sum uses to carry a term's coefficient.  A coefficient that
    cancels is deleted.  Equal denominators add directly, unequal ones over
    their lcm, so the pairs of a sum grow no faster than the lcm of its terms.
    This is the one product loop outside the Groebner kernel: ``__mul__``,
    derivations, algebra maps, the monomial tables and the pseudoalgebra sums
    all call it, and they leave zero operands out."""
    get = out.get
    b = b.items()
    sn, sd = scale.numerator, scale.denominator
    for e1, c1 in a.items():
        if type(c1) is int:
            n1, d1 = c1 * sn, sd
        else:
            n1, d1 = c1.numerator * sn, c1.denominator * sd
        shift = any(e1)  # a constant term of ``a`` keeps the exponents of ``b``
        for e2, c2 in b:
            exp = tuple(map(_add, e1, e2)) if shift else e2
            if type(c2) is int:
                n, d = n1 * c2, d1
            else:
                n, d = n1 * c2.numerator, d1 * c2.denominator
            acc = get(exp)
            if acc is not None:
                n0, d0 = acc
                if d0 == d:
                    n += n0
                else:
                    g = gcd(d0, d)
                    n = n * (d0 // g) + n0 * (d // g)
                    d *= d0 // g
                if not n:
                    del out[exp]
                    continue
            out[exp] = (n, d)


class MPoly:
    """A multivariate polynomial with a fixed arity.

    ``terms`` maps exponent tuples to nonzero coefficients in the one form
    of ``_coefficient``; zero coefficients are never stored, so equality of
    polynomials is dict equality.

    ``MPoly(arity, terms)`` validates: it copies ``terms``, checks every
    exponent and brings every coefficient into that form.  The document
    loaders and the public constructors build through it.  Arithmetic on
    polynomials that are already valid, and the parser, which builds its
    own term dict, build their results with ``MPoly._raw``, which trusts
    a fresh dict and neither copies nor checks it.  Polynomials are never
    mutated after construction.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(exp)
                if len(exp) != arity:
                    raise ValueError(
                        "exponent %r does not match arity %d" % (exp, arity)
                    )
                if any(type(e) is not int or e < 0 for e in exp):
                    if not all(isinstance(e, int) for e in exp):
                        raise ValueError("non-integer exponent in %r" % (exp,))
                    if any(e < 0 for e in exp):
                        raise ValueError("negative exponent in %r" % (exp,))
                    exp = tuple(map(int, exp))  # bools
                coeff = _coefficient(coeff)
                if coeff:
                    clean[exp] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def _raw(cls, arity, terms):
        """Trusted constructor: ``terms`` is a dict that no other polynomial
        holds, from exponent tuples of length ``arity`` with no negative
        entry to nonzero coefficients in the form of ``_coefficient``.  It is
        neither copied nor checked."""
        p = _new(cls)
        p.arity = arity
        p.terms = terms
        return p

    @classmethod
    def zero(cls, arity):
        return cls._raw(arity, {})

    @classmethod
    def const(cls, arity, value):
        value = _coefficient(value)
        if not value:
            return cls(arity)
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def one(cls, arity):
        return cls.const(arity, 1)

    @classmethod
    def variable(cls, arity, index):
        if not 0 <= index < arity:
            raise ValueError("variable index %d out of range for arity %d" % (index, arity))
        exp = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exp: 1})

    @classmethod
    def monomial(cls, arity, exp, coeff=1):
        return cls(arity, {tuple(exp): coeff})

    # -- predicates / accessors ---------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.arity, 0)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _check_same_arity(self, other):
        if self.arity != other.arity:
            raise ValueError(
                "arity mismatch: %d vs %d" % (self.arity, other.arity)
            )

    def __add__(self, other):
        if type(other) is not MPoly and not isinstance(other, MPoly):
            other = MPoly.const(self.arity, other)
        self._check_same_arity(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            acc = terms.get(exp)
            if acc is None:
                terms[exp] = c
            else:
                acc += c
                if acc:
                    terms[exp] = _coefficient(acc)
                else:
                    del terms[exp]
        return MPoly._raw(self.arity, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not MPoly and not isinstance(other, MPoly):
            other = MPoly.const(self.arity, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not MPoly and not isinstance(other, MPoly):
            return self.scale(other)
        self._check_same_arity(other)
        if not self.terms or not other.terms:
            return MPoly._raw(self.arity, {})
        out = _Sum()
        _add_product(out, self.terms, other.terms)
        return MPoly._raw(self.arity, out.finish())

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value):
        value = _coefficient(value)
        if not value:
            return MPoly._raw(self.arity, {})
        return MPoly._raw(self.arity, {e: _coefficient(c * value) for e, c in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MPoly.one(self.arity)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def partial(self, index):
        """Formal partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.arity:
            raise ValueError("variable index out of range")
        out = {}
        for exp, c in self.terms.items():
            e = exp[index]
            if e:
                # distinct exponents stay distinct when lowered, so no sum
                out[exp[:index] + (e - 1,) + exp[index + 1 :]] = _coefficient(c * e)
        return MPoly._raw(self.arity, out)

    def lift(self, arity, offset=0):
        """Reinterpret in a larger variable list, shifting variables by ``offset``."""
        if offset < 0 or offset + self.arity > arity:
            raise ValueError("lift does not fit target arity")
        before = (0,) * offset
        after = (0,) * (arity - offset - self.arity)
        return MPoly._raw(arity, {before + exp + after: c for exp, c in self.terms.items()})

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.arity, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self):
        return "MPoly(%d, %r)" % (self.arity, self.terms)

    def __bool__(self):
        return bool(self.terms)


# -- text format -------------------------------------------------------


class PolyParseError(ValueError):
    """Syntax error in the polynomial grammar, with 1-based position."""

    def __init__(self, message, line, column):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


_NAME = "[A-Za-z_][A-Za-z_0-9]*"
# one token per match after ASCII whitespace: a number, a name, an operator,
# or any other character, which the grammar rejects
_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|(%s)|([-+*/^])|(\S))" % _NAME, re.ASCII)


# CPython refuses int <-> str conversions of more than 4,300 digits by default
# (sys.get_int_max_str_digits); longer numbers are split into pieces this long
_DIGITS = 4000


def _read_int(digits):
    """``int(digits)`` for a string of ASCII digits of any length."""
    if len(digits) <= _DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _read_int(digits[:-k]) * 10**k + _read_int(digits[-k:])


def _int_text(n):
    """``str(n)`` for an int n >= 0 of any size."""
    if n.bit_length() <= 3 * _DIGITS:  # at most 3,613 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # 10**k is about the square root of n
    high, low = divmod(n, 10**k)
    return _int_text(high) + _int_text(low).zfill(k)


def is_variable_name(name):
    """True when the grammar reads ``name`` as one variable name."""
    return re.fullmatch(_NAME, name) is not None


def _line_col(text, index):
    line = text.count("\n", 0, index) + 1
    last_nl = text.rfind("\n", 0, index)
    return line, index - last_nl


def _fail(text, tokens, k, message):
    """Raise ``message`` at token ``k``, or at the first character outside the
    grammar if there is one; only now are token positions worked out."""
    bad = next((j for j, token in enumerate(tokens) if token[3]), None)
    if bad is not None:
        k, message = bad, "unexpected character %r" % tokens[bad][3]
    starts = [m.start(m.lastindex) for m in _TOKEN_RE.finditer(text)]
    raise PolyParseError(message, *_line_col(text, starts[k] if k < len(starts) else len(text)))


def parse_poly(text, names):
    """Parse a polynomial in the declared variables ``names``.

    Grammar: ``poly := [-] term {(+|-) term}``; ``term := factor {* factor}``;
    ``factor := int [/ int] | name [^ int]``, in ASCII, with ASCII whitespace
    between tokens.  One regex scan splits the text into tokens.  The
    grammar has no parentheses, so it is read term by term: each term
    becomes one exponent list and one coefficient, and the terms are summed
    in a dict of exponent tuples, with no polynomial arithmetic.
    """
    arity = len(names)
    if text == "0":  # most structure-table entries: no tokens needed
        return MPoly._raw(arity, {})
    index = {name: i for i, name in enumerate(names)}
    tokens = _TOKEN_RE.findall(text)
    end = len(tokens)
    tokens.append(("", "", "", ""))  # the end
    terms = {}
    k, sign = (1, -1) if tokens[0][2] == "-" else (0, 1)
    while True:
        num, den, exp = sign, 1, [0] * arity
        while True:  # one term
            number, name, _, _ = tokens[k]
            if number:
                num *= int(number) if len(number) <= _DIGITS else _read_int(number)
                k += 1
                if tokens[k][2] == "/":
                    d = tokens[k + 1][0]
                    if not d:
                        _fail(text, tokens, k + 1, "expected denominator")
                    d = int(d) if len(d) <= _DIGITS else _read_int(d)
                    if not d:
                        _fail(text, tokens, k + 2, "zero denominator")
                    den *= d
                    k += 2
            elif name:
                i = index.get(name)
                if i is None:
                    _fail(text, tokens, k, "unknown variable %r" % name)
                k += 1
                if tokens[k][2] == "^":
                    e = tokens[k + 1][0]
                    if not e:
                        _fail(text, tokens, k + 1, "expected exponent")
                    if len(e) > _DIGITS:
                        _fail(text, tokens, k + 1, "exponent too large")
                    exp[i] += int(e)
                    k += 2
                else:
                    exp[i] += 1
            else:
                _fail(text, tokens, k, "expected a coefficient or variable")
            if tokens[k][2] != "*":
                break
            k += 1
        if num:
            key = tuple(exp)
            coeff = num if den == 1 else Fraction(num, den)
            acc = terms.get(key)
            if acc is not None:
                coeff += acc
            if coeff:
                terms[key] = _coefficient(coeff)
            else:
                del terms[key]
        if k == end:
            return MPoly._raw(arity, terms)
        op = tokens[k][2]
        if op != "+" and op != "-":
            _fail(text, tokens, k, "expected '+' or '-'")
        sign = 1 if op == "+" else -1
        k += 1


def poly_to_string(p, names, order="grevlex"):
    """Canonical rendering; ``parse_poly`` inverts it exactly."""
    if len(names) != p.arity:
        raise ValueError("name list does not match arity")
    if p.is_zero():
        return "0"
    terms = p.terms
    pieces = []
    for exp in sorted(terms, key=order_key(order), reverse=True):
        coeff = terms[exp]
        num, den = coeff.numerator, coeff.denominator
        mag = _int_text(abs(num)) if den == 1 else _int_text(abs(num)) + "/" + _int_text(den)
        mono = "*".join([name if e == 1 else "%s^%d" % (name, e) for name, e in zip(names, exp) if e])
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = mag + "*" + mono
        pieces.append((" - " if num < 0 else " + ") + body)
    first = pieces[0]
    return ("-" if first[1] == "-" else "") + first[3:] + "".join(pieces[1:])


def monomials_up_to(arity, degree):
    """All exponent tuples of total degree <= degree, in grevlex order."""
    return sorted((e for e in product(range(degree + 1), repeat=arity) if sum(e) <= degree), key=grevlex_key)
