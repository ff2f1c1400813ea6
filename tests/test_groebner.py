import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lra import groebner
from lra.budget import ResourceCapExceeded, step_budget
from lra.groebner import IdealPres, buchberger, normal_form
from lra.poly import MPoly, order_key

from conftest import coefficient_form, s_polynomial

from test_poly import small_polys

X = MPoly.variable(2, 0)
Y = MPoly.variable(2, 1)
T = MPoly.variable(1, 0)


def test_normal_form_worked_examples():
    assert IdealPres(1, [T ** 2]).normal_form(T ** 2).is_zero()
    p = T ** 3 + 2 * T
    assert IdealPres(1, []).normal_form(p) == p
    # oracle: the reduced basis of <x^2+y, y> is {y, x^2}, computed by hand;
    # x^3 = x * x^2 reduces to zero against it
    hand_basis = [Y, X ** 2]
    assert normal_form(X ** 3, hand_basis).is_zero()
    assert IdealPres(2, [X ** 2 + Y, Y]).normal_form(X ** 3).is_zero()


def test_buchberger_worked_examples():
    assert buchberger([X ** 2 + Y, Y]) == [Y, X ** 2]
    assert buchberger([T]) == [T]
    # oracle: 1 = x - (x - 1) lies in the ideal
    assert buchberger([T - 1, T]) == [MPoly.one(1)]


def test_buchberger_output_is_groebner():
    gens = [X ** 2 + Y ** 2 - 1, X * Y - 1]
    basis = buchberger(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j])
            assert normal_form(s, basis).is_zero()


def test_normal_form_depends_only_on_residue_class():
    ideal = IdealPres(2, [X ** 2 + Y, Y])
    p = X * Y + X ** 3
    shifted = p + (X + 3) * (X ** 2 + Y) - Y * Y
    assert ideal.normal_form(p) == ideal.normal_form(shifted)


def test_ideal_membership_examples():
    ideal = IdealPres(2, [X ** 2 + Y, Y])
    assert ideal.normal_form(X ** 2 + Y).is_zero()
    assert not IdealPres(1, [T ** 2]).normal_form(T).is_zero()
    assert ideal.normal_form(MPoly.zero(2)).is_zero()


def test_trivial_ideal_detected():
    assert IdealPres(1, [T, T - 1]).is_trivial()
    assert not IdealPres(1, [T ** 2]).is_trivial()
    assert IdealPres(1, []).is_empty()


def test_step_cap_raises():
    with step_budget(3), pytest.raises(ResourceCapExceeded, match="step cap of 3 exhausted"):
        buchberger([X ** 3 + Y, X * Y + 1, Y ** 2 - X])


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        IdealPres(1, [X])
    with pytest.raises(ValueError):
        IdealPres(2, [X]).normal_form(T)


TEST_IDEALS = [
    IdealPres(2, []),
    IdealPres(2, [X ** 2 + Y, Y]),
    IdealPres(2, [X ** 3 - Y, X * Y ** 2]),
]


def _random_poly(rng, arity=2, terms=4, max_exp=3):
    out = {}
    for _ in range(rng.randint(0, terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(arity))
        out[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MPoly(arity, out)


@pytest.mark.parametrize("ideal", TEST_IDEALS, ids=["empty", "x2+y,y", "x3-y,xy2"])
def test_normal_form_idempotent_and_ring_map(ideal):
    rng = random.Random(7)
    for _ in range(200):
        p = _random_poly(rng)
        q = _random_poly(rng)
        np, nq = ideal.normal_form(p), ideal.normal_form(q)
        assert ideal.normal_form(np) == np
        assert ideal.normal_form(p + q) == ideal.normal_form(np + nq)
        assert ideal.normal_form(p * q) == ideal.normal_form(np * nq)


@settings(max_examples=30, deadline=None)
@given(small_polys(max_terms=3, max_exp=3), small_polys(max_terms=3, max_exp=3))
def test_groebner_property_random_pairs(p, q):
    gens = [g for g in (p, q) if not g.is_zero()]
    if not gens:
        return
    with step_budget(10 ** 5):
        basis = buchberger(gens)
    for g in gens:
        assert normal_form(g, basis).is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_buchberger_three_variable_example():
    # elementary-symmetric generators; basis derived by back-substitution:
    # x = -y-z turns the second generator into -(y^2+yz+z^2) and the third
    # into z^3 - 1
    x3, y3, z3 = (MPoly.variable(3, i) for i in range(3))
    gens = [x3 + y3 + z3, x3 * y3 + y3 * z3 + z3 * x3, x3 * y3 * z3 - 1]
    basis = buchberger(gens)
    assert basis == [
        x3 + y3 + z3,
        y3 ** 2 + y3 * z3 + z3 ** 2,
        z3 ** 3 - 1,
    ]
    for g in gens:
        assert normal_form(g, basis).is_zero()


def test_buchberger_katsura_system():
    """A standard 4-variable benchmark stays fast and fully verified."""
    from lra.poly import parse_poly

    names = ("u0", "u1", "u2", "u3")

    def poly(text):
        return parse_poly(text, names)

    gens = [
        poly("u0 + 2*u1 + 2*u2 + 2*u3 - 1"),
        poly("u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0"),
        poly("2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1"),
        poly("u1^2 + 2*u0*u2 + 2*u1*u3 - u2"),
    ]
    basis = buchberger(gens)
    assert len(basis) == 7
    for g in gens:
        assert normal_form(g, basis).is_zero()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()
    # the reduced basis is a fixed point of the completion
    assert buchberger(basis) == basis


# -- sympy as an independent Groebner engine ----------------------------------


def _katsura(n):
    """Katsura-n in u_0..u_n: sum_l u_|l| u_|m-l| = u_m for m < n, plus the norm."""
    arity = n + 1

    def u(k, coeff=1):
        k = abs(k)
        if k > n:
            return {}
        return {tuple(1 if i == k else 0 for i in range(arity)): Fraction(coeff)}

    def add(*dicts):
        out = {}
        for d in dicts:
            for exp, c in d.items():
                out[exp] = out.get(exp, 0) + c
        return {exp: c for exp, c in out.items() if c}

    def mul(a, b):
        return add(*({tuple(x + y for x, y in zip(e1, e2)): c1 * c2} for e1, c1 in a.items() for e2, c2 in b.items()))

    gens = [add(u(0), *(u(i, 2) for i in range(1, arity)), {(0,) * arity: Fraction(-1)})]
    for m in range(n):
        gens.append(add(*(mul(u(l), u(m - l)) for l in range(-n, n + 1)), u(m, -1)))
    return arity, gens


def _cyclic(n):
    """Cyclic-n: the elementary cyclic sums of degree 1..n-1, and x_0...x_{n-1} - 1."""
    gens = []
    for d in range(1, n):
        gens.append({tuple(1 if (i - s) % n < d else 0 for i in range(n)): Fraction(1) for s in range(n)})
    gens.append({(1,) * n: Fraction(1), (0,) * n: Fraction(-1)})
    return n, gens


def _random_system(seed):
    rng = random.Random(seed)
    arity = 3
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exp = tuple(rng.randint(0, 2) for _ in range(arity))
            terms[exp] = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        gens.append(terms)
    return arity, gens


ORACLE_SYSTEMS = {
    "katsura-3": _katsura(3),
    "katsura-4": _katsura(4),
    "cyclic-4": _cyclic(4),
    **{"random-%d" % seed: _random_system(seed) for seed in range(6)},
}

# grevlex only: these take seconds in sympy's grevlex engine, and far longer under lex
LARGE_SYSTEMS = {"katsura-5": _katsura(5), "cyclic-5": _cyclic(5)}
ALL_SYSTEMS = {**ORACLE_SYSTEMS, **LARGE_SYSTEMS}

ORACLE_CASES = [pytest.param(name, "grevlex", id=name) for name in sorted(ALL_SYSTEMS)] + [
    pytest.param(name, order, id="%s-%s" % (name, order))
    for order in ("grlex", "lex")
    for name in sorted(ORACLE_SYSTEMS)
    if (name, order) != ("katsura-4", "lex")  # sympy's own lex completion takes about a minute
]

# steps each completion spends (reduction steps plus S-pairs taken), and the
# steps the normal forms of its ten sympy probes spend; a change of monomial or
# coefficient representation must not move them
ORACLE_STEPS = {
    "grevlex": {
        "cyclic-4": (37, 184), "cyclic-5": (1403, 569), "katsura-3": (102, 471), "katsura-4": (643, 1866),
        "katsura-5": (3317, 555), "random-0": (220, 30), "random-1": (8, 15), "random-2": (25, 26),
        "random-3": (10, 5), "random-4": (8, 76), "random-5": (108, 43),
    },
    "grlex": {
        "cyclic-4": (37, 184), "katsura-3": (129, 629), "katsura-4": (873, 2108),
        "random-0": (220, 30), "random-1": (8, 15), "random-2": (46, 26), "random-3": (27, 6),
        "random-4": (8, 76), "random-5": (155, 66),
    },
    "lex": {
        "cyclic-4": (97, 299), "katsura-3": (341, 776),
        "random-0": (194, 401), "random-1": (54, 114), "random-2": (52, 165), "random-3": (58, 45),
        "random-4": (2, 101), "random-5": (232, 385),
    },
}


def _oracle_probes(name, arity):
    """Five probes with integer coefficients, then five with denominators up to 7."""
    rng = random.Random(name)
    top = 2 if arity < 6 else 1  # sympy's division takes seconds on katsura-5 at higher degrees
    probes = []
    for rational in [False] * 5 + [True] * 5:
        probes.append({
            tuple(rng.randint(0, top) for _ in range(arity)):
                Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7) if rational else 1)
            for _ in range(4)
        })
    return probes


def _to_sympy(sympy, symbols, terms):
    return sympy.Poly.from_dict(
        {exp: sympy.Rational(c.numerator, c.denominator) for exp, c in terms.items()}, *symbols
    )


def _sympy_terms(poly):
    return frozenset((exp, Fraction(int(c.p), int(c.q))) for exp, c in poly.terms() if c)


def _sympy_basis(sympy, arity, gens, order):
    """sympy's reduced Groebner basis of the term dicts ``gens``, and its symbols."""
    symbols = sympy.symbols("v0:%d" % arity)
    reference = sympy.groebner([_to_sympy(sympy, symbols, g) for g in gens], *symbols, order=order, domain=sympy.QQ)
    return reference, symbols


@pytest.mark.parametrize("name, order", ORACLE_CASES)
def test_reduced_basis_matches_sympy(name, order):
    """The reduced basis and the normal forms agree with sympy's engine."""
    sympy = pytest.importorskip("sympy")
    arity, gens = ALL_SYSTEMS[name]
    reference, symbols = _sympy_basis(sympy, arity, gens, order)
    with step_budget(10 ** 6) as steps:
        ideal = IdealPres(arity, [MPoly(arity, g) for g in gens], order)
    completion_steps = steps.cap - steps.left
    assert {frozenset(g.terms.items()) for g in ideal.groebner} == set(map(_sympy_terms, reference.polys))
    probes = _oracle_probes(name, arity)
    with step_budget(10 ** 6) as steps:
        remainders = [ideal.normal_form(MPoly(arity, p)) for p in probes]
    assert (completion_steps, steps.cap - steps.left) == ORACLE_STEPS[order][name]
    for p, remainder in zip(probes, remainders):
        _, expected = reference.reduce(_to_sympy(sympy, symbols, p))
        assert frozenset(remainder.terms.items()) == _sympy_terms(expected)


def test_an_ideal_divides_by_the_basis_its_completion_prepared(monkeypatch):
    """Building an ideal prepares nothing: it keeps the primitive integer entries
    that completion ended with, and preparing its monic basis afresh gives them back."""
    prepare, calls = groebner._prepare, []
    monkeypatch.setattr(groebner, "_prepare", lambda *args: calls.append(args) or prepare(*args))
    ideals = [IdealPres(2, [X ** 2 + Y, Y]), IdealPres(2, [3 * X ** 2 + Fraction(1, 2), X * Y - 5])]
    for name, order in (param.values for param in NARROW_CASES):
        arity, gens = ALL_SYSTEMS[name]
        ideals.append(IdealPres(arity, [MPoly(arity, g) for g in gens], order))
    assert not calls
    for ideal in ideals:
        pack, entries, unit_lcs = ideal._prepared
        fresh, fresh_entries, fresh_unit_lcs = prepare(
            ideal.groebner, groebner._Packing(ideal.order, ideal.arity, groebner._FIELD_BITS))
        assert (fresh.bits, fresh_entries, fresh_unit_lcs) == (pack.bits, entries, unit_lcs)
        assert unit_lcs == all(type(c) is int for g in ideal.groebner for c in g.terms.values())
    assert [ideal._prepared[2] for ideal in ideals[:2]] == [True, False]


_NONZERO = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_completion_ignores_order_and_scale_of_generators(data):
    """Permuted, rescaled generators give the same reduced basis, and it is sympy's."""
    sympy = pytest.importorskip("sympy")
    order = data.draw(st.sampled_from(["grevlex", "grlex", "lex"]))
    nonzero_polys = small_polys(arity=3, max_terms=3, max_exp=2).filter(lambda p: not p.is_zero())
    gens = data.draw(st.lists(nonzero_polys, min_size=1, max_size=3))
    permuted = data.draw(st.permutations(gens))
    scales = data.draw(st.lists(_NONZERO, min_size=len(gens), max_size=len(gens)))
    basis = buchberger(gens, order)
    assert buchberger([g.scale(c) for g, c in zip(permuted, scales)], order) == basis
    reference, _ = _sympy_basis(sympy, 3, [g.terms for g in gens], order)
    assert {frozenset(g.terms.items()) for g in basis} == set(map(_sympy_terms, reference.polys))


def test_normal_form_divides_by_monic_multiples():
    """Dividing by g or by g/lc(g) leaves one remainder, in the coefficient form."""
    arity, gens = _katsura(3)
    basis = buchberger([MPoly(arity, g) for g in gens])
    scaled = [g.scale(Fraction(-3 * k - 2, k + 1)) for k, g in enumerate(basis)]
    rng = random.Random(11)
    for _ in range(30):
        p = _random_poly(rng, arity=arity, terms=5, max_exp=3)
        remainder = normal_form(p, scaled)
        assert remainder == normal_form(p, basis)
        assert all(map(coefficient_form, remainder.terms.values()))
    # the same holds off a Groebner basis: division only ever sees g / lc(g)
    non_monic = [3 * X ** 2 + Y, Fraction(2, 3) * X * Y - 5]
    monic = [X ** 2 + Fraction(1, 3) * Y, X * Y - Fraction(15, 2)]
    for _ in range(30):
        p = _random_poly(rng)
        remainder = normal_form(p, non_monic)
        assert remainder == normal_form(p, monic)
        assert all(map(coefficient_form, remainder.terms.values()))


# -- packed keys -------------------------------------------------------------------

ORDERS = ["grevlex", "grlex", "lex"]


@st.composite
def _packed_pairs(draw):
    """A packing of random order, arity and width, and two exponents whose sum fits it."""
    order = draw(st.sampled_from(ORDERS))
    arity = draw(st.integers(0, 5))
    pack = groebner._Packing(order, arity, draw(st.sampled_from([2, 3, 5, 8, 16])))
    exps = st.tuples(*[st.integers(0, pack.mask // 2)] * arity)
    return pack, draw(exps), draw(exps)


@settings(max_examples=300, deadline=None)
@given(_packed_pairs())
def test_packed_keys_order_round_trip_add_and_divide(case):
    """Keys rank exponents as the order does (smaller key, larger monomial), decode back,
    add like exponents, and the cover word decides divisibility."""
    pack, a, b = case
    key = order_key(pack.order)
    ka, kb = (pack.key(e) for e in (a, b))
    assert (ka < kb) == (key(a) > key(b)) and (ka == kb) == (a == b)
    assert pack.exponent(ka) == a and pack.exponent(kb) == b
    assert pack.key(tuple(x + y for x, y in zip(a, b))) == ka + kb - pack.key((0,) * len(a))
    assert ((pack.cover - ka + kb) & pack.guards == pack.guards) == all(x <= y for x, y in zip(a, b))
    assert ka & pack.guards == pack.guards
    assert pack.keyed({a: 1}) == {ka: 1}


def test_exponents_outside_a_field_overflow():
    pack = groebner._Packing("grevlex", 2, 4)  # exponents up to 7
    assert pack.keyed({(7, 0): 1}) == {pack.key((7, 0)): 1}
    for exp in [(8, 0), (0, 16), (0, 17)]:
        with pytest.raises(groebner._Overflow):
            pack.keyed({exp: 1})
    assert pack.key((8, 0)) & pack.guards != pack.guards


NARROW_CASES = [param for param in ORACLE_CASES if param.values[0] not in LARGE_SYSTEMS]


@pytest.mark.parametrize("bits", [1, 3])
@pytest.mark.parametrize("name, order", NARROW_CASES)
def test_narrow_fields_change_no_basis_and_no_step(monkeypatch, bits, name, order):
    """Fields too narrow for the input or for the completion overflow and are widened:
    the basis, the steps spent and the normal forms stay those of the default width."""
    arity, gens = ALL_SYSTEMS[name]
    polys = [MPoly(arity, g) for g in gens]
    wide = IdealPres(arity, polys, order)
    rng = random.Random(name)
    probes = [_random_poly(rng, arity=arity, terms=3, max_exp=3) for _ in range(4)]
    widened = []
    monkeypatch.setattr(groebner, "_FIELD_BITS", bits)
    wider = groebner._Packing.wider
    monkeypatch.setattr(groebner._Packing, "wider", lambda pack: widened.append(pack.bits) or wider(pack))
    with step_budget(10 ** 6) as steps:
        narrow = IdealPres(arity, polys, order)
    if bits == 1:  # a one-bit field holds only the exponent 0
        assert widened
    assert narrow.groebner == wide.groebner
    assert [list(g.terms) for g in narrow.groebner] == [list(g.terms) for g in wide.groebner]
    assert steps.cap - steps.left == ORACLE_STEPS[order][name][0]
    for p in probes:
        expected, spent = wide.normal_form(p), set()
        for divide in (wide.normal_form, narrow.normal_form, lambda p: normal_form(p, wide.groebner, order)):
            with step_budget(10 ** 6) as steps:
                assert divide(p) == expected
            spent.add(steps.cap - steps.left)
        assert len(spent) == 1
