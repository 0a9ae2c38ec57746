"""Property tests for the Laurent ring (hypothesis): axioms, a sympy oracle,
the text round trip, the term order, gcd divisibility and hashing."""

import math
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidrep.ring import (
    ONE,
    ZERO,
    RatFunc,
    canonical_string,
    integer,
    parse_poly,
    poly_gcd,
    sum_of_products,
    variable,
)

NAMES = ("q", "t", "w", "u", "v", "a", "b", "c")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def monomial(exps):
    term = integer(1)
    for name, e in zip(NAMES, exps):
        term = term * variable(name, e)
    return term


def exponents(max_exp):
    return st.tuples(*[st.integers(-max_exp, max_exp)] * len(NAMES))


def polys(max_terms=4, max_exp=3):
    terms = st.lists(st.tuples(st.integers(-5, 5), exponents(max_exp)), max_size=max_terms)
    return terms.map(lambda ts: sum((c * monomial(e) for c, e in ts), ZERO))


def factors():
    """Polynomials, constants (zero included) and single terms."""
    constants = st.integers(-5, 5).map(integer)
    terms = st.tuples(st.integers(-5, 5).filter(bool), exponents(3))
    return st.one_of(polys(), constants, terms.map(lambda ce: ce[0] * monomial(ce[1])))


def to_sympy(p):
    import sympy

    syms = sympy.symbols(NAMES)
    return sum(
        (c * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
         for exps, c in p.exponent_terms().items()),
        sympy.Integer(0),
    )


def graded_lex(exps):
    """The canonical order as an explicit tuple key: total degree, then q, t, ..."""
    full = exps + (0,) * (len(NAMES) - len(exps))
    return (sum(full), full)


@SETTINGS
@given(polys(), polys(), polys())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x


@SETTINGS
@given(polys(), polys())
def test_products_agree_with_sympy(x, y):
    sympy = pytest.importorskip("sympy")
    assert sympy.expand(to_sympy(x) * to_sympy(y) - to_sympy(x * y)) == 0


@SETTINGS
@given(polys(max_terms=6))
def test_parse_inverts_canonical_string(p):
    assert parse_poly(canonical_string(p)) == p


@SETTINGS
@given(polys(max_terms=6))
def test_leading_is_graded_lex_maximum(p):
    if p.is_zero():
        return
    terms = p.exponent_terms()
    top = max(terms, key=graded_lex)
    assert p.leading() == (monomial(top).leading()[0], terms[top])
    # Canonical strings list terms in descending order, the leading term first.
    first = canonical_string(p).split(" ")[0].lstrip("-")
    assert parse_poly(first) == monomial(top) * abs(terms[top])


@SETTINGS
@given(polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2),
       polys(max_terms=2, max_exp=2))
def test_gcd_divides_both(x, y, z):
    x, y = x * z, y * z
    if x.is_zero() and y.is_zero():
        return
    g = poly_gcd(x, y)
    assert g.divides(x) and g.divides(y)
    # A common factor survives, up to the units the normalisation removes.
    assert z.is_zero() or poly_gcd(z, ZERO).divides(g)


@SETTINGS
@given(st.lists(st.tuples(factors(), factors()), max_size=6), st.booleans())
@example([], False)
def test_sum_of_products_is_the_sum_of_each_product(pairs, cancel):
    if cancel:
        # Each pair followed by (-x, y), so that every product cancels exactly.
        pairs = [p for x, y in pairs for p in ((x, y), (-x, y))]
    expected = reduce(add, (x * y for x, y in pairs), ZERO)
    got = sum_of_products(iter(pairs))
    assert got == expected and hash(got) == hash(expected)
    assert canonical_string(got) == canonical_string(expected)
    if cancel or not pairs:
        assert expected == ZERO
    if expected == ZERO:
        assert not got and got == ZERO and got == 0 and hash(got) == hash(ZERO)


@SETTINGS
@given(polys(), polys(), st.fractions(max_denominator=50))
def test_equal_values_hash_alike(x, y, f):
    pairs = [
        (x * y, y * x),
        ((x + y) - y, x),
        (parse_poly(canonical_string(x)), x),
        (RatFunc(x), x),
        (RatFunc.from_fraction(f), Fraction(f)),
    ]
    if x.is_constant():
        pairs.append((x, x.constant_value()))
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)


@SETTINGS
@given(polys(max_terms=5), st.integers(-60, 60).filter(bool), exponents(2))
def test_constant_denominator_normal_form(num, d, shift):
    """num / (d * x^shift) reduces to a numerator and a positive integer
    denominator with coprime contents, as by the reference below and sympy."""
    sympy = pytest.importorskip("sympy")
    r = RatFunc(num, d * monomial(shift))
    # Reference: fold the monomial into the numerator, divide both by the
    # gcd of the contents, and make the denominator positive.
    folded = num * monomial(tuple(-e for e in shift))
    terms = folded.exponent_terms()
    g = math.gcd(d, *terms.values())
    sign = -1 if d < 0 else 1
    expected_num = sum((sign * c // g * monomial(e) for e, c in terms.items()), ZERO)
    expected_den = integer(abs(d) // g) if terms else ONE
    assert (r.num, r.den) == (expected_num, expected_den)
    given_value = to_sympy(num) / (d * to_sympy(monomial(shift)))
    assert sympy.cancel(given_value - to_sympy(r.num) / to_sympy(r.den)) == 0


Q, T = variable("q"), variable("t")


@SETTINGS
@given(polys(), polys(), st.integers(-12, 12).filter(bool), st.integers(-12, 12).filter(bool))
@example(3 * Q - T, -3 * Q + T, 4, 4)  # the sum cancels to zero
@example(2 * Q, 2 * Q, 4, 4)  # q/2 + q/2 = q: denominator 1
@example(3 * Q, 2 * Q, 9, -6)  # different denominators, one negative
@example(-3 * T, -6 * Q * T, 2, 4)  # negative numerators
def test_integer_denominator_arithmetic_matches_the_general_construction(n1, n2, d1, d2):
    """+, - and * of fractions over ints give the form the constructor gives."""
    x, y = RatFunc(n1, d1), RatFunc(n2, d2)
    cases = [
        (x + y, RatFunc(n1 * d2 + n2 * d1, d1 * d2), n1 * d2 + n2 * d1),
        (x - y, RatFunc(n1 * d2 - n2 * d1, d1 * d2), n1 * d2 - n2 * d1),
        (x * y, RatFunc(n1 * n2, d1 * d2), n1 * n2),
    ]
    for got, expected, num in cases:
        assert (got.num, got.den) == (expected.num, expected.den)
        assert str(got) == str(expected) and hash(got) == hash(expected) and got == expected
        # Independently of the constructor: the same value, in lowest terms.
        d = got.den.constant_value()
        assert got.num * (d1 * d2) == num * d
        assert d > 0 and math.gcd(d, *got.num.exponent_terms().values()) == 1
