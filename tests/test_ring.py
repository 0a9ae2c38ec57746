import random
import time
from fractions import Fraction

import pytest

from braidrep.ring import (
    _VAR_NAMES,
    ONE,
    ZERO,
    LaurentPoly,
    NotDivisibleError,
    ParseError,
    RatFunc,
    _exponents,
    canonical_string,
    integer,
    parse_poly,
    parse_ratfunc,
    poly_gcd,
    sum_of_products,
    variable,
)
from conftest import rand_poly

q = variable("q")
t = variable("t")
w = variable("w")


def test_basic_arithmetic():
    assert (q - 1) * (q + 1) == q ** 2 - 1
    assert t * variable("q", -1) * q == t
    assert (1 - q) + (q - 1) == ZERO
    assert (q + t) ** 2 == q ** 2 + 2 * q * t + t ** 2


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        (q + 1) ** -1


def test_exact_division():
    assert (q ** 2 - 1).exact_div(q - 1) == q + 1
    x = t * q * (q - 1)
    assert x.exact_div(x) == ONE
    with pytest.raises(NotDivisibleError):
        (q + 1).exact_div(q - 1)
    with pytest.raises(ZeroDivisionError):
        q.exact_div(ZERO)


def test_exact_division_with_laurent_parts():
    x = variable("q", -3) * (t - 1)
    y = variable("q", -1)
    assert x.exact_div(y) == variable("q", -2) * (t - 1)


def test_gcd_golden():
    assert poly_gcd(q ** 2 - 1, q ** 2 - 2 * q + 1) == q - 1
    assert poly_gcd(t * q * (q - 1), ZERO) == q - 1  # normalized: unit monomial folded
    g = poly_gcd(t * q * (q - 1), q * (q - 1) ** 2)
    # Derived check: divides both ways and the reduced parts are coprime up to units.
    assert g.divides(t * q * (q - 1)) and g.divides(q * (q - 1) ** 2)
    ra = (t * q * (q - 1)).exact_div(g)
    rb = (q * (q - 1) ** 2).exact_div(g)
    assert poly_gcd(ra, rb).is_constant()
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)


def test_gcd_random_products():
    rng = random.Random(20240)
    for _ in range(40):
        a = rand_poly(rng, terms=3)
        b = rand_poly(rng, terms=3)
        c = rand_poly(rng, terms=2)
        if a.is_zero() or b.is_zero() or c.is_zero():
            continue
        g = poly_gcd(a * c, b * c)
        assert g.divides(a * c) and g.divides(b * c)
        assert poly_gcd((a * c).exact_div(g), (b * c).exact_div(g)).is_constant()


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(1000):
        a = rand_poly(rng, terms=2, laurent=True)
        b = rand_poly(rng, terms=2, laurent=True)
        c = rand_poly(rng, terms=2, laurent=True)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_exact_div_of_product_recovers_factor():
    rng = random.Random(99)
    for _ in range(200):
        x = rand_poly(rng, terms=3, laurent=True)
        y = rand_poly(rng, terms=2, laurent=True)
        if y.is_zero():
            continue
        assert (x * y).exact_div(y) == x


def test_eval():
    assert (q ** 2 * t).evaluate({"q": 2, "t": 3}) == 12
    assert (q ** 6 * t ** 2 - w ** 3).evaluate({"q": 2, "t": 1, "w": 1}) == 63
    with pytest.raises(ZeroDivisionError):
        variable("q", -1).evaluate({"q": 0})
    with pytest.raises(ValueError):
        (q * t).evaluate({"q": 1})


def test_eval_is_ring_homomorphism():
    rng = random.Random(31)
    for _ in range(100):
        a = rand_poly(rng, terms=3, laurent=True)
        b = rand_poly(rng, terms=3, laurent=True)
        point = {
            "q": Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            "t": Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        }
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_parse_and_canonical_string():
    p = parse_poly("q^6*t^2 - w^3")
    assert p == q ** 6 * t ** 2 - w ** 3
    assert canonical_string(p) == "q^6*t^2 - w^3"
    assert parse_poly("0") == ZERO and canonical_string(ZERO) == "0"
    assert parse_poly("-t*q^-1 + t*q^-1") == ZERO
    assert parse_poly("2*q") == 2 * q
    with pytest.raises(ParseError):
        parse_poly("q +")
    with pytest.raises(ParseError):
        parse_poly("x1y2")


def _ref_canonical_string(poly):
    """The per-field formatter: all eight exponents of every term, decoded
    through _exponents."""
    if not poly.terms:
        return "0"
    parts = []
    for i, mono in enumerate(sorted(poly.terms, reverse=True)):
        coeff = poly.terms[mono]
        mag = abs(coeff)
        factors = [name if exp == 1 else f"{name}^{exp}"
                   for name, exp in zip(_VAR_NAMES, _exponents(mono)) if exp]
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if i == 0:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


def test_canonical_string_matches_the_per_field_formatter():
    """Polynomials in all eight variables, with negative exponents, terms of
    coefficient +-1 and a constant term, some terms missing some variables."""
    rng = random.Random(1907)
    seen = set()
    for _ in range(300):
        poly = rng.choice((-1, 1, 7)) + rand_poly(rng, names=_VAR_NAMES, terms=rng.randint(1, 4),
                                                  max_exp=3, max_coeff=1, laurent=True)
        for _ in range(rng.randint(0, 3)):
            names = rng.sample(_VAR_NAMES, rng.randint(1, 8))
            poly = poly + rand_poly(rng, names=names, terms=1, max_exp=3, max_coeff=4, laurent=True)
        assert canonical_string(poly) == _ref_canonical_string(poly), poly.terms
        for mono, coeff in poly.terms.items():
            exps = _exponents(mono)
            seen.update(name for name, e in zip(_VAR_NAMES, exps) if e < 0)
            seen.add("constant" if not any(exps) else abs(coeff) == 1)
    assert seen == {*_VAR_NAMES, "constant", True, False}


# Every polynomial printed alongside the constructions this library
# reproduces; round-tripping them pins the text grammar.
PRINTED_CORPUS = [
    "q^2*t",
    "q^2*t - q*t",
    "1 - q",
    "-q",
    "q^2 - q",
    "1 - t",
    "1 - t + a*t",
    "t - a*t",
    "1 - a",
    "q^6*t^2 - w^3",
    "q^12*t^4 - w^3",
    "-q^9*t^3 - w^3 + q^3*t*w^2 + q^6*t^2*w",
    "q^12*t^3 + w^6 - q^4*t*w^4 - q^8*t^2*w^2",
    "-q^6*t^2*w^3 + 1",
    "q^2*t - q^2*t*w^3 - q*w^2 + q^4*t^2*w^2 - q^3*t^2*w^2 - q^3*t*w^2 + 2*q^2*t*w^2"
    " - q*t*w^2 + w^2 + q*w - q^4*t^2*w + q^3*t^2*w + q^3*t*w - 2*q^2*t*w + q*t*w - w",
    "q^2*u*t + v",
    "u - u*q + v",
    "u*q",
    "u + v",
    "v^2 + v*u - v*u*q - u^2*q",
    "-t^2 - t^-2",
    "t*q - t",
    "q^2*t + q - 1",
    "4*t*u^6 + v^6 - 2*q*u*v^5 + q^2*t*u*v^5 + 3*u*v^5",
]


@pytest.mark.parametrize("text", PRINTED_CORPUS)
def test_round_trip_on_printed_corpus(text):
    p = parse_poly(text)
    assert parse_poly(canonical_string(p)) == p


def test_ratfunc_normalization():
    r = RatFunc(1, q - 1)
    assert str(r) == "(1)/(q - 1)"
    assert r * (q - 1) == 1
    neg = RatFunc(-t * q ** 2, q - 1)
    assert neg.inverse() * neg == 1
    # inverse of -tq^2/(q-1) folds the unit monomial into the numerator
    inv = neg.inverse()
    assert inv.den.is_one()
    assert inv.as_laurent() == variable("q", -2) * variable("t", -1) * (1 - q)
    with pytest.raises(ZeroDivisionError):
        RatFunc(ZERO, ZERO + 0).inverse()
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, ZERO)


def test_ratfunc_normalization_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        num = rand_poly(rng, terms=3, laurent=True)
        den = rand_poly(rng, terms=2, laurent=True)
        if den.is_zero():
            continue
        r = RatFunc(num, den)
        again = RatFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        # denominator invariants
        if not r.is_zero():
            # the least exponent of each variable in the denominator is 0
            assert r.den.monomial_gcd() == ONE.monomial_gcd()
            assert r.den.leading()[1] > 0


def test_ratfunc_arithmetic_and_fractions():
    half = RatFunc.from_fraction(Fraction(1, 2))
    assert half + half == 1
    r = RatFunc(q - 1, 2)
    assert r * 2 == q - 1
    assert (RatFunc(1, q - 1) + RatFunc(1, q + 1)) == RatFunc(2 * q, q ** 2 - 1)
    assert RatFunc(2 * q - 2, 2) == q - 1


def test_ratfunc_eval():
    r = RatFunc(q + 1, q - 1)
    assert r.evaluate({"q": 3}) == 2
    with pytest.raises(ZeroDivisionError):
        r.evaluate({"q": 1})


def test_parse_ratfunc():
    r = parse_ratfunc("(-q^6*t^2*w^3 + 1)/(q^6*t^2)")
    assert r == RatFunc(-q ** 6 * t ** 2 * w ** 3 + 1, q ** 6 * t ** 2)
    assert parse_ratfunc("q - 1") == RatFunc(q - 1)
    assert parse_ratfunc(str(r)) == r


# Every exponent and every total degree lies in [-2^30, 2^30 - 1].
LOW, HIGH = -2 ** 30, 2 ** 30 - 1
NAMES = ("q", "t", "w", "u", "v", "a", "b", "c")


@pytest.mark.parametrize("name", NAMES)
def test_exponent_bound_in_each_variable(name):
    x = variable(name)
    assert variable(name, HIGH).degree(name) == HIGH
    assert variable(name, LOW).degree(name) == LOW
    for bad in (HIGH + 1, LOW - 1):
        with pytest.raises(OverflowError):
            variable(name, bad)
    assert variable(name, HIGH - 1) * x == variable(name, HIGH)
    assert variable(name, LOW + 1) * variable(name, -1) == variable(name, LOW)
    with pytest.raises(OverflowError):
        variable(name, HIGH) * x
    with pytest.raises(OverflowError):
        variable(name, LOW) * variable(name, -1)
    # The other terms of a product stay in range; one bad term is enough.
    with pytest.raises(OverflowError):
        (variable(name, HIGH) + 1) * (x + 1)
    assert sum_of_products([(variable(name, HIGH - 1), x)]) == variable(name, HIGH)
    with pytest.raises(OverflowError):
        sum_of_products([(ONE, x), (variable(name, HIGH), x)])
    with pytest.raises(OverflowError):
        sum_of_products([(variable(name, LOW), variable(name, -1))])
    # A term product out of range raises even where the sum cancels it.
    with pytest.raises(OverflowError):
        sum_of_products([(variable(name, HIGH), x), (-variable(name, HIGH), x)])
    mono = x.leading()[0]
    assert variable(name, HIGH - 1).shift(mono) == variable(name, HIGH)
    assert variable(name, LOW + 1).unshift(mono) == variable(name, LOW)
    with pytest.raises(OverflowError):
        variable(name, HIGH).shift(mono)
    with pytest.raises(OverflowError):
        variable(name, LOW).unshift(mono)


def test_total_degree_bound():
    half = 2 ** 29
    top = variable("q", half) * variable("c", half - 1)
    assert canonical_string(top) == f"q^{half}*c^{half - 1}"
    bottom = variable("t", -half) * variable("b", -half)
    assert canonical_string(bottom) == f"t^-{half}*b^-{half}"
    with pytest.raises(OverflowError):
        top * variable("w")
    with pytest.raises(OverflowError):
        bottom * variable("a", -1)
    # Each product is bounded on its own: top * w raises, but not a product
    # that reaches the same factors through in-range intermediates.
    assert (top * variable("v", -1)) * variable("w") == top * (variable("w") * variable("v", -1))


def test_parse_bound_reports_the_term():
    assert parse_poly(f"q^{HIGH} + t^{LOW}") == variable("q", HIGH) + variable("t", LOW)
    assert parse_poly(canonical_string(variable("c", LOW))) == variable("c", LOW)
    for text, position in ((f"q^{HIGH + 1}", 0), (f"1 + t^{LOW - 1}", 4),
                           (f"q - 2*q^{2 ** 29}*t^{2 ** 29}", 4), ("q^" + "9" * 5000, 0)):
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.position == position


LONG = 10 ** 5
LONG_INPUTS = {
    "spaces after a caret": ("q^" + " " * LONG + "x", ParseError),
    "spaces after a variable": ("q" + " " * LONG + "x", ParseError),
    "spaces after a star": ("q *" + " " * LONG, ParseError),
    "spaces after a sign": ("-" + " " * LONG + "!", ParseError),
    "25,000 terms": (" + ".join(["q"] * 25_000), 25_000 * q),
}


@pytest.mark.parametrize("text, expected", LONG_INPUTS.values(), ids=LONG_INPUTS)
def test_parse_work_is_bounded(text, expected):
    """About 10^5 characters parse or fail in linear time: a whitespace run
    before a bad token is not re-read once per place it could be split."""
    start = time.perf_counter()
    if expected is ParseError:
        with pytest.raises(ParseError):
            parse_poly(text)
    else:
        assert parse_poly(text) == expected
    assert time.perf_counter() - start < 1.0


def test_exact_division_at_the_bound():
    top = variable("q", HIGH - 1)
    assert (top * t - top).exact_div(t - 1) == top
    assert (top * (t - 1)).exact_div(top) == t - 1
