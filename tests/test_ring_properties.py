"""Property tests for the Laurent ring (hypothesis): axioms, a sympy oracle,
the text round trip, the term order, gcd divisibility and hashing."""

import math
import re
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidrep.ring import (
    _RANGE_ERROR,
    _VAR_INDEX,
    _VAR_NAMES,
    ONE,
    ZERO,
    LaurentPoly,
    Mono,
    ParseError,
    RatFunc,
    _pack,
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


# -- the text grammar against the scanner it replaced ---------------------------
#
# _ref_parse_poly is the hand-written scanner that parse_poly was before it
# became two regular expressions, copied verbatim as a test-only reference.

_INT_RE = re.compile(r"\d+")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _ref_parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical polynomial grammar (inverse of canonical_string)."""
    terms: dict[Mono, int] = {}
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == n:
        raise ParseError("empty polynomial", pos)
    first = True
    while pos < n:
        sign = 1
        pos = skip_ws(pos)
        if not first or (pos < n and text[pos] in "+-"):
            if pos >= n or text[pos] not in "+-":
                raise ParseError("expected '+' or '-'", pos)
            if text[pos] == "-":
                sign = -1
            pos = skip_ws(pos + 1)
        first = False
        term_pos = pos
        coeff: int | None = None
        exps: dict[int, int] = {}
        saw_factor = False
        expect_factor = True
        while True:
            pos = skip_ws(pos)
            if expect_factor:
                m = _INT_RE.match(text, pos)
                if m and coeff is None and not saw_factor:
                    coeff = int(m.group())
                    pos = m.end()
                    saw_factor = True
                    expect_factor = False
                    continue
                m = _NAME_RE.match(text, pos)
                if not m:
                    if saw_factor:
                        raise ParseError("expected a variable after '*'", pos)
                    raise ParseError("expected a term", pos)
                name = m.group()
                if name not in _VAR_INDEX:
                    raise ParseError(f"unknown variable {name!r}", pos)
                pos = skip_ws(m.end())
                exp = 1
                if pos < n and text[pos] == "^":
                    pos = skip_ws(pos + 1)
                    esign = 1
                    if pos < n and text[pos] == "-":
                        esign = -1
                        pos = skip_ws(pos + 1)
                    m = _INT_RE.match(text, pos)
                    if not m:
                        raise ParseError("expected an exponent", pos)
                    if len(m.group()) > 10:  # out of range; int() refuses over 4300 digits
                        raise ParseError(_RANGE_ERROR, term_pos)
                    exp = esign * int(m.group())
                    pos = m.end()
                idx = _VAR_INDEX[name]
                exps[idx] = exps.get(idx, 0) + exp
                saw_factor = True
                expect_factor = False
                continue
            if pos < n and text[pos] == "*":
                pos += 1
                expect_factor = True
                continue
            break
        c = 1 if coeff is None else coeff
        try:
            mono = _pack([exps.get(i, 0) for i in range(len(_VAR_NAMES))])
        except OverflowError:
            raise ParseError(_RANGE_ERROR, term_pos) from None
        s = terms.get(mono, 0) + sign * c
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)
        pos = skip_ws(pos)
    return LaurentPoly(terms)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as error:  # ParseError, and int() past 4300 digits
        return error


SEMANTIC_ERRORS = ("unknown variable", _RANGE_ERROR)


def assert_parses_as_the_reference(text):
    """The same polynomial or the same exception type; for an unknown name or
    a range error, also the same message and position."""
    expected, got = _outcome(_ref_parse_poly, text), _outcome(parse_poly, text)
    if isinstance(expected, LaurentPoly):
        assert isinstance(got, LaurentPoly) and got == expected, (text, got)
        return
    assert type(got) is type(expected), (text, got, expected)
    if str(expected).startswith(SEMANTIC_ERRORS) or str(got).startswith(SEMANTIC_ERRORS):
        assert (str(got), got.position) == (str(expected), expected.position), text


TOKEN = re.compile(r"\d+|[a-z]+|\S")
SPACES = st.text(st.sampled_from(" \t\n\u2003\x1c"), max_size=2)
SUBSTITUTES = ("x", "qq", "z1", "99999999999", str(2 ** 30), "1073741823*q", "-", "\u0663")


@st.composite
def spaced_canonical_texts(draw):
    """A canonical string with whitespace between its tokens, and sometimes
    one token replaced by an unknown name, an out-of-range exponent, a sign or
    a digit of another script."""
    tokens = TOKEN.findall(canonical_string(draw(polys(max_terms=4, max_exp=3))))
    if draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(SUBSTITUTES))
    return draw(SPACES) + "".join(token + draw(SPACES) for token in tokens)


GRAMMAR_TEXTS = st.text(st.sampled_from(list("qtwuvabcxyz0123456789+-*^ _\t\n\u0663")),
                        max_size=20)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(GRAMMAR_TEXTS)
@example("")
@example(" \t\n")
@example("9" * 4301 + "*q")  # int() refuses the coefficient
@example("q - " + "7" * 5000)
@example("q^-" + "9" * 5000)  # a range error, int() never asked
@example("zz^99999999999")  # the name is checked before the exponent
@example("q^99999999999*zz")
@example("q^1073741823*q + zz")  # the range error of the first term comes first
@example("\u0663*q^\u0663")  # digits of any script
def test_parse_matches_the_reference_scanner_on_any_text(text):
    assert_parses_as_the_reference(text)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spaced_canonical_texts())
@example("q ^ - 2 * t\u2003+\x1c3 * w")
def test_parse_matches_the_reference_scanner_on_spaced_canonical_strings(text):
    assert_parses_as_the_reference(text)


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
