"""Exact arithmetic for multivariate Laurent polynomials over Z and their fractions.

A polynomial is a sparse map from monomials to nonzero integer coefficients.
The variables are fixed, in the order q t w u v a b c (in order of
precedence), and a monomial is one packed int of nine 32-bit fields: the
total degree in the most significant field, then the exponents of q, t, w,
u, v, a, b and c.  Each field holds its value plus the bias 2^30, so every
exponent, and every total degree, lies in [-2^30, 2^30 - 1] and the top bit
of each field (its guard bit) is clear.  Negative exponents are allowed
everywhere except in fraction denominators.

The canonical term order is graded lexicographic: higher total degree first,
ties broken variable by variable in that order.  It is int comparison of
packed monomials.  Canonical strings list terms in descending order, which
makes the printed form unique per value.

A product of monomials is m1 + m2 - _UNIT, where _UNIT (every field at its
bias) is the monomial 1.  A field pushed out of its range sets its own guard
bit, so one OR over a result's keys finds any out-of-range exponent or total
degree, which raises OverflowError and never wraps.

RatFunc values are fully reduced fractions: the numerator is any Laurent
polynomial, the denominator an ordinary polynomial with minimum degree zero
in every variable and positive leading coefficient; monomial units are
folded into the numerator and common factors (including integer content)
are divided out.  A numerator can share only an integer factor with an
integer denominator d, so one helper, _over_int, reduces every fraction over
a constant: it divides out the gcd of d and the numerator's content and
moves the sign to the numerator.  `+` and `*` of two fractions over ints
form their result in one step (n1*n2 over d1*d2; n1 + n2 over a shared d,
or each numerator scaled by an int up to lcm(d1, d2)) and reduce it with the
same helper, with no polynomial gcd and no product of denominators.  Any
polynomial denominator takes the general path.

Polynomial text is a sum of terms.  A term is a sign (optional on the first
term), then an integer or a factor, then any number of factors after '*'; a
factor is a variable with an optional '^', '-' and digits.  Whitespace may
stand between any two of these tokens.  parse_poly matches one term at a
time, then each of its factors.  No two optional whitespace runs stand side
by side in the patterns, so a failed match backtracks over each run once.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

Mono = int

_VAR_NAMES = ("q", "t", "w", "u", "v", "a", "b", "c")
_VAR_INDEX: dict[str, int] = {name: i for i, name in enumerate(_VAR_NAMES)}


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division failed: the divisor does not divide."""


class ParseError(ValueError):
    """Polynomial text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- packed monomials --------------------------------------------------------

_BITS = 32
_FIELD = (1 << _BITS) - 1
_BIAS = 1 << (_BITS - 2)
_SHIFTS = tuple(_BITS * (len(_VAR_NAMES) - 1 - i) for i in range(len(_VAR_NAMES)))
_DEGREE_SHIFT = _BITS * len(_VAR_NAMES)
_UNIT = sum(_BIAS << s for s in (*_SHIFTS, _DEGREE_SHIFT))
_GUARDS = sum(2 * _BIAS << s for s in (*_SHIFTS, _DEGREE_SHIFT))
# Adding e * _STEP[i] multiplies a monomial by variable i to the power e.
_STEP = tuple((1 << s) + (1 << _DEGREE_SHIFT) for s in _SHIFTS)
_RANGE_ERROR = "exponent or total degree outside [-2^30, 2^30 - 1]"


def _pack(exps: Sequence[int]) -> Mono:
    """The monomial with these exponents (in variable order, missing ones zero)."""
    if not all(-_BIAS <= e < _BIAS for e in (*exps, sum(exps))):
        raise OverflowError(f"{_RANGE_ERROR}: {tuple(exps)}")
    return _UNIT + sum(e * step for e, step in zip(exps, _STEP))


def _exponents(m: Mono) -> tuple[int, ...]:
    return tuple(((m >> s) & _FIELD) - _BIAS for s in _SHIFTS)


def _checked(terms: dict[Mono, int]) -> LaurentPoly:
    """Wrap `terms`, raising OverflowError if any key has a guard bit set."""
    if reduce(or_, terms, 0) & _GUARDS:
        raise OverflowError(_RANGE_ERROR)
    return LaurentPoly(terms)


class LaurentPoly:
    """Immutable Laurent polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int]):
        # Takes ownership of `terms`; callers must not pass zero coefficients.
        self.terms = terms

    # -- constructors --------------------------------------------------------

    @staticmethod
    def integer(value: int) -> LaurentPoly:
        return LaurentPoly({_UNIT: value}) if value else ZERO

    @staticmethod
    def variable(name: str, exponent: int = 1) -> LaurentPoly:
        if name not in _VAR_INDEX:
            raise ValueError(f"unknown variable {name!r}")
        if exponent == 0:
            return ONE
        return LaurentPoly({_pack((0,) * _VAR_INDEX[name] + (exponent,)): 1})

    # -- predicates and views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {_UNIT: 1}

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _UNIT in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(_UNIT, 0)

    def exponent_terms(self) -> dict[tuple[int, ...], int]:
        """The terms keyed by exponent tuples in variable order, trailing zeros trimmed."""
        out = {}
        for mono, c in self.terms.items():
            exps = _exponents(mono)
            width = max((i + 1 for i, e in enumerate(exps) if e), default=0)
            out[exps[:width]] = c
        return out

    def degree(self, name: str) -> int:
        """Maximum exponent of `name` across terms (0 for the zero polynomial)."""
        shift = _SHIFTS[_VAR_INDEX[name]]
        return max((((m >> shift) & _FIELD) - _BIAS for m in self.terms), default=0)

    def leading(self) -> tuple[Mono, int]:
        """Leading (monomial, coefficient) in the canonical term order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms)
        return mono, self.terms[mono]

    def content(self) -> int:
        """Positive gcd of the integer coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def monomial_gcd(self) -> Mono:
        """Componentwise minimum exponent vector over all terms."""
        if len(self.terms) == 1:
            return next(iter(self.terms))
        if not self.terms:
            return _UNIT
        return _pack([min(col) for col in zip(*map(_exponents, self.terms))])

    def shift(self, mono: Mono) -> LaurentPoly:
        """Multiply by the given monomial."""
        if mono == _UNIT:
            return self
        delta = mono - _UNIT
        return _checked({m + delta: c for m, c in self.terms.items()})

    def unshift(self, mono: Mono) -> LaurentPoly:
        """Divide by the given monomial."""
        return self.shift(2 * _UNIT - mono)

    def int_div(self, k: int) -> LaurentPoly:
        """Divide every coefficient by k, which must divide exactly."""
        out = {}
        for m, c in self.terms.items():
            quot, rem = divmod(c, k)
            if rem:
                raise NotDivisibleError(f"coefficient {c} not divisible by {k}")
            out[m] = quot
        return LaurentPoly(out)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1 and _UNIT in a:
            k = a[_UNIT]
            return LaurentPoly({m: k * c for m, c in b.items()})
        out: dict[Mono, int] = {}
        for m1, c1 in a.items():
            delta = m1 - _UNIT
            for m2, c2 in b.items():
                m = delta + m2
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _checked(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative power of a polynomial; invert as a RatFunc")
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def exact_div(self, other) -> LaurentPoly:
        """Return z with z * other == self, or raise NotDivisibleError."""
        other = _coerce_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return ZERO
        smono = self.monomial_gcd()
        omono = other.monomial_gcd()
        num = self.unshift(smono)
        den = other.unshift(omono)
        dl_mono, dl_coeff = den.leading()
        rem = dict(num.terms)
        quot: dict[Mono, int] = {}
        while rem:
            # Every exponent here is nonnegative, so no field leaves its range.
            rl_mono = max(rem)
            qm = rl_mono - dl_mono + _UNIT
            if min(_exponents(qm)) < 0:
                raise NotDivisibleError("leading monomial not divisible")
            qc, r = divmod(rem[rl_mono], dl_coeff)
            if r:
                raise NotDivisibleError("leading coefficient not divisible")
            quot[qm] = qc
            delta = qm - _UNIT
            for m, c in den.terms.items():
                key = m + delta
                s = rem.get(key, 0) - qc * c
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return LaurentPoly(quot).shift(smono - omono + _UNIT)

    def divides(self, other: LaurentPoly) -> bool:
        try:
            other.exact_div(self)
            return True
        except NotDivisibleError:
            return False

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Exact evaluation at rational values for every variable present."""
        values: dict[int, Fraction] = {}
        for name, value in point.items():
            values[_VAR_INDEX[name]] = Fraction(value)
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = Fraction(coeff)
            for idx, exp in enumerate(_exponents(mono)):
                if not exp:
                    continue
                if idx not in values:
                    raise ValueError(f"variable {_VAR_NAMES[idx]!r} not assigned")
                base = values[idx]
                if base == 0 and exp < 0:
                    raise ZeroDivisionError(
                        f"zero raised to negative power ({_VAR_NAMES[idx]}^{exp})"
                    )
                term *= base ** exp
            total += term
        return total

    # -- comparisons and hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant() and self.terms.get(_UNIT, 0) == other
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        # A constant hashes as its int, since it compares equal to it.
        if self.is_constant():
            return hash(self.terms.get(_UNIT, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return canonical_string(self)

    def __repr__(self):
        return f"LaurentPoly({canonical_string(self)!r})"


ZERO = LaurentPoly({})
ONE = LaurentPoly({_UNIT: 1})


def _coerce_poly(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.integer(value)
    return NotImplemented


def integer(value: int) -> LaurentPoly:
    return LaurentPoly.integer(value)


def variable(name: str, exponent: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(name, exponent)


def _fields_present(monos: Iterable[Mono]) -> list[tuple[str, int]]:
    """(name, shift) of each variable in any of the monomials, from one OR of m ^ _UNIT."""
    differs = reduce(or_, (m ^ _UNIT for m in monos), 0)
    return [(name, s) for name, s in zip(_VAR_NAMES, _SHIFTS) if (differs >> s) & _FIELD]


def variables_of(polys: Iterable[LaurentPoly]) -> set[str]:
    """The variables that occur in any of the polynomials, from one pass over their keys."""
    return {name for name, _ in _fields_present(m for p in polys for m in p.terms)}


def add_products(acc: dict[Mono, int], pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> None:
    """Add the term products of x * y, over the (x, y) pairs, into acc {monomial: coefficient}.

    No polynomial is built per product, and nothing is checked or dropped
    here: finish_sum does both, once, for the whole sum.
    """
    get = acc.get
    for x, y in pairs:
        a, b = x.terms, y.terms
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            delta = m1 - _UNIT
            for m2, c2 in b.items():
                m = delta + m2
                acc[m] = get(m, 0) + c1 * c2


def finish_sum(acc: dict[Mono, int]) -> LaurentPoly:
    """The polynomial accumulated in acc by add_products.

    The guard bits are checked over every key touched, before zero
    coefficients are dropped, so a term product out of range raises
    OverflowError, as under *, even where the sum cancels it.
    """
    if reduce(or_, acc, 0) & _GUARDS:
        raise OverflowError(_RANGE_ERROR)
    return LaurentPoly({m: c for m, c in acc.items() if c})


def sum_of_products(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of x * y over the (x, y) pairs, accumulated in one dict."""
    acc: dict[Mono, int] = {}
    add_products(acc, pairs)
    return finish_sum(acc)


# -- canonical text form -----------------------------------------------------

def canonical_string(poly: LaurentPoly) -> str:
    if not poly.terms:
        return "0"
    present = _fields_present(poly.terms)
    parts: list[str] = []
    for i, mono in enumerate(sorted(poly.terms, reverse=True)):
        coeff = poly.terms[mono]
        mag = abs(coeff)
        factors = [name if exp == 1 else f"{name}^{exp}" for name, shift in present
                   if (exp := ((mono >> shift) & _FIELD) - _BIAS)]
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


# The text grammar (module docstring): a factor, and a term.
_FACTOR = r"([A-Za-z][A-Za-z0-9_]*)(?:\s*\^\s*(?:(-)\s*)?(\d+))?"
_FACTOR_RE = re.compile(_FACTOR)
_TERM_RE = re.compile(rf"\s*(?:([+-])\s*)?((\d+)|{_FACTOR})(?:\s*\*\s*{_FACTOR})*")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical polynomial grammar (inverse of canonical_string)."""
    end = len(text.rstrip())
    if not end:
        raise ParseError("empty polynomial", len(text))
    terms: dict[Mono, int] = {}
    pos = 0
    while pos < end:
        m = _TERM_RE.match(text, pos, end)
        if m is None or (pos and not m.group(1)):  # a sign after the first term
            raise ParseError("expected a term", pos)
        term_pos = m.start(2)
        c = int(m.group(3)) if m.group(3) else 1  # int() refuses over 4300 digits
        exps = [0] * len(_VAR_NAMES)
        for f in _FACTOR_RE.finditer(text, term_pos, m.end()):
            name, minus, digits = f.groups()
            if name not in _VAR_INDEX:
                raise ParseError(f"unknown variable {name!r}", f.start())
            if digits and len(digits) > 10:  # out of range, and int() is not asked
                raise ParseError(_RANGE_ERROR, term_pos)
            e = int(digits) if digits else 1
            exps[_VAR_INDEX[name]] += -e if minus else e
        try:
            mono = _pack(exps)
        except OverflowError:
            raise ParseError(_RANGE_ERROR, term_pos) from None
        s = terms.get(mono, 0) + (-c if m.group(1) == "-" else c)
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)
        pos = m.end()
    return LaurentPoly(terms)


# -- greatest common divisors ------------------------------------------------
#
# Recursive primitive PRS, one variable at a time, integers at the bottom.
# The result is normalized: unit integer content, positive leading
# coefficient, minimum degree zero in every variable.

def poly_gcd(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if x.is_zero():
        return _gcd_normalize(y)
    if y.is_zero():
        return _gcd_normalize(x)
    a = x.unshift(x.monomial_gcd())
    b = y.unshift(y.monomial_gcd())
    return _gcd_normalize(_gcd_core(a, b))


def _gcd_normalize(p: LaurentPoly) -> LaurentPoly:
    p = p.unshift(p.monomial_gcd())
    c = p.content()
    if c > 1:
        p = p.int_div(c)
    if p.leading()[1] < 0:
        p = -p
    return p


def _main_variable(p: LaurentPoly, q: LaurentPoly) -> int:
    present = variables_of((p, q))
    if not present:
        raise ValueError("no variable present")
    return min(_VAR_INDEX[name] for name in present)


def _as_univariate(p: LaurentPoly, var_idx: int) -> dict[int, LaurentPoly]:
    coeffs: dict[int, dict[Mono, int]] = {}
    shift, step = _SHIFTS[var_idx], _STEP[var_idx]
    for mono, c in p.terms.items():
        deg = ((mono >> shift) & _FIELD) - _BIAS
        coeffs.setdefault(deg, {})[mono - deg * step] = c
    return {deg: LaurentPoly(terms) for deg, terms in coeffs.items()}


def _gcd_many(polys: Iterable[LaurentPoly]) -> LaurentPoly:
    acc = ZERO
    for p in polys:
        if p.is_zero():
            continue
        acc = p if acc.is_zero() else _gcd_normalize(_gcd_core(acc, p))
        if acc.is_one():
            return acc
    return _gcd_normalize(acc) if not acc.is_zero() else ZERO


def _pseudo_rem(f: LaurentPoly, g: LaurentPoly, var_idx: int) -> LaurentPoly:
    gu = _as_univariate(g, var_idx)
    dg = max(gu)
    lead_g = gu[dg]
    name = _VAR_NAMES[var_idx]
    r = f
    while not r.is_zero():
        ru = _as_univariate(r, var_idx)
        dr = max(ru)
        if dr < dg:
            break
        r = r * lead_g - ru[dr] * LaurentPoly.variable(name, dr - dg) * g
    return r


def _gcd_core(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # Both nonzero, minimum degree zero per variable.
    if a.is_constant() or b.is_constant():
        return LaurentPoly.integer(math.gcd(a.content(), b.content()))
    var_idx = _main_variable(a, b)
    au = _as_univariate(a, var_idx)
    bu = _as_univariate(b, var_idx)
    ca = _gcd_many(au.values())
    cb = _gcd_many(bu.values())
    c = _gcd_normalize(_gcd_core(ca, cb))
    f = a.exact_div(ca)
    g = b.exact_div(cb)
    if max(_as_univariate(f, var_idx)) < max(_as_univariate(g, var_idx)):
        f, g = g, f
    while True:
        gu = _as_univariate(g, var_idx)
        if max(gu) == 0:
            # A nonzero remainder free of the main variable: primitive part is 1.
            return c
        r = _pseudo_rem(f, g, var_idx)
        if r.is_zero():
            break
        r = r.exact_div(_gcd_many(_as_univariate(r, var_idx).values()))
        f, g = g, r
    return c * g.exact_div(_gcd_many(_as_univariate(g, var_idx).values()))


# -- rational functions ------------------------------------------------------

class RatFunc:
    """Fully reduced fraction of Laurent polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc components must be polynomials or integers")
        self.num, self.den = _normalize_fraction(num, den)

    @staticmethod
    def from_fraction(value: Fraction | int) -> RatFunc:
        f = Fraction(value)
        return RatFunc(LaurentPoly.integer(f.numerator), LaurentPoly.integer(f.denominator))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def as_laurent(self) -> LaurentPoly:
        if not self.den.is_one():
            raise ValueError(f"not a Laurent polynomial: {self}")
        return self.num

    def inverse(self) -> RatFunc:
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / d

    def __add__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = _int_den(self.den), _int_den(other.den)
        if d1 and d2:
            d = math.lcm(d1, d2)
            return _reduced(*_over_int(_scaled(self.num, d // d1) + _scaled(other.num, d // d2), d))
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = _int_den(self.den), _int_den(other.den)
        if d1 and d2:
            return _reduced(*_over_int(self.num * other.num, d1 * d2))
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = _coerce_ratfunc(other)
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        # Equal to its numerator when the denominator is 1, and a constant
        # p/q equal to Fraction(p, q), so hash alike.
        if self.den.is_one():
            return hash(self.num)
        if self.den.is_constant() and self.num.is_constant():
            return hash(Fraction(self.num.constant_value(), self.den.constant_value()))
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def __str__(self):
        if self.den.is_one():
            return canonical_string(self.num)
        return f"({canonical_string(self.num)})/({canonical_string(self.den)})"

    def __repr__(self):
        return f"RatFunc({self!s})"


def _coerce_ratfunc(value):
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, LaurentPoly):
        return RatFunc(value)
    if isinstance(value, int):
        return RatFunc(LaurentPoly.integer(value))
    if isinstance(value, Fraction):
        return RatFunc.from_fraction(value)
    return NotImplemented


def _reduced(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
    """The RatFunc num/den of a pair already in reduced form, built without normalising."""
    out = object.__new__(RatFunc)
    out.num, out.den = num, den
    return out


def _int_den(den: LaurentPoly) -> int:
    """A reduced denominator as its (positive) int value, or 0 if it is not constant."""
    terms = den.terms
    return terms.get(_UNIT, 0) if len(terms) == 1 else 0


def _scaled(poly: LaurentPoly, k: int) -> LaurentPoly:
    """poly times the positive int k."""
    return poly if k == 1 else LaurentPoly({m: k * c for m, c in poly.terms.items()})


def _over_int(num: LaurentPoly, d: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The reduced form of num / d for a nonzero int d.

    Only an integer can divide both, so the gcd of d and num's content is
    divided out, and the sign moves to the numerator.
    """
    if not num.terms:
        return ZERO, ONE
    if d < 0:
        num, d = -num, -d
    g = d
    for c in num.terms.values():
        if g == 1:
            break
        g = math.gcd(g, c)
    if g > 1:
        num, d = num.int_div(g), d // g
    return num, ONE if d == 1 else LaurentPoly({_UNIT: d})


def _normalize_fraction(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return ZERO, ONE
    # Fold the denominator's monomial part into the numerator.
    dmono = den.monomial_gcd()
    den = den.unshift(dmono)
    num = num.unshift(dmono)
    if den.is_constant():
        return _over_int(num, den.constant_value())
    nmono = num.monomial_gcd()
    core = num.unshift(nmono)
    g = poly_gcd(core, den)
    if not g.is_one():
        core = core.exact_div(g)
        den = den.exact_div(g)
    num = core.shift(nmono)
    c = math.gcd(num.content(), den.content())
    if c > 1:
        num = num.int_div(c)
        den = den.int_div(c)
    if den.leading()[1] < 0:
        num = -num
        den = -den
    return num, den


def parse_ratfunc(text: str) -> RatFunc:
    """Parse "(num)/(den)" or a bare polynomial."""
    s = text.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        num_text, den_text = s[1:-1].split(")/(", 1)
        return RatFunc(parse_poly(num_text), parse_poly(den_text))
    return RatFunc(parse_poly(s))
