"""Characteristic-polynomial link invariant and bounded Markov-class search.

For a classical braid word b on n strands, the invariant is
det(phi_LKB(b) - w * id), a Laurent polynomial in q, t, w of w-degree
n(n-1)/2.  It is constant on conjugacy classes, so the set of polynomials
reachable from a word by Markov moves (conjugation, stabilization,
destabilization) is an invariant of the closure link.  The full set is
infinite; enumerate_markov_class explores it breadth-first inside explicit
bounds, deduplicating braids by Garside normal form and polynomials by
canonical string.  A word reached by conjugation inherits the polynomial of
the word it came from; only stabilization and destabilization children have
their characteristic polynomial computed.

The invariant is computed from half its coefficients.  Write
det(x*I - A) = sum_k c_k x^(m-k) for the m x m LKB image A, so that
c_k = (-1)^k e_k, e_k the elementary symmetric functions of its
eigenvalues.  A Berkowitz run truncated at h = m // 2 (matrix._berkowitz
with top = h) on the stored sparse rows of A (reps.rep_apply) gives
c_0 .. c_h, keeping h + 1 coefficients per trailing submatrix.  LKB is
unitary for the involution bar: q -> 1/q, t -> 1/t (Budney, J. Knot
Theory Ramifications 14, 2005), so A^-1 has the barred eigenvalues,
e_(m-k) = det(A) * bar(e_k) and c_(m-k) = (-1)^m det(A) * bar(c_k).
det LKB(sigma_i) is (-q)^(n-2) * t*q^2, so det(A) is that monomial to the
exponent sum of b, and the other half is one pass over packed keys.
RingMatrix.charpoly runs the same routine untruncated, for any matrix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .braid import BraidWord, conjugate, destabilize, free_reduce, sigma, stabilize
from .garside import to_normal_form
from .matrix import _berkowitz
from .reps import lkb, rep_apply
from .ring import (
    _UNIT,
    LaurentPoly,
    _checked,
    canonical_string,
    parse_poly,
    variable,
)


@dataclass(frozen=True)
class InvariantValue:
    strands: int
    poly: LaurentPoly

    def __str__(self):
        return canonical_string(self.poly)


@dataclass(frozen=True)
class MarkovBounds:
    depth: int
    max_strands: int
    max_word_length: int

    def __post_init__(self):
        if self.depth < 0 or self.max_word_length < 0:
            raise ValueError("Markov bounds depth and max_word_length must be nonnegative")
        if self.max_strands < 2:
            raise ValueError("Markov bound max_strands must be at least 2")


@dataclass(frozen=True)
class MarkovClassSample:
    seed: BraidWord
    bounds: MarkovBounds
    witnesses: tuple[tuple[str, BraidWord], ...]

    @property
    def polys(self) -> tuple[str, ...]:
        return tuple(p for p, _ in self.witnesses)

    def witness(self, poly: str) -> BraidWord:
        for p, word in self.witnesses:
            if p == poly:
                return word
        raise KeyError(poly)


def charpoly_invariant(n: int, word: BraidWord) -> InvariantValue:
    if not word.is_classical:
        raise ValueError("the invariant is defined for classical words only")
    if word.n != n:
        raise ValueError("strand count mismatch")
    return InvariantValue(n, _lkb_charpoly(n, word))


def _lkb_charpoly(n: int, word: BraidWord) -> LaurentPoly:
    """det(A - w*I) = (-1)^m * sum_k c_k w^(m-k) for A = LKB(word) (module docstring)."""
    m = n * (n - 1) // 2
    h = m // 2
    c = _berkowitz(rep_apply(lkb(n), word).sparse, h)
    # det(A) = det_sign * q^(n*s) * t^s.  The entries involve q and t only,
    # and the key 2*_UNIT - mono negates every exponent of mono, so the keys
    # of det(A) * bar(c_k) are det_key + _UNIT - mono: no product is formed.
    s = sum(sign for _, sign in word.letters)
    det_key, = (variable("q", n * s) * variable("t", s)).terms
    det_sign = -1 if n * s % 2 else 1
    w_step = next(iter(variable("w").terms)) - _UNIT
    sign = -1 if m % 2 else 1
    terms = {}
    for k in range(h + 1):  # (-1)^m c_k, the coefficient of w^(m-k)
        shift = (m - k) * w_step
        terms.update((mono + shift, sign * coeff) for mono, coeff in c[k].terms.items())
    for k in range(m - h):  # (-1)^m c_(m-k) = det(A) * bar(c_k), the coefficient of w^k
        top = det_key + _UNIT + k * w_step
        terms.update((top - mono, det_sign * coeff) for mono, coeff in c[k].terms.items())
    return _checked(terms)


def _moves(word: BraidWord, bounds: MarkovBounds) -> list[tuple[BraidWord, bool]]:
    """Markov-move children of a word, each flagged True if it is a conjugate."""
    out = []
    n = word.n
    for i in range(1, n):
        for s in (1, -1):
            out.append((free_reduce(conjugate(word, BraidWord(n, (sigma(i, s),)))), True))
    if n < bounds.max_strands:
        out.append((stabilize(word, 1), False))
        out.append((stabilize(word, -1), False))
    if n >= 3 and word.letters and word.letters[-1][0] == n - 1:
        if all(i != n - 1 for i, _ in word.letters[:-1]):
            out.append((destabilize(word), False))
    return [(w, conj) for w, conj in out if len(w) <= bounds.max_word_length]


def enumerate_markov_class(seed: BraidWord, bounds: MarkovBounds) -> MarkovClassSample:
    """Breadth-first closure of the seed under Markov moves, within bounds."""
    if not seed.is_classical:
        raise ValueError("Markov moves apply to classical words only")
    if seed.n > bounds.max_strands or len(seed) > bounds.max_word_length:
        raise ValueError("the seed exceeds max_strands or max_word_length")
    seen = {(seed.n, to_normal_form(seed))}
    witnesses: dict[str, BraidWord] = {}
    # Queue items carry the polynomial key, or None where it is still unknown.
    queue: deque[tuple[BraidWord, int, str | None]] = deque([(seed, 0, None)])
    while queue:
        word, depth, key = queue.popleft()
        if key is None:
            key = canonical_string(charpoly_invariant(word.n, word).poly)
        witnesses.setdefault(key, word)
        if depth >= bounds.depth:
            continue
        for nxt, is_conjugate in _moves(word, bounds):
            state = (nxt.n, to_normal_form(nxt))
            if state not in seen:
                seen.add(state)
                queue.append((nxt, depth + 1, key if is_conjugate else None))
    ordered = tuple(sorted(witnesses.items()))
    return MarkovClassSample(seed=seed, bounds=bounds, witnesses=ordered)


# Reference characteristic polynomials for small closures of 2- and 3-letter
# braids (trivial knot four ways, the trivial knot in B_4, the Hopf link and
# the trefoil).  The three values with monomial denominators are recorded as
# (numerator, denominator) pairs.

_REFERENCE_NUMERATOR_INV = (
    "q^2*t - q^2*t*w^3 - q*w^2 + q^4*t^2*w^2 - q^3*t^2*w^2 - q^3*t*w^2 + 2*q^2*t*w^2"
    " - q*t*w^2 + w^2 + q*w - q^4*t^2*w + q^3*t^2*w + q^3*t*w - 2*q^2*t*w + q*t*w - w"
)

REFERENCE_EXAMPLES: tuple[tuple[str, int, str, str, str], ...] = (
    ("trivial knot, positive braid", 3, "1 2", "q^6*t^2 - w^3", "1"),
    ("trivial knot, mixed braid", 3, "-1 2", _REFERENCE_NUMERATOR_INV, "q^2*t"),
    ("trivial knot, mixed braid (mirror order)", 3, "1 -2", _REFERENCE_NUMERATOR_INV, "q^2*t"),
    ("trivial knot, negative braid", 3, "-1 -2", "-q^6*t^2*w^3 + 1", "q^6*t^2"),
    ("trivial knot, four strands", 4, "1 2 3", "q^12*t^3 + w^6 - q^4*t*w^4 - q^8*t^2*w^2", "1"),
    ("Hopf link", 3, "1 1 2", "-q^9*t^3 - w^3 + q^3*t*w^2 + q^6*t^2*w", "1"),
    ("trefoil knot", 3, "1 1 1 2", "q^12*t^4 - w^3", "1"),
)


@dataclass(frozen=True)
class ReferenceCheck:
    label: str
    strands: int
    word: str
    computed: LaurentPoly
    reference_numerator: LaurentPoly
    reference_denominator: LaurentPoly
    match: bool

    def diff(self) -> LaurentPoly:
        return self.computed * self.reference_denominator - self.reference_numerator


@dataclass(frozen=True)
class ReferenceReport:
    checks: tuple[ReferenceCheck, ...]

    @property
    def all_match(self) -> bool:
        return all(c.match for c in self.checks)

    def summary(self) -> str:
        bad = [c.label for c in self.checks if not c.match]
        if not bad:
            return f"all {len(self.checks)} reference polynomials reproduced exactly"
        return "mismatch: " + ", ".join(bad)


def verify_reference_examples() -> ReferenceReport:
    """Recompute the recorded small-braid invariants and compare exactly."""
    checks = []
    for label, n, word_text, num_text, den_text in REFERENCE_EXAMPLES:
        word = BraidWord.parse(n, word_text)
        computed = charpoly_invariant(n, word).poly
        num = parse_poly(num_text)
        den = parse_poly(den_text)
        checks.append(
            ReferenceCheck(
                label=label,
                strands=n,
                word=word_text,
                computed=computed,
                reference_numerator=num,
                reference_denominator=den,
                match=computed * den == num,
            )
        )
    return ReferenceReport(tuple(checks))
